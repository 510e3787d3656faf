//! Daemon replay benchmark: sustained event throughput and tail latency
//! of `dtrd` under churn, plus the gain-vs-churn accounting.
//!
//! For each instance a seed-deterministic 100-event churn trace (Poisson
//! flaps, gravity-drift demand walks, what-if probes) is replayed through
//! the daemon with a precomputed incumbent, so the timed section is pure
//! event processing — no cold boot search. The replay runs twice and the
//! reply streams must be byte-identical (the determinism contract); the
//! final incumbent must stay within the 1.05× bar of a cold batch
//! re-optimization of the end-state network (`batch_ok`).
//!
//! A second, bursty scenario (ISSUE 9) replays a burst-heavy trace on
//! the 50-node instance twice more — once flat (`coalesce: 0`) and once
//! with event coalescing (`coalesce = burst_max`) — and reports the
//! coalescing throughput gain as a gated `bursty_coalescing` speedup
//! row (floor 3× in `bench_baselines.json`). Both runs are held to the
//! same determinism and batch-quality bars as the plain rows.
//!
//! Emits `BENCH_daemon.json` at the repository root. Schema:
//! `{ "benches":  [ { id: "daemon/event_mean/<topo>"|"daemon/event_p99/<topo>",
//!                    mean_s } … ],
//!    "daemon":   [ { topology, events, events_per_sec, p50_event_s,
//!                    p99_event_s, accepted, declined, no_improvement,
//!                    total_gain, total_churn_messages, gain_per_churn,
//!                    batch_ratio, batch_ok, deterministic } … ],
//!    "speedups": [ { topology, move_model: "batch_headroom", speedup,
//!                    same_incumbent } …,
//!                  { topology, move_model: "bursty_coalescing", speedup,
//!                    same_incumbent } ] }`
//!
//! The `batch_headroom` speedup rows gate quality, not speed: `speedup`
//! is `1.05 / batch_ratio`, so a floor of 1.0 in `bench_baselines.json`
//! enforces the acceptance bar, and `same_incumbent` records the
//! byte-identity of the two replays. The `bursty_coalescing` row gates
//! speed: wall-clock of the flat replay over the coalesced replay of
//! the same trace (machine-independent — both halves share the
//! machine); its `same_incumbent` records that both halves were
//! individually deterministic and batch-ok (their incumbents legally
//! differ — the coalesced run searches once per burst).

use criterion::{criterion_group, criterion_main, Criterion};
use dtr_core::{DtrSearch, Objective, SearchParams};
use dtr_daemon::{replay_trace, DaemonCfg, ReplayReport, TimingSummary};
use dtr_graph::gen::{random_topology, RandomTopologyCfg};
use dtr_graph::Topology;
use dtr_scenario::{generate_churn, ChurnCfg};
use dtr_traffic::{DemandSet, TrafficCfg};

/// The replay instances: the small smoke-scale network and the 50-node
/// acceptance instance shared with the engine/robust benches.
fn topologies() -> Vec<(&'static str, Topology, usize)> {
    vec![
        (
            "random_8n_32l",
            random_topology(&RandomTopologyCfg {
                nodes: 8,
                directed_links: 32,
                seed: 4,
            }),
            100,
        ),
        (
            "random_50n_200l",
            random_topology(&RandomTopologyCfg {
                nodes: 50,
                directed_links: 200,
                seed: 7,
            }),
            60,
        ),
    ]
}

struct Row {
    topology: String,
    timing: TimingSummary,
    report: ReplayReport,
    deterministic: bool,
}

/// The gated coalescing throughput comparison on the bursty trace.
struct BurstySpeedup {
    topology: String,
    speedup: f64,
    ok: bool,
}

/// Replays `trace` twice under `cfg`, asserts byte-determinism and the
/// batch-quality bar, and returns the bench row named `name`.
fn run_row(
    name: &str,
    trace: &dtr_scenario::ChurnTrace,
    cfg: DaemonCfg,
    initial: &dtr_core::DualWeights,
) -> Row {
    let out = replay_trace(trace, cfg, Some(initial.clone())).unwrap();
    let again = replay_trace(trace, cfg, Some(initial.clone())).unwrap();
    let deterministic = out.lines == again.lines && out.report == again.report;
    assert!(deterministic, "{name}: replay is not deterministic");
    assert!(
        out.report.batch_ok,
        "{name}: final incumbent is {:.4}× the cold batch solution",
        out.report.batch_ratio
    );

    let timing = TimingSummary::from_samples(&out.per_event_s);
    println!(
        "daemon {name}: {} lines, {:.0}/sec, p50 {:.2} ms, p99 {:.2} ms, \
         {} accepted ({:.4} gain / {} LSA msgs), {} coalesced / {} flushes, \
         batch ratio {:.4}",
        timing.events,
        timing.events_per_sec,
        timing.p50_event_s * 1e3,
        timing.p99_event_s * 1e3,
        out.report.accepted,
        out.report.total_gain,
        out.report.total_churn_messages,
        out.report.coalesced,
        out.report.flushes,
        out.report.batch_ratio
    );
    Row {
        topology: name.to_string(),
        timing,
        report: out.report,
        deterministic,
    }
}

fn bench_daemon(_c: &mut Criterion) {
    let mut rows: Vec<Row> = Vec::new();
    for (name, topo, events) in topologies() {
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 7,
                ..Default::default()
            },
        )
        .scaled(3.0);
        let trace = generate_churn(
            name,
            &topo,
            &demands,
            &ChurnCfg {
                events,
                seed: 11,
                ..Default::default()
            },
        );
        let cfg = DaemonCfg {
            params: SearchParams::tiny().with_seed(7),
            ..Default::default()
        };
        // Boot incumbent outside the timed replay: the bench measures
        // sustained event processing, not the cold batch search.
        let initial = DtrSearch::new(&topo, &demands, Objective::LoadBased, cfg.params)
            .run()
            .weights;
        rows.push(run_row(name, &trace, cfg, &initial));
    }

    // Bursty scenario: correlated event clusters (Magnien-style bursts
    // of demand snapshots at one timestamp, plus sparse pair/directed
    // flaps) on the 50-node acceptance instance. The flat replay
    // searches per event; the coalesced replay batches each burst into
    // one flush. Wall-clock ratio is the gated coalescing speedup.
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 50,
        directed_links: 200,
        seed: 7,
    });
    let demands = DemandSet::generate(
        &topo,
        &TrafficCfg {
            seed: 7,
            ..Default::default()
        },
    )
    .scaled(3.0);
    let bursty_cfg = ChurnCfg {
        events: 48,
        seed: 11,
        flap_rate: 0.05,
        demand_rate: 0.2,
        whatif_rate: 0.0,
        directed_flap_rate: 0.05,
        burst_rate: 2.0,
        burst_max: 8,
        ..Default::default()
    };
    let trace = generate_churn("random_50n_200l_bursty", &topo, &demands, &bursty_cfg);
    let flat = DaemonCfg {
        params: SearchParams::tiny().with_seed(7),
        ..Default::default()
    };
    let coalesced = DaemonCfg {
        coalesce: bursty_cfg.burst_max,
        ..flat
    };
    let initial = DtrSearch::new(&topo, &demands, Objective::LoadBased, flat.params)
        .run()
        .weights;
    let flat_row = run_row("random_50n_200l_bursty_flat", &trace, flat, &initial);
    let coalesced_row = run_row(
        "random_50n_200l_bursty_coalesced",
        &trace,
        coalesced,
        &initial,
    );
    // Same trace on both sides, so the events/sec ratio is exactly the
    // total wall-clock ratio.
    let bursty = BurstySpeedup {
        topology: "random_50n_200l".to_string(),
        speedup: flat_row.timing.total_s / coalesced_row.timing.total_s,
        ok: flat_row.deterministic
            && coalesced_row.deterministic
            && flat_row.report.batch_ok
            && coalesced_row.report.batch_ok,
    };
    println!(
        "daemon bursty coalescing speedup on {}: {:.2}×",
        bursty.topology, bursty.speedup
    );
    rows.push(flat_row);
    rows.push(coalesced_row);

    write_json(&rows, &bursty);
}

fn write_json(rows: &[Row], bursty: &BurstySpeedup) {
    let mut out = String::from("{\n  \"benches\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"id\": \"daemon/event_mean/{}\", \"mean_s\": {:.9} }},\n",
            r.topology,
            r.timing.total_s / r.timing.events.max(1) as f64
        ));
        out.push_str(&format!(
            "    {{ \"id\": \"daemon/event_p99/{}\", \"mean_s\": {:.9} }}{}\n",
            r.topology,
            r.timing.p99_event_s,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"daemon\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"topology\": \"{}\", \"events\": {}, \"events_per_sec\": {:.2}, \
             \"p50_event_s\": {:.6}, \"p99_event_s\": {:.6}, \"accepted\": {}, \
             \"declined\": {}, \"no_improvement\": {}, \"total_gain\": {:.6}, \
             \"total_churn_messages\": {}, \"gain_per_churn\": {:.6}, \
             \"batch_ratio\": {:.6}, \"batch_ok\": {}, \"deterministic\": {} }}{}\n",
            r.topology,
            r.timing.events,
            r.timing.events_per_sec,
            r.timing.p50_event_s,
            r.timing.p99_event_s,
            r.report.accepted,
            r.report.declined,
            r.report.no_improvement,
            r.report.total_gain,
            r.report.total_churn_messages,
            r.report.gain_per_churn,
            r.report.batch_ratio,
            r.report.batch_ok,
            r.deterministic,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"speedups\": [\n");
    for r in rows.iter() {
        out.push_str(&format!(
            "    {{ \"topology\": \"{}\", \"move_model\": \"batch_headroom\", \
             \"speedup\": {:.4}, \"same_incumbent\": {} }},\n",
            r.topology,
            1.05 / r.report.batch_ratio,
            r.deterministic && r.report.batch_ok,
        ));
    }
    out.push_str(&format!(
        "    {{ \"topology\": \"{}\", \"move_model\": \"bursty_coalescing\", \
         \"speedup\": {:.4}, \"same_incumbent\": {} }}\n",
        bursty.topology, bursty.speedup, bursty.ok,
    ));
    out.push_str("  ]\n}\n");
    // benches/ lives two levels below the repository root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_daemon.json");
    std::fs::write(path, out).expect("write BENCH_daemon.json");
    println!("[wrote] BENCH_daemon.json");
}

criterion_group!(benches, bench_daemon);
criterion_main!(benches);
