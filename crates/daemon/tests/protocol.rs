//! End-to-end protocol tests: determinism, snapshot/restore, churn
//! gating, connectivity refusal, and transport behavior.

use dtr_core::SearchParams;
use dtr_daemon::{replay_trace, serve, Daemon, DaemonCfg, EventAction, Reply, Request, Snapshot};
use dtr_graph::gen::{random_topology, triangle_topology, RandomTopologyCfg};
use dtr_graph::weights::DualWeights;
use dtr_graph::{NodeId, Topology, WeightVector};
use dtr_scenario::{generate_churn, ChurnCfg, ChurnTrace, ChurnTraceError};
use dtr_traffic::{DemandSet, TrafficCfg, TrafficMatrix};

fn instance() -> (Topology, DemandSet) {
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 8,
        directed_links: 32,
        seed: 4,
    });
    let base = DemandSet::generate(
        &topo,
        &TrafficCfg {
            seed: 4,
            ..Default::default()
        },
    )
    .scaled(3.0);
    (topo, base)
}

fn trace(events: usize, seed: u64) -> ChurnTrace {
    let (topo, base) = instance();
    generate_churn(
        "test",
        &topo,
        &base,
        &ChurnCfg {
            events,
            seed,
            ..Default::default()
        },
    )
}

fn cfg() -> DaemonCfg {
    DaemonCfg {
        params: SearchParams::tiny().with_seed(5),
        changes_per_event: 4,
        min_gain_per_churn: 0.0,
        ..Default::default()
    }
}

fn uniform(topo: &Topology) -> DualWeights {
    DualWeights::replicated(WeightVector::uniform(topo, 1))
}

#[test]
fn replaying_a_trace_twice_is_byte_identical() {
    let trace = trace(30, 1);
    let a = replay_trace(&trace, cfg(), None).unwrap();
    let b = replay_trace(&trace, cfg(), None).unwrap();
    assert_eq!(a.lines, b.lines, "reply lines must be byte-identical");
    assert_eq!(a.report, b.report);
    // Replies are valid protocol lines.
    for line in &a.lines {
        let _: Reply = serde_json::from_str(line).expect("reply parses");
    }
}

#[test]
fn snapshot_restore_round_trip_is_byte_identical() {
    let trace = trace(24, 2);
    let requests: Vec<String> = trace
        .events
        .iter()
        .map(|e| serde_json::to_string(&Request::from_churn(&e.action)).unwrap())
        .collect();
    let split = 11;

    // Reference: straight through.
    let mut reference = Daemon::new(trace.topo.clone(), trace.base.clone(), None, cfg());
    let all: Vec<String> = requests.iter().map(|r| reference.handle_line(r)).collect();

    // A: first half, then snapshot.
    let mut a = Daemon::new(trace.topo.clone(), trace.base.clone(), None, cfg());
    for r in &requests[..split] {
        a.handle_line(r);
    }
    let snapshot = match a.handle(Request::Snapshot) {
        Reply::Snapshot(s) => s,
        other => panic!("expected snapshot, got {other:?}"),
    };
    // The snapshot survives serialization (a restart would ship JSON).
    let snapshot: Snapshot =
        serde_json::from_str(&serde_json::to_string(&snapshot).unwrap()).unwrap();

    // B: a fresh process restores the snapshot and continues. The boot
    // incumbent is irrelevant — Restore replaces all state.
    let mut b = Daemon::new(
        trace.topo.clone(),
        trace.base.clone(),
        Some(uniform(&trace.topo)),
        cfg(),
    );
    assert!(matches!(
        b.handle(Request::Restore { snapshot }),
        Reply::Restored { .. }
    ));
    let tail: Vec<String> = requests[split..].iter().map(|r| b.handle_line(r)).collect();
    assert_eq!(
        tail,
        all[split..].to_vec(),
        "restored daemon must continue byte-identically"
    );
}

#[test]
fn infinite_churn_floor_declines_every_reconfiguration() {
    let trace = trace(20, 3);
    let strict = DaemonCfg {
        min_gain_per_churn: f64::INFINITY,
        ..cfg()
    };
    let out = replay_trace(&trace, strict, Some(uniform(&trace.topo))).unwrap();
    assert_eq!(out.report.accepted, 0, "nothing may clear an infinite bar");
    assert_eq!(out.report.total_churn_messages, 0);
    // The searches still found improvements — they were declined.
    assert!(
        out.report.declined > 0,
        "expected declined reconfigurations"
    );
}

#[test]
fn zero_floor_accepts_and_improves() {
    let trace = trace(30, 4);
    let out = replay_trace(&trace, cfg(), Some(uniform(&trace.topo))).unwrap();
    assert!(
        out.report.accepted > 0,
        "expected accepted reconfigurations"
    );
    assert!(out.report.total_gain > 0.0);
    assert!(out.report.total_churn_messages > 0);
    assert!(out.report.gain_per_churn > 0.0);
    assert!(out.report.batch_ok, "ratio {}", out.report.batch_ratio);
}

#[test]
fn disconnecting_failures_are_refused_and_duplicates_are_noops() {
    let topo = triangle_topology(1.0);
    let mut high = TrafficMatrix::zeros(3);
    high.set(0, 2, 0.3);
    let mut low = TrafficMatrix::zeros(3);
    low.set(0, 2, 0.3);
    let demands = DemandSet { high, low };
    let ab = topo.find_link(NodeId(0), NodeId(1)).unwrap();
    let ac = topo.find_link(NodeId(0), NodeId(2)).unwrap();
    let mut d = Daemon::new(topo.clone(), demands, Some(uniform(&topo)), cfg());

    let first = match d.handle(Request::LinkDown { link: ab.0 }) {
        Reply::Event(r) => r,
        other => panic!("{other:?}"),
    };
    assert_ne!(first.action, EventAction::Refused);
    assert_eq!(first.links_down, 2);

    // Failing the same pair again changes nothing.
    let dup = match d.handle(Request::LinkDown { link: ab.0 }) {
        Reply::Event(r) => r,
        other => panic!("{other:?}"),
    };
    assert_eq!(dup.action, EventAction::NoOp);

    // Failing a second pair would isolate node A: refused, state kept.
    let refused = match d.handle(Request::LinkDown { link: ac.0 }) {
        Reply::Event(r) => r,
        other => panic!("{other:?}"),
    };
    assert_eq!(refused.action, EventAction::Refused);
    assert_eq!(refused.links_down, 2, "mask must be unchanged");

    // Repair brings the network back and out-of-range ids error.
    let up = match d.handle(Request::LinkUp { link: ab.0 }) {
        Reply::Event(r) => r,
        other => panic!("{other:?}"),
    };
    assert_eq!(up.links_down, 0);
    assert!(matches!(
        d.handle(Request::LinkDown { link: 999 }),
        Reply::Error { .. }
    ));
}

#[test]
fn what_if_probes_do_not_mutate_state() {
    let (topo, base) = instance();
    let mut d = Daemon::new(topo.clone(), base, Some(uniform(&topo)), cfg());
    let before = match d.handle(Request::Snapshot) {
        Reply::Snapshot(s) => s,
        other => panic!("{other:?}"),
    };

    let probe = match d.handle(Request::WhatIfLinkDown { link: 0 }) {
        Reply::WhatIf(w) => w,
        other => panic!("{other:?}"),
    };
    assert!(probe.feasible);
    let hypothetical = probe.cost.expect("feasible probes report cost");

    let mut w2 = uniform(&topo);
    w2.low.set(dtr_graph::LinkId(1), 9);
    let weights_probe = match d.handle(Request::WhatIfWeights { weights: w2 }) {
        Reply::WhatIf(w) => w,
        other => panic!("{other:?}"),
    };
    assert_eq!(weights_probe.changes, Some(1));
    let churn = weights_probe.churn.expect("weight probes report churn");
    assert!(churn.lsa_messages > 0);

    let mut after = match d.handle(Request::Snapshot) {
        Reply::Snapshot(s) => s,
        other => panic!("{other:?}"),
    };
    // Probes advance seq but must not touch any other state.
    after.seq = before.seq;
    assert_eq!(before, after);
    // The intact-network cost differs from the hypothetical one.
    let status = match d.handle(Request::Status) {
        Reply::Status(s) => s,
        other => panic!("{other:?}"),
    };
    assert!(status.links_down == 0);
    assert!(
        status.cost.phi_h <= hypothetical.phi_h + 1e-12,
        "losing a link cannot reduce the lexicographic high cost here"
    );
}

#[test]
fn serve_loop_replies_per_line_and_honors_shutdown() {
    let (topo, base) = instance();
    let mut d = Daemon::new(topo.clone(), base, Some(uniform(&topo)), cfg());
    let input = format!(
        "{}\n\n{}\n{}\n{}\n",
        serde_json::to_string(&Request::Status).unwrap(),
        serde_json::to_string(&Request::WhatIfLinkDown { link: 2 }).unwrap(),
        serde_json::to_string(&Request::Shutdown).unwrap(),
        // After shutdown the loop must stop: this line gets no reply.
        serde_json::to_string(&Request::Status).unwrap(),
    );
    let mut output = Vec::new();
    serve(&mut d, input.as_bytes(), &mut output).unwrap();
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "empty line skipped, post-shutdown dropped");
    assert!(matches!(
        serde_json::from_str::<Reply>(lines[0]).unwrap(),
        Reply::Status(_)
    ));
    assert!(matches!(
        serde_json::from_str::<Reply>(lines[2]).unwrap(),
        Reply::Bye { .. }
    ));
    assert!(d.is_shutdown());
}

#[cfg(unix)]
#[test]
fn unix_socket_serves_the_same_protocol() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let (topo, base) = instance();
    let dir = std::env::temp_dir().join(format!("dtrd-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dtrd.sock");
    let server_path = path.clone();
    let w = uniform(&topo);
    let handle = std::thread::spawn(move || {
        let mut d = Daemon::new(topo, base, Some(w), cfg());
        dtr_daemon::serve_unix(&mut d, &server_path).unwrap();
    });

    // Wait for the socket to appear, then talk to it.
    let mut stream = loop {
        match UnixStream::connect(&path) {
            Ok(s) => break s,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    };
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for req in [Request::Status, Request::Shutdown] {
        writeln!(stream, "{}", serde_json::to_string(&req).unwrap()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let _: Reply = serde_json::from_str(line.trim()).unwrap();
    }
    handle.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sla_objective_daemon_optimizes_but_refuses_failure_masks() {
    use dtr_cost::{Objective, SlaParams};

    let (topo, base) = instance();
    let sla_cfg = DaemonCfg {
        objective: Objective::SlaBased(SlaParams::default()),
        ..cfg()
    };
    let mut d = Daemon::new(topo.clone(), base.clone(), Some(uniform(&topo)), sla_cfg);

    // Demand updates (and their warm reoptimizations) work under SLA.
    let drifted = base.scaled(1.1);
    let reply = d.handle(Request::DemandUpdate { demands: drifted });
    assert!(matches!(reply, Reply::Event(_)), "{reply:?}");

    // Link-failure events and probes get the clear protocol error
    // instead of numbers from an undefined masked SLA evaluation.
    for req in [
        Request::LinkDown { link: 0 },
        Request::WhatIfLinkDown { link: 0 },
    ] {
        match d.handle(req) {
            Reply::Error { message } => {
                assert!(message.contains("SLA objective"), "{message}");
                assert!(message.contains("--objective load"), "{message}");
            }
            other => panic!("expected an error reply, got {other:?}"),
        }
    }
    assert!(d.link_up().iter().all(|&u| u), "mask must stay untouched");

    // Weight what-ifs stay available (all-up evaluation is defined).
    let probe = d.handle(Request::WhatIfWeights {
        weights: uniform(&topo),
    });
    assert!(matches!(probe, Reply::WhatIf(_)), "{probe:?}");
}

#[test]
fn sla_objective_replays_a_demand_only_trace() {
    use dtr_cost::{Objective, SlaParams};
    use dtr_scenario::ChurnAction;

    // Strip a generated trace down to demand walks so no failure mask
    // is ever requested — the supported SLA regime.
    let mut t = trace(30, 6);
    t.events
        .retain(|e| matches!(e.action, ChurnAction::Demand { .. }));
    assert!(!t.events.is_empty(), "trace must keep demand events");
    let sla_cfg = DaemonCfg {
        objective: Objective::SlaBased(SlaParams::default()),
        ..cfg()
    };
    let a = replay_trace(&t, sla_cfg, Some(uniform(&t.topo))).unwrap();
    let b = replay_trace(&t, sla_cfg, Some(uniform(&t.topo))).unwrap();
    assert_eq!(a.lines, b.lines, "SLA replay must stay deterministic");
    assert_eq!(a.report.events, t.events.len());
    assert_eq!(a.report.final_links_down, 0);
}

#[test]
fn replaying_an_invalid_trace_is_an_error_not_a_panic() {
    let mut bad = trace(6, 3);
    bad.events[2].at_s = f64::NAN;
    let err = replay_trace(&bad, cfg(), None).unwrap_err();
    assert!(
        matches!(err, ChurnTraceError::TimestampRegression { index: 2, .. }),
        "{err}"
    );
    let err = dtr_daemon::replay_trace_tcp(&bad, cfg(), None).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("event 2"), "{err}");
}
