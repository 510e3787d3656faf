//! Bursty-operation tests: event coalescing, explicit/automatic batch
//! flushes, the background anytime budget, single-directed-link
//! failures, and the TCP transport (including concurrent probes during
//! a slow reoptimization).

use dtr_core::SearchParams;
use dtr_daemon::{
    replay_trace, replay_trace_tcp, serve_tcp, Daemon, DaemonCfg, EventAction, Reply, Request,
};
use dtr_graph::gen::{random_topology, triangle_topology, RandomTopologyCfg};
use dtr_graph::weights::DualWeights;
use dtr_graph::{NodeId, Topology, WeightVector};
use dtr_scenario::{generate_churn, ChurnCfg, ChurnTrace};
use dtr_traffic::{DemandSet, TrafficCfg, TrafficMatrix};

fn instance(nodes: usize, links: usize, seed: u64) -> (Topology, DemandSet) {
    let topo = random_topology(&RandomTopologyCfg {
        nodes,
        directed_links: links,
        seed,
    });
    let base = DemandSet::generate(
        &topo,
        &TrafficCfg {
            seed,
            ..Default::default()
        },
    )
    .scaled(3.0);
    (topo, base)
}

/// A trace dominated by same-timestamp demand bursts — the coalescing
/// workload (plus a few directed flaps to cross the features).
fn bursty_trace(events: usize, seed: u64) -> ChurnTrace {
    let (topo, base) = instance(8, 32, 4);
    generate_churn(
        "bursty",
        &topo,
        &base,
        &ChurnCfg {
            events,
            seed,
            flap_rate: 0.1,
            directed_flap_rate: 0.1,
            whatif_rate: 0.1,
            burst_rate: 2.0,
            burst_max: 4,
            ..Default::default()
        },
    )
}

fn cfg() -> DaemonCfg {
    DaemonCfg {
        params: SearchParams::tiny().with_seed(5),
        ..Default::default()
    }
}

fn uniform(topo: &Topology) -> DualWeights {
    DualWeights::replicated(WeightVector::uniform(topo, 1))
}

fn event(reply: Reply) -> dtr_daemon::EventReport {
    match reply {
        Reply::Event(r) => r,
        other => panic!("expected an event reply, got {other:?}"),
    }
}

/// `coalesce: 1` closes every batch as it opens, so its reply stream —
/// and its final incumbent — must be byte-identical to coalescing off.
/// This is the anchor of the coalescing determinism argument.
#[test]
fn coalesce_cap_one_is_byte_identical_to_off() {
    let trace = bursty_trace(24, 7);
    let requests: Vec<String> = trace
        .events
        .iter()
        .map(|e| serde_json::to_string(&Request::from_churn(&e.action)).unwrap())
        .collect();
    let mut off = Daemon::new(trace.topo.clone(), trace.base.clone(), None, cfg());
    let mut one = Daemon::new(
        trace.topo.clone(),
        trace.base.clone(),
        None,
        DaemonCfg {
            coalesce: 1,
            ..cfg()
        },
    );
    for r in &requests {
        assert_eq!(off.handle_line(r), one.handle_line(r));
    }
    assert_eq!(off.incumbent(), one.incumbent());
}

#[test]
fn bursty_coalescing_replay_is_deterministic_and_batches() {
    let trace = bursty_trace(30, 8);
    let coalescing = DaemonCfg {
        coalesce: 8,
        idle_steps: 1,
        ..cfg()
    };
    let a = replay_trace(&trace, coalescing, None).unwrap();
    let b = replay_trace(&trace, coalescing, None).unwrap();
    assert_eq!(a.lines, b.lines, "coalesced replay must be byte-identical");
    assert_eq!(a.report, b.report);
    assert!(a.report.coalesced > 0, "bursty trace never coalesced");
    assert!(a.report.flushes > 0, "open batches must be flushed");
    assert_eq!(
        a.lines.len() as u64,
        trace.events.len() as u64 + a.report.flushes,
        "one reply per trace event plus per injected flush"
    );
    assert!(a.report.batch_ok, "ratio {}", a.report.batch_ratio);
    // Batch-closing reports (explicit or automatic flushes) carry the
    // batch size they covered; together they account for every
    // coalesced acknowledgement.
    let mut batched = 0u64;
    for line in &a.lines {
        if let Ok(Reply::Event(r)) = serde_json::from_str::<Reply>(line) {
            if r.batch >= 1 {
                batched += r.batch as u64;
            }
        }
    }
    assert!(
        batched >= a.report.coalesced,
        "batches ({batched}) must cover coalesced events ({})",
        a.report.coalesced
    );
}

#[test]
fn flush_closes_open_batches_and_noops_when_empty() {
    let (topo, base) = instance(8, 32, 4);
    let mut d = Daemon::new(
        topo.clone(),
        base.clone(),
        Some(uniform(&topo)),
        DaemonCfg {
            coalesce: 3,
            ..cfg()
        },
    );
    // Flush with no open batch changes nothing.
    let noop = event(d.handle(Request::Flush));
    assert_eq!(noop.action, EventAction::NoOp);
    assert_eq!(noop.batch, 0);

    // Two events stay below the cap: acknowledged, search deferred.
    for scale in [1.1, 1.2] {
        let r = event(d.handle(Request::DemandUpdate {
            demands: base.scaled(scale),
        }));
        assert_eq!(r.action, EventAction::Coalesced);
        assert_eq!(r.batch, 0);
        assert_eq!(r.changes, 0, "no search ran yet");
    }
    // An explicit flush closes the batch of 2 with one search.
    let flushed = event(d.handle(Request::Flush));
    assert_ne!(flushed.action, EventAction::Coalesced);
    assert_eq!(flushed.batch, 2);
    assert_eq!(flushed.event, "flush(2)");

    // Reaching the cap flushes automatically on the triggering event.
    let mut actions = Vec::new();
    for scale in [1.3, 1.4, 1.5] {
        actions.push(event(d.handle(Request::DemandUpdate {
            demands: base.scaled(scale),
        })));
    }
    assert_eq!(actions[0].action, EventAction::Coalesced);
    assert_eq!(actions[1].action, EventAction::Coalesced);
    assert_ne!(actions[2].action, EventAction::Coalesced);
    assert_eq!(actions[2].batch, 3);

    // The queue is empty again.
    assert_eq!(event(d.handle(Request::Flush)).action, EventAction::NoOp);
}

#[test]
fn idle_budget_improves_between_events_and_stays_deterministic() {
    let (topo, base) = instance(8, 32, 4);
    let idle_cfg = DaemonCfg {
        idle_steps: 2,
        ..cfg()
    };
    let run = || {
        let mut d = Daemon::new(topo.clone(), base.clone(), Some(uniform(&topo)), idle_cfg);
        let mut lines = Vec::new();
        for scale in [1.1, 1.2, 1.3] {
            let req = serde_json::to_string(&Request::DemandUpdate {
                demands: base.scaled(scale),
            })
            .unwrap();
            lines.push(d.handle_line(&req));
        }
        let status = match d.handle(Request::Status) {
            Reply::Status(s) => s,
            other => panic!("{other:?}"),
        };
        (lines, status)
    };
    let (lines_a, status_a) = run();
    let (lines_b, status_b) = run();
    assert_eq!(lines_a, lines_b, "idle passes must not break determinism");
    assert_eq!(status_a.idle_steps, status_b.idle_steps);
    // 3 events × 2 idle passes each ran (boundary before every event).
    assert_eq!(status_a.idle_steps, 6);
    assert!(status_a.idle_accepted + status_a.idle_declined <= status_a.idle_steps);
    // Idle gains are metered through the same accounting as events.
    if status_a.idle_accepted > 0 {
        assert!(status_a.total_churn_messages > 0);
    }
}

#[test]
fn snapshot_restore_preserves_coalescing_and_idle_state() {
    let (topo, base) = instance(8, 32, 4);
    let c = DaemonCfg {
        coalesce: 4,
        idle_steps: 1,
        ..cfg()
    };
    let mut a = Daemon::new(topo.clone(), base.clone(), Some(uniform(&topo)), c);
    for scale in [1.1, 1.2] {
        let r = event(a.handle(Request::DemandUpdate {
            demands: base.scaled(scale),
        }));
        assert_eq!(r.action, EventAction::Coalesced);
    }
    let snap = match a.handle(Request::Snapshot) {
        Reply::Snapshot(s) => s,
        other => panic!("{other:?}"),
    };
    assert_eq!(snap.pending, 2, "snapshot must carry the open batch");

    // A fresh daemon restoring the snapshot continues byte-identically,
    // including the open batch: the next flush covers both events.
    let mut b = Daemon::new(topo.clone(), base.clone(), Some(uniform(&topo)), c);
    assert!(matches!(
        b.handle(Request::Restore { snapshot: snap }),
        Reply::Restored { .. }
    ));
    let flush_line = serde_json::to_string(&Request::Flush).unwrap();
    let fa = a.handle_line(&flush_line);
    let fb = b.handle_line(&flush_line);
    assert_eq!(fa, fb);
    assert_eq!(event(serde_json::from_str(&fa).unwrap()).batch, 2);
}

#[test]
fn directed_failures_mask_one_direction_only() {
    let topo = triangle_topology(1.0);
    let mut high = TrafficMatrix::zeros(3);
    high.set(0, 1, 0.3);
    let mut low = TrafficMatrix::zeros(3);
    low.set(1, 0, 0.3);
    let demands = DemandSet { high, low };
    let ab = topo.find_link(NodeId(0), NodeId(1)).unwrap();
    let ac = topo.find_link(NodeId(0), NodeId(2)).unwrap();
    let mut d = Daemon::new(topo.clone(), demands, Some(uniform(&topo)), cfg());

    // Failing a→b leaves b→a up: exactly one direction is masked.
    let down = event(d.handle(Request::DirectedLinkDown { link: ab.0 }));
    assert_ne!(down.action, EventAction::Refused);
    assert_eq!(down.links_down, 1);
    assert!(!d.link_up()[ab.index()]);
    assert!(d.link_up()[topo.reverse_link(ab).unwrap().index()]);

    // Duplicate directed failures are no-ops.
    let dup = event(d.handle(Request::DirectedLinkDown { link: ab.0 }));
    assert_eq!(dup.action, EventAction::NoOp);

    // Also failing a→c would leave node 0 with no outgoing link:
    // refused, mask unchanged.
    let refused = event(d.handle(Request::DirectedLinkDown { link: ac.0 }));
    assert_eq!(refused.action, EventAction::Refused);
    assert_eq!(refused.links_down, 1);

    // Directed repair restores just that direction; repairing an
    // already-up direction is a no-op; bad ids error.
    let up = event(d.handle(Request::DirectedLinkUp { link: ab.0 }));
    assert_eq!(up.links_down, 0);
    let noop = event(d.handle(Request::DirectedLinkUp { link: ab.0 }));
    assert_eq!(noop.action, EventAction::NoOp);
    // A failed event is a complete no-op: the Error reply advances
    // neither seq nor the idle counters.
    let before = match d.handle(Request::Status) {
        Reply::Status(s) => s,
        other => panic!("{other:?}"),
    };
    assert!(matches!(
        d.handle(Request::DirectedLinkDown { link: 999 }),
        Reply::Error { .. }
    ));
    let after = match d.handle(Request::Status) {
        Reply::Status(s) => s,
        other => panic!("{other:?}"),
    };
    assert_eq!(after.seq, before.seq, "failed event advanced seq");
    assert_eq!(after.idle_steps, before.idle_steps);
}

#[test]
fn pair_and_directed_failures_compose() {
    let topo = triangle_topology(1.0);
    let mut high = TrafficMatrix::zeros(3);
    high.set(0, 2, 0.3);
    let demands = DemandSet {
        high,
        low: TrafficMatrix::zeros(3),
    };
    let ab = topo.find_link(NodeId(0), NodeId(1)).unwrap();
    let mut d = Daemon::new(topo.clone(), demands, Some(uniform(&topo)), cfg());

    // One direction down, then the duplex pair fails: the pair event is
    // NOT a no-op (the twin was still up) and masks both directions.
    event(d.handle(Request::DirectedLinkDown { link: ab.0 }));
    let pair = event(d.handle(Request::LinkDown { link: ab.0 }));
    assert_ne!(pair.action, EventAction::NoOp);
    assert_eq!(pair.links_down, 2);

    // Pair repair restores both directions at once.
    let up = event(d.handle(Request::LinkUp { link: ab.0 }));
    assert_eq!(up.links_down, 0);
}

#[test]
fn tcp_replay_is_byte_identical_to_in_process() {
    let trace = bursty_trace(20, 9);
    let coalescing = DaemonCfg {
        coalesce: 4,
        idle_steps: 1,
        ..cfg()
    };
    let inproc = replay_trace(&trace, coalescing, None).unwrap();
    let tcp = replay_trace_tcp(&trace, coalescing, None).unwrap();
    assert_eq!(inproc.lines, tcp.lines, "transport must not change bytes");
    assert_eq!(inproc.report, tcp.report);
}

/// While the single writer is inside a slow reoptimization, a second
/// connection's probes are answered concurrently from the published
/// read view — they return *before* the writer's reply and observe the
/// pre-event state.
#[test]
fn tcp_probes_are_served_while_the_writer_optimizes() {
    use std::io::{BufRead, BufReader, Write};

    // Large enough that one demand-update reoptimization takes a while.
    let (topo, base) = instance(24, 96, 6);
    let d = Daemon::new(topo.clone(), base.clone(), Some(uniform(&topo)), cfg());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || serve_tcp(d, listener));

    let connect = || {
        let s = std::net::TcpStream::connect(addr).unwrap();
        s.set_nodelay(true).unwrap();
        let w = s.try_clone().unwrap();
        (w, BufReader::new(s))
    };
    let (mut writer_tx, mut writer_rx) = connect();
    let (mut probe_tx, mut probe_rx) = connect();

    // Fire the slow event but do not wait for its reply yet.
    let ev = serde_json::to_string(&Request::DemandUpdate {
        demands: base.scaled(1.5),
    })
    .unwrap();
    writeln!(writer_tx, "{ev}").unwrap();
    writer_tx.flush().unwrap();

    // Probe from the second connection while the event is in flight.
    writeln!(
        probe_tx,
        "{}",
        serde_json::to_string(&Request::Status).unwrap()
    )
    .unwrap();
    probe_tx.flush().unwrap();
    let mut probe_line = String::new();
    probe_rx.read_line(&mut probe_line).unwrap();
    let probed_at = std::time::Instant::now();
    let status = match serde_json::from_str::<Reply>(probe_line.trim()).unwrap() {
        Reply::Status(s) => s,
        other => panic!("{other:?}"),
    };
    assert_eq!(status.seq, 0, "probe must observe the pre-event view");

    // Only now collect the writer's reply: it finishes after the probe.
    let mut event_line = String::new();
    writer_rx.read_line(&mut event_line).unwrap();
    let event_at = std::time::Instant::now();
    let report = event(serde_json::from_str(event_line.trim()).unwrap());
    assert_eq!(report.seq, 1);
    assert!(probed_at <= event_at, "probe must not wait for the writer");

    // After the event boundary a fresh probe sees the published update.
    writeln!(
        probe_tx,
        "{}",
        serde_json::to_string(&Request::Status).unwrap()
    )
    .unwrap();
    probe_tx.flush().unwrap();
    let mut after_line = String::new();
    probe_rx.read_line(&mut after_line).unwrap();
    match serde_json::from_str::<Reply>(after_line.trim()).unwrap() {
        Reply::Status(s) => assert_eq!(s.seq, 1),
        other => panic!("{other:?}"),
    }

    // Shutdown drains both connections and stops the server.
    writeln!(
        writer_tx,
        "{}",
        serde_json::to_string(&Request::Shutdown).unwrap()
    )
    .unwrap();
    writer_tx.flush().unwrap();
    let mut bye = String::new();
    writer_rx.read_line(&mut bye).unwrap();
    assert!(matches!(
        serde_json::from_str::<Reply>(bye.trim()).unwrap(),
        Reply::Bye { .. }
    ));
    server.join().unwrap().unwrap();
}
