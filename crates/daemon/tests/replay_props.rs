//! Property tests for replay determinism over randomized bursty traces.
//!
//! Two invariants pin the coalescing design down for *every* bursty
//! trace, not just the checked-in ones:
//!
//! 1. `coalesce: 1` is indistinguishable from coalescing off — every
//!    event closes its own batch, so reply bytes and the final
//!    incumbent are identical. Larger caps only ever merge *boundaries*
//!    this anchor already fixes.
//! 2. With coalescing (and the background idle budget) on, a double
//!    replay is byte-identical and the end state still clears the
//!    cold-batch quality bar.

use dtr_core::SearchParams;
use dtr_daemon::{replay_trace, Daemon, DaemonCfg, Request};
use dtr_graph::gen::{random_topology, RandomTopologyCfg};
use dtr_scenario::{generate_churn, ChurnCfg, ChurnTrace};
use dtr_traffic::{DemandSet, TrafficCfg};
use proptest::prelude::*;

fn bursty_trace(seed: u64) -> ChurnTrace {
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 8,
        directed_links: 32,
        seed: 1 + (seed % 4),
    });
    let base = DemandSet::generate(
        &topo,
        &TrafficCfg {
            seed,
            ..Default::default()
        },
    )
    .scaled(3.0);
    generate_churn(
        "prop-bursty",
        &topo,
        &base,
        &ChurnCfg {
            events: 18,
            seed,
            flap_rate: 0.15,
            directed_flap_rate: 0.15,
            whatif_rate: 0.1,
            burst_rate: 2.0,
            burst_max: 5,
            ..Default::default()
        },
    )
}

fn cfg(seed: u64) -> DaemonCfg {
    DaemonCfg {
        params: SearchParams::tiny().with_seed(seed),
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn coalescing_on_and_off_agree_on_replies_and_incumbent(seed in 0u64..500) {
        let trace = bursty_trace(seed);
        let base_cfg = cfg(seed);
        let mut off = Daemon::new(trace.topo.clone(), trace.base.clone(), None, base_cfg);
        let mut on = Daemon::new(
            trace.topo.clone(),
            trace.base.clone(),
            None,
            DaemonCfg { coalesce: 1, ..base_cfg },
        );
        for e in &trace.events {
            let line = serde_json::to_string(&Request::from_churn(&e.action)).unwrap();
            prop_assert_eq!(off.handle_line(&line), on.handle_line(&line));
        }
        prop_assert_eq!(off.incumbent(), on.incumbent());
    }

    #[test]
    fn coalesced_background_replay_is_byte_identical(
        seed in 0u64..500,
        cap in 2usize..6,
        idle in 0u64..3,
    ) {
        let trace = bursty_trace(seed);
        let c = DaemonCfg { coalesce: cap, idle_steps: idle, ..cfg(seed) };
        let a = replay_trace(&trace, c, None).unwrap();
        let b = replay_trace(&trace, c, None).unwrap();
        prop_assert_eq!(&a.lines, &b.lines);
        prop_assert_eq!(&a.report, &b.report);
        // Every reply line is trace event or injected flush, nothing else.
        prop_assert_eq!(
            a.lines.len() as u64,
            trace.events.len() as u64 + a.report.flushes
        );
        // Coalescing must not degrade the end state past the batch bar.
        prop_assert!(a.report.batch_ok, "ratio {}", a.report.batch_ratio);
    }
}
