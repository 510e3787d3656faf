//! Equivalence property tests for the evaluation engine.
//!
//! The engine's contract is that backend choice never changes results:
//! for any topology, demand set, objective and candidate weight setting,
//! [`BackendKind::Incremental`] returns **bit-identical** `Evaluation`s
//! (and `HighSide`s / `ClassLoads`) to [`BackendKind::Full`] — and both
//! match the plain [`Evaluator`]. Equality below is `PartialEq` over the
//! full structures, which compares every `f64` exactly (no tolerance).

use dtr_cost::{Objective, ObjectiveSpec, SlaParams};
use dtr_engine::{BackendKind, BatchEvaluator, KClassBatchEvaluator};
use dtr_graph::gen::{random_topology, RandomTopologyCfg};
use dtr_graph::weights::DualWeights;
use dtr_graph::{LinkId, Topology, WeightVector, MAX_WEIGHT, MIN_WEIGHT};
use dtr_routing::Evaluator;
use dtr_traffic::{DemandSet, TrafficCfg};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn instance(seed: u64, nodes: usize) -> (Topology, DemandSet) {
    let topo = random_topology(&RandomTopologyCfg {
        nodes,
        directed_links: nodes * 4,
        seed,
    });
    let demands = DemandSet::generate(
        &topo,
        &TrafficCfg {
            seed,
            ..Default::default()
        },
    )
    .scaled(3.0);
    (topo, demands)
}

fn rand_weights(topo: &Topology, seed: u64) -> WeightVector {
    let mut rng = StdRng::seed_from_u64(seed);
    WeightVector::from_vec(
        (0..topo.link_count())
            .map(|_| rng.random_range(MIN_WEIGHT..=MAX_WEIGHT))
            .collect(),
    )
}

/// A base plus a walk of candidates, each differing from the base by
/// `deltas` weight changes (the neighborhood-move shape).
fn neighbor_walk(
    topo: &Topology,
    base: &WeightVector,
    deltas: usize,
    count: usize,
    seed: u64,
) -> Vec<WeightVector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut w = base.clone();
            for _ in 0..deltas {
                let lid = LinkId(rng.random_range(0..topo.link_count() as u32));
                w.set(lid, rng.random_range(MIN_WEIGHT..=MAX_WEIGHT));
            }
            w
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single- and two-weight deltas, load-based objective: joint
    /// (STR-shaped) evaluations agree bitwise across backends and with
    /// the plain evaluator.
    #[test]
    fn joint_eval_equivalence_load(seed in 0u64..500, wseed in 0u64..500, deltas in 1usize..=2) {
        let (topo, demands) = instance(seed, 12);
        let base = rand_weights(&topo, wseed);
        let cands = neighbor_walk(&topo, &base, deltas, 6, seed ^ wseed);

        let mut full = BatchEvaluator::new(&topo, &demands, Objective::LoadBased, BackendKind::Full);
        let mut incr = BatchEvaluator::new(&topo, &demands, Objective::LoadBased, BackendKind::Incremental);
        full.rebase_joint(&base);
        incr.rebase_joint(&base);
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);

        let a = full.eval_joint_batch(&cands);
        let b = incr.eval_joint_batch(&cands);
        for ((x, y), w) in a.iter().zip(&b).zip(&cands) {
            prop_assert_eq!(x, y);
            prop_assert_eq!(x, &ev.eval_str(w));
        }
    }

    /// The same equivalence under the SLA objective, where the
    /// incremental backend reuses its repaired DAGs for the delay walk.
    #[test]
    fn joint_eval_equivalence_sla(seed in 0u64..300, wseed in 0u64..300, deltas in 1usize..=2) {
        let (topo, demands) = instance(seed, 10);
        let base = rand_weights(&topo, wseed);
        let cands = neighbor_walk(&topo, &base, deltas, 4, seed.wrapping_mul(31) ^ wseed);
        let objective = Objective::sla_default();

        let mut full = BatchEvaluator::new(&topo, &demands, objective, BackendKind::Full);
        let mut incr = BatchEvaluator::new(&topo, &demands, objective, BackendKind::Incremental);
        full.rebase_joint(&base);
        incr.rebase_joint(&base);
        let mut ev = Evaluator::new(&topo, &demands, objective);

        let a = full.eval_joint_batch(&cands);
        let b = incr.eval_joint_batch(&cands);
        for ((x, y), w) in a.iter().zip(&b).zip(&cands) {
            prop_assert_eq!(x, y);
            prop_assert_eq!(x, &ev.eval_str(w));
        }
    }

    /// Per-class (DTR-shaped) evaluation: high sides and low loads agree
    /// bitwise across backends, under both objectives.
    #[test]
    fn per_class_eval_equivalence(seed in 0u64..300, wseed in 0u64..300, deltas in 1usize..=2) {
        let (topo, demands) = instance(seed, 12);
        let base = rand_weights(&topo, wseed);
        let cands = neighbor_walk(&topo, &base, deltas, 5, seed ^ (wseed << 1));

        for objective in [Objective::LoadBased, Objective::sla_default()] {
            let mut full = BatchEvaluator::new(&topo, &demands, objective, BackendKind::Full);
            let mut incr = BatchEvaluator::new(&topo, &demands, objective, BackendKind::Incremental);
            full.rebase_high(&base);
            incr.rebase_high(&base);
            full.rebase_low(&base);
            incr.rebase_low(&base);
            let mut ev = Evaluator::new(&topo, &demands, objective);

            let ha = full.eval_high_batch(&cands);
            let hb = incr.eval_high_batch(&cands);
            let la = full.eval_low_batch(&cands);
            let lb = incr.eval_low_batch(&cands);
            for i in 0..cands.len() {
                prop_assert_eq!(&ha[i], &hb[i]);
                prop_assert_eq!(&la[i], &lb[i]);
                prop_assert_eq!(&ha[i], &ev.eval_high_side(&cands[i]));
                prop_assert_eq!(&la[i], &ev.low_loads(&cands[i]));
            }
        }
    }

    /// Rebase walks (accepted moves) followed by candidate evaluation:
    /// the incremental state stays exact across arbitrary move
    /// sequences, including diversification-sized jumps that trigger the
    /// internal full-rebuild fallback.
    #[test]
    fn rebase_walks_stay_exact(seed in 0u64..200, wseed in 0u64..200) {
        let (topo, demands) = instance(seed, 12);
        let mut base = rand_weights(&topo, wseed);
        let mut incr = BatchEvaluator::new(&topo, &demands, Objective::LoadBased, BackendKind::Incremental);
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37) ^ wseed);
        incr.rebase_joint(&base);

        for step in 0..8 {
            // Alternate small moves with an occasional large jump.
            let deltas = if step % 4 == 3 { 12 } else { 2 };
            let mut next = base.clone();
            for _ in 0..deltas {
                let lid = LinkId(rng.random_range(0..topo.link_count() as u32));
                next.set(lid, rng.random_range(MIN_WEIGHT..=MAX_WEIGHT));
            }
            incr.rebase_joint(&next);
            base = next;
            let cand = neighbor_walk(&topo, &base, 1, 1, rng.random::<u64>()).pop().unwrap();
            prop_assert_eq!(incr.eval_joint(&cand), ev.eval_str(&cand));
        }
    }

    /// The unified-spec k-class path with `k = 2` LoadBased is
    /// bit-identical to the legacy two-class evaluator, under both
    /// backends: same Φ components, same per-link terms, same loads.
    #[test]
    fn kclass_two_class_load_spec_bit_identical(seed in 0u64..300, wseed in 0u64..300, deltas in 1usize..=2) {
        let (topo, demands) = instance(seed, 12);
        let base = rand_weights(&topo, wseed);
        let cands = neighbor_walk(&topo, &base, deltas, 4, seed ^ (wseed << 2));
        let spec = ObjectiveSpec::two_class_load();

        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        for kind in [BackendKind::Full, BackendKind::Incremental] {
            let mut kc = KClassBatchEvaluator::new(
                &topo, vec![&demands.high, &demands.low], &spec, kind).unwrap();
            for wh in &cands {
                let e = kc.eval(&[wh.clone(), base.clone()]);
                let r = ev.eval_dual(&DualWeights { high: wh.clone(), low: base.clone() });
                prop_assert_eq!(e.phis[0], r.phi_h);
                prop_assert_eq!(e.phis[1], r.phi_l);
                prop_assert_eq!(&e.phi_per_link[0], &r.phi_h_per_link);
                prop_assert_eq!(&e.phi_per_link[1], &r.phi_l_per_link);
                prop_assert_eq!(&e.loads[0], &r.high_loads);
                prop_assert_eq!(&e.loads[1], &r.low_loads);
            }
        }
    }

    /// k-class SLA evaluation agrees bitwise between the Full and
    /// Incremental backends, including the per-class delay walks and
    /// candidate stepping on a middle class.
    #[test]
    fn kclass_sla_full_vs_incremental(seed in 0u64..200, wseed in 0u64..200) {
        let (topo, demands) = instance(seed, 10);
        // Three classes: reuse the two generated matrices at different
        // priorities — the cascade treats every class independently.
        let matrices = vec![&demands.high, &demands.low, &demands.high];
        let spec = ObjectiveSpec::uniform_sla(3, SlaParams::default());
        let base = rand_weights(&topo, wseed);
        let weights = vec![base.clone(), rand_weights(&topo, wseed ^ 0xabcd), base.clone()];
        let cands = neighbor_walk(&topo, &weights[1], 2, 3, seed.wrapping_mul(17) ^ wseed);

        let mut full = KClassBatchEvaluator::new(&topo, matrices.clone(), &spec, BackendKind::Full).unwrap();
        let mut incr = KClassBatchEvaluator::new(&topo, matrices, &spec, BackendKind::Incremental).unwrap();
        prop_assert_eq!(full.eval(&weights), incr.eval(&weights));
        let a = full.eval_class_batch(1, &cands, &weights);
        let b = incr.eval_class_batch(1, &cands, &weights);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x, y);
        }
    }
}

/// Acceptance-criteria check: a seeded `DtrSearch` produces the same
/// incumbent cost (and weights) under both backends — under the load
/// objective, the SLA objective, and the load objective on a
/// half-upgraded partial deployment (hybrid low-class DAGs).
#[test]
fn seeded_dtr_search_same_incumbent_under_both_backends() {
    use dtr_core::{DtrSearch, SearchParams};
    use dtr_routing::DeploymentSet;
    let (topo, demands) = instance(42, 14);
    let n = topo.node_count();
    let half: Vec<u32> = (0..n as u32).step_by(2).collect();
    let half_upgraded = DeploymentSet::from_upgraded(n, &half);
    let inputs = [
        (Objective::LoadBased, None),
        (Objective::sla_default(), None),
        (Objective::LoadBased, Some(half_upgraded)),
    ];
    for (objective, deployment) in inputs {
        let run = |kind: BackendKind| {
            let mut search = DtrSearch::new(
                &topo,
                &demands,
                objective,
                SearchParams::quick().with_seed(7).with_backend(kind),
            );
            if let Some(dep) = &deployment {
                search = search.with_deployment(dep.clone());
            }
            search.run()
        };
        let full = run(BackendKind::Full);
        let incr = run(BackendKind::Incremental);
        let case = format!("{objective:?}, deployment {deployment:?}");
        assert_eq!(full.best_cost, incr.best_cost, "{case}");
        assert_eq!(full.weights, incr.weights, "{case}");
        assert_eq!(full.eval, incr.eval, "{case}");
        assert_eq!(full.trace.evaluations, incr.trace.evaluations, "{case}");
    }
}

/// Same for the STR baseline, under the SLA objective for coverage.
#[test]
fn seeded_str_search_same_incumbent_under_both_backends() {
    use dtr_core::{SearchParams, StrSearch};
    let (topo, demands) = instance(43, 14);
    let run = |kind: BackendKind| {
        StrSearch::new(
            &topo,
            &demands,
            Objective::sla_default(),
            SearchParams::tiny().with_seed(9).with_backend(kind),
        )
        .run()
    };
    let full = run(BackendKind::Full);
    let incr = run(BackendKind::Incremental);
    assert_eq!(full.best_cost, incr.best_cost);
    assert_eq!(full.weights, incr.weights);
}
