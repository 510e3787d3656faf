//! Property tests for the k-class generalization: the cascade invariants
//! that must hold for any class count, demand draw and weight setting,
//! and the Full ≡ Incremental invariant for the k-class search.

use dtr_core::SearchParams;
use dtr_cost::{LexCost, ObjectiveSpec, SlaParams};
use dtr_engine::{BackendKind, KClassBatchEvaluator};
use dtr_graph::gen::{random_topology, RandomTopologyCfg};
use dtr_graph::WeightVector;
use dtr_multi::MultiSearch;
use dtr_routing::cascade_classes;
use dtr_traffic::{MultiDemand, MultiTrafficCfg};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn instance(k_extra: usize, seed: u64) -> (dtr_graph::Topology, MultiDemand) {
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 10,
        directed_links: 40,
        seed: 1 + seed % 4,
    });
    let demands = MultiDemand::generate(
        &topo,
        &MultiTrafficCfg {
            fractions: vec![0.6 / (k_extra as f64 + 1.0); k_extra],
            densities: vec![0.15; k_extra],
            seed,
        },
    )
    .scaled(3.0);
    (topo, demands)
}

fn rand_weights(topo: &dtr_graph::Topology, seed: u64, k: usize) -> Vec<WeightVector> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..k)
        .map(|_| {
            WeightVector::from_vec(
                (0..topo.link_count())
                    .map(|_| rng.random_range(1..=30))
                    .collect(),
            )
        })
        .collect()
}

fn load_evaluator<'a>(
    topo: &'a dtr_graph::Topology,
    demands: &'a MultiDemand,
) -> KClassBatchEvaluator<'a> {
    let spec = ObjectiveSpec::load(demands.class_count());
    KClassBatchEvaluator::with_spec(topo, demands, &spec).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn residuals_are_monotone_down_the_priority_order(
        k_extra in 1usize..4, seed in 0u64..200, wseed in 0u64..200,
    ) {
        let (topo, demands) = instance(k_extra, seed);
        let k = demands.class_count();
        let e = load_evaluator(&topo, &demands).eval(&rand_weights(&topo, wseed, k));
        let residuals = cascade_classes(&topo, &e.loads).residuals;
        for c in 1..k {
            for (hi, lo) in residuals[c - 1].iter().zip(&residuals[c]) {
                prop_assert!(lo <= hi, "residuals must shrink with priority");
                prop_assert!(*lo >= 0.0);
            }
        }
    }

    #[test]
    fn phi_components_finite_and_cost_matches(
        k_extra in 1usize..4, seed in 0u64..200, wseed in 0u64..200,
    ) {
        let (topo, demands) = instance(k_extra, seed);
        let k = demands.class_count();
        let e = load_evaluator(&topo, &demands).eval(&rand_weights(&topo, wseed, k));
        prop_assert_eq!(e.cost.len(), k);
        for c in 0..k {
            prop_assert!(e.phis[c].is_finite() && e.phis[c] >= 0.0);
            let per_link: f64 = e.phi_per_link[c].iter().sum();
            prop_assert!((per_link - e.phis[c]).abs() < 1e-6);
            prop_assert_eq!(e.cost.get(c), e.phis[c]);
        }
    }

    #[test]
    fn class_c_cost_independent_of_lower_class_weights(
        k_extra in 1usize..3, seed in 0u64..100, w1 in 0u64..100, w2 in 0u64..100,
    ) {
        let (topo, demands) = instance(k_extra, seed);
        let k = demands.class_count();
        let mut ev = load_evaluator(&topo, &demands);
        let base = rand_weights(&topo, w1, k);
        let mut tweaked = base.clone();
        // Change only the lowest class's weights.
        tweaked[k - 1] = rand_weights(&topo, w2, 1).pop().unwrap();
        let a = ev.eval(&base);
        let b = ev.eval(&tweaked);
        for c in 0..k - 1 {
            prop_assert_eq!(a.phis[c], b.phis[c], "class {} leaked", c);
        }
    }

    #[test]
    fn lexcost_order_agrees_with_slice_order(
        a in proptest::collection::vec(0.0f64..1e6, 3),
        b in proptest::collection::vec(0.0f64..1e6, 3),
    ) {
        let la = LexCost::new(a.clone());
        let lb = LexCost::new(b.clone());
        prop_assert_eq!(la < lb, a < b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The k-class search is bit-identical on both evaluation backends:
    /// same incumbent weights, same cost, same trace.
    #[test]
    fn search_is_identical_on_full_and_incremental(
        k_extra in 2usize..4, seed in 0u64..100, sla in any::<bool>(),
    ) {
        let (topo, demands) = instance(k_extra, seed);
        let k = demands.class_count();
        let spec = if sla {
            let tight = SlaParams { bound_s: 0.004, ..SlaParams::default() };
            ObjectiveSpec::uniform_sla(k, tight)
        } else {
            ObjectiveSpec::load(k)
        };
        let run = |backend| {
            let params = SearchParams::tiny().with_seed(seed).with_backend(backend);
            MultiSearch::with_spec(&topo, &demands, &spec, params).unwrap().run()
        };
        let full = run(BackendKind::Full);
        let incr = run(BackendKind::Incremental);
        prop_assert_eq!(&full.weights, &incr.weights);
        prop_assert_eq!(&full.best_cost, &incr.best_cost);
        prop_assert_eq!(&full.eval, &incr.eval);
        prop_assert_eq!(&full.trace, &incr.trace);
    }
}
