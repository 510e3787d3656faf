//! Extension experiment: does the DTR benefit compound beyond two
//! classes?
//!
//! The paper stops at two topologies ("we limit ourselves to two", §1)
//! while RFC 4915 supports many. Using `dtr-multi`'s k-class
//! generalization (cascading residual capacities, lexicographic
//! k-tuples, evaluated by `dtr-engine`'s `KClassBatchEvaluator`), this
//! experiment pits k-topology MTR against a single-topology baseline
//! carrying the same k strictly ordered classes for k = 2, 3, 4, and
//! reports the per-class cost ratio — the k-class analogue of Fig. 2's
//! `R_L`.
//!
//! Expected shape: class 0 is insensitive (both schemes optimize it
//! first, `R ≈ 1`), and the ratio grows toward the *bottom* of the
//! priority ladder: the lowest class inherits everyone's leftovers under
//! a shared routing but can sidestep them with its own topology.

use crate::report::{fmt, Table};
use crate::runner::{cost_ratio, ExperimentCtx, TopologyKind};
use dtr_core::descent::{descend, Descent};
use dtr_core::neighborhood::{perturb_weights, single_change};
use dtr_core::SearchParams;
use dtr_cost::{LexCost, ObjectiveSpec};
use dtr_engine::{KClassBatchEvaluator, KClassEvaluation};
use dtr_graph::{Topology, WeightVector};
use dtr_multi::MultiSearch;
use dtr_traffic::{MultiDemand, MultiTrafficCfg};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Outcome for one class count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KOutcome {
    /// Number of classes (and MTR topologies).
    pub k: usize,
    /// Per-class Φ under the single-topology baseline.
    pub str_phis: Vec<f64>,
    /// Per-class Φ under k-topology MTR.
    pub mtr_phis: Vec<f64>,
    /// Per-class ratio `Φ_str / Φ_mtr`.
    pub ratios: Vec<f64>,
    /// Average link utilization (MTR routing).
    pub avg_util: f64,
}

/// Single-topology baseline for a k-class workload: one shared weight
/// vector, same lexicographic objective, the shared single-weight-change
/// descent at the same candidate budget as the staged MTR search.
fn str_baseline(topo: &Topology, demands: &MultiDemand, params: SearchParams) -> Vec<f64> {
    let k = demands.class_count();
    let matrices = demands.classes.iter().collect();
    let spec = ObjectiveSpec::load(k);
    let mut shared = SharedVector {
        ev: KClassBatchEvaluator::new(topo, matrices, &spec, params.backend)
            .expect("k-class workloads have k ≥ 2"),
        params,
    };
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x5f5f);
    // Budget parity with MultiSearch: k stages of n_iters plus k_iters.
    let iters = k * params.n_iters + params.k_iters;
    let start = WeightVector::uniform(topo, 1);
    descend(&mut shared, start, &params, iters, &mut rng, None)
        .eval
        .phis
}

/// Every class routes on one shared vector.
struct SharedVector<'a> {
    ev: KClassBatchEvaluator<'a>,
    params: SearchParams,
}

impl Descent for SharedVector<'_> {
    type Weights = WeightVector;
    type Eval = KClassEvaluation;
    type Cost = LexCost;

    fn cost(e: &KClassEvaluation) -> &LexCost {
        &e.cost
    }

    fn propose(&mut self, cur: &WeightVector, rng: &mut StdRng) -> Option<WeightVector> {
        Some(single_change(cur, &self.params, rng))
    }

    fn eval(&mut self, w: &WeightVector) -> KClassEvaluation {
        self.ev.eval(&vec![w.clone(); self.ev.class_count()])
    }

    /// Every class's backend follows the shared vector, so candidates
    /// stay one link from the base.
    fn rebase(&mut self, w: &WeightVector) {
        for c in 0..self.ev.class_count() {
            self.ev.rebase(c, w);
        }
    }

    fn restart(&mut self, cur: &mut WeightVector, rng: &mut StdRng) {
        perturb_weights(cur, self.params.g1, &self.params, rng);
    }
}

/// Builds the k-class workload: the priority classes split 30 % of the
/// volume evenly, each with 10 % pair density — so total priority volume
/// matches the paper's `f = 30 %` at every k.
pub fn workload(k: usize, seed: u64) -> MultiTrafficCfg {
    assert!(k >= 2);
    let extra = k - 1;
    MultiTrafficCfg {
        fractions: vec![0.30 / extra as f64; extra],
        densities: vec![0.10; extra],
        seed,
    }
}

/// Runs the study for k = 2, 3, 4 on the paper's random topology.
pub fn run(ctx: &ExperimentCtx) -> Vec<KOutcome> {
    let topo = TopologyKind::Random.build(ctx.seed);
    let params = ctx.params.with_seed(ctx.seed);

    (2..=4usize)
        .map(|k| {
            let base = MultiDemand::generate(&topo, &workload(k, ctx.seed));
            // Scale to AD ≈ 0.6 under uniform shared weights.
            let spec = ObjectiveSpec::load(k);
            let uniform = vec![WeightVector::uniform(&topo, 1); k];
            let probe = KClassBatchEvaluator::with_spec(&topo, &base, &spec)
                .expect("k ≥ 2")
                .eval(&uniform)
                .avg_utilization(&topo);
            let demands = base.scaled(0.6 / probe);

            let mtr = MultiSearch::with_spec(&topo, &demands, &spec, params)
                .expect("k ≥ 2")
                .run();
            let str_phis = str_baseline(&topo, &demands, params);
            let ratios: Vec<f64> = str_phis
                .iter()
                .zip(&mtr.eval.phis)
                .map(|(&s, &m)| cost_ratio(s, m))
                .collect();
            KOutcome {
                k,
                avg_util: mtr.eval.avg_utilization(&topo),
                str_phis,
                mtr_phis: mtr.eval.phis.clone(),
                ratios,
            }
        })
        .collect()
}

/// Renders one row per (k, class).
pub fn table(outcomes: &[KOutcome]) -> Table {
    let mut t = Table::new(
        "k-class MTR vs single-topology routing (random topology, 30% priority volume, AD≈0.6)",
        &["k", "class", "str_phi", "mtr_phi", "ratio"],
    );
    for o in outcomes {
        for c in 0..o.k {
            t.row(vec![
                o.k.to_string(),
                if c == o.k - 1 {
                    format!("{c} (base)")
                } else {
                    c.to_string()
                },
                fmt(o.str_phis[c], 1),
                fmt(o.mtr_phis[c], 1),
                fmt(o.ratios[c], 2),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_favor_lower_classes() {
        let mut ctx = ExperimentCtx::smoke();
        ctx.params = SearchParams::tiny();
        let outcomes = run(&ctx);
        assert_eq!(outcomes.len(), 3);
        for o in &outcomes {
            assert_eq!(o.str_phis.len(), o.k);
            assert_eq!(o.mtr_phis.len(), o.k);
            // The top class is optimized first by both schemes: near-par.
            assert!(o.ratios[0] < 3.0, "k={}: top ratio {}", o.k, o.ratios[0]);
            // The base class must not be *worse* under MTR.
            assert!(
                *o.ratios.last().unwrap() >= 0.95,
                "k={}: base ratio {:?}",
                o.k,
                o.ratios
            );
            assert!(o.avg_util > 0.0);
        }
        let t = table(&outcomes);
        assert_eq!(t.rows.len(), 2 + 3 + 4);
        // The single-topology baseline's trajectory, bit for bit.
        let str_bits: Vec<Vec<u64>> = outcomes
            .iter()
            .map(|o| o.str_phis.iter().map(|p| p.to_bits()).collect())
            .collect();
        assert_eq!(
            str_bits,
            vec![
                vec![4669755246120213002, 4711496088091584841],
                vec![
                    4664360002687201690,
                    4664343968360424777,
                    4711127945616763758
                ],
                vec![
                    4661828533682978539,
                    4661696310643722151,
                    4661651403874509009,
                    4705317097908288830
                ],
            ]
        );
    }

    #[test]
    fn workload_preserves_total_priority_volume() {
        for k in 2..=4 {
            let cfg = workload(k, 1);
            assert_eq!(cfg.class_count(), k);
            let f: f64 = cfg.fractions.iter().sum();
            assert!((f - 0.30).abs() < 1e-12);
        }
    }
}
