//! The single-topology routing (STR) baseline and its relaxed variant.
//!
//! STR assigns **one** weight per link; both classes ride the same
//! shortest paths. Following §5.1.3, the baseline is the Fortz–Thorup
//! "single weight change" local search \[2\] driven by the same
//! lexicographic objectives as DTR: each iteration proposes `m` candidate
//! settings (a random link re-assigned a random weight), moves to the
//! best candidate if it improves the current solution, and diversifies
//! after `M` non-improving iterations. That loop lives in
//! [`crate::descent`]; this module supplies the move, the joint engine
//! batch and the relaxed-front hook. The iteration count is derived
//! from [`SearchParams::str_iters`] so STR and DTR consume the same
//! number of candidate evaluations — a fair comparison.
//!
//! **Relaxed STR** (§3.3.2, §5.3.1, Table 1): the search additionally
//! maintains the **Pareto front** of `(Φ_H, Φ_L)` pairs over every
//! evaluated candidate; at the end, each requested ε selects the
//! lowest-`Φ_L` front entry with `Φ_H ≤ (1+ε)·Φ*_H` against the *final*
//! best `Φ*_H`. (The paper phrases the rule online, against the running
//! incumbent; applying it against the final incumbent — per its footnote
//! 6, "pick the one achieving the lowest Φ_L" — avoids grandfathering
//! early candidates whose `Φ_H` only looked acceptable because the
//! incumbent was still poor.)

use crate::descent::{descend, Descent};
use crate::neighborhood::{perturb_weights, single_change};
use crate::params::SearchParams;
use crate::telemetry::SearchTrace;
use dtr_cost::{Lex2, Objective};
use dtr_engine::{BatchEvaluator, SharedBound};
use dtr_graph::{Topology, WeightVector};
use dtr_routing::Evaluation;
use dtr_traffic::DemandSet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Best relaxed solution tracked for one ε (load-based objective only).
#[derive(Debug, Clone)]
pub struct RelaxedBest {
    /// The relaxation level ε.
    pub eps: f64,
    /// Best setting found under the relaxed acceptance rule, if any
    /// candidate ever qualified.
    pub weights: Option<WeightVector>,
    /// `Φ_H` of that setting.
    pub phi_h: f64,
    /// `Φ_L` of that setting (the minimized quantity).
    pub phi_l: f64,
}

/// Outcome of an STR search.
#[derive(Debug, Clone)]
pub struct StrResult {
    /// Best weight setting under the strict lexicographic objective.
    pub weights: WeightVector,
    /// Full evaluation of `weights`.
    pub eval: Evaluation,
    /// Objective value (equals `eval.cost`).
    pub best_cost: Lex2,
    /// Relaxed-rule bests, one per requested ε (same order).
    pub relaxed: Vec<RelaxedBest>,
    /// Search telemetry.
    pub trace: SearchTrace,
}

/// The Pareto front of `(Φ_H, Φ_L)` pairs over evaluated candidates,
/// used to answer the relaxed-STR queries exactly at the end of a run.
#[derive(Debug, Clone)]
struct ParetoFront {
    /// The requested relaxation levels.
    eps: Vec<f64>,
    /// The largest of them: entries beyond `(1 + eps_max)·Φ*_H` can
    /// never be selected.
    eps_max: f64,
    /// The smallest `Φ_H` over every evaluated candidate.
    best_phi_h: f64,
    /// Entries sorted by increasing `Φ_H`; `Φ_L` strictly decreasing.
    entries: Vec<(f64, f64, WeightVector)>,
}

impl ParetoFront {
    fn new(eps: &[f64]) -> Self {
        ParetoFront {
            eps: eps.to_vec(),
            eps_max: eps.iter().cloned().fold(0.0f64, f64::max),
            best_phi_h: f64::INFINITY,
            entries: Vec::new(),
        }
    }

    /// Offers an evaluated candidate; keeps the front minimal and drops
    /// entries that can no longer qualify under any ε once the best
    /// `Φ_H` improves.
    fn track(&mut self, phi_h: f64, phi_l: f64, w: &WeightVector) {
        let improved = phi_h < self.best_phi_h;
        self.best_phi_h = self.best_phi_h.min(phi_h);
        let cap = (1.0 + self.eps_max) * self.best_phi_h;
        if improved {
            self.entries.retain(|&(h, _, _)| h <= cap);
        }
        if phi_h > cap {
            return;
        }
        // Dominated by an existing entry?
        if self
            .entries
            .iter()
            .any(|&(h, l, _)| h <= phi_h && l <= phi_l)
        {
            return;
        }
        self.entries
            .retain(|&(h, l, _)| !(phi_h <= h && phi_l <= l));
        let pos = self.entries.partition_point(|&(h, _, _)| h < phi_h);
        self.entries.insert(pos, (phi_h, phi_l, w.clone()));
    }

    /// Answers every relaxed query against the *final* `Φ*_H`: the
    /// lowest-`Φ_L` entry with `Φ_H ≤ (1+ε)·Φ*_H`. An entry with
    /// `Φ_H = Φ*_H` is never dominated away, so every ε ≥ 0 has one.
    fn answers(&self) -> Vec<RelaxedBest> {
        self.eps
            .iter()
            .map(|&eps| {
                let bound = (1.0 + eps) * self.best_phi_h;
                let (phi_h, phi_l, w) = self
                    .entries
                    .iter()
                    .filter(|&&(h, _, _)| h <= bound)
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("the minimum-Φ_H entry is on the front");
                RelaxedBest {
                    eps,
                    weights: Some(w.clone()),
                    phi_h: *phi_h,
                    phi_l: *phi_l,
                }
            })
            .collect()
    }
}

/// The Fortz–Thorup-style single-weight-change search.
pub struct StrSearch<'a> {
    engine: BatchEvaluator<'a>,
    params: SearchParams,
    initial: WeightVector,
    front: Option<ParetoFront>,
    bound: Option<Arc<SharedBound>>,
}

impl<'a> StrSearch<'a> {
    /// Prepares a search with uniform initial weights.
    pub fn new(
        topo: &'a Topology,
        demands: &'a DemandSet,
        objective: Objective,
        params: SearchParams,
    ) -> Self {
        params.validate();
        let initial = WeightVector::uniform(topo, 1);
        StrSearch {
            engine: BatchEvaluator::new(topo, demands, objective, params.backend),
            params,
            initial,
            front: None,
            bound: None,
        }
    }

    /// Attaches a portfolio's shared incumbent bound (publish +
    /// telemetry only — never changes the trajectory or result; see
    /// [`crate::DtrSearch::with_shared_bound`]).
    pub fn with_shared_bound(mut self, bound: Arc<SharedBound>) -> Self {
        self.bound = Some(bound);
        self
    }

    /// Overrides the initial weights.
    pub fn with_initial(mut self, w0: WeightVector) -> Self {
        assert_eq!(w0.len(), self.engine.topo().link_count());
        self.initial = w0;
        self
    }

    /// Requests relaxed-best tracking for the given ε values (Table 1
    /// uses 5 % and 30 %). Only meaningful under the load-based
    /// objective; the SLA relaxation is expressed by loosening the bound
    /// in [`dtr_cost::SlaParams::relaxed`] instead.
    pub fn with_relaxations(mut self, eps: &[f64]) -> Self {
        assert!(eps.iter().all(|&e| e >= 0.0), "negative ε");
        self.front = (!eps.is_empty()).then(|| ParetoFront::new(eps));
        self
    }

    /// Runs [`SearchParams::str_iters`] iterations of the shared descent.
    pub fn run(mut self) -> StrResult {
        let params = self.params;
        let bound = self.bound.take();
        let mut rng = StdRng::seed_from_u64(params.seed);
        let start = self.initial.clone();
        self.engine.rebase_joint(&start);
        let out = descend(
            &mut self,
            start,
            &params,
            params.str_iters(),
            &mut rng,
            bound.as_deref(),
        );
        let relaxed = self
            .front
            .as_ref()
            .map_or_else(Vec::new, ParetoFront::answers);
        StrResult {
            weights: out.weights,
            best_cost: out.eval.cost,
            eval: out.eval,
            relaxed,
            trace: out.trace,
        }
    }
}

/// One candidate: a single-weight change of the shared vector, batched
/// through the joint engine; every evaluation feeds the relaxed front.
impl Descent for StrSearch<'_> {
    type Weights = WeightVector;
    type Eval = Evaluation;
    type Cost = Lex2;

    fn cost(e: &Evaluation) -> &Lex2 {
        &e.cost
    }

    fn propose(&mut self, cur: &WeightVector, rng: &mut StdRng) -> Option<WeightVector> {
        Some(single_change(cur, &self.params, rng))
    }

    fn eval(&mut self, w: &WeightVector) -> Evaluation {
        self.engine.eval_joint(w)
    }

    fn eval_batch(&mut self, cands: &[WeightVector]) -> Vec<Evaluation> {
        self.engine.eval_joint_batch(cands)
    }

    fn observe(&mut self, w: &WeightVector, e: &Evaluation) {
        if let Some(front) = &mut self.front {
            front.track(e.phi_h, e.phi_l, w);
        }
    }

    fn rebase(&mut self, w: &WeightVector) {
        self.engine.rebase_joint(w);
    }

    fn restart(&mut self, cur: &mut WeightVector, rng: &mut StdRng) {
        perturb_weights(cur, self.params.g1, &self.params, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::{random_topology, triangle_topology, RandomTopologyCfg};
    use dtr_graph::NodeId;
    use dtr_routing::Evaluator;
    use dtr_traffic::{TrafficCfg, TrafficMatrix};

    fn triangle_instance() -> (Topology, DemandSet) {
        let topo = triangle_topology(1.0);
        let mut high = TrafficMatrix::zeros(3);
        high.set(0, 2, 1.0 / 3.0);
        let mut low = TrafficMatrix::zeros(3);
        low.set(0, 2, 2.0 / 3.0);
        (topo, DemandSet { high, low })
    }

    #[test]
    fn triangle_str_optimum_is_direct_routing() {
        // Lexicographic STR on the triangle: Φ_H is minimized by the
        // direct path (1/3 < 1/2 of the even split), forcing
        // Φ_L = 64/9 — the §3.3.1 outcome.
        let (topo, demands) = triangle_instance();
        let res = StrSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::quick().with_seed(2),
        )
        .run();
        assert!(
            (res.eval.phi_h - 1.0 / 3.0).abs() < 1e-9,
            "phi_h={}",
            res.eval.phi_h
        );
        assert!(
            (res.eval.phi_l - 64.0 / 9.0).abs() < 1e-9,
            "phi_l={}",
            res.eval.phi_l
        );
    }

    #[test]
    fn never_worse_than_initial() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 12,
            directed_links: 48,
            seed: 9,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 9,
                ..Default::default()
            },
        )
        .scaled(3.0);
        let w0 = WeightVector::uniform(&topo, 1);
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let init_cost = ev.eval_str(&w0).cost;
        let res = StrSearch::new(&topo, &demands, Objective::LoadBased, SearchParams::tiny())
            .with_initial(w0)
            .run();
        assert!(res.best_cost <= init_cost);
    }

    #[test]
    fn relaxation_improves_low_cost_on_triangle() {
        // ε = 50 % admits the even split (Φ_H = 1/2 ≤ 1.5·1/3), whose
        // Φ_L = 4/3 beats the strict optimum's 64/9.
        let (topo, demands) = triangle_instance();
        let res = StrSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::quick().with_seed(5),
        )
        .with_relaxations(&[0.0, 0.5])
        .run();
        let strict = &res.relaxed[0];
        let relaxed = &res.relaxed[1];
        assert!(relaxed.phi_l <= strict.phi_l);
        assert!(
            (relaxed.phi_l - 4.0 / 3.0).abs() < 1e-9,
            "expected the even split, got phi_l={}",
            relaxed.phi_l
        );
        assert!((relaxed.phi_h - 0.5).abs() < 1e-9);
    }

    #[test]
    fn relaxed_solutions_monotone_in_eps() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 12,
            directed_links: 48,
            seed: 3,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 3,
                ..Default::default()
            },
        )
        .scaled(4.0);
        let res = StrSearch::new(&topo, &demands, Objective::LoadBased, SearchParams::quick())
            .with_relaxations(&[0.05, 0.30])
            .run();
        // A larger ε admits every solution a smaller ε admits.
        assert!(res.relaxed[1].phi_l <= res.relaxed[0].phi_l);
        // And the strict optimum's Φ_L is an upper bound for both.
        assert!(res.relaxed[0].phi_l <= res.eval.phi_l + 1e-9);
    }

    #[test]
    fn sla_objective_runs_and_counts_violations() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 12,
            directed_links: 48,
            seed: 8,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 8,
                ..Default::default()
            },
        )
        .scaled(4.0);
        let res = StrSearch::new(
            &topo,
            &demands,
            Objective::sla_default(),
            SearchParams::tiny(),
        )
        .run();
        assert!(res.eval.sla.is_some());
    }

    #[test]
    fn deterministic_given_seed() {
        let (topo, demands) = triangle_instance();
        let run = || {
            StrSearch::new(
                &topo,
                &demands,
                Objective::LoadBased,
                SearchParams::tiny().with_seed(11),
            )
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn high_cost_equals_dtr_high_cost_on_easy_instance() {
        // On a lightly loaded instance both schemes should drive Φ_H to
        // the same optimum (RH ≈ 1 in the paper's Fig. 2).
        let (topo, demands) = triangle_instance();
        let str_res = StrSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::quick().with_seed(1),
        )
        .run();
        let dtr_res = crate::DtrSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::quick().with_seed(1),
        )
        .run();
        assert!((str_res.eval.phi_h - dtr_res.eval.phi_h).abs() < 1e-9);
        // And DTR's Φ_L is no worse (here strictly better).
        assert!(dtr_res.eval.phi_l < str_res.eval.phi_l);
        let _ = topo.find_link(NodeId(0), NodeId(1));
    }
}
