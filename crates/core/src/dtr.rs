//! Algorithm 1: the DTR weight search.
//!
//! An iterated local search over the dual weight vector `W = {W^H, W^L}`
//! in three routines (see the crate docs). All three share one loop
//! shape (`DtrSearch::routine`) around one neighbourhood step,
//! Algorithm 2 (`DtrSearch::find`), which runs on a [`Side`]: as
//! `FindH` on `W^H` and as `FindL` on `W^L`. The expensive part of the
//! step is candidate evaluation; it is one call to the `dtr-engine`
//! [`BatchEvaluator`] ([`BatchEvaluator::eval_side_batch`]), which
//! combines three layers of reuse:
//!
//! - a `FindH` candidate re-routes **only the high class** (`W^L` and the
//!   current low-class loads are reused), and vice versa for `FindL` —
//!   the paper's per-class split;
//! - under the (default) incremental backend, re-routing a class repairs
//!   only the destinations whose shortest-path DAG the move's one-or-two
//!   weight deltas actually affect (dynamic Dijkstra);
//! - an LRU cache keyed by weight-vector hash short-circuits revisited
//!   candidates entirely.
//!
//! Partial deployment ([`DtrSearch::with_deployment`]) is a property of
//! the engine, not of this loop: under a partial [`DeploymentSet`] the
//! same call routes the low class down the hybrid DAGs (so a `FindH`
//! move re-routes it too) and charges trapped demand.
//!
//! Backend choice never changes results — both produce bit-identical
//! evaluations — so seeded runs are reproducible across backends.

use crate::neighborhood::{perturb_weights, NeighborhoodSampler, RankTable};
use crate::params::SearchParams;
use crate::telemetry::{Phase, SearchTrace};
use dtr_cost::{Lex2, Objective};
use dtr_engine::{BatchEvaluator, SharedBound, Side};
use dtr_graph::weights::DualWeights;
use dtr_graph::{Topology, WeightVector};
use dtr_routing::{DeploymentSet, Evaluation};
use dtr_traffic::DemandSet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Outcome of a DTR search.
#[derive(Debug, Clone)]
pub struct DtrResult {
    /// Best dual weight setting found (`W*`).
    pub weights: DualWeights,
    /// Full evaluation of `W*`.
    pub eval: Evaluation,
    /// Objective value of `W*` (equals `eval.cost`).
    pub best_cost: Lex2,
    /// Search telemetry.
    pub trace: SearchTrace,
}

/// One run's mutable context: the working solution `w` with its
/// evaluation, the incumbent, the neighbourhood sampler, the RNG stream
/// and the telemetry.
struct Walk {
    w: DualWeights,
    eval: Evaluation,
    best_w: DualWeights,
    best_cost: Lex2,
    sampler: NeighborhoodSampler,
    rng: StdRng,
    trace: SearchTrace,
}

/// Algorithm 1, bound to one problem instance.
pub struct DtrSearch<'a> {
    engine: BatchEvaluator<'a>,
    params: SearchParams,
    initial: DualWeights,
    bound: Option<Arc<SharedBound>>,
}

impl<'a> DtrSearch<'a> {
    /// Prepares a search with uniform initial weights (`W0`), the usual
    /// starting point when no operator weights exist.
    pub fn new(
        topo: &'a Topology,
        demands: &'a DemandSet,
        objective: Objective,
        params: SearchParams,
    ) -> Self {
        params.validate();
        let initial = DualWeights::replicated(WeightVector::uniform(topo, 1));
        DtrSearch {
            engine: BatchEvaluator::new(topo, demands, objective, params.backend),
            params,
            initial,
            bound: None,
        }
    }

    /// Attaches a portfolio's shared incumbent bound: incumbent
    /// improvements are published to it, and diversification checkpoints
    /// where another worker leads are counted in
    /// [`SearchTrace::dominated_checkpoints`]. The bound never changes
    /// the search trajectory or result — it is publish + telemetry only,
    /// so seeded runs stay reproducible under any thread schedule.
    pub fn with_shared_bound(mut self, bound: Arc<SharedBound>) -> Self {
        self.bound = Some(bound);
        self
    }

    /// Binds a partial-deployment model: legacy nodes forward the low
    /// class on the high topology, trapped demand is penalized, and
    /// `FindH` moves re-route the low class too (legacy next-hops follow
    /// the high DAGs). A full set is a no-op — the search stays
    /// bit-identical to the undeployed path. Load-based objective only.
    pub fn with_deployment(mut self, dep: DeploymentSet) -> Self {
        self.engine
            .set_deployment(Some(dep))
            .expect("DtrSearch deployment: load-based objective and matching node count required");
        self
    }

    /// Overrides the initial weight setting `W0` (e.g. to warm-start from
    /// an STR solution).
    pub fn with_initial(mut self, w0: DualWeights) -> Self {
        assert_eq!(w0.high.len(), self.engine.topo().link_count());
        assert_eq!(w0.low.len(), self.engine.topo().link_count());
        self.initial = w0;
        self
    }

    /// Runs the three routines and returns the best setting found.
    pub fn run(mut self) -> DtrResult {
        let (w, eval) = self.start(self.initial.clone());
        let mut walk = Walk {
            best_w: w.clone(),
            best_cost: eval.cost,
            w,
            eval,
            sampler: NeighborhoodSampler::new(self.engine.topo().link_count(), &self.params),
            rng: StdRng::seed_from_u64(self.params.seed),
            trace: SearchTrace::default(),
        };
        walk.trace.improved(0, Phase::OptimizeHigh, walk.best_cost);
        self.publish(walk.best_cost);

        // --- Routine 1: optimize W^H, W^L fixed (lines 3–12). ---
        self.routine(&mut walk, Phase::OptimizeHigh);

        // --- Routine 2: W^H frozen at W^H*, optimize W^L (lines 13–24).
        // Primary cost is now constant, so lexicographic comparison
        // reduces to Φ_L.
        walk.w.high = walk.best_w.high.clone();
        (walk.w, walk.eval) = self.start(walk.w);
        if walk.eval.cost < walk.best_cost {
            // W^L drifted only via diversification; refresh incumbents.
            walk.best_cost = walk.eval.cost;
            walk.best_w = walk.w.clone();
            self.publish(walk.best_cost);
        }
        self.routine(&mut walk, Phase::OptimizeLow);

        // --- Routine 3: joint refinement around W* (lines 25–38). ---
        (walk.w, walk.eval) = self.start(walk.best_w.clone());
        self.routine(&mut walk, Phase::Refine);

        let eval = self.engine.evaluator().eval_dual(&walk.best_w);
        debug_assert_eq!(eval.cost, walk.best_cost);
        DtrResult {
            weights: walk.best_w,
            eval,
            best_cost: walk.best_cost,
            trace: walk.trace,
        }
    }

    /// Evaluates `w` through the engine and rebases both class backends
    /// onto it, so subsequent candidate deltas are small.
    fn start(&mut self, w: DualWeights) -> (DualWeights, Evaluation) {
        self.engine.rebase_high(&w.high);
        self.engine.rebase_low(&w.low);
        let eval = self.engine.eval_dual(&w);
        (w, eval)
    }

    /// Publishes an incumbent cost to the shared bound, if any.
    fn publish(&self, cost: Lex2) {
        if let Some(b) = &self.bound {
            b.observe(cost.primary);
        }
    }

    /// One routine of Algorithm 1, by its `phase`: rounds of one
    /// [`Self::find`] pass per moved side, tracking the incumbent. After
    /// `diversify_after` rounds without improvement the moved vectors
    /// are perturbed and the search restarts there — from the working
    /// solution in routines 1 and 2, from the incumbent in routine 3
    /// (lines 33–36: `g3` is smaller, so the restart stays near `W*`).
    fn routine(&mut self, walk: &mut Walk, phase: Phase) {
        let params = self.params;
        let (sides, iters, g): (&[Side], _, _) = match phase {
            Phase::OptimizeHigh => (&[Side::High], params.n_iters, params.g1),
            Phase::OptimizeLow => (&[Side::Low], params.n_iters, params.g2),
            _ => (&[Side::High, Side::Low], params.k_iters, params.g3),
        };
        let mut stall = 0usize;
        for _ in 0..iters {
            walk.trace.iterations += 1;
            let mut moved = false;
            for &side in sides {
                moved |= self.find(side, walk);
            }
            if moved && walk.eval.cost < walk.best_cost {
                walk.best_cost = walk.eval.cost;
                walk.best_w = walk.w.clone();
                let iteration = walk.trace.iterations;
                walk.trace.improved(iteration, phase, walk.best_cost);
                self.publish(walk.best_cost);
                stall = 0;
            } else {
                stall += 1;
            }
            if stall >= params.diversify_after {
                if let Some(b) = &self.bound {
                    if b.dominates(walk.best_cost.primary) {
                        walk.trace.dominated_checkpoints += 1;
                    }
                }
                let mut w = match phase {
                    Phase::Refine => walk.best_w.clone(),
                    _ => walk.w.clone(),
                };
                for &side in sides {
                    perturb_weights(side.of_mut(&mut w), g, &params, &mut walk.rng);
                }
                (walk.w, walk.eval) = self.start(w);
                walk.trace.diversifications += 1;
                stall = 0;
            }
        }
    }

    /// One `FindH` / `FindL` pass (Algorithm 2) on `side`: rank the links
    /// by the current evaluation (`FindL` by `Φ_L,l` alone, because `W^L`
    /// cannot affect the high class, §4), sample moves, evaluate the
    /// non-degenerate candidates as one engine batch, and move to the
    /// first strictly best one if it improves on the current solution.
    /// Returns whether a move happened.
    fn find(&mut self, side: Side, walk: &mut Walk) -> bool {
        let ranks = self.engine.evaluator().link_ranks(&walk.eval);
        let table = match side {
            Side::High => RankTable::new(&ranks.iter().map(|r| r.high).collect::<Vec<_>>()),
            Side::Low => RankTable::new(&ranks.iter().map(|r| r.low).collect::<Vec<_>>()),
        };
        let moves = walk.sampler.moves(&table, &self.params, &mut walk.rng);

        let cur = side.of(&walk.w);
        let cands: Vec<WeightVector> = moves
            .into_iter()
            .filter_map(|mv| {
                let mut w = cur.clone();
                mv.apply(&mut w, &self.params);
                (w != *cur).then_some(w) // drop clamped no-ops
            })
            .collect();
        let evals = self
            .engine
            .eval_side_batch(side, &walk.w, &walk.eval, &cands);
        walk.trace.evaluations += evals.len();

        let mut best: Option<(Evaluation, WeightVector)> = None;
        for (w, eval) in cands.into_iter().zip(evals) {
            if best.as_ref().is_none_or(|(b, _)| eval.cost < b.cost) {
                best = Some((eval, w));
            }
        }
        match best {
            Some((eval, w)) if eval.cost < walk.eval.cost => {
                self.engine.rebase(side, &w);
                *side.of_mut(&mut walk.w) = w;
                walk.eval = eval;
                walk.trace.moves_accepted += 1;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::{random_topology, triangle_topology, RandomTopologyCfg};
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
    fn triangle_reaches_dtr_optimum() {
        // §3.3.1 contrasts DTR routing the low class *through B*
        // (Φ_L = 8/3) against STR's 64/9. The true DTR optimum is even
        // better: ECMP-split the low class over the direct link and the
        // detour (weights w_L(A−C) = 2, w_L(A−B) = w_L(B−C) = 1), giving
        // Φ_L = 5/9 + 1/3 + 1/3 = 11/9. The search must find it.
        let (topo, demands) = triangle_instance();
        let search = DtrSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::quick().with_seed(3),
        );
        let res = search.run();
        assert!(
            (res.eval.phi_h - 1.0 / 3.0).abs() < 1e-9,
            "phi_h={}",
            res.eval.phi_h
        );
        assert!(
            (res.eval.phi_l - 11.0 / 9.0).abs() < 1e-9,
            "phi_l={} (expected the ECMP-split optimum 11/9)",
            res.eval.phi_l
        );
    }

    #[test]
    fn search_never_returns_worse_than_initial() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 12,
            directed_links: 48,
            seed: 4,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 4,
                ..Default::default()
            },
        )
        .scaled(3.0);
        let w0 = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let initial_cost = ev.eval_dual(&w0).cost;
        let res = DtrSearch::new(&topo, &demands, Objective::LoadBased, SearchParams::tiny())
            .with_initial(w0)
            .run();
        assert!(res.best_cost <= initial_cost);
        assert_eq!(res.best_cost, res.eval.cost);
    }

    #[test]
    fn deterministic_given_seed() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 10,
            directed_links: 40,
            seed: 5,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 5,
                ..Default::default()
            },
        );
        let run = |seed| {
            DtrSearch::new(
                &topo,
                &demands,
                Objective::LoadBased,
                SearchParams::tiny().with_seed(seed),
            )
            .run()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.trace.evaluations, b.trace.evaluations);
    }

    #[test]
    fn works_under_sla_objective() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 12,
            directed_links: 48,
            seed: 6,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 6,
                ..Default::default()
            },
        )
        .scaled(4.0);
        let res = DtrSearch::new(
            &topo,
            &demands,
            Objective::sla_default(),
            SearchParams::tiny().with_seed(1),
        )
        .run();
        assert!(res.eval.sla.is_some());
        assert!(res.best_cost.primary >= 0.0);
        assert!(res.trace.evaluations > 0);
    }

    #[test]
    fn trace_counts_are_consistent() {
        let (topo, demands) = triangle_instance();
        let res = DtrSearch::new(&topo, &demands, Objective::LoadBased, SearchParams::tiny()).run();
        let p = SearchParams::tiny();
        assert_eq!(res.trace.iterations, 2 * p.n_iters + p.k_iters);
        assert!(res.trace.evaluations <= p.dtr_eval_budget());
        assert!(res.trace.moves_accepted <= res.trace.evaluations);
        // First recorded improvement is the initial incumbent.
        assert_eq!(res.trace.improvements[0].iteration, 0);
    }

    #[test]
    fn warm_start_is_respected() {
        let (topo, demands) = triangle_instance();
        let mut w0 = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        // Start from the known optimum; the search must keep it.
        w0.low.set(
            topo.find_link(dtr_graph::NodeId(0), dtr_graph::NodeId(2))
                .unwrap(),
            30,
        );
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let w0_cost = ev.eval_dual(&w0).cost;
        let res = DtrSearch::new(&topo, &demands, Objective::LoadBased, SearchParams::tiny())
            .with_initial(w0)
            .run();
        assert!(res.best_cost <= w0_cost);
    }
}
