//! # dtr-engine — incremental-SPF batch evaluation for the weight search
//!
//! The DTR/STR weight searches (`dtr-core`) evaluate candidate weight
//! vectors by the hundreds of thousands (`N = 300 000`, `K = 800 000` in
//! the paper), and every candidate differs from the current solution in
//! only one or two link weights. The seed implementation nevertheless
//! paid a full reverse-Dijkstra per destination per candidate. This
//! crate is the engine that removes that cost:
//!
//! - [`flat`] — arena-indexed structure-of-arrays storage for the hot
//!   path: CSR adjacency ([`flat::FlatTopo`]), flat per-destination
//!   ECMP DAGs ([`flat::FlatDag`]) and `u64`-word bitset link masks
//!   ([`flat::LinkMask`]), keeping candidate evaluation cache-resident
//!   at 1000+ nodes;
//! - [`dynspf`] — Ramalingam–Reps-style dynamic maintenance of the
//!   per-destination ECMP shortest-path DAGs: an O(1) per-destination
//!   filter ([`dynspf::delta_affects_dag`]) plus an affected-region-only
//!   repair ([`dynspf::apply_weight_delta`]);
//! - [`state`] — sparse per-destination load contributions with an
//!   exact-order fold, so patched loads are **bit-identical** to full
//!   evaluation;
//! - [`backend`] — the [`EvalBackend`] trait with [`FullBackend`]
//!   (recompute everything, rayon-parallel across the batch) and
//!   [`IncrementalBackend`] (repair only affected destinations)
//!   implementations;
//! - [`cache`] — an LRU evaluation cache keyed by weight-vector hash,
//!   short-circuiting revisited candidates entirely;
//! - [`bound`] — the wait-free shared incumbent bound that parallel
//!   portfolio workers publish improvements to (`dtr-core`'s
//!   orchestrator);
//! - [`BatchEvaluator`] — the facade `dtr-core` drives: per-class batch
//!   evaluation returning the same [`HighSide`] / [`ClassLoads`] /
//!   [`Evaluation`] structures the routing evaluator produces.
//!
//! ## Equivalence contract
//!
//! Both backends produce bit-identical `Evaluation`s for identical
//! inputs (enforced by proptests in `tests/proptests.rs`), so backend
//! choice changes wall-clock time, never search trajectories. See
//! `DESIGN.md` for why this holds and when the incremental backend
//! internally falls back to full evaluation (diversification jumps that
//! perturb ~5% of all weights).

pub mod backend;
pub mod bound;
pub mod cache;
pub mod dynspf;
pub mod flat;
pub mod kclass;
pub mod state;

pub use backend::{
    full_candidate_eval, full_candidate_eval_masked, make_backend, BackendKind, EvalBackend,
    FullBackend, IncrementalBackend,
};
pub use bound::SharedBound;
pub use cache::{weight_hash, LruCache};
pub use dynspf::{
    apply_link_down, apply_link_up, apply_weight_delta, delta_affects_dag, link_down_affects_dag,
    DynSpfScratch,
};
pub use flat::{FlatDag, FlatSpfWorkspace, FlatTopo, LinkMask};
pub use kclass::{KClassBatchEvaluator, KClassEvaluation};
pub use state::{CandidateEval, DestState, FlowState};

use dtr_cost::{Objective, ObjectiveError, ObjectiveSpec};
use dtr_graph::weights::DualWeights;
use dtr_graph::{NodeId, ShortestPathDag, SpfWorkspace, Topology, WeightVector};
use dtr_routing::{
    hybrid_low_dag, push_demand_down_dag, sla_evaluation, trapped_flow, ClassLoads, DeploymentSet,
    EvalError, Evaluation, Evaluator, FailureScenario, HighSide,
};
use dtr_traffic::DemandSet;
use std::sync::Arc;

/// Default LRU capacity per class cache.
const DEFAULT_CACHE_CAPACITY: usize = 512;

/// Which class's weight vector a candidate batch moves: `W^H` (the
/// paper's `FindH`) or `W^L` (`FindL`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The high-priority class.
    High,
    /// The low-priority class.
    Low,
}

impl Side {
    /// The vector of `w` this side moves.
    pub fn of(self, w: &DualWeights) -> &WeightVector {
        match self {
            Side::High => &w.high,
            Side::Low => &w.low,
        }
    }

    /// Mutable [`Self::of`].
    pub fn of_mut(self, w: &mut DualWeights) -> &mut WeightVector {
        match self {
            Side::High => &mut w.high,
            Side::Low => &mut w.low,
        }
    }
}

/// The batch candidate evaluator the searches drive.
///
/// Owns one backend per routed side — high class, low class, and the
/// joint (single-topology) pairing — plus per-class LRU caches and the
/// underlying [`Evaluator`] used to assemble costs. Backends track a
/// *base* weight vector (the search's current solution); move the base
/// with [`Self::rebase_high`] / [`Self::rebase_low`] /
/// [`Self::rebase_joint`] whenever the search accepts a move, so the
/// incremental backend's repairs stay small.
pub struct BatchEvaluator<'a> {
    evaluator: Evaluator<'a>,
    topo: &'a Topology,
    high: LazyBackend<'a>,
    low: LazyBackend<'a>,
    joint: LazyBackend<'a>,
    high_cache: LruCache<HighSide>,
    low_cache: LruCache<ClassLoads>,
    joint_cache: LruCache<Evaluation>,
    /// Workspace for the fresh SPFs the deployed paths need at
    /// destinations outside a backend's coverage.
    ws: SpfWorkspace,
}

/// A backend constructed on first use. `DtrSearch` never touches the
/// joint backend and `StrSearch` never touches the per-class ones;
/// building eagerly would pay a full SPF sweep per unused side at every
/// search construction (experiments build searches in tight loops).
struct LazyBackend<'a> {
    kind: BackendKind,
    topo: &'a Topology,
    matrices: Vec<&'a dtr_traffic::TrafficMatrix>,
    /// Base tracked while the backend doesn't exist yet.
    base: WeightVector,
    backend: Option<Box<dyn EvalBackend + 'a>>,
}

impl<'a> LazyBackend<'a> {
    fn new(
        kind: BackendKind,
        topo: &'a Topology,
        matrices: Vec<&'a dtr_traffic::TrafficMatrix>,
        base: WeightVector,
    ) -> Self {
        LazyBackend {
            kind,
            topo,
            matrices,
            base,
            backend: None,
        }
    }

    fn get(&mut self) -> &mut (dyn EvalBackend + 'a) {
        if self.backend.is_none() {
            self.backend = Some(make_backend(
                self.kind,
                self.topo,
                self.matrices.clone(),
                self.base.clone(),
            ));
        }
        self.backend.as_mut().unwrap().as_mut()
    }

    fn rebase(&mut self, w: &WeightVector) {
        match &mut self.backend {
            Some(b) => b.rebase(w),
            None => self.base = w.clone(),
        }
    }
}

impl<'a> BatchEvaluator<'a> {
    /// Binds the problem instance and builds backends of `kind`, all
    /// based at uniform weight 1 (rebase before use if starting
    /// elsewhere).
    pub fn new(
        topo: &'a Topology,
        demands: &'a DemandSet,
        objective: Objective,
        kind: BackendKind,
    ) -> Self {
        let w0 = WeightVector::uniform(topo, 1);
        BatchEvaluator {
            evaluator: Evaluator::new(topo, demands, objective),
            topo,
            high: LazyBackend::new(kind, topo, vec![&demands.high], w0.clone()),
            low: LazyBackend::new(kind, topo, vec![&demands.low], w0.clone()),
            joint: LazyBackend::new(kind, topo, vec![&demands.high, &demands.low], w0),
            high_cache: LruCache::new(DEFAULT_CACHE_CAPACITY),
            low_cache: LruCache::new(DEFAULT_CACHE_CAPACITY),
            joint_cache: LruCache::new(DEFAULT_CACHE_CAPACITY),
            ws: SpfWorkspace::new(),
        }
    }

    /// Binds the problem instance under a unified [`ObjectiveSpec`].
    ///
    /// This evaluator is the two-class search engine, so the spec must
    /// map onto the legacy [`Objective`] enum (see
    /// [`ObjectiveSpec::as_two_class`]); compatible specs route through
    /// the exact [`Self::new`] path, keeping results bit-identical.
    /// `k ≥ 3` specs belong to [`KClassBatchEvaluator`].
    pub fn with_spec(
        topo: &'a Topology,
        demands: &'a DemandSet,
        spec: &ObjectiveSpec,
        kind: BackendKind,
    ) -> Result<Self, ObjectiveError> {
        spec.validate()?;
        match spec.as_two_class() {
            Some(objective) => Ok(BatchEvaluator::new(topo, demands, objective, kind)),
            None => Err(ObjectiveError::Unsupported {
                context: "two-class BatchEvaluator",
                spec: spec.summary(),
            }),
        }
    }

    /// The underlying cost evaluator (for `finish`, `link_ranks`,
    /// `eval_dual`, …).
    pub fn evaluator(&mut self) -> &mut Evaluator<'a> {
        &mut self.evaluator
    }

    /// The bound topology.
    pub fn topo(&self) -> &'a Topology {
        self.topo
    }

    /// The backend routing `side`'s class.
    fn backend(&mut self, side: Side) -> &mut LazyBackend<'a> {
        match side {
            Side::High => &mut self.high,
            Side::Low => &mut self.low,
        }
    }

    /// Whether the SLA walk should reuse backend-provided DAGs. Both
    /// backends can supply them (the full backend computes every DAG for
    /// its load push anyway), which saves the `HighSide` assembly from
    /// re-running one Dijkstra per high destination per candidate.
    fn want_dags(&self) -> bool {
        matches!(self.evaluator.objective(), Objective::SlaBased(_))
    }

    /// Evaluates one high-class candidate.
    pub fn eval_high(&mut self, wh: &WeightVector) -> HighSide {
        self.eval_high_batch(std::slice::from_ref(wh))
            .pop()
            .unwrap()
    }

    /// Evaluates a batch of high-class candidates (cache first, then the
    /// backend for the misses), preserving order.
    pub fn eval_high_batch(&mut self, cands: &[WeightVector]) -> Vec<HighSide> {
        let want_dags = self.want_dags();
        let evaluator = &mut self.evaluator;
        cached_batch(
            &mut self.high_cache,
            &mut self.high,
            cands,
            want_dags,
            |mut ev, wh| make_high_side(evaluator, ev.loads.swap_remove(0), wh, &ev.dags),
        )
    }

    /// Evaluates one low-class candidate.
    pub fn eval_low(&mut self, wl: &WeightVector) -> ClassLoads {
        self.eval_low_batch(std::slice::from_ref(wl)).pop().unwrap()
    }

    /// Evaluates a batch of low-class candidates.
    pub fn eval_low_batch(&mut self, cands: &[WeightVector]) -> Vec<ClassLoads> {
        cached_batch(
            &mut self.low_cache,
            &mut self.low,
            cands,
            false,
            |mut ev, _| ev.loads.swap_remove(0),
        )
    }

    /// Evaluates one joint (single-topology) candidate.
    pub fn eval_joint(&mut self, w: &WeightVector) -> Evaluation {
        self.eval_joint_batch(std::slice::from_ref(w))
            .pop()
            .unwrap()
    }

    /// Evaluates a batch of joint candidates: both classes ride `w`, and
    /// the returned [`Evaluation`] matches `Evaluator::eval_str(w)`
    /// bit-for-bit.
    pub fn eval_joint_batch(&mut self, cands: &[WeightVector]) -> Vec<Evaluation> {
        let want_dags = self.want_dags();
        let evaluator = &mut self.evaluator;
        cached_batch(
            &mut self.joint_cache,
            &mut self.joint,
            cands,
            want_dags,
            |mut ev, w| {
                let low = ev.loads.swap_remove(1);
                let high = make_high_side(evaluator, ev.loads.swap_remove(0), w, &ev.dags);
                evaluator
                    .finish(high, low)
                    .expect("make_high_side fills the SLA walk under SLA objectives")
            },
        )
    }

    /// Binds a partial-deployment model on the underlying evaluator (see
    /// [`dtr_routing::deploy`]); `None` or a full set clears it and
    /// restores the exact legacy paths.
    pub fn set_deployment(&mut self, dep: Option<DeploymentSet>) -> Result<(), EvalError> {
        self.evaluator.set_deployment(dep)
    }

    /// The bound partial deployment, if any.
    pub fn deployment(&self) -> Option<&DeploymentSet> {
        self.evaluator.deployment()
    }

    /// Evaluates the dual setting `w`, bit-identical to
    /// [`Evaluator::eval_dual`] (deployment-aware, like
    /// [`Self::eval_side_batch`]).
    pub fn eval_dual(&mut self, w: &DualWeights) -> Evaluation {
        if self.deployment().is_none() {
            let (high, low) = (self.eval_high(&w.high), self.eval_low(&w.low));
            return self.finish(high, low, 0.0);
        }
        let cand = std::slice::from_ref(&w.high);
        let (loads, low, undeliverable) = self.hybrid_batch(Side::High, &w.low, cand).remove(0);
        let high = self.evaluator.high_side_from_loads(loads, &w.high);
        self.finish(high, low, undeliverable)
    }

    /// Evaluates candidates that replace `side.of(w)` in the current
    /// setting `w` (evaluated as `cur`); each result is bit-identical to
    /// [`Evaluator::eval_dual`] on the moved setting. Plain routing (no
    /// deployment, or a full one) routes only the moved class, through
    /// its cache and backend, and takes the other side from `cur`. Under
    /// a bound partial deployment the low class rides hybrid DAGs that
    /// depend on both vectors, so every candidate gets fresh hybrid low
    /// loads and its trapped volume is charged.
    pub fn eval_side_batch(
        &mut self,
        side: Side,
        w: &DualWeights,
        cur: &Evaluation,
        cands: &[WeightVector],
    ) -> Vec<Evaluation> {
        let mut out = Vec::with_capacity(cands.len());
        if self.deployment().is_some() {
            let fixed = if side == Side::High { &w.low } else { &w.high };
            for ((loads, low, und), c) in
                self.hybrid_batch(side, fixed, cands).into_iter().zip(cands)
            {
                let high = match side {
                    Side::High => self.evaluator.high_side_from_loads(loads, c),
                    Side::Low => cur.high_side(),
                };
                out.push(self.finish(high, low, und));
            }
        } else if side == Side::High {
            for high in self.eval_high_batch(cands) {
                out.push(self.finish(high, cur.low_loads.clone(), 0.0));
            }
        } else {
            for low in self.eval_low_batch(cands) {
                out.push(self.finish(cur.high_side(), low, 0.0));
            }
        }
        out
    }

    /// Assembles an [`Evaluation`]; a zero `undeliverable` is
    /// bit-identical to [`Evaluator::finish`].
    fn finish(&self, high: HighSide, low: ClassLoads, undeliverable: f64) -> Evaluation {
        self.evaluator
            .finish_deployed(high, low, undeliverable)
            .expect("engine high sides carry the SLA walk")
    }

    /// Evaluates a batch of **low-class** candidates under the bound
    /// partial deployment, against a fixed high vector `wh`. Returns,
    /// per candidate, the hybrid low loads plus the trapped
    /// (undeliverable) volume — feed both to
    /// [`Evaluator::finish_deployed`]. Bit-identical to
    /// [`Evaluator::low_loads_deployed`].
    pub fn eval_deployed_low_batch(
        &mut self,
        wh: &WeightVector,
        cands: &[WeightVector],
    ) -> Vec<(ClassLoads, f64)> {
        let hybrid = self.hybrid_batch(Side::Low, wh, cands);
        hybrid.into_iter().map(|(_, low, und)| (low, und)).collect()
    }

    /// The hybrid-DAG push under the bound partial deployment. Per
    /// candidate of the moved `side`: that class's own loads, the hybrid
    /// low loads and the trapped volume. The other side's DAGs are
    /// computed once from `fixed`; the moved side's come from its
    /// backend, or from a fresh SPF at destinations the backend does not
    /// track (the high backend covers only high-demand destinations).
    /// Uncached: results key on the `(W^H, W^L)` pair, which the
    /// per-class caches cannot express.
    fn hybrid_batch(
        &mut self,
        side: Side,
        fixed: &WeightVector,
        cands: &[WeightVector],
    ) -> Vec<(ClassLoads, ClassLoads, f64)> {
        let dep = self
            .evaluator
            .deployment()
            .cloned()
            .expect("hybrid evaluation requires a bound partial deployment");
        // Destinations with low-priority demand, ascending: the push
        // order of `Evaluator::low_loads_deployed`.
        let demands = self.evaluator.demands();
        let dests: Vec<NodeId> = self
            .topo
            .nodes()
            .filter(|t| demands.low.demands_to(t.index()).next().is_some())
            .collect();
        let fixed_dags: Vec<ShortestPathDag> = dests
            .iter()
            .map(|&t| ShortestPathDag::compute_with(self.topo, fixed, t, None, &mut self.ws))
            .collect();
        let evals = self.backend(side).get().eval_batch(cands, true);
        let mut by_node: Vec<Option<Arc<ShortestPathDag>>> = vec![None; self.topo.node_count()];
        let mut results = Vec::with_capacity(evals.len());
        for (mut ev, w) in evals.into_iter().zip(cands) {
            by_node.iter_mut().for_each(|s| *s = None);
            for (t, dag) in ev.dags {
                by_node[t.index()] = Some(dag);
            }
            let mut out = vec![0.0; self.topo.link_count()];
            let mut flow = Vec::new();
            let mut undeliverable = 0.0;
            for (t, fixed_dag) in dests.iter().zip(&fixed_dags) {
                let fresh;
                let moved = match by_node[t.index()].as_deref() {
                    Some(d) => d,
                    None => {
                        fresh = ShortestPathDag::compute_with(self.topo, w, *t, None, &mut self.ws);
                        &fresh
                    }
                };
                let (dh, dl) = match side {
                    Side::High => (moved, fixed_dag),
                    Side::Low => (fixed_dag, moved),
                };
                let hybrid = hybrid_low_dag(self.topo, &dep, dh, dl);
                push_demand_down_dag(self.topo, &hybrid, &demands.low, *t, &mut flow, &mut out);
                undeliverable += trapped_flow(&hybrid, &flow);
            }
            results.push((ev.loads.swap_remove(0), out, undeliverable));
        }
        results
    }

    /// Raw per-link loads of `side`'s class under `w` — no cost
    /// assembly, bit-identical to
    /// [`dtr_routing::LoadCalculator::class_loads`]. The robust search's
    /// intact-evaluation path (it folds loads into per-scenario costs
    /// itself, so the nominal `HighSide` machinery does not apply).
    pub fn class_loads(&mut self, side: Side, w: &WeightVector) -> ClassLoads {
        let mut evals = self
            .backend(side)
            .get()
            .eval_batch(std::slice::from_ref(w), false);
        evals.swap_remove(0).loads.swap_remove(0)
    }

    /// High-class loads of `wh` under every failure scenario, in input
    /// order — each entry bit-identical to
    /// [`dtr_routing::LoadCalculator::class_loads_masked`] on that
    /// scenario's mask. Uncached: the robust search never revisits a
    /// (candidate, scenario) pair within one run, so a sweep cache
    /// would only pay on the incumbent re-evaluations, which the caller
    /// already avoids.
    pub fn sweep_high(
        &mut self,
        wh: &WeightVector,
        scenarios: &[FailureScenario],
    ) -> Vec<ClassLoads> {
        self.high
            .get()
            .eval_scenarios(wh, scenarios)
            .into_iter()
            .map(|mut ev| ev.loads.swap_remove(0))
            .collect()
    }

    /// Low-class loads of `wl` under every failure scenario.
    pub fn sweep_low(
        &mut self,
        wl: &WeightVector,
        scenarios: &[FailureScenario],
    ) -> Vec<ClassLoads> {
        self.low
            .get()
            .eval_scenarios(wl, scenarios)
            .into_iter()
            .map(|mut ev| ev.loads.swap_remove(0))
            .collect()
    }

    /// Moves the high-class base (the search accepted a move).
    pub fn rebase_high(&mut self, wh: &WeightVector) {
        self.high.rebase(wh);
    }

    /// Moves the low-class base.
    pub fn rebase_low(&mut self, wl: &WeightVector) {
        self.low.rebase(wl);
    }

    /// Moves the base of `side`.
    pub fn rebase(&mut self, side: Side, w: &WeightVector) {
        self.backend(side).rebase(w);
    }

    /// Moves the joint base.
    pub fn rebase_joint(&mut self, w: &WeightVector) {
        self.joint.rebase(w);
    }

    /// `(hits, misses)` summed over the three class caches.
    pub fn cache_stats(&self) -> (u64, u64) {
        let (h1, m1) = self.high_cache.stats();
        let (h2, m2) = self.low_cache.stats();
        let (h3, m3) = self.joint_cache.stats();
        (h1 + h2 + h3, m1 + m2 + m3)
    }
}

/// Assembles a [`HighSide`] from candidate loads, reusing candidate
/// DAGs for the SLA walk when the backend provided them.
fn make_high_side(
    evaluator: &mut Evaluator<'_>,
    loads: ClassLoads,
    wh: &WeightVector,
    dags: &[(NodeId, Arc<ShortestPathDag>)],
) -> HighSide {
    match evaluator.objective() {
        Objective::SlaBased(params) if !dags.is_empty() => {
            let topo = evaluator.topo();
            let mut by_node: Vec<Option<&Arc<ShortestPathDag>>> = vec![None; topo.node_count()];
            for (t, dag) in dags {
                by_node[t.index()] = Some(dag);
            }
            let sla = sla_evaluation(
                topo,
                &evaluator.demands().high,
                evaluator.high_dests(),
                &loads,
                &params,
                |t| {
                    by_node[t.index()]
                        .expect("backend DAGs cover every high destination")
                        .clone()
                },
            );
            evaluator.high_side_with_sla(loads, Some(sla))
        }
        _ => evaluator.high_side_from_loads(loads, wh),
    }
}

/// One class's batch through its LRU cache: hits come from `cache`; the
/// distinct misses go to `backend` as one batch, are turned into values
/// by `finish` (in batch order) and cached. Preserves input order.
fn cached_batch<T: Clone>(
    cache: &mut LruCache<T>,
    backend: &mut LazyBackend<'_>,
    cands: &[WeightVector],
    want_dags: bool,
    mut finish: impl FnMut(CandidateEval, &WeightVector) -> T,
) -> Vec<T> {
    let mut out: Vec<Option<T>> = cands.iter().map(|w| cache.get(w)).collect();
    let misses: Vec<usize> = (0..cands.len()).filter(|&i| out[i].is_none()).collect();
    if !misses.is_empty() {
        let (uniq, alias) = dedupe(cands, &misses);
        let miss_cands: Vec<WeightVector> = uniq.iter().map(|&i| cands[i].clone()).collect();
        let evals = backend.get().eval_batch(&miss_cands, want_dags);
        let mut values: Vec<T> = Vec::with_capacity(uniq.len());
        for (&i, ev) in uniq.iter().zip(evals) {
            let value = finish(ev, &cands[i]);
            cache.put(&cands[i], value.clone());
            values.push(value);
        }
        for (k, &i) in misses.iter().enumerate() {
            out[i] = Some(values[alias[k]].clone());
        }
    }
    out.into_iter().map(Option::unwrap).collect()
}

/// Deduplicates cache misses within one batch: the neighborhood sampler
/// can draw identical candidates twice in an iteration, and evaluating
/// them once is free coverage. Returns the first-occurrence indices
/// (into `cands`) and, per miss, the position of its representative in
/// that unique list. Quadratic in the miss count, which is bounded by
/// the neighborhood size (≤ a few dozen).
fn dedupe(cands: &[WeightVector], misses: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut uniq: Vec<usize> = Vec::with_capacity(misses.len());
    let mut alias: Vec<usize> = Vec::with_capacity(misses.len());
    for &i in misses {
        match uniq.iter().position(|&j| cands[j] == cands[i]) {
            Some(p) => alias.push(p),
            None => {
                alias.push(uniq.len());
                uniq.push(i);
            }
        }
    }
    (uniq, alias)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::{random_topology, RandomTopologyCfg};
    use dtr_traffic::TrafficCfg;

    fn instance(seed: u64) -> (Topology, DemandSet) {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 12,
            directed_links: 48,
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

    #[test]
    fn backends_agree_on_joint_eval() {
        let (topo, demands) = instance(4);
        let w = WeightVector::uniform(&topo, 2);
        for objective in [Objective::LoadBased, Objective::sla_default()] {
            let mut full = BatchEvaluator::new(&topo, &demands, objective, BackendKind::Full);
            let mut incr =
                BatchEvaluator::new(&topo, &demands, objective, BackendKind::Incremental);
            let a = full.eval_joint(&w);
            let b = incr.eval_joint(&w);
            assert_eq!(a, b);
            // And against the plain evaluator.
            let mut ev = Evaluator::new(&topo, &demands, objective);
            assert_eq!(ev.eval_str(&w), a);
        }
    }

    #[test]
    fn cache_short_circuits_repeats() {
        let (topo, demands) = instance(6);
        let w = WeightVector::uniform(&topo, 1);
        let mut engine = BatchEvaluator::new(
            &topo,
            &demands,
            Objective::LoadBased,
            BackendKind::Incremental,
        );
        let a = engine.eval_low(&w);
        let b = engine.eval_low(&w);
        assert_eq!(a, b);
        let (hits, misses) = engine.cache_stats();
        assert_eq!(hits, 1);
        assert_eq!(misses, 1);
    }

    #[test]
    fn deployed_batches_match_the_plain_evaluator_bit_for_bit() {
        let (topo, demands) = instance(11);
        let n = topo.node_count();
        // Upgrade every third node — a genuinely partial deployment.
        let upgraded: Vec<u32> = (0..n as u32).step_by(3).collect();
        let dep = DeploymentSet::from_upgraded(n, &upgraded);
        let wh = WeightVector::uniform(&topo, 2);
        let mut cands = Vec::new();
        for i in 0..4u32 {
            let mut w = WeightVector::uniform(&topo, 1);
            w.set(dtr_graph::LinkId(i), 7 + i);
            cands.push(w);
        }
        let mut reference = Evaluator::new(&topo, &demands, Objective::LoadBased);
        reference.set_deployment(Some(dep.clone())).unwrap();
        for kind in [BackendKind::Full, BackendKind::Incremental] {
            let mut engine = BatchEvaluator::new(&topo, &demands, Objective::LoadBased, kind);
            engine.set_deployment(Some(dep.clone())).unwrap();
            // Low-side candidates against a fixed high vector.
            for (wl, (loads, und)) in cands
                .iter()
                .zip(engine.eval_deployed_low_batch(&wh, &cands))
            {
                let (ref_loads, ref_und) = reference.low_loads_deployed(&dep, &wh, wl);
                assert_eq!(loads, ref_loads, "{kind:?} low loads diverge");
                assert_eq!(und, ref_und);
            }
            // High-side candidates against a fixed low vector, through
            // the side-batch entry point.
            let w = DualWeights {
                high: wh.clone(),
                low: cands[1].clone(),
            };
            let cur = engine.eval_dual(&w);
            let evals = engine.eval_side_batch(Side::High, &w, &cur, &cands);
            for (whc, ev) in cands.iter().zip(evals) {
                let ref_hs = reference.eval_high_side(whc);
                let (ref_loads, ref_und) = reference.low_loads_deployed(&dep, whc, &w.low);
                assert_eq!(ev.high_side(), ref_hs, "{kind:?} high side diverges");
                assert_eq!(ev.low_loads, ref_loads, "{kind:?} hybrid low loads diverge");
                let reference_ev = reference
                    .finish_deployed(ref_hs, ref_loads, ref_und)
                    .unwrap();
                assert_eq!(ev, reference_ev);
            }
        }
    }

    #[test]
    fn side_batches_match_eval_dual_plain_and_deployed() {
        let (topo, demands) = instance(11);
        let n = topo.node_count();
        let upgraded: Vec<u32> = (0..n as u32).step_by(3).collect();
        let w = DualWeights {
            high: WeightVector::uniform(&topo, 2),
            low: WeightVector::uniform(&topo, 3),
        };
        for dep in [None, Some(DeploymentSet::from_upgraded(n, &upgraded))] {
            let mut reference = Evaluator::new(&topo, &demands, Objective::LoadBased);
            reference.set_deployment(dep.clone()).unwrap();
            for kind in [BackendKind::Full, BackendKind::Incremental] {
                let mut engine = BatchEvaluator::new(&topo, &demands, Objective::LoadBased, kind);
                engine.set_deployment(dep.clone()).unwrap();
                let cur = engine.eval_dual(&w);
                assert_eq!(cur, reference.eval_dual(&w), "{kind:?} {dep:?}");
                for side in [Side::High, Side::Low] {
                    let cands: Vec<WeightVector> = (0..4u32)
                        .map(|i| {
                            let mut c = side.of(&w).clone();
                            c.set(dtr_graph::LinkId(i), 7 + i);
                            c
                        })
                        .collect();
                    let evals = engine.eval_side_batch(side, &w, &cur, &cands);
                    for (c, ev) in cands.into_iter().zip(evals) {
                        let mut moved = w.clone();
                        *side.of_mut(&mut moved) = c;
                        assert_eq!(ev, reference.eval_dual(&moved), "{kind:?} {side:?} {dep:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn high_batch_matches_evaluator() {
        let (topo, demands) = instance(9);
        let mut engine = BatchEvaluator::new(
            &topo,
            &demands,
            Objective::LoadBased,
            BackendKind::Incremental,
        );
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let mut cands = Vec::new();
        for i in 0..5u32 {
            let mut w = WeightVector::uniform(&topo, 1);
            w.set(dtr_graph::LinkId(i), 5 + i);
            cands.push(w);
        }
        let batch = engine.eval_high_batch(&cands);
        for (w, hs) in cands.iter().zip(&batch) {
            let reference = ev.eval_high_side(w);
            assert_eq!(&reference, hs);
        }
    }
}
