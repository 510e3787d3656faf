//! Change-limited reoptimization (Fortz & Thorup's "changing world" \[19\]).
//!
//! Demand drifts daily, but operators will not push a complete new weight
//! configuration to every router each morning: each changed metric is a
//! configuration event that triggers an LSA flood and a network-wide SPF
//! rerun. \[19\] frames the practical problem as: *given the incumbent
//! weights and a new traffic matrix, find a better setting that differs
//! in at most `h` weights*.
//!
//! [`ReoptSearch`] implements that constrained search for both schemes:
//! under [`Scheme::Str`] a "change" is one link's shared weight; under
//! [`Scheme::Dtr`] each per-class metric counts separately (that is what
//! a router reconfiguration costs under multi-topology OSPF — one metric
//! statement per topology per interface). Moves that would exceed the
//! change budget are rejected; moves that *revert* a previously changed
//! weight back to its incumbent value release budget. [`frontier`] sweeps
//! `h` with warm starts to trace the cost-vs-churn curve an operator
//! actually navigates.
//!
//! The search is the shared Fortz–Thorup loop ([`crate::descent`]) with
//! a budget-aware move (which may propose nothing when the drawn
//! position cannot move and nothing can be reverted) and restarts that
//! re-randomize up to `h` positions of the incumbent. With `h = 0` it
//! runs no iteration: the start is the answer.
//!
//! [`ReoptSession`] wraps the same kernel in a long-lived warm-start API
//! for callers that track a network over time (the `dtrd` daemon): it
//! owns the incumbent, derives a decorrelated seed per step, and supports
//! evaluation under a link-failure mask so re-optimization can run while
//! part of the topology is down.

use crate::descent::{descend, Descent};
use crate::neighborhood::draw_changed_weight;
use crate::params::{derive_stream_seed, SearchParams};
use crate::scheme::Scheme;
use crate::telemetry::SearchTrace;
use dtr_cost::{Lex2, Objective};
use dtr_engine::BatchEvaluator;
use dtr_graph::weights::DualWeights;
use dtr_graph::{LinkId, Topology};
use dtr_routing::{Evaluation, Evaluator, FailureScenario};
use dtr_traffic::DemandSet;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};

/// Outcome of one change-limited reoptimization.
#[derive(Debug, Clone)]
pub struct ReoptResult {
    /// Best setting found within the change budget (replicated vectors
    /// under [`Scheme::Str`]).
    pub weights: DualWeights,
    /// Full evaluation of the best setting on the *new* demand.
    pub eval: Evaluation,
    /// Its objective value.
    pub best_cost: Lex2,
    /// The change budget `h` this run was allowed.
    pub max_changes: usize,
    /// Weight positions actually changed relative to the incumbent
    /// (`≤ max_changes`).
    pub changes_used: usize,
    /// Telemetry.
    pub trace: SearchTrace,
}

/// The descent shared by [`ReoptSearch`] and [`ReoptSession`]: every
/// move stays inside the Hamming ball of radius `max_changes` around the
/// incumbent, with reverts releasing budget, and restarts land inside
/// the same ball. Generic over the evaluation function so the same loop
/// serves full-topology ([`ReoptSearch::run`]) and masked
/// ([`ReoptSession::step_masked`]) evaluation.
struct Constrained<'i, E> {
    params: SearchParams,
    scheme: Scheme,
    max_changes: usize,
    incumbent: &'i DualWeights,
    eval: E,
}

impl<E: FnMut(&DualWeights) -> Evaluation> Constrained<'_, E> {
    /// Runs `iters` descent iterations (normally
    /// [`SearchParams::str_iters`]; [`ReoptSession::idle_step`] passes
    /// fewer) from `start`, or from the incumbent itself.
    fn run(mut self, start: Option<DualWeights>, iters: usize) -> ReoptResult {
        let params = self.params;
        let mut rng = StdRng::seed_from_u64(params.seed);
        let start = start.unwrap_or_else(|| self.incumbent.clone());
        // With no budget nothing may move: the start is the answer.
        let iters = if self.max_changes == 0 { 0 } else { iters };
        let out = descend(&mut self, start, &params, iters, &mut rng, None);
        ReoptResult {
            changes_used: changes_between(&out.weights, self.incumbent, self.scheme),
            weights: out.weights,
            best_cost: out.eval.cost,
            eval: out.eval,
            max_changes: self.max_changes,
            trace: out.trace,
        }
    }

    /// Reverts one randomly chosen changed position to its incumbent
    /// value (releases one unit of budget); `None` when nothing changed.
    fn propose_revert(&self, cur: &DualWeights, rng: &mut StdRng) -> Option<DualWeights> {
        let inc = self.incumbent;
        let mut changed: Vec<(bool, LinkId)> = Vec::new();
        for i in 0..cur.high.len() as u32 {
            let lid = LinkId(i);
            if cur.high.get(lid) != inc.high.get(lid) {
                changed.push((true, lid));
            }
            if self.scheme == Scheme::Dtr && cur.low.get(lid) != inc.low.get(lid) {
                changed.push((false, lid));
            }
        }
        let &(high, lid) = changed.choose(rng)?;
        let mut next = cur.clone();
        self.scheme
            .set(&mut next, high, lid, inc.class(high).get(lid));
        Some(next)
    }
}

impl<E: FnMut(&DualWeights) -> Evaluation> Descent for Constrained<'_, E> {
    type Weights = DualWeights;
    type Eval = Evaluation;
    type Cost = Lex2;

    fn cost(e: &Evaluation) -> &Lex2 {
        &e.cost
    }

    /// Proposes one feasible single-weight change, or `None` when the
    /// randomly chosen position cannot move without breaking the budget
    /// and there is nothing to revert.
    fn propose(&mut self, cur: &DualWeights, rng: &mut StdRng) -> Option<DualWeights> {
        let lid = LinkId(rng.random_range(0..cur.high.len() as u32));
        let high = self.scheme.draw_class(rng);
        let old = cur.class(high).get(lid);
        let pristine = old == self.incumbent.class(high).get(lid);
        if pristine && changes_between(cur, self.incumbent, self.scheme) >= self.max_changes {
            // Budget exhausted and this position is pristine: the only
            // legal moves elsewhere are reverts, so propose one instead.
            return self.propose_revert(cur, rng);
        }
        // Either budget is available (any new value works) or this
        // position already counts against the budget (re-valuing it is
        // free).
        let mut next = cur.clone();
        let v = draw_changed_weight(old, &self.params, rng);
        self.scheme.set(&mut next, high, lid, v);
        Some(next)
    }

    fn eval(&mut self, w: &DualWeights) -> Evaluation {
        (self.eval)(w)
    }

    /// A random point inside the feasible ball: the incumbent with up to
    /// `max_changes` positions re-randomized.
    fn restart(&mut self, cur: &mut DualWeights, rng: &mut StdRng) {
        *cur = self.incumbent.clone();
        let count = rng.random_range(1..=self.max_changes);
        for _ in 0..count {
            let lid = LinkId(rng.random_range(0..cur.high.len() as u32));
            let v = rng.random_range(self.params.min_weight..=self.params.max_weight);
            let high = self.scheme.draw_class(rng);
            self.scheme.set(cur, high, lid, v);
        }
    }
}

/// The change-limited local search.
pub struct ReoptSearch<'a> {
    evaluator: Evaluator<'a>,
    params: SearchParams,
    scheme: Scheme,
    incumbent: DualWeights,
    max_changes: usize,
    start: Option<DualWeights>,
}

impl<'a> ReoptSearch<'a> {
    /// Prepares a reoptimization of `incumbent` against `demands`
    /// (typically a drifted matrix), allowing at most `max_changes`
    /// weight changes. Under [`Scheme::Str`] the incumbent must have
    /// replicated vectors.
    pub fn new(
        topo: &'a Topology,
        demands: &'a DemandSet,
        objective: Objective,
        params: SearchParams,
        scheme: Scheme,
        incumbent: DualWeights,
        max_changes: usize,
    ) -> Self {
        params.validate();
        assert_eq!(incumbent.high.len(), topo.link_count());
        assert_eq!(incumbent.low.len(), topo.link_count());
        if scheme == Scheme::Str {
            assert_eq!(
                incumbent.high, incumbent.low,
                "STR incumbents must have replicated vectors"
            );
        }
        ReoptSearch {
            evaluator: Evaluator::new(topo, demands, objective),
            params,
            scheme,
            incumbent,
            max_changes,
            start: None,
        }
    }

    /// Warm-starts from `w` instead of the incumbent itself. `w` must be
    /// within the change budget (used by [`frontier`] to chain runs).
    pub fn with_start(mut self, w: DualWeights) -> Self {
        assert!(
            changes_between(&w, &self.incumbent, self.scheme) <= self.max_changes,
            "warm start exceeds the change budget"
        );
        self.start = Some(w);
        self
    }

    /// Runs the constrained search for [`SearchParams::str_iters`]
    /// iterations of `m` candidates each.
    pub fn run(self) -> ReoptResult {
        let iters = self.params.str_iters();
        self.run_with_iters(iters)
    }

    /// Like [`run`](Self::run) with an explicit iteration budget —
    /// the anytime knob behind [`ReoptSession::idle_step`].
    pub fn run_with_iters(self, iters: usize) -> ReoptResult {
        let scheme = self.scheme;
        let mut evaluator = self.evaluator;
        Constrained {
            params: self.params,
            scheme,
            max_changes: self.max_changes,
            incumbent: &self.incumbent,
            eval: |w: &DualWeights| match scheme {
                Scheme::Str => evaluator.eval_str(&w.high),
                Scheme::Dtr => evaluator.eval_dual(w),
            },
        }
        .run(self.start, iters)
    }
}

/// Number of configuration changes between two settings under a scheme:
/// per-link for STR (the vectors are replicas), per-link-per-class for
/// DTR.
pub fn changes_between(a: &DualWeights, b: &DualWeights, scheme: Scheme) -> usize {
    match scheme {
        Scheme::Str => a.high.hamming(&b.high),
        Scheme::Dtr => a.high.hamming(&b.high) + a.low.hamming(&b.low),
    }
}

/// Sweeps the change budget `h` over `budgets` (must be increasing),
/// warm-starting each run from the previous best, and returns one
/// [`ReoptResult`] per budget. The warm start makes the frontier
/// monotone: a larger budget never reports a worse cost.
pub fn frontier(
    topo: &Topology,
    demands: &DemandSet,
    objective: Objective,
    params: SearchParams,
    scheme: Scheme,
    incumbent: &DualWeights,
    budgets: &[usize],
) -> Vec<ReoptResult> {
    assert!(
        budgets.windows(2).all(|w| w[0] < w[1]),
        "budgets must be strictly increasing"
    );
    let mut out: Vec<ReoptResult> = Vec::with_capacity(budgets.len());
    for (i, &h) in budgets.iter().enumerate() {
        let mut search = ReoptSearch::new(
            topo,
            demands,
            objective,
            params.with_seed(params.seed.wrapping_add(i as u64)),
            scheme,
            incumbent.clone(),
            h,
        );
        if let Some(prev) = out.last() {
            search = search.with_start(prev.weights.clone());
        }
        out.push(search.run());
    }
    out
}

/// A long-lived warm-start reoptimization session.
///
/// Where [`ReoptSearch`] is a one-shot run, a session owns the incumbent
/// weights across a *sequence* of reoptimizations — the shape a live
/// network has: demand drifts, links fail and recover, and each event
/// asks "can ≤ `h` weight changes improve the current setting?". The
/// session guarantees:
///
/// - **Warm start:** every [`step`](Self::step) starts from the current
///   incumbent, so its result is never worse than leaving the weights
///   alone (the incumbent's own evaluation seeds the best-so-far).
/// - **Seed decorrelation:** step `k` runs with
///   [`derive_stream_seed`]`(params.seed,
///   `[`streams::REOPT_STEP`](crate::streams::REOPT_STEP)` + k)`, so
///   consecutive steps explore independently while the whole sequence
///   stays a pure function of the base seed — replaying the same event
///   sequence reproduces the same results bit for bit.
/// - **Explicit adoption:** the session only moves its incumbent when
///   the caller [`accept`](Self::accept)s a result, mirroring an
///   operator who may decline a reconfiguration (e.g. because its
///   control-plane churn outweighs the gain).
///
/// [`step_masked`](Self::step_masked) evaluates candidates under a
/// link-failure mask via [`BatchEvaluator`] sweeps, so the session can
/// re-optimize a network that currently has links down. Snapshot /
/// restore is supported by persisting the incumbent and
/// [`steps`](Self::steps), then [`resume_at`](Self::resume_at).
#[derive(Clone)]
pub struct ReoptSession {
    objective: Objective,
    params: SearchParams,
    scheme: Scheme,
    incumbent: DualWeights,
    steps: u64,
}

impl ReoptSession {
    /// Opens a session around `incumbent`. Under [`Scheme::Str`] the
    /// incumbent must have replicated vectors.
    pub fn new(
        incumbent: DualWeights,
        objective: Objective,
        params: SearchParams,
        scheme: Scheme,
    ) -> Self {
        params.validate();
        assert_eq!(incumbent.high.len(), incumbent.low.len());
        if scheme == Scheme::Str {
            assert_eq!(
                incumbent.high, incumbent.low,
                "STR incumbents must have replicated vectors"
            );
        }
        ReoptSession {
            objective,
            params,
            scheme,
            incumbent,
            steps: 0,
        }
    }

    /// Opens a session under a unified
    /// [`ObjectiveSpec`](dtr_cost::ObjectiveSpec).
    ///
    /// Sessions reoptimize the two-class incumbent, so the spec must map
    /// onto the legacy [`Objective`] enum (two-class specs route through
    /// the exact [`Self::new`] path); `k ≥ 3` specs are rejected with a
    /// structured error.
    pub fn with_spec(
        incumbent: DualWeights,
        spec: &dtr_cost::ObjectiveSpec,
        params: SearchParams,
        scheme: Scheme,
    ) -> Result<Self, dtr_cost::ObjectiveError> {
        spec.validate()?;
        match spec.as_two_class() {
            Some(objective) => Ok(ReoptSession::new(incumbent, objective, params, scheme)),
            None => Err(dtr_cost::ObjectiveError::Unsupported {
                context: "two-class ReoptSession",
                spec: spec.summary(),
            }),
        }
    }

    /// The current incumbent setting.
    pub fn incumbent(&self) -> &DualWeights {
        &self.incumbent
    }

    /// The session's routing scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// How many reoptimization steps have run (the seed-stream position).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Restores the seed-stream position after a snapshot/restore
    /// round-trip, so a restored session continues exactly where the
    /// original would have.
    pub fn resume_at(&mut self, steps: u64) {
        self.steps = steps;
    }

    /// Adopts `weights` as the new incumbent (the caller deployed a
    /// result). Panics if the vectors do not match the incumbent's size
    /// or break the STR replica invariant.
    pub fn accept(&mut self, weights: DualWeights) {
        assert_eq!(weights.high.len(), self.incumbent.high.len());
        assert_eq!(weights.low.len(), self.incumbent.low.len());
        if self.scheme == Scheme::Str {
            assert_eq!(
                weights.high, weights.low,
                "STR incumbents must have replicated vectors"
            );
        }
        self.incumbent = weights;
    }

    /// Derives this step's params (decorrelated seed) and advances the
    /// stream position. Step `k` uses stream
    /// [`streams::REOPT_STEP`](crate::streams::REOPT_STEP)` + k` — the
    /// frozen zero-tagged span, so recorded replay artifacts stay valid.
    fn next_params(&mut self) -> SearchParams {
        let p = self.params.with_seed(derive_stream_seed(
            self.params.seed,
            crate::streams::REOPT_STEP + self.steps,
        ));
        self.steps += 1;
        p
    }

    /// One warm-started reoptimization of the incumbent against
    /// `demands`, allowing at most `max_changes` weight changes. The
    /// incumbent is *not* moved — call [`accept`](Self::accept) to
    /// deploy the result.
    pub fn step(
        &mut self,
        topo: &Topology,
        demands: &DemandSet,
        max_changes: usize,
    ) -> ReoptResult {
        let iters = self.params.str_iters();
        self.descend(topo, demands, None, max_changes, iters)
    }

    /// Like [`step`](Self::step) but evaluating every candidate under a
    /// link-failure mask (`link_up[l] == false` removes link `l`), so
    /// the search optimizes for the network as it currently stands.
    /// The caller must ensure the surviving topology is still strongly
    /// connected — demand towards unreachable destinations would be
    /// dropped silently otherwise.
    ///
    /// Masked evaluation goes through [`BatchEvaluator`] scenario
    /// sweeps (the engine's `apply_link_down`/`apply_link_up` mask
    /// deltas under [`BackendKind::Incremental`]), which only support
    /// the load-based objective; panics under [`Objective::SlaBased`].
    /// An all-up mask is exactly [`step`](Self::step).
    ///
    /// [`BackendKind::Incremental`]: dtr_engine::BackendKind::Incremental
    pub fn step_masked(
        &mut self,
        topo: &Topology,
        demands: &DemandSet,
        link_up: &[bool],
        max_changes: usize,
    ) -> ReoptResult {
        let iters = self.params.str_iters();
        self.descend(topo, demands, Some(link_up), max_changes, iters)
    }

    /// A budgeted anytime improvement pass over the incumbent: one
    /// warm-started descent limited to `iters` iterations instead of the
    /// full [`SearchParams::str_iters`] schedule. Consumes one position
    /// of the per-step seed stream exactly like
    /// [`step_masked`](Self::step_masked), so a snapshotted session
    /// restored via [`resume_at`](Self::resume_at) replays idle passes
    /// identically. The incumbent is *not* moved — callers price the
    /// result and [`accept`](Self::accept) it like any other step.
    ///
    /// Masked evaluation carries the same [`Objective::LoadBased`]-only
    /// restriction as `step_masked`; an all-up mask uses the plain
    /// evaluator and works under every objective.
    pub fn idle_step(
        &mut self,
        topo: &Topology,
        demands: &DemandSet,
        link_up: &[bool],
        max_changes: usize,
        iters: usize,
    ) -> ReoptResult {
        self.descend(topo, demands, Some(link_up), max_changes, iters)
    }

    /// The body of every step: `iters` descent iterations on this
    /// step's seed, evaluated on the plain evaluator or, when a mask
    /// takes links down, through one-scenario [`BatchEvaluator`] sweeps.
    fn descend(
        &mut self,
        topo: &Topology,
        demands: &DemandSet,
        link_up: Option<&[bool]>,
        max_changes: usize,
        iters: usize,
    ) -> ReoptResult {
        assert_eq!(self.incumbent.high.len(), topo.link_count());
        if let Some(mask) = link_up {
            assert_eq!(mask.len(), topo.link_count());
        }
        let params = self.next_params();
        let Some(link_up) = link_up.filter(|mask| !mask.iter().all(|&u| u)) else {
            return ReoptSearch::new(
                topo,
                demands,
                self.objective,
                params,
                self.scheme,
                self.incumbent.clone(),
                max_changes,
            )
            .run_with_iters(iters);
        };
        assert!(
            matches!(self.objective, Objective::LoadBased),
            "masked reoptimization supports Objective::LoadBased only"
        );
        let scheme = self.scheme;
        // A synthetic one-scenario sweep; pair_id is reporting-only.
        let scenario = FailureScenario {
            pair_id: u32::MAX,
            link_up: link_up.to_vec(),
        };
        let scen = std::slice::from_ref(&scenario);
        let mut batch = BatchEvaluator::new(topo, demands, self.objective, params.backend);
        Constrained {
            params,
            scheme,
            max_changes,
            incumbent: &self.incumbent,
            eval: |w: &DualWeights| {
                let hl = batch.sweep_high(&w.high, scen).pop().expect("one scenario");
                let wl = match scheme {
                    Scheme::Str => &w.high,
                    Scheme::Dtr => &w.low,
                };
                let ll = batch.sweep_low(wl, scen).pop().expect("one scenario");
                let ev = batch.evaluator();
                let high = ev.high_side_from_loads(hl, &w.high);
                ev.finish(high, ll)
                    .expect("high side built by this evaluator carries the SLA walk")
            },
        }
        .run(None, iters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtr::DtrSearch;
    use dtr_engine::BackendKind;
    use dtr_graph::gen::{random_topology, triangle_topology, RandomTopologyCfg};
    use dtr_graph::{NodeId, WeightVector};
    use dtr_routing::survivable_duplex_failures;
    use dtr_traffic::{TrafficCfg, TrafficMatrix};

    fn triangle_instance() -> (Topology, DemandSet) {
        let topo = triangle_topology(1.0);
        let mut high = TrafficMatrix::zeros(3);
        high.set(0, 2, 1.0 / 3.0);
        let mut low = TrafficMatrix::zeros(3);
        low.set(0, 2, 2.0 / 3.0);
        (topo, DemandSet { high, low })
    }

    fn drifted_instance() -> (Topology, DemandSet, DemandSet) {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 10,
            directed_links: 40,
            seed: 8,
        });
        let base = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 8,
                ..Default::default()
            },
        )
        .scaled(4.0);
        // A crude drift: swap emphasis onto a different seed's pattern.
        let drifted = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 9,
                ..Default::default()
            },
        )
        .scaled(4.0);
        (topo, base, drifted)
    }

    #[test]
    fn zero_budget_returns_incumbent() {
        let (topo, demands) = triangle_instance();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let res = ReoptSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::tiny(),
            Scheme::Dtr,
            incumbent.clone(),
            0,
        )
        .run();
        assert_eq!(res.weights, incumbent);
        assert_eq!(res.changes_used, 0);
    }

    #[test]
    fn one_change_recovers_triangle_dtr_detour() {
        // From uniform weights, a single W^L change (raising the direct
        // A→C low-class weight) reaches Φ_L = 11/9 — the reopt search
        // must find an improvement of that size with h = 1.
        let (topo, demands) = triangle_instance();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let res = ReoptSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::quick().with_seed(2),
            Scheme::Dtr,
            incumbent,
            1,
        )
        .run();
        assert!(res.changes_used <= 1);
        assert!((res.eval.phi_h - 1.0 / 3.0).abs() < 1e-9);
        assert!(
            (res.eval.phi_l - 11.0 / 9.0).abs() < 1e-9,
            "phi_l={} (expected the one-change ECMP split)",
            res.eval.phi_l
        );
    }

    #[test]
    fn changes_respect_budget() {
        let (topo, _, drifted) = drifted_instance();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        for h in [1usize, 3, 7] {
            let res = ReoptSearch::new(
                &topo,
                &drifted,
                Objective::LoadBased,
                SearchParams::tiny().with_seed(h as u64),
                Scheme::Dtr,
                incumbent.clone(),
                h,
            )
            .run();
            assert!(res.changes_used <= h, "h={h} used={}", res.changes_used);
            assert_eq!(
                res.changes_used,
                changes_between(&res.weights, &incumbent, Scheme::Dtr)
            );
        }
    }

    #[test]
    fn str_scheme_counts_links_once_and_keeps_replicas() {
        let (topo, _, drifted) = drifted_instance();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let res = ReoptSearch::new(
            &topo,
            &drifted,
            Objective::LoadBased,
            SearchParams::tiny().with_seed(5),
            Scheme::Str,
            incumbent,
            3,
        )
        .run();
        assert_eq!(res.weights.high, res.weights.low);
        assert!(res.changes_used <= 3);
    }

    #[test]
    fn frontier_is_monotone_in_budget() {
        let (topo, _, drifted) = drifted_instance();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let results = frontier(
            &topo,
            &drifted,
            Objective::LoadBased,
            SearchParams::tiny().with_seed(6),
            Scheme::Dtr,
            &incumbent,
            &[1, 4, 16],
        );
        assert_eq!(results.len(), 3);
        for w in results.windows(2) {
            assert!(
                w[1].best_cost <= w[0].best_cost,
                "larger budget must not be worse: {:?} vs {:?}",
                w[1].best_cost,
                w[0].best_cost
            );
        }
    }

    #[test]
    fn warm_start_validation() {
        let (topo, demands) = triangle_instance();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let mut far = incumbent.clone();
        far.high
            .set(topo.find_link(NodeId(0), NodeId(1)).unwrap(), 7);
        far.low
            .set(topo.find_link(NodeId(0), NodeId(2)).unwrap(), 9);
        let search = ReoptSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::tiny(),
            Scheme::Dtr,
            incumbent,
            2,
        );
        // Two changes fit the budget of 2.
        let _ok = search.with_start(far);
    }

    #[test]
    #[should_panic(expected = "warm start exceeds")]
    fn warm_start_over_budget_panics() {
        let (topo, demands) = triangle_instance();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let mut far = incumbent.clone();
        far.high
            .set(topo.find_link(NodeId(0), NodeId(1)).unwrap(), 7);
        far.low
            .set(topo.find_link(NodeId(0), NodeId(2)).unwrap(), 9);
        let _ = ReoptSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::tiny(),
            Scheme::Dtr,
            incumbent,
            1,
        )
        .with_start(far);
    }

    #[test]
    #[should_panic(expected = "replicated")]
    fn str_scheme_rejects_diverged_incumbent() {
        let (topo, demands) = triangle_instance();
        let mut w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        w.low.set(LinkId(0), 9);
        let _ = ReoptSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::tiny(),
            Scheme::Str,
            w,
            1,
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let (topo, _, drifted) = drifted_instance();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let run = || {
            ReoptSearch::new(
                &topo,
                &drifted,
                Objective::LoadBased,
                SearchParams::tiny().with_seed(31),
                Scheme::Dtr,
                incumbent.clone(),
                5,
            )
            .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.changes_used, b.changes_used);
    }

    fn session(incumbent: DualWeights, seed: u64) -> ReoptSession {
        ReoptSession::new(
            incumbent,
            Objective::LoadBased,
            SearchParams::tiny().with_seed(seed),
            Scheme::Dtr,
        )
    }

    #[test]
    fn session_step_never_worse_than_incumbent() {
        // The incumbent's own evaluation seeds the best-so-far, so a
        // step can never report a worse setting than doing nothing.
        let (topo, _, drifted) = drifted_instance();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let inc_cost = Evaluator::new(&topo, &drifted, Objective::LoadBased)
            .eval_dual(&incumbent)
            .cost;
        let mut s = session(incumbent, 11);
        let res = s.step(&topo, &drifted, 4);
        assert!(res.best_cost <= inc_cost);
        // The session does not adopt results on its own.
        assert_eq!(
            s.incumbent().high.as_slice(),
            &vec![1; topo.link_count()][..]
        );
    }

    #[test]
    fn session_warm_equals_or_beats_cold_on_perturbed_instance() {
        // Optimize the base matrix, then perturb the demands: a session
        // warm-started from the base optimum must do at least as well
        // as a cold session starting from uniform weights, under the
        // same per-step budget and seeds.
        let (topo, base, drifted) = drifted_instance();
        let params = SearchParams::tiny().with_seed(3);
        let tuned = DtrSearch::new(&topo, &base, Objective::LoadBased, params).run();

        let mut warm = session(tuned.weights.clone(), 21);
        let mut cold = session(DualWeights::replicated(WeightVector::uniform(&topo, 1)), 21);
        let h = 6;
        let warm_res = warm.step(&topo, &drifted, h);
        let cold_res = cold.step(&topo, &drifted, h);
        assert!(
            warm_res.best_cost <= cold_res.best_cost,
            "warm {:?} must not lose to cold {:?}",
            warm_res.best_cost,
            cold_res.best_cost
        );
    }

    #[test]
    fn session_chained_steps_are_monotone() {
        // accept() then re-step on the same demands: the new start is
        // the previous best, so the chain is monotone non-increasing.
        let (topo, _, drifted) = drifted_instance();
        let mut s = session(DualWeights::replicated(WeightVector::uniform(&topo, 1)), 13);
        let mut prev = s.step(&topo, &drifted, 4);
        for _ in 0..3 {
            s.accept(prev.weights.clone());
            let next = s.step(&topo, &drifted, 4);
            assert!(next.best_cost <= prev.best_cost);
            prev = next;
        }
    }

    #[test]
    fn session_stream_is_deterministic_and_resumable() {
        let (topo, _, drifted) = drifted_instance();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let mut a = session(incumbent.clone(), 17);
        let a1 = a.step(&topo, &drifted, 4);
        a.accept(a1.weights.clone());
        let a2 = a.step(&topo, &drifted, 4);

        // A restored session (incumbent + stream position) continues
        // bit-identically.
        let mut b = session(a1.weights.clone(), 17);
        b.resume_at(1);
        let b2 = b.step(&topo, &drifted, 4);
        assert_eq!(a2.weights, b2.weights);
        assert_eq!(a2.best_cost, b2.best_cost);

        // Consecutive steps use decorrelated seeds, not the same one:
        // a fresh session at position 0 with the same incumbent should
        // generally explore differently than position 1 did.
        let mut c = session(a1.weights, 17);
        let c1 = c.step(&topo, &drifted, 4);
        assert!(c1.best_cost <= a2.best_cost || c1.weights != a2.weights);
    }

    #[test]
    fn session_masked_backends_agree() {
        let (topo, _, drifted) = drifted_instance();
        let mask = survivable_duplex_failures(&topo)[0].link_up.clone();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let run = |kind: BackendKind| {
            let mut s = ReoptSession::new(
                incumbent.clone(),
                Objective::LoadBased,
                SearchParams::tiny().with_seed(19).with_backend(kind),
                Scheme::Dtr,
            );
            s.step_masked(&topo, &drifted, &mask, 4)
        };
        let full = run(BackendKind::Full);
        let inc = run(BackendKind::Incremental);
        assert_eq!(full.weights, inc.weights);
        assert_eq!(full.best_cost, inc.best_cost);
        assert_eq!(full.eval.high_loads, inc.eval.high_loads);
        assert_eq!(full.eval.low_loads, inc.eval.low_loads);
    }

    #[test]
    fn session_masked_leaves_failed_links_unloaded() {
        let (topo, _, drifted) = drifted_instance();
        let mask = survivable_duplex_failures(&topo)[0].link_up.clone();
        let mut s = session(DualWeights::replicated(WeightVector::uniform(&topo, 1)), 23);
        let res = s.step_masked(&topo, &drifted, &mask, 4);
        for (l, &up) in mask.iter().enumerate() {
            if !up {
                assert_eq!(res.eval.high_loads[l], 0.0);
                assert_eq!(res.eval.low_loads[l], 0.0);
            }
        }
    }

    #[test]
    fn session_masked_all_up_matches_step() {
        let (topo, _, drifted) = drifted_instance();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let mask = vec![true; topo.link_count()];
        let mut a = session(incumbent.clone(), 29);
        let mut b = session(incumbent, 29);
        let ra = a.step_masked(&topo, &drifted, &mask, 4);
        let rb = b.step(&topo, &drifted, 4);
        assert_eq!(ra.weights, rb.weights);
        assert_eq!(ra.best_cost, rb.best_cost);
    }

    #[test]
    fn session_with_spec_matches_legacy_and_accepts_sla() {
        let (topo, base, drifted) = drifted_instance();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let _ = base;
        let mut legacy = ReoptSession::new(
            incumbent.clone(),
            Objective::LoadBased,
            SearchParams::tiny().with_seed(31),
            Scheme::Dtr,
        );
        let mut spec = ReoptSession::with_spec(
            incumbent.clone(),
            &dtr_cost::ObjectiveSpec::two_class_load(),
            SearchParams::tiny().with_seed(31),
            Scheme::Dtr,
        )
        .expect("two-class load spec is always supported");
        let ra = legacy.step(&topo, &drifted, 4);
        let rb = spec.step(&topo, &drifted, 4);
        assert_eq!(ra.weights, rb.weights);
        assert_eq!(ra.best_cost, rb.best_cost);

        // A two-class SLA spec routes to the legacy SLA objective.
        let sla = ReoptSession::with_spec(
            incumbent.clone(),
            &dtr_cost::ObjectiveSpec::uniform_sla(2, dtr_cost::SlaParams::default()),
            SearchParams::tiny().with_seed(31),
            Scheme::Dtr,
        );
        assert!(sla.is_ok());

        // k = 3 is not a session-sized problem: structured rejection.
        let err = ReoptSession::with_spec(
            incumbent,
            &dtr_cost::ObjectiveSpec::load(3),
            SearchParams::tiny(),
            Scheme::Dtr,
        )
        .err()
        .expect("k = 3 must be rejected");
        assert!(matches!(err, dtr_cost::ObjectiveError::Unsupported { .. }));
    }
}
