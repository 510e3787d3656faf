//! The Fortz–Thorup single-weight-change descent \[2\], written once.
//!
//! Every single-weight-change local search in the workspace runs this
//! loop: the STR baseline ([`crate::StrSearch`]), the failure-aware
//! search ([`crate::RobustSearch`]), change-limited reoptimization
//! ([`crate::ReoptSearch`], [`crate::ReoptSession`]) and the k-class
//! single-topology baseline of `dtr-experiments`. One iteration
//!
//! 1. draws `m` candidates and evaluates them as one batch,
//! 2. keeps the first strictly best candidate,
//! 3. moves to it if it beats the current solution,
//! 4. and, after `M` iterations without a new incumbent, restarts from
//!    a diversified solution.
//!
//! A caller supplies only what differs through [`Descent`]: the move,
//! the batch evaluation, a per-evaluation hook, the evaluator rebase on
//! accept and the restart. The evaluator never touches the RNG, so
//! drawing all `m` candidates before evaluating them consumes the same
//! stream as evaluating each as soon as it is drawn.

use crate::params::SearchParams;
use crate::telemetry::{Phase, SearchTrace};
use dtr_cost::{Lex2, LexCost};
use dtr_engine::SharedBound;
use rand::rngs::StdRng;

/// A cost the descent minimises.
pub trait DescentCost: PartialOrd + Clone {
    /// The `⟨primary, secondary⟩` pair recorded in the trace; its
    /// primary component is what a shared bound sees.
    fn headline(&self) -> Lex2;
}

impl DescentCost for Lex2 {
    fn headline(&self) -> Lex2 {
        *self
    }
}

impl DescentCost for LexCost {
    /// The two highest-priority classes.
    fn headline(&self) -> Lex2 {
        Lex2::new(self.get(0), self.get(1))
    }
}

/// The parts of one descent that differ between its callers.
pub trait Descent {
    /// A weight setting.
    type Weights: Clone;
    /// The evaluation of a setting.
    type Eval: Clone;
    /// The cost minimised.
    type Cost: DescentCost;

    /// The cost of an evaluation.
    fn cost(e: &Self::Eval) -> &Self::Cost;

    /// Proposes one neighbour of `cur`, or `None` when this draw yields
    /// no legal move.
    fn propose(&mut self, cur: &Self::Weights, rng: &mut StdRng) -> Option<Self::Weights>;

    /// Evaluates one setting.
    fn eval(&mut self, w: &Self::Weights) -> Self::Eval;

    /// Evaluates one iteration's candidates, in order.
    fn eval_batch(&mut self, cands: &[Self::Weights]) -> Vec<Self::Eval> {
        cands.iter().map(|w| self.eval(w)).collect()
    }

    /// Sees every evaluated setting: the start, each candidate and each
    /// restart.
    fn observe(&mut self, _w: &Self::Weights, _e: &Self::Eval) {}

    /// Moves the evaluator's base onto an accepted or restarted setting.
    fn rebase(&mut self, _w: &Self::Weights) {}

    /// Diversifies `cur` after a stall.
    fn restart(&mut self, cur: &mut Self::Weights, rng: &mut StdRng);
}

/// The incumbent of one descent.
#[derive(Debug, Clone)]
pub struct Descended<W, E> {
    /// Best setting found (the start if nothing beat it).
    pub weights: W,
    /// Its evaluation.
    pub eval: E,
    /// Telemetry; every improvement is recorded under [`Phase::Str`].
    pub trace: SearchTrace,
}

/// Runs `iters` descent iterations of `params.neighbors` candidates
/// each from `start`, restarting after `params.diversify_after` stalled
/// iterations. A shared `bound` sees every new incumbent and counts the
/// restarts at which another search led; it never changes the result.
pub fn descend<D: Descent>(
    d: &mut D,
    start: D::Weights,
    params: &SearchParams,
    iters: usize,
    rng: &mut StdRng,
    bound: Option<&SharedBound>,
) -> Descended<D::Weights, D::Eval> {
    let publish = |c: &D::Cost| {
        if let Some(b) = bound {
            b.observe(c.headline().primary);
        }
    };
    let mut trace = SearchTrace::default();

    let mut cur_w = start;
    let mut cur = d.eval(&cur_w);
    trace.evaluations += 1;
    d.observe(&cur_w, &cur);
    let mut best_w = cur_w.clone();
    let mut best = cur.clone();
    trace.improved(0, Phase::Str, D::cost(&best).headline());
    publish(D::cost(&best));

    let mut stall = 0usize;
    for _ in 0..iters {
        trace.iterations += 1;

        let cands: Vec<D::Weights> = (0..params.neighbors)
            .filter_map(|_| d.propose(&cur_w, rng))
            .collect();
        let evals = d.eval_batch(&cands);
        let mut best_cand: Option<(D::Eval, D::Weights)> = None;
        for (w, e) in cands.into_iter().zip(evals) {
            trace.evaluations += 1;
            d.observe(&w, &e);
            if best_cand
                .as_ref()
                .is_none_or(|(b, _)| D::cost(&e) < D::cost(b))
            {
                best_cand = Some((e, w));
            }
        }

        match best_cand {
            Some((e, w)) if D::cost(&e) < D::cost(&cur) => {
                cur = e;
                cur_w = w;
                d.rebase(&cur_w);
                trace.moves_accepted += 1;
                if D::cost(&cur) < D::cost(&best) {
                    best = cur.clone();
                    best_w = cur_w.clone();
                    trace.improved(trace.iterations, Phase::Str, D::cost(&best).headline());
                    publish(D::cost(&best));
                    stall = 0;
                } else {
                    stall += 1;
                }
            }
            _ => stall += 1,
        }

        if stall >= params.diversify_after {
            if let Some(b) = bound {
                if b.dominates(D::cost(&best).headline().primary) {
                    trace.dominated_checkpoints += 1;
                }
            }
            d.restart(&mut cur_w, rng);
            d.rebase(&cur_w);
            cur = d.eval(&cur_w);
            trace.evaluations += 1;
            d.observe(&cur_w, &cur);
            trace.diversifications += 1;
            stall = 0;
        }
    }

    Descended {
        weights: best_w,
        eval: best,
        trace,
    }
}
