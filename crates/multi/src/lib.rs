//! # dtr-multi — k-class strict-priority multi-topology routing
//!
//! The paper restricts itself to **two** topologies ("In our
//! investigation, we limit ourselves to two topologies", §1) while the
//! underlying MTR standard supports many. This crate generalizes
//! Algorithm 1 to `k ≥ 2` strictly ordered service classes:
//!
//! - **Queueing model**: class `i` is served only when classes `0..i`
//!   are idle, so it sees the cascading residual capacity
//!   `C̃_i = max(C − Σ_{j<i} load_j, 0)` — the k-level extension of §3's
//!   residual rule.
//! - **Objective**: the lexicographic k-tuple `⟨c_0, …, c_{k−1}⟩`
//!   ([`dtr_cost::LexCost`]) of a [`dtr_cost::ObjectiveSpec`], each
//!   component class `i`'s Fortz–Thorup `Φ` or SLA penalty `Λ` against
//!   its residual capacity.
//! - **Search** ([`MultiSearch`]): the natural extension of Algorithm 1 —
//!   optimize class 0's weights first, then class 1's with class 0
//!   frozen, …, then a joint refinement pass rotating `FindL`-style moves
//!   across all classes. Priority isolation makes each stage's
//!   subproblem independent of every lower class, exactly as in the
//!   2-class case.
//!
//! Evaluation is the engine's one k-class evaluator,
//! [`dtr_engine::KClassBatchEvaluator`], and the demand set is
//! [`dtr_traffic::MultiDemand`]. The evaluator is re-exported under its
//! old name, `MultiEvaluator`, because the separately built
//! `perfbench/` package still calls it by that name.

pub mod search;

pub use dtr_engine::KClassBatchEvaluator as MultiEvaluator;
pub use search::{MultiResult, MultiSearch};
