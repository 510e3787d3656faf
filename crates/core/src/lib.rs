//! # dtr-core — the paper's contribution: weight-search heuristics
//!
//! This crate implements §4 of *"Improving Service Differentiation in IP
//! Networks through Dual Topology Routing"* (Kwong et al., CoNEXT 2007):
//!
//! - [`DtrSearch`] — **Algorithm 1**, the three-routine iterated local
//!   search over dual weight vectors `W = {W^H, W^L}`:
//!   1. optimize `W^H` with `FindH` while `W^L` stays at its initial
//!      value;
//!   2. freeze `W^H` at the best found and optimize `W^L` with `FindL`;
//!   3. refine both in a small neighborhood of the incumbent.
//!
//!   Each routine *diversifies* (randomly perturbs a small fraction of
//!   weights) after `M` non-improving iterations.
//! - [`neighborhood`] — **Algorithm 2** (`FindH`/`FindL` neighborhoods):
//!   rank links by lexicographic link cost, draw window offsets `k₁, k₂`
//!   from the heavy-tailed distribution `P(k) ∝ k^{−τ}`, pick `m`
//!   high-cost links (set `A`) and `m` low-cost links (set `B`), and
//!   construct `m` neighbors by shifting weight off an `A` link onto a
//!   `B` link (without replacement).
//! - [`StrSearch`] — the single-topology baseline: the Fortz–Thorup
//!   "single weight change" local search \[2\] adapted to the paper's
//!   lexicographic objectives, including the **relaxed** variant of
//!   §3.3.2/§5.3.1 that trades ε of high-priority cost for low-priority
//!   improvements (Table 1).
//! - [`descent`] — that single-weight-change loop, written once for
//!   [`StrSearch`], [`RobustSearch`], [`ReoptSearch`]/[`ReoptSession`]
//!   and `dtr-experiments`' k-class baseline. Its move draw
//!   ([`neighborhood::draw_changed_weight`], [`Scheme::propose`]) is
//!   shared with the annealer and the memetic hill-climb.
//! - [`joint`] — the joint cost function `J = α·Φ_H + Φ_L` of §3.3.1,
//!   with the exhaustive search used to reproduce the 3-node example
//!   showing why picking `α` is hard.
//!
//! Beyond the paper's two schemes, the crate carries the neighboring
//! search problems an operator meets in practice:
//!
//! - [`MemeticSearch`] / [`AnnealSearch`] — the other classic heuristic
//!   families at identical evaluation budgets, for search-strategy
//!   ablations: the genetic algorithm \[3\] ([`MemeticSearch::ga`]) and
//!   its memetic refinement \[4\] as one generational loop, and
//!   simulated annealing;
//! - [`RobustSearch`] — failure-aware optimization over all survivable
//!   single duplex-pair cuts (\[5\]);
//! - [`ReoptSearch`] — change-limited reoptimization after traffic drift
//!   (the "changing world" problem, \[19\]);
//! - [`SlicedSearch`] — traffic-matrix slicing (\[6\]).
//! - [`PortfolioSearch`] — the parallel multi-start orchestrator: N
//!   workers over rayon, each running one strategy arm
//!   (descent/anneal/GA/memetic) with a derived seed and its own engine
//!   state, sharing a [`SharedBound`] incumbent bound, reduced
//!   deterministically so `--workers N` never changes the result.
//!
//! The evaluation budget is controlled by [`SearchParams`]; the paper's
//! full budget (`N = 300 000`, `K = 800 000`) is available as
//! [`SearchParams::paper`], with scaled-down presets for interactive use
//! — the result *shape* (RH ≈ 1, RL ≫ 1) is stable long before full
//! convergence (see DESIGN.md §3).

pub mod anneal;
pub mod descent;
pub mod dtr;
pub mod joint;
pub mod memetic;
pub mod neighborhood;
pub mod params;
pub mod portfolio;
pub mod reopt;
pub mod robust;
pub mod scheme;
pub mod slicing;
pub mod str_search;
pub mod streams;
pub mod telemetry;
pub mod upgrade;

pub use anneal::{AnnealMode, AnnealParams, AnnealResult, AnnealSearch};
pub use dtr::{DtrResult, DtrSearch};
pub use joint::{joint_cost, JointCostExplorer, TriangleVerdict};
pub use memetic::{GaParams, MemeticParams, MemeticResult, MemeticSearch};
pub use neighborhood::{NeighborhoodSampler, RankTable};
pub use params::{derive_stream_seed, SearchParams};
pub use portfolio::{
    parse_portfolio, PortfolioMode, PortfolioParams, PortfolioResult, PortfolioSearch,
    StrategyKind, TaskOutcome,
};
pub use reopt::{ReoptResult, ReoptSearch, ReoptSession};
pub use robust::{
    RobustCost, RobustEvaluator, RobustMode, RobustResult, RobustSearch, ScenarioCombine,
};
pub use scheme::Scheme;
pub use slicing::{SlicedResult, SlicedSearch};
pub use str_search::{RelaxedBest, StrResult, StrSearch};
pub use telemetry::SearchTrace;
pub use upgrade::{cost_ratio, UpgradeOutcome, UpgradeParams, UpgradeSearch, UpgradeStep};

// Re-export the types a downstream user needs to drive a search without
// depending on every substrate crate explicitly.
pub use dtr_cost::{Lex2, LexCost, Objective, ObjectiveError, ObjectiveSpec, SlaParams};
pub use dtr_engine::{BackendKind, BatchEvaluator, EvalBackend, SharedBound};
pub use dtr_graph::weights::DualWeights;
pub use dtr_graph::{Topology, WeightVector};
pub use dtr_routing::{DeploymentSet, Evaluation, Evaluator};
pub use dtr_traffic::{DemandSet, TrafficCfg};
