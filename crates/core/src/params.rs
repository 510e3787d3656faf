//! Search-budget and tuning parameters (paper §5.1.3).

use dtr_engine::BackendKind;
use dtr_graph::{Weight, MAX_WEIGHT, MIN_WEIGHT};
use serde::{Deserialize, Serialize};

/// All knobs of Algorithm 1 / Algorithm 2 and of the STR baseline search.
///
/// Defaults mirror §5.1.3: weights in `1..=30`, `m = 5` neighbors,
/// `g1 = g2 = 5 %`, `g3 = 3 %`, diversification interval `M = 300`,
/// heavy-tail exponent `τ = 1.5`. The iteration budgets `N` and `K` are
/// the paper's only expensive settings; [`SearchParams::paper`] uses the
/// published values, the other presets scale them down (the experiments
/// record which preset produced each figure).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchParams {
    /// Iterations of routines 1 and 2 (`N`, paper: 300 000).
    pub n_iters: usize,
    /// Iterations of the refinement routine 3 (`K`, paper: 800 000).
    pub k_iters: usize,
    /// Diversify after this many non-improving iterations (`M` = 300).
    pub diversify_after: usize,
    /// Neighbors evaluated per iteration (`m` = 5).
    pub neighbors: usize,
    /// Fraction of `W^H` weights perturbed when routine 1 diversifies
    /// (`g1` = 5 %).
    pub g1: f64,
    /// Fraction of `W^L` weights perturbed when routine 2 diversifies
    /// (`g2` = 5 %).
    pub g2: f64,
    /// Fraction of **both** vectors perturbed when routine 3 diversifies
    /// (`g3` = 3 %; smaller because routine 3 restarts from the incumbent).
    pub g3: f64,
    /// Heavy-tail exponent of the rank distribution `P(k) ∝ k^{−τ}`
    /// (τ = 1.5).
    pub tau: f64,
    /// Smallest assignable weight (1).
    pub min_weight: Weight,
    /// Largest assignable weight (30, §5.1.3).
    pub max_weight: Weight,
    /// Largest single-move weight increment/decrement in Algorithm 2's
    /// neighbors; each move draws a step uniformly from `1..=max_step`.
    pub max_step: u32,
    /// RNG seed for the search (generation seeds live in `TrafficCfg`).
    pub seed: u64,
    /// Candidate-evaluation backend for the search hot loops
    /// (`DtrSearch`, `StrSearch` and `dtr-multi`'s k-class
    /// `MultiSearch`). Both backends produce bit-identical evaluations
    /// (enforced by `dtr-engine`'s and `dtr-multi`'s equivalence
    /// proptests), so this only changes wall-clock time; `Incremental`
    /// repairs only the destinations a move's one-or-two weight deltas
    /// affect and is the default.
    pub backend: BackendKind,
}

impl SearchParams {
    /// The paper's published budget (§5.1.3). Expensive: intended for
    /// full-fidelity reproduction runs, not interactive use.
    pub fn paper() -> Self {
        SearchParams {
            n_iters: 300_000,
            k_iters: 800_000,
            ..Self::base()
        }
    }

    /// Budget used by the bundled experiment binaries: large enough for
    /// the paper's qualitative shape, small enough to sweep many
    /// configurations on one machine.
    pub fn experiment() -> Self {
        SearchParams {
            n_iters: 1_200,
            k_iters: 2_000,
            ..Self::base()
        }
    }

    /// Small budget for integration tests and examples.
    pub fn quick() -> Self {
        SearchParams {
            n_iters: 250,
            k_iters: 400,
            diversify_after: 60,
            ..Self::base()
        }
    }

    /// Minimal budget for unit tests and doctests.
    pub fn tiny() -> Self {
        SearchParams {
            n_iters: 40,
            k_iters: 60,
            diversify_after: 15,
            ..Self::base()
        }
    }

    fn base() -> Self {
        SearchParams {
            n_iters: 0,
            k_iters: 0,
            diversify_after: 300,
            neighbors: 5,
            g1: 0.05,
            g2: 0.05,
            g3: 0.03,
            tau: 1.5,
            min_weight: MIN_WEIGHT,
            max_weight: MAX_WEIGHT,
            max_step: 3,
            seed: 1,
            backend: BackendKind::Incremental,
        }
    }

    /// Looks up a budget preset by its manifest/CLI name
    /// (`tiny|quick|experiment|paper`); `None` for unknown names. The
    /// single source of truth for every textual budget knob — `dtrctl
    /// --budget` and the scenario-corpus `search.budget` field both
    /// resolve through here.
    pub fn preset(name: &str) -> Option<Self> {
        match name {
            "tiny" => Some(Self::tiny()),
            "quick" => Some(Self::quick()),
            "experiment" => Some(Self::experiment()),
            "paper" => Some(Self::paper()),
            _ => None,
        }
    }

    /// Copy with a different seed.
    pub fn with_seed(self, seed: u64) -> Self {
        SearchParams { seed, ..self }
    }

    /// Copy with the seed replaced by the derived seed of worker/task
    /// `stream` (see [`derive_stream_seed`]) — how the portfolio
    /// orchestrator decorrelates its arms from one base seed.
    pub fn with_stream(self, stream: u64) -> Self {
        self.with_seed(derive_stream_seed(self.seed, stream))
    }

    /// Copy with a different evaluation backend.
    pub fn with_backend(self, backend: BackendKind) -> Self {
        SearchParams { backend, ..self }
    }

    /// Total evaluation budget of the DTR search (for fair STR
    /// comparison): routines 1 and 2 evaluate `m` neighbors per
    /// iteration, routine 3 evaluates `2m` (one `FindH` plus one `FindL`
    /// pass).
    pub fn dtr_eval_budget(&self) -> usize {
        self.neighbors * (2 * self.n_iters + 2 * self.k_iters)
    }

    /// STR iteration count that matches [`Self::dtr_eval_budget`] with the
    /// same `m` neighbors per iteration.
    pub fn str_iters(&self) -> usize {
        2 * self.n_iters + 2 * self.k_iters
    }

    /// Panics if a parameter combination is invalid.
    pub fn validate(&self) {
        assert!(self.neighbors >= 1, "need at least one neighbor");
        assert!(self.min_weight >= 1, "weights must be ≥ 1");
        assert!(self.max_weight > self.min_weight, "degenerate weight range");
        assert!(self.max_step >= 1, "need a positive step");
        assert!(self.tau >= 0.0, "negative heavy-tail exponent");
        for g in [self.g1, self.g2, self.g3] {
            assert!(
                (0.0..=1.0).contains(&g),
                "perturbation fraction {g} outside [0,1]"
            );
        }
        assert!(
            self.diversify_after >= 1,
            "diversification interval must be ≥ 1"
        );
    }
}

impl Default for SearchParams {
    fn default() -> Self {
        Self::experiment()
    }
}

/// Derives a decorrelated RNG seed for portfolio worker/task `stream`
/// from a base seed: the SplitMix64 finalizer over `base` advanced by
/// `stream + 1` golden-ratio increments. Nearby `(base, stream)` pairs
/// map to statistically independent streams, the map is injective in
/// `stream` for a fixed base, and — crucially for reproducibility — it
/// depends only on the pair, never on thread scheduling.
pub fn derive_stream_seed(base: u64, stream: u64) -> u64 {
    let mut z = base.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_budget_matches_section_5_1_3() {
        let p = SearchParams::paper();
        assert_eq!(p.n_iters, 300_000);
        assert_eq!(p.k_iters, 800_000);
        assert_eq!(p.neighbors, 5);
        assert_eq!(p.diversify_after, 300);
        assert_eq!(p.g1, 0.05);
        assert_eq!(p.g2, 0.05);
        assert_eq!(p.g3, 0.03);
        assert_eq!(p.tau, 1.5);
        assert_eq!(p.min_weight, 1);
        assert_eq!(p.max_weight, 30);
        p.validate();
    }

    #[test]
    fn eval_budgets_match_between_schemes() {
        let p = SearchParams::quick();
        assert_eq!(p.dtr_eval_budget(), p.str_iters() * p.neighbors);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn validate_rejects_bad_range() {
        let mut p = SearchParams::tiny();
        p.max_weight = p.min_weight;
        p.validate();
    }

    #[test]
    fn stream_seeds_are_distinct_and_deterministic() {
        let base = 7u64;
        let seeds: Vec<u64> = (0..64).map(|s| derive_stream_seed(base, s)).collect();
        for (i, a) in seeds.iter().enumerate() {
            assert_eq!(*a, derive_stream_seed(base, i as u64));
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Stream 0 is not the identity: arms never reuse the base stream.
        assert_ne!(derive_stream_seed(base, 0), base);
        assert_eq!(
            SearchParams::tiny().with_seed(base).with_stream(3).seed,
            derive_stream_seed(base, 3)
        );
    }

    #[test]
    fn preset_lookup_matches_constructors() {
        assert_eq!(SearchParams::preset("tiny"), Some(SearchParams::tiny()));
        assert_eq!(SearchParams::preset("quick"), Some(SearchParams::quick()));
        assert_eq!(
            SearchParams::preset("experiment"),
            Some(SearchParams::experiment())
        );
        assert_eq!(SearchParams::preset("paper"), Some(SearchParams::paper()));
        assert_eq!(SearchParams::preset("huge"), None);
    }

    #[test]
    fn presets_are_ordered_by_budget() {
        assert!(SearchParams::tiny().dtr_eval_budget() < SearchParams::quick().dtr_eval_budget());
        assert!(
            SearchParams::quick().dtr_eval_budget() < SearchParams::experiment().dtr_eval_budget()
        );
        assert!(
            SearchParams::experiment().dtr_eval_budget() < SearchParams::paper().dtr_eval_budget()
        );
    }
}
