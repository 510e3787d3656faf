//! Algorithm 2: neighborhood construction for `FindH` / `FindL`.
//!
//! Given the current solution's per-link costs, links are sorted in
//! decreasing cost order `L_Π(1) ≥ L_Π(2) ≥ … ≥ L_Π(n)`. Two window
//! offsets `k₁, k₂` are drawn from the heavy-tailed rank distribution
//! `P(k) ∝ k^{−τ}` over `1 ≤ k ≤ n − m + 1`; set `A` takes the `m` links
//! ranked `Π(k₁) … Π(k₁+m−1)` (expensive links whose weight should rise)
//! and set `B` the `m` links ranked `Π(n+1−k₂) … Π(n−k₂−m+2)` (cheap links
//! whose weight should fall). A neighbor pairs one unused link from `A`
//! with one from `B` — `m` disjoint pairs form the neighborhood.
//!
//! The heavy tail (τ = 1.5) keeps a preference for extreme-cost links
//! while still letting every link be chosen, which the paper credits with
//! avoiding exploration collapse onto a handful of links (§4, citing
//! Boettcher & Percus's extremal optimization \[20\]).

use crate::params::SearchParams;
use dtr_graph::{LinkId, WeightVector};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::cmp::Ordering;

/// A sorted view of links by decreasing cost, with tie-breaking by link
/// id so the permutation is deterministic for a given cost vector.
#[derive(Debug, Clone)]
pub struct RankTable {
    /// Link indices sorted by decreasing cost.
    pub by_cost_desc: Vec<u32>,
}

impl RankTable {
    /// Builds a rank table from any comparable per-link cost.
    pub fn new<C: PartialOrd>(costs: &[C]) -> Self {
        let mut idx: Vec<u32> = (0..costs.len() as u32).collect();
        idx.sort_by(|&a, &b| {
            costs[b as usize]
                .partial_cmp(&costs[a as usize])
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.cmp(&b))
        });
        RankTable { by_cost_desc: idx }
    }

    /// Number of ranked links.
    pub fn len(&self) -> usize {
        self.by_cost_desc.len()
    }

    /// True when no links are ranked.
    pub fn is_empty(&self) -> bool {
        self.by_cost_desc.is_empty()
    }

    /// The link at 0-based rank `r` (0 = most expensive).
    pub fn at(&self, r: usize) -> LinkId {
        LinkId(self.by_cost_desc[r])
    }
}

/// One move of Algorithm 2: raise the weight of `raise`, lower the weight
/// of `lower`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightMove {
    /// Link whose weight increases (drawn from the expensive set `A`).
    pub raise: LinkId,
    /// Link whose weight decreases (drawn from the cheap set `B`).
    pub lower: LinkId,
    /// Step magnitude applied to both, clamped into the weight range.
    pub step: u32,
}

impl WeightMove {
    /// Applies the move to `w` in place, clamping into
    /// `[params.min_weight, params.max_weight]`.
    pub fn apply(&self, w: &mut WeightVector, params: &SearchParams) {
        w.nudge(
            self.raise,
            self.step as i64,
            params.min_weight,
            params.max_weight,
        );
        w.nudge(
            self.lower,
            -(self.step as i64),
            params.min_weight,
            params.max_weight,
        );
    }
}

/// Draws window offsets and builds neighborhoods; owns the precomputed
/// CDF of `P(k) ∝ k^{−τ}`.
#[derive(Debug, Clone)]
pub struct NeighborhoodSampler {
    /// Cumulative distribution of `P(k)`, `cdf[i] = P(k ≤ i+1)`.
    cdf: Vec<f64>,
    link_count: usize,
    m: usize,
}

impl NeighborhoodSampler {
    /// Prepares a sampler for `link_count` links, `params.neighbors`-sized
    /// sets and exponent `params.tau`.
    pub fn new(link_count: usize, params: &SearchParams) -> Self {
        let m = params.neighbors.min(link_count / 2).max(1);
        let kmax = link_count - m + 1;
        let mut cdf = Vec::with_capacity(kmax);
        let mut acc = 0.0;
        for k in 1..=kmax {
            acc += (k as f64).powf(-params.tau);
            cdf.push(acc);
        }
        for v in cdf.iter_mut() {
            *v /= acc;
        }
        NeighborhoodSampler { cdf, link_count, m }
    }

    /// Effective set size `m` (may be smaller than requested on tiny
    /// topologies).
    pub fn set_size(&self) -> usize {
        self.m
    }

    /// Draws `k` from `P(k) ∝ k^{−τ}` over `1..=n−m+1`.
    pub fn draw_k(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random_range(0.0..1.0);
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) => i + 1,
            Err(i) => i + 1,
        }
        .min(self.cdf.len())
    }

    /// Builds the `m` moves of one Algorithm 2 neighborhood from the rank
    /// table. Set `A` starts at rank `k₁−1`; set `B` *ends* at rank
    /// `n−k₂` counting from the cheap end. Links appearing in both
    /// windows (possible when the windows overlap on small topologies) are
    /// paired with distinct partners, and a move never raises and lowers
    /// the same link.
    pub fn moves(
        &self,
        ranks: &RankTable,
        params: &SearchParams,
        rng: &mut StdRng,
    ) -> Vec<WeightMove> {
        debug_assert_eq!(ranks.len(), self.link_count);
        let n = self.link_count;
        let m = self.m;
        let k1 = self.draw_k(rng);
        let k2 = self.draw_k(rng);

        // 0-indexed windows (see module docs for the 1-indexed original).
        let mut set_a: Vec<LinkId> = (0..m).map(|i| ranks.at(k1 - 1 + i)).collect();
        let mut set_b: Vec<LinkId> = (0..m).map(|i| ranks.at(n - k2 - i)).collect();
        set_a.shuffle(rng);
        set_b.shuffle(rng);

        let mut moves = Vec::with_capacity(m);
        for (a, b) in set_a.into_iter().zip(set_b) {
            if a == b {
                // Overlapping windows degenerate to a no-op pair; skip.
                continue;
            }
            moves.push(WeightMove {
                raise: a,
                lower: b,
                step: rng.random_range(1..=params.max_step),
            });
        }
        moves
    }
}

/// The forced-change weight draw of every single-weight-change move: a
/// uniform value in `[min_weight, max_weight]`, moved to the next value
/// (wrapping to `min_weight`) when it equals `old`, so the move always
/// changes the weight.
pub fn draw_changed_weight(old: u32, params: &SearchParams, rng: &mut StdRng) -> u32 {
    let v = rng.random_range(params.min_weight..=params.max_weight);
    if v != old {
        v
    } else if v == params.max_weight {
        params.min_weight
    } else {
        v + 1
    }
}

/// A single-weight-change neighbour of `w`: a uniform link re-assigned
/// a forced-change value ([`draw_changed_weight`]).
pub fn single_change(w: &WeightVector, params: &SearchParams, rng: &mut StdRng) -> WeightVector {
    let lid = LinkId(rng.random_range(0..w.len() as u32));
    let mut next = w.clone();
    next.set(lid, draw_changed_weight(w.get(lid), params, rng));
    next
}

/// Diversification (Algorithm 1 lines 9/21/35): assigns fresh uniform
/// weights to a `fraction` of randomly chosen links.
pub fn perturb_weights(
    w: &mut WeightVector,
    fraction: f64,
    params: &SearchParams,
    rng: &mut StdRng,
) {
    let n = w.len();
    let count = ((n as f64 * fraction).round() as usize).clamp(1, n);
    let mut idx: Vec<u32> = (0..n as u32).collect();
    idx.shuffle(rng);
    for &i in idx.iter().take(count) {
        w.set(
            LinkId(i),
            rng.random_range(params.min_weight..=params.max_weight),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn rank_table_sorts_descending_with_stable_ties() {
        let costs = [1.0, 5.0, 3.0, 5.0];
        let t = RankTable::new(&costs);
        assert_eq!(t.by_cost_desc, vec![1, 3, 2, 0]);
        assert_eq!(t.at(0), LinkId(1));
    }

    #[test]
    fn heavy_tail_prefers_small_k() {
        let params = SearchParams::tiny();
        let s = NeighborhoodSampler::new(150, &params);
        let mut r = rng(7);
        let draws: Vec<usize> = (0..20_000).map(|_| s.draw_k(&mut r)).collect();
        let ones = draws.iter().filter(|&&k| k == 1).count() as f64 / draws.len() as f64;
        let mid = draws.iter().filter(|&&k| k == 50).count() as f64 / draws.len() as f64;
        // P(1)/P(50) = 50^1.5 ≈ 354 — require a big observed gap.
        assert!(ones > 0.2, "P(k=1) observed {ones}");
        assert!(
            ones > 20.0 * mid.max(1e-4),
            "tail not heavy: {ones} vs {mid}"
        );
        // Every k in range must be reachable.
        assert!(draws.iter().all(|&k| (1..=146).contains(&k)));
    }

    #[test]
    fn tau_zero_is_uniform() {
        let mut params = SearchParams::tiny();
        params.tau = 0.0;
        let s = NeighborhoodSampler::new(100, &params);
        let mut r = rng(9);
        let draws: Vec<usize> = (0..50_000).map(|_| s.draw_k(&mut r)).collect();
        let ones = draws.iter().filter(|&&k| k == 1).count() as f64;
        let mid = draws.iter().filter(|&&k| k == 48).count() as f64;
        // Uniform: both ≈ 520; allow generous slack.
        assert!(
            (ones - mid).abs() < 0.5 * ones.max(mid),
            "not uniform: {ones} vs {mid}"
        );
    }

    #[test]
    fn moves_are_disjoint_pairs_from_correct_windows() {
        let params = SearchParams::tiny();
        let costs: Vec<f64> = (0..40).map(|i| (40 - i) as f64).collect(); // link 0 most expensive
        let ranks = RankTable::new(&costs);
        let s = NeighborhoodSampler::new(40, &params);
        let mut r = rng(3);
        for _ in 0..200 {
            let moves = s.moves(&ranks, &params, &mut r);
            assert!(moves.len() <= params.neighbors);
            let mut seen_raise = std::collections::HashSet::new();
            let mut seen_lower = std::collections::HashSet::new();
            for mv in &moves {
                assert_ne!(mv.raise, mv.lower);
                assert!(seen_raise.insert(mv.raise), "raise reused");
                assert!(seen_lower.insert(mv.lower), "lower reused");
                assert!((1..=params.max_step).contains(&mv.step));
            }
        }
    }

    #[test]
    fn greedy_windows_pick_extremes_most_often() {
        // With τ = 1.5 the most common window starts at rank 0 (most
        // expensive) and the cheap end.
        let params = SearchParams::tiny();
        let costs: Vec<f64> = (0..60).map(|i| (60 - i) as f64).collect();
        let ranks = RankTable::new(&costs);
        let s = NeighborhoodSampler::new(60, &params);
        let mut r = rng(11);
        let mut raise_hits_top = 0;
        let mut total = 0;
        for _ in 0..2000 {
            for mv in s.moves(&ranks, &params, &mut r) {
                total += 1;
                // Top-m window = links 0..5 (cost-descending ids here).
                if mv.raise.index() < 5 {
                    raise_hits_top += 1;
                }
            }
        }
        let frac = raise_hits_top as f64 / total as f64;
        assert!(frac > 0.5, "expected extreme preference, got {frac}");
    }

    #[test]
    fn move_apply_clamps() {
        let params = SearchParams::tiny();
        let mut w = WeightVector::from_vec(vec![29, 2, 15, 15]);
        WeightMove {
            raise: LinkId(0),
            lower: LinkId(1),
            step: 3,
        }
        .apply(&mut w, &params);
        assert_eq!(w.get(LinkId(0)), 30);
        assert_eq!(w.get(LinkId(1)), 1);
    }

    #[test]
    fn perturbation_changes_expected_fraction() {
        let params = SearchParams::tiny();
        let w0 = WeightVector::from_vec(vec![15; 200]);
        let mut w = w0.clone();
        let mut r = rng(5);
        perturb_weights(&mut w, 0.05, &params, &mut r);
        let changed = w.hamming(&w0);
        // 5% of 200 = 10 positions selected; a few may redraw value 15.
        assert!(changed <= 10, "changed {changed}");
        assert!(changed >= 5, "changed {changed}");
    }

    #[test]
    fn perturbation_always_touches_at_least_one_link() {
        let params = SearchParams::tiny();
        let mut w = WeightVector::from_vec(vec![15; 4]);
        let mut r = rng(6);
        // fraction rounds to zero links → clamped to 1 selection.
        perturb_weights(&mut w, 0.001, &params, &mut r);
        // (The selected link may redraw the same value; just ensure no
        // panic and valid range.)
        for i in 0..4 {
            let v = w.get(LinkId(i));
            assert!((1..=30).contains(&v));
        }
    }

    #[test]
    fn small_topology_shrinks_m() {
        let params = SearchParams::tiny(); // m = 5
        let s = NeighborhoodSampler::new(6, &params);
        assert_eq!(s.set_size(), 3);
        let costs = [3.0, 2.0, 1.0, 6.0, 5.0, 4.0];
        let ranks = RankTable::new(&costs);
        let mut r = rng(8);
        for _ in 0..100 {
            let moves = s.moves(&ranks, &params, &mut r);
            for mv in &moves {
                assert_ne!(mv.raise, mv.lower);
            }
        }
    }
}
