//! Lexicographically ordered cost tuples `⟨x, y⟩` (paper §3.1).
//!
//! The paper's objectives give strict precedence to the high-priority
//! class: `⟨x₁, y₁⟩ > ⟨x₂, y₂⟩` iff `x₁ > x₂`, or `x₁ = x₂` and `y₁ > y₂`.
//! [`Lex2`] implements that as a *total* order over finite floats using
//! `f64::total_cmp`; the search loops rely on `Ord`, so the invariant is
//! that cost components are never NaN (all cost functions in this crate
//! produce finite values for finite inputs, which tests enforce).

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A two-component lexicographic cost `⟨primary, secondary⟩`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Lex2 {
    /// Optimized first (high-priority class cost: `Φ_H` or `Λ`).
    pub primary: f64,
    /// Optimized second (low-priority class cost `Φ_L`).
    pub secondary: f64,
}

impl Lex2 {
    /// Builds a tuple; both components must be finite (checked in debug).
    #[inline]
    pub fn new(primary: f64, secondary: f64) -> Self {
        debug_assert!(primary.is_finite(), "non-finite primary {primary}");
        debug_assert!(secondary.is_finite(), "non-finite secondary {secondary}");
        Lex2 { primary, secondary }
    }

    /// The lexicographic maximum representable tuple — a convenient
    /// "worse than anything real" initial incumbent for minimization.
    pub const MAX: Lex2 = Lex2 {
        primary: f64::MAX,
        secondary: f64::MAX,
    };

    /// True if `self` improves on (is strictly lexicographically smaller
    /// than) `other`.
    #[inline]
    pub fn improves_on(&self, other: &Lex2) -> bool {
        self < other
    }

    /// Relaxed comparison used by ε-relaxed STR (§3.3.2 / §5.3.1): `self`
    /// is acceptable relative to a best-known `other` if its primary
    /// component is within a factor `(1 + eps)` of `other`'s.
    #[inline]
    pub fn primary_within(&self, other: &Lex2, eps: f64) -> bool {
        self.primary <= (1.0 + eps) * other.primary
    }
}

impl PartialEq for Lex2 {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Lex2 {}

impl PartialOrd for Lex2 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Lex2 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.primary
            .total_cmp(&other.primary)
            .then_with(|| self.secondary.total_cmp(&other.secondary))
    }
}

impl fmt::Display for Lex2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{:.6}, {:.6}⟩", self.primary, self.secondary)
    }
}

/// A lexicographically ordered k-component cost vector; component 0 is
/// the highest priority. This is the k-class generalization of [`Lex2`]
/// and the one cost type of every k-class path; a two-component
/// `LexCost` orders exactly like the `Lex2` built from the same values.
/// Comparisons require equal lengths (same class count).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LexCost(Vec<f64>);

impl LexCost {
    /// Wraps components (must all be finite).
    pub fn new(components: Vec<f64>) -> Self {
        debug_assert!(components.iter().all(|c| c.is_finite()));
        LexCost(components)
    }

    /// Builds the two-component cost matching `Lex2::new(p, s)`.
    pub fn two(primary: f64, secondary: f64) -> Self {
        LexCost::new(vec![primary, secondary])
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty tuple (no classes).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Component for class `i`.
    pub fn get(&self, i: usize) -> f64 {
        self.0[i]
    }

    /// The components as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// A tuple of `len` `f64::MAX` components — worse than any real cost.
    pub fn worst(len: usize) -> Self {
        LexCost(vec![f64::MAX; len])
    }

    /// The two-class view `⟨component 0, Σ components 1..⟩` used when a
    /// k-class cost has to be reported through a two-tuple interface.
    pub fn two_view(&self) -> Lex2 {
        let rest = self.0[1..].iter().sum();
        Lex2::new(self.0[0], rest)
    }
}

impl From<Lex2> for LexCost {
    fn from(l: Lex2) -> Self {
        LexCost::two(l.primary, l.secondary)
    }
}

impl Eq for LexCost {}

impl PartialOrd for LexCost {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LexCost {
    fn cmp(&self, other: &Self) -> Ordering {
        assert_eq!(self.0.len(), other.0.len(), "class-count mismatch");
        for (a, b) in self.0.iter().zip(&other.0) {
            match a.total_cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Display for LexCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c:.3}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_dominates() {
        assert!(Lex2::new(1.0, 100.0) < Lex2::new(2.0, 0.0));
        assert!(Lex2::new(2.0, 0.0) > Lex2::new(1.0, 100.0));
    }

    #[test]
    fn secondary_breaks_ties() {
        assert!(Lex2::new(1.0, 1.0) < Lex2::new(1.0, 2.0));
        assert_eq!(Lex2::new(1.0, 1.0), Lex2::new(1.0, 1.0));
    }

    #[test]
    fn max_is_worst() {
        assert!(Lex2::new(1e300, 1e300) < Lex2::MAX);
        assert!(Lex2::new(0.0, 0.0).improves_on(&Lex2::MAX));
    }

    #[test]
    fn within_eps_relaxation() {
        let best = Lex2::new(100.0, 5.0);
        assert!(Lex2::new(104.0, 1.0).primary_within(&best, 0.05));
        assert!(!Lex2::new(106.0, 1.0).primary_within(&best, 0.05));
        // ε = 0 degenerates to the strict rule.
        assert!(Lex2::new(100.0, 9.0).primary_within(&best, 0.0));
        assert!(!Lex2::new(100.1, 9.0).primary_within(&best, 0.0));
    }

    #[test]
    fn order_is_total_and_transitive_on_samples() {
        let xs = [
            Lex2::new(0.0, 0.0),
            Lex2::new(0.0, 1.0),
            Lex2::new(1.0, -5.0),
            Lex2::new(1.0, 0.0),
            Lex2::new(2.0, -100.0),
        ];
        for w in xs.windows(2) {
            assert!(w[0] < w[1]);
        }
        for a in &xs {
            for b in &xs {
                // Total: exactly one of <, ==, > holds.
                let lt = a < b;
                let gt = a > b;
                let eq = a == b;
                assert_eq!(1, lt as u8 + gt as u8 + eq as u8);
            }
        }
    }

    #[test]
    fn negative_zero_equals_positive_zero_ordering() {
        // total_cmp puts -0.0 < 0.0; our costs are non-negative so the only
        // requirement is consistency, which Ord provides.
        let a = Lex2::new(-0.0, 0.0);
        let b = Lex2::new(0.0, 0.0);
        assert!(a <= b);
    }

    #[test]
    fn lexcost_orders_like_lex2_for_two_components() {
        let pairs = [(0.0, 0.0), (0.0, 1.0), (1.0, -5.0), (1.0, 0.0), (2.0, 3.0)];
        for &(a1, a2) in &pairs {
            for &(b1, b2) in &pairs {
                let lex2 = Lex2::new(a1, a2).cmp(&Lex2::new(b1, b2));
                let lexk = LexCost::two(a1, a2).cmp(&LexCost::two(b1, b2));
                assert_eq!(lex2, lexk, "({a1},{a2}) vs ({b1},{b2})");
            }
        }
    }

    #[test]
    fn lexcost_earlier_components_dominate() {
        let a = LexCost::new(vec![1.0, 99.0, 99.0]);
        let b = LexCost::new(vec![2.0, 0.0, 0.0]);
        assert!(a < b);
        let c = LexCost::new(vec![1.0, 5.0, 0.0]);
        assert!(a > c);
        assert!(LexCost::new(vec![1e308, 1e308]) < LexCost::worst(2));
    }

    #[test]
    fn lexcost_equality_and_display() {
        assert_eq!(LexCost::new(vec![1.0, 2.0]), LexCost::new(vec![1.0, 2.0]));
        assert_ne!(LexCost::new(vec![1.0, 2.0]), LexCost::new(vec![1.0, 3.0]));
        assert_eq!(LexCost::new(vec![1.0, 0.5]).to_string(), "⟨1.000, 0.500⟩");
    }

    #[test]
    fn lexcost_two_view_folds_the_tail() {
        let c = LexCost::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(c.two_view(), Lex2::new(3.0, 3.0));
        assert_eq!(LexCost::from(Lex2::new(5.0, 7.0)).as_slice(), &[5.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn lexcost_length_mismatch_panics() {
        let _ = LexCost::new(vec![1.0]) < LexCost::new(vec![1.0, 2.0]);
    }
}
