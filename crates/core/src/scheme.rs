//! Which routing scheme a search optimizes.

use crate::neighborhood::draw_changed_weight;
use crate::params::SearchParams;
use dtr_graph::weights::DualWeights;
use dtr_graph::LinkId;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Single- vs dual-topology routing, for searches that support both
/// through one entry point ([`crate::AnnealSearch`],
/// [`crate::RobustSearch`], [`crate::ReoptSearch`]).
///
/// The paper's main algorithms have dedicated types instead
/// ([`crate::StrSearch`], [`crate::DtrSearch`]) because their search
/// structure differs between the schemes, not just the move set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scheme {
    /// One weight vector shared by both classes (single-topology).
    Str,
    /// Independent per-class weight vectors (dual-topology).
    Dtr,
}

impl Scheme {
    /// Machine-readable name for CSV columns.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Str => "str",
            Scheme::Dtr => "dtr",
        }
    }

    /// Draws the class a single-weight change moves (`true` = high):
    /// always the high class under STR, whose replicas move together in
    /// [`Self::set`], and a fair coin under DTR.
    pub fn draw_class(self, rng: &mut StdRng) -> bool {
        match self {
            Scheme::Str => true,
            Scheme::Dtr => rng.random_bool(0.5),
        }
    }

    /// Sets one weight position: STR sets both replicas, DTR only the
    /// chosen class.
    pub fn set(self, w: &mut DualWeights, high: bool, lid: LinkId, v: u32) {
        match self {
            Scheme::Str => {
                w.high.set(lid, v);
                w.low.set(lid, v);
            }
            Scheme::Dtr if high => w.high.set(lid, v),
            Scheme::Dtr => w.low.set(lid, v),
        }
    }

    /// A single-weight-change neighbour of `w`: a uniform link, its class
    /// ([`Self::draw_class`]) and a forced-change value
    /// ([`draw_changed_weight`]).
    pub fn propose(self, w: &DualWeights, params: &SearchParams, rng: &mut StdRng) -> DualWeights {
        let lid = LinkId(rng.random_range(0..w.high.len() as u32));
        let high = self.draw_class(rng);
        let mut next = w.clone();
        let v = draw_changed_weight(w.class(high).get(lid), params, rng);
        self.set(&mut next, high, lid, v);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(Scheme::Str.name(), "str");
        assert_eq!(Scheme::Dtr.name(), "dtr");
    }
}
