//! Link-weight vectors — the object the DTR heuristic searches over.
//!
//! OSPF/IS-IS routers forward along shortest paths with respect to
//! administrator-assigned integer link weights. Multi-topology routing
//! (RFC 4915) lets a router carry one weight **per topology** per link;
//! this crate represents each topology's weights as one [`WeightVector`].
//!
//! The paper restricts weights to `1..=30` (§5.1.3) "as a trade-off between
//! the effectiveness of the resulting routing solutions and computational
//! complexity"; those bounds are the defaults here but are parameters of
//! the search, not of this type.

use crate::topology::{LinkId, Topology};
use serde::{Deserialize, Serialize};

/// An OSPF-style link weight. `u32` comfortably covers the protocol range
/// (OSPF carries 16-bit metrics) while keeping distance sums in `u64` safe.
pub type Weight = u32;

/// Smallest weight the paper's search assigns.
pub const MIN_WEIGHT: Weight = 1;
/// Largest weight the paper's search assigns (§5.1.3).
pub const MAX_WEIGHT: Weight = 30;

/// One weight per directed link, indexed by [`LinkId`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WeightVector(Vec<Weight>);

impl WeightVector {
    /// All-ones weights (hop-count routing) for `topo`.
    pub fn uniform(topo: &Topology, w: Weight) -> Self {
        WeightVector(vec![w; topo.link_count()])
    }

    /// Builds from a raw vector; `len` must equal the topology's link count
    /// (checked by the caller — this type does not retain the topology).
    pub fn from_vec(weights: Vec<Weight>) -> Self {
        WeightVector(weights)
    }

    /// Weights proportional to propagation delay (a common operator
    /// default: prefer geographically short paths). Delays are mapped
    /// linearly onto `[MIN_WEIGHT, max_w]`.
    pub fn delay_proportional(topo: &Topology, max_w: Weight) -> Self {
        let max_d = topo
            .links()
            .map(|(_, l)| l.prop_delay)
            .fold(f64::MIN, f64::max);
        let min_d = topo
            .links()
            .map(|(_, l)| l.prop_delay)
            .fold(f64::MAX, f64::min);
        let span = (max_d - min_d).max(f64::EPSILON);
        let weights = topo
            .links()
            .map(|(_, l)| {
                let t = (l.prop_delay - min_d) / span;
                MIN_WEIGHT + (t * (max_w - MIN_WEIGHT) as f64).round() as Weight
            })
            .collect();
        WeightVector(weights)
    }

    /// Number of links covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the vector covers no links.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Weight of `link`.
    #[inline]
    pub fn get(&self, link: LinkId) -> Weight {
        self.0[link.index()]
    }

    /// Sets the weight of `link`.
    #[inline]
    pub fn set(&mut self, link: LinkId, w: Weight) {
        self.0[link.index()] = w;
    }

    /// Adds `delta` to the weight of `link`, clamping into
    /// `[min_w, max_w]`.
    pub fn nudge(&mut self, link: LinkId, delta: i64, min_w: Weight, max_w: Weight) {
        let cur = self.0[link.index()] as i64;
        let next = (cur + delta).clamp(min_w as i64, max_w as i64);
        self.0[link.index()] = next as Weight;
    }

    /// Raw slice view, indexed by link id.
    #[inline]
    pub fn as_slice(&self) -> &[Weight] {
        &self.0
    }

    /// Number of positions at which `self` and `other` differ.
    pub fn hamming(&self, other: &WeightVector) -> usize {
        self.0
            .iter()
            .zip(other.0.iter())
            .filter(|(a, b)| a != b)
            .count()
    }
}

impl std::ops::Index<LinkId> for WeightVector {
    type Output = Weight;
    fn index(&self, id: LinkId) -> &Weight {
        &self.0[id.index()]
    }
}

/// A dual-topology weight setting `W = {W^H, W^L}` (§4): one weight vector
/// for the high-priority topology, one for the low-priority topology.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DualWeights {
    /// Weights routing the high-priority class.
    pub high: WeightVector,
    /// Weights routing the low-priority class.
    pub low: WeightVector,
}

impl DualWeights {
    /// Both topologies initialized to the same vector — the natural
    /// starting point (equivalent to single-topology routing).
    pub fn replicated(w: WeightVector) -> Self {
        DualWeights {
            low: w.clone(),
            high: w,
        }
    }

    /// The high-class vector when `high`, else the low-class one.
    pub fn class(&self, high: bool) -> &WeightVector {
        if high {
            &self.high
        } else {
            &self.low
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{NodeId, TopologyBuilder};

    fn line() -> Topology {
        let mut b = TopologyBuilder::new();
        b.add_nodes(3);
        b.add_duplex(NodeId(0), NodeId(1), 500.0, 0.001);
        b.add_duplex(NodeId(1), NodeId(2), 500.0, 0.015);
        b.build().unwrap()
    }

    #[test]
    fn uniform_covers_all_links() {
        let t = line();
        let w = WeightVector::uniform(&t, 1);
        assert_eq!(w.len(), 4);
        assert!(t.links().all(|(id, _)| w.get(id) == 1));
    }

    #[test]
    fn nudge_clamps_to_bounds() {
        let t = line();
        let mut w = WeightVector::uniform(&t, 15);
        w.nudge(LinkId(0), 100, MIN_WEIGHT, MAX_WEIGHT);
        assert_eq!(w.get(LinkId(0)), MAX_WEIGHT);
        w.nudge(LinkId(0), -100, MIN_WEIGHT, MAX_WEIGHT);
        assert_eq!(w.get(LinkId(0)), MIN_WEIGHT);
        w.nudge(LinkId(0), 3, MIN_WEIGHT, MAX_WEIGHT);
        assert_eq!(w.get(LinkId(0)), 4);
    }

    #[test]
    fn delay_proportional_orders_by_delay() {
        let t = line();
        let w = WeightVector::delay_proportional(&t, MAX_WEIGHT);
        // Links 0,1 have 1 ms delay; links 2,3 have 15 ms.
        assert_eq!(w.get(LinkId(0)), MIN_WEIGHT);
        assert_eq!(w.get(LinkId(2)), MAX_WEIGHT);
    }

    #[test]
    fn hamming_distance() {
        let t = line();
        let a = WeightVector::uniform(&t, 1);
        let mut b = a.clone();
        assert_eq!(a.hamming(&b), 0);
        b.set(LinkId(1), 9);
        b.set(LinkId(3), 9);
        assert_eq!(a.hamming(&b), 2);
    }

    #[test]
    fn replicated_dual_weights_match() {
        let t = line();
        let d = DualWeights::replicated(WeightVector::uniform(&t, 5));
        assert_eq!(d.high, d.low);
    }
}
