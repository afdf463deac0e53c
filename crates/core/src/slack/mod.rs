//! Sketches with slack (Section 4 of the paper).
//!
//! A labeling has stretch `t` with *ε-slack* if the estimate is within a
//! factor `t` for every pair `(u, v)` where `v` is ε-far from `u`, i.e. `v`
//! is not among the `εn` closest nodes to `u`.  Giving up on the nearest
//! pairs buys dramatically smaller sketches and faster construction:
//!
//! * [`density_net`] — Lemma 4.2: an ε-density net sampled in constant time.
//! * [`cdg`] — Theorem 4.6: the (ε, k)-CDG sketch, stretch `8k − 1` with
//!   ε-slack, size `O(k (1/ε log n)^{1/k} log n)` words: Thorup–Zwick on a
//!   hierarchy restricted to the net.  At `k = 1` it is Theorem 4.3's
//!   3-stretch sketch — one phase, a single flood from the net, size
//!   `O((1/ε) log n)` words.
//! * [`degrading`] — Theorem 4.8 / Corollary 4.9: gracefully degrading
//!   sketches (a union of CDG sketches for every power-of-two ε) with
//!   `O(log n)` worst-case stretch and `O(1)` average stretch.
//!
//! What is here is sampling: the nets, the net-restricted hierarchies and
//! the degrading layer schedule.  The labels are built on them by the one
//! engine dispatch of [`crate::scheme::SchemeSpec::build_sketches`].

pub mod cdg;
pub mod degrading;
pub mod density_net;

use netgraph::apsp::DistanceTable;
use netgraph::NodeId;

/// The ε-far predicate of Section 4: `v` is ε-far from `u` if at least `εn`
/// nodes are strictly closer to `u` than `v` is.
///
/// Computed from exact distances; used only for *evaluating* slack
/// guarantees, never by the constructions themselves.
pub fn is_eps_far(table: &DistanceTable, u: NodeId, v: NodeId, eps: f64) -> bool {
    table.is_eps_far(u, v, eps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators::{ring, GeneratorConfig};

    #[test]
    fn eps_far_matches_rank_definition() {
        let g = ring(10, GeneratorConfig::unit(1));
        let table = DistanceTable::exact(&g);
        // On a unit ring of 10 nodes, the two neighbors of u are the closest;
        // the antipode is the farthest.
        let u = NodeId(0);
        let antipode = NodeId(5);
        let neighbor = NodeId(1);
        assert!(is_eps_far(&table, u, antipode, 0.5));
        assert!(!is_eps_far(&table, u, neighbor, 0.5));
    }
}
