//! Sketches with slack (Section 4 of the paper).
//!
//! A labeling has stretch `t` with *ε-slack* if the estimate is within a
//! factor `t` for every pair `(u, v)` where `v` is ε-far from `u`, i.e. `v`
//! is not among the `εn` closest nodes to `u` (the predicate is
//! [`DistanceTable::is_eps_far`](netgraph::apsp::DistanceTable::is_eps_far),
//! computed from exact distances and used only to evaluate the guarantees).
//! Giving up on the nearest pairs buys dramatically smaller sketches and
//! faster construction:
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

#[cfg(test)]
mod tests {
    use netgraph::apsp::DistanceTable;
    use netgraph::generators::{ring, GeneratorConfig};
    use netgraph::NodeId;

    #[test]
    fn eps_far_matches_rank_definition() {
        let g = ring(10, GeneratorConfig::unit(1));
        let table = DistanceTable::exact(&g);
        // On a unit ring of 10 nodes, the two neighbors of u are the closest;
        // the antipode is the farthest.
        let u = NodeId(0);
        let antipode = NodeId(5);
        let neighbor = NodeId(1);
        assert!(table.is_eps_far(u, antipode, 0.5));
        assert!(!table.is_eps_far(u, neighbor, 0.5));
    }
}
