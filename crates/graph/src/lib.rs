//! `netgraph` — the weighted-graph substrate used by the distance-sketch
//! reproduction of *Efficient Computation of Distance Sketches in Distributed
//! Networks* (Das Sarma, Dinitz, Pandurangan, SPAA 2012).
//!
//! The paper models a communication network as a weighted, undirected,
//! connected `n`-node graph `G = (V, E)` with nonnegative edge weights that
//! are polynomial in `n` (Section 2.2).  This crate provides:
//!
//! * [`Graph`] — an immutable compressed-sparse-row (CSR) representation with
//!   O(1) access to the neighbor slice of a node, designed so that the CONGEST
//!   simulator can iterate adjacencies without allocation in the hot loop.
//! * [`GraphBuilder`] — an edge-list builder that validates, deduplicates and
//!   symmetrizes input edges.
//! * [`generators`] — synthetic topology families used by the experiment
//!   harness (Erdős–Rényi, random geometric, grid/torus, ring, trees,
//!   preferential attachment, Waxman) together with edge-weight models.
//! * [`shortest_path`] — exact Dijkstra / multi-source Dijkstra / BFS used as
//!   ground truth when measuring stretch.
//! * [`diameter`] — the hop diameter `D` and the shortest-path diameter `S`
//!   (the quantity the paper's round bounds are stated in).
//! * [`completion`] — the metric completion of a node subset, used to verify
//!   the Lemma 4.5 claim about net-restricted sketches.
//! * [`fingerprint`] — structural graph fingerprints (`n`, `m`, edge
//!   checksum) used by the sketch persistence layer to refuse serving a
//!   snapshot against the wrong graph.
//! * [`apsp`] — all-pairs (or sampled-pairs) ground-truth distance tables.
//! * [`io`] — a plain-text edge-list format for persisting generated networks.
//! * [`metrics`] — degree/weight/connectivity summaries used in experiment
//!   reports.
//!
//! # Conventions
//!
//! Nodes are dense indices `0..n` wrapped in [`NodeId`].  Distances and edge
//! weights are `u64`; the sentinel [`INFINITY`] denotes "unreachable".  All
//! randomized generators take an explicit seed so experiments are exactly
//! reproducible.

pub mod apsp;
pub mod builder;
pub mod completion;
pub mod csr;
pub mod diameter;
pub mod fingerprint;
pub mod generators;
pub mod io;
pub mod metrics;
pub mod shortest_path;
pub mod union_find;

pub use builder::GraphBuilder;
pub use csr::{EdgeRef, Graph, NodeId};
pub use fingerprint::GraphFingerprint;

/// Edge weight / distance type used throughout the workspace.
///
/// The paper assumes weights polynomial in `n`, i.e. representable in one
/// O(log n)-bit word; `u64` is the natural machine analogue.
pub type Weight = u64;

/// Distance value: same representation as [`Weight`], with [`INFINITY`]
/// denoting "no path known / unreachable".
pub type Distance = u64;

/// Sentinel for an unknown or unreachable distance.
///
/// We use `u64::MAX` and rely on saturating arithmetic when relaxing edges so
/// that `INFINITY + w` never wraps.
pub const INFINITY: Distance = u64::MAX;

/// Saturating distance addition: `add_dist(INFINITY, w) == INFINITY`.
#[inline]
pub fn add_dist(a: Distance, b: Distance) -> Distance {
    a.saturating_add(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_dist_saturates_at_infinity() {
        assert_eq!(add_dist(INFINITY, 5), INFINITY);
        assert_eq!(add_dist(5, INFINITY), INFINITY);
        assert_eq!(add_dist(INFINITY, INFINITY), INFINITY);
    }

    #[test]
    fn add_dist_normal_values() {
        assert_eq!(add_dist(3, 4), 7);
        assert_eq!(add_dist(0, 0), 0);
    }
}
