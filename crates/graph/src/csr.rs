//! Compressed-sparse-row (CSR) storage for weighted undirected graphs.
//!
//! The CONGEST simulator iterates over node adjacencies every round, so the
//! representation is optimized for cache-friendly sequential scans: all
//! adjacency entries live in two parallel `Vec`s (`targets`, `weights`) and a
//! node's neighborhood is the contiguous slice `offsets[u]..offsets[u + 1]`.

use crate::Weight;
use std::fmt;

/// Dense node identifier in `0..n`.
///
/// A thin newtype so that node indices cannot be silently confused with
/// counts, weights, or positions in unrelated arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's dense index as a `usize`, for indexing per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a dense index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        NodeId(i as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A reference to one directed half of an undirected edge, as seen from the
/// node whose adjacency list it lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    /// The neighbor this edge leads to.
    pub to: NodeId,
    /// The edge weight.
    pub weight: Weight,
}

/// Immutable weighted undirected graph in CSR form.
///
/// Both directed halves of every undirected edge are stored, so
/// `neighbors(u)` contains `v` if and only if `neighbors(v)` contains `u`,
/// with the same weight.  Construction goes through [`crate::GraphBuilder`],
/// which enforces this symmetry.
#[derive(Debug, Clone)]
pub struct Graph {
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    weights: Vec<Weight>,
    num_undirected_edges: usize,
}

impl Graph {
    /// Build directly from CSR arrays.  Intended for use by
    /// [`crate::GraphBuilder`]; panics if the arrays are inconsistent.
    pub(crate) fn from_csr(
        offsets: Vec<usize>,
        targets: Vec<NodeId>,
        weights: Vec<Weight>,
        num_undirected_edges: usize,
    ) -> Self {
        assert!(!offsets.is_empty(), "offsets must have n + 1 entries");
        assert_eq!(*offsets.last().unwrap(), targets.len());
        assert_eq!(targets.len(), weights.len());
        Graph {
            offsets,
            targets,
            weights,
            num_undirected_edges,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_undirected_edges
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes()).map(NodeId::from_index)
    }

    /// Degree of `u` (number of incident undirected edges).
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.offsets[u.index() + 1] - self.offsets[u.index()]
    }

    /// Neighbor slice of `u` as `(targets, weights)` parallel slices.
    #[inline]
    pub fn neighbor_slices(&self, u: NodeId) -> (&[NodeId], &[Weight]) {
        let lo = self.offsets[u.index()];
        let hi = self.offsets[u.index() + 1];
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }

    /// Iterator over the edges incident to `u`.
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        let (t, w) = self.neighbor_slices(u);
        t.iter()
            .zip(w.iter())
            .map(|(&to, &weight)| EdgeRef { to, weight })
    }

    /// The weight of edge `(u, v)` if it exists.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        self.neighbors(u).find(|e| e.to == v).map(|e| e.weight)
    }

    /// Returns `true` if `(u, v)` is an edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Iterator over every undirected edge exactly once, as `(u, v, w)` with
    /// `u < v`.
    pub fn undirected_edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .filter(move |e| u < e.to)
                .map(move |e| (u, e.to, e.weight))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1);
        b.add_edge(NodeId(1), NodeId(2), 2);
        b.add_edge(NodeId(2), NodeId(0), 3);
        b.build()
    }

    #[test]
    fn csr_basic_counts() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn degrees_and_neighbors_are_symmetric() {
        let g = triangle();
        for u in g.nodes() {
            assert_eq!(g.degree(u), 2);
            for e in g.neighbors(u) {
                assert_eq!(g.edge_weight(e.to, u), Some(e.weight));
            }
        }
    }

    #[test]
    fn edge_weight_lookup() {
        let g = triangle();
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(1));
        assert_eq!(g.edge_weight(NodeId(1), NodeId(0)), Some(1));
        assert_eq!(g.edge_weight(NodeId(1), NodeId(2)), Some(2));
        assert_eq!(g.edge_weight(NodeId(0), NodeId(2)), Some(3));
        assert!(g.has_edge(NodeId(2), NodeId(0)));
    }

    #[test]
    fn undirected_edges_listed_once() {
        let g = triangle();
        let edges: Vec<_> = g.undirected_edges().collect();
        assert_eq!(edges.len(), 3);
        for (u, v, _) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn node_id_display_and_index() {
        let u = NodeId(7);
        assert_eq!(u.index(), 7);
        assert_eq!(NodeId::from_index(7), u);
        assert_eq!(format!("{u}"), "v7");
    }
}
