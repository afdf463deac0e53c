//! Edge-list builder that produces validated CSR [`Graph`]s.
//!
//! The builder accepts arbitrary (possibly duplicated, possibly self-loop)
//! edge insertions, then canonicalizes: self-loops are dropped, parallel
//! edges are collapsed to the minimum weight (the only one that can ever lie
//! on a shortest path), and the adjacency of every node is sorted by target
//! id so that CSR scans and equality comparisons are deterministic.

use crate::csr::{Graph, NodeId};
use crate::Weight;

/// Incremental builder for a weighted undirected [`Graph`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: usize,
    /// Canonicalized edges (min(u,v), max(u,v), w); may contain duplicates
    /// until `build`.
    edges: Vec<(u32, u32, Weight)>,
    dropped_self_loops: usize,
}

impl GraphBuilder {
    /// Create a builder for a graph on `num_nodes` nodes (ids `0..num_nodes`).
    pub fn new(num_nodes: usize) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::new(),
            dropped_self_loops: 0,
        }
    }

    /// Create a builder with pre-reserved capacity for `num_edges` edges.
    pub fn with_capacity(num_nodes: usize, num_edges: usize) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::with_capacity(num_edges),
            dropped_self_loops: 0,
        }
    }

    /// Number of nodes this builder was created for.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of self-loops that were silently dropped.
    pub fn dropped_self_loops(&self) -> usize {
        self.dropped_self_loops
    }

    /// Add an undirected edge `(u, v)` with weight `w`.
    ///
    /// Self-loops are ignored (they can never appear on a shortest path).
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: Weight) {
        assert!(
            u.index() < self.num_nodes && v.index() < self.num_nodes,
            "edge ({u}, {v}) out of range for {} nodes",
            self.num_nodes
        );
        if u == v {
            self.dropped_self_loops += 1;
            return;
        }
        let (a, b) = if u.0 < v.0 { (u.0, v.0) } else { (v.0, u.0) };
        self.edges.push((a, b, w));
    }

    /// Add an edge by raw indices; convenience for generators and I/O.
    pub fn add_edge_idx(&mut self, u: usize, v: usize, w: Weight) {
        self.add_edge(NodeId::from_index(u), NodeId::from_index(v), w);
    }

    /// Returns `true` if an edge between `u` and `v` has already been added.
    ///
    /// Linear scan — intended for generators that add few edges per node, not
    /// for hot paths.
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = if u.0 < v.0 { (u.0, v.0) } else { (v.0, u.0) };
        self.edges.iter().any(|&(x, y, _)| x == a && y == b)
    }

    /// Finalize into a CSR [`Graph`].
    ///
    /// Parallel edges are collapsed keeping the minimum weight.
    pub fn build(mut self) -> Graph {
        // Sort canonical edges so duplicates are adjacent; keep minimum weight.
        self.edges.sort_unstable();
        self.edges.dedup_by(|next, prev| {
            if next.0 == prev.0 && next.1 == prev.1 {
                // `prev` is retained; keep the smaller weight there.
                prev.2 = prev.2.min(next.2);
                true
            } else {
                false
            }
        });

        let n = self.num_nodes;
        let m = self.edges.len();

        // Count degrees.
        let mut degree = vec![0usize; n];
        for &(u, v, _) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }

        // Prefix sums -> offsets.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }

        // Fill adjacency using a moving cursor per node.
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![NodeId(0); 2 * m];
        let mut weights = vec![0 as Weight; 2 * m];
        for &(u, v, w) in &self.edges {
            let (ui, vi) = (u as usize, v as usize);
            targets[cursor[ui]] = NodeId(v);
            weights[cursor[ui]] = w;
            cursor[ui] += 1;
            targets[cursor[vi]] = NodeId(u);
            weights[cursor[vi]] = w;
            cursor[vi] += 1;
        }

        // Sort each adjacency slice by target id for determinism.
        for u in 0..n {
            let lo = offsets[u];
            let hi = offsets[u + 1];
            let mut pairs: Vec<(NodeId, Weight)> = targets[lo..hi]
                .iter()
                .copied()
                .zip(weights[lo..hi].iter().copied())
                .collect();
            pairs.sort_unstable_by_key(|&(t, _)| t);
            for (i, (t, w)) in pairs.into_iter().enumerate() {
                targets[lo + i] = t;
                weights[lo + i] = w;
            }
        }

        Graph::from_csr(offsets, targets, weights, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_empty_graph() {
        let g = GraphBuilder::new(4).build();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 0);
        for u in g.nodes() {
            assert_eq!(g.degree(u), 0);
        }
    }

    #[test]
    fn self_loops_are_dropped() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(1), NodeId(1), 5);
        b.add_edge(NodeId(0), NodeId(1), 2);
        assert_eq!(b.dropped_self_loops(), 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(NodeId(1)), 1);
    }

    #[test]
    fn parallel_edges_keep_minimum_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 9);
        b.add_edge(NodeId(1), NodeId(0), 4);
        b.add_edge(NodeId(0), NodeId(1), 7);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(4));
    }

    #[test]
    fn adjacency_is_sorted_by_target() {
        let mut b = GraphBuilder::new(5);
        b.add_edge_idx(2, 4, 1);
        b.add_edge_idx(2, 0, 1);
        b.add_edge_idx(2, 3, 1);
        b.add_edge_idx(2, 1, 1);
        let g = b.build();
        let targets: Vec<u32> = g.neighbors(NodeId(2)).map(|e| e.to.0).collect();
        assert_eq!(targets, vec![0, 1, 3, 4]);
    }

    #[test]
    fn contains_edge_detects_both_orientations() {
        let mut b = GraphBuilder::new(3);
        b.add_edge_idx(0, 2, 1);
        assert!(b.contains_edge(NodeId(0), NodeId(2)));
        assert!(b.contains_edge(NodeId(2), NodeId(0)));
        assert!(!b.contains_edge(NodeId(0), NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge_idx(0, 2, 1);
    }

    #[test]
    fn with_capacity_matches_new() {
        let mut a = GraphBuilder::new(4);
        let mut b = GraphBuilder::with_capacity(4, 3);
        for (u, v, w) in [(0, 1, 1), (1, 2, 2), (2, 3, 3)] {
            a.add_edge_idx(u, v, w);
            b.add_edge_idx(u, v, w);
        }
        let ga = a.build();
        let gb = b.build();
        assert_eq!(ga.num_edges(), gb.num_edges());
        for u in ga.nodes() {
            let ea: Vec<_> = ga.neighbors(u).collect();
            let eb: Vec<_> = gb.neighbors(u).collect();
            assert_eq!(ea, eb);
        }
    }
}
