//! Hop diameter `D` and shortest-path diameter `S`.
//!
//! The paper's round bounds are stated in terms of the *shortest-path
//! diameter* `S` (Section 2.2): for each pair `(u, v)` let `h(u, v)` be the
//! minimum number of hops over all minimum-weight `u`–`v` paths; then
//! `S = max_{u,v} h(u, v)`.  The *hop diameter* `D` is the ordinary
//! unweighted diameter.  `D ≤ S` always holds, and the gap between them is
//! exactly what makes sketch-based querying attractive (Section 2.1).
//!
//! Exact computation is `n` single-source runs; for larger graphs an
//! estimator over a sampled subset of sources is provided (it is a lower
//! bound on the true value, which is the conservative direction for checking
//! the paper's upper bounds on rounds).

use crate::csr::{Graph, NodeId};
use crate::shortest_path::{bfs_hops, multi_source_dijkstra};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Exact and estimated diameter quantities of a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiameterReport {
    /// Hop diameter `D` (maximum unweighted eccentricity).
    pub hop_diameter: usize,
    /// Shortest-path diameter `S` (maximum hop count of a minimum-hop
    /// shortest path).
    pub shortest_path_diameter: usize,
    /// Number of source nodes the maxima were taken over (`n` for exact).
    pub sources_examined: usize,
}

/// Compute the exact hop diameter `D`.
///
/// Returns `usize::MAX` if the graph is disconnected.
pub fn hop_diameter(graph: &Graph) -> usize {
    let mut best = 0usize;
    for u in graph.nodes() {
        let hops = bfs_hops(graph, u);
        for &h in &hops {
            if h == usize::MAX {
                return usize::MAX;
            }
            best = best.max(h);
        }
    }
    best
}

/// Compute the exact shortest-path diameter `S`.
///
/// For every source we run Dijkstra with hop-minimizing tie-breaking (see
/// [`crate::shortest_path::multi_source_dijkstra`]), so `hops[v]` is the
/// fewest hops among minimum-weight paths, exactly the paper's `h(u, v)`.
/// Returns `usize::MAX` if the graph is disconnected.
pub fn shortest_path_diameter(graph: &Graph) -> usize {
    let mut best = 0usize;
    for u in graph.nodes() {
        let tree = multi_source_dijkstra(graph, &[u]);
        for &h in &tree.hops {
            if h == usize::MAX {
                return usize::MAX;
            }
            best = best.max(h);
        }
    }
    best
}

/// Compute both diameters exactly.
pub fn diameters(graph: &Graph) -> DiameterReport {
    DiameterReport {
        hop_diameter: hop_diameter(graph),
        shortest_path_diameter: shortest_path_diameter(graph),
        sources_examined: graph.num_nodes(),
    }
}

/// Estimate both diameters from `num_sources` random sources (plus the
/// extremal node found by a double-sweep heuristic).  The estimates are lower
/// bounds on the exact values.
pub fn estimate_diameters(graph: &Graph, num_sources: usize, seed: u64) -> DiameterReport {
    let n = graph.num_nodes();
    if n == 0 {
        return DiameterReport {
            hop_diameter: 0,
            shortest_path_diameter: 0,
            sources_examined: 0,
        };
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut nodes: Vec<NodeId> = graph.nodes().collect();
    nodes.shuffle(&mut rng);
    let mut sources: Vec<NodeId> = nodes.into_iter().take(num_sources.max(1)).collect();

    // Double sweep: from the first source, add the farthest node as another
    // source; this sharply improves diameter lower bounds on path-like graphs.
    let first_tree = multi_source_dijkstra(graph, &[sources[0]]);
    if let Some((far_idx, _)) = first_tree
        .dist
        .iter()
        .enumerate()
        .filter(|(_, &d)| d != crate::INFINITY)
        .max_by_key(|(_, &d)| d)
    {
        sources.push(NodeId::from_index(far_idx));
    }

    let farthest = |hops: &[usize]| {
        let reached = hops.iter().copied().filter(|&h| h != usize::MAX);
        reached.max().unwrap_or(0)
    };
    let hop_best = sources
        .iter()
        .map(|&s| farthest(&bfs_hops(graph, s)))
        .fold(0, usize::max);
    // The sweep above already searched from the first source.
    let sp_best = sources[1..]
        .iter()
        .map(|&s| farthest(&multi_source_dijkstra(graph, &[s]).hops))
        .fold(farthest(&first_tree.hops), usize::max);
    DiameterReport {
        hop_diameter: hop_best,
        shortest_path_diameter: sp_best.max(hop_best),
        sources_examined: sources.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Unweighted ring of 6 nodes: D = S = 3.
    fn ring6() -> Graph {
        let mut b = GraphBuilder::new(6);
        for i in 0..6 {
            b.add_edge_idx(i, (i + 1) % 6, 1);
        }
        b.build()
    }

    /// A graph where S > D: a heavy chord makes the hop-short path not the
    /// weighted-shortest path.
    ///
    /// Ring 0-1-2-3-4-5-0 with weight 1 edges, plus chord (0,3) with weight 100.
    fn ring_with_heavy_chord() -> Graph {
        let mut b = GraphBuilder::new(6);
        for i in 0..6 {
            b.add_edge_idx(i, (i + 1) % 6, 1);
        }
        b.add_edge_idx(0, 3, 100);
        b.build()
    }

    #[test]
    fn ring_diameters() {
        let g = ring6();
        let r = diameters(&g);
        assert_eq!(r.hop_diameter, 3);
        assert_eq!(r.shortest_path_diameter, 3);
        assert_eq!(r.sources_examined, 6);
    }

    #[test]
    fn heavy_chord_separates_s_from_d() {
        let g = ring_with_heavy_chord();
        // Hop diameter: with the chord, every pair is within 3 hops still,
        // but 0-3 is now 1 hop, so D <= 3.
        let d = hop_diameter(&g);
        // Weighted shortest path 0..3 goes around the ring: 3 hops of weight 1.
        let s = shortest_path_diameter(&g);
        assert!(d <= 3);
        assert_eq!(s, 3);
        assert!(s >= d);
    }

    #[test]
    fn path_graph_diameters() {
        let mut b = GraphBuilder::new(5);
        for i in 0..4 {
            b.add_edge_idx(i, i + 1, 2);
        }
        let g = b.build();
        let r = diameters(&g);
        assert_eq!(r.hop_diameter, 4);
        assert_eq!(r.shortest_path_diameter, 4);
    }

    #[test]
    fn disconnected_graph_reports_max() {
        let mut b = GraphBuilder::new(4);
        b.add_edge_idx(0, 1, 1);
        b.add_edge_idx(2, 3, 1);
        let g = b.build();
        assert_eq!(hop_diameter(&g), usize::MAX);
        assert_eq!(shortest_path_diameter(&g), usize::MAX);
    }

    #[test]
    fn estimate_is_lower_bound_and_finds_path_diameter() {
        let mut b = GraphBuilder::new(32);
        for i in 0..31 {
            b.add_edge_idx(i, i + 1, 1);
        }
        let g = b.build();
        let exact = diameters(&g);
        let est = estimate_diameters(&g, 4, 42);
        assert!(est.hop_diameter <= exact.hop_diameter);
        assert!(est.shortest_path_diameter <= exact.shortest_path_diameter);
        // Double sweep should find the true diameter of a path.
        assert_eq!(est.hop_diameter, 31);
        assert_eq!(est.shortest_path_diameter, 31);
    }

    #[test]
    fn estimate_on_empty_graph() {
        let g = GraphBuilder::new(0).build();
        let est = estimate_diameters(&g, 3, 1);
        assert_eq!(est.sources_examined, 0);
        assert_eq!(est.hop_diameter, 0);
    }

    #[test]
    fn single_node_graph() {
        let g = GraphBuilder::new(1).build();
        let r = diameters(&g);
        assert_eq!(r.hop_diameter, 0);
        assert_eq!(r.shortest_path_diameter, 0);
    }
}
