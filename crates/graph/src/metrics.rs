//! Summary statistics about generated networks, used in experiment reports
//! (every row of an experiment table records the workload it ran on; the
//! experiments are indexed in ARCHITECTURE.md's *Experiment index*).

use crate::csr::Graph;
use crate::union_find::UnionFind;
use crate::Weight;

/// Degree distribution summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree (`2|E| / n`).
    pub mean: f64,
    /// Median degree.
    pub median: usize,
}

/// Edge-weight distribution summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightStats {
    /// Minimum edge weight.
    pub min: Weight,
    /// Maximum edge weight.
    pub max: Weight,
    /// Mean edge weight.
    pub mean: f64,
}

/// Full per-graph report.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphReport {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Number of undirected edges.
    pub num_edges: usize,
    /// Number of connected components.
    pub num_components: usize,
    /// Degree statistics.
    pub degrees: DegreeStats,
    /// Weight statistics (`None` for an edgeless graph).
    pub weights: Option<WeightStats>,
}

/// Number of connected components.
pub fn num_components(graph: &Graph) -> usize {
    let n = graph.num_nodes();
    if n == 0 {
        return 0;
    }
    let mut uf = UnionFind::new(n);
    for (u, v, _) in graph.undirected_edges() {
        uf.union(u.index(), v.index());
    }
    uf.num_sets()
}

/// Compute degree statistics.
pub fn degree_stats(graph: &Graph) -> DegreeStats {
    let n = graph.num_nodes();
    if n == 0 {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
            median: 0,
        };
    }
    let mut degrees: Vec<usize> = graph.nodes().map(|u| graph.degree(u)).collect();
    degrees.sort_unstable();
    DegreeStats {
        min: degrees[0],
        max: degrees[n - 1],
        mean: 2.0 * graph.num_edges() as f64 / n as f64,
        median: degrees[n / 2],
    }
}

/// Compute weight statistics; `None` if the graph has no edges.
pub fn weight_stats(graph: &Graph) -> Option<WeightStats> {
    if graph.num_edges() == 0 {
        return None;
    }
    let mut min = Weight::MAX;
    let mut max = 0;
    let mut sum: u128 = 0;
    for (_, _, w) in graph.undirected_edges() {
        min = min.min(w);
        max = max.max(w);
        sum += w as u128;
    }
    Some(WeightStats {
        min,
        max,
        mean: sum as f64 / graph.num_edges() as f64,
    })
}

/// Compute the full [`GraphReport`].
pub fn report(graph: &Graph) -> GraphReport {
    GraphReport {
        num_nodes: graph.num_nodes(),
        num_edges: graph.num_edges(),
        num_components: num_components(graph),
        degrees: degree_stats(graph),
        weights: weight_stats(graph),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi, GeneratorConfig};
    use crate::GraphBuilder;

    #[test]
    fn components_of_disconnected_graph() {
        let mut b = GraphBuilder::new(5);
        b.add_edge_idx(0, 1, 1);
        b.add_edge_idx(2, 3, 1);
        let g = b.build();
        assert_eq!(num_components(&g), 3); // {0,1}, {2,3}, {4}
    }

    #[test]
    fn components_of_connected_graph() {
        let g = erdos_renyi(64, 0.2, GeneratorConfig::unit(1));
        assert_eq!(num_components(&g), 1);
    }

    #[test]
    fn degree_stats_on_star() {
        let mut b = GraphBuilder::new(5);
        for i in 1..5 {
            b.add_edge_idx(0, i, 1);
        }
        let g = b.build();
        let d = degree_stats(&g);
        assert_eq!(d.min, 1);
        assert_eq!(d.max, 4);
        assert!((d.mean - 1.6).abs() < 1e-9);
        assert_eq!(d.median, 1);
    }

    #[test]
    fn weight_stats_basic() {
        let mut b = GraphBuilder::new(3);
        b.add_edge_idx(0, 1, 2);
        b.add_edge_idx(1, 2, 6);
        let g = b.build();
        let w = weight_stats(&g).unwrap();
        assert_eq!(w.min, 2);
        assert_eq!(w.max, 6);
        assert!((w.mean - 4.0).abs() < 1e-9);
    }

    #[test]
    fn weight_stats_empty_graph() {
        let g = GraphBuilder::new(3).build();
        assert!(weight_stats(&g).is_none());
    }

    #[test]
    fn full_report() {
        let g = erdos_renyi(50, 0.1, GeneratorConfig::uniform(2, 1, 10));
        let r = report(&g);
        assert_eq!(r.num_nodes, 50);
        assert_eq!(r.num_components, 1);
        assert!(r.degrees.max >= r.degrees.min);
        let w = r.weights.unwrap();
        assert!(w.min >= 1 && w.max <= 10);
    }

    #[test]
    fn empty_graph_report() {
        let g = GraphBuilder::new(0).build();
        let r = report(&g);
        assert_eq!(r.num_nodes, 0);
        assert_eq!(r.num_components, 0);
        assert_eq!(r.degrees.mean, 0.0);
    }
}
