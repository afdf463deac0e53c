//! Metric completion of a node subset.
//!
//! Lemma 4.5 of the paper argues that running the restricted Thorup–Zwick
//! construction on `G` with the level hierarchy confined to a subset `N`
//! gives the net nodes "a sketch that is exactly equal to the sketch they
//! would have if we ran Algorithm 2 on the metric completion of `N`".  The
//! metric completion is the complete graph on `N` whose edge weights are the
//! exact shortest-path distances in `G`; this module materializes it so the
//! claim can be checked directly (see the `lemma_4_5_metric_completion`
//! integration test in the `dsketch` crate).

use crate::csr::{Graph, NodeId};
use crate::shortest_path::multi_source_dijkstra;
use crate::{GraphBuilder, INFINITY};

/// The metric completion of `subset` in `graph`, together with the mapping
/// between original node ids and the completion's dense ids.
#[derive(Debug, Clone)]
pub struct MetricCompletion {
    /// The complete weighted graph on the subset (dense ids `0..subset.len()`).
    pub graph: Graph,
    /// `original[i]` is the original id of completion node `i`.
    pub original: Vec<NodeId>,
}

impl MetricCompletion {
    /// Build the metric completion of `subset` (must be non-empty and
    /// pairwise connected in `graph`; unreachable pairs simply get no edge).
    pub fn build(graph: &Graph, subset: &[NodeId]) -> Self {
        let original: Vec<NodeId> = subset.to_vec();
        let m = original.len();
        let mut builder = GraphBuilder::with_capacity(m, m * m / 2);
        for (i, &u) in original.iter().enumerate() {
            let tree = multi_source_dijkstra(graph, &[u]);
            for (j, &v) in original.iter().enumerate().skip(i + 1) {
                let d = tree.distance(v);
                if d != INFINITY {
                    builder.add_edge_idx(i, j, d);
                }
            }
        }
        MetricCompletion {
            graph: builder.build(),
            original,
        }
    }

    /// The original id of a completion-local node.
    pub fn original_id(&self, local: NodeId) -> NodeId {
        self.original[local.index()]
    }

    /// Number of subset nodes.
    pub fn len(&self) -> usize {
        self.original.len()
    }

    /// True if the subset was empty.
    pub fn is_empty(&self) -> bool {
        self.original.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apsp::DistanceTable;
    use crate::generators::{erdos_renyi, ring, GeneratorConfig};

    #[test]
    fn completion_edges_are_exact_distances() {
        let g = erdos_renyi(50, 0.12, GeneratorConfig::uniform(3, 1, 20));
        let subset: Vec<NodeId> = (0..10).map(|i| NodeId(i * 5)).collect();
        let completion = MetricCompletion::build(&g, &subset);
        let table = DistanceTable::exact(&g);
        assert_eq!(completion.len(), 10);
        for i in 0..10 {
            for j in (i + 1)..10 {
                let (u, v) = (subset[i], subset[j]);
                let w = completion
                    .graph
                    .edge_weight(NodeId::from_index(i), NodeId::from_index(j))
                    .unwrap();
                assert_eq!(w, table.distance(u, v));
            }
        }
    }

    #[test]
    fn completion_preserves_shortest_path_distances() {
        // Distances inside the completion equal distances in the original
        // graph (the completion is a metric, so direct edges are shortest).
        let g = ring(30, GeneratorConfig::uniform(7, 1, 9));
        let subset: Vec<NodeId> = vec![NodeId(0), NodeId(7), NodeId(15), NodeId(22)];
        let completion = MetricCompletion::build(&g, &subset);
        let inner = DistanceTable::exact(&completion.graph);
        let outer = DistanceTable::exact(&g);
        for i in 0..subset.len() {
            for j in 0..subset.len() {
                assert_eq!(
                    inner.distance(NodeId::from_index(i), NodeId::from_index(j)),
                    outer.distance(subset[i], subset[j])
                );
            }
        }
    }

    #[test]
    fn id_mapping_round_trips() {
        let g = ring(12, GeneratorConfig::unit(1));
        let subset = vec![NodeId(2), NodeId(5), NodeId(9)];
        let completion = MetricCompletion::build(&g, &subset);
        assert!(!completion.is_empty());
        assert_eq!(completion.original, subset);
        for (i, &orig) in subset.iter().enumerate() {
            assert_eq!(completion.original_id(NodeId::from_index(i)), orig);
        }
    }

    #[test]
    fn disconnected_pairs_get_no_edge() {
        let mut b = GraphBuilder::new(4);
        b.add_edge_idx(0, 1, 3);
        b.add_edge_idx(2, 3, 4);
        let g = b.build();
        let completion = MetricCompletion::build(&g, &[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(completion.graph.num_edges(), 1);
        assert!(completion.graph.edge_weight(NodeId(0), NodeId(2)).is_none());
    }
}
