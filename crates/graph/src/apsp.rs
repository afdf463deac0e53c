//! Ground-truth distance tables: all-pairs (dense) and sampled-pairs modes.
//!
//! The stretch evaluation in the experiment harness compares sketch estimates
//! against exact distances.  For small graphs we materialize the full
//! `n × n` table; for larger graphs we evaluate a uniformly sampled set of
//! pairs, which is an unbiased estimator of average stretch and a lower bound
//! probe for worst-case stretch.

use crate::csr::{Graph, NodeId};
use crate::shortest_path::multi_source_dijkstra;
use crate::{Distance, INFINITY};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Dense all-pairs distance table.
#[derive(Debug, Clone)]
pub struct DistanceTable {
    n: usize,
    dist: Vec<Distance>,
}

impl DistanceTable {
    /// Compute the exact all-pairs table by running Dijkstra from every node.
    ///
    /// Memory is `n^2` words; intended for graphs up to a few thousand nodes
    /// (the scale of the experiment harness).
    pub fn exact(graph: &Graph) -> Self {
        let n = graph.num_nodes();
        let mut dist = vec![INFINITY; n * n];
        for u in graph.nodes() {
            let tree = multi_source_dijkstra(graph, &[u]);
            dist[u.index() * n..(u.index() + 1) * n].copy_from_slice(&tree.dist);
        }
        DistanceTable { n, dist }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Exact distance between `u` and `v`.
    #[inline]
    pub fn distance(&self, u: NodeId, v: NodeId) -> Distance {
        self.dist[u.index() * self.n + v.index()]
    }

    /// Row of distances from `u`.
    pub fn row(&self, u: NodeId) -> &[Distance] {
        &self.dist[u.index() * self.n..(u.index() + 1) * self.n]
    }

    /// True if every pair is at finite distance (graph is connected).
    pub fn is_connected(&self) -> bool {
        self.dist.iter().all(|&d| d != INFINITY)
    }

    /// Iterator over all unordered pairs `(u, v)` with `u < v` and their
    /// exact distances.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId, Distance)> + '_ {
        (0..self.n).flat_map(move |u| {
            ((u + 1)..self.n).map(move |v| {
                (
                    NodeId::from_index(u),
                    NodeId::from_index(v),
                    self.dist[u * self.n + v],
                )
            })
        })
    }

    /// For node `u`, the number of nodes strictly closer to `u` than `v` is.
    ///
    /// This is the quantity that decides whether `v` is ε-far from `u`
    /// (Section 4 of the paper): `v` is ε-far from `u` iff
    /// `|{w : d(u,w) < d(u,v)}| ≥ ε n`.
    fn rank_of(&self, u: NodeId, v: NodeId) -> usize {
        let duv = self.distance(u, v);
        self.row(u).iter().filter(|&&d| d < duv).count()
    }

    /// True if `v` is ε-far from `u` per the paper's definition.
    pub fn is_eps_far(&self, u: NodeId, v: NodeId, eps: f64) -> bool {
        let threshold = (eps * self.n as f64).ceil() as usize;
        self.rank_of(u, v) >= threshold
    }
}

/// A set of sampled query pairs with their exact distances.
#[derive(Debug, Clone)]
pub struct SampledPairs {
    /// `(u, v, d(u, v))` triples with `u != v`.
    pub pairs: Vec<(NodeId, NodeId, Distance)>,
}

impl SampledPairs {
    /// Sample `count` pairs uniformly (with replacement over pairs, without
    /// `u == v`), computing their exact distances with per-source Dijkstra.
    ///
    /// Sources are batched so each distinct `u` runs Dijkstra once.
    pub fn uniform(graph: &Graph, count: usize, seed: u64) -> Self {
        let n = graph.num_nodes();
        if n < 2 || count == 0 {
            return SampledPairs { pairs: Vec::new() };
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let all: Vec<NodeId> = graph.nodes().collect();

        // Draw pairs.
        let mut raw: Vec<(NodeId, NodeId)> = Vec::with_capacity(count);
        while raw.len() < count {
            let u = *all.choose(&mut rng).expect("n >= 2");
            let v = *all.choose(&mut rng).expect("n >= 2");
            if u != v {
                raw.push((u, v));
            }
        }

        // Group by source.
        let mut by_source: std::collections::BTreeMap<NodeId, Vec<NodeId>> =
            std::collections::BTreeMap::new();
        for (u, v) in raw {
            by_source.entry(u).or_default().push(v);
        }

        let mut pairs = Vec::with_capacity(count);
        for (u, targets) in by_source {
            let tree = multi_source_dijkstra(graph, &[u]);
            for v in targets {
                pairs.push((u, v, tree.distance(v)));
            }
        }
        SampledPairs { pairs }
    }

    /// Number of sampled pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if no pairs were sampled.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path5() -> Graph {
        let mut b = GraphBuilder::new(5);
        for i in 0..4 {
            b.add_edge_idx(i, i + 1, (i + 1) as u64);
        }
        b.build()
    }

    #[test]
    fn exact_table_matches_manual_distances() {
        let g = path5();
        let t = DistanceTable::exact(&g);
        // weights 1,2,3,4 along the path
        assert_eq!(t.distance(NodeId(0), NodeId(4)), 10);
        assert_eq!(t.distance(NodeId(1), NodeId(3)), 5);
        assert_eq!(t.distance(NodeId(2), NodeId(2)), 0);
        assert!(t.is_connected());
        assert_eq!(t.num_nodes(), 5);
    }

    #[test]
    fn table_is_symmetric() {
        let g = path5();
        let t = DistanceTable::exact(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(t.distance(u, v), t.distance(v, u));
            }
        }
    }

    #[test]
    fn pairs_iterator_counts_all_unordered_pairs() {
        let g = path5();
        let t = DistanceTable::exact(&g);
        let pairs: Vec<_> = t.pairs().collect();
        assert_eq!(pairs.len(), 10);
        assert!(pairs.iter().all(|&(u, v, _)| u < v));
    }

    #[test]
    fn rank_and_eps_far() {
        let g = path5();
        let t = DistanceTable::exact(&g);
        // From node 0 distances are [0,1,3,6,10]; rank of node 4 is 4.
        assert_eq!(t.rank_of(NodeId(0), NodeId(4)), 4);
        assert_eq!(t.rank_of(NodeId(0), NodeId(1)), 1);
        assert!(t.is_eps_far(NodeId(0), NodeId(4), 0.5)); // 4 >= ceil(2.5)=3
        assert!(!t.is_eps_far(NodeId(0), NodeId(1), 0.5)); // 1 < 3
    }

    #[test]
    fn disconnected_table_reports_infinity() {
        let mut b = GraphBuilder::new(3);
        b.add_edge_idx(0, 1, 1);
        let g = b.build();
        let t = DistanceTable::exact(&g);
        assert!(!t.is_connected());
        assert_eq!(t.distance(NodeId(0), NodeId(2)), INFINITY);
    }

    #[test]
    fn sampled_pairs_match_exact_table() {
        let g = path5();
        let t = DistanceTable::exact(&g);
        let s = SampledPairs::uniform(&g, 20, 7);
        assert_eq!(s.len(), 20);
        assert!(!s.is_empty());
        for &(u, v, d) in &s.pairs {
            assert_ne!(u, v);
            assert_eq!(d, t.distance(u, v));
        }
    }

    #[test]
    fn sampled_pairs_edge_cases() {
        let g = GraphBuilder::new(1).build();
        assert!(SampledPairs::uniform(&g, 5, 1).is_empty());
        let g2 = path5();
        assert!(SampledPairs::uniform(&g2, 0, 1).is_empty());
    }
}
