//! The landmark baseline the sketches are compared against in the
//! experiment harness.
//!
//! [`LandmarkSketch`] picks `L` uniformly random landmarks; every node
//! stores its distance to each of them, and a query estimates
//! `min_ℓ d(u, ℓ) + d(ℓ, v)`.  This is the folklore baseline that the
//! ε-density-net construction of Theorem 4.3 refines (the net gives a
//! provable 3-stretch ε-slack bound; uniform landmarks give no worst-case
//! guarantee).  The exact side of a comparison is
//! [`DistanceTable`](netgraph::apsp::DistanceTable), the full distance
//! vector at every node that the introduction dismisses as infeasible at
//! scale.

use crate::error::SketchError;
use netgraph::shortest_path::multi_source_dijkstra;
use netgraph::{Distance, Graph, NodeId, INFINITY};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Uniform-landmark sketch baseline.
#[derive(Debug, Clone)]
pub struct LandmarkSketch {
    landmarks: Vec<NodeId>,
    /// `dist[l][u]` — distance from landmark `l` (by index) to node `u`.
    dist: Vec<Vec<Distance>>,
}

impl LandmarkSketch {
    /// Pick `num_landmarks` uniformly at random (seeded) and precompute the
    /// distances from each of them.
    pub fn build(graph: &Graph, num_landmarks: usize, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut nodes: Vec<NodeId> = graph.nodes().collect();
        nodes.shuffle(&mut rng);
        let landmarks: Vec<NodeId> = nodes.into_iter().take(num_landmarks.max(1)).collect();
        let dist = landmarks
            .iter()
            .map(|&l| multi_source_dijkstra(graph, &[l]).dist)
            .collect();
        LandmarkSketch { landmarks, dist }
    }

    /// The chosen landmarks.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Estimate `d(u, v) ≈ min_ℓ d(u, ℓ) + d(ℓ, v)`.
    pub fn estimate(&self, u: NodeId, v: NodeId) -> Result<Distance, SketchError> {
        if u == v {
            return Ok(0);
        }
        let mut best = INFINITY;
        for row in &self.dist {
            let (du, dv) = (row[u.index()], row[v.index()]);
            if du != INFINITY && dv != INFINITY {
                best = best.min(du.saturating_add(dv));
            }
        }
        if best == INFINITY {
            Err(SketchError::NoCommonLandmark { u, v })
        } else {
            Ok(best)
        }
    }

    /// Per-node storage in words (id + distance per landmark).
    pub fn words_per_node(&self) -> usize {
        2 * self.landmarks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_pairs;
    use netgraph::apsp::DistanceTable;
    use netgraph::generators::{erdos_renyi, ring, GeneratorConfig};

    #[test]
    fn landmark_estimates_are_upper_bounds() {
        let g = erdos_renyi(60, 0.1, GeneratorConfig::uniform(7, 1, 20));
        let sketch = LandmarkSketch::build(&g, 8, 5);
        let table = DistanceTable::exact(&g);
        for (u, v, exact) in table.pairs() {
            let est = sketch.estimate(u, v).unwrap();
            assert!(est >= exact);
        }
        assert_eq!(sketch.words_per_node(), 16);
        assert_eq!(sketch.landmarks().len(), 8);
    }

    #[test]
    fn landmark_self_distance_is_zero() {
        let g = ring(10, GeneratorConfig::unit(1));
        let sketch = LandmarkSketch::build(&g, 2, 1);
        assert_eq!(sketch.estimate(NodeId(3), NodeId(3)).unwrap(), 0);
    }

    #[test]
    fn more_landmarks_do_not_hurt_accuracy() {
        let g = erdos_renyi(70, 0.08, GeneratorConfig::uniform(11, 1, 25));
        let table = DistanceTable::exact(&g);
        let pairs: Vec<_> = table.pairs().collect();
        let few = LandmarkSketch::build(&g, 2, 9);
        let many = LandmarkSketch::build(&g, 20, 9);
        let report_few = evaluate_pairs(&pairs, |u, v| few.estimate(u, v));
        let report_many = evaluate_pairs(&pairs, |u, v| many.estimate(u, v));
        assert!(report_many.average <= report_few.average + 1e-9);
    }

    #[test]
    fn landmark_determinism() {
        let g = erdos_renyi(40, 0.1, GeneratorConfig::uniform(2, 1, 9));
        let a = LandmarkSketch::build(&g, 5, 7);
        let b = LandmarkSketch::build(&g, 5, 7);
        assert_eq!(a.landmarks(), b.landmarks());
    }
}
