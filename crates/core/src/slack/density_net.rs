//! ε-density nets (Definition 4.1 and Lemma 4.2).
//!
//! A set `N ⊆ V` is an ε-density net if (1) every node `u` has a net node
//! within distance `R(u, ε)` — the radius of the smallest ball around `u`
//! containing at least `εn` nodes — and (2) `|N| ≤ (10/ε) ln n`.
//!
//! Lemma 4.2 observes that independent sampling with probability
//! `5 ln n / (ε n)` satisfies both properties with high probability, and that
//! this is a *zero-round* distributed construction: every node flips its coin
//! locally.  [`DensityNet::sample`] mirrors that exactly (with the same
//! clamping to probability 1 when `ε ≤ 5 ln n / n`).

use crate::error::SketchError;
use netgraph::apsp::DistanceTable;
use netgraph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// An ε-density net: the sampled set of net nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DensityNet {
    /// The slack parameter ε the net was sampled for.
    eps_times_1000: u64,
    members: Vec<NodeId>,
    num_nodes: usize,
}

impl DensityNet {
    /// Sample an ε-density net over `n` nodes (Lemma 4.2): every node joins
    /// independently with probability `min(1, 5 ln n / (ε n))`.
    ///
    /// In the distributed setting this takes zero communication; here the
    /// sampling is performed centrally from a seed so experiments are
    /// reproducible, which is observationally identical.
    pub fn sample(num_nodes: usize, eps: f64, seed: u64) -> Result<Self, SketchError> {
        if !(eps > 0.0 && eps <= 1.0) {
            return Err(SketchError::InvalidParameters(format!(
                "epsilon must be in (0, 1], got {eps}"
            )));
        }
        let n = num_nodes.max(1) as f64;
        let p = (5.0 * n.ln() / (eps * n)).min(1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let members: Vec<NodeId> = (0..num_nodes)
            .filter(|_| rng.gen_bool(p))
            .map(NodeId::from_index)
            .collect();
        Ok(DensityNet::from_members(num_nodes, eps, members))
    }

    /// Sample, retrying with successive seeds until the net is non-empty
    /// (an empty net is useless and has probability `≤ 1/n^5`).
    pub fn sample_nonempty(num_nodes: usize, eps: f64, seed: u64) -> Result<Self, SketchError> {
        let mut s = seed;
        for _ in 0..1000 {
            let net = Self::sample(num_nodes, eps, s)?;
            if !net.is_empty() {
                return Ok(net);
            }
            s = s.wrapping_add(1);
        }
        Err(SketchError::InvalidParameters(format!(
            "could not sample a non-empty {eps}-density net over {num_nodes} nodes"
        )))
    }

    /// Build a net from an explicit member list (tests, replay).
    pub fn from_members(num_nodes: usize, eps: f64, members: Vec<NodeId>) -> Self {
        DensityNet {
            eps_times_1000: (eps * 1000.0).round() as u64,
            members,
            num_nodes,
        }
    }

    /// The slack parameter ε.
    pub fn eps(&self) -> f64 {
        self.eps_times_1000 as f64 / 1000.0
    }

    /// The net nodes.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Number of net nodes `|N|`.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the net is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of nodes in the underlying network.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// True if `v` is a net node.
    pub fn contains(&self, v: NodeId) -> bool {
        self.members.binary_search(&v).is_ok()
    }

    /// The Lemma 4.2 size bound `(10/ε) ln n`.
    pub fn size_bound(&self) -> f64 {
        10.0 / self.eps() * (self.num_nodes.max(2) as f64).ln()
    }

    /// Check Definition 4.1 against exact distances: returns the number of
    /// nodes whose closest net node is farther than `R(u, ε)` (property 1
    /// violations) and whether the size bound (property 2) holds.
    ///
    /// Used by experiment E6; the paper proves both hold w.h.p.
    pub fn verify(&self, graph: &Graph, table: &DistanceTable) -> DensityNetReport {
        let n = graph.num_nodes();
        let eps = self.eps();
        let threshold = ((eps * n as f64).ceil() as usize).max(1);
        let mut coverage_violations = 0usize;
        for u in graph.nodes() {
            // R(u, ε): distance to the threshold-th closest node (the ball
            // must contain at least εn nodes, counting u itself).
            let mut row: Vec<_> = table.row(u).to_vec();
            row.sort_unstable();
            let radius = row[threshold.saturating_sub(1).min(n - 1)];
            let closest_net = self
                .members
                .iter()
                .map(|&w| table.distance(u, w))
                .min()
                .unwrap_or(netgraph::INFINITY);
            if closest_net > radius {
                coverage_violations += 1;
            }
        }
        DensityNetReport {
            size: self.len(),
            size_bound: self.size_bound(),
            coverage_violations,
        }
    }
}

/// Result of checking a sampled net against Definition 4.1.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityNetReport {
    /// `|N|`.
    pub size: usize,
    /// The Lemma 4.2 bound `(10/ε) ln n`.
    pub size_bound: f64,
    /// Number of nodes not covered within their `R(u, ε)` radius.
    pub coverage_violations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators::{erdos_renyi, grid, GeneratorConfig};

    #[test]
    fn rejects_bad_epsilon() {
        assert!(DensityNet::sample(100, 0.0, 1).is_err());
        assert!(DensityNet::sample(100, -0.5, 1).is_err());
        assert!(DensityNet::sample(100, 1.5, 1).is_err());
    }

    #[test]
    fn tiny_epsilon_includes_everyone() {
        // ε ≤ 5 ln n / n ⇒ sampling probability 1.
        let net = DensityNet::sample(100, 0.01, 3).unwrap();
        assert_eq!(net.len(), 100);
        assert!(net.contains(NodeId(57)));
    }

    #[test]
    fn size_concentrates_around_expectation() {
        // n = 2000, ε = 0.2: E|N| = 5 ln(2000) / 0.2 ≈ 190.
        let net = DensityNet::sample(2000, 0.2, 7).unwrap();
        let expected = 5.0 * (2000f64).ln() / 0.2;
        assert!(
            (net.len() as f64) > 0.5 * expected,
            "net too small: {}",
            net.len()
        );
        assert!(
            (net.len() as f64) < 2.0 * expected,
            "net too large: {}",
            net.len()
        );
        assert!((net.len() as f64) <= net.size_bound());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = DensityNet::sample(500, 0.1, 11).unwrap();
        let b = DensityNet::sample(500, 0.1, 11).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.eps(), 0.1);
        assert_eq!(a.num_nodes(), 500);
    }

    #[test]
    fn verify_on_random_graph() {
        let n = 200;
        let g = erdos_renyi(n, 0.08, GeneratorConfig::uniform(3, 1, 20));
        let table = DistanceTable::exact(&g);
        let net = DensityNet::sample_nonempty(n, 0.25, 5).unwrap();
        let report = net.verify(&g, &table);
        assert_eq!(report.coverage_violations, 0, "{report:?}");
        assert!(report.size as f64 <= report.size_bound, "{report:?}");
    }

    #[test]
    fn verify_on_grid() {
        let g = grid(12, 12, GeneratorConfig::unit(2));
        let table = DistanceTable::exact(&g);
        let net = DensityNet::sample_nonempty(144, 0.3, 9).unwrap();
        let report = net.verify(&g, &table);
        assert_eq!(report.coverage_violations, 0, "{report:?}");
    }

    #[test]
    fn from_members_and_contains() {
        let net = DensityNet::from_members(10, 0.5, vec![NodeId(2), NodeId(7)]);
        assert!(net.contains(NodeId(2)));
        assert!(!net.contains(NodeId(3)));
        assert_eq!(net.members(), &[NodeId(2), NodeId(7)]);
        assert!(!net.is_empty());
    }

    #[test]
    fn sample_nonempty_never_returns_empty() {
        for seed in 0..5 {
            let net = DensityNet::sample_nonempty(50, 1.0, seed).unwrap();
            assert!(!net.is_empty());
        }
    }
}
