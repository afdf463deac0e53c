//! The (ε, k)-CDG sketch (Theorem 4.6, after Chan–Dinitz–Gupta).
//!
//! Construction (Lemma 4.5): sample an ε-density net `N`, then run the
//! Thorup–Zwick construction with the level hierarchy restricted to `N`
//! (ground set `A_0 = N`, per-level sampling probability
//! `((10/ε) ln n)^{-1/k}`).  Every node `u ∈ V` — not just the net nodes —
//! ends up with a well-defined label: its pivots `p_i(u) ∈ A_i ⊆ N`, its
//! bunches `B_i(u) ⊆ N`, and the exact distances to them.  In particular
//! `p_0(u)` is exactly the closest net node `u'` with its distance
//! `d(u, u')`, so the paper's separate "super-source Bellman–Ford" step is
//! subsumed by phase 0 of the restricted construction.
//!
//! This module holds the parameters and the sampler
//! (`sample_net_hierarchy`); [`crate::scheme::SchemeSpec::build_sketches`]
//! builds the labels on the sampled hierarchy with the engine every family
//! shares.  At `k = 1` the hierarchy is the net alone and its one phase is
//! a single flood from every net node with no threshold — the 3-stretch
//! sketch of Theorem 4.3, which is built exactly so; each gracefully
//! degrading layer ([`super::degrading`]) is one more sampling.
//!
//! **Deviation from the paper (ARCHITECTURE.md, *CDG deviation*):** the
//! paper defines the sketch of `u` as `(u', d(u, u'), L(u'))` — the label
//! of the *net node* — which would require shipping `L(u')` from `u'` to
//! `u`, a routing step the paper does not account for.  We instead keep `u`'s *own*
//! net-restricted label, which the construction already delivers to `u`, has
//! the same asymptotic size, and satisfies the same `(8k − 1)`-stretch
//! ε-slack guarantee (the triangle-inequality argument of Section 4 goes
//! through verbatim with `u`'s own pivots in place of `u'`'s).

use crate::error::SketchError;
use crate::hierarchy::Hierarchy;
use crate::slack::density_net::DensityNet;

/// Parameters of a CDG sketch construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdgParams {
    /// Slack parameter ε ∈ (0, 1].
    pub eps: f64,
    /// Level count `k ≥ 1`; the guaranteed stretch for ε-far pairs is `8k − 1`.
    pub k: usize,
    /// Sampling seed (density net and hierarchy).
    pub seed: u64,
}

impl CdgParams {
    /// Construct parameters.
    pub fn new(eps: f64, k: usize) -> Self {
        CdgParams { eps, k, seed: 0 }
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The paper's stretch guarantee `8k − 1` for ε-far pairs.
    pub fn stretch(&self) -> u64 {
        8 * self.k as u64 - 1
    }

    /// The paper's per-level sampling probability `((10/ε) ln n)^{-1/k}`.
    fn level_probability(&self, num_nodes: usize) -> f64 {
        if self.k <= 1 {
            return 0.0;
        }
        let bound = 10.0 / self.eps * (num_nodes.max(2) as f64).ln();
        bound.max(2.0).powf(-1.0 / self.k as f64).clamp(0.0, 1.0)
    }
}

/// Sample one layer of the construction from `params.seed`: the ε-density
/// net, then the `k`-level hierarchy restricted to it — its `A_0` is the
/// net — retrying seeds until the top level is non-empty, as the paper's
/// high-probability analysis assumes, and refusing, like the Thorup–Zwick
/// sampler, when no attempt gets there (a lower `k` would be labels the
/// spec does not describe).  The labels built on the hierarchy keep their
/// pivots and bunches inside the net.
pub(crate) fn sample_net_hierarchy(
    num_nodes: usize,
    params: CdgParams,
) -> Result<Hierarchy, SketchError> {
    const ATTEMPTS: u64 = 200;
    let net = DensityNet::sample_nonempty(num_nodes, params.eps, params.seed)?;
    let probability = params.level_probability(num_nodes);
    for attempt in 0..ATTEMPTS {
        let h = Hierarchy::sample_on_ground_set(
            num_nodes,
            net.members(),
            params.k,
            probability,
            params.seed.wrapping_add(attempt).wrapping_mul(0x9E37_79B9),
        )?;
        if h.top_level_nonempty() {
            return Ok(h);
        }
    }
    Err(SketchError::InvalidParameters(format!(
        "could not sample a non-empty top level of a k = {} hierarchy over a \
         {}-node density net in {ATTEMPTS} attempts",
        params.k,
        net.len()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::estimate_distance;
    use crate::scheme::{Layer, SchemeConfig, SchemeSpec};
    use netgraph::apsp::DistanceTable;
    use netgraph::generators::{erdos_renyi, grid, ring, GeneratorConfig};
    use netgraph::Graph;

    fn build_scheme(graph: &Graph, params: CdgParams) -> Layer {
        let spec = SchemeSpec::cdg(params.eps, params.k);
        let config = SchemeConfig::default().with_seed(params.seed);
        let mut built = spec.build_sketches(graph, &config).unwrap().sketches;
        built.layers.remove(0)
    }

    /// The Lemma 3.2 level walk over the net-restricted labels holds the
    /// `8k − 1` bound on ε-far pairs.
    fn check_cdg(graph: &Graph, params: CdgParams) {
        let table = DistanceTable::exact(graph);
        let sketches = build_scheme(graph, params).sketches;
        let bound = params.stretch();
        for (u, v, exact) in table.pairs() {
            if let Ok(est) = estimate_distance(sketches.label(u), sketches.label(v)) {
                assert!(est >= exact, "underestimate for ({u},{v})");
                if table.is_eps_far(u, v, params.eps) {
                    assert!(
                        est <= bound * exact,
                        "CDG stretch violated for ({u},{v}): est {est}, exact {exact}, bound {bound}"
                    );
                }
            } else {
                // A missing estimate is only acceptable for pairs that are
                // not eps-far (the slack).
                assert!(!table.is_eps_far(u, v, params.eps));
            }
        }
    }

    #[test]
    fn stretch_with_slack_on_random_graph() {
        let g = erdos_renyi(90, 0.08, GeneratorConfig::uniform(3, 1, 20));
        check_cdg(&g, CdgParams::new(0.2, 2).with_seed(4));
    }

    #[test]
    fn stretch_with_slack_on_grid() {
        let g = grid(8, 8, GeneratorConfig::uniform(5, 1, 10));
        check_cdg(&g, CdgParams::new(0.25, 2).with_seed(9));
    }

    #[test]
    fn stretch_with_slack_on_ring_k1() {
        let g = ring(40, GeneratorConfig::uniform(2, 1, 6));
        check_cdg(&g, CdgParams::new(0.3, 1).with_seed(1));
    }

    #[test]
    fn closest_net_node_matches_exact_distances() {
        let g = erdos_renyi(70, 0.1, GeneratorConfig::uniform(7, 1, 15));
        let table = DistanceTable::exact(&g);
        let params = CdgParams::new(0.3, 2).with_seed(3);
        let result = build_scheme(&g, params);
        let net = result.hierarchy.level_members(0);
        for u in g.nodes() {
            // p_0(u) is the closest net node.
            let (closest, dist) = result.sketches.label(u).pivot(0).expect("net is nonempty");
            let exact_min = net.iter().map(|&w| table.distance(u, w)).min().unwrap();
            assert_eq!(dist, exact_min, "closest-net distance wrong at {u}");
            assert!(net.contains(&closest));
        }
    }

    #[test]
    fn sketch_size_shrinks_with_smaller_k_of_net() {
        // With a fixed eps, the CDG sketch must be far smaller than the full
        // n-node TZ bunch structure: entries only reference net nodes.
        let n = 200;
        let g = erdos_renyi(n, 0.05, GeneratorConfig::uniform(11, 1, 10));
        let params = CdgParams::new(0.2, 2).with_seed(5);
        let result = build_scheme(&g, params);
        let net = result.hierarchy.level_members(0);
        for s in result.sketches.labels() {
            assert!(s.words() <= 2 * (net.len() + params.k));
            for member in s.bunch_nodes {
                assert!(net.contains(member), "bunch member outside the net");
            }
        }
    }

    #[test]
    fn params_validation_and_accessors() {
        // The one check of a CDG spec's parameters is its spec's.
        assert!(SchemeSpec::cdg(0.5, 0).validate().is_err());
        assert!(SchemeSpec::cdg(0.0, 2).validate().is_err());
        assert!(SchemeSpec::cdg(2.0, 2).validate().is_err());
        assert!(SchemeSpec::cdg(0.25, 3).validate().is_ok());
        let p = CdgParams::new(0.25, 3).with_seed(7);
        assert_eq!(p.stretch(), 23);
        assert_eq!(p.seed, 7);
        let prob = p.level_probability(1000);
        assert!(prob > 0.0 && prob < 1.0);
        assert_eq!(CdgParams::new(0.25, 1).level_probability(1000), 0.0);
    }
}
