//! The (ε, k)-CDG sketch (Theorem 4.6, after Chan–Dinitz–Gupta).
//!
//! Construction (Lemma 4.5): sample an ε-density net `N`, then run the
//! distributed Thorup–Zwick construction with the level hierarchy restricted
//! to `N` (ground set `A_0 = N`, per-level sampling probability
//! `((10/ε) ln n)^{-1/k}`).  Every node `u ∈ V` — not just the net nodes —
//! ends up with a well-defined label: its pivots `p_i(u) ∈ A_i ⊆ N`, its
//! bunches `B_i(u) ⊆ N`, and the exact distances to them.  In particular
//! `p_0(u)` is exactly the closest net node `u'` with its distance
//! `d(u, u')`, so the paper's separate "super-source Bellman–Ford" step is
//! subsumed by phase 0 of the restricted construction.
//!
//! **Deviation from the paper (ARCHITECTURE.md, *CDG deviation*):** the
//! paper defines the sketch of `u` as `(u', d(u, u'), L(u'))` — the label
//! of the *net node* — which would require shipping `L(u')` from `u'` to
//! `u`, a routing step the paper does not account for.  We instead keep `u`'s *own*
//! net-restricted label, which the construction already delivers to `u`, has
//! the same asymptotic size, and satisfies the same `(8k − 1)`-stretch
//! ε-slack guarantee (the triangle-inequality argument of Section 4 goes
//! through verbatim with `u`'s own pivots in place of `u'`'s).

use crate::distributed::{self, DistributedTzConfig};
use crate::error::SketchError;
use crate::flat::{FlatSketchSet, Freeze, QueryRule};
use crate::hierarchy::Hierarchy;
use crate::oracle::{check_nodes, DistanceOracle};
use crate::query::{estimate_distance, estimate_distance_best_common};
use crate::sketch::SketchSet;
use crate::slack::density_net::DensityNet;
use congest_sim::RunStats;
use netgraph::{Distance, Graph, NodeId};

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
    pub fn level_probability(&self, num_nodes: usize) -> f64 {
        if self.k <= 1 {
            return 0.0;
        }
        let bound = 10.0 / self.eps * (num_nodes.max(2) as f64).ln();
        bound.max(2.0).powf(-1.0 / self.k as f64).clamp(0.0, 1.0)
    }

    /// Validate.
    pub fn validate(&self) -> Result<(), SketchError> {
        // The upper bound keeps `8k − 1` (and every level, a `u32`) in range
        // for parameters read from a snapshot.
        if self.k == 0 || u32::try_from(self.k).is_err() {
            return Err(SketchError::InvalidParameters(
                "k must be in 1..=u32::MAX".into(),
            ));
        }
        if !(self.eps > 0.0 && self.eps <= 1.0) {
            return Err(SketchError::InvalidParameters(format!(
                "epsilon must be in (0, 1], got {}",
                self.eps
            )));
        }
        Ok(())
    }
}

/// The result of a CDG construction.
#[derive(Debug, Clone)]
pub struct CdgSketchSet {
    /// Parameters the sketches were built with.
    pub params: CdgParams,
    /// The sampled density net.
    pub net: DensityNet,
    /// The net-restricted hierarchy.
    pub hierarchy: Hierarchy,
    /// Per-node labels (pivots and bunches live inside the net).
    pub sketches: SketchSet,
    /// Simulation cost.
    pub stats: RunStats,
}

impl CdgSketchSet {
    /// Estimate `d(u, v)` with the Lemma 3.2 level walk over the
    /// net-restricted labels.
    pub fn estimate(&self, u: NodeId, v: NodeId) -> Result<Distance, SketchError> {
        estimate_distance(self.sketches.sketch(u), self.sketches.sketch(v))
    }

    /// Estimate using the best common landmark (never worse than
    /// [`CdgSketchSet::estimate`]).
    pub fn estimate_best(&self, u: NodeId, v: NodeId) -> Result<Distance, SketchError> {
        estimate_distance_best_common(self.sketches.sketch(u), self.sketches.sketch(v))
    }

    /// The closest net node to `u` and its distance (`p_0(u)`).
    pub fn closest_net_node(&self, u: NodeId) -> Option<(NodeId, Distance)> {
        self.sketches.sketch(u).pivot(0)
    }

    /// Maximum label size in words.
    pub fn max_words(&self) -> usize {
        self.sketches.max_words()
    }

    /// Average label size in words.
    pub fn avg_words(&self) -> f64 {
        self.sketches.avg_words()
    }
}

impl Freeze for CdgSketchSet {
    /// Freeze to a best-common-landmark oracle, matching the map-path
    /// [`DistanceOracle`] impl ([`CdgSketchSet::estimate_best`]).
    fn freeze(&self) -> FlatSketchSet {
        FlatSketchSet::single_layer(
            &self.sketches,
            QueryRule::BestCommon,
            "cdg",
            Some(self.params.stretch()),
        )
    }
}

impl DistanceOracle for CdgSketchSet {
    /// Queries use the best-common-landmark rule
    /// ([`CdgSketchSet::estimate_best`]), which is never worse than the
    /// Lemma 3.2 level walk and satisfies the same `(8k − 1)` ε-slack bound.
    fn estimate(&self, u: NodeId, v: NodeId) -> Result<Distance, SketchError> {
        check_nodes(self.sketches.len(), u, v)?;
        self.estimate_best(u, v)
    }

    fn num_nodes(&self) -> usize {
        self.sketches.len()
    }

    fn words(&self, u: NodeId) -> usize {
        self.sketches.sketch(u).words()
    }

    fn scheme_name(&self) -> &'static str {
        "cdg"
    }

    /// Theorem 4.6's `8k − 1` bound, covering the ε-far pairs.
    fn stretch_bound(&self) -> Option<u64> {
        Some(self.params.stretch())
    }
}

/// The Theorem 4.6 construction: sample the net, restrict the hierarchy to
/// it, run the distributed Thorup–Zwick engine.  Crate-internal engine
/// behind [`crate::scheme::CdgScheme`].
pub(crate) fn build(
    graph: &Graph,
    params: CdgParams,
    config: DistributedTzConfig,
) -> Result<CdgSketchSet, SketchError> {
    params.validate()?;
    let n = graph.num_nodes();
    let net = DensityNet::sample_nonempty(n, params.eps, params.seed)?;
    let hierarchy = sample_net_hierarchy(n, &net, params)?;
    let result = distributed::build_with_hierarchy(graph, hierarchy, config)?;
    Ok(CdgSketchSet {
        params,
        net,
        hierarchy: result.hierarchy,
        sketches: result.sketches,
        stats: result.stats,
    })
}

/// The direct parallel counterpart of [`build`]: identical sampling (net +
/// net-restricted hierarchy from the same seed), then the shared parallel
/// Thorup–Zwick engine [`crate::build::thorup_zwick`] instead of the
/// CONGEST simulation.  Construction engine behind
/// [`crate::scheme::BuildEngine::Parallel`] for [`crate::scheme::CdgScheme`].
pub(crate) fn build_direct(
    graph: &Graph,
    params: CdgParams,
    threads: usize,
) -> Result<(CdgSketchSet, crate::parallel::BuildTimings), SketchError> {
    params.validate()?;
    let n = graph.num_nodes();
    let net = DensityNet::sample_nonempty(n, params.eps, params.seed)?;
    let hierarchy = sample_net_hierarchy(n, &net, params)?;
    let built = crate::build::thorup_zwick(graph, &hierarchy, threads);
    Ok((
        CdgSketchSet {
            params,
            net,
            hierarchy,
            sketches: built.sketches,
            stats: RunStats::default(),
        },
        built.timings,
    ))
}

/// Sample the net-restricted hierarchy, retrying seeds (and, as a last
/// resort, lowering `k`) until the top level is non-empty, as the paper's
/// high-probability analysis assumes.
fn sample_net_hierarchy(
    num_nodes: usize,
    net: &DensityNet,
    params: CdgParams,
) -> Result<Hierarchy, SketchError> {
    let mut k = params.k;
    loop {
        let probability = CdgParams { k, ..params }.level_probability(num_nodes);
        for attempt in 0..200u64 {
            let h = Hierarchy::sample_on_ground_set(
                num_nodes,
                net.members(),
                k,
                probability,
                params.seed.wrapping_add(attempt).wrapping_mul(0x9E37_79B9),
            )?;
            if h.top_level_nonempty() {
                return Ok(h);
            }
        }
        if k == 1 {
            return Err(SketchError::InvalidParameters(
                "could not sample a usable net hierarchy".into(),
            ));
        }
        k -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{CdgScheme, SchemeConfig, SketchScheme};
    use crate::slack::is_eps_far;
    use netgraph::apsp::DistanceTable;
    use netgraph::generators::{erdos_renyi, grid, ring, GeneratorConfig};

    fn build_scheme(graph: &Graph, params: CdgParams) -> CdgSketchSet {
        CdgScheme::new(params.eps, params.k)
            .build(graph, &SchemeConfig::default().with_seed(params.seed))
            .unwrap()
            .sketches
    }

    fn check_cdg(graph: &Graph, params: CdgParams) -> CdgSketchSet {
        let table = DistanceTable::exact(graph);
        let result = build_scheme(graph, params);
        let bound = params.stretch();
        for (u, v, exact) in table.pairs() {
            if let Ok(est) = result.estimate(u, v) {
                assert!(est >= exact, "underestimate for ({u},{v})");
                if is_eps_far(&table, u, v, params.eps) {
                    assert!(
                        est <= bound * exact,
                        "CDG stretch violated for ({u},{v}): est {est}, exact {exact}, bound {bound}"
                    );
                }
            } else {
                // A missing estimate is only acceptable for pairs that are
                // not eps-far (the slack).
                assert!(!is_eps_far(&table, u, v, params.eps));
            }
        }
        result
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
        for u in g.nodes() {
            let (closest, dist) = result.closest_net_node(u).expect("net is nonempty");
            let exact_min = result
                .net
                .members()
                .iter()
                .map(|&w| table.distance(u, w))
                .min()
                .unwrap();
            assert_eq!(dist, exact_min, "closest-net distance wrong at {u}");
            assert!(result.net.contains(closest));
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
        assert!(result.max_words() <= 2 * (result.net.len() + params.k));
        for s in result.sketches.iter() {
            for &(member, _) in s.bunch() {
                assert!(result.net.contains(member), "bunch member outside the net");
            }
        }
    }

    #[test]
    fn params_validation_and_accessors() {
        assert!(CdgParams::new(0.5, 0).validate().is_err());
        assert!(CdgParams::new(0.0, 2).validate().is_err());
        assert!(CdgParams::new(2.0, 2).validate().is_err());
        let p = CdgParams::new(0.25, 3).with_seed(7);
        assert!(p.validate().is_ok());
        assert_eq!(p.stretch(), 23);
        assert_eq!(p.seed, 7);
        let prob = p.level_probability(1000);
        assert!(prob > 0.0 && prob < 1.0);
        assert_eq!(CdgParams::new(0.25, 1).level_probability(1000), 0.0);
    }
}
