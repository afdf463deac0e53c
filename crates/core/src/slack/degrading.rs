//! Gracefully degrading sketches (Theorem 4.8) and the constant-average-
//! stretch corollary (Corollary 4.9 / Theorem 1.3).
//!
//! A sketching scheme is *gracefully degrading* with stretch `f(ε)` if a
//! single sketch simultaneously has stretch `f(ε)` with ε-slack for **every**
//! `ε ∈ (0, 1)`.  The paper's construction is a union of `⌈log n⌉` CDG
//! sketches, one per `ε_i = 2^{-i}` with `k_i = O(log(1/ε_i)) = O(i)`; the
//! query takes the minimum of the per-layer estimates.  Lemma 4.7 then shows
//! that `O(log 1/ε)`-stretch graceful degradation implies `O(log n)`
//! worst-case stretch and `O(1)` average stretch.

use crate::error::SketchError;
use crate::parallel::{resolve_threads, BuildTimings};
use crate::scheme::{Layer, SchemeConfig};
use crate::slack::cdg::{self, CdgParams};
use netgraph::Graph;

/// Parameters of the gracefully degrading construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradingParams {
    /// Sampling seed (each layer derives its own sub-seed).
    pub seed: u64,
    /// Optional cap on the number of layers (default `⌈log₂ n⌉`).
    pub max_layers: Option<usize>,
    /// Optional cap on each layer's `k` (useful to keep tiny test graphs
    /// fast); `None` uses the paper's `k_i = i`.
    pub max_k: Option<usize>,
}

impl DegradingParams {
    /// Default parameters with the given seed.
    pub fn new(seed: u64) -> Self {
        DegradingParams {
            seed,
            max_layers: None,
            max_k: None,
        }
    }

    /// The layer specifications `(ε_i, k_i)` for a graph of `n` nodes.
    pub fn layers(&self, n: usize) -> Vec<CdgParams> {
        let log_n = ((n.max(2) as f64).log2().ceil() as usize).max(1);
        let count = self.max_layers.unwrap_or(log_n).min(log_n).max(1);
        (1..=count)
            .map(|i| {
                let eps = 0.5f64.powi(i as i32);
                let k = match self.max_k {
                    Some(cap) => i.min(cap),
                    None => i,
                }
                .max(1);
                CdgParams::new(eps, k)
                    .with_seed(self.seed.wrapping_add(i as u64).wrapping_mul(0xD1B5_4A33))
            })
            .collect()
    }
}

/// The Theorem 4.8 layered construction on the CONGEST engine, one
/// [`cdg::build`] per slack scale `ε_i = 2^{-i}`.  The engine behind
/// [`crate::scheme::SchemeSpec::Degrading`] on
/// [`crate::scheme::BuildEngine::Congest`].
pub(crate) fn build(
    graph: &Graph,
    params: DegradingParams,
    config: &SchemeConfig,
) -> Result<Vec<Layer>, SketchError> {
    let layers = params.layers(graph.num_nodes()).into_iter();
    layers
        .map(|layer| cdg::build(graph, layer, config))
        .collect()
}

/// The direct parallel counterpart of [`build`]: the same layer schedule,
/// each layer built by [`cdg::build_direct`] (layers share the seed
/// derivation, so sampling is identical to the simulated path).  The engine
/// behind [`crate::scheme::SchemeSpec::Degrading`] on
/// [`crate::scheme::BuildEngine::Parallel`].
pub(crate) fn build_direct(
    graph: &Graph,
    params: DegradingParams,
    config: &SchemeConfig,
) -> Result<(Vec<Layer>, BuildTimings), SketchError> {
    let n = graph.num_nodes();
    let mut layers = Vec::new();
    let mut timings = BuildTimings::new(resolve_threads(config.threads));
    for (index, layer_params) in params.layers(n).into_iter().enumerate() {
        let (layer, layer_timings) = cdg::build_direct(graph, layer_params, config)?;
        timings.absorb_prefixed(&format!("layer{index}/"), layer_timings);
        layers.push(layer);
    }
    Ok((layers, timings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::DistanceOracle;
    use crate::query::estimate_distance_best_common;
    use crate::scheme::{SchemeSpec, StoredSketches};
    use netgraph::apsp::DistanceTable;
    use netgraph::generators::{erdos_renyi, grid, GeneratorConfig};
    use netgraph::NodeId;

    fn build_scheme(graph: &Graph, params: DegradingParams) -> StoredSketches {
        let layers = build(graph, params, &SchemeConfig::default()).unwrap();
        let (max_layers, max_k) = (params.max_layers, params.max_k);
        let spec = SchemeSpec::Degrading { max_layers, max_k };
        StoredSketches { spec, layers }
    }

    fn average_and_worst_stretch(graph: &Graph, sketches: &StoredSketches) -> (f64, f64) {
        let table = DistanceTable::exact(graph);
        let mut total = 0.0;
        let mut count = 0usize;
        let mut worst: f64 = 0.0;
        for (u, v, exact) in table.pairs() {
            let est = sketches.estimate(u, v).unwrap();
            assert!(est >= exact);
            let stretch = est as f64 / exact as f64;
            total += stretch;
            count += 1;
            worst = worst.max(stretch);
        }
        (total / count as f64, worst)
    }

    #[test]
    fn layer_schedule_follows_powers_of_two() {
        let p = DegradingParams::new(3);
        let layers = p.layers(256);
        assert_eq!(layers.len(), 8);
        assert!((layers[0].eps - 0.5).abs() < 1e-12);
        assert!((layers[3].eps - 0.0625).abs() < 1e-12);
        assert_eq!(layers[0].k, 1);
        assert_eq!(layers[5].k, 6);
        // max_k caps each layer's k.
        let capped = DegradingParams {
            max_k: Some(3),
            ..p
        }
        .layers(256);
        assert!(capped.iter().all(|l| l.k <= 3));
        // max_layers caps the layer count.
        let fewer = DegradingParams {
            max_layers: Some(4),
            ..p
        }
        .layers(256);
        assert_eq!(fewer.len(), 4);
    }

    #[test]
    fn average_stretch_is_small_on_random_graph() {
        let g = erdos_renyi(80, 0.08, GeneratorConfig::uniform(13, 1, 20));
        let sketches = build_scheme(
            &g,
            DegradingParams {
                max_k: Some(3),
                ..DegradingParams::new(5)
            },
        );
        let (avg, worst) = average_and_worst_stretch(&g, &sketches);
        // Corollary 4.9: O(1) average stretch, O(log n) worst case.  For an
        // 80-node graph "O(1)" should comfortably be below 4 and the worst
        // case below 8 log2(80) ≈ 50.
        assert!(avg < 4.0, "average stretch too large: {avg}");
        assert!(worst < 50.0, "worst-case stretch too large: {worst}");
    }

    #[test]
    fn average_stretch_is_small_on_grid() {
        let g = grid(8, 8, GeneratorConfig::uniform(7, 1, 10));
        let sketches = build_scheme(
            &g,
            DegradingParams {
                max_k: Some(3),
                ..DegradingParams::new(2)
            },
        );
        let (avg, worst) = average_and_worst_stretch(&g, &sketches);
        assert!(avg < 4.0, "average stretch too large: {avg}");
        assert!(worst < 48.0, "worst-case stretch too large: {worst}");
    }

    #[test]
    fn degrading_estimate_never_worse_than_coarsest_layer() {
        let g = erdos_renyi(60, 0.1, GeneratorConfig::uniform(3, 1, 12));
        let sketches = build_scheme(
            &g,
            DegradingParams {
                max_k: Some(2),
                ..DegradingParams::new(9)
            },
        );
        for u in g.nodes().take(10) {
            for v in g.nodes().skip(30).take(10) {
                if u == v {
                    continue;
                }
                let combined = sketches.estimate(u, v).unwrap();
                for layer in &sketches.layers {
                    let (su, sv) = (layer.sketches.sketch(u), layer.sketches.sketch(v));
                    if let Ok(layer_est) = estimate_distance_best_common(su, sv) {
                        assert!(combined <= layer_est);
                    }
                }
            }
        }
    }

    #[test]
    fn size_accounting_sums_layers() {
        let g = erdos_renyi(64, 0.1, GeneratorConfig::uniform(21, 1, 8));
        let sketches = build_scheme(
            &g,
            DegradingParams {
                max_k: Some(2),
                max_layers: Some(3),
                ..DegradingParams::new(4)
            },
        );
        assert_eq!(sketches.layers.len(), 3);
        let u = NodeId(5);
        let manual: usize = sketches
            .layers
            .iter()
            .map(|l| l.sketches.sketch(u).words())
            .sum();
        assert_eq!(sketches.words(u), manual);
        assert!(sketches.max_words() >= manual);
        assert!(sketches.layers.iter().all(|l| l.stats.rounds > 0));
    }
}
