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
//!
//! The layer schedule is [`crate::scheme::SchemeSpec::schedule`]'s, a
//! function of the spec and `n`; this module holds the one thing it does
//! not say, each layer's sampling seed (`layer_seed`).
//! [`crate::scheme::SchemeSpec::build_sketches`] samples one CDG layer per
//! entry (`cdg::sample_net_hierarchy`) and builds them all with the
//! engine every family shares.

/// The sampling seed of layer `i` (1-based) of a build from `seed`: each
/// layer draws its net and hierarchy from a seed of its own.
pub(crate) fn layer_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i).wrapping_mul(0xD1B5_4A33)
}

#[cfg(test)]
mod tests {
    use crate::oracle::DistanceOracle;
    use crate::query::estimate_distance_best_common;
    use crate::scheme::{SchemeConfig, SchemeSpec, StoredSketches};
    use netgraph::apsp::DistanceTable;
    use netgraph::generators::{erdos_renyi, grid, GeneratorConfig};
    use netgraph::{Graph, NodeId};

    /// The degrading build from `seed` with each layer's `k` capped at
    /// `max_k`.
    fn build_scheme(graph: &Graph, seed: u64, max_k: usize) -> StoredSketches {
        let spec = SchemeSpec::Degrading {
            max_layers: None,
            max_k: Some(max_k),
        };
        let config = SchemeConfig::default().with_seed(seed);
        spec.build_sketches(graph, &config).unwrap().sketches
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
        let schedule =
            |max_layers, max_k| SchemeSpec::Degrading { max_layers, max_k }.schedule(256);
        let layers = schedule(None, None);
        assert_eq!(layers.len(), 8);
        assert!((layers[0].eps.unwrap() - 0.5).abs() < 1e-12);
        assert!((layers[3].eps.unwrap() - 0.0625).abs() < 1e-12);
        assert_eq!(layers[0].k, 1);
        assert_eq!(layers[5].k, 6);
        // max_k caps each layer's k.
        let capped = schedule(None, Some(3));
        assert!(capped.iter().all(|l| l.k <= 3));
        // max_layers caps the layer count.
        let fewer = schedule(Some(4), None);
        assert_eq!(fewer.len(), 4);
    }

    #[test]
    fn average_stretch_is_small_on_random_graph() {
        let g = erdos_renyi(80, 0.08, GeneratorConfig::uniform(13, 1, 20));
        let sketches = build_scheme(&g, 5, 3);
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
        let sketches = build_scheme(&g, 2, 3);
        let (avg, worst) = average_and_worst_stretch(&g, &sketches);
        assert!(avg < 4.0, "average stretch too large: {avg}");
        assert!(worst < 48.0, "worst-case stretch too large: {worst}");
    }

    #[test]
    fn degrading_estimate_never_worse_than_coarsest_layer() {
        let g = erdos_renyi(60, 0.1, GeneratorConfig::uniform(3, 1, 12));
        let sketches = build_scheme(&g, 9, 2);
        for u in g.nodes().take(10) {
            for v in g.nodes().skip(30).take(10) {
                if u == v {
                    continue;
                }
                let combined = sketches.estimate(u, v).unwrap();
                for layer in &sketches.layers {
                    let (su, sv) = (layer.sketches.label(u), layer.sketches.label(v));
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
        let spec = SchemeSpec::Degrading {
            max_layers: Some(3),
            max_k: Some(2),
        };
        let config = SchemeConfig::default().with_seed(4);
        let outcome = spec.build_sketches(&g, &config).unwrap();
        // The build's cost is the outcome's: no layer keeps its own.
        assert!(outcome.stats.rounds > 0);
        let sketches = outcome.sketches;
        assert_eq!(sketches.layers.len(), 3);
        let u = NodeId(5);
        let manual: usize = sketches
            .layers
            .iter()
            .map(|l| l.sketches.label(u).words())
            .sum();
        assert_eq!(sketches.words(u), manual);
        assert!(sketches.max_words() >= manual);
    }
}
