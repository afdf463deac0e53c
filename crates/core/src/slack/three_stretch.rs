//! 3-stretch sketches with ε-slack (Theorem 4.3).
//!
//! The construction is: sample an ε-density net `N` (Lemma 4.2), then run the
//! k-source distributed Bellman–Ford with the net nodes as sources so every
//! node learns its distance to *every* net node.  The sketch of `u` is the
//! list `{(w, d(u, w)) : w ∈ N}` — `O((1/ε) log n)` words — and the estimate
//! for a pair `(u, v)` is `min_{w ∈ N} d(u, w) + d(w, v)`, which is at most
//! `3 · d(u, v)` whenever `v` is ε-far from `u`.

use crate::error::SketchError;
use crate::parallel::{parallel_map, resolve_threads, BuildTimings};
use crate::scheme::{Layer, SchemeConfig};
use crate::sketch::{BunchEntry, Sketch, SketchSet};
use crate::slack::density_net::DensityNet;
use congest_sim::programs::bellman_ford::KSourceBellmanFord;
use congest_sim::{Network, RunStats};
use netgraph::shortest_path::multi_source_dijkstra;
use netgraph::{Distance, Graph, NodeId, INFINITY};
use std::time::Instant;

/// The one layer of a Theorem 4.3 set: per-node labels of a single level —
/// every node's distance to every net node, the nearest as its pivot —
/// over the sampled net, with the construction's cost.
fn layer(net: DensityNet, sketches: Vec<Sketch>, stats: RunStats) -> Layer {
    Layer {
        sketches: SketchSet::new(sketches),
        hierarchy: None,
        net: Some(net),
        params: None,
        stats,
    }
}

/// The Theorem 4.3 construction on the CONGEST engine: sample the net, run
/// the k-source Bellman–Ford from it, assemble per-node sketches.  A single
/// flood, so `config.sync` does not apply.  The engine behind
/// [`crate::scheme::SchemeSpec::ThreeStretch`] on
/// [`crate::scheme::BuildEngine::Congest`].
pub(crate) fn build(graph: &Graph, eps: f64, config: &SchemeConfig) -> Result<Layer, SketchError> {
    let n = graph.num_nodes();
    let net = DensityNet::sample_nonempty(n, eps, config.seed)?;
    let mut network = Network::new(graph, config.congest, |u| {
        KSourceBellmanFord::new(u, net.contains(u))
    });
    let outcome = network.run_until_quiescent(config.max_rounds);
    if !outcome.completed {
        return Err(SketchError::RoundLimitExceeded {
            limit: config.max_rounds,
        });
    }

    let sketches: Vec<Sketch> = network
        .programs()
        .iter()
        .map(|p| {
            // The table is already the label: a run ascending by net node.
            let table = p.distances();
            let pivot = table.iter().min_by_key(|&(node, dist)| (dist, node));
            let bunch = table.iter().map(|(node, distance)| {
                let entry = BunchEntry { level: 0, distance };
                (node, entry)
            });
            Sketch::from_sorted_parts(p.node(), vec![pivot], bunch.collect())
        })
        .collect();

    Ok(layer(net, sketches, outcome.stats))
}

/// The direct parallel counterpart of [`build`]: one exact exploration per
/// net node (the seeds are independent, so the batch runs on the
/// [`crate::parallel`] pool), merged into per-node sketches in net order.
/// Produces exactly the sketches of the simulated k-source Bellman–Ford —
/// both record, at every node, the exact distance to every reachable net
/// node, with ties between closest net nodes broken toward the smaller id.
/// The engine behind [`crate::scheme::SchemeSpec::ThreeStretch`] on
/// [`crate::scheme::BuildEngine::Parallel`].
pub(crate) fn build_direct(
    graph: &Graph,
    eps: f64,
    config: &SchemeConfig,
) -> Result<(Layer, BuildTimings), SketchError> {
    let n = graph.num_nodes();
    let net = DensityNet::sample_nonempty(n, eps, config.seed)?;
    let mut timings = BuildTimings::new(resolve_threads(config.threads));

    let started = Instant::now();
    let distances: Vec<Vec<Distance>> = parallel_map(config.threads, net.members(), |_, &w| {
        multi_source_dijkstra(graph, &[w]).dist
    });
    timings.record("3stretch/net-explorations", net.len(), started);

    let started = Instant::now();
    let sketches: Vec<Sketch> = (0..n)
        .map(|ui| {
            let mut sketch = Sketch::new(NodeId::from_index(ui), 1);
            let mut best: Option<(NodeId, Distance)> = None;
            for (wi, &w) in net.members().iter().enumerate() {
                let dist = distances[wi][ui];
                if dist == INFINITY {
                    continue;
                }
                sketch.insert_bunch(w, 0, dist);
                if best.is_none_or(|(_, d)| dist < d) {
                    best = Some((w, dist));
                }
            }
            if let Some((node, dist)) = best {
                sketch.set_pivot(0, node, dist);
            }
            sketch
        })
        .collect();
    timings.record("3stretch/merge", n, started);

    Ok((layer(net, sketches, RunStats::default()), timings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::DistanceOracle;
    use crate::query::estimate_distance_best_common;
    use crate::slack::is_eps_far;
    use congest_sim::CongestConfig;
    use netgraph::apsp::DistanceTable;
    use netgraph::generators::{erdos_renyi, grid, GeneratorConfig};

    fn build_scheme(graph: &Graph, eps: f64, seed: u64, congest: CongestConfig) -> Layer {
        let config = SchemeConfig::default()
            .with_seed(seed)
            .with_congest(congest);
        build(graph, eps, &config).unwrap()
    }

    fn check_slack_stretch(graph: &Graph, eps: f64, seed: u64) {
        let table = DistanceTable::exact(graph);
        let layer = build_scheme(graph, eps, seed, CongestConfig::strict());
        let sketches = &layer.sketches;
        for (u, v, exact) in table.pairs() {
            let est =
                estimate_distance_best_common(sketches.sketch(u), sketches.sketch(v)).unwrap();
            assert!(est >= exact, "underestimate for ({u},{v})");
            if is_eps_far(&table, u, v, eps) {
                assert!(
                    est <= 3 * exact,
                    "slack stretch violated for eps-far pair ({u},{v}): est {est}, exact {exact}"
                );
            }
        }
    }

    #[test]
    fn stretch_three_with_slack_on_random_graph() {
        let g = erdos_renyi(80, 0.08, GeneratorConfig::uniform(3, 1, 20));
        check_slack_stretch(&g, 0.3, 4);
    }

    #[test]
    fn stretch_three_with_slack_on_grid() {
        let g = grid(9, 9, GeneratorConfig::uniform(5, 1, 10));
        check_slack_stretch(&g, 0.25, 8);
    }

    #[test]
    fn sketch_size_tracks_net_size() {
        let g = erdos_renyi(150, 0.06, GeneratorConfig::uniform(9, 1, 15));
        let result = build_scheme(&g, 0.3, 2, CongestConfig::strict());
        let (net, max_words) = (result.net.unwrap(), result.sketches.max_words());
        // Every sketch stores one entry per reachable net node: 2 words each,
        // plus 2 pivot words.
        assert!(max_words <= 2 * net.len() + 2);
        assert!(max_words >= net.len());
    }

    #[test]
    fn distances_to_net_nodes_are_exact() {
        let g = grid(6, 6, GeneratorConfig::uniform(7, 1, 6));
        let table = DistanceTable::exact(&g);
        let result = build_scheme(&g, 0.4, 3, CongestConfig::strict());
        for u in g.nodes() {
            let sketch = result.sketches.sketch(u);
            for &w in result.net.as_ref().unwrap().members() {
                assert_eq!(sketch.bunch_distance(w), Some(table.distance(u, w)));
            }
        }
    }

    #[test]
    fn invalid_epsilon_is_rejected() {
        let g = grid(3, 3, GeneratorConfig::unit(1));
        assert!(build(&g, 0.0, &SchemeConfig::default()).is_err());
        assert!(build_direct(&g, 0.0, &SchemeConfig::default()).is_err());
    }

    #[test]
    fn round_limit_is_enforced() {
        let g = grid(8, 8, GeneratorConfig::unit(1));
        let err = build(
            &g,
            0.2,
            &SchemeConfig::default().with_seed(1).with_max_rounds(1),
        );
        assert!(matches!(err, Err(SketchError::RoundLimitExceeded { .. })));
    }
}
