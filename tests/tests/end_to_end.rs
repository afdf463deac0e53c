//! Cross-crate integration tests: the full pipeline from topology generation
//! through the CONGEST simulation to sketch queries, exercised end-to-end on
//! every workload family through the unified scheme API.

use dsketch::distributed::build_with_hierarchy;
use dsketch::prelude::*;
use dsketch::query::estimate_distance_best_common;
use netgraph::apsp::DistanceTable;
use netgraph::diameter::diameters;
use netgraph::generators::{
    balanced_tree, erdos_renyi, grid, preferential_attachment, random_geometric, ring,
    standard_suite, waxman, GeneratorConfig,
};
use netgraph::Graph;

/// All workload families at small sizes, every one connected and weighted.
fn workload_suite() -> Vec<(&'static str, Graph)> {
    vec![
        (
            "erdos_renyi",
            erdos_renyi(72, 0.1, GeneratorConfig::uniform(3, 1, 25)),
        ),
        ("grid", grid(8, 8, GeneratorConfig::uniform(4, 1, 10))),
        ("ring", ring(48, GeneratorConfig::uniform(5, 1, 7))),
        (
            "power_law",
            preferential_attachment(64, 2, GeneratorConfig::uniform(6, 1, 40)),
        ),
        (
            "geometric",
            random_geometric(64, 0.25, GeneratorConfig::unit(7)),
        ),
        ("waxman", waxman(64, 0.4, 0.3, GeneratorConfig::unit(8))),
        (
            "tree",
            balanced_tree(63, 2, GeneratorConfig::uniform(9, 1, 12)),
        ),
    ]
}

#[test]
fn tz_stretch_guarantee_holds_on_every_family() {
    for (name, graph) in workload_suite() {
        let k = 3;
        let result = SchemeSpec::thorup_zwick(k)
            .build(&graph, &SchemeConfig::default().with_seed(11))
            .unwrap();
        let table = DistanceTable::exact(&graph);
        let bound = (2 * k - 1) as u64;
        assert_eq!(result.sketches.stretch_bound(), Some(bound));
        for (u, v, exact) in table.pairs() {
            let est = result.sketches.estimate(u, v).unwrap();
            assert!(est >= exact, "[{name}] underestimate for ({u},{v})");
            assert!(
                est <= bound * exact,
                "[{name}] stretch violated for ({u},{v}): {est} vs {exact}"
            );
        }
    }
}

#[test]
fn distributed_equals_centralized_on_every_family() {
    for (name, graph) in workload_suite() {
        let (h, _) = Hierarchy::sample_until_top_nonempty(
            graph.num_nodes(),
            &TzParams::new(3).with_seed(23),
            500,
        )
        .unwrap();
        let centralized = dsketch::build::thorup_zwick(&graph, &h, 1);
        let config = SchemeConfig::default();
        let (oracle, _) = build_with_hierarchy(&graph, &h, &config).unwrap();
        let (td, _) =
            build_with_hierarchy(&graph, &h, &config.with_termination_detection()).unwrap();
        for u in graph.nodes() {
            assert_eq!(
                centralized.sketches.label(u),
                oracle.label(u),
                "[{name}] oracle-mode mismatch at {u}"
            );
            assert_eq!(
                centralized.sketches.label(u),
                td.label(u),
                "[{name}] termination-detection mismatch at {u}"
            );
        }
    }
}

/// 3-stretch is CDG at `k = 1`, built by the same engine, so it honours
/// `SchemeConfig::sync` like every other family: under the Section 3.3
/// protocol the labels are the oracle-synchronized run's, and the cost adds
/// the BFS tree and the detection traffic.
#[test]
fn three_stretch_under_termination_detection_keeps_its_labels() {
    for (name, graph) in standard_suite(64, 5) {
        let spec = SchemeSpec::three_stretch(0.3);
        let config = SchemeConfig::default().with_seed(13);
        let oracle = spec.build_sketches(&graph, &config).unwrap();
        let detected = spec
            .build_sketches(&graph, &config.with_termination_detection())
            .unwrap();
        let (oracle_layer, detected_layer) =
            (&oracle.sketches.layers[0], &detected.sketches.layers[0]);
        assert_eq!(
            detected_layer.sketches, oracle_layer.sketches,
            "[{name}] labels"
        );
        assert_eq!(
            detected_layer.hierarchy, oracle_layer.hierarchy,
            "[{name}] hierarchy"
        );
        // The build's cost, which now includes the tree and the detection.
        assert!(
            detected.stats.messages >= oracle.stats.messages,
            "[{name}] {} < {} messages",
            detected.stats.messages,
            oracle.stats.messages
        );
    }
}

#[test]
fn construction_rounds_exceed_shortest_path_diameter_only_moderately() {
    // Sanity check of the S-dependence: the distributed construction can't
    // finish faster than information can travel (≈ S rounds for the farthest
    // cluster), and on these small graphs it stays within a polylog-ish
    // factor of the Theorem 3.8 bound.
    for (name, graph) in workload_suite() {
        let d = diameters(&graph);
        let result = SchemeSpec::thorup_zwick(2)
            .build(&graph, &SchemeConfig::default().with_seed(3))
            .unwrap();
        let n = graph.num_nodes() as f64;
        let upper = (2.0 * n.sqrt() * d.shortest_path_diameter as f64 * n.log2()).max(64.0);
        assert!(
            (result.stats.rounds as f64) < upper,
            "[{name}] rounds {} above the Theorem 3.8 ballpark {upper}",
            result.stats.rounds
        );
    }
}

#[test]
fn best_common_query_always_at_least_as_good_as_level_walk() {
    let graph = erdos_renyi(96, 0.08, GeneratorConfig::uniform(17, 1, 30));
    let result = SchemeSpec::thorup_zwick(3)
        .build_sketches(&graph, &SchemeConfig::default().with_seed(5))
        .unwrap();
    let sketches = &result.sketches.layers[0].sketches;
    let table = DistanceTable::exact(&graph);
    for (u, v, exact) in table.pairs() {
        let walk = result.sketches.estimate(u, v).unwrap();
        let best = estimate_distance_best_common(sketches.label(u), sketches.label(v)).unwrap();
        assert!(best <= walk);
        assert!(best >= exact);
    }
}

#[test]
fn slack_constructions_work_on_multiple_families() {
    for (name, graph) in workload_suite().into_iter().take(4) {
        let table = DistanceTable::exact(&graph);
        let eps = 0.3;
        let config = SchemeConfig::default().with_seed(7);

        let three = SchemeSpec::three_stretch(eps).build_sketches(&graph, &config);
        let three = three.unwrap().sketches;
        let cdg = SchemeSpec::cdg(eps, 2).build_sketches(&graph, &config);
        let cdg = cdg.unwrap().sketches;
        let cdg_labels = &cdg.layers[0].sketches;

        for (u, v, exact) in table.pairs() {
            if !table.is_eps_far(u, v, eps) {
                continue;
            }
            let t = three.estimate(u, v).unwrap();
            assert!(t >= exact && t <= 3 * exact, "[{name}] 3-stretch violated");
            // The Lemma 3.2 level walk, which the bound is proved for.
            let c = estimate_distance(cdg_labels.label(u), cdg_labels.label(v)).unwrap();
            assert!(
                c >= exact && c <= 15 * exact,
                "[{name}] CDG (8k-1 = 15) stretch violated: {c} vs {exact}"
            );
        }
        // The CDG sketch only references net nodes, so it is never larger
        // than the 3-stretch sketch that stores the whole net.
        assert!(cdg.max_words() <= three.max_words() + 2 * 2);
    }
}

#[test]
fn exact_oracle_and_landmarks_bracket_tz_accuracy() {
    use dsketch::baseline::LandmarkSketch;
    let graph = erdos_renyi(80, 0.1, GeneratorConfig::uniform(31, 1, 20));
    let landmarks = LandmarkSketch::build(&graph, 8, 2);
    let tz = SchemeSpec::thorup_zwick(2)
        .build(&graph, &SchemeConfig::default().with_seed(2))
        .unwrap();
    let table = DistanceTable::exact(&graph);
    let mut tz_sum = 0.0;
    let mut lm_sum = 0.0;
    let mut count = 0usize;
    for (u, v, exact) in table.pairs() {
        assert_eq!(table.distance(u, v), exact);
        let tz_est = tz.sketches.estimate(u, v).unwrap();
        let lm_est = landmarks.estimate(u, v).unwrap();
        assert!(tz_est >= exact && lm_est >= exact, "({u}, {v})");
        tz_sum += tz_est as f64 / exact.max(1) as f64;
        lm_sum += lm_est as f64 / exact.max(1) as f64;
        count += 1;
    }
    // TZ with k=2 stores ~sqrt(n) entries and should on average beat 8
    // arbitrary landmarks.
    assert!(tz_sum / count as f64 <= lm_sum / count as f64 + 0.5);
}
