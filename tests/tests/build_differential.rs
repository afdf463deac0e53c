//! Differential test of both Thorup–Zwick engines against an independent
//! model of what they must produce.
//!
//! The direct engine (`dsketch::build::thorup_zwick`) grows clusters by
//! Dijkstra, the CONGEST engine (`dsketch::distributed::build_with_hierarchy`,
//! under either sync mode) floods them by Algorithm 2, and both hand them
//! to one parallel transpose that writes every label as one sorted run.  The
//! reference here is the construction they replaced, kept deliberately naive:
//! clusters straight from the definition over exact all-pairs distances,
//! merged one `(u, w)` pair at a time into a `BTreeMap` per node under the
//! `insert_bunch` rule (smallest distance wins, lowest level on a tie).
//! Each build must agree with it label for label — pivots, members,
//! distances, order — for every generator, every `k`, every thread count,
//! on disconnected inputs, with an empty top level and on a CDG
//! net-restricted hierarchy.
//! The model also keeps the level it merged each member at, which the
//! labels no longer store: it must be the member's sampled level, the one
//! the codec writes.

use dsketch::build::thorup_zwick;
use dsketch::distributed::build_with_hierarchy;
use dsketch::hierarchy::{Hierarchy, TzParams};
use dsketch::scheme::SchemeConfig;
use dsketch::sketch::{DistKey, SketchSet};
use dsketch::slack::density_net::DensityNet;
use netgraph::apsp::DistanceTable;
use netgraph::generators::{
    balanced_tree, erdos_renyi, erdos_renyi_gnm, grid, preferential_attachment, random_geometric,
    random_tree, ring, ring_with_chords, torus, waxman, GeneratorConfig,
};
use netgraph::{Distance, Graph, GraphBuilder, NodeId, INFINITY};
use proptest::prelude::*;
use std::collections::BTreeMap;

const THREADS: [usize; 4] = [1, 2, 3, 8];

/// One label of the reference model.
#[derive(Debug, Default)]
struct ModelLabel {
    pivots: Vec<Option<(NodeId, Distance)>>,
    /// Per member, `(level, distance)`.
    bunch: BTreeMap<NodeId, (u32, Distance)>,
}

impl ModelLabel {
    /// The map-based `insert_bunch` the labels used to be built with.
    fn insert_bunch(&mut self, node: NodeId, level: u32, distance: Distance) {
        let entry = self.bunch.entry(node).or_insert((level, distance));
        if distance < entry.1 {
            *entry = (level, distance);
        } else if distance == entry.1 {
            entry.0 = entry.0.min(level);
        }
    }
}

/// The labels of `hierarchy` on `graph`, from the definitions of
/// Section 3.1 over exact distances.
fn reference_labels(graph: &Graph, hierarchy: &Hierarchy) -> Vec<ModelLabel> {
    let n = graph.num_nodes();
    let k = hierarchy.k();
    let table = DistanceTable::exact(graph);

    // key(u, A_i) = min over w ∈ A_i of (d(u, w), w); A_k = ∅.
    let mut pivot_keys: Vec<Vec<DistKey>> = (0..k)
        .map(|i| {
            let members = hierarchy.level_members(i);
            graph
                .nodes()
                .map(|u| {
                    members
                        .iter()
                        .map(|&w| DistKey::new(table.distance(u, w), w))
                        .filter(|key| !key.is_infinite())
                        .min()
                        .unwrap_or(DistKey::INFINITE)
                })
                .collect()
        })
        .collect();
    pivot_keys.push(vec![DistKey::INFINITE; n]);

    let mut labels: Vec<ModelLabel> = (0..n).map(|_| ModelLabel::default()).collect();
    for (u, label) in labels.iter_mut().enumerate() {
        label.pivots = (0..k)
            .map(|level| pivot_keys[level][u])
            .map(|key| (!key.is_infinite()).then_some((key.node, key.distance)))
            .collect();
    }
    // The merge, in work-list order: every source `w ∈ A_i \ A_{i+1}`, level
    // by level; C(w) = { u reachable : (d(w, u), w) < key(u, A_{i+1}) }.
    for level in 0..k {
        for w in hierarchy.exact_level_members(level) {
            for u in graph.nodes() {
                let distance = table.distance(w, u);
                if distance != INFINITY
                    && DistKey::new(distance, w) < pivot_keys[level + 1][u.index()]
                {
                    labels[u.index()].insert_bunch(w, level as u32, distance);
                }
            }
        }
    }
    labels
}

/// Build on the direct engine at every thread count, and on the CONGEST
/// engine under both sync modes at each of `congest_threads`, and compare
/// each label with the model.
fn assert_engines_match_model(
    name: &str,
    graph: &Graph,
    hierarchy: &Hierarchy,
    congest_threads: &[usize],
) {
    let model = reference_labels(graph, hierarchy);
    let pairs: usize = model.iter().map(|label| label.bunch.len()).sum();
    let k = hierarchy.k();
    for threads in THREADS {
        let built = thorup_zwick(graph, hierarchy, threads);
        let context = format!("{name}, k = {k}, threads = {threads}");
        assert_eq!(built.total_cluster_size, pairs, "{context}");
        assert_labels_match_model(&context, &built.sketches, hierarchy, &model);
    }
    for &threads in congest_threads {
        let config = SchemeConfig::default().with_threads(threads);
        for config in [config, config.with_termination_detection()] {
            let (sketches, _) =
                build_with_hierarchy(graph, hierarchy, &config).expect("CONGEST build");
            let context = format!("{name}, k = {k}, threads = {threads}, {:?}", config.sync);
            assert_labels_match_model(&context, &sketches, hierarchy, &model);
        }
    }
}

/// Every label of `sketches` against the model's.
fn assert_labels_match_model(
    context: &str,
    sketches: &SketchSet,
    hierarchy: &Hierarchy,
    model: &[ModelLabel],
) {
    assert_eq!(sketches.len(), model.len(), "{context}");
    sketches.check_invariants().expect("label invariants");
    for (sketch, expected) in sketches.labels().zip(model) {
        let owner = sketch.owner;
        assert_eq!(sketch.k(), hierarchy.k(), "{context}: k of {owner}");
        let pivots: Vec<_> = (0..sketch.k()).map(|level| sketch.pivot(level)).collect();
        assert_eq!(pivots, expected.pivots, "{context}: pivots of {owner}");
        let bunch: Vec<(NodeId, Distance)> =
            expected.bunch.iter().map(|(&w, &(_, d))| (w, d)).collect();
        assert_eq!(
            sketch.bunch().collect::<Vec<_>>(),
            bunch,
            "{context}: bunch of {owner}"
        );
        for (&w, &(level, _)) in &expected.bunch {
            assert_eq!(
                i64::from(level),
                i64::from(hierarchy.level_of(w)),
                "{context}: level of {w} in the bunch of {owner}"
            );
        }
    }
}

/// One small instance of every `netgraph` generator.
fn every_generator(seed: u64) -> Vec<(&'static str, Graph)> {
    let weighted = GeneratorConfig::uniform(seed, 1, 40);
    vec![
        ("erdos_renyi", erdos_renyi(44, 0.12, weighted)),
        (
            "erdos_renyi_unit",
            erdos_renyi(44, 0.12, GeneratorConfig::unit(seed)),
        ),
        ("erdos_renyi_gnm", erdos_renyi_gnm(40, 90, weighted)),
        ("random_geometric", random_geometric(40, 0.3, weighted)),
        ("grid", grid(6, 7, weighted)),
        ("torus", torus(5, 6, GeneratorConfig::unit(seed))),
        ("preferential", preferential_attachment(42, 2, weighted)),
        ("ring", ring(36, weighted)),
        ("ring_with_chords", ring_with_chords(36, 5, 3, weighted)),
        ("balanced_tree", balanced_tree(40, 3, weighted)),
        ("random_tree", random_tree(40, weighted)),
        ("waxman", waxman(40, 0.6, 0.4, weighted)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn engine_matches_the_insert_based_model_on_every_generator(seed in 0u64..10_000) {
        for (name, graph) in every_generator(seed) {
            for k in 1..=4usize {
                let params = TzParams::new(k).with_seed(seed ^ 0x5EED);
                let hierarchy = Hierarchy::sample(graph.num_nodes(), &params).unwrap();
                // The CONGEST engine spawns its workers every round: one
                // thread count a `k`, so each generator meets all four.
                assert_engines_match_model(name, &graph, &hierarchy, &[THREADS[k - 1]]);
            }
        }
    }
}

/// Two components and an isolated node: pivots of unreachable levels stay
/// empty and no bunch crosses a component.
#[test]
fn engine_matches_the_model_on_disconnected_inputs() {
    let mut builder = GraphBuilder::new(23);
    for i in 0..11 {
        builder.add_edge_idx(i, (i + 1) % 12, 1 + (i as u64 * 7) % 5);
    }
    builder.add_edge_idx(0, 6, 2);
    for i in 12..21 {
        builder.add_edge_idx(i, i + 1, 3);
    }
    builder.add_edge_idx(12, 17, 4);
    let graph = builder.build(); // node 22 is isolated
    for k in 1..=4usize {
        for seed in 0..4u64 {
            let hierarchy = Hierarchy::sample(23, &TzParams::new(k).with_seed(seed)).unwrap();
            assert_engines_match_model("disconnected", &graph, &hierarchy, &THREADS);
        }
    }
}

/// `A_{k-1} = ∅`: the top pivot row is empty and level `k − 2` clusters are
/// unbounded.  Also the degenerate all-empty hierarchy.
#[test]
fn engine_matches_the_model_with_an_empty_top_level() {
    let graph = erdos_renyi(30, 0.15, GeneratorConfig::uniform(8, 1, 20));
    let levels: Vec<i32> = (0..30).map(|v| if v % 5 == 0 { 1 } else { 0 }).collect();
    let hierarchy = Hierarchy::from_levels(levels, 3).unwrap();
    assert!(!hierarchy.top_level_nonempty());
    assert_engines_match_model("empty top level", &graph, &hierarchy, &THREADS);

    let nobody = Hierarchy::from_levels(vec![-1; 30], 2).unwrap();
    assert_engines_match_model("empty ground set", &graph, &nobody, &THREADS);
}

/// The CDG shape: the ground set is a density net, every other node sits at
/// level −1 and owns no cluster, yet still receives a full label.
#[test]
fn engine_matches_the_model_on_a_net_restricted_hierarchy() {
    let graph = erdos_renyi(48, 0.1, GeneratorConfig::uniform(3, 1, 25));
    let net = DensityNet::from_members(48, 0.3, (0..48).step_by(3).map(NodeId).collect());
    for seed in 0..4u64 {
        for k in 1..=3usize {
            let hierarchy =
                Hierarchy::sample_on_ground_set(48, net.members(), k, 0.4, seed).unwrap();
            assert_eq!(hierarchy.level_members(0), net.members());
            assert_engines_match_model("net-restricted", &graph, &hierarchy, &THREADS);
        }
    }
}
