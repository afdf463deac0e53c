//! Cross-crate equivalence contract of the frozen flat query path: for
//! every sketch family, [`FlatSketchSet`] answers **identically** to the
//! per-node `Sketch` oracle it was frozen from — same estimates, same
//! errors, same label-size accounting — for every query function, on
//! random graphs, on disconnected graphs (the `NoCommonLandmark` cases),
//! and on hand-built labels with asymmetric per-node `k`.
//!
//! Also pins the store contract: materializing a `FlatSketchSet` straight
//! from `DSK1` snapshot bytes (`load_frozen_oracle`, the cold-start path
//! that never builds a `Sketch`) yields the same value as freezing the
//! decoded sketches.

use dsketch::prelude::*;
use dsketch_store::{build_stored, read_frozen_oracle, write_snapshot, StoredSketches};
use netgraph::builder::GraphBuilder;
use netgraph::generators::{erdos_renyi, GeneratorConfig};
use netgraph::{Graph, NodeId};
use proptest::prelude::*;

fn connected_graph(n: usize, seed: u64) -> Graph {
    erdos_renyi(n, 8.0 / n as f64, GeneratorConfig::uniform(seed, 1, 50))
}

/// Two Erdős–Rényi components with no edge between them: queries across
/// the cut have no common landmark for the slack families (and for TZ when
/// the sampled top level misses a component).
fn disconnected_graph(n1: usize, n2: usize, seed: u64) -> Graph {
    let a = connected_graph(n1, seed);
    let b = connected_graph(n2, seed ^ 0x5eed);
    let mut builder = GraphBuilder::new(n1 + n2);
    for (u, v, w) in a.undirected_edges() {
        builder.add_edge(u, v, w);
    }
    for (u, v, w) in b.undirected_edges() {
        builder.add_edge_idx(u.index() + n1, v.index() + n1, w);
    }
    builder.build()
}

/// Every pair over `0..n`, plus out-of-range probes so `UnknownNode`
/// propagation is part of the contract.
fn all_pairs(n: usize) -> Vec<(NodeId, NodeId)> {
    let mut pairs: Vec<(NodeId, NodeId)> = (0..n)
        .flat_map(|u| (0..n).map(move |v| (NodeId::from_index(u), NodeId::from_index(v))))
        .collect();
    pairs.push((NodeId::from_index(n), NodeId(0)));
    pairs.push((NodeId(0), NodeId::from_index(n + 3)));
    pairs
}

/// The core contract: the frozen set equals the map-backed oracle on every
/// query function, result-for-result (errors included).
fn assert_equivalent(
    spec: SchemeSpec,
    sketches: &StoredSketches,
    fingerprint: netgraph::GraphFingerprint,
    context: &str,
) {
    let oracle = sketches.as_oracle();
    let flat = sketches.freeze();
    let n = oracle.num_nodes();

    assert_eq!(flat.num_nodes(), n, "{context}");
    assert_eq!(flat.scheme_name(), oracle.scheme_name(), "{context}");
    assert_eq!(flat.stretch_bound(), oracle.stretch_bound(), "{context}");
    assert_eq!(flat.max_words(), oracle.max_words(), "{context}");
    assert_eq!(flat.total_words(), oracle.total_words(), "{context}");

    let pairs = all_pairs(n);
    for &(u, v) in &pairs {
        assert_eq!(
            flat.estimate(u, v),
            oracle.estimate(u, v),
            "{context}: {spec} flat estimate differs at ({u}, {v})"
        );
    }
    assert_eq!(
        flat.estimate_batch(&pairs),
        oracle.estimate_batch(&pairs),
        "{context}: {spec} batch answers differ"
    );
    for u in (0..n).map(NodeId::from_index) {
        assert_eq!(flat.words(u), oracle.words(u), "{context}: {spec} at {u}");
    }

    // Per-family raw query functions over the underlying label sets: both
    // the Lemma 3.2 walk and the best-common intersection must match their
    // slice reimplementations, whichever one the family's oracle uses.
    let raw_set = match sketches {
        StoredSketches::ThorupZwick(s) => Some(&s.sketches),
        StoredSketches::ThreeStretch(s) => Some(&s.sketches),
        StoredSketches::Cdg(s) => Some(&s.sketches),
        StoredSketches::Degrading(_) => None, // layered; covered via estimate()
    };
    if let Some(set) = raw_set {
        for u in (0..n).map(NodeId::from_index) {
            for v in (0..n).map(NodeId::from_index) {
                assert_eq!(
                    flat.estimate_walk(u, v),
                    dsketch::query::estimate_distance(set.sketch(u), set.sketch(v)),
                    "{context}: {spec} walk differs at ({u}, {v})"
                );
                assert_eq!(
                    flat.estimate_best_common(u, v),
                    dsketch::query::estimate_distance_best_common(set.sketch(u), set.sketch(v)),
                    "{context}: {spec} best-common differs at ({u}, {v})"
                );
            }
        }
    }

    // The store contract: snapshot bytes → FlatSketchSet directly (no
    // `Sketch` on the way) is the same oracle.
    let contents = dsketch_store::SnapshotContents {
        spec,
        fingerprint,
        sketches: sketches.clone(),
        build_stats: None,
    };
    let mut bytes = Vec::new();
    write_snapshot(&mut bytes, &contents).expect("serialize snapshot");
    let from_disk = read_frozen_oracle(bytes.as_slice()).expect("frozen load");
    for &(u, v) in &pairs {
        assert_eq!(
            from_disk.estimate(u, v),
            flat.estimate(u, v),
            "{context}: {spec} bytes-direct decode differs at ({u}, {v})"
        );
    }
    assert_eq!(from_disk.num_nodes(), flat.num_nodes(), "{context}");
    assert_eq!(from_disk.stretch_bound(), flat.stretch_bound(), "{context}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The acceptance-criterion property: on random connected graphs, every
    /// family's frozen oracle is answer-identical to the map path for every
    /// query function.
    #[test]
    fn flat_answers_are_identical_on_random_graphs(
        (n, seed) in (20usize..44, 0u64..1_000)
    ) {
        let g = connected_graph(n, seed);
        let config = SchemeConfig::default().with_seed(seed).with_parallel_build();
        for spec in SchemeSpec::all_families() {
            let contents = build_stored(&g, spec, &config).expect("construction");
            assert_equivalent(spec, &contents.sketches, g.fingerprint(), "connected");
        }
    }

    /// Disconnected graphs: cross-component queries surface
    /// `NoCommonLandmark`, and the flat path must reproduce those errors
    /// (with the same node order) exactly.
    #[test]
    fn flat_answers_are_identical_on_disconnected_graphs(
        (n1, n2, seed) in (10usize..22, 10usize..22, 0u64..1_000)
    ) {
        let g = disconnected_graph(n1, n2, seed);
        let config = SchemeConfig::default().with_seed(seed).with_parallel_build();
        let mut cross_errors = 0usize;
        for spec in SchemeSpec::all_families() {
            let contents = build_stored(&g, spec, &config).expect("construction");
            assert_equivalent(spec, &contents.sketches, g.fingerprint(), "disconnected");
            // Count the NoCommonLandmark cases so the property cannot
            // silently degenerate into never exercising the error path.
            let oracle = contents.sketches.as_oracle();
            cross_errors += (0..n1)
                .map(NodeId::from_index)
                .filter(|&u| {
                    matches!(
                        oracle.estimate(u, NodeId::from_index(n1 + n2 - 1)),
                        Err(SketchError::NoCommonLandmark { .. })
                    )
                })
                .count();
        }
        prop_assert!(
            cross_errors > 0,
            "disconnected components must produce NoCommonLandmark queries"
        );
    }
}

/// The asymmetric-`k` path: labels whose per-node level counts differ
/// (possible for hand-assembled or merged label sets) must walk the longer
/// pivot range, exactly like `estimate_distance`'s `k = max(ku, kv)`.
#[test]
fn asymmetric_k_labels_freeze_and_answer_identically() {
    // Node 0: k = 1.  Node 1: k = 3 with the shared landmark only at level
    // 2.  Node 2: k = 2, sharing a different landmark with both.
    let mut a = Sketch::new(NodeId(0), 1);
    a.set_pivot(0, NodeId(0), 0);
    a.insert_bunch(NodeId(0), 0, 0);
    a.insert_bunch(NodeId(9), 0, 2);
    a.insert_bunch(NodeId(7), 0, 4);
    let mut b = Sketch::new(NodeId(1), 3);
    b.set_pivot(0, NodeId(1), 0);
    b.set_pivot(2, NodeId(9), 3);
    b.insert_bunch(NodeId(1), 0, 0);
    b.insert_bunch(NodeId(9), 2, 3);
    let mut c = Sketch::new(NodeId(2), 2);
    c.set_pivot(0, NodeId(2), 0);
    c.set_pivot(1, NodeId(7), 1);
    c.insert_bunch(NodeId(2), 0, 0);
    c.insert_bunch(NodeId(7), 1, 1);
    let set = SketchSet::new(vec![a, b, c]);
    let flat = set.freeze();

    for u in (0..3).map(NodeId::from_index) {
        for v in (0..3).map(NodeId::from_index) {
            assert_eq!(
                flat.estimate_walk(u, v),
                dsketch::query::estimate_distance(set.sketch(u), set.sketch(v)),
                "walk differs at ({u}, {v})"
            );
            assert_eq!(
                flat.estimate_best_common(u, v),
                dsketch::query::estimate_distance_best_common(set.sketch(u), set.sketch(v)),
                "best-common differs at ({u}, {v})"
            );
            assert_eq!(
                flat.estimate(u, v),
                DistanceOracle::estimate(&set, u, v),
                "oracle estimate differs at ({u}, {v})"
            );
        }
    }
    // The walk really does cross the k boundary: (0, 1) answers at level 2
    // of the longer side.
    assert_eq!(flat.estimate_walk(NodeId(0), NodeId(1)).unwrap(), 5);
}

/// Every type-erased build hands back the flat oracle: for each family, on
/// both engines, `SchemeSpec::build`'s output answers exactly like the
/// per-node sets the same construction produces through `build_stored` —
/// two representations of one build, not one build compared with itself.
#[test]
fn frozen_builder_output_serves_identically() {
    let g = connected_graph(40, 3);
    let pairs = all_pairs(40);
    for engine in [BuildEngine::Congest, BuildEngine::Parallel] {
        let config = SchemeConfig::default().with_seed(8).with_engine(engine);
        for spec in SchemeSpec::all_families() {
            let flat = spec.build(&g, &config).unwrap().sketches;
            let stored = build_stored(&g, spec, &config).unwrap();
            let per_node = stored.sketches.as_oracle();
            let context = format!("{spec} on {engine:?}");
            assert_eq!(
                flat.estimate_batch(&pairs),
                per_node.estimate_batch(&pairs),
                "{context}"
            );
            for u in g.nodes() {
                assert_eq!(flat.words(u), per_node.words(u), "{context} at {u}");
            }
            assert_eq!(flat.scheme_name(), per_node.scheme_name(), "{context}");
            assert_eq!(flat.stretch_bound(), per_node.stretch_bound(), "{context}");
        }
    }
}
