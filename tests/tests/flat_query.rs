//! Cross-crate equivalence contract of the frozen flat query path: for
//! every sketch family, [`FlatSketchSet`] answers **identically** to the
//! per-node `Sketch` oracle it was frozen from — same estimates, same
//! errors, same label-size accounting — for every query function, on
//! random graphs, on disconnected graphs (the `NoCommonLandmark` cases),
//! and on hand-built labels with asymmetric per-node `k`.
//!
//! The gracefully degrading family is served from one merged row per node
//! (`dsketch::flat`); the cases below also pin that every set an engine
//! builds takes that form, that every hand-built way out of it still answers
//! like the per-node layers, and that the layer mask is what keeps a
//! landmark two nodes hold in different layers from becoming a candidate.
//!
//! Also pins the store contract: materializing a `FlatSketchSet` straight
//! from `DSK1` snapshot bytes (`load_frozen_oracle`, the cold-start path
//! that never builds a `Sketch`) yields the same value as freezing the
//! decoded sketches.

use dsketch::codec::CodecError;
use dsketch::prelude::*;
use dsketch_store::{build_stored, read_frozen_oracle, write_snapshot, StoredSketches};
use netgraph::builder::GraphBuilder;
use netgraph::generators::{erdos_renyi, GeneratorConfig};
use netgraph::{Distance, Graph, NodeId, INFINITY};
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

/// The per-node reference for a raw query function on a family's layers:
/// a single layer answers as it is; several answer with the Theorem 4.8
/// rule — the minimum over the layers that have a common landmark.
fn min_over_layers(
    layers: &[&SketchSet],
    u: NodeId,
    v: NodeId,
    rule: fn(&Sketch, &Sketch) -> Result<Distance, SketchError>,
) -> Result<Distance, SketchError> {
    if let [set] = layers {
        return rule(set.sketch(u), set.sketch(v));
    }
    let best = layers
        .iter()
        .filter_map(|set| rule(set.sketch(u), set.sketch(v)).ok())
        .fold(INFINITY, Distance::min);
    if best == INFINITY {
        Err(SketchError::NoCommonLandmark { u, v })
    } else {
        Ok(best)
    }
}

/// The fast path cannot silently fall away: a degrading set an engine built
/// is served from merged rows, with fewer entries than its per-layer
/// bunches add up to (layers share landmarks); every other family keeps its
/// one layer.
fn assert_served_form(flat: &FlatSketchSet, sketches: &StoredSketches, context: &str) {
    let StoredSketches::Degrading(set) = sketches else {
        assert_eq!(flat.merged_entries(), None, "{context}");
        assert_eq!(flat.num_layers(), 1, "{context}");
        return;
    };
    let per_layer: usize = set
        .layers
        .iter()
        .flat_map(|layer| layer.sketches.iter().map(Sketch::bunch_size))
        .sum();
    let merged = flat
        .merged_entries()
        .unwrap_or_else(|| panic!("{context}: a built degrading set is served layered"));
    assert!(merged < per_layer, "{context}: {merged} row entries");
    assert_eq!(flat.num_layers(), set.num_layers(), "{context}");
    assert_eq!(flat.check_invariants(), Ok(()), "{context}");
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
    // slice reimplementations, whichever one the family's oracle uses — on
    // the layered family, the minimum over its per-node layers.
    let layers: Vec<&SketchSet> = match sketches {
        StoredSketches::ThorupZwick(s) => vec![&s.sketches],
        StoredSketches::ThreeStretch(s) => vec![&s.sketches],
        StoredSketches::Cdg(s) => vec![&s.sketches],
        StoredSketches::Degrading(s) => s.layers.iter().map(|l| &l.sketches).collect(),
    };
    for u in (0..n).map(NodeId::from_index) {
        for v in (0..n).map(NodeId::from_index) {
            assert_eq!(
                flat.estimate_walk(u, v),
                min_over_layers(&layers, u, v, dsketch::query::estimate_distance),
                "{context}: {spec} walk differs at ({u}, {v})"
            );
            assert_eq!(
                flat.estimate_best_common(u, v),
                min_over_layers(&layers, u, v, dsketch::query::estimate_distance_best_common),
                "{context}: {spec} best-common differs at ({u}, {v})"
            );
        }
    }
    assert_served_form(&flat, sketches, context);

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
    for (g, shape) in [
        (connected_graph(40, 3), "connected"),
        (disconnected_graph(18, 14, 3), "disconnected"),
    ] {
        let pairs = all_pairs(g.num_nodes());
        for engine in [BuildEngine::Congest, BuildEngine::Parallel] {
            let config = SchemeConfig::default().with_seed(8).with_engine(engine);
            for spec in SchemeSpec::all_families() {
                let flat = spec.build(&g, &config).unwrap().sketches;
                let stored = build_stored(&g, spec, &config).unwrap();
                let per_node = stored.sketches.as_oracle();
                let context = format!("{spec} on {engine:?}, {shape}");
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
                // The boxed oracle hides its form; the freeze it ended with
                // is this one.
                assert_served_form(&stored.sketches.freeze(), &stored.sketches, &context);
            }
        }
    }
}

/// One node's label in a hand-built layer: `k = 1`, pivot `pivot`, and the
/// bunch as `(landmark, distance)` pairs.
fn label(owner: u32, pivot: (u32, Distance), bunch: &[(u32, Distance)]) -> Sketch {
    let mut sketch = Sketch::new(NodeId(owner), 1);
    sketch.set_pivot(0, NodeId(pivot.0), pivot.1);
    for &(w, d) in bunch {
        sketch.insert_bunch(NodeId(w), 0, d);
    }
    sketch
}

/// A degrading set over hand-built layers (net, hierarchy and params are
/// along for the encoding; no query reads them).  The params keep the
/// degrading contract the decoders check — ε halving layer over layer.
fn degrading_of(layers: Vec<Vec<Sketch>>) -> DegradingSketchSet {
    let layers = (1..)
        .zip(layers)
        .map(|(i, sketches)| {
            let n = sketches.len();
            CdgSketchSet {
                params: CdgParams::new(0.5f64.powi(i), 1),
                net: DensityNet::from_members(n, 0.5, (0..n).map(NodeId::from_index).collect()),
                hierarchy: Hierarchy::from_levels(vec![0; n], 1).unwrap(),
                sketches: SketchSet::new(sketches),
                stats: RunStats::default(),
            }
        })
        .collect();
    DegradingSketchSet {
        layers,
        stats: RunStats::default(),
    }
}

/// The frozen form of a hand-built degrading set.
fn frozen(set: &DegradingSketchSet) -> FlatSketchSet {
    StoredSketches::Degrading(set.clone()).freeze()
}

/// Freeze `set` and require the frozen value to be served in the `merged`
/// form or not, and every answer — errors and out-of-range probes included
/// — to be the per-node set's.  `refused` is how the decoders meet its
/// bytes: `None`, they decode to the same value; or the error both return,
/// for a set that breaks a contract of the family's labels.
fn assert_hand_built(
    set: &DegradingSketchSet,
    merged: bool,
    refused: Option<fn(&CodecError) -> bool>,
    context: &str,
) {
    let flat = frozen(set);
    let bytes = set.to_bytes();
    let decoded = FlatSketchSet::from_family_bytes(&SchemeSpec::degrading(), &bytes);
    let map = StoredSketches::decode_payload(&SchemeSpec::degrading(), &bytes).map(drop);
    match refused {
        None => {
            assert_eq!(decoded.as_ref(), Ok(&flat), "{context}");
            assert_eq!(map, Ok(()), "{context}");
        }
        Some(expected) => {
            let err = decoded.expect_err(context);
            assert!(expected(&err), "{context}: refused with {err}");
            assert_eq!(map, Err(err), "{context}: the map decoder refuses alike");
        }
    }
    assert_eq!(flat.merged_entries().is_some(), merged, "{context}");
    assert_eq!(flat.check_invariants(), Ok(()), "{context}");
    let layers: Vec<&SketchSet> = set.layers.iter().map(|l| &l.sketches).collect();
    for (u, v) in all_pairs(set.num_nodes()) {
        assert_eq!(
            flat.estimate(u, v),
            DistanceOracle::estimate(set, u, v),
            "{context}: estimate differs at ({u}, {v})"
        );
        if u.index() < set.num_nodes() && v.index() < set.num_nodes() {
            assert_eq!(
                flat.estimate_walk(u, v),
                min_over_layers(&layers, u, v, dsketch::query::estimate_distance),
                "{context}: walk differs at ({u}, {v})"
            );
        }
    }
    for u in (0..set.num_nodes()).map(NodeId::from_index) {
        assert_eq!(flat.words(u), set.words(u), "{context}: words at {u}");
    }
}

/// Node 2 is everyone's landmark in layer 0; layer 1 holds near neighbours.
/// Meets every condition of the merged form.
fn two_layer_base() -> Vec<Vec<Sketch>> {
    vec![
        vec![
            label(0, (2, 5), &[(2, 5)]),
            label(1, (2, 7), &[(2, 7)]),
            label(2, (2, 0), &[(2, 0)]),
        ],
        vec![
            label(0, (0, 0), &[(0, 0), (1, 4)]),
            label(1, (1, 0), &[(1, 0)]),
            label(2, (2, 0), &[(2, 0)]),
        ],
    ]
}

#[test]
fn hand_built_layers_that_meet_the_conditions_are_merged() {
    let set = degrading_of(two_layer_base());
    assert_hand_built(&set, true, None, "base");
    // Layer 1 wins for (0, 1): 4 + 0 against 5 + 7 through node 2.
    assert_eq!(frozen(&set).estimate(NodeId(0), NodeId(1)), Ok(4));
    assert_eq!(frozen(&set).merged_entries(), Some(6));

    // 32 layers is the last count a `u32` mask can name.
    let mut layers = two_layer_base();
    let last = layers[1].clone();
    layers.resize(32, last);
    assert_hand_built(&degrading_of(layers), true, None, "32 layers");
}

/// The case the mask exists for: node 0 holds landmark 2 in layer 0 only,
/// node 1 holds it in layer 1 only.  No layer has a common landmark, so the
/// answer is `NoCommonLandmark` — a merge that matched on the id alone
/// would answer 1 + 1.
#[test]
fn a_landmark_held_in_different_layers_is_not_a_candidate() {
    let set = degrading_of(vec![
        vec![
            label(0, (2, 1), &[(2, 1)]),
            label(1, (1, 0), &[(1, 0)]),
            label(2, (2, 0), &[(2, 0)]),
        ],
        vec![
            label(0, (0, 0), &[(0, 0)]),
            label(1, (1, 0), &[(1, 0), (2, 1)]),
            label(2, (2, 0), &[(2, 0)]),
        ],
    ]);
    assert_hand_built(&set, true, None, "mask");
    assert_eq!(
        frozen(&set).estimate_best_common(NodeId(0), NodeId(1)),
        Err(SketchError::NoCommonLandmark {
            u: NodeId(0),
            v: NodeId(1)
        })
    );
}

/// Each way out of the merged form: the set stays layered and answers like
/// its per-node layers.  In every case the merged kernel, had it been taken
/// without the check, would answer differently (noted per case).
#[test]
fn sets_that_break_a_merge_condition_stay_layered_and_answer_identically() {
    // A pivot missing from its owner's bunch: the per-layer pivot probe
    // finds 5 + 7 through node 2; node 0's merged row would not hold it.
    let mut layers = two_layer_base();
    layers[0][0] = label(0, (2, 5), &[(0, 0)]);
    let set = degrading_of(layers);
    assert_hand_built(&set, false, None, "pivot missing from its owner's bunch");
    assert_eq!(frozen(&set).estimate(NodeId(0), NodeId(2)), Ok(5));

    // A pivot in the bunch at another distance: the probe's 5 + 0 beats the
    // bunch's 6 + 0, which is all a merged row would know.  Both record
    // d(0, 2), so no snapshot may say this: the decoders refuse it.
    let mut layers = two_layer_base();
    layers[0][0] = label(0, (2, 5), &[(2, 6)]);
    let set = degrading_of(layers);
    let pivot_row = |e: &CodecError| matches!(e, CodecError::PivotRow(_));
    assert_hand_built(
        &set,
        false,
        Some(pivot_row),
        "pivot at a different distance",
    );
    assert_eq!(frozen(&set).estimate(NodeId(0), NodeId(2)), Ok(5));

    // One landmark at two distances in two layers: a row has one distance
    // column, so one of 5 + 7 (layer 0) and 6 + 0 (layer 1) would be lost.
    let mut layers = two_layer_base();
    layers[1][0] = label(0, (0, 0), &[(0, 0), (1, 4), (2, 6)]);
    let set = degrading_of(layers);
    assert_hand_built(&set, false, None, "one landmark at two distances");
    assert_eq!(frozen(&set).estimate(NodeId(0), NodeId(2)), Ok(5));

    // A landmark that is not one of the set's nodes: no snapshot may say
    // this either.
    let mut layers = two_layer_base();
    layers[1][0] = label(0, (0, 0), &[(0, 0), (9, 1)]);
    layers[1][1] = label(1, (1, 0), &[(1, 0), (9, 2)]);
    let set = degrading_of(layers);
    let out_of_range = |e: &CodecError| matches!(e, CodecError::Invalid { message, .. } if message.contains("names v9, out of range"));
    assert_hand_built(
        &set,
        false,
        Some(out_of_range),
        "landmark outside the node range",
    );
    assert_eq!(frozen(&set).estimate(NodeId(0), NodeId(1)), Ok(3));

    // 33 layers: one more than a mask has bits.
    let mut layers = two_layer_base();
    let last = layers[1].clone();
    layers.resize(33, last);
    let set = degrading_of(layers);
    assert_hand_built(&set, false, None, "33 layers");
}

/// SplitMix64: the seeded pair streams below.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The property tests run at n ≤ 44, where every net is the whole graph.
/// At n = 512 the nets differ by layer and layers share only some of their
/// landmarks — the shape the merged rows are for.  20 000 seeded pairs,
/// uniform and skewed towards low ids (the served traffic's two shapes).
#[test]
fn merged_rows_answer_identically_where_layers_really_share_landmarks() {
    let n = 512;
    let g = connected_graph(n, 11);
    let spec = SchemeSpec::parse("degrading:3").unwrap();
    let config = SchemeConfig::default().with_seed(11).with_parallel_build();
    let stored = build_stored(&g, spec, &config).unwrap();
    let per_node = stored.sketches.as_oracle();
    let flat = stored.sketches.freeze();
    assert_served_form(&flat, &stored.sketches, "n = 512");
    for u in g.nodes() {
        assert_eq!(flat.words(u), per_node.words(u), "words at {u}");
    }

    let mut state = 0x5eed;
    let mut uniform = || (next_u64(&mut state) % n as u64) as usize;
    let mut pairs: Vec<(NodeId, NodeId)> = (0..10_000)
        .map(|_| (NodeId::from_index(uniform()), NodeId::from_index(uniform())))
        .collect();
    let mut state = 0xfeed;
    let mut skewed = || {
        let unit = (next_u64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        (n as f64 * unit.powi(4)) as usize
    };
    pairs.extend((0..10_000).map(|_| (NodeId::from_index(skewed()), NodeId::from_index(skewed()))));
    assert_eq!(flat.estimate_batch(&pairs), per_node.estimate_batch(&pairs));
}
