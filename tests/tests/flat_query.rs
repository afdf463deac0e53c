//! Cross-crate equivalence contract of the frozen flat query path: for
//! every sketch family, [`FlatSketchSet`] answers **identically** to the
//! per-node reference oracle (`StoredSketches`, the `dsketch::query` rules
//! over each node's label) it was frozen from — same estimates, same
//! errors, same label-size accounting — on random graphs and on
//! disconnected graphs (the `NoCommonLandmark` cases).
//!
//! The slack families are served from one merged row per node
//! (`dsketch::flat`); the cases below also pin that every set an engine
//! builds is accepted in that form, that every hand-built way out of it is
//! refused — by `freeze` and both ingresses of the decoder, with one
//! `CodecError` — that
//! the layer mask is what keeps a landmark two nodes hold in different
//! layers from becoming a candidate, and that the join table a thread keeps
//! across queries never carries an answer from one set into another.
//!
//! Also pins the store contract: materializing a `FlatSketchSet` straight
//! from `DSK1` snapshot bytes (`load_frozen_oracle`, the cold-start path)
//! yields the same value as freezing the decoded layers.

use dsketch::codec::CodecError;
use dsketch::prelude::*;
use dsketch_store::{build_stored, read_frozen_oracle, write_snapshot, StoredSketches};
use netgraph::builder::GraphBuilder;
use netgraph::generators::{erdos_renyi, GeneratorConfig};
use netgraph::{Distance, Graph, NodeId};
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

/// The served form keeps every layer and the arrays the kernel indexes by.
fn assert_served_form(flat: &FlatSketchSet, set: &StoredSketches, context: &str) {
    assert_eq!(flat.num_layers(), set.layers.len(), "{context}");
    assert_eq!(flat.check_invariants(), Ok(()), "{context}");
}

/// The core contract: the frozen set equals the map-backed oracle,
/// result-for-result (errors included).
fn assert_equivalent(
    spec: SchemeSpec,
    sketches: &StoredSketches,
    fingerprint: netgraph::GraphFingerprint,
    context: &str,
) {
    let oracle = sketches.as_oracle();
    let flat = sketches.freeze().expect("an engine-built set is accepted");
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

    assert_served_form(&flat, sketches, context);

    // The store contract: snapshot bytes → FlatSketchSet directly is the
    // same oracle.
    let contents = dsketch_store::SnapshotContents {
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
    /// family's frozen oracle is answer-identical to the map path.
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
                let frozen = stored
                    .sketches
                    .freeze()
                    .expect("an engine-built set is accepted");
                assert_served_form(&frozen, &stored.sketches, &context);
            }
        }
    }
}

/// One hand-built label: its pivot slots and its bunch, ascending.
type Row = (Vec<Option<(NodeId, Distance)>>, Vec<(NodeId, Distance)>);

/// One node's label in a hand-built layer (the node is its position):
/// `k = 1`, pivot `pivot`, and the bunch as ascending `(landmark,
/// distance)` pairs.
fn label(pivot: (u32, Distance), bunch: &[(u32, Distance)]) -> Row {
    let pivots = vec![Some((NodeId(pivot.0), pivot.1))];
    (pivots, bunch.iter().map(|&(w, d)| (NodeId(w), d)).collect())
}

/// A `spec` set over hand-built layers (the hierarchy is along for the
/// encoding; no query reads it).
fn slack_set(spec: SchemeSpec, layers: Vec<Vec<Row>>) -> StoredSketches {
    let layers = layers
        .into_iter()
        .map(|rows| {
            let n = rows.len();
            let hierarchy = Hierarchy::from_levels(vec![0; n], 1).unwrap();
            let mut sketches = SketchSet::over(&hierarchy);
            for (pivots, bunch) in &rows {
                sketches.push_label(pivots, bunch).unwrap();
            }
            Layer {
                hierarchy,
                sketches,
            }
        })
        .collect();
    StoredSketches { spec, layers }
}

/// [`slack_set`] for the degrading family with every `k` capped at 1,
/// whose schedule over the hand-built layers' three nodes is two layers at
/// `k = 1`.
fn degrading_of(layers: Vec<Vec<Row>>) -> StoredSketches {
    let spec = SchemeSpec::Degrading {
        max_layers: None,
        max_k: Some(1),
    };
    slack_set(spec, layers)
}

/// Freeze `set`, require both ingresses of the decoder to meet its bytes with the same
/// value, and every answer — errors and out-of-range probes included — to
/// be the per-node set's.
fn assert_accepted(set: &StoredSketches, context: &str) {
    let flat = set.freeze().expect(context);
    let bytes = set.encode_payload();
    let decoded = FlatSketchSet::from_family_bytes(&set.spec, &bytes);
    assert_eq!(decoded.as_ref(), Ok(&flat), "{context}");
    let map = StoredSketches::decode_payload(&set.spec, &bytes);
    assert_eq!(map.err(), None, "{context}");
    assert_served_form(&flat, set, context);
    for (u, v) in all_pairs(set.num_nodes()) {
        assert_eq!(
            flat.estimate(u, v),
            DistanceOracle::estimate(set, u, v),
            "{context}: estimate differs at ({u}, {v})"
        );
    }
    for u in (0..set.num_nodes()).map(NodeId::from_index) {
        assert_eq!(flat.words(u), set.words(u), "{context}: words at {u}");
    }
}

/// `freeze` refuses `set` with an error `expected` accepts, and both
/// decoders refuse its bytes with that same error — or, for a state the
/// bytes cannot say (a pivot row is derived, a member is a rank within its
/// level, the node count is said once and the layer count by the spec's
/// schedule), meet the bytes written for it alike, and neither with `set`.
fn assert_refused(set: &StoredSketches, expected: fn(&CodecError) -> bool, context: &str) {
    let refused = set.freeze().expect_err(context);
    assert!(expected(&refused), "{context}: refused with {refused}");
    let bytes = set.encode_payload();
    let unscheduled = set.layers.len() != set.spec.schedule(set.num_nodes()).len();
    if unscheduled
        || matches!(
            refused,
            CodecError::PivotRow(_)
                | CodecError::Invalid {
                    context: "label node" | "degrading layers",
                    ..
                }
        )
    {
        let flat = FlatSketchSet::from_family_bytes(&set.spec, &bytes);
        let map = StoredSketches::decode_payload(&set.spec, &bytes);
        let frozen = map
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|map| map.freeze());
        assert_eq!(flat, frozen, "{context}: the two ingresses");
        assert!(map.map_or(true, |map| &map != set), "{context}: written");
        return;
    }
    let flat = FlatSketchSet::from_family_bytes(&set.spec, &bytes);
    assert_eq!(
        flat.err().as_ref(),
        Some(&refused),
        "{context}: the frozen ingress"
    );
    let map = StoredSketches::decode_payload(&set.spec, &bytes);
    assert_eq!(
        map.err().as_ref(),
        Some(&refused),
        "{context}: the layers ingress"
    );
}

/// Node 2 is everyone's landmark in layer 0; layer 1 holds near neighbours.
/// Meets every condition of the merged form.
fn two_layer_base() -> Vec<Vec<Row>> {
    vec![
        vec![
            label((2, 5), &[(2, 5)]),
            label((2, 7), &[(2, 7)]),
            label((2, 0), &[(2, 0)]),
        ],
        vec![
            label((0, 0), &[(0, 0), (1, 4)]),
            label((1, 0), &[(1, 0)]),
            label((2, 0), &[(2, 0)]),
        ],
    ]
}

#[test]
fn hand_built_layers_that_meet_the_conditions_are_merged() {
    let set = degrading_of(two_layer_base());
    assert_accepted(&set, "base");
    // Layer 1 wins for (0, 1): 4 + 0 against 5 + 7 through node 2.
    assert_eq!(set.freeze().unwrap().estimate(NodeId(0), NodeId(1)), Ok(4));

    // 32 layers is the last count a `u32` mask can name, and the most a
    // schedule over `u32` node ids gives.
    let most = SchemeSpec::degrading().schedule(u32::MAX as usize).len();
    assert_eq!(most, 32);
}

/// The case the mask exists for: node 0 holds landmark 2 in layer 0 only,
/// node 1 holds it in layer 1 only.  No layer has a common landmark, so the
/// answer is `NoCommonLandmark` — a merge that matched on the id alone
/// would answer 1 + 1.
#[test]
fn a_landmark_held_in_different_layers_is_not_a_candidate() {
    let set = degrading_of(vec![
        vec![
            label((2, 1), &[(2, 1)]),
            label((1, 0), &[(1, 0)]),
            label((2, 0), &[(2, 0)]),
        ],
        vec![
            label((0, 0), &[(0, 0)]),
            label((1, 0), &[(1, 0), (2, 1)]),
            label((2, 0), &[(2, 0)]),
        ],
    ]);
    assert_accepted(&set, "mask");
    assert_eq!(
        set.freeze().unwrap().estimate(NodeId(0), NodeId(1)),
        Err(SketchError::NoCommonLandmark {
            u: NodeId(0),
            v: NodeId(1)
        })
    );
}

/// Each way out of the merged form is refused, one error from `freeze` and
/// both ingresses of the decoder.  Served regardless, each would answer unlike its per-node
/// layers (noted per case).
#[test]
fn every_way_out_of_the_merged_form_is_refused_alike() {
    let pivot_row = |e: &CodecError| matches!(e, CodecError::PivotRow(_));
    let layer_contract = |e: &CodecError| matches!(e, CodecError::LayerContract(_));

    // A pivot missing from its owner's bunch: the per-layer pivot probe
    // finds 5 + 7 through node 2; node 0's merged row does not hold it.
    let mut layers = two_layer_base();
    layers[0][0] = label((2, 5), &[(0, 0)]);
    assert_refused(
        &degrading_of(layers),
        pivot_row,
        "pivot missing from its owner's bunch",
    );

    // A pivot in the bunch at another distance: the probe's 5 + 0 beats the
    // bunch's 6 + 0, which is all a merged row knows.
    let mut layers = two_layer_base();
    layers[0][0] = label((2, 5), &[(2, 6)]);
    assert_refused(
        &degrading_of(layers),
        pivot_row,
        "pivot at a different distance",
    );

    // One landmark at two distances in two layers: a row has one distance
    // column, so one of 5 + 7 (layer 0) and 6 + 0 (layer 1) would be lost.
    let mut layers = two_layer_base();
    layers[1][0] = label((0, 0), &[(0, 0), (1, 4), (2, 6)]);
    assert_refused(
        &degrading_of(layers),
        layer_contract,
        "one landmark at two distances",
    );

    // 33 layers: one more than a mask has bits.
    let mut layers = two_layer_base();
    let last = layers[1].clone();
    layers.resize(33, last);
    assert_refused(&degrading_of(layers), layer_contract, "33 layers");

    // Layers over different node counts: node 2 has a label in one layer
    // only, and every query indexes all of them.
    let mut layers = two_layer_base();
    layers[1].truncate(2);
    let ragged = |e: &CodecError| matches!(e, CodecError::Invalid { message, .. } if message == "layer 1 covers 2 nodes but layer 0 covers 3");
    assert_refused(&degrading_of(layers), ragged, "ragged layers");

    // A landmark that is not one of the set's nodes: the join table has no
    // slot for it.
    let mut layers = two_layer_base();
    layers[1][0] = label((0, 0), &[(0, 0), (9, 1)]);
    layers[1][1] = label((1, 0), &[(1, 0), (9, 2)]);
    let out_of_range = |e: &CodecError| matches!(e, CodecError::Invalid { message, .. } if message.contains("names v9, out of range"));
    assert_refused(
        &degrading_of(layers),
        out_of_range,
        "landmark outside the node range",
    );
}

/// A set `freeze` refuses stays in its layered form, the `StoredSketches`
/// value, and the per-node reference answers it as it did when such sets
/// were served layered.  Each pinned answer is one the merged form would
/// lose (see the cases above), which is why the set is refused.
#[test]
fn sets_that_break_a_merge_condition_stay_layered_and_answer_identically() {
    let layered = |layers: Vec<Vec<Row>>, context: &str| {
        let set = degrading_of(layers);
        assert!(set.freeze().is_err(), "{context}: freeze refuses");
        set
    };
    let (v0, v1, v2) = (NodeId(0), NodeId(1), NodeId(2));

    // The pivot probe's 5 + 7 through node 2 loses to layer 1's 4 + 0 for
    // (0, 1); for (0, 2) it finds 5 + 0.
    let mut layers = two_layer_base();
    layers[0][0] = label((2, 5), &[(0, 0)]);
    let set = layered(layers, "pivot missing from its owner's bunch");
    assert_eq!(DistanceOracle::estimate(&set, v0, v2), Ok(5));

    let mut layers = two_layer_base();
    layers[0][0] = label((2, 5), &[(2, 6)]);
    let set = layered(layers, "pivot at a different distance");
    assert_eq!(DistanceOracle::estimate(&set, v0, v2), Ok(5));

    let mut layers = two_layer_base();
    layers[1][0] = label((0, 0), &[(0, 0), (1, 4), (2, 6)]);
    let set = layered(layers, "one landmark at two distances");
    assert_eq!(DistanceOracle::estimate(&set, v0, v2), Ok(5));

    // Landmark 9 is common to nodes 0 and 1 in layer 1: 1 + 2.
    let mut layers = two_layer_base();
    layers[1][0] = label((0, 0), &[(0, 0), (9, 1)]);
    layers[1][1] = label((1, 0), &[(1, 0), (9, 2)]);
    let set = layered(layers, "landmark outside the node range");
    assert_eq!(DistanceOracle::estimate(&set, v0, v1), Ok(3));

    let mut layers = two_layer_base();
    let last = layers[1].clone();
    layers.resize(33, last);
    let set = layered(layers, "33 layers");
    assert_eq!(DistanceOracle::estimate(&set, v0, v1), Ok(4));
}

/// One layer is merged rows too: a CDG set whose pivot is missing from its
/// owner's bunch is refused, where a merge of bunch runs plus pivot probes
/// would answer 5 + 0 for (0, 2) and the rows hold no common landmark.
#[test]
fn a_one_layer_cdg_set_with_a_pivot_outside_its_bunch_is_refused() {
    let base = vec![
        label((0, 0), &[(0, 0)]),
        label((2, 7), &[(2, 7)]),
        label((2, 0), &[(2, 0)]),
    ];
    let cdg = SchemeSpec::cdg(0.5, 1);
    assert_accepted(&slack_set(cdg, vec![base.clone()]), "one-layer base");
    let mut broken = base;
    broken[0] = label((2, 5), &[(0, 0)]);
    let pivot_row = |e: &CodecError| matches!(e, CodecError::PivotRow(_));
    assert_refused(&slack_set(cdg, vec![broken]), pivot_row, "one-layer CDG");
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
///
/// A second set (n = 200, another seed) is queried pair-interleaved with
/// the first, on one thread and then on two at once: the join table each
/// thread keeps is never cleared, so every query after the first meets
/// positions left behind by another row, another set and another `n`.
#[test]
fn merged_rows_answer_identically_where_layers_really_share_landmarks() {
    let spec = SchemeSpec::parse("degrading:3").unwrap();
    let sets: Vec<_> = [(512, 11), (200, 5)]
        .into_iter()
        .map(|(n, seed)| {
            let g = connected_graph(n, seed);
            let config = SchemeConfig::default()
                .with_seed(seed)
                .with_parallel_build();
            let stored = build_stored(&g, spec, &config).unwrap();
            let per_node = stored.sketches.as_oracle();
            let flat = stored
                .sketches
                .freeze()
                .expect("an engine-built set is accepted");
            assert_served_form(&flat, &stored.sketches, &format!("n = {n}"));
            for u in g.nodes() {
                assert_eq!(flat.words(u), per_node.words(u), "words at {u}, n = {n}");
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
            pairs.extend(
                (0..10_000).map(|_| (NodeId::from_index(skewed()), NodeId::from_index(skewed()))),
            );
            let expected = per_node.estimate_batch(&pairs);
            assert_eq!(flat.estimate_batch(&pairs), expected, "n = {n}");
            (flat, pairs, expected)
        })
        .collect();

    // Pair i of every set, then pair i + 1 of every set, starting at set
    // `first`: each query's table holds the other set's last row.
    let interleaved = |first: usize| {
        for i in 0..10_000 * 2 {
            for s in (0..sets.len()).map(|s| (s + first) % sets.len()) {
                let (flat, pairs, expected) = &sets[s];
                let (u, v) = pairs[i];
                assert_eq!(flat.estimate(u, v), expected[i], "set {s}, pair {i}");
            }
        }
    };
    interleaved(0);
    std::thread::scope(|scope| {
        scope.spawn(|| interleaved(0));
        scope.spawn(|| interleaved(1));
    });
}
