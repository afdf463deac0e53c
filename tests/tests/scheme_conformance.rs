//! Scheme conformance suite: every [`SchemeSpec`] family must satisfy, via
//! the `DistanceOracle` trait alone, the contract the unified API promises —
//! estimates are upper bounds, the paper's stretch bound holds on the pairs
//! it covers, size accounting is consistent, and builds are deterministic in
//! the seed — on every input: the five topologies of
//! `netgraph::generators::standard_suite` plus a graph of two components,
//! each built on both engines.
//!
//! Per-family stretch contracts (on pairs at finite distance):
//!
//! * `tz:k` — `estimate ≤ (2k − 1) · d(u, v)` for **every** pair (Thm 1.1),
//!   and `≤ (2i + 1) · d(u, v)` where the walk answered at level `i` (the
//!   proof of Lemma 3.2) — on every `netgraph` generator
//! * `3stretch:ε` — `estimate ≤ 3 · d(u, v)` for every ε-far pair (Thm 4.3)
//! * `cdg:ε,k` — `estimate ≤ (8k − 1) · d(u, v)` for every ε-far pair (Thm 4.6)
//! * `degrading` — `estimate ≤ (8k_i − 1) · d(u, v)` for every pair that is
//!   ε_i-far at some layer i; plus O(1)-ish average stretch (Thm 4.8 / Cor 4.9)
//!
//! A pair in different components has no distance to bound: every family
//! answers it with an error, never a number.

use dsketch::prelude::*;
use netgraph::apsp::DistanceTable;
use netgraph::generators::{
    balanced_tree, erdos_renyi, erdos_renyi_gnm, grid, random_geometric, random_tree, ring,
    ring_with_chords, standard_suite, torus, waxman, GeneratorConfig,
};
use netgraph::{Distance, Graph, GraphBuilder, NodeId, INFINITY};

/// One conformance input: a graph, its exact distances, and the engine the
/// families are built on.
struct Input {
    label: String,
    graph: Graph,
    table: DistanceTable,
    engine: BuildEngine,
}

impl Input {
    /// Build `spec` on this input at `seed`.
    fn build(&self, spec: SchemeSpec, seed: u64) -> DynBuildOutcome {
        let config = SchemeConfig::default().with_seed(seed);
        spec.build(&self.graph, &config.with_engine(self.engine))
            .unwrap_or_else(|e| panic!("[{spec} on {}] build failed: {e}", self.label))
    }

    /// Every pair at finite distance, with that distance.
    fn connected_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId, Distance)> + '_ {
        self.table
            .pairs()
            .filter(|&(_, _, exact)| exact != INFINITY)
    }
}

/// The conformance inputs: `standard_suite(64, ..)` (unit and weighted
/// Erdős–Rényi, grid, ring, preferential attachment) and two components,
/// each on the CONGEST and the parallel engine.
fn inputs() -> Vec<Input> {
    let mut graphs = standard_suite(64, 19);
    graphs.push(("two-components", two_components()));
    graphs
        .into_iter()
        .flat_map(|(name, graph)| {
            let table = DistanceTable::exact(&graph);
            [BuildEngine::Congest, BuildEngine::Parallel].map(|engine| Input {
                label: format!("{name} ({engine:?})"),
                graph: graph.clone(),
                table: table.clone(),
                engine,
            })
        })
        .collect()
}

/// Two weighted Erdős–Rényi halves of 32 nodes with no edge between them.
fn two_components() -> Graph {
    let half = erdos_renyi(32, 0.2, GeneratorConfig::uniform(19, 1, 25));
    let mut builder = GraphBuilder::new(64);
    for (u, v, w) in half.undirected_edges() {
        builder.add_edge_idx(u.index(), v.index(), w);
        builder.add_edge_idx(u.index() + 32, v.index() + 32, w);
    }
    builder.build()
}

/// The slack parameter a spec's guarantee is stated for, if any.
fn slack_of(spec: &SchemeSpec) -> Option<f64> {
    match *spec {
        SchemeSpec::ThorupZwick { .. } | SchemeSpec::Degrading { .. } => None,
        SchemeSpec::ThreeStretch { eps } => Some(eps),
        SchemeSpec::Cdg { eps, .. } => Some(eps),
    }
}

#[test]
fn estimates_are_upper_bounds_for_every_family() {
    for input in inputs() {
        for spec in SchemeSpec::all_families() {
            let outcome = input.build(spec, 3);
            let label = &input.label;
            for (u, v, exact) in input.table.pairs() {
                match outcome.sketches.estimate(u, v) {
                    // Across components there is no distance to bound.
                    Ok(est) if exact == INFINITY => {
                        panic!(
                            "[{spec} on {label}] ({u},{v}) are not connected, yet estimated {est}"
                        )
                    }
                    Ok(est) => assert!(
                        est >= exact,
                        "[{spec} on {label}] underestimate for ({u},{v}): {est} < {exact}"
                    ),
                    Err(_) if exact == INFINITY => {}
                    // A missing estimate is only acceptable for pairs the
                    // slack guarantee does not cover.
                    Err(_) => {
                        let eps = slack_of(&spec).expect("only slack schemes may fail");
                        assert!(
                            !input.table.is_eps_far(u, v, eps),
                            "[{spec} on {label}] no estimate for covered pair ({u},{v})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn stretch_bound_holds_on_covered_pairs_for_every_family() {
    for input in inputs() {
        for spec in SchemeSpec::all_families() {
            let outcome = input.build(spec, 5);
            let oracle = &outcome.sketches;
            let Some(bound) = oracle.stretch_bound() else {
                continue; // the degrading curve is checked separately below
            };
            let eps = slack_of(&spec);
            let label = &input.label;
            for (u, v, exact) in input.connected_pairs() {
                let covered = eps.is_none_or(|e| input.table.is_eps_far(u, v, e));
                if !covered {
                    continue;
                }
                let est = oracle.estimate(u, v).unwrap_or_else(|e| {
                    panic!("[{spec} on {label}] covered pair ({u},{v}) failed: {e}")
                });
                assert!(
                    est <= bound * exact,
                    "[{spec} on {label}] stretch bound {bound} violated for ({u},{v}): {est} vs {exact}"
                );
            }
        }
    }
}

/// Every generator `netgraph` has, at 64 nodes: `standard_suite`'s five,
/// the rest of the catalogue, and two components.
fn every_generator() -> Vec<(&'static str, Graph)> {
    let mut graphs = standard_suite(64, 23);
    graphs.extend([
        (
            "erdos_renyi_gnm",
            erdos_renyi_gnm(64, 256, GeneratorConfig::uniform(23, 1, 50)),
        ),
        (
            "random_geometric",
            random_geometric(64, 0.25, GeneratorConfig::unit(23)),
        ),
        ("torus", torus(8, 8, GeneratorConfig::uniform(23, 1, 10))),
        (
            "ring_with_chords",
            ring_with_chords(64, 8, 40, GeneratorConfig::unit(23)),
        ),
        (
            "balanced_tree",
            balanced_tree(64, 3, GeneratorConfig::uniform(23, 1, 20)),
        ),
        (
            "random_tree",
            random_tree(64, GeneratorConfig::uniform(23, 1, 20)),
        ),
        (
            "waxman",
            waxman(64, 0.4, 0.2, GeneratorConfig::uniform(23, 1, 50)),
        ),
        ("two-components", two_components()),
    ]);
    graphs
}

/// The proof of Lemma 3.2 gives more than `2k − 1`: a walk that first hits
/// at level `i` answers within `2i + 1`, because its misses below `i` bound
/// `max(d(u, A_i), d(v, A_i))` by `i · d(u, v)`.  Held for the level each
/// served answer reports, beside the global bound, for `k` = 2 to 4 on
/// every generator and both engines — which also holds the walk's level
/// order now that the top level is a table of its own.  A pivot search
/// that returned the second-closest member of `A_1` keeps inside `2k − 1`
/// and breaks this.
#[test]
fn every_thorup_zwick_answer_is_within_its_levels_bound() {
    let mut answered = [0usize; 4];
    for (name, graph) in every_generator() {
        let table = DistanceTable::exact(&graph);
        for engine in [BuildEngine::Congest, BuildEngine::Parallel] {
            for k in 2..=4usize {
                let spec = SchemeSpec::thorup_zwick(k);
                let config = SchemeConfig::default().with_seed(29).with_engine(engine);
                let label = format!("{spec} on {name} ({engine:?})");
                let built = spec.build_sketches(&graph, &config).unwrap();
                let flat = built.sketches.freeze().unwrap();
                let global = 2 * k as u64 - 1;
                for (u, v, exact) in table.pairs() {
                    if exact == INFINITY || u == v {
                        continue;
                    }
                    let (est, level) = flat
                        .estimate_with_level(u, v)
                        .unwrap_or_else(|e| panic!("[{label}] ({u},{v}) failed: {e}"));
                    let level = level.expect("a Thorup–Zwick answer has a level");
                    let bound = 2 * level as u64 + 1;
                    assert!(
                        est <= bound * exact,
                        "[{label}] level-{level} bound {bound} violated for ({u},{v}): {est} vs {exact}"
                    );
                    assert!(est <= global * exact, "[{label}] ({u},{v})");
                    answered[level] += 1;
                }
            }
        }
    }
    // Every level a k = 4 walk has answered somewhere: the check is not
    // held only at level 0.
    assert!(answered.iter().all(|&count| count > 0), "{answered:?}");
}

/// Format 4 writes no pivots: the reader derives `p_i(u)` as the least
/// `(distance, id)` a label holds at a level `≥ i`, ties to the smaller id.
/// That is the engines' pivot only if both break every tie that way, so
/// every built layer is held to the derivation (`Layer::check_invariants`)
/// and to `decode(encode(x)) == x` — for tz:2–4, 3-stretch, CDG and
/// degrading on every `netgraph` generator, unit-weight grid, ring and
/// torus among them (where equal distances are everywhere), on both
/// engines.
#[test]
fn built_pivots_are_their_derivation_and_round_trip_on_every_generator() {
    let mut graphs = every_generator();
    graphs.extend([
        ("unit grid", grid(8, 8, GeneratorConfig::unit(31))),
        ("unit ring", ring(64, GeneratorConfig::unit(31))),
        ("unit torus", torus(8, 8, GeneratorConfig::unit(31))),
    ]);
    let specs = [
        "tz:2",
        "tz:3",
        "tz:4",
        "3stretch:0.3",
        "cdg:0.3,2",
        "degrading:k=3",
    ];
    for (name, graph) in graphs {
        for engine in [BuildEngine::Congest, BuildEngine::Parallel] {
            let config = SchemeConfig::default().with_seed(37).with_engine(engine);
            for spec in specs.map(|spec| SchemeSpec::parse(spec).unwrap()) {
                let label = format!("{spec} on {name} ({engine:?})");
                let built = spec.build_sketches(&graph, &config).unwrap().sketches;
                for (index, layer) in built.layers.iter().enumerate() {
                    let checked = layer.check_invariants();
                    assert_eq!(checked, Ok(()), "[{label}] layer {index}");
                }
                let bytes = built.encode_payload();
                let decoded = StoredSketches::decode_payload(&spec, &bytes)
                    .unwrap_or_else(|e| panic!("[{label}] refused its own bytes: {e}"));
                assert!(decoded == built, "[{label}] decode(encode(x)) != x");
            }
        }
    }
}

#[test]
fn degrading_stretch_degrades_gracefully() {
    let spec = SchemeSpec::Degrading {
        max_layers: None,
        max_k: Some(3),
    };
    for input in inputs() {
        let outcome = input.build(spec, 7);
        let label = &input.label;

        // Theorem 4.8's contract: for every ε_i = 2^{-i}, every ε_i-far pair
        // is estimated within the layer's 8k_i − 1 bound (the union query can
        // only improve on the layer that guarantees it).
        let n = input.graph.num_nodes();
        let layers = ((n as f64).log2().ceil() as usize).max(1);
        let mut total = 0.0;
        let mut count = 0usize;
        for (u, v, exact) in input.connected_pairs() {
            let est = outcome.sketches.estimate(u, v).unwrap();
            for i in 1..=layers {
                let eps_i = 0.5f64.powi(i as i32);
                let k_i = i.clamp(1, 3);
                if input.table.is_eps_far(u, v, eps_i) {
                    let bound = (8 * k_i - 1) as u64;
                    assert!(
                        est <= bound * exact,
                        "[{label}] layer ε={eps_i} bound {bound} violated for ({u},{v}): {est} vs {exact}"
                    );
                    break; // the tightest applicable layer suffices
                }
            }
            total += est as f64 / exact.max(1) as f64;
            count += 1;
        }
        // Corollary 4.9: constant average stretch (generously: < 4 at n = 64).
        let avg = total / count as f64;
        assert!(avg < 4.0, "[{label}] average stretch too large: {avg}");
    }
}

#[test]
fn size_accounting_is_consistent_for_every_family() {
    for input in inputs() {
        let n = input.graph.num_nodes();
        for spec in SchemeSpec::all_families() {
            let outcome = input.build(spec, 11);
            let oracle = &outcome.sketches;
            let label = &input.label;
            assert_eq!(oracle.num_nodes(), n, "[{spec} on {label}]");
            let per_node: Vec<usize> = input.graph.nodes().map(|u| oracle.words(u)).collect();
            let max = per_node.iter().copied().max().unwrap();
            let total: usize = per_node.iter().sum();
            assert_eq!(oracle.max_words(), max, "[{spec} on {label}]");
            assert_eq!(oracle.total_words(), total, "[{spec} on {label}]");
            assert!(
                (oracle.avg_words() - total as f64 / n as f64).abs() < 1e-9,
                "[{spec} on {label}]"
            );
            assert!(max > 0, "[{spec} on {label}]");
        }
    }
}

#[test]
fn unknown_nodes_are_rejected_for_every_family() {
    for input in inputs() {
        for spec in SchemeSpec::all_families() {
            let outcome = input.build(spec, 13);
            let bad = NodeId(10_000);
            assert!(
                matches!(
                    outcome.sketches.estimate(NodeId(0), bad),
                    Err(SketchError::UnknownNode(b)) if b == bad
                ),
                "[{spec} on {}]",
                input.label
            );
        }
    }
}

#[test]
fn builds_are_deterministic_in_the_seed_for_every_family() {
    for input in inputs() {
        for spec in SchemeSpec::all_families() {
            let a = input.build(spec, 17);
            let b = input.build(spec, 17);
            let label = &input.label;
            assert_eq!(a.stats, b.stats, "[{spec} on {label}]");
            for u in input.graph.nodes() {
                assert_eq!(
                    a.sketches.words(u),
                    b.sketches.words(u),
                    "[{spec} on {label}]"
                );
                for v in input.graph.nodes().step_by(7) {
                    assert_eq!(
                        a.sketches.estimate(u, v).ok(),
                        b.sketches.estimate(u, v).ok(),
                        "[{spec} on {label}] ({u},{v})"
                    );
                }
            }
        }
    }
}

#[test]
fn self_distance_is_zero_for_every_family() {
    for input in inputs() {
        for spec in SchemeSpec::all_families() {
            let outcome = input.build(spec, 19);
            for u in input.graph.nodes().step_by(11) {
                assert_eq!(
                    outcome.sketches.estimate(u, u).unwrap(),
                    0,
                    "[{spec} on {}]",
                    input.label
                );
            }
        }
    }
}
