//! Scheme conformance suite: every [`SchemeSpec`] family must satisfy, via
//! the `DistanceOracle` trait alone, the contract the unified API promises —
//! estimates are upper bounds, the paper's stretch bound holds on the pairs
//! it covers, size accounting is consistent, and builds are deterministic in
//! the seed.
//!
//! Per-family stretch contracts (on a connected weighted Erdős–Rényi graph):
//!
//! * `tz:k` — `estimate ≤ (2k − 1) · d(u, v)` for **every** pair (Thm 1.1)
//! * `3stretch:ε` — `estimate ≤ 3 · d(u, v)` for every ε-far pair (Thm 4.3)
//! * `cdg:ε,k` — `estimate ≤ (8k − 1) · d(u, v)` for every ε-far pair (Thm 4.6)
//! * `degrading` — `estimate ≤ (8k_i − 1) · d(u, v)` for every pair that is
//!   ε_i-far at some layer i; plus O(1)-ish average stretch (Thm 4.8 / Cor 4.9)

use dsketch::prelude::*;
use netgraph::apsp::DistanceTable;
use netgraph::generators::{erdos_renyi, GeneratorConfig};
use netgraph::{Graph, NodeId};

/// The conformance workload: small, connected, weighted.
fn workload() -> Graph {
    erdos_renyi(80, 0.1, GeneratorConfig::uniform(19, 1, 25))
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
    let graph = workload();
    let table = DistanceTable::exact(&graph);
    for spec in SchemeSpec::all_families() {
        let outcome = spec
            .build(&graph, &SchemeConfig::default().with_seed(3))
            .unwrap();
        for (u, v, exact) in table.pairs() {
            match outcome.sketches.estimate(u, v) {
                Ok(est) => assert!(
                    est >= exact,
                    "[{spec}] underestimate for ({u},{v}): {est} < {exact}"
                ),
                // A missing estimate is only acceptable for pairs the slack
                // guarantee does not cover.
                Err(_) => {
                    let eps = slack_of(&spec).expect("only slack schemes may fail");
                    assert!(
                        !table.is_eps_far(u, v, eps),
                        "[{spec}] no estimate for covered pair ({u},{v})"
                    );
                }
            }
        }
    }
}

#[test]
fn stretch_bound_holds_on_covered_pairs_for_every_family() {
    let graph = workload();
    let table = DistanceTable::exact(&graph);
    for spec in SchemeSpec::all_families() {
        let outcome = spec
            .build(&graph, &SchemeConfig::default().with_seed(5))
            .unwrap();
        let oracle = &outcome.sketches;
        let Some(bound) = oracle.stretch_bound() else {
            continue; // the degrading curve is checked separately below
        };
        let eps = slack_of(&spec);
        for (u, v, exact) in table.pairs() {
            let covered = eps.is_none_or(|e| table.is_eps_far(u, v, e));
            if !covered {
                continue;
            }
            let est = oracle
                .estimate(u, v)
                .unwrap_or_else(|e| panic!("[{spec}] covered pair ({u},{v}) failed: {e}"));
            assert!(
                est <= bound * exact,
                "[{spec}] stretch bound {bound} violated for ({u},{v}): {est} vs {exact}"
            );
        }
    }
}

#[test]
fn degrading_stretch_degrades_gracefully() {
    let graph = workload();
    let table = DistanceTable::exact(&graph);
    let spec = SchemeSpec::Degrading {
        max_layers: None,
        max_k: Some(3),
    };
    let outcome = spec
        .build(&graph, &SchemeConfig::default().with_seed(7))
        .unwrap();

    // Theorem 4.8's contract: for every ε_i = 2^{-i}, every ε_i-far pair is
    // estimated within the layer's 8k_i − 1 bound (the union query can only
    // improve on the layer that guarantees it).
    let n = graph.num_nodes();
    let layers = ((n as f64).log2().ceil() as usize).max(1);
    let mut total = 0.0;
    let mut count = 0usize;
    for (u, v, exact) in table.pairs() {
        let est = outcome.sketches.estimate(u, v).unwrap();
        for i in 1..=layers {
            let eps_i = 0.5f64.powi(i as i32);
            let k_i = i.clamp(1, 3);
            if table.is_eps_far(u, v, eps_i) {
                let bound = (8 * k_i - 1) as u64;
                assert!(
                    est <= bound * exact,
                    "layer ε={eps_i} bound {bound} violated for ({u},{v}): {est} vs {exact}"
                );
                break; // the tightest applicable layer suffices
            }
        }
        total += est as f64 / exact.max(1) as f64;
        count += 1;
    }
    // Corollary 4.9: constant average stretch (generously: < 4 at n = 80).
    let avg = total / count as f64;
    assert!(avg < 4.0, "average stretch too large: {avg}");
}

#[test]
fn size_accounting_is_consistent_for_every_family() {
    let graph = workload();
    for spec in SchemeSpec::all_families() {
        let outcome = spec
            .build(&graph, &SchemeConfig::default().with_seed(11))
            .unwrap();
        let oracle = &outcome.sketches;
        assert_eq!(oracle.num_nodes(), graph.num_nodes(), "{spec}");
        let per_node: Vec<usize> = graph.nodes().map(|u| oracle.words(u)).collect();
        let max = per_node.iter().copied().max().unwrap();
        let total: usize = per_node.iter().sum();
        assert_eq!(oracle.max_words(), max, "{spec}");
        assert_eq!(oracle.total_words(), total, "{spec}");
        assert!(
            (oracle.avg_words() - total as f64 / 80.0).abs() < 1e-9,
            "{spec}"
        );
        assert!(max > 0, "{spec}");
    }
}

#[test]
fn unknown_nodes_are_rejected_for_every_family() {
    let graph = workload();
    for spec in SchemeSpec::all_families() {
        let outcome = spec
            .build(&graph, &SchemeConfig::default().with_seed(13))
            .unwrap();
        let bad = NodeId(10_000);
        assert!(
            matches!(
                outcome.sketches.estimate(NodeId(0), bad),
                Err(SketchError::UnknownNode(b)) if b == bad
            ),
            "{spec}"
        );
    }
}

#[test]
fn builds_are_deterministic_in_the_seed_for_every_family() {
    let graph = workload();
    for spec in SchemeSpec::all_families() {
        let config = SchemeConfig::default().with_seed(17);
        let a = spec.build(&graph, &config).unwrap();
        let b = spec.build(&graph, &config).unwrap();
        assert_eq!(a.stats, b.stats, "{spec}");
        for u in graph.nodes() {
            assert_eq!(a.sketches.words(u), b.sketches.words(u), "{spec}");
            for v in graph.nodes().step_by(7) {
                assert_eq!(
                    a.sketches.estimate(u, v).ok(),
                    b.sketches.estimate(u, v).ok(),
                    "{spec} ({u},{v})"
                );
            }
        }
    }
}

#[test]
fn self_distance_is_zero_for_every_family() {
    let graph = workload();
    for spec in SchemeSpec::all_families() {
        let outcome = spec
            .build(&graph, &SchemeConfig::default().with_seed(19))
            .unwrap();
        for u in graph.nodes().step_by(11) {
            assert_eq!(outcome.sketches.estimate(u, u).unwrap(), 0, "{spec}");
        }
    }
}
