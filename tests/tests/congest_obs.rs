//! A build's per-phase cost lives on the `dsketch-obs` registry, and what
//! each build adds there equals what the build itself returns — on both sync
//! modes of the CONGEST engine and on the direct engine.
//!
//! The registry is process-global, so this file holds one test: nothing else
//! in the process builds while the snapshots before and after each build are
//! compared.

use congest_sim::programs::bfs_tree::build_bfs_tree;
use dsketch::prelude::*;
use dsketch_obs::MetricsSnapshot;
use netgraph::generators::{erdos_renyi, GeneratorConfig};

/// `(rounds, messages, words)` of one `phase` row, and the number of wall
/// times recorded for it.
type Row = ([u64; 3], u64);

fn cost(stats: &RunStats) -> [u64; 3] {
    [stats.rounds, stats.messages, stats.words]
}

fn sum(a: [u64; 3], b: [u64; 3]) -> [u64; 3] {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

fn row(snapshot: &MetricsSnapshot, family: &str, phase: &str) -> Row {
    let labels = format!("phase=\"{phase}\"");
    let counter = |name| snapshot.counter(name, &labels).unwrap_or(0);
    let cost = [
        counter("dsketch_congest_rounds_total"),
        counter("dsketch_congest_messages_total"),
        counter("dsketch_congest_words_total"),
    ];
    let walls = snapshot.histogram(family, &labels).map_or(0, |h| h.count());
    (cost, walls)
}

/// What one build added to `phase`'s row of the CONGEST families.
fn gained(before: &MetricsSnapshot, after: &MetricsSnapshot, phase: &str) -> Row {
    let wall = "dsketch_congest_phase_nanos";
    let ((was, was_walls), (now, now_walls)) = (row(before, wall, phase), row(after, wall, phase));
    ([0, 1, 2].map(|i| now[i] - was[i]), now_walls - was_walls)
}

#[test]
fn registry_rows_equal_what_each_build_returns() {
    let graph = erdos_renyi(120, 0.06, GeneratorConfig::uniform(29, 1, 15));
    let k = 3;
    let spec = SchemeSpec::thorup_zwick(k);
    let config = SchemeConfig::default().with_seed(5);
    let registry = dsketch_obs::global();
    let phases: Vec<String> = (0..k).map(|phase| phase.to_string()).collect();

    // Oracle synchronization: one row per Algorithm-2 phase, one wall time
    // each, summing to the build's `stats`.
    let before = registry.snapshot();
    let oracle = spec.build(&graph, &config).unwrap();
    let after = registry.snapshot();
    let mut total = [0; 3];
    for phase in &phases {
        let (cost, walls) = gained(&before, &after, phase);
        assert!(cost[0] > 0, "phase {phase} ran no rounds");
        assert_eq!(walls, 1, "phase {phase}: one wall time per run");
        total = sum(total, cost);
    }
    assert_eq!(total, cost(&oracle.stats));
    for run in ["tree", "detected"] {
        assert_eq!(gained(&before, &after, run), ([0; 3], 0), "{run}");
    }

    // Section 3.3: the BFS preamble and the one run carrying all k phases
    // with their ECHO/COMPLETE/START traffic, summing to `stats`.
    let before = after;
    let detected = spec
        .build(&graph, &config.with_termination_detection())
        .unwrap();
    let after = registry.snapshot();
    let (tree, tree_walls) = gained(&before, &after, "tree");
    let (run, run_walls) = gained(&before, &after, "detected");
    assert_eq!((tree_walls, run_walls), (1, 1));
    assert_eq!(sum(tree, run), cost(&detected.stats));
    let (_, bfs) = build_bfs_tree(&graph, config.congest);
    assert_eq!(tree, cost(&bfs), "the tree row is the BFS preamble");
    for phase in &phases {
        assert_eq!(gained(&before, &after, phase), ([0; 3], 0), "phase {phase}");
    }

    // The direct engine simulates nothing; a two-layer build records each
    // batched phase once per layer.
    let before = after;
    let layered = SchemeSpec::parse("degrading:k=2,layers=2").unwrap();
    let direct = layered
        .build(&graph, &config.with_parallel_build().with_threads(2))
        .unwrap();
    let after = registry.snapshot();
    assert_eq!(direct.stats, RunStats::default());
    for phase in ["tz/pivots", "tz/clusters", "tz/merge"] {
        let walls = |s| row(s, "dsketch_build_phase_nanos", phase).1;
        assert_eq!(walls(&after) - walls(&before), 2, "{phase}");
    }
    let rounds = |s: &MetricsSnapshot| s.counter_sum("dsketch_congest_rounds_total");
    assert_eq!(rounds(&after), rounds(&before), "no simulated round");
}
