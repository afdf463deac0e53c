//! A build's per-phase cost lives on the `dsketch-obs` registry, in one
//! ledger — `dsketch_build_*{phase}` — and what each build adds there equals
//! what the build itself returns: on both sync modes of the CONGEST engine
//! (`congest/…` phases) and on the direct engine (`tz/…` phases).
//!
//! The registry is process-global, so this file holds one test: nothing else
//! in the process builds while the snapshots before and after each build are
//! compared.

use congest_sim::programs::bfs_tree::build_bfs_tree;
use congest_sim::CongestConfig;
use dsketch::prelude::*;
use dsketch_obs::MetricsSnapshot;
use netgraph::generators::{erdos_renyi, GeneratorConfig};

/// `(rounds, messages, words)` of one `phase` row, and the number of wall
/// times recorded for it.
type Row = ([u64; 3], u64);

/// The rows of a build's simulated runs, `run` being `"0"` … `"k-1"`,
/// `"tree"` or `"detected"`.
fn congest(run: &str) -> String {
    format!("congest/{run}")
}

fn cost(stats: &RunStats) -> [u64; 3] {
    [stats.rounds, stats.messages, stats.words]
}

fn sum(a: [u64; 3], b: [u64; 3]) -> [u64; 3] {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

fn row(snapshot: &MetricsSnapshot, phase: &str) -> Row {
    let labels = format!("phase=\"{phase}\"");
    let counter = |name| snapshot.counter(name, &labels).unwrap_or(0);
    let cost = [
        counter("dsketch_build_rounds_total"),
        counter("dsketch_build_messages_total"),
        counter("dsketch_build_words_total"),
    ];
    let walls = snapshot
        .histogram("dsketch_build_phase_nanos", &labels)
        .map_or(0, |h| h.count());
    (cost, walls)
}

/// What one build added to `phase`'s row of the ledger.
fn gained(before: &MetricsSnapshot, after: &MetricsSnapshot, phase: &str) -> Row {
    let ((was, was_walls), (now, now_walls)) = (row(before, phase), row(after, phase));
    ([0, 1, 2].map(|i| now[i] - was[i]), now_walls - was_walls)
}

#[test]
fn registry_rows_equal_what_each_build_returns() {
    let graph = erdos_renyi(120, 0.06, GeneratorConfig::uniform(29, 1, 15));
    let k = 3;
    let spec = SchemeSpec::thorup_zwick(k);
    let config = SchemeConfig::default().with_seed(5);
    let registry = dsketch_obs::global();
    let phases: Vec<String> = (0..k).map(|phase| congest(&phase.to_string())).collect();

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
    for run in [congest("tree"), congest("detected")] {
        assert_eq!(gained(&before, &after, &run), ([0; 3], 0), "{run}");
    }

    // Section 3.3: the BFS preamble and the one run carrying all k phases
    // with their ECHO/COMPLETE/START traffic, summing to `stats`.
    let before = after;
    let detected = spec
        .build(&graph, &config.with_termination_detection())
        .unwrap();
    let after = registry.snapshot();
    let (tree, tree_walls) = gained(&before, &after, &congest("tree"));
    let (run, run_walls) = gained(&before, &after, &congest("detected"));
    assert_eq!((tree_walls, run_walls), (1, 1));
    assert_eq!(sum(tree, run), cost(&detected.stats));
    let (trees, bfs) = build_bfs_tree(&graph, CongestConfig::default());
    assert_eq!(tree, cost(&bfs), "the tree row is the BFS preamble");
    for phase in &phases {
        assert_eq!(gained(&before, &after, phase), ([0; 3], 0), "phase {phase}");
    }

    // The round limit holds the BFS preamble too: a limit below the tree's
    // depth cuts the build off inside its tree run, which spent at most
    // that many rounds, and the detected run never starts.
    let before = after;
    let depth = trees.iter().map(|tree| tree.depth).max().unwrap();
    let limit = depth - 1;
    assert!(limit > 0, "a tree of depth {depth}");
    let cut = spec.build(
        &graph,
        &config.with_termination_detection().with_max_rounds(limit),
    );
    assert!(
        matches!(cut, Err(SketchError::RoundLimitExceeded { limit: l }) if l == limit),
        "{:?}",
        cut.err()
    );
    let after = registry.snapshot();
    let ([rounds, ..], walls) = gained(&before, &after, &congest("tree"));
    assert!(
        rounds <= limit,
        "the tree run went {rounds} rounds past {limit}"
    );
    assert_eq!(walls, 1, "the cut tree run is on the ledger");
    let ([detected_rounds, ..], _) = gained(&before, &after, &congest("detected"));
    assert_eq!(detected_rounds, 0, "no detected run after a cut tree");

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
        let walls = |s| row(s, phase).1;
        assert_eq!(walls(&after) - walls(&before), 2, "{phase}");
    }
    let rounds = |s: &MetricsSnapshot| s.counter_sum("dsketch_build_rounds_total");
    assert_eq!(rounds(&after), rounds(&before), "no simulated round");
}
