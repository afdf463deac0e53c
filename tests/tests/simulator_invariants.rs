//! Integration tests of the CONGEST simulator invariants under the real
//! sketch workloads (not just the toy programs of the unit tests).

use congest_sim::programs::bfs_tree::build_bfs_tree;
use congest_sim::{CongestConfig, Network};
use dsketch::distributed::{build_with_hierarchy, PhaseProgram};
use dsketch::prelude::*;
use dsketch::sketch::DistKey;
use netgraph::generators::{erdos_renyi, grid, GeneratorConfig};
use netgraph::shortest_path::multi_source_dijkstra;
use netgraph::NodeId;

/// The engine's parallel execution must be observationally identical to the
/// sequential one for the real construction, not just for toy floods.
#[test]
fn thread_count_does_not_change_results_or_stats() {
    let graph = erdos_renyi(100, 0.08, GeneratorConfig::uniform(7, 1, 25));
    let (h, _) =
        Hierarchy::sample_until_top_nonempty(100, &TzParams::new(3).with_seed(4), 500).unwrap();

    let mut results = Vec::new();
    for threads in [1usize, 2, 8] {
        let config = SchemeConfig::default().with_threads(threads);
        results.push(build_with_hierarchy(&graph, &h, &config).unwrap());
    }
    for pair in results.windows(2) {
        assert_eq!(pair[0].1, pair[1].1, "stats differ across thread counts");
        assert_eq!(pair[0].0, pair[1].0, "labels differ across thread counts");
    }
}

/// Message accounting: every delivered message is counted exactly once, so
/// the total equals the sum over rounds and the per-round maximum is
/// consistent.
#[test]
fn stats_are_internally_consistent() {
    let graph = grid(10, 10, GeneratorConfig::uniform(3, 1, 10));
    let result = SchemeSpec::thorup_zwick(2)
        .build(&graph, &SchemeConfig::default().with_seed(9))
        .unwrap();
    let stats = &result.stats;
    assert!(stats.active_rounds <= stats.rounds);
    assert!(stats.max_messages_in_round <= stats.messages);
    assert!(
        stats.words >= stats.messages,
        "every message carries at least one word"
    );
}

/// The BFS tree used by termination detection must be a valid spanning tree
/// on every workload family, and the k-source primitive — an Algorithm-2
/// phase with no threshold — must agree with Dijkstra from every source.
#[test]
fn bfs_tree_and_k_source_agree_with_centralized_computations() {
    let graph = erdos_renyi(90, 0.07, GeneratorConfig::uniform(13, 1, 30));
    let (trees, stats) = build_bfs_tree(&graph, CongestConfig::default());
    assert!(stats.rounds > 0);
    // Spanning-tree checks.
    let root = trees[0].root;
    assert!(trees.iter().all(|t| t.root == root));
    let child_edges: usize = trees.iter().map(|t| t.children.len()).sum();
    assert_eq!(child_edges, graph.num_nodes() - 1);

    // k-source Bellman-Ford vs Dijkstra from a handful of sources.
    let sources = [NodeId(0), NodeId(30), NodeId(60), NodeId(89)];
    let mut net = Network::new(&graph, CongestConfig::default(), |u| {
        let level = if sources.contains(&u) { 0 } else { -1 };
        PhaseProgram::new(u, 0, level, DistKey::INFINITE)
    });
    let outcome = net.run_until_quiescent(u64::MAX);
    assert!(outcome.completed);
    for &s in &sources {
        let exact = multi_source_dijkstra(&graph, &[s]);
        for (i, p) in net.programs().iter().enumerate() {
            assert_eq!(p.distances().distance(s), exact.dist[i]);
        }
    }
}

/// Strict CONGEST (one message per edge per round) is sufficient for the
/// oracle-synchronized construction: the round-robin queues never violate
/// it, and every oracle-mode build is held to it, because that is the budget
/// `PhaseProgram` declares (the trait's default).
#[test]
fn oracle_mode_runs_under_strict_bandwidth() {
    let graph = grid(9, 9, GeneratorConfig::uniform(5, 1, 8));
    let config = SchemeConfig::default().with_seed(2);
    assert_eq!(config.sync, SyncMode::GlobalOracle);
    // A send past `PhaseProgram`'s budget panics, so a build that returns
    // kept the strict one.
    let result = SchemeSpec::thorup_zwick(3).build(&graph, &config).unwrap();
    assert!(result.sketches.max_words() > 0);
}

/// The word totals reported by the engine match the per-message accounting of
/// the TZ data messages (2 words each) within the expected envelope.
#[test]
fn word_accounting_matches_message_types() {
    let graph = erdos_renyi(64, 0.1, GeneratorConfig::uniform(21, 1, 10));
    let result = SchemeSpec::thorup_zwick(2)
        .build(&graph, &SchemeConfig::default().with_seed(6))
        .unwrap();
    // Oracle mode sends only SourcedAnnouncement messages (2 words each).
    assert_eq!(result.stats.words, 2 * result.stats.messages);
}

/// On inputs where every node's source table holds a dozen sources a phase
/// or more — and, at tz:2, about 45 in its top phase, past the 32 a table
/// takes before it first doubles — the CONGEST engine builds exactly the
/// direct engine's layers, at one thread and at two, for the same cost at
/// both.
#[test]
fn congest_labels_equal_the_direct_build_where_source_tables_grow() {
    let er =
        |n: usize, seed| erdos_renyi(n, 8.0 / n as f64, GeneratorConfig::uniform(seed, 1, 100));
    let inputs = [
        ("tz:3", er(2048, 31)),
        ("tz:2", er(2048, 34)),
        ("tz:3", grid(45, 45, GeneratorConfig::uniform(32, 1, 10))),
        ("cdg:0.3,2", er(1024, 33)),
    ];
    for (scheme, graph) in &inputs {
        let spec = SchemeSpec::parse(scheme).unwrap();
        let config = SchemeConfig::default().with_seed(5);
        let direct = spec
            .build_sketches(graph, &config.with_engine(BuildEngine::Parallel))
            .unwrap();
        let costs: Vec<_> = [1, 2]
            .into_iter()
            .map(|num_threads| {
                let congest = config
                    .with_engine(BuildEngine::Congest)
                    .with_threads(num_threads);
                let built = spec.build_sketches(graph, &congest).unwrap();
                let n = graph.num_nodes();
                assert!(
                    built.sketches == direct.sketches,
                    "{scheme} on n = {n} at {num_threads} threads"
                );
                built.stats
            })
            .collect();
        assert!(costs[0].messages > 0);
        assert_eq!(costs[0], costs[1], "{scheme}: cost at one and two threads");
    }
}
