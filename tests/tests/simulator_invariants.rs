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
        let config = SchemeConfig::default().with_congest(CongestConfig {
            num_threads: threads,
            ..Default::default()
        });
        results.push(build_with_hierarchy(&graph, h.clone(), &config).unwrap());
    }
    for pair in results.windows(2) {
        assert_eq!(
            pair[0].stats, pair[1].stats,
            "stats differ across thread counts"
        );
        for u in graph.nodes() {
            assert_eq!(pair[0].sketches.sketch(u), pair[1].sketches.sketch(u));
        }
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
    assert_eq!(stats.bandwidth_violations, 0);
    // Phase stats sum to the total in oracle mode.
    let phase_total: u64 = result.phase_stats.iter().map(|s| s.messages).sum();
    assert_eq!(phase_total, stats.messages);
    let phase_rounds: u64 = result.phase_stats.iter().map(|s| s.rounds).sum();
    assert_eq!(phase_rounds, stats.rounds);
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
    let mut net = Network::new(&graph, CongestConfig::strict(), |u| {
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

/// Strict CONGEST mode (one message per edge per round) is sufficient for the
/// oracle-synchronized construction: the round-robin queues never violate it.
#[test]
fn oracle_mode_runs_under_strict_bandwidth() {
    let graph = grid(9, 9, GeneratorConfig::uniform(5, 1, 8));
    let config = SchemeConfig::default()
        .with_seed(2)
        .with_congest(CongestConfig::strict());
    let result = SchemeSpec::thorup_zwick(3).build(&graph, &config).unwrap();
    assert_eq!(result.stats.bandwidth_violations, 0);
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
