//! Golden `RunStats` of every shipped CONGEST program, pinned from the
//! commit before the round engine's message plane was replaced.
//!
//! Rounds, messages and words are the paper's currency, so an engine change
//! may not move them by one.  Every case runs under `num_threads` 1, 2, 3 and
//! 8: the statistics must equal the pinned row and the final program state
//! must be the same at every thread count.

use congest_sim::programs::bellman_ford::BellmanFordProgram;
use congest_sim::programs::bfs_tree::build_bfs_tree;
use congest_sim::{CongestConfig, Network, NodeProgram, RunStats};
use dsketch::distributed::{run_sketch_exchange, PhaseProgram};
use dsketch::prelude::*;
use dsketch::sketch::DistKey;
use netgraph::generators::{erdos_renyi, grid, ring, GeneratorConfig};
use netgraph::{Graph, GraphBuilder, NodeId};

const THREADS: [usize; 4] = [1, 2, 3, 8];

/// `(rounds, messages, words, max_messages_in_round, active_rounds)`.
type Golden = (u64, u64, u64, u64, u64);

fn golden(stats: &RunStats) -> Golden {
    assert_eq!(stats.bandwidth_violations, 0);
    (
        stats.rounds,
        stats.messages,
        stats.words,
        stats.max_messages_in_round,
        stats.active_rounds,
    )
}

/// A ring of 18 nodes and a path of 12 with no edge between them.
fn disconnected() -> Graph {
    let mut b = GraphBuilder::new(30);
    for i in 0..18 {
        b.add_edge_idx(i, (i + 1) % 18, 1 + (i as u64 * 7) % 5);
    }
    for i in 18..29 {
        b.add_edge_idx(i, i + 1, 1 + (i as u64 * 3) % 4);
    }
    b.build()
}

fn inputs() -> [(&'static str, Graph); 4] {
    [
        (
            "er",
            erdos_renyi(96, 0.08, GeneratorConfig::uniform(11, 1, 20)),
        ),
        ("grid", grid(8, 8, GeneratorConfig::uniform(5, 1, 9))),
        ("ring", ring(40, GeneratorConfig::uniform(3, 1, 6))),
        ("disconnected", disconnected()),
    ]
}

fn config(threads: usize) -> CongestConfig {
    CongestConfig {
        num_threads: threads,
        ..Default::default()
    }
}

/// Run `case` at every thread count; the `(state, stats)` pairs must agree,
/// and the statistics are returned for pinning.
fn at_every_thread_count(name: &str, case: impl Fn(CongestConfig) -> (String, RunStats)) -> Golden {
    let (state, stats) = case(config(THREADS[0]));
    for &threads in &THREADS[1..] {
        let (other_state, other_stats) = case(config(threads));
        assert_eq!(stats, other_stats, "{name}: stats at {threads} threads");
        assert_eq!(state, other_state, "{name}: state at {threads} threads");
    }
    golden(&stats)
}

fn run_programs<P: NodeProgram + std::fmt::Debug>(
    graph: &Graph,
    config: CongestConfig,
    factory: impl FnMut(NodeId) -> P,
) -> (String, RunStats) {
    let mut net = Network::new(graph, config, factory);
    let outcome = net.run_until_quiescent(1_000_000);
    assert!(outcome.completed);
    (format!("{:?}", net.programs()), outcome.stats)
}

fn scheme_config(config: CongestConfig) -> SchemeConfig {
    SchemeConfig::default().with_seed(17).with_congest(config)
}

fn build_tz(graph: &Graph, k: usize, config: &SchemeConfig) -> (String, RunStats) {
    let outcome = SchemeSpec::thorup_zwick(k)
        .build_sketches(graph, config)
        .unwrap();
    let phases: u64 = outcome.phase_stats.iter().map(|s| s.messages).sum();
    if outcome.tree_stats.is_none() {
        assert_eq!(phases, outcome.stats.messages);
    }
    (format!("{:?}", outcome.sketches), outcome.stats)
}

/// Every `(program, input)` case with its statistics.
fn measure() -> Vec<(String, Golden)> {
    let mut rows = Vec::new();
    for (input, graph) in &inputs() {
        let n = graph.num_nodes();
        let mut row = |program: &str, case: &dyn Fn(CongestConfig) -> (String, RunStats)| {
            let name = format!("{program}/{input}");
            let stats = at_every_thread_count(&name, case);
            rows.push((name, stats));
        };

        row("bfs-tree", &|c| {
            let (trees, stats) = build_bfs_tree(graph, c);
            (format!("{trees:?}"), stats)
        });
        row("bellman-ford", &|c| {
            run_programs(graph, c, |u| BellmanFordProgram::new(u, u == NodeId(0)))
        });
        // The k-source flood: one Algorithm-2 phase with no threshold.
        row("k-source", &|c| {
            run_programs(graph, c, |u| {
                let level = if u.index() % 7 == 0 { 0 } else { -1 };
                PhaseProgram::new(u, 0, level, DistKey::INFINITE)
            })
        });
        row("tz:2", &|c| build_tz(graph, 2, &scheme_config(c)));
        row("tz:3", &|c| build_tz(graph, 3, &scheme_config(c)));
        row("cdg:0.3,2", &|c| {
            let outcome = SchemeSpec::cdg(0.3, 2)
                .build_sketches(graph, &scheme_config(c))
                .unwrap();
            (format!("{:?}", outcome.sketches), outcome.stats)
        });
        row("tz:2+termination", &|c| {
            build_tz(graph, 2, &scheme_config(c).with_termination_detection())
        });
        row("exchange", &|c| {
            let built = SchemeSpec::thorup_zwick(2).build_sketches(graph, &scheme_config(c));
            let labels = &built.unwrap().sketches.layers[0].sketches;
            let (estimate, stats) =
                run_sketch_exchange(graph, labels, NodeId(1), NodeId::from_index(n / 2), c);
            (format!("{estimate:?}"), stats)
        });
    }
    rows
}

/// Pinned at the parent commit (per-node outboxes and a sequential
/// `deliver`).
const PINNED: &[(&str, Golden)] = &[
    ("bfs-tree/er", (4, 2413, 4511, 736, 3)),
    ("bellman-ford/er", (7, 1203, 1203, 406, 6)),
    ("k-source/er", (32, 14662, 29324, 688, 31)),
    ("tz:2/er", (77, 20507, 41014, 688, 75)),
    ("tz:3/er", (44, 9300, 18600, 582, 41)),
    ("cdg:0.3,2/er", (50, 14165, 28330, 688, 48)),
    ("tz:2+termination/er", (108, 43441, 86187, 1371, 106)),
    ("exchange/er", (57, 838, 1673, 427, 56)),
    ("bfs-tree/grid", (15, 2240, 4032, 285, 14)),
    ("bellman-ford/grid", (15, 229, 229, 29, 14)),
    ("k-source/grid", (24, 3436, 6872, 216, 23)),
    ("tz:2/grid", (38, 3100, 6200, 208, 36)),
    ("tz:3/grid", (42, 2245, 4490, 177, 39)),
    ("cdg:0.3,2/grid", (46, 3403, 6806, 209, 44)),
    ("tz:2+termination/grid", (121, 8692, 16684, 285, 119)),
    ("exchange/grid", (26, 306, 607, 32, 25)),
    ("bfs-tree/ring", (21, 1298, 2178, 117, 20)),
    ("bellman-ford/ring", (21, 80, 80, 4, 20)),
    ("k-source/ring", (26, 496, 992, 24, 25)),
    ("tz:2/ring", (42, 858, 1716, 72, 40)),
    ("tz:3/ring", (40, 506, 1012, 60, 37)),
    ("cdg:0.3,2/ring", (36, 714, 1428, 74, 34)),
    ("tz:2+termination/ring", (170, 3170, 5766, 117, 168)),
    ("exchange/ring", (47, 268, 517, 10, 46)),
    ("bfs-tree/disconnected", (12, 495, 836, 83, 11)),
    ("bellman-ford/disconnected", (10, 36, 36, 4, 9)),
    ("k-source/disconnected", (11, 154, 308, 19, 10)),
    ("tz:2/disconnected", (21, 329, 658, 48, 19)),
    ("tz:3/disconnected", (30, 378, 756, 37, 27)),
    ("cdg:0.3,2/disconnected", (23, 371, 742, 52, 21)),
    ("tz:2+termination/disconnected", (79, 1265, 2264, 83, 77)),
    ("exchange/disconnected", (16, 70, 136, 6, 15)),
];

#[test]
fn run_stats_equal_the_parent_commit_at_every_thread_count() {
    let measured = measure();
    assert_eq!(measured.len(), PINNED.len(), "one pinned row per case");
    for ((name, stats), (pinned_name, pinned)) in measured.iter().zip(PINNED) {
        assert_eq!(name, pinned_name);
        assert_eq!(stats, pinned, "{name}");
    }
}
