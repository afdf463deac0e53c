//! Differential test of `netgraph::shortest_path::multi_source_dijkstra`
//! against two references that share no code with it.
//!
//! The search runs on a monotone radix queue in which equal distances pop
//! in no particular order; the tree it returns must nevertheless be the one
//! the binary-heap search it replaced returned, whose `(distance, hops, id)`
//! pop order decided every tie.  The first reference is that search, copied
//! here verbatim: `dist`, `hops`, `parent` and `source` must agree field for
//! field — on every generator, with one, several and duplicate sources, on
//! disconnected inputs, and on graphs with zero-weight edges and many
//! equal-length paths (where a node's hop count and parent can change after
//! it was expanded, the case the relaxation's tie rule and the parent-chain
//! `source` exist for).  The second is Floyd–Warshall on small graphs, for
//! `dist` alone: every other exact-distance reference in this suite
//! (`DistanceTable::exact`, hence `build_differential.rs`'s model) is built
//! on the function under test.

use netgraph::generators::{
    balanced_tree, erdos_renyi, erdos_renyi_gnm, grid, preferential_attachment, random_geometric,
    random_tree, ring, ring_with_chords, torus, waxman, GeneratorConfig,
};
use netgraph::shortest_path::{multi_source_dijkstra, ShortestPathTree};
use netgraph::{add_dist, Distance, Graph, GraphBuilder, NodeId, INFINITY};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The search `multi_source_dijkstra` was before the radix queue: a binary
/// heap keyed `(distance, hops, node)`, first strictly better candidate
/// wins, `source` copied while relaxing.
fn binary_heap_dijkstra(graph: &Graph, sources: &[NodeId]) -> ShortestPathTree {
    let n = graph.num_nodes();
    let mut dist = vec![INFINITY; n];
    let mut parent = vec![None; n];
    let mut hops = vec![usize::MAX; n];
    let mut source = vec![None; n];

    let mut heap: BinaryHeap<Reverse<(Distance, usize, u32)>> = BinaryHeap::new();
    for &s in sources {
        if dist[s.index()] == 0 && source[s.index()].is_some() {
            continue; // duplicate source
        }
        dist[s.index()] = 0;
        hops[s.index()] = 0;
        source[s.index()] = Some(s);
        heap.push(Reverse((0, 0, s.0)));
    }

    while let Some(Reverse((d, h, u))) = heap.pop() {
        let ui = u as usize;
        if d > dist[ui] || (d == dist[ui] && h > hops[ui]) {
            continue; // stale entry
        }
        let u_node = NodeId(u);
        let (targets, weights) = graph.neighbor_slices(u_node);
        for (&v, &w) in targets.iter().zip(weights.iter()) {
            let vi = v.index();
            let nd = add_dist(d, w);
            let nh = h + 1;
            let better = nd < dist[vi] || (nd == dist[vi] && nh < hops[vi]);
            if better {
                dist[vi] = nd;
                hops[vi] = nh;
                parent[vi] = Some(u_node);
                source[vi] = source[ui];
                heap.push(Reverse((nd, nh, v.0)));
            }
        }
    }

    ShortestPathTree {
        dist,
        parent,
        hops,
        source,
    }
}

/// All-pairs distances by Floyd–Warshall, straight from the edge list.
fn floyd_warshall(graph: &Graph) -> Vec<Vec<Distance>> {
    let n = graph.num_nodes();
    let mut d = vec![vec![INFINITY; n]; n];
    for u in graph.nodes() {
        d[u.index()][u.index()] = 0;
        for e in graph.neighbors(u) {
            let slot = &mut d[u.index()][e.to.index()];
            *slot = (*slot).min(e.weight);
        }
    }
    for via in 0..n {
        for a in 0..n {
            for b in 0..n {
                let through = add_dist(d[a][via], d[via][b]);
                if through < d[a][b] {
                    d[a][b] = through;
                }
            }
        }
    }
    d
}

fn assert_same_tree(context: &str, graph: &Graph, sources: &[NodeId]) {
    let got = multi_source_dijkstra(graph, sources);
    let want = binary_heap_dijkstra(graph, sources);
    assert_eq!(got.dist, want.dist, "{context}: dist from {sources:?}");
    assert_eq!(got.hops, want.hops, "{context}: hops from {sources:?}");
    assert_eq!(
        got.parent, want.parent,
        "{context}: parent from {sources:?}"
    );
    assert_eq!(
        got.source, want.source,
        "{context}: source from {sources:?}"
    );
}

/// One, several, duplicate, all and no sources, spread over the id range.
fn source_sets(n: usize, seed: u64) -> Vec<Vec<NodeId>> {
    let pick =
        |i: u64| NodeId::from_index(((seed + 1).wrapping_mul(2 * i + 1) % n as u64) as usize);
    vec![
        vec![pick(0)],
        vec![NodeId::from_index(n - 1)],
        vec![pick(1), pick(2), pick(3)],
        vec![pick(4), pick(5), pick(4), pick(5), pick(4)],
        (0..n).step_by(5).rev().map(NodeId::from_index).collect(),
        (0..n).map(NodeId::from_index).collect(),
        vec![],
    ]
}

fn assert_same_trees(context: &str, graph: &Graph, seed: u64) {
    for sources in source_sets(graph.num_nodes(), seed) {
        assert_same_tree(context, graph, &sources);
    }
}

/// One small instance of every `netgraph` generator under `config`.
fn every_generator(config: GeneratorConfig) -> Vec<(&'static str, Graph)> {
    vec![
        ("erdos_renyi", erdos_renyi(44, 0.12, config)),
        ("erdos_renyi_gnm", erdos_renyi_gnm(40, 90, config)),
        ("random_geometric", random_geometric(40, 0.3, config)),
        ("grid", grid(6, 7, config)),
        ("torus", torus(5, 6, config)),
        ("preferential", preferential_attachment(42, 2, config)),
        ("ring", ring(36, config)),
        ("ring_with_chords", ring_with_chords(36, 5, 3, config)),
        ("balanced_tree", balanced_tree(40, 3, config)),
        ("random_tree", random_tree(40, config)),
        ("waxman", waxman(40, 0.6, 0.4, config)),
    ]
}

/// The weight models that matter to tie-breaking: spread-out weights (few
/// ties), unit weights (every tie is a hop tie), a three-value range with
/// zeros (zero-weight edges inside a sea of equal-length paths) and all
/// zeros (the whole graph is one distance class; hops alone order it).
fn weight_models(seed: u64) -> [(&'static str, GeneratorConfig); 4] {
    [
        ("weighted", GeneratorConfig::uniform(seed, 1, 40)),
        ("unit", GeneratorConfig::unit(seed)),
        ("zero-to-two", GeneratorConfig::uniform(seed, 0, 2)),
        ("all-zero", GeneratorConfig::uniform(seed, 0, 0)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn tree_is_the_binary_heap_tree_on_every_generator(seed in 0u64..10_000) {
        for (model, config) in weight_models(seed) {
            for (name, graph) in every_generator(config) {
                assert_same_trees(&format!("{name}/{model}, seed {seed}"), &graph, seed);
            }
        }
    }

    #[test]
    fn distances_are_floyd_warshall_distances(seed in 0u64..10_000) {
        for (model, config) in weight_models(seed) {
            for (name, graph) in every_generator(config) {
                assert!(graph.num_nodes() <= 64);
                let exact = floyd_warshall(&graph);
                for s in graph.nodes() {
                    let tree = multi_source_dijkstra(&graph, &[s]);
                    assert_eq!(tree.dist, exact[s.index()], "{name}/{model}, seed {seed}, from {s}");
                }
                // Several sources: the distance to the closest one.
                let sources = &source_sets(graph.num_nodes(), seed)[2];
                let tree = multi_source_dijkstra(&graph, sources);
                for v in graph.nodes() {
                    let closest = sources.iter().map(|s| exact[s.index()][v.index()]).min();
                    assert_eq!(Some(tree.dist[v.index()]), closest, "{name}/{model}, seed {seed}");
                }
            }
        }
    }
}

/// Two components and an isolated node, with and without a source in each.
#[test]
fn tree_is_the_binary_heap_tree_on_disconnected_inputs() {
    for zero_every in [None, Some(2), Some(1)] {
        let weight = |i: usize| match zero_every {
            Some(stride) if i.is_multiple_of(stride) => 0,
            _ => 1 + (i as u64 * 7) % 5,
        };
        let mut builder = GraphBuilder::new(23);
        for i in 0..11 {
            builder.add_edge_idx(i, (i + 1) % 12, weight(i));
        }
        builder.add_edge_idx(0, 6, 2);
        for i in 12..21 {
            builder.add_edge_idx(i, i + 1, weight(i));
        }
        builder.add_edge_idx(12, 17, 4);
        let graph = builder.build(); // node 22 is isolated
        let context = format!("disconnected, zero weight every {zero_every:?}");
        for seed in 0..6 {
            assert_same_trees(&context, &graph, seed);
        }
        let ids = |ids: &[u32]| ids.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
        for sources in [ids(&[22]), ids(&[3, 15]), ids(&[15, 22, 15]), ids(&[11, 0])] {
            assert_same_tree(&context, &graph, &sources);
        }
        let exact = floyd_warshall(&graph);
        for s in graph.nodes() {
            assert_eq!(multi_source_dijkstra(&graph, &[s]).dist, exact[s.index()]);
        }
    }
}

/// Layered graphs in which every node of a layer reaches every node of the
/// next at the same weight, with zero-weight edges inside a layer: every
/// shortest path has many twins, a node is first reached over more hops
/// than it needs, and its parent is replaced by a tie after it was expanded.
#[test]
fn tree_is_the_binary_heap_tree_with_zero_weight_edges_and_equal_length_paths() {
    for (layers, width, between, within) in [(4, 4, 1, 0), (5, 3, 0, 0), (3, 5, 2, 0), (4, 4, 1, 1)]
    {
        let n = layers * width;
        let mut builder = GraphBuilder::new(n);
        for layer in 0..layers {
            for a in 0..width {
                for b in a + 1..width {
                    builder.add_edge_idx(layer * width + a, layer * width + b, within);
                }
                if layer + 1 < layers {
                    for b in 0..width {
                        builder.add_edge_idx(layer * width + a, (layer + 1) * width + b, between);
                    }
                }
            }
        }
        let graph = builder.build();
        let context = format!("layers {layers}×{width}, between {between}, within {within}");
        for seed in 0..8 {
            assert_same_trees(&context, &graph, seed);
        }
        let exact = floyd_warshall(&graph);
        for s in graph.nodes() {
            assert_eq!(multi_source_dijkstra(&graph, &[s]).dist, exact[s.index()]);
        }
    }

    // A zero-weight path whose far end also hangs one hop off the source:
    // ids ascend along the path, so a queue that pops equal keys last-in
    // first-out walks the whole path before it sees the shortcut.
    let mut builder = GraphBuilder::new(12);
    for i in 0..11 {
        builder.add_edge_idx(i, i + 1, 0);
    }
    builder.add_edge_idx(0, 11, 0);
    builder.add_edge_idx(0, 6, 0);
    let graph = builder.build();
    for seed in 0..8 {
        assert_same_trees("zero-weight path with shortcuts", &graph, seed);
    }
}
