//! The centralized Thorup–Zwick construction (Section 3.1, \[TZ05\]).
//!
//! The centralized algorithm is the baseline the paper distributes.  It is
//! implemented here for two reasons: (1) it is the correctness oracle — given
//! the *same* sampled [`Hierarchy`](crate::hierarchy::Hierarchy), the
//! distributed construction of Section 3.2 must produce exactly the same
//! pivots and bunches (experiment E8 asserts this bit-for-bit); and (2) the
//! experiment harness compares the centralized construction cost against the
//! distributed round/message cost.  The baseline is the direct engine on one
//! thread, `build::thorup_zwick(graph, &hierarchy, 1)`
//! ([`crate::build::thorup_zwick`]); this module holds its two searches.
//!
//! The construction follows \[TZ05\]:
//!
//! 1. for every level `i`, compute `d(u, A_i)` and the pivot `p_i(u)` with a
//!    multi-source Dijkstra whose keys are [`DistKey`]s (lexicographic
//!    `(distance, id)` pairs), so tie-breaking is globally consistent;
//! 2. for every `w ∈ A_i \ A_{i+1}`, grow the cluster `C(w)` with a truncated
//!    Dijkstra that only expands through vertices `u` satisfying
//!    `(d(w, u), w) < key(u, A_{i+1})`; every vertex reached records `w` in
//!    its bunch.  (Clusters and bunches are inverse relations: `u ∈ C(w)` iff
//!    `w ∈ B(u)`, Section 3.2.)
//!
//! # One queue, two policies
//!
//! Both searches run on [`netgraph::shortest_path::RadixQueue`], the
//! monotone radix heap the ground-truth Dijkstra uses: keys are distances,
//! a search never pushes below the distance it popped last (weights are
//! nonnegative — the queue `assert!`s it), and entries with equal distances
//! pop in no particular order.  Neither result depends on that order.
//! [`lexicographic_multi_source`] is label-correcting on the pair
//! `(distance, source)`: every improvement of a node's key is pushed and
//! every pushed key that is still the node's best is expanded, so whatever
//! order equal distances leave the queue in, the fixed point is the
//! lexicographic minimum.  Cluster growth settles a node on its first
//! non-stale pop, as Dijkstra does, and the build's transpose
//! ([`crate::build`]) scatters each `(u, w)` pair once, wherever in `C(w)`'s
//! member list it sits.  The loops stay separate because their policies are
//! what differ — what a label is, when a candidate beats it, which nodes may
//! be expanded — and a generic search would take all of that as parameters;
//! the queue is the part they share.

use crate::sketch::DistKey;
use netgraph::shortest_path::RadixQueue;
use netgraph::{add_dist, Distance, Graph, NodeId, INFINITY};

/// Multi-source Dijkstra minimizing the lexicographic `(distance, source)`
/// key: for every node the result is `min_{s ∈ sources} (d(u, s), s)`.
pub fn lexicographic_multi_source(graph: &Graph, sources: &[NodeId]) -> Vec<DistKey> {
    let n = graph.num_nodes();
    let mut best = vec![DistKey::INFINITE; n];
    // Keyed on distance, carrying `(source id, node)`.
    let mut queue: RadixQueue<(u32, u32)> = RadixQueue::new();
    for &s in sources {
        let key = DistKey::new(0, s);
        if key < best[s.index()] {
            best[s.index()] = key;
            queue.push(0, (s.0, s.0));
        }
    }
    while let Some((d, (src, u))) = queue.pop() {
        let u_node = NodeId(u);
        let key = DistKey::new(d, NodeId(src));
        if key > best[u as usize] {
            continue; // stale
        }
        let (targets, weights) = graph.neighbor_slices(u_node);
        for (&v, &w) in targets.iter().zip(weights.iter()) {
            let nd = add_dist(d, w);
            let cand = DistKey::new(nd, NodeId(src));
            if cand < best[v.index()] {
                best[v.index()] = cand;
                queue.push(nd, (src, v.0));
            }
        }
    }
    best
}

/// Reusable buffers for cluster growth, so building all clusters does not
/// allocate `O(n)` memory per source.  The parallel engine gives each worker
/// thread one of these ([`crate::parallel::parallel_map_with`]).
pub(crate) struct ClusterScratch {
    dist: Vec<Distance>,
    touched: Vec<usize>,
    /// Keyed on distance, carrying the node.  Drained by every exploration
    /// and rewound by `reset`, so only its buckets' capacity carries over.
    queue: RadixQueue<u32>,
}

impl ClusterScratch {
    pub(crate) fn new(n: usize) -> Self {
        ClusterScratch {
            dist: vec![INFINITY; n],
            touched: Vec::new(),
            queue: RadixQueue::new(),
        }
    }

    fn reset(&mut self) {
        for &t in &self.touched {
            self.dist[t] = INFINITY;
        }
        self.touched.clear();
        self.queue.reset();
    }
}

/// Grow the cluster `C(w)`: a truncated Dijkstra from `w` that only expands
/// through vertices `u` with `(d(w, u), w) < next_keys[u]`.  Returns the
/// members with their exact distances from `w`.
pub(crate) fn grow_cluster(
    graph: &Graph,
    w: NodeId,
    next_keys: &[DistKey],
    scratch: &mut ClusterScratch,
) -> Vec<(NodeId, Distance)> {
    scratch.reset();
    let mut members = Vec::new();

    let start_key = DistKey::new(0, w);
    if start_key < next_keys[w.index()] {
        scratch.dist[w.index()] = 0;
        scratch.touched.push(w.index());
        scratch.queue.push(0, w.0);
    }

    while let Some((d, u)) = scratch.queue.pop() {
        if d > scratch.dist[u as usize] {
            continue; // stale
        }
        members.push((NodeId(u), d));
        let (targets, weights) = graph.neighbor_slices(NodeId(u));
        for (&v, &wt) in targets.iter().zip(weights.iter()) {
            let nd = add_dist(d, wt);
            let cand_key = DistKey::new(nd, w);
            if cand_key < next_keys[v.index()] && nd < scratch.dist[v.index()] {
                if scratch.dist[v.index()] == INFINITY {
                    scratch.touched.push(v.index());
                }
                scratch.dist[v.index()] = nd;
                scratch.queue.push(nd, v.0);
            }
        }
    }
    members
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{thorup_zwick, DirectTzBuild};
    use crate::hierarchy::{Hierarchy, TzParams};
    use crate::query::estimate_distance;
    use netgraph::apsp::DistanceTable;
    use netgraph::generators::{erdos_renyi, grid, ring, GeneratorConfig};
    use netgraph::GraphBuilder;

    fn check_stretch(graph: &Graph, tz: &DirectTzBuild, k: usize) {
        let table = DistanceTable::exact(graph);
        let stretch = (2 * k - 1) as u64;
        for (u, v, exact) in table.pairs() {
            let est = estimate_distance(tz.sketches.sketch(u), tz.sketches.sketch(v))
                .expect("connected graph must produce an estimate");
            assert!(
                est >= exact,
                "estimate {est} below exact {exact} for ({u},{v})"
            );
            assert!(
                est <= stretch * exact,
                "stretch violated for ({u},{v}): est {est}, exact {exact}, bound {}",
                stretch * exact
            );
        }
    }

    #[test]
    fn k1_is_exact_all_pairs() {
        let g = erdos_renyi(40, 0.15, GeneratorConfig::uniform(3, 1, 10));
        let h = Hierarchy::sample(40, &TzParams::new(1)).unwrap();
        let tz = thorup_zwick(&g, &h, 1);
        let table = DistanceTable::exact(&g);
        for (u, v, exact) in table.pairs() {
            let est = estimate_distance(tz.sketches.sketch(u), tz.sketches.sketch(v)).unwrap();
            assert_eq!(est, exact);
        }
        // With k = 1 every bunch is all of V.
        for s in tz.sketches.iter() {
            assert_eq!(s.bunch_size(), 40);
        }
    }

    #[test]
    fn stretch_bound_holds_on_random_graph_k2() {
        let g = erdos_renyi(60, 0.1, GeneratorConfig::uniform(5, 1, 20));
        let h = Hierarchy::sample(60, &TzParams::new(2).with_seed(1)).unwrap();
        let tz = thorup_zwick(&g, &h, 1);
        check_stretch(&g, &tz, 2);
    }

    #[test]
    fn stretch_bound_holds_on_grid_k3() {
        let g = grid(7, 7, GeneratorConfig::uniform(2, 1, 10));
        let (h, _) =
            Hierarchy::sample_until_top_nonempty(49, &TzParams::new(3).with_seed(4), 100).unwrap();
        let tz = thorup_zwick(&g, &h, 1);
        check_stretch(&g, &tz, 3);
    }

    #[test]
    fn stretch_bound_holds_on_ring_k3() {
        let g = ring(50, GeneratorConfig::uniform(8, 1, 5));
        let (h, _) =
            Hierarchy::sample_until_top_nonempty(50, &TzParams::new(3).with_seed(0), 100).unwrap();
        let tz = thorup_zwick(&g, &h, 1);
        check_stretch(&g, &tz, 3);
    }

    #[test]
    fn pivots_are_exact_closest_level_members() {
        let g = erdos_renyi(50, 0.12, GeneratorConfig::uniform(11, 1, 9));
        let (h, _) =
            Hierarchy::sample_until_top_nonempty(50, &TzParams::new(3).with_seed(7), 100).unwrap();
        let tz = thorup_zwick(&g, &h, 1);
        let table = DistanceTable::exact(&g);
        for u in g.nodes() {
            for i in 0..3 {
                let members = h.level_members(i);
                let expected = members
                    .iter()
                    .map(|&w| DistKey::new(table.distance(u, w), w))
                    .min()
                    .unwrap();
                assert_eq!(tz.pivot_keys[i][u.index()], expected, "node {u} level {i}");
                let (p, d) = tz.sketches.sketch(u).pivot(i).unwrap();
                assert_eq!(DistKey::new(d, p), expected);
            }
        }
    }

    #[test]
    fn bunches_match_definition() {
        // B_i(u) = { w ∈ A_i \ A_{i+1} : (d(u,w), w) < key(u, A_{i+1}) }.
        let g = erdos_renyi(40, 0.15, GeneratorConfig::uniform(21, 1, 12));
        let (h, _) =
            Hierarchy::sample_until_top_nonempty(40, &TzParams::new(2).with_seed(3), 100).unwrap();
        let tz = thorup_zwick(&g, &h, 1);
        let table = DistanceTable::exact(&g);
        for u in g.nodes() {
            let sketch = tz.sketches.sketch(u);
            for i in 0..2u32 {
                let next_key = tz.pivot_keys[i as usize + 1][u.index()];
                for &w in &h.exact_level_members(i as usize) {
                    let key = DistKey::new(table.distance(u, w), w);
                    let should_be_member = key < next_key;
                    let is_member = sketch.bunch_entry(w).is_some_and(|e| e.level == i);
                    assert_eq!(
                        should_be_member, is_member,
                        "membership mismatch u={u} w={w} level={i}"
                    );
                    if is_member {
                        assert_eq!(sketch.bunch_distance(w), Some(table.distance(u, w)));
                    }
                }
            }
        }
    }

    #[test]
    fn bunch_sizes_track_expected_n_to_the_one_over_k() {
        // n = 512, k = 3: E|B_i(u)| ≤ n^{1/3} = 8, so E|B(u)| ≤ 24.
        let n = 512;
        let g = erdos_renyi(n, 8.0 / n as f64, GeneratorConfig::uniform(31, 1, 50));
        let (h, _) =
            Hierarchy::sample_until_top_nonempty(n, &TzParams::new(3).with_seed(5), 100).unwrap();
        let tz = thorup_zwick(&g, &h, 1);
        let avg_bunch: f64 = tz
            .sketches
            .iter()
            .map(|s| s.bunch_size() as f64)
            .sum::<f64>()
            / n as f64;
        // Generous bound: 4x the expectation.
        assert!(
            avg_bunch < 4.0 * 3.0 * 8.0,
            "average bunch size {avg_bunch} is far above the expected O(k n^(1/k))"
        );
    }

    #[test]
    fn sketch_invariants_hold() {
        let g = grid(6, 6, GeneratorConfig::uniform(9, 1, 7));
        let (h, _) =
            Hierarchy::sample_until_top_nonempty(36, &TzParams::new(2).with_seed(2), 100).unwrap();
        let tz = thorup_zwick(&g, &h, 1);
        for s in tz.sketches.iter() {
            s.check_invariants().unwrap();
        }
        assert!(tz.total_cluster_size > 0);
    }

    /// The two searches as they were on `std::collections::BinaryHeap`,
    /// whose `(distance, id, …)` pop order the radix queue does not have.
    mod binary_heap {
        use super::*;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        pub fn lexicographic_multi_source(graph: &Graph, sources: &[NodeId]) -> Vec<DistKey> {
            let mut best = vec![DistKey::INFINITE; graph.num_nodes()];
            let mut heap: BinaryHeap<Reverse<(Distance, u32, u32)>> = BinaryHeap::new();
            for &s in sources {
                let key = DistKey::new(0, s);
                if key < best[s.index()] {
                    best[s.index()] = key;
                    heap.push(Reverse((0, s.0, s.0)));
                }
            }
            while let Some(Reverse((d, src, u))) = heap.pop() {
                if DistKey::new(d, NodeId(src)) > best[u as usize] {
                    continue; // stale
                }
                let (targets, weights) = graph.neighbor_slices(NodeId(u));
                for (&v, &w) in targets.iter().zip(weights.iter()) {
                    let nd = add_dist(d, w);
                    let cand = DistKey::new(nd, NodeId(src));
                    if cand < best[v.index()] {
                        best[v.index()] = cand;
                        heap.push(Reverse((nd, src, v.0)));
                    }
                }
            }
            best
        }

        pub fn grow_cluster(
            graph: &Graph,
            w: NodeId,
            next_keys: &[DistKey],
        ) -> Vec<(NodeId, Distance)> {
            let mut dist = vec![INFINITY; graph.num_nodes()];
            let mut heap: BinaryHeap<Reverse<(Distance, u32)>> = BinaryHeap::new();
            let mut members = Vec::new();
            if DistKey::new(0, w) < next_keys[w.index()] {
                dist[w.index()] = 0;
                heap.push(Reverse((0, w.0)));
            }
            while let Some(Reverse((d, u))) = heap.pop() {
                if d > dist[u as usize] {
                    continue; // stale
                }
                members.push((NodeId(u), d));
                let (targets, weights) = graph.neighbor_slices(NodeId(u));
                for (&v, &wt) in targets.iter().zip(weights.iter()) {
                    let nd = add_dist(d, wt);
                    if DistKey::new(nd, w) < next_keys[v.index()] && nd < dist[v.index()] {
                        dist[v.index()] = nd;
                        heap.push(Reverse((nd, v.0)));
                    }
                }
            }
            members
        }
    }

    /// Pivot keys of every level and every landmark's cluster, new against
    /// old.  Clusters are compared as sets: the member order follows the pop
    /// order among equal distances, which nothing downstream reads.
    fn assert_searches_match_the_binary_heap_ones(name: &str, graph: &Graph, h: &Hierarchy) {
        let n = graph.num_nodes();
        let mut scratch = ClusterScratch::new(n);
        for level in 0..h.k() {
            let keys = lexicographic_multi_source(graph, &h.level_members(level));
            assert_eq!(
                keys,
                binary_heap::lexicographic_multi_source(graph, &h.level_members(level)),
                "{name}: pivot keys of level {level}"
            );
            let next_keys = lexicographic_multi_source(graph, &h.level_members(level + 1));
            for w in h.exact_level_members(level) {
                // One scratch across all landmarks, as a build worker has.
                let mut got = grow_cluster(graph, w, &next_keys, &mut scratch);
                let mut want = binary_heap::grow_cluster(graph, w, &next_keys);
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "{name}: cluster of {w} at level {level}");
            }
        }
    }

    #[test]
    fn searches_match_their_binary_heap_versions() {
        for seed in 0..4u64 {
            for k in 1..=3usize {
                let params = TzParams::new(k).with_seed(seed);
                // Few distinct weights, zeros among them: many equal keys.
                for (name, config) in [
                    ("weighted", GeneratorConfig::uniform(seed, 1, 30)),
                    ("unit", GeneratorConfig::unit(seed)),
                    ("zero-to-two", GeneratorConfig::uniform(seed, 0, 2)),
                ] {
                    let er = erdos_renyi(60, 0.08, config);
                    let h = Hierarchy::sample(60, &params).unwrap();
                    assert_searches_match_the_binary_heap_ones(&format!("er/{name}"), &er, &h);
                    let g = grid(7, 8, config);
                    let h = Hierarchy::sample(56, &params).unwrap();
                    assert_searches_match_the_binary_heap_ones(&format!("grid/{name}"), &g, &h);
                }

                // Two components and an isolated node.
                let mut b = GraphBuilder::new(23);
                for i in 0..11 {
                    b.add_edge_idx(i, (i + 1) % 12, 1 + (i as u64 * 7) % 5);
                }
                for i in 12..21 {
                    b.add_edge_idx(i, i + 1, 3);
                }
                let disconnected = b.build();
                let h = Hierarchy::sample(23, &params).unwrap();
                assert_searches_match_the_binary_heap_ones("disconnected", &disconnected, &h);

                // The CDG shape: only net nodes own clusters.
                let er = erdos_renyi(48, 0.1, GeneratorConfig::uniform(seed, 1, 25));
                let net: Vec<NodeId> = (0..48).step_by(3).map(NodeId).collect();
                let h = Hierarchy::sample_on_ground_set(48, &net, k, 0.4, seed).unwrap();
                assert_searches_match_the_binary_heap_ones("net-restricted", &er, &h);
            }
        }
    }

    #[test]
    fn lexicographic_multi_source_prefers_smaller_id_on_ties() {
        // Two sources at equal distance from node 2: the smaller id wins.
        let mut b = GraphBuilder::new(4);
        b.add_edge_idx(0, 2, 5);
        b.add_edge_idx(1, 2, 5);
        b.add_edge_idx(2, 3, 1);
        let g = b.build();
        let keys = lexicographic_multi_source(&g, &[NodeId(0), NodeId(1)]);
        assert_eq!(keys[2], DistKey::new(5, NodeId(0)));
        assert_eq!(keys[3], DistKey::new(6, NodeId(0)));
        assert_eq!(keys[0], DistKey::new(0, NodeId(0)));
        assert_eq!(keys[1], DistKey::new(0, NodeId(1)));
    }

    #[test]
    fn empty_source_set_gives_infinite_keys() {
        let g = ring(5, GeneratorConfig::unit(1));
        let keys = lexicographic_multi_source(&g, &[]);
        assert!(keys.iter().all(|k| k.is_infinite()));
    }

    #[test]
    fn disconnected_graph_keeps_unreachable_pivots_infinite() {
        let mut b = GraphBuilder::new(4);
        b.add_edge_idx(0, 1, 1);
        b.add_edge_idx(2, 3, 1);
        let g = b.build();
        let keys = lexicographic_multi_source(&g, &[NodeId(0)]);
        assert!(!keys[1].is_infinite());
        assert!(keys[2].is_infinite());
        assert!(keys[3].is_infinite());
    }
}
