//! The parallel **direct** construction engine: the same sketches the
//! CONGEST simulation produces, computed by batching the independent
//! per-seed shortest-path explorations across worker threads.
//!
//! # Two engines, one output
//!
//! Every scheme in this workspace has two ways to be built, selected by
//! [`crate::scheme::SchemeConfig::engine`]:
//!
//! * [`BuildEngine::Congest`](crate::scheme::BuildEngine::Congest) — the
//!   paper-faithful CONGEST simulation ([`crate::distributed`]), which is
//!   what the round/message theorems are measured on.  This is the default.
//! * [`BuildEngine::Parallel`](crate::scheme::BuildEngine::Parallel) — this
//!   module: the production build path.  It computes the *identical* labels
//!   directly on the graph, replacing each simulated flood with the exact
//!   exploration it converges to (Lemma 3.5 / experiment E8 is precisely
//!   the statement that the two coincide):
//!
//!   | simulated protocol | direct exploration |
//!   |---|---|
//!   | phase-`i` threshold flood (Algorithm 2) | one truncated Dijkstra per source `w ∈ A_i \ A_{i+1}` (cluster growth) |
//!   | per-level pivot discovery | one lexicographic multi-source Dijkstra per level |
//!
//!   Every family is Thorup–Zwick labels over a sampled hierarchy, so this
//!   one function builds them all: the 3-stretch, CDG and degrading layers
//!   (Thm 4.3 / 4.6 / 4.8) are this engine on the net-restricted hierarchy,
//!   one call per layer — at `k = 1` the single flood from the net is one
//!   untruncated Dijkstra per net node.
//!
//! Each exploration touches only its own output, so the batch runs on the
//! [`crate::parallel`] worker pool.  Clusters and bunches are inverse
//! relations (`u ∈ C(w)` iff `w ∈ B(u)`, Section 3.2), so the labels are the
//! clusters transposed, on the same pool, by the assembler the CONGEST
//! engine's clusters go through too (`SketchSet::from_clusters` in
//! [`crate::sketch`]; here the `tz/merge` phase).  Its output does not depend
//! on the worker count, which makes `threads = k` **bit-identical** to
//! `threads = 1` — down to the serialized `DSK1` snapshot bytes (property
//! tested in `tests/tests/parallel_build.rs`, measured by `dsketch-benchmark`'s
//! `core.build.parallel_speedup` row; `tests/tests/build_differential.rs`
//! holds both engines to an insert-based model label for label).
//!
//! # The centralized baseline
//!
//! The centralized Thorup–Zwick construction (Section 3.1, \[TZ05\]) — the
//! baseline the paper distributes — is this engine at `threads = 1`:
//! `thorup_zwick(graph, &hierarchy, 1)`, so the correctness oracle and the
//! fast path can never drift apart.  Given the *same* sampled
//! [`Hierarchy`], the distributed construction of Section 3.2 must produce
//! exactly its pivots and bunches (experiment E8 asserts this
//! bit-for-bit), and the experiment harness compares its cost against the
//! distributed round/message cost.  It follows \[TZ05\]:
//!
//! 1. for every level `i`, compute `d(u, A_i)` and the pivot `p_i(u)` with a
//!    multi-source Dijkstra whose keys are [`DistKey`]s (lexicographic
//!    `(distance, id)` pairs), so tie-breaking is globally consistent;
//! 2. for every `w ∈ A_i \ A_{i+1}`, grow the cluster `C(w)` with a truncated
//!    Dijkstra that only expands through vertices `u` satisfying
//!    `(d(w, u), w) < key(u, A_{i+1})`; every vertex reached records `w` in
//!    its bunch.
//!
//! # One queue, two policies
//!
//! Both searches run on [`netgraph::shortest_path::RadixQueue`], the
//! monotone radix heap the ground-truth Dijkstra uses: keys are distances,
//! a search never pushes below the distance it popped last (weights are
//! nonnegative — the queue `assert!`s it), and entries with equal distances
//! pop in no particular order.  Neither result depends on that order.
//! The pivot search is label-correcting on the pair `(distance, source)`:
//! every improvement of a node's key is pushed and every pushed key that
//! is still the node's best is expanded, so whatever order equal distances
//! leave the queue in, the fixed point is the lexicographic minimum.
//! Cluster growth settles a node on its first non-stale pop, as Dijkstra
//! does, and the transpose scatters each `(u, w)` pair once, wherever in
//! `C(w)`'s member list it sits.  The loops stay separate because their
//! policies are what differ — what a label is, when a candidate beats it,
//! which nodes may be expanded — and a generic search would take all of
//! that as parameters; the queue is the part they share.
//!
//! ```
//! use dsketch::build;
//! use dsketch::hierarchy::{Hierarchy, TzParams};
//! use netgraph::generators::{erdos_renyi, GeneratorConfig};
//!
//! let graph = erdos_renyi(64, 0.1, GeneratorConfig::uniform(7, 1, 20));
//! let (hierarchy, _) =
//!     Hierarchy::sample_until_top_nonempty(64, &TzParams::new(3).with_seed(42), 100).unwrap();
//!
//! let one = build::thorup_zwick(&graph, &hierarchy, 1);
//! let four = build::thorup_zwick(&graph, &hierarchy, 4);
//! assert_eq!(one.sketches, four.sketches); // bit-identical labels
//! ```

use crate::hierarchy::Hierarchy;
use crate::parallel::{parallel_map, parallel_map_with, resolve_threads, BuildTimings};
use crate::sketch::{DistKey, SketchSet};
use netgraph::shortest_path::RadixQueue;
use netgraph::{add_dist, Distance, Graph, NodeId, INFINITY};
use std::time::Instant;

/// Result of one direct Thorup–Zwick build: the labels plus the
/// intermediate state the centralized baseline exposes.
#[derive(Debug, Clone)]
pub struct DirectTzBuild {
    /// The per-node labels (identical to the CONGEST construction's).
    pub sketches: SketchSet,
    /// `pivot_keys[i][u]` — the lexicographic key of `d(u, A_i)`; index `k`
    /// holds the all-infinite row for `A_k = ∅`.
    pub pivot_keys: Vec<Vec<DistKey>>,
    /// Total number of cluster-membership pairs (`Σ_w |C(w)|`), the
    /// classical proxy for construction work.
    pub total_cluster_size: usize,
    /// Wall-clock timings of the batched phases.
    pub timings: BuildTimings,
}

/// Build Thorup–Zwick labels for `hierarchy` on `threads` worker threads
/// (`0` = all available parallelism).
///
/// Given the same hierarchy this produces exactly the labels of the
/// distributed Section 3.2 construction and of the centralized baseline —
/// see the [module docs](self) for why — and the output is independent of
/// `threads`.
pub fn thorup_zwick(graph: &Graph, hierarchy: &Hierarchy, threads: usize) -> DirectTzBuild {
    let n = graph.num_nodes();
    let k = hierarchy.k();
    let threads = resolve_threads(threads);
    let mut timings = BuildTimings::new(threads);

    // Phase 1: pivot keys — one lexicographic multi-source Dijkstra per
    // level, each independent of the others.
    let started = Instant::now();
    let level_sources: Vec<Vec<NodeId>> = (0..k).map(|i| hierarchy.level_members(i)).collect();
    let mut pivot_keys: Vec<Vec<DistKey>> = parallel_map(threads, &level_sources, |_, sources| {
        lexicographic_multi_source(graph, sources)
    });
    pivot_keys.push(vec![DistKey::INFINITE; n]);
    timings.record("tz/pivots", k, started);

    // Phase 2: clusters — one truncated Dijkstra per source `w`, by far the
    // dominant cost.  The work list is (level, source) in deterministic
    // order; each worker reuses one scratch buffer across its items.
    let started = Instant::now();
    let work: Vec<(usize, NodeId)> = (0..k)
        .flat_map(|i| {
            hierarchy
                .exact_level_members(i)
                .into_iter()
                .map(move |w| (i, w))
        })
        .collect();
    let pivot_keys_ref = &pivot_keys;
    let clusters = parallel_map_with(
        threads,
        &work,
        || ClusterScratch::new(n),
        |scratch, _, &(level, w)| grow_cluster(graph, w, &pivot_keys_ref[level + 1], scratch),
    );
    timings.record("tz/clusters", work.len(), started);

    // Phase 3: transpose clusters into bunches (`u ∈ C(w)` iff
    // `w ∈ B(u)`), each cluster filed under its landmark's id.
    let started = Instant::now();
    let total_cluster_size = clusters.iter().map(Vec::len).sum();
    let mut by_landmark = vec![Vec::new(); n];
    for (&(_, w), cluster) in work.iter().zip(clusters) {
        by_landmark[w.index()] = cluster;
    }
    let sketches = SketchSet::from_clusters(hierarchy, &pivot_keys, &by_landmark, threads);
    drop(by_landmark);
    timings.record("tz/merge", n, started);

    DirectTzBuild {
        sketches,
        pivot_keys,
        total_cluster_size,
        timings,
    }
}

/// Multi-source Dijkstra minimizing the lexicographic `(distance, source)`
/// key: for every node the result is `min_{s ∈ sources} (d(u, s), s)`.
fn lexicographic_multi_source(graph: &Graph, sources: &[NodeId]) -> Vec<DistKey> {
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
struct ClusterScratch {
    dist: Vec<Distance>,
    touched: Vec<usize>,
    /// Keyed on distance, carrying the node.  Drained by every exploration
    /// and rewound by `reset`, so only its buckets' capacity carries over.
    queue: RadixQueue<u32>,
}

impl ClusterScratch {
    fn new(n: usize) -> Self {
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
fn grow_cluster(
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
    use crate::distributed::build_with_hierarchy;
    use crate::hierarchy::TzParams;
    use crate::query::estimate_distance;
    use crate::scheme::SchemeConfig;
    use netgraph::apsp::DistanceTable;
    use netgraph::generators::{erdos_renyi, grid, ring, GeneratorConfig};
    use netgraph::GraphBuilder;

    fn hierarchy_for(n: usize, k: usize, seed: u64) -> Hierarchy {
        Hierarchy::sample_until_top_nonempty(n, &TzParams::new(k).with_seed(seed), 200)
            .unwrap()
            .0
    }

    #[test]
    fn direct_build_matches_the_congest_simulation() {
        let g = erdos_renyi(72, 0.09, GeneratorConfig::uniform(3, 1, 25));
        let h = hierarchy_for(72, 3, 5);
        let (simulated, _) = build_with_hierarchy(&g, &h, &SchemeConfig::default()).unwrap();
        let direct = thorup_zwick(&g, &h, 2);
        for u in g.nodes() {
            assert_eq!(
                simulated.label(u),
                direct.sketches.label(u),
                "label mismatch at {u}"
            );
        }
        assert_eq!(simulated, direct.sketches);
    }

    #[test]
    fn thread_count_never_changes_the_output() {
        let g = grid(8, 8, GeneratorConfig::uniform(11, 1, 9));
        let h = hierarchy_for(64, 3, 2);
        let reference = thorup_zwick(&g, &h, 1);
        for threads in [2usize, 4, 8] {
            let build = thorup_zwick(&g, &h, threads);
            assert_eq!(reference.sketches, build.sketches, "threads = {threads}");
            assert_eq!(reference.pivot_keys, build.pivot_keys);
            assert_eq!(reference.total_cluster_size, build.total_cluster_size);
        }
    }

    #[test]
    fn timings_cover_the_three_phases() {
        let g = grid(6, 6, GeneratorConfig::uniform(2, 1, 5));
        let h = hierarchy_for(36, 2, 1);
        let build = thorup_zwick(&g, &h, 2);
        let phases: Vec<&str> = build
            .timings
            .phases
            .iter()
            .map(|p| p.phase.as_str())
            .collect();
        assert_eq!(phases, vec!["tz/pivots", "tz/clusters", "tz/merge"]);
        assert_eq!(build.timings.threads, 2);
        assert_eq!(
            build.timings.phases[0].items, 2,
            "one exploration per level"
        );
    }

    fn check_stretch(graph: &Graph, tz: &DirectTzBuild, k: usize) {
        let table = DistanceTable::exact(graph);
        let stretch = (2 * k - 1) as u64;
        for (u, v, exact) in table.pairs() {
            let est = estimate_distance(tz.sketches.label(u), tz.sketches.label(v))
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
            let est = estimate_distance(tz.sketches.label(u), tz.sketches.label(v)).unwrap();
            assert_eq!(est, exact);
        }
        // With k = 1 every bunch is all of V.
        for s in tz.sketches.labels() {
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
                let (p, d) = tz.sketches.label(u).pivot(i).unwrap();
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
            let label = tz.sketches.label(u);
            for i in 0..2 {
                let next_key = tz.pivot_keys[i + 1][u.index()];
                // A member of A_i \ A_{i+1} in B(u) is in B_i(u).
                for &w in &h.exact_level_members(i) {
                    let key = DistKey::new(table.distance(u, w), w);
                    let should_be_member = key < next_key;
                    let recorded = label.distance_to(w);
                    assert_eq!(
                        should_be_member,
                        recorded.is_some(),
                        "membership mismatch u={u} w={w} level={i}"
                    );
                    if let Some(distance) = recorded {
                        assert_eq!(distance, table.distance(u, w));
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
        let avg_bunch = tz.sketches.bunch_entries() as f64 / n as f64;
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
        tz.sketches.check_invariants().unwrap();
        assert_eq!(tz.sketches.len(), 36);
        assert_eq!(tz.total_cluster_size, tz.sketches.bunch_entries());
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
