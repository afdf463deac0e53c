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
//!   | phase-`i` threshold flood (Algorithm 2) | one truncated Dijkstra per source `w ∈ A_i \ A_{i+1}` ([cluster growth](crate::centralized)) |
//!   | per-level pivot discovery | one lexicographic multi-source Dijkstra per level |
//!   | k-source Bellman–Ford from the density net (Thm 4.3) | one Dijkstra per net node |
//!   | CDG / degrading layers (Thm 4.6 / 4.8) | the Thorup–Zwick engine on the net-restricted hierarchy, per layer |
//!
//! Each exploration touches only its own output, so the batch runs on the
//! [`crate::parallel`] worker pool, and so does the step that turns its
//! results into labels.  Clusters and bunches are inverse relations
//! (`u ∈ C(w)` iff `w ∈ B(u)`, Section 3.2), so that step is a transpose: count
//! `|B(u)|`, size every row exactly, cut the nodes into one consecutive
//! range per worker, and let each worker scatter the `(w, level, d(u, w))`
//! of its own rows out of the shared cluster list ([`parallel_split_mut`] —
//! disjoint pieces, no atomics).  Every landmark owns exactly one cluster
//! and the clusters are walked in ascending landmark id, so each row comes
//! out strictly ascending with no sort — and that sorted run is the label's
//! storage ([`crate::sketch`]).  Where the cuts fall decides who writes a
//! row, never what is written, which makes `threads = k` **bit-identical**
//! to `threads = 1` — down to the serialized `DSK1` snapshot bytes (property
//! tested in `tests/tests/parallel_build.rs`, measured by `dsketch-benchmark`'s
//! `core.build.parallel_speedup` row; `tests/tests/build_differential.rs`
//! holds the engine to an insert-based model label for label).
//!
//! The centralized Thorup–Zwick baseline ([`crate::centralized`]) is this
//! engine at `threads = 1` — `thorup_zwick(graph, &hierarchy, 1)` — so the
//! correctness oracle and the fast path can never drift apart.
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
//! assert!(four.timings.is_recorded());
//! ```

use crate::centralized::{grow_cluster, lexicographic_multi_source, ClusterScratch};
use crate::hierarchy::Hierarchy;
use crate::parallel::{
    parallel_map, parallel_map_with, parallel_split_mut, resolve_threads, BuildTimings,
};
use crate::sketch::{BunchEntry, DistKey, Sketch, SketchSet};
use netgraph::{Graph, NodeId};
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

    // Phase 3: transpose clusters into bunches (`u ∈ C(w)` iff `w ∈ B(u)`).
    // Count `|B(u)|`, size every row exactly, then scatter every
    // `(w, level, d(u, w))` into row `u`.
    let started = Instant::now();
    let mut offsets = vec![0usize; n + 1];
    for cluster in &clusters {
        for &(u, _) in cluster {
            offsets[u.index() + 1] += 1;
        }
    }
    for u in 0..n {
        offsets[u + 1] += offsets[u];
    }
    let total_cluster_size = offsets[n];
    let mut rows: Vec<Vec<(NodeId, BunchEntry)>> = offsets
        .windows(2)
        .map(|row| Vec::with_capacity(row[1] - row[0]))
        .collect();
    // Each landmark owns exactly one cluster; walking them in ascending id
    // makes every row come out sorted, whoever fills it.
    let mut by_landmark: Vec<usize> = (0..work.len()).collect();
    by_landmark.sort_unstable_by_key(|&i| work[i].1);
    // Workers own disjoint node ranges, cut so each holds an equal share of
    // the entries; every worker reads all clusters and keeps its own rows.
    let cuts = balanced_cuts(&offsets, threads.clamp(1, n.max(1)));
    parallel_split_mut(&mut rows, &cuts, |piece, rows| {
        let (lo, hi) = (cuts[piece], cuts[piece + 1]);
        for &i in &by_landmark {
            let (level, w) = work[i];
            let level = level as u32;
            for &(u, distance) in &clusters[i] {
                if (lo..hi).contains(&u.index()) {
                    rows[u.index() - lo].push((w, BunchEntry { level, distance }));
                }
            }
        }
    });
    // Every (u, w) pair landed exactly once: each row holds its count.
    debug_assert!(rows
        .iter()
        .zip(offsets.windows(2))
        .all(|(row, o)| row.len() == o[1] - o[0]));
    drop(clusters);

    let sketches: Vec<Sketch> = rows
        .into_iter()
        .enumerate()
        .map(|(u, row)| {
            let pivots = pivot_keys[..k]
                .iter()
                .map(|keys| keys[u])
                .map(|key| (!key.is_infinite()).then_some((key.node, key.distance)))
                .collect();
            Sketch::from_sorted_parts(NodeId::from_index(u), pivots, row)
        })
        .collect();
    timings.record("tz/merge", n, started);

    DirectTzBuild {
        sketches: SketchSet::new(sketches),
        pivot_keys,
        total_cluster_size,
        timings,
    }
}

/// Cut the rows `0..n` of a CSR `offsets` array into `pieces` consecutive
/// node ranges of roughly equal entry count (piece `p` starts at the first
/// row boundary at or past `p / pieces` of the entries): piece `p` is
/// `cuts[p]..cuts[p + 1]`.
fn balanced_cuts(offsets: &[usize], pieces: usize) -> Vec<usize> {
    let n = offsets.len() - 1;
    let total = offsets[n];
    let mut cuts: Vec<usize> = (0..pieces)
        .map(|p| offsets.partition_point(|&o| o < total * p / pieces).min(n))
        .collect();
    cuts.push(n);
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::build_with_hierarchy;
    use crate::hierarchy::TzParams;
    use crate::scheme::SchemeConfig;
    use netgraph::generators::{erdos_renyi, grid, GeneratorConfig};

    fn hierarchy_for(n: usize, k: usize, seed: u64) -> Hierarchy {
        Hierarchy::sample_until_top_nonempty(n, &TzParams::new(k).with_seed(seed), 200)
            .unwrap()
            .0
    }

    #[test]
    fn direct_build_matches_the_congest_simulation() {
        let g = erdos_renyi(72, 0.09, GeneratorConfig::uniform(3, 1, 25));
        let h = hierarchy_for(72, 3, 5);
        let simulated = build_with_hierarchy(&g, h.clone(), &SchemeConfig::default()).unwrap();
        let direct = thorup_zwick(&g, &h, 2);
        for u in g.nodes() {
            assert_eq!(
                simulated.sketches.sketch(u),
                direct.sketches.sketch(u),
                "label mismatch at {u}"
            );
        }
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
    fn cuts_cover_all_rows_and_balance_the_entries() {
        // Rows of 5, 0, 1, 9, 0, 3, 2 entries.
        let offsets = [0usize, 5, 5, 6, 15, 15, 18, 20];
        assert_eq!(balanced_cuts(&offsets, 1), vec![0, 7]);
        assert_eq!(balanced_cuts(&offsets, 2), vec![0, 4, 7]);
        for pieces in 1..=9 {
            let cuts = balanced_cuts(&offsets, pieces);
            assert_eq!(cuts.len(), pieces + 1);
            assert_eq!((cuts[0], cuts[pieces]), (0, 7));
            assert!(cuts.windows(2).all(|c| c[0] <= c[1]), "{cuts:?}");
        }
        // No entries at all, and no rows at all.
        assert_eq!(balanced_cuts(&[0, 0, 0], 2), vec![0, 0, 2]);
        assert_eq!(balanced_cuts(&[0], 1), vec![0, 0]);
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
        assert!(build.timings.is_recorded());
    }
}
