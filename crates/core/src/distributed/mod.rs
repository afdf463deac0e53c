//! The distributed Thorup–Zwick construction (Sections 3.2 and 3.3).
//!
//! The construction runs `k` phases, from phase `k − 1` down to phase `0`.
//! In phase `i` the sources are the vertices of `A_i \ A_{i+1}`; a modified
//! distributed Bellman–Ford (the paper's Algorithm 2) floods their distance
//! announcements, but a vertex `u` only adopts and forwards an announcement
//! from source `v` when the announced distance beats `d(u, A_{i+1})` — i.e.
//! exactly when `v` would enter the bunch `B_i(u)`.  Outgoing announcements
//! are queued per source and served round-robin, so the program sends at most
//! one data message per edge per round.  Both modes keep that state in the
//! shared `SourceTable` of `congest_sim::programs::bellman_ford`, whose
//! finished per-phase runs are merged once into the label's sorted bunch.
//!
//! Two synchronization modes are provided, matching the two options the paper
//! describes for detecting the end of a phase:
//!
//! * [`SyncMode::GlobalOracle`] — each phase is run as its own simulator
//!   execution and the simulator's global quiescence oracle ends it.  This
//!   models the Section 3.2 assumption that phases can be synchronized
//!   externally (there: by waiting out a known upper bound in terms of `S`);
//!   the measured rounds are the rounds the phase actually needed, also
//!   exported per phase as the `dsketch_congest_*` metric families.
//! * [`SyncMode::TerminationDetection`] — the full Section 3.3 protocol: a
//!   BFS tree is built first, every data message is ECHOed, sources detect
//!   when their announcement has stopped propagating, COMPLETE messages
//!   converge up the tree and the root STARTs the next phase.  The measured
//!   rounds and messages include all of that overhead (experiment E9
//!   quantifies it).

mod exchange;
mod phase;
mod termination;

pub use exchange::{run_sketch_exchange, ExchangeMessage, SketchExchangeProgram};
pub use phase::PhaseProgram;
pub use termination::TerminationTzProgram;

use crate::error::SketchError;
use crate::hierarchy::Hierarchy;
use crate::sketch::{BunchEntry, DistKey, Sketch, SketchSet};
use congest_sim::programs::bfs_tree::build_bfs_tree;
use congest_sim::{CongestConfig, Network, RunStats};
use netgraph::{Graph, NodeId};
use std::time::Instant;

/// How phase boundaries are detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Each phase is a separate simulator run ended by the global quiescence
    /// oracle (idealized synchronizer, Section 3.2).
    GlobalOracle,
    /// The distributed termination-detection protocol of Section 3.3
    /// (leader + BFS tree + ECHO/COMPLETE/START), measured inside the run.
    TerminationDetection,
}

/// Configuration of a distributed construction run.
#[derive(Debug, Clone, Copy)]
pub struct DistributedTzConfig {
    /// Phase-boundary detection mode.
    pub sync: SyncMode,
    /// CONGEST engine configuration (threads, bandwidth budget).
    pub congest: CongestConfig,
    /// Safety valve: abort if a single run exceeds this many rounds.
    pub max_rounds: u64,
}

impl Default for DistributedTzConfig {
    fn default() -> Self {
        DistributedTzConfig {
            sync: SyncMode::GlobalOracle,
            congest: CongestConfig::default(),
            max_rounds: 50_000_000,
        }
    }
}

impl DistributedTzConfig {
    /// Use the Section 3.3 termination-detection protocol.
    pub fn with_termination_detection(mut self) -> Self {
        self.sync = SyncMode::TerminationDetection;
        self
    }
}

/// Everything produced by one distributed construction.
///
/// What the distributed engine hands back; the
/// [`crate::scheme::ThorupZwickScheme`] API repackages it as a
/// [`crate::scheme::BuildOutcome`].
#[derive(Debug, Clone)]
pub struct TzBuildResult {
    /// The per-node labels.
    pub sketches: SketchSet,
    /// The hierarchy that was sampled (or supplied).
    pub hierarchy: Hierarchy,
    /// Total cost: all phases plus (in termination-detection mode) the BFS
    /// tree construction.
    pub stats: RunStats,
    /// Per-phase cost, in execution order (phase `k − 1` first).  Only
    /// populated in [`SyncMode::GlobalOracle`] mode, where phases are
    /// separate runs.
    pub phase_stats: Vec<RunStats>,
    /// Cost of building the BFS tree (termination-detection mode only).
    pub tree_stats: Option<RunStats>,
}

/// Run the distributed Thorup–Zwick construction with an explicit
/// hierarchy.  This is the crate-internal engine behind both
/// [`crate::scheme::ThorupZwickScheme`] and the net-restricted CDG
/// construction.
pub(crate) fn build_with_hierarchy(
    graph: &Graph,
    hierarchy: Hierarchy,
    config: DistributedTzConfig,
) -> Result<TzBuildResult, SketchError> {
    match config.sync {
        SyncMode::GlobalOracle => run_global_oracle(graph, hierarchy, config),
        SyncMode::TerminationDetection => run_termination_detection(graph, hierarchy, config),
    }
}

/// Oracle-synchronized execution: one simulator run per phase.
///
/// Each phase leaves, at every node, a run of `(source, distance)` ascending
/// by source.  The `k` runs of a node have disjoint sources (`A_i \ A_{i+1}`),
/// so they are appended as they arrive and merged once into the label's
/// sorted bunch when the last phase is over.
fn run_global_oracle(
    graph: &Graph,
    hierarchy: Hierarchy,
    config: DistributedTzConfig,
) -> Result<TzBuildResult, SketchError> {
    let n = graph.num_nodes();
    let k = hierarchy.k();

    let mut pivots = vec![vec![None; k]; n];
    let mut bunches: Vec<Vec<(NodeId, BunchEntry)>> = vec![Vec::new(); n];
    // key(u, A_{i+1}) for the phase currently being run; starts at the
    // all-infinite row for A_k = ∅.
    let mut thresholds = vec![DistKey::INFINITE; n];

    let mut total = RunStats::default();
    let mut phase_stats = Vec::with_capacity(k);

    for phase in (0..k).rev() {
        let started = Instant::now();
        let level = phase as u32;
        let mut net = Network::new(graph, config.congest, |u| {
            PhaseProgram::new(u, level, hierarchy.level_of(u), thresholds[u.index()])
        });
        let outcome = net.run_until_quiescent(config.max_rounds);
        if !outcome.completed {
            return Err(SketchError::RoundLimitExceeded {
                limit: config.max_rounds,
            });
        }

        for (u, program) in net.programs().iter().enumerate() {
            // Append the learned B_i(u) and update the threshold/pivot:
            // key(u, A_i) = min(best new key, key(u, A_{i+1})).
            let mut best = thresholds[u];
            for (source, distance) in program.distances().iter() {
                bunches[u].push((source, BunchEntry { level, distance }));
                best = best.min(DistKey::new(distance, source));
            }
            if !best.is_infinite() {
                pivots[u][phase] = Some((best.node, best.distance));
            }
            thresholds[u] = best;
        }

        record_phase(phase, &outcome.stats, started);
        total.absorb(&outcome.stats);
        phase_stats.push(outcome.stats);
    }

    let sketches = pivots
        .into_iter()
        .zip(bunches)
        .enumerate()
        .map(|(u, (pivots, mut bunch))| {
            // k sorted runs back to back: the stable sort merges them.
            bunch.sort_by_key(|&(node, _)| node);
            Sketch::from_sorted_parts(NodeId::from_index(u), pivots, bunch)
        })
        .collect();

    Ok(TzBuildResult {
        sketches: SketchSet::new(sketches),
        hierarchy,
        stats: total,
        phase_stats,
        tree_stats: None,
    })
}

/// Feed one finished phase to the process-global [`dsketch_obs::global`]
/// registry: its wall time next to `dsketch_build_phase_nanos`, and its cost
/// in the paper's currency (`phase` is the label on all four families).
fn record_phase(phase: usize, stats: &RunStats, started: Instant) {
    let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let registry = dsketch_obs::global();
    let phase = phase.to_string();
    let labels: &[(&str, &str)] = &[("phase", &phase)];
    let help = "Cost of the simulated Algorithm-2 phases, by phase.";
    registry
        .histogram_with("dsketch_congest_phase_nanos", help, labels)
        .record(nanos);
    registry
        .counter_with("dsketch_congest_rounds_total", help, labels)
        .add(stats.rounds);
    registry
        .counter_with("dsketch_congest_messages_total", help, labels)
        .add(stats.messages);
    registry
        .counter_with("dsketch_congest_words_total", help, labels)
        .add(stats.words);
}

/// Fully distributed execution with Section 3.3 termination detection.
fn run_termination_detection(
    graph: &Graph,
    hierarchy: Hierarchy,
    config: DistributedTzConfig,
) -> Result<TzBuildResult, SketchError> {
    // Leader election + BFS tree (paper: O(D) rounds, O(|E| log n) messages).
    let (trees, tree_stats) = build_bfs_tree(graph, config.congest);

    let k = hierarchy.k();
    let mut net = Network::new(graph, config.congest, |u| {
        TerminationTzProgram::new(u, k, hierarchy.level_of(u), trees[u.index()].clone())
    });
    let outcome = net.run_until_quiescent(config.max_rounds);
    if !outcome.completed || !net.programs().iter().all(|p| p.finished()) {
        return Err(SketchError::RoundLimitExceeded {
            limit: config.max_rounds,
        });
    }

    let sketches: Vec<Sketch> = net.programs().iter().map(|p| p.build_sketch()).collect();

    let mut total = tree_stats.clone();
    total.absorb(&outcome.stats);

    Ok(TzBuildResult {
        sketches: SketchSet::new(sketches),
        hierarchy,
        stats: total,
        phase_stats: Vec::new(),
        tree_stats: Some(tree_stats),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::CentralizedTz;
    use crate::hierarchy::TzParams;
    use crate::oracle::DistanceOracle;
    use crate::scheme::{SchemeConfig, SketchScheme, ThorupZwickScheme};
    use netgraph::apsp::DistanceTable;
    use netgraph::generators::{erdos_renyi, grid, ring, GeneratorConfig};

    fn check_against_centralized(graph: &Graph, k: usize, seed: u64, config: SchemeConfig) {
        let (h, _) = Hierarchy::sample_until_top_nonempty(
            graph.num_nodes(),
            &TzParams::new(k).with_seed(seed),
            200,
        )
        .unwrap();
        let centralized = CentralizedTz::build(graph, &h);
        let distributed = ThorupZwickScheme::new(k)
            .build_with_hierarchy(graph, h, &config)
            .unwrap();
        for u in graph.nodes() {
            let c = centralized.sketches.sketch(u);
            let d = distributed.sketches.sketch(u);
            assert_eq!(c.pivots(), d.pivots(), "pivot mismatch at {u}");
            assert_eq!(c.bunch(), d.bunch(), "bunch mismatch at {u}");
        }
    }

    #[test]
    fn oracle_mode_matches_centralized_on_random_graph() {
        let g = erdos_renyi(70, 0.08, GeneratorConfig::uniform(13, 1, 25));
        check_against_centralized(&g, 3, 5, SchemeConfig::default());
    }

    #[test]
    fn oracle_mode_matches_centralized_on_grid() {
        let g = grid(7, 7, GeneratorConfig::uniform(4, 1, 10));
        check_against_centralized(&g, 2, 9, SchemeConfig::default());
    }

    #[test]
    fn oracle_mode_matches_centralized_on_ring() {
        let g = ring(40, GeneratorConfig::uniform(6, 1, 8));
        check_against_centralized(&g, 3, 2, SchemeConfig::default());
    }

    #[test]
    fn termination_detection_matches_centralized() {
        let g = erdos_renyi(50, 0.1, GeneratorConfig::uniform(17, 1, 20));
        check_against_centralized(
            &g,
            2,
            3,
            SchemeConfig::default().with_termination_detection(),
        );
    }

    #[test]
    fn termination_detection_matches_oracle_mode_sketches() {
        let g = grid(6, 6, GeneratorConfig::uniform(8, 1, 12));
        let (h, _) =
            Hierarchy::sample_until_top_nonempty(36, &TzParams::new(3).with_seed(1), 200).unwrap();
        let scheme = ThorupZwickScheme::new(3);
        let oracle = scheme
            .build_with_hierarchy(&g, h.clone(), &SchemeConfig::default())
            .unwrap();
        let td = scheme
            .build_with_hierarchy(&g, h, &SchemeConfig::default().with_termination_detection())
            .unwrap();
        for u in g.nodes() {
            assert_eq!(
                oracle.sketches.sketch(u),
                td.sketches.sketch(u),
                "sketch mismatch at {u}"
            );
        }
        // Termination detection costs extra rounds and messages (the point of E9).
        assert!(td.stats.messages >= oracle.stats.messages);
        assert!(td.tree_stats.is_some());
        assert!(oracle.tree_stats.is_none());
        assert_eq!(oracle.phase_stats.len(), 3);
    }

    #[test]
    fn stretch_guarantee_end_to_end() {
        let g = erdos_renyi(64, 0.1, GeneratorConfig::uniform(23, 1, 30));
        let k = 3;
        let result = ThorupZwickScheme::new(k)
            .build(&g, &SchemeConfig::default().with_seed(7))
            .unwrap();
        let table = DistanceTable::exact(&g);
        let bound = (2 * k - 1) as u64;
        assert_eq!(result.sketches.stretch_bound(), Some(bound));
        for (u, v, exact) in table.pairs() {
            let est = result.sketches.estimate(u, v).unwrap();
            assert!(est >= exact);
            assert!(est <= bound * exact, "stretch violated for ({u},{v})");
        }
    }

    #[test]
    fn invalid_k_is_rejected() {
        let g = ring(10, GeneratorConfig::unit(1));
        let err = ThorupZwickScheme::new(0).build(&g, &SchemeConfig::default());
        assert!(err.is_err());
    }

    #[test]
    fn round_limit_is_enforced() {
        let g = ring(60, GeneratorConfig::unit(1));
        let config = SchemeConfig::default().with_seed(1).with_max_rounds(2);
        let err = ThorupZwickScheme::new(2).build(&g, &config);
        assert!(matches!(err, Err(SketchError::RoundLimitExceeded { .. })));
    }

    #[test]
    fn rounds_scale_with_shortest_path_diameter() {
        // Same n, very different S: the ring needs far more rounds than the
        // expander, as Theorem 3.8's S-dependence predicts.
        let n = 64;
        let expander = erdos_renyi(n, 0.2, GeneratorConfig::unit(3));
        let cycle = ring(n, GeneratorConfig::unit(3));
        let scheme = ThorupZwickScheme::new(2);
        let config = SchemeConfig::default().with_seed(11);
        let a = scheme.build(&expander, &config).unwrap();
        let b = scheme.build(&cycle, &config).unwrap();
        assert!(
            b.stats.rounds > a.stats.rounds,
            "ring ({}) should need more rounds than expander ({})",
            b.stats.rounds,
            a.stats.rounds
        );
    }
}
