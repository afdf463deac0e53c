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
//! finished per-phase tables are gathered and sorted once into the label's
//! bunch and appended, row by row, to the one [`SketchSet`] the build
//! returns.
//!
//! Two synchronization modes are provided, matching the two options the paper
//! describes for detecting the end of a phase:
//!
//! * [`SyncMode::GlobalOracle`] — each phase is run as its own simulator
//!   execution and the simulator's global quiescence oracle ends it.  This
//!   models the Section 3.2 assumption that phases can be synchronized
//!   externally (there: by waiting out a known upper bound in terms of `S`);
//!   the measured rounds are the rounds the phase actually needed.
//! * [`SyncMode::TerminationDetection`] — the full Section 3.3 protocol: a
//!   BFS tree is built first, every data message is ECHOed, sources detect
//!   when their announcement has stopped propagating, COMPLETE messages
//!   converge up the tree and the root STARTs the next phase.  The measured
//!   rounds and messages include all of that overhead (experiment E9
//!   quantifies it).
//!
//! A build returns its labels and one [`RunStats`], the sum of its runs.
//! What each run cost is a row of the process-global
//! [`dsketch_obs::global`] registry — `dsketch_congest_{rounds,messages,
//! words}_total` and the wall time `dsketch_congest_phase_nanos`, keyed by
//! `phase`: one row per Algorithm-2 phase (`"0"` … `"k-1"`) under the
//! oracle, and under termination detection the BFS preamble (`"tree"`) and
//! the one run that carries all `k` phases with their ECHO/COMPLETE/START
//! traffic (`"detected"`).

mod exchange;
mod phase;
mod termination;

pub use exchange::{run_sketch_exchange, ExchangeMessage, SketchExchangeProgram};
pub use phase::PhaseProgram;
pub use termination::TerminationTzProgram;

use crate::error::SketchError;
use crate::hierarchy::Hierarchy;
use crate::scheme::SchemeConfig;
use crate::sketch::{DistKey, SketchSet};
use congest_sim::programs::bellman_ford::SourceTable;
use congest_sim::programs::bfs_tree::build_bfs_tree;
use congest_sim::{Network, RunStats};
use netgraph::{Distance, Graph, NodeId};
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

/// Run the distributed Thorup–Zwick construction with an explicit
/// hierarchy, under `config`'s phase synchronization, CONGEST settings and
/// round limit (its seed and engine choice do not apply: the hierarchy is
/// given, and this *is* the CONGEST engine); returns the labels and the
/// total cost of the runs.  The CONGEST engine behind
/// every family — each is labels over a sampled hierarchy, the 3-stretch,
/// CDG and degrading ones restricted to a density net; the equivalence
/// tests call it directly with the hierarchy they hand the centralized
/// baseline ([`crate::build::thorup_zwick`]).
pub fn build_with_hierarchy(
    graph: &Graph,
    hierarchy: &Hierarchy,
    config: &SchemeConfig,
) -> Result<(SketchSet, RunStats), SketchError> {
    match config.sync {
        SyncMode::GlobalOracle => run_global_oracle(graph, hierarchy, config),
        SyncMode::TerminationDetection => run_termination_detection(graph, hierarchy, config),
    }
}

/// One node's label as its phases finish, `k − 1` down to `0`, in both
/// synchronization modes.  A phase leaves its `(source, distance)` pairs in
/// the table's order; the `k` phases have disjoint sources
/// (`A_i \ A_{i+1}`), so they are appended as they arrive and sorted once.
#[derive(Debug, Clone)]
struct LabelFold {
    pivots: Vec<Option<(NodeId, Distance)>>,
    bunch: Vec<(NodeId, Distance)>,
    /// `key(u, A_{i+1})` while phase `i` runs; infinite for `A_k = ∅`.
    threshold: DistKey,
}

impl LabelFold {
    /// The label of a node of a `k`-level hierarchy before any phase.
    fn new(k: usize) -> LabelFold {
        LabelFold {
            pivots: vec![None; k],
            bunch: Vec::new(),
            threshold: DistKey::INFINITE,
        }
    }

    /// Fold phase `level`'s finished table in as `B_level(u)`, and take
    /// `key(u, A_level) = min(best new key, key(u, A_{level+1}))` as the
    /// level's pivot and the next threshold.
    fn fold(&mut self, level: usize, table: &SourceTable) {
        let mut best = self.threshold;
        for (source, distance) in table.iter() {
            self.bunch.push((source, distance));
            best = best.min(DistKey::new(distance, source));
        }
        if !best.is_infinite() {
            self.pivots[level] = Some((best.node, best.distance));
        }
        self.threshold = best;
    }

    /// Append the finished label to `set`, as node `set.len()`'s.
    fn append_to(mut self, set: &mut SketchSet) -> Result<(), SketchError> {
        // Sources are distinct across phases, so no two keys tie.
        self.bunch.sort_unstable_by_key(|&(node, _)| node);
        set.push_label(&self.pivots, &self.bunch)
    }
}

/// Oracle-synchronized execution: one simulator run per phase, each
/// node's finished table folded into its label ([`LabelFold`]).
fn run_global_oracle(
    graph: &Graph,
    hierarchy: &Hierarchy,
    config: &SchemeConfig,
) -> Result<(SketchSet, RunStats), SketchError> {
    let mut labels = vec![LabelFold::new(hierarchy.k()); graph.num_nodes()];
    let mut total = RunStats::default();

    for phase in (0..hierarchy.k()).rev() {
        let started = Instant::now();
        let mut net = Network::new(graph, config.congest, |u| {
            PhaseProgram::new(
                u,
                phase as u32,
                hierarchy.level_of(u),
                labels[u.index()].threshold,
            )
        });
        let outcome = net.run_until_quiescent(config.max_rounds);
        if !outcome.completed {
            return Err(SketchError::RoundLimitExceeded {
                limit: config.max_rounds,
            });
        }

        for (label, program) in labels.iter_mut().zip(net.programs()) {
            label.fold(phase, program.distances());
        }

        record_phase(&phase.to_string(), &outcome.stats, started);
        total.absorb(&outcome.stats);
    }

    let mut sketches = SketchSet::over(hierarchy);
    for label in labels {
        label.append_to(&mut sketches)?;
    }
    Ok((sketches, total))
}

/// Feed one finished run to the process-global [`dsketch_obs::global`]
/// registry: its wall time next to `dsketch_build_phase_nanos`, and its cost
/// in the paper's currency (`phase` is the label on all four families; see
/// the [module docs](self) for its values).
fn record_phase(phase: &str, stats: &RunStats, started: Instant) {
    let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let registry = dsketch_obs::global();
    let labels: &[(&str, &str)] = &[("phase", phase)];
    let help = "Cost of the simulated CONGEST runs, by phase.";
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
    hierarchy: &Hierarchy,
    config: &SchemeConfig,
) -> Result<(SketchSet, RunStats), SketchError> {
    // Leader election + BFS tree (paper: O(D) rounds, O(|E| log n) messages).
    let started = Instant::now();
    let (trees, mut total) = build_bfs_tree(graph, config.congest);
    record_phase("tree", &total, started);

    let started = Instant::now();
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

    record_phase("detected", &outcome.stats, started);
    total.absorb(&outcome.stats);
    let mut sketches = SketchSet::over(hierarchy);
    for program in net.into_programs() {
        program.label.append_to(&mut sketches)?;
    }
    Ok((sketches, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::TzParams;
    use crate::oracle::DistanceOracle;
    use crate::scheme::SchemeSpec;
    use netgraph::apsp::DistanceTable;
    use netgraph::generators::{erdos_renyi, grid, ring, GeneratorConfig};

    fn check_against_centralized(graph: &Graph, k: usize, seed: u64, config: SchemeConfig) {
        let (h, _) = Hierarchy::sample_until_top_nonempty(
            graph.num_nodes(),
            &TzParams::new(k).with_seed(seed),
            200,
        )
        .unwrap();
        let centralized = crate::build::thorup_zwick(graph, &h, 1);
        let (distributed, _) = build_with_hierarchy(graph, &h, &config).unwrap();
        for u in graph.nodes() {
            let c = centralized.sketches.label(u);
            let d = distributed.label(u);
            assert_eq!(c.pivots, d.pivots, "pivot mismatch at {u}");
            assert!(c.bunch().eq(d.bunch()), "bunch mismatch at {u}");
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
        let config = SchemeConfig::default();
        let (oracle, oracle_cost) = build_with_hierarchy(&g, &h, &config).unwrap();
        let detected = config.with_termination_detection();
        let (td, td_cost) = build_with_hierarchy(&g, &h, &detected).unwrap();
        assert_eq!(oracle, td, "labels");
        // Termination detection costs extra rounds and messages (the point of E9).
        assert!(td_cost.messages >= oracle_cost.messages);
    }

    #[test]
    fn stretch_guarantee_end_to_end() {
        let g = erdos_renyi(64, 0.1, GeneratorConfig::uniform(23, 1, 30));
        let k = 3;
        let result = SchemeSpec::thorup_zwick(k)
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
        let err = SchemeSpec::thorup_zwick(0).build(&g, &SchemeConfig::default());
        assert!(err.is_err());
    }

    #[test]
    fn round_limit_is_enforced() {
        let g = ring(60, GeneratorConfig::unit(1));
        let config = SchemeConfig::default().with_seed(1).with_max_rounds(2);
        let err = SchemeSpec::thorup_zwick(2).build(&g, &config);
        assert!(matches!(err, Err(SketchError::RoundLimitExceeded { .. })));
    }

    #[test]
    fn rounds_scale_with_shortest_path_diameter() {
        // Same n, very different S: the ring needs far more rounds than the
        // expander, as Theorem 3.8's S-dependence predicts.
        let n = 64;
        let expander = erdos_renyi(n, 0.2, GeneratorConfig::unit(3));
        let cycle = ring(n, GeneratorConfig::unit(3));
        let scheme = SchemeSpec::thorup_zwick(2);
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
