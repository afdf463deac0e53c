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
//! shared `SourceTable` of `congest_sim::programs::bellman_ford`.  A finished
//! phase-`i` table at `u` is `B_i(u)`: its `(source, d)` pairs are filed under
//! their sources' clusters, and `key(u, A_i)` — the pivot key and the next
//! phase's threshold — is the least of their keys and `key(u, A_{i+1})`.
//! Those clusters and keys go to the one assembler both engines share (the
//! direct engine's transpose, `SketchSet::from_clusters` in
//! [`crate::sketch`]), which writes the [`SketchSet`] the build returns.
//!
//! Two synchronization modes are provided, matching the two options the paper
//! describes for detecting the end of a phase:
//!
//! * [`SyncMode::GlobalOracle`] — each phase is run as its own simulator
//!   execution and the simulator's global quiescence oracle ends it.  This
//!   models the Section 3.2 assumption that phases can be synchronized
//!   externally (there: by waiting out a known upper bound in terms of `S`);
//!   the measured rounds are the rounds the phase actually needed.  An edge
//!   carries one message a round: strict CONGEST.
//! * [`SyncMode::TerminationDetection`] — the full Section 3.3 protocol: a
//!   BFS tree is built first, every data message is ECHOed, sources detect
//!   when their announcement has stopped propagating, COMPLETE messages
//!   converge up the tree and the root STARTs the next phase.  The measured
//!   rounds and messages include all of that overhead (experiment E9
//!   quantifies it); an edge carries up to four messages a round.
//!
//! One driver runs every simulated run on [`SchemeConfig::threads`] round
//! workers at the mode's budget, aborts it past
//! [`SchemeConfig::max_rounds`], and records its cost as a row of the build
//! ledger on the process-global [`dsketch_obs::global`] registry —
//! `dsketch_build_{rounds,messages,words}_total` and the wall time
//! `dsketch_build_phase_nanos`, keyed by `phase`: `congest/0` …
//! `congest/k-1` under the oracle, and under termination detection the BFS
//! preamble (`congest/tree`) and the one run that carries all `k` phases
//! with their ECHO/COMPLETE/START traffic (`congest/detected`).  A build
//! returns its labels and one [`RunStats`], the sum of its runs.

mod exchange;
mod phase;
mod termination;

pub use exchange::{run_sketch_exchange, ExchangeMessage, SketchExchangeProgram};
pub use phase::PhaseProgram;
pub use termination::TerminationTzProgram;

use crate::error::SketchError;
use crate::hierarchy::Hierarchy;
use crate::parallel::record_phase;
use crate::scheme::SchemeConfig;
use crate::sketch::{DistKey, SketchSet};
use congest_sim::programs::bellman_ford::SourceTable;
use congest_sim::programs::bfs_tree::BfsTreeProgram;
use congest_sim::{CongestConfig, Network, NodeProgram, RunStats};
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
/// hierarchy, under `config`'s phase synchronization, worker count and
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
    let (fold, stats) = match config.sync {
        SyncMode::GlobalOracle => run_global_oracle(graph, hierarchy, config),
        SyncMode::TerminationDetection => run_termination_detection(graph, hierarchy, config),
    }?;
    let (keys, clusters) = (&fold.pivot_keys, &fold.clusters);
    let sketches = SketchSet::from_clusters(hierarchy, keys, clusters, config.threads);
    Ok((sketches, stats))
}

/// `key(u, A_i)`, the least of `key(u, A_{i+1})` and the keys phase `i` left
/// at `u`: the level's pivot key and phase `i − 1`'s threshold.
fn pivot_key(above: DistKey, table: &SourceTable) -> DistKey {
    table
        .iter()
        .map(|(w, d)| DistKey::new(d, w))
        .fold(above, DistKey::min)
}

/// Every node's finished phases, `k − 1` down to `0`, as the one assembler
/// takes them ([`SketchSet::from_clusters`]): a phase-`i` table's
/// `(source, d)` at `u` puts `(u, d)` on `clusters[source]`, and its
/// [`pivot_key`] is `key(u, A_i)`.
struct Fold {
    /// `pivot_keys[i][u] = key(u, A_i)`; row `k`, for `A_k = ∅`, infinite.
    pivot_keys: Vec<Vec<DistKey>>,
    /// `clusters[w]`: `(u, d(u, w))` for every `u` with `w ∈ B(u)`.
    clusters: Vec<Vec<(NodeId, Distance)>>,
}

impl Fold {
    fn new(hierarchy: &Hierarchy) -> Fold {
        let n = hierarchy.num_nodes();
        Fold {
            pivot_keys: vec![vec![DistKey::INFINITE; n]; hierarchy.k() + 1],
            clusters: vec![Vec::new(); n],
        }
    }

    /// Fold node `u`'s finished phase-`level` table in.
    fn phase(&mut self, level: usize, u: NodeId, table: &SourceTable) {
        let above = self.pivot_keys[level + 1][u.index()];
        self.pivot_keys[level][u.index()] = pivot_key(above, table);
        for (source, distance) in table.iter() {
            self.clusters[source.index()].push((u, distance));
        }
    }
}

/// The engine settings every run of a build shares: `config`'s worker
/// count, at its sync mode's budget — Algorithm 2's one announcement per
/// edge and round, plus under Section 3.3 its ECHOes and one control message.
fn engine_config(config: &SchemeConfig) -> CongestConfig {
    let messages_per_edge_per_round = match config.sync {
        SyncMode::GlobalOracle => 1,
        SyncMode::TerminationDetection => 1 + termination::ECHOES_PER_NEIGHBOR_PER_ROUND + 1,
    };
    CongestConfig {
        messages_per_edge_per_round,
        num_threads: config.threads,
    }
}

/// The one driver of a build's simulated runs: run `factory`'s programs on
/// [`engine_config`] until quiescence or `config.max_rounds`, record the
/// run under `congest/{run}` ([`record_phase`]), add its cost to `total`,
/// and hand back the finished programs.  A run the limit cut off is
/// [`SketchError::RoundLimitExceeded`]; its rounds were spent, so they are
/// recorded all the same.
fn simulate<P: NodeProgram>(
    graph: &Graph,
    config: &SchemeConfig,
    run: &str,
    total: &mut RunStats,
    factory: impl FnMut(NodeId) -> P,
) -> Result<Vec<P>, SketchError> {
    let started = Instant::now();
    let mut net = Network::new(graph, engine_config(config), factory);
    let outcome = net.run_until_quiescent(config.max_rounds);
    record_phase(&format!("congest/{run}"), 0, &outcome.stats, started);
    if !outcome.completed {
        return Err(SketchError::RoundLimitExceeded {
            limit: config.max_rounds,
        });
    }
    total.absorb(&outcome.stats);
    Ok(net.into_programs())
}

/// Oracle-synchronized execution: one simulator run per phase, each
/// node's finished table folded in ([`Fold`]) before the next starts.
fn run_global_oracle(
    graph: &Graph,
    hierarchy: &Hierarchy,
    config: &SchemeConfig,
) -> Result<(Fold, RunStats), SketchError> {
    let mut fold = Fold::new(hierarchy);
    let mut total = RunStats::default();
    for phase in (0..hierarchy.k()).rev() {
        let programs = simulate(graph, config, &phase.to_string(), &mut total, |u| {
            let threshold = fold.pivot_keys[phase + 1][u.index()];
            PhaseProgram::new(u, phase as u32, hierarchy.level_of(u), threshold)
        })?;
        for (u, program) in graph.nodes().zip(&programs) {
            fold.phase(phase, u, program.distances());
        }
    }
    Ok((fold, total))
}

/// Fully distributed execution with Section 3.3 termination detection:
/// leader election and a BFS tree (paper: `O(D)` rounds, `O(|E| log n)`
/// messages), then one run that carries all `k` phases; every node keeps
/// its finished tables, folded in ([`Fold`]) after the run.
fn run_termination_detection(
    graph: &Graph,
    hierarchy: &Hierarchy,
    config: &SchemeConfig,
) -> Result<(Fold, RunStats), SketchError> {
    let mut total = RunStats::default();
    let trees = simulate(graph, config, "tree", &mut total, BfsTreeProgram::new)?;
    let k = hierarchy.k();
    let programs = simulate(graph, config, "detected", &mut total, |u| {
        let tree = trees[u.index()].tree_info();
        TerminationTzProgram::new(u, k, hierarchy.level_of(u), tree)
    })?;

    let mut fold = Fold::new(hierarchy);
    for phase in (0..k).rev() {
        for (u, program) in graph.nodes().zip(&programs) {
            fold.phase(phase, u, &program.tables[phase]);
        }
    }
    Ok((fold, total))
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

    /// Every run of a build shares one engine setting: `threads` round
    /// workers, at strict CONGEST under the oracle (Algorithm 2) and one
    /// announcement, two ECHOes and one control message under Section 3.3.
    #[test]
    fn engine_settings_come_from_threads_and_the_sync_mode() {
        let config = SchemeConfig::default().with_threads(3);
        let settings = |config: &SchemeConfig| {
            let engine = engine_config(config);
            (engine.messages_per_edge_per_round, engine.num_threads)
        };
        assert_eq!(settings(&config), (1, 3));
        assert_eq!(settings(&config.with_termination_detection()), (4, 3));
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
