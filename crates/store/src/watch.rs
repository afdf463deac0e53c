//! The rebuild-and-swap watch loop's core: detect graph change, rebuild.
//!
//! `dsketch-store watch` keeps a snapshot fresh against an evolving
//! edge-list file: every poll it re-loads the graph, compares its
//! [`GraphFingerprint`] to the one the current snapshot was built on, and
//! rebuilds + re-saves only when they differ.  The CLI (and any embedding)
//! then tells a live `dsketch_serve::SketchServer` to hot-swap the
//! fresh snapshot in — see ARCHITECTURE.md's *Live snapshots* section.
//!
//! The loop itself (sleep cadence, signal handling, the network swap call)
//! lives in the binary; this module is the deterministic, testable core:
//! one [`WatchCore::check_once`] call per poll tick.

use crate::error::StoreError;
use crate::pipeline::{build_and_save, peek_snapshot_meta};
use dsketch::prelude::{SchemeConfig, SchemeSpec};
use netgraph::GraphFingerprint;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// What one poll tick observed and did.
#[derive(Debug)]
pub enum WatchOutcome {
    /// The graph's fingerprint matches the last built snapshot — nothing
    /// to do.
    Unchanged {
        /// The (unchanged) fingerprint.
        fingerprint: GraphFingerprint,
    },
    /// The graph changed: a fresh snapshot was built and saved over
    /// `snapshot_path`.
    Rebuilt {
        /// Fingerprint of the graph the new snapshot was built on.
        fingerprint: GraphFingerprint,
        /// Node count of the rebuilt graph.
        nodes: usize,
        /// Snapshot bytes written.
        bytes: u64,
    },
}

/// The testable heart of `dsketch-store watch`: graph-change detection
/// plus rebuild-and-save, one tick at a time.
#[derive(Debug)]
pub struct WatchCore {
    graph_path: PathBuf,
    snapshot_path: PathBuf,
    spec: SchemeSpec,
    config: SchemeConfig,
    last: Option<GraphFingerprint>,
    /// Ticks in a row that ended in an error; resets to zero on any
    /// successful tick.  Drives [`WatchCore::next_delay`]'s backoff.
    consecutive_failures: u32,
    /// SplitMix64 state for deterministic backoff jitter.
    jitter_state: u64,
}

impl WatchCore {
    /// A watcher over the edge list at `graph_path`, keeping the `DSK1`
    /// file at `snapshot_path` fresh with `spec` builds under `config`.
    /// The first [`check_once`](Self::check_once) always rebuilds unless
    /// the watcher is [primed](Self::prime) first.
    pub fn new<P: AsRef<Path>, Q: AsRef<Path>>(
        graph_path: P,
        snapshot_path: Q,
        spec: SchemeSpec,
        config: SchemeConfig,
    ) -> WatchCore {
        WatchCore {
            graph_path: graph_path.as_ref().to_path_buf(),
            snapshot_path: snapshot_path.as_ref().to_path_buf(),
            spec,
            config,
            last: None,
            consecutive_failures: 0,
            jitter_state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Seed the change detector with the fingerprint of an already built
    /// snapshot, so an unchanged graph does not trigger a rebuild on the
    /// very first tick.
    pub fn prime(&mut self, fingerprint: GraphFingerprint) {
        self.last = Some(fingerprint);
    }

    /// Try to seed the change detector from the snapshot file itself
    /// (header peek only — no sketch decode).  Returns `true` when a
    /// valid snapshot with the watcher's scheme was found; any other
    /// state (missing file, corrupt header, different scheme) leaves the
    /// watcher unprimed so the first tick rebuilds.
    pub fn prime_from_snapshot(&mut self) -> bool {
        match peek_snapshot_meta(&self.snapshot_path) {
            Ok((spec, fingerprint)) if spec == self.spec => {
                self.last = Some(fingerprint);
                true
            }
            _ => false,
        }
    }

    /// The fingerprint the last built (or primed) snapshot corresponds
    /// to, if any.
    pub fn last_fingerprint(&self) -> Option<GraphFingerprint> {
        self.last
    }

    /// One poll tick: reload the edge list, compare fingerprints, rebuild
    /// and save when they differ.
    ///
    /// Errors are *survivable by design*: state (`last_fingerprint`) only
    /// advances on success, so a failed tick — edge list mid-rewrite, a
    /// rebuild error, a failed save — retries from scratch on the next
    /// tick while whatever snapshot is on disk keeps serving.  The core
    /// counts [`consecutive_failures`](Self::consecutive_failures) so the
    /// embedding loop can pace retries with [`next_delay`](Self::next_delay).
    pub fn check_once(&mut self) -> Result<WatchOutcome, StoreError> {
        let outcome = self.tick();
        match &outcome {
            Ok(_) => self.consecutive_failures = 0,
            Err(_) => {
                self.consecutive_failures = self.consecutive_failures.saturating_add(1);
            }
        }
        outcome
    }

    fn tick(&mut self) -> Result<WatchOutcome, StoreError> {
        if let Some(fault) = dsketch_faults::fail_point!("watch.rebuild") {
            return Err(StoreError::Io(fault.io_error("watch.rebuild")));
        }
        let graph = netgraph::io::load_edge_list(&self.graph_path)?;
        let fingerprint = graph.fingerprint();
        if self.last == Some(fingerprint) {
            return Ok(WatchOutcome::Unchanged { fingerprint });
        }
        let (_, bytes) = build_and_save(&graph, self.spec, &self.config, &self.snapshot_path)?;
        self.last = Some(fingerprint);
        Ok(WatchOutcome::Rebuilt {
            fingerprint,
            nodes: graph.num_nodes(),
            bytes,
        })
    }

    /// Ticks in a row that ended in an error (0 after any success).
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// How long the embedding loop should sleep before the next tick:
    /// `base` while healthy; after `f` consecutive failures, an
    /// exponential `base · 2^f` capped at `cap`, with deterministic
    /// jitter: the delay is drawn uniformly from the upper half of the
    /// interval (`[raw/2, raw]`), so a fleet of watchers desynchronizes
    /// instead of retrying in lock step while the expected delay still
    /// doubles per failure until the cap.
    pub fn next_delay(&mut self, base: Duration, cap: Duration) -> Duration {
        if self.consecutive_failures == 0 {
            return base;
        }
        let exponent = self.consecutive_failures.min(16);
        let raw = base
            .saturating_mul(2u32.saturating_pow(exponent))
            .min(cap.max(base));
        self.jitter_state = splitmix64(self.jitter_state);
        let nanos = u64::try_from(raw.as_nanos()).unwrap_or(u64::MAX);
        let half = nanos / 2;
        Duration::from_nanos(half + self.jitter_state % (nanos - half + 1))
    }
}

/// SplitMix64 step — the workspace's standard deterministic mixer.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators::{erdos_renyi, GeneratorConfig};

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dsketch_store_watch_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn first_tick_rebuilds_then_unchanged_until_the_graph_moves() {
        let graph = erdos_renyi(32, 0.2, GeneratorConfig::uniform(5, 1, 10));
        let edges = temp_path("watch.edges");
        let snap = temp_path("watch.dsk");
        netgraph::io::save_edge_list(&graph, &edges).unwrap();

        let mut core = WatchCore::new(
            &edges,
            &snap,
            SchemeSpec::thorup_zwick(2),
            SchemeConfig::default().with_seed(5).with_parallel_build(),
        );
        assert!(matches!(
            core.check_once().unwrap(),
            WatchOutcome::Rebuilt { nodes: 32, .. }
        ));
        assert!(matches!(
            core.check_once().unwrap(),
            WatchOutcome::Unchanged { .. }
        ));

        // Rewrite the edge list with a different graph: the next tick
        // rebuilds and the snapshot's stored fingerprint follows.
        let moved = erdos_renyi(33, 0.2, GeneratorConfig::uniform(5, 1, 10));
        netgraph::io::save_edge_list(&moved, &edges).unwrap();
        assert!(matches!(
            core.check_once().unwrap(),
            WatchOutcome::Rebuilt { nodes: 33, .. }
        ));
        let (_, stored) = peek_snapshot_meta(&snap).unwrap();
        assert_eq!(stored, moved.fingerprint());
        assert_eq!(core.last_fingerprint(), Some(moved.fingerprint()));

        std::fs::remove_file(&edges).ok();
        std::fs::remove_file(&snap).ok();
    }

    #[test]
    fn priming_from_a_matching_snapshot_skips_the_first_rebuild() {
        let graph = erdos_renyi(24, 0.25, GeneratorConfig::uniform(5, 1, 10));
        let edges = temp_path("primed.edges");
        let snap = temp_path("primed.dsk");
        netgraph::io::save_edge_list(&graph, &edges).unwrap();
        let spec = SchemeSpec::thorup_zwick(2);
        let config = SchemeConfig::default().with_seed(5).with_parallel_build();
        build_and_save(&graph, spec, &config, &snap).unwrap();

        let mut core = WatchCore::new(&edges, &snap, spec, config);
        assert!(core.prime_from_snapshot());
        assert!(matches!(
            core.check_once().unwrap(),
            WatchOutcome::Unchanged { .. }
        ));

        // A snapshot built with a *different* scheme must not prime.
        let mut other = WatchCore::new(&edges, &snap, SchemeSpec::three_stretch(0.5), config);
        assert!(!other.prime_from_snapshot());
        assert_eq!(other.last_fingerprint(), None);

        std::fs::remove_file(&edges).ok();
        std::fs::remove_file(&snap).ok();
    }

    #[test]
    fn backoff_grows_while_failing_and_resets_on_success() {
        let edges = temp_path("backoff.edges");
        let snap = temp_path("backoff.dsk");
        std::fs::remove_file(&edges).ok();
        let mut core = WatchCore::new(
            &edges,
            &snap,
            SchemeSpec::thorup_zwick(2),
            SchemeConfig::default().with_seed(5).with_parallel_build(),
        );
        let base = Duration::from_millis(100);
        let cap = Duration::from_secs(5);
        assert_eq!(
            core.next_delay(base, cap),
            base,
            "healthy loop polls at base"
        );

        // Missing edge list: every tick fails, the failure count climbs,
        // and each jittered delay lands in the upper half of the capped
        // exponential interval — so expected delay doubles per failure.
        for failures in 1..=8u32 {
            assert!(core.check_once().is_err());
            assert_eq!(core.consecutive_failures(), failures);
            let raw = base.saturating_mul(2u32.pow(failures)).min(cap);
            let delay = core.next_delay(base, cap);
            assert!(
                delay >= raw / 2 && delay <= raw,
                "failure {failures}: delay {delay:?} outside [{:?}, {raw:?}]",
                raw / 2
            );
        }
        assert!(
            core.next_delay(base, cap) >= cap / 2,
            "eight failures reach the capped interval"
        );

        // The edge list appears: the next tick succeeds, failures reset,
        // and the loop returns to its base cadence.
        let graph = erdos_renyi(16, 0.3, GeneratorConfig::uniform(5, 1, 10));
        netgraph::io::save_edge_list(&graph, &edges).unwrap();
        assert!(matches!(
            core.check_once().unwrap(),
            WatchOutcome::Rebuilt { nodes: 16, .. }
        ));
        assert_eq!(core.consecutive_failures(), 0);
        assert_eq!(core.next_delay(base, cap), base);

        std::fs::remove_file(&edges).ok();
        std::fs::remove_file(&snap).ok();
    }

    #[test]
    fn missing_edge_list_is_a_typed_error_and_keeps_state() {
        let mut core = WatchCore::new(
            temp_path("nope.edges"),
            temp_path("nope.dsk"),
            SchemeSpec::thorup_zwick(2),
            SchemeConfig::default(),
        );
        assert!(core.check_once().is_err());
        assert_eq!(core.last_fingerprint(), None);
        assert!(!core.prime_from_snapshot());
    }
}
