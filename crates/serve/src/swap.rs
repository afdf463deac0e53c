//! Live snapshot swap: the cell that publishes the current
//! [`Generation`] and the generation tag itself.
//!
//! The serving stack was built over one immutable `Arc<dyn
//! DistanceOracle>` fixed at startup; this module makes that binding
//! *replaceable while queries are in flight*.  A [`SwapCell`] is a version
//! counter over a mutex-guarded `Arc`: a caller takes the lock — for the
//! length of one `Arc::clone` — once per batch, holds the clone while the
//! batch runs, and lets go of it when the batch returns.  A writer
//! publishes a fully built replacement; the retired generation is dropped
//! exactly once, when the cell's reference and every outstanding reader
//! clone are gone.

use dsketch::{DistanceOracle, SchemeSpec};
use netgraph::GraphFingerprint;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// One published value the serving stack can be switched to: the oracle
/// plus everything a swap has to validate and the stats endpoints report.
pub struct Generation {
    /// Monotonic generation number; the cold-start oracle is generation 1
    /// and every successful swap increments it.
    pub number: u64,
    /// The scheme the oracle was built with, when known (present whenever
    /// the oracle came from a `DSK1` snapshot).  Swaps refuse a snapshot
    /// whose spec differs.
    pub spec: Option<SchemeSpec>,
    /// Fingerprint of the graph the oracle was built from, when known.
    /// Swaps compare node counts; edge/weight drift is the legitimate
    /// graph-evolution case and is allowed through.
    pub fingerprint: Option<GraphFingerprint>,
    /// The serving oracle itself.
    pub oracle: Arc<dyn DistanceOracle>,
}

impl Generation {
    /// A startup generation (number 1) with optional provenance.
    pub fn initial(
        oracle: Arc<dyn DistanceOracle>,
        spec: Option<SchemeSpec>,
        fingerprint: Option<GraphFingerprint>,
    ) -> Generation {
        Generation {
            number: 1,
            spec,
            fingerprint,
            oracle,
        }
    }
}

impl std::fmt::Debug for Generation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Generation")
            .field("number", &self.number)
            .field("spec", &self.spec)
            .field("fingerprint", &self.fingerprint)
            .field("scheme", &self.oracle.scheme_name())
            .field("num_nodes", &self.oracle.num_nodes())
            .finish()
    }
}

/// Why [`crate::SketchServer::swap_snapshot`] refused to publish a new
/// generation.  Every refusal leaves the live generation untouched.
#[derive(Debug)]
pub enum SwapError {
    /// The snapshot failed the deep semantic verifier (corrupted,
    /// truncated, or contract-violating `DSK1` bytes).
    Verify(dsketch_analysis::AnalysisError),
    /// Reading or decoding the snapshot failed at the store layer.
    Store(dsketch_store::StoreError),
    /// The snapshot holds a different scheme than the one being served.
    SchemeMismatch {
        /// The scheme currently live.
        current: SchemeSpec,
        /// The scheme the snapshot holds.
        offered: SchemeSpec,
    },
    /// The snapshot was built over a graph with a different node count
    /// than the one being served (its fingerprint names a different
    /// node-id universe, so cached routing and clients' ids would break).
    NodeCountMismatch {
        /// Node count currently live.
        current: usize,
        /// Node count the snapshot was built over.
        offered: usize,
    },
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::Verify(e) => write!(f, "snapshot failed deep verification: {e}"),
            SwapError::Store(e) => write!(f, "snapshot could not be loaded: {e}"),
            SwapError::SchemeMismatch { current, offered } => write!(
                f,
                "snapshot scheme {offered} does not match the serving scheme {current}"
            ),
            SwapError::NodeCountMismatch { current, offered } => write!(
                f,
                "snapshot covers {offered} nodes but the server is serving {current}"
            ),
        }
    }
}

impl std::error::Error for SwapError {}

impl From<dsketch_analysis::AnalysisError> for SwapError {
    fn from(e: dsketch_analysis::AnalysisError) -> Self {
        SwapError::Verify(e)
    }
}

impl From<dsketch_store::StoreError> for SwapError {
    fn from(e: dsketch_store::StoreError) -> Self {
        SwapError::Store(e)
    }
}

/// A shared cell holding an `Arc<T>`, replaceable while readers are
/// loading: a version counter over a mutex-guarded `Arc`.
///
/// * [`SwapCell::version`] is a single atomic load — "which generation is
///   live?" without touching the lock.
/// * [`SwapCell::load`] clones the current `Arc` under the lock, which is
///   held for exactly that clone.
/// * [`SwapCell::store`] publishes a replacement and drops the value it
///   displaced.
///
/// Two conditions carry the guarantees the serving stack relies on:
///
/// 1. **The version is bumped inside `store`'s critical section.**  A
///    reader that saw version `v` and then calls `load` therefore gets
///    generation `≥ v` (its lock follows the store that wrote `v`), and a
///    `load` that returned generation `g` is followed by `version() ≥ g`.
///    A `ServeClient` tags a fresh cache with `version()` and compares the
///    tag with the number of each generation it `load`s, and
///    `SketchServer::generation` reports `version()` beside answers tagged
///    by `load`; both halves keep those two views of "now" from crossing.
///    The mutex supplies the ordering; the counter only has to be atomic.
/// 2. **The displaced `Arc` is dropped after the guard is released.**
///    Dropping the cell's reference can free a 160 MB oracle, and a
///    payload's `Drop` may itself touch the cell; neither may happen while
///    readers are locked out.
///
/// Nothing that can panic runs under the lock, and both paths recover a
/// poisoned guard anyway (the protected `Arc` is always a whole value), so
/// `load` cannot panic because a swapper did.
pub struct SwapCell<T> {
    current: Mutex<Arc<T>>,
    /// 1 for the initial value, +1 per store, so version numbers align
    /// with generation numbers.
    version: AtomicU64,
}

impl<T> SwapCell<T> {
    /// A cell holding `initial` as version 1.
    pub fn new(initial: Arc<T>) -> SwapCell<T> {
        SwapCell {
            current: Mutex::new(initial),
            version: AtomicU64::new(1),
        }
    }

    /// The current version: 1 for the initial value, +1 per [`store`].
    ///
    /// One atomic load; no lock.
    ///
    /// [`store`]: SwapCell::store
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Clone out the current value.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.current.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publish `next` as the new current value and return its version.
    ///
    /// The displaced value is released here, outside the lock; the last
    /// reader clone of a generation keeps it alive until that clone is
    /// dropped, so "retire" never frees memory a reader still holds.
    pub fn store(&self, next: Arc<T>) -> u64 {
        let (displaced, version) = {
            let mut current = self.current.lock().unwrap_or_else(PoisonError::into_inner);
            let displaced = std::mem::replace(&mut *current, next);
            (displaced, self.version.fetch_add(1, Ordering::Release) + 1)
        };
        drop(displaced);
        version
    }
}

impl<T> std::fmt::Debug for SwapCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwapCell")
            .field("version", &self.version())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{OnceLock, Weak};

    /// A payload that counts its drops, so tests can pin down "dropped
    /// exactly once, and only after the last reader let go".
    struct DropProbe {
        id: u64,
        drops: Arc<AtomicU64>,
    }

    impl Drop for DropProbe {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn load_returns_the_stored_value_and_versions_are_monotonic() {
        let cell = SwapCell::new(Arc::new(10u64));
        assert_eq!(cell.version(), 1);
        assert_eq!(*cell.load(), 10);
        for value in 11..40u64 {
            let version = cell.store(Arc::new(value));
            assert_eq!(version, value - 9, "one version per store");
            assert_eq!(cell.version(), version);
            assert_eq!(*cell.load(), value, "load sees the latest store");
        }
    }

    #[test]
    fn every_generation_drops_exactly_once() {
        let drops = Arc::new(AtomicU64::new(0));
        let make = |id: u64| {
            Arc::new(DropProbe {
                id,
                drops: Arc::clone(&drops),
            })
        };
        let mut held = Vec::new();
        {
            let cell = SwapCell::new(make(1));
            for id in 2..=10u64 {
                held.push(cell.load());
                cell.store(make(id));
            }
            // Generations 1..=9 are alive only through the reader clones
            // in `held`, generation 10 only through the cell.
            assert_eq!(held.iter().map(|g| g.id).min().unwrap(), 1);
            assert_eq!(drops.load(Ordering::SeqCst), 0);
            // Dropping the reader clones must free each retired
            // generation once, and must not touch the current one.
            held.clear();
            assert_eq!(drops.load(Ordering::SeqCst), 9);
        }
        // Cell and clones gone: all 10 payloads dropped exactly once.
        assert_eq!(drops.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn reader_clones_keep_retired_generations_alive() {
        let drops = Arc::new(AtomicU64::new(0));
        let make = |id: u64| {
            Arc::new(DropProbe {
                id,
                drops: Arc::clone(&drops),
            })
        };
        let cell = SwapCell::new(make(1));
        let pinned = cell.load();
        assert_eq!(Arc::strong_count(&pinned), 2, "cell + reader clone");
        for id in 2..=50u64 {
            cell.store(make(id));
        }
        // Every unheld generation 2..=49 was released by the store that
        // displaced it; generation 1 lives on through our clone alone.
        assert_eq!(pinned.id, 1);
        assert_eq!(Arc::strong_count(&pinned), 1, "cell reference released");
        assert_eq!(drops.load(Ordering::SeqCst), 48);
        drop(pinned);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            49,
            "last clone drop frees generation 1 exactly once"
        );
    }

    /// A payload whose `Drop` reads the cell it was displaced from.
    struct Reentrant {
        id: u64,
        cell: Arc<OnceLock<Weak<SwapCell<Reentrant>>>>,
        seen_on_drop: Arc<AtomicU64>,
    }

    impl Drop for Reentrant {
        fn drop(&mut self) {
            if let Some(cell) = self.cell.get().and_then(Weak::upgrade) {
                self.seen_on_drop.store(cell.load().id, Ordering::SeqCst);
            }
        }
    }

    /// Condition 2 of the cell's contract: a cell that dropped the
    /// displaced `Arc` while still holding its guard would self-deadlock
    /// here (the payload's `Drop` calls `load` on the same thread).
    #[test]
    fn a_payload_whose_drop_loads_the_cell_does_not_deadlock_store() {
        let handle = Arc::new(OnceLock::new());
        let seen_on_drop = Arc::new(AtomicU64::new(0));
        let make = |id: u64| {
            Arc::new(Reentrant {
                id,
                cell: Arc::clone(&handle),
                seen_on_drop: Arc::clone(&seen_on_drop),
            })
        };
        let cell = Arc::new(SwapCell::new(make(1)));
        assert!(handle.set(Arc::downgrade(&cell)).is_ok());
        let next = make(2);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let swapper = {
            let cell = Arc::clone(&cell);
            dsketch::parallel::spawn_named("swap-test-swapper", move || {
                // Generation 1 has no other owner: this store drops it.
                let version = cell.store(next);
                let _ = done_tx.send(version);
            })
        };
        let version = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("store deadlocked dropping the displaced generation under its lock");
        swapper.join().expect("swapper panicked");
        assert_eq!(version, 2);
        assert_eq!(
            seen_on_drop.load(Ordering::SeqCst),
            2,
            "the displaced payload's drop ran after publication and saw generation 2"
        );
    }

    /// Condition 1 of the cell's contract: a version number read from
    /// `version()` is a lower bound on what the next `load` returns, and an
    /// upper bound is the version read after.
    #[test]
    fn concurrent_loads_and_stores_never_yield_torn_or_stale_beyond_window() {
        let cell = Arc::new(SwapCell::new(Arc::new(1u64)));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                dsketch::parallel::spawn_named("swap-test-reader", move || {
                    let mut last = 0u64;
                    let mut loads = 0u64;
                    // Loop-with-exit-at-bottom so every reader performs at
                    // least one load even on a single-core box where the
                    // writer finishes before readers are first scheduled.
                    loop {
                        let before = cell.version();
                        let value = *cell.load();
                        let after = cell.version();
                        assert!(value >= before, "load {value} older than version {before}");
                        assert!(value <= after, "load {value} ahead of version {after}");
                        assert!(value >= last, "reads must be monotonic per thread");
                        last = value;
                        loads += 1;
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    loads
                })
            })
            .collect();
        // The payload is its own version number: store k publishes k.
        for value in 2..2000u64 {
            assert_eq!(cell.store(Arc::new(value)), value);
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            assert!(reader.join().expect("reader panicked") > 0);
        }
        assert_eq!(*cell.load(), 1999);
        assert_eq!(cell.version(), 1999);
    }
}
