//! A small, dependency-free worker pool for batching independent graph
//! explorations across threads — the engine room of the parallel
//! construction path ([`crate::build`]).
//!
//! Every sketch construction in this workspace decomposes into *independent
//! per-seed explorations* over one shared, read-only [`netgraph::Graph`]:
//! one truncated Dijkstra per cluster source in Thorup–Zwick, one
//! exploration per density-net node in the 3-stretch scheme, one restricted
//! hierarchy per CDG layer.  Those explorations never observe each other, so
//! they can be executed on any number of worker threads — as long as what
//! comes out does not depend on which worker did what.
//!
//! The contract of this module is exactly that determinism guarantee:
//!
//! * [`parallel_map`] executes `f` over a work list on `threads` workers and
//!   returns the results **in input order**, regardless of which worker
//!   computed which item or in what order items finished.  Work is handed
//!   out through a single atomic counter (work stealing), so stragglers are
//!   balanced automatically; each worker accumulates `(index, result)` pairs
//!   privately and the results are re-assembled by index after the scoped
//!   threads join.
//! * [`parallel_split_mut`] is the write side: it cuts one output slice into
//!   consecutive disjoint pieces (`split_at_mut`) and gives each worker
//!   exclusive access to one.  The direct engine's cluster→bunch transpose
//!   runs on it — every worker fills the label rows of its own node range —
//!   so the result is a function of what is written per piece, never of the
//!   cuts or the schedule.
//! * With `threads == 1` (or a single piece) no threads are spawned at all —
//!   the call is a plain loop.  Because the output only depends on the
//!   input, `threads = k` is **bit-identical** to `threads = 1` for every `k`
//!   (the property the `parallel_build` integration suite checks end-to-end,
//!   down to the serialized `DSK1` snapshot bytes).
//!
//! Threads are plain `std::thread::scope` workers: no unsafe code, no shared
//! mutable state beyond the atomic work counter and the disjoint pieces, no
//! dependencies.
//!
//! ```
//! use dsketch::parallel::parallel_map;
//!
//! let squares = parallel_map(4, &[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]); // input order, always
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The number of hardware threads available to this process (at least 1).
///
/// This is what a `threads` knob of `0` ("use all available parallelism")
/// resolves to — see [`resolve_threads`].
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Resolve a user-facing `threads` knob: `0` means "all available
/// parallelism", anything else is used as given.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        available_parallelism()
    } else {
        threads
    }
}

/// Spawn a named, long-lived worker thread — the one blessed spawn path of
/// the workspace (`clippy.toml` disallows `std::thread::spawn` and
/// `std::thread::Builder::new` everywhere else, so thread naming and
/// failure policy live in one place).
///
/// The name shows up in panic messages, debuggers and `/proc`, which is
/// what makes a wedged connection worker diagnosable in production.
///
/// # Panics
///
/// Panics if the OS refuses to spawn the thread (resource exhaustion) —
/// there is no meaningful recovery for a worker that never existed.
#[expect(
    clippy::disallowed_methods,
    reason = "the blessed spawn site: every other thread in the workspace is spawned through this function"
)]
#[expect(
    clippy::panic,
    reason = "OS spawn failure is resource exhaustion — no recovery without a thread"
)]
pub fn spawn_named<T, F>(name: &str, f: F) -> std::thread::JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        .unwrap_or_else(|e| panic!("failed to spawn thread `{name}`: {e}"))
}

/// Map `f` over `items` on up to `threads` worker threads, returning the
/// results in input order.
///
/// `f` receives the item's index and a reference to the item.  See the
/// [module docs](self) for the determinism contract; `threads` is resolved
/// with [`resolve_threads`] and clamped to the number of items.
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_with(threads, items, || (), |(), index, item| f(index, item))
}

/// Like [`parallel_map`], but each worker thread carries private scratch
/// state created by `init` — reusable buffers that would otherwise be
/// re-allocated per item (e.g. the distance array of a truncated Dijkstra).
///
/// The scratch state must never influence results (it is per-*worker*, and
/// which worker runs which item is scheduling-dependent); it exists purely
/// to amortize allocations.
pub fn parallel_map_with<S, T, R, I, F>(threads: usize, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let n = items.len();
    let threads = resolve_threads(threads).clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(index, item)| f(&mut state, index, item))
            .collect();
    }

    // Work stealing over one atomic cursor: each worker claims the next
    // unclaimed index until the list is drained, keeping all workers busy
    // even when per-item costs vary wildly (cluster sizes do).
    let next = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut out = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= n {
                            break;
                        }
                        out.push((index, f(&mut state, index, &items[index])));
                    }
                    out
                })
            })
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "join propagates a worker panic — there is no error to type"
        )]
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel_map worker panicked"))
            .collect()
    });

    // Deterministic merge: place every result back at its input index.
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for bucket in buckets {
        for (index, result) in bucket {
            debug_assert!(slots[index].is_none(), "index {index} computed twice");
            slots[index] = Some(result);
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "merge invariant — every index in 0..n is claimed by exactly one worker"
    )]
    slots
        .into_iter()
        .map(|slot| slot.expect("every index computed exactly once"))
        .collect()
}

/// Run `f` over consecutive disjoint pieces of `data`, one scoped worker per
/// piece: piece `i` is `data[cuts[i]..cuts[i + 1]]`, and `f` receives `i`
/// with exclusive access to that piece.
///
/// This is the write side of the pool: [`parallel_map`] hands out read-only
/// items and collects results, this hands every worker the part of one
/// shared output it alone fills.  What ends up in `data` depends only on
/// what `f` writes for each piece, never on scheduling.  A single piece
/// runs inline, with no thread spawned.
///
/// # Panics
///
/// Panics unless `cuts` is non-decreasing, starts at `0` and ends at
/// `data.len()`.
pub fn parallel_split_mut<T, F>(data: &mut [T], cuts: &[usize], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(
        cuts.first() == Some(&0) && cuts.last() == Some(&data.len()),
        "cuts must span the whole slice"
    );
    let mut pieces = Vec::with_capacity(cuts.len() - 1);
    let mut rest = data;
    for cut in cuts.windows(2) {
        assert!(cut[0] <= cut[1], "cuts must be non-decreasing");
        let (piece, tail) = std::mem::take(&mut rest).split_at_mut(cut[1] - cut[0]);
        pieces.push(piece);
        rest = tail;
    }
    if let [piece] = pieces.as_mut_slice() {
        return f(0, piece);
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = pieces
            .into_iter()
            .enumerate()
            .map(|(index, piece)| scope.spawn(move || f(index, piece)))
            .collect();
        for handle in handles {
            #[expect(
                clippy::expect_used,
                reason = "join propagates a worker panic — there is no error to type"
            )]
            handle.join().expect("parallel_split_mut worker panicked");
        }
    });
}

/// Wall-clock timing of one batched phase of a parallel build.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTiming {
    /// Phase label, e.g. `"tz/clusters"` or `"3stretch/net-explorations"`.
    pub phase: String,
    /// Number of independent explorations batched in this phase.
    pub items: usize,
    /// Wall-clock seconds the phase took.
    pub seconds: f64,
}

/// Per-phase wall-clock timings of one parallel build, surfaced in
/// [`crate::scheme::BuildOutcome::timings`].
///
/// The CONGEST-simulated engine reports its cost in rounds/messages/words
/// ([`congest_sim::RunStats`]); the parallel engine's currency is wall-clock
/// time per batched phase, which `dsketch-benchmark` reports as its
/// `core.build.{pivots,clusters,merge}_s` rows.  Timings are measurement
/// metadata: they vary run to run and are **not** part of the persisted
/// snapshot (snapshot bytes stay bit-identical across thread counts).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BuildTimings {
    /// Resolved worker-thread count the build ran with (`0` when the build
    /// went through the CONGEST simulator and recorded no phase timings).
    pub threads: usize,
    /// One entry per batched phase, in execution order.
    pub phases: Vec<PhaseTiming>,
}

impl BuildTimings {
    /// Timings for a build about to run on `threads` resolved workers.
    pub fn new(threads: usize) -> Self {
        BuildTimings {
            threads,
            phases: Vec::new(),
        }
    }

    /// Record a phase that started at `started` and just finished.
    ///
    /// Besides appending to this build's own phase list, the observation
    /// feeds the process-global [`dsketch_obs::global`] registry
    /// (`dsketch_build_phase_nanos{phase=…}` and
    /// `dsketch_build_items_total{phase=…}`), so long-running processes can
    /// expose cumulative build cost over every build they ever ran.
    pub fn record(&mut self, phase: &str, items: usize, started: Instant) {
        let elapsed = started.elapsed();
        let registry = dsketch_obs::global();
        let labels: &[(&str, &str)] = &[("phase", phase)];
        registry
            .histogram_with(
                "dsketch_build_phase_nanos",
                "Wall time of one batched build phase.",
                labels,
            )
            .record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        registry
            .counter_with(
                "dsketch_build_items_total",
                "Independent explorations batched across build phases.",
                labels,
            )
            .add(items as u64);
        self.phases.push(PhaseTiming {
            phase: phase.to_string(),
            items,
            seconds: elapsed.as_secs_f64(),
        });
    }

    /// Append another build's phases under a `prefix/` label (used by the
    /// layered gracefully-degrading build to keep per-layer phases apart).
    pub fn absorb_prefixed(&mut self, prefix: &str, other: BuildTimings) {
        for mut timing in other.phases {
            timing.phase = format!("{prefix}{}", timing.phase);
            self.phases.push(timing);
        }
    }

    /// Total wall-clock seconds across all recorded phases.
    pub fn total_seconds(&self) -> f64 {
        self.phases.iter().map(|p| p.seconds).sum()
    }

    /// True if this build recorded phase timings (i.e. it ran on the
    /// parallel engine).
    pub fn is_recorded(&self) -> bool {
        !self.phases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order_for_every_thread_count() {
        let items: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 8, 16] {
            let got = parallel_map(threads, &items, |index, &x| {
                assert_eq!(index, x);
                x * 3 + 1
            });
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert_eq!(resolve_threads(0), available_parallelism());
        assert_eq!(resolve_threads(3), 3);
        assert!(available_parallelism() >= 1);
        // threads = 0 must still work end to end.
        let got = parallel_map(0, &[10u32, 20, 30], |_, &x| x + 1);
        assert_eq!(got, vec![11, 21, 31]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map(8, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(8, &[7u8], |_, &x| x * 2), vec![14]);
    }

    #[test]
    fn worker_state_is_reused_not_shared() {
        // Each worker's scratch counts the items *it* processed; the sum over
        // workers must cover the whole list exactly once.
        let items: Vec<u32> = (0..100).collect();
        let processed = AtomicUsize::new(0);
        let results = parallel_map_with(
            4,
            &items,
            || 0usize,
            |count, _, &x| {
                *count += 1;
                processed.fetch_add(1, Ordering::Relaxed);
                x
            },
        );
        assert_eq!(results, items);
        assert_eq!(processed.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn split_workers_fill_disjoint_pieces() {
        // Uneven and empty pieces; one piece runs inline.
        for cuts in [vec![0usize, 10], vec![0, 3, 3, 7, 10], vec![0, 0, 10]] {
            let mut data = vec![usize::MAX; 10];
            parallel_split_mut(&mut data, &cuts, |piece, slots| {
                assert_eq!(slots.len(), cuts[piece + 1] - cuts[piece]);
                for (offset, slot) in slots.iter_mut().enumerate() {
                    *slot = cuts[piece] + offset;
                }
            });
            assert_eq!(data, (0..10).collect::<Vec<_>>(), "cuts = {cuts:?}");
        }
        let mut empty: Vec<u8> = Vec::new();
        parallel_split_mut(&mut empty, &[0, 0], |_, slots| assert!(slots.is_empty()));
    }

    #[test]
    #[should_panic(expected = "span the whole slice")]
    fn split_rejects_cuts_that_do_not_cover_the_slice() {
        parallel_split_mut(&mut [0u8; 4], &[0, 3], |_, _| {});
    }

    #[test]
    fn timings_accumulate_and_prefix() {
        let mut t = BuildTimings::new(4);
        assert!(!t.is_recorded());
        t.record("pivots", 3, Instant::now());
        let mut layered = BuildTimings::new(4);
        layered.record("clusters", 9, Instant::now());
        t.absorb_prefixed("layer0/", layered);
        assert!(t.is_recorded());
        assert_eq!(t.phases.len(), 2);
        assert_eq!(t.phases[1].phase, "layer0/clusters");
        assert_eq!(t.phases[1].items, 9);
        assert!(t.total_seconds() >= 0.0);
    }
}
