//! Fixed log₂-bucket latency histograms with lock-free recording.
//!
//! A [`Histogram`] is [`BUCKETS`] counters plus a running sum and maximum,
//! all relaxed atomics.  Bucket `i` counts values in `[2^i, 2^(i+1))`
//! (bucket 0 also takes 0, the last bucket takes everything above its
//! floor), which spans 1 ns to ~9 minutes when values are nanoseconds —
//! every latency this workspace can produce.  The *count* of a histogram
//! is never stored: it is derived from the bucket array at snapshot time,
//! so a snapshot's count always equals the sum of its buckets by
//! construction (no torn `count`-vs-`buckets` reads).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of log₂ buckets. `2^39` ns ≈ 9.2 minutes, far beyond any
/// single-query or single-phase duration the workspace measures.
pub const BUCKETS: usize = 40;

/// The bucket index a value lands in: `floor(log2(max(v, 1)))`, clamped to
/// the last bucket.  Boundary values `2^i` land in bucket `i` exactly.
pub fn bucket_index(value: u64) -> usize {
    let floor_log2 = 63 - value.max(1).leading_zeros() as usize;
    floor_log2.min(BUCKETS - 1)
}

/// The largest value bucket `i` holds: `2^(i+1) - 1`, or `u64::MAX` for
/// the last (unbounded) bucket.  These are the `le` bounds the Prometheus
/// encoder emits.
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << (index + 1)) - 1
    }
}

#[derive(Debug)]
struct Cells {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

/// A shared log₂-bucket histogram handle.  Cloning shares the cells;
/// recording is three relaxed atomic RMW operations and never locks.
#[derive(Debug, Clone)]
pub struct Histogram {
    cells: Arc<Cells>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram (standalone use — e.g. the load generator's
    /// client-side latency record; registered histograms come from
    /// [`crate::MetricsRegistry::histogram`]).
    pub fn new() -> Histogram {
        Histogram {
            cells: Arc::new(Cells {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Record one observation (nanoseconds, by workspace convention).
    pub fn record(&self, value: u64) {
        self.cells.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.cells.sum.fetch_add(value, Ordering::Relaxed);
        self.cells.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A copy of the cells, each loaded once.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .cells
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.cells.sum.load(Ordering::Relaxed),
            max: self.cells.max.load(Ordering::Relaxed),
        }
    }
}

/// A copy of one histogram's cells, each loaded once.  Recording is not
/// paused, so `sum` and `max` may include an observation the buckets do
/// not yet show; [`HistogramSnapshot::count`] always equals the buckets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`BUCKETS`] entries, non-cumulative).
    pub buckets: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Total observations — derived from the buckets, so it always equals
    /// their sum.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) by nearest rank over the log₂
    /// buckets, reported as the holding bucket's [`bucket_upper_bound`] —
    /// a conservative (never under-reported) estimate with the buckets'
    /// factor-of-two resolution.  `quantile(0.99)` is the p99 the swap
    /// experiments compare; the top (unbounded) bucket reports the exact
    /// recorded `max` instead of `u64::MAX`.  Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        // Nearest rank: the smallest rank r (1-based) with r >= q * count.
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return if index >= BUCKETS - 1 {
                    self.max
                } else {
                    bucket_upper_bound(index).min(self.max)
                };
            }
        }
        self.max
    }

    /// Merge another snapshot into this one by summation (maximum for
    /// `max`) — how per-shard histograms aggregate into totals.
    pub fn absorb(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_values_land_in_their_bucket() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        for i in 1..BUCKETS - 1 {
            assert_eq!(bucket_index(1u64 << i), i, "2^{i} starts bucket {i}");
            assert_eq!(
                bucket_index((1u64 << i) - 1),
                i - 1,
                "2^{i}-1 ends bucket {}",
                i - 1
            );
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn upper_bounds_are_inclusive_and_monotone() {
        assert_eq!(bucket_upper_bound(0), 1);
        assert_eq!(bucket_upper_bound(1), 3);
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i);
            assert_eq!(bucket_index(bucket_upper_bound(i) + 1), i + 1);
            assert!(bucket_upper_bound(i) < bucket_upper_bound(i + 1));
        }
    }

    #[test]
    fn count_is_derived_from_buckets() {
        let hist = Histogram::new();
        for value in [0, 1, 1, 5, 1023, 1024, u64::MAX] {
            hist.record(value);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 7);
        assert_eq!(snap.buckets[0], 3, "0, 1, 1");
        assert_eq!(snap.buckets[2], 1, "5");
        assert_eq!(snap.buckets[9], 1, "1023");
        assert_eq!(snap.buckets[10], 1, "1024");
        assert_eq!(snap.buckets[BUCKETS - 1], 1, "u64::MAX");
        assert_eq!(snap.max, u64::MAX);
    }

    #[test]
    fn quantiles_follow_nearest_rank_over_buckets() {
        assert_eq!(HistogramSnapshot::default().quantile(0.99), 0);

        let hist = Histogram::new();
        // 90 small values in bucket 3 ([8, 16)) and 10 large ones in
        // bucket 10 ([1024, 2048)): p50 sits in the small bucket, p99 in
        // the large one.
        for _ in 0..90 {
            hist.record(10);
        }
        for _ in 0..10 {
            hist.record(1500);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.quantile(0.5), bucket_upper_bound(3));
        assert_eq!(snap.quantile(0.90), bucket_upper_bound(3));
        assert_eq!(snap.quantile(0.91), 1500, "capped at the recorded max");
        assert_eq!(snap.quantile(0.99), 1500);
        assert_eq!(snap.quantile(1.0), 1500);

        // A single observation answers every quantile with itself (its
        // bucket bound capped at max).
        let one = Histogram::new();
        one.record(5);
        assert_eq!(one.snapshot().quantile(0.0), 5);
        assert_eq!(one.snapshot().quantile(0.99), 5);

        // Top-bucket mass reports the exact max, not u64::MAX.
        let top = Histogram::new();
        top.record(u64::MAX - 3);
        assert_eq!(top.snapshot().quantile(0.99), u64::MAX - 3);
    }

    #[test]
    fn snapshots_absorb_counts_and_sums() {
        let hist = Histogram::new();
        hist.record(1);
        let mut a = hist.snapshot();
        assert_eq!(a.count(), 1);
        let other = Histogram::new();
        other.record(7);
        other.record(9);
        a.absorb(&other.snapshot());
        assert_eq!(a.count(), 3);
        assert!(a.sum >= 16);
        assert!(a.mean() > 0.0);
        assert_eq!(HistogramSnapshot::default().mean(), 0.0);
    }
}
