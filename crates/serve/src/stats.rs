//! Query-serving statistics, mirroring the construction-side accounting.
//!
//! Construction reports a [`dsketch::RunStats`] per build (total plus
//! per-phase breakdown in [`dsketch::BuildOutcome`]); serving reports a
//! [`ServeStats`] per server — the aggregate [`ShardStats`] plus the
//! per-shard breakdown — so experiment tables can put build cost and serve
//! cost side by side.
//!
//! The live cells behind these snapshots are instruments in the server's
//! [`MetricsRegistry`]: the internal counter structs hold cheap
//! [`Counter`]/[`Gauge`]/[`Histogram`] handles registered under the
//! `dsketch_serve_*` / `dsketch_net_*` families, and the public snapshot
//! types here are *views* of those instruments.  There is one path from
//! instruments to views: [`ServeStats::from_metrics`] /
//! [`NetStats::from_metrics`] over one registry snapshot, behind
//! `SketchServer::stats`, `NetServer::net_stats` and `GET /stats` alike, so
//! every number in one view was read at one moment.

use dsketch_obs::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};

/// Counters for one query shard (or, via [`ShardStats::absorb`], a sum over
/// shards).  A plain snapshot value, like `RunStats` on the build side.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Queries answered (including failed ones).
    pub queries: u64,
    /// Queries answered from the shard's LRU cache.
    pub cache_hits: u64,
    /// Queries that had to consult the oracle.
    pub cache_misses: u64,
    /// Entries discarded when a shard picked up a new generation: the
    /// worker drops its whole cache at the batch boundary where it saw the
    /// version move, and adds the cache's size here.  The lookups that
    /// follow are ordinary misses, so `cache_hits + cache_misses ==
    /// queries` holds across swaps, and this counter says how much of a
    /// post-swap miss burst is the swap's doing rather than a cold-cache
    /// regression.
    pub cache_invalidations: u64,
    /// Queries that returned an error (unknown node, no common landmark).
    pub errors: u64,
    /// Batches (channel messages) processed; `queries / batches` is the mean
    /// batch size reaching this shard.
    pub batches: u64,
    /// Total time spent answering queries, in nanoseconds (cache lookup plus
    /// oracle estimate; excludes queueing).
    pub busy_nanos: u64,
    /// Largest single-query service time observed, in nanoseconds.
    pub max_latency_nanos: u64,
    /// Worker restarts performed by this shard's supervisor after a panic.
    /// A restarted worker starts with a cold cache; the batch in flight at
    /// crash time answered with `ShardPanicked`.
    pub restarts: u64,
}

impl ShardStats {
    /// Merge another shard's counters into this one by summation (maximum
    /// for `max_latency_nanos`), like `RunStats::absorb` on the build side.
    pub fn absorb(&mut self, other: &ShardStats) {
        self.queries += other.queries;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_invalidations += other.cache_invalidations;
        self.errors += other.errors;
        self.batches += other.batches;
        self.busy_nanos += other.busy_nanos;
        self.max_latency_nanos = self.max_latency_nanos.max(other.max_latency_nanos);
        self.restarts += other.restarts;
    }

    /// Fraction of queries answered from cache (0 when no queries ran).
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }

    /// Mean service time per query in nanoseconds (0 when no queries ran).
    pub fn avg_latency_nanos(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.busy_nanos as f64 / self.queries as f64
        }
    }
}

/// A point-in-time snapshot of a running (or shut down) server's counters:
/// the per-shard breakdown plus the aggregate, mirroring how
/// [`dsketch::BuildOutcome`] pairs `stats` with `phase_stats`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Sum over all shards.
    pub totals: ShardStats,
    /// One entry per shard, in shard order.
    pub per_shard: Vec<ShardStats>,
    /// Snapshot generation serving when this snapshot was taken (1 = the
    /// startup oracle; each hot swap increments it).
    pub generation: u64,
    /// Hot snapshot swaps published since startup.
    pub swaps: u64,
}

impl ServeStats {
    /// Number of shards the server ran with.
    pub fn num_shards(&self) -> usize {
        self.per_shard.len()
    }

    /// Largest per-shard query count divided by the mean — 1.0 is a
    /// perfectly balanced load, higher means hotter shards.
    pub fn load_imbalance(&self) -> f64 {
        let n = self.per_shard.len();
        if n == 0 || self.totals.queries == 0 {
            return 1.0;
        }
        let max = self.per_shard.iter().map(|s| s.queries).max().unwrap_or(0);
        let mean = self.totals.queries as f64 / n as f64;
        max as f64 / mean
    }

    /// Rebuild the per-shard view from one registry snapshot — every number
    /// comes from the same [`MetricsSnapshot`], so the derived ratios
    /// (`hit_rate`, queries-per-batch) are internally consistent no matter
    /// how hard the workers are writing concurrently.
    pub(crate) fn from_metrics(snap: &MetricsSnapshot, shards: usize) -> ServeStats {
        let mut per_shard = Vec::with_capacity(shards);
        for shard in 0..shards {
            let labels = format!("shard=\"{shard}\"");
            let latency = snap
                .histogram("dsketch_serve_query_latency_nanos", &labels)
                .cloned()
                .unwrap_or_default();
            per_shard.push(ShardStats {
                queries: snap
                    .counter("dsketch_serve_queries_total", &labels)
                    .unwrap_or(0),
                cache_hits: snap
                    .counter("dsketch_serve_cache_hits_total", &labels)
                    .unwrap_or(0),
                cache_misses: snap
                    .counter("dsketch_serve_cache_misses_total", &labels)
                    .unwrap_or(0),
                cache_invalidations: snap
                    .counter("dsketch_serve_cache_invalidations_total", &labels)
                    .unwrap_or(0),
                errors: snap
                    .counter("dsketch_serve_errors_total", &labels)
                    .unwrap_or(0),
                batches: snap
                    .counter("dsketch_serve_batches_total", &labels)
                    .unwrap_or(0),
                busy_nanos: latency.sum,
                max_latency_nanos: latency.max,
                restarts: snap
                    .counter("dsketch_shard_restarts_total", &labels)
                    .unwrap_or(0),
            });
        }
        let mut totals = ShardStats::default();
        for shard in &per_shard {
            totals.absorb(shard);
        }
        ServeStats {
            totals,
            per_shard,
            generation: snap
                // dsketch-lint: allow(metric-name-style): the generation gauge is a version number — unitless by design
                .gauge("dsketch_serve_generation", "")
                .unwrap_or(1)
                .max(0) as u64,
            swaps: snap.counter("dsketch_swap_total", "").unwrap_or(0),
        }
    }
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} queries over {} shards: {:.1}% cache hits, {} errors, \
             avg {:.2} µs/query, max {:.2} µs, imbalance {:.2}, generation {} ({} swaps)",
            self.totals.queries,
            self.num_shards(),
            100.0 * self.totals.hit_rate(),
            self.totals.errors,
            self.totals.avg_latency_nanos() / 1_000.0,
            self.totals.max_latency_nanos as f64 / 1_000.0,
            self.load_imbalance(),
            self.generation,
            self.swaps,
        )
    }
}

/// Wire-level counters of the network front end ([`crate::net`]): what the
/// in-process [`ShardStats`] cannot see because it begins at the shard
/// queues — sockets, frames, bytes, timeouts.
///
/// A plain snapshot value like [`ShardStats`]; the live cells are
/// `dsketch_net_*` instruments in the server's registry.  `GET /stats`
/// serves both this and the shard totals in one JSON document, so wire
/// cost and dispatch cost can be read side by side.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections the listener accepted.
    pub connections_accepted: u64,
    /// Accepted connections dropped because the worker hand-off queue was
    /// full (backpressure at the front door).
    pub connections_refused: u64,
    /// Connections that reached end of service (clean close, error close,
    /// or timeout close).
    pub connections_closed: u64,
    /// Well-framed request frames read (binary protocol).
    pub frames_in: u64,
    /// Response frames written (binary protocol).
    pub frames_out: u64,
    /// HTTP requests parsed (the hand-rolled `GET /distance` + `GET /stats`
    /// endpoint).
    pub http_requests: u64,
    /// Bytes read from sockets (frame headers + payloads + HTTP requests).
    pub bytes_in: u64,
    /// Bytes written to sockets (frames + HTTP responses).
    pub bytes_out: u64,
    /// Connections closed because a read or write deadline expired (slow,
    /// stalled, or idle peers).
    pub timeouts: u64,
    /// Malformed inputs answered with a typed error (bad magic, bad
    /// version, oversized length prefix, undecodable payload, garbage
    /// HTTP request line).
    pub protocol_errors: u64,
    /// Connections shed at the front door because the accept hand-off
    /// queue was full, answered with a best-effort HTTP
    /// `503 Service Unavailable` + `Retry-After` before closing.  Every
    /// overload is also counted in `connections_refused`.
    pub overloads: u64,
}

impl NetStats {
    /// Rebuild the wire view from one registry snapshot (same consistency
    /// contract as [`ServeStats::from_metrics`]).
    pub(crate) fn from_metrics(snap: &MetricsSnapshot) -> NetStats {
        let read = |name: &str| snap.counter(name, "").unwrap_or(0);
        NetStats {
            connections_accepted: read("dsketch_net_connections_accepted_total"),
            connections_refused: read("dsketch_net_connections_refused_total"),
            connections_closed: read("dsketch_net_connections_closed_total"),
            frames_in: read("dsketch_net_frames_in_total"),
            frames_out: read("dsketch_net_frames_out_total"),
            http_requests: read("dsketch_net_http_requests_total"),
            bytes_in: read("dsketch_net_bytes_in_total"),
            bytes_out: read("dsketch_net_bytes_out_total"),
            timeouts: read("dsketch_net_timeouts_total"),
            protocol_errors: read("dsketch_net_protocol_errors_total"),
            overloads: read("dsketch_net_overload_total"),
        }
    }
}

impl std::fmt::Display for NetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} conns accepted ({} refused, {} closed), {} frames in / {} out, \
             {} http requests, {} B in / {} B out, {} timeouts, {} protocol errors, \
             {} overloads",
            self.connections_accepted,
            self.connections_refused,
            self.connections_closed,
            self.frames_in,
            self.frames_out,
            self.http_requests,
            self.bytes_in,
            self.bytes_out,
            self.timeouts,
            self.protocol_errors,
            self.overloads,
        )
    }
}

/// The live instrument handles behind [`NetStats`], written by the accept
/// loop and the connection workers.  Every handle is a registered
/// `dsketch_net_*` series; recording is relaxed-atomic and lock-free.
#[derive(Debug, Clone, Default)]
pub(crate) struct NetCounters {
    pub connections_accepted: Counter,
    pub connections_refused: Counter,
    pub connections_closed: Counter,
    pub frames_in: Counter,
    pub frames_out: Counter,
    pub http_requests: Counter,
    pub bytes_in: Counter,
    pub bytes_out: Counter,
    pub timeouts: Counter,
    pub protocol_errors: Counter,
    /// Connections shed with a best-effort `503` because the hand-off
    /// queue was full.
    pub overload: Counter,
    /// Full binary request→response round trip, read to flush.
    pub roundtrip: Histogram,
}

impl NetCounters {
    /// Register every wire instrument in `registry` and return the handles.
    pub(crate) fn register(registry: &MetricsRegistry) -> NetCounters {
        NetCounters {
            connections_accepted: registry.counter(
                "dsketch_net_connections_accepted_total",
                "Connections the listener accepted.",
            ),
            connections_refused: registry.counter(
                "dsketch_net_connections_refused_total",
                "Accepted connections dropped because the worker hand-off queue was full.",
            ),
            connections_closed: registry.counter(
                "dsketch_net_connections_closed_total",
                "Connections that reached end of service.",
            ),
            frames_in: registry.counter(
                "dsketch_net_frames_in_total",
                "Well-framed binary request frames read.",
            ),
            frames_out: registry.counter(
                "dsketch_net_frames_out_total",
                "Binary response frames written.",
            ),
            http_requests: registry
                .counter("dsketch_net_http_requests_total", "HTTP requests parsed."),
            bytes_in: registry.counter("dsketch_net_bytes_in_total", "Bytes read from sockets."),
            bytes_out: registry.counter("dsketch_net_bytes_out_total", "Bytes written to sockets."),
            timeouts: registry.counter(
                "dsketch_net_timeouts_total",
                "Connections closed because a read or write deadline expired.",
            ),
            protocol_errors: registry.counter(
                "dsketch_net_protocol_errors_total",
                "Malformed inputs answered with a typed error.",
            ),
            overload: registry.counter(
                "dsketch_net_overload_total",
                "HTTP connections answered 503 because the accept hand-off queue was full.",
            ),
            roundtrip: registry.histogram(
                "dsketch_net_roundtrip_nanos",
                "Binary request round trip: frame read to response flush.",
            ),
        }
    }
}

/// The live instrument handles one worker thread writes and
/// [`ServeStats::from_metrics`] reads back by name.  Every handle is a
/// registered `dsketch_serve_*` series labeled with the shard index.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardCounters {
    pub queries: Counter,
    pub cache_hits: Counter,
    pub cache_misses: Counter,
    pub cache_invalidations: Counter,
    pub errors: Counter,
    pub batches: Counter,
    /// Per-query service time; its sum and max are `busy_nanos` and
    /// `max_latency_nanos` in the snapshot view.
    latency: Histogram,
    /// Batches currently queued (sent but not yet drained by the worker).
    pub queue_entries: Gauge,
    /// Worker restarts performed by this shard's supervisor after a panic.
    pub restarts: Counter,
}

impl ShardCounters {
    /// Register this shard's instruments in `registry` and return the
    /// handles.
    pub(crate) fn register(registry: &MetricsRegistry, shard: usize) -> ShardCounters {
        let shard_label = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", &shard_label)];
        ShardCounters {
            queries: registry.counter_with(
                "dsketch_serve_queries_total",
                "Queries answered (including failed ones).",
                labels,
            ),
            cache_hits: registry.counter_with(
                "dsketch_serve_cache_hits_total",
                "Queries answered from the shard's LRU cache.",
                labels,
            ),
            cache_misses: registry.counter_with(
                "dsketch_serve_cache_misses_total",
                "Queries that had to consult the oracle.",
                labels,
            ),
            cache_invalidations: registry.counter_with(
                "dsketch_serve_cache_invalidations_total",
                "Cached entries discarded when the shard picked up a new generation.",
                labels,
            ),
            errors: registry.counter_with(
                "dsketch_serve_errors_total",
                "Queries that returned an error.",
                labels,
            ),
            batches: registry.counter_with(
                "dsketch_serve_batches_total",
                "Batches (channel messages) processed.",
                labels,
            ),
            latency: registry.histogram_with(
                "dsketch_serve_query_latency_nanos",
                "Per-query service time: cache lookup plus oracle estimate.",
                labels,
            ),
            queue_entries: registry.gauge_with(
                "dsketch_serve_queue_entries",
                "Batches currently queued for this shard.",
                labels,
            ),
            restarts: registry.counter_with(
                "dsketch_shard_restarts_total",
                "Worker restarts performed by the shard supervisor after a panic.",
                labels,
            ),
        }
    }

    pub(crate) fn record_latency(&self, nanos: u64) {
        self.latency.record(nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_and_maxes() {
        let mut a = ShardStats {
            queries: 10,
            cache_hits: 4,
            cache_misses: 6,
            cache_invalidations: 2,
            errors: 1,
            batches: 2,
            busy_nanos: 1000,
            max_latency_nanos: 400,
            restarts: 1,
        };
        let b = ShardStats {
            queries: 5,
            cache_hits: 5,
            cache_misses: 0,
            cache_invalidations: 1,
            errors: 0,
            batches: 1,
            busy_nanos: 200,
            max_latency_nanos: 900,
            restarts: 2,
        };
        a.absorb(&b);
        assert_eq!(a.queries, 15);
        assert_eq!(a.cache_hits, 9);
        assert_eq!(a.cache_misses, 6);
        assert_eq!(a.cache_invalidations, 3);
        assert_eq!(a.batches, 3);
        assert_eq!(a.max_latency_nanos, 900);
        assert_eq!(a.restarts, 3);
        assert!((a.hit_rate() - 0.6).abs() < 1e-9);
        assert!((a.avg_latency_nanos() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_safe() {
        let stats = ShardStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        assert_eq!(stats.avg_latency_nanos(), 0.0);
        let serve = ServeStats::default();
        assert_eq!(serve.num_shards(), 0);
        assert_eq!(serve.load_imbalance(), 1.0);
        assert!(serve.to_string().contains("0 queries"));
    }

    #[test]
    fn counters_snapshot_round_trips() {
        let registry = MetricsRegistry::new();
        let counters = ShardCounters::register(&registry, 0);
        counters.queries.add(3);
        counters.record_latency(50);
        counters.record_latency(10);
        let snap = &ServeStats::from_metrics(&registry.snapshot(), 1).per_shard[0];
        assert_eq!(snap.queries, 3);
        assert_eq!(snap.busy_nanos, 60);
        assert_eq!(snap.max_latency_nanos, 50);
    }

    #[test]
    fn serve_stats_rebuild_from_one_registry_snapshot() {
        let registry = MetricsRegistry::new();
        let shard0 = ShardCounters::register(&registry, 0);
        let shard1 = ShardCounters::register(&registry, 1);
        shard0.queries.add(4);
        shard0.cache_hits.add(1);
        shard0.cache_misses.add(3);
        shard0.batches.inc();
        shard0.record_latency(100);
        shard1.queries.add(2);
        shard1.cache_misses.add(2);
        shard1.cache_invalidations.inc();
        shard1.errors.inc();
        shard1.batches.inc();
        shard1.record_latency(900);
        let stats = ServeStats::from_metrics(&registry.snapshot(), 2);
        assert_eq!(stats.num_shards(), 2);
        assert_eq!(stats.per_shard[0].queries, 4);
        assert_eq!(stats.per_shard[1].errors, 1);
        assert_eq!(stats.per_shard[1].cache_invalidations, 1);
        assert_eq!(stats.totals.queries, 6);
        assert_eq!(stats.totals.cache_hits + stats.totals.cache_misses, 6);
        assert_eq!(stats.totals.cache_invalidations, 1);
        assert_eq!(stats.totals.busy_nanos, 1000);
        assert_eq!(stats.totals.max_latency_nanos, 900);
        // No swap instruments registered: sensible defaults.
        assert_eq!(stats.generation, 1);
        assert_eq!(stats.swaps, 0);
    }

    #[test]
    fn net_counters_snapshot_exact_counts() {
        let registry = MetricsRegistry::new();
        let counters = NetCounters::register(&registry);
        counters.connections_accepted.add(3);
        counters.connections_refused.add(1);
        counters.connections_closed.add(2);
        counters.frames_in.add(10);
        counters.frames_out.add(11);
        counters.http_requests.add(4);
        counters.bytes_in.add(1200);
        counters.bytes_out.add(3400);
        counters.timeouts.add(5);
        counters.protocol_errors.add(6);
        counters.overload.add(7);
        let expected = NetStats {
            connections_accepted: 3,
            connections_refused: 1,
            connections_closed: 2,
            frames_in: 10,
            frames_out: 11,
            http_requests: 4,
            bytes_in: 1200,
            bytes_out: 3400,
            timeouts: 5,
            protocol_errors: 6,
            overloads: 7,
        };
        let stats = NetStats::from_metrics(&registry.snapshot());
        assert_eq!(stats, expected);
        let text = stats.to_string();
        assert!(text.contains("3 conns accepted"));
        assert!(text.contains("1 refused"));
        assert!(text.contains("1200 B in / 3400 B out"));
        assert!(text.contains("5 timeouts"));
        assert!(text.contains("6 protocol errors"));
        assert!(text.contains("7 overloads"));
    }

    #[test]
    fn display_reports_the_headline_numbers() {
        let stats = ServeStats {
            totals: ShardStats {
                queries: 100,
                cache_hits: 25,
                cache_misses: 75,
                cache_invalidations: 5,
                errors: 2,
                batches: 10,
                busy_nanos: 100_000,
                max_latency_nanos: 5_000,
                restarts: 0,
            },
            per_shard: vec![ShardStats::default(); 4],
            generation: 3,
            swaps: 2,
        };
        let text = stats.to_string();
        assert!(text.contains("100 queries over 4 shards"));
        assert!(text.contains("25.0% cache hits"));
        assert!(text.contains("2 errors"));
        assert!(text.contains("generation 3 (2 swaps)"));
    }
}
