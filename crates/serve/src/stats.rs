//! Query-serving statistics, mirroring the construction-side accounting.
//!
//! Construction reports a [`dsketch::RunStats`] per build; serving reports
//! a [`ServeStats`] per server, so experiment tables can put build cost and
//! serve cost side by side.
//!
//! The live cells behind these snapshots are instruments in the server's
//! [`MetricsRegistry`]: the internal counter structs hold cheap
//! [`Counter`]/[`Histogram`] handles registered under the `dsketch_serve_*`
//! / `dsketch_net_*` families, and the public snapshot types here are
//! *views* of those instruments.  There is one path from instruments to
//! views: [`ServeStats::from_metrics`] / [`NetStats::from_metrics`] over one
//! registry snapshot, behind `SketchServer::stats`, `NetServer::net_stats`
//! and `GET /stats` alike, so every number in one view was read at one
//! moment.

use dsketch_obs::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};

/// Query counters of one server, summed over every `ServeClient` it handed
/// out.  A plain snapshot value, like `RunStats` on the build side.
///
/// A batch that panicked counts in `batches` and `panics` only, so
/// `cache_hits + cache_misses == queries` holds whatever is injected.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeTotals {
    /// Queries answered (including failed ones).
    pub queries: u64,
    /// Queries answered from the caller's LRU cache.
    pub cache_hits: u64,
    /// Queries that had to consult the oracle.
    pub cache_misses: u64,
    /// Entries discarded when a caller picked up a new generation: a batch
    /// that loads a generation other than the one the caller's cache was
    /// filled under drops the whole cache and adds its size here.  The
    /// lookups that follow are ordinary misses, so `cache_hits +
    /// cache_misses == queries` holds across swaps, and this counter says
    /// how much of a post-swap miss burst is the swap's doing rather than a
    /// cold-cache regression.
    pub cache_invalidations: u64,
    /// Queries that returned an error (unknown node, no common landmark).
    pub errors: u64,
    /// Non-empty batches submitted; `queries / batches` is the mean batch
    /// size.
    pub batches: u64,
    /// Total time spent answering, in nanoseconds (cache probes plus the
    /// oracle's `estimate_batch`, timed once per batch).
    pub busy_nanos: u64,
    /// Largest single-batch service time observed, in nanoseconds.
    pub max_latency_nanos: u64,
    /// Batches that panicked (or were shed by the `serve.dispatch`
    /// failpoint) and answered `ShardPanicked` for all their pairs.  The
    /// caller that ran one goes on with a cold cache.
    pub panics: u64,
}

impl ServeTotals {
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

/// A point-in-time snapshot of a server's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// The query counters.
    pub totals: ServeTotals,
    /// Snapshot generation serving when this snapshot was taken (1 = the
    /// startup oracle; each hot swap increments it).
    pub generation: u64,
    /// Hot snapshot swaps published since startup.
    pub swaps: u64,
}

impl ServeStats {
    /// Rebuild the view from one registry snapshot — every number comes
    /// from the same [`MetricsSnapshot`], so the derived ratios
    /// (`hit_rate`, queries-per-batch) are internally consistent no matter
    /// how hard the callers are writing concurrently.
    pub(crate) fn from_metrics(snap: &MetricsSnapshot) -> ServeStats {
        let read = |name: &str| snap.counter(name, "").unwrap_or(0);
        let latency = snap.histogram_total("dsketch_serve_batch_latency_nanos");
        ServeStats {
            totals: ServeTotals {
                queries: read("dsketch_serve_queries_total"),
                cache_hits: read("dsketch_serve_cache_hits_total"),
                cache_misses: read("dsketch_serve_cache_misses_total"),
                cache_invalidations: read("dsketch_serve_cache_invalidations_total"),
                errors: read("dsketch_serve_errors_total"),
                batches: read("dsketch_serve_batches_total"),
                busy_nanos: latency.sum,
                max_latency_nanos: latency.max,
                panics: read("dsketch_serve_panics_total"),
            },
            generation: snap
                .gauge("dsketch_serve_generation", "")
                .unwrap_or(1)
                .max(0) as u64,
            swaps: read("dsketch_swap_total"),
        }
    }
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} queries in {} batches: {:.1}% cache hits, {} errors, {} panics, \
             avg {:.2} µs/query, max {:.2} µs/batch, generation {} ({} swaps)",
            self.totals.queries,
            self.totals.batches,
            100.0 * self.totals.hit_rate(),
            self.totals.errors,
            self.totals.panics,
            self.totals.avg_latency_nanos() / 1_000.0,
            self.totals.max_latency_nanos as f64 / 1_000.0,
            self.generation,
            self.swaps,
        )
    }
}

/// Wire-level counters of the network front end ([`crate::net`]): what the
/// in-process [`ServeTotals`] cannot see because it begins at a decoded
/// batch — sockets, frames, bytes, timeouts.
///
/// A plain snapshot value like [`ServeTotals`]; the live cells are
/// `dsketch_net_*` instruments in the server's registry.  `GET /stats`
/// serves both in one JSON document, so wire cost and query cost can be
/// read side by side.
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
    /// Bytes read from sockets: every byte any read returned, whether it
    /// became a frame, an HTTP request head, or a sniff window or frame
    /// the peer cut short.
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

/// The live instrument handles every [`ServeClient`](crate::ServeClient)
/// of one server writes — once per batch — and [`ServeStats::from_metrics`]
/// reads back by name.
#[derive(Debug, Clone, Default)]
pub(crate) struct ServeCounters {
    pub queries: Counter,
    pub cache_hits: Counter,
    pub cache_misses: Counter,
    pub cache_invalidations: Counter,
    pub errors: Counter,
    pub batches: Counter,
    /// Service time of each batch; its sum and max are `busy_nanos` and
    /// `max_latency_nanos` in the snapshot view.
    pub latency: Histogram,
    pub panics: Counter,
}

impl ServeCounters {
    /// Register the query instruments in `registry` and return the handles.
    pub(crate) fn register(registry: &MetricsRegistry) -> ServeCounters {
        ServeCounters {
            queries: registry.counter(
                "dsketch_serve_queries_total",
                "Queries answered (including failed ones).",
            ),
            cache_hits: registry.counter(
                "dsketch_serve_cache_hits_total",
                "Queries answered from the caller's LRU cache.",
            ),
            cache_misses: registry.counter(
                "dsketch_serve_cache_misses_total",
                "Queries that had to consult the oracle.",
            ),
            cache_invalidations: registry.counter(
                "dsketch_serve_cache_invalidations_total",
                "Cached entries discarded when a caller picked up a new generation.",
            ),
            errors: registry.counter(
                "dsketch_serve_errors_total",
                "Queries that returned an error.",
            ),
            batches: registry.counter(
                "dsketch_serve_batches_total",
                "Non-empty batches submitted.",
            ),
            latency: registry.histogram(
                "dsketch_serve_batch_latency_nanos",
                "Service time of one batch: cache probes plus the oracle's estimate_batch.",
            ),
            panics: registry.counter(
                "dsketch_serve_panics_total",
                "Batches that panicked and answered ShardPanicked for all their pairs.",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_safe() {
        let totals = ServeTotals::default();
        assert_eq!(totals.hit_rate(), 0.0);
        assert_eq!(totals.avg_latency_nanos(), 0.0);
        assert!(ServeStats::default().to_string().contains("0 queries"));
    }

    #[test]
    fn counters_snapshot_round_trips() {
        let registry = MetricsRegistry::new();
        let counters = ServeCounters::register(&registry);
        counters.queries.add(3);
        counters.latency.record(50);
        counters.latency.record(10);
        let totals = ServeStats::from_metrics(&registry.snapshot()).totals;
        assert_eq!(totals.queries, 3);
        assert_eq!(totals.busy_nanos, 60);
        assert_eq!(totals.max_latency_nanos, 50);
    }

    #[test]
    fn serve_stats_rebuild_from_one_registry_snapshot() {
        let registry = MetricsRegistry::new();
        // Two callers of one server hold clones of the same handles.
        let first = ServeCounters::register(&registry);
        let second = first.clone();
        first.queries.add(4);
        first.cache_hits.add(1);
        first.cache_misses.add(3);
        first.batches.inc();
        first.latency.record(100);
        second.queries.add(2);
        second.cache_misses.add(2);
        second.cache_invalidations.inc();
        second.errors.inc();
        second.batches.inc();
        second.latency.record(900);
        second.panics.inc();
        let stats = ServeStats::from_metrics(&registry.snapshot());
        assert_eq!(stats.totals.queries, 6);
        assert_eq!(stats.totals.cache_hits + stats.totals.cache_misses, 6);
        assert_eq!(stats.totals.cache_invalidations, 1);
        assert_eq!(stats.totals.errors, 1);
        assert_eq!(stats.totals.batches, 2);
        assert_eq!(stats.totals.busy_nanos, 1000);
        assert_eq!(stats.totals.max_latency_nanos, 900);
        assert_eq!(stats.totals.panics, 1);
        assert!((stats.totals.hit_rate() - 1.0 / 6.0).abs() < 1e-9);
        assert!((stats.totals.avg_latency_nanos() - 1000.0 / 6.0).abs() < 1e-9);
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
            totals: ServeTotals {
                queries: 100,
                cache_hits: 25,
                cache_misses: 75,
                cache_invalidations: 5,
                errors: 2,
                batches: 10,
                busy_nanos: 100_000,
                max_latency_nanos: 5_000,
                panics: 1,
            },
            generation: 3,
            swaps: 2,
        };
        let text = stats.to_string();
        assert!(text.contains("100 queries in 10 batches"));
        assert!(text.contains("25.0% cache hits"));
        assert!(text.contains("2 errors, 1 panics"));
        assert!(text.contains("generation 3 (2 swaps)"));
    }
}
