//! `dsketch-obs` — the dependency-free observability core of the workspace.
//!
//! The paper's contribution is *efficiency*: sketch construction in
//! Õ(n^(1/2+1/2k) + D) rounds and constant-round queries.  Demonstrating
//! efficiency continuously — not just in one-shot experiment tables —
//! needs a telemetry spine, and this crate is it:
//!
//! * [`MetricsRegistry`] — named counters, gauges, and log₂-bucket latency
//!   histograms.  Recording is lock-free (plain relaxed atomics behind
//!   cheap `Clone` handles); reading is a one-pass [`MetricsRegistry::snapshot`]
//!   that loads each atomic once and computes its derived quantities
//!   (histogram counts, ratios) from the values it reports.  It is not a
//!   consistent cut: relations between counters hold exactly once writers
//!   are quiet.
//! * [`Histogram`] — fixed log₂ buckets over nanoseconds: bucket *i* holds
//!   values in `[2^i, 2^(i+1))`, recording is three `fetch_add`-class
//!   atomic operations, and the total count is *derived from the buckets*
//!   at snapshot time so count and buckets cannot tear.
//! * [`Tracer`] — deterministic 1-in-N sampling over a shared atomic
//!   counter (exactly ⌈Q/N⌉ of Q events are sampled), emitting structured
//!   JSON [`TraceEvent`]s to a built-in ring buffer, which the HTTP front
//!   end serves as `GET /trace`.  Their strings are written by
//!   [`JsonString`], the workspace's one JSON string escaper.
//! * [`prometheus::encode`] — the Prometheus text exposition format over
//!   one or more registry snapshots, served by the HTTP front end as
//!   `GET /metrics`.
//!
//! # Instrument naming
//!
//! Every instrument name is `snake_case`, starts with `dsketch_`, and ends
//! with a unit suffix (`_total`, `_nanos`, `_seconds`, `_bytes`, `_ratio`,
//! `_entries`, `_info`).  `tests/tests/obs_registry.rs` holds every
//! family a live server exports to it.
//!
//! # Registry scoping
//!
//! Process-wide facts (build phases, graph generation, snapshot I/O) go to
//! the [`global`] registry.  Per-server facts (shard counters, wire
//! counters) go to a per-server registry owned by that server, because one
//! process may run many servers (tests run dozens) and their exact counts
//! must not mix.  `GET /metrics` encodes both.
//!
//! ```
//! use dsketch_obs::{MetricsRegistry, prometheus};
//!
//! let registry = MetricsRegistry::new();
//! let queries = registry.counter("dsketch_serve_queries_total", "Queries answered.");
//! let latency = registry.histogram("dsketch_serve_query_latency_nanos", "Service time.");
//! queries.inc();
//! latency.record(1_500);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("dsketch_serve_queries_total", ""), Some(1));
//! let text = prometheus::encode(&[&snap]);
//! assert!(text.contains("dsketch_serve_queries_total 1"));
//! ```

// No panics on the served path; an exemption is `#[expect(.., reason)]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

mod histogram;
pub mod prometheus;
mod registry;
mod trace;

pub use histogram::{bucket_index, bucket_upper_bound, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{
    global, Counter, FamilySnapshot, Gauge, InstrumentKind, MetricsRegistry, MetricsSnapshot,
    SeriesSnapshot, SeriesValue,
};
pub use trace::{JsonString, TraceEvent, Tracer};
