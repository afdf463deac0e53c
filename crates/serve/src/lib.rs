//! `dsketch-serve` — a cached query-serving layer over any
//! [`DistanceOracle`], answering where the request arrives.
//!
//! The paper's economics (Section 2.1) are: pay `O(k n^{1/k} S log n)`
//! CONGEST rounds *once* to build sketches, then answer every distance query
//! from two small labels with **no further communication**.  This crate is
//! the second half of that bargain turned into a serving system: it takes
//! any built oracle — every sketch family behind one trait — and serves
//! heavy concurrent query traffic from it.  A built oracle is an immutable
//! `Send + Sync` value, so the serving layer adds no scheduler of its own:
//! whichever thread holds the request runs the kernel.
//!
//! # Architecture
//!
//! * **Inline answers** — [`SketchServer::start`] starts no thread.  A
//!   [`ServeClient`] `load`s the current [`Generation`] once per batch and
//!   answers on the calling thread: a cache probe per pair, one
//!   `estimate_batch` over the misses, one clock pair and one add per
//!   counter.  Concurrency is however many threads hold a client.
//! * **Shared labels, private caches** — the oracle is immutable label data
//!   behind an `Arc`, shared by every caller.  Each client owns a
//!   fixed-capacity [`LruCache`](cache::LruCache) of recent results, keyed
//!   on the canonically ordered pair (estimates are symmetric), so no lock
//!   is taken on the hot path.
//! * **Panic isolation** — a panic while answering is caught at the batch
//!   boundary: that batch answers `ShardPanicked` for every pair, the
//!   caller's cache is dropped, and the caller's thread keeps serving.
//! * **Counters** — [`SketchServer::stats`] snapshots [`ServeStats`]
//!   (queries, cache hits/misses, errors, service latency, panics) at any
//!   time, mirroring how the construction side reports `RunStats`.
//! * **Network front end** — [`net::NetServer`] binds a `TcpListener` whose
//!   connection workers each hold a client, and serves a length-prefixed
//!   binary protocol plus a minimal HTTP/1.1 endpoint on one port (see
//!   [`net`]).
//! * **Cold start from disk** — [`SketchServer::from_snapshot`] boots a
//!   server straight from a `dsketch-store` snapshot (`DSK1` file),
//!   skipping the CONGEST construction entirely.
//! * **Hot snapshot swap** — [`SketchServer::swap_snapshot`] deep-verifies a
//!   snapshot and publishes it through a [`SwapCell`] as a new
//!   [`Generation`] *while queries are in flight*: every batch that arrives
//!   afterwards serves it, a caller's cache is replaced by the first batch
//!   that finds it filled under another generation, and the retired oracle
//!   is freed when the batches in flight at the swap have returned (see
//!   [`swap`]).
//!
//! # Why there is a cache and no scheduler
//!
//! Per query, medians of ten alternated traced runs of the sharded design
//! this replaced (worker shards, bounded queues, reply channels) and of
//! this one, on the benchmark's two wire workloads (ARCHITECTURE.md has
//! the spread, CHANGES.md PR 17 every run):
//!
//! ```text
//!                      wire-tz-uniform      wire-degrading-zipf
//!                      sharded   inline     sharded   inline
//! budget.kernel_ns        209      204        9080     9431
//! budget.router_ns        820       19       -2075     -504
//! budget.cache_ns          63      107       -1824    -1519
//! budget.codec_ns          50       38          42       38
//! budget.socket_ns       1601     1198        1605     2530
//! client.qps             773k    2425k        209k     281k
//! ```
//!
//! The LRU is the one tier of the old design that a row defends: on
//! `wire-degrading-zipf` it hits 28 % of the time against a ~9 µs kernel
//! and saves 1.5 µs a query; on `wire-tz-uniform` it never hits and costs
//! 107 ns.  The benchmark has a workload on each side, so it stays, one per
//! client, with `cache_capacity: 0` as the off switch.
//!
//! # Example
//!
//! ```
//! use dsketch::prelude::*;
//! use dsketch_serve::{ServeConfig, SketchServer};
//! use netgraph::generators::{erdos_renyi, GeneratorConfig};
//! use netgraph::NodeId;
//! use std::sync::Arc;
//!
//! // Build any scheme (here Thorup–Zwick, k = 2), then serve it.
//! let graph = erdos_renyi(48, 0.15, GeneratorConfig::uniform(5, 1, 20));
//! let outcome = SchemeSpec::thorup_zwick(2)
//!     .build(&graph, &SchemeConfig::default().with_seed(7))
//!     .unwrap();
//! let oracle: Arc<dyn DistanceOracle> = Arc::from(outcome.sketches);
//!
//! let server = SketchServer::start(Arc::clone(&oracle), ServeConfig::default()).unwrap();
//! let client = server.client(); // one per querying thread
//!
//! // Single and batched queries agree with the oracle itself.
//! let direct = oracle.estimate(NodeId(0), NodeId(1)).unwrap();
//! assert_eq!(client.query(NodeId(0), NodeId(1)).unwrap(), direct);
//! let pairs = [(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))];
//! assert_eq!(client.query_batch(&pairs), oracle.estimate_batch(&pairs));
//!
//! let stats = server.stats();
//! assert_eq!(stats.totals.queries, 3);
//! assert_eq!(stats.totals.batches, 2);
//! assert_eq!(stats.totals.cache_hits, 1); // the repeated (0, 1) pair
//! println!("{stats}");
//! ```
//!
//! `dsketch-store serve` (in `crates/bench`, which owns the workload
//! generators) wires this into an end-to-end traffic replay over a
//! snapshot, or with `--listen` into a network service:
//!
//! ```text
//! cargo run --release -p dsketch-bench --bin dsketch-store -- \
//!     serve --snapshot g.dsk --queries 100000
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

pub mod cache;
pub mod net;
mod server;
mod stats;
pub mod swap;

pub use net::{NetClient, NetConfig, NetServer, NetServerStats, NetStartError, ServeMeta};
pub use server::{ServeClient, ServeConfig, SketchServer};
pub use stats::{NetStats, ServeStats, ServeTotals};
pub use swap::{Generation, SwapCell, SwapError};

// Re-exported so downstream code can name the trait and error type without
// an extra dsketch import.
pub use dsketch::{DistanceOracle, SketchError};
