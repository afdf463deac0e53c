//! `dsketch-serve` — a sharded, cached query-serving layer over any
//! [`DistanceOracle`].
//!
//! The paper's economics (Section 2.1) are: pay `O(k n^{1/k} S log n)`
//! CONGEST rounds *once* to build sketches, then answer every distance query
//! from two small labels with **no further communication**.  This crate is
//! the second half of that bargain turned into a serving system: it takes
//! any built oracle — every sketch family behind one trait — and serves
//! heavy concurrent query traffic from it.
//!
//! # Architecture
//!
//! * **Sharding** — [`SketchServer::start`] spawns `shards` worker threads.
//!   Each query pair `(u, v)` is routed to a fixed shard by a mixed hash, so
//!   work spreads across cores while every pair has one home shard.
//! * **Shared labels, private caches** — the oracle is immutable label data
//!   behind an `Arc` (the [`DistanceOracle`] trait requires `Send + Sync`),
//!   shared by all shards.  Each shard owns a fixed-capacity
//!   [`LruCache`](cache::LruCache) of recent results; deterministic routing
//!   means no entry is duplicated and no lock is taken on the hot path.
//! * **Bounded queues** — each shard's request channel holds at most
//!   `queue_depth` batches; when queries outpace the workers, clients block
//!   instead of buffering without limit (backpressure, not collapse).
//! * **Batching** — [`ServeClient::query_batch`] ships all pairs bound for
//!   one shard in a single channel message and reassembles answers in input
//!   order, amortizing the round-trip; [`ServeClient::query`] is the
//!   one-pair special case.
//! * **Counters** — [`SketchServer::stats`] snapshots per-shard and
//!   aggregate [`ServeStats`] (queries, cache hits/misses, errors, service
//!   latency) at any time, mirroring how the construction side reports
//!   `RunStats` per build.
//! * **Network front end** — [`net::NetServer`] binds a `TcpListener` over
//!   the same router and serves a length-prefixed binary protocol plus a
//!   minimal HTTP/1.1 endpoint on one port, with whole-frame read
//!   deadlines and a graceful drain on shutdown (see [`net`]).
//! * **Cold start from disk** — [`SketchServer::from_snapshot`] boots a
//!   server straight from a `dsketch-store` snapshot (`DSK1` file), so a
//!   restarted or standby server skips the CONGEST construction entirely
//!   and is serving as soon as the labels are read and checksummed.
//! * **Hot snapshot swap** — [`SketchServer::swap_snapshot`] replaces the
//!   serving oracle *while queries are in flight*: the new snapshot is
//!   deep-verified and published through a [`SwapCell`] (a version counter
//!   over a mutex-guarded `Arc`) as a new [`Generation`]; each shard sees
//!   the version move at its next batch boundary, reloads, and drops its
//!   cache there, and the retired oracle is dropped when its last reader
//!   lets go (see [`swap`]).
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
//! let outcome = SketchBuilder::thorup_zwick(2).seed(7).build(&graph).unwrap();
//! let oracle: Arc<dyn DistanceOracle> = Arc::from(outcome.sketches);
//!
//! let server = SketchServer::start(Arc::clone(&oracle), ServeConfig::default()).unwrap();
//! let client = server.client();
//!
//! // Single and batched queries agree with the oracle itself.
//! let direct = oracle.estimate(NodeId(0), NodeId(1)).unwrap();
//! assert_eq!(client.query(NodeId(0), NodeId(1)).unwrap(), direct);
//! let batch = client.query_batch(&[(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))]);
//! assert_eq!(*batch[0].as_ref().unwrap(), direct);
//!
//! drop(client); // drop clients before shutdown so the shards can exit
//! let stats = server.shutdown();
//! assert_eq!(stats.totals.queries, 3);
//! assert_eq!(stats.totals.cache_hits, 1); // the repeated (0, 1) pair
//! println!("{stats}");
//! ```
//!
//! The `dsketch-serve` binary (in `crates/bench`, which owns the workload
//! generators) wires this into an end-to-end traffic replay:
//!
//! ```text
//! cargo run --release -p dsketch-bench --bin dsketch-serve -- \
//!     --scheme tz:3 --nodes 512 --queries 100000 --shards 4
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod net;
mod server;
mod stats;
pub mod swap;

pub use net::{NetClient, NetConfig, NetServer, NetServerStats, NetStartError, ServeMeta};
pub use server::{ServeClient, ServeConfig, SketchServer};
pub use stats::{NetStats, ServeStats, ShardStats};
pub use swap::{Generation, SwapCell, SwapError};

// Re-exported so downstream code can name the trait and error type without
// an extra dsketch import.
pub use dsketch::{DistanceOracle, SketchError};
