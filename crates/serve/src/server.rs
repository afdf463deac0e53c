//! The in-process query path: every batch is answered on the thread that
//! asked.
//!
//! A [`SketchServer`] owns no thread and no queue.  It holds the
//! [`SwapCell`] that publishes the current [`Generation`] (immutable labels
//! behind an `Arc`, so any number of callers read them at once) and the
//! instruments; a [`ServeClient`] is a caller's handle on both, plus that
//! caller's own [`LruCache`].
//!
//! ```text
//!   ServeClient::query_batch(pairs)          on the caller's thread
//!     ├─ cell.load()                         one Arc<Generation> per batch,
//!     │                                      dropped when the batch returns
//!     ├─ catch_unwind ─────────────────┐
//!     │   cache probe per pair         │     canonical (min, max) key
//!     │   oracle.estimate_batch(misses)│     one kernel call per batch
//!     │   insert the Ok answers        │
//!     ├────────────────────────────────┘     a panic fails this batch only
//!     └─ one clock pair, one histogram sample, one add per counter
//! ```
//!
//! A batch serves the generation it loaded, whole.  The cache carries the
//! number of the generation it was filled under, and a batch that loaded a
//! different one replaces it before its first probe — no tag per entry.
//! Nothing is held between batches, so an idle caller never keeps a
//! retired oracle alive.

use crate::cache::LruCache;
use crate::stats::{ServeCounters, ServeStats};
use crate::swap::{Generation, SwapCell, SwapError};
use dsketch::{DistanceOracle, SchemeSpec, SketchError};
use dsketch_obs::{Counter, Gauge, MetricsRegistry, TraceEvent, Tracer};
use netgraph::{Distance, GraphFingerprint, NodeId};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sizing of a [`SketchServer`]: cache capacity and trace sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Ignored: there are no shards.  Kept because `benchmark/src/drive.rs`
    /// builds this struct as a four-field literal; ROADMAP 7(iv) deletes the
    /// field together with that literal.
    #[doc(hidden)]
    pub shards: usize,
    /// Ignored, like `shards`: there is no queue.
    #[doc(hidden)]
    pub queue_depth: usize,
    /// Capacity of each [`ServeClient`]'s LRU result cache, in entries.  `0`
    /// disables caching (every query consults the oracle).
    pub cache_capacity: usize,
    /// Sample every N-th query into the server's [`Tracer`] (a structured
    /// JSON event per sampled query).  `0` disables tracing.
    pub trace_sample: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 0,
            queue_depth: 0,
            cache_capacity: 4096,
            trace_sample: 0,
        }
    }
}

impl ServeConfig {
    /// Replace the per-client cache capacity (`0` disables caching).
    pub fn with_cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.cache_capacity = cache_capacity;
        self
    }

    /// Sample every `n`-th query into the server's tracer (`0` disables).
    pub fn with_trace_sample(mut self, n: u64) -> Self {
        self.trace_sample = n;
        self
    }
}

/// Distance estimates are symmetric (`estimate(u, v) == estimate(v, u)` for
/// every oracle), so `(u, v)` and `(v, u)` are the same logical query and
/// share one cache entry under the canonically ordered pair.  (The oracle
/// itself is still called with the original order, so error values — which
/// name the queried nodes — come back exactly as a direct call would return
/// them.)
fn canonical(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    if v < u {
        (v, u)
    } else {
        (u, v)
    }
}

/// One caller's result cache and the number of the generation whose
/// answers it holds.
struct ResultCache {
    generation: u64,
    lru: LruCache<(NodeId, NodeId), Distance>,
}

impl ResultCache {
    fn new(generation: u64, capacity: usize) -> ResultCache {
        ResultCache {
            generation,
            lru: LruCache::new(capacity),
        }
    }

    /// Start over, empty, for `generation`; returns how many entries went.
    fn reset(&mut self, generation: u64) -> u64 {
        let dropped = self.lru.len() as u64;
        *self = ResultCache::new(generation, self.lru.capacity());
        dropped
    }
}

/// A cached query server over any [`DistanceOracle`].
///
/// Start one with [`SketchServer::start`], hand each querying thread a
/// [`ServeClient`] from [`SketchServer::client`], and read counters at any
/// time with [`SketchServer::stats`].  The server runs no thread of its
/// own: queries are answered on the thread that calls the client, so
/// dropping the server and its clients in any order just releases the
/// labels.
pub struct SketchServer {
    cell: Arc<SwapCell<Generation>>,
    /// Serializes swap publication so generation numbers and cell versions
    /// advance in lock step.  Never touched by the query path.
    swap_lock: Mutex<()>,
    counters: ServeCounters,
    registry: Arc<MetricsRegistry>,
    tracer: Arc<Tracer>,
    config: ServeConfig,
    generation_gauge: Gauge,
    swaps: Counter,
}

impl SketchServer {
    /// Serve `oracle`, with a fresh per-server [`MetricsRegistry`] and a
    /// tracer honoring [`ServeConfig::trace_sample`].
    ///
    /// No configuration is invalid and nothing here fails; the `Result` is
    /// the signature existing callers already handle.
    pub fn start(
        oracle: Arc<dyn DistanceOracle>,
        config: ServeConfig,
    ) -> Result<SketchServer, SketchError> {
        let tracer = Arc::new(Tracer::one_in(config.trace_sample));
        SketchServer::start_with_origin(
            oracle,
            config,
            Arc::new(MetricsRegistry::new()),
            tracer,
            None,
        )
    }

    /// [`SketchServer::start`] with caller-supplied observability — the
    /// query instruments register in `registry` (so a front end can expose
    /// them next to its own wire instruments) and sampled query events go
    /// to `tracer` — and the oracle's provenance: when `origin` names the
    /// scheme and graph fingerprint the oracle was built from (known
    /// whenever it came from a `DSK1` snapshot),
    /// [`SketchServer::swap_snapshot`] can refuse incompatible replacements
    /// with a typed error instead of serving wrong answers.
    pub fn start_with_origin(
        oracle: Arc<dyn DistanceOracle>,
        config: ServeConfig,
        registry: Arc<MetricsRegistry>,
        tracer: Arc<Tracer>,
        origin: Option<(SchemeSpec, GraphFingerprint)>,
    ) -> Result<SketchServer, SketchError> {
        let (spec, fingerprint) = match origin {
            Some((spec, fingerprint)) => (Some(spec), Some(fingerprint)),
            None => (None, None),
        };
        let cell = Arc::new(SwapCell::new(Arc::new(Generation::initial(
            oracle,
            spec,
            fingerprint,
        ))));
        let generation_gauge = registry.gauge(
            "dsketch_serve_generation",
            "Snapshot generation currently serving (1 = startup oracle).",
        );
        generation_gauge.set(1);
        let swaps = registry.counter(
            "dsketch_swap_total",
            "Snapshot swaps published since startup.",
        );
        Ok(SketchServer {
            cell,
            swap_lock: Mutex::new(()),
            counters: ServeCounters::register(&registry),
            registry,
            tracer,
            config,
            generation_gauge,
            swaps,
        })
    }

    /// Cold-start a server from a `DSK1` sketch snapshot on disk, without
    /// running the builder at all: load the snapshot (CRC-verified),
    /// materialize the section bytes straight into the frozen
    /// [`FlatSketchSet`](dsketch::flat::FlatSketchSet) CSR layout — no
    /// per-node `Sketch` is ever constructed — and serve it.
    ///
    /// This is the warm-standby / instant-restart path: the expensive
    /// CONGEST construction was paid by whoever wrote the snapshot
    /// (`dsketch-store build` or [`dsketch_store::build_and_save`]), and a
    /// restarted server is back to serving in the time it takes to read
    /// and checksum the file.
    ///
    /// Corrupted, truncated, or version-incompatible snapshots fail with
    /// the typed [`StoreError`](dsketch_store::StoreError).
    /// A server started this way knows its origin (scheme + graph
    /// fingerprint from the snapshot header), so later
    /// [`SketchServer::swap_snapshot`] calls can refuse incompatible
    /// replacements.
    pub fn from_snapshot<P: AsRef<std::path::Path>>(
        path: P,
        config: ServeConfig,
    ) -> Result<SketchServer, dsketch_store::StoreError> {
        let raw = dsketch_store::SnapshotReader::open(path.as_ref())?.read()?;
        let origin = (raw.spec(), raw.fingerprint());
        let oracle: Arc<dyn DistanceOracle> = Arc::from(raw.frozen_oracle()?);
        let tracer = Arc::new(Tracer::one_in(config.trace_sample));
        Ok(SketchServer::start_with_origin(
            oracle,
            config,
            Arc::new(MetricsRegistry::new()),
            tracer,
            Some(origin),
        )?)
    }

    /// Hot-swap the serving oracle to the snapshot at `path`, without
    /// pausing queries.  Returns the new generation number.
    ///
    /// The snapshot is read once and must clear three gates before
    /// anything is published:
    ///
    /// 1. **Deep verification** — the full `DSK1` semantic verifier
    ///    ([`dsketch_analysis::verify_snapshot_bytes`]); corrupted or
    ///    contract-violating bytes fail with [`SwapError::Verify`].
    /// 2. **Scheme match** — when the live generation knows its
    ///    [`SchemeSpec`], a snapshot built with a different scheme fails
    ///    with [`SwapError::SchemeMismatch`] (clients reasoning about the
    ///    stretch bound must not have it change under them).
    /// 3. **Node-count match** — a snapshot whose graph fingerprint names
    ///    a different node count fails with
    ///    [`SwapError::NodeCountMismatch`] (the node-id universe clients
    ///    hold would silently shift).  Edge/weight drift at the same node
    ///    count is the legitimate graph-evolution case and is accepted.
    ///
    /// Every refusal leaves the live generation untouched — in-flight and
    /// follow-up queries keep answering from the old oracle.  On success
    /// the new [`Generation`] is published through the [`SwapCell`]:
    /// every batch that arrives afterwards loads it (and its caller drops
    /// the old cache there), and the retired oracle is freed when the last
    /// batch that was in flight at the swap returns.
    pub fn swap_snapshot<P: AsRef<std::path::Path>>(&self, path: P) -> Result<u64, SwapError> {
        let bytes = std::fs::read(path).map_err(|e| SwapError::Store(e.into()))?;
        dsketch_analysis::verify_snapshot_bytes(&bytes)?;
        let raw = dsketch_store::SnapshotReader::new(&bytes[..])
            .with_available(bytes.len() as u64)
            .read()?;
        let (spec, fingerprint) = (raw.spec(), raw.fingerprint());
        let oracle: Arc<dyn DistanceOracle> = Arc::from(raw.frozen_oracle()?);
        // Serialize publication: concurrent swappers validate against a
        // stable current generation and numbers advance without gaps.
        #[expect(
            clippy::expect_used,
            reason = "a poisoned swap lock means a swapper panicked — propagate"
        )]
        let _publish = self.swap_lock.lock().expect("swap lock poisoned");
        let current = self.cell.load();
        if let Some(current_spec) = current.spec {
            if current_spec != spec {
                return Err(SwapError::SchemeMismatch {
                    current: current_spec,
                    offered: spec,
                });
            }
        }
        if oracle.num_nodes() != current.oracle.num_nodes() {
            return Err(SwapError::NodeCountMismatch {
                current: current.oracle.num_nodes(),
                offered: oracle.num_nodes(),
            });
        }
        let next = Generation {
            number: current.number + 1,
            spec: Some(spec),
            fingerprint: Some(fingerprint),
            oracle,
        };
        let version = self.cell.store(Arc::new(next));
        debug_assert_eq!(version, current.number + 1);
        self.generation_gauge.set(version as i64);
        self.swaps.inc();
        Ok(version)
    }

    /// The generation currently serving (oracle + provenance): one
    /// `Arc` clone under the cell's lock.
    pub fn current_generation(&self) -> Arc<Generation> {
        self.cell.load()
    }

    /// The current generation number (1 = startup oracle).  A single
    /// atomic load — cheaper than [`SketchServer::current_generation`]
    /// when only the number is needed.
    pub fn generation(&self) -> u64 {
        self.cell.version()
    }

    /// The sizing the server was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The registry holding this server's `dsketch_serve_*` instruments.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The tracer receiving this server's sampled query events.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// A handle for submitting queries: a few `Arc` clones and an empty
    /// cache of its own.  Give each querying thread one and keep it for the
    /// thread's life.
    pub fn client(&self) -> ServeClient {
        ServeClient {
            cell: Arc::clone(&self.cell),
            counters: self.counters.clone(),
            tracer: Arc::clone(&self.tracer),
            cache: RefCell::new(ResultCache::new(
                self.cell.version(),
                self.config.cache_capacity,
            )),
        }
    }

    /// Snapshot the counters (one registry snapshot, the same view
    /// `GET /stats` serves).
    pub fn stats(&self) -> ServeStats {
        ServeStats::from_metrics(&self.registry.snapshot())
    }

    /// Consume the server and return the final counters.  There is nothing
    /// to stop or join.
    pub fn shutdown(self) -> ServeStats {
        self.stats()
    }
}

/// A caller's handle on a [`SketchServer`]: answers queries on the calling
/// thread, through a private result cache.
///
/// Obtained from [`SketchServer::client`].  A client is `Send` but not
/// `Sync`: one per thread.
pub struct ServeClient {
    cell: Arc<SwapCell<Generation>>,
    counters: ServeCounters,
    tracer: Arc<Tracer>,
    cache: RefCell<ResultCache>,
}

impl ServeClient {
    /// Answer one query.
    ///
    /// Equivalent to a one-element [`ServeClient::query_batch`]; the result
    /// is exactly what [`DistanceOracle::estimate`] returns for `(u, v)`.
    pub fn query(&self, u: NodeId, v: NodeId) -> Result<Distance, SketchError> {
        self.query_tagged(u, v).0
    }

    /// [`ServeClient::query`] plus the number of the generation that
    /// answered — during a hot swap this attributes the answer to the exact
    /// snapshot that produced it.
    pub fn query_tagged(&self, u: NodeId, v: NodeId) -> (Result<Distance, SketchError>, u64) {
        let (mut results, generation) = self.query_batch_tagged(&[(u, v)]);
        #[expect(
            clippy::expect_used,
            reason = "a one-pair batch returns exactly one result by construction"
        )]
        (results.pop().expect("one result"), generation)
    }

    /// Answer a batch of queries, one result per pair, in input order:
    /// exactly what [`DistanceOracle::estimate_batch`] returns for `pairs`
    /// on the generation serving when the batch arrived.
    pub fn query_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<Result<Distance, SketchError>> {
        self.query_batch_tagged(pairs).0
    }

    /// [`ServeClient::query_batch`] plus the number of the generation that
    /// answered it.  A batch is served by one generation, whole: the one
    /// current when the batch arrived, even if a swap lands while it runs.
    ///
    /// If answering panics, every pair of the batch gets
    /// [`SketchError::ShardPanicked`]; the caller's thread, and its later
    /// batches, are unaffected apart from a cold cache.
    pub fn query_batch_tagged(
        &self,
        pairs: &[(NodeId, NodeId)],
    ) -> (Vec<Result<Distance, SketchError>>, u64) {
        if pairs.is_empty() {
            return (Vec::new(), self.cell.version());
        }
        let generation = self.cell.load();
        self.counters.batches.inc();
        // AssertUnwindSafe: the one thing a panic can leave half-updated is
        // this client's cache, and the panic arm replaces it.
        let answered = catch_unwind(AssertUnwindSafe(|| self.answer(&generation, pairs)));
        let results = match answered {
            Ok(Some(results)) => results,
            Ok(None) | Err(_) => {
                self.counters.panics.inc();
                self.cache.borrow_mut().reset(generation.number);
                vec![Err(SketchError::ShardPanicked); pairs.len()]
            }
        };
        (results, generation.number)
    }

    /// Answer one non-empty batch under `generation` and account for it.
    /// `None` means the `serve.dispatch` failpoint shed the batch (its
    /// `panic` action unwinds instead, like a panic in the kernel would).
    fn answer(
        &self,
        generation: &Generation,
        pairs: &[(NodeId, NodeId)],
    ) -> Option<Vec<Result<Distance, SketchError>>> {
        if dsketch_faults::fail_point!("serve.dispatch").is_some() {
            return None;
        }
        let start = Instant::now();
        let mut cache = self.cache.borrow_mut();
        if cache.generation != generation.number {
            let dropped = cache.reset(generation.number);
            self.counters.cache_invalidations.add(dropped);
        }
        // Hits answer in place; misses keep a placeholder and go to the
        // kernel together, in their original orientation.
        let mut results = Vec::with_capacity(pairs.len());
        let mut missed = Vec::with_capacity(pairs.len());
        let mut missed_pairs = Vec::with_capacity(pairs.len());
        for (index, &(u, v)) in pairs.iter().enumerate() {
            match cache.lru.get(&canonical(u, v)) {
                Some(&distance) => results.push(Ok(distance)),
                None => {
                    results.push(Ok(0));
                    missed.push(index);
                    missed_pairs.push((u, v));
                }
            }
        }
        let mut errors = 0u64;
        let estimates = generation.oracle.estimate_batch(&missed_pairs);
        for ((&index, &(u, v)), estimate) in missed.iter().zip(&missed_pairs).zip(estimates) {
            match estimate {
                Ok(distance) => cache.lru.insert(canonical(u, v), distance),
                Err(_) => errors += 1,
            }
            results[index] = estimate;
        }
        drop(cache);
        let nanos = start.elapsed().as_nanos() as u64;

        let (queries, misses) = (pairs.len() as u64, missed.len() as u64);
        self.counters.queries.add(queries);
        self.counters.cache_hits.add(queries - misses);
        self.counters.cache_misses.add(misses);
        self.counters.errors.add(errors);
        self.counters.latency.record(nanos);
        if self.tracer.enabled() {
            for (index, &(u, v)) in pairs.iter().enumerate() {
                if self.tracer.sample() {
                    let hit = missed.binary_search(&index).is_err();
                    self.tracer.emit(
                        TraceEvent::new("query")
                            .num("generation", generation.number)
                            .num("u", u64::from(u.0))
                            .num("v", u64::from(v.0))
                            .text("cache", if hit { "hit" } else { "miss" })
                            .flag("ok", results[index].is_ok())
                            .num("batch_pairs", queries)
                            .num("batch_nanos", nanos),
                    );
                }
            }
        }
        Some(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsketch::{SchemeConfig, SchemeSpec};
    use netgraph::generators::{erdos_renyi, GeneratorConfig};

    fn oracle() -> Arc<dyn DistanceOracle> {
        let graph = erdos_renyi(40, 0.2, GeneratorConfig::uniform(3, 1, 9));
        let outcome = SchemeSpec::thorup_zwick(2)
            .build(&graph, &SchemeConfig::default().with_seed(5))
            .unwrap();
        Arc::from(outcome.sketches)
    }

    #[test]
    fn server_answers_like_the_oracle_and_counts_queries() {
        let oracle = oracle();
        let server = SketchServer::start(Arc::clone(&oracle), ServeConfig::default()).unwrap();
        let client = server.client();
        for u in 0..10u32 {
            for v in 0..10u32 {
                assert_eq!(
                    client.query(NodeId(u), NodeId(v)),
                    oracle.estimate(NodeId(u), NodeId(v))
                );
            }
        }
        // Unknown nodes come back as errors, not panics, and are counted.
        assert!(matches!(
            client.query(NodeId(999), NodeId(0)),
            Err(SketchError::UnknownNode(NodeId(999)))
        ));
        let stats = server.shutdown();
        assert_eq!(stats.totals.queries, 101);
        assert_eq!(stats.totals.batches, 101);
        assert_eq!(stats.totals.errors, 1);
        assert_eq!(
            stats.totals.cache_hits + stats.totals.cache_misses,
            stats.totals.queries
        );
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let server = SketchServer::start(oracle(), ServeConfig::default()).unwrap();
        let client = server.client();
        assert!(client.query_batch(&[]).is_empty());
        let stats = server.shutdown();
        assert_eq!((stats.totals.queries, stats.totals.batches), (0, 0));
    }

    #[test]
    fn sampled_tracing_emits_exactly_ceil_q_over_n_events() {
        let server =
            SketchServer::start(oracle(), ServeConfig::default().with_trace_sample(8)).unwrap();
        let client = server.client();
        for u in 0..12u32 {
            let _ = client.query(NodeId(u % 10), NodeId((u + 1) % 10));
        }
        // Sampling counts queries, not batches: an 8-pair batch brings the
        // total to 20, of which the 1st, 9th and 17th are sampled.
        let batch: Vec<_> = (0..8u32).map(|u| (NodeId(u), NodeId(u + 1))).collect();
        let _ = client.query_batch(&batch);
        let events = server.tracer().recent(usize::MAX);
        assert_eq!(events.len(), 3, "20 queries at 1-in-8 sample 3 events");
        assert!(events.iter().all(|e| e.contains("\"event\":\"query\"")));
        assert!(events[0].contains("\"cache\":\"miss\""));
        assert!(events[2].contains("\"batch_pairs\":8"), "{}", events[2]);
    }

    #[test]
    fn server_metrics_appear_in_the_registry() {
        let server = SketchServer::start(oracle(), ServeConfig::default()).unwrap();
        let client = server.client();
        for u in 0..10u32 {
            client.query(NodeId(u), NodeId(u + 1)).unwrap();
        }
        let pairs: Vec<_> = (0..10u32).map(|u| (NodeId(u), NodeId(u + 2))).collect();
        client.query_batch(&pairs);
        let snap = server.registry().snapshot();
        assert_eq!(snap.counter("dsketch_serve_queries_total", ""), Some(20));
        assert_eq!(
            snap.histogram_total("dsketch_serve_batch_latency_nanos")
                .count(),
            11,
            "one latency observation per batch"
        );
    }

    #[test]
    fn stats_can_be_read_while_running() {
        let server = SketchServer::start(oracle(), ServeConfig::default()).unwrap();
        let client = server.client();
        client.query(NodeId(0), NodeId(1)).unwrap();
        let mid = server.stats();
        assert_eq!(mid.totals.queries, 1);
        client.query(NodeId(0), NodeId(1)).unwrap();
        let later = server.stats();
        assert_eq!(later.totals.queries, 2);
        assert_eq!(later.totals.cache_hits, 1, "repeat query hits the cache");
    }

    #[test]
    fn each_client_has_its_own_cache() {
        let server = SketchServer::start(oracle(), ServeConfig::default()).unwrap();
        let (first, second) = (server.client(), server.client());
        first.query(NodeId(2), NodeId(9)).unwrap();
        second.query(NodeId(2), NodeId(9)).unwrap();
        first.query(NodeId(9), NodeId(2)).unwrap();
        let stats = server.stats();
        assert_eq!(stats.totals.cache_misses, 2, "one cold miss per client");
        assert_eq!(stats.totals.cache_hits, 1);
    }
}
