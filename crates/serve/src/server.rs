//! The sharded query server: worker threads, bounded queues, shard routing.
//!
//! One [`SketchServer`] owns `shards` worker threads.  Every worker holds a
//! clone of one [`SwapCell`] handle publishing the current [`Generation`]
//! (the labels are immutable per generation, so sharing is free), its own
//! bounded request queue, and its own [`LruCache`] — routing is
//! deterministic per query pair, so each pair lives in exactly one shard's
//! cache and workers never take a lock on the hot path.
//!
//! ```text
//!                  ServeClient (one per caller thread)
//!                    │  shard_of(u, v) routes each pair
//!        ┌───────────┼───────────────┐
//!        ▼           ▼               ▼
//!   [queue 0]    [queue 1]  …   [queue S−1]     bounded sync channels
//!        │           │               │
//!   worker 0     worker 1       worker S−1      one thread per shard
//!   LRU cache    LRU cache      LRU cache       private, one generation each
//!        └───────────┴───────┬───────┘
//!                            ▼
//!           SwapCell<Generation> → Arc<dyn DistanceOracle>
//!               shared, read-only labels — hot-swappable
//! ```
//!
//! [`SketchServer::swap_snapshot`] publishes a new generation while the
//! workers keep answering: each worker probes the cell's version once per
//! batch (one atomic load) and reloads its `Arc<Generation>` only when a
//! swap landed.  A worker that reloads starts a fresh cache in the same
//! step, so a cache only ever holds answers of the generation its worker is
//! serving — no tag per entry, no stop-the-world flush across shards.
//!
//! Each worker runs under a per-shard supervisor thread
//! (`dsketch-serve-sup-{shard}`): a panicking worker is joined, counted in
//! `dsketch_shard_restarts_total`, and respawned with a fresh cache, while
//! the shard's queue (held alive by the supervisor) keeps its backlog.  The
//! batch that was in flight answers with
//! [`SketchError::ShardPanicked`] instead of tearing the caller down.

use crate::cache::LruCache;
use crate::stats::{ServeStats, ShardCounters};
use crate::swap::{Generation, SwapCell, SwapError};
use dsketch::{DistanceOracle, SchemeSpec, SketchError};
use dsketch_obs::{Counter, Gauge, MetricsRegistry, TraceEvent, Tracer};
use netgraph::{Distance, GraphFingerprint, NodeId};
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Sizing of a [`SketchServer`]: shard count, queue depth, cache capacity,
/// trace sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of worker shards (threads).  Must be ≥ 1.
    pub shards: usize,
    /// Bound of each shard's request queue, in batches.  Must be ≥ 1; a
    /// full queue applies backpressure to clients instead of buffering
    /// without limit.
    pub queue_depth: usize,
    /// Capacity of each shard's LRU result cache, in entries.  `0` disables
    /// caching (every query consults the oracle).
    pub cache_capacity: usize,
    /// Sample every N-th query into the server's [`Tracer`] (a structured
    /// JSON event per sampled query).  `0` disables tracing.
    pub trace_sample: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            queue_depth: 64,
            cache_capacity: 4096,
            trace_sample: 0,
        }
    }
}

impl ServeConfig {
    /// Replace the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Replace the per-shard queue depth.
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Replace the per-shard cache capacity (`0` disables caching).
    pub fn with_cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.cache_capacity = cache_capacity;
        self
    }

    /// Sample every `n`-th query into the server's tracer (`0` disables).
    pub fn with_trace_sample(mut self, n: u64) -> Self {
        self.trace_sample = n;
        self
    }

    fn validate(&self) -> Result<(), SketchError> {
        if self.shards == 0 {
            return Err(SketchError::InvalidParameters(
                "ServeConfig::shards must be >= 1".to_string(),
            ));
        }
        if self.queue_depth == 0 {
            return Err(SketchError::InvalidParameters(
                "ServeConfig::queue_depth must be >= 1".to_string(),
            ));
        }
        Ok(())
    }
}

/// One batch of work for one shard: the pairs to answer, each tagged with
/// its index in the client's original batch, and the channel to reply on.
/// The reply carries the generation number the shard answered under, so
/// callers can attribute every answer to the snapshot that produced it.
struct Job {
    pairs: Vec<(usize, NodeId, NodeId)>,
    reply: Sender<ShardReply>,
}

/// What a shard sends back for one [`Job`]: the generation number it
/// answered under, plus each pair's result tagged with its original index.
type ShardReply = (u64, Vec<(usize, Result<Distance, SketchError>)>);

/// Distance estimates are symmetric (`estimate(u, v) == estimate(v, u)` for
/// every oracle), so `(u, v)` and `(v, u)` are the same logical query: both
/// routing and result caching use the canonically ordered pair, which makes
/// the two orientations land on one shard and share one cache entry.  (The
/// oracle itself is still called with the original order, so error values —
/// which name the queried nodes — come back exactly as a direct call would
/// return them.)
fn canonical(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    if v < u {
        (v, u)
    } else {
        (u, v)
    }
}

/// The shard a pair is routed to: a SplitMix64 finalizer over the
/// [`canonical`] pair, reduced modulo the shard count.  Deterministic, so
/// repeated queries for the same pair (in either orientation) always land
/// on the same shard (and therefore the same cache), and well mixed, so hot
/// nodes still spread across shards by their partner node.
fn shard_of(u: NodeId, v: NodeId, shards: usize) -> usize {
    let (u, v) = canonical(u, v);
    let mut z = ((u.0 as u64) << 32 | v.0 as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

/// The supervisor loop for one shard: spawn the worker, join it, and on a
/// panic restart it with a fresh cache (counted in
/// `dsketch_shard_restarts_total`).  The supervisor's `Arc` keeps the shard's
/// `Receiver` alive across restarts, so queued batches survive a crash —
/// only the batch that was in flight when the worker died loses its reply
/// (the client observes the dropped reply sender and answers those pairs
/// with [`SketchError::ShardPanicked`]).  A worker that returns normally
/// means every sender is gone: orderly shutdown, and the supervisor exits.
fn supervise_shard(
    shard: usize,
    cell: Arc<SwapCell<Generation>>,
    rx: Arc<Mutex<Receiver<Job>>>,
    counters: ShardCounters,
    tracer: Arc<Tracer>,
    cache_capacity: usize,
) {
    loop {
        let worker_cell = Arc::clone(&cell);
        let worker_rx = Arc::clone(&rx);
        let worker_counters = counters.clone();
        let worker_tracer = Arc::clone(&tracer);
        let worker = dsketch::parallel::spawn_named(&format!("dsketch-serve-{shard}"), move || {
            run_worker(
                shard,
                worker_cell,
                worker_rx,
                worker_counters,
                worker_tracer,
                cache_capacity,
            )
        });
        match worker.join() {
            Ok(()) => break,
            Err(_panic) => {
                counters.restarts.inc();
            }
        }
    }
}

/// The worker loop: drain batches, answer each pair cache-first, reply.
///
/// Generation handling: the worker keeps one `Arc<Generation>` and probes
/// [`SwapCell::version`] once per batch — a single atomic load — reloading
/// only when a swap was published.  The cache belongs to that generation:
/// the reload replaces it with an empty one and adds the number of entries
/// dropped to `cache_invalidations`.  Lookups after that are plain misses,
/// so `hits + misses == queries` stays true across swaps.
///
/// The receiver arrives behind a mutex because the supervisor hands the
/// same channel to each worker incarnation; there is exactly one live
/// worker per shard, so the lock is uncontended.  It is taken only for the
/// blocking `recv` and released before the batch is processed, so a panic
/// mid-batch never poisons it (and a poisoned lock from a panic elsewhere
/// is recovered — the protected `Receiver` has no invariants to corrupt).
fn run_worker(
    shard: usize,
    cell: Arc<SwapCell<Generation>>,
    rx: Arc<Mutex<Receiver<Job>>>,
    counters: ShardCounters,
    tracer: Arc<Tracer>,
    cache_capacity: usize,
) {
    let mut cache: LruCache<(NodeId, NodeId), Distance> = LruCache::new(cache_capacity);
    let mut current = cell.load();
    loop {
        let job = {
            let guard = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            match guard.recv() {
                Ok(job) => job,
                Err(_) => break, // every sender gone: orderly shutdown
            }
        };
        counters.queue_entries.sub(1);
        counters.batches.inc();
        match dsketch_faults::fail_point!("serve.shard.dispatch") {
            None => {}
            Some(_fault) => {
                // An injected dispatch fault sheds the batch without a
                // reply: the client sees the dropped reply sender and
                // answers the affected pairs with `ShardPanicked`, the
                // same contract as a real worker crash.  (A `panic`
                // action never reaches this arm — it unwinds inside the
                // failpoint and exercises the supervisor for real.)
                drop(job);
                continue;
            }
        }
        if cell.version() != current.number {
            current = cell.load();
            counters.cache_invalidations.add(cache.len() as u64);
            cache = LruCache::new(cache_capacity);
        }
        let generation = current.number;
        let mut results = Vec::with_capacity(job.pairs.len());
        for &(index, u, v) in &job.pairs {
            let start = Instant::now();
            let key = canonical(u, v);
            let (result, cache_hit) = match cache.get(&key).copied() {
                Some(distance) => {
                    counters.cache_hits.inc();
                    (Ok(distance), true)
                }
                None => {
                    counters.cache_misses.inc();
                    let result = current.oracle.estimate(u, v);
                    if let Ok(distance) = result {
                        cache.insert(key, distance);
                    }
                    (result, false)
                }
            };
            let nanos = start.elapsed().as_nanos() as u64;
            counters.record_latency(nanos);
            counters.queries.inc();
            if result.is_err() {
                counters.errors.inc();
            }
            if tracer.sample() {
                tracer.emit(
                    TraceEvent::new("query")
                        .num("shard", shard as u64)
                        .num("generation", generation)
                        .num("u", u64::from(u.0))
                        .num("v", u64::from(v.0))
                        .text("cache", if cache_hit { "hit" } else { "miss" })
                        .num("nanos", nanos)
                        .flag("ok", result.is_ok()),
                );
            }
            results.push((index, result));
        }
        // A client that has gone away is not an error; drop the reply.
        let _ = job.reply.send((generation, results));
    }
}

/// A sharded, cached query server over any [`DistanceOracle`].
///
/// Start one with [`SketchServer::start`], hand each querying thread a
/// [`ServeClient`] from [`SketchServer::client`], and read counters at any
/// time with [`SketchServer::stats`].  Dropping the server (or calling
/// [`SketchServer::shutdown`]) closes the queues and joins the workers;
/// outstanding clients keep their shards alive until they are dropped too,
/// so drop clients first.
pub struct SketchServer {
    cell: Arc<SwapCell<Generation>>,
    /// Serializes swap publication so generation numbers and cell versions
    /// advance in lock step.  Never touched by the query path.
    swap_lock: Mutex<()>,
    senders: Vec<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    counters: Vec<ShardCounters>,
    registry: Arc<MetricsRegistry>,
    tracer: Arc<Tracer>,
    config: ServeConfig,
    generation_gauge: Gauge,
    swaps: Counter,
}

impl SketchServer {
    /// Spawn the worker shards over `oracle`, with a fresh per-server
    /// [`MetricsRegistry`] and a tracer honoring
    /// [`ServeConfig::trace_sample`].
    ///
    /// Fails with [`SketchError::InvalidParameters`] when the config asks
    /// for zero shards or a zero queue depth.
    pub fn start(
        oracle: Arc<dyn DistanceOracle>,
        config: ServeConfig,
    ) -> Result<SketchServer, SketchError> {
        let tracer = Arc::new(Tracer::one_in(config.trace_sample));
        SketchServer::start_with_obs(oracle, config, Arc::new(MetricsRegistry::new()), tracer)
    }

    /// [`SketchServer::start`] with caller-supplied observability: the
    /// shard instruments register in `registry` (so a front end can expose
    /// them next to its own wire instruments) and sampled query events go
    /// to `tracer`.
    pub fn start_with_obs(
        oracle: Arc<dyn DistanceOracle>,
        config: ServeConfig,
        registry: Arc<MetricsRegistry>,
        tracer: Arc<Tracer>,
    ) -> Result<SketchServer, SketchError> {
        SketchServer::start_with_origin(oracle, config, registry, tracer, None)
    }

    /// [`SketchServer::start_with_obs`] with the oracle's provenance
    /// attached: when `origin` names the scheme and graph fingerprint the
    /// oracle was built from (known whenever it came from a `DSK1`
    /// snapshot), [`SketchServer::swap_snapshot`] can refuse incompatible
    /// replacements with a typed error instead of serving wrong answers.
    pub fn start_with_origin(
        oracle: Arc<dyn DistanceOracle>,
        config: ServeConfig,
        registry: Arc<MetricsRegistry>,
        tracer: Arc<Tracer>,
        origin: Option<(SchemeSpec, GraphFingerprint)>,
    ) -> Result<SketchServer, SketchError> {
        config.validate()?;
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
            // dsketch-lint: allow(metric-name-style): the generation gauge is a version number — unitless by design
            "dsketch_serve_generation",
            "Snapshot generation currently serving (1 = startup oracle).",
        );
        generation_gauge.set(1);
        let swaps = registry.counter(
            "dsketch_swap_total",
            "Snapshot swaps published since startup.",
        );
        let mut senders = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        let mut counters = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth);
            let rx = Arc::new(Mutex::new(rx));
            let shard_counters = ShardCounters::register(&registry, shard);
            let worker_cell = Arc::clone(&cell);
            let worker_counters = shard_counters.clone();
            let worker_tracer = Arc::clone(&tracer);
            let cache_capacity = config.cache_capacity;
            workers.push(dsketch::parallel::spawn_named(
                &format!("dsketch-serve-sup-{shard}"),
                move || {
                    supervise_shard(
                        shard,
                        worker_cell,
                        rx,
                        worker_counters,
                        worker_tracer,
                        cache_capacity,
                    )
                },
            ));
            senders.push(tx);
            counters.push(shard_counters);
        }
        Ok(SketchServer {
            cell,
            swap_lock: Mutex::new(()),
            senders,
            workers,
            counters,
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
    /// per-node `Sketch` is ever constructed — and spawn the shards
    /// over it.
    ///
    /// This is the warm-standby / instant-restart path: the expensive
    /// CONGEST construction was paid by whoever wrote the snapshot
    /// (`dsketch-store build` or [`dsketch_store::build_and_save`]), and a
    /// restarted server is back to serving in the time it takes to read
    /// and checksum the file.
    ///
    /// Corrupted, truncated, or version-incompatible snapshots fail with
    /// the typed [`StoreError`](dsketch_store::StoreError); an invalid
    /// `config` fails with [`StoreError::Sketch`](dsketch_store::StoreError::Sketch).
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
    /// each shard picks it up at its next batch boundary and drops its
    /// cache there, and the retired oracle is dropped when its last
    /// in-flight reader finishes.
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
        // dsketch-lint: allow(no-unwrap-in-hot-path): a poisoned swap lock means a swapper panicked — propagate
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

    /// Number of worker shards.
    pub fn num_shards(&self) -> usize {
        self.counters.len()
    }

    /// A handle for submitting queries.  Clients are cheap (one channel
    /// sender per shard), `Send`, and independent: give each querying thread
    /// its own.
    pub fn client(&self) -> ServeClient {
        ServeClient {
            senders: self.senders.clone(),
            queue_entries: self
                .counters
                .iter()
                .map(|c| c.queue_entries.clone())
                .collect(),
        }
    }

    /// Snapshot the per-shard and aggregate counters (one registry
    /// snapshot, the same view `GET /stats` serves).
    pub fn stats(&self) -> ServeStats {
        ServeStats::from_metrics(&self.registry.snapshot(), self.num_shards())
    }

    /// Close the queues, join all workers, and return the final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.join_workers();
        self.stats()
    }

    fn join_workers(&mut self) {
        self.senders.clear(); // workers exit when every sender is gone
        for supervisor in self.workers.drain(..) {
            // dsketch-lint: allow(no-unwrap-in-hot-path): supervisors absorb worker panics; a supervisor panic is a server bug — propagate
            supervisor.join().expect("shard supervisor panicked");
        }
    }
}

impl Drop for SketchServer {
    fn drop(&mut self) {
        self.join_workers();
    }
}

/// A client handle: routes queries to shards and waits for the answers.
///
/// Obtained from [`SketchServer::client`].  A client is `Send` but not
/// `Sync`; clone one per thread instead of sharing one behind a reference.
#[derive(Clone)]
pub struct ServeClient {
    senders: Vec<SyncSender<Job>>,
    /// Per-shard queue-depth gauges: incremented on send, decremented by
    /// the worker when it drains the batch.
    queue_entries: Vec<Gauge>,
}

impl ServeClient {
    /// Answer one query through its shard.
    ///
    /// Equivalent to a one-element [`ServeClient::query_batch`]; the result
    /// is exactly what [`DistanceOracle::estimate`] returns for `(u, v)`.
    pub fn query(&self, u: NodeId, v: NodeId) -> Result<Distance, SketchError> {
        self.query_tagged(u, v).0
    }

    /// [`ServeClient::query`] plus the generation number the answering
    /// shard was serving — during a hot swap this attributes the answer to
    /// the exact snapshot that produced it.
    pub fn query_tagged(&self, u: NodeId, v: NodeId) -> (Result<Distance, SketchError>, u64) {
        self.query_batch_tagged(&[(u, v)])
            .pop()
            // dsketch-lint: allow(no-unwrap-in-hot-path): a one-pair batch returns exactly one result by construction
            .expect("one result")
    }

    /// Answer a batch of queries, fanning out to every shard involved and
    /// reassembling the answers in input order.
    ///
    /// Batching amortizes the channel round-trip: all pairs for one shard
    /// travel in one message, and different shards answer concurrently.
    pub fn query_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<Result<Distance, SketchError>> {
        self.query_batch_tagged(pairs)
            .into_iter()
            .map(|(result, _generation)| result)
            .collect()
    }

    /// [`ServeClient::query_batch`] with each answer tagged with the
    /// generation number that served it.  Mid-swap, a batch spanning
    /// several shards can legitimately mix tags: each shard picks up the
    /// new generation at its own batch boundary.
    pub fn query_batch_tagged(
        &self,
        pairs: &[(NodeId, NodeId)],
    ) -> Vec<(Result<Distance, SketchError>, u64)> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let shards = self.senders.len();
        let mut per_shard: Vec<Vec<(usize, NodeId, NodeId)>> = vec![Vec::new(); shards];
        for (index, &(u, v)) in pairs.iter().enumerate() {
            per_shard[shard_of(u, v, shards)].push((index, u, v));
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        let mut jobs_sent = 0usize;
        for (shard, shard_pairs) in per_shard.into_iter().enumerate() {
            if shard_pairs.is_empty() {
                continue;
            }
            self.queue_entries[shard].add(1);
            self.senders[shard]
                .send(Job {
                    pairs: shard_pairs,
                    reply: reply_tx.clone(),
                })
                // dsketch-lint: allow(no-unwrap-in-hot-path): a closed queue means the shard thread died mid-query — propagate its panic
                .expect("query shard terminated");
            jobs_sent += 1;
        }
        drop(reply_tx);
        let mut results: Vec<Option<(Result<Distance, SketchError>, u64)>> =
            vec![None; pairs.len()];
        for _ in 0..jobs_sent {
            let (generation, batch) = match reply_rx.recv() {
                Ok(reply) => reply,
                // Every reply sender is gone with answers still
                // outstanding: a shard panicked (or shed its batch) with
                // this batch in flight.  The supervisor restarts it; the
                // unanswered slots are filled with a typed error below so
                // the caller can retry instead of crashing with us.
                Err(_) => break,
            };
            for (index, result) in batch {
                results[index] = Some((result, generation));
            }
        }
        results
            .into_iter()
            .enumerate()
            .map(|(index, slot)| {
                slot.unwrap_or_else(|| {
                    let (u, v) = pairs[index];
                    (
                        Err(SketchError::ShardPanicked {
                            shard: shard_of(u, v, shards),
                        }),
                        0,
                    )
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsketch::{SchemeSpec, SketchBuilder};
    use netgraph::generators::{erdos_renyi, GeneratorConfig};

    fn oracle() -> Arc<dyn DistanceOracle> {
        let graph = erdos_renyi(40, 0.2, GeneratorConfig::uniform(3, 1, 9));
        let outcome = SketchBuilder::new(SchemeSpec::thorup_zwick(2))
            .seed(5)
            .build(&graph)
            .unwrap();
        Arc::from(outcome.sketches)
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for shards in [1, 2, 4, 7] {
            for u in 0..20u32 {
                for v in 0..20u32 {
                    let s = shard_of(NodeId(u), NodeId(v), shards);
                    assert!(s < shards);
                    assert_eq!(s, shard_of(NodeId(u), NodeId(v), shards));
                }
            }
        }
    }

    #[test]
    fn routing_spreads_pairs_across_shards() {
        let shards = 4;
        let mut per_shard = vec![0usize; shards];
        for u in 0..40u32 {
            for v in 0..40u32 {
                per_shard[shard_of(NodeId(u), NodeId(v), shards)] += 1;
            }
        }
        for &count in &per_shard {
            // 1600 pairs over 4 shards: each shard should be near 400.
            assert!((200..=600).contains(&count), "imbalanced: {per_shard:?}");
        }
    }

    #[test]
    fn symmetric_pairs_share_a_shard_and_a_cache_entry() {
        // Routing: both orientations of every pair land on the same shard.
        for shards in [1, 3, 4, 8] {
            for u in 0..25u32 {
                for v in 0..25u32 {
                    assert_eq!(
                        shard_of(NodeId(u), NodeId(v), shards),
                        shard_of(NodeId(v), NodeId(u), shards),
                        "({u}, {v}) and ({v}, {u}) must be cached on one shard"
                    );
                }
            }
        }

        // Caching: (u, v) then (v, u) is one miss then one hit, and the two
        // orientations answer identically.
        let oracle = oracle();
        let server = SketchServer::start(Arc::clone(&oracle), ServeConfig::default()).unwrap();
        let client = server.client();
        let forward = client.query(NodeId(2), NodeId(9)).unwrap();
        let reversed = client.query(NodeId(9), NodeId(2)).unwrap();
        assert_eq!(forward, reversed);
        let mid = server.stats();
        assert_eq!(mid.totals.cache_misses, 1, "first orientation misses");
        assert_eq!(mid.totals.cache_hits, 1, "reversed orientation hits");

        // A batch mixing both orientations of fresh pairs: exactly one miss
        // per unordered pair.
        let pairs: Vec<(NodeId, NodeId)> = (10..20u32)
            .flat_map(|u| [(NodeId(u), NodeId(u + 5)), (NodeId(u + 5), NodeId(u))])
            .collect();
        for result in client.query_batch(&pairs) {
            result.unwrap();
        }
        drop(client);
        let stats = server.shutdown();
        assert_eq!(stats.totals.queries, 22);
        assert_eq!(stats.totals.cache_misses, 11, "one miss per unordered pair");
        assert_eq!(stats.totals.cache_hits, 11);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let oracle = oracle();
        assert!(
            SketchServer::start(Arc::clone(&oracle), ServeConfig::default().with_shards(0))
                .is_err()
        );
        assert!(SketchServer::start(oracle, ServeConfig::default().with_queue_depth(0)).is_err());
    }

    #[test]
    fn server_answers_like_the_oracle_and_counts_queries() {
        let oracle = oracle();
        let server = SketchServer::start(Arc::clone(&oracle), ServeConfig::default()).unwrap();
        assert_eq!(server.num_shards(), 4);
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
        drop(client);
        let stats = server.shutdown();
        assert_eq!(stats.totals.queries, 101);
        assert_eq!(stats.totals.errors, 1);
        assert_eq!(
            stats.totals.cache_hits + stats.totals.cache_misses,
            stats.totals.queries
        );
        assert_eq!(stats.num_shards(), 4);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let server = SketchServer::start(oracle(), ServeConfig::default()).unwrap();
        let client = server.client();
        assert!(client.query_batch(&[]).is_empty());
        drop(client);
        assert_eq!(server.shutdown().totals.queries, 0);
    }

    #[test]
    fn sampled_tracing_emits_exactly_ceil_q_over_n_events() {
        let server = SketchServer::start(
            oracle(),
            ServeConfig::default().with_shards(1).with_trace_sample(8),
        )
        .unwrap();
        let client = server.client();
        for u in 0..20u32 {
            let _ = client.query(NodeId(u % 10), NodeId((u + 1) % 10));
        }
        drop(client);
        let events = server.tracer().recent(usize::MAX);
        assert_eq!(events.len(), 3, "20 queries at 1-in-8 sample 3 events");
        assert!(events.iter().all(|e| e.contains("\"event\":\"query\"")));
        assert!(events[0].contains("\"cache\":\"miss\""));
    }

    #[test]
    fn server_metrics_appear_in_the_registry() {
        let server = SketchServer::start(oracle(), ServeConfig::default()).unwrap();
        let client = server.client();
        for u in 0..10u32 {
            client.query(NodeId(u), NodeId(u + 1)).unwrap();
        }
        let snap = server.registry().snapshot();
        assert_eq!(snap.counter_sum("dsketch_serve_queries_total"), 10);
        assert_eq!(
            snap.histogram_total("dsketch_serve_query_latency_nanos")
                .count(),
            10,
            "one latency observation per query"
        );
        // All batches drained: the queue gauges read zero.
        for shard in 0..server.num_shards() {
            let labels = format!("shard=\"{shard}\"");
            assert_eq!(snap.gauge("dsketch_serve_queue_entries", &labels), Some(0));
        }
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
}
