//! The network front end: a TCP listener whose connection workers answer
//! queries where the bytes arrive.
//!
//! ```text
//!                 TcpListener (accept loop thread, blocking accept)
//!                      │ accepted sockets
//!                      ▼
//!            [bounded hand-off queue]      ← full ⇒ connection refused
//!        ┌───────────┬─┴─────────────┐
//!        ▼           ▼               ▼
//!    worker 0    worker 1   …   worker W−1     connection workers
//!    read 4 bytes: "NETQ" ⇒ binary frames, else ⇒ HTTP/1.1
//!    decode → ServeClient::query_batch on this thread → encode → write
//! ```
//!
//! `W + 1` threads in all.  Each worker owns one connection at a time and
//! speaks request–response: one frame in, one frame out, the kernel run in
//! between on the worker's own thread through its own [`ServeClient`] (and
//! so its own result cache).  The protocol sniff, every frame and the HTTP
//! request head are read through the connection's one buffered `Conn`
//! (`wire.rs`), so the four sniffed bytes stay buffered for the session
//! they select, and a frame costs one `read` and one `write`.
//! Backpressure is the hand-off queue, which bounds waiting connections,
//! and [`NetConfig::max_batch_pairs`], which bounds how much work one frame
//! may demand.
//!
//! # Timeouts and shutdown
//!
//! A single deadline ([`NetConfig::read_timeout`]) covers reading one
//! complete frame *and* doubles as the idle timeout: a connection that
//! sends nothing, dribbles bytes, or stops mid-frame is closed when the
//! deadline expires, so no peer can pin a worker.  Writes carry the same
//! deadline.
//!
//! [`NetServer::shutdown`] runs the graceful drain:
//!
//! ```text
//! running ──flag, wake──▶ draining ──join──▶ closed
//!   accept loop stops, listener closes   (late connects: ECONNREFUSED)
//!   idle connections close at once       (abort flag between frames)
//!   in-flight frames complete + answer   (drain, then close)
//!   final counters are read              (one registry snapshot each)
//! ```
//!
//! The accept loop blocks in `accept`, so raising the flag is followed by
//! one connect to the server's own address: the loop wakes, sees the flag,
//! drops that socket uncounted and exits.

use super::http;
use super::protocol::{NetError, Request, Response, WireError, WireErrorCode, REQUEST_MAGIC};
use super::wire::Conn;
use crate::server::{ServeClient, ServeConfig, SketchServer};
use crate::stats::{NetCounters, NetStats, ServeStats};
use dsketch::{DistanceOracle, SchemeSpec, SketchError};
use dsketch_obs::{MetricsRegistry, StdoutSink, Tracer};
use netgraph::GraphFingerprint;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizing and timeouts of the network front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Connection worker threads.  Each serves one connection at a time,
    /// so this is the concurrent-connection bound.  Must be ≥ 1.
    pub workers: usize,
    /// Accepted connections that may wait for a free worker.  A full
    /// queue refuses further connections instead of buffering without
    /// limit.
    pub pending_connections: usize,
    /// Deadline for reading one complete frame (or HTTP request head);
    /// also the idle timeout between frames and the write deadline.
    pub read_timeout: Duration,
    /// Largest number of pairs one batch frame may carry; larger batches
    /// are answered with a typed [`WireErrorCode::BatchTooLarge`] error.
    pub max_batch_pairs: usize,
    /// Mirror every sampled trace event to stdout as one JSON line (the
    /// `--log-json` flag).  Sampling itself is
    /// [`ServeConfig::trace_sample`].
    pub log_json: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: 4,
            pending_connections: 32,
            read_timeout: Duration::from_secs(5),
            max_batch_pairs: 1 << 16,
            log_json: false,
        }
    }
}

impl NetConfig {
    /// Replace the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Replace the pending-connection bound.
    pub fn with_pending_connections(mut self, pending: usize) -> Self {
        self.pending_connections = pending;
        self
    }

    /// Replace the read/idle/write deadline.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Replace the per-frame batch-size bound.
    pub fn with_max_batch_pairs(mut self, pairs: usize) -> Self {
        self.max_batch_pairs = pairs;
        self
    }

    /// Mirror sampled trace events to stdout as JSON lines.
    pub fn with_log_json(mut self, log_json: bool) -> Self {
        self.log_json = log_json;
        self
    }

    fn validate(&self) -> Result<(), SketchError> {
        if self.workers == 0 {
            return Err(SketchError::InvalidParameters(
                "NetConfig::workers must be >= 1".to_string(),
            ));
        }
        if self.read_timeout.is_zero() {
            return Err(SketchError::InvalidParameters(
                "NetConfig::read_timeout must be nonzero".to_string(),
            ));
        }
        if self.max_batch_pairs == 0 {
            return Err(SketchError::InvalidParameters(
                "NetConfig::max_batch_pairs must be >= 1".to_string(),
            ));
        }
        Ok(())
    }
}

/// Why [`NetServer::start`] failed.
#[derive(Debug)]
pub enum NetStartError {
    /// The serve or net configuration was invalid.
    Config(SketchError),
    /// Binding or configuring the TCP listener failed.
    Bind(std::io::Error),
}

impl std::fmt::Display for NetStartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetStartError::Config(e) => write!(f, "invalid configuration: {e}"),
            NetStartError::Bind(e) => write!(f, "binding the listener failed: {e}"),
        }
    }
}

impl std::error::Error for NetStartError {}

impl From<SketchError> for NetStartError {
    fn from(e: SketchError) -> Self {
        NetStartError::Config(e)
    }
}

/// Final counters returned by [`NetServer::shutdown`]: the query
/// accounting plus the wire-level accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetServerStats {
    /// Query counters (queries, cache, service latency).
    pub serve: ServeStats,
    /// Wire counters (connections, frames, bytes, timeouts).
    pub net: NetStats,
}

impl std::fmt::Display for NetServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}\nwire: {}", self.serve, self.net)
    }
}

/// Descriptive metadata about what a [`NetServer`] serves, reported by
/// `GET /stats`: the parsed [`SchemeSpec`](dsketch::SchemeSpec) string and
/// the graph fingerprint the sketches were built from.  Both default to
/// empty (reported as `""`) when the caller has nothing to say.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeMeta {
    /// The serving scheme spec, e.g. `"tz:3"` (empty when unknown).
    pub spec: String,
    /// The source graph fingerprint's display form (empty when unknown).
    pub fingerprint: String,
}

impl ServeMeta {
    /// Build from the two display strings.
    pub fn new(spec: impl Into<String>, fingerprint: impl Into<String>) -> ServeMeta {
        ServeMeta {
            spec: spec.into(),
            fingerprint: fingerprint.into(),
        }
    }
}

/// Everything a connection worker needs: its own query client (and so its
/// own result cache), the shared counters, the shutdown flag, and the
/// oracle metadata the stats document reports.
pub(super) struct WorkerCtx {
    pub(super) server: Arc<SketchServer>,
    pub(super) client: ServeClient,
    pub(super) counters: Arc<NetCounters>,
    shutdown: Arc<AtomicBool>,
    pub(super) config: NetConfig,
    meta: Arc<ServeMeta>,
    started_at: Instant,
}

/// The TCP front end over a [`SketchServer`].
///
/// Start one with [`NetServer::start`]; it serves the binary `NETQ`/`NETR`
/// protocol and the hand-rolled HTTP endpoint on one port (the first four
/// bytes of each connection select the protocol).  Stop it with
/// [`NetServer::shutdown`] for the graceful drain, or drop it for the same
/// sequence without the final counters.
pub struct NetServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    server: Arc<SketchServer>,
    config: NetConfig,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:7421"`, port `0` for ephemeral) and
    /// serve `oracle` through a fresh [`SketchServer`].
    pub fn start(
        oracle: Arc<dyn DistanceOracle>,
        serve_config: ServeConfig,
        net_config: NetConfig,
        addr: &str,
    ) -> Result<NetServer, NetStartError> {
        let meta = ServeMeta::default();
        NetServer::start_with_origin(oracle, serve_config, net_config, addr, meta, None)
    }

    /// [`NetServer::start`] plus the descriptive [`ServeMeta`] reported by
    /// `GET /stats` and the oracle's typed provenance (scheme + graph
    /// fingerprint), which arms the swap compatibility gates —
    /// [`SketchServer::swap_snapshot`] refuses a snapshot whose scheme
    /// differs from `origin`'s.
    pub fn start_with_origin(
        oracle: Arc<dyn DistanceOracle>,
        serve_config: ServeConfig,
        net_config: NetConfig,
        addr: &str,
        meta: ServeMeta,
        origin: Option<(SchemeSpec, GraphFingerprint)>,
    ) -> Result<NetServer, NetStartError> {
        net_config.validate()?;
        let registry = Arc::new(MetricsRegistry::new());
        let mut tracer = Tracer::one_in(serve_config.trace_sample);
        if net_config.log_json {
            tracer = tracer.with_sink(Arc::new(StdoutSink));
        }
        let counters = Arc::new(NetCounters::register(&registry));
        let server = Arc::new(SketchServer::start_with_origin(
            oracle,
            serve_config,
            registry,
            Arc::new(tracer),
            origin,
        )?);
        let listener = TcpListener::bind(addr).map_err(NetStartError::Bind)?;
        let local_addr = listener.local_addr().map_err(NetStartError::Bind)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let meta = Arc::new(meta);
        let started_at = Instant::now();
        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(net_config.pending_connections);
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let mut workers = Vec::with_capacity(net_config.workers);
        for worker in 0..net_config.workers {
            let ctx = WorkerCtx {
                server: Arc::clone(&server),
                client: server.client(),
                counters: Arc::clone(&counters),
                shutdown: Arc::clone(&shutdown),
                config: net_config,
                meta: Arc::clone(&meta),
                started_at,
            };
            let rx = Arc::clone(&conn_rx);
            workers.push(dsketch::parallel::spawn_named(
                &format!("dsketch-net-worker-{worker}"),
                move || run_conn_worker(rx, ctx),
            ));
        }

        let accept_shutdown = Arc::clone(&shutdown);
        let accept_counters = Arc::clone(&counters);
        let accept_thread = dsketch::parallel::spawn_named("dsketch-net-accept", move || {
            run_accept_loop(listener, conn_tx, accept_shutdown, accept_counters)
        });

        Ok(NetServer {
            addr: local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            workers,
            server,
            config: net_config,
        })
    }

    /// The bound socket address (with the real port when `0` was asked).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The network sizing the server was started with.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Snapshot the query counters.
    pub fn serve_stats(&self) -> ServeStats {
        self.server.stats()
    }

    /// Snapshot the wire-level counters.
    pub fn net_stats(&self) -> NetStats {
        NetStats::from_metrics(&self.server.registry().snapshot())
    }

    /// Gracefully drain and stop: refuse new connections, let in-flight
    /// frames complete and be answered, close every connection, and return
    /// the final counters.
    pub fn shutdown(mut self) -> NetServerStats {
        self.stop_net();
        NetServerStats {
            serve: self.serve_stats(),
            net: self.net_stats(),
        }
    }

    /// Raise the shutdown flag, wake the accept loop, and join it and the
    /// workers.
    fn stop_net(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(accept) = self.accept_thread.take() {
            // The loop is blocked in `accept`; one connection makes it look
            // at the flag.  A listener bound to the unspecified address is
            // reached through loopback.  If the connect fails the listener
            // is already gone, and so is the loop.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake.ip() {
                    IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                    IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                });
            }
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
            #[expect(
                clippy::expect_used,
                reason = "join propagates an accept-loop panic — there is no error to type"
            )]
            accept.join().expect("net accept loop panicked");
        }
        for worker in self.workers.drain(..) {
            #[expect(
                clippy::expect_used,
                reason = "join propagates a worker panic — there is no error to type"
            )]
            worker.join().expect("net connection worker panicked");
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_net();
    }
}

/// The accept loop: block in `accept`, handing sockets to the workers
/// through the bounded queue, until a connection arrives with the shutdown
/// flag up (the wake-up [`NetServer::stop_net`] sends, or a late client —
/// either is dropped uncounted).  Exiting drops the listener, so later
/// connects are refused at the TCP level.
fn run_accept_loop(
    listener: TcpListener,
    conn_tx: mpsc::SyncSender<TcpStream>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
) {
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::Relaxed) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                counters.connections_accepted.inc();
                // The failpoint forces the Full path so the overload
                // answer can be exercised without actually saturating the
                // hand-off queue.
                let handoff = if dsketch_faults::fail_point!("net.accept.handoff").is_some() {
                    Err(TrySendError::Full(stream))
                } else {
                    conn_tx.try_send(stream)
                };
                match handoff {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => {
                        counters.connections_refused.inc();
                        counters.overload.inc();
                        shed_overload(Conn::new(stream, &counters.bytes_in));
                    }
                    Err(TrySendError::Disconnected(stream)) => {
                        drop(stream);
                        break;
                    }
                }
            }
            Err(_) => {
                // Transient accept failure (e.g. EMFILE); back off briefly.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    // conn_tx drops here: workers drain what is queued, then exit.
}

/// Best-effort overload answer for a connection shed at the front door: a
/// complete HTTP `503` with a `Retry-After` hint, written with a short
/// deadline and ignored on failure.  HTTP clients get an actionable
/// response instead of a bare RST; binary clients fail their frame read
/// exactly as a plain drop would have made them.
fn shed_overload(mut conn: Conn) {
    const BODY: &str = "{\"error\":\"overloaded\",\"detail\":\"accept queue full; retry shortly\"}";
    let response = format!(
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nRetry-After: 1\r\nConnection: close\r\n\r\n{}",
        BODY.len(),
        BODY
    );
    let _ = conn.write_all(response.as_bytes(), Duration::from_millis(200));
}

/// One connection worker: take sockets from the shared queue until the
/// queue closes (accept loop gone) and it is drained.
fn run_conn_worker(rx: Arc<Mutex<Receiver<TcpStream>>>, ctx: WorkerCtx) {
    loop {
        let next = {
            let guard = match rx.lock() {
                Ok(guard) => guard,
                // A poisoned queue means another worker panicked; stop.
                Err(_) => break,
            };
            guard.recv()
        };
        match next {
            Ok(stream) => handle_connection(stream, &ctx),
            Err(_) => break,
        }
    }
}

/// Serve one connection to completion: sniff the protocol from the first
/// four bytes, then run the matching session loop.
fn handle_connection(stream: TcpStream, ctx: &WorkerCtx) {
    let mut conn = Conn::new(stream, &ctx.counters.bytes_in);
    let deadline = Instant::now() + ctx.config.read_timeout;
    match conn.sniff(deadline, &ctx.shutdown) {
        Ok(Some(prefix)) if prefix == REQUEST_MAGIC => binary_session(&mut conn, ctx),
        Ok(Some(_)) => http::http_session(&mut conn, ctx),
        // Closed before speaking, or shutdown raised while idle.
        Ok(None) => {}
        Err(NetError::Timeout) => ctx.counters.timeouts.inc(),
        // Closed after fewer than four bytes: a request cut short.
        Err(NetError::Truncated { .. }) => ctx.counters.protocol_errors.inc(),
        Err(_) => {}
    }
    ctx.counters.connections_closed.inc();
    let _ = conn.stream().shutdown(std::net::Shutdown::Both);
}

/// The binary request–response loop: one `NETQ` frame in, one `NETR`
/// frame out, until clean close, deadline, framing damage, or shutdown.
fn binary_session(conn: &mut Conn, ctx: &WorkerCtx) {
    loop {
        if ctx.shutdown.load(Ordering::Relaxed) {
            // Between frames: nothing in flight, close immediately.
            break;
        }
        let deadline = Instant::now() + ctx.config.read_timeout;
        match conn.read_frame(REQUEST_MAGIC, deadline, Some(&ctx.shutdown)) {
            Ok(None) => break,
            Ok(Some((header, payload))) => {
                let roundtrip = Instant::now();
                ctx.counters.frames_in.inc();
                let response = match Request::decode(header.kind, payload) {
                    Ok(request) => answer_request(request, ctx),
                    Err(e) => {
                        // The header (and so the framing) was fine — reply
                        // with a typed error and keep the connection.
                        ctx.counters.protocol_errors.inc();
                        Response::Error(WireError::new(WireErrorCode::BadFrame, e.to_string()))
                    }
                };
                if !write_response(conn, &response, ctx) {
                    break;
                }
                ctx.counters
                    .roundtrip
                    .record(roundtrip.elapsed().as_nanos() as u64);
            }
            Err(NetError::Timeout) => {
                ctx.counters.timeouts.inc();
                break;
            }
            Err(
                e @ (NetError::BadMagic { .. }
                | NetError::UnsupportedVersion { .. }
                | NetError::NonZeroReserved { .. }
                | NetError::FrameTooLarge { .. }),
            ) => {
                // Framing is poisoned: answer once with a typed error so
                // the peer learns why, then close.
                ctx.counters.protocol_errors.inc();
                let error = Response::Error(WireError::new(WireErrorCode::BadFrame, e.to_string()));
                write_response(conn, &error, ctx);
                break;
            }
            Err(NetError::Truncated { .. }) => {
                ctx.counters.protocol_errors.inc();
                break;
            }
            Err(_) => break,
        }
    }
}

/// Answer one decoded request on this worker's thread.
fn answer_request(request: Request, ctx: &WorkerCtx) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Query { u, v } => match ctx.client.query(u, v) {
            Ok(distance) => Response::Distance(distance),
            Err(e) => Response::Error(WireError::from_sketch(&e)),
        },
        Request::QueryBatch { pairs } => {
            if pairs.len() > ctx.config.max_batch_pairs {
                return Response::Error(WireError::new(
                    WireErrorCode::BatchTooLarge,
                    format!(
                        "batch of {} pairs exceeds the {}-pair bound",
                        pairs.len(),
                        ctx.config.max_batch_pairs
                    ),
                ));
            }
            Response::Batch(
                ctx.client
                    .query_batch(&pairs)
                    .into_iter()
                    .map(|r| r.map_err(|e| WireError::from_sketch(&e)))
                    .collect(),
            )
        }
        Request::Stats => Response::Stats(stats_json(ctx)),
        Request::Swap { path } => match ctx.server.swap_snapshot(&path) {
            Ok(generation) => Response::Swapped(generation),
            Err(e) => Response::Error(WireError::new(WireErrorCode::SwapRefused, e.to_string())),
        },
    }
}

/// Write one response frame; `false` means the connection is unusable.
fn write_response(conn: &mut Conn, response: &Response, ctx: &WorkerCtx) -> bool {
    let sent = send(conn, &response.to_frame(), ctx);
    if sent {
        ctx.counters.frames_out.inc();
    }
    sent
}

/// Write `bytes` under the connection deadline, charging `bytes_out` (or a
/// timeout); `false` means the connection is unusable.
pub(super) fn send(conn: &mut Conn, bytes: &[u8], ctx: &WorkerCtx) -> bool {
    match conn.write_all(bytes, ctx.config.read_timeout) {
        Ok(written) => {
            ctx.counters.bytes_out.add(written as u64);
            true
        }
        Err(NetError::Timeout) => {
            ctx.counters.timeouts.inc();
            false
        }
        Err(_) => false,
    }
}

/// The stats document served by `GET /stats` and the binary stats frame:
/// oracle metadata, query totals, and wire counters in one JSON
/// object (hand-rolled — every value is a number or a short JSON string).
///
/// Every number comes from **one** registry snapshot, so the `derived`
/// ratios are computed from exactly the values reported beside them —
/// under concurrent load the document can never claim, say, more cache
/// hits than queries.
pub(crate) fn stats_json(ctx: &WorkerCtx) -> String {
    let snap = ctx.server.registry().snapshot();
    let serve = ServeStats::from_metrics(&snap);
    let net = NetStats::from_metrics(&snap);
    // Oracle metadata comes from the *current* generation, so a hot swap
    // is reflected in the very next stats document.
    let generation = ctx.server.current_generation();
    let stretch = match generation.oracle.stretch_bound() {
        Some(bound) => bound.to_string(),
        None => "null".to_string(),
    };
    let spec = match generation.spec {
        Some(spec) => spec.to_string(),
        None => ctx.meta.spec.clone(),
    };
    let fingerprint = match generation.fingerprint {
        Some(fingerprint) => fingerprint.to_string(),
        None => ctx.meta.fingerprint.clone(),
    };
    let frames_per_connection = if net.connections_accepted == 0 {
        0.0
    } else {
        net.frames_in as f64 / net.connections_accepted as f64
    };
    format!(
        concat!(
            "{{\"scheme\":\"{}\",\"spec\":\"{}\",\"graph\":\"{}\",",
            "\"num_nodes\":{},\"stretch_bound\":{},\"uptime_seconds\":{:.3},",
            "\"generation\":{},\"swaps\":{},",
            "\"serve\":{{\"queries\":{},\"cache_hits\":{},\"cache_misses\":{},",
            "\"cache_invalidations\":{},",
            "\"errors\":{},\"batches\":{},\"busy_nanos\":{},\"max_latency_nanos\":{},",
            "\"panics\":{}}},",
            "\"net\":{{\"connections_accepted\":{},\"connections_refused\":{},",
            "\"connections_closed\":{},\"frames_in\":{},\"frames_out\":{},",
            "\"http_requests\":{},\"bytes_in\":{},\"bytes_out\":{},",
            "\"timeouts\":{},\"protocol_errors\":{},\"overloads\":{}}},",
            "\"derived\":{{\"hit_rate\":{:.6},\"frames_per_connection\":{:.3}}}}}"
        ),
        generation.oracle.scheme_name(),
        http::json_escape(&spec),
        http::json_escape(&fingerprint),
        generation.oracle.num_nodes(),
        stretch,
        ctx.started_at.elapsed().as_secs_f64(),
        serve.generation,
        serve.swaps,
        serve.totals.queries,
        serve.totals.cache_hits,
        serve.totals.cache_misses,
        serve.totals.cache_invalidations,
        serve.totals.errors,
        serve.totals.batches,
        serve.totals.busy_nanos,
        serve.totals.max_latency_nanos,
        serve.totals.panics,
        net.connections_accepted,
        net.connections_refused,
        net.connections_closed,
        net.frames_in,
        net.frames_out,
        net.http_requests,
        net.bytes_in,
        net.bytes_out,
        net.timeouts,
        net.protocol_errors,
        net.overloads,
        serve.totals.hit_rate(),
        frames_per_connection,
    )
}
