//! End-to-end loopback tests for the network front end: wire answers must
//! be identical to direct oracle calls for every scheme family and every
//! access path (single frames, batch frames, HTTP), graceful shutdown must
//! drain in-flight queries and refuse late connects, slow clients must hit
//! the read deadline without pinning a pool worker, the wire counters must
//! account every frame exactly, and the blocking accept loop must hand a
//! fresh connection over at once and still wake up for shutdown.

use dsketch::prelude::*;
use dsketch_serve::{
    net::{WireError, WireErrorCode},
    NetClient, NetConfig, NetServer, ServeConfig,
};
use netgraph::generators::{erdos_renyi, GeneratorConfig};
use netgraph::{Distance, NodeId};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn build_oracle(spec: SchemeSpec, n: usize) -> Arc<dyn DistanceOracle> {
    let graph = erdos_renyi(n, 0.15, GeneratorConfig::uniform(7, 1, 20));
    let outcome = spec
        .build(&graph, &SchemeConfig::default().with_seed(11))
        .expect("construction");
    Arc::from(outcome.sketches)
}

/// A deterministic query stream, including out-of-range nodes so error
/// propagation is exercised alongside successful estimates.
fn query_stream(n: usize, count: usize, salt: u64) -> Vec<(NodeId, NodeId)> {
    (0..count as u64)
        .map(|i| {
            let a = (i.wrapping_mul(6364136223846793005).wrapping_add(salt) >> 16) as usize;
            let b = (i
                .wrapping_mul(2862933555777941757)
                .wrapping_add(salt ^ 0xabcd)
                >> 16) as usize;
            let u = if i % 97 == 0 { n + a % 5 } else { a % n };
            (NodeId::from_index(u), NodeId::from_index(b % n))
        })
        .collect()
}

/// A wire-side result must mirror the oracle-side result: equal distances,
/// or the matching error class.
fn assert_wire_matches(
    context: &str,
    wire: &Result<Distance, WireError>,
    direct: &Result<Distance, SketchError>,
) {
    match (wire, direct) {
        (Ok(w), Ok(d)) => assert_eq!(w, d, "{context}: wire answer must equal direct"),
        (Err(we), Err(se)) => {
            let expected = match se {
                SketchError::UnknownNode(_) => WireErrorCode::UnknownNode,
                SketchError::NoCommonLandmark { .. } => WireErrorCode::NoCommonLandmark,
                _ => WireErrorCode::Internal,
            };
            assert_eq!(
                we.code, expected,
                "{context}: error class must survive the wire"
            );
        }
        (w, d) => panic!("{context}: wire {w:?} disagrees with direct {d:?}"),
    }
}

/// The request head [`http_get`] sends, byte for byte.
fn http_request(path_and_query: &str) -> String {
    format!("GET {path_and_query} HTTP/1.1\r\nhost: t\r\n\r\n")
}

/// One raw HTTP GET on a throwaway connection (`Connection: close` is the
/// server's policy, so read-to-EOF yields the whole reply).
fn http_get(addr: &str, path_and_query: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("http connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
        .write_all(http_request(path_and_query).as_bytes())
        .expect("request");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("reply");
    reply
}

/// The acceptance criterion: for all four scheme families, concurrent
/// single-pair, batch, and HTTP clients all return exactly what direct
/// `estimate()` calls return — including errors.  A single query is the one
/// slot of a one-pair batch, errors included.
#[test]
fn wire_answers_match_direct_oracle_for_every_family() {
    for spec in SchemeSpec::all_families() {
        let n = 48;
        let oracle = build_oracle(spec, n);
        let server = NetServer::start(
            Arc::clone(&oracle),
            ServeConfig::default().with_cache_capacity(64),
            NetConfig::default().with_workers(4),
            "127.0.0.1:0",
        )
        .expect("server start");
        let addr = server.local_addr().to_string();

        std::thread::scope(|scope| {
            // Single queries, each the one slot of a one-pair batch.
            let single_addr = addr.clone();
            let single_oracle = Arc::clone(&oracle);
            scope.spawn(move || {
                let mut client =
                    NetClient::connect(&single_addr, Duration::from_secs(10)).expect("connect");
                for (u, v) in query_stream(n, 300, 1) {
                    let wire = client.query(u, v).expect("transport");
                    let batch = client.query_batch(&[(u, v)]).expect("transport");
                    assert_eq!(
                        batch,
                        std::slice::from_ref(&wire),
                        "{spec} ({u}, {v}): query is a batch of one"
                    );
                    assert_wire_matches(
                        &format!("{spec} single ({u}, {v})"),
                        &wire,
                        &single_oracle.estimate(u, v),
                    );
                }
            });

            // Batch frames, compared against the trait-level batch path.
            let batch_addr = addr.clone();
            let batch_oracle = Arc::clone(&oracle);
            scope.spawn(move || {
                let mut client =
                    NetClient::connect(&batch_addr, Duration::from_secs(10)).expect("connect");
                let pairs = query_stream(n, 300, 2);
                for chunk in pairs.chunks(32) {
                    let wire = client.query_batch(chunk).expect("transport");
                    let direct = batch_oracle.estimate_batch(chunk);
                    assert_eq!(wire.len(), direct.len(), "{spec}: order-preserving");
                    for ((w, d), &(u, v)) in wire.iter().zip(&direct).zip(chunk) {
                        assert_wire_matches(&format!("{spec} batch ({u}, {v})"), w, d);
                    }
                }
            });

            // HTTP, one connection per request (the server's policy).
            let http_addr = addr.clone();
            let http_oracle = Arc::clone(&oracle);
            scope.spawn(move || {
                for (u, v) in query_stream(n, 40, 3) {
                    let reply = http_get(&http_addr, &format!("/distance?u={}&v={}", u.0, v.0));
                    match http_oracle.estimate(u, v) {
                        Ok(d) => {
                            assert!(
                                reply.starts_with("HTTP/1.1 200"),
                                "{spec} http ({u}, {v}): {reply}"
                            );
                            assert!(
                                reply.contains(&format!("\"distance\":{d},\"scheme\"")),
                                "{spec} http ({u}, {v}): body must carry {d}: {reply}"
                            );
                        }
                        Err(SketchError::UnknownNode(_)) => {
                            assert!(reply.starts_with("HTTP/1.1 404"), "{spec}: {reply}");
                            assert!(reply.contains("\"error\":\"unknown-node\""), "{reply}");
                        }
                        Err(SketchError::NoCommonLandmark { .. }) => {
                            assert!(reply.starts_with("HTTP/1.1 422"), "{spec}: {reply}");
                            assert!(
                                reply.contains("\"error\":\"no-common-landmark\""),
                                "{reply}"
                            );
                        }
                        Err(_) => {
                            assert!(reply.starts_with("HTTP/1.1 500"), "{spec}: {reply}");
                        }
                    }
                }
            });
        });

        let stats = server.shutdown();
        assert_eq!(
            stats.net.protocol_errors, 0,
            "{spec}: well-formed traffic only: {stats}"
        );
        assert!(
            stats.serve.totals.queries >= (300 + 300 + 40) as u64,
            "{spec}: every wire query is counted: {stats}"
        );
    }
}

/// An oracle wrapper that answers slowly, so a query can reliably be
/// in flight when shutdown starts.
struct SlowOracle {
    inner: Arc<dyn DistanceOracle>,
    delay: Duration,
}

impl DistanceOracle for SlowOracle {
    fn estimate(&self, u: NodeId, v: NodeId) -> Result<Distance, SketchError> {
        std::thread::sleep(self.delay);
        self.inner.estimate(u, v)
    }
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    fn words(&self, u: NodeId) -> usize {
        self.inner.words(u)
    }
    fn scheme_name(&self) -> &'static str {
        self.inner.scheme_name()
    }
    fn stretch_bound(&self) -> Option<u64> {
        self.inner.stretch_bound()
    }
}

/// Graceful shutdown: a query already on the wire completes with the right
/// answer while the server drains, and connects after shutdown are refused.
#[test]
fn shutdown_drains_in_flight_queries_then_refuses_connects() {
    let n = 32;
    let inner = build_oracle(SchemeSpec::thorup_zwick(2), n);
    let expected = inner.estimate(NodeId(0), NodeId(1));
    let slow: Arc<dyn DistanceOracle> = Arc::new(SlowOracle {
        inner,
        delay: Duration::from_millis(400),
    });
    let server = NetServer::start(
        slow,
        ServeConfig::default(),
        NetConfig::default()
            .with_workers(2)
            .with_read_timeout(Duration::from_secs(5)),
        "127.0.0.1:0",
    )
    .expect("server start");
    let addr = server.local_addr().to_string();

    let in_flight = dsketch::parallel::spawn_named("in-flight", move || {
        let mut client = NetClient::connect(&addr, Duration::from_secs(10)).expect("connect");
        client.query(NodeId(0), NodeId(1)).expect("transport")
    });

    // Let the query land in a worker (loopback delivery is far faster than
    // the 400 ms the oracle then sleeps), then shut down underneath it.
    std::thread::sleep(Duration::from_millis(150));
    let late_addr = server.local_addr();
    let stats = server.shutdown();

    let answer = in_flight.join().expect("client thread");
    assert_wire_matches("drained query", &answer, &expected);
    assert!(
        stats.serve.totals.queries >= 1,
        "the drained query is counted: {stats}"
    );

    // The listener is gone: new connections are refused outright.
    match TcpStream::connect_timeout(&late_addr, Duration::from_millis(500)) {
        Err(_) => {}
        Ok(_) => panic!("connects after shutdown must be refused"),
    }
}

/// A client that dribbles bytes (or stops mid-frame) is cut off at the
/// read deadline — and with a single worker, a healthy client queued
/// behind it still gets served, proving the stall does not pin the pool.
#[test]
fn slow_clients_hit_the_deadline_without_pinning_the_worker() {
    let n = 32;
    let oracle = build_oracle(SchemeSpec::thorup_zwick(2), n);
    let server = NetServer::start(
        Arc::clone(&oracle),
        ServeConfig::default(),
        NetConfig::default()
            .with_workers(1)
            .with_read_timeout(Duration::from_millis(250)),
        "127.0.0.1:0",
    )
    .expect("server start");
    let addr = server.local_addr().to_string();

    // Round 1: a byte-at-a-time client slower than the deadline.
    let dribble_addr = addr.clone();
    let dribbler = dsketch::parallel::spawn_named("dribbler", move || {
        let mut stream = TcpStream::connect(&dribble_addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let frame = dsketch_serve::net::Request::QueryBatch {
            pairs: vec![(NodeId(0), NodeId(1))],
        }
        .to_frame();
        // Pass the protocol sniff immediately, then dribble one byte per
        // 60 ms — slower than the whole-frame deadline allows.
        stream.write_all(&frame[..4]).expect("magic");
        for &byte in &frame[4..] {
            if stream.write_all(&[byte]).is_err() {
                return; // cut off mid-dribble: the deadline fired
            }
            std::thread::sleep(Duration::from_millis(60));
        }
        // All bytes were buffered before the cut: the close shows up on read.
        let mut sink = [0u8; 64];
        loop {
            match stream.read(&mut sink) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
        }
    });

    // While the dribbler occupies the only worker, a healthy client queues
    // behind it and must still be answered shortly after the deadline cut.
    std::thread::sleep(Duration::from_millis(50));
    let started = Instant::now();
    let mut healthy = NetClient::connect(&addr, Duration::from_secs(10)).expect("connect");
    let wire = healthy
        .query(NodeId(2), NodeId(3))
        .expect("healthy transport");
    assert_eq!(
        wire.ok(),
        oracle.estimate(NodeId(2), NodeId(3)).ok(),
        "queued client gets the right answer"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "healthy client must not wait out the dribbler"
    );
    dribbler.join().expect("dribbler thread");
    drop(healthy);

    // Round 2: a client that sends a valid header plus a partial payload,
    // then goes silent with the socket open.
    let mut stalled = TcpStream::connect(&addr).expect("connect");
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let frame = dsketch_serve::net::Request::QueryBatch {
        pairs: vec![(NodeId(4), NodeId(5))],
    }
    .to_frame();
    stalled.write_all(&frame[..15]).expect("partial frame");
    let cut_started = Instant::now();
    let mut sink = [0u8; 64];
    loop {
        match stalled.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    let cut_after = cut_started.elapsed();
    assert!(
        cut_after < Duration::from_secs(5),
        "mid-frame stall must be cut at the deadline, not held: {cut_after:?}"
    );

    // ... and the worker is free again.
    let mut after = NetClient::connect(&addr, Duration::from_secs(10)).expect("connect");
    after.ping().expect("worker is free after the stall");
    drop(after);

    let stats = server.shutdown();
    assert!(
        stats.net.timeouts >= 2,
        "both slow connections count as timeouts: {stats}"
    );
}

/// Exact wire-level accounting across a known traffic sequence: every
/// frame, HTTP request, connection, and byte is counted.
#[test]
fn wire_counters_account_every_frame_exactly() {
    let n = 32;
    let oracle = build_oracle(SchemeSpec::thorup_zwick(2), n);
    let server = NetServer::start(
        Arc::clone(&oracle),
        ServeConfig::default(),
        NetConfig::default().with_workers(2),
        "127.0.0.1:0",
    )
    .expect("server start");
    let addr = server.local_addr().to_string();

    // Connection 1 (binary): ping + 2 single queries + one 3-pair batch =
    // 4 frames each way.
    let mut client = NetClient::connect(&addr, Duration::from_secs(10)).expect("connect");
    client.ping().expect("ping");
    assert!(client.query(NodeId(0), NodeId(1)).expect("q1").is_ok());
    assert!(client.query(NodeId(1), NodeId(2)).expect("q2").is_ok());
    let pairs = vec![
        (NodeId(2), NodeId(3)),
        (NodeId(3), NodeId(4)),
        (NodeId(4), NodeId(5)),
    ];
    let batch = client.query_batch(&pairs).expect("batch");
    assert_eq!(batch.len(), 3);
    drop(client);

    // Connections 2 and 3 (HTTP): one routed request each.
    let reply = http_get(&addr, "/distance?u=0&v=1");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    let reply = http_get(&addr, "/stats");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    assert!(reply.contains(&format!("\"num_nodes\":{n}")), "{reply}");

    let stats = server.shutdown();
    assert_eq!(stats.net.connections_accepted, 3, "{stats}");
    assert_eq!(stats.net.connections_closed, 3, "{stats}");
    assert_eq!(stats.net.connections_refused, 0, "{stats}");
    assert_eq!(stats.net.frames_in, 4, "{stats}");
    assert_eq!(stats.net.frames_out, 4, "{stats}");
    assert_eq!(stats.net.http_requests, 2, "{stats}");
    assert_eq!(stats.net.protocol_errors, 0, "{stats}");
    assert_eq!(stats.net.timeouts, 0, "{stats}");
    // Every byte sent: the four request frames (a single query is a
    // one-pair batch) and the two HTTP heads.
    use dsketch_serve::net::Request;
    let one = vec![(NodeId(0), NodeId(1))];
    let frames = [
        Request::Ping,
        Request::QueryBatch { pairs: one.clone() },
        Request::QueryBatch { pairs: one },
        Request::QueryBatch { pairs },
    ];
    let sent = frames.iter().map(|r| r.to_frame().len()).sum::<usize>()
        + http_request("/distance?u=0&v=1").len()
        + http_request("/stats").len();
    assert_eq!(stats.net.bytes_in, sent as u64, "{stats}");
    assert!(stats.net.bytes_out > 0, "{stats}");
    // Query side: 2 singles + 3 batch slots + 1 HTTP distance = 6 queries.
    assert_eq!(stats.serve.totals.queries, 6, "{stats}");
}

/// The accept loop blocks in `accept`, so a fresh connection is served as
/// soon as it arrives: a hundred connect + ping round trips, one after
/// another, take a few tens of milliseconds.  (The 5 ms poll this replaced
/// put every one of them to sleep: 480 ms or more for the hundred.)
#[test]
fn a_hundred_fresh_connections_are_served_without_a_poll_delay() {
    let oracle = build_oracle(SchemeSpec::thorup_zwick(2), 32);
    let server = NetServer::start(
        oracle,
        ServeConfig::default(),
        NetConfig::default(),
        "127.0.0.1:0",
    )
    .expect("server start");
    let addr = server.local_addr().to_string();
    let started = Instant::now();
    for _ in 0..100 {
        let mut client = NetClient::connect(&addr, Duration::from_secs(10)).expect("connect");
        client.ping().expect("ping");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "100 connect + ping took {elapsed:?}"
    );
    let stats = server.shutdown();
    assert_eq!(stats.net.connections_accepted, 100, "{stats}");
}

/// `shutdown` wakes the blocked accept loop itself (one connection to its
/// own address, dropped uncounted) and returns, however many connections
/// sit idle in the workers' hands at that moment.
#[test]
fn shutdown_returns_with_idle_connections_open() {
    const WORKERS: usize = 3;
    let oracle = build_oracle(SchemeSpec::thorup_zwick(2), 32);
    for idle in [0, 1, WORKERS] {
        let server = NetServer::start(
            Arc::clone(&oracle),
            ServeConfig::default(),
            NetConfig::default().with_workers(WORKERS),
            "127.0.0.1:0",
        )
        .expect("server start");
        let addr = server.local_addr().to_string();
        let mut held: Vec<NetClient> = (0..idle)
            .map(|_| NetClient::connect(&addr, Duration::from_secs(10)).expect("connect"))
            .collect();
        for client in &mut held {
            client.ping().expect("a worker holds this connection");
        }
        let started = Instant::now();
        let stats = server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "{idle} idle connections: shutdown took {:?}",
            started.elapsed()
        );
        assert_eq!(
            (stats.net.connections_accepted, stats.net.connections_closed),
            (idle as u64, idle as u64),
            "{idle} idle connections, and the wake-up is not one of them: {stats}"
        );
        drop(held);
    }
}
