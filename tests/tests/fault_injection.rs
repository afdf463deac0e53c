//! Cross-crate fault-injection contracts: the serve stack degrades only
//! in availability, never in correctness.
//!
//! * A save that fails at **any** `store.save.*` failpoint leaves the old
//!   snapshot byte-identical and loadable, and no `*.tmp` litter.
//! * Property test: a staging file torn at any byte boundary is rejected
//!   by both the cold-start loader and the deep verifier — the filesystem
//!   only ever holds the old state or the new state, never a third.
//! * An injected dispatch panic fails exactly its own batch with the typed
//!   retryable `ShardPanicked` error (wire code 8, HTTP 503), is counted,
//!   and costs the calling thread — and its connection — only its cache;
//!   in process, for every scheme family.
//! * A snapshot read that fails mid-swap refuses the swap and leaves the
//!   live generation serving; the retry publishes.
//! * The watch loop backs off through failed rebuilds and failed saves
//!   inside its jittered window, litters nothing, and converges the first
//!   tick after the fault budget is spent.
//! * Dropped frame reads, broken frame writes and shed accepts cost a
//!   retrying client reconnects, never an answer.
//! * `connect_with_retry` rides out a listener that binds late and
//!   returns a typed error once its deadline is spent.
//! * A full accept hand-off queue answers plain HTTP `503` with
//!   `Retry-After` and counts one overload.
//! * `GET`/`POST /faults` arm, report, and disarm the process registry.
//!
//! Failpoints are process-global, so every test that arms (or must see a
//! disarmed registry) serializes on one lock and disarms on drop — a
//! failing assertion can never leak faults into a neighbouring test.  The
//! lock is held across everything that crosses a point some test arms
//! (every snapshot save and load, every connection to a `NetServer`), so
//! one test's traffic can neither spend nor suffer another's trips.

use dsketch::prelude::*;
use dsketch_serve::net::WireErrorCode;
use dsketch_serve::{NetClient, NetConfig, NetServer, ServeConfig, SketchServer, SwapError};
use dsketch_store::{
    build_and_save, build_stored, load_frozen_oracle, peek_snapshot_meta, save_snapshot,
    snapshot_tmp_path, WatchCore, WatchOutcome,
};
use netgraph::generators::{erdos_renyi, GeneratorConfig};
use netgraph::{Graph, NodeId};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Holds the process-wide fault lock for one test body; arms `spec` on
/// entry (see [`ArmedScope::arm`]) and disarms on drop, panicking or not.
struct ArmedScope {
    _guard: MutexGuard<'static, ()>,
}

impl ArmedScope {
    /// Serialize and arm `spec`.
    fn arm(spec: &str) -> ArmedScope {
        let scope = ArmedScope::bare();
        scope.rearm(spec);
        scope
    }

    /// Replace whatever is armed with `spec` (counters restart at zero),
    /// without letting go of the lock.
    fn rearm(&self, spec: &str) {
        dsketch_faults::arm_from_spec(spec).expect("valid fault spec");
    }

    /// Serialize with the registry disarmed (for tests that need to *see*
    /// a fault-free process, or that arm through the HTTP endpoint).
    fn bare() -> ArmedScope {
        let guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        dsketch_faults::disarm_all();
        ArmedScope { _guard: guard }
    }
}

impl Drop for ArmedScope {
    fn drop(&mut self) {
        dsketch_faults::disarm_all();
    }
}

fn graph(n: usize, seed: u64) -> Graph {
    erdos_renyi(n, 8.0 / n as f64, GeneratorConfig::uniform(seed, 1, 50))
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dsketch_fault_injection");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A deterministic sample of query pairs covering the whole id range.
fn sample_pairs(n: usize, count: u32) -> Vec<(NodeId, NodeId)> {
    (0..count)
        .map(|i| {
            (
                NodeId((i.wrapping_mul(2654435761)) % n as u32),
                NodeId((i.wrapping_mul(40503).wrapping_add(12345)) % n as u32),
            )
        })
        .collect()
}

/// Times the armed `point` has tripped.
fn trips(point: &str) -> u64 {
    dsketch_faults::registry().trips(point)
}

/// One raw HTTP request on a throwaway connection; the whole reply.
fn http(addr: &str, method: &str, target: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("http connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nhost: dsketch\r\nconnection: close\r\n\r\n"
    )
    .expect("http write");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("http read");
    body
}

// ---------------------------------------------------------------------------
// Crash-safe saves: every store failpoint fails cleanly.
// ---------------------------------------------------------------------------

#[test]
fn failed_saves_leave_no_litter_and_preserve_the_old_snapshot() {
    let graph = graph(48, 5);
    let contents = build_stored(
        &graph,
        SchemeSpec::thorup_zwick(2),
        &SchemeConfig::default().with_seed(3),
    )
    .expect("build");
    let path = temp_path("crash_safe.dsk");
    {
        let _scope = ArmedScope::bare();
        save_snapshot(&path, &contents).expect("clean save");
    }
    let old_bytes = std::fs::read(&path).expect("snapshot bytes");

    for spec in [
        "seed=3;store.save.create=error,max=1",
        "seed=3;store.save.write=error,max=1",
        "seed=3;store.save.write=partial:64,max=1",
        "seed=3;store.save.fsync=error,max=1",
        "seed=3;store.save.rename=error,max=1",
        "seed=3;store.write.section=partial:16,max=1",
    ] {
        let _scope = ArmedScope::arm(spec);
        assert!(
            save_snapshot(&path, &contents).is_err(),
            "{spec}: the armed save must fail"
        );
        assert_eq!(
            dsketch_faults::registry().total_trips(),
            1,
            "{spec}: exactly one injected fault fired"
        );
        assert!(
            !snapshot_tmp_path(&path).exists(),
            "{spec}: a failed save must not litter *.tmp"
        );
        assert_eq!(
            std::fs::read(&path).expect("old snapshot"),
            old_bytes,
            "{spec}: the old snapshot stays byte-identical"
        );
        load_frozen_oracle(&path).expect("the old snapshot stays loadable");
    }

    // Disarmed, the identical save succeeds over the same path.
    let _scope = ArmedScope::bare();
    save_snapshot(&path, &contents).expect("disarmed save");
    load_frozen_oracle(&path).expect("fresh snapshot loads");
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Torn staging files: old state or new state, never a third.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn a_torn_staging_file_is_rejected_and_the_old_snapshot_survives(
        cut_permille in 0usize..1000,
        seed in 0u64..4,
    ) {
        let _scope = ArmedScope::bare();
        let graph = graph(32, seed + 1);
        let contents = build_stored(
            &graph,
            SchemeSpec::thorup_zwick(2),
            &SchemeConfig::default().with_seed(seed),
        )
        .expect("build");
        let path = temp_path(&format!("torn_{seed}_{cut_permille}.dsk"));
        save_snapshot(&path, &contents).expect("clean save");
        let bytes = std::fs::read(&path).expect("snapshot bytes");

        // Simulate a writer killed mid-stage: the published file still
        // holds the old state, the staging file holds a strict prefix.
        let cut = cut_permille * (bytes.len() - 1) / 1000;
        let tmp = snapshot_tmp_path(&path);
        std::fs::write(&tmp, &bytes[..cut]).expect("torn staging file");

        // Old state: intact and loadable.
        load_frozen_oracle(&path).expect("published snapshot unaffected");
        // Third state: impossible.  The torn staging file is rejected by
        // the cold-start loader and by the independent deep verifier.
        prop_assert!(
            SketchServer::from_snapshot(&tmp, ServeConfig::default()).is_err(),
            "cold start must reject a torn staging file"
        );
        prop_assert!(
            dsketch_analysis::verify_snapshot_file(&tmp).is_err(),
            "deep verify must reject a torn staging file"
        );

        std::fs::remove_file(&tmp).ok();
        std::fs::remove_file(&path).ok();
    }
}

// ---------------------------------------------------------------------------
// Panic isolation: panic → typed error for that batch → same thread serves on.
// ---------------------------------------------------------------------------

/// A `spec` oracle over one graph, 32 distinct unordered pairs it answers
/// `Ok` (so hit counts are exact), and its answers to them.
#[allow(clippy::type_complexity)]
fn panic_fixture(
    spec: SchemeSpec,
) -> (
    Arc<dyn DistanceOracle>,
    Vec<(NodeId, NodeId)>,
    Vec<Result<u64, SketchError>>,
) {
    let outcome = spec
        .build(&graph(48, 7), &SchemeConfig::default().with_seed(3))
        .expect("build");
    let oracle: Arc<dyn DistanceOracle> = Arc::from(outcome.sketches);
    let mut seen = std::collections::BTreeSet::new();
    let pairs: Vec<(NodeId, NodeId)> = sample_pairs(48, 256)
        .into_iter()
        .filter(|&(u, v)| oracle.estimate(u, v).is_ok() && seen.insert((u.min(v), u.max(v))))
        .take(32)
        .collect();
    assert_eq!(pairs.len(), 32, "{spec}: fixture too sparse");
    let expected = oracle.estimate_batch(&pairs);
    (oracle, pairs, expected)
}

#[test]
fn an_injected_dispatch_panic_fails_only_its_batch_in_process_and_over_the_wire() {
    // In process: one client, one thread — this one; every family.
    for spec in SchemeSpec::all_families() {
        let (oracle, pairs, expected) = panic_fixture(spec);
        let server = SketchServer::start(oracle, ServeConfig::default()).expect("server start");
        let client = server.client();
        assert_eq!(client.query_batch(&pairs), expected);
        assert_eq!(client.query_batch(&pairs), expected);
        assert_eq!(server.stats().totals.cache_hits, 32, "the cache is warm");

        let scope = ArmedScope::arm("seed=11;serve.dispatch=panic,max=2");
        for _ in 0..2 {
            let shed = client.query_batch(&pairs);
            assert!(
                shed.len() == pairs.len()
                    && shed
                        .iter()
                        .all(|r| matches!(r, Err(SketchError::ShardPanicked))),
                "{spec}: a panic fails its whole batch: {shed:?}"
            );
            assert!(
                SketchError::ShardPanicked.to_string().contains("retry"),
                "the typed error spells out the retry contract"
            );
        }
        // The trip budget is spent: the same thread's next batch is
        // answered, correctly, from a cold cache — not one new hit.
        assert_eq!(client.query_batch(&pairs), expected);
        assert_eq!(dsketch_faults::registry().trips("serve.dispatch"), 2);
        drop(scope);
        let stats = server.stats();
        assert_eq!(stats.totals.panics, 2, "every caught panic is counted");
        assert_eq!(stats.totals.cache_hits, 32, "the panic dropped the cache");
        assert_eq!(
            stats.totals.queries, 96,
            "a panicked batch answers no query"
        );
        assert_eq!(stats.totals.batches, 5);
        assert_eq!(client.query_batch(&pairs), expected);
        assert_eq!(
            server.shutdown().totals.cache_hits,
            64,
            "and it warms again"
        );
    }

    // Over the wire: one connection, so one worker thread serves it all.
    let (oracle, pairs, expected) = panic_fixture(SchemeSpec::thorup_zwick(2));
    let server = NetServer::start(
        oracle,
        ServeConfig::default(),
        NetConfig::default().with_workers(1),
        "127.0.0.1:0",
    )
    .expect("net server start");
    let addr = server.local_addr().to_string();
    let scope = ArmedScope::arm("seed=11;serve.dispatch=panic,max=2");
    let mut wire = NetClient::connect(&addr, Duration::from_secs(10)).expect("connect");
    let (u, v) = pairs[0];
    let shed = wire.query_batch(&pairs).expect("the frame is answered");
    assert_eq!(shed.len(), pairs.len());
    for answer in &shed {
        let error = answer.as_ref().expect_err("every pair of the frame fails");
        assert_eq!(error.code, WireErrorCode::ShardPanicked);
    }
    let single = wire.query(u, v).expect("the connection is still open");
    assert_eq!(
        single.expect_err("second armed panic").code,
        WireErrorCode::ShardPanicked
    );
    // Same connection, same worker thread, budget spent: right answers.
    let served = wire.query_batch(&pairs).expect("still the same connection");
    for (answer, want) in served.iter().zip(&expected) {
        assert_eq!(answer.as_ref().ok(), want.as_ref().ok());
    }
    // The one worker is ours until the NETQ connection closes.
    drop(wire);

    // The bytes themselves: an error frame (kind 15) whose payload opens
    // with wire code 8.
    scope.rearm("seed=11;serve.dispatch=panic,max=1");
    let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    raw.write_all(&dsketch_serve::net::Request::Query { u, v }.to_frame())
        .expect("raw request");
    let mut head = [0u8; 13];
    raw.read_exact(&mut head).expect("raw reply");
    assert_eq!((&head[..4], head[5], head[12]), (&b"NETR"[..], 15, 8));
    drop(raw);

    scope.rearm("seed=11;serve.dispatch=panic,max=1");
    let reply = http(&addr, "GET", &format!("/distance?u={}&v={}", u.0, v.0));
    assert!(reply.starts_with("HTTP/1.1 503"), "{reply}");
    assert!(reply.contains("\"error\":\"shard-panicked\""), "{reply}");

    let stats = server.shutdown();
    drop(scope);
    assert_eq!(stats.serve.totals.panics, 4, "{stats}");
    assert_eq!(stats.net.protocol_errors, 0, "{stats}");
}

// ---------------------------------------------------------------------------
// A failed snapshot read refuses the swap; the live generation serves on.
// ---------------------------------------------------------------------------

#[test]
fn a_failed_snapshot_read_refuses_the_swap_and_the_retry_publishes() {
    let scope = ArmedScope::bare();
    let graph = graph(48, 5);
    let (snap_a, snap_b) = (temp_path("load_read_a.dsk"), temp_path("load_read_b.dsk"));
    // Same graph and scheme, different seeds: swap-compatible, and the
    // answers tell the two generations apart.
    for (seed, path) in [(3, &snap_a), (4, &snap_b)] {
        let config = SchemeConfig::default().with_seed(seed);
        build_and_save(&graph, SchemeSpec::thorup_zwick(2), &config, path).expect("build");
    }
    let pairs = sample_pairs(48, 64);
    let answers = |path| {
        load_frozen_oracle(path)
            .expect("snapshot loads")
            .estimate_batch(&pairs)
    };
    let (from_a, from_b) = (answers(&snap_a), answers(&snap_b));
    assert_ne!(
        from_a, from_b,
        "fixture: the seeds must differ in an answer"
    );
    let server = SketchServer::from_snapshot(&snap_a, ServeConfig::default()).expect("cold start");
    let client = server.client();

    scope.rearm("seed=3;store.load.read=error,max=1");
    assert!(
        matches!(server.swap_snapshot(&snap_b), Err(SwapError::Store(_))),
        "the armed read must refuse the swap with the store's error"
    );
    assert_eq!(trips("store.load.read"), 1);
    assert_eq!(server.generation(), 1, "a refused swap publishes nothing");
    assert_eq!(client.query_batch_tagged(&pairs), (from_a, 1));

    // The trip budget is spent: the identical call publishes.
    assert_eq!(server.swap_snapshot(&snap_b).expect("retry"), 2);
    assert_eq!(client.query_batch_tagged(&pairs), (from_b, 2));
    std::fs::remove_file(&snap_a).ok();
    std::fs::remove_file(&snap_b).ok();
}

// ---------------------------------------------------------------------------
// The watch loop: back off through failed ticks, litter nothing, converge.
// ---------------------------------------------------------------------------

#[test]
fn the_watch_loop_backs_off_through_rebuild_and_save_faults_then_converges() {
    let graph = graph(32, 9);
    let (edges, snap) = (temp_path("watch_storm.edges"), temp_path("watch_storm.dsk"));
    std::fs::remove_file(&snap).ok();
    netgraph::io::save_edge_list(&graph, &edges).expect("edge list");
    let mut core = WatchCore::new(
        &edges,
        &snap,
        SchemeSpec::thorup_zwick(2),
        SchemeConfig::default().with_seed(5).with_parallel_build(),
    );

    // Two rebuild faults, then one fsync fault and one rename fault inside
    // the crash-safe save: four failed ticks, then convergence.
    let scope = ArmedScope::arm(
        "seed=7;watch.rebuild=error,max=2;store.save.fsync=error,max=1;store.save.rename=error,max=1",
    );
    let (base, cap) = (Duration::from_millis(10), Duration::from_millis(160));
    for failed in 1..=4u32 {
        assert!(core.check_once().is_err(), "tick {failed} is armed to fail");
        assert_eq!(core.consecutive_failures(), failed);
        let raw = base.saturating_mul(2u32.pow(failed)).min(cap);
        let delay = core.next_delay(base, cap);
        assert!(
            delay >= raw / 2 && delay <= raw,
            "failed tick {failed}: backoff {delay:?} outside [{:?}, {raw:?}]",
            raw / 2
        );
        assert!(
            !snapshot_tmp_path(&snap).exists(),
            "failed tick {failed}: a failed save must not litter *.tmp"
        );
    }
    assert_eq!(
        (
            trips("watch.rebuild"),
            trips("store.save.fsync"),
            trips("store.save.rename")
        ),
        (2, 1, 1),
        "each fault cost exactly one tick"
    );

    // The fault budget is spent: the very next tick rebuilds.
    let converged = core.check_once().expect("the fifth tick converges");
    assert!(
        matches!(converged, WatchOutcome::Rebuilt { nodes: 32, .. }),
        "{converged:?}"
    );
    assert_eq!(core.consecutive_failures(), 0);
    assert_eq!(core.next_delay(base, cap), base, "healthy cadence restored");
    let (_, stored) = peek_snapshot_meta(&snap).expect("converged snapshot header");
    assert_eq!(stored, graph.fingerprint(), "the snapshot tracks the graph");
    load_frozen_oracle(&snap).expect("converged snapshot loads");
    drop(scope);
    std::fs::remove_file(&edges).ok();
    std::fs::remove_file(&snap).ok();
}

// ---------------------------------------------------------------------------
// The TCP front end under read, write and accept faults: reconnects, never
// a wrong answer.
// ---------------------------------------------------------------------------

#[test]
fn a_retrying_client_rides_out_read_write_and_accept_faults_without_a_wrong_answer() {
    let n = 64;
    let outcome = SchemeSpec::thorup_zwick(2)
        .build(&graph(n, 13), &SchemeConfig::default().with_seed(13))
        .expect("build");
    let oracle: Arc<dyn DistanceOracle> = Arc::from(outcome.sketches);
    let server = NetServer::start(
        Arc::clone(&oracle),
        ServeConfig::default(),
        NetConfig::default(),
        "127.0.0.1:0",
    )
    .expect("net server start");
    let addr = server.local_addr().to_string();
    let connect = || {
        NetClient::connect_with_retry(&addr, Duration::from_secs(5), Duration::from_secs(10))
            .expect("connect within the deadline")
    };
    let matches_oracle = |answer: Result<u64, _>, (u, v): (NodeId, NodeId)| {
        assert_eq!(
            answer.ok(),
            oracle.estimate(u, v).ok(),
            "({u}, {v}): a fault may cost the connection, never the answer"
        );
    };

    // The first two accepted connections are shed with a 503, about every
    // fourth frame read drops its connection, and two frame writes break
    // mid-storm.  Client and server share `wire.rs`, so either side may
    // take a read or write trip.
    let scope = ArmedScope::arm(
        "seed=13;net.read.frame=error,one_in=4,max=6;net.write.frame=error,after=20,max=2;net.accept.handoff=error,max=2",
    );
    let mut client = connect();
    let pairs = sample_pairs(n, 160);
    let mut reconnects = 0u64;
    for &(u, v) in &pairs {
        let answer = loop {
            match client.query(u, v) {
                Ok(answer) => break answer,
                Err(_) => {
                    reconnects += 1;
                    assert!(reconnects <= 256, "transport retry budget exhausted");
                    client = connect();
                }
            }
        };
        matches_oracle(answer, (u, v));
    }
    let read_trips = trips("net.read.frame");
    assert!(read_trips >= 1, "the storm must drop a frame read");
    assert_eq!(trips("net.write.frame"), 2, "both write trips must fire");
    assert_eq!(
        trips("net.accept.handoff"),
        2,
        "both shed accepts must fire"
    );
    assert!(
        reconnects >= read_trips,
        "every dropped read costs at least one reconnect: {reconnects} < {read_trips}"
    );

    // Clean sweep with the faults disarmed: one connection, no errors.
    dsketch_faults::disarm_all();
    let mut client = connect();
    client.ping().expect("ping after the storm");
    for &(u, v) in pairs.iter().take(64) {
        matches_oracle(client.query(u, v).expect("clean transport"), (u, v));
    }
    drop(client);
    let stats = server.shutdown();
    drop(scope);
    assert_eq!(
        stats.net.overloads, 2,
        "every shed accept is counted as an overload"
    );
}

// ---------------------------------------------------------------------------
// connect_with_retry: late listeners and spent deadlines.
// ---------------------------------------------------------------------------

#[test]
fn connect_with_retry_rides_out_a_late_listener_and_times_out_cleanly() {
    // Reserve a port the OS considers free, then release it.
    let placeholder = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let addr = placeholder.local_addr().expect("addr").to_string();
    drop(placeholder);

    // Nothing listens: the deadline is spent on backoff sleeps, then the
    // final attempt's typed error surfaces.
    let started = Instant::now();
    assert!(
        NetClient::connect_with_retry(&addr, Duration::from_millis(50), Duration::from_millis(300))
            .is_err(),
        "no listener ever appears"
    );
    assert!(
        started.elapsed() >= Duration::from_millis(280),
        "the whole deadline is spent retrying, not failing fast"
    );

    // A listener that binds late: the retry loop connects once it exists.
    let late_addr = addr.clone();
    let listener = dsketch::parallel::spawn_named("late-listener", move || {
        std::thread::sleep(Duration::from_millis(150));
        let listener = std::net::TcpListener::bind(&late_addr).expect("late bind");
        listener.accept().expect("accept the retried connect");
    });
    let started = Instant::now();
    let client =
        NetClient::connect_with_retry(&addr, Duration::from_secs(1), Duration::from_secs(10))
            .expect("connect once the listener appears");
    assert!(
        started.elapsed() >= Duration::from_millis(100),
        "the first attempts must have been refused"
    );
    drop(client);
    listener.join().expect("listener thread");
}

// ---------------------------------------------------------------------------
// Overload shedding: 503 + Retry-After, counted once.
// ---------------------------------------------------------------------------

#[test]
fn a_full_accept_queue_answers_503_with_retry_after() {
    let graph = graph(32, 9);
    let outcome = SchemeSpec::thorup_zwick(2)
        .build(&graph, &SchemeConfig::default().with_seed(3))
        .expect("build");
    let oracle: Arc<dyn DistanceOracle> = Arc::from(outcome.sketches);
    let server = NetServer::start(
        Arc::clone(&oracle),
        ServeConfig::default(),
        NetConfig::default(),
        "127.0.0.1:0",
    )
    .expect("net server start");
    let addr = server.local_addr().to_string();

    let scope = ArmedScope::arm("seed=5;net.accept.handoff=error,max=1");
    let mut shed = std::net::TcpStream::connect(&addr).expect("tcp connect");
    shed.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reply = String::new();
    shed.read_to_string(&mut reply)
        .expect("read the shed reply");
    assert!(
        reply.starts_with("HTTP/1.1 503 Service Unavailable"),
        "shed connections get a real status line: {reply:?}"
    );
    assert!(reply.contains("Retry-After: 1"), "{reply:?}");
    assert!(reply.contains("\"error\":\"overloaded\""), "{reply:?}");

    // The one trip is spent: the next connection is accepted and served
    // normally.
    let mut client =
        NetClient::connect_with_retry(&addr, Duration::from_secs(5), Duration::from_secs(5))
            .expect("post-shed connect");
    client.ping().expect("ping after the shed");
    drop(client);
    let stats = server.shutdown();
    drop(scope);
    assert_eq!(stats.net.overloads, 1, "one shed accept, one overload");
}

// ---------------------------------------------------------------------------
// The /faults debug endpoint.
// ---------------------------------------------------------------------------

#[test]
fn the_faults_endpoint_arms_reports_and_disarms() {
    let _scope = ArmedScope::bare();
    let graph = graph(32, 11);
    let outcome = SchemeSpec::thorup_zwick(2)
        .build(&graph, &SchemeConfig::default().with_seed(3))
        .expect("build");
    let oracle: Arc<dyn DistanceOracle> = Arc::from(outcome.sketches);
    let server = NetServer::start(
        Arc::clone(&oracle),
        ServeConfig::default(),
        NetConfig::default(),
        "127.0.0.1:0",
    )
    .expect("net server start");
    let addr = server.local_addr().to_string();

    // Disarmed process: nothing armed, nothing ever tripped.
    let clean = http(&addr, "GET", "/faults");
    assert!(clean.contains("\"armed_points\":0"), "{clean:?}");
    assert!(clean.contains("\"total_trips\":0"), "{clean:?}");

    // Arm a plan whose `after` keeps it from ever actually tripping.
    // spec = seed=9;store.load.read=error,after=1000000
    let spec = "seed%3D9%3Bstore.load.read%3Derror%2Cafter%3D1000000";
    let armed = http(&addr, "POST", &format!("/faults?spec={spec}"));
    assert!(armed.contains("\"armed_points\":1"), "{armed:?}");
    assert!(armed.contains("\"point\":\"store.load.read\""), "{armed:?}");
    assert!(armed.contains("\"action\":\"error\""), "{armed:?}");
    assert!(armed.contains("\"after\":1000000"), "{armed:?}");
    assert_eq!(dsketch_faults::registry().armed_points(), 1);

    // A bad spec is a 400 and leaves the armed plan untouched.
    let bad = http(&addr, "POST", "/faults?spec=nonsense");
    assert!(bad.contains("bad-fault-spec"), "{bad:?}");
    assert_eq!(dsketch_faults::registry().armed_points(), 1);

    let disarmed = http(&addr, "POST", "/faults?disarm=all");
    assert!(disarmed.contains("\"armed_points\":0"), "{disarmed:?}");
    assert_eq!(dsketch_faults::registry().armed_points(), 0);
    server.shutdown();
}
