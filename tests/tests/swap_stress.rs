//! Hot snapshot swap under fire: the serving stack must publish new
//! generations mid-traffic without a single wrong, torn, or failed
//! answer.
//!
//! Three batteries, mirroring the swap design's obligations:
//!
//! * **Swap-under-fire** — client threads hammer single, batch, and HTTP
//!   queries while the main thread alternates two swap-compatible
//!   snapshots through the live server.  Every batch is tagged with one
//!   generation and every answer in it must be exactly correct for that
//!   generation, with zero errors and exact swap/invalidation accounting
//!   in `ServeStats`.  Idle callers hold nothing: a retired generation is
//!   freed by the swap that retires it.
//! * **Cell linearizability** — interleaved `load`/`store` traffic on the
//!   bare [`SwapCell`] never double-frees, never yields a generation
//!   outside the window that was live during the call, and drops every
//!   retired payload exactly once (drop-counter oracle + strong-count
//!   probes).
//! * **Negative paths** — corrupted bytes, wrong node count, and wrong
//!   scheme are refused with the right typed [`SwapError`], leaving the
//!   live generation answering untouched; a server shut down moments
//!   after a swap drains cleanly.

use dsketch::prelude::*;
use dsketch_serve::{Generation, ServeConfig, SketchServer, SwapCell, SwapError};
use netgraph::generators::{erdos_renyi, GeneratorConfig};
use netgraph::NodeId;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dsketch_swap_stress_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Build two swap-compatible snapshots (same graph, same scheme,
/// different construction seeds — so answers genuinely differ between
/// generations) plus their offline oracles for ground truth.
#[allow(clippy::type_complexity)]
fn two_snapshots(
    n: usize,
    tag: &str,
) -> (
    PathBuf,
    PathBuf,
    Arc<dyn DistanceOracle>,
    Arc<dyn DistanceOracle>,
) {
    let graph = erdos_renyi(n, 0.15, GeneratorConfig::uniform(7, 1, 20));
    let spec = SchemeSpec::thorup_zwick(2);
    let snap_a = temp_path(&format!("{tag}_a.dsk"));
    let snap_b = temp_path(&format!("{tag}_b.dsk"));
    for (seed, path) in [(11u64, &snap_a), (23, &snap_b)] {
        dsketch_store::build_and_save(
            &graph,
            spec,
            &SchemeConfig::default()
                .with_seed(seed)
                .with_parallel_build(),
            path,
        )
        .expect("snapshot build");
    }
    let oracle_a: Arc<dyn DistanceOracle> =
        Arc::from(dsketch_store::load_frozen_oracle(&snap_a).expect("load a"));
    let oracle_b: Arc<dyn DistanceOracle> =
        Arc::from(dsketch_store::load_frozen_oracle(&snap_b).expect("load b"));
    (snap_a, snap_b, oracle_a, oracle_b)
}

/// The oracle ground truth for a generation number: the server starts at
/// generation 1 on snapshot A; every swap alternates B, A, B, …
fn oracle_for<'a>(
    generation: u64,
    a: &'a Arc<dyn DistanceOracle>,
    b: &'a Arc<dyn DistanceOracle>,
) -> &'a Arc<dyn DistanceOracle> {
    if generation % 2 == 1 {
        a
    } else {
        b
    }
}

/// Check one tagged answer against the serving generation's offline
/// oracle.  Wrong answers and transport-visible failures both fail the
/// swap-under-fire guarantee.
fn check_tagged(
    result: &Result<u64, dsketch::SketchError>,
    generation: u64,
    u: NodeId,
    v: NodeId,
    a: &Arc<dyn DistanceOracle>,
    b: &Arc<dyn DistanceOracle>,
) {
    let expected = oracle_for(generation, a, b).estimate(u, v);
    match (result, &expected) {
        (Ok(got), Ok(want)) => assert_eq!(
            got, want,
            "generation {generation} answered d({u:?},{v:?}) wrong"
        ),
        (Err(_), Err(_)) => {}
        _ => panic!("generation {generation} at ({u:?},{v:?}): got {result:?}, want {expected:?}"),
    }
}

/// The tentpole acceptance test: N threads of single + batch queries
/// while M swaps publish alternating snapshots.  A batch carries one
/// generation tag — never a mix — and every answer in it must be exactly
/// correct for that generation; zero errors; exact swap accounting; and no
/// reader may ever have blocked on a publish (bounded worst-case latency
/// during the swap storm).
#[test]
fn swap_under_fire_every_answer_matches_its_serving_generation() {
    const THREADS: usize = 3;
    const SWAPS: u64 = 8;
    let n = 48;
    let (snap_a, snap_b, oracle_a, oracle_b) = two_snapshots(n, "under_fire");
    let server =
        SketchServer::from_snapshot(&snap_a, ServeConfig::default().with_cache_capacity(64))
            .expect("cold start");
    assert_eq!(server.generation(), 1);

    let stop = AtomicBool::new(false);
    let answered = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for thread_id in 0..THREADS {
            let client = server.client();
            let (a, b) = (Arc::clone(&oracle_a), Arc::clone(&oracle_b));
            let (stop, answered) = (&stop, &answered);
            scope.spawn(move || {
                let mut i = thread_id as u64;
                loop {
                    let pairs: Vec<_> = (0..16)
                        .map(|j| {
                            let x = (i + j) * 7919 % n as u64;
                            let y = (i + j) * 104729 % n as u64;
                            (NodeId(x as u32), NodeId(y as u32))
                        })
                        .collect();
                    if thread_id == 0 {
                        // Single-query path.
                        for &(u, v) in &pairs {
                            let (result, generation) = client.query_tagged(u, v);
                            check_tagged(&result, generation, u, v, &a, &b);
                            answered.fetch_add(1, Ordering::Relaxed);
                        }
                    } else {
                        // Batch path: one generation answers the whole batch.
                        let (results, generation) = client.query_batch_tagged(&pairs);
                        assert_eq!(results.len(), pairs.len());
                        for (result, &(u, v)) in results.iter().zip(&pairs) {
                            check_tagged(result, generation, u, v, &a, &b);
                            answered.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    i += 16;
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                }
            });
        }
        for round in 0..SWAPS {
            let next = if round % 2 == 0 { &snap_b } else { &snap_a };
            let generation = server.swap_snapshot(next).expect("compatible snapshot");
            assert_eq!(generation, round + 2, "generations advance without gaps");
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
    });

    let latency = server
        .registry()
        .snapshot()
        .histogram_total("dsketch_serve_batch_latency_nanos");
    let stats = server.shutdown();
    assert_eq!(stats.generation, SWAPS + 1);
    assert_eq!(stats.swaps, SWAPS);
    assert_eq!(stats.totals.errors, 0, "no query may fail during swaps");
    assert!(answered.load(Ordering::Relaxed) > 0);
    assert_eq!(stats.totals.queries, answered.load(Ordering::Relaxed));
    assert_eq!(
        stats.totals.cache_hits + stats.totals.cache_misses,
        stats.totals.queries,
        "lazy invalidation preserves hit/miss accounting"
    );
    // A reader that blocked on a publish would stall for the whole swap
    // (milliseconds to seconds); per-batch service time stays far below
    // that even at p99.9 under the swap storm.  100ms is orders of
    // magnitude above sixteen cache-miss estimates and still catches
    // blocking.
    assert!(
        latency.quantile(0.999) < 100_000_000,
        "readers must never block on a swap (p99.9 = {} ns)",
        latency.quantile(0.999)
    );

    std::fs::remove_file(&snap_a).ok();
    std::fs::remove_file(&snap_b).ok();
}

/// HTTP front end under the same fire: `GET /distance` keeps answering
/// while `POST /swap` publishes; the stats document tracks the
/// generation.
#[test]
fn http_queries_and_swaps_interleave_cleanly() {
    use dsketch_serve::{NetConfig, NetServer};
    let n = 32;
    let (snap_a, snap_b, oracle_a, oracle_b) = two_snapshots(n, "http_fire");
    let oracle: Arc<dyn DistanceOracle> =
        Arc::from(dsketch_store::load_frozen_oracle(&snap_a).expect("load a"));
    let (spec, fingerprint) = dsketch_store::peek_snapshot_meta(&snap_a).expect("peek");
    let server = NetServer::start_with_origin(
        oracle,
        ServeConfig::default(),
        NetConfig::default().with_workers(2),
        "127.0.0.1:0",
        dsketch_serve::ServeMeta::new(spec.to_string(), fingerprint.to_string()),
        Some((spec, fingerprint)),
    )
    .expect("listen");
    let addr = server.local_addr().to_string();

    let http = |request: String| -> String {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream.write_all(request.as_bytes()).expect("request");
        let mut reply = String::new();
        stream.read_to_string(&mut reply).expect("reply");
        reply
    };
    let get = |path: &str| http(format!("GET {path} HTTP/1.1\r\nhost: t\r\n\r\n"));
    let encoded = |path: &Path| path.display().to_string().replace('/', "%2F");
    let swap = |path: &Path| {
        http(format!(
            "POST /swap?snapshot={} HTTP/1.1\r\nhost: t\r\n\r\n",
            encoded(path)
        ))
    };

    // Warm answers from generation 1 (snapshot A).
    let pairs: Vec<_> = (0..6u32).map(|i| (i, (i * 5 + 1) % n as u32)).collect();
    for &(u, v) in &pairs {
        let reply = get(&format!("/distance?u={u}&v={v}"));
        match oracle_a.estimate(NodeId(u), NodeId(v)) {
            Ok(d) => assert!(reply.contains(&format!("\"distance\":{d}")), "{reply}"),
            Err(_) => assert!(reply.contains("\"error\""), "{reply}"),
        }
    }

    // Queries racing the swap must answer from *some* live generation.
    std::thread::scope(|scope| {
        let (oracle_a, oracle_b) = (&oracle_a, &oracle_b);
        let get = &get;
        scope.spawn(move || {
            for &(u, v) in &pairs {
                let reply = get(&format!("/distance?u={u}&v={v}"));
                let ok_for = |oracle: &Arc<dyn DistanceOracle>| match oracle
                    .estimate(NodeId(u), NodeId(v))
                {
                    Ok(d) => reply.contains(&format!("\"distance\":{d}")),
                    Err(_) => reply.contains("\"error\""),
                };
                assert!(
                    ok_for(oracle_a) || ok_for(oracle_b),
                    "answer matches neither live generation: {reply}"
                );
            }
        });
        let reply = swap(&snap_b);
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(reply.contains("\"generation\":2"), "{reply}");
    });

    // Post-swap: generation 2 serves snapshot B's answers, stats agree.
    for &(u, v) in &[(0u32, 5u32), (1, 9)] {
        let reply = get(&format!("/distance?u={u}&v={v}"));
        match oracle_b.estimate(NodeId(u), NodeId(v)) {
            Ok(d) => assert!(reply.contains(&format!("\"distance\":{d}")), "{reply}"),
            Err(_) => assert!(reply.contains("\"error\""), "{reply}"),
        }
    }
    let stats = get("/stats");
    assert!(stats.contains("\"generation\":2"), "{stats}");
    assert!(stats.contains("\"swaps\":1"), "{stats}");
    let metrics = get("/metrics");
    assert!(metrics.contains("dsketch_serve_generation 2"), "{metrics}");
    assert!(metrics.contains("dsketch_swap_total 1"), "{metrics}");

    // A swap refusal over HTTP is a 409 with the typed error name, and
    // the live generation stays put.
    let refused = swap(Path::new("/nonexistent/missing.dsk"));
    assert!(refused.starts_with("HTTP/1.1 409"), "{refused}");
    assert!(refused.contains("swap-refused"), "{refused}");
    assert!(get("/stats").contains("\"generation\":2"));

    // Two `snapshot=` parameters name two snapshots: the request is
    // refused before either is read, rather than the last one winning.
    let twice = http(format!(
        "POST /swap?snapshot={}&snapshot={} HTTP/1.1\r\nhost: t\r\n\r\n",
        encoded(&snap_a),
        encoded(&snap_b)
    ));
    assert!(twice.starts_with("HTTP/1.1 400"), "{twice}");
    assert!(twice.contains("repeated parameter 'snapshot'"), "{twice}");
    assert!(get("/stats").contains("\"generation\":2"));

    server.shutdown();
    std::fs::remove_file(&snap_a).ok();
    std::fs::remove_file(&snap_b).ok();
}

/// A snapshot stamped with another format version is refused over
/// `POST /swap` by its version — the generation stays put and the old
/// oracle keeps answering.
#[test]
fn a_v1_versioned_snapshot_is_refused_over_http_swap() {
    use dsketch_serve::{NetConfig, NetServer};
    let n = 32;
    let (snap_a, snap_b, oracle_a, _) = two_snapshots(n, "http_v1");
    // Snapshot B with its version field rewritten to 1 and the CRC (which
    // covers the field) re-signed: what a v1 writer would have stamped, as
    // far as the container can tell.
    let mut bytes = std::fs::read(&snap_b).expect("read b");
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    let crc_at = bytes.len() - 4;
    let crc = dsketch_store::crc32::crc32(&bytes[..crc_at]);
    bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
    let stamped = temp_path("http_v1_stamped.dsk");
    std::fs::write(&stamped, &bytes).expect("write stamped");

    let oracle: Arc<dyn DistanceOracle> =
        Arc::from(dsketch_store::load_frozen_oracle(&snap_a).expect("load a"));
    let (spec, fingerprint) = dsketch_store::peek_snapshot_meta(&snap_a).expect("peek");
    let server = NetServer::start_with_origin(
        oracle,
        ServeConfig::default(),
        NetConfig::default().with_workers(2),
        "127.0.0.1:0",
        dsketch_serve::ServeMeta::new(spec.to_string(), fingerprint.to_string()),
        Some((spec, fingerprint)),
    )
    .expect("listen");
    let addr = server.local_addr().to_string();
    let http = |request: String| -> String {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream.write_all(request.as_bytes()).expect("request");
        let mut reply = String::new();
        stream.read_to_string(&mut reply).expect("reply");
        reply
    };

    let refused = http(format!(
        "POST /swap?snapshot={} HTTP/1.1\r\nhost: t\r\n\r\n",
        stamped.display().to_string().replace('/', "%2F")
    ));
    assert!(refused.starts_with("HTTP/1.1 409"), "{refused}");
    assert!(refused.contains("swap-refused"), "{refused}");
    assert!(refused.contains("version 1"), "{refused}");

    let stats = http("GET /stats HTTP/1.1\r\nhost: t\r\n\r\n".to_string());
    assert!(stats.contains("\"generation\":1"), "{stats}");
    assert!(stats.contains("\"swaps\":0"), "{stats}");
    for (u, v) in (0..6u32).map(|i| (i, (i * 5 + 1) % n as u32)) {
        let reply = http(format!(
            "GET /distance?u={u}&v={v} HTTP/1.1\r\nhost: t\r\n\r\n"
        ));
        match oracle_a.estimate(NodeId(u), NodeId(v)) {
            Ok(d) => assert!(reply.contains(&format!("\"distance\":{d}")), "{reply}"),
            Err(_) => assert!(reply.contains("\"error\""), "{reply}"),
        }
    }
    server.shutdown();
    for path in [snap_a, snap_b, stamped] {
        std::fs::remove_file(path).ok();
    }
}

/// A payload that counts its drops — the oracle for exactly-once
/// retirement.  `live` goes negative on a double-free (the drop glue
/// would usually also crash, but the counter makes the failure crisp).
struct Tracked {
    id: u64,
    drops: Arc<AtomicU64>,
    live: Arc<AtomicI64>,
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
        let was = self.live.fetch_sub(1, Ordering::SeqCst);
        assert!(was > 0, "payload {} dropped more than once", self.id);
    }
}

/// Drive `readers` threads of loads against one writer doing `stores`
/// publishes, then assert the exactly-once drop discipline and the
/// freshness window: every load returns a generation that was current
/// at some instant during the call.
fn drive_cell(readers: usize, stores: u64, holds: usize) {
    let drops = Arc::new(AtomicU64::new(0));
    let live = Arc::new(AtomicI64::new(0));
    let make = |id: u64| {
        live.fetch_add(1, Ordering::SeqCst);
        Arc::new(Tracked {
            id,
            drops: Arc::clone(&drops),
            live: Arc::clone(&live),
        })
    };
    let total = stores + 1;
    {
        let cell = Arc::new(SwapCell::new(make(1)));
        std::thread::scope(|scope| {
            for _ in 0..readers {
                let cell = Arc::clone(&cell);
                scope.spawn(move || {
                    let mut held = std::collections::VecDeque::new();
                    let mut last = 0u64;
                    loop {
                        let before = cell.version();
                        let value = cell.load();
                        let after = cell.version();
                        assert!(
                            value.id >= before && value.id <= after,
                            "load yielded generation {} outside its live window [{before}, {after}]",
                            value.id
                        );
                        assert!(value.id >= last, "per-thread loads are monotonic");
                        last = value.id;
                        // Hold a sliding window of clones so retirement
                        // overlaps with live readers.
                        held.push_back(value);
                        if held.len() > holds {
                            held.pop_front();
                        }
                        if last >= total {
                            return;
                        }
                    }
                });
            }
            for id in 2..=total {
                cell.store(make(id));
            }
        });
        // All readers done; the cell still owns the current generation,
        // so nothing can have dropped total times yet.
        assert!(drops.load(Ordering::SeqCst) < total);
        assert!(live.load(Ordering::SeqCst) > 0);
    }
    // Cell gone: every payload dropped exactly once, none resurrected.
    assert_eq!(drops.load(Ordering::SeqCst), total);
    assert_eq!(live.load(Ordering::SeqCst), 0);
}

#[test]
fn eight_reader_threads_and_a_writer_never_double_free() {
    drive_cell(8, 300, 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized interleavings: vary reader count, store count, and the
    /// clone-hold window.  The drop-counter oracle and the freshness
    /// window hold for every schedule.
    #[test]
    fn cell_interleavings_preserve_exactly_once_retirement(
        readers in 1usize..6,
        stores in 1u64..80,
        holds in 1usize..6,
    ) {
        drive_cell(readers, stores, holds);
    }
}

/// Retired generations stay alive while reader clones hold them:
/// `Arc::strong_count` proves the cell and the clone share ownership,
/// and the clone's release is the payload's single drop.
#[test]
fn strong_counts_track_cell_and_reader_ownership() {
    let first = Arc::new(7u64);
    let cell = SwapCell::new(Arc::clone(&first));
    // One count here, one in the cell's slot.
    assert_eq!(Arc::strong_count(&first), 2);
    let pinned = cell.load();
    assert_eq!(Arc::strong_count(&first), 3);
    // Retire generation 1 far enough that its slot is recycled.
    for id in 8..8 + 4u64 {
        cell.store(Arc::new(id));
    }
    // The cell released its slot reference; ours and `pinned` remain.
    assert_eq!(Arc::strong_count(&first), 2);
    assert_eq!(*pinned, 7);
    drop(pinned);
    assert_eq!(Arc::strong_count(&first), 1);
}

/// Negative paths: every refusal is the right typed error, and the live
/// generation keeps answering as if nothing happened.
#[test]
fn refused_swaps_leave_the_live_generation_untouched() {
    let n = 48;
    let (snap_a, snap_b, oracle_a, _oracle_b) = two_snapshots(n, "negative");
    let server = SketchServer::from_snapshot(&snap_a, ServeConfig::default()).expect("cold start");
    let assert_still_generation_one = |label: &str| {
        assert_eq!(server.generation(), 1, "{label} must not publish");
        let client = server.client();
        for &(u, v) in &[(0u32, 7u32), (3, 19), (12, 40)] {
            let (u, v) = (NodeId(u), NodeId(v));
            let (result, generation) = client.query_tagged(u, v);
            assert_eq!(generation, 1, "{label}");
            assert_eq!(result.ok(), oracle_a.estimate(u, v).ok(), "{label}");
        }
    };

    // Corrupted DSK1: flip a payload byte — the one read refuses it.
    let corrupt = temp_path("negative_corrupt.dsk");
    let mut bytes = std::fs::read(&snap_b).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&corrupt, &bytes).unwrap();
    match server.swap_snapshot(&corrupt) {
        Err(SwapError::Store(e)) if e.kind() == "checksum" => {}
        other => panic!("corrupted snapshot must fail its checksum, got {other:?}"),
    }
    assert_still_generation_one("corrupted snapshot");

    // Unreadable path: a typed store error, not a panic.
    match server.swap_snapshot(temp_path("negative_missing.dsk")) {
        Err(SwapError::Store(_)) => {}
        other => panic!("missing snapshot must be a store error, got {other:?}"),
    }
    assert_still_generation_one("missing snapshot");

    // Mismatched node count (a different graph — the fingerprint names a
    // different node-id universe).
    let other_graph = erdos_renyi(n + 1, 0.15, GeneratorConfig::uniform(7, 1, 20));
    let wrong_n = temp_path("negative_wrong_n.dsk");
    dsketch_store::build_and_save(
        &other_graph,
        SchemeSpec::thorup_zwick(2),
        &SchemeConfig::default().with_seed(11).with_parallel_build(),
        &wrong_n,
    )
    .unwrap();
    match server.swap_snapshot(&wrong_n) {
        Err(SwapError::NodeCountMismatch { current, offered }) => {
            assert_eq!(current, n);
            assert_eq!(offered, n + 1);
        }
        other => panic!("wrong node count must be refused, got {other:?}"),
    }
    assert_still_generation_one("mismatched node count");

    // Mismatched scheme on the *same* graph.
    let graph = erdos_renyi(n, 0.15, GeneratorConfig::uniform(7, 1, 20));
    let wrong_scheme = temp_path("negative_wrong_scheme.dsk");
    dsketch_store::build_and_save(
        &graph,
        SchemeSpec::three_stretch(0.4),
        &SchemeConfig::default().with_seed(11).with_parallel_build(),
        &wrong_scheme,
    )
    .unwrap();
    match server.swap_snapshot(&wrong_scheme) {
        Err(SwapError::SchemeMismatch { current, offered }) => {
            assert_eq!(current, SchemeSpec::thorup_zwick(2));
            assert_eq!(offered, SchemeSpec::three_stretch(0.4));
        }
        other => panic!("wrong scheme must be refused, got {other:?}"),
    }
    assert_still_generation_one("mismatched scheme");

    // After all the refusals, a compatible snapshot still swaps in fine.
    assert_eq!(server.swap_snapshot(&snap_b).expect("compatible"), 2);
    assert_eq!(server.generation(), 2);

    let stats = server.shutdown();
    assert_eq!(stats.swaps, 1, "only the successful publish counts");
    for path in [&snap_a, &snap_b, &corrupt, &wrong_n, &wrong_scheme] {
        std::fs::remove_file(path).ok();
    }
}

/// Shutdown moments after a swap, with clients still in flight inside a
/// scope: the server drains cleanly and the final stats carry the swap.
#[test]
fn mid_swap_shutdown_drains_cleanly() {
    let n = 32;
    let (snap_a, snap_b, oracle_a, oracle_b) = two_snapshots(n, "shutdown");
    let server = SketchServer::from_snapshot(&snap_a, ServeConfig::default()).expect("cold start");
    std::thread::scope(|scope| {
        for t in 0..2u32 {
            let client = server.client();
            let (a, b) = (Arc::clone(&oracle_a), Arc::clone(&oracle_b));
            scope.spawn(move || {
                for i in 0..200u32 {
                    let (u, v) = (NodeId((i + t) % n as u32), NodeId((i * 3 + 1) % n as u32));
                    let (result, generation) = client.query_tagged(u, v);
                    check_tagged(&result, generation, u, v, &a, &b);
                }
            });
        }
        // Publish while those queries are in flight.
        server.swap_snapshot(&snap_b).expect("compatible snapshot");
    });
    let stats = server.shutdown();
    assert_eq!(stats.generation, 2);
    assert_eq!(stats.swaps, 1);
    assert_eq!(stats.totals.errors, 0);
    assert_eq!(stats.totals.queries, 400);
    std::fs::remove_file(&snap_a).ok();
    std::fs::remove_file(&snap_b).ok();
}

/// The exactness check: with one client and a roomy cache, the
/// `cache_invalidations` counter (and the hit/miss split) across one swap
/// is predictable to the query.
#[test]
fn cache_invalidation_accounting_is_exact_across_one_swap() {
    let n = 48;
    let (snap_a, snap_b, oracle_a, oracle_b) = two_snapshots(n, "accounting");
    // Pairs that answer Ok under both generations (only Ok answers are
    // cached, so errors would skew the arithmetic).
    let pairs: Vec<_> = (0..n as u32)
        .map(|i| (NodeId(i), NodeId((i + 1) % n as u32)))
        .filter(|&(u, v)| oracle_a.estimate(u, v).is_ok() && oracle_b.estimate(u, v).is_ok())
        .take(10)
        .collect();
    assert_eq!(pairs.len(), 10, "graph too sparse for the fixture");

    let server =
        SketchServer::from_snapshot(&snap_a, ServeConfig::default().with_cache_capacity(1024))
            .expect("cold start");
    let client = server.client();
    let run_all_twice = || {
        for _ in 0..2 {
            for &(u, v) in &pairs {
                client.query(u, v).expect("fixture pairs answer Ok");
            }
        }
    };

    // Generation 1: 10 cold misses, then 10 hits.
    run_all_twice();
    let stats = server.stats();
    assert_eq!(stats.totals.queries, 20);
    assert_eq!(stats.totals.cache_misses, 10);
    assert_eq!(stats.totals.cache_hits, 10);
    assert_eq!(stats.totals.cache_invalidations, 0);

    // One swap: every cached entry is now stale, and the client's next
    // batch drops all 10 with the cache — 10 invalidations, 10 misses,
    // then 10 fresh hits.  No flush of anyone else, no pause.
    server.swap_snapshot(&snap_b).expect("compatible snapshot");
    run_all_twice();
    let stats = server.stats();
    assert_eq!(stats.totals.queries, 40);
    assert_eq!(stats.totals.cache_misses, 20);
    assert_eq!(stats.totals.cache_hits, 20);
    assert_eq!(stats.totals.cache_invalidations, 10);
    assert_eq!(stats.generation, 2);
    assert_eq!(stats.swaps, 1);

    server.shutdown();
    std::fs::remove_file(&snap_a).ok();
    std::fs::remove_file(&snap_b).ok();
}

/// Nothing is held between batches: once a swap has been published, idle
/// clients — alive, with warm caches — do not keep the retired oracle (a
/// whole label set) in memory until they next see traffic.
#[test]
fn a_retired_generation_is_freed_while_its_callers_sit_idle() {
    let (snap_a, snap_b, _oracle_a, oracle_b) = two_snapshots(32, "retired");
    let server = SketchServer::from_snapshot(&snap_a, ServeConfig::default()).expect("cold start");
    let first_generation = Arc::downgrade(&server.current_generation());
    let clients = [server.client(), server.client()];
    for client in &clients {
        client
            .query(NodeId(0), NodeId(1))
            .expect("generation 1 answers");
    }
    assert!(first_generation.upgrade().is_some(), "live while it serves");

    assert_eq!(server.swap_snapshot(&snap_b).expect("compatible"), 2);
    assert!(
        first_generation.upgrade().is_none(),
        "two idle clients must not pin the retired generation"
    );
    // The clients are still usable, and serve the new generation.
    for client in &clients {
        let (result, generation) = client.query_tagged(NodeId(0), NodeId(1));
        assert_eq!(generation, 2);
        assert_eq!(result.ok(), oracle_b.estimate(NodeId(0), NodeId(1)).ok());
    }
    std::fs::remove_file(&snap_a).ok();
    std::fs::remove_file(&snap_b).ok();
}

/// The `Generation` type itself: `initial` starts at 1 and carries the
/// provenance the swap gates check.
#[test]
fn generation_initial_carries_provenance() {
    let (snap_a, _snap_b, oracle_a, _) = two_snapshots(24, "generation");
    let (spec, fingerprint) = dsketch_store::peek_snapshot_meta(&snap_a).expect("peek");
    let generation = Generation::initial(Arc::clone(&oracle_a), Some(spec), Some(fingerprint));
    assert_eq!(generation.number, 1);
    assert_eq!(generation.spec, Some(spec));
    assert_eq!(generation.fingerprint, Some(fingerprint));
    assert_eq!(generation.oracle.num_nodes(), 24);
}
