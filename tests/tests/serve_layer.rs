//! Integration tests for the `dsketch-serve` layer: the server must be a
//! transparent proxy for the oracle it serves — same answers, same errors —
//! under concurrency, batching, and caching, for every scheme family.

use dsketch::prelude::*;
use dsketch_serve::{ServeConfig, SketchServer};
use netgraph::generators::{erdos_renyi, GeneratorConfig};
use netgraph::NodeId;
use std::sync::Arc;

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
            // Every 97th query asks about a node outside the sketch set.
            let u = if i % 97 == 0 { n + a % 5 } else { a % n };
            (NodeId::from_index(u), NodeId::from_index(b % n))
        })
        .collect()
}

/// For all four scheme families, N client threads × M single queries each
/// return exactly what direct `estimate()` calls return — including errors.
#[test]
fn concurrent_queries_agree_with_direct_estimates_for_every_family() {
    const THREADS: usize = 4;
    const QUERIES_PER_THREAD: usize = 400;
    for spec in SchemeSpec::all_families() {
        let n = 48;
        let oracle = build_oracle(spec, n);
        let server = SketchServer::start(
            Arc::clone(&oracle),
            ServeConfig::default().with_cache_capacity(64),
        )
        .expect("server start");
        std::thread::scope(|scope| {
            for thread_id in 0..THREADS {
                let client = server.client();
                let oracle = Arc::clone(&oracle);
                scope.spawn(move || {
                    for (u, v) in query_stream(n, QUERIES_PER_THREAD, thread_id as u64) {
                        assert_eq!(
                            client.query(u, v),
                            oracle.estimate(u, v),
                            "{spec}: server must answer ({u}, {v}) like the oracle"
                        );
                    }
                });
            }
        });
        let stats = server.shutdown();
        assert_eq!(
            stats.totals.queries,
            (THREADS * QUERIES_PER_THREAD) as u64,
            "{spec}: every query must be counted"
        );
        assert_eq!(
            stats.totals.cache_hits + stats.totals.cache_misses,
            stats.totals.queries,
            "{spec}: every query is either a hit or a miss"
        );
    }
}

/// The differential test of the inline path: `query_batch` is
/// `estimate_batch`, element for element, whatever the family, the cache
/// size or the number of calling threads — on a stream with unknown nodes,
/// `u == v`, repeats within and across batches, and both orientations of
/// a pair (including pairs whose error names a different node each way).
#[test]
fn query_batch_equals_estimate_batch_for_every_family_cache_size_and_thread_count() {
    let n = 48;
    let stream = |salt: u64| {
        let mut pairs = query_stream(n, 400, salt);
        let reversed: Vec<_> = pairs.iter().step_by(3).map(|&(u, v)| (v, u)).collect();
        let repeated: Vec<_> = pairs.iter().step_by(5).copied().collect();
        pairs.extend(reversed);
        pairs.extend((0..8).map(|i| (NodeId(i), NodeId(i))));
        pairs.extend(repeated);
        // Neither node known: the error names the first, so the two
        // orientations must not share an answer.
        let (x, y) = (NodeId::from_index(n + 1), NodeId::from_index(n + 2));
        pairs.extend([(x, y), (y, x), (x, y)]);
        pairs
    };
    for spec in ["tz:3", "3stretch:0.3", "cdg:0.3,2", "degrading:3"] {
        let spec = SchemeSpec::parse(spec).expect("scheme spec");
        let oracle = build_oracle(spec, n);
        for cache_capacity in [0, 16, 4096] {
            for threads in [1usize, 4] {
                let label = format!("{spec}, cache {cache_capacity}, {threads} threads");
                let server = SketchServer::start(
                    Arc::clone(&oracle),
                    ServeConfig::default().with_cache_capacity(cache_capacity),
                )
                .expect("server start");
                let (mut queries, mut errors) = (0u64, 0u64);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..threads)
                        .map(|thread_id| {
                            let (client, oracle, label) = (server.client(), &oracle, &label);
                            scope.spawn(move || {
                                let pairs = stream(thread_id as u64);
                                let mut errors = 0u64;
                                // Twice, so the second pass meets a warm cache.
                                for _ in 0..2 {
                                    for batch in pairs.chunks(64) {
                                        let expected = oracle.estimate_batch(batch);
                                        assert_eq!(client.query_batch(batch), expected, "{label}");
                                        errors +=
                                            expected.iter().filter(|r| r.is_err()).count() as u64;
                                    }
                                }
                                (2 * pairs.len() as u64, errors)
                            })
                        })
                        .collect();
                    for handle in handles {
                        let (q, e) = handle.join().expect("caller thread");
                        queries += q;
                        errors += e;
                    }
                });
                let totals = server.shutdown().totals;
                assert_eq!(totals.queries, queries, "{label}");
                assert_eq!(totals.errors, errors, "{label}");
                assert_eq!(totals.cache_hits + totals.cache_misses, queries, "{label}");
                // An error is never served from the cache, so every one of
                // them is a miss — on the warm pass too.
                assert!(errors > 0 && totals.cache_misses >= errors, "{label}");
                if cache_capacity == 0 {
                    assert_eq!(totals.cache_hits, 0, "{label}");
                } else {
                    assert!(totals.cache_hits > 0, "{label}: repeats must hit");
                }
            }
        }
    }
}

/// Batched submission must return the same results as one-at-a-time
/// submission, in input order, mixing duplicates and errors.
#[test]
fn batched_and_single_queries_are_equivalent() {
    let n = 40;
    let oracle = build_oracle(SchemeSpec::thorup_zwick(3), n);
    let server =
        SketchServer::start(Arc::clone(&oracle), ServeConfig::default()).expect("server start");
    let client = server.client();
    let mut pairs = query_stream(n, 300, 5);
    pairs.push(pairs[0]); // duplicate within one batch
    let batched = client.query_batch(&pairs);
    assert_eq!(batched.len(), pairs.len());
    for (result, &(u, v)) in batched.iter().zip(&pairs) {
        assert_eq!(
            result,
            &client.query(u, v),
            "order-preserving at ({u}, {v})"
        );
        assert_eq!(result, &oracle.estimate(u, v));
    }
}

/// The LRU accounting of one client: repeats hit in either orientation,
/// distinct queries miss, errors are never cached, and the hit/miss split
/// is exact.
#[test]
fn cache_hit_accounting_is_exact() {
    let n = 40;
    let oracle = build_oracle(SchemeSpec::thorup_zwick(2), n);
    let server = SketchServer::start(
        Arc::clone(&oracle),
        ServeConfig::default().with_cache_capacity(1024),
    )
    .expect("server start");
    let client = server.client();

    // The same query 9 times, then once the other way round: estimates are
    // symmetric, so both orientations share one entry — 1 miss then 9 hits.
    for _ in 0..9 {
        client.query(NodeId(3), NodeId(7)).unwrap();
    }
    assert_eq!(
        client.query(NodeId(7), NodeId(3)),
        client.query_batch(&[(NodeId(3), NodeId(7))]).remove(0)
    );
    let stats = server.stats();
    assert_eq!(stats.totals.queries, 11);
    assert_eq!(stats.totals.cache_misses, 1);
    assert_eq!(stats.totals.cache_hits, 10);

    // A failing query repeated: errors are not cached, so every repeat
    // consults the oracle again.
    for _ in 0..5 {
        assert!(client.query(NodeId(999), NodeId(0)).is_err());
    }
    let stats = server.stats();
    assert_eq!(stats.totals.errors, 5);
    assert_eq!(stats.totals.cache_misses, 6, "failed queries never cache");
    assert_eq!(stats.totals.cache_hits, 10);

    // 30 distinct pairs never repeat: all misses.
    let distinct: Vec<(NodeId, NodeId)> = (0..30u32)
        .map(|i| (NodeId(i), NodeId((i + 1) % n as u32)))
        .collect();
    for result in client.query_batch(&distinct) {
        result.unwrap();
    }
    let stats = server.shutdown();
    assert_eq!(stats.totals.queries, 46);
    assert_eq!(stats.totals.cache_misses, 36);
    assert_eq!(stats.totals.cache_hits, 10);
    assert!(stats.totals.busy_nanos > 0, "latency is being measured");
}

/// A cache-disabled server (capacity 0) still answers correctly and reports
/// zero hits.
#[test]
fn zero_capacity_cache_disables_hits_not_answers() {
    let n = 32;
    let oracle = build_oracle(SchemeSpec::three_stretch(0.4), n);
    let server = SketchServer::start(
        Arc::clone(&oracle),
        ServeConfig::default().with_cache_capacity(0),
    )
    .expect("server start");
    let client = server.client();
    for _ in 0..3 {
        assert_eq!(
            client.query(NodeId(0), NodeId(9)),
            oracle.estimate(NodeId(0), NodeId(9))
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.totals.cache_hits, 0);
    assert_eq!(stats.totals.cache_misses, 3);
}

/// `estimate_batch` on the trait (the default implementation every oracle
/// inherits) agrees with the serving path.
#[test]
fn trait_level_batching_matches_server_batching() {
    let n = 40;
    let oracle = build_oracle(SchemeSpec::cdg(0.3, 2), n);
    let server =
        SketchServer::start(Arc::clone(&oracle), ServeConfig::default()).expect("server start");
    let client = server.client();
    let pairs = query_stream(n, 100, 9);
    assert_eq!(client.query_batch(&pairs), oracle.estimate_batch(&pairs));
}
