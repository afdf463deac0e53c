//! Deterministic schedule-stress harness: hammer the workspace's two
//! concurrency surfaces — `dsketch::parallel` and a `SketchServer` shared
//! by several calling threads — with seeded workloads designed to shuffle
//! thread interleavings, and assert the results are bit-identical to the
//! sequential oracle every time.
//!
//! The point is not to *prove* the absence of races (every crate is
//! `#![forbid(unsafe_code)]`, so the compiler already rules out data
//! races); it is to make schedule-dependence **observable**: every
//! assertion here compares a concurrent execution against a deterministic
//! reference, so any lost batch or miscounted query shows up as a value
//! mismatch under `cargo test` on any machine.
//!
//! All workloads are seeded (a splitmix-style generator below) — a failure
//! reproduces from the printed round/seed alone.

use dsketch::parallel::{parallel_map, parallel_map_with, spawn_named};
use dsketch::prelude::*;
use dsketch_serve::{ServeConfig, SketchServer};
use netgraph::generators::{erdos_renyi, GeneratorConfig};
use netgraph::{Distance, Graph, NodeId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// SplitMix64: a tiny seeded generator, so every stress round is
/// reproducible from its seed alone.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Burn a schedule-dependent amount of CPU (without sleeping) so items
/// finish out of order and workers steal across rounds.
fn jitter(fuel: u64) -> u64 {
    let mut acc = fuel | 1;
    for _ in 0..(fuel % 257) {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
    }
    acc
}

// ---------------------------------------------------------------------------
// parallel_map: same bits for every thread count, under skewed loads
// ---------------------------------------------------------------------------

#[test]
fn parallel_map_is_schedule_independent_under_skewed_load() {
    let mut seed = 0xD15_7A4CE;
    for round in 0..8 {
        let n = 64 + (splitmix(&mut seed) % 192) as usize;
        let items: Vec<u64> = (0..n).map(|_| splitmix(&mut seed)).collect();
        // Reference: the sequential execution.
        let expected: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| jitter(x).wrapping_add(i as u64))
            .collect();
        for threads in [2, 3, 4, 8, 16] {
            let got = parallel_map(threads, &items, |i, &x| jitter(x).wrapping_add(i as u64));
            assert_eq!(got, expected, "round {round}, {threads} threads");
        }
    }
}

#[test]
fn worker_scratch_state_cannot_leak_between_items() {
    // Each worker's scratch remembers the previous item it processed; the
    // per-item result must depend only on (index, item).  If scratch state
    // leaked into results, different schedules would produce different
    // outputs — and the equality against the sequential pass would fail.
    let items: Vec<u64> = (0..512).collect();
    let expected: Vec<u64> = items.iter().map(|&x| x * 7 + 1).collect();
    let inits = AtomicUsize::new(0);
    for threads in [2, 4, 8] {
        let got = parallel_map_with(
            threads,
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<u64>::new()
            },
            |scratch, _, &x| {
                scratch.push(x); // poison for the *next* item, if shared
                x * 7 + 1
            },
        );
        assert_eq!(got, expected, "{threads} threads");
    }
    // Scratch was created per worker, not per item (amortization contract)
    // and not shared (each init is a distinct Vec).
    assert!(inits.load(Ordering::Relaxed) <= 2 + 4 + 8);
}

// ---------------------------------------------------------------------------
// SketchServer: concurrent clients against the direct-oracle reference
// ---------------------------------------------------------------------------

fn graph(n: usize, seed: u64) -> Graph {
    erdos_renyi(n, 8.0 / n as f64, GeneratorConfig::uniform(seed, 1, 50))
}

fn build_oracle(n: usize, seed: u64) -> TzSketchSet {
    ThorupZwickScheme::new(2)
        .build(&graph(n, seed), &SchemeConfig::default().with_seed(seed))
        .unwrap()
        .sketches
}

/// Seeded query batches for one client thread.
fn client_batches(n: usize, seed: u64, batches: usize, batch: usize) -> Vec<Vec<(NodeId, NodeId)>> {
    let mut state = seed;
    (0..batches)
        .map(|_| {
            (0..batch)
                .map(|_| {
                    (
                        NodeId((splitmix(&mut state) % n as u64) as u32),
                        NodeId((splitmix(&mut state) % n as u64) as u32),
                    )
                })
                .collect()
        })
        .collect()
}

fn reference_answers(
    oracle: &dyn DistanceOracle,
    batches: &[Vec<(NodeId, NodeId)>],
) -> Vec<Option<Distance>> {
    batches
        .iter()
        .flatten()
        .map(|&(u, v)| oracle.estimate(u, v).ok())
        .collect()
}

/// The core stress: `clients` threads share one server, each replaying its
/// own seeded batches through its own client; every reply must equal the
/// direct oracle's answer for that client's own queries (a corrupted cache
/// entry surfaces as a mismatch, a lost counter update as a drifted total).
fn stress_server(
    oracle: Arc<dyn DistanceOracle>,
    config: ServeConfig,
    clients: usize,
    label: &str,
) {
    let n = oracle.num_nodes();
    let server = SketchServer::start(Arc::clone(&oracle), config).unwrap();
    let workloads: Vec<_> = (0..clients)
        .map(|c| client_batches(n, 0xC0FFEE + c as u64, 12, 32))
        .collect();

    let handles: Vec<_> = workloads
        .iter()
        .enumerate()
        .map(|(c, batches)| {
            let client = server.client();
            let batches = batches.clone();
            spawn_named(&format!("stress-client-{c}"), move || {
                let mut answers = Vec::new();
                for batch in &batches {
                    for result in client.query_batch(batch) {
                        answers.push(result.ok());
                    }
                }
                answers
            })
        })
        .collect();

    let answers: Vec<Vec<Option<Distance>>> = handles
        .into_iter()
        .map(|h| h.join().expect("stress client panicked"))
        .collect();
    let stats = server.shutdown();

    let mut total = 0u64;
    for (c, (got, batches)) in answers.iter().zip(&workloads).enumerate() {
        let expected = reference_answers(oracle.as_ref(), batches);
        assert_eq!(got, &expected, "{label}: client {c} got wrong answers");
        total += expected.len() as u64;
    }
    // Every query was counted exactly once — no lost or duplicated batches.
    assert_eq!(stats.totals.queries, total, "{label}: query count drifted");
    assert_eq!(stats.totals.errors, 0, "{label}: unexpected query errors");
}

#[test]
fn concurrent_clients_match_the_direct_oracle() {
    let oracle: Arc<dyn DistanceOracle> = Arc::new(build_oracle(96, 21));
    // Callers share the labels and the counters, nothing else: sweep the
    // caller count against cache off, a thrashing cache and a roomy one.
    for (clients, cache) in [(1, 0), (2, 16), (6, 0), (6, 64), (8, 1)] {
        let config = ServeConfig::default().with_cache_capacity(cache);
        stress_server(
            Arc::clone(&oracle),
            config,
            clients,
            &format!("clients={clients} cache={cache}"),
        );
    }
}

#[test]
fn frozen_and_map_backed_servers_agree_under_contention() {
    let built = build_oracle(96, 33);
    let frozen: Arc<dyn DistanceOracle> = Arc::new(built.freeze());
    let map_backed: Arc<dyn DistanceOracle> = Arc::new(built);

    // Same seeded workload against both representations, thrashing caches.
    let config = ServeConfig::default().with_cache_capacity(8);
    stress_server(Arc::clone(&map_backed), config, 4, "map-backed");
    stress_server(Arc::clone(&frozen), config, 4, "frozen");

    // And the two reference oracles answer identically, so the two stress
    // runs above pinned the same ground truth.
    let n = map_backed.num_nodes();
    let mut state = 0xFEED;
    for _ in 0..2_000 {
        let u = NodeId((splitmix(&mut state) % n as u64) as u32);
        let v = NodeId((splitmix(&mut state) % n as u64) as u32);
        assert_eq!(
            map_backed.estimate(u, v).ok(),
            frozen.estimate(u, v).ok(),
            "representations disagree at ({u}, {v})"
        );
    }
}

#[test]
fn repeated_rounds_are_reproducible() {
    // The whole harness is seeded: two identical rounds produce identical
    // answer vectors, so a failure elsewhere reproduces deterministically.
    let oracle: Arc<dyn DistanceOracle> = Arc::new(build_oracle(64, 5));
    let batches = client_batches(64, 99, 6, 16);
    let run = || {
        let server = SketchServer::start(Arc::clone(&oracle), ServeConfig::default()).unwrap();
        let client = server.client();
        let answers: Vec<Option<Distance>> = batches
            .iter()
            .flat_map(|batch| client.query_batch(batch))
            .map(Result::ok)
            .collect();
        server.shutdown();
        answers
    };
    assert_eq!(run(), run());
}
