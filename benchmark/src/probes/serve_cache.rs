//! Layer `dsketch_serve::cache`: the per-shard LRU on the workload's own
//! key stream (pairs canonically ordered, as the shard worker orders them),
//! and the hit ratio the shard router reaches on that stream.

use super::{Bench, Ctx};
use crate::drive::{serve_config, CACHE_CAPACITY};
use crate::traffic::Pair;
use crate::workloads::BATCH;
use dsketch_serve::cache::LruCache;
use dsketch_serve::SketchServer;
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;

/// Batches sent, on one connection, before the hit ratio is read.  A fixed
/// count on one client makes the ratio exact for a seed.
const HIT_RATIO_BATCHES: usize = 2048;
const STRIDE: usize = 1024;

fn canonical((u, v): Pair) -> Pair {
    if v < u {
        (v, u)
    } else {
        (u, v)
    }
}

pub fn probe(ctx: &Ctx<'_>, bench: &mut Bench<'_>) -> Result<(), String> {
    let pool = &ctx.prep.pool;
    // The stream's distinct keys, in order of first appearance.
    let mut seen = HashSet::new();
    let distinct: Vec<Pair> = pool
        .iter()
        .take(1 << 16)
        .map(|&pair| canonical(pair))
        .filter(|&key| seen.insert(key))
        .collect();
    if distinct.len() < 2 * CACHE_CAPACITY {
        return Err(format!("only {} distinct keys in the pool", distinct.len()));
    }

    let mut cache: LruCache<Pair, (u64, u64)> = LruCache::new(CACHE_CAPACITY);
    let resident = &distinct[..CACHE_CAPACITY];
    for &key in resident {
        cache.insert(key, (1, 0));
    }
    let mut cursor = 0;
    let ns = bench.per_unit_ns("serve.cache.hit", STRIDE as u64, || {
        for key in &resident[cursor..cursor + STRIDE] {
            black_box(cache.get(key));
        }
        cursor = (cursor + STRIDE) % CACHE_CAPACITY;
    });
    bench.put("serve.cache.hit_ns", ns);

    // Twice the capacity apart, a key is evicted before it comes round again.
    let mut cache: LruCache<Pair, (u64, u64)> = LruCache::new(CACHE_CAPACITY);
    let mut cursor = 0;
    let ns = bench.per_unit_ns("serve.cache.miss_insert", STRIDE as u64, || {
        for i in 0..STRIDE {
            let key = distinct[(cursor + i) % distinct.len()];
            if cache.get(&key).is_none() {
                cache.insert(key, (1, 0));
            }
        }
        cursor = (cursor + STRIDE) % distinct.len();
    });
    bench.put("serve.cache.miss_insert_ns", ns);

    let server = SketchServer::start(
        Arc::clone(&ctx.life.built[0].oracle),
        serve_config(CACHE_CAPACITY),
    )
    .map_err(|e| e.to_string())?;
    let client = server.client();
    let batches = HIT_RATIO_BATCHES.min(pool.len() / BATCH);
    bench.once("serve.cache.hit_ratio", || {
        for batch in pool.chunks(BATCH).take(batches) {
            black_box(client.query_batch(batch));
        }
    });
    drop(client);
    bench.put("serve.cache.hit_ratio", server.shutdown().totals.hit_rate());
    Ok(())
}
