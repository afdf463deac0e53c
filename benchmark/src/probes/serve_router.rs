//! Layer `dsketch_serve::server`: the shard router in process — scatter,
//! bounded queue, shard worker, reply channel — with the result cache on
//! and off, in batches of 64 and one pair at a time.

use super::{Bench, Ctx};
use crate::drive::{serve_config, CACHE_CAPACITY};
use crate::workloads::BATCH;
use dsketch_serve::SketchServer;
use std::hint::black_box;
use std::sync::Arc;

pub fn probe(ctx: &Ctx<'_>, bench: &mut Bench<'_>) -> Result<(), String> {
    let oracle = &ctx.life.built[0].oracle;
    let pool = &ctx.prep.pool;

    for (span, metric, capacity) in [
        (
            "serve.router.query",
            "serve.router.query_ns",
            CACHE_CAPACITY,
        ),
        (
            "serve.router.nocache_query",
            "serve.router.nocache_query_ns",
            0,
        ),
    ] {
        let server = SketchServer::start(Arc::clone(oracle), serve_config(capacity))
            .map_err(|e| e.to_string())?;
        let client = server.client();
        let mut cursor = 0;
        let ns = bench.per_unit_ns(span, BATCH as u64, || {
            black_box(client.query_batch(&pool[cursor..cursor + BATCH]));
            cursor = (cursor + BATCH) % pool.len();
        });
        bench.put(metric, ns);
        if capacity > 0 {
            let mut cursor = 0;
            let ns = bench.per_unit_ns("serve.router.single", 1, || {
                let (u, v) = pool[cursor];
                let _ = black_box(client.query(u, v));
                cursor = (cursor + 1) % pool.len();
            });
            bench.put("serve.router.single_us", ns / 1e3);
        }
        drop(client);
        let stats = server.shutdown();
        if capacity > 0 {
            bench.put("serve.router.service_ns", stats.totals.avg_latency_nanos());
        }
    }
    Ok(())
}
