//! Layer `dsketch-obs`: what one counter increment, one histogram sample
//! and one Prometheus render of a running server's registry cost.

use super::{Bench, Ctx};
use crate::drive::{serve_config, CACHE_CAPACITY};
use crate::workloads::BATCH;
use dsketch_obs::{prometheus, Counter, Histogram};
use dsketch_serve::SketchServer;
use std::hint::black_box;
use std::sync::Arc;

const STRIDE: u64 = 1024;

pub fn probe(ctx: &Ctx<'_>, bench: &mut Bench<'_>) -> Result<(), String> {
    let counter = Counter::new();
    let ns = bench.per_unit_ns("obs.counter_inc", STRIDE, || {
        for _ in 0..STRIDE {
            black_box(&counter).inc();
        }
    });
    bench.put("obs.counter_inc_ns", ns);

    let histogram = Histogram::new();
    let ns = bench.per_unit_ns("obs.histogram_record", STRIDE, || {
        for value in 0..STRIDE {
            black_box(&histogram).record(black_box(value * 37));
        }
    });
    bench.put("obs.histogram_record_ns", ns);

    let server = SketchServer::start(
        Arc::clone(&ctx.life.built[0].oracle),
        serve_config(CACHE_CAPACITY),
    )
    .map_err(|e| e.to_string())?;
    let client = server.client();
    black_box(client.query_batch(&ctx.prep.pool[..BATCH]));
    drop(client);
    let ns = bench.per_unit_ns("obs.render", 1, || {
        black_box(prometheus::encode(&[&server.registry().snapshot()]));
    });
    bench.put("obs.render_us", ns / 1e3);
    Ok(())
}
