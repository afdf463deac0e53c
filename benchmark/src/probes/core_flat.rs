//! Layer `dsketch::flat`, query side: the frozen kernel, one pair at a time
//! and in batches of 64, on one thread.

use super::{Bench, Ctx};
use crate::workloads::BATCH;
use std::hint::black_box;

/// Pairs answered between two readings of the clock.
const STRIDE: usize = 1024;

pub fn probe(ctx: &Ctx<'_>, bench: &mut Bench<'_>) -> Result<(), String> {
    let oracle = ctx.life.built[0].oracle.as_ref();
    let pool = &ctx.prep.pool;
    let mut cursor = 0;
    let mut next = |len: usize| {
        let start = cursor;
        cursor = (cursor + len) % pool.len();
        &pool[start..start + len]
    };

    let ns = bench.per_unit_ns("core.flat.estimate", STRIDE as u64, || {
        for &(u, v) in next(STRIDE) {
            let _ = black_box(oracle.estimate(u, v));
        }
    });
    bench.put("core.flat.estimate_ns", ns);

    let ns = bench.per_unit_ns("core.flat.estimate_batch", STRIDE as u64, || {
        for batch in next(STRIDE).chunks(BATCH) {
            black_box(oracle.estimate_batch(batch));
        }
    });
    bench.put("core.flat.estimate_batch_ns", ns);
    Ok(())
}
