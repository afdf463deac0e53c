//! Layer `dsketch::sketch` / `query`: the BTreeMap-path estimate on the
//! unfrozen set, which the served path no longer takes.

use super::{Bench, Ctx};
use std::hint::black_box;

const STRIDE: usize = 1024;

pub fn probe(ctx: &Ctx<'_>, bench: &mut Bench<'_>) -> Result<(), String> {
    let contents = ctx.life.built[0]
        .contents
        .as_ref()
        .ok_or("traced run keeps the sketches")?;
    let oracle = contents.sketches.as_oracle();
    let pool = &ctx.prep.pool;
    let mut cursor = 0;
    let ns = bench.per_unit_ns("core.sketch.estimate", STRIDE as u64, || {
        for &(u, v) in &pool[cursor..cursor + STRIDE] {
            let _ = black_box(oracle.estimate(u, v));
        }
        cursor = (cursor + STRIDE) % pool.len();
    });
    bench.put("core.sketch.estimate_ns", ns);
    Ok(())
}
