//! Layer `dsketch::hierarchy`: sampling the level hierarchy.

use super::{Bench, Ctx};
use crate::lifecycle::scheme_config;
use dsketch::hierarchy::{Hierarchy, TzParams};
use std::hint::black_box;

pub fn probe(ctx: &Ctx<'_>, bench: &mut Bench<'_>) -> Result<(), String> {
    let n = ctx.life.built[0].graph.num_nodes();
    let params = TzParams::new(3).with_seed(scheme_config(ctx.workload).seed);
    let ns = bench.per_unit_ns("core.hierarchy.sample", 1, || {
        black_box(Hierarchy::sample(n, &params).is_ok());
    });
    bench.put("core.hierarchy.sample_ms", ns / 1e6);
    Ok(())
}
