//! The layer budget: nanoseconds per query as the same pairs go through
//! successively thicker stacks, and what each layer adds.  The five rows
//! sum to `serve.net.frame_us / 64` by construction; a row can be negative
//! (the cache row is, where hits save more kernel time than probes cost).

use super::{Bench, Ctx};
use crate::workloads::BATCH;

pub fn probe(_ctx: &Ctx<'_>, bench: &mut Bench<'_>) -> Result<(), String> {
    let kernel = bench.get("core.flat.estimate_batch_ns");
    let router_nocache = bench.get("serve.router.nocache_query_ns");
    let router = bench.get("serve.router.query_ns");
    let codec: f64 = [
        "req_encode_ns",
        "req_decode_ns",
        "resp_encode_ns",
        "resp_decode_ns",
    ]
    .iter()
    .map(|row| bench.get(&format!("serve.net.protocol.{row}")))
    .sum();
    let wire = bench.get("serve.net.frame_us") * 1e3 / BATCH as f64;
    bench.put("budget.kernel_ns", kernel);
    bench.put("budget.router_ns", router_nocache - kernel);
    bench.put("budget.cache_ns", router - router_nocache);
    bench.put("budget.codec_ns", codec);
    bench.put("budget.socket_ns", wire - router - codec);
    Ok(())
}
