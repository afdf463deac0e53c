//! Layer `dsketch_serve::swap`: the generation cell's three operations, a
//! whole snapshot swap in process, and one over the wire.

use super::{Bench, Ctx};
use crate::drive::{connect, serve_config, start_net_server, CACHE_CAPACITY};
use crate::stats::Summary;
use dsketch_obs::{MetricsRegistry, Tracer};
use dsketch_serve::{SketchServer, SwapCell};
use std::hint::black_box;
use std::sync::Arc;

const STRIDE: u64 = 1024;

pub fn probe(ctx: &Ctx<'_>, bench: &mut Bench<'_>) -> Result<(), String> {
    let cell = SwapCell::new(Arc::new(0u64));
    let ns = bench.per_unit_ns("serve.swap.load", STRIDE, || {
        for _ in 0..STRIDE {
            black_box(cell.load());
        }
    });
    bench.put("serve.swap.load_ns", ns);
    let ns = bench.per_unit_ns("serve.swap.version", STRIDE, || {
        for _ in 0..STRIDE {
            black_box(cell.version());
        }
    });
    bench.put("serve.swap.version_ns", ns);
    let mut next = 0u64;
    let ns = bench.per_unit_ns("serve.swap.store", STRIDE, || {
        for _ in 0..STRIDE {
            next += 1;
            black_box(cell.store(Arc::new(next)));
        }
    });
    bench.put("serve.swap.store_us", ns / 1e3);

    let served = &ctx.life.built[0];
    let origin = Some((served.spec, served.graph.fingerprint()));
    let server = SketchServer::start_with_origin(
        Arc::clone(&served.oracle),
        serve_config(CACHE_CAPACITY),
        Arc::new(MetricsRegistry::new()),
        Arc::new(Tracer::one_in(0)),
        origin,
    )
    .map_err(|e| e.to_string())?;
    let (generation, seconds) =
        bench.once("serve.swap.snapshot", || server.swap_snapshot(&served.path));
    generation.map_err(|e| e.to_string())?;
    bench.put("serve.swap.snapshot_ms", seconds * 1e3);
    drop(server);

    // Under query load where the workload swaps; one idle swap elsewhere.
    if ctx.phase.swap_ms.is_empty() {
        let server = start_net_server(
            Arc::clone(&served.oracle),
            served.spec,
            served.graph.fingerprint(),
        )?;
        let mut client = connect(&server)?;
        let path = served.path.to_string_lossy();
        let (generation, seconds) = bench.once("serve.swap.net", || client.swap(&path));
        generation.map_err(|e| e.to_string())?;
        bench.put("serve.swap.net_ms", seconds * 1e3);
        drop(client);
        server.shutdown();
    } else {
        bench.put_summary("serve.swap.net_ms", Summary::of(&ctx.phase.swap_ms));
    }
    Ok(())
}
