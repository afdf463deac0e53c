//! Layer `netgraph`: generators, fingerprint, single-source shortest paths.

use super::{Bench, Ctx};
use netgraph::shortest_path::dijkstra;
use std::hint::black_box;

pub fn probe(ctx: &Ctx<'_>, bench: &mut Bench<'_>) -> Result<(), String> {
    let graph = &ctx.life.built[0].graph;
    // Timed where it happened: the `graph.generate` spans of the life cycle.
    let generate_s = ctx.life.reps.last().map_or(f64::NAN, |rep| rep.generate_s);
    bench.put("graph.generate_s", generate_s);

    let ns = bench.per_unit_ns("graph.fingerprint", 1, || {
        black_box(graph.fingerprint());
    });
    bench.put("graph.fingerprint_ms", ns / 1e6);

    let source = ctx.prep.pool[0].0;
    let ns = bench.per_unit_ns("graph.sssp", 1, || {
        black_box(dijkstra(graph, source));
    });
    bench.put("graph.sssp_ms", ns / 1e6);
    Ok(())
}
