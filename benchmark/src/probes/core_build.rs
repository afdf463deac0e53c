//! Layer `dsketch::build`: the direct Thorup–Zwick engine (k = 3) on the
//! served graph, on two threads and on one, with the phase timings the
//! build itself returns.

use super::{Bench, Ctx};
use crate::lifecycle::scheme_config;
use crate::workloads::BUILD_THREADS;
use dsketch::build::thorup_zwick;
use dsketch::hierarchy::{Hierarchy, TzParams};

pub fn probe(ctx: &Ctx<'_>, bench: &mut Bench<'_>) -> Result<(), String> {
    let graph = &ctx.life.built[0].graph;
    let params = TzParams::new(3).with_seed(scheme_config(ctx.workload).seed);
    let (hierarchy, _) = Hierarchy::sample_until_top_nonempty(graph.num_nodes(), &params, 1000)
        .map_err(|e| e.to_string())?;

    let (parallel, parallel_s) = bench.once("core.build.tz_direct", || {
        thorup_zwick(graph, &hierarchy, BUILD_THREADS)
    });
    bench.put("core.build.tz_direct_s", parallel_s);
    bench.put(
        "core.build.cluster_pairs",
        parallel.total_cluster_size as f64,
    );
    for (phase, metric) in [
        ("tz/pivots", "core.build.pivots_s"),
        ("tz/clusters", "core.build.clusters_s"),
        ("tz/merge", "core.build.merge_s"),
    ] {
        let seconds = parallel
            .timings
            .phases
            .iter()
            .find(|p| p.phase == phase)
            .map_or(f64::NAN, |p| p.seconds);
        bench.put(metric, seconds);
    }
    drop(parallel);

    let (_, single_s) = bench.once("core.build.tz_direct_t1", || {
        thorup_zwick(graph, &hierarchy, 1)
    });
    bench.put("core.build.tz_direct_t1_s", single_s);
    bench.put("core.build.parallel_speedup", single_s / parallel_s);
    Ok(())
}
