//! What the workload's two clients saw in the query phase, taken from the
//! segments that recorded no spans, and what recording spans cost in the
//! alternating segments that did.

use super::{Bench, Ctx};
use crate::drive::ClientView;
use crate::stats::Summary;

pub fn probe(ctx: &Ctx<'_>, bench: &mut Bench<'_>) -> Result<(), String> {
    let quiet = ctx.phase.quiet_segments(false);
    let together = ClientView::over(&quiet);
    let one_by_one: Vec<ClientView> = quiet.iter().map(|s| ClientView::over(&[s])).collect();
    for (metric, f) in [
        ("client.qps", (|v| v.qps) as fn(&ClientView) -> f64),
        ("client.batch_p50_us", |v| v.p50_us),
        ("client.batch_p99_us", |v| v.p99_us),
    ] {
        let samples: Vec<f64> = one_by_one.iter().map(f).collect();
        bench.put_summary(
            metric,
            Summary {
                value: f(&together),
                ..Summary::of(&samples)
            },
        );
    }
    bench.put("client.cpu_us_per_query", ctx.phase.cpu_us_per_query());
    let with_spans = ClientView::over(&ctx.phase.quiet_segments(true));
    bench.put(
        "trace.overhead_pct",
        (together.qps - with_spans.qps) / together.qps * 100.0,
    );
    Ok(())
}
