//! Layer `dsketch-analysis`: the deep snapshot verifier every swap runs.

use super::{Bench, Ctx};
use dsketch_analysis::verify_snapshot_bytes;

pub fn probe(ctx: &Ctx<'_>, bench: &mut Bench<'_>) -> Result<(), String> {
    let (report, seconds) = bench.once("analysis.verify", || verify_snapshot_bytes(ctx.snapshot));
    report.map_err(|e| e.to_string())?;
    bench.put("analysis.verify_s", seconds);
    Ok(())
}
