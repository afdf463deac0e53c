//! Layer `dsketch::flat`, build side: packing map-form labels into CSR.

use super::{Bench, Ctx};

pub fn probe(ctx: &Ctx<'_>, bench: &mut Bench<'_>) -> Result<(), String> {
    let contents = ctx.life.built[0]
        .contents
        .as_ref()
        .ok_or("traced run keeps the sketches")?;
    let (_, seconds) = bench.once("core.freeze", || contents.sketches.freeze());
    bench.put("core.freeze_s", seconds);
    Ok(())
}
