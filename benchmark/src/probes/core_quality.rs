//! The paper's quality columns beside `stretch_max` and `label_words_avg`.

use super::{Bench, Ctx};

pub fn probe(ctx: &Ctx<'_>, bench: &mut Bench<'_>) -> Result<(), String> {
    bench.put("core.stretch_avg", ctx.prep.stretch.avg);
    bench.put(
        "core.label_words_max",
        ctx.life.built[0].oracle.max_words() as f64,
    );
    Ok(())
}
