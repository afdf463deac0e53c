//! Layer `dsketch::codec`: the family payload, encoded and decoded both ways.

use super::{Bench, Ctx};
use dsketch::FlatSketchSet;
use dsketch_store::StoredSketches;

pub fn probe(ctx: &Ctx<'_>, bench: &mut Bench<'_>) -> Result<(), String> {
    let served = &ctx.life.built[0];
    let contents = served
        .contents
        .as_ref()
        .ok_or("traced run keeps the sketches")?;
    let (payload, seconds) = bench.once("core.codec.encode", || contents.sketches.encode_payload());
    bench.put("core.codec.encode_s", seconds);

    let (flat, seconds) = bench.once("core.codec.decode_flat", || {
        FlatSketchSet::from_family_bytes(&served.spec, &payload)
    });
    flat.map_err(|e| e.to_string())?;
    bench.put("core.codec.decode_flat_s", seconds);

    let (map, seconds) = bench.once("core.codec.decode_map", || {
        StoredSketches::decode_payload(&served.spec, &payload)
    });
    map.map_err(|e| e.to_string())?;
    bench.put("core.codec.decode_map_s", seconds);
    Ok(())
}
