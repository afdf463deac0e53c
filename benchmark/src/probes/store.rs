//! Layer `dsketch-store`: the DSK1 pipeline.  Build, encode, save and cold
//! load were timed where they ran, as spans of the life cycle; reading a
//! frozen oracle from bytes already in memory is timed here.

use super::{Bench, Ctx};
use dsketch_store::read_frozen_oracle;

pub fn probe(ctx: &Ctx<'_>, bench: &mut Bench<'_>) -> Result<(), String> {
    let rep = ctx.life.reps.last().ok_or("no life-cycle repetition")?;
    bench.put("store.build_stored_s", rep.build_s);
    bench.put("store.write_snapshot_s", rep.encode_s);
    bench.put("store.save_fsync_s", rep.save_s);
    bench.put("store.load_frozen_s", rep.cold_start_s);

    let (oracle, seconds) = bench.once("store.read_frozen_oracle", || {
        read_frozen_oracle(ctx.snapshot)
    });
    oracle.map_err(|e| e.to_string())?;
    bench.put("store.read_frozen_s", seconds);

    let bytes: u64 = ctx.life.built.iter().map(|b| b.snapshot_bytes).sum();
    let nodes: usize = ctx.life.built.iter().map(|b| b.graph.num_nodes()).sum();
    bench.put("store.bytes_per_node", bytes as f64 / nodes as f64);
    Ok(())
}
