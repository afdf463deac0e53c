//! Layer `dsketch-faults`: a failpoint with nothing armed, as every save,
//! load and shard dispatch passes one.

use super::{Bench, Ctx};
use std::hint::black_box;

const STRIDE: u64 = 1024;

pub fn probe(_ctx: &Ctx<'_>, bench: &mut Bench<'_>) -> Result<(), String> {
    if dsketch_faults::armed() {
        return Err("a failpoint is armed".to_string());
    }
    let ns = bench.per_unit_ns("faults.disarmed", STRIDE, || {
        for _ in 0..STRIDE {
            black_box(dsketch_faults::fail_point!(black_box("benchmark.probe")));
        }
    });
    bench.put("faults.disarmed_ns", ns);
    Ok(())
}
