//! Criterion bench for the frozen flat query path: per-node `Sketch`
//! sketches vs the `FlatSketchSet` CSR layout, per family, single and
//! batched submission.
//!
//! The interesting comparison is `btree/*` vs `flat/*` within one family:
//! identical answers, with every bunch probe turned from B-tree pointer
//! chasing into a binary search (level walk) or linear merge (best common)
//! over contiguous arrays.  Experiment `e15` measures the same matrix with
//! wall-clock throughput numbers and writes `BENCH_query.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dsketch::prelude::*;
use dsketch_bench::workloads::{QueryWorkload, Workload, WorkloadSpec};
use dsketch_store::build_stored;
use std::hint::black_box;

fn bench_flat_query(c: &mut Criterion) {
    let n = 512;
    let graph = WorkloadSpec::new(Workload::ErdosRenyi, n, 13).build();
    let pairs = QueryWorkload::Uniform.generate(n, 8192, 7);

    let mut group = c.benchmark_group("flat_query");
    group.throughput(Throughput::Elements(pairs.len() as u64));
    for spec in SchemeSpec::all_families() {
        let contents = build_stored(
            &graph,
            spec,
            &SchemeConfig::default().with_seed(5).with_parallel_build(),
        )
        .expect("construction");
        let flat = contents.sketches.freeze();
        let btree = contents.sketches.as_oracle();

        group.bench_function(format!("btree/{spec}"), |b| {
            b.iter(|| {
                let mut total = 0u64;
                for &(u, v) in &pairs {
                    total = total.wrapping_add(btree.estimate(u, v).unwrap_or(u64::MAX));
                }
                black_box(total)
            })
        });
        group.bench_function(format!("flat/{spec}"), |b| {
            b.iter(|| {
                let mut total = 0u64;
                for &(u, v) in &pairs {
                    total = total.wrapping_add(flat.estimate(u, v).unwrap_or(u64::MAX));
                }
                black_box(total)
            })
        });
        group.bench_function(format!("flat_batched/{spec}"), |b| {
            b.iter(|| {
                let mut total = 0u64;
                for chunk in pairs.chunks(256) {
                    for result in flat.estimate_batch(chunk) {
                        total = total.wrapping_add(result.unwrap_or(u64::MAX));
                    }
                }
                black_box(total)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_flat_query);
criterion_main!(benches);
