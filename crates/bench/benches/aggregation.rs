//! Criterion benchmarks of the aggregation trade-off itself: the same
//! producer/consumer and falsely shared workloads run under the 4 KB unit,
//! the 16 KB unit and dynamic aggregation.
//!
//! Together with the `fig1`/`fig2` binaries (which report modeled 1997-time),
//! these measure the host-side protocol overhead of each policy — the
//! "monitoring cost" of dynamic aggregation the paper argues is small.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use tdsm_core::{Align, Dsm, Topology, UnitPolicy};
use tm_bench::perf::{micro_dsm_config, producer_consumer};

/// Cyclically interleaved writers: every processor writes every fourth page
/// slot and reads only its own (false-sharing heavy at large units).
fn interleaved_writers(unit: UnitPolicy) -> u64 {
    let mut dsm = Dsm::new(micro_dsm_config(unit, Topology::default()));
    let arr = dsm.alloc_array::<u64>(32 * 512, Align::Page);
    let out = dsm.run(async |ctx| {
        let me = ctx.rank();
        let nprocs = ctx.nprocs();
        for round in 0..4u64 {
            for slot in (me..32).step_by(nprocs) {
                let vals: Vec<u64> = (0..512u64).map(|i| i + round).collect();
                arr.write_slice(ctx, slot * 512, &vals).await;
            }
            ctx.barrier().await;
            let mut sum = 0u64;
            for slot in (me..32).step_by(nprocs) {
                sum += arr.read_vec(ctx, slot * 512, 512).await.iter().sum::<u64>();
            }
            ctx.barrier().await;
            if round == 3 {
                return sum;
            }
        }
        0
    });
    out.results[0]
}

fn bench_aggregation(c: &mut Criterion) {
    let policies = [
        ("4K", UnitPolicy::Static { pages: 1 }),
        ("16K", UnitPolicy::Static { pages: 4 }),
        ("Dyn", UnitPolicy::Dynamic { max_group_pages: 4 }),
    ];

    let mut group = c.benchmark_group("producer_consumer");
    group.sample_size(20);
    for (label, unit) in policies {
        group.bench_with_input(BenchmarkId::from_parameter(label), &unit, |b, &unit| {
            b.iter(|| black_box(producer_consumer(unit, 16, Topology::default())))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("interleaved_writers");
    group.sample_size(20);
    for (label, unit) in policies {
        group.bench_with_input(BenchmarkId::from_parameter(label), &unit, |b, &unit| {
            b.iter(|| black_box(interleaved_writers(unit)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_aggregation);
criterion_main!(benches);
