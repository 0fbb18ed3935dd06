//! Criterion micro-benchmarks of the DSM primitives that §5.1 of the paper
//! characterizes on its hardware: diff creation and application, twin
//! creation, page-fault handling (producer/consumer over a barrier), lock
//! transfer, and barrier crossing.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use tdsm_core::{Align, CostModel, Dsm, DsmConfig, UnitPolicy};
use tm_bench::perf::{diff_inputs, dirty_and_twin};
use tm_page::{Diff, LocalPage, PageId};

fn small_config(nprocs: usize) -> DsmConfig {
    DsmConfig {
        nprocs,
        page_size: 4096,
        shared_pages: 256,
        unit: UnitPolicy::Static { pages: 1 },
        cost: CostModel::pentium_ethernet_1997(),
        max_locks: 64,
        sched: tdsm_core::SchedConfig::default(),
        ..DsmConfig::paper_default()
    }
}

fn bench_diff_create(c: &mut Criterion) {
    let mut group = c.benchmark_group("diff");
    let (twin, sparse, dense) = diff_inputs();

    group.bench_function("create_sparse_page", |b| {
        b.iter(|| Diff::create(PageId(0), black_box(&twin), black_box(&sparse)))
    });
    group.bench_function("create_full_page", |b| {
        b.iter(|| Diff::create(PageId(0), black_box(&twin), black_box(&dense)))
    });
    let diff = Diff::create(PageId(0), &twin, &dense);
    group.bench_function("apply_full_page", |b| {
        b.iter_batched(
            || twin.clone(),
            |mut target| diff.apply(black_box(&mut target)),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("twin_creation", |b| {
        b.iter_batched(
            || LocalPage::new_zeroed(4096),
            |mut page| black_box(dirty_and_twin(&mut page)),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_fault_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol");
    group.sample_size(20);

    // Producer/consumer page transfer over a barrier: the canonical fault +
    // diff-fetch path.
    group.bench_function("page_transfer_2procs", |b| {
        b.iter(|| {
            let mut dsm = Dsm::new(small_config(2));
            let arr = dsm.alloc_array::<u64>(512, Align::Page);
            let out = dsm.run(async |ctx| {
                if ctx.rank() == 0 {
                    let vals: Vec<u64> = (0..512).collect();
                    arr.write_slice(ctx, 0, &vals).await;
                }
                ctx.barrier().await;
                if ctx.rank() == 1 {
                    arr.read_vec(ctx, 0, 512).await.iter().sum::<u64>()
                } else {
                    0
                }
            });
            black_box(out.results[1])
        })
    });

    group.bench_function("lock_handoff_4procs", |b| {
        b.iter(|| {
            let mut dsm = Dsm::new(small_config(4));
            let counter = dsm.alloc_scalar::<u64>(Align::Page);
            let out = dsm.run(async |ctx| {
                for _ in 0..10 {
                    ctx.acquire(0).await;
                    let v = counter.get(ctx).await;
                    counter.set(ctx, v + 1).await;
                    ctx.release(0).await;
                }
                ctx.barrier().await;
                counter.get(ctx).await
            });
            black_box(out.results[0])
        })
    });

    group.bench_function("barrier_8procs", |b| {
        b.iter(|| {
            let dsm = Dsm::new(small_config(8));
            let out = dsm.run(async |ctx| {
                for _ in 0..20 {
                    ctx.barrier().await;
                }
                ctx.rank()
            });
            black_box(out.results.len())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_diff_create, bench_fault_path);
criterion_main!(benches);
