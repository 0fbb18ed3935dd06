//! Criterion benches pinning the lazy-diffing / interval-GC win.
//!
//! Two claims are benchmarked, both at test scale so `cargo bench` stays
//! fast (set `CRITERION_FULL=1` for timed runs):
//!
//! * **lazy beats eager on the host**: under lazy timing the simulator skips
//!   the modeled-creation bookkeeping for diffs nobody requests, so a
//!   barrier-phased workload simulates at least as fast, and
//! * **GC keeps the logs flat**: with the interval GC (and its
//!   memory-pressure validation flush) a long-running workload's interval
//!   logs stay bounded instead of growing with run length.
//!
//! The assertions at the bottom are the non-perf halves of the same claims —
//! modeled execution time and retirement fraction — checked once per bench
//! run so a regression fails `cargo bench` loudly rather than only shifting
//! a number.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use tdsm_core::{DiffTiming, Topology};
use tm_apps::{jacobi, AppConfig};
use tm_bench::perf::jacobi_micro_config;

fn cfg(timing: DiffTiming) -> AppConfig {
    jacobi_micro_config(timing, Topology::default())
}

fn bench_diff_timing(c: &mut Criterion) {
    let mut group = c.benchmark_group("diffing");
    group.sample_size(10);

    // Jacobi is the workload whose interior diffs are never requested:
    // the strongest case for on-demand creation.
    let size = jacobi::JacobiSize::small();

    group.bench_function("jacobi_small_4procs_lazy", |b| {
        b.iter(|| black_box(jacobi::run_parallel(&cfg(DiffTiming::Lazy), &size).checksum))
    });

    group.bench_function("jacobi_small_4procs_eager", |b| {
        b.iter(|| black_box(jacobi::run_parallel(&cfg(DiffTiming::Eager), &size).checksum))
    });

    group.finish();

    // Pin the modeled half of the win: lazy charges creation only for
    // requested diffs, so the modeled execution time must not exceed
    // eager's on this workload.
    let lazy = jacobi::run_parallel(&cfg(DiffTiming::Lazy), &size);
    let eager = jacobi::run_parallel(&cfg(DiffTiming::Eager), &size);
    assert!(
        lazy.exec_time_ns <= eager.exec_time_ns,
        "lazy ({}) must not be slower than eager ({}) in modeled time",
        lazy.exec_time_ns,
        eager.exec_time_ns
    );
    // And the message identity the equivalence rests on.
    assert_eq!(
        lazy.breakdown.total_messages(),
        eager.breakdown.total_messages()
    );

    // Pin the GC half: with an aggressive flush limit the interval logs
    // retire nearly everything; with the flush disabled this workload
    // retires nothing (its interior notices pin the floors forever).
    let gc = jacobi::run_parallel(
        &{
            let mut c = cfg(DiffTiming::Lazy);
            c.gc_flush_pending_limit = 64;
            c
        },
        &size,
    )
    .stats
    .gc_counters();
    assert!(
        gc.retired_fraction() > 0.5,
        "GC with flush must retire the bulk of the logs: {gc:?}"
    );
}

criterion_group!(benches, bench_diff_timing);
criterion_main!(benches);
