//! Ablation: how large should a dynamic page group be allowed to grow?
//!
//! The paper's §4 leaves the maximum pages per group "implementation
//! dependent".  This harness sweeps the limit (2, 4, 8, 16 pages) over a
//! representative pair of applications — one that loves aggregation (Ilink)
//! and one that is hurt by false sharing (MGS) — and reports execution time
//! and message counts relative to the 4 KB static baseline.
//!
//! Usage: `cargo run -p tm-bench --release --bin fig_dyn_group -- [nprocs]
//! [--tiny] [--threads N] [--seed N] [--schedule fifo|seeded]
//! [--format human|json|csv] [--out FILE]`

use tm_bench::{BenchArgs, Experiment};

fn main() {
    let args = BenchArgs::parse(8);
    let exp = Experiment::dyn_group(&args);
    args.run_and_emit(&exp);
}
