//! The cluster-size sweep: the 4 KB / 16 KB false-sharing-vs-aggregation
//! trade-off under both write protocols at 64, 256 and 1024 processors
//! (Jacobi, tiny data set — the artifact is the shape of the scaling curve,
//! and the tiny set keeps the 1024-processor points tractable).
//!
//! `--topology`/`--aggregation` apply to every cell, so the same curves can
//! be charted on the ideal, bus and switched interconnects; the processor
//! counts and protocols are the grid's own axes.  `--tiny` shrinks the
//! cluster axis to 8/32/128 (the same 4x ladder) for smoke runs.
//!
//! Usage: `cargo run -p tm-bench --release --bin fig_scale -- [--tiny]
//! [--threads N] [--seed N] [--schedule fifo|seeded]
//! [--topology ideal|bus|switched] [--aggregation per-message|batched]
//! [--format human|json|csv] [--out FILE]`

use tm_bench::{BenchArgs, Experiment};

fn main() {
    let args = BenchArgs::parse(8);
    let exp = Experiment::fig_scale(&args);
    args.run_and_emit(&exp);
}
