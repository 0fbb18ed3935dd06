//! Regenerates Figure 2 of the paper: 8-processor execution times, message
//! counts and data volumes for Jacobi, 3D-FFT, MGS and Shallow — the
//! applications whose false-sharing behaviour depends on the problem size —
//! under 4 K, 8 K, 16 K and dynamic consistency units, normalized to 4 K.
//!
//! Usage: `cargo run -p tm-bench --release --bin fig2 -- [nprocs] [--tiny]
//! [--threads N] [--seed N] [--schedule fifo|seeded]
//! [--format human|json|csv] [--out FILE]`

use tm_bench::{BenchArgs, Experiment};

fn main() {
    let args = BenchArgs::parse(8);
    let exp = Experiment::fig2(&args);
    args.run_and_emit(&exp);
}
