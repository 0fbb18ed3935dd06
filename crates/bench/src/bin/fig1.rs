//! Regenerates Figure 1 of the paper: 8-processor execution times, message
//! counts and data volumes for Barnes, Ilink, TSP and Water under 4 K, 8 K,
//! 16 K and dynamic-aggregation consistency units, normalized to 4 K, with
//! the useful / useless / piggybacked breakdown.
//!
//! Usage: `cargo run -p tm-bench --release --bin fig1 -- [nprocs] [--tiny]
//! [--threads N] [--seed N] [--schedule fifo|seeded]
//! [--format human|json|csv] [--out FILE]`

use tm_bench::{BenchArgs, Experiment};

fn main() {
    let args = BenchArgs::parse(8);
    let exp = Experiment::fig1(&args);
    args.run_and_emit(&exp);
}
