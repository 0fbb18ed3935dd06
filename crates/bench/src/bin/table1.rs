//! Regenerates Table 1 of the paper: applications, data sets, sequential
//! execution time and 8-processor speedup with the 4 KB consistency unit.
//!
//! Times are *modeled* (cost-model driven), so absolute values are not
//! comparable to the 1997 testbed; the speedup column is the quantity whose
//! shape should match the paper (roughly 4–6.5 on 8 processors).
//!
//! Usage: `cargo run -p tm-bench --release --bin table1 -- [nprocs] [--tiny]
//! [--threads N] [--seed N] [--schedule fifo|seeded]
//! [--format human|json|csv] [--out FILE]`

use tm_bench::{BenchArgs, Experiment};

fn main() {
    let args = BenchArgs::parse(8);
    let exp = Experiment::table1(&args);
    args.run_and_emit(&exp);
}
