//! Regenerates Figure 3 of the paper: the false-sharing signature — the
//! histogram of the number of concurrent writers contacted at each page
//! fault, split into useful and useless exchanges — for Barnes, Ilink, Water
//! and MGS at the 4 KB and 16 KB consistency units.
//!
//! A signature that shifts right when the unit grows predicts the useless
//! message explosion (MGS); a signature that stays put predicts that
//! aggregation will help (Barnes, Ilink, Water).
//!
//! Usage: `cargo run -p tm-bench --release --bin fig3 -- [nprocs] [--tiny]
//! [--threads N] [--seed N] [--schedule fifo|seeded]
//! [--format human|json|csv] [--out FILE]`

use tm_bench::{BenchArgs, Experiment};

fn main() {
    let args = BenchArgs::parse(8);
    let exp = Experiment::fig3(&args);
    args.run_and_emit(&exp);
}
