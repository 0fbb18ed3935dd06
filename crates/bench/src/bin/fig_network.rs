//! The contention grid: every network configuration (ideal, shared bus,
//! switched crossbar — the contended ones with and without wire
//! aggregation) crossed against both write protocols, on one application
//! that loves aggregation (Ilink) and one that false sharing hurts (MGS).
//!
//! The grid makes the paper's trade-off visible on the wire: batching the
//! home-based diff flushes wins on the shared bus (one broadcast replaces a
//! per-home message train on the only link) and loses on the switch (the
//! assembled batch is replicated down every home's private port).  Computed
//! results and message counts never change — only the modeled time and the
//! per-link occupancy counters do.
//!
//! Usage: `cargo run -p tm-bench --release --bin fig_network -- [nprocs]
//! [--tiny] [--threads N] [--seed N] [--schedule fifo|seeded]
//! [--format human|json|csv] [--out FILE]`
//! (`--protocol`/`--topology`/`--aggregation` are grid axes here and are
//! ignored).

use tm_bench::{BenchArgs, Experiment};

fn main() {
    let args = BenchArgs::parse(8);
    let exp = Experiment::fig_network(&args);
    args.run_and_emit(&exp);
}
