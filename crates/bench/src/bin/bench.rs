//! Produces the performance-trajectory artifact (`BENCH_PR10.json`) and runs
//! the regression gate against a checked-in baseline.
//!
//! Usage:
//! `cargo run -p tm-bench --release --bin bench -- [--quick] [--iters N]
//! [--topology ideal|bus|switched] [--out FILE]
//! [--baseline FILE] [--tolerance FRAC] [--reference-wall-ms MS]`
//!
//! * with no flags, measures the full suite (micro medians + the canonical
//!   `fig2 4 --scale large --app Jacobi` sweep) and prints the JSON document
//!   to stdout;
//! * `--quick` switches to tiny data sets (seconds, for smoke runs — its
//!   sample ids differ from full mode so it never gates against a full
//!   baseline by accident);
//! * `--iters N` overrides the per-micro iteration count (the median is
//!   reported);
//! * `--topology` runs the measured workloads on a contended modeled
//!   interconnect (the checked-in artifact uses the ideal default; a
//!   contended report fails the gate on its exec-time digests, by design);
//! * `--out FILE` writes the document to `FILE` instead of stdout;
//! * `--baseline FILE` additionally compares the fresh measurements against
//!   `FILE` and exits 1 when any digest differs or any timing regresses by
//!   more than the tolerance (default 20 %, `--tolerance 0.20`);
//! * `--reference-wall-ms MS` records a pre-optimization sweep wall time
//!   (measured separately, same host) in the artifact's `reference` block
//!   together with the implied speedup.

use tm_bench::perf::{
    collect_report, compare_reports, parse_perf_report, PerfOptions, Reference, DEFAULT_TOLERANCE,
};

use serde::ToJson;

struct Args {
    opts: PerfOptions,
    out: Option<String>,
    baseline: Option<String>,
    tolerance: f64,
    reference_wall_ms: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        opts: PerfOptions::full(),
        out: None,
        baseline: None,
        tolerance: DEFAULT_TOLERANCE,
        reference_wall_ms: None,
    };
    let mut iters_override = None;
    let mut topology_override = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--quick" => out.opts = PerfOptions::quick(),
            "--iters" => {
                let v = value("--iters")?;
                iters_override = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|&n| (1..=1000).contains(&n))
                        .ok_or_else(|| format!("invalid --iters '{v}' (expected 1-1000)"))?,
                );
            }
            "--topology" => {
                let v = value("--topology")?;
                topology_override = Some(v.parse::<tdsm_core::Topology>()?);
            }
            "--out" => out.out = Some(value("--out")?),
            "--baseline" => out.baseline = Some(value("--baseline")?),
            "--tolerance" => {
                let v = value("--tolerance")?;
                out.tolerance = v
                    .parse::<f64>()
                    .ok()
                    .filter(|t| (0.0..10.0).contains(t))
                    .ok_or_else(|| format!("invalid --tolerance '{v}' (expected 0.0-10.0)"))?;
            }
            "--reference-wall-ms" => {
                let v = value("--reference-wall-ms")?;
                out.reference_wall_ms = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|m| *m > 0.0)
                        .ok_or_else(|| format!("invalid --reference-wall-ms '{v}'"))?,
                );
            }
            other => return Err(format!("unrecognized argument '{other}'")),
        }
    }
    if let Some(iters) = iters_override {
        out.opts.iters = iters;
    }
    if let Some(topology) = topology_override {
        out.opts.topology = topology;
    }
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!(
                "error: {msg}\nusage: bench [--quick] [--iters N] \
                 [--topology ideal|bus|switched] \
                 [--out FILE] [--baseline FILE] [--tolerance FRAC] \
                 [--reference-wall-ms MS]"
            );
            std::process::exit(2);
        }
    };

    eprintln!(
        "measuring perf artifact ({} mode, {} iters/micro)...",
        if args.opts.quick { "quick" } else { "full" },
        args.opts.iters
    );
    let mut report = collect_report(&args.opts);
    if let Some(reference_ms) = args.reference_wall_ms {
        report.reference = Some(Reference {
            wall_ms: reference_ms,
            speedup: reference_ms / report.sweep.wall_ms,
        });
    }
    eprintln!(
        "sweep {}: {:.1} ms ({} msgs, {} bytes, checksum {})",
        report.sweep.id,
        report.sweep.wall_ms,
        report.sweep.total_msgs,
        report.sweep.total_data,
        report.sweep.checksum
    );

    let text = report.to_json().pretty();
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("error: failed to write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {path}");
        }
        None => println!("{text}"),
    }

    if let Some(path) = &args.baseline {
        let baseline_text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: failed to read baseline {path}: {e}");
                std::process::exit(1);
            }
        };
        let baseline = match parse_perf_report(&baseline_text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: invalid baseline {path}: {e}");
                std::process::exit(1);
            }
        };
        match compare_reports(&baseline, &report, args.tolerance) {
            Ok(()) => eprintln!(
                "PERF GATE OK: no digest changes, no timing regression > {:.0} % vs {path}",
                args.tolerance * 100.0
            ),
            Err(errs) => {
                for e in &errs {
                    eprintln!("PERF GATE: {e}");
                }
                eprintln!(
                    "PERF GATE FAILED: {} violation(s) vs {path}. If the slowdown is \
                     intentional and understood, refresh the baseline with \
                     `bench --out {path}` on the reference host.",
                    errs.len()
                );
                std::process::exit(1);
            }
        }
    }
}
