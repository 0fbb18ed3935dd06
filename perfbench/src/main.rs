//! `perfbench` — the repository's whole-system benchmark.
//!
//! ```text
//! perfbench --workload dense_mw|home_contended|sync_many
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process runs one workload's cells one after another on one thread,
//! through the figure binaries' `Cell` → `AppConfig` →
//! `Workload::run_parallel` path on the default event engine.  It sets up
//! (builds the cells and runs each data set's sequential reference) five
//! times, then repeats whole passes over the cells until `--seconds` have
//! passed (at least two), checking every cell, and prints a report whose
//! last line is one JSON object.  `--trace 1` adds traced passes that time
//! the calls into each layer and reports the per-layer metrics instead of
//! the end-to-end ones.  README.md in this directory documents the
//! workloads, the metrics and the layer map.

mod check;
mod layers;
mod workloads;

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use tm_apps::Workload;
use tm_bench::{render, Cell, ExperimentResult, OutputFormat};

use check::{cell_result, classify, digest, guarded, simulate, Tally};
use layers::{decompose, median, peak_rss_mb, CellTimes, Counters, Metric};
use workloads::{pinned_digest, Kind, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload dense_mw|home_contended|sync_many \
                     [--seed N] [--seconds S (1-3600)] [--trace 0|1]";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Passes per run at the least, so every run can compare a cell's
/// statistics across two simulations.
const MIN_PASSES: usize = 2;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::from_name(&v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = parse_seed(&v)
                    .ok_or_else(|| format!("invalid --seed '{v}' (expected u64 or 0x-hex)"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<u64>()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| format!("invalid --seconds '{v}' (expected 1-3600)"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("invalid --trace '{v}' (expected 0 or 1)")),
                };
            }
            other => return Err(format!("unrecognized argument '{other}'")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Decimal, or hexadecimal with a `0x` prefix — the figure binaries' syntax.
fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// One timed call, kept in memory and written out when the run ends.
struct Span {
    layer: &'static str,
    cell: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Times calls; in a traced run it also records each as a [`Span`].
struct Tracer {
    epoch: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    /// Run `f` and return its result with its host seconds.
    fn time<T>(
        &mut self,
        layer: &'static str,
        cell: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                layer,
                cell: cell.to_string(),
                parent,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
            });
        }
        (out, (end - start).as_secs_f64())
    }

    /// Open an enclosing span; [`Tracer::close`] sets its end.
    fn open(&mut self, layer: &'static str) -> Option<usize> {
        let now = (Instant::now() - self.epoch).as_nanos() as u64;
        let spans = self.spans.as_mut()?;
        spans.push(Span {
            layer,
            cell: String::new(),
            parent: None,
            start_ns: now,
            end_ns: now,
        });
        Some(spans.len() - 1)
    }

    fn close(&mut self, id: Option<usize>) {
        let now = (Instant::now() - self.epoch).as_nanos() as u64;
        if let (Some(spans), Some(id)) = (&mut self.spans, id) {
            spans[id].end_ns = now;
        }
    }

    fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().flatten().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}{{\"id\": {i}, \"parent\": {parent}, \"layer\": \"{}\", \"cell\": \"{}\", \
                 \"start_us\": {}, \"dur_us\": {}}}",
                if i == 0 { "  " } else { ", " },
                s.layer,
                s.cell,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3
            );
        }
        out.push_str("]\n");
        out
    }
}

/// A workload ready to simulate.
struct Prepared {
    cells: Vec<Cell>,
    /// Per cell: the data set it runs.
    data_sets: Vec<Workload>,
    /// Per cell: the sequential reference checksum of its data set.
    references: Vec<f64>,
    /// Per cell: host seconds of its data set's `run_sequential`.
    seq_s: Vec<f64>,
}

/// Build the cells and run every data set's sequential reference once.
fn prepare(kind: Kind, seed: u64, tracer: &mut Tracer) -> Prepared {
    let cells = kind.cells(seed);
    let data_sets: Vec<Workload> = cells
        .iter()
        .map(|c| {
            c.workload()
                .expect("workload cells are built from the registry")
        })
        .collect();
    let mut references = Vec::with_capacity(cells.len());
    let mut seq_s = Vec::with_capacity(cells.len());
    for (i, w) in data_sets.iter().enumerate() {
        let done = data_sets[..i]
            .iter()
            .position(|d| d.app == w.app && d.size_label == w.size_label);
        let (reference, secs) = match done {
            Some(j) => (references[j], seq_s[j]),
            None => tracer.time("apps.seq", &w.size_label, None, || {
                black_box(w.run_sequential())
            }),
        };
        references.push(reference);
        seq_s.push(secs);
    }
    Prepared {
        cells,
        data_sets,
        references,
        seq_s,
    }
}

/// Host seconds of every timed call, per cell, across passes.
#[derive(Default, Clone)]
struct Samples {
    cell: Vec<f64>,
    one_proc: Vec<f64>,
    race_off: Vec<f64>,
}

struct Bench {
    kind: Kind,
    prep: Prepared,
    /// Per cell: the statistics digest it must reproduce.
    expected: Vec<Option<u64>>,
    tally: Tally,
    /// Simulated totals of the first pass.
    counters: Option<Counters>,
    tracer: Tracer,
    untraced: Vec<Samples>,
    traced: Vec<Samples>,
    render_s: Vec<f64>,
    traced_render_s: Vec<f64>,
}

impl Bench {
    /// Classify one simulation and count it; `digest_checked` calls must
    /// also reproduce the cell's expected digest (the first clean one sets
    /// it when none is pinned).
    fn check(
        &mut self,
        i: usize,
        outcome: Result<tm_apps::AppRun, String>,
        digest_checked: bool,
    ) -> Option<tm_apps::AppRun> {
        let expected = if digest_checked {
            self.expected[i]
        } else {
            None
        };
        let failure = classify(&outcome, self.prep.references[i], expected);
        self.tally.record(failure.as_ref());
        if let Some(f) = &failure {
            eprintln!("FAILED {}: {f:x?}", self.prep.cells[i].key());
        }
        let run = outcome.ok()?;
        if digest_checked && failure.is_none() && expected.is_none() {
            self.expected[i] = Some(digest(&run));
        }
        Some(run)
    }

    /// One pass over every cell, then render the results document.  A
    /// traced pass also runs each cell's 1-processor variant and, for
    /// racecheck cells, its racecheck-off twin.
    fn pass(&mut self, traced: bool) {
        let parent = self
            .tracer
            .open(if traced { "pass.traced" } else { "pass" });
        let mut results = Vec::with_capacity(self.prep.cells.len());
        let mut counters = Counters::default();
        for i in 0..self.prep.cells.len() {
            let cell = self.prep.cells[i].clone();
            let w = self.prep.data_sets[i].clone();
            let key = cell.key();
            if traced {
                let one = Cell {
                    nprocs: 1,
                    ..cell.clone().with_racecheck(false)
                };
                let (out, t) = self.tracer.time("core.access", &key, parent, || {
                    guarded(|| simulate(&one, &w))
                });
                self.check(i, out, false);
                self.traced[i].one_proc.push(t);
            }
            let (out, t) = self
                .tracer
                .time("cell", &key, parent, || guarded(|| simulate(&cell, &w)));
            let run = self.check(i, out, true);
            let samples = if traced {
                &mut self.traced[i]
            } else {
                &mut self.untraced[i]
            };
            samples.cell.push(t);
            if traced && cell.racecheck {
                let off = cell.clone().with_racecheck(false);
                let (out, t) = self
                    .tracer
                    .time("race.off", &key, parent, || guarded(|| simulate(&off, &w)));
                self.check(i, out, false);
                self.traced[i].race_off.push(t);
            }
            if let Some(run) = run {
                counters.add(&run);
                results.push(cell_result(&cell, &run));
            }
        }
        self.counters.get_or_insert(counters);
        let doc = ExperimentResult {
            name: self.kind.name().to_string(),
            title: format!("perfbench workload {}", self.kind.name()),
            threads: 1,
            host_wall_ns: 0,
            cells: results,
        };
        let (_, t) = self.tracer.time("emit.render", "", parent, || {
            black_box(render(&doc, OutputFormat::Json)).len()
                + black_box(render(&doc, OutputFormat::Csv)).len()
        });
        if traced {
            self.traced_render_s.push(t);
        } else {
            self.render_s.push(t);
        }
        self.tracer.close(parent);
    }

    /// Host seconds to simulate every cell and render the document: the
    /// sum of each cell's median and the median render time.
    fn wall_s(samples: &[Samples], render_s: &[f64]) -> f64 {
        samples.iter().map(|s| median(&s.cell)).sum::<f64>() + median(render_s)
    }
}

fn main() {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(msg) = run(&args, started) {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}

fn run(args: &Args, started: Instant) -> Result<(), String> {
    let mut tracer = Tracer {
        epoch: started,
        spans: args.trace.then(Vec::new),
    };

    // Set-up: the first is timed from process start.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut seq_samples: Vec<Vec<f64>> = Vec::new();
    let mut setup_start = started;
    let mut prep = None;
    for _ in 0..SETUPS {
        let p = prepare(args.kind, args.seed, &mut tracer);
        setups.push(setup_start.elapsed().as_secs_f64());
        seq_samples.resize(p.cells.len(), Vec::new());
        for (s, &t) in seq_samples.iter_mut().zip(&p.seq_s) {
            s.push(t);
        }
        prep = Some(p);
        setup_start = Instant::now();
    }
    let prep = prep.expect("at least one set-up");
    let n = prep.cells.len();
    let expected = prep
        .cells
        .iter()
        .map(|c| {
            (args.seed == DEFAULT_SEED)
                .then(|| pinned_digest(args.kind, c))
                .flatten()
        })
        .collect();
    let mut bench = Bench {
        kind: args.kind,
        prep,
        expected,
        tally: Tally::default(),
        counters: None,
        tracer,
        untraced: vec![Samples::default(); n],
        traced: vec![Samples::default(); n],
        render_s: Vec::new(),
        traced_render_s: Vec::new(),
    };

    let window = Duration::from_secs(args.seconds);
    let measuring = Instant::now();
    while bench.render_s.len() < MIN_PASSES || measuring.elapsed() < window {
        bench.pass(false);
        if args.trace {
            bench.pass(true);
        }
    }

    let counters = bench.counters.clone().unwrap_or_default();
    let wall_s = Bench::wall_s(&bench.untraced, &bench.render_s);
    let failed_frac = bench.tally.failed_frac();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "perfbench {} seed {}: {} passes ({} traced), {} simulations, {} failed",
        args.kind.name(),
        args.seed,
        bench.render_s.len() + bench.traced_render_s.len(),
        bench.traced_render_s.len(),
        bench.tally.attempted,
        bench.tally.failed
    );
    let _ = writeln!(out, "  {:<44} {:>10} {:>18}", "cell", "host_s", "digest");
    for (i, cell) in bench.prep.cells.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:<44} {:>10.4} {:>18}",
            cell.key(),
            median(&bench.untraced[i].cell),
            bench.expected[i].map_or("-".to_string(), |d| format!("{d:016x}"))
        );
    }

    let metrics: Vec<Metric> = if args.trace {
        let cells: Vec<CellTimes> = (0..n)
            .map(|i| {
                let t = &bench.traced[i];
                CellTimes {
                    seq_s: median(&seq_samples[i]),
                    one_proc_s: median(&t.one_proc),
                    cell_s: median(&t.cell),
                    race_off_s: (!t.race_off.is_empty()).then(|| median(&t.race_off)),
                }
            })
            .collect();
        let traced_wall = Bench::wall_s(&bench.traced, &bench.traced_render_s);
        let mut m = decompose(&cells, median(&bench.traced_render_s), counters.events());
        m.extend(counters.per_layer());
        m.push(("trace.wall_s", traced_wall, "s"));
        m.push(("trace.overhead_s", traced_wall - wall_s, "s"));
        let path = format!(".bench_trace/{}-seed{}.json", args.kind.name(), args.seed);
        std::fs::create_dir_all(".bench_trace")
            .and_then(|()| std::fs::write(&path, bench.tracer.to_json()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
        m
    } else {
        let mut m = vec![
            ("wall_s", wall_s, "s"),
            ("setup_s", median(&setups), "s"),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
        ];
        m.extend(counters.modeled());
        m
    };

    let _ = writeln!(out, "  {:<26} {:>18} unit", "metric", "value");
    for (name, value, unit) in &metrics {
        let _ = writeln!(out, "  {name:<26} {value:>18.6} {unit}");
    }
    if !args.trace {
        let _ = writeln!(out, "  {:<26} {:>18.6} frac", "failed_frac", failed_frac);
    }
    print!("{out}");
    println!("{}", result_json(&bench.tally, &metrics));
    Ok(())
}

/// The report's last line: `correct`, `attempted`, `failed` and `metrics`.
fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn every_flag_parses() {
        let a = parse(&[
            "--workload",
            "sync_many",
            "--seed",
            "0x2a",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.kind, Kind::SyncMany);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 12, true));
    }

    #[test]
    fn bad_input_is_rejected() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "dense_mw", "--seed", "12x"],
            &["--workload", "dense_mw", "--seed", "-1"],
            &["--workload", "dense_mw", "--frobnicate"],
            &["--workload", "dense_mw", "--seconds", "0"],
            &["--workload", "dense_mw", "--trace", "2"],
            &["--workload"],
            &["--seed", "1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn result_line_has_the_report_keys() {
        let tally = Tally {
            attempted: 8,
            failed: 0,
        };
        let line = result_json(&tally, &[("wall_s", 1.25, "s"), ("x", f64::NAN, "count")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 8, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
