//! Smoke tests of the benchmark harness (`tm-bench`): the experiment
//! runner must drive the paper's policy sweep, Table 1 and the signature
//! machinery end-to-end and produce internally consistent cells.  Uses
//! reduced processor counts so the whole file stays fast in debug builds;
//! the full-scale figures are produced by the release binaries.

use tm_apps::{AppId, Workload};
use tm_bench::{
    render, run_cell, run_experiment, BenchArgs, CellResult, Experiment, OutputFormat,
    RunnerOptions,
};

/// Options for the paper data sets of `app` on `nprocs` processors.
fn paper_args(app: AppId, nprocs: usize) -> BenchArgs {
    BenchArgs {
        nprocs,
        app: Some(app),
        ..BenchArgs::defaults(nprocs)
    }
}

/// Keep only the cells of `exp` that run workload `w`, in order.
fn only(mut exp: Experiment, w: &Workload) -> Experiment {
    exp.cells
        .retain(|c| c.app == w.app && c.size_label == w.size_label);
    assert!(!exp.cells.is_empty(), "no cell of {} runs {w:?}", exp.name);
    exp
}

/// Run the cell of `exp` labelled `policy`.
fn run_policy(exp: &Experiment, policy: &str) -> CellResult {
    let cell = exp
        .cells
        .iter()
        .find(|c| c.policy_label == policy)
        .unwrap_or_else(|| panic!("no {policy} cell in {}", exp.name));
    run_cell(cell)
}

#[test]
fn policy_sweep_produces_all_four_configurations() {
    // Jacobi's first paper data set is the cheapest full workload to drive here.
    let w = &Workload::for_app(AppId::Jacobi)[0];
    let exp = only(Experiment::fig2(&paper_args(w.app, 2)), w);
    let result = run_experiment(&exp, &RunnerOptions::default());
    let rows = &result.cells;
    assert_eq!(rows.len(), 4);
    let labels: Vec<&str> = rows.iter().map(|r| r.cell.policy_label.as_str()).collect();
    assert_eq!(labels, vec!["4K", "8K", "16K", "Dyn"]);
    // All configurations computed the same checksum.
    for r in rows {
        assert!((r.checksum - rows[0].checksum).abs() <= 1e-9 * rows[0].checksum.abs());
        let b = &r.breakdown;
        assert_eq!(b.total_messages(), b.useful_messages + b.useless_messages);
        assert_eq!(
            b.total_payload(),
            b.useful_data + b.piggybacked_useless_data + b.useless_data_in_useless_msgs
        );
    }
    // CSV export covers every row plus the header.
    let csv = render(&result, OutputFormat::Csv);
    assert_eq!(csv.lines().count(), 5);
}

#[test]
fn table1_row_reports_speedup_and_verification() {
    let w = &Workload::for_app(AppId::Fft3d)[0];
    let exp = only(Experiment::table1(&paper_args(w.app, 4)), w);
    let result = run_experiment(&exp, &RunnerOptions::default());
    let [seq, par] = &result.cells[..] else {
        panic!("table1 runs a 1- and a 4-processor cell per workload");
    };
    assert_eq!((seq.cell.nprocs, par.cell.nprocs), (1, 4));
    assert!(
        tm_apps::checksums_match(par.checksum, seq.checksum, 1e-6),
        "parallel checksum must match the 1-processor run"
    );
    assert!(seq.exec_time_ns > 0);
    assert!(par.exec_time_ns > 0);
    assert!(
        seq.exec_time_ns as f64 / par.exec_time_ns as f64 > 1.0,
        "4 processors should beat 1 processor for 3D-FFT"
    );
}

#[test]
fn signatures_shift_right_for_mgs_but_not_for_ilink() {
    // The central qualitative claim of §3: MGS's false-sharing signature
    // shifts towards more concurrent writers when the unit grows, Ilink's
    // does not (materially).
    let mgs = &Workload::for_app(AppId::Mgs)[1]; // the 1K-element-vector set
    let exp = only(Experiment::fig2(&paper_args(mgs.app, 4)), mgs);
    let mgs_4k = run_policy(&exp, "4K").breakdown.signature;
    let mgs_16k = run_policy(&exp, "16K").breakdown.signature;
    assert!(
        mgs_16k.mean_writers() > mgs_4k.mean_writers() + 0.5,
        "MGS signature must shift right: {} -> {}",
        mgs_4k.mean_writers(),
        mgs_16k.mean_writers()
    );

    let ilink = &Workload::for_app(AppId::Ilink)[0];
    let exp = only(Experiment::fig1(&paper_args(ilink.app, 4)), ilink);
    let il_4k = run_policy(&exp, "4K").breakdown.signature;
    let il_16k = run_policy(&exp, "16K").breakdown.signature;
    assert!(
        (il_16k.mean_writers() - il_4k.mean_writers()).abs() < 1.0,
        "Ilink signature must stay roughly invariant: {} -> {}",
        il_4k.mean_writers(),
        il_16k.mean_writers()
    );
}

/// The five figure/table binaries must run their `--tiny` smoke configuration
/// end-to-end without panicking and produce the expected report header.
#[test]
fn all_five_bench_binaries_run_tiny_mode() {
    let bins = [
        ("table1", "Table 1"),
        ("fig1", "Figure 1"),
        ("fig2", "Figure 2"),
        ("fig3", "Figure 3"),
        ("fig_dyn_group", "Dynamic aggregation group-size ablation"),
    ];
    for (bin, expected_header) in bins {
        let output = run_bench_bin(bin, &["--tiny"]);
        assert!(
            output.status.success(),
            "{bin} --tiny exited with {:?}\nstderr:\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            stdout.contains(expected_header),
            "{bin} --tiny output missing '{expected_header}':\n{stdout}"
        );
    }
}

/// The `--protocol` flag must reach the simulator through the real binary
/// surface: a home-based tiny run emits rows tagged with the protocol and
/// non-zero per-protocol counters.
#[test]
fn bench_binary_accepts_protocol_flag_end_to_end() {
    let output = run_bench_bin(
        "fig1",
        &["--tiny", "--protocol", "home-based", "--format", "csv"],
    );
    assert!(
        output.status.success(),
        "fig1 --protocol home-based exited with {:?}\nstderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines();
    let header = lines.next().expect("csv header");
    let protocol_col = header
        .split(',')
        .position(|c| c == "protocol")
        .expect("csv must carry a protocol column");
    let hu_col = header
        .split(',')
        .position(|c| c == "home_updates")
        .expect("csv must carry a home_updates column");
    let mut any_updates = false;
    for line in lines {
        let cols: Vec<&str> = line.split(',').collect();
        assert_eq!(cols[protocol_col], "home-based", "row: {line}");
        any_updates |= cols[hu_col].parse::<u64>().unwrap_or(0) > 0;
    }
    assert!(
        any_updates,
        "home-based sweep flushed no updates:\n{stdout}"
    );
}

/// An `--app` filter that leaves an experiment without cells is a usage
/// error naming the experiment and the application, not an empty document.
#[test]
fn app_filter_matching_no_cell_exits_2() {
    for (bin, app) in [("fig1", "Jacobi"), ("fig2", "Barnes")] {
        let output = run_bench_bin(bin, &["--tiny", "--app", app, "--format", "json"]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{bin} --app {app}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "--app {app} matches no cell of experiment '{bin}'"
            )),
            "{bin} --app {app}: {stderr}"
        );
        assert!(
            output.stdout.is_empty(),
            "{bin} --app {app} emitted a document"
        );
    }
}

/// There is one execution engine, so `--engine` is an unknown flag: a usage
/// error with exit status 2, on the figure binaries and on `bench` alike.
#[test]
fn engine_flag_is_a_usage_error() {
    for bin in ["fig1", "bench"] {
        let output = run_bench_bin(bin, &["--engine", "event"]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{bin}: {stderr}");
        assert!(
            stderr.contains("unrecognized argument '--engine'") && stderr.contains("usage:"),
            "{bin}: {stderr}"
        );
    }
}

/// An `--out` path that cannot be written is reported once, as an error
/// naming the path, with exit status 1 — not a panic.
#[test]
fn unwritable_out_path_exits_1() {
    // A regular file used as a directory: no environment can write here.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/x.json");
    let output = run_bench_bin("fig2", &["--tiny", "--out", path]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("error: failed to write {path}: ")),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Run the `tm-bench` binary `bin` with `args` and capture its output.
///
/// `cargo run` rather than probing target/ for a prebuilt artifact: it
/// always (re)builds the bin from the current sources (a stale binary must
/// not be smoke-tested in its place) and it resolves the output directory
/// itself, so custom `--target` layouts cannot desynchronize the path.
/// Cargo's own locking makes the nested invocation safe, and matching the
/// outer profile keeps the build a fast no-op when artifacts are fresh.
fn run_bench_bin(bin: &str, args: &[&str]) -> std::process::Output {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut cmd = std::process::Command::new(cargo);
    cmd.args(["run", "-q", "-p", "tm-bench", "--bin", bin]);
    if running_release_profile() {
        cmd.arg("--release");
    }
    cmd.arg("--")
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch cargo run --bin {bin}: {e}"))
}

/// Whether this test binary was built under the `release` profile (best
/// effort, by directory name: `<target>/release/deps/<test>-<hash>`), so the
/// nested `cargo run` can reuse the same artifacts instead of cold-building
/// the other profile.
fn running_release_profile() -> bool {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.parent() // deps/
                .and_then(|p| p.parent()) // <profile>/
                .and_then(|p| p.file_name())
                .map(|n| n == "release")
        })
        .unwrap_or(false)
}

#[test]
fn dynamic_aggregation_never_explodes_useless_messages() {
    // The §4 claim: the dynamic scheme tracks the best static choice and in
    // particular avoids MGS's useless-message explosion at large units.
    let mgs = &Workload::for_app(AppId::Mgs)[1];
    let exp = only(Experiment::fig2(&paper_args(mgs.app, 4)), mgs);
    let base = run_policy(&exp, "4K").breakdown;
    let large = run_policy(&exp, "16K").breakdown;
    let dynamic = run_policy(&exp, "Dyn").breakdown;
    assert!(
        large.useless_messages > base.useless_messages,
        "16K must hurt MGS"
    );
    assert!(
        dynamic.useless_messages <= base.useless_messages + base.total_messages() / 10,
        "dynamic aggregation must not introduce MGS's useless messages: {} vs {}",
        dynamic.useless_messages,
        base.useless_messages
    );
}
