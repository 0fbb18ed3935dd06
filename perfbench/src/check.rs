//! Running one cell and deciding whether it failed.
//!
//! A cell fails when its simulation panics, when its checksum disagrees
//! with the sequential reference, when the race detector reports a race, or
//! when its statistics digest differs from the expected one (the digest
//! pinned for the default seed, or else the digest the same cell produced
//! earlier in this run at the same seed).

use std::panic::{catch_unwind, AssertUnwindSafe};

use tdsm_core::ClusterStats;
use tm_apps::{checksums_match, AppConfig, AppRun, Workload};
use tm_bench::{Cell, CellResult};

/// Relative checksum tolerance, the one `table1` verifies with.
const CHECKSUM_TOL: f64 = 1e-6;

/// Simulate `cell` through the path the figure binaries use
/// (`Cell` → `AppConfig` → `Workload::run_parallel` on the default engine),
/// keeping the full per-processor statistics.
pub fn simulate(cell: &Cell, w: &Workload) -> AppRun {
    let cfg = AppConfig::with_procs(cell.nprocs)
        .unit(cell.unit)
        .protocol(cell.protocol)
        .sched(cell.sched_config())
        .diff_timing(cell.diff_timing)
        .engine(cell.engine)
        .topology(cell.network.topology)
        .aggregation(cell.network.aggregation)
        .racecheck(cell.racecheck);
    w.run_parallel(&cfg)
}

/// The result row of a simulated cell, as `tm_bench::run_cell` builds it
/// (host time aside, which the rendered documents never carry).
pub fn cell_result(cell: &Cell, run: &AppRun) -> CellResult {
    CellResult {
        cell: cell.clone(),
        exec_time_ns: run.exec_time_ns,
        checksum: run.checksum,
        breakdown: run.breakdown.clone(),
        gc: run.stats.gc_counters(),
        links: run.stats.links.clone(),
        races: cell.racecheck.then(|| run.stats.races.clone()),
        host_wall_ns: 0,
    }
}

/// Run `f`, turning a panic into an error carrying its message.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// Why a cell failed.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// The simulation panicked.
    Panic(String),
    /// The checksum disagrees with the sequential reference.
    Checksum { got: f64, want: f64 },
    /// The race detector reported races.
    Races(usize),
    /// The statistics digest differs from the expected one.
    Digest { got: u64, want: u64 },
}

/// Classify one simulation outcome against the sequential reference
/// checksum and, when one is known, the expected statistics digest.
pub fn classify(
    outcome: &Result<AppRun, String>,
    reference: f64,
    expected_digest: Option<u64>,
) -> Option<Failure> {
    let run = match outcome {
        Ok(run) => run,
        Err(msg) => return Some(Failure::Panic(msg.clone())),
    };
    if !checksums_match(run.checksum, reference, CHECKSUM_TOL) {
        return Some(Failure::Checksum {
            got: run.checksum,
            want: reference,
        });
    }
    if !run.stats.races.is_empty() {
        return Some(Failure::Races(run.stats.races.len()));
    }
    match expected_digest {
        Some(want) if digest(run) != want => Some(Failure::Digest {
            got: digest(run),
            want,
        }),
        _ => None,
    }
}

/// Cells attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one classified cell.
    pub fn record(&mut self, failure: Option<&Failure>) {
        self.attempted += 1;
        self.failed += u64::from(failure.is_some());
    }

    /// Failed cells over cells attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// FNV-1a digest of a run's simulated results: checksum, modeled time, the
/// paper's breakdown, every per-processor work counter, link occupancy and
/// the race count.  Host timing never enters it.
pub fn digest(run: &AppRun) -> u64 {
    let b = &run.breakdown;
    let mut words = vec![
        run.exec_time_ns,
        run.checksum.to_bits(),
        b.useful_messages,
        b.useless_messages,
        b.useful_data,
        b.useless_data_in_useless_msgs,
        b.piggybacked_useless_data,
        b.total_wire_bytes,
        b.home_updates,
        b.page_fetches,
        b.faults,
        run.stats.races.len() as u64,
    ];
    words.extend(proc_totals(&run.stats));
    for l in &run.stats.links {
        words.extend([l.messages, l.wire_bytes, l.busy_ns, l.queue_ns]);
    }
    let mut h: u64 = 0xcbf29ce484222325;
    for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= byte as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Every `ProcStats` counter summed over the processors.
fn proc_totals(stats: &ClusterStats) -> [u64; 18] {
    let mut t = [0u64; 18];
    for p in &stats.per_proc {
        let row = [
            p.exchanges.len() as u64,
            p.lock_acquires,
            p.barriers,
            p.twins_created,
            p.diffs_created,
            p.diff_bytes_created,
            p.diffs_created_on_demand,
            p.home_updates,
            p.page_fetches,
            p.intervals_closed,
            p.intervals_retired,
            p.diffs_retired,
            p.gc_pending_flushes,
            p.protection_ops,
            p.prefetched_faults,
            p.compute_time_ns,
            p.fault_stall_ns,
            p.sync_stall_ns,
        ];
        for (acc, v) in t.iter_mut().zip(row) {
            *acc = acc.wrapping_add(v);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_apps::AppId;

    use crate::workloads::DEFAULT_SEED;

    fn tiny_cell() -> (Cell, Workload) {
        let w = Workload::tiny(AppId::Jacobi);
        let cell = Cell::new(
            &w,
            "4K",
            tdsm_core::UnitPolicy::Static { pages: 1 },
            2,
            tdsm_core::SchedConfig::seeded(DEFAULT_SEED),
            Default::default(),
            Default::default(),
            Default::default(),
        )
        .with_racecheck(true);
        (cell, w)
    }

    /// Four healthy cells and one forced failure: the tally counts exactly
    /// one failed cell, and the classifier names the failure's kind.
    fn assert_one_failure(forced: Option<Failure>, expect: fn(&Failure) -> bool) {
        let forced = forced.expect("the forced mismatch must be classified as a failure");
        assert!(expect(&forced), "unexpected failure kind {forced:?}");
        let mut tally = Tally::default();
        for _ in 0..4 {
            tally.record(None);
        }
        tally.record(Some(&forced));
        assert_eq!(
            tally,
            Tally {
                attempted: 5,
                failed: 1
            }
        );
        assert_eq!(tally.failed_frac(), 0.2);
    }

    #[test]
    fn a_healthy_cell_passes_every_check() {
        let (cell, w) = tiny_cell();
        let reference = w.run_sequential();
        let run = simulate(&cell, &w);
        let d = digest(&run);
        assert_eq!(classify(&Ok(run), reference, Some(d)), None);
    }

    #[test]
    fn a_panic_counts_as_one_failed_cell() {
        let outcome: Result<AppRun, String> = guarded(|| panic!("forced panic"));
        assert_eq!(
            outcome.as_ref().err().map(String::as_str),
            Some("forced panic")
        );
        assert_one_failure(classify(&outcome, 0.0, None), |f| {
            matches!(f, Failure::Panic(_))
        });
    }

    #[test]
    fn a_checksum_mismatch_counts_as_one_failed_cell() {
        let (cell, w) = tiny_cell();
        let reference = w.run_sequential();
        let outcome = guarded(|| simulate(&cell, &w));
        assert_one_failure(classify(&outcome, reference * 1.5 + 1.0, None), |f| {
            matches!(f, Failure::Checksum { .. })
        });
    }

    #[test]
    fn a_reported_race_counts_as_one_failed_cell() {
        let (cell, w) = tiny_cell();
        let reference = w.run_sequential();
        let mut run = simulate(&cell, &w);
        // Borrow a genuine race record from the deliberately racy fixture.
        let racy = tm_apps::racy::run_racy_counter(&AppConfig::with_procs(2).racecheck(true), 4);
        assert!(!racy.stats.races.is_empty(), "the racy fixture must race");
        run.stats.races = racy.stats.races.clone();
        assert_one_failure(
            classify(&Ok(run), reference, None),
            |f| matches!(f, Failure::Races(n) if *n > 0),
        );
    }

    #[test]
    fn a_digest_mismatch_counts_as_one_failed_cell() {
        let (cell, w) = tiny_cell();
        let reference = w.run_sequential();
        let run = simulate(&cell, &w);
        let wrong = digest(&run) ^ 1;
        assert_one_failure(classify(&Ok(run), reference, Some(wrong)), |f| {
            matches!(f, Failure::Digest { .. })
        });
    }

    #[test]
    fn the_digest_sees_every_simulated_counter_but_no_host_time() {
        let (cell, w) = tiny_cell();
        let run = simulate(&cell, &w);
        let base = digest(&run);
        assert_eq!(digest(&simulate(&cell, &w)), base, "reruns must agree");
        let mut moved = run.clone();
        moved.stats.per_proc[1].protection_ops += 1;
        assert_ne!(digest(&moved), base);
        let mut moved = run.clone();
        moved.exec_time_ns += 1;
        assert_ne!(digest(&moved), base);
    }
}
