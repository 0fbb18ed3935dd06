//! The metrics: the simulated totals a workload's cells add up to, the
//! per-layer work counters read from `AppRun.stats`, and the host-time
//! decomposition across layers computed from the traced run's spans.

use tm_apps::AppRun;

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Simulated totals over a workload's cells (one pass; every pass computes
/// the same values, which the digest check enforces).
#[derive(Debug, Clone, Default)]
pub struct Counters {
    exec_ns: u64,
    msgs: u64,
    useful_msgs: u64,
    wire_bytes: u64,
    useless_bytes: u64,
    twins: u64,
    diffs: u64,
    diff_bytes: u64,
    protection_ops: u64,
    closed: u64,
    retired: u64,
    on_demand: u64,
    gc_flushes: u64,
    faults: u64,
    exchanges: u64,
    page_fetches: u64,
    home_updates: u64,
    prefetched: u64,
    locks: u64,
    barriers: u64,
    compute_ns: f64,
    fault_stall_ns: f64,
    sync_stall_ns: f64,
    net_busy_ns: u64,
    net_queue_ns: u64,
    max_util: f64,
    races: u64,
}

impl Counters {
    /// Add one simulated cell.
    pub fn add(&mut self, run: &AppRun) {
        let b = &run.breakdown;
        let s = &run.stats;
        self.exec_ns += run.exec_time_ns;
        self.msgs += b.total_messages();
        self.useful_msgs += b.useful_messages;
        self.wire_bytes += b.total_wire_bytes;
        self.useless_bytes += b.total_useless_data();
        self.faults += b.faults;
        self.page_fetches += b.page_fetches;
        self.home_updates += b.home_updates;
        // The modeled time split, averaged over the cell's processors so it
        // compares with the cell's modeled execution time.
        let n = s.per_proc.len().max(1) as f64;
        for p in &s.per_proc {
            self.twins += p.twins_created;
            self.diffs += p.diffs_created;
            self.diff_bytes += p.diff_bytes_created;
            self.protection_ops += p.protection_ops;
            self.closed += p.intervals_closed;
            self.retired += p.intervals_retired;
            self.on_demand += p.diffs_created_on_demand;
            self.gc_flushes += p.gc_pending_flushes;
            self.exchanges += p.exchanges.len() as u64;
            self.prefetched += p.prefetched_faults;
            self.locks += p.lock_acquires;
            self.barriers += p.barriers;
            self.compute_ns += p.compute_time_ns as f64 / n;
            self.fault_stall_ns += p.fault_stall_ns as f64 / n;
            self.sync_stall_ns += p.sync_stall_ns as f64 / n;
        }
        self.net_busy_ns += s.total_link_busy_ns();
        self.net_queue_ns += s.total_queue_ns();
        self.max_util = self.max_util.max(s.max_link_utilization());
        self.races += s.races.len() as u64;
    }

    /// Simulated events the cross-processor layers handle: faults, interval
    /// closes, lock acquires and barrier arrivals.
    pub fn events(&self) -> u64 {
        self.faults + self.closed + self.locks + self.barriers
    }

    /// The deterministic end-to-end metrics (modeled output of the
    /// simulator, unvalidated against real hardware).
    pub fn modeled(&self) -> Vec<Metric> {
        vec![
            ("modeled_exec_s", self.exec_ns as f64 / 1e9, "sim_s"),
            ("sim_msgs", self.msgs as f64, "count"),
            ("sim_wire_mb", self.wire_bytes as f64 / 1e6, "MB"),
            ("useless_mb", self.useless_bytes as f64 / 1e6, "MB"),
        ]
    }

    /// The per-layer work counters.
    pub fn per_layer(&self) -> Vec<Metric> {
        vec![
            ("page.twins", self.twins as f64, "count"),
            ("page.diffs", self.diffs as f64, "count"),
            ("page.diff_mb", self.diff_bytes as f64 / 1e6, "MB"),
            ("page.mean_diff_b", ratio(self.diff_bytes, self.diffs), "B"),
            ("page.protection_ops", self.protection_ops as f64, "count"),
            ("interval.closed", self.closed as f64, "count"),
            (
                "interval.retired_frac",
                ratio(self.retired, self.closed),
                "frac",
            ),
            ("interval.diffs_on_demand", self.on_demand as f64, "count"),
            ("interval.gc_flushes", self.gc_flushes as f64, "count"),
            ("core.faults", self.faults as f64, "count"),
            ("core.exchanges", self.exchanges as f64, "count"),
            ("core.page_fetches", self.page_fetches as f64, "count"),
            ("core.home_updates", self.home_updates as f64, "count"),
            ("core.prefetched_faults", self.prefetched as f64, "count"),
            (
                "core.useful_msg_frac",
                ratio(self.useful_msgs, self.msgs),
                "frac",
            ),
            ("sync.lock_acquires", self.locks as f64, "count"),
            ("sync.barriers", self.barriers as f64, "count"),
            ("time.compute_s", self.compute_ns / 1e9, "sim_s"),
            ("time.fault_stall_s", self.fault_stall_ns / 1e9, "sim_s"),
            ("time.sync_stall_s", self.sync_stall_ns / 1e9, "sim_s"),
            ("net.busy_s", self.net_busy_ns as f64 / 1e9, "sim_s"),
            ("net.queue_s", self.net_queue_ns as f64 / 1e9, "sim_s"),
            ("net.max_util", self.max_util, "frac"),
            ("race.reported", self.races as f64, "count"),
        ]
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median host seconds of one cell's traced calls, across passes.
#[derive(Debug, Clone, Copy)]
pub struct CellTimes {
    /// `Workload::run_sequential` of the cell's data set.
    pub seq_s: f64,
    /// `run_parallel` at 1 processor with the cell's unit, protocol and
    /// network.
    pub one_proc_s: f64,
    /// The cell itself.
    pub cell_s: f64,
    /// The cell with the race detector off (only for racecheck cells).
    pub race_off_s: Option<f64>,
}

/// Split the traced host time across layers.  Each layer's self time is
/// its span minus the span that runs the same work without it, so the parts
/// add up to the traced wall time exactly:
/// `Σ cell_s + render = apps.seq + core.access + core.dsm + race.detect + emit.render`.
pub fn decompose(cells: &[CellTimes], render_s: f64, events: u64) -> Vec<Metric> {
    let mut seq = 0.0;
    let mut access = 0.0;
    let mut dsm = 0.0;
    let mut race = 0.0;
    for c in cells {
        let without_race = c.race_off_s.unwrap_or(c.cell_s);
        seq += c.seq_s;
        access += c.one_proc_s - c.seq_s;
        dsm += without_race - c.one_proc_s;
        race += c.cell_s - without_race;
    }
    let per_event_us = if events == 0 {
        0.0
    } else {
        dsm / events as f64 * 1e6
    };
    vec![
        ("apps.seq_s", seq, "s"),
        ("core.access_s", access, "s"),
        ("core.dsm_s", dsm, "s"),
        ("core.host_us_per_event", per_event_us, "us"),
        ("race.detect_s", race, "s"),
        ("emit.render_ms", render_s * 1e3, "ms"),
    ]
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_adds_up_to_the_traced_wall_time() {
        let cells = [
            CellTimes {
                seq_s: 0.1,
                one_proc_s: 0.7,
                cell_s: 1.5,
                race_off_s: None,
            },
            CellTimes {
                seq_s: 0.05,
                one_proc_s: 0.2,
                cell_s: 0.9,
                race_off_s: Some(0.6),
            },
        ];
        let parts = decompose(&cells, 0.002, 1000);
        let get = |name| parts.iter().find(|m| m.0 == name).unwrap().1;
        let sum = get("apps.seq_s")
            + get("core.access_s")
            + get("core.dsm_s")
            + get("race.detect_s")
            + get("emit.render_ms") / 1e3;
        assert!((sum - (1.5 + 0.9 + 0.002)).abs() < 1e-12);
        assert!((get("race.detect_s") - 0.3).abs() < 1e-12);
        assert!((get("core.host_us_per_event") - (0.8 + 0.4) / 1000.0 * 1e6).abs() < 1e-6);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
