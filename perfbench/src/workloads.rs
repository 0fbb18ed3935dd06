//! The benchmark's three workloads: which cells each one simulates, and the
//! statistics digests pinned for the default seed.
//!
//! Every cell is a `tm_bench::Cell` built exactly as the figure binaries
//! build theirs, so a workload cell and the matching figure cell are the
//! same simulation (same key, same scheduler seed, same configuration).

use tdsm_core::{
    AggregationPolicy, DiffTiming, EngineKind, NetworkConfig, ProtocolMode, SchedConfig,
    ScheduleMode, Topology, UnitPolicy,
};
use tm_apps::{AppId, Workload};
use tm_bench::Cell;

/// The base seed the figure binaries use when `--seed` is not given; the
/// digests below are pinned at it.
pub const DEFAULT_SEED: u64 = 0;

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Dense multi-writer arrays: twins, whole-page diffs, interval GC.
    DenseMw,
    /// Home-based protocol on a contended bus with batched flushes.
    HomeContended,
    /// Lock- and barrier-heavy cells, race detection, 1024-processor points.
    SyncMany,
}

impl Kind {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Kind; 3] = [Kind::DenseMw, Kind::HomeContended, Kind::SyncMany];

    /// The name given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::DenseMw => "dense_mw",
            Kind::HomeContended => "home_contended",
            Kind::SyncMany => "sync_many",
        }
    }

    /// Resolve a `--workload` value.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's cells, in the order a pass simulates them, under the
    /// scheduler base seed `seed`.
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        let sched = SchedConfig {
            mode: ScheduleMode::Seeded,
            seed,
        };
        let s4k = ("4K", UnitPolicy::Static { pages: 1 });
        let s16k = ("16K", UnitPolicy::Static { pages: 4 });
        let dyn4 = ("Dyn", UnitPolicy::Dynamic { max_group_pages: 4 });
        let cell = |w: &Workload, (label, unit): (&str, UnitPolicy), nprocs, protocol| {
            Cell::new(
                w,
                label,
                unit,
                nprocs,
                sched,
                DiffTiming::default(),
                protocol,
                EngineKind::default(),
            )
        };
        let mw = ProtocolMode::MultiWriter;
        let home = ProtocolMode::home_based();
        let mut cells = Vec::new();
        match self {
            Kind::DenseMw => {
                for app in [AppId::Jacobi, AppId::Shallow] {
                    let w = Workload::large(app);
                    for unit in [s4k, s16k] {
                        cells.push(cell(&w, unit, 4, mw));
                    }
                }
            }
            Kind::HomeContended => {
                let bus = NetworkConfig::new(Topology::SharedBus, AggregationPolicy::Batched);
                for app in [AppId::Ilink, AppId::Mgs] {
                    let w = Workload::large(app);
                    for unit in [s4k, s16k, dyn4] {
                        cells.push(cell(&w, unit, 8, home).with_network(bus));
                    }
                }
            }
            Kind::SyncMany => {
                for app in [AppId::Water, AppId::Tsp] {
                    let w = Workload::large(app);
                    for unit in [s4k, dyn4] {
                        cells.push(cell(&w, unit, 32, mw).with_racecheck(true));
                    }
                }
                // `fig_scale`'s largest points.
                let w = Workload::tiny(AppId::Jacobi);
                for protocol in [mw, home] {
                    for unit in [s4k, s16k] {
                        cells.push(cell(&w, unit, 1024, protocol));
                    }
                }
            }
        }
        cells
    }
}

/// Statistics digests of every cell at [`DEFAULT_SEED`], keyed by
/// `(workload, cell key)`.  A cell whose digest differs at the default seed
/// counts as failed: the simulation no longer computes what it did when the
/// benchmark was defined.
#[rustfmt::skip]
pub const PINNED_DIGESTS: &[(&str, &str, u64)] = &[
    ("dense_mw", "Jacobi/1024x2048(large)/4K/p4", 0x52dfab9eb2637f13),
    ("dense_mw", "Jacobi/1024x2048(large)/16K/p4", 0x0413da558acaf026),
    ("dense_mw", "Shallow/4096x192(large)/4K/p4", 0xce13de4ff26c0d16),
    ("dense_mw", "Shallow/4096x192(large)/16K/p4", 0x68c8880ff09e1e3f),
    ("home_contended", "Ilink/CLP-96x8192(large)/4K/p8/home-based/bus+batched", 0xf3bdf5f3292afd41),
    ("home_contended", "Ilink/CLP-96x8192(large)/16K/p8/home-based/bus+batched", 0x0fdef2fbe1870edd),
    ("home_contended", "Ilink/CLP-96x8192(large)/Dyn/p8/home-based/bus+batched", 0xc55fc7cc206a415f),
    ("home_contended", "MGS/96x8192(large)/4K/p8/home-based/bus+batched", 0x0802f798da0372c0),
    ("home_contended", "MGS/96x8192(large)/16K/p8/home-based/bus+batched", 0x88a9b6f89ff83f47),
    ("home_contended", "MGS/96x8192(large)/Dyn/p8/home-based/bus+batched", 0x6dc373c843b8affd),
    ("sync_many", "Water/1024mol(large)/4K/p32", 0x1b36b487563889f1),
    ("sync_many", "Water/1024mol(large)/Dyn/p32", 0x0b26ad00fe5225fa),
    ("sync_many", "TSP/12cities(large)/4K/p32", 0x08b69b6ed97ffa0e),
    ("sync_many", "TSP/12cities(large)/Dyn/p32", 0x989c6369fd158c4a),
    ("sync_many", "Jacobi/32x256(tiny)/4K/p1024", 0x84d13552d38144b8),
    ("sync_many", "Jacobi/32x256(tiny)/16K/p1024", 0x08cd49cc0d2f0965),
    ("sync_many", "Jacobi/32x256(tiny)/4K/p1024/home-based", 0xe19a5214278f4ccd),
    ("sync_many", "Jacobi/32x256(tiny)/16K/p1024/home-based", 0x7197d587a3fbc9cd),
];

/// The pinned digest of `cell` in workload `kind`, if one is recorded.
pub fn pinned_digest(kind: Kind, cell: &Cell) -> Option<u64> {
    let key = cell.key();
    PINNED_DIGESTS
        .iter()
        .find(|(w, k, _)| *w == kind.name() && *k == key)
        .map(|&(_, _, d)| d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_bench::{render, run_experiment, BenchArgs, Experiment, OutputFormat, RunnerOptions};
    use tm_bench::{ExperimentResult, Scale};

    use crate::check::{cell_result, simulate};

    #[test]
    fn every_cell_has_a_pinned_digest_and_a_distinct_key() {
        for kind in Kind::ALL {
            let cells = kind.cells(DEFAULT_SEED);
            let mut keys: Vec<String> = cells.iter().map(|c| c.key()).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(
                keys.len(),
                cells.len(),
                "{}: duplicate cell keys",
                kind.name()
            );
            for cell in &cells {
                assert!(
                    pinned_digest(kind, cell).is_some(),
                    "{}: no pinned digest for {}",
                    kind.name(),
                    cell.key()
                );
            }
        }
        assert_eq!(PINNED_DIGESTS.len(), 4 + 6 + 8, "no stale pins");
    }

    #[test]
    fn names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(Kind::from_name("dense"), None);
    }

    /// The 1024-processor cells are `fig_scale`'s largest points, cell for
    /// cell, at any base seed.
    #[test]
    fn sync_many_contains_fig_scale_largest_points() {
        let args = BenchArgs {
            seed: 0x5eed,
            scale: Scale::Large,
            ..BenchArgs::defaults(8)
        };
        let scale: Vec<Cell> = Experiment::fig_scale(&args)
            .cells
            .into_iter()
            .filter(|c| c.nprocs == 1024)
            .collect();
        let ours: Vec<Cell> = Kind::SyncMany
            .cells(0x5eed)
            .into_iter()
            .filter(|c| c.nprocs == 1024)
            .collect();
        assert_eq!(ours, scale);
    }

    /// Continuity: `dense_mw`'s Jacobi 4K and 16K cells are the rows of
    /// `fig2 4 --scale large --app Jacobi --format csv` — the same cells, and
    /// the same simulated totals in the emitted CSV.
    #[test]
    fn dense_mw_jacobi_cells_reproduce_the_fig2_csv_rows() {
        let args = BenchArgs {
            nprocs: 4,
            scale: Scale::Large,
            app: Some(tm_apps::AppId::Jacobi),
            format: OutputFormat::Csv,
            threads: 1,
            ..BenchArgs::defaults(8)
        };
        let mut fig2 = Experiment::fig2(&args);
        fig2.cells
            .retain(|c| c.policy_label == "4K" || c.policy_label == "16K");
        let ours: Vec<Cell> = Kind::DenseMw
            .cells(args.seed)
            .into_iter()
            .filter(|c| c.app == tm_apps::AppId::Jacobi)
            .collect();
        assert_eq!(ours, fig2.cells);

        let expected = render(
            &run_experiment(&fig2, &RunnerOptions { threads: 1 }),
            OutputFormat::Csv,
        );
        let cells = ours
            .iter()
            .map(|c| cell_result(c, &simulate(c, &c.workload().unwrap())))
            .collect();
        let doc = ExperimentResult {
            name: fig2.name.clone(),
            title: fig2.title.clone(),
            threads: 1,
            host_wall_ns: 0,
            cells,
        };
        assert_eq!(render(&doc, OutputFormat::Csv), expected);
    }
}
