//! Shared plumbing for the eight-application evaluation suite.
//!
//! Every application exposes the same three entry points:
//!
//! * `run_sequential(size) -> f64` — a plain, single-threaded Rust
//!   implementation producing the reference checksum,
//! * `run_parallel(&AppConfig, size) -> AppRun` — the DSM implementation,
//!   returning the checksum plus the communication statistics, and
//! * `sizes()` — the data-set sizes used by the paper (scaled as documented
//!   in EXPERIMENTS.md).
//!
//! The benchmark harness drives all applications uniformly through the
//! [`suite`](crate::suite) registry.

use tdsm_core::{
    AggregationPolicy, ClusterStats, CommBreakdown, CostModel, DiffTiming, DsmConfig, EngineKind,
    ProtocolMode, SchedConfig, Topology, UnitPolicy,
};

/// Configuration of one application run: how many processors and which
/// consistency-unit policy.
#[derive(Debug, Clone)]
pub struct AppConfig {
    /// Number of simulated processors.
    pub nprocs: usize,
    /// Consistency-unit policy (the paper's 4 K / 8 K / 16 K / Dyn axis).
    pub unit: UnitPolicy,
    /// Write protocol (multi-writer twin/diff, or home-based single-writer;
    /// protocols may differ in messages, never in computed results).
    pub protocol: ProtocolMode,
    /// Cost model for the simulated cluster.
    pub cost: CostModel,
    /// Shared-space size in pages (applications with large footprints raise
    /// this).
    pub shared_pages: u32,
    /// Deterministic-scheduler configuration (tie-break mode and seed);
    /// together with the fields above it fully determines the run's results.
    pub sched: SchedConfig,
    /// When diffs are created and charged (TreadMarks-faithful lazy
    /// on-demand creation by default; message counts/volumes are identical
    /// either way).
    pub diff_timing: DiffTiming,
    /// Pending-notice count above which a barrier triggers the interval
    /// GC's validation flush (see `DsmConfig::gc_flush_pending_limit`).
    pub gc_flush_pending_limit: usize,
    /// Interconnect shape: the ideal (infinite-bandwidth) default, a shared
    /// 10 Mbps bus, or a switched fabric with per-processor ports.  Changes
    /// modeled time only, never computed results or message counts.
    pub topology: Topology,
    /// How write notices and diff flushes are packed onto the wire; only
    /// observable under a contended topology.
    pub aggregation: AggregationPolicy,
    /// Run the happens-before data-race detector alongside the protocol.
    /// Pure observation: results, message counts, and modeled times are
    /// unchanged; detected races surface in `AppRun::stats.races`.
    pub racecheck: bool,
}

impl AppConfig {
    /// The paper's base configuration: 8 processors, 4 KB consistency unit.
    pub fn paper_default() -> Self {
        AppConfig {
            nprocs: 8,
            unit: UnitPolicy::Static { pages: 1 },
            protocol: ProtocolMode::MultiWriter,
            cost: CostModel::pentium_ethernet_1997(),
            shared_pages: 16 * 1024, // 64 MB
            sched: SchedConfig::default(),
            diff_timing: DiffTiming::default(),
            gc_flush_pending_limit: tdsm_core::config::DEFAULT_GC_FLUSH_PENDING_LIMIT,
            topology: Topology::default(),
            aggregation: AggregationPolicy::default(),
            racecheck: false,
        }
    }

    /// Base configuration with a different processor count.
    pub fn with_procs(nprocs: usize) -> Self {
        AppConfig {
            nprocs,
            ..Self::paper_default()
        }
    }

    /// Builder-style setter for the consistency-unit policy.
    pub fn unit(mut self, unit: UnitPolicy) -> Self {
        self.unit = unit;
        self
    }

    /// Builder-style setter for the write protocol.
    pub fn protocol(mut self, protocol: ProtocolMode) -> Self {
        self.protocol = protocol;
        self
    }

    /// Builder-style setter for the cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Builder-style setter for the scheduling configuration.
    pub fn sched(mut self, sched: SchedConfig) -> Self {
        self.sched = sched;
        self
    }

    /// Builder-style setter for the diff-timing knob.
    pub fn diff_timing(mut self, timing: DiffTiming) -> Self {
        self.diff_timing = timing;
        self
    }

    /// Accepts the one execution engine and changes nothing.  Kept so
    /// callers written against the former two-engine API (for instance the
    /// whole-system benchmark) still compile.
    pub fn engine(self, _engine: EngineKind) -> Self {
        self
    }

    /// Builder-style setter for the interconnect topology.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Builder-style setter for the wire-aggregation policy.
    pub fn aggregation(mut self, aggregation: AggregationPolicy) -> Self {
        self.aggregation = aggregation;
        self
    }

    /// Builder-style setter for the race-detection knob.
    pub fn racecheck(mut self, racecheck: bool) -> Self {
        self.racecheck = racecheck;
        self
    }

    /// Convert into the DSM configuration used to build the cluster.
    pub fn dsm_config(&self) -> DsmConfig {
        DsmConfig {
            nprocs: self.nprocs,
            shared_pages: self.shared_pages,
            unit: self.unit,
            protocol: self.protocol,
            cost: self.cost.clone(),
            sched: self.sched,
            diff_timing: self.diff_timing,
            gc_flush_pending_limit: self.gc_flush_pending_limit,
            topology: self.topology,
            aggregation: self.aggregation,
            racecheck: self.racecheck,
            ..DsmConfig::paper_default()
        }
    }
}

impl Default for AppConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The outcome of one parallel application run.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Application name ("Jacobi", "MGS", ...).
    pub app: &'static str,
    /// Label of the data-set size ("1Kx1K", "64x64x64", ...).
    pub size: String,
    /// Verification checksum (compared against the sequential version).
    pub checksum: f64,
    /// Modeled parallel execution time in nanoseconds.
    pub exec_time_ns: u64,
    /// The paper's communication breakdown for this run.
    pub breakdown: CommBreakdown,
    /// The raw per-processor statistics the breakdown was derived from.
    /// Under the deterministic scheduler these reproduce bit-identically
    /// for a fixed `(app, config, seed)` — the determinism tests compare
    /// them whole.
    pub stats: ClusterStats,
}

impl AppRun {
    /// Modeled execution time in milliseconds (readability helper).
    pub fn exec_time_ms(&self) -> f64 {
        self.exec_time_ns as f64 / 1e6
    }
}

/// Compare a parallel checksum against the sequential reference with a
/// relative tolerance (floating-point reduction order may differ for the
/// lock-based applications).
pub fn checksums_match(parallel: f64, sequential: f64, rel_tol: f64) -> bool {
    if parallel == sequential {
        return true;
    }
    let scale = sequential.abs().max(parallel.abs()).max(1e-30);
    ((parallel - sequential) / scale).abs() <= rel_tol
}

/// Split `n` items into `nprocs` contiguous chunks; returns the half-open
/// range owned by `rank` (the band/slab partitioning used by most of the
/// applications).
pub fn block_range(n: usize, nprocs: usize, rank: usize) -> std::ops::Range<usize> {
    let base = n / nprocs;
    let extra = n % nprocs;
    let start = rank * base + rank.min(extra);
    let len = base + usize::from(rank < extra);
    start..(start + len)
}

/// A tiny deterministic pseudo-random generator (xorshift64*) used by the
/// applications for reproducible synthetic inputs, independent of the `rand`
/// crate's version-to-version stream changes.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Create a generator from a non-zero seed.
    pub fn new(seed: u64) -> Self {
        DetRng { state: seed.max(1) }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, bound)`.
    pub fn next_range(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_range_covers_everything_exactly_once() {
        for n in [1usize, 7, 8, 100, 1023] {
            for p in [1usize, 2, 3, 8] {
                let mut covered = vec![false; n];
                for rank in 0..p {
                    for i in block_range(n, p, rank) {
                        assert!(!covered[i], "index {i} covered twice");
                        covered[i] = true;
                    }
                }
                assert!(covered.into_iter().all(|c| c), "n={n} p={p} not covered");
            }
        }
    }

    #[test]
    fn block_range_is_balanced() {
        let sizes: Vec<usize> = (0..8).map(|r| block_range(100, 8, r).len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn checksum_tolerance() {
        assert!(checksums_match(1.0, 1.0, 0.0));
        assert!(checksums_match(1.0 + 1e-12, 1.0, 1e-9));
        assert!(!checksums_match(1.1, 1.0, 1e-9));
        assert!(checksums_match(0.0, 0.0, 1e-9));
    }

    #[test]
    fn det_rng_is_deterministic_and_in_range() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            let x = a.next_f64();
            assert_eq!(x, b.next_f64());
            assert!((0.0..1.0).contains(&x));
            let r = a.next_range(17);
            b.next_range(17);
            assert!(r < 17);
        }
    }

    #[test]
    fn app_config_conversion() {
        let cfg = AppConfig::with_procs(4)
            .unit(UnitPolicy::Static { pages: 2 })
            .protocol(ProtocolMode::home_based())
            .sched(SchedConfig::seeded(0xfeed));
        let dsm = cfg.dsm_config();
        assert_eq!(dsm.nprocs, 4);
        assert_eq!(dsm.unit, UnitPolicy::Static { pages: 2 });
        assert_eq!(dsm.protocol, ProtocolMode::home_based());
        assert_eq!(dsm.sched, SchedConfig::seeded(0xfeed));
        dsm.validate();
        assert_eq!(
            AppConfig::paper_default().protocol,
            ProtocolMode::MultiWriter
        );
    }
}
