//! Cluster construction, shared-memory allocation, and parallel execution.
//!
//! A [`Dsm`] value owns the configuration of a simulated cluster and the
//! allocator for its shared address space.  [`Dsm::run`] executes the
//! application body on every simulated processor, hands each a [`ProcCtx`],
//! waits for every processor to finish, and returns the per-processor
//! results together with the cluster-wide statistics the paper's figures are
//! derived from.
//!
//! Execution is **deterministic**: the processors run under the cooperative
//! turn-taking of [`tm_sched::Scheduler`] — exactly one runs at a time, and
//! every blocking point (lock acquire/release, barrier arrival, fault
//! service) hands the turn to the runnable processor with the smallest
//! `(logical clock, tie-break)` pair.  Every statistic of a run is therefore
//! a pure function of `(program, DsmConfig)` — including
//! [`DsmConfig::sched`]'s mode and seed, which select among legal
//! interleavings.
//!
//! The engine is a single-threaded discrete-event loop: each processor is a
//! resumable state machine (the `async` body's continuation), and the loop
//! resumes exactly the scheduler's current pick on the calling host thread —
//! no spawn cost and no parked stacks, which is what makes clusters of
//! hundreds of processors practical.  The run's shared state (interval logs,
//! synchronization, home directory, link occupancy, race detector) has one
//! owner, a `World` behind an `Rc`; the scheduler's one-at-a-time turn is
//! what makes its `RefCell` borrows sound.  `tests/schedule_golden.rs` pins
//! the resulting order decision by decision.

use std::any::Any;
use std::cell::{RefCell, RefMut};
use std::future::Future;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use tm_net::{ClusterStats, NetworkState, ProcStats};
use tm_page::{Align, GlobalAddr, RegionAllocator};
use tm_race::RaceDetector;

use crate::config::DsmConfig;
use crate::handle::{GArray, GMatrix, GScalar, SharedVal};
use crate::interval::IntervalLog;
use crate::proc::ProcCtx;
use crate::protocol::{HomeDirectory, ProtocolMode};
use crate::sync::GlobalSync;

/// The state one run's processors share, with a single owner.  Every
/// [`ProcCtx`] holds an `Rc` to it; only the processor holding the
/// scheduler's turn touches it, and no borrow is held across a park point.
pub(crate) struct World {
    /// Each processor's interval log (the diff/interval store other
    /// processors consult when they fault), indexed by rank.
    pub(crate) logs: Vec<RefCell<IntervalLog>>,
    /// Locks, the barrier and the deterministic scheduler.
    pub(crate) sync: GlobalSync,
    /// Home assignment and master copies; present exactly for home-based
    /// runs (multi-writer runs have no authoritative copy).
    home: Option<RefCell<HomeDirectory>>,
    /// Link-occupancy state; present exactly when the topology models
    /// contention.  The ideal default constructs nothing and takes none of
    /// the occupancy code paths, keeping it bit-identical to the
    /// pre-topology simulator.
    pub(crate) net: Option<RefCell<NetworkState>>,
    /// The happens-before race detector; present exactly when race checking
    /// is requested.  The default constructs nothing and takes none of the
    /// detector code paths, keeping default runs bit-identical to the
    /// pre-racecheck simulator.
    pub(crate) race: Option<RefCell<RaceDetector>>,
}

impl World {
    /// The home directory of a home-based run.
    ///
    /// # Panics
    /// Panics if the run is not home-based.
    pub(crate) fn home(&self) -> RefMut<'_, HomeDirectory> {
        self.home
            .as_ref()
            .expect("home-based run has a directory")
            .borrow_mut()
    }
}

/// A scheduler decision trace: `(decision index, chosen rank)` for every
/// scheduling decision of a run, in order.
pub type DecisionTrace = Vec<(u64, usize)>;

thread_local! {
    /// The decision traces collected while a [`record_decision_traces`]
    /// scope is open on this thread (`None` outside one).
    static TRACE_SINK: RefCell<Option<Vec<DecisionTrace>>> = const { RefCell::new(None) };
}

/// Run `f` and return, with its result, the scheduler decision trace of
/// every [`Dsm::run`] it performed on this thread, in run order — which
/// also reaches runs started deep inside application code.  A run executes
/// entirely on the thread that starts it, so the thread-local collector
/// sees every one.  The enclosing scope's collector is restored even when
/// `f` panics.
pub fn record_decision_traces<T>(f: impl FnOnce() -> T) -> (T, Vec<DecisionTrace>) {
    let outer = TRACE_SINK.replace(Some(Vec::new()));
    let out = catch_unwind(AssertUnwindSafe(f));
    let traces = TRACE_SINK.replace(outer).unwrap_or_default();
    match out {
        Ok(out) => (out, traces),
        Err(payload) => resume_unwind(payload),
    }
}

/// The result of one parallel run: per-processor return values (indexed by
/// rank) and the aggregated communication statistics.
#[derive(Debug)]
pub struct RunOutput<R> {
    /// One entry per processor, in rank order.
    pub results: Vec<R>,
    /// Cluster-wide statistics (exchanges, faults, control traffic, modeled
    /// execution time).
    pub stats: ClusterStats,
}

impl<R> RunOutput<R> {
    /// The paper's communication breakdown for this run.
    pub fn breakdown(&self) -> tm_net::CommBreakdown {
        self.stats.breakdown()
    }
}

/// A configured DSM cluster: shared-space allocator plus run launcher.
#[derive(Debug)]
pub struct Dsm {
    config: DsmConfig,
    allocator: RegionAllocator,
}

impl Dsm {
    /// Create a cluster with the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`DsmConfig::validate`]).
    pub fn new(config: DsmConfig) -> Self {
        config.validate();
        let allocator = RegionAllocator::new(config.layout());
        Dsm { config, allocator }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &DsmConfig {
        &self.config
    }

    /// Allocate `bytes` bytes of shared memory with the given alignment.
    pub fn alloc_bytes(&mut self, bytes: u64, align: Align) -> GlobalAddr {
        self.allocator
            .alloc(bytes, align)
            .expect("shared address space exhausted; raise DsmConfig::shared_pages")
    }

    /// Allocate a shared array of `len` elements of `T`.
    pub fn alloc_array<T: SharedVal>(&mut self, len: usize, align: Align) -> GArray<T> {
        let base = self.alloc_bytes((len * T::BYTES) as u64, align);
        GArray::from_raw(base, len)
    }

    /// Allocate a shared row-major matrix of `rows × cols` elements of `T`,
    /// starting on a fresh page (the layout used by the grid applications).
    pub fn alloc_matrix<T: SharedVal>(&mut self, rows: usize, cols: usize) -> GMatrix<T> {
        let arr = self.alloc_array::<T>(rows * cols, Align::Page);
        GMatrix::from_array(arr, rows, cols)
    }

    /// Allocate a single shared scalar of `T`.
    pub fn alloc_scalar<T: SharedVal>(&mut self, align: Align) -> GScalar<T> {
        let base = self.alloc_bytes(T::BYTES as u64, align);
        GScalar::from_raw(base)
    }

    /// Bytes of shared space already allocated.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocator.used()
    }

    /// Run `body` on every simulated processor and collect the results and
    /// statistics.
    ///
    /// The body is an `async` function of the processor's [`ProcCtx`]; every
    /// shared access and synchronization operation is a potential park point
    /// (`.await`) where the deterministic scheduler may run another
    /// processor.  The whole run executes on the calling thread.
    ///
    /// Each run starts from a pristine shared space (all zero bytes) and
    /// fresh protocol state; allocations performed on this [`Dsm`] remain
    /// valid across runs (they are just address assignments).
    ///
    /// # Panics
    /// Re-raises the panic of the first processor that panics, or panics
    /// with the scheduler's state dump if the program deadlocks.
    pub fn run<R, F>(&self, body: F) -> RunOutput<R>
    where
        F: AsyncFn(&mut ProcCtx) -> R,
    {
        let nprocs = self.config.nprocs;
        // Size all per-page protocol state by the allocator's high-water
        // mark, not the configured address-space reservation: a run can
        // only touch pages it allocated, and the truncation (rounded to
        // whole consistency units — see `PageLayout::truncated_to`) is
        // bit-invisible to every statistic.  Without it, large clusters
        // zero-fill hundreds of megabytes of tables for pages nobody owns.
        let layout = self
            .config
            .layout()
            .truncated_to(self.allocator.used(), self.config.unit.protection_pages());
        let world = Rc::new(World {
            logs: (0..nprocs)
                .map(|_| RefCell::new(IntervalLog::new()))
                .collect(),
            sync: GlobalSync::new(nprocs, self.config.max_locks, self.config.sched),
            home: match self.config.protocol {
                ProtocolMode::MultiWriter => None,
                ProtocolMode::HomeBased { assign } => {
                    Some(RefCell::new(HomeDirectory::new(layout, nprocs, assign)))
                }
            },
            net: self
                .config
                .topology
                .is_contended()
                .then(|| RefCell::new(NetworkState::new(self.config.topology, nprocs))),
            race: self.config.racecheck.then(|| {
                RefCell::new(RaceDetector::new(
                    nprocs,
                    layout.total_pages(),
                    layout.words_per_page(),
                ))
            }),
        });
        let sched = world.sync.scheduler();
        if TRACE_SINK.with_borrow(Option::is_some) {
            // Enabled after construction, so the constructor's own first
            // pick is not in the trace.
            sched.enable_decision_trace();
        }

        // Every simulated processor is a boxed continuation.
        type Continuation<'a, R> = Pin<Box<dyn Future<Output = (R, ProcStats)> + 'a>>;
        let mut continuations: Vec<Option<Continuation<'_, R>>> = (0..nprocs)
            .map(|rank| {
                let world = Rc::clone(&world);
                let (config, body) = (&self.config, &body);
                let fut = async move {
                    let mut ctx = ProcCtx::new(rank, config, layout, world);
                    let result = body(&mut ctx).await;
                    (result, ctx.finish())
                };
                Some(Box::pin(fut) as Continuation<'_, R>)
            })
            .collect();
        let mut outcomes: Vec<Option<(R, ProcStats)>> = (0..nprocs).map(|_| None).collect();
        let mut failure: Option<Box<dyn Any + Send>> = None;
        let mut cx = Context::from_waker(Waker::noop());

        // The pick loop: resume whoever the scheduler says is current.  A
        // `Pending` step means the processor parked (and the park transition
        // already picked a successor); `Ready` retires the rank.  Each step
        // runs under `catch_unwind`, so a panicking processor is retired
        // like a finished one (its continuation is dropped, its rank leaves
        // the scheduler) and the run stops cleanly.
        while let Some(rank) = sched.current() {
            let fut = continuations[rank]
                .as_mut()
                .expect("current processor must have a live continuation");
            let step = catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)));
            match step {
                Ok(Poll::Pending) => continue,
                Ok(Poll::Ready(pair)) => outcomes[rank] = Some(pair),
                Err(payload) => {
                    failure.get_or_insert(payload);
                }
            }
            continuations[rank] = None;
            sched.finish(rank);
        }

        // The first rank to panic is the root cause; it wins over the
        // deadlock its retirement may have left behind.
        if let Some(payload) = failure {
            resume_unwind(payload);
        }
        if let Some(dump) = sched.abort_dump() {
            panic!("{dump}");
        }

        let mut results = Vec::with_capacity(nprocs);
        let mut stats = ClusterStats::default();
        for (rank, outcome) in outcomes.into_iter().enumerate() {
            let (result, mut proc_stats) = outcome.expect("every processor completed");
            // Fold in the owner's shared-log counters.  They are folded
            // here, after every processor has finished, because serving and
            // retirement touch a processor's log after its own `finish()`
            // (e.g. rank 0's post-run verification reads lazily materialize
            // diffs in everyone else's logs).
            let c = world.logs[rank].borrow().counters();
            proc_stats.diffs_created += c.diffs_created_on_demand;
            proc_stats.diff_bytes_created += c.diff_bytes_created_on_demand;
            proc_stats.diffs_created_on_demand = c.diffs_created_on_demand;
            proc_stats.intervals_retired = c.intervals_retired;
            proc_stats.diffs_retired = c.diffs_retired;
            results.push(result);
            stats.per_proc.push(proc_stats);
        }
        if let Some(net) = &world.net {
            stats.links = net.borrow().link_stats();
        }
        if let Some(race) = &world.race {
            stats.races = race.borrow_mut().take_races();
        }
        if let Some(trace) = sched.take_decision_trace() {
            TRACE_SINK.with_borrow_mut(|sink| {
                sink.as_mut()
                    .expect("tracing is enabled only inside a recording scope")
                    .push(trace)
            });
        }
        RunOutput { results, stats }
    }

    /// Like [`Dsm::run`], but additionally records and returns the
    /// scheduler's decision trace — the `(decision index, chosen rank)`
    /// sequence of every scheduling decision taken after setup.  The
    /// schedule goldens pin these traces; everyday callers want
    /// [`Dsm::run`], which skips the bookkeeping.
    pub fn run_traced<R, F>(&self, body: F) -> (RunOutput<R>, DecisionTrace)
    where
        F: AsyncFn(&mut ProcCtx) -> R,
    {
        let (output, mut traces) = record_decision_traces(|| self.run(body));
        (output, traces.pop().expect("one run records one trace"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DsmConfig, UnitPolicy};
    use tm_net::CostModel;

    fn small_config(nprocs: usize) -> DsmConfig {
        DsmConfig {
            nprocs,
            page_size: 4096,
            shared_pages: 64,
            unit: UnitPolicy::Static { pages: 1 },
            protocol: crate::protocol::ProtocolMode::MultiWriter,
            cost: CostModel::pentium_ethernet_1997(),
            max_locks: 16,
            sched: tm_sched::SchedConfig::default(),
            diff_timing: crate::config::DiffTiming::default(),
            gc_flush_pending_limit: crate::config::DEFAULT_GC_FLUSH_PENDING_LIMIT,
            topology: tm_net::Topology::default(),
            aggregation: tm_net::AggregationPolicy::default(),
            racecheck: false,
        }
    }

    #[test]
    fn single_processor_run_has_no_communication() {
        let mut dsm = Dsm::new(small_config(1));
        let arr = dsm.alloc_array::<u64>(100, Align::Page);
        let out = dsm.run(async |ctx| {
            for i in 0..100 {
                arr.set(ctx, i, (i * i) as u64).await;
            }
            let mut sum = 0u64;
            for i in 0..100 {
                sum += arr.get(ctx, i).await;
            }
            sum
        });
        let expected: u64 = (0..100u64).map(|i| i * i).sum();
        assert_eq!(out.results, vec![expected]);
        let b = out.breakdown();
        assert_eq!(b.total_messages(), 0);
        assert_eq!(b.total_payload(), 0);
        assert_eq!(b.faults, 0);
    }

    #[test]
    fn producer_consumer_over_a_barrier() {
        let mut dsm = Dsm::new(small_config(2));
        let arr = dsm.alloc_array::<u32>(1024, Align::Page);
        let out = dsm.run(async |ctx| {
            if ctx.rank() == 0 {
                let values: Vec<u32> = (0..1024u32).collect();
                arr.write_slice(ctx, 0, &values).await;
            }
            ctx.barrier().await;
            if ctx.rank() == 1 {
                let got = arr.read_vec(ctx, 0, 1024).await;
                got.iter().map(|&v| v as u64).sum::<u64>()
            } else {
                0
            }
        });
        assert_eq!(out.results[1], (0..1024u64).sum::<u64>());
        let b = out.breakdown();
        // The consumer faulted on the page and fetched a useful diff.
        assert!(b.faults >= 1);
        assert!(b.useful_data > 0);
        assert_eq!(b.useless_messages, 0);
    }

    #[test]
    fn lock_protected_counter_is_coherent() {
        let mut dsm = Dsm::new(small_config(4));
        let counter = dsm.alloc_scalar::<u64>(Align::Page);
        let out = dsm.run(async |ctx| {
            for _ in 0..25 {
                ctx.acquire(0).await;
                let v = counter.get(ctx).await;
                counter.set(ctx, v + 1).await;
                ctx.release(0).await;
            }
            ctx.barrier().await;
            counter.get(ctx).await
        });
        for r in out.results {
            assert_eq!(r, 100);
        }
    }

    #[test]
    fn multiple_writers_to_one_page_merge_correctly() {
        // Two processors write disjoint halves of the same page; after the
        // barrier both see both halves — the multiple-writer protocol at
        // work.
        let mut dsm = Dsm::new(small_config(2));
        let arr = dsm.alloc_array::<u32>(1024, Align::Page);
        let out = dsm.run(async |ctx| {
            let me = ctx.rank();
            let half = 512usize;
            let values: Vec<u32> = (0..half as u32).map(|i| i + 1000 * me as u32).collect();
            arr.write_slice(ctx, me * half, &values).await;
            ctx.barrier().await;
            let all = arr.read_vec(ctx, 0, 1024).await;
            (all[0], all[512])
        });
        assert_eq!(out.results[0], (0, 1000));
        assert_eq!(out.results[1], (0, 1000));
    }

    #[test]
    fn contended_runs_reproduce_per_seed_and_vary_across_seeds() {
        use tm_sched::SchedConfig;
        // A lock-contended workload whose *message counts* depend on the
        // hand-off order: under the deterministic scheduler the full stats
        // must reproduce exactly per seed.
        let run = |sched: SchedConfig| {
            let mut dsm = Dsm::new(DsmConfig {
                sched,
                ..small_config(4)
            });
            let counter = dsm.alloc_scalar::<u64>(Align::Page);
            let out = dsm.run(async |ctx| {
                for _ in 0..10 {
                    ctx.acquire(0).await;
                    let v = counter.get(ctx).await;
                    counter.set(ctx, v + 1).await;
                    ctx.release(0).await;
                }
                ctx.barrier().await;
                counter.get(ctx).await
            });
            assert_eq!(out.results, vec![40, 40, 40, 40]);
            out.stats
        };
        for sched in [
            SchedConfig::fifo(),
            SchedConfig::seeded(0),
            SchedConfig::seeded(17),
        ] {
            let a = run(sched);
            let b = run(sched);
            assert_eq!(a, b, "{sched:?} must reproduce bit-identically");
        }
    }

    #[test]
    fn home_based_runs_compute_the_same_results_with_different_traffic() {
        use crate::protocol::ProtocolMode;
        // The multiple-writers-to-one-page scenario under both protocols:
        // the computed values must be identical, but the home-based run
        // replaces diff exchanges with home updates and whole-page fetches.
        let run = |protocol: ProtocolMode| {
            let mut dsm = Dsm::new(DsmConfig {
                protocol,
                ..small_config(2)
            });
            let arr = dsm.alloc_array::<u32>(1024, Align::Page);
            let out = dsm.run(async |ctx| {
                let me = ctx.rank();
                let half = 512usize;
                let values: Vec<u32> = (0..half as u32).map(|i| i + 1000 * me as u32).collect();
                arr.write_slice(ctx, me * half, &values).await;
                ctx.barrier().await;
                let all = arr.read_vec(ctx, 0, 1024).await;
                (all[0], all[511], all[512], all[1023])
            });
            out
        };
        let mw = run(ProtocolMode::MultiWriter);
        let hb = run(ProtocolMode::home_based());
        assert_eq!(mw.results, hb.results, "protocols must agree on results");

        let mwb = mw.breakdown();
        let hbb = hb.breakdown();
        assert_eq!(mwb.home_updates, 0);
        assert_eq!(mwb.page_fetches, 0);
        // Rank 1 is not the home of the (page-0-resident) array page: its
        // close flushed an update, and its post-barrier fault fetched the
        // whole page; rank 0 (the home) refreshed locally without traffic.
        assert!(hbb.home_updates >= 1, "{hbb:?}");
        assert!(hbb.page_fetches >= 1, "{hbb:?}");
        // A whole-page fetch delivers the full page; the words rank 1 wrote
        // itself come back unread-before-overwritten or plain redundant, so
        // home-based moves more (partly useless) data than multi-writer.
        assert!(hbb.total_payload() > mwb.total_payload());
        assert_ne!(
            mwb.total_messages(),
            hbb.total_messages(),
            "the protocols must provably diverge in message counts"
        );
    }

    #[test]
    fn home_based_first_touch_assigns_homes_to_first_writers() {
        use crate::protocol::{HomeAssign, ProtocolMode};
        // Each processor writes its own private page band first, so under
        // first touch every page is self-homed and the steady state sends
        // no home updates at all; round-robin scatters the same pages over
        // both processors and must flush the remote half.
        let run = |assign: HomeAssign| {
            let mut dsm = Dsm::new(DsmConfig {
                protocol: ProtocolMode::HomeBased { assign },
                ..small_config(2)
            });
            // 4 pages; each processor owns two *consecutive* pages, so the
            // round-robin interleaving homes one of them remotely while
            // first touch homes both locally.
            let arr = dsm.alloc_array::<u64>(2048, Align::Page);
            let out = dsm.run(async |ctx| {
                let me = ctx.rank();
                for round in 0..3u64 {
                    for i in 0..1024 {
                        arr.set(ctx, me * 1024 + i, round + i as u64).await;
                    }
                    ctx.barrier().await;
                }
                arr.get(ctx, me * 1024).await
            });
            (out.results.clone(), out.breakdown())
        };
        let (ft_results, ft) = run(HomeAssign::FirstTouch);
        let (rr_results, rr) = run(HomeAssign::RoundRobin);
        assert_eq!(ft_results, rr_results);
        assert_eq!(ft.home_updates, 0, "first touch makes every write local");
        assert!(rr.home_updates > 0, "round-robin must flush remote pages");
    }

    #[test]
    #[should_panic(expected = "application failure on rank 1")]
    fn panicking_processor_aborts_the_run_instead_of_hanging() {
        // Rank 1 panics before its barrier; the remaining processors block
        // there forever. The run must stop and re-raise the root-cause
        // panic rather than wait on the blocked survivors.
        let dsm = Dsm::new(small_config(3));
        dsm.run(async |ctx| {
            if ctx.rank() == 1 {
                panic!("application failure on rank 1");
            }
            ctx.barrier().await;
        });
    }

    #[test]
    #[should_panic(expected = "simulated deadlock: no runnable processor")]
    fn deadlocked_program_panics_with_the_scheduler_state_dump() {
        // Rank 0 takes the lock and finishes without releasing it; rank 1
        // requests it and can never be granted.  Retiring rank 0 leaves no
        // runnable processor: the run must raise the scheduler's dump.
        let dsm = Dsm::new(small_config(2));
        dsm.run(async |ctx| {
            ctx.acquire(0).await;
        });
    }

    #[test]
    fn event_engine_survives_a_panic_without_corrupting_state() {
        // A panicking run on the event engine must leave the process able to
        // start a fresh run immediately — the catch_unwind step boundary may
        // not poison any engine state that outlives the run.
        let result = catch_unwind(AssertUnwindSafe(|| {
            let dsm = Dsm::new(small_config(2));
            dsm.run(async |ctx| {
                if ctx.rank() == 0 {
                    panic!("deliberate failure");
                }
                ctx.barrier().await;
            });
        }));
        assert!(result.is_err(), "the panic must propagate");

        let mut dsm = Dsm::new(small_config(2));
        let arr = dsm.alloc_array::<u64>(8, Align::Page);
        let out = dsm.run(async |ctx| {
            if ctx.rank() == 0 {
                arr.set(ctx, 0, 7).await;
            }
            ctx.barrier().await;
            arr.get(ctx, 0).await
        });
        assert_eq!(out.results, vec![7, 7]);
    }

    #[test]
    fn allocations_do_not_overlap_and_persist_across_runs() {
        let mut dsm = Dsm::new(small_config(2));
        let a = dsm.alloc_array::<u64>(10, Align::Page);
        let b = dsm.alloc_array::<u64>(10, Align::Word);
        assert!(b.base().offset() >= a.base().offset() + 80);

        let first = dsm.run(async |ctx| {
            if ctx.rank() == 0 {
                a.set(ctx, 0, 42).await;
            }
            ctx.barrier().await;
            a.get(ctx, 0).await
        });
        assert_eq!(first.results, vec![42, 42]);
        // A second run starts from a zeroed shared space.
        let second = dsm.run(async |ctx| a.get(ctx, 0).await);
        assert_eq!(second.results, vec![0, 0]);
    }
}
