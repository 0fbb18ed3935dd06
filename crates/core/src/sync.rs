//! Synchronization substrate: distributed locks and the centralized barrier.
//!
//! TreadMarks provides exactly two synchronization primitives — locks and
//! barriers — and lazy release consistency piggybacks its write notices on
//! them.  Every lock and barrier is a plain state machine, and waiting is
//! delegated to the cluster's [`tm_sched::Scheduler`], which serializes the
//! simulated processors under cooperative turn-taking ordered by `(logical
//! clock, tie-break)`: a processor that must wait parks on a [`TurnWait`]
//! future until the engine resumes it.  Who acquires a contended lock next
//! is therefore a pure function of the run's configuration and seed.  The
//! *consistency information* (vector clock of the last release) and the
//! *modeled time* of each operation travel alongside, unchanged.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use tm_sched::{SchedConfig, Scheduler, WaitKey};

use crate::vc::VectorClock;

/// Snapshot of the last release of a lock, handed to the next acquirer.
#[derive(Debug, Clone)]
pub struct LockRelease {
    /// Processor that last released the lock, or `None` if the lock has
    /// never been released (first acquisition is granted by the manager).
    pub releaser: Option<u32>,
    /// Vector time of the last release; the acquirer must see every interval
    /// this clock covers.
    pub vc: VectorClock,
    /// Modeled time (ns) at which the release happened; the acquirer cannot
    /// be granted the lock before this.
    pub clock_ns: u64,
}

#[derive(Debug)]
struct LockInner {
    held: bool,
    last: LockRelease,
    acquisitions: u64,
}

/// One global application lock (TreadMarks lock id).
///
/// The lock itself never blocks: [`try_acquire`](Self::try_acquire) either
/// takes it or reports it held, and [`GlobalSync::acquire_lock`] parks the
/// caller on the scheduler until a release wakes it.
#[derive(Debug)]
pub struct GlobalLock {
    inner: RefCell<LockInner>,
}

impl GlobalLock {
    /// Create a free lock for a cluster of `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        GlobalLock {
            inner: RefCell::new(LockInner {
                held: false,
                last: LockRelease {
                    releaser: None,
                    vc: VectorClock::zero(nprocs),
                    clock_ns: 0,
                },
                acquisitions: 0,
            }),
        }
    }

    /// Take the lock if it is free, returning the snapshot of the last
    /// release (the grant's consistency payload); `None` if it is held.
    pub fn try_acquire(&self) -> Option<LockRelease> {
        let mut inner = self.inner.borrow_mut();
        if inner.held {
            return None;
        }
        inner.held = true;
        inner.acquisitions += 1;
        Some(inner.last.clone())
    }

    /// Release the lock, publishing the releaser's identity, vector time and
    /// modeled release time for the next acquirer.
    pub fn release(&self, releaser: u32, vc: VectorClock, clock_ns: u64) {
        let mut inner = self.inner.borrow_mut();
        debug_assert!(inner.held, "release of a lock that is not held");
        inner.held = false;
        inner.last = LockRelease {
            releaser: Some(releaser),
            vc,
            clock_ns,
        };
    }

    /// Number of times the lock has been acquired (statistics/tests).
    pub fn acquisitions(&self) -> u64 {
        self.inner.borrow().acquisitions
    }
}

/// Everything a processor learns when it departs from a barrier episode:
/// the common modeled departure time and a consistent snapshot of how many
/// intervals every processor had published when it arrived.  The snapshot
/// bounds the write notices incorporated at this barrier, so that a fast
/// processor racing ahead into its next interval cannot leak "future"
/// notices into the current episode.
#[derive(Debug, Clone)]
pub struct BarrierEpoch {
    /// Modeled time at which every processor leaves the barrier.
    pub depart_clock_ns: u64,
    /// Per-processor count of published intervals at arrival.
    pub published_intervals: Vec<u32>,
    /// Per-processor garbage-collection watermark: processor `p` may retire
    /// every interval of its own log with sequence number `<=
    /// retire_below[p]` once it departs.  Computed by [`gc_thresholds`] from
    /// the previous episode's coverage and this episode's pending-notice
    /// floors.
    pub retire_below: Vec<u32>,
}

/// Compute the per-writer interval-GC watermarks sealed into a barrier
/// episode.
///
/// An interval `(p, seq)` is retirable iff
///
/// 1. **covered**: every processor's vector clock covers it.  Everything
///    published by the *previous* barrier episode qualifies — departing that
///    episode merged its snapshot into every clock — so
///    `prev_published[p]` is a sound coverage bound; and
/// 2. **applied**: no processor still holds a pending (incorporated but not
///    yet fetched) write notice for it.  `pending_floor[p]` is the smallest
///    sequence number of `p`'s intervals still pending at *any* arriver
///    (`u32::MAX` when none): everything strictly below it has been applied
///    everywhere it was ever needed.
///
/// Coverage by all clocks also guarantees no *future* pending entry at or
/// below the watermark can appear: write notices only travel to processors
/// whose clock does not cover them yet.
pub fn gc_thresholds(prev_published: &[u32], pending_floor: &[u32]) -> Vec<u32> {
    debug_assert_eq!(prev_published.len(), pending_floor.len());
    prev_published
        .iter()
        .zip(pending_floor)
        .map(|(&covered, &floor)| covered.min(floor.saturating_sub(1)))
        .collect()
}

#[derive(Debug)]
struct BarrierInner {
    generation: u64,
    arrived: usize,
    max_clock_ns: u64,
    lens: Vec<u32>,
    /// Published-interval snapshot of the previously sealed episode — the
    /// coverage bound of the GC watermark.
    prev_published: Vec<u32>,
    /// Elementwise minimum, over this episode's arrivers so far, of each
    /// arriver's smallest pending notice sequence number per writer.
    pending_floor: Vec<u32>,
    epoch: Rc<BarrierEpoch>,
}

/// Outcome of recording one barrier arrival.
enum Arrival {
    /// This was the last arriver: the episode is sealed; wake the waiters of
    /// the given generation.
    Sealed {
        generation: u64,
        epoch: Rc<BarrierEpoch>,
    },
    /// More arrivals pending: park on the given generation.
    Wait { generation: u64 },
}

/// The centralized barrier (managed by processor 0 in TreadMarks).
///
/// Besides gating every processor until all have arrived (the parking is
/// done by the scheduler, see [`GlobalSync::barrier_arrive`]), the barrier
/// computes the modeled departure time: the latest arrival's logical clock
/// plus the calibrated barrier latency.
#[derive(Debug)]
pub struct CentralBarrier {
    inner: RefCell<BarrierInner>,
    nprocs: usize,
}

impl CentralBarrier {
    /// Create a barrier for `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        CentralBarrier {
            inner: RefCell::new(BarrierInner {
                generation: 0,
                arrived: 0,
                max_clock_ns: 0,
                lens: vec![0; nprocs],
                prev_published: vec![0; nprocs],
                pending_floor: vec![u32::MAX; nprocs],
                epoch: Rc::new(BarrierEpoch {
                    depart_clock_ns: 0,
                    published_intervals: vec![0; nprocs],
                    retire_below: vec![0; nprocs],
                }),
            }),
            nprocs,
        }
    }

    /// Number of processors the barrier synchronizes.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Record the arrival of processor `rank` without blocking.
    /// `my_pending_floor[p]` is the smallest sequence number of processor
    /// `p`'s intervals whose write notice `rank` has incorporated but not
    /// applied yet (`u32::MAX` when none) — the arriver's contribution to
    /// the episode's GC watermark.
    fn arrive(
        &self,
        rank: usize,
        my_clock_ns: u64,
        barrier_latency_ns: u64,
        my_published_intervals: u32,
        my_pending_floor: &[u32],
    ) -> Arrival {
        let mut inner = self.inner.borrow_mut();
        let generation = inner.generation;
        inner.max_clock_ns = inner.max_clock_ns.max(my_clock_ns);
        inner.lens[rank] = my_published_intervals;
        for (acc, &floor) in inner.pending_floor.iter_mut().zip(my_pending_floor) {
            *acc = (*acc).min(floor);
        }
        inner.arrived += 1;
        if inner.arrived == self.nprocs {
            // Last arriver: seal the episode and open the next generation.
            let epoch = Rc::new(BarrierEpoch {
                depart_clock_ns: inner.max_clock_ns.saturating_add(barrier_latency_ns),
                published_intervals: inner.lens.clone(),
                retire_below: gc_thresholds(&inner.prev_published, &inner.pending_floor),
            });
            inner.epoch = Rc::clone(&epoch);
            inner.prev_published = inner.lens.clone();
            inner.pending_floor.fill(u32::MAX);
            inner.arrived = 0;
            inner.max_clock_ns = 0;
            inner.generation += 1;
            Arrival::Sealed { generation, epoch }
        } else {
            Arrival::Wait { generation }
        }
    }

    /// The most recently sealed episode.
    fn epoch(&self) -> Rc<BarrierEpoch> {
        Rc::clone(&self.inner.borrow().epoch)
    }
}

/// The scheduler transition a [`TurnWait`] performs before waiting for the
/// turn to come back around.
#[derive(Debug)]
enum TurnOp {
    /// Requeue as runnable at `clock_ns`, then wait to be picked again.
    Yield { clock_ns: u64 },
    /// Park on `key` at `clock_ns`, then wait to be woken and picked.
    Block { key: WaitKey, clock_ns: u64 },
}

/// A park point: the future returned by every scheduler wait in
/// [`GlobalSync`].  Its first `poll` applies the transition through the
/// scheduler's `note_*` API (which also picks the next runnable
/// processor); it then reports [`Poll::Pending`] until the engine's pick
/// loop finds this processor current again.
#[derive(Debug)]
pub struct TurnWait<'a> {
    sched: &'a Scheduler,
    rank: usize,
    op: Option<TurnOp>,
}

impl Future for TurnWait<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        match this.op.take() {
            Some(TurnOp::Yield { clock_ns }) => this.sched.note_yield(this.rank, clock_ns),
            Some(TurnOp::Block { key, clock_ns }) => {
                this.sched.note_block(this.rank, key, clock_ns)
            }
            None => {}
        }
        if this.sched.is_current(this.rank) {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

/// The cluster-wide synchronization state shared by all processors: the
/// lock table, the barrier, and the deterministic scheduler that serializes
/// every blocking point.
#[derive(Debug)]
pub struct GlobalSync {
    /// Application locks, indexed by lock id.
    pub locks: Vec<GlobalLock>,
    /// The single centralized barrier.
    pub barrier: CentralBarrier,
    sched: Scheduler,
}

impl GlobalSync {
    /// Create the synchronization state for a cluster running under the
    /// given scheduling configuration.
    pub fn new(nprocs: usize, max_locks: usize, sched: SchedConfig) -> Self {
        GlobalSync {
            locks: (0..max_locks).map(|_| GlobalLock::new(nprocs)).collect(),
            barrier: CentralBarrier::new(nprocs),
            sched: Scheduler::new(nprocs, sched),
        }
    }

    /// The deterministic scheduler serializing this cluster's processors.
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// Park point: requeue as runnable at `clock_ns` and wait to be picked.
    pub(crate) fn yield_turn(&self, rank: usize, clock_ns: u64) -> TurnWait<'_> {
        TurnWait {
            sched: &self.sched,
            rank,
            op: Some(TurnOp::Yield { clock_ns }),
        }
    }

    /// Park point: block on `key` at `clock_ns` and wait to be woken.
    fn block_turn(&self, rank: usize, key: WaitKey, clock_ns: u64) -> TurnWait<'_> {
        TurnWait {
            sched: &self.sched,
            rank,
            op: Some(TurnOp::Block { key, clock_ns }),
        }
    }

    /// The lock with the given id.
    ///
    /// # Panics
    /// Panics if `id` is outside the configured lock table.
    pub fn lock(&self, id: usize) -> &GlobalLock {
        self.locks.get(id).unwrap_or_else(|| {
            panic!(
                "lock id {id} outside the configured table of {} locks",
                self.locks.len()
            )
        })
    }

    /// Acquire lock `id` as processor `rank` whose logical clock reads
    /// `clock_ns`, yielding to the scheduler first (so any processor with an
    /// earlier clock gets its request in before us) and parking until the
    /// lock is granted.  Contended hand-off order is therefore
    /// `(request clock, tie-break)` — deterministic.
    pub async fn acquire_lock(&self, id: usize, rank: usize, clock_ns: u64) -> LockRelease {
        self.yield_turn(rank, clock_ns).await;
        loop {
            if let Some(grant) = self.lock(id).try_acquire() {
                return grant;
            }
            self.block_turn(rank, WaitKey::Lock(id as u32), clock_ns)
                .await;
        }
    }

    /// Release lock `id`, wake its waiters, and yield the turn so that a
    /// waiter with an earlier request clock runs before we race ahead.
    pub async fn release_lock(&self, id: usize, rank: usize, vc: VectorClock, clock_ns: u64) {
        self.lock(id).release(rank as u32, vc, clock_ns);
        self.sched.wake_all(WaitKey::Lock(id as u32));
        self.yield_turn(rank, clock_ns).await;
    }

    /// Arrive at the barrier as processor `rank`, announcing the caller's
    /// modeled clock, the number of intervals it has published so far, and
    /// its per-writer pending-notice floors (the GC contribution; see
    /// [`gc_thresholds`]).  Parks (on the scheduler) until everyone
    /// has arrived and returns the barrier episode (common departure time +
    /// published-interval snapshot + retirement watermarks).
    pub async fn barrier_arrive(
        &self,
        rank: usize,
        clock_ns: u64,
        barrier_latency_ns: u64,
        published_intervals: u32,
        pending_floor: &[u32],
    ) -> Rc<BarrierEpoch> {
        self.yield_turn(rank, clock_ns).await;
        match self.barrier.arrive(
            rank,
            clock_ns,
            barrier_latency_ns,
            published_intervals,
            pending_floor,
        ) {
            Arrival::Sealed { generation, epoch } => {
                self.sched.wake_all(WaitKey::Barrier(generation));
                epoch
            }
            Arrival::Wait { generation } => {
                self.block_turn(rank, WaitKey::Barrier(generation), clock_ns)
                    .await;
                self.barrier.epoch()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::task::Waker;
    use tm_sched::ScheduleMode;

    /// Run `nprocs` processors against one `GlobalSync` the way the engine
    /// does — resume whichever rank the scheduler names, retire it when its
    /// body completes — and collect each body's result in rank order.
    fn drive<R>(sync: &GlobalSync, nprocs: usize, body: impl AsyncFn(usize) -> R) -> Vec<R> {
        let mut tasks: Vec<Option<Pin<Box<dyn Future<Output = R> + '_>>>> = (0..nprocs)
            .map(|rank| Some(Box::pin(body(rank)) as Pin<Box<dyn Future<Output = R>>>))
            .collect();
        let mut out: Vec<Option<R>> = (0..nprocs).map(|_| None).collect();
        let mut cx = Context::from_waker(Waker::noop());
        while let Some(rank) = sync.scheduler().current() {
            let task = tasks[rank].as_mut().expect("current rank has a live task");
            if let Poll::Ready(r) = task.as_mut().poll(&mut cx) {
                tasks[rank] = None;
                out[rank] = Some(r);
                sync.scheduler().finish(rank);
            }
        }
        assert_eq!(sync.scheduler().abort_dump(), None);
        out.into_iter()
            .map(|r| r.expect("every rank completes"))
            .collect()
    }

    #[test]
    fn lock_hands_over_release_snapshot() {
        let lock = GlobalLock::new(2);
        let first = lock.try_acquire().expect("free lock must be acquirable");
        assert!(first.releaser.is_none());
        assert!(lock.try_acquire().is_none(), "held lock must refuse");
        let mut vc = VectorClock::zero(2);
        vc.set(0, 3);
        lock.release(0, vc.clone(), 1234);
        let second = lock.try_acquire().expect("released lock must be free");
        assert_eq!(second.releaser, Some(0));
        assert_eq!(second.vc, vc);
        assert_eq!(second.clock_ns, 1234);
        assert_eq!(lock.acquisitions(), 2);
    }

    #[test]
    fn lock_mutual_exclusion_and_deterministic_handoff() {
        // Four processors increment a plain counter 200 times each under the
        // global lock, suspending inside the critical section. Mutual
        // exclusion makes the total exact; the scheduler makes the hand-off
        // ORDER a pure function of the seed, which we check by tracing two
        // identical runs.
        let run = |seed: u64| {
            let sync = GlobalSync::new(4, 4, SchedConfig::seeded(seed));
            let order = RefCell::new(Vec::new());
            let counter = Cell::new(0u64);
            drive(&sync, 4, async |rank| {
                for i in 0..200u64 {
                    let clock = rank as u64 + 4 * i;
                    let _grant = sync.acquire_lock(0, rank, clock).await;
                    let v = counter.get();
                    // Offer the turn mid-section: a waiter must not get in.
                    sync.yield_turn(rank, clock).await;
                    counter.set(v + 1);
                    order.borrow_mut().push(rank as u32);
                    sync.release_lock(0, rank, VectorClock::zero(4), clock + 1)
                        .await;
                }
            });
            assert_eq!(counter.get(), 800);
            assert_eq!(sync.lock(0).acquisitions(), 800);
            order.into_inner()
        };
        assert_eq!(run(7), run(7), "same seed must give the same handoff order");
    }

    #[test]
    fn contended_lock_grants_follow_request_clocks() {
        // Rank 0 takes the lock at clock 0 and holds it until clock 10_000;
        // ranks 1..4 request it at clocks 300, 200, 100. Hand-off must be in
        // request-clock order: 3, 2, 1.
        let sync = GlobalSync::new(4, 1, SchedConfig::fifo());
        let order = RefCell::new(Vec::new());
        drive(&sync, 4, async |rank| {
            if rank == 0 {
                let _ = sync.acquire_lock(0, 0, 0).await;
                // Let the others get their requests in, then release late.
                sync.yield_turn(0, 9_000).await;
                sync.release_lock(0, 0, VectorClock::zero(4), 10_000).await;
            } else {
                let clock = 100 * (4 - rank) as u64;
                let _ = sync.acquire_lock(0, rank, clock).await;
                order.borrow_mut().push(rank);
                sync.release_lock(0, rank, VectorClock::zero(4), 10_000 + clock)
                    .await;
            }
        });
        assert_eq!(*order.borrow(), vec![3, 2, 1]);
    }

    #[test]
    fn barrier_departure_is_max_arrival_plus_latency() {
        let sync = GlobalSync::new(3, 1, SchedConfig::fifo());
        let departs = drive(&sync, 3, async |rank| {
            let clock = [100u64, 900, 400][rank];
            sync.barrier_arrive(rank, clock, 50, 0, &[u32::MAX; 3])
                .await
                .depart_clock_ns
        });
        assert_eq!(departs, vec![950, 950, 950]);
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        let sync = GlobalSync::new(2, 1, SchedConfig::fifo());
        let results = drive(&sync, 2, async |rank| {
            let first = [20u64, 10][rank];
            let a = sync
                .barrier_arrive(rank, first, 5, 0, &[u32::MAX; 2])
                .await
                .depart_clock_ns;
            let second = if rank == 0 { a + 1 } else { a + 100 };
            let b = sync
                .barrier_arrive(rank, second, 5, 0, &[u32::MAX; 2])
                .await
                .depart_clock_ns;
            (a, b)
        });
        // First episode: max(20, 10) + 5; second: max(26, 125) + 5.
        assert_eq!(results, vec![(25, 130), (25, 130)]);
    }

    #[test]
    fn barrier_snapshots_published_intervals() {
        let sync = GlobalSync::new(3, 1, SchedConfig::seeded(3));
        let epochs = drive(&sync, 3, async |rank| {
            sync.barrier_arrive(rank, 10 * rank as u64, 7, rank as u32 * 2, &[u32::MAX; 3])
                .await
        });
        for e in epochs {
            assert_eq!(e.published_intervals, vec![0, 2, 4]);
            assert_eq!(e.depart_clock_ns, 27);
            // First episode: the previous snapshot is all-zero, so nothing
            // is retirable yet whatever the pending floors say.
            assert_eq!(e.retire_below, vec![0, 0, 0]);
        }
    }

    #[test]
    fn gc_thresholds_respect_coverage_and_pending_floors() {
        // Writer 0: covered up to 5, nothing pending -> retire through 5.
        // Writer 1: covered up to 7, but some processor still has interval 4
        //           pending -> retire only through 3.
        // Writer 2: pending floor below everything -> nothing retirable.
        assert_eq!(gc_thresholds(&[5, 7, 6], &[u32::MAX, 4, 1]), vec![5, 3, 0]);
        // The zero floor cannot underflow.
        assert_eq!(gc_thresholds(&[3], &[0]), vec![0]);
    }

    #[test]
    fn barrier_seals_gc_watermarks_from_previous_coverage() {
        let sync = GlobalSync::new(2, 1, SchedConfig::fifo());
        let results = drive(&sync, 2, async |rank| {
            // Episode 1: ranks have published 4 and 2 intervals, nothing
            // pending.  Episode 2: rank 1 still has rank 0's interval 3
            // pending.
            let published = [4u32, 2][rank];
            let first = sync
                .barrier_arrive(rank, 10, 5, published, &[u32::MAX; 2])
                .await
                .retire_below
                .clone();
            let floor = if rank == 1 {
                [3u32, u32::MAX]
            } else {
                [u32::MAX; 2]
            };
            let second = sync
                .barrier_arrive(rank, 100, 5, published + 1, &floor)
                .await
                .retire_below
                .clone();
            (first, second)
        });
        for (first, second) in results {
            // Episode 1 retires nothing: the previous snapshot was zero.
            assert_eq!(first, vec![0, 0]);
            // Episode 2: coverage is episode 1's snapshot (4, 2); rank 0's
            // watermark is capped by the pending interval 3.
            assert_eq!(second, vec![2, 2]);
        }
    }

    #[test]
    fn scheduler_mode_is_wired_through() {
        let sync = GlobalSync::new(2, 1, SchedConfig::seeded(99));
        assert_eq!(sync.scheduler().config().seed, 99);
        assert_eq!(sync.scheduler().config().mode, ScheduleMode::Seeded);
        assert_eq!(sync.scheduler().nprocs(), 2);
    }

    #[test]
    #[should_panic(expected = "outside the configured table")]
    fn out_of_range_lock_id_panics() {
        let sync = GlobalSync::new(2, 4, SchedConfig::default());
        sync.lock(10);
    }
}
