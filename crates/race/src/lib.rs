//! # tm-race — happens-before data-race detection for DSM programs
//!
//! Lazy release consistency only promises sequentially-consistent results to
//! *data-race-free* programs; every repo invariant (bit-identical checksums
//! across protocols, engines and topologies) silently assumes the
//! applications are DRF.  This crate checks that assumption inside the
//! simulator: a FastTrack-style happens-before detector over sync vector
//! clocks fed by the simulator's lock and barrier operations.
//!
//! ## Happens-before order
//!
//! The detector maintains its own per-processor *sync* vector clocks,
//! advanced at every release-side synchronization operation — deliberately
//! **not** the protocol's interval vector clocks.  The protocol only numbers
//! intervals that publish write notices (a read-only processor never
//! advances its entry, because consistency needs nothing from it), but the
//! happens-before relation of the *program* orders reads too.  So the
//! simulator reports every sync operation to the detector:
//!
//! * `release(l)` closes the releaser's sync interval and stamps the lock
//!   with its clock; the next `acquire(l)` merges that stamp,
//! * a barrier closes every arriver's interval, merges all their clocks,
//!   and every departer leaves with the merged clock.
//!
//! An access by processor `p` happens inside `p`'s *open* sync interval
//! (one past its own clock entry).  A previous access stamped `(q, s)`
//! happened-before the current one exactly when the accessor's clock
//! already covers sync interval `s` of `q` — the covers test *is* the
//! lock/barrier happens-before relation of lazy release consistency.
//!
//! ## FastTrack epochs
//!
//! Per shared word the detector keeps the last write as a single
//! `(rank, interval)` `Epoch` and the read history as an epoch that is
//! inflated to a full per-processor clock vector only while reads are
//! genuinely concurrent — the adaptive representation of Flanagan &
//! Freund's FastTrack.  Same-epoch repeats (by far the common case inside
//! an interval) are filtered with one comparison.
//!
//! Detection never alters protocol behaviour: the detector is pure
//! observation, so enabling it cannot change checksums, message counts or
//! logical timings.
//!
//! ## Reporting
//!
//! Races are deduplicated on `(page, word, ranks, kinds)` — keeping the
//! logical timestamps of the *first* occurrence, which is well defined
//! because the simulator schedule is deterministic — then coalesced into
//! word ranges and returned sorted ([`RaceDetector::take_races`]).  The
//! resulting race set is a pure function of (app, config, seed, schedule)
//! and therefore rerun- and engine-stable, like every other artifact in
//! this workspace.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;

use serde::json::Value;
use serde::{field_str, field_u64, Deserialize, FromJson, JsonSchemaError, Serialize, ToJson};

/// Kind of a shared-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A load from shared memory.
    Read,
    /// A store to shared memory (including home-based write-through, which
    /// is attributed to the writing client rank, not the home).
    Write,
}

impl AccessKind {
    /// Stable lowercase name used in JSON documents.
    pub fn name(self) -> &'static str {
        match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        }
    }

    /// Inverse of [`AccessKind::name`].
    pub fn from_name(s: &str) -> Option<AccessKind> {
        match s {
            "read" => Some(AccessKind::Read),
            "write" => Some(AccessKind::Write),
            _ => None,
        }
    }
}

/// A `(rank, interval-sequence)` pair identifying one access time: the
/// access happened during interval `seq` of processor `rank`.
///
/// Packed into a single `u64` (`seq` in the high half) so the per-word fast
/// path is one integer compare.  `seq` 0 is reserved for "no access yet":
/// interval sequence numbers start at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Epoch(u64);

impl Epoch {
    const NONE: Epoch = Epoch(0);

    #[inline]
    fn new(rank: u32, seq: u32) -> Epoch {
        Epoch((seq as u64) << 32 | rank as u64)
    }

    #[inline]
    fn rank(self) -> u32 {
        self.0 as u32
    }

    #[inline]
    fn seq(self) -> u32 {
        (self.0 >> 32) as u32
    }

    #[inline]
    fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// Read history of one word: a single epoch while reads are totally ordered,
/// inflated to a full per-rank clock vector only while reads are concurrent.
#[derive(Debug, Clone)]
enum ReadState {
    /// At most one "last read" that all earlier reads happened-before.
    Epoch(Epoch),
    /// Concurrent reads: entry `q` is the latest interval of rank `q` that
    /// read the word (0 = never).
    Vector(Box<[u32]>),
}

/// Detection state of one shared word.
#[derive(Debug, Clone)]
struct WordState {
    write: Epoch,
    read: ReadState,
}

impl WordState {
    const INIT: WordState = WordState {
        write: Epoch::NONE,
        read: ReadState::Epoch(Epoch::NONE),
    };
}

/// One reported data race: two accesses to the same word(s) of the same
/// page by different processors, unordered by the lock/barrier
/// happens-before relation.
///
/// `word_lo..=word_hi` is a coalesced run of adjacent words racing with the
/// same `(ranks, kinds, intervals)` signature.  The `first` access is the
/// one the deterministic schedule performed earlier.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RaceRecord {
    /// Page containing the racing words.
    pub page: u32,
    /// First racing word index within the page (inclusive).
    pub word_lo: u32,
    /// Last racing word index within the page (inclusive).
    pub word_hi: u32,
    /// Rank of the earlier access.
    pub first_rank: u32,
    /// Kind of the earlier access.
    pub first_kind: AccessKind,
    /// Interval sequence number (logical timestamp) of the earlier access.
    pub first_interval: u32,
    /// Rank of the later access.
    pub second_rank: u32,
    /// Kind of the later access.
    pub second_kind: AccessKind,
    /// Interval sequence number (logical timestamp) of the later access.
    pub second_interval: u32,
}

impl std::fmt::Display for RaceRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "page#{} words {}..={}: {} by p{} (interval {}) races with {} by p{} (interval {})",
            self.page,
            self.word_lo,
            self.word_hi,
            self.first_kind.name(),
            self.first_rank,
            self.first_interval,
            self.second_kind.name(),
            self.second_rank,
            self.second_interval,
        )
    }
}

impl ToJson for RaceRecord {
    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("page", Value::Num(self.page as f64)),
            ("word_lo", Value::Num(self.word_lo as f64)),
            ("word_hi", Value::Num(self.word_hi as f64)),
            ("first_rank", Value::Num(self.first_rank as f64)),
            ("first_kind", Value::Str(self.first_kind.name().to_string())),
            ("first_interval", Value::Num(self.first_interval as f64)),
            ("second_rank", Value::Num(self.second_rank as f64)),
            (
                "second_kind",
                Value::Str(self.second_kind.name().to_string()),
            ),
            ("second_interval", Value::Num(self.second_interval as f64)),
        ])
    }
}

impl FromJson for RaceRecord {
    fn from_json(v: &Value) -> Result<Self, JsonSchemaError> {
        let kind = |field: &'static str| -> Result<AccessKind, JsonSchemaError> {
            let s = field_str(v, field)?;
            AccessKind::from_name(s).ok_or_else(|| JsonSchemaError::new(field, "read|write"))
        };
        Ok(RaceRecord {
            page: field_u64(v, "page")? as u32,
            word_lo: field_u64(v, "word_lo")? as u32,
            word_hi: field_u64(v, "word_hi")? as u32,
            first_rank: field_u64(v, "first_rank")? as u32,
            first_kind: kind("first_kind")?,
            first_interval: field_u64(v, "first_interval")? as u32,
            second_rank: field_u64(v, "second_rank")? as u32,
            second_kind: kind("second_kind")?,
            second_interval: field_u64(v, "second_interval")? as u32,
        })
    }
}

/// Deduplication key of a race: where it is and who collided, but not when.
/// A racy loop hits the same word with the same rank/kind pair thousands of
/// times; reporting each occurrence would bury the signal, so only the first
/// occurrence's timestamps are kept (well defined — the schedule is
/// deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RaceKey {
    // Field order matters: the derived `Ord` sorts `word` last so that the
    // words of one `(page, ranks, kinds)` signature iterate adjacently and
    // can be coalesced into ranges.
    page: u32,
    first_rank: u32,
    first_kind: AccessKind,
    second_rank: u32,
    second_kind: AccessKind,
    word: u32,
}

/// FastTrack-style happens-before race detector over interval vector clocks.
///
/// One detector observes a whole cluster run: processors report every
/// shared read/write together with their current vector clock, and the
/// detector flags conflicting same-word accesses by different ranks that
/// the clock does not order.  Detection is pure observation — it never
/// feeds back into the protocol.
#[derive(Debug)]
pub struct RaceDetector {
    nprocs: usize,
    words_per_page: usize,
    /// Per-page word state, allocated lazily on first access to the page.
    pages: Vec<Option<Box<[WordState]>>>,
    /// First-occurrence timestamps per deduplicated race.
    races: BTreeMap<RaceKey, (u32, u32)>,
    /// Per-rank sync vector clock: `clocks[r][q]` is the latest closed sync
    /// interval of `q` that `r`'s next access happens-after; `clocks[r][r]`
    /// is `r`'s own last closed interval (its open interval is one past).
    clocks: Vec<Box<[u32]>>,
    /// Per-lock stamp: the releaser's clock at the last release.
    lock_clocks: BTreeMap<usize, Box<[u32]>>,
    /// Per-episode merged arrival clock of the global barrier (indexed by
    /// how many barriers a rank has crossed — all ranks arrive before any
    /// departs, so the merge is complete when read at departure).
    barrier_merges: Vec<Box<[u32]>>,
    /// Per-rank count of barrier episodes departed so far.
    barrier_seq: Vec<usize>,
}

impl RaceDetector {
    /// Create a detector for a cluster of `nprocs` processors over a shared
    /// space of `total_pages` pages of `words_per_page` words each.
    pub fn new(nprocs: usize, total_pages: u32, words_per_page: usize) -> Self {
        RaceDetector {
            nprocs,
            words_per_page,
            pages: vec![None; total_pages as usize],
            races: BTreeMap::new(),
            clocks: vec![vec![0u32; nprocs].into_boxed_slice(); nprocs],
            lock_clocks: BTreeMap::new(),
            barrier_merges: Vec::new(),
            barrier_seq: vec![0; nprocs],
        }
    }

    /// Report that `rank` acquired lock `lock_id`: its clock absorbs the
    /// last releaser's stamp (no-op for a never-released lock).
    pub fn on_acquire(&mut self, rank: u32, lock_id: usize) {
        if let Some(stamp) = self.lock_clocks.get(&lock_id) {
            let clock = &mut self.clocks[rank as usize];
            for (c, &s) in clock.iter_mut().zip(stamp.iter()) {
                *c = (*c).max(s);
            }
        }
    }

    /// Report that `rank` is releasing lock `lock_id`: its open sync
    /// interval closes (so the critical section's accesses become coverable)
    /// and the lock is stamped with the resulting clock.
    pub fn on_release(&mut self, rank: u32, lock_id: usize) {
        let r = rank as usize;
        self.clocks[r][r] += 1;
        self.lock_clocks.insert(lock_id, self.clocks[r].clone());
    }

    /// Report that `rank` arrived at the global barrier: its open interval
    /// closes and its clock joins the episode's merge.
    pub fn on_barrier_arrive(&mut self, rank: u32) {
        let r = rank as usize;
        self.clocks[r][r] += 1;
        let episode = self.barrier_seq[r];
        if self.barrier_merges.len() <= episode {
            self.barrier_merges
                .resize(episode + 1, vec![0u32; self.nprocs].into_boxed_slice());
        }
        let merge = &mut self.barrier_merges[episode];
        for (m, &c) in merge.iter_mut().zip(self.clocks[r].iter()) {
            *m = (*m).max(c);
        }
    }

    /// Report that `rank` departed the global barrier: it leaves with the
    /// episode's fully merged clock (every rank arrived before any departed,
    /// so the merge is complete).
    pub fn on_barrier_depart(&mut self, rank: u32) {
        let r = rank as usize;
        let episode = self.barrier_seq[r];
        let merge = &self.barrier_merges[episode];
        let clock = &mut self.clocks[r];
        for (c, &m) in clock.iter_mut().zip(merge.iter()) {
            *c = (*c).max(m);
        }
        self.barrier_seq[r] = episode + 1;
    }

    /// Number of distinct (deduplicated, uncoalesced) races recorded so far.
    pub fn race_count(&self) -> usize {
        self.races.len()
    }

    /// Record one access and check it against the word's history.  The
    /// access is attributed to `rank`'s *open* sync interval (one past its
    /// own clock entry), and checked against the detector's happens-before
    /// view for that rank (maintained by the `on_*` sync hooks).
    ///
    /// # Panics
    /// Panics if the page is out of range or the word range exceeds the page.
    pub fn record_access(
        &mut self,
        rank: u32,
        page: u32,
        words: std::ops::Range<usize>,
        kind: AccessKind,
    ) {
        assert!(words.end <= self.words_per_page, "word range exceeds page");
        let view: &[u32] = &self.clocks[rank as usize];
        let open_seq = view[rank as usize] + 1;
        let epoch = Epoch::new(rank, open_seq);
        let words_per_page = self.words_per_page;
        let state = self.pages[page as usize]
            .get_or_insert_with(|| vec![WordState::INIT; words_per_page].into_boxed_slice());

        // Happens-before test: did interval `seq` of `q` close before the
        // accessor's current view?  The accessor's own open interval trivially
        // happens-after its own earlier epochs.
        let covers = |q: u32, seq: u32| -> bool {
            if q == rank {
                seq <= open_seq
            } else {
                seq <= view[q as usize]
            }
        };

        for word in words {
            let st = &mut state[word];
            match kind {
                AccessKind::Read => {
                    // Same-epoch fast path.
                    if let ReadState::Epoch(e) = st.read {
                        if e == epoch {
                            continue;
                        }
                    }
                    // Write-read race.
                    if !st.write.is_none() && !covers(st.write.rank(), st.write.seq()) {
                        Self::report(
                            &mut self.races,
                            page,
                            word as u32,
                            (st.write.rank(), AccessKind::Write, st.write.seq()),
                            (rank, AccessKind::Read, open_seq),
                        );
                    }
                    // Update read history, inflating on concurrent reads.
                    match &mut st.read {
                        ReadState::Epoch(e) => {
                            if e.is_none() || covers(e.rank(), e.seq()) {
                                *e = epoch;
                            } else {
                                let mut vc = vec![0u32; self.nprocs].into_boxed_slice();
                                vc[e.rank() as usize] = e.seq();
                                vc[rank as usize] = open_seq;
                                st.read = ReadState::Vector(vc);
                            }
                        }
                        ReadState::Vector(vc) => {
                            vc[rank as usize] = open_seq.max(vc[rank as usize]);
                        }
                    }
                }
                AccessKind::Write => {
                    // Same-epoch fast path.
                    if st.write == epoch {
                        if let ReadState::Epoch(e) = st.read {
                            if e.is_none() || e == epoch {
                                continue;
                            }
                        }
                    }
                    // Write-write race.
                    if !st.write.is_none()
                        && st.write.rank() != rank
                        && !covers(st.write.rank(), st.write.seq())
                    {
                        Self::report(
                            &mut self.races,
                            page,
                            word as u32,
                            (st.write.rank(), AccessKind::Write, st.write.seq()),
                            (rank, AccessKind::Write, open_seq),
                        );
                    }
                    // Read-write races.
                    match &st.read {
                        ReadState::Epoch(e) => {
                            if !e.is_none() && e.rank() != rank && !covers(e.rank(), e.seq()) {
                                Self::report(
                                    &mut self.races,
                                    page,
                                    word as u32,
                                    (e.rank(), AccessKind::Read, e.seq()),
                                    (rank, AccessKind::Write, open_seq),
                                );
                            }
                        }
                        ReadState::Vector(vc) => {
                            for (q, &seq) in vc.iter().enumerate() {
                                if seq != 0 && q as u32 != rank && !covers(q as u32, seq) {
                                    Self::report(
                                        &mut self.races,
                                        page,
                                        word as u32,
                                        (q as u32, AccessKind::Read, seq),
                                        (rank, AccessKind::Write, open_seq),
                                    );
                                }
                            }
                            // All concurrent reads are now recorded; deflate
                            // back to the epoch representation (FastTrack's
                            // write-shared transition).
                            st.read = ReadState::Epoch(Epoch::NONE);
                        }
                    }
                    st.write = epoch;
                }
            }
        }
    }

    fn report(
        races: &mut BTreeMap<RaceKey, (u32, u32)>,
        page: u32,
        word: u32,
        first: (u32, AccessKind, u32),
        second: (u32, AccessKind, u32),
    ) {
        let key = RaceKey {
            page,
            word,
            first_rank: first.0,
            first_kind: first.1,
            second_rank: second.0,
            second_kind: second.1,
        };
        races.entry(key).or_insert((first.2, second.2));
    }

    /// Drain the recorded races as a deterministic, sorted race set:
    /// adjacent words with the same `(ranks, kinds, intervals)` signature
    /// are coalesced into one record's word range.
    pub fn take_races(&mut self) -> Vec<RaceRecord> {
        let mut out: Vec<RaceRecord> = Vec::new();
        for (key, &(first_interval, second_interval)) in &self.races {
            if let Some(last) = out.last_mut() {
                if last.page == key.page
                    && last.word_hi + 1 == key.word
                    && last.first_rank == key.first_rank
                    && last.first_kind == key.first_kind
                    && last.first_interval == first_interval
                    && last.second_rank == key.second_rank
                    && last.second_kind == key.second_kind
                    && last.second_interval == second_interval
                {
                    last.word_hi = key.word;
                    continue;
                }
            }
            out.push(RaceRecord {
                page: key.page,
                word_lo: key.word,
                word_hi: key.word,
                first_rank: key.first_rank,
                first_kind: key.first_kind,
                first_interval,
                second_rank: key.second_rank,
                second_kind: key.second_kind,
                second_interval,
            });
        }
        self.races.clear();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det() -> RaceDetector {
        RaceDetector::new(2, 4, 8)
    }

    #[test]
    fn lock_ordered_accesses_are_race_free() {
        let mut d = det();
        // p0 writes inside a critical section, p1 reads inside the next one.
        d.record_access(0, 0, 0..2, AccessKind::Write);
        d.on_release(0, 7);
        d.on_acquire(1, 7);
        d.record_access(1, 0, 0..2, AccessKind::Read);
        assert_eq!(d.race_count(), 0);
        assert!(d.take_races().is_empty());
    }

    #[test]
    fn read_only_processors_are_covered_by_lock_order() {
        // Regression for the protocol-clock pitfall: a processor that only
        // READS never publishes a protocol interval, but its lock-ordered
        // reads must still be covered.  p1 reads under the lock, p0 later
        // writes under the same lock — no race.
        let mut d = det();
        d.on_acquire(1, 3);
        d.record_access(1, 0, 0..1, AccessKind::Read);
        d.on_release(1, 3);
        d.on_acquire(0, 3);
        d.record_access(0, 0, 0..1, AccessKind::Write);
        d.on_release(0, 3);
        assert!(d.take_races().is_empty());
    }

    #[test]
    fn concurrent_write_write_races() {
        let mut d = det();
        d.record_access(0, 0, 1..2, AccessKind::Write);
        d.record_access(1, 0, 1..2, AccessKind::Write);
        let races = d.take_races();
        assert_eq!(races.len(), 1);
        let r = &races[0];
        assert_eq!((r.page, r.word_lo, r.word_hi), (0, 1, 1));
        assert_eq!((r.first_rank, r.first_kind), (0, AccessKind::Write));
        assert_eq!((r.second_rank, r.second_kind), (1, AccessKind::Write));
        assert_eq!((r.first_interval, r.second_interval), (1, 1));
    }

    #[test]
    fn concurrent_read_write_and_write_read_race() {
        let mut d = det();
        d.record_access(0, 1, 3..4, AccessKind::Read);
        d.record_access(1, 1, 3..4, AccessKind::Write);
        let races = d.take_races();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].first_kind, AccessKind::Read);
        assert_eq!(races[0].second_kind, AccessKind::Write);

        // And the mirror: unordered write then read.
        let mut d = det();
        d.record_access(0, 1, 3..4, AccessKind::Write);
        d.record_access(1, 1, 3..4, AccessKind::Read);
        let races = d.take_races();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].first_kind, AccessKind::Write);
        assert_eq!(races[0].second_kind, AccessKind::Read);
    }

    #[test]
    fn concurrent_reads_do_not_race_but_later_write_races_with_all() {
        let mut d = RaceDetector::new(3, 1, 8);
        d.record_access(0, 0, 0..1, AccessKind::Read);
        d.record_access(1, 0, 0..1, AccessKind::Read);
        assert_eq!(d.race_count(), 0);
        // p2 writes with no happens-before edge to either read.
        d.record_access(2, 0, 0..1, AccessKind::Write);
        let races = d.take_races();
        assert_eq!(races.len(), 2);
        assert!(races
            .iter()
            .all(|r| r.first_kind == AccessKind::Read && r.second_rank == 2));
        let readers: Vec<u32> = races.iter().map(|r| r.first_rank).collect();
        assert_eq!(readers, vec![0, 1]);
    }

    #[test]
    fn barrier_orders_accesses_across_all_ranks() {
        let mut d = RaceDetector::new(3, 1, 8);
        d.record_access(0, 0, 0..8, AccessKind::Write);
        for r in 0..3 {
            d.on_barrier_arrive(r);
        }
        for r in 0..3 {
            d.on_barrier_depart(r);
        }
        d.record_access(1, 0, 0..8, AccessKind::Write);
        d.record_access(2, 0, 0..4, AccessKind::Read);
        // p2's read races with p1's post-barrier write (no edge between
        // them) but not with p0's pre-barrier one.
        let races = d.take_races();
        assert_eq!(races.len(), 1);
        assert_eq!((races[0].first_rank, races[0].second_rank), (1, 2));
    }

    #[test]
    fn successive_barriers_keep_ordering() {
        let mut d = det();
        for round in 0..3u32 {
            d.record_access((round % 2) as u32 % 2, 0, 0..2, AccessKind::Write);
            for r in 0..2 {
                d.on_barrier_arrive(r);
            }
            for r in 0..2 {
                d.on_barrier_depart(r);
            }
        }
        assert!(d.take_races().is_empty());
    }

    #[test]
    fn same_epoch_repeats_are_deduplicated_and_ranges_coalesce() {
        let mut d = det();
        for _ in 0..100 {
            d.record_access(0, 2, 0..4, AccessKind::Write);
            d.record_access(1, 2, 0..4, AccessKind::Write);
        }
        let races = d.take_races();
        // Four adjacent racing words with one signature coalesce into one
        // record per direction of the repeated collision.
        assert!(!races.is_empty());
        assert!(races.iter().any(|r| (r.word_lo, r.word_hi) == (0, 3)));
    }

    #[test]
    fn own_earlier_intervals_never_race() {
        let mut d = det();
        d.record_access(0, 0, 0..1, AccessKind::Write);
        // p0 releases (closing its interval) and keeps going without any
        // other rank in sight.
        d.on_release(0, 0);
        d.record_access(0, 0, 0..1, AccessKind::Write);
        d.on_release(0, 0);
        d.record_access(0, 0, 0..1, AccessKind::Read);
        assert!(d.take_races().is_empty());
    }

    #[test]
    fn race_set_is_sorted_and_deterministic() {
        let run = || {
            let mut d = RaceDetector::new(2, 4, 8);
            d.record_access(0, 3, 0..2, AccessKind::Write);
            d.record_access(0, 1, 5..6, AccessKind::Write);
            d.record_access(1, 1, 5..6, AccessKind::Read);
            d.record_access(1, 3, 0..2, AccessKind::Write);
            d.take_races()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(a, sorted);
        assert_eq!(a[0].page, 1);
        assert_eq!(a[1].page, 3);
    }

    #[test]
    fn record_json_roundtrip_and_display() {
        let r = RaceRecord {
            page: 7,
            word_lo: 3,
            word_hi: 5,
            first_rank: 0,
            first_kind: AccessKind::Write,
            first_interval: 2,
            second_rank: 4,
            second_kind: AccessKind::Read,
            second_interval: 9,
        };
        let parsed =
            RaceRecord::from_json(&serde::json::parse(&r.to_json().pretty()).unwrap()).unwrap();
        assert_eq!(parsed, r);
        assert!(r.to_string().contains("page#7"));
        assert!(r.to_string().contains("words 3..=5"));

        // A bad kind string names its field.
        let bad = r.to_json().pretty().replace("\"write\"", "\"wrote\"");
        let err = RaceRecord::from_json(&serde::json::parse(&bad).unwrap()).unwrap_err();
        assert_eq!(err.path, "first_kind");
    }
}
