//! Word-granularity run-length diffs.
//!
//! TreadMarks' multiple-writer protocol records the modifications a processor
//! made to a page by *twinning* the page on the first write and later
//! comparing the twin against the modified copy.  The result is a *diff*: a
//! run-length encoding of the 32-bit words that changed.  Diffs are what the
//! wire actually carries in response to page-fault requests, so their encoded
//! size is what the paper's "data" metric measures.
//!
//! The in-memory layout is flat: one packed payload buffer per diff plus a
//! small span table, rather than one allocation per run.  A diff with a
//! dozen runs costs two allocations, not thirteen — diff creation, merging
//! and retirement are all on the simulator's hot path.
//!
//! Dense diffs go one step further and skip the payload copy entirely: a
//! diff published at interval close can *borrow* the page image itself
//! (`Payload::Page`, an `Rc`-shared snapshot) with its spans indexing
//! the image by page offset.  The owning processor detaches
//! (copy-on-next-write) only if it writes the page again in a later
//! interval, so the common publish-then-move-on pattern never copies the
//! payload at all.  Both representations encode the same logical runs —
//! equality, application, accounting and merging are representation-blind.

use std::rc::Rc;

use serde::{Deserialize, Serialize};

use crate::layout::{PageId, WORD_SIZE};

/// One maximal run of consecutive modified words: the byte offset of the
/// first modified word within the page, and the run's payload length in
/// bytes.  The payload bytes of a diff's runs are packed back to back in
/// its payload buffer, in span order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunSpan {
    /// Byte offset of the first modified word within the page.
    pub offset: u32,
    /// Number of payload bytes (always a multiple of the word size).
    pub len: u32,
}

impl RunSpan {
    /// Exclusive end offset of the run within the page.
    #[inline]
    pub fn end(&self) -> u32 {
        self.offset + self.len
    }
}

/// A record of the modifications made to one hardware page, encoded as
/// maximal runs of changed 32-bit words.
#[derive(Debug, Clone)]
pub struct Diff {
    /// Page this diff applies to.
    pub page: PageId,
    /// Maximal runs of modified words, in increasing offset order.
    spans: Vec<RunSpan>,
    /// The runs' new contents.
    payload: Payload,
}

/// Where a diff's run contents live.
#[derive(Debug, Clone)]
enum Payload {
    /// Packed back to back in span order, owned by the diff.
    Packed(Vec<u8>),
    /// Borrowed from a shared snapshot of the whole page image; runs are
    /// sliced out of it at their page offsets.  Taken by
    /// [`Diff::from_changed_shared`] for dense diffs, where sharing the
    /// 4 KB image beats copying most of it into a packed buffer.
    Page(Rc<[u8]>),
}

/// Two diffs are equal when they record the same logical modifications —
/// same page, same span table, same run bytes — regardless of whether the
/// payload is packed or borrows a shared page image.
impl PartialEq for Diff {
    fn eq(&self, other: &Self) -> bool {
        self.page == other.page
            && self.spans == other.spans
            && self.runs().zip(other.runs()).all(|(a, b)| a.1 == b.1)
    }
}

impl Eq for Diff {}

/// Per-run wire header: offset + length, as in the TreadMarks encoding.
pub const RUN_HEADER_BYTES: u64 = 8;
/// Per-diff wire header: page id + run count + interval identification.
pub const DIFF_HEADER_BYTES: u64 = 16;

impl Diff {
    /// Compare `twin` (the page contents when the current writing interval
    /// started) against `current` (the contents now) and encode the changed
    /// words.
    ///
    /// # Panics
    /// Panics if the two buffers differ in length or are not word-aligned in
    /// size.
    pub fn create(page: PageId, twin: &[u8], current: &[u8]) -> Diff {
        assert_eq!(twin.len(), current.len(), "twin/current size mismatch");
        assert_eq!(twin.len() % WORD_SIZE, 0, "page size must be word aligned");
        let words = twin.len() / WORD_SIZE;
        let mut changed = vec![0u64; words.div_ceil(64)];
        exact_bits_for_range(current, twin, &mut changed, 0, words);
        let spans = spans_from_bits(&changed);
        let payload = Payload::Packed(pack_payload(&spans, current));
        Diff {
            page,
            spans,
            payload,
        }
    }

    /// Build a diff directly from an **exact** changed-word bitset (bit
    /// `w % 64` of `changed[w / 64]` set ⇔ word `w` of `image` differs from
    /// its value when the interval started).  No compare scan happens: runs
    /// are extracted straight from the bits, so the output is bit-identical
    /// to [`create`](Self::create) against the interval-start twin.  Dense
    /// diffs (payload at least half the page) borrow the `Rc`-shared image
    /// itself; sparse diffs copy their runs into a packed payload, so a few
    /// changed words never pin a whole page in memory.
    ///
    /// # Panics
    /// Panics on an unaligned page size or a bitset shorter than the page's
    /// word count.
    pub fn from_changed_shared(page: PageId, image: &Rc<[u8]>, changed: &[u64]) -> Diff {
        assert_eq!(image.len() % WORD_SIZE, 0, "page size must be word aligned");
        let words = image.len() / WORD_SIZE;
        assert!(
            changed.len() * 64 >= words,
            "changed bitset shorter than page"
        );
        let spans = spans_from_bits(changed);
        let total: usize = spans.iter().map(|s| s.len as usize).sum();
        let payload = if total * 2 >= image.len() && total > 0 {
            Payload::Page(Rc::clone(image))
        } else {
            Payload::Packed(pack_payload(&spans, image))
        };
        Diff {
            page,
            spans,
            payload,
        }
    }

    /// The shared page snapshot, when this diff rewrites the *entire* page
    /// out of one: a single run at offset 0 covering every byte of a
    /// `Payload::Page` image.  Receivers then adopt the snapshot `Rc`
    /// wholesale instead of copying the page — their contents after
    /// adoption are bit-identical to an [`apply`](Self::apply), because the
    /// lone run *is* the image.
    #[inline]
    pub fn whole_page_shared_image(&self) -> Option<&Rc<[u8]>> {
        match (&self.payload, self.spans.as_slice()) {
            (Payload::Page(image), [span])
                if span.offset == 0 && span.len as usize == image.len() =>
            {
                Some(image)
            }
            _ => None,
        }
    }

    /// Reference implementation of [`create`](Self::create): the original
    /// per-word bounds-checked slice-compare scan. Kept (test-only) as the
    /// oracle the block changed-word kernel is property-tested against.
    #[cfg(test)]
    pub(crate) fn create_naive(page: PageId, twin: &[u8], current: &[u8]) -> Diff {
        assert_eq!(twin.len(), current.len(), "twin/current size mismatch");
        assert_eq!(twin.len() % WORD_SIZE, 0, "page size must be word aligned");
        let words = twin.len() / WORD_SIZE;
        let mut diff = Diff {
            page,
            spans: Vec::new(),
            payload: Payload::Packed(Vec::new()),
        };
        let mut w = 0;
        while w < words {
            let lo = w * WORD_SIZE;
            let hi = lo + WORD_SIZE;
            if twin[lo..hi] != current[lo..hi] {
                // start of a run; extend while words keep differing
                let start = w;
                while w < words
                    && twin[w * WORD_SIZE..(w + 1) * WORD_SIZE]
                        != current[w * WORD_SIZE..(w + 1) * WORD_SIZE]
                {
                    w += 1;
                }
                diff.push_run(
                    (start * WORD_SIZE) as u32,
                    &current[start * WORD_SIZE..w * WORD_SIZE],
                );
            } else {
                w += 1;
            }
        }
        diff
    }

    /// Append a run to the diff (spans must arrive in increasing offset
    /// order and never touch — callers produce maximal runs).  Only the
    /// packed representation grows incrementally.
    #[cfg(test)]
    fn push_run(&mut self, offset: u32, bytes: &[u8]) {
        debug_assert!(!bytes.is_empty());
        debug_assert!(self.spans.last().map_or(true, |s| s.end() < offset));
        self.spans.push(RunSpan {
            offset,
            len: bytes.len() as u32,
        });
        match &mut self.payload {
            Payload::Packed(payload) => payload.extend_from_slice(bytes),
            Payload::Page(_) => unreachable!("page-backed diffs are built whole"),
        }
    }

    /// Iterate over the runs as `(page byte offset, payload bytes)` pairs.
    pub fn runs(&self) -> Runs<'_> {
        Runs {
            spans: self.spans.iter(),
            payload: &self.payload,
            cursor: 0,
        }
    }

    /// The run span table (offsets and lengths, no payload).
    #[inline]
    pub fn spans(&self) -> &[RunSpan] {
        &self.spans
    }

    /// Number of runs.
    #[inline]
    pub fn num_runs(&self) -> usize {
        self.spans.len()
    }

    /// Apply the diff to `target`, overwriting the words it records.
    ///
    /// # Panics
    /// Panics if any run falls outside `target`.
    pub fn apply(&self, target: &mut [u8]) {
        for (offset, bytes) in self.runs() {
            let lo = offset as usize;
            let hi = lo + bytes.len();
            assert!(hi <= target.len(), "diff run outside page bounds");
            target[lo..hi].copy_from_slice(bytes);
        }
    }

    /// True if the diff records no modifications.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of payload bytes (modified word contents only).  Identical
    /// for both representations: a page-backed diff's payload is the sum of
    /// its span lengths, exactly the bytes a packed copy would hold.
    #[inline]
    pub fn payload_bytes(&self) -> u64 {
        match &self.payload {
            Payload::Packed(payload) => payload.len() as u64,
            Payload::Page(_) => self.spans.iter().map(|s| s.len as u64).sum(),
        }
    }

    /// Size of the diff as it would travel on the wire: payload plus the
    /// per-run and per-diff headers of the TreadMarks encoding.
    pub fn wire_bytes(&self) -> u64 {
        DIFF_HEADER_BYTES + self.spans.len() as u64 * RUN_HEADER_BYTES + self.payload_bytes()
    }

    /// Iterate over the page-relative word indices this diff overwrites.
    pub fn touched_words(&self) -> impl Iterator<Item = usize> + '_ {
        self.spans.iter().flat_map(|s| {
            let first = s.offset as usize / WORD_SIZE;
            let count = s.len as usize / WORD_SIZE;
            first..first + count
        })
    }

    /// Merge a chain of diffs of the same page into their union: every word
    /// touched by any chain member carries the bytes of the *last* member
    /// that touches it.  Applying the merged diff is equivalent to applying
    /// the chain in order.
    ///
    /// `chain` must be in application order (oldest first).
    pub fn merge(page: PageId, chain: &[&Diff]) -> Diff {
        if let [only] = chain {
            return (*only).clone();
        }
        let end = chain
            .iter()
            .flat_map(|d| d.spans.iter())
            .map(|s| s.end() as usize)
            .max()
            .unwrap_or(0);
        let mut cover = vec![0u64; (end / WORD_SIZE).div_ceil(64)];
        let mut buf = vec![0u8; end];
        let mut fresh: Vec<(u32, u32)> = Vec::new();
        // Reverse painter: walking newest to oldest, each diff contributes
        // only the words no newer diff already claimed, so the work is
        // proportional to the union, not the sum, of the payloads.
        for diff in chain.iter().rev() {
            debug_assert_eq!(diff.page, page);
            for (offset, bytes) in diff.runs() {
                fresh.clear();
                subtract_cover(offset, bytes.len(), &mut cover, &mut fresh);
                for &(lo, hi) in &fresh {
                    let (lo, hi) = (lo as usize, hi as usize);
                    let base = offset as usize;
                    buf[lo..hi].copy_from_slice(&bytes[lo - base..hi - base]);
                }
            }
        }
        let spans = spans_from_bits(&cover);
        let payload = Payload::Packed(pack_payload(&spans, &buf));
        Diff {
            page,
            spans,
            payload,
        }
    }
}

/// Iterator over a diff's `(page byte offset, payload bytes)` runs,
/// representation-blind: packed payloads are walked with a cursor, shared
/// page images are sliced at the span offsets.
pub struct Runs<'a> {
    spans: std::slice::Iter<'a, RunSpan>,
    payload: &'a Payload,
    cursor: usize,
}

impl<'a> Iterator for Runs<'a> {
    type Item = (u32, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        let s = self.spans.next()?;
        let bytes = match self.payload {
            Payload::Packed(payload) => {
                let lo = self.cursor;
                self.cursor += s.len as usize;
                &payload[lo..lo + s.len as usize]
            }
            Payload::Page(image) => &image[s.offset as usize..s.end() as usize],
        };
        Some((s.offset, bytes))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.spans.size_hint()
    }
}

impl ExactSizeIterator for Runs<'_> {}

/// Append to `out` the byte intervals of the words of run
/// `[offset, offset + len)` whose bits are not yet set in the word-cover
/// bitset `cov`, setting them as it goes.  Output intervals are sorted,
/// non-overlapping, and word-aligned; adjacent ones are merged.  Returns the
/// number of newly covered words.
///
/// This is the kernel of the "reverse painter" used both by [`Diff::merge`]
/// and by the protocol engine's batched diff application: processing diffs
/// newest-first, each one only touches the words no newer diff claimed.
pub fn subtract_cover(
    offset: u32,
    len: usize,
    cov: &mut [u64],
    out: &mut Vec<(u32, u32)>,
) -> usize {
    if len == 0 {
        return 0;
    }
    let mut new_words = 0usize;
    let w0 = offset as usize / WORD_SIZE;
    let w1 = w0 + len / WORD_SIZE; // exclusive
    let (first_b, last_b) = (w0 / 64, (w1 - 1) / 64);
    for b in first_b..=last_b {
        let lo = if b == first_b { w0 % 64 } else { 0 };
        let hi = if b == last_b { (w1 - 1) % 64 } else { 63 };
        let mask = (!0u64 >> (63 - (hi - lo))) << lo;
        let mut fresh = mask & !cov[b];
        cov[b] |= mask;
        new_words += fresh.count_ones() as usize;
        while fresh != 0 {
            let start = fresh.trailing_zeros();
            let len = (fresh >> start).trailing_ones();
            let from = ((b * 64 + start as usize) * WORD_SIZE) as u32;
            let to = from + len * WORD_SIZE as u32;
            match out.last_mut() {
                Some(last) if last.1 == from => last.1 = to,
                _ => out.push((from, to)),
            }
            if start + len >= 64 {
                break;
            }
            fresh &= !(((1u64 << len) - 1) << start);
        }
    }
    new_words
}

/// Extract the maximal runs of set-bit words from `bits` as a span table.
/// Runs that touch across 64-word block boundaries are merged, so the output
/// is exactly what a word-by-word scan of the same set would produce.
fn spans_from_bits(bits: &[u64]) -> Vec<RunSpan> {
    let mut spans: Vec<RunSpan> = Vec::new();
    for (b, &block) in bits.iter().enumerate() {
        let mut m = block;
        while m != 0 {
            let start = m.trailing_zeros() as usize;
            let len = (m >> start).trailing_ones() as usize;
            let from = ((b * 64 + start) * WORD_SIZE) as u32;
            let len = (len * WORD_SIZE) as u32;
            match spans.last_mut() {
                Some(last) if last.end() == from => last.len += len,
                _ => spans.push(RunSpan { offset: from, len }),
            }
            if (start as u32 + len / WORD_SIZE as u32) >= 64 {
                break;
            }
            m &= !(((1u64 << (len / WORD_SIZE as u32)) - 1) << start);
        }
    }
    spans
}

/// Copy the spans' bytes out of `source` (indexed by page offset) into one
/// packed payload buffer, allocated exactly once at its final size.
fn pack_payload(spans: &[RunSpan], source: &[u8]) -> Vec<u8> {
    let total: usize = spans.iter().map(|s| s.len as usize).sum();
    let mut payload = Vec::with_capacity(total);
    for s in spans {
        payload.extend_from_slice(&source[s.offset as usize..s.end() as usize]);
    }
    payload
}

/// Recompute the changed-word bits of words `[w0, w1)` by direct comparison
/// of `data` against the interval-start snapshot `pre`: bit `w % 64` of
/// `bits[w / 64]` becomes `data word w != pre word w`, set *or cleared*.
/// Words outside the range keep their bits.  Every full 64-word block goes
/// through the branch-free [`block_changed_bits`] kernel; the partial
/// blocks at either end of the range are compared word by word and merged
/// under a mask.
pub(crate) fn exact_bits_for_range(
    data: &[u8],
    pre: &[u8],
    bits: &mut [u64],
    w0: usize,
    w1: usize,
) {
    let mut w = w0;
    while w < w1 {
        let blk = w / 64;
        let seg_end = ((blk + 1) * 64).min(w1);
        let (lo, hi) = (w * WORD_SIZE, seg_end * WORD_SIZE);
        let d = data[lo..hi].as_chunks::<WORD_SIZE>().0;
        let p = pre[lo..hi].as_chunks::<WORD_SIZE>().0;
        if let (Ok(d), Ok(p)) = (d.try_into(), p.try_into()) {
            bits[blk] = block_changed_bits(d, p);
        } else {
            let shift = w % 64;
            let mask = ((1u64 << (seg_end - w)) - 1) << shift;
            let mut new_bits = 0u64;
            for (i, (a, b)) in d.iter().zip(p).enumerate() {
                new_bits |= ((a != b) as u64) << (shift + i);
            }
            bits[blk] = (bits[blk] & !mask) | new_bits;
        }
        w = seg_end;
    }
}

/// Changed bits of one full 64-word block, bit `i` set iff word `i`
/// differs.  The compare fills a byte flag per word (vectorizable, no
/// branches), and each 8 flags are packed into 8 bits by one multiply:
/// flag `j` sits at bit `8j` of the little-endian load, and the constant's
/// byte `7 - j` shifts it to bit `56 + j` without carries.
#[inline]
fn block_changed_bits(data: &[[u8; WORD_SIZE]; 64], pre: &[[u8; WORD_SIZE]; 64]) -> u64 {
    let mut flags = [0u8; 64];
    for ((f, a), b) in flags.iter_mut().zip(data).zip(pre) {
        *f = (u32::from_ne_bytes(*a) != u32::from_ne_bytes(*b)) as u8;
    }
    let mut bits = 0u64;
    for (k, f) in flags.as_chunks::<8>().0.iter().enumerate() {
        let packed = u64::from_le_bytes(*f).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        bits |= packed << (8 * k);
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_of(pattern: impl Fn(usize) -> u8, len: usize) -> Vec<u8> {
        (0..len).map(pattern).collect()
    }

    fn run_vec(d: &Diff) -> Vec<(u32, Vec<u8>)> {
        d.runs().map(|(o, b)| (o, b.to_vec())).collect()
    }

    #[test]
    fn identical_pages_produce_empty_diff() {
        let a = page_of(|i| (i % 251) as u8, 4096);
        let d = Diff::create(PageId(0), &a, &a);
        assert!(d.is_empty());
        assert_eq!(d.payload_bytes(), 0);
    }

    #[test]
    fn single_word_change() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[8] = 0xAB;
        let d = Diff::create(PageId(1), &twin, &cur);
        assert_eq!(d.num_runs(), 1);
        assert_eq!(d.spans()[0].offset, 8);
        assert_eq!(d.spans()[0].len as usize, WORD_SIZE);
        assert_eq!(d.payload_bytes(), 4);

        let mut target = twin.clone();
        d.apply(&mut target);
        assert_eq!(target, cur);
    }

    #[test]
    fn adjacent_changes_coalesce_into_one_run() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        for b in 16..32 {
            cur[b] = 1;
        }
        let d = Diff::create(PageId(0), &twin, &cur);
        assert_eq!(d.num_runs(), 1);
        assert_eq!(d.spans()[0].offset, 16);
        assert_eq!(d.spans()[0].len, 16);
    }

    #[test]
    fn disjoint_changes_produce_separate_runs() {
        let twin = vec![0u8; 128];
        let mut cur = twin.clone();
        cur[0] = 1;
        cur[64] = 2;
        let d = Diff::create(PageId(0), &twin, &cur);
        assert_eq!(d.num_runs(), 2);
        assert_eq!(d.spans()[0].offset, 0);
        assert_eq!(d.spans()[1].offset, 64);
    }

    #[test]
    fn whole_page_change_is_one_full_run() {
        let twin = vec![0u8; 256];
        let cur = vec![0xFFu8; 256];
        let d = Diff::create(PageId(0), &twin, &cur);
        assert_eq!(d.num_runs(), 1);
        assert_eq!(d.payload_bytes(), 256);
        assert_eq!(d.wire_bytes(), DIFF_HEADER_BYTES + RUN_HEADER_BYTES + 256);
    }

    #[test]
    fn touched_words_enumeration() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[4] = 9; // word 1
        cur[12] = 9; // word 3
        cur[16] = 9; // word 4 (adjacent to word 3 -> same run)
        let d = Diff::create(PageId(0), &twin, &cur);
        let words: Vec<_> = d.touched_words().collect();
        assert_eq!(words, vec![1, 3, 4]);
    }

    #[test]
    fn sub_word_change_is_recorded_as_a_word() {
        // Changing a single byte dirties its whole 32-bit word, exactly as
        // the word-granular TreadMarks diff does.
        let twin = vec![7u8; 32];
        let mut cur = twin.clone();
        cur[5] = 8;
        let d = Diff::create(PageId(0), &twin, &cur);
        assert_eq!(run_vec(&d), vec![(4, vec![7, 8, 7, 7])]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mismatched_lengths_panic() {
        Diff::create(PageId(0), &[0u8; 8], &[0u8; 12]);
    }

    #[test]
    fn from_changed_exact_bits_match_compare_scan() {
        let twin = page_of(|i| (i % 241) as u8, 1024);
        let mut cur = twin.clone();
        for w in [0usize, 1, 62, 63, 64, 120, 255] {
            cur[w * WORD_SIZE + 1] ^= 0x11;
        }
        let mut changed = vec![0u64; 4];
        for w in [0usize, 1, 62, 63, 64, 120, 255] {
            changed[w / 64] |= 1 << (w % 64);
        }
        let d = Diff::from_changed_shared(PageId(2), &Rc::from(&cur[..]), &changed);
        assert_eq!(d, Diff::create(PageId(2), &twin, &cur));
    }
}
