//! A processor's private copy of the shared address space.
//!
//! Every DSM processor holds its own [`PageStore`]: the local copies of the
//! shared pages, the twins used by the multiple-writer protocol, and the
//! per-word *delivery attribution* used by the paper's instrumentation to
//! decide, for every word a diff delivered, whether it was eventually read
//! (useful data) or never read before being overwritten or the end of the run
//! (useless data).

use crate::diff::{exact_bits_for_range, Diff};
use crate::layout::{GlobalAddr, PageId, PageLayout, WORD_SIZE};
use std::rc::Rc;

/// Sentinel attribution meaning "this word was not delivered by any exchange
/// (or its delivery has already been classified)".
pub const NO_EXCHANGE: u32 = u32::MAX;

/// One hardware page as held by one processor: current contents, the
/// interval's twin, and per-word delivery attribution.
///
/// The twin of the multiple-writer protocol is a snapshot of the page image
/// taken at the first write of an interval.  The image is `Rc`-shared, so
/// taking the twin is a reference-count bump: the first store then detaches
/// the image (the classic twin copy), and every store recomputes the changed
/// bits of the words it touched by comparing them against the twin.  The
/// changed-word bitset is therefore *exact* (a word whose original value is
/// later restored leaves the set again), so diff creation never has to
/// re-scan the page — it extracts runs straight from the bitset.  The
/// resulting diffs are bit-identical to a twin-compare.
///
/// The same sharing lets a dense diff published at interval close borrow
/// the page image outright (no payload copy; see
/// [`Diff::from_changed_shared`]), and lets a receiver adopt a whole-page
/// delivery by reference; the next store detaches the image again.
#[derive(Debug)]
pub struct LocalPage {
    data: Rc<[u8]>,
    /// The twin: the page image when the current interval's first write
    /// happened, or `None` while the page is not in the interval's write
    /// set.
    twin: Option<Rc<[u8]>>,
    /// One bit per word, set iff the word's current value differs from its
    /// value in the twin.  Meaningless while there is no twin.
    changed_words: Box<[u64]>,
    /// For each 32-bit word: the exchange id that last delivered it and has
    /// not yet been read or overwritten locally, or [`NO_EXCHANGE`].
    /// Authoritative only in the *mixed* representation (`uniform ==
    /// NO_EXCHANGE && !attr_dirty`); see `uniform`.  Allocated lazily on
    /// the first partial-range attribution access: pages that only ever see
    /// whole-page deliveries (the dominant pattern) ride the compact
    /// `uniform` representation and never pay for the array.
    attribution: Option<Box<[u32]>>,
    /// Number of words whose attribution is not [`NO_EXCHANGE`]. Read and
    /// write paths skip their per-word attribution loops entirely while this
    /// is zero — the overwhelmingly common case.
    pending: u32,
    /// Compact attribution representation for the dominant delivery pattern
    /// (a diff covering the whole page, later read or overwritten whole).
    /// When not [`NO_EXCHANGE`], *every* word of the page is attributed to
    /// this exchange and the `attribution` array contents are stale; the
    /// array is only materialised when a partial access needs per-word
    /// state.
    uniform: u32,
    /// True when the `attribution` array holds stale values from a consumed
    /// uniform attribution (pending is 0 but the array is not all
    /// [`NO_EXCHANGE`]).  It must be wiped before per-word use.
    attr_dirty: bool,
}

impl LocalPage {
    /// Create a zero-filled page of `page_size` bytes.
    pub fn new_zeroed(page_size: usize) -> Self {
        let words = page_size / WORD_SIZE;
        LocalPage {
            data: vec![0u8; page_size].into(),
            twin: None,
            changed_words: vec![0u64; words.div_ceil(64)].into_boxed_slice(),
            attribution: None,
            pending: 0,
            uniform: NO_EXCHANGE,
            attr_dirty: false,
        }
    }

    /// Number of 32-bit words in the page.
    #[inline]
    fn words(&self) -> usize {
        self.data.len() / WORD_SIZE
    }

    /// Drop out of the compact uniform/stale attribution representations
    /// into the mixed one, making the per-word `attribution` array
    /// authoritative (allocating it on first use).  Called before any
    /// partial-range attribution access.
    fn materialize_attr(&mut self) {
        let words = self.data.len() / WORD_SIZE;
        let attribution = self
            .attribution
            .get_or_insert_with(|| vec![NO_EXCHANGE; words].into_boxed_slice());
        if self.uniform != NO_EXCHANGE {
            attribution.fill(self.uniform);
            self.uniform = NO_EXCHANGE;
            self.attr_dirty = false;
        } else if self.attr_dirty {
            attribution.fill(NO_EXCHANGE);
            self.attr_dirty = false;
        }
    }

    /// Current contents of the page.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Whether a twin exists (i.e. the page is dirty in the current interval).
    #[inline]
    pub fn has_twin(&self) -> bool {
        self.twin.is_some()
    }

    /// Create the twin if it does not exist yet.  Returns `true` if a twin
    /// was created by this call (the "first write to a shared page" event).
    /// The twin shares the current image; the first store detaches it.
    pub fn ensure_twin(&mut self) -> bool {
        if self.twin.is_some() {
            return false;
        }
        self.twin = Some(Rc::clone(&self.data));
        self.changed_words.fill(0);
        true
    }

    /// Produce the diff of the current writing interval.  Returns `None` if
    /// the page has no twin.  The changed-word bitset is exact, so this is a
    /// straight run extraction — no page scan — and a dense diff borrows
    /// the page image itself instead of packing a payload copy.
    pub fn make_diff(&self, page: PageId) -> Option<Diff> {
        self.twin.as_ref()?;
        Some(Diff::from_changed_shared(
            page,
            &self.data,
            &self.changed_words,
        ))
    }

    /// Retire the twin (the interval's modifications have been encoded; the
    /// twin is dead weight from here on — under lazy diff timing the stored
    /// encoding, not the twin, is what later requests serve from).
    pub fn drop_twin(&mut self) {
        self.twin = None;
    }

    /// Store `src` at byte `offset` — the one path every write and every
    /// delivery takes into the page image.  The image is copy-on-next-write:
    /// a partial store detaches (copies) it first if a published diff or
    /// the twin still shares it, while a whole-page store builds the new
    /// image straight from `src` and never pays the detach copy.  While a
    /// twin is live, the touched words' changed bits are then recomputed
    /// against it, so the bitset stays exact: a word whose original value
    /// is restored by a later store leaves the set again.
    fn store_exact(&mut self, offset: usize, src: &[u8]) {
        if src.is_empty() {
            return;
        }
        let end = offset + src.len();
        let whole_page = offset == 0 && end == self.data.len();
        match Rc::get_mut(&mut self.data) {
            Some(data) => data[offset..end].copy_from_slice(src),
            None if whole_page => self.data = Rc::from(src),
            None => {
                let mut data: Rc<[u8]> = Rc::from(&self.data[..]);
                Rc::get_mut(&mut data).expect("a fresh copy is unique")[offset..end]
                    .copy_from_slice(src);
                self.data = data;
            }
        }
        if let Some(twin) = self.twin.as_deref() {
            let w1 = (end - 1) / WORD_SIZE + 1;
            exact_bits_for_range(
                &self.data,
                twin,
                &mut self.changed_words,
                offset / WORD_SIZE,
                w1,
            );
        }
    }

    /// Write `src` at byte `offset`.  Any delivered-but-unread words covered
    /// by the write lose their attribution: the paper counts them as useless
    /// data ("overwritten before being read").
    pub fn write_bytes(&mut self, offset: usize, src: &[u8]) {
        let end = offset + src.len();
        assert!(end <= self.data.len(), "write outside page bounds");
        if src.is_empty() {
            return;
        }
        self.store_exact(offset, src);
        let first = offset / WORD_SIZE;
        let last = (end - 1) / WORD_SIZE;
        if self.pending != 0 {
            if first == 0 && last + 1 == self.words() {
                // Whole-page overwrite discards every attribution; the array
                // (which may hold live or stale values) is left as-is and
                // flagged for a wipe before its next per-word use.
                self.pending = 0;
                self.attr_dirty = true;
                self.uniform = NO_EXCHANGE;
            } else {
                self.materialize_attr();
                let attribution = self.attribution.as_mut().expect("materialized");
                for w in first..=last {
                    if attribution[w] != NO_EXCHANGE {
                        attribution[w] = NO_EXCHANGE;
                        self.pending -= 1;
                    }
                }
            }
        }
    }

    /// Read `len` bytes at byte `offset`, lending them straight out of the
    /// page image.  For every covered word that still carries a delivery
    /// attribution, the word counts as read-before-overwritten (⇒ useful
    /// data) and the attribution is cleared so the word is only credited
    /// once.  `on_useful(exchange, words)` is invoked once per run of
    /// consecutive words credited to the same exchange — per-exchange word
    /// totals are identical to a per-word callback, without the call per
    /// word.
    pub fn read(
        &mut self,
        offset: usize,
        len: usize,
        mut on_useful: impl FnMut(u32, u32),
    ) -> &[u8] {
        let end = offset + len;
        assert!(end <= self.data.len(), "read outside page bounds");
        if len != 0 && self.pending != 0 {
            let first = offset / WORD_SIZE;
            let last = (end - 1) / WORD_SIZE;
            if self.uniform != NO_EXCHANGE {
                let e = self.uniform;
                let count = (last - first + 1) as u32;
                on_useful(e, count);
                if count as usize == self.words() {
                    // Whole-page read consumes the uniform attribution
                    // without ever materialising the array.
                    self.pending = 0;
                    self.uniform = NO_EXCHANGE;
                    self.attr_dirty = true;
                } else {
                    self.materialize_attr();
                    let attribution = self.attribution.as_mut().expect("materialized");
                    for w in first..=last {
                        attribution[w] = NO_EXCHANGE;
                    }
                    self.pending -= count;
                }
            } else {
                self.materialize_attr();
                let attribution = self.attribution.as_mut().expect("materialized");
                let mut run_e = NO_EXCHANGE;
                let mut run_len = 0u32;
                for w in first..=last {
                    let e = attribution[w];
                    if e != NO_EXCHANGE {
                        attribution[w] = NO_EXCHANGE;
                        self.pending -= 1;
                    }
                    if e == run_e {
                        run_len += 1;
                    } else {
                        if run_e != NO_EXCHANGE && run_len > 0 {
                            on_useful(run_e, run_len);
                        }
                        run_e = e;
                        run_len = 1;
                    }
                }
                if run_e != NO_EXCHANGE && run_len > 0 {
                    on_useful(run_e, run_len);
                }
            }
        }
        &self.data[offset..end]
    }

    /// Replace the whole page with `src` — the home-based protocol's
    /// whole-page fetch.  Every word of the page is attributed to `exchange`
    /// (the fetch delivered all of them; the ones never read before being
    /// overwritten become the protocol's useless data), or, when `exchange`
    /// is [`NO_EXCHANGE`], all attributions are cleared instead: a local
    /// refresh from a co-resident home copy delivers nothing over the wire.
    ///
    /// # Panics
    /// Panics if `src` is not exactly one page long.
    pub fn load_page(&mut self, src: &[u8], exchange: u32) {
        assert_eq!(src.len(), self.data.len(), "src must be one page");
        self.store_exact(0, src);
        if exchange == NO_EXCHANGE {
            self.pending = 0;
            self.uniform = NO_EXCHANGE;
            self.attr_dirty = true;
        } else {
            // Whole-page delivery: the compact uniform representation
            // replaces a page-sized attribution fill.
            self.pending = self.words() as u32;
            self.uniform = exchange;
        }
    }

    /// Apply a diff received from another processor.  Every word the diff
    /// overwrites is attributed to `exchange` (pass [`NO_EXCHANGE`] to skip
    /// attribution, e.g. for locally generated corrections in tests).
    pub fn apply_diff(&mut self, diff: &Diff, exchange: u32) {
        if !self.adopt_image(diff) {
            for (offset, bytes) in diff.runs() {
                self.store_exact(offset as usize, bytes);
            }
        }
        self.attribute_diff(diff, exchange);
    }

    /// Zero-copy delivery: when `diff` rewrites the whole page out of a
    /// shared snapshot and no twin is live, replace the image by reference
    /// (the next local write detaches as usual).  Returns whether it did.
    fn adopt_image(&mut self, diff: &Diff) -> bool {
        match diff.whole_page_shared_image() {
            Some(image) if self.twin.is_none() => {
                debug_assert_eq!(image.len(), self.data.len());
                self.data = Rc::clone(image);
                true
            }
            _ => false,
        }
    }

    /// Attribution half of [`apply_diff`](Self::apply_diff): credit every
    /// word `diff` covers to `exchange`.
    fn attribute_diff(&mut self, diff: &Diff, exchange: u32) {
        if exchange == NO_EXCHANGE {
            return;
        }
        // A diff covering the whole page (the dominant delivery shape for
        // the grid applications) takes the compact uniform representation —
        // no attribution-array traffic at all.
        let words = self.words();
        if let [span] = diff.spans() {
            if span.offset == 0 && span.len as usize / WORD_SIZE == words {
                self.pending = words as u32;
                self.uniform = exchange;
                return;
            }
        }
        self.materialize_attr();
        // Runs are disjoint, so when nothing is attributed yet every touched
        // word is a fresh attribution and the per-word scan can be skipped.
        let all_fresh = self.pending == 0;
        let attribution = self.attribution.as_mut().expect("materialized");
        for span in diff.spans() {
            let first = span.offset as usize / WORD_SIZE;
            let count = span.len as usize / WORD_SIZE;
            if count == 0 {
                continue;
            }
            let slice = &mut attribution[first..first + count];
            if all_fresh {
                self.pending += count as u32;
            } else {
                self.pending += fresh_words(slice);
            }
            slice.fill(exchange);
        }
    }

    /// Apply only the `visible` byte intervals of `diff` — the parts no
    /// later-applied diff of this page overwrites.  `visible` must be
    /// sorted, non-overlapping, word-aligned, and a subset of the diff's
    /// runs (each interval inside one run).  Used by the reverse-order
    /// batch apply in the protocol engine: applying each diff's visible
    /// part back to front leaves the page bit-identical to applying every
    /// diff front to back.
    pub fn apply_diff_visible(&mut self, diff: &Diff, exchange: u32, visible: &[(u32, u32)]) {
        // A whole-page diff that is fully visible (the dominant shape on the
        // grid applications' fetch path) is a straight page copy, and its
        // attribution takes the compact uniform representation — no
        // per-word array traffic at all.
        let page_len = self.data.len();
        if let ([span], [(0, hi)]) = (diff.spans(), visible) {
            if span.offset == 0 && span.len as usize == page_len && *hi as usize == page_len {
                if !self.adopt_image(diff) {
                    let (_, bytes) = diff.runs().next().expect("one span, one run");
                    self.store_exact(0, bytes);
                }
                if exchange != NO_EXCHANGE {
                    self.pending = (page_len / WORD_SIZE) as u32;
                    self.uniform = exchange;
                }
                return;
            }
        }
        if exchange != NO_EXCHANGE {
            // Visible-interval application is inherently partial, so the
            // per-word array must be authoritative.
            self.materialize_attr();
        }
        let all_fresh = self.pending == 0;
        let mut runs = diff.runs();
        let mut run = runs.next();
        for &(lo32, hi32) in visible {
            let (lo, hi) = (lo32 as usize, hi32 as usize);
            while let Some((roff, rbytes)) = run {
                let rlo = roff as usize;
                let rhi = rlo + rbytes.len();
                if rhi <= lo {
                    run = runs.next();
                    continue;
                }
                debug_assert!(
                    rlo <= lo && hi <= rhi,
                    "visible interval must sit inside one run"
                );
                self.store_exact(lo, &rbytes[lo - rlo..hi - rlo]);
                let (first, last) = (lo / WORD_SIZE, hi / WORD_SIZE - 1);
                if exchange != NO_EXCHANGE {
                    let attribution = self.attribution.as_mut().expect("materialized");
                    let slice = &mut attribution[first..=last];
                    if all_fresh {
                        self.pending += slice.len() as u32;
                    } else {
                        self.pending += fresh_words(slice);
                    }
                    slice.fill(exchange);
                }
                break;
            }
        }
    }

    /// Number of words currently carrying a delivery attribution (delivered
    /// but neither read nor overwritten yet).
    pub fn pending_attributions(&self) -> usize {
        if self.uniform == NO_EXCHANGE && !self.attr_dirty {
            // Only the mixed representation keeps the array authoritative
            // (an unallocated array is all NO_EXCHANGE by definition).
            debug_assert_eq!(
                self.pending as usize,
                self.attribution
                    .as_deref()
                    .unwrap_or(&[])
                    .iter()
                    .filter(|&&a| a != NO_EXCHANGE)
                    .count(),
                "pending-attribution counter out of sync"
            );
        }
        self.pending as usize
    }
}

/// Number of `attribution` entries that carry no delivery — the words a
/// fresh attribution adds to `pending`.  Summed as 0/1 lanes rather than
/// filtered and counted, so the loop vectorizes.
fn fresh_words(attribution: &[u32]) -> u32 {
    attribution
        .iter()
        .map(|&a| (a == NO_EXCHANGE) as u32)
        .sum::<u32>()
}

/// A processor's private view of the entire shared address space.
///
/// Pages are materialized lazily: a page that was never touched by this
/// processor costs nothing.
#[derive(Debug)]
pub struct PageStore {
    layout: PageLayout,
    pages: Vec<Option<Box<LocalPage>>>,
}

impl PageStore {
    /// Create an empty store for the given layout.
    pub fn new(layout: PageLayout) -> Self {
        PageStore {
            layout,
            pages: (0..layout.total_pages()).map(|_| None).collect(),
        }
    }

    /// The layout this store was created with.
    #[inline]
    pub fn layout(&self) -> PageLayout {
        self.layout
    }

    /// Number of pages that have been materialized so far.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Get the page, materializing a zero-filled copy on first touch.
    pub fn page_mut(&mut self, page: PageId) -> &mut LocalPage {
        let idx = page.index();
        assert!(idx < self.pages.len(), "page {page} outside layout");
        self.pages[idx]
            .get_or_insert_with(|| Box::new(LocalPage::new_zeroed(self.layout.page_size())))
    }

    /// Get the page if it has been materialized.
    pub fn page(&self, page: PageId) -> Option<&LocalPage> {
        self.pages.get(page.index()).and_then(|p| p.as_deref())
    }

    /// Write `src` at global address `addr`, splitting across pages as
    /// needed.  The caller (the DSM protocol layer) is responsible for having
    /// made every touched page writable first (twin creation, fault handling).
    pub fn write(&mut self, addr: GlobalAddr, src: &[u8]) {
        let mut remaining = src;
        let mut cursor = addr;
        while !remaining.is_empty() {
            let page = self.layout.page_of(cursor);
            let off = self.layout.offset_in_page(cursor);
            let avail = self.layout.page_size() - off;
            let take = avail.min(remaining.len());
            self.page_mut(page).write_bytes(off, &remaining[..take]);
            remaining = &remaining[take..];
            cursor = cursor.add(take as u64);
        }
    }

    /// Read into `dst` from global address `addr`, splitting across pages.
    /// `on_useful(exchange, bytes)` is invoked for delivered words read for
    /// the first time, aggregated per page segment.
    pub fn read(&mut self, addr: GlobalAddr, dst: &mut [u8], on_useful: impl FnMut(u32, u64)) {
        let mut filled = 0;
        self.read_with(addr, dst.len(), on_useful, |seg| {
            dst[filled..filled + seg.len()].copy_from_slice(seg);
            filled += seg.len();
        });
    }

    /// Read `len` bytes from global address `addr` without copying them:
    /// each page segment is credited exactly as [`read`](Self::read)
    /// credits it, then lent to `lend` straight out of the page image, in
    /// address order.  A value that straddles a page boundary arrives split
    /// across two consecutive segments.
    pub fn read_with(
        &mut self,
        addr: GlobalAddr,
        len: usize,
        mut on_useful: impl FnMut(u32, u64),
        mut lend: impl FnMut(&[u8]),
    ) {
        let mut remaining = len;
        let mut cursor = addr;
        while remaining > 0 {
            let page = self.layout.page_of(cursor);
            let off = self.layout.offset_in_page(cursor);
            let take = (self.layout.page_size() - off).min(remaining);
            lend(self.page_mut(page).read(off, take, |e, words| {
                on_useful(e, words as u64 * WORD_SIZE as u64)
            }));
            remaining -= take;
            cursor = cursor.add(take as u64);
        }
    }

    /// Total number of delivered-but-unread words across all resident pages.
    pub fn pending_attributions(&self) -> usize {
        self.pages
            .iter()
            .flatten()
            .map(|p| p.pending_attributions())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> PageLayout {
        PageLayout::new(256, 8)
    }

    #[test]
    fn zero_initialised_and_lazy() {
        let mut store = PageStore::new(layout());
        assert_eq!(store.resident_pages(), 0);
        let mut buf = [0xFFu8; 16];
        store.read(GlobalAddr(10), &mut buf, |_, _| {});
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(store.resident_pages(), 1);
    }

    #[test]
    fn write_then_read_roundtrip_across_pages() {
        let mut store = PageStore::new(layout());
        let data: Vec<u8> = (0..300).map(|i| (i % 255) as u8).collect();
        store.write(GlobalAddr(200), &data);
        let mut out = vec![0u8; 300];
        store.read(GlobalAddr(200), &mut out, |_, _| {});
        assert_eq!(out, data);
        assert_eq!(store.resident_pages(), 2); // bytes 200..500 touch pages 0 and 1
    }

    #[test]
    fn twin_and_diff_cycle() {
        let mut store = PageStore::new(layout());
        let page = PageId(2);
        let p = store.page_mut(page);
        assert!(p.ensure_twin());
        assert!(!p.ensure_twin());
        p.write_bytes(8, &[1, 2, 3, 4]);
        let diff = p.make_diff(page).unwrap();
        assert_eq!(diff.num_runs(), 1);
        assert_eq!(diff.payload_bytes(), 4);
        p.drop_twin();
        assert!(!p.has_twin());
    }

    #[test]
    fn attribution_read_before_overwrite_is_useful() {
        let mut store = PageStore::new(layout());
        let page = PageId(0);
        // Build a diff that delivers words 2 and 3.
        let twin = vec![0u8; 256];
        let mut cur = twin.clone();
        cur[8..16].copy_from_slice(&[9; 8]);
        let diff = Diff::create(page, &twin, &cur);

        store.page_mut(page).apply_diff(&diff, 7);
        assert_eq!(store.pending_attributions(), 2);

        // Read one delivered word: exchange 7 gets credited exactly once.
        let mut credited = Vec::new();
        let mut buf = [0u8; 4];
        store.read(GlobalAddr(8), &mut buf, |e, b| credited.push((e, b)));
        assert_eq!(credited, vec![(7, 4)]);
        assert_eq!(buf, [9, 9, 9, 9]);
        // Re-reading does not double count.
        credited.clear();
        store.read(GlobalAddr(8), &mut buf, |e, b| credited.push((e, b)));
        assert!(credited.is_empty());
        assert_eq!(store.pending_attributions(), 1);
    }

    #[test]
    fn attribution_overwrite_before_read_is_not_credited() {
        let mut store = PageStore::new(layout());
        let page = PageId(0);
        let twin = vec![0u8; 256];
        let mut cur = twin.clone();
        cur[0..4].copy_from_slice(&[5; 4]);
        let diff = Diff::create(page, &twin, &cur);
        store.page_mut(page).apply_diff(&diff, 3);

        // Local write lands on the delivered word before any read.
        store.write(GlobalAddr(0), &[1, 1, 1, 1]);
        let mut credited = Vec::new();
        let mut buf = [0u8; 4];
        store.read(GlobalAddr(0), &mut buf, |e, b| credited.push((e, b)));
        assert!(credited.is_empty());
        assert_eq!(buf, [1, 1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "outside layout")]
    fn out_of_range_page_panics() {
        let mut store = PageStore::new(layout());
        store.page_mut(PageId(100));
    }

    #[test]
    fn rewriting_a_word_with_its_old_value_stays_out_of_the_diff() {
        // Changed bits compare against the twin, so a store of a word's
        // current value never reaches the wire.
        let mut store = PageStore::new(layout());
        let page = PageId(1);
        let p = store.page_mut(page);
        p.write_bytes(0, &[3, 3, 3, 3]);
        p.ensure_twin();
        p.write_bytes(0, &[3, 3, 3, 3]); // stored, contents unchanged
        p.write_bytes(12, &[1, 2, 3, 4]);
        let diff = p.make_diff(page).unwrap();
        assert_eq!(diff.num_runs(), 1);
        assert_eq!(diff.spans()[0].offset, 12);
    }

    #[test]
    fn twin_buffer_is_recycled_across_intervals() {
        let mut store = PageStore::new(layout());
        let p = store.page_mut(PageId(0));
        p.ensure_twin();
        p.write_bytes(0, &[1, 1, 1, 1]);
        let d1 = p.make_diff(PageId(0)).unwrap();
        assert_eq!(d1.spans()[0].offset, 0);
        p.drop_twin();
        // The next twin must be taken from the *current* contents, not
        // carry stale bytes from the previous interval.
        assert!(p.ensure_twin());
        p.write_bytes(8, &[2, 2, 2, 2]);
        let d2 = p.make_diff(PageId(0)).unwrap();
        assert_eq!(d2.num_runs(), 1);
        assert_eq!(d2.runs().next().unwrap(), (8, &[2u8, 2, 2, 2][..]));
    }

    #[test]
    fn pending_attribution_counter_tracks_reads_writes_and_loads() {
        let mut store = PageStore::new(layout());
        let page = PageId(0);
        let twin = vec![0u8; 256];
        let mut cur = twin.clone();
        cur[0..12].copy_from_slice(&[4; 12]);
        let diff = Diff::create(page, &twin, &cur);

        let p = store.page_mut(page);
        p.apply_diff(&diff, 5);
        assert_eq!(p.pending_attributions(), 3);
        // Re-applying attributes the same words again: count must not inflate.
        p.apply_diff(&diff, 6);
        assert_eq!(p.pending_attributions(), 3);

        // A read consumes one word's attribution...
        p.read(0, 4, |_, _| {});
        assert_eq!(p.pending_attributions(), 2);
        // ...a write consumes another...
        p.write_bytes(4, &[9; 4]);
        assert_eq!(p.pending_attributions(), 1);
        // ...and a whole-page load resets the slate.
        p.load_page(&vec![7u8; 256], 9);
        assert_eq!(p.pending_attributions(), 64);
        p.load_page(&vec![7u8; 256], NO_EXCHANGE);
        assert_eq!(p.pending_attributions(), 0);
    }
}
