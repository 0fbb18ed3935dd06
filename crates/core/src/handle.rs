//! Typed handles into the shared address space.
//!
//! Applications do not manipulate raw global addresses; they allocate typed
//! arrays and scalars from the [`Dsm`](crate::cluster::Dsm) before the
//! parallel section and access them through these handles, which translate
//! element indices into byte-level shared-memory accesses on a
//! [`ProcCtx`].  Accesses are `async` because any of them may fault, and a
//! fault is a scheduler park point (see [`crate::sync::TurnWait`]).

use std::marker::PhantomData;

use tm_page::GlobalAddr;

use crate::proc::ProcCtx;

/// A plain value that can live in DSM shared memory.
///
/// Implementations define a fixed-size little-endian byte encoding; all
/// numeric primitives used by the application suite are covered.
pub trait SharedVal: Copy + Default + Send + Sync + 'static {
    /// Encoded size in bytes.
    const BYTES: usize;
    /// Encode into `buf` (exactly `BYTES` long).
    fn store(self, buf: &mut [u8]);
    /// Decode from `buf` (exactly `BYTES` long).
    fn load(buf: &[u8]) -> Self;
}

macro_rules! impl_shared_val {
    ($($t:ty),*) => {
        $(
            impl SharedVal for $t {
                const BYTES: usize = std::mem::size_of::<$t>();
                #[inline]
                fn store(self, buf: &mut [u8]) {
                    buf.copy_from_slice(&self.to_le_bytes());
                }
                #[inline]
                fn load(buf: &[u8]) -> Self {
                    <$t>::from_le_bytes(buf.try_into().expect("buffer size mismatch"))
                }
            }
        )*
    };
}

impl_shared_val!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

/// A fixed-length array of `T` living in shared memory.
#[derive(Debug, Clone, Copy)]
pub struct GArray<T: SharedVal> {
    base: GlobalAddr,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T: SharedVal> GArray<T> {
    /// Create a handle over `len` elements starting at `base`.  Normally
    /// produced by [`Dsm::alloc_array`](crate::cluster::Dsm::alloc_array).
    pub fn from_raw(base: GlobalAddr, len: usize) -> Self {
        GArray {
            base,
            len,
            _marker: PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Global address of element `i`.
    pub fn addr(&self, i: usize) -> GlobalAddr {
        assert!(i <= self.len, "index {i} out of bounds (len {})", self.len);
        self.base.add((i * T::BYTES) as u64)
    }

    /// Base address of the array.
    pub fn base(&self) -> GlobalAddr {
        self.base
    }

    /// Read element `i`.
    pub async fn get(&self, ctx: &mut ProcCtx, i: usize) -> T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let mut decoder = Decoder::<T>::default();
        let mut value = T::default();
        ctx.read_with(self.addr(i), T::BYTES, |seg| {
            let (split, mut whole) = decoder.feed(seg);
            if let Some(v) = split.or_else(|| whole.next()) {
                value = v;
            }
        })
        .await;
        value
    }

    /// Write element `i`.
    pub async fn set(&self, ctx: &mut ProcCtx, i: usize, v: T) {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let mut buf = [0u8; 16];
        v.store(&mut buf[..T::BYTES]);
        ctx.write_bytes(self.addr(i), &buf[..T::BYTES]).await;
    }

    /// Read `count` elements starting at `start` into a vector (one bulk
    /// shared access — the natural granularity for row/column operations).
    pub async fn read_vec(&self, ctx: &mut ProcCtx, start: usize, count: usize) -> Vec<T> {
        let mut out = Vec::new();
        self.read_into(ctx, start, count, &mut out).await;
        out
    }

    /// Read `count` elements starting at `start` into `out` (cleared first).
    /// Equivalent to [`read_vec`](Self::read_vec) but reuses the caller's
    /// buffer, so a hot loop performs no per-call allocation.  Elements are
    /// decoded straight out of the page images, with no byte staging copy.
    pub async fn read_into(&self, ctx: &mut ProcCtx, start: usize, count: usize, out: &mut Vec<T>) {
        assert!(start + count <= self.len, "range out of bounds");
        out.clear();
        out.reserve(count);
        let mut decoder = Decoder::<T>::default();
        ctx.read_with(self.addr(start), count * T::BYTES, |seg| {
            let (split, whole) = decoder.feed(seg);
            out.extend(split);
            out.extend(whole);
        })
        .await;
    }

    /// Write the elements of `values` starting at index `start` (one bulk
    /// shared access).
    pub async fn write_slice(&self, ctx: &mut ProcCtx, start: usize, values: &[T]) {
        assert!(start + values.len() <= self.len, "range out of bounds");
        let mut bytes = ctx.take_byte_scratch();
        // Every chunk is overwritten by `store` below, so growth (not
        // re-zeroing) is the only cost of the resize.
        let len = values.len() * T::BYTES;
        bytes.resize(len, 0);
        for (chunk, v) in bytes[..len].chunks_exact_mut(T::BYTES).zip(values.iter()) {
            v.store(chunk);
        }
        ctx.write_bytes(self.addr(start), &bytes[..len]).await;
        ctx.restore_byte_scratch(bytes);
    }

    /// Narrow the handle to a sub-range `[start, start + len)`.
    pub fn slice(&self, start: usize, len: usize) -> GArray<T> {
        assert!(start + len <= self.len, "slice out of bounds");
        GArray {
            base: self.addr(start),
            len,
            _marker: PhantomData,
        }
    }
}

/// Decodes a stream of page segments into `T`s.  Whole elements decode in
/// place; an element split across a page boundary is reassembled from the
/// tail of one segment and the head of the next.
struct Decoder<T> {
    partial: [u8; 16],
    filled: usize,
    _marker: PhantomData<T>,
}

impl<T> Default for Decoder<T> {
    fn default() -> Self {
        Decoder {
            partial: [0; 16],
            filled: 0,
            _marker: PhantomData,
        }
    }
}

impl<T: SharedVal> Decoder<T> {
    /// Take the next segment: returns the element it completes from the
    /// previous segment's tail, if any, then its whole elements in order;
    /// its own unfinished tail is kept for the next segment.
    fn feed<'s>(&mut self, mut seg: &'s [u8]) -> (Option<T>, impl Iterator<Item = T> + 's) {
        let mut split = None;
        if self.filled > 0 {
            let take = (T::BYTES - self.filled).min(seg.len());
            self.partial[self.filled..self.filled + take].copy_from_slice(&seg[..take]);
            self.filled += take;
            seg = &seg[take..];
            if self.filled == T::BYTES {
                split = Some(T::load(&self.partial[..T::BYTES]));
                self.filled = 0;
            }
        }
        let whole = seg.chunks_exact(T::BYTES);
        if self.filled == 0 {
            let rest = whole.remainder();
            self.partial[..rest.len()].copy_from_slice(rest);
            self.filled = rest.len();
        }
        (split, whole.map(T::load))
    }
}

/// A single shared scalar of type `T`.
#[derive(Debug, Clone, Copy)]
pub struct GScalar<T: SharedVal> {
    cell: GArray<T>,
}

impl<T: SharedVal> GScalar<T> {
    /// Create a handle over the scalar stored at `addr`.
    pub fn from_raw(addr: GlobalAddr) -> Self {
        GScalar {
            cell: GArray::from_raw(addr, 1),
        }
    }

    /// Global address of the scalar.
    pub fn addr(&self) -> GlobalAddr {
        self.cell.base()
    }

    /// Read the scalar.
    pub async fn get(&self, ctx: &mut ProcCtx) -> T {
        self.cell.get(ctx, 0).await
    }

    /// Write the scalar.
    pub async fn set(&self, ctx: &mut ProcCtx, v: T) {
        self.cell.set(ctx, 0, v).await
    }
}

/// A dense row-major matrix of `T` in shared memory; rows are the unit of
/// bulk access used by the grid applications (Jacobi, Shallow, MGS, FFT).
#[derive(Debug, Clone, Copy)]
pub struct GMatrix<T: SharedVal> {
    data: GArray<T>,
    rows: usize,
    cols: usize,
}

impl<T: SharedVal> GMatrix<T> {
    /// Wrap an array of `rows * cols` elements as a matrix.
    pub fn from_array(data: GArray<T>, rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        GMatrix { data, rows, cols }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The backing array handle.
    pub fn as_array(&self) -> GArray<T> {
        self.data
    }

    /// Read a full row.
    pub async fn read_row(&self, ctx: &mut ProcCtx, r: usize) -> Vec<T> {
        assert!(r < self.rows, "row {r} out of bounds");
        self.data.read_vec(ctx, r * self.cols, self.cols).await
    }

    /// Read a full row into `out` (cleared first), reusing the caller's
    /// buffer so per-row iteration performs no allocation.
    pub async fn read_row_into(&self, ctx: &mut ProcCtx, r: usize, out: &mut Vec<T>) {
        assert!(r < self.rows, "row {r} out of bounds");
        self.data
            .read_into(ctx, r * self.cols, self.cols, out)
            .await;
    }

    /// Write a full row.
    pub async fn write_row(&self, ctx: &mut ProcCtx, r: usize, values: &[T]) {
        assert!(r < self.rows, "row {r} out of bounds");
        assert_eq!(values.len(), self.cols, "row length mismatch");
        self.data.write_slice(ctx, r * self.cols, values).await;
    }

    /// Read one element.
    pub async fn get(&self, ctx: &mut ProcCtx, r: usize, c: usize) -> T {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data.get(ctx, r * self.cols + c).await
    }

    /// Write one element.
    pub async fn set(&self, ctx: &mut ProcCtx, r: usize, c: usize, v: T) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data.set(ctx, r * self.cols + c, v).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Dsm;
    use crate::config::DsmConfig;
    use tm_net::ClusterStats;
    use tm_page::Align;

    /// Read `arr` back in a fixed pattern — single elements (one of them
    /// straddling a page boundary when the array does), one `read_into`
    /// range and one `read_vec` range, both crossing pages — either through
    /// the typed accessors or through `ProcCtx::read_bytes` plus a decode.
    async fn read_pattern<T: SharedVal>(ctx: &mut ProcCtx, arr: GArray<T>, typed: bool) -> Vec<T> {
        let len = arr.len();
        let mut got = Vec::new();
        let mut buf = Vec::new();
        for i in [1, 27, 31, 32, len / 3, len - 1] {
            if typed {
                got.push(arr.get(ctx, i).await);
            } else {
                buf.resize(T::BYTES, 0);
                ctx.read_bytes(arr.addr(i), &mut buf).await;
                got.push(T::load(&buf));
            }
        }
        for (start, end, into) in [(len / 4, len / 2, true), (len / 2, len, false)] {
            if typed {
                let mut out = vec![T::default(); 3];
                if into {
                    arr.read_into(ctx, start, end - start, &mut out).await;
                } else {
                    out = arr.read_vec(ctx, start, end - start).await;
                }
                got.extend(out);
            } else {
                buf.resize((end - start) * T::BYTES, 0);
                ctx.read_bytes(arr.addr(start), &mut buf).await;
                got.extend(buf.chunks_exact(T::BYTES).map(T::load));
            }
        }
        got
    }

    /// One run: rank 0 fills four word-aligned arrays packed onto 256-byte
    /// pages, a barrier delivers its diffs to rank 1 (so attribution is
    /// live on every page), and rank 1 reads them back in `read_pattern`.
    fn run(typed: bool, racecheck: bool) -> (Vec<u8>, Vec<u16>, Vec<f32>, Vec<f64>, ClusterStats) {
        let mut dsm = Dsm::new(DsmConfig {
            page_size: 256,
            shared_pages: 64,
            racecheck,
            ..DsmConfig::with_procs(2)
        });
        let a8 = dsm.alloc_array::<u8>(301, Align::Word);
        let a16 = dsm.alloc_array::<u16>(203, Align::Word);
        let a32 = dsm.alloc_array::<f32>(151, Align::Word);
        let a64 = dsm.alloc_array::<f64>(130, Align::Word);
        // Word-aligned but not 8-aligned: an f64 straddles every page
        // boundary, element 27 (read on its own) among them.
        assert_eq!(a64.addr(28).offset() % 256, 4);
        let out = dsm.run(async |ctx| {
            if ctx.rank() == 0 {
                let v8: Vec<u8> = (0..a8.len()).map(|i| (i * 7) as u8).collect();
                let v16: Vec<u16> = (0..a16.len()).map(|i| (i * 977) as u16).collect();
                let v32: Vec<f32> = (0..a32.len()).map(|i| i as f32 * 0.25 - 9.0).collect();
                let v64: Vec<f64> = (0..a64.len()).map(|i| (i as f64).sqrt() * 1e10).collect();
                a8.write_slice(ctx, 0, &v8).await;
                a16.write_slice(ctx, 0, &v16).await;
                a32.write_slice(ctx, 0, &v32).await;
                // Leave the first f64s alone: their pages get partial diffs.
                a64.write_slice(ctx, 5, &v64[5..]).await;
            }
            ctx.barrier().await;
            if ctx.rank() == 1 {
                (
                    read_pattern(ctx, a8, typed).await,
                    read_pattern(ctx, a16, typed).await,
                    read_pattern(ctx, a32, typed).await,
                    read_pattern(ctx, a64, typed).await,
                )
            } else {
                Default::default()
            }
        });
        let [_, (v8, v16, v32, v64)] = <[_; 2]>::try_from(out.results).expect("two ranks");
        (v8, v16, v32, v64, out.stats)
    }

    #[test]
    fn typed_reads_match_byte_reads_across_page_boundaries() {
        for racecheck in [false, true] {
            let typed = run(true, racecheck);
            let bytes = run(false, racecheck);
            assert_eq!(typed.0, bytes.0, "u8 values");
            assert_eq!(typed.1, bytes.1, "u16 values");
            assert_eq!(typed.2, bytes.2, "f32 values");
            assert_eq!(typed.3, bytes.3, "f64 values");
            assert_eq!((typed.3[0], typed.3[1]), (0.0, 27f64.sqrt() * 1e10));
            // Every exchange's useful payload (and every other statistic)
            // agrees, and the reads did credit delivered words.
            let useful = |s: &ClusterStats| -> Vec<u64> {
                s.per_proc
                    .iter()
                    .flat_map(|p| p.exchanges.iter().map(|e| e.useful_payload))
                    .collect()
            };
            assert_eq!(useful(&typed.4), useful(&bytes.4));
            assert!(useful(&typed.4).iter().sum::<u64>() > 0);
            assert_eq!(typed.4, bytes.4);
            assert!(typed.4.races.is_empty());
        }
    }
}
