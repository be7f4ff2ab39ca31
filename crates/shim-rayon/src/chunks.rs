//! Borrowing chunked slice parallelism: `par_chunks` / `par_chunks_mut`
//! plus the `enumerate` / `zip` combinators the hot kernels compose them
//! with.
//!
//! Each pool thread gets a borrowed sub-slice directly — zero allocation per
//! parallel region, which is what the steady-state-allocation-free
//! density/wirelength kernels require.

#![allow(unsafe_code)]

use crate::pool;
use std::marker::PhantomData;

/// Number of chunks a `len`-element slice splits into at `size` per chunk.
pub fn chunk_count(len: usize, size: usize) -> usize {
    assert!(size > 0, "chunk size must be positive");
    len.div_ceil(size)
}

/// A source of independently-takeable chunk items, dispatched over the pool
/// by [`ParChunkExt::for_each`].
pub trait ChunkSource: Sync {
    /// The per-chunk item handed to the worker closure.
    type Item: Send;
    /// Number of chunks.
    fn count(&self) -> usize;
    /// Produces chunk `i`.
    ///
    /// # Safety
    ///
    /// Each index must be taken at most once across all threads (mutable
    /// sources hand out disjoint `&mut` sub-slices on this premise).
    unsafe fn take(&self, i: usize) -> Self::Item;
}

/// Chunked shared view of a slice (`slice.par_chunks(n)`).
pub struct ParChunks<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync + Send> ChunkSource for ParChunks<'a, T> {
    type Item = &'a [T];
    fn count(&self) -> usize {
        chunk_count(self.slice.len(), self.size)
    }
    unsafe fn take(&self, i: usize) -> &'a [T] {
        let start = i * self.size;
        &self.slice[start..(start + self.size).min(self.slice.len())]
    }
}

/// Chunked exclusive view of a slice (`slice.par_chunks_mut(n)`): chunk `i`
/// is the disjoint sub-slice `[i*size, min((i+1)*size, len))`.
pub struct ParChunksMut<'a, T> {
    ptr: *mut T,
    len: usize,
    size: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: the raw pointer is only used to carve disjoint sub-slices, one per
// chunk index, and `for_each` dispatches each index exactly once.
unsafe impl<T: Send> Sync for ParChunksMut<'_, T> {}
unsafe impl<T: Send> Send for ParChunksMut<'_, T> {}

impl<'a, T: Send> ChunkSource for ParChunksMut<'a, T> {
    type Item = &'a mut [T];
    fn count(&self) -> usize {
        chunk_count(self.len, self.size)
    }
    unsafe fn take(&self, i: usize) -> &'a mut [T] {
        let start = i * self.size;
        debug_assert!(start < self.len);
        let len = self.size.min(self.len - start);
        // SAFETY: chunks are disjoint by construction and each index is
        // taken at most once (caller contract), so no aliasing `&mut`.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }
}

/// Chunked exclusive view of a slice split at explicit boundaries
/// (`par_chunks_mut_at`): chunk `i` is the sub-slice
/// `[bounds[i], bounds[i+1])`, so chunk sizes may vary — the shape CSR
/// layouts need to hand each net-chunk its exact pin range.
pub struct ParChunksMutAt<'a, T> {
    ptr: *mut T,
    bounds: &'a [u32],
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: the raw pointer is only used to carve sub-slices at validated
// monotone boundaries (disjoint by construction), one per chunk index, and
// `for_each` dispatches each index exactly once.
unsafe impl<T: Send> Sync for ParChunksMutAt<'_, T> {}
unsafe impl<T: Send> Send for ParChunksMutAt<'_, T> {}

impl<'a, T: Send> ChunkSource for ParChunksMutAt<'a, T> {
    type Item = &'a mut [T];
    fn count(&self) -> usize {
        self.bounds.len() - 1
    }
    unsafe fn take(&self, i: usize) -> &'a mut [T] {
        let start = self.bounds[i] as usize;
        let end = self.bounds[i + 1] as usize;
        // SAFETY: `par_chunks_mut_at` asserted the bounds are monotone and
        // end at the slice length, so chunks are in-bounds and disjoint, and
        // each index is taken at most once (caller contract).
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), end - start) }
    }
}

/// Pairs every chunk with its index (`.enumerate()`).
pub struct Enumerate<S>(S);

impl<S: ChunkSource> ChunkSource for Enumerate<S> {
    type Item = (usize, S::Item);
    fn count(&self) -> usize {
        self.0.count()
    }
    unsafe fn take(&self, i: usize) -> (usize, S::Item) {
        // SAFETY: forwarded caller contract.
        (i, unsafe { self.0.take(i) })
    }
}

/// Locksteps two chunk sources of equal chunk count (`.zip(other)`).
pub struct Zip<A, B>(A, B);

impl<A: ChunkSource, B: ChunkSource> ChunkSource for Zip<A, B> {
    type Item = (A::Item, B::Item);
    fn count(&self) -> usize {
        self.0.count()
    }
    unsafe fn take(&self, i: usize) -> (A::Item, B::Item) {
        // SAFETY: forwarded caller contract.
        unsafe { (self.0.take(i), self.1.take(i)) }
    }
}

/// Combinators + the terminal `for_each` on any chunk source.
pub trait ParChunkExt: ChunkSource + Sized {
    /// Pairs each chunk with its chunk index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate(self)
    }

    /// Locksteps with another source; panics if chunk counts differ.
    fn zip<B: ChunkSource>(self, other: B) -> Zip<Self, B> {
        assert_eq!(self.count(), other.count(), "zip: chunk counts must match");
        Zip(self, other)
    }

    /// Runs `f` on every chunk, distributed over the global pool. Chunks
    /// are handed out exactly once; completion of all chunks is awaited.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        let n = self.count();
        let src = &self;
        // SAFETY: the pool claims each index with a fetch_add, so every
        // index reaches `take` at most once.
        pool::with_current(|p| p.run_dyn(n, &|i| f(unsafe { src.take(i) })));
    }
}

impl<S: ChunkSource> ParChunkExt for S {}

/// `par_chunks` on shared slices (rayon's `ParallelSlice`).
pub trait ParallelSlice<T: Sync> {
    /// Splits into `size`-element chunks processed in parallel.
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T> {
        assert!(size > 0, "chunk size must be positive");
        ParChunks { slice: self, size }
    }
}

/// `par_chunks_mut` on mutable slices (rayon's `ParallelSliceMut`), plus the
/// boundary-driven `par_chunks_mut_at` variant this shim adds.
pub trait ParallelSliceMut<T: Send> {
    /// Splits into disjoint `size`-element mutable chunks processed in
    /// parallel.
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;

    /// Splits at the explicit `bounds` (must start at 0, end at `len`, and
    /// be non-decreasing) into disjoint variable-size mutable chunks; chunk
    /// `i` is `[bounds[i], bounds[i+1])`. `bounds.len() - 1` chunks total,
    /// which lets it `zip` with fixed-size sources of the same chunk count.
    fn par_chunks_mut_at<'a>(&'a mut self, bounds: &'a [u32]) -> ParChunksMutAt<'a, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        assert!(size > 0, "chunk size must be positive");
        ParChunksMut { ptr: self.as_mut_ptr(), len: self.len(), size, _marker: PhantomData }
    }

    fn par_chunks_mut_at<'a>(&'a mut self, bounds: &'a [u32]) -> ParChunksMutAt<'a, T> {
        // The unsafe `take` relies on these invariants for disjointness, so
        // they are hard asserts, not debug asserts (O(chunks), not O(len)).
        assert!(!bounds.is_empty(), "bounds must contain at least one entry");
        assert_eq!(bounds[0], 0, "bounds must start at 0");
        assert_eq!(*bounds.last().unwrap() as usize, self.len(), "bounds must end at len");
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "bounds must be non-decreasing");
        ParChunksMutAt { ptr: self.as_mut_ptr(), bounds, _marker: PhantomData }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_chunks_mut_writes_disjoint_chunks_in_order() {
        let mut data = vec![0usize; 1003];
        data.par_chunks_mut(100).enumerate().for_each(|(ci, chunk)| {
            for x in chunk {
                *x = ci;
            }
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, i / 100);
        }
    }

    #[test]
    fn zip_locksteps_equal_counts() {
        let src: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let mut dst = vec![0.0f64; 500];
        dst.par_chunks_mut(64).zip(src.par_chunks(64)).for_each(|(d, s)| {
            for (o, i) in d.iter_mut().zip(s) {
                *o = i * 2.0;
            }
        });
        assert!(dst.iter().enumerate().all(|(i, &x)| x == i as f64 * 2.0));
    }

    #[test]
    #[should_panic(expected = "chunk counts must match")]
    fn zip_rejects_mismatched_counts() {
        let a = [0u8; 10];
        let b = [0u8; 20];
        let _ = a.par_chunks(4).zip(b.par_chunks(4));
    }

    #[test]
    fn empty_slice_is_a_noop() {
        let mut data: Vec<u32> = Vec::new();
        data.par_chunks_mut(8).for_each(|_| panic!("no chunks expected"));
    }

    #[test]
    fn par_chunks_mut_at_carves_variable_chunks() {
        let mut data = vec![0u32; 10];
        let bounds = [0u32, 3, 3, 7, 10];
        data.par_chunks_mut_at(&bounds).enumerate().for_each(|(ci, chunk)| {
            assert_eq!(chunk.len(), (bounds[ci + 1] - bounds[ci]) as usize);
            for x in chunk {
                *x = ci as u32 + 1;
            }
        });
        assert_eq!(data, [1, 1, 1, 3, 3, 3, 3, 4, 4, 4]);
    }

    #[test]
    fn par_chunks_mut_at_zips_with_fixed_chunks() {
        // The shape the wirelength scatter uses: pin-range chunks zipped
        // with fixed-size net chunks of the same chunk count.
        let mut pins = vec![0u32; 12];
        let mut nets = vec![0u32; 6];
        let bounds = [0u32, 5, 8, 12];
        pins.par_chunks_mut_at(&bounds)
            .zip(nets.par_chunks_mut(2))
            .enumerate()
            .for_each(|(ci, (p, n))| {
                for x in p {
                    *x = ci as u32;
                }
                for x in n {
                    *x = ci as u32;
                }
            });
        assert_eq!(pins, [0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!(nets, [0, 0, 1, 1, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn par_chunks_mut_at_rejects_unsorted_bounds() {
        let mut data = [0u8; 4];
        let _ = data.par_chunks_mut_at(&[0, 3, 2, 4]);
    }

    #[test]
    #[should_panic(expected = "end at len")]
    fn par_chunks_mut_at_rejects_short_bounds() {
        let mut data = [0u8; 4];
        let _ = data.par_chunks_mut_at(&[0, 3]);
    }
}
