//! Offline stand-in for the subset of the [`rayon`](https://docs.rs/rayon)
//! API this workspace uses: `par_iter` / `par_iter_mut` on slices,
//! `into_par_iter` on `Vec<T>` and `Range<usize>`, borrowing `par_chunks` /
//! `par_chunks_mut`, the adapters `map`, `filter`, `filter_map`,
//! `flat_map_iter`, `for_each`, `sum`, `collect`, `collect_into_vec`, and
//! [`join`] for a region of two different tasks.
//!
//! The build environment has no access to crates.io, so this crate provides
//! real data parallelism on `std` only. Everything dispatches onto one
//! lazily-initialized persistent worker [`pool`] (dynamic index claiming,
//! panic propagation, no allocation per region). Its hand-off is lock-free:
//! a region is published with two atomic stores, a worker that has just
//! finished a region polls for the next one for a bounded time before it
//! parks, and the mutex + condvar are only the parking path — so a region
//! that follows the previous one within [`pool::WORKER_SPIN`] costs no
//! system call and finds its second thread already there. A pool wider than
//! the CPUs it may run on never polls (see the module docs of [`pool`]).
//! Three adapter families sit on top:
//!
//! * **Eager `ParIter`** — materializes items, splits them into per-thread
//!   chunks, re-joins in input order. Source-compatible with the original
//!   shim; fine for cold paths.
//! * **Lazy [`ParRange`]** — `(0..n).into_par_iter().map(f)` evaluates `f`
//!   directly into the destination (`collect` / `collect_into_vec` / `sum`)
//!   with no intermediate materialization.
//! * **Borrowing [`chunks`]** — `par_chunks` / `par_chunks_mut` hand pool
//!   threads disjoint sub-slices with zero per-call allocation; this is what
//!   the allocation-free placement kernels build on.
//!
//! Work stealing is not implemented; indices are claimed dynamically from an
//! atomic counter, which balances the near-uniform per-item costs of the
//! placement and STA kernels within noise of rayon.
//!
//! [`with_pool`] installs a scoped per-thread pool override: every adapter
//! invoked inside the closure dispatches to the given pool instead of the
//! global one, which is how the flow's `threads` knob and the in-process
//! thread-scaling sweeps work. [`pool_stats`] reads that pool's counters.
//!
//! `unsafe` is confined to [`pool`] (the hand-off of a stack-allocated job
//! record), [`chunks`] (carving disjoint `&mut` sub-slices) and the private
//! `range_fill` (writes into spare capacity); the crate root denies it.

#![deny(unsafe_code)]

pub mod chunks;
pub mod pool;

pub use chunks::{ParChunkExt, ParallelSlice, ParallelSliceMut};
pub use pool::{current_num_threads, pool_stats, with_pool, Pool, PoolStats};

use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Mutex;

/// Minimum items per thread; below `2 * PAR_MIN` total the dispatch overhead
/// dominates and we stay sequential.
const PAR_MIN: usize = 512;

/// Splits `items` into at most `parts` contiguous chunks of near-equal size.
fn split_chunks<T>(mut items: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    let n = items.len();
    let chunk = n.div_ceil(parts.max(1)).max(1);
    let mut chunks = Vec::with_capacity(parts);
    while items.len() > chunk {
        let tail = items.split_off(chunk);
        chunks.push(std::mem::replace(&mut items, tail));
    }
    chunks.push(items);
    chunks
}

/// Applies `f` to chunks of `items` on the pool and concatenates the
/// per-chunk outputs in input order.
fn par_chunked<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(Vec<T>) -> Vec<U> + Sync,
{
    let threads = pool::current_num_threads().min(items.len() / PAR_MIN);
    if threads <= 1 {
        return f(items);
    }
    let inputs: Vec<Mutex<Option<Vec<T>>>> =
        split_chunks(items, threads).into_iter().map(|c| Mutex::new(Some(c))).collect();
    let outputs: Vec<Mutex<Vec<U>>> = (0..inputs.len()).map(|_| Mutex::new(Vec::new())).collect();
    pool::with_current(|p| {
        p.run(inputs.len(), |i| {
            let chunk = inputs[i].lock().unwrap().take().expect("chunk taken once");
            *outputs[i].lock().unwrap() = f(chunk);
        });
    });
    let mut out = Vec::new();
    for slot in outputs {
        out.extend(slot.into_inner().unwrap());
    }
    out
}

/// Runs `oper_a` and `oper_b`, potentially in parallel, and returns both
/// results (rayon's `join`): a two-index region on the current pool, so one
/// closure runs on the caller and the other on whichever thread gets to it
/// first. Inside a pool job (or on a one-thread pool) both run on the
/// caller, `oper_a` first. A panic in either closure is resumed on the
/// caller once both have finished.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    /// One side of the join: the closure until it is taken, then its result.
    type Side<F, R> = Mutex<(Option<F>, Option<R>)>;
    const HELD: &str = "the slot is never held across the closure call";
    fn run_side<F: FnOnce() -> R, R>(side: &Side<F, R>) {
        let f = side.lock().expect(HELD).0.take().expect("the pool hands out each index once");
        let r = f();
        side.lock().expect(HELD).1 = Some(r);
    }
    fn result<F, R>(side: Side<F, R>) -> R {
        side.into_inner().expect(HELD).1.expect("the region returned, so both indices ran")
    }
    let (a, b) = (Mutex::new((Some(oper_a), None)), Mutex::new((Some(oper_b), None)));
    pool::with_current(|p| p.run(2, |i| if i == 0 { run_side(&a) } else { run_side(&b) }));
    (result(a), result(b))
}

/// An eager "parallel iterator": the materialized items plus adapter methods
/// mirroring the rayon combinators the workspace calls.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Parallel element-wise transform.
    pub fn map<U, F>(self, f: F) -> ParIter<U>
    where
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        let f = &f;
        ParIter { items: par_chunked(self.items, |c| c.into_iter().map(f).collect()) }
    }

    /// Parallel predicate filter (keeps input order).
    pub fn filter<F>(self, f: F) -> ParIter<T>
    where
        F: Fn(&T) -> bool + Sync,
    {
        let f = &f;
        ParIter { items: par_chunked(self.items, |c| c.into_iter().filter(|t| f(t)).collect()) }
    }

    /// Parallel fused filter + map.
    pub fn filter_map<U, F>(self, f: F) -> ParIter<U>
    where
        U: Send,
        F: Fn(T) -> Option<U> + Sync,
    {
        let f = &f;
        ParIter { items: par_chunked(self.items, |c| c.into_iter().filter_map(f).collect()) }
    }

    /// Parallel map where each item yields a serial iterator, flattened in
    /// input order (rayon's `flat_map_iter`).
    pub fn flat_map_iter<U, I, F>(self, f: F) -> ParIter<U>
    where
        U: Send,
        I: IntoIterator<Item = U>,
        F: Fn(T) -> I + Sync,
    {
        let f = &f;
        ParIter {
            items: par_chunked(self.items, |c| c.into_iter().flat_map(&f).collect()),
        }
    }

    /// Parallel side-effecting visit.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        let f = &f;
        par_chunked(self.items, |c| {
            c.into_iter().for_each(f);
            Vec::<()>::new()
        });
    }

    /// Reduces the (already parallel-produced) items serially.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<T>,
    {
        self.items.into_iter().sum()
    }

    /// Collects the items into any `FromIterator` container.
    pub fn collect<C>(self) -> C
    where
        C: FromIterator<T>,
    {
        self.items.into_iter().collect()
    }

    /// Clears `target` and moves the items into it, reusing its allocation
    /// (rayon's `collect_into_vec`, used by the allocation-free STA sweeps).
    pub fn collect_into_vec(self, target: &mut Vec<T>) {
        target.clear();
        target.extend(self.items);
    }
}

/// A lazy parallel iterator over `0..n` (what `Range::<usize>::into_par_iter`
/// yields): no materialization until a terminal adapter runs.
pub struct ParRange {
    start: usize,
    end: usize,
}

impl ParRange {
    fn len(&self) -> usize {
        self.end - self.start
    }

    /// Lazy element-wise transform; evaluation happens in the terminal call.
    pub fn map<U, F>(self, f: F) -> ParRangeMap<U, F>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        ParRangeMap { start: self.start, end: self.end, f, _out: PhantomData }
    }

    /// Parallel side-effecting visit of every index.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let (start, n) = (self.start, self.len());
        let threads = pool::current_num_threads();
        if threads <= 1 || n < 2 * PAR_MIN {
            for i in start..start + n {
                f(i);
            }
            return;
        }
        let chunk = n.div_ceil(threads);
        pool::with_current(|p| {
            p.run(chunks::chunk_count(n, chunk), |c| {
                let lo = start + c * chunk;
                for i in lo..(lo + chunk).min(start + n) {
                    f(i);
                }
            });
        });
    }
}

/// A mapped [`ParRange`]: evaluates `f` over the index range directly into
/// the terminal destination, with no intermediate `Vec`.
pub struct ParRangeMap<U, F> {
    start: usize,
    end: usize,
    f: F,
    _out: PhantomData<fn() -> U>,
}

mod range_fill {
    //! The one unsafe corner of the lazy range adapter: parallel writes into
    //! a `Vec`'s spare capacity.
    #![allow(unsafe_code)]

    use super::*;

    struct SendPtr<U>(*mut U);
    // SAFETY: each pool index writes a disjoint sub-range of the buffer.
    unsafe impl<U> Send for SendPtr<U> {}
    unsafe impl<U> Sync for SendPtr<U> {}

    /// Clears `out` and fills it with `f(start..start+n)` in index order.
    pub(super) fn fill_into<U, F>(start: usize, n: usize, f: &F, out: &mut Vec<U>)
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        out.clear();
        let threads = pool::current_num_threads();
        if threads <= 1 || n < 2 * PAR_MIN {
            out.extend((start..start + n).map(f));
            return;
        }
        out.reserve(n);
        let base = SendPtr(out.as_mut_ptr());
        let base = &base;
        let chunk = n.div_ceil(threads);
        pool::with_current(|p| {
            p.run(chunks::chunk_count(n, chunk), |c| {
                let lo = c * chunk;
                let hi = (lo + chunk).min(n);
                for i in lo..hi {
                    // SAFETY: `i < n <= capacity`, and chunks are disjoint,
                    // so each slot is written exactly once. On panic the
                    // spare capacity stays unclaimed (len is still 0) —
                    // written elements leak, which is safe.
                    unsafe { base.0.add(i).write(f(start + i)) };
                }
            });
        });
        // SAFETY: all `n` slots were initialized above (the pool completed).
        unsafe { out.set_len(n) };
    }
}

impl<U, F> ParRangeMap<U, F>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    fn len(&self) -> usize {
        self.end - self.start
    }

    /// Clears `target` and fills it with the mapped values in index order,
    /// reusing its allocation (rayon's `collect_into_vec`).
    pub fn collect_into_vec(self, target: &mut Vec<U>) {
        range_fill::fill_into(self.start, self.len(), &self.f, target);
    }

    /// Collects the mapped values into any `FromIterator` container.
    pub fn collect<C>(self) -> C
    where
        C: FromIterator<U>,
    {
        let mut buf = Vec::new();
        range_fill::fill_into(self.start, self.len(), &self.f, &mut buf);
        buf.into_iter().collect()
    }

    /// Parallel sum: per-chunk partials folded in chunk order, so the result
    /// is deterministic for a fixed pool width.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<U> + std::iter::Sum<S> + Send,
    {
        let (start, n, f) = (self.start, self.len(), &self.f);
        let threads = pool::current_num_threads();
        if threads <= 1 || n < 2 * PAR_MIN {
            return (start..start + n).map(f).sum();
        }
        let chunk = n.div_ceil(threads);
        let parts: Vec<Mutex<Option<S>>> =
            (0..chunks::chunk_count(n, chunk)).map(|_| Mutex::new(None)).collect();
        pool::with_current(|p| {
            p.run(parts.len(), |c| {
                let lo = start + c * chunk;
                let hi = (lo + chunk).min(start + n);
                *parts[c].lock().unwrap() = Some((lo..hi).map(f).sum());
            });
        });
        parts.into_iter().map(|p| p.into_inner().unwrap().expect("chunk ran")).sum()
    }

    /// Parallel side-effecting visit of every mapped value.
    pub fn for_each<G>(self, g: G)
    where
        G: Fn(U) + Sync,
    {
        let f = self.f;
        ParRange { start: self.start, end: self.end }.for_each(|i| g(f(i)));
    }
}

/// By-value conversion into a parallel iterator (`rayon::IntoParallelIterator`).
pub trait IntoParallelIterator {
    /// Element type of the parallel iterator.
    type Item: Send;
    /// The concrete parallel iterator produced.
    type Iter;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<T>;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { start: self.start, end: self.end.max(self.start) }
    }
}

/// `par_iter` on shared slices (`rayon::IntoParallelRefIterator`).
pub trait IntoParallelRefIterator {
    /// Element type borrowed from the collection.
    type Item;
    /// Borrowing parallel iterator over `&self`.
    fn par_iter(&self) -> ParIter<&Self::Item>;
}

impl<T: Sync> IntoParallelRefIterator for [T] {
    type Item = T;
    fn par_iter(&self) -> ParIter<&T> {
        ParIter { items: self.iter().collect() }
    }
}

/// `par_iter_mut` on mutable slices (`rayon::IntoParallelRefMutIterator`).
pub trait IntoParallelRefMutIterator {
    /// Element type mutably borrowed from the collection.
    type Item;
    /// Mutably borrowing parallel iterator over `&mut self`.
    fn par_iter_mut(&mut self) -> ParIter<&mut Self::Item>;
}

impl<T: Send> IntoParallelRefMutIterator for [T] {
    type Item = T;
    fn par_iter_mut(&mut self) -> ParIter<&mut T> {
        ParIter { items: self.iter_mut().collect() }
    }
}

/// Glob-import surface, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::chunks::{ParChunkExt, ParallelSlice, ParallelSliceMut};
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParIter,
        ParRange,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn range_map_collect_preserves_order() {
        let v: Vec<usize> = (0..10_000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 10_000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn range_map_sum_matches_serial() {
        let s: f64 = (0..5000).into_par_iter().map(|i| i as f64).sum();
        assert_eq!(s, (4999.0 * 5000.0) / 2.0);
    }

    #[test]
    fn slice_par_iter_and_sum() {
        let data: Vec<f64> = (0..5000).map(|i| i as f64).collect();
        let s: f64 = data.par_iter().map(|&x| x).sum();
        assert_eq!(s, (4999.0 * 5000.0) / 2.0);
    }

    #[test]
    fn par_iter_mut_for_each_mutates() {
        let mut data: Vec<u64> = vec![1; 3000];
        data.par_iter_mut().for_each(|x| *x += 1);
        assert!(data.iter().all(|&x| x == 2));
    }

    #[test]
    fn filter_and_flat_map_iter() {
        let items: Vec<usize> = (0..1000).collect();
        let v: Vec<usize> = items
            .into_par_iter()
            .filter(|&i| i % 2 == 0)
            .flat_map_iter(|i| [i, i])
            .collect();
        assert_eq!(v.len(), 1000);
        assert_eq!(v[0..4], [0, 0, 2, 2]);
    }

    #[test]
    fn collect_into_vec_reuses_buffer() {
        let mut buf: Vec<usize> = Vec::with_capacity(64);
        (0..50usize).into_par_iter().map(|i| i + 1).collect_into_vec(&mut buf);
        assert_eq!(buf.len(), 50);
        assert_eq!(buf[49], 50);
        // Large enough to take the parallel fill path on multi-core hosts.
        (0..20_000usize).into_par_iter().map(|i| i * 3).collect_into_vec(&mut buf);
        assert_eq!(buf.len(), 20_000);
        assert!(buf.iter().enumerate().all(|(i, &x)| x == i * 3));
    }

    #[test]
    fn with_pool_scopes_adapter_width() {
        let pool = crate::Pool::new(2);
        crate::with_pool(&pool, || {
            assert_eq!(crate::current_num_threads(), 2);
            let v: Vec<usize> = (0..10_000).into_par_iter().map(|i| i + 1).collect();
            assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1));
            let s: usize = (0..10_000).into_par_iter().map(|i| i).sum();
            assert_eq!(s, 9999 * 10_000 / 2);
        });
    }

    #[test]
    fn nested_par_iter_inside_pool_job_completes() {
        // A parallel region launched from inside another parallel region
        // must run inline rather than deadlock on the busy pool.
        let outer: Vec<usize> = (0..8).collect();
        let totals: Vec<usize> = outer
            .into_par_iter()
            .map(|_| (0..4000).into_par_iter().map(|i| i).sum::<usize>())
            .collect();
        assert!(totals.iter().all(|&t| t == 3999 * 4000 / 2));
    }

    #[test]
    fn join_runs_both_closures_exactly_once_and_returns_both_results() {
        use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
        let (runs_a, runs_b) = (AtomicU32::new(0), AtomicU32::new(0));
        // Width 2 hands the second closure to the worker, width 1 runs both
        // on the caller: same results either way.
        for width in [1, 2, 4] {
            let pool = crate::Pool::new(width);
            crate::with_pool(&pool, || {
                for round in 0..2_000u64 {
                    let mut owned = vec![round; 3];
                    let (a, b) = crate::join(
                        || {
                            runs_a.fetch_add(1, Relaxed);
                            owned.push(1); // FnOnce + &mut capture, as the route region's steps
                            owned.len()
                        },
                        || {
                            runs_b.fetch_add(1, Relaxed);
                            round * 2
                        },
                    );
                    assert_eq!((a, b), (4, round * 2));
                }
            });
            let stats = pool.stats();
            assert_eq!(stats.dispatches + stats.inline_regions, 2_000);
            assert_eq!(stats.dispatches, if width == 1 { 0 } else { 2_000 });
        }
        assert_eq!((runs_a.load(Relaxed), runs_b.load(Relaxed)), (6_000, 6_000));
    }

    #[test]
    fn join_nested_inside_a_region_runs_inline() {
        let pool = crate::Pool::new(2);
        let mut sums = vec![0usize; 64];
        crate::with_pool(&pool, || {
            sums.par_chunks_mut(1).enumerate().for_each(|(i, out)| {
                // On a worker the pool is busy; on the submitter the thread's
                // override still points at it and its slot is taken. Either
                // way the join runs on the thread that called it.
                let caller = std::thread::current().id();
                let (a, b) = crate::with_pool(&pool, || {
                    crate::join(
                        || (std::thread::current().id(), i),
                        || (std::thread::current().id(), i * i),
                    )
                });
                assert_eq!((a.0, b.0), (caller, caller));
                out[0] = a.1 + b.1;
            });
        });
        assert!(sums.iter().enumerate().all(|(i, &s)| s == i + i * i));
        let stats = pool.stats();
        assert_eq!((stats.dispatches, stats.inline_regions), (1, 64));
    }

    #[test]
    fn join_propagates_a_panic_from_either_side() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
        let pool = crate::Pool::new(2);
        crate::with_pool(&pool, || {
            for side in 0..2 {
                let other_ran = AtomicBool::new(false);
                let work = |me: usize| {
                    if me == side {
                        panic!("side {me}");
                    }
                    other_ran.store(true, SeqCst);
                };
                let caught = catch_unwind(AssertUnwindSafe(|| crate::join(|| work(0), || work(1))));
                let payload = caught.expect_err("the panic must reach the caller");
                assert_eq!(payload.downcast_ref::<String>(), Some(&format!("side {side}")));
                assert!(other_ran.load(SeqCst), "the other side still runs");
            }
            // The pool is usable afterwards.
            assert_eq!(crate::join(|| 1, || 2), (1, 2));
        });
    }
}
