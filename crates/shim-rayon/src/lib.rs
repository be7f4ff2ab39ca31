//! Offline stand-in for the subset of the [`rayon`](https://docs.rs/rayon)
//! API this workspace uses: borrowing `par_chunks` / `par_chunks_mut` (plus
//! this shim's `par_chunks_mut_at`) composed with `enumerate` / `zip` /
//! `for_each`, and [`join`] for a region of two different tasks.
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
//!
//! One adapter family sits on top: the borrowing [`chunks`], which hand pool
//! threads disjoint sub-slices with zero per-call allocation. A chunk's size
//! is fixed by the caller, never by the pool width, so a kernel that writes
//! one partial per chunk and folds the partials in chunk order gets the same
//! bits at every width.
//!
//! Indices are claimed dynamically from an atomic counter, which balances
//! the near-uniform per-item costs of the placement and STA kernels within
//! noise of rayon. The one form of stealing is a [`join`]'s: a thread done
//! with its side takes chunks of the regions the other side starts.
//!
//! [`with_pool`] installs a scoped per-thread pool override: every region
//! started inside the closure dispatches to the given pool instead of the
//! global one, which is how the flow's `threads` knob and the in-process
//! thread-scaling sweeps work. [`pool_stats`] reads that pool's counters.
//!
//! `unsafe` is confined to [`pool`] (the hand-off of a stack-allocated job
//! record) and [`chunks`] (carving disjoint `&mut` sub-slices); the crate
//! root denies it.

#![deny(unsafe_code)]

pub mod chunks;
pub mod pool;

pub use chunks::{ParChunkExt, ParallelSlice, ParallelSliceMut};
pub use pool::{current_num_threads, pool_stats, with_pool, Pool, PoolStats};

use std::sync::Mutex;

/// Runs `oper_a` and `oper_b`, potentially in parallel, and returns both
/// results (rayon's `join`): `oper_a` on the caller, `oper_b` on another
/// thread of the current pool if one comes, and the one done first helps
/// with the other's regions (see [`pool`]). Inside a pool job, or on a
/// one-thread pool, both run on the caller, `oper_a` first. A panic in
/// either closure is resumed on the caller once both have finished.
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
    pool::with_current(|p| p.join_dyn([&|| run_side(&a), &|| run_side(&b)]));
    (result(a), result(b))
}

/// Glob-import surface, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::chunks::{ParChunkExt, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn with_pool_scopes_adapter_width() {
        let pool = crate::Pool::new(2);
        let mut v = vec![0usize; 10_000];
        crate::with_pool(&pool, || {
            assert_eq!(crate::current_num_threads(), 2);
            v.par_chunks_mut(1024).enumerate().for_each(|(ci, c)| {
                for (j, x) in c.iter_mut().enumerate() {
                    *x = ci * 1024 + j + 1;
                }
            });
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1));
        assert_eq!(pool.stats().dispatches, 1, "the region ran on the override pool");
    }

    #[test]
    fn nested_par_iter_inside_pool_job_completes() {
        // A parallel region launched from inside another parallel region
        // must run inline rather than deadlock on the busy pool.
        let mut totals = [0usize; 8];
        totals.par_chunks_mut(1).for_each(|t| {
            let mut partials = [0usize; 8];
            partials.par_chunks_mut(1).enumerate().for_each(|(ci, p)| {
                p[0] = (ci * 500..(ci + 1) * 500).sum();
            });
            t[0] = partials.iter().sum();
        });
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
