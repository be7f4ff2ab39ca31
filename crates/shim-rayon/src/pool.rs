//! Persistent worker pool: the engine behind every parallel adapter in this
//! crate.
//!
//! The original shim spawned OS threads per call via `std::thread::scope`,
//! which costs tens of microseconds per parallel region (≈ 110 µs for four
//! lanes in `BENCH_density.json`) — far too much for the per-iteration
//! placement kernels. Measured on the 2-vCPU benchmark host (EXPERIMENTS,
//! PR 15): a whole 64² density evaluation at 3k cells is ≈ 0.3 ms, of which
//! the three 2-D transforms are ≈ 0.13 ms — ≈ 20 µs per 64-row sweep —
//! while a round trip through this pool is ≈ 1 µs when the worker is
//! spinning up anyway and several times that when it has to be woken. This
//! pool spawns `threads - 1` workers once, lazily, on
//! first use and dispatches *indexed jobs* to them through a single
//! condvar-protected slot:
//!
//! * A job is `(f, total)` where `f: Fn(usize) + Sync` is called once for
//!   every index in `0..total`. Indices are claimed dynamically with an
//!   atomic counter, so uneven chunks still balance.
//! * The job record lives **on the submitting thread's stack**; workers get
//!   a raw pointer. The submitter publishes the record under the slot mutex,
//!   participates in the work itself, and then blocks until `done == total`
//!   *and* every registered worker has deregistered (`refs == 0`) before the
//!   record is invalidated. No heap allocation happens per region — this is
//!   what makes `evaluate_into` & friends steady-state allocation-free even
//!   when they run parallel.
//! * Worker panics are caught, carried back to the submitter, and resumed
//!   there (rayon's behaviour). The pool survives and remains usable.
//! * One region runs at a time per pool (`region` flag); a nested parallel
//!   call from inside a job — from the submitter *or* a worker — executes
//!   inline on the calling thread, so nesting can never deadlock.
//!
//! `Pool::new(threads)` exists mainly for tests; production code uses the
//! lazily-initialized [`global`] pool sized by `RAYON_NUM_THREADS` or the
//! machine's available parallelism.

#![allow(unsafe_code)]

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Process-wide count of parallel regions actually dispatched to workers
/// (inline-executed regions are not counted). Observability reads this to
/// report how much work went through the pool.
static DISPATCHES: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of non-empty parallel regions that ran inline on the
/// calling thread — the complement of [`DISPATCHES`]. A statistic only: it
/// publishes no other data, hence relaxed.
static INLINE_REGIONS: AtomicU64 = AtomicU64::new(0);

/// Total parallel regions dispatched to pool workers since process start.
///
/// One relaxed load; safe to poll from hot paths. Regions that ran inline
/// (trivial size, nested calls, single-thread pools) are excluded — see
/// [`inline_count`].
pub fn dispatch_count() -> u64 {
    DISPATCHES.load(Ordering::Relaxed)
}

/// Total non-empty parallel regions that ran inline on the calling thread
/// since process start: single-task regions, regions nested inside a job,
/// and every region of a one-thread pool. Together with
/// [`dispatch_count`] this says how much of a run's chunked work was worth
/// a hand-off.
pub fn inline_count() -> u64 {
    INLINE_REGIONS.load(Ordering::Relaxed)
}

thread_local! {
    /// True on pool worker threads: parallel calls made from inside a job
    /// run inline instead of re-entering the (busy) pool.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };

    /// Innermost [`with_pool`] override for this thread; null when unset.
    static OVERRIDE: Cell<*const Pool> = const { Cell::new(std::ptr::null()) };
}

/// Runs `f` with `pool` as the dispatch target for every parallel adapter
/// invoked on this thread: `par_chunks_mut`, `into_par_iter`, and friends
/// all route to `pool` instead of the [`global`] pool for the duration.
///
/// Overrides nest (the innermost wins) and are restored on exit, including
/// when `f` panics. The override is per-thread: jobs running *on* the
/// override pool's workers see no override, but nested parallel calls from
/// those workers run inline anyway (the worker flag), so composition with
/// the kernels' nested regions is unchanged.
///
/// This is what lets the pool-width goldens sweep thread counts in-process
/// and what `FlowConfig::threads` hangs off: width-invariant kernels produce
/// bit-identical results under any override width.
pub fn with_pool<R>(pool: &Pool, f: impl FnOnce() -> R) -> R {
    struct Restore(*const Pool);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|o| o.replace(pool));
    let _restore = Restore(prev);
    f()
}

/// Calls `f` with the pool this thread currently dispatches to: the
/// innermost [`with_pool`] override, else the global pool.
pub(crate) fn with_current<R>(f: impl FnOnce(&Pool) -> R) -> R {
    let ptr = OVERRIDE.with(Cell::get);
    if ptr.is_null() {
        f(global())
    } else {
        // SAFETY: `with_pool` borrows the pool across the whole closure call
        // and restores the previous override before that borrow ends, so a
        // non-null pointer always refers to a live pool.
        f(unsafe { &*ptr })
    }
}

/// Type-erased pointer to the submitter's `&dyn Fn(usize)` (stack-borrowed;
/// validity is guaranteed by the `refs`/`done` completion protocol).
#[derive(Clone, Copy)]
struct ErasedFn(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` and outlives all worker access (see `run`).
unsafe impl Send for ErasedFn {}
unsafe impl Sync for ErasedFn {}

/// One parallel region, allocated on the submitting thread's stack.
struct JobRecord {
    func: ErasedFn,
    total: usize,
    /// Next unclaimed index.
    next: AtomicUsize,
    /// Indices fully executed.
    done: AtomicUsize,
    /// Workers currently holding a pointer to this record.
    refs: AtomicUsize,
    /// First caught panic payload, resumed on the submitter.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl JobRecord {
    /// Claims and runs indices until none remain; returns after contributing.
    fn execute(&self) {
        // SAFETY: `func` points at the submitter's closure, which stays alive
        // until `refs == 0 && done == total` (checked before `run` returns).
        let f = unsafe { &*self.func.0 };
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                let mut slot = self.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            self.done.fetch_add(1, Ordering::SeqCst);
        }
    }
}

#[derive(Clone, Copy)]
struct JobPtr(*const JobRecord);
// SAFETY: see `ErasedFn` — the record outlives all worker access.
unsafe impl Send for JobPtr {}

struct Slot {
    /// Bumped once per published job so sleeping workers can tell "new job"
    /// from a spurious wakeup.
    seq: u64,
    job: Option<JobPtr>,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Workers wait here for a new `seq`.
    work: Condvar,
    /// The submitter waits here for completion.
    done: Condvar,
}

/// A persistent thread pool executing indexed jobs (see module docs).
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Guards the single job slot: only one top-level region at a time.
    region: AtomicBool,
}

impl Pool {
    /// Creates a pool that runs jobs on `threads` threads total: the
    /// submitting thread plus `threads - 1` persistent workers.
    /// `threads <= 1` yields a pool that always runs inline.
    pub fn new(threads: usize) -> Pool {
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot { seq: 0, job: None, shutdown: false }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Pool { shared, handles, region: AtomicBool::new(false) }
    }

    /// Total threads participating in a job (workers + the submitter).
    pub fn num_threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Calls `f(i)` for every `i in 0..total`, distributing indices across
    /// the pool. Blocks until all indices completed. If a call panics, the
    /// first panic is resumed on the caller after the region finishes.
    pub fn run<F: Fn(usize) + Sync>(&self, total: usize, f: F) {
        self.run_dyn(total, &f);
    }

    /// Monomorphization-free form of [`Pool::run`].
    pub fn run_dyn(&self, total: usize, f: &(dyn Fn(usize) + Sync)) {
        if total == 0 {
            return;
        }
        // Inline paths: trivial job, no workers, nested call from a worker,
        // or the slot is already busy (nested call from a submitter).
        if total == 1
            || self.handles.is_empty()
            || IN_WORKER.with(Cell::get)
            || self
                .region
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
        {
            INLINE_REGIONS.fetch_add(1, Ordering::Relaxed);
            for i in 0..total {
                f(i);
            }
            return;
        }

        // SAFETY: the `'static` is a lie confined to this function: workers
        // only dereference the pointer between job publication and the
        // `refs == 0 && done == total` barrier below, and `f` outlives that
        // window because we don't return before it.
        let func = ErasedFn(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        });
        let record = JobRecord {
            func,
            total,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            refs: AtomicUsize::new(0),
            panic: Mutex::new(None),
        };

        DISPATCHES.fetch_add(1, Ordering::Relaxed);
        {
            let mut slot = self.shared.slot.lock().unwrap();
            slot.seq += 1;
            slot.job = Some(JobPtr(&record));
            self.shared.work.notify_all();
        }

        // The submitter is a full participant.
        record.execute();

        // Wait until every index ran AND no worker still holds the record.
        let mut slot = self.shared.slot.lock().unwrap();
        while record.done.load(Ordering::SeqCst) < total
            || record.refs.load(Ordering::SeqCst) > 0
        {
            slot = self.shared.done.wait(slot).unwrap();
        }
        slot.job = None;
        drop(slot);
        self.region.store(false, Ordering::SeqCst);

        let payload = record.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().unwrap();
            slot.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    IN_WORKER.with(|w| w.set(true));
    let mut last_seq = 0u64;
    loop {
        let job = {
            let mut slot = shared.slot.lock().unwrap();
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.seq != last_seq {
                    last_seq = slot.seq;
                    if let Some(ptr) = slot.job {
                        // Register interest while holding the lock so the
                        // submitter cannot invalidate the record first.
                        // SAFETY: `job` is `Some` ⇒ the record is live.
                        unsafe { &*ptr.0 }.refs.fetch_add(1, Ordering::SeqCst);
                        break ptr;
                    }
                }
                slot = shared.work.wait(slot).unwrap();
            }
        };
        // SAFETY: `refs` was incremented under the slot lock above, so the
        // submitter is still blocked in its completion wait.
        let record = unsafe { &*job.0 };
        record.execute();
        record.refs.fetch_sub(1, Ordering::SeqCst);
        // Notify under the lock so the submitter can't check the condition
        // and sleep between our decrement and the notify (lost wakeup).
        let _slot = shared.slot.lock().unwrap();
        shared.done.notify_all();
    }
}

/// The lazily-initialized global pool used by all `par_*` adapters.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| Pool::new(default_threads()))
}

/// Pool width: `RAYON_NUM_THREADS` when set and positive, else the machine's
/// available parallelism.
fn default_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Number of threads the current pool runs jobs on (rayon's
/// `current_num_threads`): the innermost [`with_pool`] override when one is
/// installed on this thread, else the global pool — deterministic for the
/// life of the process outside overrides.
pub fn current_num_threads() -> usize {
    with_current(Pool::num_threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_index_exactly_once() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.run(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_is_reusable_across_many_regions() {
        let pool = Pool::new(3);
        let total = AtomicU64::new(0);
        for _ in 0..200 {
            pool.run(64, |i| {
                total.fetch_add(i as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 200 * (63 * 64 / 2));
    }

    #[test]
    fn worker_panic_propagates_to_caller_and_pool_survives() {
        let pool = Pool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(100, |i| {
                if i == 37 {
                    panic!("boom at {i}");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("boom at 37"));
        // The pool must remain functional after a panicked region.
        let count = AtomicU64::new(0);
        pool.run(50, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn nested_run_on_same_pool_does_not_deadlock() {
        let pool = Pool::new(4);
        let count = AtomicU64::new(0);
        pool.run(8, |_| {
            // Nested region: runs inline on whichever thread executes it.
            pool.run(16, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 8 * 16);
    }

    #[test]
    fn dispatch_counter_tracks_pooled_regions() {
        // The counter is process-global and other tests run concurrently,
        // so only lower-bound deltas are assertable: our own 100 pooled
        // regions must each have counted.
        let pool = Pool::new(4);
        let before = dispatch_count();
        for _ in 0..100 {
            pool.run(64, |_| {});
        }
        assert!(dispatch_count() >= before + 100, "pooled regions not counted");
    }

    #[test]
    fn inline_counter_tracks_regions_that_skip_the_pool() {
        // Process-global like the dispatch counter: lower bounds only.
        let wide = Pool::new(4);
        let narrow = Pool::new(1);
        let before = inline_count();
        for _ in 0..50 {
            wide.run(1, |_| {}); // single task
            narrow.run(64, |_| {}); // no workers
            wide.run(0, |_| {}); // empty: not a region at all
        }
        assert!(inline_count() >= before + 100, "inline regions not counted");
    }

    #[test]
    fn with_pool_overrides_and_restores() {
        let narrow = Pool::new(1);
        let wide = Pool::new(4);
        let outside = current_num_threads();
        with_pool(&wide, || {
            assert_eq!(current_num_threads(), 4);
            // Nested overrides shadow, innermost wins.
            with_pool(&narrow, || assert_eq!(current_num_threads(), 1));
            assert_eq!(current_num_threads(), 4);
        });
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn with_pool_restores_after_panic() {
        let pool = Pool::new(2);
        let outside = current_num_threads();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            with_pool(&pool, || panic!("inside override"));
        }));
        assert!(result.is_err());
        assert_eq!(current_num_threads(), outside, "override must unwind-restore");
    }

    #[test]
    fn with_pool_routes_adapter_dispatch() {
        // A region dispatched under an override must run on that pool, not
        // the global one: observable via the worker-thread inline rule.
        let pool = Pool::new(4);
        let hits = AtomicU64::new(0);
        with_pool(&pool, || {
            with_current(|p| {
                p.run(256, |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 256);
    }

    #[test]
    fn zero_and_single_index_jobs() {
        let pool = Pool::new(2);
        pool.run(0, |_| panic!("must not be called"));
        let count = AtomicU64::new(0);
        pool.run(1, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }
}
