//! Persistent worker pool: the engine behind every parallel adapter in this
//! crate.
//!
//! A pool spawns `threads - 1` workers once and hands them *indexed jobs*:
//!
//! * A job is `(f, total)` where `f: Fn(usize) + Sync` is called once for
//!   every index in `0..total`. Indices are claimed dynamically with an
//!   atomic counter, so uneven chunks still balance.
//! * The job record lives **on the submitting thread's stack**; no heap
//!   allocation happens per region — this is what makes `evaluate_into` &
//!   friends steady-state allocation-free even when they run parallel.
//! * Worker panics are caught, carried back to the submitter, and resumed
//!   there (rayon's behaviour). The pool survives and remains usable.
//! * A region is published in a *slot* — the pool's, which the workers
//!   watch, or a [`join`](crate::join) side's (below) — or, nested in a job
//!   or finding its slot taken, runs inline: nesting can never deadlock.
//!
//! # The hand-off
//!
//! The placement loop's regions are 50–500 µs long and come in bursts a few
//! microseconds apart. A worker parked on a condvar (a halted vCPU on the
//! benchmark host) arrives 0.1–1 ms after it is signalled — after the
//! submitter has taken every index — so the hand-off keeps the kernel out
//! of a burst altogether. One protocol serves every slot:
//!
//! * **Publish** — the submitter stores the record's address in the slot's
//!   `job` and bumps its `seq`; on the pool's slot it then reads `parked`.
//!   Only when a worker is actually parked does it take the mutex and signal
//!   `work`; otherwise the region costs two atomic stores and no system
//!   call (a *hot* hand-off).
//! * **Take part** — a thread that sees a new `seq` registers on the slot's
//!   `active` count **before** it loads `job`, runs indices until none are
//!   left, and deregisters.
//! * **Retire** — the submitter runs index 0 and claims indices too; when
//!   none are left it stores null in `job`, then waits for `done == total
//!   && active == 0`. Either a thread registered before the null store —
//!   then the submitter waits for it — or it registers later and loads null
//!   (or a later, equally protected record). Every operation of this
//!   handshake is `SeqCst`, so the two cases are exhaustive: this is what
//!   makes handing out a stack address sound.
//! * **Spin, then park** — a worker that finished a region polls `seq`
//!   (`spin_loop`; past 100 µs it also calls `yield_now`) for
//!   [`WORKER_SPIN`] before it parks, and the submitter polls the completion
//!   condition for [`SUBMIT_SPIN`] before *it* parks. Both parking paths
//!   announce themselves (the pool's `parked`, the slot's `parked`) before
//!   they re-check their condition under the mutex, and the other side
//!   updates the condition before it reads the announcement; all `SeqCst`,
//!   so one of the two always sees the other and no wake-up is lost.
//!
//! **Joins.** A join is a region of [`Pool::num_threads`] indices. Index 0,
//! always the caller's, runs the first side and another index the second
//! (either runs both if nobody else came); a side publishes its regions in
//! its own slot on the join's stack frame. Then, until both sides are done
//! or panicked, an index polls the two slots and takes part in what they
//! publish: the thread done first helps the other side, and at widths above
//! 2 the spare indices help both. Which thread runs a chunk changes, its
//! output does not. A helper gives up after [`WORKER_SPIN`] without news and
//! never yields: polling and yielding by turns kept both sides on one CPU.
//!
//! **The width guard.** Spinning only pays when the spinner has a CPU of its
//! own. A pool wider than [`std::thread::available_parallelism`] (which
//! honours the affinity mask and the cgroup quota) never spins: workers and
//! submitter park at once, because a spinner there burns the time slice the
//! thread it is waiting for needs (`taskset -c 0 dtp place … --threads 2` is
//! 1.3× slower unguarded); nor does a join there poll for help.
//!
//! `Pool::new(threads)` exists for tests and `FlowConfig::threads`; other
//! code uses the lazily-initialized [`global`] pool sized by
//! `RAYON_NUM_THREADS` or the machine's available parallelism.

#![allow(unsafe_code)]

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::LocalKey;
use std::time::{Duration, Instant};

/// How long a worker polls for the next region before it parks. From the
/// time workers waited between regions on the four benchmark workloads
/// (EXPERIMENTS, PR 24): 90.7 % of the waits on `nw_20k` and 99.4–99.7 % on
/// the other three end within this bound, and what is left is a serial
/// phase of 2–10 ms (forest sync, RAT sweep, legalization) that only a spin
/// several times as long — a second CPU's worth of polling — would bridge.
pub const WORKER_SPIN: Duration = Duration::from_micros(1500);

/// How long a submitter polls for the last index before it parks: 99.5 % of
/// its waits on the four workloads (99.9 % on three) end within this bound,
/// four in five within 5 µs; a longer one is a worker that lost its CPU
/// mid-task, which polling does not bring back.
pub const SUBMIT_SPIN: Duration = Duration::from_micros(1000);

/// A wait shorter than this is polled with `spin_loop` alone (most are: 56–84 %
/// of the waits between regions end within 100 µs); a longer one also calls
/// `yield_now` between rounds of polls, so that a thread competing for this
/// CPU gets it.
const YIELD_AFTER: Duration = Duration::from_micros(100);

/// `spin_loop` polls per reading of the clock (a round is ≈ 2–5 µs).
const POLLS_PER_CLOCK_READ: u32 = 64;

/// Counters of one pool since its creation. Statistics only: they publish
/// no other data, hence relaxed.
#[derive(Default)]
struct Counters {
    dispatches: AtomicU64,
    inline_regions: AtomicU64,
    helped_regions: AtomicU64,
    stolen_chunks: AtomicU64,
    wakes: AtomicU64,
    spin_ns: AtomicU64,
}

/// A snapshot of a pool's counters (see [`pool_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Regions handed to the workers (a join among them).
    pub dispatches: u64,
    /// Non-empty regions that ran inline on the calling thread: single-task
    /// ones, ones nested in a job or whose slot was taken, those of a join
    /// side on a pool that may not spin, all of a one-thread pool.
    pub inline_regions: u64,
    /// Regions a join side published for the join's other threads to help.
    pub helped_regions: u64,
    /// Indices of those regions that a helping thread ran.
    pub stolen_chunks: u64,
    /// Dispatched regions that found a worker parked and had to signal it;
    /// the others were hot hand-offs.
    pub wakes: u64,
    /// Nanoseconds threads spent polling (CPU time that did no work).
    pub spin_ns: u64,
}

impl PoolStats {
    /// The counts accumulated since `entry` was taken from the same pool.
    pub fn since(self, entry: PoolStats) -> PoolStats {
        PoolStats {
            dispatches: self.dispatches - entry.dispatches,
            inline_regions: self.inline_regions - entry.inline_regions,
            helped_regions: self.helped_regions - entry.helped_regions,
            stolen_chunks: self.stolen_chunks - entry.stolen_chunks,
            wakes: self.wakes - entry.wakes,
            spin_ns: self.spin_ns - entry.spin_ns,
        }
    }

    /// Dispatched regions that took no mutex and no system call.
    pub fn hot_handoffs(self) -> u64 {
        // Saturating: a snapshot taken from another thread mid-publish may
        // see the two relaxed counters in either order.
        self.dispatches.saturating_sub(self.wakes)
    }
}

/// Counters of the pool this thread currently dispatches to (the innermost
/// [`with_pool`] override, else the global pool). A flow that wants its own
/// traffic takes one snapshot on entry and reports [`PoolStats::since`] it.
pub fn pool_stats() -> PoolStats {
    with_current(Pool::stats)
}

thread_local! {
    /// True on pool worker threads: a region a worker starts outside a join
    /// side runs inline instead of re-entering the (busy) pool.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };

    /// Innermost [`with_pool`] override for this thread; null when unset.
    static OVERRIDE: Cell<*const Pool> = const { Cell::new(ptr::null()) };

    /// The pool and slot of the join side this thread runs, else nulls: a
    /// region the side starts on that pool is published in that slot.
    static SIDE: Cell<(*const Pool, *const Slot)> = const { Cell::new((ptr::null(), ptr::null())) };
}

/// Runs `f` with the thread-local `key` set to `value`, and restores the
/// previous value on exit, including when `f` panics.
fn scoped<T: Copy, R>(key: &'static LocalKey<Cell<T>>, value: T, f: impl FnOnce() -> R) -> R {
    struct Restore<T: Copy + 'static>(&'static LocalKey<Cell<T>>, T);
    impl<T: Copy + 'static> Drop for Restore<T> {
        fn drop(&mut self) {
            self.0.with(|c| c.set(self.1));
        }
    }
    let _restore = Restore(key, key.with(|c| c.replace(value)));
    f()
}

/// Runs `f` with `pool` as the dispatch target for every parallel adapter
/// invoked on this thread: `par_chunks_mut`, `join`, and friends all route
/// to `pool` instead of the [`global`] pool for the duration.
///
/// Overrides nest (the innermost wins) and are restored on exit, including
/// when `f` panics. The override is per-thread; a thread runs every index
/// of another thread's region with the region's pool as its override, so a
/// parallel call nested inside resolves to that pool (its width, its
/// counters) — it never reaches, or starts, the global pool.
///
/// This is what lets the pool-width goldens sweep thread counts in-process
/// and what `FlowConfig::threads` hangs off: width-invariant kernels produce
/// bit-identical results under any override width.
pub fn with_pool<R>(pool: &Pool, f: impl FnOnce() -> R) -> R {
    scoped(&OVERRIDE, ptr::from_ref(pool), f)
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
/// validity is guaranteed by the retire protocol of `Pool::publish`).
#[derive(Clone, Copy)]
struct ErasedFn(*const (dyn Fn(usize) + Sync));
// SAFETY: the only field points at a `Sync` closure, so sharing the pointer
// between threads shares a `&(dyn Fn + Sync)`; the pointee outlives every
// other thread's access because `publish` does not return before
// `active == 0` with `job` retired.
unsafe impl Send for ErasedFn {}
// SAFETY: as above — the pointer is only ever read.
unsafe impl Sync for ErasedFn {}

/// One parallel region, allocated on the submitting thread's stack.
struct JobRecord {
    func: ErasedFn,
    /// The pool the region runs on: a thread that takes part runs it with
    /// this pool as its override, so a region nested inside resolves to it.
    pool: *const Pool,
    total: usize,
    /// Next unclaimed index.
    next: AtomicUsize,
    /// Indices fully executed.
    done: AtomicUsize,
    /// First caught panic payload, resumed on the submitter.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl JobRecord {
    /// Runs `first` (the submitter's index 0), if given, then claims and runs
    /// indices until none remain; returns how many it ran.
    fn execute(&self, mut first: Option<usize>) -> u64 {
        // SAFETY: `func` points at the submitter's closure. The submitter
        // holds it for the whole of `publish`, and another thread only gets
        // here between registering on `active` and deregistering, which
        // `publish` waits out before it returns.
        let f = unsafe { &*self.func.0 };
        let mut ran = 0;
        loop {
            // Relaxed: the read-modify-write alone makes every index unique;
            // what the index's work publishes travels through `done`.
            let i = first.take().unwrap_or_else(|| self.next.fetch_add(1, Relaxed));
            if i >= self.total {
                return ran;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                let mut slot = self.panic.lock().expect("no code panics holding the panic slot");
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            self.done.fetch_add(1, SeqCst);
            ran += 1;
        }
    }
}

/// Where a region is published: the pool's own slot or a join side's. The
/// lock-free hand-off (module docs); every field is only touched `SeqCst`.
#[derive(Default)]
struct Slot {
    /// Taken by the one region that may be published here at a time.
    busy: AtomicBool,
    /// Bumped once per published region (and by a shutdown, on the pool's).
    seq: AtomicU64,
    /// The published record; null between regions.
    job: AtomicPtr<JobRecord>,
    /// Threads between registering and deregistering: the only ones that
    /// may hold a pointer loaded from `job`.
    active: AtomicUsize,
    /// The submitter is parked on `Shared::done`, or committed to parking.
    parked: AtomicBool,
}

/// What the pool's threads share. The mutex and the two condvars are the
/// parking path and guard no data.
struct Shared {
    /// The pool's own slot: regions started outside any region.
    slot: Slot,
    /// Workers parked on `work`, or committed to parking.
    parked: AtomicUsize,
    shutdown: AtomicBool,
    /// Whether this pool's threads each have a CPU (the width guard).
    spin: bool,
    lock: Mutex<()>,
    /// Parked workers wait here for a new `seq` of the pool's slot.
    work: Condvar,
    /// Parked submitters wait here for their region to complete.
    done: Condvar,
    counters: Counters,
}

/// Polls `ready` until it yields a value or `bound` has passed. The clock is
/// read once per [`POLLS_PER_CLOCK_READ`] polls; past `yield_after` each
/// such round also yields the CPU. The time spent goes to `spin_ns`.
fn spin_for<T>(
    bound: Duration,
    yield_after: Duration,
    spin_ns: &AtomicU64,
    mut ready: impl FnMut() -> Option<T>,
) -> Option<T> {
    let start = Instant::now();
    let found = 'wait: loop {
        for _ in 0..POLLS_PER_CLOCK_READ {
            if let Some(v) = ready() {
                break 'wait Some(v);
            }
            std::hint::spin_loop();
        }
        let waited = start.elapsed();
        if waited >= bound {
            break None;
        }
        if waited >= yield_after {
            std::thread::yield_now();
        }
    };
    spin_ns.fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
    found
}

/// What a waiting worker is told.
enum Next {
    /// A job newer than the one the worker last joined was published.
    Job(u64),
    Shutdown,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, ()> {
        self.lock.lock().expect("the pool mutex guards no data and no code panics holding it")
    }

    /// `Some` once there is something for a worker that last joined job
    /// `seen` to do. `seq` is the one thing a waiting worker watches: a
    /// shutdown bumps it too.
    fn poll(&self, seen: u64) -> Option<Next> {
        let seq = self.slot.seq.load(SeqCst);
        if seq == seen {
            None
        } else if self.shutdown.load(SeqCst) {
            Some(Next::Shutdown)
        } else {
            Some(Next::Job(seq))
        }
    }

    /// Blocks a worker until a job newer than `seen` is published or the
    /// pool shuts down: polls for [`WORKER_SPIN`] when the pool may spin,
    /// then parks.
    fn next_job(&self, seen: u64) -> Next {
        if self.spin {
            let spin_ns = &self.counters.spin_ns;
            if let Some(next) = spin_for(WORKER_SPIN, YIELD_AFTER, spin_ns, || self.poll(seen)) {
                return next;
            }
        }
        let mut guard = self.lock();
        // Announce, then re-check: a submitter that bumped `seq` before this
        // increment is seen by the poll below; one that bumps it after reads
        // `parked > 0` and signals, and cannot do so before the wait has
        // released the mutex.
        self.parked.fetch_add(1, SeqCst);
        let next = loop {
            if let Some(next) = self.poll(seen) {
                break next;
            }
            guard = self.work.wait(guard).expect("the pool mutex is never poisoned");
        };
        self.parked.fetch_sub(1, SeqCst);
        next
    }

    /// Signals `work` if a worker is parked (or about to be); returns whether
    /// it had to. Called after the bump of `seq` the parked worker waits for.
    fn wake_parked_workers(&self) -> bool {
        let any = self.parked.load(SeqCst) > 0;
        if any {
            let _guard = self.lock();
            self.work.notify_all();
        }
        any
    }

    /// Takes part in the region published in `slot`, if any; returns how
    /// many indices this thread ran.
    fn take_part(&self, slot: &Slot) -> u64 {
        // Register, then load: the submitter retires `job` and then reads
        // `active`, so it either waits for this thread or this thread loads
        // null (or the record of a later region, protected the same way).
        slot.active.fetch_add(1, SeqCst);
        let job = slot.job.load(SeqCst);
        let ran = if job.is_null() {
            0
        } else {
            // SAFETY: non-null and loaded while registered ⇒ its submitter
            // is still inside `publish`, waiting for `active == 0`, and holds
            // the pool it runs on borrowed until then.
            let (job, pool) = unsafe { (&*job, &*(*job).pool) };
            // A region nested in the job runs inline, on the job's pool.
            scoped(&SIDE, (ptr::null(), ptr::null()), || with_pool(pool, || job.execute(None)))
        };
        slot.active.fetch_sub(1, SeqCst);
        if slot.parked.load(SeqCst) {
            // Under the mutex, so the signal cannot fall between the
            // submitter's check and its wait.
            let _guard = self.lock();
            self.done.notify_all();
        }
        ran
    }
}

/// A join in flight, on its caller's stack frame.
struct Join<'a> {
    sides: [&'a (dyn Fn() + Sync); 2],
    slots: [Slot; 2],
    /// Which sides a thread has taken.
    taken: [AtomicBool; 2],
    /// Sides that have returned or panicked.
    finished: AtomicUsize,
}

impl Join<'_> {
    /// One index of the join's region (module docs, "Joins").
    fn take_part(&self, pool: &Pool, index: usize) {
        // Index 0, the caller's, starts with the first side, any other index
        // with the second; either then takes the other side if it is free.
        for i in if index == 0 { [0, 1] } else { [1, 0] } {
            if self.taken[i].swap(true, SeqCst) {
                continue;
            }
            let me = (ptr::from_ref(pool), ptr::from_ref(&self.slots[i]));
            let ran = catch_unwind(AssertUnwindSafe(|| scoped(&SIDE, me, self.sides[i])));
            // A panicked side is finished too; the record resumes its panic.
            self.finished.fetch_add(1, SeqCst);
            ran.unwrap_or_else(|payload| resume_unwind(payload));
        }
        let shared = &*pool.shared;
        if !shared.spin {
            return;
        }
        // Poll for a region newer than the last one seen in either slot.
        let mut seen = [0u64; 2];
        let mut news = || {
            if self.finished.load(SeqCst) == 2 {
                return Some(None);
            }
            let i = (0..2).find(|&i| self.slots[i].seq.load(SeqCst) != seen[i])?;
            seen[i] = self.slots[i].seq.load(SeqCst);
            Some(Some(&self.slots[i]))
        };
        let spin_ns = &shared.counters.spin_ns;
        while let Some(slot) = spin_for(WORKER_SPIN, Duration::MAX, spin_ns, &mut news).flatten() {
            shared.counters.stolen_chunks.fetch_add(shared.take_part(slot), Relaxed);
        }
    }
}

/// A persistent thread pool executing indexed jobs (see module docs).
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Creates a pool that runs jobs on `threads` threads total: the
    /// submitting thread plus `threads - 1` persistent workers.
    /// `threads <= 1` yields a pool that always runs inline. If the system
    /// refuses a thread, the pool runs with the workers it got
    /// ([`Pool::num_threads`] tells how many).
    pub fn new(threads: usize) -> Pool {
        let shared = Arc::new(Shared {
            slot: Slot::default(),
            parked: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            spin: threads <= host_threads(),
            lock: Mutex::new(()),
            work: Condvar::new(),
            done: Condvar::new(),
            counters: Counters::default(),
        });
        let mut handles = Vec::new();
        for i in 1..threads.max(1) {
            let worker = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("pool-worker-{i}"))
                .spawn(move || worker_loop(&worker));
            match spawned {
                Ok(handle) => handles.push(handle),
                // Out of threads (or memory for a stack): a narrower pool
                // computes the same bits.
                Err(_) => break,
            }
        }
        Pool { shared, handles }
    }

    /// Total threads participating in a job (workers + the submitter).
    pub fn num_threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// This pool's counters since its creation.
    pub fn stats(&self) -> PoolStats {
        let c = &self.shared.counters;
        PoolStats {
            dispatches: c.dispatches.load(Relaxed),
            inline_regions: c.inline_regions.load(Relaxed),
            helped_regions: c.helped_regions.load(Relaxed),
            stolen_chunks: c.stolen_chunks.load(Relaxed),
            wakes: c.wakes.load(Relaxed),
            spin_ns: c.spin_ns.load(Relaxed),
        }
    }

    /// Calls `f(i)` for every `i in 0..total`, distributing indices across
    /// the pool. Blocks until all indices completed. If a call panics, the
    /// first panic is resumed on the caller after the region finishes.
    pub fn run<F: Fn(usize) + Sync>(&self, total: usize, f: F) {
        self.run_dyn(total, &f);
    }

    /// Monomorphization-free form of [`Pool::run`].
    pub fn run_dyn(&self, total: usize, f: &(dyn Fn(usize) + Sync)) {
        if total > 0 {
            self.region(total, f, || (0..total).for_each(f));
        }
    }

    /// Runs both sides ([`crate::join`]) as a region (module docs, "Joins"),
    /// or both on the caller, the first one first, where it would be inline.
    pub(crate) fn join_dyn(&self, sides: [&(dyn Fn() + Sync); 2]) {
        let (slots, taken, finished) = Default::default();
        let join = Join { sides, slots, taken, finished };
        let inline = || sides.iter().for_each(|side| side());
        self.region(self.num_threads(), &|i| join.take_part(self, i), inline);
    }

    /// Publishes a region of `total` indices that runs `f` in the slot this
    /// thread may use — its join side's if the pool may spin, else the
    /// pool's outside a job — or, where it may use none, calls `inline`.
    fn region(&self, total: usize, f: &(dyn Fn(usize) + Sync), inline: impl FnOnce()) {
        let (pool, side) = SIDE.with(Cell::get);
        let slot = if total == 1 || self.handles.is_empty() {
            None
        } else if ptr::eq(pool, self) {
            // SAFETY: `SIDE` names this pool only while this thread runs a side
            // of its join, whose frame holds the slot and outlives the call.
            self.shared.spin.then(|| unsafe { &*side })
        } else {
            (!IN_WORKER.with(Cell::get)).then_some(&self.shared.slot)
        };
        match slot.filter(|s| s.busy.compare_exchange(false, true, SeqCst, SeqCst).is_ok()) {
            Some(slot) => self.publish(slot, total, f),
            None => {
                self.shared.counters.inline_regions.fetch_add(1, Relaxed);
                inline();
            }
        }
    }

    /// Publishes the region in `slot` (taken for it), runs indices of it
    /// until none are left, retires it and waits for every thread that took
    /// part; then frees the slot and resumes the first panic.
    fn publish(&self, slot: &Slot, total: usize, f: &(dyn Fn(usize) + Sync)) {
        let shared = &*self.shared;
        // SAFETY: the `'static` is a lie confined to this function: other
        // threads only dereference the pointer while registered on `active`,
        // and the wait below does not end before `active == 0` with `job`
        // retired, so `f` outlives every such window.
        let func = ErasedFn(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        });
        let record = JobRecord {
            func,
            pool: self,
            total,
            next: AtomicUsize::new(1),
            done: AtomicUsize::new(0),
            panic: Mutex::new(None),
        };

        // Publish: the record first, then the sequence number that sends
        // watchers looking for it.
        let counters = &shared.counters;
        let pool_slot = ptr::eq(slot, &shared.slot);
        let kind = if pool_slot { &counters.dispatches } else { &counters.helped_regions };
        kind.fetch_add(1, Relaxed);
        slot.job.store(ptr::from_ref(&record).cast_mut(), SeqCst);
        slot.seq.fetch_add(1, SeqCst);
        if pool_slot && shared.wake_parked_workers() {
            counters.wakes.fetch_add(1, Relaxed);
        }

        // The submitter is a full participant, and index 0 is its own: a
        // join's first side runs on the caller, as rayon's does.
        record.execute(Some(0));

        // Retire: every index is claimed, so a thread arriving from here on
        // has nothing to do and must not find the record. One that loaded
        // the pointer registered on `active` first, and the wait covers it.
        slot.job.store(ptr::null_mut(), SeqCst);
        let complete =
            || (record.done.load(SeqCst) == total && slot.active.load(SeqCst) == 0).then_some(());
        let spin_ns = &counters.spin_ns;
        let polled = shared.spin && spin_for(SUBMIT_SPIN, YIELD_AFTER, spin_ns, complete).is_some();
        if !(polled || complete().is_some()) {
            // Announce, then re-check under the mutex: a thread deregisters
            // before it reads the announcement, so either the check below
            // sees it gone or it sees the announcement and signals — after
            // the wait has released the mutex.
            slot.parked.store(true, SeqCst);
            let mut guard = shared.lock();
            while complete().is_none() {
                guard = shared.done.wait(guard).expect("the pool mutex is never poisoned");
            }
            drop(guard);
            slot.parked.store(false, SeqCst);
        }
        slot.busy.store(false, SeqCst);

        let payload = record.panic.lock().expect("no code panics holding the panic slot").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, SeqCst);
        self.shared.slot.seq.fetch_add(1, SeqCst);
        self.shared.wake_parked_workers();
        for h in self.handles.drain(..) {
            // A worker catches every panic of the jobs it runs; ignore the
            // impossible rest rather than panic in a destructor.
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    IN_WORKER.with(|w| w.set(true));
    let mut seen = 0u64;
    loop {
        match shared.next_job(seen) {
            Next::Shutdown => return,
            Next::Job(seq) => seen = seq,
        }
        shared.take_part(&shared.slot);
    }
}

/// CPUs this process may run on (affinity mask and cgroup quota honoured).
fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
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
    host_threads()
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
    use std::sync::atomic::AtomicU32;
    use std::sync::Barrier;

    #[test]
    fn runs_every_index_exactly_once() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.run(hits.len(), |i| {
            hits[i].fetch_add(1, Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Relaxed) == 1));
    }

    /// The protocol under churn: back-to-back regions of every small size,
    /// empty and single-index ones included, on a pool that hands off hot
    /// (width 2) and on one that parks between regions (wider than the host).
    #[test]
    fn a_hundred_thousand_random_regions_run_every_index_exactly_once() {
        let hits: Vec<AtomicU32> = (0..300).map(|_| AtomicU32::new(0)).collect();
        for (width, regions) in [(2, 100_000), ((host_threads() + 1).max(3), 5_000)] {
            let pool = Pool::new(width);
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            for region in 0..regions {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let total = (state >> 33) as usize % 301;
                pool.run(total, |i| {
                    hits[i].fetch_add(1, Relaxed);
                });
                for (i, h) in hits.iter().enumerate() {
                    let expect = u32::from(i < total);
                    let ran = h.swap(0, Relaxed);
                    assert_eq!(ran, expect, "width {width} region {region} index {i}");
                }
            }
            let stats = pool.stats();
            assert_eq!(stats.hot_handoffs() + stats.wakes, stats.dispatches);
            assert!(stats.dispatches + stats.inline_regions <= regions as u64);
        }
    }

    /// Joins under churn: each side runs a region of 0, 1 or many indices
    /// or a join of two such regions, on a pool whose threads help (width 2)
    /// and on one that may not spin (wider than the host).
    #[test]
    fn ten_thousand_random_joins_run_every_index_of_their_sides_exactly_once() {
        const Q: usize = 64;
        let hits: Vec<AtomicU32> = (0..4 * Q).map(|_| AtomicU32::new(0)).collect();
        for width in [2, (host_threads() + 1).max(3)] {
            let pool = Pool::new(width);
            let mut state = 0x2545_f491_4f6c_dd1du64;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            for round in 0..10_000 {
                // Quarter `q` of `hits` belongs to one region of `sizes[q]`
                // indices; side `s` runs quarter `s`, and quarter `s + 2` too
                // beside it in a nested join when `nested[s]`.
                let sizes: [usize; 4] = std::array::from_fn(|_| match next() % 4 {
                    0 => 0,
                    1 => 1,
                    _ => 2 + next() % (Q - 1),
                });
                let nested = [next() % 2 == 1, next() % 2 == 1];
                let region = |q: usize| {
                    with_current(|p| p.run(sizes[q], |i| _ = hits[q * Q + i].fetch_add(1, Relaxed)))
                };
                let side = |s: usize| {
                    if nested[s] {
                        crate::join(|| region(s), || region(s + 2));
                    } else {
                        region(s);
                    }
                };
                with_pool(&pool, || crate::join(|| side(0), || side(1)));
                for (k, h) in hits.iter().enumerate() {
                    let q = k / Q;
                    let ran = q < 2 || nested[q - 2];
                    let expect = u32::from(ran && k % Q < sizes[q]);
                    assert_eq!(h.swap(0, Relaxed), expect, "width {width} join {round} index {k}");
                }
            }
            let stats = pool.stats();
            assert_eq!(stats.dispatches, 10_000, "width {width}");
            if pool.shared.spin {
                assert!(stats.helped_regions > 0, "width {width}: no side region was published");
            } else {
                assert_eq!((stats.helped_regions, stats.stolen_chunks), (0, 0), "width {width}");
            }
        }
    }

    /// The helped chunk of a side's region panics on the helper — the thread
    /// of the other side, done with it. The join returns, the panic reaches
    /// the caller, and the pool serves the next join and region as usual.
    #[test]
    fn a_side_that_panics_while_the_other_side_helps_it_reaches_the_caller() {
        let pool = Pool::new(2);
        // On a one-CPU host no pool may spin, so no side is ever helped.
        if !pool.shared.spin {
            return;
        }
        // Waits up to ten seconds for `flag`.
        let wait_for = |flag: &AtomicBool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !flag.load(SeqCst) && Instant::now() < deadline {
                std::thread::yield_now();
            }
        };
        for _ in 0..50 {
            let (started, helped) = (AtomicBool::new(false), AtomicBool::new(false));
            // The side's own thread holds its first chunk until the helper
            // has taken the second; the other side returns once the region
            // is out, so its thread finds it when it starts to poll.
            let side = || {
                let me = std::thread::current().id();
                with_current(|p| {
                    p.run(2, |_| {
                        if std::thread::current().id() != me {
                            helped.store(true, SeqCst);
                            panic!("helped chunk");
                        }
                        started.store(true, SeqCst);
                        wait_for(&helped);
                    });
                });
            };
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                with_pool(&pool, || crate::join(side, || wait_for(&started)))
            }));
            let payload = caught.expect_err("the panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"helped chunk"));
        }
        assert!(pool.stats().stolen_chunks >= 50);
        assert_eq!(with_pool(&pool, || crate::join(|| 1, || 2)), (1, 2));
        let count = AtomicU64::new(0);
        pool.run(50, |_| _ = count.fetch_add(1, Relaxed));
        assert_eq!(count.load(Relaxed), 50);
    }

    #[test]
    fn pool_is_reusable_across_many_regions() {
        let pool = Pool::new(3);
        let total = AtomicU64::new(0);
        for _ in 0..200 {
            pool.run(64, |i| {
                total.fetch_add(i as u64, Relaxed);
            });
        }
        assert_eq!(total.load(Relaxed), 200 * (63 * 64 / 2));
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
            count.fetch_add(1, Relaxed);
        });
        assert_eq!(count.load(Relaxed), 50);
    }

    /// The panic is raised on the worker, after the submitter has run out of
    /// indices, retired the record and started waiting for the worker: the
    /// barrier puts the two indices on two threads, and the worker holds its
    /// panic back until it sees `job` retired.
    #[test]
    fn worker_panic_while_the_submitter_waits_is_carried_to_it() {
        let pool = Pool::new(2);
        let both = Barrier::new(2);
        for _ in 0..50 {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(2, |_| {
                    both.wait();
                    if IN_WORKER.with(Cell::get) {
                        while !pool.shared.slot.job.load(SeqCst).is_null() {
                            std::thread::yield_now();
                        }
                        panic!("worker side");
                    }
                });
            }));
            let payload = result.expect_err("panic must propagate");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker side"));
            let active = pool.shared.slot.active.load(SeqCst);
            assert_eq!(active, 0, "the region ended with a worker in it");
        }
        let count = AtomicU64::new(0);
        pool.run(50, |_| {
            count.fetch_add(1, Relaxed);
        });
        assert_eq!(count.load(Relaxed), 50);
    }

    /// A worker that has just finished a region is polling `seq`; a drop at
    /// that moment must reach it there, not after it has spun out its bound
    /// and parked.
    #[test]
    fn dropping_a_pool_whose_worker_is_spinning_returns_promptly() {
        let both = Barrier::new(2);
        let mut fastest = Duration::MAX;
        for _ in 0..50 {
            let pool = Pool::new(2);
            // Both threads take part, so the worker is out of its first park.
            pool.run(2, |_| {
                both.wait();
            });
            let start = Instant::now();
            drop(pool);
            fastest = fastest.min(start.elapsed());
        }
        assert!(fastest < WORKER_SPIN, "fastest of 50 drops took {fastest:?}");
    }

    /// The width guard: a pool wider than the host never polls — its workers
    /// and its submitter park at once — and still completes every region.
    #[test]
    fn a_pool_wider_than_the_host_parks_instead_of_spinning() {
        let pool = Pool::new((host_threads() + 1).max(8));
        assert!(!pool.shared.spin);
        let count = AtomicU64::new(0);
        for _ in 0..500 {
            pool.run(64, |_| {
                count.fetch_add(1, Relaxed);
            });
        }
        assert_eq!(count.load(Relaxed), 500 * 64);
        let stats = pool.stats();
        assert_eq!(stats.dispatches, 500);
        assert_eq!(stats.spin_ns, 0, "a pool wider than the host must not spin");
        // A pool within the host does (one worker, so this holds on any host
        // with two CPUs; a one-CPU host has no pool that may spin).
        assert_eq!(Pool::new(2).shared.spin, host_threads() >= 2);
    }

    #[test]
    fn nested_run_on_same_pool_does_not_deadlock() {
        let pool = Pool::new(4);
        let count = AtomicU64::new(0);
        pool.run(8, |_| {
            // Nested region: runs inline on whichever thread executes it.
            pool.run(16, |_| {
                count.fetch_add(1, Relaxed);
            });
        });
        assert_eq!(count.load(Relaxed), 8 * 16);
        assert_eq!(pool.stats().dispatches, 1);
        assert_eq!(pool.stats().inline_regions, 8);
    }

    #[test]
    fn dispatch_counter_tracks_pooled_regions() {
        // Counters are per pool, so they are exact whatever other tests run.
        let pool = Pool::new(4);
        assert_eq!(pool.stats(), PoolStats::default());
        for _ in 0..100 {
            pool.run(64, |_| {});
        }
        let entry = pool.stats();
        assert_eq!((entry.dispatches, entry.inline_regions), (100, 0));
        assert_eq!(entry.hot_handoffs() + entry.wakes, 100);
        pool.run(64, |_| {});
        assert_eq!(pool.stats().since(entry).dispatches, 1);
        // `pool_stats` reads the pool the calling thread dispatches to.
        with_pool(&pool, || assert_eq!(pool_stats(), pool.stats()));
    }

    #[test]
    fn inline_counter_tracks_regions_that_skip_the_pool() {
        let wide = Pool::new(4);
        let narrow = Pool::new(1);
        for _ in 0..50 {
            wide.run(1, |_| {}); // single task
            narrow.run(64, |_| {}); // no workers
            wide.run(0, |_| {}); // empty: not a region at all
        }
        assert_eq!((wide.stats().inline_regions, wide.stats().dispatches), (50, 0));
        assert_eq!((narrow.stats().inline_regions, narrow.stats().dispatches), (50, 0));
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
                    hits.fetch_add(1, Relaxed);
                });
            });
        });
        assert_eq!(hits.load(Relaxed), 256);
    }

    #[test]
    fn zero_and_single_index_jobs() {
        let pool = Pool::new(2);
        pool.run(0, |_| panic!("must not be called"));
        let count = AtomicU64::new(0);
        pool.run(1, |_| {
            count.fetch_add(1, Relaxed);
        });
        assert_eq!(count.load(Relaxed), 1);
    }
}
