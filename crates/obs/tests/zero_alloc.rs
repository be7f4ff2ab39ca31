//! An observed iteration allocates nothing: spans, counters and the two
//! JSONL records `iter_end` writes all go to storage sized when the observer
//! was built.
//!
//! One test only: the counter is process-wide, and the harness runs the
//! tests of a file on parallel threads.

use dtp_obs::{Counter, Observer, Phase, SpanStart, TraceIter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: forwards every call unchanged to the system allocator; the counter
// is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(p, l, n) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One iteration of the placement loop as the observer sees it: six phases,
/// two counters and the end-of-iteration record.
fn observed_iteration(obs: &mut Observer, iter: u64) {
    obs.iter_begin();
    obs.add(Counter::Iterations, 1);
    for phase in [
        Phase::WirelengthGrad,
        Phase::DensityGrad,
        Phase::SteinerUpdate,
        Phase::StaForward,
        Phase::StaBackward,
        Phase::NesterovStep,
    ] {
        let s = SpanStart::now();
        black_box(phase);
        obs.stop(phase, s);
    }
    obs.add(Counter::GeoDirtyNets, 37);
    obs.add(Counter::StaFull, 1);
    obs.iter_end(&mut TraceIter {
        iter,
        wl: 1234.5,
        hpwl: f64::NAN,
        overflow: 0.42,
        lambda: 1e-4,
        step: 5.0,
        wns: f64::NAN,
        tns: f64::NAN,
        timing: false,
        counters: [0; Counter::COUNT],
    });
}

#[test]
fn an_observed_iteration_with_a_trace_writer_does_not_allocate() {
    let mut obs = Observer::new();
    obs.set_trace_writer(Box::new(std::io::sink()));
    for iter in 0..3 {
        observed_iteration(&mut obs, iter);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for iter in 3..1003 {
        observed_iteration(&mut obs, iter);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(allocs, 0, "1000 observed iterations allocated {allocs} times");
    assert_eq!(obs.registry().get(Counter::Iterations), 1003);
}
