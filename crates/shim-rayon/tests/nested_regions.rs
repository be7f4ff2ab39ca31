//! A region nested inside a job that runs on a worker of a `Pool::new` pool
//! stays on that pool: it runs inline, counts in that pool's
//! `inline_regions`, and never starts the global pool.
//!
//! Its own test binary, so that no other test can have started the global
//! pool before this one looks.

use shim_rayon::prelude::*;
use shim_rayon::{current_num_threads, join, with_pool, Pool};
use std::sync::Barrier;

/// Threads of this process (Linux: one `/proc/self/task` entry each).
fn os_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

#[test]
fn a_region_nested_in_a_worker_side_join_arm_stays_on_the_pool_it_serves() {
    // A global pool, if anything starts it, is three wide: distinguishable
    // from the two-wide pool below by width and by its two extra threads.
    std::env::set_var("RAYON_NUM_THREADS", "3");
    let before = os_threads();
    let pool = Pool::new(2);
    // Both arms wait for each other, so they run on two different threads:
    // one on the submitter, one on the pool's worker.
    let meet = Barrier::new(2);
    let arm = || {
        meet.wait();
        let mut v = vec![0u32; 4 * 1024];
        // Four chunks: a real region, not a single-task one.
        v.par_chunks_mut(1024).enumerate().for_each(|(i, c)| c.fill(i as u32));
        assert!(v.chunks(1024).enumerate().all(|(i, c)| c.iter().all(|&x| x == i as u32)));
        (std::thread::current().id(), current_num_threads())
    };
    let ((ta, wa), (tb, wb)) = with_pool(&pool, || join(arm, arm));
    assert_ne!(ta, tb, "the arms met at the barrier, so they ran on two threads");
    assert_eq!((wa, wb), (2, 2), "a nested call sees the width of the pool it runs on");
    let stats = pool.stats();
    // The join dispatched; each arm's region ran inline — the submitter's
    // because the pool's slot was taken, the worker's because it is a worker.
    assert_eq!((stats.dispatches, stats.inline_regions), (1, 2));
    if let (Some(before), Some(after)) = (before, os_threads()) {
        assert_eq!(after, before + 1, "only the pool's one worker was spawned");
    }
}
