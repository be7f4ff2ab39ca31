//! A join on a `Pool::new` pool keeps everything it starts on that pool: a
//! region one of its arms starts is published for the join's other thread
//! to help with, counts in that pool's `helped_regions` (the chunks a helper
//! runs, in its `stolen_chunks`), and never starts the global pool.
//!
//! Its own test binary, so that no other test can have started the global
//! pool before this one looks.

use shim_rayon::prelude::*;
use shim_rayon::{current_num_threads, join, with_pool, Pool};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Barrier;
use std::time::{Duration, Instant};

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
    // Helpers poll only on a pool that may spin: one within the host's CPUs.
    let helps = std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2);
    // Both arms wait for each other, so they run on two different threads:
    // one on the submitter, one on the pool's worker.
    let meet = Barrier::new(2);
    let (started, stolen) = (AtomicBool::new(false), AtomicBool::new(false));
    // Waits up to ten seconds for `flag`, where a helper can set it.
    let wait_for = |flag: &AtomicBool| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while helps && !flag.load(SeqCst) && Instant::now() < deadline {
            std::thread::yield_now();
        }
    };
    let arm = |first: bool| {
        meet.wait();
        let me = std::thread::current().id();
        let mut v = vec![0u32; 4 * 1024];
        // Four chunks: a real region, not a single-task one. The first arm's
        // own chunks hold on until the other arm's thread, done with its
        // arm, has taken one of them; that arm returns once the first arm's
        // region is out, so its thread finds it when it starts to poll.
        v.par_chunks_mut(1024).enumerate().for_each(|(i, c)| {
            c.fill(i as u32);
            if std::thread::current().id() != me {
                stolen.store(true, SeqCst);
            } else if first {
                started.store(true, SeqCst);
                wait_for(&stolen);
            }
        });
        if !first {
            wait_for(&started);
        }
        assert!(v.chunks(1024).enumerate().all(|(i, c)| c.iter().all(|&x| x == i as u32)));
        (me, current_num_threads())
    };
    let ((ta, wa), (tb, wb)) = with_pool(&pool, || join(|| arm(true), || arm(false)));
    assert_ne!(ta, tb, "the arms met at the barrier, so they ran on two threads");
    assert_eq!((wa, wb), (2, 2), "a nested call sees the width of the pool it runs on");
    let stats = pool.stats();
    // The join went to the worker. Each arm's region went to the arm's own
    // slot, and the thread done first helped with the other arm's.
    assert_eq!(stats.dispatches, 1);
    if helps {
        assert_eq!((stats.helped_regions, stats.inline_regions), (2, 0));
        assert!((1..=8).contains(&stats.stolen_chunks), "{} chunks stolen", stats.stolen_chunks);
    } else {
        assert_eq!((stats.helped_regions, stats.inline_regions, stats.stolen_chunks), (0, 2, 0));
    }
    if let (Some(before), Some(after)) = (before, os_threads()) {
        assert_eq!(after, before + 1, "only the pool's one worker was spawned");
    }
}
