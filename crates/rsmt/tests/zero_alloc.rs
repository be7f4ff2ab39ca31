//! Forest maintenance allocates nothing in steady state, and a forest build
//! allocates a number of times that does not depend on the net count.
//!
//! One test only: the counter is process-wide, and the harness runs the
//! tests of a file on parallel threads.

use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_netlist::{CellId, Design, NetId, Point};
use dtp_rsmt::{build_forest_with, ForestScratch, SteinerForest, TableConfig};
use std::alloc::{GlobalAlloc, Layout, System};
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

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Moves every movable cell to its home position plus one of four offsets.
fn drift(design: &mut Design, movable: &[CellId], home: &[Point], state: usize) {
    for (k, (&c, &p)) in movable.iter().zip(home).enumerate() {
        let s = ((k + state) % 4) as f64;
        design
            .netlist
            .set_cell_pos(c, p + Point::new(6.0 * s - 9.0, 7.5 - 5.0 * s));
    }
}

fn tree_nets(design: &Design, forest: &SteinerForest) -> Vec<NetId> {
    design
        .netlist
        .net_ids()
        .filter(|&n| forest.tree(n).is_some())
        .collect()
}

#[test]
fn sweeps_do_not_allocate_and_builds_allocate_o1() {
    let cfg = TableConfig::default();
    let pool = rayon::Pool::new(2);
    rayon::with_pool(&pool, || {
        // Large enough that both sweeps are dispatched to the pool.
        let mut design = generate(&GeneratorConfig::named("zero_alloc", 6000)).expect("generator");
        let movable: Vec<CellId> = design.netlist.movable_cells().collect();
        let home: Vec<Point> = movable
            .iter()
            .map(|&c| design.netlist.cell(c).pos())
            .collect();
        let mut forest = build_forest_with(&design.netlist, cfg);
        let nets = tree_nets(&design, &forest);
        assert!(nets.len() > 4096);
        let mut scratch = ForestScratch::new();
        // Warm-up: one pass over the drift cycle generates every topology
        // class the cycle visits (lanes are sized by the first sweep).
        for state in 0..4 {
            drift(&mut design, &movable, &home, state);
            forest.rebuild_nets_into(&design.netlist, &nets, &mut scratch);
        }
        let allocs = allocs_during(|| {
            for state in 0..8 {
                drift(&mut design, &movable, &home, state % 4);
                forest.update_nets_into(&design.netlist, &nets, &mut scratch);
                forest.rebuild_nets_into(&design.netlist, &nets, &mut scratch);
            }
        });
        assert_eq!(
            allocs, 0,
            "steady-state sweeps over all nets allocated {allocs} times"
        );

        // Builds: the classes exist now, so what is left is the arena and
        // the per-worker lanes — the same count at 4× the nets.
        let small = generate(&GeneratorConfig::named("zero_alloc_s", 1500)).expect("generator");
        drop(build_forest_with(&small.netlist, cfg));
        let per_build = |d: &Design| {
            let mut forest = None;
            let n = allocs_during(|| forest = Some(build_forest_with(&d.netlist, cfg)));
            (n, tree_nets(d, forest.as_ref().expect("built")).len())
        };
        let ((a_small, n_small), (a_big, n_big)) = (per_build(&small), per_build(&design));
        assert!(n_big > 3 * n_small);
        assert!(a_small <= 64, "a forest build allocated {a_small} times");
        assert_eq!(a_big, a_small, "build allocations grew with the net count");
    });
}
