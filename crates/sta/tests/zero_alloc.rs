//! Steady-state timing calls perform no heap allocation.
//!
//! One test only: the counter is process-wide, and the harness runs the
//! tests of a file on parallel threads.

use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_netlist::{CellId, Point};
use dtp_rsmt::{build_forest, ForestScratch};
use dtp_sta::{AnalysisScratch, PathScratch, PathSet, PositionGradients, Timer};
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

#[test]
fn steady_state_timing_cycles_do_not_allocate() {
    // Large enough that levels and net chunks are dispatched to the pool.
    let mut design = generate(&GeneratorConfig::named("zero_alloc", 6000)).expect("generator");
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib).expect("timer builds");
    let mut forest = build_forest(&design.netlist);
    let mut fscratch = ForestScratch::new();
    let movable: Vec<CellId> = design.netlist.movable_cells().collect();
    let moved: Vec<CellId> = movable.iter().copied().step_by(97).collect();
    let dirty: Vec<_> = {
        let nl = &design.netlist;
        let mut nets = Vec::new();
        for &c in &moved {
            for &p in nl.cell(c).pins() {
                if let Some(n) = nl.pin(p).net() {
                    if forest.tree(n).is_some() && !nets.contains(&n) {
                        nets.push(n);
                    }
                }
            }
        }
        nets
    };

    let pool = rayon::Pool::new(2);
    rayon::with_pool(&pool, || {
        let mut scratch = AnalysisScratch::new();
        scratch.presize(design.netlist.num_pins(), design.netlist.num_nets());
        let mut grads = PositionGradients::default();
        let (mut pscratch, mut paths) = (PathScratch::new(), PathSet::new());
        let mut prev = timer.analyze_into(&design.netlist, &forest, &mut scratch);
        let mut dx = 1.5;
        let mut cycle = |design: &mut dtp_netlist::Design, prev: &mut dtp_sta::Analysis| {
            let smoothed = timer.analyze_smoothed_into(&design.netlist, &forest, &mut scratch);
            timer.gradients_into(
                &design.netlist,
                &smoothed,
                &forest,
                0.04,
                0.0004,
                &mut scratch,
                &mut grads,
            );
            scratch.recycle(smoothed);
            let exact = timer.analyze_into(&design.netlist, &forest, &mut scratch);
            timer.extract_paths_into(&design.netlist, &exact, 32, 0.9, &mut pscratch, &mut paths);
            scratch.recycle(exact);
            for &c in &moved {
                let pos = design.netlist.cell(c).pos();
                design.netlist.set_cell_pos(c, Point::new(pos.x + dx, pos.y));
            }
            dx = -dx;
            forest.update_nets_into(&design.netlist, &dirty, &mut fscratch);
            let next = timer.analyze_incremental_into(
                &design.netlist,
                &forest,
                prev,
                &moved,
                true,
                &mut scratch,
            );
            scratch.recycle(std::mem::replace(prev, next));
        };
        // Warm-up: node- and arc-sized buffers are sized on first use.
        for _ in 0..2 {
            cycle(&mut design, &mut prev);
        }
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..4 {
            cycle(&mut design, &mut prev);
        }
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(allocs, 0, "steady-state timing cycles allocated {allocs} times");
        assert!(grads.objective.is_finite() && prev.wns().is_finite());
        assert_eq!(paths.num_paths(), 32);
    });
}
