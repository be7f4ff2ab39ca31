//! The per-iteration placement kernels allocate nothing in steady state:
//! WA gradient, density evaluation and the Nesterov step, under a 2-thread
//! pool, across a footprint change (`set_inflation`) included.
//!
//! One test only: the counter is process-wide, and the harness runs the
//! tests of a file on parallel threads.

use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_place::{
    DensityModel, DensityResult, DensityScratch, NesterovOptimizer, WirelengthModel,
    WirelengthScratch,
};
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
fn placement_iterations_do_not_allocate() {
    const BINS: usize = 64;
    let pool = rayon::Pool::new(2);
    rayon::with_pool(&pool, || {
        // Two cell chunks and several net chunks, so every sweep that can
        // fan out is dispatched to the pool.
        let d = generate(&GeneratorConfig::named("zero_alloc", 6000)).expect("generator");
        let n = d.netlist.num_cells();
        let wl = WirelengthModel::new(&d.netlist);
        assert!(n > 4096 && wl.num_nets() > 2048);
        let mut density = DensityModel::with_options(&d, BINS, BINS, 1.0, true);
        let bin_w = d.region.width() / BINS as f64;
        let mut opt = NesterovOptimizer::new(&d, bin_w);
        let precond = vec![1.0; n];
        // Every other cell grows by half: footprints, charges and the stamp
        // arena's worst case are all recomputed.
        let factors: Vec<f64> = (0..n).map(|c| if c % 2 == 0 { 1.5 } else { 1.0 }).collect();

        let mut wscratch = WirelengthScratch::new();
        let mut dscratch = DensityScratch::new();
        let mut dres = DensityResult::default();
        let (mut gx, mut gy) = (Vec::new(), Vec::new());
        let (mut vx, mut vy) = (vec![0.0; n], vec![0.0; n]);
        let mut iterate = |density: &DensityModel, opt: &mut NesterovOptimizer| {
            let (px, py) = opt.positions();
            vx.copy_from_slice(px);
            vy.copy_from_slice(py);
            wl.wa_gradient_into(&vx, &vy, bin_w, None, &mut wscratch, &mut gx, &mut gy);
            density.evaluate_into(&vx, &vy, &mut dscratch, &mut dres);
            for ((g, h), (dx, dy)) in
                gx.iter_mut().zip(gy.iter_mut()).zip(dres.grad_x.iter().zip(&dres.grad_y))
            {
                *g += 1e-3 * dx;
                *h += 1e-3 * dy;
            }
            opt.step(&gx, &gy, &precond);
        };

        for _ in 0..2 {
            iterate(&density, &mut opt);
        }
        let before = ALLOCS.load(Ordering::Relaxed);
        for iter in 0..4 {
            if iter == 2 {
                density.set_inflation(&factors);
            }
            iterate(&density, &mut opt);
        }
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(allocs, 0, "4 steady-state iterations allocated {allocs} times");
        assert_eq!(dscratch.transforms(), 6 * 3, "three 2-D transforms per evaluation");
    });
}
