//! Hand-timed STA hot-path benchmark emitting `BENCH_sta.json`.
//!
//! Times with `std::time::Instant` and writes the JSON by hand. It measures the
//! three per-iteration timing costs of the placement loop — full analysis,
//! incremental analysis at several moved-cell fractions, and the backward
//! gradient sweep — all through the scratch-buffer (`*_into`) entry points
//! the flow actually uses, and reports the incremental-vs-full speedup and the
//! heap allocations per steady-state analysis (counting global allocator;
//! `bench_baseline` compares it exactly, and it must be 0).
//!
//! Usage: `cargo run --release -p dtp-bench --bin bench_sta [-- num_cells]`
//! (default 4000; output lands in the current directory).

use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_netlist::{CellId, Point};
use dtp_rsmt::build_forest;
use dtp_sta::{AnalysisScratch, Timer};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

mod alloc_counter {
    //! Counting wrapper around the system allocator: `allocs()` reads the
    //! total number of `alloc`/`realloc` calls process-wide.
    #![allow(unsafe_code)]

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub struct Counting;

    // SAFETY: defers to `System` for every operation; only adds a counter.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, l: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(l)
        }
        unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
            System.dealloc(p, l)
        }
        unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(p, l, n)
        }
    }

    #[global_allocator]
    static COUNTER: Counting = Counting;

    pub fn allocs() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

/// Times `f` with a warmup and enough repetitions to fill ~0.5 s, returning
/// mean nanoseconds per call.
fn time_ns(mut f: impl FnMut()) -> f64 {
    for _ in 0..2 {
        f();
    }
    let probe = Instant::now();
    f();
    let once = probe.elapsed().as_secs_f64();
    let reps = ((0.5 / once.max(1e-6)) as usize).clamp(5, 200);
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e9 / reps as f64
}

fn main() {
    let cells: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4000);
    let mut design = generate(&GeneratorConfig::named("bench_sta", cells)).unwrap();
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib).unwrap();
    let mut forest = build_forest(&design.netlist);
    let nl_cells = design.netlist.num_cells();
    let mut scratch = AnalysisScratch::new();

    // Full forward passes through the scratch entry points.
    let analyze_ns = time_ns(|| {
        let a = timer.analyze_into(&design.netlist, &forest, &mut scratch);
        scratch.recycle(black_box(a));
    });
    let smoothed_ns = time_ns(|| {
        let a = timer.analyze_smoothed_into(&design.netlist, &forest, &mut scratch);
        scratch.recycle(black_box(a));
    });

    // Backward gradient sweep.
    let analysis = timer.analyze_smoothed(&design.netlist, &forest);
    let mut grads = dtp_sta::PositionGradients::default();
    let gradients_ns = time_ns(|| {
        timer.gradients_into(
            &design.netlist,
            &analysis,
            &forest,
            0.04,
            0.0004,
            &mut scratch,
            &mut grads,
        );
        black_box(&grads);
    });

    // Incremental analysis at swept moved-cell fractions.
    let movable: Vec<CellId> = design.netlist.movable_cells().collect();
    let mut sweep = Vec::new();
    for permille in [1usize, 10, 100] {
        let n_moved = (movable.len() * permille / 1000).max(1);
        let prev = timer.analyze(&design.netlist, &forest);
        let moved: Vec<CellId> = movable.iter().copied().take(n_moved).collect();
        for &c in &moved {
            let pos = design.netlist.cell(c).pos();
            design
                .netlist
                .set_cell_pos(c, Point::new(pos.x + 2.0, pos.y + 1.0));
        }
        forest.update_positions(&design.netlist);
        let inc_ns = time_ns(|| {
            let a = timer.analyze_incremental_into(
                &design.netlist,
                &forest,
                &prev,
                &moved,
                false,
                &mut scratch,
            );
            scratch.recycle(black_box(a));
        });
        let frac = permille as f64 / 1000.0;
        sweep.push((frac, n_moved, inc_ns, analyze_ns / inc_ns));
    }

    // Heap allocations per analysis once every pool is warm: one cycle is a
    // smoothed analysis + gradients, an exact analysis and an incremental
    // one, all through the same scratch.
    const ALLOC_CYCLES: u64 = 8;
    let mut prev = timer.analyze_into(&design.netlist, &forest, &mut scratch);
    let moved = [movable[0]];
    let mut cycle = || {
        let s = timer.analyze_smoothed_into(&design.netlist, &forest, &mut scratch);
        timer.gradients_into(&design.netlist, &s, &forest, 0.04, 0.0004, &mut scratch, &mut grads);
        scratch.recycle(s);
        let next = timer.analyze_incremental_into(
            &design.netlist,
            &forest,
            &prev,
            &moved,
            true,
            &mut scratch,
        );
        scratch.recycle(std::mem::replace(&mut prev, next));
        let a = timer.analyze_into(&design.netlist, &forest, &mut scratch);
        scratch.recycle(black_box(a));
    };
    // Warm-up: the pool has never held two analyses at once.
    cycle();
    let before = alloc_counter::allocs();
    for _ in 0..ALLOC_CYCLES {
        cycle();
    }
    let allocs_per_analysis =
        (alloc_counter::allocs() - before) as f64 / (3 * ALLOC_CYCLES) as f64;
    assert_eq!(allocs_per_analysis, 0.0, "the steady-state timing hot path must not allocate");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"design_cells\": {nl_cells},");
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    let _ = writeln!(json, "  \"threads\": {},", rayon::current_num_threads());
    let _ = writeln!(json, "  \"analyze_ns\": {analyze_ns:.0},");
    let _ = writeln!(json, "  \"analyze_smoothed_ns\": {smoothed_ns:.0},");
    let _ = writeln!(json, "  \"gradients_ns\": {gradients_ns:.0},");
    let _ = writeln!(json, "  \"allocs_per_analysis\": {allocs_per_analysis:.1},");
    let _ = writeln!(json, "  \"incremental\": [");
    for (i, (frac, n_moved, ns, speedup)) in sweep.iter().enumerate() {
        let comma = if i + 1 < sweep.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"moved_frac\": {frac}, \"moved_cells\": {n_moved}, \
             \"incremental_ns\": {ns:.0}, \"speedup_vs_full\": {speedup:.2}}}{comma}"
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_sta.json", &json).expect("write BENCH_sta.json");

    println!("design: {nl_cells} cells");
    println!("analyze (full, exact):    {:>12.0} ns", analyze_ns);
    println!("analyze (full, smoothed): {:>12.0} ns", smoothed_ns);
    println!("gradients:                {:>12.0} ns", gradients_ns);
    println!("allocations per steady-state analysis: {allocs_per_analysis:.1}");
    for (frac, n_moved, ns, speedup) in &sweep {
        println!(
            "incremental {:>5.1}% ({n_moved:>4} cells): {ns:>12.0} ns  ({speedup:.2}x vs full)",
            frac * 100.0
        );
    }
    println!("wrote BENCH_sta.json");
}
