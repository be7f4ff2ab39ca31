//! Electrostatics-kernel benchmark emitting `BENCH_density.json`.
//!
//! Three measurements, mirroring `bench_route`'s hand-timed style:
//!
//! 1. **Poisson solve**: dense reference transforms vs the radix-2 FFT
//!    backend on 64²–512² grids (the acceptance target is ≥ 5× at 256²).
//! 2. **Density evaluation**: `evaluate_into` on a reused scratch, with its
//!    per-call heap-allocation count from a counting global allocator (must
//!    be zero in steady state) and the 2-D transform count per call (must be
//!    3: the loop never synthesises ψ); `energy_into` is the 4-transform
//!    form gradient checks use.
//! 3. **Dispatch overhead**: spawning scoped threads per parallel region vs
//!    reusing the persistent worker pool. The ratio of a syscall-bound path
//!    to a sub-microsecond one swings 2–4× between runs on one host, so it
//!    is recorded as `spawn_over_pool` (informational to the baseline gate),
//!    not as a `speedup`.
//!
//! Usage: `cargo run --release -p dtp-bench --bin bench_density [-- cells]`
//! (default 4000). `--smoke` runs a tiny configuration for CI (small grids).

use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_place::{DensityModel, DensityResult, DensityScratch, PoissonScratch, PoissonSolution, Spectral2D};
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

/// Mean nanoseconds per call of `f` (warmup + ~0.5 s of repetitions).
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

/// Heap allocations per call of `f`, averaged over `reps` post-warmup calls.
fn allocs_per_call(reps: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let before = alloc_counter::allocs();
    for _ in 0..reps {
        f();
    }
    (alloc_counter::allocs() - before) as f64 / reps as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let cells: usize = args
        .iter()
        .find_map(|a| a.parse().ok())
        .unwrap_or(if smoke { 800 } else { 4000 });

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"design_cells\": {cells},");
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    let _ = writeln!(json, "  \"threads\": {},", rayon::current_num_threads());

    // --- 1. Poisson solve: dense vs FFT ---------------------------------
    let grids: &[usize] = if smoke { &[64, 128] } else { &[64, 128, 256, 512] };
    let _ = writeln!(json, "  \"poisson\": {{");
    println!("Poisson solve (dense vs FFT):");
    for (gi, &g) in grids.iter().enumerate() {
        let rho: Vec<f64> = (0..g * g)
            .map(|k| (((k as u64).wrapping_mul(2654435761) % 1000) as f64) / 500.0 - 1.0)
            .collect();
        let fft = Spectral2D::with_fft(g, g, 100.0, 100.0, true);
        let dense = Spectral2D::with_fft(g, g, 100.0, 100.0, false);
        assert!(fft.uses_fft() && !dense.uses_fft());
        let mut scratch = PoissonScratch::new();
        let mut sol = PoissonSolution::default();
        let fft_ns = time_ns(|| {
            fft.solve_into(&rho, &mut scratch, &mut sol);
            black_box(sol.dpsi_dx[0]);
        });
        let dense_ns = time_ns(|| {
            dense.solve_into(&rho, &mut scratch, &mut sol);
            black_box(sol.dpsi_dx[0]);
        });
        let speedup = dense_ns / fft_ns;
        let comma = if gi + 1 < grids.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    \"grid_{g}\": {{\"dense_ns\": {dense_ns:.0}, \"fft_ns\": {fft_ns:.0}, \
             \"speedup\": {speedup:.2}}}{comma}"
        );
        println!("  {g:>4}²: dense {dense_ns:>13.0} ns | fft {fft_ns:>11.0} ns | {speedup:.1}x");
    }
    let _ = writeln!(json, "  }},");

    // --- 2. Density evaluation on a reused scratch -----------------------
    let design = generate(&GeneratorConfig::named("bench_density", cells)).unwrap();
    let bins = if smoke { 64 } else { 128 };
    let model = DensityModel::new(&design, bins, bins, 1.0);
    let (xs, ys) = design.netlist.positions();
    let mut dscratch = DensityScratch::new();
    let mut dres = DensityResult::default();
    let evaluate_into_ns = time_ns(|| {
        model.evaluate_into(&xs, &ys, &mut dscratch, &mut dres);
        black_box(dres.overflow);
    });
    let energy_into_ns = time_ns(|| {
        black_box(model.energy_into(&xs, &ys, &mut dscratch));
    });
    let evaluate_into_allocs = allocs_per_call(10, || {
        model.evaluate_into(&xs, &ys, &mut dscratch, &mut dres);
        black_box(dres.overflow);
    });
    let transforms_before = dscratch.transforms();
    model.evaluate_into(&xs, &ys, &mut dscratch, &mut dres);
    let transforms_per_eval = dscratch.transforms() - transforms_before;
    let _ = writeln!(
        json,
        "  \"density_eval\": {{\"bins\": {bins}, \
         \"evaluate_into_ns\": {evaluate_into_ns:.0}, \"energy_into_ns\": {energy_into_ns:.0}, \
         \"evaluate_into_steady_state_allocs\": {evaluate_into_allocs:.1}, \
         \"transforms_per_evaluate_into\": {transforms_per_eval}}},"
    );
    println!(
        "density {bins}²: evaluate_into {evaluate_into_ns:.0} ns ({evaluate_into_allocs:.0} allocs, \
         {transforms_per_eval} transforms) | energy_into {energy_into_ns:.0} ns"
    );
    assert_eq!(
        evaluate_into_allocs, 0.0,
        "evaluate_into must be allocation-free in steady state"
    );
    assert_eq!(transforms_per_eval, 3, "the loop's evaluation must not synthesise ψ");

    // --- 3. Dispatch: scoped spawn vs persistent pool --------------------
    let threads = 4;
    let pool = rayon::Pool::new(threads);
    let pool_ns = time_ns(|| {
        pool.run(threads, |i| {
            black_box(i);
        });
    });
    let spawn_ns = time_ns(|| {
        std::thread::scope(|s| {
            for i in 1..threads {
                s.spawn(move || {
                    black_box(i);
                });
            }
            black_box(0usize);
        });
    });
    let dispatch_speedup = spawn_ns / pool_ns;
    let _ = writeln!(
        json,
        "  \"dispatch\": {{\"threads\": {threads}, \"spawn_ns\": {spawn_ns:.0}, \
         \"pool_ns\": {pool_ns:.0}, \"spawn_over_pool\": {dispatch_speedup:.1}}}"
    );
    println!(
        "dispatch ({threads} lanes): scoped spawn {spawn_ns:.0} ns | persistent pool \
         {pool_ns:.0} ns ({dispatch_speedup:.1}x)"
    );
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_density.json", &json).expect("write BENCH_density.json");
    println!("wrote BENCH_density.json");
}
