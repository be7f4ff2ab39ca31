//! Observability-overhead benchmark emitting `BENCH_obs.json`.
//!
//! Four measurements, mirroring `bench_density`'s hand-timed style:
//!
//! 1. **Flow overhead**: the full differentiable flow with observability off
//!    vs on (spans + counters + ring + a JSONL stream into a null sink).
//!    The design target is < 1 % wall-clock overhead; the assertion uses a
//!    looser bound so scheduler noise cannot flake CI.
//! 2. **Steady-state allocations**: one observed iteration's worth of
//!    `Observer` traffic (iter_begin, spans, counters, iter_end + JSONL
//!    event) must allocate nothing, measured with a counting global
//!    allocator.
//! 3. **Sink validity**: the emitted `metrics.json` parses back with
//!    `dtp_obs::json::parse`, and the v3 `iter`/`span` trace records pass
//!    both the generic parser and the strict schema reader.
//! 4. **Pool hand-off** (`pool`): the median time of a two-task region on a
//!    2-thread pool, for tasks of 50 / 200 / 500 µs, entered after the
//!    submitting thread has computed alone for 0 / 500 / 2 000 µs. Two
//!    equal tasks on two threads take one task's time when the second
//!    thread is there as the region starts and two when it is not; the gaps
//!    sit below, inside and beyond the time a worker polls before it parks
//!    (`rayon::pool::WORKER_SPIN`).
//!
//! Usage: `cargo run --release -p dtp-bench --bin bench_obs [-- cells]`
//! (default 2000). `--smoke` runs a tiny configuration for CI.

use dtp_core::{run_flow_observed, FlowConfig, FlowMode, Observer};
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_obs::{json, Counter, IterEvent, Phase, QorSummary};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

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

/// Computes (polls the clock) for `us` microseconds.
fn busy_us(us: u64) {
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_micros(us) {
        std::hint::spin_loop();
    }
}

/// The `pool` section: `"task<T>": {"gap<G>_us": median µs, ...}` for every
/// task length and gap, on a dedicated 2-thread pool.
fn pool_section(reps: usize) -> String {
    let pool = rayon::Pool::new(2);
    let mut rows = Vec::new();
    for task in [50u64, 200, 500] {
        let mut cols = Vec::new();
        for gap in [0u64, 500, 2000] {
            let mut us: Vec<f64> = rayon::with_pool(&pool, || {
                (0..reps)
                    .map(|_| {
                        busy_us(gap);
                        let t0 = Instant::now();
                        rayon::join(|| busy_us(task), || busy_us(task));
                        t0.elapsed().as_secs_f64() * 1e6
                    })
                    .collect()
            });
            us.sort_by(f64::total_cmp);
            let median = us[reps / 2];
            println!("pool: 2 x {task} us after a {gap} us gap: median {median:.0} us (n {reps})");
            cols.push(format!("\"gap{gap}_us\": {median:.1}"));
        }
        rows.push(format!("\"task{task}\": {{{}}}", cols.join(", ")));
    }
    format!(
        "{{\"threads\": {}, \"reps\": {reps}, \"two_task_region\": {{{}}}}}",
        pool.num_threads(),
        rows.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let cells: usize = args
        .iter()
        .find_map(|a| a.parse().ok())
        .unwrap_or(if smoke { 600 } else { 2000 });
    let max_iters = if smoke { 100 } else { 300 };

    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"design_cells\": {cells},");
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(out, "  \"host_threads\": {host_threads},");
    let _ = writeln!(out, "  \"threads\": {},", rayon::current_num_threads());
    let _ = writeln!(out, "  \"max_iters\": {max_iters},");

    // --- 1. Flow overhead: observer disabled vs enabled -------------------
    let design = generate(&GeneratorConfig::named("bench_obs", cells)).unwrap();
    let lib = synthetic_pdk();
    let cfg = FlowConfig { max_iters, trace_timing_every: 10, ..FlowConfig::default() };
    let rounds = if smoke { 1 } else { 3 };
    let mut off_s = f64::INFINITY;
    let mut on_s = f64::INFINITY;
    let mut last_report = None;
    // Alternate runs and keep per-variant minima: best-case timing cancels
    // warmup and scheduler noise, which is what an overhead ratio needs.
    for _ in 0..rounds {
        let mut obs = Observer::disabled();
        let t0 = Instant::now();
        let r = run_flow_observed(&design, &lib, FlowMode::differentiable(), &cfg, &mut obs)
            .unwrap();
        off_s = off_s.min(t0.elapsed().as_secs_f64());
        black_box(r.hpwl);

        let mut obs = Observer::new(true);
        obs.set_trace_writer(Box::new(std::io::sink()));
        let t0 = Instant::now();
        let r = run_flow_observed(&design, &lib, FlowMode::differentiable(), &cfg, &mut obs)
            .unwrap();
        on_s = on_s.min(t0.elapsed().as_secs_f64());
        black_box(r.hpwl);
        last_report = Some((obs.report(), r));
    }
    let overhead_pct = (on_s / off_s - 1.0) * 100.0;
    let _ = writeln!(
        out,
        "  \"flow\": {{\"observe_off_s\": {off_s:.4}, \"observe_on_s\": {on_s:.4}, \
         \"overhead_pct\": {overhead_pct:.3}}},"
    );
    println!(
        "flow ({cells} cells, {max_iters} iters): observe off {off_s:.3} s | on {on_s:.3} s | \
         overhead {overhead_pct:+.2}% (target < 1%)"
    );
    // Loose bound: the target is < 1 %, but a shared CI runner can add a few
    // percent of noise to a sub-second flow; anything past 10 % is a real
    // regression, not jitter.
    assert!(
        overhead_pct < 10.0,
        "observability overhead {overhead_pct:.2}% exceeds the 10% regression bound"
    );

    // --- 2. Steady-state allocations of one observed iteration ------------
    let mut obs = Observer::new(true);
    obs.set_trace_writer(Box::new(std::io::sink()));
    let mut iter = 0u64;
    let obs_allocs = allocs_per_call(1000, || {
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
            let s = obs.start(phase);
            black_box(phase);
            obs.stop(phase, s);
        }
        obs.add(Counter::GeoDirtyNets, 37);
        obs.add(Counter::StaFull, 1);
        obs.iter_end(IterEvent {
            iter,
            wl: 1234.5,
            hpwl: f64::NAN,
            overflow: 0.42,
            lambda: 1e-4,
            step: 5.0,
            wns: f64::NAN,
            tns: f64::NAN,
            timing: false,
        });
        iter += 1;
    });
    let _ = writeln!(out, "  \"observer_allocs_per_iteration\": {obs_allocs:.1},");
    println!("observer steady state: {obs_allocs:.1} allocations per observed iteration");
    assert_eq!(
        obs_allocs, 0.0,
        "the observed steady-state loop must be allocation-free"
    );

    // --- 3. Sink validity: metrics.json + JSONL parse back ----------------
    let (report, result) = last_report.expect("at least one observed flow ran");
    let qor = QorSummary {
        design: result.design.clone(),
        mode: result.mode.to_string(),
        hpwl: result.hpwl,
        wns: result.wns,
        tns: result.tns,
        iterations: result.iterations as u64,
        runtime: result.runtime,
        timing_runtime: result.timing_runtime,
    };
    let metrics = report.to_json(Some(&qor));
    let parsed = json::parse(&metrics).expect("metrics.json must parse");
    assert_eq!(
        parsed.get("schema").and_then(|s| s.as_str()),
        Some(dtp_obs::METRICS_SCHEMA)
    );
    let sta_s = parsed
        .get("sta_seconds")
        .and_then(|v| v.as_f64())
        .expect("sta_seconds present");
    let mut event = Vec::new();
    let ev = IterEvent {
        iter: 7,
        wl: 1.0,
        hpwl: f64::NAN,
        overflow: 0.5,
        lambda: 2e-4,
        step: 4.5,
        wns: -3.0,
        tns: -9.0,
        timing: true,
    };
    dtp_obs::write_iter_record(&mut event, &ev, &[1; Counter::COUNT]).unwrap();
    dtp_obs::write_span_record(&mut event, 7, &[1; Phase::COUNT]).unwrap();
    let event_text = String::from_utf8(event).unwrap();
    for line in event_text.lines() {
        json::parse(line).expect("v3 JSONL record must parse");
        dtp_obs::trace::parse_record(line).expect("v3 record passes the strict reader");
    }
    let _ = writeln!(out, "  \"metrics_json_valid\": true,");
    let _ = writeln!(out, "  \"sta_seconds\": {sta_s:.4},");

    // --- 4. Pool hand-off: two-task regions after a serial gap ------------
    let _ = writeln!(out, "  \"pool\": {}", pool_section(if smoke { 50 } else { 200 }));
    let _ = writeln!(out, "}}");
    println!("sinks: metrics.json and JSONL events parse back (sta {sta_s:.3} s)");

    std::fs::write("BENCH_obs.json", &out).expect("write BENCH_obs.json");
    println!("wrote BENCH_obs.json");
}
