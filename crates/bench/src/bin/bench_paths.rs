//! Three-mode timing-quality-vs-runtime frontier emitting `BENCH_paths.json`.
//!
//! For each design size, runs the same `scale_design` instance through the
//! three timing-driven flow modes — full differentiable STA, momentum net
//! weighting, and top-K path extraction (K ∈ {8, 32, 128}) — under one
//! iteration cap, and records per run:
//!
//! - end-to-end seconds and the **in-loop timing-phase seconds** (STA
//!   forward + backward + net-weight transfer + path extraction), the
//!   quantity the frontier trades against final WNS/TNS;
//! - final HPWL / WNS / TNS, iteration and extraction counts;
//! - process peak RSS (`VmHWM`).
//!
//! Two proofs ride along:
//!
//! 1. **Frontier headline** (full run, largest size): some K buys a ≥5×
//!    cheaper timing phase than the full differentiable STA while giving
//!    back ≤10% of its WNS.
//! 2. **Zero-alloc steady state**: after warmup, top-K extraction + weight
//!    transfer ([`dtp_core::PathWeighter::update`]) performs zero heap
//!    allocations, measured with a counting global allocator. The
//!    surrounding forward-only analysis reuses [`dtp_sta::AnalysisScratch`];
//!    its (near-zero) steady-state count is recorded alongside.
//!
//! Usage: `cargo run --release -p dtp-bench --bin bench_paths
//! [-- --smoke] [-- --cells N]`
//! `--smoke` runs 100k cells, K=32 only, 2 threads under a lower cap for CI;
//! `--cells` restricts a full run to one size.

use dtp_core::{
    run_flow_observed, FlowConfig, FlowMode, FlowResult, Observer, PathExtractConfig, PathWeighter,
};
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::scale_design;
use dtp_netlist::Design;
use dtp_obs::{Counter, Phase};
use dtp_place::WirelengthModel;
use dtp_rsmt::build_forest;
use dtp_sta::{AnalysisScratch, Timer};
use std::fmt::Write as _;
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

/// Process peak resident set (`VmHWM`) in kB; 0 where procfs is unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace().nth(1).and_then(|v| v.parse().ok())
            })
        })
        .unwrap_or(0)
}

/// One `(size, mode)` flow run with the phase buckets the frontier compares.
struct Arm {
    label: String,
    top_k: Option<usize>,
    result: FlowResult,
    total_s: f64,
    /// In-loop timing machinery: STA fwd/bwd + weight transfer + extraction.
    timing_s: f64,
    /// Steiner construction + incremental maintenance (common to all modes).
    steiner_s: f64,
    /// WL/density gradients + Nesterov (the mode-independent core).
    loop_s: f64,
    extractions: u64,
    peak_rss_kb: u64,
}

fn run_arm(
    d: &Design,
    lib: &dtp_liberty::Library,
    label: &str,
    top_k: Option<usize>,
    mode: FlowMode,
    config: &FlowConfig,
) -> Arm {
    let mut obs = Observer::new(true);
    let t0 = Instant::now();
    let result = run_flow_observed(d, lib, mode, config, &mut obs).expect("flow runs");
    let total_s = t0.elapsed().as_secs_f64();
    let s = |p: Phase| obs.spans().seconds(p);
    Arm {
        label: label.to_string(),
        top_k,
        result,
        total_s,
        timing_s: s(Phase::StaForward)
            + s(Phase::StaBackward)
            + s(Phase::NetWeight)
            + s(Phase::PathExtract),
        steiner_s: s(Phase::SteinerBuild) + s(Phase::SteinerUpdate),
        loop_s: s(Phase::WirelengthGrad) + s(Phase::DensityGrad) + s(Phase::NesterovStep),
        extractions: obs.registry().get(Counter::PathExtractions),
        peak_rss_kb: peak_rss_kb(),
    }
}

/// Steady-state allocation probe: warm the extraction machinery up, then
/// count heap allocations across repeated analyze → extract → reweight
/// cycles at a fixed placement. Returns (extract_allocs, analysis_allocs)
/// summed over `reps` cycles; the first must be exactly zero.
fn alloc_probe(d: &Design, lib: &dtp_liberty::Library, top_k: usize, reps: usize) -> (u64, u64) {
    let timer = Timer::new(d, lib).expect("timer binds");
    let forest = build_forest(&d.netlist);
    let model = WirelengthModel::new(&d.netlist);
    let pcfg = PathExtractConfig { top_k, ..PathExtractConfig::default() };
    let mut pw = PathWeighter::new(&d.netlist, &model, pcfg);
    let mut scratch = AnalysisScratch::new();
    scratch.presize(d.netlist.num_pins(), d.netlist.num_nets());
    // Warmup: let every lazily-grown buffer reach steady-state capacity.
    for _ in 0..2 {
        let a = timer.analyze_no_rat_into(&d.netlist, &forest, &mut scratch);
        pw.update(&d.netlist, &timer, &a);
        scratch.recycle(a);
    }
    let mut extract_allocs = 0;
    let mut analysis_allocs = 0;
    for _ in 0..reps {
        let before = alloc_counter::allocs();
        let a = timer.analyze_no_rat_into(&d.netlist, &forest, &mut scratch);
        let mid = alloc_counter::allocs();
        pw.update(&d.netlist, &timer, &a);
        extract_allocs += alloc_counter::allocs() - mid;
        scratch.recycle(a);
        analysis_allocs += mid - before;
    }
    (extract_allocs, analysis_allocs)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (mut sizes, threads, ks): (Vec<usize>, usize, Vec<usize>) = if smoke {
        (vec![100_000], 2.min(host_threads), vec![32])
    } else {
        (vec![100_000, 500_000, 1_000_000], 4.min(host_threads), vec![8, 32, 128])
    };
    if let Some(i) = args.iter().position(|a| a == "--cells") {
        sizes = vec![args[i + 1].parse().expect("--cells takes a number")];
    }
    let mut period = PathExtractConfig::default().extract_period;
    if let Some(i) = args.iter().position(|a| a == "--period") {
        period = args[i + 1].parse().expect("--period takes a number");
    }
    let mut cap = PathExtractConfig::default().pin_weight_cap;
    if let Some(i) = args.iter().position(|a| a == "--cap") {
        cap = args[i + 1].parse().expect("--cap takes a number");
    }
    let largest = *sizes.iter().max().expect("nonempty sizes");
    let lib = synthetic_pdk();
    let config = FlowConfig {
        max_iters: if smoke { 150 } else { 300 },
        trace_timing_every: 0,
        bins: 128,
        detail_passes: 1,
        threads,
        ..FlowConfig::default()
    };

    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"dtp-bench-paths-v1\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"host_threads\": {host_threads},");
    let _ = writeln!(out, "  \"threads\": {threads},");
    let _ = writeln!(out, "  \"max_iters\": {},", config.max_iters);
    let _ = writeln!(out, "  \"top_k_sweep\": [{}],", ks.iter().map(|k| k.to_string()).collect::<Vec<_>>().join(", "));
    let _ = writeln!(out, "  \"extract_period\": {period},");

    // Zero-alloc proof on a small fixed instance (independent of the sweep).
    let probe_design = scale_design(20_000, 1).expect("generator succeeds");
    let (extract_allocs, analysis_allocs) = alloc_probe(&probe_design, &lib, 32, 10);
    println!(
        "alloc probe (20k cells, K=32, 10 cycles): extraction {extract_allocs} | \
         forward analysis {analysis_allocs}"
    );
    assert_eq!(
        extract_allocs, 0,
        "top-K extraction + weight transfer must be allocation-free in steady state"
    );
    let _ = writeln!(out, "  \"alloc_probe\": {{\"cells\": 20000, \"top_k\": 32, \"cycles\": 10, \"extract_allocs\": {extract_allocs}, \"analysis_allocs\": {analysis_allocs}}},");
    let _ = writeln!(out, "  \"runs\": [");

    let mut run_lines = Vec::new();
    let mut cmp_lines = Vec::new();
    let mut headline_ok = false;
    for &cells in &sizes {
        let t0 = Instant::now();
        let d = scale_design(cells, 1).expect("generator succeeds");
        println!(
            "generated {cells}-cell design in {:.1} s ({} nets, {} pins)",
            t0.elapsed().as_secs_f64(),
            d.netlist.num_nets(),
            d.netlist.num_pins()
        );
        let mut arms: Vec<Arm> = Vec::new();
        let mut jobs: Vec<(String, Option<usize>, FlowMode)> = vec![
            ("differentiable".into(), None, FlowMode::differentiable()),
            ("net-weighting".into(), None, FlowMode::net_weighting()),
        ];
        for &k in &ks {
            jobs.push((
                format!("path-extraction-k{k}"),
                Some(k),
                FlowMode::PathExtraction(PathExtractConfig {
                    top_k: k,
                    extract_period: period,
                    pin_weight_cap: cap,
                    ..PathExtractConfig::default()
                }),
            ));
        }
        for (label, top_k, mode) in jobs {
            let arm = run_arm(&d, &lib, &label, top_k, mode, &config);
            println!(
                "  {cells} cells {label:>20}: {:.1} s | timing {:.2} s | steiner {:.2} s | \
                 loop {:.2} s | {} iters | {} extractions | hpwl {:.0} | wns {:.1} | tns {:.1} | rss {} MB",
                arm.total_s,
                arm.timing_s,
                arm.steiner_s,
                arm.loop_s,
                arm.result.iterations,
                arm.extractions,
                arm.result.hpwl,
                arm.result.wns,
                arm.result.tns,
                arm.peak_rss_kb / 1024,
            );
            run_lines.push(format!(
                "    {{\"cells\": {cells}, \"mode\": \"{}\", \"top_k\": {}, \
                 \"total_s\": {:.3}, \"timing_s\": {:.3}, \"steiner_s\": {:.3}, \"loop_s\": {:.3}, \
                 \"iterations\": {}, \"extractions\": {}, \"hpwl\": {:.1}, \"wns\": {:.2}, \
                 \"tns\": {:.2}, \"peak_rss_kb\": {}}}",
                arm.label,
                arm.top_k.map_or("null".to_string(), |k| k.to_string()),
                arm.total_s,
                arm.timing_s,
                arm.steiner_s,
                arm.loop_s,
                arm.result.iterations,
                arm.extractions,
                arm.result.hpwl,
                arm.result.wns,
                arm.result.tns,
                arm.peak_rss_kb,
            ));
            arms.push(arm);
        }
        // Frontier: every path-extraction arm vs the differentiable baseline.
        let diff = &arms[0];
        for arm in arms.iter().filter(|a| a.top_k.is_some()) {
            let k = arm.top_k.expect("path arm");
            let timing_speedup = diff.timing_s / arm.timing_s.max(1e-9);
            // Give-back: how much of the baseline's WNS the cheap mode loses
            // (negative = the cheap mode is *better*).
            let wns_giveback_pct = if diff.result.wns < 0.0 {
                100.0 * (arm.result.wns.abs() - diff.result.wns.abs()) / diff.result.wns.abs()
            } else {
                0.0
            };
            let tns_giveback_pct = if diff.result.tns < 0.0 {
                100.0 * (arm.result.tns.abs() - diff.result.tns.abs()) / diff.result.tns.abs()
            } else {
                0.0
            };
            let total_speedup = diff.total_s / arm.total_s.max(1e-9);
            println!(
                "  {cells} cells K={k}: timing {timing_speedup:.1}x cheaper | end-to-end \
                 {total_speedup:.2}x | wns give-back {wns_giveback_pct:+.1}% | tns {tns_giveback_pct:+.1}%"
            );
            cmp_lines.push(format!(
                "    {{\"cells\": {cells}, \"top_k\": {k}, \"timing_speedup\": {timing_speedup:.3}, \
                 \"total_speedup\": {total_speedup:.3}, \"wns_giveback_pct\": {wns_giveback_pct:.3}, \
                 \"tns_giveback_pct\": {tns_giveback_pct:.3}}}"
            ));
            if cells == largest && timing_speedup >= 5.0 && wns_giveback_pct <= 10.0 {
                headline_ok = true;
            }
        }
    }
    let _ = writeln!(out, "{}", run_lines.join(",\n"));
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"comparisons\": [");
    let _ = writeln!(out, "{}", cmp_lines.join(",\n"));
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"headline\": {{\"cells\": {largest}, \"timing_speedup_min\": 5.0, \"wns_giveback_max_pct\": 10.0, \"ok\": {headline_ok}}}");
    let _ = writeln!(out, "}}");

    // The headline only arms on the full sweep: smoke runs a single size
    // under a reduced cap where the ratio is still recorded but not binding.
    if !smoke {
        assert!(
            headline_ok,
            "no K achieved >=5x cheaper timing phase with <=10% WNS give-back at {largest} cells"
        );
    }

    std::fs::write("BENCH_paths.json", &out).expect("write BENCH_paths.json");
    println!("wrote BENCH_paths.json");
}
