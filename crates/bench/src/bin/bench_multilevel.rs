//! Multi-level vs flat placement benchmark emitting `BENCH_multilevel.json`.
//!
//! For each design size, runs the differentiable-timing flow end to end
//! (GP → legalization → detailed placement → final STA) twice on the same
//! `scale_design` instance — once with the multi-level (clustered) V-cycle
//! and once flat — both to overflow convergence under a generous iteration
//! cap, and records per run:
//!
//! - end-to-end seconds and per-level iteration counts
//!   ([`dtp_core::FlowResult::level_iterations`], coarsest first);
//! - final HPWL / WNS / TNS and the multilevel-vs-flat deltas;
//! - a phase-bucket breakdown (gradient loop / timing / V-cycle / post-GP)
//!   so the comparison explains *where* the arms differ;
//! - process peak RSS (`VmHWM`).
//!
//! The multilevel arm runs FIRST within each size: `VmHWM` is monotone over
//! the process lifetime, so the arm whose peak we want to bound must set it
//! before the (larger, flat) arm raises the high-water mark.
//!
//! Targets (recorded, asserted only where CI can express them): ≥2×
//! end-to-end at the largest size with ≤1% HPWL and ≤2% |TNS| regression.
//! See EXPERIMENTS.md for the measured outcome: the V-cycle's loop savings
//! are reinvested in a longer differentiable-timing tail (better WNS/TNS at
//! roughly flat runtime) rather than banked as wall clock.
//!
//! Usage: `cargo run --release -p dtp-bench --bin bench_multilevel
//! [-- --smoke] [-- --wl] [-- --cells N] [-- --levels N]`
//! `--smoke` runs 100k cells, 2 levels, 2 threads for CI; `--wl` compares
//! the arms in pure-wirelength mode (isolates warm-start placement quality
//! from the timing tradeoff); `--cells`/`--levels` restrict a full run to
//! one size / override the V-cycle depth for targeted experiments.

use dtp_core::{run_flow_observed, FlowConfig, FlowMode, FlowResult, Observer};
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::scale_design;
use dtp_netlist::Design;
use dtp_obs::Phase;
use std::fmt::Write as _;
use std::time::Instant;

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

/// One arm of the comparison: flow result + wall clock + peak RSS + where the
/// time went, bucketed into the groups that differ between the arms.
struct Arm {
    result: FlowResult,
    total_s: f64,
    peak_rss_kb: u64,
    /// Seconds in WL/density gradients + Nesterov (the per-iteration core).
    loop_s: f64,
    /// Seconds in timing machinery inside the loop (forest + STA fwd/bwd).
    timing_s: f64,
    /// Seconds in coarsening + interpolation (multilevel arm only).
    vcycle_s: f64,
    /// Seconds in post-GP fixed work (RUDY, legalize, detail, final STA).
    post_s: f64,
    rudy_s: f64,
    legalize_s: f64,
    detail_s: f64,
    final_sta_s: f64,
}

fn run_arm(d: &Design, lib: &dtp_liberty::Library, mode: FlowMode, config: &FlowConfig) -> Arm {
    let mut obs = Observer::new(true);
    let t0 = Instant::now();
    let result = run_flow_observed(d, lib, mode, config, &mut obs).expect("flow runs");
    let total_s = t0.elapsed().as_secs_f64();
    let s = |p: Phase| obs.spans().seconds(p);
    Arm {
        result,
        total_s,
        peak_rss_kb: peak_rss_kb(),
        loop_s: s(Phase::WirelengthGrad) + s(Phase::DensityGrad) + s(Phase::NesterovStep),
        timing_s: s(Phase::SteinerBuild)
            + s(Phase::SteinerUpdate)
            + s(Phase::StaForward)
            + s(Phase::StaBackward),
        vcycle_s: s(Phase::Coarsen) + s(Phase::Interpolate),
        post_s: s(Phase::RudyUpdate) + s(Phase::Legalize) + s(Phase::DetailPlace) + s(Phase::FinalSta),
        rudy_s: s(Phase::RudyUpdate),
        legalize_s: s(Phase::Legalize),
        detail_s: s(Phase::DetailPlace),
        final_sta_s: s(Phase::FinalSta),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // Diagnostic mode: compare the arms on pure wirelength (no timing),
    // isolating warm-start placement quality from the timing tradeoff.
    let mode = if args.iter().any(|a| a == "--wl") {
        FlowMode::Wirelength
    } else {
        FlowMode::differentiable()
    };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Full mode uses up to 4 workers but never oversubscribes the host.
    let (mut sizes, threads, mut levels): (Vec<usize>, usize, usize) = if smoke {
        (vec![100_000], 2, 2)
    } else {
        (vec![100_000, 500_000, 1_000_000], 4.min(host_threads), 2)
    };
    // Targeted experiments: restrict to one size / override the V-cycle depth.
    if let Some(i) = args.iter().position(|a| a == "--cells") {
        sizes = vec![args[i + 1].parse().expect("--cells takes a number")];
    }
    if let Some(i) = args.iter().position(|a| a == "--levels") {
        levels = args[i + 1].parse().expect("--levels takes a number");
    }
    let lib = synthetic_pdk();
    // Both arms run to overflow convergence: the cap only guards divergence.
    let base = FlowConfig {
        max_iters: if smoke { 200 } else { 400 },
        trace_timing_every: 0,
        bins: 128,
        detail_passes: 1,
        threads,
        ..FlowConfig::default()
    };
    let ml_config = FlowConfig { multilevel: true, cluster_ratio: 4.0, levels, ..base };

    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"dtp-bench-multilevel-v1\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"host_threads\": {host_threads},");
    let _ = writeln!(out, "  \"threads\": {threads},");
    let _ = writeln!(out, "  \"levels\": {levels},");
    let _ = writeln!(out, "  \"cluster_ratio\": {},", ml_config.cluster_ratio);
    let _ = writeln!(out, "  \"max_iters\": {},", base.max_iters);
    let _ = writeln!(out, "  \"runs\": [");

    let mut run_lines = Vec::new();
    let mut cmp_lines = Vec::new();
    for &cells in &sizes {
        let t0 = Instant::now();
        let d = scale_design(cells, 1).expect("generator succeeds");
        println!(
            "generated {cells}-cell design in {:.1} s ({} nets, {} pins)",
            t0.elapsed().as_secs_f64(),
            d.netlist.num_nets(),
            d.netlist.num_pins()
        );
        // Multilevel first: VmHWM is process-monotone, so this arm's peak
        // must be recorded before the flat arm raises the high-water mark.
        let mut arms = Vec::new();
        for multilevel in [true, false] {
            let config = if multilevel { &ml_config } else { &base };
            let arm = run_arm(&d, &lib, mode, config);
            let levels_str = arm
                .result
                .level_iterations
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            println!(
                "  {cells} cells {}: {:.1} s | {} iters (per level: [{}]) | hpwl {:.0} | \
                 wns {:.1} | tns {:.1} | rss {} MB",
                if multilevel { "multilevel" } else { "flat      " },
                arm.total_s,
                arm.result.iterations,
                levels_str,
                arm.result.hpwl,
                arm.result.wns,
                arm.result.tns,
                arm.peak_rss_kb / 1024,
            );
            println!(
                "    breakdown: loop {:.1} s | timing {:.1} s | vcycle {:.1} s | post-GP {:.1} s \
                 (rudy {:.1} legalize {:.1} detail {:.1} sta {:.1})",
                arm.loop_s,
                arm.timing_s,
                arm.vcycle_s,
                arm.post_s,
                arm.rudy_s,
                arm.legalize_s,
                arm.detail_s,
                arm.final_sta_s,
            );
            run_lines.push(format!(
                "    {{\"cells\": {cells}, \"multilevel\": {multilevel}, \
                 \"total_s\": {:.3}, \"iterations\": {}, \"level_iterations\": [{}], \
                 \"hpwl\": {:.1}, \"wns\": {:.2}, \"tns\": {:.2}, \"peak_rss_kb\": {}, \
                 \"loop_s\": {:.3}, \"timing_s\": {:.3}, \"vcycle_s\": {:.3}, \"post_s\": {:.3}}}",
                arm.total_s,
                arm.result.iterations,
                levels_str,
                arm.result.hpwl,
                arm.result.wns,
                arm.result.tns,
                arm.peak_rss_kb,
                arm.loop_s,
                arm.timing_s,
                arm.vcycle_s,
                arm.post_s,
            ));
            arms.push(arm);
        }
        let (ml, flat) = (&arms[0], &arms[1]);
        let speedup = flat.total_s / ml.total_s.max(1e-9);
        let hpwl_delta = 100.0 * (ml.result.hpwl - flat.result.hpwl) / flat.result.hpwl.abs();
        let tns_delta = if flat.result.tns.abs() > 0.0 {
            100.0 * (ml.result.tns.abs() - flat.result.tns.abs()) / flat.result.tns.abs()
        } else {
            0.0
        };
        let wns_delta = if flat.result.wns.abs() > 0.0 {
            100.0 * (ml.result.wns.abs() - flat.result.wns.abs()) / flat.result.wns.abs()
        } else {
            0.0
        };
        println!(
            "  {cells} cells: speedup {speedup:.2}x | hpwl {hpwl_delta:+.2}% | \
             |wns| {wns_delta:+.2}% | |tns| {tns_delta:+.2}%"
        );
        cmp_lines.push(format!(
            "    {{\"cells\": {cells}, \"speedup\": {speedup:.3}, \
             \"hpwl_delta_pct\": {hpwl_delta:.3}, \"wns_delta_pct\": {wns_delta:.3}, \
             \"tns_delta_pct\": {tns_delta:.3}}}"
        ));
    }
    let _ = writeln!(out, "{}", run_lines.join(",\n"));
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"comparisons\": [");
    let _ = writeln!(out, "{}", cmp_lines.join(",\n"));
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");

    std::fs::write("BENCH_multilevel.json", &out).expect("write BENCH_multilevel.json");
    println!("wrote BENCH_multilevel.json");
}
