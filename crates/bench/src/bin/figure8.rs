//! Regenerates **Figure 8**: HPWL, density overflow, WNS and TNS along the
//! placement iterations of benchmark superblue4 (proxy), for DREAMPlace
//! (blue curve) and the differentiable-timing-driven placer (orange curve).
//!
//! Usage:
//! `cargo run -p dtp-bench --release --bin figure8 [-- scale_denom]`
//!
//! Writes `results/figure8_<mode>.csv` with one row per iteration and prints
//! a coarse textual rendering of the four subplots.

use dtp_core::{run_flow, FlowConfig, FlowMode, TraceIter};
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::superblue_proxy;
use std::fmt::Write as _;

fn main() {
    let scale_denom: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(150.0);
    let design = superblue_proxy("sb4", 1.0 / scale_denom)
        .expect("sb4 is a built-in benchmark");
    let lib = synthetic_pdk();
    let cfg = FlowConfig { trace_timing_every: 1, ..FlowConfig::default() };

    std::fs::create_dir_all("results").ok();
    let mut traces = Vec::new();
    for mode in [FlowMode::Wirelength, FlowMode::differentiable()] {
        let r = run_flow(&design, &lib, mode, &cfg).expect("flow succeeds");
        let mut csv = String::from("iter,hpwl_um,overflow,wns_ps,tns_ps\n");
        for p in &r.trace {
            let _ = writeln!(csv, "{},{:.2},{:.5},{:.2},{:.2}", p.iter, p.hpwl, p.overflow, p.wns, p.tns);
        }
        let path = format!("results/figure8_{}.csv", r.mode.to_lowercase());
        std::fs::write(&path, &csv).ok();
        println!("{}: {} trace points -> {path}", r.mode, r.trace.len());
        traces.push((r.mode, r.trace));
    }

    // Textual sparkline rendering of the four subplots.
    for (title, f) in [
        ("HPWL", get_hpwl as fn(&TraceIter) -> f64),
        ("Overflow", get_overflow),
        ("WNS", get_wns),
        ("TNS", get_tns),
    ] {
        println!("\n== {title} vs iteration ==");
        for (mode, trace) in &traces {
            let series: Vec<f64> = trace.iter().map(f).filter(|v| v.is_finite()).collect();
            println!("{:<13} {}", mode, sparkline(&series, 60));
            if let (Some(first), Some(last)) = (series.first(), series.last()) {
                println!("{:<13} start {:.1}  end {:.1}", "", first, last);
            }
        }
    }
}

fn get_hpwl(p: &TraceIter) -> f64 {
    p.hpwl
}
fn get_overflow(p: &TraceIter) -> f64 {
    p.overflow
}
fn get_wns(p: &TraceIter) -> f64 {
    p.wns
}
fn get_tns(p: &TraceIter) -> f64 {
    p.tns
}

/// Renders a unicode sparkline with `width` buckets.
fn sparkline(series: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if series.is_empty() {
        return String::from("(no data)");
    }
    let lo = series.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = series.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    let mut out = String::with_capacity(width * 3);
    for b in 0..width.min(series.len()) {
        let idx = b * series.len() / width.min(series.len());
        let v = series[idx.min(series.len() - 1)];
        let t = ((v - lo) / span * 7.0).round() as usize;
        out.push(BARS[t.min(7)]);
    }
    out
}
