//! Human-readable convergence reports: the `dtp trace report` backend.
//!
//! [`report`] renders a parsed trace as a plain-text dossier: run identity,
//! a per-phase wall-clock table, and windowed pathology detection (plateau,
//! oscillation, divergence) over the recorded HPWL and overflow
//! trajectories.

use crate::Trace;
use dtp_obs::Phase;

/// Sliding-window size for the pathology detectors. One window must fit in
/// the trace for a verdict; shorter traces report "trace too short".
const WINDOW: usize = 20;

/// First index (of the window *end*) where the trailing `window` values
/// span a relative range below `rel_eps` — the trajectory has flatlined
/// while the flow kept iterating.
pub fn detect_plateau(values: &[f64], window: usize, rel_eps: f64) -> Option<usize> {
    if window < 2 {
        return None;
    }
    for end in window..=values.len() {
        let w = &values[end - window..end];
        if w.iter().any(|v| !v.is_finite()) {
            continue;
        }
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in w {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let scale = lo.abs().max(hi.abs()).max(1e-12);
        if (hi - lo) / scale < rel_eps {
            return Some(end - 1);
        }
    }
    None
}

/// First index where at least `min_flips` successive-delta sign changes
/// occur inside a trailing window — the metric is bouncing, not settling.
pub fn detect_oscillation(values: &[f64], window: usize, min_flips: usize) -> Option<usize> {
    if window < 3 {
        return None;
    }
    for end in window..=values.len() {
        let w = &values[end - window..end];
        if w.iter().any(|v| !v.is_finite()) {
            continue;
        }
        let mut flips = 0usize;
        let mut prev_delta = 0.0f64;
        for pair in w.windows(2) {
            let delta = pair[1] - pair[0];
            if delta * prev_delta < 0.0 {
                flips += 1;
            }
            if delta != 0.0 {
                prev_delta = delta;
            }
        }
        if flips >= min_flips {
            return Some(end - 1);
        }
    }
    None
}

/// First index where the metric grew by more than `growth` (relative) over
/// a trailing window — the flow is moving away from its objective.
pub fn detect_divergence(values: &[f64], window: usize, growth: f64) -> Option<usize> {
    if window < 2 {
        return None;
    }
    for end in window..=values.len() {
        let w = &values[end - window..end];
        let (first, last) = (w[0], w[window - 1]);
        if !first.is_finite() || !last.is_finite() {
            continue;
        }
        let scale = first.abs().max(1e-12);
        if (last - first) / scale > growth {
            return Some(end - 1);
        }
    }
    None
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

fn pathology_line(name: &str, values: &[f64], out: &mut String) {
    let finite = values.iter().filter(|v| v.is_finite()).count();
    if finite < WINDOW {
        out.push_str(&format!(
            "  {name:<10} trace too short for detection ({finite} finite samples, window {WINDOW})\n"
        ));
        return;
    }
    let mut verdicts = Vec::new();
    if let Some(i) = detect_divergence(values, WINDOW, 0.5) {
        verdicts.push(format!("DIVERGENCE by sample {i} (>50% growth inside a window)"));
    }
    if let Some(i) = detect_oscillation(values, WINDOW, WINDOW / 2) {
        verdicts.push(format!("oscillation by sample {i} ({}+ sign flips)", WINDOW / 2));
    }
    if let Some(i) = detect_plateau(values, WINDOW, 1e-4) {
        verdicts.push(format!("plateau from sample {i} (<0.01% relative range)"));
    }
    if verdicts.is_empty() {
        verdicts.push("monotone progress, no pathology".to_string());
    }
    out.push_str(&format!("  {name:<10} {}\n", verdicts.join("; ")));
}

/// Renders the full plain-text report for a parsed trace.
pub fn report(trace: &Trace) -> String {
    let h = &trace.header;
    let mut out = String::new();
    out.push_str(&format!(
        "trace report: {} ({} cells, {} nets, {} pins)\n",
        h.design, h.cells, h.nets, h.pins
    ));
    out.push_str(&format!(
        "  mode {}  seed {}  threads {} (pool {}, host {})  clock {} ps\n",
        h.mode, h.seed, h.threads, h.pool_threads, h.host_threads, h.clock_period
    ));
    if let Some(src) = &h.source {
        out.push_str(&format!("  source {src}\n"));
    }
    out.push_str(&format!(
        "  {} iteration record(s), {} span record(s)\n\n",
        trace.iters.len(),
        trace.spans.len()
    ));

    // Phase table, heaviest first.
    let totals = trace.phase_totals();
    let grand: u64 = totals.iter().sum();
    if grand > 0 {
        let mut rows: Vec<(Phase, u64)> = Phase::ALL
            .iter()
            .map(|&p| (p, totals[p.index()]))
            .filter(|&(_, ns)| ns > 0)
            .collect();
        rows.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        out.push_str("phase time:\n");
        out.push_str("  phase             time_ms     pct\n");
        for (p, ns) in rows {
            out.push_str(&format!(
                "  {:<16}  {:>8}  {:>5.1}%\n",
                p.name(),
                fmt_ms(ns),
                100.0 * ns as f64 / grand as f64
            ));
        }
        out.push_str(&format!("  total             {:>8}\n\n", fmt_ms(grand)));
    }

    // Pathology detection over the trajectory.
    let iters = &trace.iters;
    let overflow: Vec<f64> = iters.iter().map(|it| it.overflow).collect();
    let hpwl: Vec<f64> = iters.iter().map(|it| it.hpwl).filter(|v| v.is_finite()).collect();
    let wl: Vec<f64> = iters.iter().map(|it| it.wl).collect();
    out.push_str(&format!("convergence pathology (window {WINDOW}):\n"));
    pathology_line("overflow", &overflow, &mut out);
    pathology_line("hpwl", &hpwl, &mut out);
    pathology_line("wl", &wl, &mut out);

    if let Some(last) = iters.last() {
        out.push_str(&format!(
            "\nfinal: overflow {:.6}  wl {:.4e}",
            last.overflow, last.wl
        ));
        if last.wns.is_finite() || last.tns.is_finite() {
            out.push_str(&format!("  wns {:.2}  tns {:.2}", last.wns, last.tns));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample_trace;

    #[test]
    fn plateau_detector_finds_flatlines_only() {
        let falling: Vec<f64> = (0..50).map(|i| 100.0 - i as f64).collect();
        assert_eq!(detect_plateau(&falling, 10, 1e-4), None);
        let mut flat = falling.clone();
        flat.extend(vec![50.0; 15]);
        let hit = detect_plateau(&flat, 10, 1e-4).expect("flat tail detected");
        assert!(hit >= 50, "detected inside the flat tail, got {hit}");
        // NaN-bearing windows are skipped, not misjudged.
        let mut with_nan = vec![f64::NAN; 5];
        with_nan.extend(vec![1.0; 12]);
        assert_eq!(detect_plateau(&with_nan, 10, 1e-4), Some(14));
    }

    #[test]
    fn oscillation_detector_needs_sign_flips() {
        let zigzag: Vec<f64> = (0..30).map(|i| if i % 2 == 0 { 1.0 } else { 2.0 }).collect();
        assert!(detect_oscillation(&zigzag, 10, 5).is_some());
        let ramp: Vec<f64> = (0..30).map(|i| i as f64).collect();
        assert_eq!(detect_oscillation(&ramp, 10, 5), None);
    }

    #[test]
    fn divergence_detector_needs_growth() {
        let blowup: Vec<f64> = (0..30).map(|i| 1.0f64 * 1.1f64.powi(i)).collect();
        assert!(detect_divergence(&blowup, 10, 0.5).is_some());
        let settling: Vec<f64> = (0..30).map(|i| 1.0 / (1.0 + i as f64)).collect();
        assert_eq!(detect_divergence(&settling, 10, 0.5), None);
    }

    #[test]
    fn report_renders_all_sections() {
        let t = sample_trace(30);
        let r = report(&t);
        assert!(r.contains("trace report: sbt"));
        assert!(r.contains("wirelength_grad"));
        assert!(r.contains("convergence pathology"));
        assert!(r.contains("final: overflow"));
        // 30 iters but only every 10th has finite HPWL → hpwl too short.
        assert!(r.contains("hpwl       trace too short"));
    }
}
