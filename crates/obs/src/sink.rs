//! Structured sinks: the per-iteration JSONL event stream, the end-of-run
//! `metrics.json` report, and the human-readable phase table.
//!
//! The JSONL writer is allocation-free per event (integers and floats format
//! on the stack, straight into the caller's `Write`), so streaming a trace
//! does not perturb the zero-allocation steady-state loop. The report
//! builders run once at end-of-run and allocate freely.

use crate::counters::{Counter, Gauge};
use crate::json;
use crate::phase::Phase;
use crate::span::PhaseSlot;
use std::fmt::Write as FmtWrite;
use std::io::{self, Write};

/// Identifies the `metrics.json` layout; bump on breaking shape changes.
pub const METRICS_SCHEMA: &str = "dtp-metrics-v1";

/// Identifies the JSONL trace layout (one header record, then per-iteration
/// `iter`/`span` record pairs).
pub const TRACE_SCHEMA: &str = "dtp-trace-v3";

/// The QoR samples of one iteration, as handed to the JSONL sink.
///
/// A superset of the flow's `TracePoint`: `hpwl`/`wns`/`tns`/`step` are
/// `NAN` on iterations where they were not computed and serialize as `null`.
#[derive(Clone, Copy, Debug)]
pub struct IterEvent {
    /// Iteration index.
    pub iter: u64,
    /// Smoothed (weighted-average) wirelength from the gradient evaluation.
    pub wl: f64,
    /// Exact HPWL; `NAN` when not computed this iteration.
    pub hpwl: f64,
    /// Density overflow.
    pub overflow: f64,
    /// Density-penalty multiplier λ used by this iteration's gradient.
    pub lambda: f64,
    /// Nesterov step length chosen this iteration; `NAN` when no step ran.
    pub step: f64,
    /// Exact WNS (ps); `NAN` when untraced.
    pub wns: f64,
    /// Exact TNS (ps); `NAN` when untraced.
    pub tns: f64,
    /// Whether timing-driven forces were active this iteration.
    pub timing: bool,
}

/// Writes one v3 `iter` record: the iteration's deterministic convergence
/// fields plus its per-counter increments. One valid JSON object per line,
/// `NAN`/infinities as `null`, no heap allocation.
///
/// Everything on an `iter` line is bit-for-bit reproducible for a fixed
/// config/seed (at any pool width); wall-clock goes on the companion `span`
/// line ([`write_span_record`]) so determinism checks can compare `iter`
/// records byte-wise.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_iter_record(
    w: &mut dyn Write,
    ev: &IterEvent,
    counter_delta: &[u64; Counter::COUNT],
) -> io::Result<()> {
    write!(w, "{{\"t\":\"iter\",\"iter\":{},\"wl\":", ev.iter)?;
    json::write_f64(w, ev.wl)?;
    w.write_all(b",\"hpwl\":")?;
    json::write_f64(w, ev.hpwl)?;
    w.write_all(b",\"overflow\":")?;
    json::write_f64(w, ev.overflow)?;
    w.write_all(b",\"lambda\":")?;
    json::write_f64(w, ev.lambda)?;
    w.write_all(b",\"step\":")?;
    json::write_f64(w, ev.step)?;
    w.write_all(b",\"wns\":")?;
    json::write_f64(w, ev.wns)?;
    w.write_all(b",\"tns\":")?;
    json::write_f64(w, ev.tns)?;
    write!(
        w,
        ",\"timing\":{},\"counters\":{{",
        if ev.timing { "true" } else { "false" }
    )?;
    let mut first = true;
    for c in Counter::ALL {
        let n = counter_delta[c.index()];
        if n == 0 {
            continue; // keep lines compact: counters that did not move are omitted
        }
        if !first {
            w.write_all(b",")?;
        }
        first = false;
        write!(w, "\"{}\":{}", c.name(), n)?;
    }
    w.write_all(b"}}\n")
}

/// Writes one v3 `span` record: the iteration's per-phase nanoseconds.
/// One valid JSON object per line, no heap allocation.
///
/// Span records carry the only nondeterministic trace content (wall-clock),
/// which is why they are separate lines: diff/replay skip them by default.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_span_record(
    w: &mut dyn Write,
    iter: u64,
    phase_ns: &[u64; Phase::COUNT],
) -> io::Result<()> {
    write!(w, "{{\"t\":\"span\",\"iter\":{iter},\"phase_ns\":{{")?;
    let mut first = true;
    for p in Phase::ALL {
        let ns = phase_ns[p.index()];
        if ns == 0 {
            continue; // keep lines compact: phases that did not run are omitted
        }
        if !first {
            w.write_all(b",")?;
        }
        first = false;
        write!(w, "\"{}\":{}", p.name(), ns)?;
    }
    w.write_all(b"}}\n")
}

/// One phase's line in the end-of-run report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseReport {
    /// The phase.
    pub phase: Phase,
    /// Total wall-clock seconds.
    pub seconds: f64,
    /// Completed spans.
    pub calls: u64,
}

/// End-of-run snapshot of the span table and registry, ready for sinks.
#[derive(Clone, Debug)]
pub struct Report {
    /// Per-phase totals, in [`Phase::ALL`] order (zero-call phases kept so
    /// consumers see the full taxonomy).
    pub phases: Vec<PhaseReport>,
    /// Counter totals, in [`Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauge values, in [`Gauge::ALL`] order.
    pub gauges: Vec<(&'static str, f64)>,
    /// Seconds across the STA phases (the `timing_runtime` view).
    pub sta_seconds: f64,
    /// Seconds across every phase.
    pub total_seconds: f64,
}

/// Final quality-of-result fields embedded in `metrics.json`.
#[derive(Clone, Debug, Default)]
pub struct QorSummary {
    /// Design name.
    pub design: String,
    /// Flow label ("DREAMPlace", "NetWeighting", "Ours").
    pub mode: String,
    /// Final HPWL (µm).
    pub hpwl: f64,
    /// Final exact WNS (ps).
    pub wns: f64,
    /// Final exact TNS (ps).
    pub tns: f64,
    /// Global-placement iterations executed.
    pub iterations: u64,
    /// Whole-flow wall-clock seconds.
    pub runtime: f64,
    /// Seconds inside timing analysis (sum of STA-phase spans).
    pub timing_runtime: f64,
}

impl Report {
    pub(crate) fn build(
        slots: &[PhaseSlot; Phase::COUNT],
        counters: &[u64; Counter::COUNT],
        gauges: &[f64; Gauge::COUNT],
    ) -> Report {
        let phases: Vec<PhaseReport> = Phase::ALL
            .iter()
            .map(|&p| PhaseReport {
                phase: p,
                seconds: slots[p.index()].nanos as f64 * 1e-9,
                calls: slots[p.index()].calls,
            })
            .collect();
        let sta_seconds = phases
            .iter()
            .filter(|r| r.phase.is_sta())
            .map(|r| r.seconds)
            .sum();
        let total_seconds = phases.iter().map(|r| r.seconds).sum();
        Report {
            phases,
            counters: Counter::ALL.iter().map(|&c| (c.name(), counters[c.index()])).collect(),
            gauges: Gauge::ALL.iter().map(|&g| (g.name(), gauges[g.index()])).collect(),
            sta_seconds,
            total_seconds,
        }
    }

    /// Renders the human-readable phase table printed under `--profile`
    /// (active phases, then the nonzero counters and gauges).
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "phase breakdown ({:.3}s instrumented):", self.total_seconds);
        let _ = writeln!(out, "  {:<16} {:>10} {:>9} {:>7}", "phase", "seconds", "calls", "share");
        for r in &self.phases {
            if r.calls == 0 {
                continue;
            }
            let share = if self.total_seconds > 0.0 {
                100.0 * r.seconds / self.total_seconds
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<16} {:>10.4} {:>9} {:>6.1}%",
                r.phase.name(),
                r.seconds,
                r.calls,
                share
            );
        }
        let _ = writeln!(out, "  {:<16} {:>10.4}", "sta (timing)", self.sta_seconds);
        let mut nonzero: Vec<&(&str, u64)> =
            self.counters.iter().filter(|(_, n)| *n > 0).collect();
        if !nonzero.is_empty() {
            nonzero.sort_by_key(|(name, _)| *name);
            let _ = writeln!(out, "counters:");
            for (name, n) in nonzero {
                let _ = writeln!(out, "  {name:<18} {n}");
            }
        }
        let set: Vec<&(&str, f64)> = self.gauges.iter().filter(|(_, v)| *v != 0.0).collect();
        if !set.is_empty() {
            let _ = writeln!(out, "gauges:");
            for (name, v) in set {
                let _ = writeln!(out, "  {name:<22} {v}");
            }
        }
        out
    }

    /// Serializes the report (plus optional QoR block) as `metrics.json`.
    ///
    /// The output always parses with [`crate::json::parse`]; non-finite
    /// floats become `null`.
    pub fn to_json(&self, qor: Option<&QorSummary>) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\n  \"schema\": \"");
        s.push_str(METRICS_SCHEMA);
        s.push_str("\",\n");
        if let Some(q) = qor {
            s.push_str("  \"design\": ");
            json::push_str_escaped(&mut s, &q.design);
            s.push_str(",\n  \"mode\": ");
            json::push_str_escaped(&mut s, &q.mode);
            s.push_str(",\n  \"qor\": {");
            let fields = [
                ("hpwl", q.hpwl),
                ("wns", q.wns),
                ("tns", q.tns),
                ("iterations", q.iterations as f64),
                ("runtime_s", q.runtime),
                ("timing_runtime_s", q.timing_runtime),
            ];
            for (i, (name, v)) in fields.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{name}\": ");
                json::push_f64(&mut s, *v);
            }
            s.push_str("},\n");
        }
        let _ = write!(s, "  \"sta_seconds\": ");
        json::push_f64(&mut s, self.sta_seconds);
        let _ = write!(s, ",\n  \"total_seconds\": ");
        json::push_f64(&mut s, self.total_seconds);
        s.push_str(",\n  \"phases\": [\n");
        for (i, r) in self.phases.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"phase\": \"{}\", \"seconds\": ",
                r.phase.name()
            );
            json::push_f64(&mut s, r.seconds);
            let _ = write!(s, ", \"calls\": {}}}", r.calls);
            s.push_str(if i + 1 < self.phases.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ],\n  \"counters\": {");
        for (i, (name, n)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{name}\": {n}");
        }
        s.push_str("},\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{name}\": ");
            json::push_f64(&mut s, *v);
        }
        s.push_str("}\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanTable;

    fn sample_report() -> Report {
        let mut t = SpanTable::default();
        t.add(Phase::StaForward, 1_000_000);
        t.add(Phase::WirelengthGrad, 2_000_000);
        let mut counters = [0u64; Counter::COUNT];
        counters[Counter::StaFull.index()] = 42;
        let mut gauges = [0f64; Gauge::COUNT];
        gauges[Gauge::FftBackend.index()] = 1.0;
        let slots: [PhaseSlot; Phase::COUNT] =
            std::array::from_fn(|i| t.slot(Phase::ALL[i]));
        Report::build(&slots, &counters, &gauges)
    }

    #[test]
    fn iter_record_is_one_valid_object_per_line() {
        let mut buf: Vec<u8> = Vec::new();
        let ev = IterEvent {
            iter: 3,
            wl: 123.5,
            hpwl: f64::NAN,
            overflow: 0.7,
            lambda: 1.5e-4,
            step: f64::NAN,
            wns: f64::NAN,
            tns: f64::NEG_INFINITY,
            timing: true,
        };
        let mut cd = [0u64; Counter::COUNT];
        cd[Counter::Iterations.index()] = 1;
        write_iter_record(&mut buf, &ev, &cd).unwrap();
        write_iter_record(&mut buf, &ev, &cd).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = crate::json::parse(line).expect("line parses");
            assert_eq!(v.get("t").unwrap().as_str(), Some("iter"));
            assert_eq!(v.get("iter").unwrap().as_f64(), Some(3.0));
            assert!(v.get("hpwl").unwrap().is_null());
            assert_eq!(v.get("lambda").unwrap().as_f64(), Some(1.5e-4));
            assert!(v.get("step").unwrap().is_null());
            assert!(v.get("wns").unwrap().is_null());
            assert!(v.get("tns").unwrap().is_null(), "-inf must serialize as null");
            assert_eq!(v.get("timing").unwrap().as_bool(), Some(true));
            assert_eq!(
                v.get("counters").unwrap().get("iterations").unwrap().as_f64(),
                Some(1.0)
            );
        }
        assert!(!text.contains("NaN"), "raw NaN token leaked into JSONL");
    }

    #[test]
    fn span_record_carries_only_nonzero_phases() {
        let mut buf: Vec<u8> = Vec::new();
        let mut ns = [0u64; Phase::COUNT];
        ns[Phase::DensityGrad.index()] = 55;
        write_span_record(&mut buf, 7, &ns).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let v = crate::json::parse(text.trim()).expect("line parses");
        assert_eq!(v.get("t").unwrap().as_str(), Some("span"));
        assert_eq!(v.get("iter").unwrap().as_f64(), Some(7.0));
        let phase_ns = v.get("phase_ns").unwrap();
        assert_eq!(phase_ns.get("density_grad").unwrap().as_f64(), Some(55.0));
        assert!(phase_ns.get("legalize").is_none(), "zero phase serialized");
    }

    #[test]
    fn metrics_json_parses_and_carries_qor() {
        let qor = QorSummary {
            design: "sb\"4".into(),
            mode: "Ours".into(),
            hpwl: 1.5e6,
            wns: -42.0,
            tns: f64::NAN,
            iterations: 300,
            runtime: 1.25,
            timing_runtime: 0.5,
        };
        let text = sample_report().to_json(Some(&qor));
        let v = crate::json::parse(&text).expect("metrics.json parses");
        assert_eq!(v.get("schema").unwrap().as_str(), Some(METRICS_SCHEMA));
        assert_eq!(v.get("design").unwrap().as_str(), Some("sb\"4"));
        let q = v.get("qor").unwrap();
        assert_eq!(q.get("wns").unwrap().as_f64(), Some(-42.0));
        assert!(q.get("tns").unwrap().is_null());
        let phases = v.get("phases").unwrap().as_array().unwrap();
        assert_eq!(phases.len(), Phase::COUNT);
        assert_eq!(
            v.get("counters").unwrap().get("sta_full").unwrap().as_f64(),
            Some(42.0)
        );
        assert_eq!(
            v.get("gauges").unwrap().get("fft_backend").unwrap().as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn phase_table_lists_only_active_phases() {
        let table = sample_report().table();
        assert!(table.contains("sta_forward"));
        assert!(table.contains("wirelength_grad"));
        assert!(!table.contains("legalize"), "zero-call phase listed:\n{table}");
        assert!(table.contains("sta_full"));
        assert!(table.contains("fft_backend"), "nonzero gauge missing:\n{table}");
        assert!(!table.contains("rsmt_class_gen_ms"), "zero gauge listed:\n{table}");
    }
}
