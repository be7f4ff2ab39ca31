//! Structured sinks: the in-memory JSONL sink, the end-of-run
//! `metrics.json` report, and the human-readable phase table.
//!
//! The JSONL records themselves are written by the record types of
//! [`crate::trace`], allocation-free per iteration. The report builders run
//! once at end-of-run and allocate freely.

use crate::counters::{Counter, Gauge};
use crate::json;
use crate::phase::Phase;
use crate::span::PhaseSlot;
use std::fmt::Write as FmtWrite;
use std::io::{self, Write};
use std::sync::{Arc, Mutex, PoisonError};

/// Identifies the `metrics.json` layout; bump on breaking shape changes.
pub const METRICS_SCHEMA: &str = "dtp-metrics-v1";

/// Identifies the JSONL trace layout (one header record, then per-iteration
/// `iter`/`span` record pairs).
pub const TRACE_SCHEMA: &str = "dtp-trace-v3";

/// An in-memory trace sink: clones share one buffer, so a caller keeps a
/// clone, hands the observer another ([`crate::Observer::set_trace_writer`])
/// and reads the stream back with [`MemorySink::take`].
#[derive(Clone, Debug, Default)]
pub struct MemorySink(Arc<Mutex<Vec<u8>>>);

impl MemorySink {
    /// Takes every byte written so far, leaving the buffer empty.
    pub fn take(&self) -> Vec<u8> {
        std::mem::take(&mut *self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl Write for MemorySink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
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
        // Phases that ran side by side both count their busy time: the
        // overlap is the part of the total that is not wall time.
        let overlap_ms = self.gauges[Gauge::OverlapMs.index()].1;
        if overlap_ms > 0.0 && self.total_seconds > 0.0 {
            let overlap = overlap_ms * 1e-3;
            let share = 100.0 * overlap / self.total_seconds;
            let _ = writeln!(out, "  {:<16} {:>10.4} {:>9} {:>6.1}%", "overlapped", overlap, "", share);
        }
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
        assert!(!table.contains("overlapped"), "no overlap to report:\n{table}");
    }

    #[test]
    fn phase_table_says_how_much_of_its_total_overlapped() {
        let mut r = sample_report();
        // 0.75 ms of the 3 ms of phase time ran beside other phases.
        r.gauges[Gauge::OverlapMs.index()].1 = 0.75;
        let table = r.table();
        let line = table.lines().find(|l| l.contains("overlapped")).expect("footer line");
        assert!(line.contains("0.0008") && line.contains("25.0%"), "{line}");
    }
}
