//! `dtp-trace` — forensics over the flow's schema-v3 JSONL flight recorder.
//!
//! The flow records its convergence behaviour (`dtp-obs` trace schema v3:
//! one header record, then per-iteration `iter`/`span` record pairs); this
//! crate reads those streams back and answers the questions the raw JSONL
//! cannot:
//!
//! * [`Trace::parse`] — strict, line-numbered parsing of a whole stream
//!   into a typed [`Trace`] (the `dtp trace validate` backend).
//! * [`diff`] — field-by-field comparison of two traces under per-metric
//!   absolute/relative [`Tolerances`], reporting the **first diverging
//!   iteration and field** (the `dtp trace diff` backend; its clean/dirty
//!   verdict drives the CI determinism gate).
//! * [`Trace::canonical_bytes`] — the byte-exact determinism fingerprint:
//!   the header (with execution-environment fields normalized away) plus
//!   every deterministic `iter` record, excluding the wall-clock `span`
//!   records. Two runs of the same config+seed must produce identical
//!   canonical bytes at any pool width; `dtp trace replay` asserts exactly
//!   this.
//! * [`report`] — a human-readable convergence summary: per-phase time
//!   table and windowed plateau/oscillation/divergence detection over the
//!   HPWL and overflow trajectories.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diff;
mod report;

pub use diff::{diff, DiffReport, Divergence, Tolerances};
pub use report::report;

use dtp_obs::json::Value;
use dtp_obs::{trace, TraceHeader, TraceIter, TraceRecord, TraceSpan};

/// A fully parsed v3 trace: the header plus all iteration records.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The run-identity header (first record of the stream).
    pub header: TraceHeader,
    /// Deterministic convergence records, in stream order.
    pub iters: Vec<TraceIter>,
    /// Wall-clock records, in stream order (parallel to `iters`).
    pub spans: Vec<TraceSpan>,
}

impl Trace {
    /// Parses a whole JSONL stream. Strict: the first record must be the
    /// header, exactly one header is allowed, every line must parse as a
    /// known record, and errors carry 1-based line numbers.
    ///
    /// # Errors
    ///
    /// Returns `"line N: <reason>"` for the first offending line, or a
    /// message about a missing header for structurally empty streams.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut header: Option<TraceHeader> = None;
        let mut iters = Vec::new();
        let mut spans = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let rec = trace::parse_record(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            match rec {
                TraceRecord::Header(h) => {
                    if header.is_some() {
                        return Err(format!("line {}: duplicate header record", i + 1));
                    }
                    if !iters.is_empty() || !spans.is_empty() {
                        return Err(format!(
                            "line {}: header record after iteration records",
                            i + 1
                        ));
                    }
                    header = Some(*h);
                }
                TraceRecord::Iter(rec) => {
                    if header.is_none() {
                        return Err(format!("line {}: iter record before header", i + 1));
                    }
                    iters.push(rec);
                }
                TraceRecord::Span(rec) => {
                    if header.is_none() {
                        return Err(format!("line {}: span record before header", i + 1));
                    }
                    spans.push(rec);
                }
            }
        }
        let header = header.ok_or_else(|| "trace has no header record".to_string())?;
        Ok(Trace { header, iters, spans })
    }

    /// The determinism fingerprint: the header re-serialized with the
    /// execution-environment identity erased — `threads`, `pool_threads`,
    /// `host_threads` zeroed (in the top-level fields *and* the config's
    /// `threads` knob) and `source` dropped — followed by every `iter`
    /// record, byte-exact. `span` records (wall-clock) are excluded.
    ///
    /// The flow's determinism contract promises bit-identical placement
    /// trajectories across pool widths, so two runs of the same config and
    /// seed must produce identical canonical bytes at *any* thread count —
    /// the golden tests and `dtp trace replay` compare exactly this.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut header = self.header.clone();
        header.threads = 0;
        header.pool_threads = 0;
        header.host_threads = 0;
        header.source = None;
        for (k, v) in header.config.iter_mut() {
            if k == "threads" {
                *v = Value::Num(0.0);
            }
        }
        let mut out = header.to_json_line().into_bytes();
        for it in &self.iters {
            it.write_jsonl(&mut out).expect("Vec<u8> writes are infallible");
        }
        out
    }

    /// Total per-phase nanoseconds across all span records, in
    /// [`dtp_obs::Phase::ALL`] order.
    pub fn phase_totals(&self) -> [u64; dtp_obs::Phase::COUNT] {
        let mut totals = [0u64; dtp_obs::Phase::COUNT];
        for sp in &self.spans {
            for (t, ns) in totals.iter_mut().zip(sp.phase_ns.iter()) {
                *t += ns;
            }
        }
        totals
    }

    /// Re-serializes the full trace (header + iter/span records) exactly as
    /// the flow would emit it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.header.to_json_line().into_bytes();
        let mut spans = self.spans.iter();
        for it in &self.iters {
            it.write_jsonl(&mut out).expect("Vec<u8> writes are infallible");
            if let Some(sp) = spans.next() {
                sp.write_jsonl(&mut out).expect("Vec<u8> writes are infallible");
            }
        }
        for sp in spans {
            sp.write_jsonl(&mut out).expect("Vec<u8> writes are infallible");
        }
        out
    }
}

#[cfg(test)]
pub(crate) fn sample_trace(iters: usize) -> Trace {
    use dtp_obs::Counter;
    let header = TraceHeader {
        schema: dtp_obs::TRACE_SCHEMA.to_string(),
        mode: "differentiable".to_string(),
        seed: 7,
        threads: 2,
        pool_threads: 2,
        host_threads: 8,
        design: "sbt".to_string(),
        cells: 100,
        nets: 90,
        pins: 300,
        region: [0.0, 0.0, 100.0, 100.0],
        clock_period: 5000.0,
        source: Some("sbt".to_string()),
        config: vec![
            ("max_iters".to_string(), Value::Num(iters as f64)),
            ("threads".to_string(), Value::Num(2.0)),
        ],
        mode_config: vec![("gamma".to_string(), Value::Num(100.0))],
    };
    let mut trace = Trace { header, iters: Vec::new(), spans: Vec::new() };
    for i in 0..iters {
        let mut counters = [0u64; Counter::COUNT];
        counters[Counter::Iterations.index()] = 1;
        trace.iters.push(TraceIter {
            iter: i as u64,
            wl: 1000.0 - i as f64,
            hpwl: if i % 10 == 0 { 900.0 - i as f64 } else { f64::NAN },
            overflow: 1.0 / (1.0 + i as f64),
            lambda: 1e-4 * 1.05f64.powi(i as i32),
            step: 5.0,
            wns: f64::NAN,
            tns: f64::NAN,
            timing: false,
            counters,
        });
        let mut phase_ns = [0u64; dtp_obs::Phase::COUNT];
        phase_ns[dtp_obs::Phase::WirelengthGrad.index()] = 1000 + i as u64;
        trace.spans.push(TraceSpan { iter: i as u64, phase_ns });
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_structural_errors() {
        let t = sample_trace(3);
        let text = String::from_utf8(t.to_bytes()).unwrap();
        // A valid stream parses.
        let parsed = Trace::parse(&text).expect("valid stream parses");
        assert_eq!(parsed.iters.len(), 3);
        assert_eq!(parsed.spans.len(), 3);
        // No header.
        let body: String = text.lines().skip(1).map(|l| format!("{l}\n")).collect();
        assert!(Trace::parse(&body).unwrap_err().contains("before header"));
        // Duplicate header.
        let twice = format!("{}{}", text.lines().next().unwrap(), format_args!("\n{text}"));
        assert!(Trace::parse(&twice).unwrap_err().contains("duplicate header"));
        // Garbage line gets a line number.
        let bad = format!("{text}not json\n");
        assert!(Trace::parse(&bad).unwrap_err().starts_with("line 8:"));
    }

    #[test]
    fn canonical_bytes_erase_environment_identity() {
        let t = sample_trace(2);
        let mut other = t.clone();
        other.header.pool_threads = 16;
        other.header.host_threads = 64;
        other.header.threads = 16;
        other.header.source = Some("elsewhere".to_string());
        other.header.config[1].1 = Value::Num(16.0);
        // Different wall-clock too: spans are excluded from canonical form.
        other.spans[0].phase_ns[0] = 999_999;
        assert_eq!(t.canonical_bytes(), other.canonical_bytes());
        // But a convergence difference shows.
        other.iters[1].wl += 0.5;
        assert_ne!(t.canonical_bytes(), other.canonical_bytes());
    }

    #[test]
    fn to_bytes_round_trips() {
        let t = sample_trace(4);
        let text = String::from_utf8(t.to_bytes()).unwrap();
        let back = Trace::parse(&text).unwrap();
        assert_eq!(back.to_bytes(), t.to_bytes());
        let totals = back.phase_totals();
        assert_eq!(
            totals[dtp_obs::Phase::WirelengthGrad.index()],
            (1000 + 1001 + 1002 + 1003) as u64
        );
    }
}
