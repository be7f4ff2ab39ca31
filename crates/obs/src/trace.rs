//! Trace schema v3: the typed record model of the JSONL flight recorder,
//! with a strict reader that every sink line round-trips through.
//!
//! A v3 trace is one JSONL stream of three record kinds, discriminated by
//! the `"t"` field:
//!
//! * **`header`** (exactly one, first line) — the run's identity: schema
//!   tag, flow mode, seed, configured/actual/host thread counts, the design
//!   fingerprint (name, cell/net/pin counts, region, clock period), the
//!   optional design-source spec for replay, and the full flow + mode
//!   configuration as generic key/value fields.
//! * **`iter`** (one per global-placement iteration) — the deterministic
//!   convergence record: wl/HPWL/overflow, λ, step length, WNS/TNS,
//!   timing-active flag, and per-counter deltas.
//!   For a fixed config and seed these lines are bit-for-bit identical
//!   across runs and pool widths.
//! * **`span`** (one per iteration, after its `iter` line) — the per-phase
//!   wall-clock nanoseconds. Spans are the only nondeterministic content,
//!   which is why they are separate records: determinism diffs skip them.
//!
//! Each record is one field table (`name: type as Kind` under its doc
//! comment, in line order); the struct, its line writer and its strict
//! reader are generated from the table ([`crate::schema`]), so a new field
//! is one row and the writer and the reader cannot disagree. The header's
//! execution-environment fields are named once, in [`ENVIRONMENT_PATHS`].
//!
//! Serialization notes: non-finite floats are `null` (read back as `NAN`);
//! `seed` is a JSON *string* so the full `u64` range survives the `f64`
//! number pipeline; counters/phase durations are JSON numbers and exact up
//! to 2^53 (per-iteration deltas in practice are far smaller). Re-writing a
//! parsed record with the same writers reproduces the input bytes. (v3 is v2
//! without the V-cycle `level` field; a v2 header is refused.)

use crate::counters::Counter;
use crate::json::{self, Value};
use crate::phase::Phase;
use crate::schema::{record, Count, Digits, Flag, Members, Number, Tally, Text};
use crate::sink::TRACE_SCHEMA;

record! {
    /// The run-identity record: first line of every v3 trace.
    #[derive(Clone, Debug, PartialEq)]
    pub struct TraceHeader = "header" {
        /// Schema tag ([`TRACE_SCHEMA`]).
        schema: String as Text,
        /// Canonical flow-mode name (e.g. `"differentiable"`).
        mode: String as Text,
        /// RNG seed of the run. A string on the line: u64 seeds above 2^53
        /// would lose bits through the f64 number pipeline.
        seed: u64 as Digits,
        /// Configured thread count (0 = inherit the host default).
        threads: u64 as Count,
        /// Actual worker-pool width the run executed with.
        pool_threads: u64 as Count,
        /// Hardware threads of the recording host.
        host_threads: u64 as Count,
        /// Design name.
        design: String as Text,
        /// Movable + fixed cell count.
        cells: u64 as Count,
        /// Net count.
        nets: u64 as Count,
        /// Pin count.
        pins: u64 as Count,
        /// Placement region `[xl, yl, xh, yh]`.
        region: [f64; 4] as Number,
        /// Clock period (ps).
        clock_period: f64 as Number,
        /// The design-source spec (CLI argument) when known; lets `replay`
        /// reload the design without a user-provided override.
        source: Option<String> as Text,
        /// The full `FlowConfig`, as ordered generic key/value fields.
        config: Vec<(String, Value)> as Members,
        /// Mode-specific configuration fields (empty for wirelength mode).
        mode_config: Vec<(String, Value)> as Members,
    }
}

/// The header fields that say where a run executed rather than what it
/// computed, as dotted paths into the header's object (`config.threads` is
/// the config's `threads` knob). The determinism contract spans pool widths
/// and design paths, so `dtp trace diff` reports a difference in one as a
/// note, never a divergence, and the canonical bytes of a trace erase them.
pub const ENVIRONMENT_PATHS: [&str; 5] =
    ["threads", "pool_threads", "host_threads", "source", "config.threads"];

record! {
    /// One deterministic per-iteration convergence record: the flow fills one
    /// per iteration, [`crate::Observer::iter_end`] adds its counter deltas and
    /// streams it, and the flow returns the ones at its exact-timing cadence as
    /// the Figure-8 trajectory.
    ///
    /// Everything on an `iter` line is bit-for-bit reproducible for a fixed
    /// config/seed (at any pool width); wall-clock goes on the companion
    /// `span` line ([`TraceSpan`]) so determinism checks can compare `iter`
    /// records byte-wise.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct TraceIter = "iter" {
        /// Iteration index.
        iter: u64 as Count,
        /// Smoothed (weighted-average) wirelength.
        wl: f64 as Number,
        /// Exact HPWL; `NAN` when not sampled this iteration.
        hpwl: f64 as Number,
        /// Density overflow.
        overflow: f64 as Number,
        /// Density-penalty multiplier λ used this iteration.
        lambda: f64 as Number,
        /// Nesterov step length; `NAN` when no step ran.
        step: f64 as Number,
        /// Exact WNS (ps); `NAN` when untraced.
        wns: f64 as Number,
        /// Exact TNS (ps); `NAN` when untraced.
        tns: f64 as Number,
        /// Whether timing-driven forces were active.
        timing: bool as Flag,
        /// Per-counter deltas for this iteration, in [`Counter::ALL`] order
        /// (the line holds the nonzero ones).
        counters: [u64; Counter::COUNT] as Tally<Counter>,
    }
}

record! {
    /// One per-iteration wall-clock record (nondeterministic content).
    ///
    /// Span records carry the only nondeterministic trace content
    /// (wall-clock), which is why they are separate lines: diff/replay skip
    /// them.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct TraceSpan = "span" {
        /// Iteration index the span belongs to.
        iter: u64 as Count,
        /// Per-phase nanoseconds, in [`Phase::ALL`] order (the line holds
        /// the phases that ran).
        phase_ns: [u64; Phase::COUNT] as Tally<Phase>,
    }
}

/// One parsed line of a v3 trace.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceRecord {
    /// The run-identity header (first line).
    Header(Box<TraceHeader>),
    /// A deterministic convergence record.
    Iter(TraceIter),
    /// A wall-clock record.
    Span(TraceSpan),
}

/// Parses one JSONL line into a typed [`TraceRecord`], strictly: required
/// fields must be present with the right types, counter/phase names must be
/// known, and the header schema tag must match [`TRACE_SCHEMA`].
///
/// # Errors
///
/// Returns a message naming the offending field; lines without a `"t"`
/// discriminator (the pre-v2 layout) get a version-specific hint.
pub fn parse_record(line: &str) -> Result<TraceRecord, String> {
    let v = json::parse(line)?;
    let (Value::Obj(members), Some(t)) = (&v, v.get("t")) else {
        return Err(
            "no `t` record discriminator (dtp-trace-v1 line? v1 traces are \
             not readable; re-record with this binary)"
                .into(),
        );
    };
    let t = t
        .as_str()
        .ok_or_else(|| "field `t` is not a string".to_string())?;
    match t {
        TraceHeader::TAG => {
            let header = TraceHeader::from_members(members)?;
            if header.schema != TRACE_SCHEMA {
                return Err(format!(
                    "unsupported trace schema `{}` (expected `{TRACE_SCHEMA}`)",
                    header.schema
                ));
            }
            Ok(TraceRecord::Header(Box::new(header)))
        }
        TraceIter::TAG => TraceIter::from_members(members).map(TraceRecord::Iter),
        TraceSpan::TAG => TraceSpan::from_members(members).map(TraceRecord::Span),
        other => Err(format!("unknown record type `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> TraceHeader {
        TraceHeader {
            schema: TRACE_SCHEMA.to_string(),
            mode: "differentiable".to_string(),
            seed: u64::MAX - 7, // above 2^53: exercises the string encoding
            threads: 0,
            pool_threads: 4,
            host_threads: 16,
            design: "sb\"1".to_string(),
            cells: 1200,
            nets: 1100,
            pins: 4000,
            region: [0.0, 0.0, 512.5, 512.5],
            clock_period: 5000.0,
            source: Some("sb1".to_string()),
            config: vec![
                ("max_iters".to_string(), Value::Num(300.0)),
                ("lambda_init".to_string(), Value::Num(8e-5)),
                ("legalizer".to_string(), Value::Str("abacus".to_string())),
                ("route_aware".to_string(), Value::Bool(false)),
            ],
            mode_config: vec![("gamma".to_string(), Value::Num(4.0))],
        }
    }

    #[test]
    fn header_round_trips_bytewise() {
        let h = sample_header();
        let line = h.to_json_line();
        // The bytes every recorded trace starts with: field order, integer
        // counts, the seed as a string, an escaped design name.
        assert_eq!(
            line,
            concat!(
                r#"{"t":"header","schema":"dtp-trace-v3","mode":"differentiable","#,
                r#""seed":"18446744073709551608","threads":0,"pool_threads":4,"#,
                r#""host_threads":16,"design":"sb\"1","cells":1200,"nets":1100,"#,
                r#""pins":4000,"region":[0,0,512.5,512.5],"clock_period":5000,"#,
                r#""source":"sb1","config":{"max_iters":300,"lambda_init":0.00008,"#,
                r#""legalizer":"abacus","route_aware":false},"mode_config":{"gamma":4}}"#,
                "\n"
            )
        );
        let rec = parse_record(line.trim_end()).expect("header parses");
        let TraceRecord::Header(parsed) = rec else {
            panic!("not a header record");
        };
        assert_eq!(*parsed, h);
        // Re-serialization reproduces the input bytes exactly.
        assert_eq!(parsed.to_json_line(), line);
    }

    #[test]
    fn header_with_null_source_round_trips() {
        let mut h = sample_header();
        h.source = None;
        let line = h.to_json_line();
        let TraceRecord::Header(parsed) = parse_record(line.trim_end()).unwrap() else {
            panic!("not a header record");
        };
        assert_eq!(parsed.source, None);
        assert_eq!(parsed.to_json_line(), line);
    }

    /// v2 records carried the V-cycle `level`; a v2 stream is refused at its
    /// header rather than half-read.
    #[test]
    fn a_v2_header_is_refused_as_an_unsupported_schema() {
        let mut h = sample_header();
        h.schema = "dtp-trace-v2".to_string();
        let err = parse_record(h.to_json_line().trim_end()).unwrap_err();
        assert_eq!(err, "unsupported trace schema `dtp-trace-v2` (expected `dtp-trace-v3`)");
    }

    #[test]
    fn iter_round_trips_bytewise_with_nans() {
        let mut counters = [0u64; Counter::COUNT];
        counters[Counter::TraceAnalyses.index()] = 3;
        counters[Counter::GeoDirtyNets.index()] = 250;
        counters[Counter::Iterations.index()] = 1;
        let rec = TraceIter {
            iter: 42,
            wl: 1.25e6,
            hpwl: f64::NAN,
            overflow: 0.41,
            lambda: 0.000325,
            step: 14.5,
            wns: -120.25,
            tns: f64::NEG_INFINITY,
            timing: false,
            counters,
        };
        let mut buf = Vec::new();
        rec.write_jsonl(&mut buf).unwrap();
        let line = String::from_utf8(buf).unwrap();
        // The bytes every recorded `iter` line has: field order, NaN and -inf
        // as `null`, the counters that did not move left out and the others
        // in slot order, whatever order they were set in.
        assert_eq!(
            line,
            concat!(
                r#"{"t":"iter","iter":42,"wl":1250000,"hpwl":null,"overflow":0.41,"#,
                r#""lambda":0.000325,"step":14.5,"wns":-120.25,"tns":null,"timing":false,"#,
                r#""counters":{"iterations":1,"geo_dirty_nets":250,"trace_analyses":3}}"#,
                "\n"
            )
        );
        let TraceRecord::Iter(parsed) = parse_record(line.trim_end()).unwrap() else {
            panic!("not an iter record");
        };
        // NAN != NAN, so compare through the serialized form.
        let mut buf2 = Vec::new();
        parsed.write_jsonl(&mut buf2).unwrap();
        assert_eq!(String::from_utf8(buf2).unwrap(), line);
        assert!(parsed.hpwl.is_nan());
        assert_eq!(parsed.counters, counters);
    }

    #[test]
    fn span_round_trips_bytewise() {
        let mut phase_ns = [0u64; Phase::COUNT];
        phase_ns[Phase::Write.index()] = 40;
        phase_ns[Phase::Legalize.index()] = 9;
        phase_ns[Phase::WirelengthGrad.index()] = 123_456;
        let rec = TraceSpan { iter: 7, phase_ns };
        let mut buf = Vec::new();
        rec.write_jsonl(&mut buf).unwrap();
        let line = String::from_utf8(buf).unwrap();
        // Phases that did not run are left out; the others are in slot order.
        assert_eq!(
            line,
            concat!(
                r#"{"t":"span","iter":7,"phase_ns":{"wirelength_grad":123456,"legalize":9,"#,
                r#""write":40}}"#,
                "\n"
            )
        );
        let TraceRecord::Span(parsed) = parse_record(line.trim_end()).unwrap() else {
            panic!("not a span record");
        };
        assert_eq!(parsed, rec);
        let mut buf2 = Vec::new();
        parsed.write_jsonl(&mut buf2).unwrap();
        assert_eq!(String::from_utf8(buf2).unwrap(), line);
    }

    #[test]
    fn iter_record_is_one_valid_object_per_line() {
        let mut buf: Vec<u8> = Vec::new();
        let mut counters = [0u64; Counter::COUNT];
        counters[Counter::Iterations.index()] = 1;
        let rec = TraceIter {
            iter: 3,
            wl: 123.5,
            hpwl: f64::NAN,
            overflow: 0.7,
            lambda: 1.5e-4,
            step: f64::NAN,
            wns: f64::NAN,
            tns: f64::NEG_INFINITY,
            timing: true,
            counters,
        };
        rec.write_jsonl(&mut buf).unwrap();
        rec.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = json::parse(line).expect("line parses");
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
        let mut phase_ns = [0u64; Phase::COUNT];
        phase_ns[Phase::DensityGrad.index()] = 55;
        TraceSpan { iter: 7, phase_ns }.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let v = json::parse(text.trim()).expect("line parses");
        assert_eq!(v.get("t").unwrap().as_str(), Some("span"));
        assert_eq!(v.get("iter").unwrap().as_f64(), Some(7.0));
        let phase_ns = v.get("phase_ns").unwrap();
        assert_eq!(phase_ns.get("density_grad").unwrap().as_f64(), Some(55.0));
        assert!(phase_ns.get("legalize").is_none(), "zero phase serialized");
    }

    #[test]
    fn reader_rejects_malformed_records() {
        // v1 line: no `t` discriminator.
        let err = parse_record(r#"{"iter":0,"wl":1.0}"#).unwrap_err();
        assert!(err.contains("v1"), "unhelpful v1 error: {err}");
        // Unknown record type.
        assert!(parse_record(r#"{"t":"frame"}"#).is_err());
        // Unknown counter name.
        assert!(parse_record(
            r#"{"t":"iter","iter":0,"wl":1,"hpwl":null,"overflow":1,"lambda":1,"step":null,"wns":null,"tns":null,"timing":false,"counters":{"bogus":1}}"#
        )
        .is_err());
        // Missing required field (no overflow).
        assert!(parse_record(
            r#"{"t":"iter","iter":0,"wl":1,"hpwl":null,"lambda":1,"step":null,"wns":null,"tns":null,"timing":false,"counters":{}}"#
        )
        .is_err());
        // Wrong schema tag.
        assert!(parse_record(
            r#"{"t":"header","schema":"dtp-trace-v1","mode":"x","seed":"0","threads":0,"pool_threads":1,"host_threads":1,"design":"d","cells":1,"nets":1,"pins":1,"region":[0,0,1,1],"clock_period":1,"source":null,"config":{},"mode_config":{}}"#
        )
        .is_err());
        // Negative counter.
        assert!(parse_record(
            r#"{"t":"span","iter":0,"phase_ns":{"legalize":-5}}"#
        )
        .is_err());
    }
}
