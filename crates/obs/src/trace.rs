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
//! Serialization notes: non-finite floats are `null` (read back as `NAN`);
//! `seed` is a JSON *string* so the full `u64` range survives the `f64`
//! number pipeline; counters/phase durations are JSON numbers and exact up
//! to 2^53 (per-iteration deltas in practice are far smaller). Re-writing a
//! parsed record with the same writers reproduces the input bytes. (v3 is v2
//! without the V-cycle `level` field; a v2 header is refused.)

use crate::counters::Counter;
use crate::json::{self, Value};
use crate::phase::Phase;
use crate::sink::{write_iter_record, write_span_record, IterEvent, TRACE_SCHEMA};
use std::io::{self, Write};

/// The run-identity record: first line of every v3 trace.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceHeader {
    /// Schema tag ([`TRACE_SCHEMA`]).
    pub schema: String,
    /// Canonical flow-mode name (e.g. `"differentiable"`).
    pub mode: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Configured thread count (0 = inherit the host default).
    pub threads: u64,
    /// Actual worker-pool width the run executed with.
    pub pool_threads: u64,
    /// Hardware threads of the recording host.
    pub host_threads: u64,
    /// Design name.
    pub design: String,
    /// Movable + fixed cell count.
    pub cells: u64,
    /// Net count.
    pub nets: u64,
    /// Pin count.
    pub pins: u64,
    /// Placement region `[xl, yl, xh, yh]`.
    pub region: [f64; 4],
    /// Clock period (ps).
    pub clock_period: f64,
    /// The design-source spec (CLI argument) when known; lets `replay`
    /// reload the design without a user-provided override.
    pub source: Option<String>,
    /// The full `FlowConfig`, as ordered generic key/value fields.
    pub config: Vec<(String, Value)>,
    /// Mode-specific configuration fields (empty for wirelength mode).
    pub mode_config: Vec<(String, Value)>,
}

/// One deterministic per-iteration convergence record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceIter {
    /// Iteration index.
    pub iter: u64,
    /// Smoothed (weighted-average) wirelength.
    pub wl: f64,
    /// Exact HPWL; `NAN` when not sampled this iteration.
    pub hpwl: f64,
    /// Density overflow.
    pub overflow: f64,
    /// Density-penalty multiplier λ used this iteration.
    pub lambda: f64,
    /// Nesterov step length; `NAN` when no step ran.
    pub step: f64,
    /// Exact WNS (ps); `NAN` when untraced.
    pub wns: f64,
    /// Exact TNS (ps); `NAN` when untraced.
    pub tns: f64,
    /// Whether timing-driven forces were active.
    pub timing: bool,
    /// Per-counter deltas for this iteration, in [`Counter::ALL`] order.
    pub counters: [u64; Counter::COUNT],
}

/// One per-iteration wall-clock record (nondeterministic content).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceSpan {
    /// Iteration index the span belongs to.
    pub iter: u64,
    /// Per-phase nanoseconds, in [`Phase::ALL`] order.
    pub phase_ns: [u64; Phase::COUNT],
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

impl TraceHeader {
    /// Serializes the header as its one-line JSON record (plus newline).
    /// Allocates (headers are written once per run, not per iteration).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str("{\"t\":\"header\",\"schema\":");
        json::push_str_escaped(&mut s, &self.schema);
        s.push_str(",\"mode\":");
        json::push_str_escaped(&mut s, &self.mode);
        // Seed as a string: u64 seeds above 2^53 would lose bits through
        // the f64 number pipeline.
        s.push_str(",\"seed\":");
        json::push_str_escaped(&mut s, &self.seed.to_string());
        use std::fmt::Write as _;
        let _ = write!(
            s,
            ",\"threads\":{},\"pool_threads\":{},\"host_threads\":{}",
            self.threads, self.pool_threads, self.host_threads
        );
        s.push_str(",\"design\":");
        json::push_str_escaped(&mut s, &self.design);
        let _ = write!(
            s,
            ",\"cells\":{},\"nets\":{},\"pins\":{},\"region\":[",
            self.cells, self.nets, self.pins
        );
        for (i, v) in self.region.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json::push_f64(&mut s, *v);
        }
        s.push_str("],\"clock_period\":");
        json::push_f64(&mut s, self.clock_period);
        s.push_str(",\"source\":");
        match &self.source {
            Some(src) => json::push_str_escaped(&mut s, src),
            None => s.push_str("null"),
        }
        s.push_str(",\"config\":");
        Value::Obj(self.config.clone()).push_json(&mut s);
        s.push_str(",\"mode_config\":");
        Value::Obj(self.mode_config.clone()).push_json(&mut s);
        s.push_str("}\n");
        s
    }

    /// Writes the header record to `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl(&self, w: &mut dyn Write) -> io::Result<()> {
        w.write_all(self.to_json_line().as_bytes())
    }
}

impl TraceIter {
    /// Re-serializes this record through [`write_iter_record`] (the byte
    /// representation the flow itself emits).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl(&self, w: &mut dyn Write) -> io::Result<()> {
        let ev = IterEvent {
            iter: self.iter,
            wl: self.wl,
            hpwl: self.hpwl,
            overflow: self.overflow,
            lambda: self.lambda,
            step: self.step,
            wns: self.wns,
            tns: self.tns,
            timing: self.timing,
        };
        write_iter_record(w, &ev, &self.counters)
    }
}

impl TraceSpan {
    /// Re-serializes this record through [`write_span_record`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl(&self, w: &mut dyn Write) -> io::Result<()> {
        write_span_record(w, self.iter, &self.phase_ns)
    }
}

fn req<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn req_u64(v: &Value, key: &str) -> Result<u64, String> {
    let n = req(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field `{key}` is not a number"))?;
    if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
        return Err(format!("field `{key}` is not a non-negative integer"));
    }
    Ok(n as u64)
}

/// Number-or-null: `null` reads back as the in-memory `NAN` sentinel.
fn req_f64_or_null(v: &Value, key: &str) -> Result<f64, String> {
    let field = req(v, key)?;
    if field.is_null() {
        return Ok(f64::NAN);
    }
    field
        .as_f64()
        .ok_or_else(|| format!("field `{key}` is not a number or null"))
}

fn req_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    req(v, key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` is not a string"))
}

fn req_bool(v: &Value, key: &str) -> Result<bool, String> {
    req(v, key)?
        .as_bool()
        .ok_or_else(|| format!("field `{key}` is not a boolean"))
}

fn obj_fields<'a>(v: &'a Value, key: &str) -> Result<&'a [(String, Value)], String> {
    match req(v, key)? {
        Value::Obj(members) => Ok(members),
        _ => Err(format!("field `{key}` is not an object")),
    }
}

fn parse_header(v: &Value) -> Result<TraceHeader, String> {
    let schema = req_str(v, "schema")?;
    if schema != TRACE_SCHEMA {
        return Err(format!(
            "unsupported trace schema `{schema}` (expected `{TRACE_SCHEMA}`)"
        ));
    }
    let seed: u64 = req_str(v, "seed")?
        .parse()
        .map_err(|_| "field `seed` is not a u64 string".to_string())?;
    let region_v = req(v, "region")?
        .as_array()
        .ok_or_else(|| "field `region` is not an array".to_string())?;
    if region_v.len() != 4 {
        return Err("field `region` must have 4 elements".into());
    }
    let mut region = [0.0; 4];
    for (slot, item) in region.iter_mut().zip(region_v) {
        *slot = item
            .as_f64()
            .ok_or_else(|| "field `region` has a non-number element".to_string())?;
    }
    let source = match req(v, "source")? {
        Value::Null => None,
        Value::Str(s) => Some(s.clone()),
        _ => return Err("field `source` is not a string or null".into()),
    };
    Ok(TraceHeader {
        schema: schema.to_string(),
        mode: req_str(v, "mode")?.to_string(),
        seed,
        threads: req_u64(v, "threads")?,
        pool_threads: req_u64(v, "pool_threads")?,
        host_threads: req_u64(v, "host_threads")?,
        design: req_str(v, "design")?.to_string(),
        cells: req_u64(v, "cells")?,
        nets: req_u64(v, "nets")?,
        pins: req_u64(v, "pins")?,
        region,
        clock_period: req_f64_or_null(v, "clock_period")?,
        source,
        config: obj_fields(v, "config")?.to_vec(),
        mode_config: obj_fields(v, "mode_config")?.to_vec(),
    })
}

fn parse_iter(v: &Value) -> Result<TraceIter, String> {
    let mut counters = [0u64; Counter::COUNT];
    for (name, n) in obj_fields(v, "counters")? {
        let c = Counter::from_name(name)
            .ok_or_else(|| format!("unknown counter `{name}`"))?;
        let n = n
            .as_f64()
            .ok_or_else(|| format!("counter `{name}` is not a number"))?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!("counter `{name}` is not a non-negative integer"));
        }
        counters[c.index()] = n as u64;
    }
    Ok(TraceIter {
        iter: req_u64(v, "iter")?,
        wl: req_f64_or_null(v, "wl")?,
        hpwl: req_f64_or_null(v, "hpwl")?,
        overflow: req_f64_or_null(v, "overflow")?,
        lambda: req_f64_or_null(v, "lambda")?,
        step: req_f64_or_null(v, "step")?,
        wns: req_f64_or_null(v, "wns")?,
        tns: req_f64_or_null(v, "tns")?,
        timing: req_bool(v, "timing")?,
        counters,
    })
}

fn parse_span(v: &Value) -> Result<TraceSpan, String> {
    let mut phase_ns = [0u64; Phase::COUNT];
    for (name, n) in obj_fields(v, "phase_ns")? {
        let p = Phase::from_name(name).ok_or_else(|| format!("unknown phase `{name}`"))?;
        let n = n
            .as_f64()
            .ok_or_else(|| format!("phase `{name}` is not a number"))?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!("phase `{name}` is not a non-negative integer"));
        }
        phase_ns[p.index()] = n as u64;
    }
    Ok(TraceSpan { iter: req_u64(v, "iter")?, phase_ns })
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
    let t = match v.get("t") {
        Some(t) => t
            .as_str()
            .ok_or_else(|| "field `t` is not a string".to_string())?,
        None => {
            return Err(
                "no `t` record discriminator (dtp-trace-v1 line? v1 traces are \
                 not readable; re-record with this binary)"
                    .into(),
            )
        }
    };
    match t {
        "header" => parse_header(&v).map(|h| TraceRecord::Header(Box::new(h))),
        "iter" => parse_iter(&v).map(TraceRecord::Iter),
        "span" => parse_span(&v).map(TraceRecord::Span),
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
        counters[Counter::Iterations.index()] = 1;
        counters[Counter::GeoDirtyNets.index()] = 250;
        let rec = TraceIter {
            iter: 42,
            wl: 1.25e6,
            hpwl: f64::NAN,
            overflow: 0.41,
            lambda: 0.000325,
            step: 14.5,
            wns: -120.25,
            tns: f64::NAN,
            timing: false,
            counters,
        };
        let mut buf = Vec::new();
        rec.write_jsonl(&mut buf).unwrap();
        let line = String::from_utf8(buf).unwrap();
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
        phase_ns[Phase::WirelengthGrad.index()] = 123_456;
        phase_ns[Phase::Legalize.index()] = 9;
        let rec = TraceSpan { iter: 7, phase_ns };
        let mut buf = Vec::new();
        rec.write_jsonl(&mut buf).unwrap();
        let line = String::from_utf8(buf).unwrap();
        let TraceRecord::Span(parsed) = parse_record(line.trim_end()).unwrap() else {
            panic!("not a span record");
        };
        assert_eq!(parsed, rec);
        let mut buf2 = Vec::new();
        parsed.write_jsonl(&mut buf2).unwrap();
        assert_eq!(String::from_utf8(buf2).unwrap(), line);
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
