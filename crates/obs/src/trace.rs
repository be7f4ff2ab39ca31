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
use crate::sink::TRACE_SCHEMA;
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

/// One deterministic per-iteration convergence record: the flow fills one
/// per iteration, [`crate::Observer::iter_end`] adds its counter deltas and
/// streams it, and the flow returns the ones at its exact-timing cadence as
/// the Figure-8 trajectory.
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
    /// The header as the JSON object its line holds.
    pub fn to_value(&self) -> Value {
        let field = |k: &str, v: Value| (k.to_string(), v);
        let text = |s: &str| Value::Str(s.to_string());
        // Counts stay exact through `f64` far beyond any design's size.
        let count = |n: u64| Value::Num(n as f64);
        Value::Obj(vec![
            field("t", text("header")),
            field("schema", text(&self.schema)),
            field("mode", text(&self.mode)),
            // Seed as a string: u64 seeds above 2^53 would lose bits through
            // the f64 number pipeline.
            field("seed", Value::Str(self.seed.to_string())),
            field("threads", count(self.threads)),
            field("pool_threads", count(self.pool_threads)),
            field("host_threads", count(self.host_threads)),
            field("design", text(&self.design)),
            field("cells", count(self.cells)),
            field("nets", count(self.nets)),
            field("pins", count(self.pins)),
            field("region", Value::Arr(self.region.iter().map(|&v| Value::Num(v)).collect())),
            field("clock_period", Value::Num(self.clock_period)),
            field("source", self.source.as_deref().map_or(Value::Null, text)),
            field("config", Value::Obj(self.config.clone())),
            field("mode_config", Value::Obj(self.mode_config.clone())),
        ])
    }

    /// Serializes the header as its one-line JSON record (plus newline).
    /// Allocates (headers are written once per run, not per iteration).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(512);
        self.to_value().push_json(&mut s);
        s.push('\n');
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
    /// Writes this record as its `iter` line: the iteration's deterministic
    /// convergence fields plus its nonzero counter deltas. One valid JSON
    /// object per line, `NAN`/infinities as `null`, no heap allocation.
    ///
    /// Everything on an `iter` line is bit-for-bit reproducible for a fixed
    /// config/seed (at any pool width); wall-clock goes on the companion
    /// `span` line ([`TraceSpan::write_jsonl`]) so determinism checks can
    /// compare `iter` records byte-wise.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl(&self, w: &mut dyn Write) -> io::Result<()> {
        write!(w, "{{\"t\":\"iter\",\"iter\":{},\"wl\":", self.iter)?;
        json::write_f64(w, self.wl)?;
        w.write_all(b",\"hpwl\":")?;
        json::write_f64(w, self.hpwl)?;
        w.write_all(b",\"overflow\":")?;
        json::write_f64(w, self.overflow)?;
        w.write_all(b",\"lambda\":")?;
        json::write_f64(w, self.lambda)?;
        w.write_all(b",\"step\":")?;
        json::write_f64(w, self.step)?;
        w.write_all(b",\"wns\":")?;
        json::write_f64(w, self.wns)?;
        w.write_all(b",\"tns\":")?;
        json::write_f64(w, self.tns)?;
        write!(w, ",\"timing\":{},\"counters\":{{", self.timing)?;
        let mut first = true;
        for c in Counter::ALL {
            let n = self.counters[c.index()];
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
}

impl TraceSpan {
    /// Writes this record as its `span` line: the iteration's nonzero
    /// per-phase nanoseconds. One valid JSON object per line, no heap
    /// allocation.
    ///
    /// Span records carry the only nondeterministic trace content
    /// (wall-clock), which is why they are separate lines: diff/replay skip
    /// them.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl(&self, w: &mut dyn Write) -> io::Result<()> {
        write!(w, "{{\"t\":\"span\",\"iter\":{},\"phase_ns\":{{", self.iter)?;
        let mut first = true;
        for p in Phase::ALL {
            let ns = self.phase_ns[p.index()];
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
