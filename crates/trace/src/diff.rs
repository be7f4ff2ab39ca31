//! Tolerance-aware trace comparison: golden-diff forensics.
//!
//! [`diff`] walks two parsed traces record-by-record and reports every
//! class of disagreement, most importantly the **first diverging iteration
//! and field** — the forensic anchor for "when did run B stop tracking
//! run A". Counters and structural fields are always compared exactly;
//! the floating-point convergence metrics go through [`Tolerances`] so the
//! same machinery serves both the zero-tolerance CI determinism gate and
//! loose cross-version drift checks.

use crate::Trace;
use dtp_obs::{Counter, TraceHeader, TraceIter};

/// Per-metric absolute/relative tolerances for [`diff`].
///
/// A pair of values `a`, `b` for field `f` matches when both are NaN, or
/// `|a - b| <= abs(f) + rel(f) * max(|a|, |b|)`. Fields without an entry in
/// `per_field` fall back to `default_abs`/`default_rel`.
#[derive(Clone, Debug)]
pub struct Tolerances {
    /// Fallback absolute tolerance for fields without a per-field entry.
    pub default_abs: f64,
    /// Fallback relative tolerance for fields without a per-field entry.
    pub default_rel: f64,
    /// `(field, abs, rel)` overrides; field names match the JSON keys of
    /// the iter record (`wl`, `hpwl`, `overflow`, `lambda`, `step`, `wns`,
    /// `tns`).
    pub per_field: Vec<(String, f64, f64)>,
}

impl Tolerances {
    /// Exact comparison: every metric must match bit-for-bit (NaN == NaN).
    /// This is what the CI determinism gate and `dtp trace replay` use.
    pub fn zero() -> Tolerances {
        Tolerances { default_abs: 0.0, default_rel: 0.0, per_field: Vec::new() }
    }

    /// The `(abs, rel)` pair in effect for `field`.
    pub fn for_field(&self, field: &str) -> (f64, f64) {
        for (name, abs, rel) in &self.per_field {
            if name == field {
                return (*abs, *rel);
            }
        }
        (self.default_abs, self.default_rel)
    }

    fn matches(&self, field: &str, a: f64, b: f64) -> bool {
        if a.is_nan() && b.is_nan() {
            return true;
        }
        if a.is_nan() || b.is_nan() {
            return false;
        }
        if a == b {
            return true; // covers ±inf == ±inf
        }
        let (abs, rel) = self.for_field(field);
        (a - b).abs() <= abs + rel * a.abs().max(b.abs())
    }
}

impl Default for Tolerances {
    fn default() -> Tolerances {
        Tolerances::zero()
    }
}

/// The first record-level disagreement [`diff`] found.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// 0-based index into the iter-record stream.
    pub index: usize,
    /// The `iter` field of the offending record (from trace A when records
    /// are missing in B).
    pub iter: u64,
    /// Which field diverged (`"wl"`, `"counters.sta_full"`, `"missing
    /// record"`, ...).
    pub field: String,
    /// Rendered value from trace A.
    pub a: String,
    /// Rendered value from trace B.
    pub b: String,
}

/// Everything [`diff`] learned about a pair of traces.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Semantic header mismatches (mode, seed, design fingerprint, config
    /// knobs). Any entry here makes the diff dirty: the runs were not
    /// configured identically, so iter-level divergence is expected.
    pub header_diffs: Vec<String>,
    /// Execution-environment header differences (thread counts, design
    /// source path). Informational only — they never make the diff dirty,
    /// because the determinism contract spans pool widths.
    pub notes: Vec<String>,
    /// The first iter-record disagreement, if any.
    pub first_divergence: Option<Divergence>,
    /// How many iter records were compared (the shorter stream's length).
    pub compared_iters: usize,
    /// How many metric values disagreed across all compared records
    /// (capped at the record where comparison stopped being useful — the
    /// full count, not just the first).
    pub mismatched_values: usize,
}

impl DiffReport {
    /// True when the traces agree: no semantic header diff and no iter
    /// divergence. Environment notes do not count.
    pub fn is_clean(&self) -> bool {
        self.header_diffs.is_empty() && self.first_divergence.is_none()
    }

    /// Multi-line human-readable rendering (what `dtp trace diff` prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.header_diffs {
            out.push_str("header: ");
            out.push_str(d);
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str("note: ");
            out.push_str(n);
            out.push('\n');
        }
        match &self.first_divergence {
            Some(d) => {
                out.push_str(&format!(
                    "first divergence at record {} (iter {}): {} — a={} b={}\n",
                    d.index, d.iter, d.field, d.a, d.b
                ));
                out.push_str(&format!(
                    "{} mismatched value(s) across {} compared iteration record(s)\n",
                    self.mismatched_values, self.compared_iters
                ));
            }
            None if self.header_diffs.is_empty() => {
                out.push_str(&format!(
                    "traces agree: {} iteration record(s) compared\n",
                    self.compared_iters
                ));
            }
            None => {}
        }
        out
    }
}

fn fmt_val(v: f64) -> String {
    format!("{v}")
}

fn header_diffs(a: &TraceHeader, b: &TraceHeader, report: &mut DiffReport) {
    let mut semantic = |field: &str, va: String, vb: String| {
        if va != vb {
            report.header_diffs.push(format!("{field}: a={va} b={vb}"));
        }
    };
    semantic("schema", a.schema.clone(), b.schema.clone());
    semantic("mode", a.mode.clone(), b.mode.clone());
    semantic("seed", a.seed.to_string(), b.seed.to_string());
    semantic("design", a.design.clone(), b.design.clone());
    semantic("cells", a.cells.to_string(), b.cells.to_string());
    semantic("nets", a.nets.to_string(), b.nets.to_string());
    semantic("pins", a.pins.to_string(), b.pins.to_string());
    semantic("region", format!("{:?}", a.region), format!("{:?}", b.region));
    semantic("clock_period", fmt_val(a.clock_period), fmt_val(b.clock_period));
    // Config knobs: keyed comparison so reordering (which the writers never
    // produce, but a hand-edited golden might) is still caught explicitly.
    for (key, va) in &a.config {
        if key == "threads" {
            continue;
        }
        match b.config.iter().find(|(k, _)| k == key) {
            Some((_, vb)) => {
                let (sa, sb) = (render(va), render(vb));
                if sa != sb {
                    report.header_diffs.push(format!("config.{key}: a={sa} b={sb}"));
                }
            }
            None => report.header_diffs.push(format!("config.{key}: missing in b")),
        }
    }
    for (key, _) in &b.config {
        if key != "threads" && !a.config.iter().any(|(k, _)| k == key) {
            report.header_diffs.push(format!("config.{key}: missing in a"));
        }
    }
    for (key, va) in &a.mode_config {
        match b.mode_config.iter().find(|(k, _)| k == key) {
            Some((_, vb)) => {
                let (sa, sb) = (render(va), render(vb));
                if sa != sb {
                    report.header_diffs.push(format!("mode_config.{key}: a={sa} b={sb}"));
                }
            }
            None => report.header_diffs.push(format!("mode_config.{key}: missing in b")),
        }
    }
    for (key, _) in &b.mode_config {
        if !a.mode_config.iter().any(|(k, _)| k == key) {
            report.header_diffs.push(format!("mode_config.{key}: missing in a"));
        }
    }
    // Environment identity: informational, never dirty.
    let mut note = |field: &str, va: String, vb: String| {
        if va != vb {
            report.notes.push(format!("{field} differs (a={va} b={vb}) — environment, ignored"));
        }
    };
    note("threads", a.threads.to_string(), b.threads.to_string());
    note("pool_threads", a.pool_threads.to_string(), b.pool_threads.to_string());
    note("host_threads", a.host_threads.to_string(), b.host_threads.to_string());
    note(
        "source",
        a.source.clone().unwrap_or_else(|| "null".to_string()),
        b.source.clone().unwrap_or_else(|| "null".to_string()),
    );
    let ta = a.config.iter().find(|(k, _)| k == "threads").map(|(_, v)| render(v));
    let tb = b.config.iter().find(|(k, _)| k == "threads").map(|(_, v)| render(v));
    note(
        "config.threads",
        ta.unwrap_or_else(|| "missing".to_string()),
        tb.unwrap_or_else(|| "missing".to_string()),
    );
}

fn render(v: &dtp_obs::json::Value) -> String {
    let mut s = String::new();
    v.push_json(&mut s);
    s
}

struct IterCmp<'t> {
    tol: &'t Tolerances,
    report: DiffReport,
}

impl IterCmp<'_> {
    fn record(&mut self, index: usize, a: &TraceIter, field: &str, va: String, vb: String) {
        self.report.mismatched_values += 1;
        if self.report.first_divergence.is_none() {
            self.report.first_divergence = Some(Divergence {
                index,
                iter: a.iter,
                field: field.to_string(),
                a: va,
                b: vb,
            });
        }
    }

    fn metric(&mut self, index: usize, a: &TraceIter, field: &str, va: f64, vb: f64) {
        if !self.tol.matches(field, va, vb) {
            self.record(index, a, field, fmt_val(va), fmt_val(vb));
        }
    }

    fn compare(&mut self, index: usize, a: &TraceIter, b: &TraceIter) {
        if a.iter != b.iter {
            self.record(index, a, "iter", a.iter.to_string(), b.iter.to_string());
        }
        if a.timing != b.timing {
            self.record(index, a, "timing", a.timing.to_string(), b.timing.to_string());
        }
        self.metric(index, a, "wl", a.wl, b.wl);
        self.metric(index, a, "hpwl", a.hpwl, b.hpwl);
        self.metric(index, a, "overflow", a.overflow, b.overflow);
        self.metric(index, a, "lambda", a.lambda, b.lambda);
        self.metric(index, a, "step", a.step, b.step);
        self.metric(index, a, "wns", a.wns, b.wns);
        self.metric(index, a, "tns", a.tns, b.tns);
        // Counters are discrete event counts: always exact, no tolerance.
        for c in Counter::ALL {
            let (ca, cb) = (a.counters[c.index()], b.counters[c.index()]);
            if ca != cb {
                let field = format!("counters.{}", c.name());
                self.record(index, a, &field, ca.to_string(), cb.to_string());
            }
        }
    }
}

/// Compares two traces under `tol`. Headers are compared semantically
/// (environment fields demoted to notes), then iter records pairwise in
/// stream order; span records carry wall-clock noise and are never
/// compared. A length mismatch past the shared prefix is itself a
/// divergence.
pub fn diff(a: &Trace, b: &Trace, tol: &Tolerances) -> DiffReport {
    let mut cmp = IterCmp { tol, report: DiffReport::default() };
    header_diffs(&a.header, &b.header, &mut cmp.report);
    let shared = a.iters.len().min(b.iters.len());
    cmp.report.compared_iters = shared;
    for i in 0..shared {
        cmp.compare(i, &a.iters[i], &b.iters[i]);
    }
    if a.iters.len() != b.iters.len() {
        let iter = if a.iters.len() > shared { a.iters[shared].iter } else { b.iters[shared].iter };
        cmp.report.mismatched_values += 1;
        if cmp.report.first_divergence.is_none() {
            cmp.report.first_divergence = Some(Divergence {
                index: shared,
                iter,
                field: "record count".to_string(),
                a: a.iters.len().to_string(),
                b: b.iters.len().to_string(),
            });
        }
    }
    cmp.report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample_trace;

    #[test]
    fn self_diff_is_clean_at_zero_tolerance() {
        let t = sample_trace(6);
        let r = diff(&t, &t, &Tolerances::zero());
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.compared_iters, 6);
        assert!(r.render().contains("traces agree"));
    }

    #[test]
    fn environment_differences_are_notes_not_divergence() {
        let a = sample_trace(3);
        let mut b = a.clone();
        b.header.pool_threads = 16;
        b.header.host_threads = 64;
        b.header.source = None;
        b.header.config[1].1 = dtp_obs::json::Value::Num(16.0);
        b.spans[0].phase_ns[0] = 42; // wall clock never compared
        let r = diff(&a, &b, &Tolerances::zero());
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.notes.len(), 4);
    }

    #[test]
    fn first_divergence_pinpoints_iteration_and_field() {
        let a = sample_trace(5);
        let mut b = a.clone();
        b.iters[3].overflow += 1e-9;
        b.iters[4].wl += 1.0;
        let r = diff(&a, &b, &Tolerances::zero());
        let d = r.first_divergence.expect("divergence detected");
        assert_eq!((d.index, d.iter, d.field.as_str()), (3, 3, "overflow"));
        assert_eq!(r.mismatched_values, 2);
        // A loose tolerance forgives the tiny overflow delta but not the
        // 1.0 wirelength jump.
        let loose = Tolerances {
            default_abs: 1e-6,
            default_rel: 0.0,
            per_field: vec![("wl".to_string(), 0.5, 0.0)],
        };
        let r = diff(&a, &b, &loose);
        let d = r.first_divergence.expect("wl still diverges");
        assert_eq!((d.index, d.field.as_str()), (4, "wl"));
    }

    #[test]
    fn nan_matches_nan_but_not_numbers() {
        let a = sample_trace(2);
        let mut b = a.clone();
        assert!(a.iters[1].hpwl.is_nan() && b.iters[1].hpwl.is_nan());
        let r = diff(&a, &b, &Tolerances::zero());
        assert!(r.is_clean());
        b.iters[1].hpwl = 123.0;
        let r = diff(&a, &b, &Tolerances::zero());
        assert_eq!(r.first_divergence.unwrap().field, "hpwl");
    }

    #[test]
    fn counters_are_exact_even_under_loose_tolerance() {
        let a = sample_trace(3);
        let mut b = a.clone();
        b.iters[2].counters[dtp_obs::Counter::StaFull.index()] = 9;
        let loose =
            Tolerances { default_abs: 1e9, default_rel: 1.0, per_field: Vec::new() };
        let r = diff(&a, &b, &loose);
        assert_eq!(r.first_divergence.unwrap().field, "counters.sta_full");
    }

    #[test]
    fn truncated_trace_reports_record_count() {
        let a = sample_trace(4);
        let mut b = a.clone();
        b.iters.pop();
        let r = diff(&a, &b, &Tolerances::zero());
        let d = r.first_divergence.unwrap();
        assert_eq!((d.index, d.field.as_str()), (3, "record count"));
        assert_eq!((d.a.as_str(), d.b.as_str()), ("4", "3"));
    }

    #[test]
    fn semantic_header_mismatch_is_dirty() {
        let a = sample_trace(2);
        let mut b = a.clone();
        b.header.seed = 8;
        b.header.mode_config[0].1 = dtp_obs::json::Value::Num(80.0);
        let r = diff(&a, &b, &Tolerances::zero());
        assert!(!r.is_clean());
        assert_eq!(r.header_diffs.len(), 2);
        assert!(r.render().contains("header: seed"));
        assert!(r.render().contains("header: mode_config.gamma"));
    }
}
