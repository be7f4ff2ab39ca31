//! Exact trace comparison: golden-diff forensics.
//!
//! [`diff`] walks two parsed traces record-by-record and reports every
//! class of disagreement, most importantly the **first diverging iteration
//! and field** — the forensic anchor for "when did run B stop tracking
//! run A". Records are compared as the JSON objects their lines hold, leaf
//! by leaf and by their written text, so every field a record writes is
//! compared without this module naming it: a sample the iteration did not
//! take is `null` in both traces, and a counter only one side moved is
//! `missing` on the other.

use crate::Trace;
use dtp_obs::json::Value;
use dtp_obs::trace::ENVIRONMENT_PATHS;

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

/// The JSON text of a leaf, or `missing` when one side lacks the member.
fn text(v: Option<&Value>) -> String {
    v.map_or_else(|| "missing".to_string(), |v| {
        let mut s = String::new();
        v.push_json(&mut s);
        s
    })
}

/// Pushes `(dotted path, a, b)` for every leaf whose JSON text differs
/// between `a` and `b`: objects are walked member by member (`a`'s members
/// in order, then those only `b` has), anything else is a leaf.
fn leaf_diffs(
    path: &str,
    a: Option<&Value>,
    b: Option<&Value>,
    out: &mut Vec<(String, String, String)>,
) {
    if let (Some(oa @ Value::Obj(ma)), Some(ob @ Value::Obj(mb))) = (a, b) {
        let child =
            |key: &str| if path.is_empty() { key.to_string() } else { format!("{path}.{key}") };
        for (key, va) in ma {
            leaf_diffs(&child(key), Some(va), ob.get(key), out);
        }
        for (key, vb) in mb.iter().filter(|(k, _)| oa.get(k).is_none()) {
            leaf_diffs(&child(key), None, Some(vb), out);
        }
        return;
    }
    let (ta, tb) = (text(a), text(b));
    if ta != tb {
        out.push((path.to_string(), ta, tb));
    }
}

/// Compares two traces exactly. Headers are compared as JSON objects (the
/// execution-environment fields, [`ENVIRONMENT_PATHS`], demoted to notes),
/// then iter records pairwise in stream order: by their written bytes, and
/// leaf by leaf where those differ. Span records carry wall-clock
/// noise and are never compared. A length mismatch past the shared prefix is
/// itself a divergence.
pub fn diff(a: &Trace, b: &Trace) -> DiffReport {
    let mut report = DiffReport::default();
    let mut leaves = Vec::new();
    leaf_diffs("", Some(&a.header.to_value()), Some(&b.header.to_value()), &mut leaves);
    for (field, va, vb) in leaves {
        if ENVIRONMENT_PATHS.contains(&field.as_str()) {
            report.notes.push(format!("{field} differs (a={va} b={vb}) — environment, ignored"));
        } else {
            report.header_diffs.push(format!("{field}: a={va} b={vb}"));
        }
    }
    let shared = a.iters.len().min(b.iters.len());
    report.compared_iters = shared;
    for (index, (ra, rb)) in a.iters.iter().zip(&b.iters).enumerate() {
        if ra.to_json_line() == rb.to_json_line() {
            continue;
        }
        let mut leaves = Vec::new();
        leaf_diffs("", Some(&ra.to_value()), Some(&rb.to_value()), &mut leaves);
        report.mismatched_values += leaves.len();
        if report.first_divergence.is_none() {
            report.first_divergence = leaves
                .into_iter()
                .next()
                .map(|(field, a, b)| Divergence { index, iter: ra.iter, field, a, b });
        }
    }
    if a.iters.len() != b.iters.len() {
        let iter = if a.iters.len() > shared { a.iters[shared].iter } else { b.iters[shared].iter };
        report.mismatched_values += 1;
        if report.first_divergence.is_none() {
            report.first_divergence = Some(Divergence {
                index: shared,
                iter,
                field: "record count".to_string(),
                a: a.iters.len().to_string(),
                b: b.iters.len().to_string(),
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample_trace;
    use dtp_obs::{trace, TraceHeader, TraceRecord};

    #[test]
    fn self_diff_is_clean_at_zero_tolerance() {
        let t = sample_trace(6);
        let r = diff(&t, &t);
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
        let r = diff(&a, &b);
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.notes.len(), 4);
    }

    #[test]
    fn first_divergence_pinpoints_iteration_and_field() {
        let a = sample_trace(5);
        let mut b = a.clone();
        b.iters[3].overflow += 1e-9;
        b.iters[4].wl += 1.0;
        let r = diff(&a, &b);
        let d = r.first_divergence.expect("divergence detected");
        assert_eq!((d.index, d.iter, d.field.as_str()), (3, 3, "overflow"));
        assert_eq!(r.mismatched_values, 2);
        // A counter is a field like any other.
        let mut c = a.clone();
        c.iters[2].counters[dtp_obs::Counter::StaFull.index()] = 9;
        let d = diff(&a, &c).first_divergence.expect("counter divergence detected");
        assert_eq!((d.index, d.field.as_str()), (2, "counters.sta_full"));
    }

    #[test]
    fn nan_matches_nan_but_not_numbers() {
        let a = sample_trace(2);
        let mut b = a.clone();
        assert!(a.iters[1].hpwl.is_nan() && b.iters[1].hpwl.is_nan());
        let r = diff(&a, &b);
        assert!(r.is_clean());
        b.iters[1].hpwl = 123.0;
        let r = diff(&a, &b);
        assert_eq!(r.first_divergence.unwrap().field, "hpwl");
    }

    #[test]
    fn truncated_trace_reports_record_count() {
        let a = sample_trace(4);
        let mut b = a.clone();
        b.iters.pop();
        let r = diff(&a, &b);
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
        let r = diff(&a, &b);
        assert!(!r.is_clean());
        assert_eq!(r.header_diffs.len(), 2);
        assert!(r.render().contains("header: seed"));
        assert!(r.render().contains("header: mode_config.gamma"));
    }

    /// Every leaf an `iter` line holds, perturbed one at a time through the
    /// line itself, is exactly one divergence naming that leaf: the diff
    /// has no blind field, including one added to the record later.
    #[test]
    fn every_perturbed_iter_field_is_one_divergence() {
        let a = sample_trace(4);
        let Value::Obj(members) = a.iters[2].to_value() else {
            panic!("an iter line holds an object");
        };
        let bump = |v: &Value| match v {
            Value::Null => Value::Num(1.0),
            Value::Num(x) => Value::Num(x + 1.0),
            Value::Bool(b) => Value::Bool(!b),
            other => panic!("no iter leaf is written as {other:?}"),
        };
        // (dotted path, the record with that one leaf perturbed); `t` is the
        // record kind, not a field.
        let mut cases = Vec::new();
        for (i, (key, v)) in members.iter().enumerate().skip(1) {
            let Value::Obj(inner) = v else {
                let mut m = members.clone();
                m[i].1 = bump(v);
                cases.push((key.clone(), m));
                continue;
            };
            for (j, (name, n)) in inner.iter().enumerate() {
                let mut m = members.clone();
                let mut counters = inner.clone();
                counters[j].1 = bump(n);
                m[i].1 = Value::Obj(counters);
                cases.push((format!("{key}.{name}"), m));
            }
        }
        assert!(cases.len() >= 10, "every field and the one counter: {}", cases.len());
        for (path, m) in cases {
            let mut edited = String::new();
            Value::Obj(m).push_json(&mut edited);
            let TraceRecord::Iter(rec) = trace::parse_record(&edited).unwrap() else {
                panic!("{path}: not an iter record");
            };
            let mut b = a.clone();
            b.iters[2] = rec;
            let r = diff(&a, &b);
            assert_eq!(r.mismatched_values, 1, "{path}: {}", r.render());
            let d = r.first_divergence.unwrap_or_else(|| panic!("{path}: no divergence"));
            assert_eq!((d.index, d.field.as_str()), (2, path.as_str()));
            assert!(r.header_diffs.is_empty() && r.notes.is_empty(), "{path}");
        }
        // A counter only one side moved reads `missing` on the other.
        let mut b = a.clone();
        b.iters[2].counters[dtp_obs::Counter::StaFull.index()] = 1;
        let d = diff(&a, &b).first_divergence.unwrap();
        let shown = (d.field.as_str(), d.a.as_str(), d.b.as_str());
        assert_eq!(shown, ("counters.sta_full", "missing", "1"));
    }

    /// Every header field, perturbed one at a time, is exactly one header
    /// diff naming it and changes the canonical bytes — or, for an
    /// [`ENVIRONMENT_PATHS`] field, is exactly one note, a clean diff and the
    /// same canonical bytes: the one list holds both of its uses.
    #[test]
    fn every_perturbed_header_field_is_one_header_diff_or_note() {
        type Edit = fn(&mut TraceHeader);
        let semantic: [(&str, Edit); 11] = [
            ("schema", |h| h.schema.push('x')),
            ("mode", |h| h.mode.push('x')),
            ("seed", |h| h.seed += 1),
            ("design", |h| h.design.push('x')),
            ("cells", |h| h.cells += 1),
            ("nets", |h| h.nets += 1),
            ("pins", |h| h.pins += 1),
            ("region", |h| h.region[2] += 1.0),
            ("clock_period", |h| h.clock_period += 1.0),
            ("config.max_iters", |h| h.config[0].1 = Value::Num(99.0)),
            ("mode_config.gamma", |h| h.mode_config[0].1 = Value::Num(99.0)),
        ];
        let environment: [(&str, Edit); 5] = [
            ("threads", |h| h.threads += 1),
            ("pool_threads", |h| h.pool_threads += 1),
            ("host_threads", |h| h.host_threads += 1),
            ("source", |h| h.source = None),
            ("config.threads", |h| h.config[1].1 = Value::Num(16.0)),
        ];
        let a = sample_trace(2);
        // The two lists cover every member the header line holds.
        let Value::Obj(members) = a.header.to_value() else { panic!("a header is an object") };
        for (key, _) in members.iter().skip(1) {
            let named = |list: &[(&str, Edit)]| {
                list.iter().any(|(p, _)| p == key || p.starts_with(&format!("{key}.")))
            };
            assert!(named(&semantic) || named(&environment), "header field `{key}` untested");
        }
        assert_eq!(environment.map(|(p, _)| p), ENVIRONMENT_PATHS);
        let canonical = a.canonical_bytes();
        for (path, edit) in semantic {
            let mut b = a.clone();
            edit(&mut b.header);
            assert_ne!(b.canonical_bytes(), canonical, "{path}: not in the canonical bytes");
            let r = diff(&a, &b);
            assert_eq!(r.header_diffs.len(), 1, "{path}: {}", r.render());
            assert!(r.header_diffs[0].starts_with(&format!("{path}: a=")), "{}", r.render());
            assert!(r.notes.is_empty() && r.first_divergence.is_none(), "{path}");
        }
        for (path, edit) in environment {
            let mut b = a.clone();
            edit(&mut b.header);
            let erased = b.canonical_bytes() == canonical;
            assert!(erased, "{path}: not erased from the canonical bytes");
            let r = diff(&a, &b);
            assert!(r.is_clean(), "{path}: {}", r.render());
            assert_eq!(r.notes.len(), 1, "{path}: {}", r.render());
            assert!(r.notes[0].starts_with(&format!("{path} differs")), "{}", r.render());
        }
    }
}
