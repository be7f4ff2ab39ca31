//! Noise-aware comparison of a fresh `BENCH_*.json` against a committed
//! baseline — the benchmark-regression gate.
//!
//! Raw wall-clock numbers from a shared CI runner cannot be compared
//! exactly, so every leaf is classified by its key name and judged under
//! the matching rule:
//!
//! * **exact** — `schema`, `*_valid` (e.g. `metrics_json_valid`: the
//!   observer's report parses under its schema), keys containing `allocs`
//!   (steady-state allocation counts), the
//!   topology-table content counts `classes` / `powvs`, `transforms_*`
//!   (2-D transforms per density evaluation) and `bytes_per_edge` (the
//!   route map's stamp record): these are correctness claims, not
//!   measurements; any change is a regression.
//! * **percentage** (`*_pct`) — absolute tolerance of 15 points, wide
//!   enough for scheduler noise on a sub-second flow, tight enough to
//!   catch a real observability-overhead regression.
//! * **time** (`*_ns`, `*_us`, `*_ms`, `*_s`, `*_seconds`) — the fresh value must
//!   be within 10x of the baseline in either direction; machines differ,
//!   order-of-magnitude blowups do not.
//! * **speedup** (`speedup*`) — lower bound only: fresh >= half the
//!   committed speedup. Getting faster is never a regression.
//! * **context** (`design_cells`, `host_threads`, `threads`,
//!   `pool_widths`, `max_iters`, `smoke`, ...) — reported, never judged:
//!   CI runs smoke configurations against full-run baselines.
//! * anything else numeric is reported as informational.
//!
//! Structure is load-bearing: a baseline key missing from the fresh file
//! fails the gate (a silently dropped measurement is how regressions
//! hide); new keys in the fresh file are fine (the next commit will fold
//! them into the baseline).
//!
//! Usage: `bench_baseline <committed-baseline.json> <fresh.json>`; exits
//! nonzero on any failure, so CI can gate on it directly.

use dtp_obs::json::{self, Value};
use std::process::ExitCode;

/// Keys that describe the run configuration/machine, not the result.
const CONTEXT_KEYS: &[&str] = &[
    "design_cells",
    "host_threads",
    "threads",
    "pool_widths",
    "max_iters",
    "smoke",
    "moved_cells",
    "cells",
    "bins",
];

enum Rule {
    Exact,
    Context,
    PctAbs(f64),
    TimeRatio(f64),
    SpeedupFloor(f64),
    Info,
}

fn classify(key: &str) -> Rule {
    if key == "schema"
        || key.ends_with("_valid")
        || key.contains("allocs")
        || key == "classes"
        || key == "powvs"
        || key.starts_with("transforms_")
        || key == "bytes_per_edge"
    {
        return Rule::Exact;
    }
    if CONTEXT_KEYS.contains(&key) {
        return Rule::Context;
    }
    if key.starts_with("speedup") || key.contains("_speedup") {
        return Rule::SpeedupFloor(0.5);
    }
    if key.ends_with("_pct") {
        return Rule::PctAbs(15.0);
    }
    if key.ends_with("_ns")
        || key.ends_with("_us")
        || key.ends_with("_ms")
        || key.ends_with("_s")
        || key.ends_with("_seconds")
    {
        return Rule::TimeRatio(10.0);
    }
    Rule::Info
}

struct Gate {
    failures: Vec<String>,
    notes: Vec<String>,
}

impl Gate {
    fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }
    fn note(&mut self, msg: String) {
        self.notes.push(msg);
    }

    fn leaf(&mut self, path: &str, key: &str, base: &Value, fresh: &Value) {
        let render = |v: &Value| {
            let mut s = String::new();
            v.push_json(&mut s);
            s
        };
        let (bs, fs) = (render(base), render(fresh));
        match classify(key) {
            Rule::Exact => {
                if bs != fs {
                    self.fail(format!("{path}: exact key changed: baseline {bs}, fresh {fs}"));
                }
            }
            Rule::Context => {
                if bs != fs {
                    self.note(format!("{path}: context differs (baseline {bs}, fresh {fs})"));
                }
            }
            Rule::PctAbs(points) => match (base.as_f64(), fresh.as_f64()) {
                (Some(b), Some(f)) if (b - f).abs() <= points => {}
                (Some(b), Some(f)) => self.fail(format!(
                    "{path}: {f:.2} is more than {points} points from baseline {b:.2}"
                )),
                _ => self.fail(format!("{path}: non-numeric pct (baseline {bs}, fresh {fs})")),
            },
            Rule::TimeRatio(ratio) => match (base.as_f64(), fresh.as_f64()) {
                (Some(b), Some(f)) if b > 0.0 && f > 0.0 && f / b <= ratio && b / f <= ratio => {}
                (Some(b), Some(f)) if b == 0.0 && f == 0.0 => {}
                (Some(b), Some(f)) => self.fail(format!(
                    "{path}: {f} is beyond {ratio}x of baseline {b}"
                )),
                _ => self.fail(format!("{path}: non-numeric time (baseline {bs}, fresh {fs})")),
            },
            Rule::SpeedupFloor(frac) => match (base.as_f64(), fresh.as_f64()) {
                (Some(b), Some(f)) if f >= b * frac => {}
                (Some(b), Some(f)) => self.fail(format!(
                    "{path}: speedup {f:.2} fell below {frac} x baseline {b:.2}"
                )),
                _ => self.fail(format!(
                    "{path}: non-numeric speedup (baseline {bs}, fresh {fs})"
                )),
            },
            Rule::Info => {
                if bs != fs {
                    self.note(format!("{path}: informational (baseline {bs}, fresh {fs})"));
                }
            }
        }
    }

    fn compare(&mut self, path: &str, key: &str, base: &Value, fresh: &Value) {
        match (base, fresh) {
            (Value::Obj(bm), Value::Obj(fm)) => {
                for (k, bv) in bm {
                    let sub = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                    match fm.iter().find(|(fk, _)| fk == k) {
                        Some((_, fv)) => self.compare(&sub, k, bv, fv),
                        None => self.fail(format!("{sub}: baseline key missing from fresh run")),
                    }
                }
                for (k, _) in fm {
                    if !bm.iter().any(|(bk, _)| bk == k) {
                        let sub = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                        self.note(format!("{sub}: new key in fresh run (not in baseline)"));
                    }
                }
            }
            (Value::Arr(ba), Value::Arr(fa)) => {
                if ba.len() != fa.len() {
                    self.fail(format!(
                        "{path}: array length changed: baseline {}, fresh {}",
                        ba.len(),
                        fa.len()
                    ));
                }
                for (i, (bv, fv)) in ba.iter().zip(fa.iter()).enumerate() {
                    self.compare(&format!("{path}[{i}]"), key, bv, fv);
                }
            }
            (Value::Obj(_), _) | (Value::Arr(_), _) => {
                self.fail(format!("{path}: baseline is a container, fresh is a scalar"));
            }
            _ => self.leaf(path, key, base, fresh),
        }
    }
}

fn run(baseline_path: &str, fresh_path: &str) -> Result<Vec<String>, String> {
    let read = |p: &str| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))
    };
    let baseline =
        json::parse(&read(baseline_path)?).map_err(|e| format!("{baseline_path}: {e}"))?;
    let fresh = json::parse(&read(fresh_path)?).map_err(|e| format!("{fresh_path}: {e}"))?;
    let mut gate = Gate { failures: Vec::new(), notes: Vec::new() };
    gate.compare("", "", &baseline, &fresh);
    for n in &gate.notes {
        println!("note: {n}");
    }
    for f in &gate.failures {
        println!("FAIL: {f}");
    }
    Ok(gate.failures.clone())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, fresh_path] = &args[..] else {
        eprintln!("usage: bench_baseline <committed-baseline.json> <fresh.json>");
        return ExitCode::from(2);
    };
    match run(baseline_path, fresh_path) {
        Ok(failures) if failures.is_empty() => {
            println!("baseline gate passed: {fresh_path} is consistent with {baseline_path}");
            ExitCode::SUCCESS
        }
        Ok(failures) => {
            println!(
                "baseline gate FAILED: {} regression(s) vs {baseline_path}",
                failures.len()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
