//! Property tests for the diff engine: for arbitrary traces — including
//! NaN/±inf QoR samples — a zero-tolerance self-diff must be clean, the
//! text round trip through `Trace::parse` must preserve the diff verdict,
//! and canonical bytes must be invariant under environment perturbation.

use dtp_obs::json::Value;
use dtp_obs::{Counter, Phase, TraceHeader, TraceIter, TraceSpan, TRACE_SCHEMA};
use dtp_trace::{diff, Tolerances, Trace};
use proptest::prelude::*;

/// Maps a raw u64 onto an "interesting" f64. Only NaN and finite values:
/// the v3 serialization canonicalizes every non-finite sample to `null`
/// (parsed back as NaN), so a `Trace` built from a real stream never
/// carries ±inf — the generator must respect that invariant for the
/// byte-exact round-trip property to hold.
fn telemetry_f64(raw: u64, scale: f64) -> f64 {
    match raw % 7 {
        0 | 1 => f64::NAN,
        2 => 0.0,
        3 => -0.0,
        4 => -(raw as f64) * scale,
        5 => (raw as f64) * scale * 1e-9,
        _ => (raw as f64) * scale,
    }
}

fn build_trace(seed: u64, iters: &[(u64, u64, u64)]) -> Trace {
    let header = TraceHeader {
        schema: TRACE_SCHEMA.to_string(),
        mode: "differentiable".to_string(),
        seed,
        threads: 2,
        pool_threads: 2,
        host_threads: 8,
        design: "prop".to_string(),
        cells: 10,
        nets: 9,
        pins: 30,
        region: [0.0, 0.0, 10.0, 10.0],
        clock_period: 1000.0,
        source: Some("sbt".to_string()),
        config: vec![
            ("seed".to_string(), Value::Str(seed.to_string())),
            ("threads".to_string(), Value::Num(2.0)),
        ],
        mode_config: vec![("gamma".to_string(), Value::Num(80.0))],
    };
    let mut t = Trace { header, iters: Vec::new(), spans: Vec::new() };
    for &(iter, qa, qb) in iters {
        let mut counters = [0u64; Counter::COUNT];
        for (i, slot) in counters.iter_mut().enumerate() {
            let v = qa.wrapping_add((iter + 1).wrapping_mul(i as u64 + 1));
            *slot = if v % 4 == 0 { 0 } else { v % 100_000 };
        }
        t.iters.push(TraceIter {
            iter,
            wl: telemetry_f64(qa, 1.0),
            hpwl: telemetry_f64(qa.rotate_left(13), 1e3),
            overflow: telemetry_f64(qb, 1e-3),
            lambda: telemetry_f64(qb.rotate_left(7), 1e-6),
            step: telemetry_f64(qa.rotate_left(41), 1e-2),
            wns: telemetry_f64(qb.rotate_left(27), -1.0),
            tns: telemetry_f64(qa ^ qb, -1e2),
            timing: qa % 2 == 0,
            counters,
        });
        let mut phase_ns = [0u64; Phase::COUNT];
        phase_ns[(qb % Phase::COUNT as u64) as usize] = qb % 1_000_000;
        t.spans.push(TraceSpan { iter, phase_ns });
    }
    t
}

proptest! {
    #[test]
    fn zero_tolerance_self_diff_is_reflexively_clean(
        seed in 0u64..u64::MAX,
        iters in proptest::collection::vec(
            (0u64..1_000_000, 0u64..u64::MAX, 0u64..u64::MAX),
            1..20
        ),
    ) {
        let t = build_trace(seed, &iters);
        // Reflexive: a trace always matches itself exactly, even with
        // NaN/±inf telemetry.
        let r = diff(&t, &t, &Tolerances::zero());
        prop_assert!(r.is_clean(), "self-diff dirty: {}", r.render());
        prop_assert_eq!(r.compared_iters, iters.len());
        prop_assert_eq!(r.mismatched_values, 0);

        // The text round trip preserves the verdict and the exact bytes.
        let text = String::from_utf8(t.to_bytes()).unwrap();
        let back = match Trace::parse(&text) {
            Ok(b) => b,
            Err(e) => return Err(TestCaseError::Fail(format!("parse failed: {e}"))),
        };
        let r = diff(&t, &back, &Tolerances::zero());
        prop_assert!(r.is_clean(), "round-trip diff dirty: {}", r.render());
        prop_assert_eq!(back.to_bytes(), t.to_bytes());

        // Canonical bytes ignore the execution environment entirely.
        let mut env = t.clone();
        env.header.threads = seed % 17;
        env.header.pool_threads = seed % 13;
        env.header.host_threads = seed % 11;
        env.header.source = None;
        env.header.config[1].1 = Value::Num((seed % 9) as f64);
        for sp in env.spans.iter_mut() {
            sp.phase_ns[0] = sp.phase_ns[0].wrapping_add(seed | 1);
        }
        prop_assert_eq!(env.canonical_bytes(), t.canonical_bytes());
        let r = diff(&t, &env, &Tolerances::zero());
        prop_assert!(r.is_clean(), "environment perturbation dirty: {}", r.render());
    }

    #[test]
    fn any_single_metric_perturbation_is_detected(
        seed in 0u64..u64::MAX,
        iters in proptest::collection::vec(
            (0u64..1_000_000, 0u64..u64::MAX, 0u64..u64::MAX),
            1..12
        ),
        pick in 0usize..1000,
        bump in 1u64..1000,
    ) {
        let a = build_trace(seed, &iters);
        let mut b = a.clone();
        let idx = pick % b.iters.len();
        // Perturb one finite-able field deterministically: overwrite wl
        // with a value guaranteed to differ (finite vs whatever was there).
        let old = b.iters[idx].wl;
        let new = if old.is_finite() { old + bump as f64 } else { bump as f64 };
        b.iters[idx].wl = new;
        prop_assume!(old.to_bits() != new.to_bits());
        let r = diff(&a, &b, &Tolerances::zero());
        let d = r.first_divergence.expect("perturbation must be detected");
        prop_assert_eq!(d.index, idx);
        prop_assert_eq!(d.field.as_str(), "wl");
    }
}
