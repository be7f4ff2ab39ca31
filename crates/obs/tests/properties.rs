//! Property tests for the structured sinks: for arbitrary counter/phase
//! states — including the NAN/±inf QoR samples of untraced iterations —
//! the v3 JSONL writers must emit exactly one valid record per line, every
//! line must round-trip through the strict trace reader, and re-serializing
//! the parsed record must reproduce the input bytes.

use dtp_obs::{trace, Counter, Phase, TraceIter, TraceRecord, TraceSpan};
use proptest::prelude::*;

/// Maps a raw u64 onto an "interesting" f64: finite values plus the
/// non-finite specials that must serialize as `null`.
fn telemetry_f64(raw: u64, scale: f64) -> f64 {
    match raw % 7 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -(raw as f64) * scale,
        5 => (raw as f64) * scale * 1e-9,
        _ => (raw as f64) * scale,
    }
}

proptest! {
    #[test]
    fn v3_records_round_trip_through_the_reader(
        iters in proptest::collection::vec(
            (0u64..1_000_000, 0u64..u64::MAX, 0u64..u64::MAX),
            1..20
        ),
        ns_seed in 0u64..u64::MAX,
        cd_seed in 0u64..u64::MAX,
    ) {
        let mut buf: Vec<u8> = Vec::new();
        for &(iter, qa, qb) in &iters {
            // Arbitrary per-phase nanoseconds (sparse: some slots zero).
            let mut phase_ns = [0u64; Phase::COUNT];
            for (i, slot) in phase_ns.iter_mut().enumerate() {
                let v = ns_seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(iter ^ (i as u64) << 32);
                *slot = if v % 3 == 0 { 0 } else { v % 1_000_000_000 };
            }
            let mut counter_delta = [0u64; Counter::COUNT];
            for (i, slot) in counter_delta.iter_mut().enumerate() {
                let v = cd_seed.wrapping_add((iter + 1).wrapping_mul(i as u64 + 1));
                *slot = if v % 4 == 0 { 0 } else { v % 100_000 };
            }
            let rec = TraceIter {
                iter,
                wl: telemetry_f64(qa, 1.0),
                hpwl: telemetry_f64(qa.rotate_left(13), 1e3),
                overflow: telemetry_f64(qb, 1e-3),
                lambda: telemetry_f64(qb.rotate_left(7), 1e-6),
                step: telemetry_f64(qa.rotate_left(41), 1e-2),
                wns: telemetry_f64(qb.rotate_left(27), -1.0),
                tns: telemetry_f64(qa ^ qb, -1e2),
                timing: qa % 2 == 0,
                counters: counter_delta,
            };
            rec.write_jsonl(&mut buf).unwrap();
            TraceSpan { iter, phase_ns }.write_jsonl(&mut buf).unwrap();
        }
        let text = String::from_utf8(buf).expect("sink output is UTF-8");
        // Exactly two lines per iteration (iter + span)...
        prop_assert_eq!(text.lines().count(), 2 * iters.len());
        prop_assert!(text.ends_with('\n'));
        // ...no NaN/Infinity token ever leaks...
        prop_assert!(!text.contains("NaN") && !text.contains("inf"));
        // ...and every line round-trips: strict parse, then byte-identical
        // re-serialization.
        for (i, line) in text.lines().enumerate() {
            let rec = match trace::parse_record(line) {
                Ok(r) => r,
                Err(e) => return Err(TestCaseError::Fail(format!("bad line {line:?}: {e}"))),
            };
            let (iter, _, _) = iters[i / 2];
            let mut rewritten = Vec::new();
            match rec {
                TraceRecord::Iter(it) => {
                    prop_assert_eq!(i % 2, 0, "iter record on an odd line");
                    prop_assert_eq!(it.iter, iter);
                    it.write_jsonl(&mut rewritten).unwrap();
                }
                TraceRecord::Span(sp) => {
                    prop_assert_eq!(i % 2, 1, "span record on an even line");
                    prop_assert_eq!(sp.iter, iter);
                    sp.write_jsonl(&mut rewritten).unwrap();
                }
                TraceRecord::Header(_) => {
                    return Err(TestCaseError::Fail("unexpected header record".into()));
                }
            }
            let rewritten = String::from_utf8(rewritten).unwrap();
            prop_assert_eq!(rewritten.trim_end(), line, "re-serialization not byte-stable");
        }
    }
}
