//! Recorded goldens for the placement loop itself.
//!
//! The other golden files compare the flow with itself (a knob off against
//! the default, one pool width against another); `route_golden` records the
//! two route-aware runs. This file records the rest of what the loop can do
//! — the three modes at default knobs — as bit patterns
//! taken at commit 42d4a9c, before the loop body was folded into one copy,
//! so a rewrite of `flow.rs` that moves a single bit of any trajectory or
//! final placement fails here. They were recorded at the trace cadence the
//! flow then defaulted to (10), which the cases name.

mod common;

use common::fingerprint;
use dtp_core::{run_flow, run_flow_observed, FlowConfig, FlowMode, FlowResult, Observer};
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_obs::Counter;
use dtp_place::check_legal;

/// Default knobs but for the iteration cap — every timing mode has its
/// mechanism live for well over 30 iterations before the overflow stop — and
/// the trace cadence the fingerprints were recorded at.
fn flat() -> FlowConfig {
    FlowConfig { max_iters: 250, trace_timing_every: 10, ..FlowConfig::default() }
}

/// The three recorded runs, in the order of [`RECORDED`].
fn cases() -> [(&'static str, FlowMode, FlowConfig); 3] {
    [
        ("wirelength", FlowMode::Wirelength, flat()),
        ("net-weighting", FlowMode::NetWeighting, flat()),
        ("differentiable", FlowMode::differentiable(), flat()),
    ]
}

/// Iterations (as the one-entry per-level list they were recorded in) and
/// `fingerprint` of the three runs, as recorded at commit 42d4a9c.
const RECORDED: [(&[usize], [u64; 11]); 3] = [
    (
        &[155],
        [
            0x0000000000000010, 0xc9b890abe27a1162, 0x3ef96b8277e1bc8f, 0x692996863f20f06f,
            0x2b6616fb0433834a, 0xf1a4d6604eeb62cb, 0x71706788cb88b92a, 0x960f3c4d0468d97f,
            0x4024672d8f2cc36d, 0x400f8bbcab97a245, 0x3fefe80000000000,
        ],
    ),
    (
        &[167],
        [
            0x0000000000000011, 0x8031aa709c8fb4af, 0x5ddef79aabc92058, 0xa4a8a8197b972b2e,
            0xa63cc9372e9ef580, 0xdf527897322b866d, 0xce5d63633d81929f, 0x9a3a936132d7e38a,
            0x40240c70cfa3bc54, 0x401022cf4d035897, 0x3feff80000000000,
        ],
    ),
    (
        &[165],
        [
            0x0000000000000011, 0xf84d6bad0092a531, 0xce9f376ddaaaba06, 0xb5bf5d664d1bc88a,
            0x13342c901e9d6db5, 0x1a4c2ed02621a58c, 0xae66389462cff925, 0x99b79dcc1fca5f5c,
            0x402398cb27421dfb, 0x400f04bac92a84a8, 0x3feff80000000000,
        ],
    ),
];

#[test]
fn every_mode_matches_the_recorded_parent_at_every_pool_width() {
    let d = generate(&GeneratorConfig::named("flow-golden", 800)).expect("generator succeeds");
    let lib = synthetic_pdk();
    for threads in [1usize, 2, 4] {
        for ((name, mode, config), (want_iters, want)) in cases().into_iter().zip(&RECORDED) {
            let config = FlowConfig { threads, ..config };
            let mut obs = Observer::new();
            let r = run_flow_observed(&d, &lib, mode, &config, &mut obs).expect("flow runs");
            let got = fingerprint(&r);
            assert_eq!(&got, want, "{name} at threads={threads}: got {got:#018x?}");
            assert_eq!(&[r.iterations][..], *want_iters, "{name} at threads={threads}");
            let violations = check_legal(&d, &r.xs, &r.ys);
            assert!(violations.is_empty(), "{name} at threads={threads}: {violations:?}");

            // The runs exercise what they are recorded for.
            let count = |c| obs.registry().get(c);
            match mode {
                FlowMode::Wirelength => assert_eq!(count(Counter::StaFull), 0, "{name}"),
                _ => assert!(count(Counter::StaFull) >= 30, "{name}: timing live too briefly"),
            }
        }
    }
}

/// Exact-timing telemetry is read by nobody inside the loop, so asking for
/// it must not move a placement: the default (no trace) and the cadence the
/// trace used to default to give the same bits in every mode — the trace
/// points were what warmed the loop forest ahead of the timing mechanism,
/// which the loop now does on its own sampling period.
#[test]
fn the_trace_cadence_does_not_steer_the_placement() {
    let d = generate(&GeneratorConfig::named("flow-golden", 800)).expect("generator succeeds");
    let lib = synthetic_pdk();
    // The recorded runs, and a route-aware one: the route layer reads the
    // loop forest too.
    let route_aware = FlowConfig { route_aware: true, route_capacity: 3.0, ..flat() };
    let runs: Vec<_> = cases()
        .into_iter()
        .chain([("route-aware differentiable", FlowMode::differentiable(), route_aware)])
        .collect();
    for threads in [1usize, 2, 4] {
        for &(name, mode, traced) in &runs {
            let traced = FlowConfig { threads, ..traced };
            let untraced = FlowConfig { trace_timing_every: 0, ..traced };
            let a = run_flow(&d, &lib, mode, &traced).expect("flow runs");
            let b = run_flow(&d, &lib, mode, &untraced).expect("flow runs");
            assert!(!a.trace.is_empty() && b.trace.is_empty(), "{name}");
            assert_eq!(a.xs, b.xs, "{name} at threads={threads}: x positions differ");
            assert_eq!(a.ys, b.ys, "{name} at threads={threads}: y positions differ");
            let qor = |r: &FlowResult| [r.hpwl, r.wns, r.tns].map(f64::to_bits);
            assert_eq!(qor(&a), qor(&b), "{name} at threads={threads}");
            assert_eq!(a.iterations, b.iterations, "{name} at threads={threads}");
        }
    }
}
