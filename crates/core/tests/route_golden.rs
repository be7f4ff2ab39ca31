//! Golden-equivalence tests for the routability subsystem.
//!
//! With `route_aware = false` the congestion machinery must be completely
//! inert: the flow trajectory (traced HPWL/WNS/TNS and the final placement)
//! must be bit-for-bit identical no matter what the routing capacity says,
//! and must match a run with the default (disabled) configuration. With
//! `route_aware = true` the congestion gradient and feedback must actually
//! change the trajectory.

mod common;

use common::fingerprint;
use dtp_core::{run_flow, FlowConfig, FlowMode, FlowResult};
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};

fn design() -> dtp_netlist::Design {
    generate(&GeneratorConfig::named("route-golden", 800)).expect("generator succeeds")
}

fn base_config() -> FlowConfig {
    FlowConfig {
        max_iters: 250,
        trace_timing_every: 10,
        ..FlowConfig::default()
    }
}

fn assert_identical(a: &FlowResult, b: &FlowResult) {
    assert_eq!(a.iterations, b.iterations, "iteration counts diverged");
    assert_eq!(a.trace.len(), b.trace.len(), "trace lengths diverged");
    for (p, q) in a.trace.iter().zip(&b.trace) {
        assert_eq!(p.iter, q.iter);
        assert_eq!(p.hpwl, q.hpwl, "iter {}: HPWL diverged", p.iter);
        assert_eq!(p.overflow, q.overflow, "iter {}: overflow diverged", p.iter);
        assert!(
            p.wns == q.wns || (p.wns.is_nan() && q.wns.is_nan()),
            "iter {}: WNS {} vs {}",
            p.iter,
            p.wns,
            q.wns
        );
        assert!(
            p.tns == q.tns || (p.tns.is_nan() && q.tns.is_nan()),
            "iter {}: TNS {} vs {}",
            p.iter,
            p.tns,
            q.tns
        );
    }
    assert_eq!(a.xs, b.xs, "final x positions diverged");
    assert_eq!(a.ys, b.ys, "final y positions diverged");
    assert_eq!(a.hpwl, b.hpwl);
    assert_eq!(a.wns, b.wns);
    assert_eq!(a.tns, b.tns);
}

#[test]
fn route_disabled_is_bit_for_bit_inert() {
    let d = design();
    let lib = synthetic_pdk();
    let plain = run_flow(&d, &lib, FlowMode::differentiable(), &base_config())
        .expect("flow runs");
    // An exotic capacity: with route_aware=false it may not leak into the
    // trajectory. (The final congestion summary legitimately differs — it
    // is computed at the configured capacity.)
    let exotic = FlowConfig {
        route_aware: false,
        route_capacity: 0.01,
        ..base_config()
    };
    let off = run_flow(&d, &lib, FlowMode::differentiable(), &exotic).expect("flow runs");
    assert_identical(&plain, &off);
}

#[test]
fn route_enabled_changes_the_trajectory_and_reduces_congestion() {
    let d = design();
    let lib = synthetic_pdk();
    // Tight capacity so congestion pressure has something to push against.
    let cfg_off = FlowConfig {
        route_capacity: 0.2,
        ..base_config()
    };
    let cfg_on = FlowConfig {
        route_aware: true,
        ..cfg_off
    };
    let off = run_flow(&d, &lib, FlowMode::differentiable(), &cfg_off).expect("flow runs");
    let on = run_flow(&d, &lib, FlowMode::differentiable(), &cfg_on).expect("flow runs");
    assert!(
        off.xs != on.xs || off.ys != on.ys,
        "route-aware flow must alter the placement"
    );
    assert!(on.congestion.max_overflow.is_finite());
    assert!(
        on.congestion.overflowed_frac <= off.congestion.overflowed_frac,
        "route-aware flow should not increase overflowed-bin fraction: {} vs {}",
        on.congestion.overflowed_frac,
        off.congestion.overflowed_frac
    );
}

#[test]
fn wirelength_mode_supports_route_awareness() {
    // Route awareness is orthogonal to the timing mechanism: it must run
    // (and build its forest) even in the wirelength-only flow, which never
    // needs timing. Disable timing tracing so the forest exists purely for
    // the congestion consumers.
    let d = design();
    let lib = synthetic_pdk();
    let cfg = FlowConfig {
        route_aware: true,
        route_capacity: 0.2,
        trace_timing_every: 0,
        max_iters: 150,
        ..FlowConfig::default()
    };
    let r = run_flow(&d, &lib, FlowMode::Wirelength, &cfg).expect("flow runs");
    assert!(r.hpwl > 0.0);
    assert!(r.congestion.max_overflow > 0.0);
}

/// The two recorded runs: differentiable timing with the congestion term
/// live, and the wirelength flow. The capacities leave the grid partly
/// overflowed (31 % / 78 % of the bins at the end), so inflation factors and
/// net boosts take the exact map's values instead of saturating at their
/// caps and every bit of the map steers the trajectory.
fn route_aware_runs(threads: usize) -> [FlowResult; 2] {
    let d = design();
    let lib = synthetic_pdk();
    let diff = FlowConfig {
        route_aware: true,
        route_capacity: 3.0,
        threads,
        ..base_config()
    };
    let wl = FlowConfig {
        route_aware: true,
        route_capacity: 2.0,
        trace_timing_every: 25,
        max_iters: 150,
        threads,
        ..FlowConfig::default()
    };
    [
        run_flow(&d, &lib, FlowMode::differentiable(), &diff).expect("flow runs"),
        run_flow(&d, &lib, FlowMode::Wirelength, &wl).expect("flow runs"),
    ]
}

/// `fingerprint` of the two runs above as recorded at commit fb65459 — the
/// last one whose route layer cached per-net stamp lists — before the arena
/// rewrite touched any code.
const PARENT_ROUTE_AWARE: [[u64; 11]; 2] = [
    [
        0x0000000000000012, 0x5237fc46bc64f5c0, 0x12d1c173c4e10c48, 0xd513366f9bc0a048,
        0x283fe46c51e5e010, 0x99216d841203a8b0, 0x87b66fa357bebecf, 0x8250af1d975c232c,
        0x3ff70eb45073078d, 0x3fa42ea66818ff63, 0x3fd3f00000000000,
    ],
    [
        0x0000000000000006, 0x08a0eeb71f1aa1d4, 0x12d1d5d933ee3870, 0x7b36c6ed15a852e5,
        0x863eaf387977be1f, 0x849d3a35ea8beb90, 0x1d821c0b773b281a, 0x9d6f145f1362d39d,
        0x4003ef61494ab814, 0x3fd72e972a9716e8, 0x3fe8f80000000000,
    ],
];

#[test]
fn route_aware_flow_matches_the_recorded_parent_at_every_pool_width() {
    for threads in [1usize, 2, 4] {
        let runs = route_aware_runs(threads);
        for (run, want) in runs.iter().zip(&PARENT_ROUTE_AWARE) {
            let got = fingerprint(run);
            assert_eq!(
                &got, want,
                "{} flow at threads={threads}: got {got:#018x?}",
                run.mode
            );
        }
    }
}
