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
/// overflowed (28 % / 79 % of the bins at the end), so inflation factors and
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

/// `fingerprint` of the two runs above, re-recorded on the change that
/// follows commit 5dcb86c. Until that commit the flow kept the exact map up
/// to date on every active iteration by incremental take-back-and-restamp
/// passes; since, it builds the map from scratch on the feedback iterations
/// only. The map a feedback reads is the same RUDY of the same forest, but
/// its bin sums are added in build order instead of after k incremental
/// add/subtract passes, so they differ in the last bits, and every bit of
/// the map steers the trajectory through the inflation and the net boosts.
const PARENT_ROUTE_AWARE: [[u64; 11]; 2] = [
    [
        0x0000000000000012, 0x5b283b571261b2e6, 0x6701fb5e38bd1a80, 0x74983ab345077aee,
        0xb031f47a993449aa, 0x718dd1f772be32d0, 0xb9cf7a706cb1d718, 0x9df545a4776ded43,
        0x3ffa33582f264731, 0x3fa77dae5a2e1b47, 0x3fd2300000000000,
    ],
    [
        0x0000000000000006, 0x08a0ec38e9d96b2c, 0x12d178e84bf47fd8, 0x7b336ca761b2c9b1,
        0x86319aa921ae140f, 0x1c0dc69bf05eca39, 0x3c7079c483ebbbbd, 0x9da23fefed599a88,
        0x400479e8bfb231e9, 0x3fd6dd3cd5a7399c, 0x3fe9500000000000,
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
