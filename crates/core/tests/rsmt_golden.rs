//! Golden-equivalence tests for the topology-table Steiner backend.
//!
//! The flow's loop forest is built on the topology tables: the flow must be
//! deterministic run-to-run (the parallel sweeps and lazily generated table
//! classes may not introduce any nondeterminism) and must actually use the
//! tables.

use dtp_core::{run_flow, FlowConfig, FlowMode, FlowResult};
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};

fn design() -> dtp_netlist::Design {
    generate(&GeneratorConfig::named("rsmt-golden", 700)).expect("generator succeeds")
}

fn base_config() -> FlowConfig {
    FlowConfig {
        max_iters: 200,
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
fn tables_on_is_deterministic_and_used() {
    let d = design();
    let lib = synthetic_pdk();
    let cfg = base_config();
    let a = run_flow(&d, &lib, FlowMode::differentiable(), &cfg).expect("flow runs");
    let b = run_flow(&d, &lib, FlowMode::differentiable(), &cfg).expect("flow runs");
    assert_identical(&a, &b);
    assert_eq!(a.rsmt, b.rsmt, "forest stats diverged between identical runs");
    assert!(a.rsmt.table > 0, "tables-on flow never used a table tree");
}
