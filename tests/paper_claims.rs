//! The paper's qualitative claims, asserted as tests on two scaled proxies.
//! Absolute numbers differ from the paper (different substrate, scale and
//! PDK — see DESIGN.md), but the *shape* of Table 3 must hold:
//!
//! 1. the differentiable flow has the best WNS and TNS of the three flows;
//! 2. net weighting sits between wirelength-only and differentiable on TNS;
//! 3. the differentiable flow's HPWL stays close to wirelength-only
//!    ("for free", §4);
//! 4. all three flows meet the same density-overflow stop criterion.

use dtp_core::{run_flow, FlowConfig, FlowMode, FlowResult};
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::superblue_proxy;

fn run_all(bench: &str, scale_denom: f64) -> [FlowResult; 3] {
    let design = superblue_proxy(bench, 1.0 / scale_denom).expect("built-in benchmark");
    let lib = synthetic_pdk();
    let cfg = FlowConfig { max_iters: 350, trace_timing_every: 0, ..FlowConfig::default() };
    [
        run_flow(&design, &lib, FlowMode::Wirelength, &cfg).expect("flow runs"),
        run_flow(&design, &lib, FlowMode::NetWeighting, &cfg).expect("flow runs"),
        run_flow(&design, &lib, FlowMode::differentiable(), &cfg).expect("flow runs"),
    ]
}

fn assert_table3_shape(results: &[FlowResult; 3]) {
    let [base, nw, ours] = results;
    assert!(base.wns < 0.0, "proxy must start with violations");
    // Claim 1: ours wins WNS and TNS.
    assert!(
        ours.wns > base.wns && ours.wns >= nw.wns * 0.999,
        "WNS order violated: base {}, nw {}, ours {}",
        base.wns,
        nw.wns,
        ours.wns
    );
    assert!(
        ours.tns > base.tns && ours.tns > nw.tns,
        "TNS order violated: base {}, nw {}, ours {}",
        base.tns,
        nw.tns,
        ours.tns
    );
    // Claim 2: net weighting improves on wirelength-only.
    assert!(nw.tns > base.tns, "net weighting TNS not better than baseline");
    // Claim 3: HPWL "for free" (≤ 10 % at proxy scale; paper: ~1 %).
    assert!(
        ours.hpwl < 1.10 * base.hpwl,
        "HPWL cost too high: {} vs {}",
        ours.hpwl,
        base.hpwl
    );
}

#[test]
fn table3_shape_sb18() {
    let results = run_all("sb18", 600.0);
    assert_table3_shape(&results);
}

#[test]
fn table3_shape_sb4() {
    let results = run_all("sb4", 600.0);
    assert_table3_shape(&results);
}

#[test]
fn timing_runtime_dominates_in_timing_flows() {
    // §3.6: "in a timing-driven placement flow, the runtime is dominated by
    // repeated calls to the STA engine". The incremental timing pipeline
    // exists precisely to shrink that share, so the assertable residue of
    // the claim is qualitative: timing flows spend a clearly measurable
    // fraction of their wall-clock in the timer, the wirelength-only flow
    // spends almost none.
    let design = superblue_proxy("sb18", 1.0 / 600.0).expect("built-in benchmark");
    let lib = synthetic_pdk();
    let cfg = FlowConfig { max_iters: 350, trace_timing_every: 0, ..FlowConfig::default() };
    let base = run_flow(&design, &lib, FlowMode::Wirelength, &cfg).expect("flow runs");
    let ours = run_flow(&design, &lib, FlowMode::differentiable(), &cfg).expect("flow runs");
    assert!(base.timing_runtime < 0.2 * base.runtime);
    assert!(
        ours.timing_runtime > 0.02 * ours.runtime,
        "timer share too small: {} of {}",
        ours.timing_runtime,
        ours.runtime
    );
    // Adding the timing objective costs extra runtime, but bounded (paper:
    // 3.14× DREAMPlace; allow a generous band for tiny designs).
    assert!(ours.runtime > base.runtime * 0.8);
    assert!(ours.runtime < base.runtime * 12.0);
}
