//! Whole-pipeline integration test: generator → library binding → Steiner
//! forest → differentiable STA → global placement → legalization → detailed
//! placement, with cross-crate invariants checked at every joint.

use dtp_core::{run_flow, FlowConfig, FlowMode};
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{superblue_proxy, GeneratorConfig};
use dtp_netlist::{generate::generate, NetlistStats, Rect};
use dtp_place::{check_legal, WirelengthModel};
use dtp_rsmt::build_forest;
use dtp_sta::{AnalysisScratch, Timer, TimingReport};

#[test]
fn generator_to_sta_invariants() {
    let design = generate(&GeneratorConfig::named("pipe", 500)).expect("generator succeeds");
    design.netlist.validate().expect("valid netlist");
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib).expect("binding succeeds");
    let forest = build_forest(&design.netlist);

    // Steiner wirelength ≥ HPWL per net (the tree spans the bounding box).
    for net in design.netlist.net_ids() {
        let Some(tree) = forest.tree(net) else { continue };
        let bbox = Rect::bounding(
            design
                .netlist
                .net(net)
                .pins()
                .iter()
                .map(|&p| design.netlist.pin_position(p)),
        )
        .expect("net has pins");
        assert!(
            tree.wirelength() >= bbox.half_perimeter() - 1e-6,
            "net {net:?}: tree {} < hpwl {}",
            tree.wirelength(),
            bbox.half_perimeter()
        );
    }

    let exact = timer.analyze_into(&design.netlist, &forest, &mut AnalysisScratch::new());
    let smooth = timer.analyze_smoothed_into(&design.netlist, &forest, &mut AnalysisScratch::new());

    // Arrival times are finite and non-negative at every active pin.
    for lv in timer.graph().levels() {
        for &p in lv {
            assert!(exact.at[p.index()].is_finite());
            assert!(exact.slew[p.index()] > 0.0);
            // Smoothed ATs upper-bound exact ATs (LSE ≥ max).
            assert!(smooth.at[p.index()] >= exact.at[p.index()] - 1e-6);
            // Early arrivals never exceed late arrivals.
            assert!(exact.at_early[p.index()] <= exact.at[p.index()] + 1e-9);
        }
    }
    // TNS ≤ min(0, WNS); endpoint count consistent.
    assert!(exact.tns() <= exact.wns().min(0.0) + 1e-9);
    assert_eq!(
        exact.endpoints().len(),
        timer.graph().endpoints().len()
    );
    // The report agrees with the analysis.
    let report = TimingReport::new(&timer, &design.netlist, &exact);
    assert_eq!(report.endpoints, exact.endpoints().len());
    assert!((report.wns - exact.wns()).abs() < 1e-9);
}

#[test]
fn full_flow_on_superblue_proxy() {
    // Tiny scale so the test stays fast even in debug builds.
    let design = superblue_proxy("sb18", 1.0 / 1500.0).expect("built-in benchmark");
    let stats = NetlistStats::of(&design.netlist);
    assert!(stats.num_cells > 300);
    let lib = synthetic_pdk();
    let cfg = FlowConfig { max_iters: 250, trace_timing_every: 25, ..FlowConfig::default() };
    let r = run_flow(&design, &lib, FlowMode::differentiable(), &cfg).expect("flow runs");

    // Legal, bounded, and better than the clustered start.
    assert!(check_legal(&design, &r.xs, &r.ys).is_empty());
    let wl = WirelengthModel::new(&design.netlist);
    assert!((wl.hpwl(&r.xs, &r.ys) - r.hpwl).abs() < 1e-6);
    // The last sampled GP HPWL and the final one are close (legalization
    // perturbs mildly).
    let gp_hpwl = r.trace.last().expect("trace non-empty").hpwl;
    assert!(r.hpwl < 1.5 * gp_hpwl && r.hpwl > 0.5 * gp_hpwl, "{} vs {gp_hpwl}", r.hpwl);
    assert!(r.timing_runtime > 0.0 && r.timing_runtime < r.runtime);
}

#[test]
fn sta_consistent_after_legalization() {
    // Re-analyzing the returned placement must reproduce the reported WNS/TNS.
    let design = superblue_proxy("sb4", 1.0 / 2000.0).expect("built-in benchmark");
    let lib = synthetic_pdk();
    let cfg = FlowConfig { max_iters: 200, trace_timing_every: 0, ..FlowConfig::default() };
    let r = run_flow(&design, &lib, FlowMode::Wirelength, &cfg).expect("flow runs");
    let mut placed = design.clone();
    placed.netlist.set_positions(&r.xs, &r.ys);
    let timer = Timer::new(&placed, &lib).expect("binding succeeds");
    let forest = build_forest(&placed.netlist);
    let again = timer.analyze_into(&placed.netlist, &forest, &mut AnalysisScratch::new());
    assert!((again.wns() - r.wns).abs() < 1e-6, "{} vs {}", again.wns(), r.wns);
    assert!((again.tns() - r.tns).abs() < 1e-6);
}
