//! Integration tests of the three placement flows: the paper's qualitative
//! claims must hold on the synthetic proxies.
//!
//! These run the full GP → LG → DP pipeline three times each, so they use a
//! modest design size; run with `--release` for speed (they stay under a few
//! seconds even in debug).

use dtp_core::{run_flow, FlowConfig, FlowMode};
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_place::check_legal;

fn design() -> dtp_netlist::Design {
    generate(&GeneratorConfig::named("flow_test", 800)).expect("generator succeeds")
}

fn fast_config() -> FlowConfig {
    FlowConfig { max_iters: 300, trace_timing_every: 20, ..FlowConfig::default() }
}

#[test]
fn all_flows_spread_and_legalize() {
    let d = design();
    let lib = synthetic_pdk();
    for mode in [
        FlowMode::Wirelength,
        FlowMode::NetWeighting,
        FlowMode::differentiable(),
    ] {
        let r = run_flow(&d, &lib, mode, &fast_config()).expect("flow runs");
        // Overflow reached the stop criterion (or close after max iters).
        let last_overflow = r.trace.last().expect("trace non-empty").overflow;
        assert!(
            last_overflow < 0.3,
            "{}: overflow did not come down: {last_overflow}",
            r.mode
        );
        // Legal final placement.
        let violations = check_legal(&d, &r.xs, &r.ys);
        assert!(violations.is_empty(), "{}: {violations:?}", r.mode);
        // Sane metrics.
        assert!(r.hpwl > 0.0 && r.hpwl.is_finite());
        assert!(r.wns.is_finite() && r.tns.is_finite());
        assert!(r.tns <= 0.0 || r.wns >= 0.0);
        assert!(r.runtime > 0.0);
        assert!(r.iterations > 30);
    }
}

#[test]
fn differentiable_flow_beats_wirelength_on_timing() {
    // The paper's headline claim, scaled down: explicit TNS/WNS optimization
    // must improve both metrics substantially over the wirelength-only flow
    // at (near-)equal HPWL.
    let d = design();
    let lib = synthetic_pdk();
    let cfg = fast_config();
    let base = run_flow(&d, &lib, FlowMode::Wirelength, &cfg).expect("flow runs");
    let ours = run_flow(&d, &lib, FlowMode::differentiable(), &cfg).expect("flow runs");
    assert!(base.wns < 0.0, "test design must start violating");
    assert!(
        ours.wns > base.wns * 0.9,
        "WNS not improved: base {} vs ours {}",
        base.wns,
        ours.wns
    );
    assert!(
        ours.tns > base.tns * 0.8,
        "TNS not improved: base {} vs ours {}",
        base.tns,
        ours.tns
    );
    // "Almost identical HPWL ... for free" (§4): allow 10 % at this scale.
    assert!(
        ours.hpwl < 1.10 * base.hpwl,
        "HPWL degraded: base {} vs ours {}",
        base.hpwl,
        ours.hpwl
    );
}

#[test]
fn net_weighting_improves_timing_but_costs_wirelength() {
    let d = design();
    let lib = synthetic_pdk();
    let cfg = fast_config();
    let base = run_flow(&d, &lib, FlowMode::Wirelength, &cfg).expect("flow runs");
    let nw = run_flow(&d, &lib, FlowMode::NetWeighting, &cfg).expect("flow runs");
    assert!(
        nw.tns > base.tns,
        "net weighting did not improve TNS: {} vs {}",
        nw.tns,
        base.tns
    );
    // Net weighting trades wirelength (Table 3: HPWL ratio 1.043).
    assert!(nw.hpwl > base.hpwl * 0.99);
}

#[test]
fn trace_is_monotone_in_iteration_and_overflow_decreases() {
    let d = design();
    let lib = synthetic_pdk();
    let cfg = FlowConfig { trace_timing_every: 10, ..fast_config() };
    let r = run_flow(&d, &lib, FlowMode::differentiable(), &cfg).expect("flow runs");
    assert!(r.trace.len() >= 5);
    for w in r.trace.windows(2) {
        assert!(w[1].iter > w[0].iter);
    }
    let first = r.trace.first().expect("non-empty");
    let last = r.trace.last().expect("non-empty");
    assert!(
        last.overflow < first.overflow,
        "overflow did not decrease: {} -> {}",
        first.overflow,
        last.overflow
    );
    // HPWL grows from the clustered start as cells spread — Figure 8's HPWL
    // curve rises then flattens.
    assert!(last.hpwl > first.hpwl);
}

#[test]
fn flows_are_deterministic() {
    let d = design();
    let lib = synthetic_pdk();
    let cfg = fast_config();
    let a = run_flow(&d, &lib, FlowMode::differentiable(), &cfg).expect("flow runs");
    let b = run_flow(&d, &lib, FlowMode::differentiable(), &cfg).expect("flow runs");
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.hpwl, b.hpwl);
    assert_eq!(a.wns, b.wns);
    assert_eq!(a.xs, b.xs);
}

#[test]
fn seed_changes_result() {
    let d = design();
    let lib = synthetic_pdk();
    let cfg = fast_config();
    let a = run_flow(&d, &lib, FlowMode::Wirelength, &cfg).expect("flow runs");
    let b = run_flow(
        &d,
        &lib,
        FlowMode::Wirelength,
        &FlowConfig { seed: 99, ..cfg },
    )
    .expect("flow runs");
    assert_ne!(a.xs, b.xs);
}

/// `d` rebuilt with the movable cell `macro_name` declared fixed at `(x, y)`.
fn with_fixed_macro(d: &dtp_netlist::Design, macro_name: &str, x: f64, y: f64) -> dtp_netlist::Design {
    let nl = &d.netlist;
    let mut b = dtp_netlist::NetlistBuilder::new();
    for c in nl.cell_ids() {
        let cell = nl.cell(c);
        let id = if nl.cell_is_input_port(c) {
            b.add_input_port(cell.name())
        } else if nl.cell_is_output_port(c) {
            b.add_output_port(cell.name())
        } else {
            let class = b.add_class(nl.class_of(c).clone());
            if cell.name() == macro_name { b.add_fixed_cell(cell.name(), class) } else { b.add_cell(cell.name(), class) }
        }
        .expect("names stay distinct");
        let pos = if cell.name() == macro_name { dtp_netlist::Point::new(x, y) } else { cell.pos() };
        b.place(id, pos.x, pos.y);
    }
    for n in nl.net_ids() {
        let net = b.add_net(nl.net(n).name()).expect("names stay distinct");
        for &p in nl.net(n).pins() {
            b.connect(net, p).expect("pin ids carry over");
        }
    }
    dtp_netlist::Design { netlist: b.finish().expect("same topology"), ..d.clone() }
}

#[test]
fn def_fixed_component_survives_the_bundle_and_the_flow() {
    use dtp_netlist::iccad::{read_iccad15, write_iccad15};
    let base = generate(&GeneratorConfig::named("fixedrt", 300)).expect("generator succeeds");
    // A register pinned on a site of the sixth row, DEF units exact.
    let (x, y) = (12.5, base.rows[5].y);
    let d = with_fixed_macro(&base, "ff3", x, y);
    let dir = std::env::temp_dir().join(format!("dtp-fixedrt-{}", std::process::id()));
    write_iccad15(&d, &dir).expect("bundle written");
    let def = std::fs::read_to_string(dir.join("fixedrt.def")).expect("def written");
    assert_eq!(def.lines().filter(|l| l.contains("+ FIXED")).count(), 1, "one FIXED component");
    let back = read_iccad15(&dir.join("fixedrt")).expect("bundle reads");
    let _ = std::fs::remove_dir_all(&dir);

    let nl = &back.netlist;
    let m = nl.find_cell("ff3").expect("macro read back");
    assert!(nl.cell(m).is_fixed(), "DEF `+ FIXED` was dropped");
    assert_eq!((nl.cell(m).pos().x, nl.cell(m).pos().y), (x, y));
    // Only the macro and the ports are fixed: `+ PLACED` components move.
    let fixed = nl.cell_ids().filter(|&c| nl.cell(c).is_fixed()).count();
    assert_eq!(fixed, 1 + nl.cell_ids().filter(|&c| nl.cell_is_port(c)).count());

    let cfg = FlowConfig { max_iters: 60, ..FlowConfig::default() };
    let r = run_flow(&back, &synthetic_pdk(), FlowMode::Wirelength, &cfg).expect("flow runs");
    assert_eq!((r.xs[m.index()], r.ys[m.index()]), (x, y), "the placer moved a FIXED component");
    let moved = nl.movable_cells().filter(|&c| r.xs[c.index()] != nl.cell(c).pos().x).count();
    assert!(moved > nl.num_cells() / 2, "the flow placed nothing ({moved} cells moved)");
}
