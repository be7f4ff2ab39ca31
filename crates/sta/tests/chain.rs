//! Analytic verification of the exact STA on a hand-built inverter chain:
//! every arrival time is recomputed independently from the synthetic PDK's
//! closed-form delay model and the Elmore formula, and must match the engine
//! to floating-point accuracy.

use dtp_liberty::synth::{
    self, analytic_delay, analytic_pin_cap, analytic_slew, synthetic_pdk,
};
use dtp_netlist::stdcells;
use dtp_netlist::{CellClass, Design, NetlistBuilder, Rect, Sdc};
use dtp_rsmt::build_forest;
use dtp_sta::{AnalysisScratch, Timer, INPUT_SLEW};

/// PI --(net0)--> INV_X1 u1 --(net1)--> INV_X1 u2 --(net2)--> PO
fn build_chain() -> Design {
    let mut b = NetlistBuilder::new();
    let inv_spec = stdcells::find("INV_X1").expect("INV_X1 in table");
    let inv: CellClass = inv_spec.to_class();
    let inv = b.add_class(inv);
    let pi = b.add_input_port("in").unwrap();
    let po = b.add_output_port("out").unwrap();
    let u1 = b.add_cell("u1", inv).unwrap();
    let u2 = b.add_cell("u2", inv).unwrap();
    let n0 = b.add_net("n0").unwrap();
    let n1 = b.add_net("n1").unwrap();
    let n2 = b.add_net("n2").unwrap();
    b.connect_port(n0, pi).unwrap();
    b.connect_by_name(n0, u1, "A").unwrap();
    b.connect_by_name(n1, u1, "Y").unwrap();
    b.connect_by_name(n1, u2, "A").unwrap();
    b.connect_by_name(n2, u2, "Y").unwrap();
    b.connect_port(n2, po).unwrap();
    // Horizontal line, all pins at the same y.
    b.place(pi, 0.0, 1.0);
    b.place(u1, 20.0, 0.0);
    b.place(u2, 60.0, 0.0);
    b.place(po, 100.0, 1.0);
    let nl = b.finish().unwrap();
    let sdc = Sdc::with_period(200.0);
    Design::new("chain", nl, Rect::new(0.0, 0.0, 110.0, 10.0), 2.0, 0.25, sdc)
}

#[test]
fn chain_arrival_times_match_hand_calculation() {
    let design = build_chain();
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib).unwrap();
    let forest = build_forest(&design.netlist);
    let analysis = timer.analyze_into(&design.netlist, &forest, &mut AnalysisScratch::new());

    let nl = &design.netlist;
    let spec = stdcells::find("INV_X1").unwrap();
    let r = lib.wire_res_per_um;
    let c = lib.wire_cap_per_um;
    let cap_a = analytic_pin_cap(spec);

    let u1 = nl.find_cell("u1").unwrap();
    let u2 = nl.find_cell("u2").unwrap();
    let pi = nl.find_cell("in").unwrap();
    let po = nl.find_cell("out").unwrap();
    let pos = |cell, pin: &str| nl.pin_position(nl.find_pin(cell, pin).unwrap());

    // --- net0: PI -> u1/A -------------------------------------------------
    let l0 = pos(pi, "P").manhattan(pos(u1, "A"));
    // Lumped Elmore for a 2-pin net: Res = r·L, sink load = c·L/2 + cap.
    let d0 = r * l0 * (0.5 * c * l0 + cap_a);
    let at_u1a = d0; // input delay is 0 by default
    let i = nl.find_pin(u1, "A").unwrap().index();
    assert!((analysis.at[i] - at_u1a).abs() < 1e-9, "{} vs {at_u1a}", analysis.at[i]);
    // Slew at u1/A: sqrt(INPUT_SLEW² + impulse²) with
    // impulse² = 2·Res·LDelay − d0²; LDelay(sink) = load·d0 (single sink)...
    let load0 = 0.5 * c * l0 + cap_a;
    let imp0_sq = 2.0 * (r * l0) * (load0 * d0) - d0 * d0;
    let slew_u1a = (INPUT_SLEW * INPUT_SLEW + imp0_sq.max(0.0)).sqrt();
    assert!((analysis.slew[i] - slew_u1a).abs() < 1e-9);

    // --- u1 cell arc + net1: u1/Y -> u2/A -----------------------------------
    let l1 = pos(u1, "Y").manhattan(pos(u2, "A"));
    let load1 = c * l1 + cap_a; // total net cap + sink pin cap
    let delay_u1 = analytic_delay(spec, slew_u1a, load1);
    let at_u1y = at_u1a + delay_u1;
    let iy = nl.find_pin(u1, "Y").unwrap().index();
    assert!(
        (analysis.at[iy] - at_u1y).abs() < 1e-9,
        "u1/Y: {} vs {at_u1y}",
        analysis.at[iy]
    );
    let slew_u1y = analytic_slew(spec, slew_u1a, load1);
    assert!((analysis.slew[iy] - slew_u1y).abs() < 1e-9);

    let d1 = r * l1 * (0.5 * c * l1 + cap_a);
    let at_u2a = at_u1y + d1;
    let ia2 = nl.find_pin(u2, "A").unwrap().index();
    assert!((analysis.at[ia2] - at_u2a).abs() < 1e-9);

    // --- u2 cell arc + net2: u2/Y -> PO --------------------------------------
    let l2 = pos(u2, "Y").manhattan(pos(po, "P"));
    let load2 = c * l2; // PO port pin has zero cap
    let imp1_sq = 2.0 * (r * l1) * ((0.5 * c * l1 + cap_a) * d1) - d1 * d1;
    let slew_u2a = (slew_u1y * slew_u1y + imp1_sq.max(0.0)).sqrt();
    let at_u2y = at_u2a + analytic_delay(spec, slew_u2a, load2);
    let d2 = r * l2 * (0.5 * c * l2);
    let at_po = at_u2y + d2;
    let ipo = nl.find_pin(po, "P").unwrap().index();
    assert!(
        (analysis.at[ipo] - at_po).abs() < 1e-6,
        "PO: {} vs {at_po}",
        analysis.at[ipo]
    );

    // --- slack at the PO ------------------------------------------------------
    let expected_slack = design.constraints.clock_period - at_po;
    assert!((analysis.slack[ipo] - expected_slack).abs() < 1e-6);
    assert!((analysis.wns() - expected_slack).abs() < 1e-6);
    assert!((analysis.tns() - expected_slack.min(0.0)).abs() < 1e-6);
}

#[test]
fn smoothed_analysis_upper_bounds_exact() {
    // LSE-max ≥ max at every aggregation, so smoothed arrival times bound the
    // exact ones from above and smoothed slacks from below.
    let design = build_chain();
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib).unwrap();
    let forest = build_forest(&design.netlist);
    let exact = timer.analyze_into(&design.netlist, &forest, &mut AnalysisScratch::new());
    let smooth = timer.analyze_smoothed_into(&design.netlist, &forest, &mut AnalysisScratch::new());
    for (a_s, a_e) in smooth.at.iter().zip(exact.at.iter()) {
        assert!(a_s + 1e-9 >= *a_e, "smoothed AT below exact: {a_s} < {a_e}");
    }
    assert!(smooth.wns() <= exact.wns() + 1e-9);
}

#[test]
fn moving_cells_apart_degrades_slack() {
    let design = build_chain();
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib).unwrap();
    let forest = build_forest(&design.netlist);
    let base = timer
        .analyze_into(&design.netlist, &forest, &mut AnalysisScratch::new())
        .wns();

    let mut stretched = design.clone();
    let u2 = stretched.netlist.find_cell("u2").unwrap();
    stretched
        .netlist
        .set_cell_pos(u2, dtp_netlist::Point::new(60.0, 400.0));
    let forest2 = build_forest(&stretched.netlist);
    let wns2 = timer.analyze_into(&stretched.netlist, &forest2, &mut AnalysisScratch::new()).wns();
    assert!(wns2 < base, "longer wires must reduce slack: {base} -> {wns2}");
}

#[test]
fn tighter_clock_creates_violations() {
    let mut design = build_chain();
    design.constraints = Sdc::with_period(10.0); // far below the path delay
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib).unwrap();
    let forest = build_forest(&design.netlist);
    let a = timer.analyze_into(&design.netlist, &forest, &mut AnalysisScratch::new());
    assert!(a.wns() < 0.0);
    assert!(a.tns() < 0.0);
    assert!(a.tns() <= a.wns(), "TNS must be at least as negative as WNS");
}

#[test]
fn setup_constraint_uses_register_table() {
    // Add a register stage and confirm the slack includes the setup margin.
    let mut b = NetlistBuilder::new();
    let inv = b.add_class(stdcells::find("INV_X1").unwrap().to_class());
    let dff = b.add_class(stdcells::find("DFF_X1").unwrap().to_class());
    let pi = b.add_input_port("in").unwrap();
    let clk = b.add_input_port("clk").unwrap();
    let u1 = b.add_cell("u1", inv).unwrap();
    let ff = b.add_cell("ff", dff).unwrap();
    let po = b.add_output_port("out").unwrap();
    let n0 = b.add_net("n0").unwrap();
    let n1 = b.add_net("n1").unwrap();
    let nq = b.add_net("nq").unwrap();
    let nc = b.add_net("nc").unwrap();
    b.connect_port(n0, pi).unwrap();
    b.connect_by_name(n0, u1, "A").unwrap();
    b.connect_by_name(n1, u1, "Y").unwrap();
    b.connect_by_name(n1, ff, "D").unwrap();
    b.connect_by_name(nq, ff, "Q").unwrap();
    b.connect_port(nq, po).unwrap();
    b.connect_port(nc, clk).unwrap();
    b.connect_by_name(nc, ff, "CK").unwrap();
    b.place(pi, 0.0, 1.0);
    b.place(u1, 10.0, 0.0);
    b.place(ff, 30.0, 0.0);
    b.place(po, 60.0, 1.0);
    b.place(clk, 0.0, 5.0);
    let nl = b.finish().unwrap();
    let period = 150.0;
    let design = Design::new(
        "ffchain",
        nl,
        Rect::new(0.0, 0.0, 70.0, 10.0),
        2.0,
        0.25,
        Sdc::with_period(period),
    );
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib).unwrap();
    let forest = build_forest(&design.netlist);
    let a = timer.analyze_into(&design.netlist, &forest, &mut AnalysisScratch::new());

    let d_pin = design.netlist.find_pin(design.netlist.find_cell("ff").unwrap(), "D").unwrap();
    let i = d_pin.index();
    let setup = synth::analytic_setup(a.slew[i]);
    let expected = period - setup - a.at[i];
    assert!(
        (a.slack[i] - expected).abs() < 1e-9,
        "setup slack {} vs expected {expected}",
        a.slack[i]
    );
    // Hold slack = early AT − hold margin; must be populated and finite here.
    assert!(a.hold_slack[i].is_finite());
    let hold = synth::analytic_hold(a.slew[i]);
    assert!((a.hold_slack[i] - (a.at_early[i] - hold)).abs() < 1e-9);
    // The register Q launches a new domain: PO slack is checked against the
    // same period and is comfortably met here.
    let po_pin = design.netlist.find_pin(design.netlist.find_cell("out").unwrap(), "P").unwrap();
    assert!(a.slack[po_pin.index()].is_finite());
}

#[test]
fn rat_propagation_is_consistent() {
    // Along a single chain there is one path, so every pin's slack equals
    // the endpoint slack, and RAT − AT is constant along the path.
    let design = build_chain();
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib).unwrap();
    let forest = build_forest(&design.netlist);
    let a = timer.analyze_into(&design.netlist, &forest, &mut AnalysisScratch::new());
    let wns = a.wns();
    for cell in ["in", "u1", "u2", "out"] {
        let c = design.netlist.find_cell(cell).unwrap();
        for &p in design.netlist.cell(c).pins() {
            if design.netlist.pin(p).net().is_none() {
                continue;
            }
            let s = a.pin_slack(p);
            assert!(
                (s - wns).abs() < 1e-6,
                "pin {} slack {} != WNS {}",
                design.netlist.pin_name(p),
                s,
                wns
            );
        }
    }
}
