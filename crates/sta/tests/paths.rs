//! Top-K critical-path extraction on hand-built designs: multi-endpoint
//! selection order, reconvergent (diamond) fan-in resolution, shared-prefix
//! deduplication, the criticality formula, and the degenerate-design
//! behaviors of `TimingReport` (no endpoints, slack ties).

use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_netlist::stdcells;
use dtp_netlist::{Design, Netlist, NetlistBuilder, PinId, Rect, Sdc};
use dtp_rsmt::build_forest;
use dtp_sta::{PathScratch, PathSet, Timer, TimingReport};

fn inv_class(b: &mut NetlistBuilder) -> dtp_netlist::ClassId {
    b.add_class(stdcells::find("INV_X1").expect("INV_X1 in table").to_class())
}

fn pin(nl: &Netlist, cell: &str, pin: &str) -> PinId {
    nl.find_pin(nl.find_cell(cell).unwrap(), pin).unwrap()
}

/// Two parallel inverter chains, `u1` placed farther than `u2`, so the
/// endpoint `out1` is strictly worse. Both share the driver `u0`.
///
/// ```text
/// in --n0--> u0 --n1--+--> u1 --n2--> out1   (long branch, worse slack)
///                     +--> u2 --n3--> out2   (short branch)
/// ```
fn build_shared_prefix(period: f64) -> Design {
    let mut b = NetlistBuilder::new();
    let inv = inv_class(&mut b);
    let pi = b.add_input_port("in").unwrap();
    let po1 = b.add_output_port("out1").unwrap();
    let po2 = b.add_output_port("out2").unwrap();
    let u0 = b.add_cell("u0", inv).unwrap();
    let u1 = b.add_cell("u1", inv).unwrap();
    let u2 = b.add_cell("u2", inv).unwrap();
    let n0 = b.add_net("n0").unwrap();
    let n1 = b.add_net("n1").unwrap();
    let n2 = b.add_net("n2").unwrap();
    let n3 = b.add_net("n3").unwrap();
    b.connect_port(n0, pi).unwrap();
    b.connect_by_name(n0, u0, "A").unwrap();
    b.connect_by_name(n1, u0, "Y").unwrap();
    b.connect_by_name(n1, u1, "A").unwrap();
    b.connect_by_name(n1, u2, "A").unwrap();
    b.connect_by_name(n2, u1, "Y").unwrap();
    b.connect_port(n2, po1).unwrap();
    b.connect_by_name(n3, u2, "Y").unwrap();
    b.connect_port(n3, po2).unwrap();
    b.place(pi, 0.0, 1.0);
    b.place(u0, 20.0, 0.0);
    b.place(u1, 20.0, 400.0); // long branch
    b.place(u2, 60.0, 0.0);
    b.place(po1, 20.0, 500.0);
    b.place(po2, 100.0, 1.0);
    let nl = b.finish().unwrap();
    Design::new(
        "shared",
        nl,
        Rect::new(0.0, 0.0, 110.0, 510.0),
        2.0,
        0.25,
        Sdc::with_period(period),
    )
}

fn analyze(design: &Design) -> (Timer, dtp_sta::Analysis) {
    let lib = synthetic_pdk();
    let timer = Timer::new(design, &lib).unwrap();
    let forest = build_forest(&design.netlist);
    let analysis = timer.analyze(&design.netlist, &forest);
    (timer, analysis)
}

#[test]
fn multi_endpoint_selection_is_worst_first_and_slacks_match() {
    // Tight clock: both endpoints violate.
    let design = build_shared_prefix(10.0);
    let nl = &design.netlist;
    let (timer, a) = analyze(&design);
    assert_eq!(a.endpoints().len(), 2);
    assert!(a.wns() < 0.0);

    let mut scratch = PathScratch::new();
    let mut set = PathSet::new();
    timer.extract_paths_into(nl, &a, 8, 0.9, &mut scratch, &mut set);

    assert_eq!(set.num_paths(), 2);
    assert_eq!(set.endpoint(0), pin(nl, "out1", "P"), "long branch is worst");
    assert_eq!(set.endpoint(1), pin(nl, "out2", "P"));
    assert!(set.slack(0) < set.slack(1));
    assert!((set.slack(0) - a.wns()).abs() < 1e-12);
    assert!((set.wns() - a.wns()).abs() < 1e-12);
    for k in 0..set.num_paths() {
        let e = set.endpoint(k);
        assert!((set.slack(k) - a.slack[e.index()]).abs() < 1e-12);
    }

    // top_k = 1 keeps only the worst endpoint.
    timer.extract_paths_into(nl, &a, 1, 0.9, &mut scratch, &mut set);
    assert_eq!(set.num_paths(), 1);
    assert_eq!(set.endpoint(0), pin(nl, "out1", "P"));
}

#[test]
fn shared_prefix_is_deduplicated_and_criticality_is_max_over_paths() {
    let design = build_shared_prefix(10.0);
    let nl = &design.netlist;
    let (timer, a) = analyze(&design);

    let decay = 0.7;
    let mut scratch = PathScratch::new();
    let mut set = PathSet::new();
    timer.extract_paths_into(nl, &a, 2, decay, &mut scratch, &mut set);

    // Path 0 (worst) claims the whole trace including the shared prefix.
    let p0: Vec<PinId> = set.path(0).to_vec();
    let expect0 = vec![
        pin(nl, "out1", "P"),
        pin(nl, "u1", "Y"),
        pin(nl, "u1", "A"),
        pin(nl, "u0", "Y"),
        pin(nl, "u0", "A"),
        pin(nl, "in", "P"),
    ];
    assert_eq!(p0, expect0);

    // Path 1 stops where the shared prefix (u0/Y onward) begins.
    let p1: Vec<PinId> = set.path(1).to_vec();
    let expect1 = vec![
        pin(nl, "out2", "P"),
        pin(nl, "u2", "Y"),
        pin(nl, "u2", "A"),
    ];
    assert_eq!(p1, expect1);

    // Criticality: rank 0 is exactly 1 (slack == WNS), rank 1 is decayed and
    // slack-scaled; the shared prefix keeps the *maximal* (rank-0) value.
    let wns = a.wns();
    let crit0 = 1.0;
    let crit1 = decay * ((-set.slack(1)) / -wns).clamp(0.0, 1.0);
    assert!((set.criticality(0) - crit0).abs() < 1e-12);
    assert!((set.criticality(1) - crit1).abs() < 1e-12);
    for &p in &expect0 {
        assert!((set.pin_criticality(p) - crit0).abs() < 1e-12);
    }
    for &p in &expect1 {
        assert!((set.pin_criticality(p) - crit1).abs() < 1e-12);
    }
    // Off-path pins have zero criticality, and the claim list is exact.
    assert_eq!(set.critical_pins().len(), expect0.len() + expect1.len());

    // Re-extraction with a fresh scratch/set gives identical results
    // (sparse reset leaves no residue).
    let mut set2 = PathSet::new();
    timer.extract_paths_into(nl, &a, 2, decay, &mut scratch, &mut set2);
    for k in 0..2 {
        assert_eq!(set.path(k), set2.path(k));
        assert_eq!(set.endpoint(k), set2.endpoint(k));
    }
}

#[test]
fn diamond_reconvergent_fanin_follows_worst_arrival() {
    // in -> u0 -> {u1 (near), u2 (far)} -> NAND d -> out. The trace through
    // the reconvergent NAND must pick the branch with the later arrival (u2).
    let mut b = NetlistBuilder::new();
    let inv = inv_class(&mut b);
    let nand = b.add_class(stdcells::find("NAND2_X1").unwrap().to_class());
    let pi = b.add_input_port("in").unwrap();
    let po = b.add_output_port("out").unwrap();
    let u0 = b.add_cell("u0", inv).unwrap();
    let u1 = b.add_cell("u1", inv).unwrap();
    let u2 = b.add_cell("u2", inv).unwrap();
    let d = b.add_cell("d", nand).unwrap();
    let n0 = b.add_net("n0").unwrap();
    let n1 = b.add_net("n1").unwrap();
    let n2 = b.add_net("n2").unwrap();
    let n3 = b.add_net("n3").unwrap();
    let n4 = b.add_net("n4").unwrap();
    b.connect_port(n0, pi).unwrap();
    b.connect_by_name(n0, u0, "A").unwrap();
    b.connect_by_name(n1, u0, "Y").unwrap();
    b.connect_by_name(n1, u1, "A").unwrap();
    b.connect_by_name(n1, u2, "A").unwrap();
    b.connect_by_name(n2, u1, "Y").unwrap();
    b.connect_by_name(n2, d, "A").unwrap();
    b.connect_by_name(n3, u2, "Y").unwrap();
    b.connect_by_name(n3, d, "B").unwrap();
    b.connect_by_name(n4, d, "Y").unwrap();
    b.connect_port(n4, po).unwrap();
    b.place(pi, 0.0, 1.0);
    b.place(u0, 10.0, 0.0);
    b.place(u1, 20.0, 0.0);
    b.place(u2, 20.0, 400.0); // far: later arrival at d/B
    b.place(d, 30.0, 0.0);
    b.place(po, 40.0, 1.0);
    let nl = b.finish().unwrap();
    let design = Design::new(
        "diamond",
        nl,
        Rect::new(0.0, 0.0, 50.0, 410.0),
        2.0,
        0.25,
        Sdc::with_period(10.0),
    );
    let nl = &design.netlist;
    let (timer, a) = analyze(&design);

    // Sanity: the far branch really does arrive later at the NAND.
    assert!(a.at[pin(nl, "d", "B").index()] > a.at[pin(nl, "d", "A").index()]);

    let mut scratch = PathScratch::new();
    let mut set = PathSet::new();
    timer.extract_paths_into(nl, &a, 1, 1.0, &mut scratch, &mut set);
    assert_eq!(set.num_paths(), 1);
    let path: Vec<PinId> = set.path(0).to_vec();
    assert!(path.contains(&pin(nl, "d", "B")));
    assert!(path.contains(&pin(nl, "u2", "Y")));
    assert!(!path.contains(&pin(nl, "d", "A")));
    assert!(!path.contains(&pin(nl, "u1", "Y")));
    // The report's critical path follows the same worst-fan-in steps.
    let report = TimingReport::new(&timer, nl, &a);
    let rpins: Vec<PinId> = report.critical_path.iter().map(|p| p.pin).collect();
    let mut expect = path.clone();
    expect.reverse();
    assert_eq!(rpins, expect);
}

#[test]
fn full_extraction_matches_endpoint_slack_formula() {
    // decay = 1, top_k = all endpoints: every endpoint's pin criticality is
    // exactly clamp(-slack/|WNS|, 0, 1).
    let mut design = generate(&GeneratorConfig::named("paths", 250)).unwrap();
    design.constraints = Sdc::with_period(40.0); // force violations
    let nl = &design.netlist;
    let (timer, a) = analyze(&design);
    let wns = a.wns();
    assert!(wns < 0.0);

    let mut scratch = PathScratch::new();
    let mut set = PathSet::new();
    let all = a.endpoints().len();
    timer.extract_paths_into(nl, &a, all, 1.0, &mut scratch, &mut set);
    assert_eq!(set.num_paths(), all);
    for k in 0..all {
        let e = set.endpoint(k);
        let expected = ((-a.slack[e.index()]) / -wns).clamp(0.0, 1.0);
        assert!(
            (set.pin_criticality(e) - expected).abs() < 1e-12,
            "endpoint {k}: {} vs {expected}",
            set.pin_criticality(e)
        );
    }
    // Rank order is slack-ascending with PinId tie-break.
    for k in 1..all {
        let prev = (set.slack(k - 1), set.endpoint(k - 1));
        let cur = (set.slack(k), set.endpoint(k));
        assert!(prev.0 < cur.0 || (prev.0 == cur.0 && prev.1 < cur.1));
    }
}

#[test]
fn no_rat_analysis_is_sufficient_for_extraction() {
    let design = build_shared_prefix(10.0);
    let nl = &design.netlist;
    let (timer, full) = analyze(&design);
    // The same analysis without required times: extraction reads only
    // arrival times, slews, loads and endpoint slacks.
    let mut norat = full.clone();
    norat.rat.fill(f64::INFINITY);

    // Extraction sees the same paths either way.
    let mut ps = PathScratch::new();
    let (mut s1, mut s2) = (PathSet::new(), PathSet::new());
    timer.extract_paths_into(nl, &full, 2, 0.9, &mut ps, &mut s1);
    timer.extract_paths_into(nl, &norat, 2, 0.9, &mut ps, &mut s2);
    assert_eq!(s1.num_paths(), s2.num_paths());
    for k in 0..s1.num_paths() {
        assert_eq!(s1.path(k), s2.path(k));
        assert!((s1.criticality(k) - s2.criticality(k)).abs() < 1e-15);
    }
}

#[test]
fn report_clamps_wns_without_endpoints() {
    // A design with no registers and no output ports has no constrained
    // endpoints: WNS must read 0.0, not +inf.
    let mut b = NetlistBuilder::new();
    let inv = inv_class(&mut b);
    let pi = b.add_input_port("in").unwrap();
    let u0 = b.add_cell("u0", inv).unwrap();
    let n0 = b.add_net("n0").unwrap();
    b.connect_port(n0, pi).unwrap();
    b.connect_by_name(n0, u0, "A").unwrap();
    b.place(pi, 0.0, 1.0);
    b.place(u0, 10.0, 0.0);
    let nl = b.finish().unwrap();
    let design = Design::new(
        "noend",
        nl,
        Rect::new(0.0, 0.0, 20.0, 10.0),
        2.0,
        0.25,
        Sdc::with_period(100.0),
    );
    let (timer, a) = analyze(&design);
    assert!(a.endpoints().is_empty());
    let report = TimingReport::new(&timer, &design.netlist, &a);
    assert_eq!(report.wns, 0.0);
    assert_eq!(report.endpoints, 0);
    assert!(report.critical_path.is_empty());

    // Extraction likewise degrades to an empty set with WNS 0.
    let mut scratch = PathScratch::new();
    let mut set = PathSet::new();
    timer.extract_paths_into(&design.netlist, &a, 8, 0.9, &mut scratch, &mut set);
    assert_eq!(set.num_paths(), 0);
    assert_eq!(set.wns(), 0.0);
}

#[test]
fn worst_endpoint_ties_break_by_pin_id() {
    // Two disjoint, geometrically identical chains: exactly equal slacks at
    // both endpoints. The reported critical path must end at the smaller
    // PinId.
    let mut b = NetlistBuilder::new();
    let inv = inv_class(&mut b);
    let pi1 = b.add_input_port("in1").unwrap();
    let pi2 = b.add_input_port("in2").unwrap();
    let po1 = b.add_output_port("out1").unwrap();
    let po2 = b.add_output_port("out2").unwrap();
    let u1 = b.add_cell("u1", inv).unwrap();
    let u2 = b.add_cell("u2", inv).unwrap();
    let na = b.add_net("na").unwrap();
    let nb = b.add_net("nb").unwrap();
    let nc = b.add_net("nc").unwrap();
    let nd = b.add_net("nd").unwrap();
    b.connect_port(na, pi1).unwrap();
    b.connect_by_name(na, u1, "A").unwrap();
    b.connect_by_name(nb, u1, "Y").unwrap();
    b.connect_port(nb, po1).unwrap();
    b.connect_port(nc, pi2).unwrap();
    b.connect_by_name(nc, u2, "A").unwrap();
    b.connect_by_name(nd, u2, "Y").unwrap();
    b.connect_port(nd, po2).unwrap();
    // Same relative geometry on both rows: identical delays, exact tie.
    b.place(pi1, 0.0, 10.0);
    b.place(u1, 20.0, 10.0);
    b.place(po1, 40.0, 10.0);
    b.place(pi2, 0.0, 30.0);
    b.place(u2, 20.0, 30.0);
    b.place(po2, 40.0, 30.0);
    let nl = b.finish().unwrap();
    let design = Design::new(
        "tie",
        nl,
        Rect::new(0.0, 0.0, 50.0, 40.0),
        2.0,
        0.25,
        Sdc::with_period(10.0),
    );
    let nl = &design.netlist;
    let (timer, a) = analyze(&design);
    let (e1, e2) = (pin(nl, "out1", "P"), pin(nl, "out2", "P"));
    assert_eq!(
        a.slack[e1.index()],
        a.slack[e2.index()],
        "test needs an exact slack tie"
    );
    let report = TimingReport::new(&timer, nl, &a);
    let last = report.critical_path.last().unwrap().pin;
    assert_eq!(last, e1.min(e2), "tie must break to the smaller PinId");

    // Extraction orders the tied endpoints the same way.
    let mut scratch = PathScratch::new();
    let mut set = PathSet::new();
    timer.extract_paths_into(nl, &a, 2, 1.0, &mut scratch, &mut set);
    assert_eq!(set.endpoint(0), e1.min(e2));
    assert_eq!(set.endpoint(1), e1.max(e2));
}
