//! Critical-path extraction goldens on generated designs: agreement of the
//! extracted criticalities with the full-analysis criticalities when K
//! covers every endpoint, and the concentration of the criticalities on the
//! nets the extracted paths touch.

use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_netlist::Design;
use dtp_rsmt::build_forest;
use dtp_sta::{Analysis, AnalysisScratch, PathScratch, PathSet, Timer};

/// An aggressive clock on a generated design: violations everywhere.
fn violating(name: &str) -> Design {
    let mut gcfg = GeneratorConfig::named(name, 300);
    gcfg.clock_period = 50.0;
    generate(&gcfg).expect("generator")
}

/// The full (RAT-propagating) analysis of `design`.
fn analyze(design: &Design) -> (Timer, Analysis) {
    let lib = synthetic_pdk();
    let timer = Timer::new(design, &lib).expect("binds");
    let forest = build_forest(&design.netlist);
    let analysis = timer.analyze_into(&design.netlist, &forest, &mut AnalysisScratch::new());
    (timer, analysis)
}

fn extract(d: &Design, timer: &Timer, analysis: &Analysis, top_k: usize, decay: f64) -> PathSet {
    let mut scratch = PathScratch::new();
    let mut set = PathSet::new();
    timer.extract_paths_into(&d.netlist, analysis, top_k, decay, &mut scratch, &mut set);
    set
}

/// With `top_k = num_endpoints` and no rank decay, the extracted
/// criticalities agree with the full (RAT-propagating) analysis: every
/// endpoint carries exactly `clamp(−slack/|WNS|, 0, 1)`, and every traced
/// pin is bounded by its exact per-pin criticality.
#[test]
fn full_extraction_matches_full_analysis_criticalities() {
    let d = violating("paths_full");
    let nl = &d.netlist;
    let (timer, analysis) = analyze(&d);
    let all = analysis.endpoints().len();
    let paths = extract(&d, &timer, &analysis, all, 1.0);
    let wns = analysis.wns();
    assert!(wns < 0.0, "test needs violations");
    assert_eq!(paths.num_paths(), all);

    for k in 0..paths.num_paths() {
        let e = paths.endpoint(k);
        let exact = ((-analysis.slack[e.index()]) / -wns).clamp(0.0, 1.0);
        assert!(
            (paths.pin_criticality(e) - exact).abs() < 1e-12,
            "endpoint criticality mismatch at rank {k}"
        );
        // Every pin of the path lies on a real path into `e`, so its exact
        // (RAT-based) criticality can only be larger.
        for &p in paths.path(k) {
            let s = analysis.pin_slack(p);
            let full = if s.is_finite() { ((-s) / -wns).clamp(0.0, 1.0) } else { 0.0 };
            assert!(
                paths.pin_criticality(p) <= full + 1e-9,
                "path criticality exceeds exact at pin {}",
                nl.pin_name(p)
            );
        }
    }
}

/// Nets never touched by an extracted path carry zero criticality, so any
/// criticality-to-weight transfer `1 + (cap − 1)·c` (max over a net's pins)
/// leaves them at exactly 1: the wirelength objective off the critical cone
/// is untouched. Pins off `critical_pins` carry no criticality either, so a
/// consumer that reads only that list misses nothing.
#[test]
fn off_path_nets_keep_unit_weight() {
    let d = violating("paths_conc");
    let nl = &d.netlist;
    let (timer, analysis) = analyze(&d);
    let paths = extract(&d, &timer, &analysis, 4, 0.9);
    assert_eq!(paths.num_paths(), 4);

    for p in nl.pin_ids() {
        if !paths.critical_pins().contains(&p) {
            assert_eq!(paths.pin_criticality(p), 0.0, "off-path pin {}", nl.pin_name(p));
        }
    }

    let mut on_path = vec![false; nl.num_nets()];
    for &p in paths.critical_pins() {
        if let Some(net) = nl.pin(p).net() {
            on_path[net.index()] = true;
        }
    }
    let net_crit = |n: dtp_netlist::NetId| {
        nl.net(n).pins().iter().map(|&p| paths.pin_criticality(p)).fold(0.0, f64::max)
    };
    let (mut off, mut boosted) = (0usize, 0usize);
    for n in nl.net_ids() {
        let crit = net_crit(n);
        if on_path[n.index()] {
            boosted += usize::from(crit > 0.0);
        } else {
            off += 1;
            assert_eq!(crit, 0.0, "off-path net {} carries criticality", n.index());
        }
    }
    assert!(off > 0, "every net touched: the check is vacuous");
    assert!(boosted > 0, "no net on the extracted paths carries criticality");
}
