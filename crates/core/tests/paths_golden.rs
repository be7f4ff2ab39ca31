//! Path-extraction flow goldens: pool-width determinism of
//! `FlowMode::PathExtraction`, agreement of the extracted weights with the
//! full-analysis criticalities when K covers every endpoint, and the
//! concentration of the weights on the extracted paths.

use dtp_core::{run_flow, FlowConfig, FlowMode, PathExtractConfig, PathWeighter};
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_place::{check_legal, WirelengthModel};
use dtp_rsmt::build_forest;
use dtp_sta::Timer;

fn path_mode(start_iter: usize) -> FlowMode {
    FlowMode::PathExtraction(PathExtractConfig { start_iter, ..PathExtractConfig::default() })
}

/// The path-extraction flow — forward-only analyses, extraction, weight
/// transfer, Nesterov, legalization — is bit-for-bit identical across pool
/// widths 1/2/4 and the ambient pool.
#[test]
fn path_extraction_flow_is_bit_identical_across_pool_widths() {
    let d = generate(&GeneratorConfig::named("paths_golden", 600)).expect("generator");
    let lib = synthetic_pdk();
    let mut cfg = FlowConfig {
        max_iters: 120,
        trace_timing_every: 20,
        ..FlowConfig::default()
    };
    // Engage timing well before the iteration cap so several extractions run.
    let mode = path_mode(60);
    cfg.threads = 1;
    let base = run_flow(&d, &lib, mode, &cfg).expect("flow runs");
    assert_eq!(base.mode, "PathExtract");
    for threads in [0usize, 2, 4] {
        cfg.threads = threads;
        let r = run_flow(&d, &lib, mode, &cfg).expect("flow runs");
        assert_eq!(base.xs, r.xs, "x positions differ at threads={threads}");
        assert_eq!(base.ys, r.ys, "y positions differ at threads={threads}");
        assert_eq!(base.hpwl, r.hpwl, "hpwl differs at threads={threads}");
        assert_eq!(base.wns, r.wns, "wns differs at threads={threads}");
        assert_eq!(base.tns, r.tns, "tns differs at threads={threads}");
        assert_eq!(base.iterations, r.iterations);
    }
    let violations = check_legal(&d, &base.xs, &base.ys);
    assert!(violations.is_empty(), "violations: {:?}", &violations[..violations.len().min(5)]);
}

/// With `top_k = num_endpoints`, `path_decay = 1` and extraction every
/// analysis (`extract_period = 1` semantics), the extracted criticalities
/// agree with the full (RAT-propagating) analysis: every endpoint carries
/// exactly `clamp(−slack/|WNS|, 0, 1)`, every traced pin is bounded by its
/// exact per-pin criticality, and the endpoint nets' weights hit the
/// corresponding boost.
#[test]
fn full_extraction_matches_full_analysis_criticalities() {
    let mut gcfg = GeneratorConfig::named("paths_full", 300);
    gcfg.clock_period = 50.0; // aggressive: violations everywhere
    let d = generate(&gcfg).expect("generator");
    let lib = synthetic_pdk();
    let timer = Timer::new(&d, &lib).expect("binds");
    let forest = build_forest(&d.netlist);
    let analysis = timer.analyze(&d.netlist, &forest); // full: RATs included
    let wns = analysis.wns();
    assert!(wns < 0.0, "test needs violations");

    let model = WirelengthModel::new(&d.netlist);
    let pcfg = PathExtractConfig {
        top_k: analysis.endpoints().len(),
        extract_period: 1,
        path_decay: 1.0,
        pin_weight_cap: 3.0,
        start_iter: 0,
    };
    let mut pw = PathWeighter::new(&d.netlist, &model, pcfg);
    pw.update(&d.netlist, &timer, &analysis);
    let paths = pw.paths();
    assert_eq!(paths.num_paths(), analysis.endpoints().len());

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
                d.netlist.pin_name(p)
            );
        }
    }
    // Weight transfer: the net of each endpoint reaches at least the boost
    // its endpoint criticality implies (max-aggregation can only raise it).
    let weights = pw.weights();
    for k in 0..paths.num_paths() {
        let e = paths.endpoint(k);
        let Some(net) = d.netlist.pin(e).net() else { continue };
        let m = (0..model.num_nets())
            .find(|&i| model.net_index(i) == net.index())
            .expect("endpoint net modeled");
        let exact = ((-analysis.slack[e.index()]) / -wns).clamp(0.0, 1.0);
        let floor = 1.0 + (pcfg.pin_weight_cap - 1.0) * exact;
        assert!(
            weights[m] >= floor - 1e-12,
            "net weight {} below endpoint floor {floor}",
            weights[m]
        );
    }
}

/// Nets never touched by an extracted path keep weight exactly 1, so the
/// wirelength objective off the critical cone is untouched — the mode's
/// concentration property at the weighting layer.
#[test]
fn off_path_nets_keep_unit_weight() {
    let mut gcfg = GeneratorConfig::named("paths_conc", 300);
    gcfg.clock_period = 50.0;
    let d = generate(&gcfg).expect("generator");
    let lib = synthetic_pdk();
    let timer = Timer::new(&d, &lib).expect("binds");
    let forest = build_forest(&d.netlist);
    let analysis = timer.analyze(&d.netlist, &forest);
    let model = WirelengthModel::new(&d.netlist);
    let pcfg = PathExtractConfig { top_k: 4, ..PathExtractConfig::default() };
    let mut pw = PathWeighter::new(&d.netlist, &model, pcfg);
    pw.update(&d.netlist, &timer, &analysis);

    // Collect the nets adjacent to extracted pins; everything else must be 1.
    let mut on_path = vec![false; model.num_nets()];
    let inverse: std::collections::HashMap<usize, usize> =
        (0..model.num_nets()).map(|e| (model.net_index(e), e)).collect();
    for &p in pw.paths().critical_pins() {
        if let Some(net) = d.netlist.pin(p).net() {
            if let Some(&e) = inverse.get(&net.index()) {
                on_path[e] = true;
            }
        }
    }
    for (e, touched) in on_path.iter().enumerate() {
        if !touched {
            assert_eq!(pw.weights()[e], 1.0, "off-path net {e} was reweighted");
        }
    }
}
