//! The timer's setting and constraints: γ must be usable by every analysis,
//! and every SDC constraint must move the analysis in the physically
//! expected direction.

use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_rsmt::build_forest;
use dtp_sta::{AnalysisScratch, StaError, Timer, DEFAULT_GAMMA};

fn design() -> dtp_netlist::Design {
    generate(&GeneratorConfig::named("cfg", 200)).expect("generator succeeds")
}

#[test]
fn gamma_that_no_analysis_can_use_is_refused() {
    let d = design();
    let lib = synthetic_pdk();
    for gamma in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        match Timer::with_gamma(&d, &lib, gamma) {
            Err(StaError::Gamma(g)) => assert_eq!(g.to_bits(), gamma.to_bits()),
            other => panic!("gamma {gamma}: {:?}", other.map(|t| t.gamma())),
        }
    }
    let timer = Timer::with_gamma(&d, &lib, 50.0).expect("binds");
    assert_eq!(timer.gamma(), 50.0);
    assert_eq!(Timer::new(&d, &lib).expect("binds").gamma(), DEFAULT_GAMMA);
}

#[test]
fn sdc_input_delay_tightens_pi_paths() {
    let mut d = design();
    let lib = synthetic_pdk();
    let forest = build_forest(&d.netlist);
    let base = Timer::new(&d, &lib)
        .expect("binds")
        .analyze_into(&d.netlist, &forest, &mut AnalysisScratch::new());
    d.constraints.default_input_delay += 100.0;
    let tightened = Timer::new(&d, &lib)
        .expect("binds")
        .analyze_into(&d.netlist, &forest, &mut AnalysisScratch::new());
    assert!(tightened.wns() <= base.wns() + 1e-9);
    assert!(tightened.tns() <= base.tns() + 1e-9);
}

#[test]
fn longer_period_relaxes_everything() {
    let mut d = design();
    let lib = synthetic_pdk();
    let forest = build_forest(&d.netlist);
    let tight = Timer::new(&d, &lib)
        .expect("binds")
        .analyze_into(&d.netlist, &forest, &mut AnalysisScratch::new());
    let period = d.constraints.clock_period;
    d.constraints.clock_period = period * 2.0;
    let relaxed = Timer::new(&d, &lib)
        .expect("binds")
        .analyze_into(&d.netlist, &forest, &mut AnalysisScratch::new());
    // Every endpoint gains at most `period` of slack (register paths gain the
    // full period; PI/PO paths gain it too since RAT = period − margin).
    assert!(relaxed.wns() >= tight.wns() + period - 1e-6);
    for &p in tight.endpoints() {
        let gain = relaxed.slack[p.index()] - tight.slack[p.index()];
        assert!((gain - period).abs() < 1e-6, "gain {gain} != period {period}");
    }
}
