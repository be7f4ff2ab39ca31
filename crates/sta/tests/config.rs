//! Sensitivity tests of the timer configuration: every knob must move the
//! analysis in the physically expected direction.

use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_rsmt::build_forest;
use dtp_sta::{AnalysisScratch, Timer, TimerConfig};

fn design() -> dtp_netlist::Design {
    generate(&GeneratorConfig::named("cfg", 200)).expect("generator succeeds")
}

#[test]
fn clock_arrival_shifts_launch_and_capture_together() {
    // An ideal clock delayed by t shifts register launches *and* captures by
    // t, so register→register slacks are invariant; only PI→register and
    // register→PO paths shift.
    let d = design();
    let lib = synthetic_pdk();
    let forest = build_forest(&d.netlist);
    let base = Timer::with_config(&d, &lib, TimerConfig::default())
        .expect("binds")
        .analyze_into(&d.netlist, &forest, &mut AnalysisScratch::new());
    let shifted_timer = Timer::with_config(
        &d,
        &lib,
        TimerConfig { clock_arrival: 50.0, ..TimerConfig::default() },
    )
    .expect("binds");
    let shifted = shifted_timer.analyze_into(&d.netlist, &forest, &mut AnalysisScratch::new());
    // Register-data endpoints fed exclusively from registers keep their slack.
    let graph = shifted_timer.graph();
    let mut checked = 0;
    for &p in base.endpoints() {
        if graph.role(p) == dtp_sta::PinRole::RegisterData {
            // AT at the D pin shifts by exactly the launch shift only when the
            // whole fan-in cone is register-launched; in general AT shifts by
            // at most 50. Slack changes accordingly but never by more than 50.
            let ds = (shifted.slack[p.index()] - base.slack[p.index()]).abs();
            assert!(ds <= 50.0 + 1e-6, "slack moved by {ds}");
            checked += 1;
        }
    }
    assert!(checked > 0);
}

#[test]
fn larger_input_slew_slows_the_design() {
    let d = design();
    let lib = synthetic_pdk();
    let forest = build_forest(&d.netlist);
    let fast = Timer::with_config(&d, &lib, TimerConfig { input_slew: 2.0, ..TimerConfig::default() })
        .expect("binds")
        .analyze_into(&d.netlist, &forest, &mut AnalysisScratch::new());
    let slow = Timer::with_config(&d, &lib, TimerConfig { input_slew: 80.0, ..TimerConfig::default() })
        .expect("binds")
        .analyze_into(&d.netlist, &forest, &mut AnalysisScratch::new());
    assert!(slow.wns() <= fast.wns() + 1e-9, "{} vs {}", slow.wns(), fast.wns());
    assert!(slow.tns() <= fast.tns() + 1e-9);
}

#[test]
fn slower_clock_slew_slows_register_launch() {
    let d = design();
    let lib = synthetic_pdk();
    let forest = build_forest(&d.netlist);
    let crisp = Timer::with_config(&d, &lib, TimerConfig { clock_slew: 5.0, ..TimerConfig::default() })
        .expect("binds")
        .analyze_into(&d.netlist, &forest, &mut AnalysisScratch::new());
    let sloppy = Timer::with_config(&d, &lib, TimerConfig { clock_slew: 100.0, ..TimerConfig::default() })
        .expect("binds")
        .analyze_into(&d.netlist, &forest, &mut AnalysisScratch::new());
    assert!(sloppy.wns() <= crisp.wns() + 1e-9);
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
