//! Timing-to-wirelength weight transfer: the momentum net-weighting baseline
//! \[24\].
//!
//! Net weighting runs an exact STA, derives a per-net *criticality* from the
//! slack of the net's driver pin, and nudges the net's weight in the
//! weighted-wirelength objective (Eq. 4) with momentum:
//!
//! ```text
//! crit_e = max(0, −slack_e / |WNS|)            (1 for the most critical net)
//! ŵ_e    = 1 + MAX_BOOST · crit_e
//! w_e    ← MOMENTUM · w_e + (1 − MOMENTUM) · ŵ_e
//! ```

use dtp_netlist::{NetId, Netlist};
use dtp_place::WirelengthModel;
use dtp_sta::Analysis;

/// Momentum coefficient of the weight update.
const MOMENTUM: f64 = 0.5;

/// Instantaneous weight boost of a fully critical net.
const MAX_BOOST: f64 = 2.0;

/// Evolving per-net weights for the weighted wirelength objective.
#[derive(Clone, Debug)]
pub(crate) struct NetWeighter {
    /// One weight per *model* net (the wirelength model's net indexing).
    weights: Vec<f64>,
}

impl NetWeighter {
    /// Initializes unit weights for every net of the wirelength model.
    pub(crate) fn new(model: &WirelengthModel) -> NetWeighter {
        NetWeighter { weights: vec![1.0; model.num_nets()] }
    }

    /// Current weights (aligned with the wirelength model's nets).
    pub(crate) fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Updates the weights from an exact analysis.
    pub(crate) fn update(&mut self, nl: &Netlist, model: &WirelengthModel, analysis: &Analysis) {
        let wns = analysis.wns();
        if !wns.is_finite() || wns >= 0.0 {
            // No violations: decay back toward 1.
            for w in &mut self.weights {
                *w = MOMENTUM * *w + (1.0 - MOMENTUM);
            }
            return;
        }
        for e in 0..self.weights.len() {
            let net = NetId::new(model.net_index(e));
            let driver = nl.net(net).pins()[0];
            let slack = analysis.pin_slack(driver);
            let crit = if slack.is_finite() {
                (-slack / -wns).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let target = 1.0 + MAX_BOOST * crit;
            self.weights[e] = MOMENTUM * self.weights[e] + (1.0 - MOMENTUM) * target;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtp_liberty::synth::synthetic_pdk;
    use dtp_netlist::generate::{generate, GeneratorConfig};
    use dtp_rsmt::build_forest;
    use dtp_sta::{AnalysisScratch, Timer};

    #[test]
    fn critical_nets_get_heavier() {
        let mut cfg = GeneratorConfig::named("nw", 250);
        cfg.clock_period = 50.0; // aggressive: many violations
        let d = generate(&cfg).unwrap();
        let lib = synthetic_pdk();
        let timer = Timer::new(&d, &lib).unwrap();
        let forest = build_forest(&d.netlist);
        let analysis = timer.analyze_into(&d.netlist, &forest, &mut AnalysisScratch::new());
        assert!(analysis.wns() < 0.0, "test needs violations");

        let model = WirelengthModel::new(&d.netlist);
        let mut weighter = NetWeighter::new(&model);
        weighter.update(&d.netlist, &model, &analysis);

        // The weight of the most critical driver's net must exceed that of a
        // comfortably met net.
        let mut crit_w: f64 = 0.0;
        let mut slack_of_max = f64::INFINITY;
        let mut relaxed_w: f64 = f64::INFINITY;
        for e in 0..model.num_nets() {
            let net = NetId::new(model.net_index(e));
            let driver = d.netlist.net(net).pins()[0];
            let s = analysis.pin_slack(driver);
            if s < slack_of_max {
                slack_of_max = s;
                crit_w = weighter.weights()[e];
            }
            if s > 0.0 {
                relaxed_w = relaxed_w.min(weighter.weights()[e]);
            }
        }
        assert!(
            crit_w > relaxed_w,
            "critical weight {crit_w} not above relaxed weight {relaxed_w}"
        );
        assert!(crit_w > 1.0);
    }

    #[test]
    fn weights_decay_without_violations() {
        let mut cfg = GeneratorConfig::named("nw2", 100);
        cfg.clock_period = 1e7; // everything met
        let d = generate(&cfg).unwrap();
        let lib = synthetic_pdk();
        let timer = Timer::new(&d, &lib).unwrap();
        let forest = build_forest(&d.netlist);
        let analysis = timer.analyze_into(&d.netlist, &forest, &mut AnalysisScratch::new());
        assert!(analysis.wns() > 0.0);
        let model = WirelengthModel::new(&d.netlist);
        let mut weighter = NetWeighter::new(&model);
        // Force a high weight, then verify decay toward 1.
        weighter.weights[0] = 5.0;
        weighter.update(&d.netlist, &model, &analysis);
        assert!(weighter.weights()[0] < 5.0);
        for _ in 0..50 {
            weighter.update(&d.netlist, &model, &analysis);
        }
        assert!((weighter.weights()[0] - 1.0).abs() < 1e-6);
    }
}
