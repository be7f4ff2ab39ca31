//! The headline demo: place one synthetic superblue proxy with all three
//! flows (wirelength-only DREAMPlace, net weighting, and the paper's
//! differentiable-timing-driven method) and compare WNS/TNS/HPWL — a
//! miniature of the paper's Table 3.
//!
//! Run with: `cargo run --release -p dtp-core --example timing_driven_placement`
//! (optionally pass a benchmark name, e.g. `-- sb18`, and a scale denominator).

use dtp_core::{run_flow, FlowConfig, FlowMode};
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::superblue_proxy;
use dtp_netlist::NetlistStats;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "sb18".to_owned());
    let denom: f64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300.0);
    let design = superblue_proxy(&name, 1.0 / denom)?;
    let lib = synthetic_pdk();
    println!(
        "benchmark {} at scale 1/{denom:.0}: {}",
        design.name,
        NetlistStats::of(&design.netlist)
    );
    println!("clock period: {} ps\n", design.constraints.clock_period);

    let cfg = FlowConfig::default();
    let mut baseline: Option<(f64, f64, f64)> = None;
    for mode in [
        FlowMode::Wirelength,
        FlowMode::NetWeighting,
        FlowMode::differentiable(),
    ] {
        let r = run_flow(&design, &lib, mode, &cfg)?;
        match baseline {
            None => {
                println!("{r}");
                baseline = Some((r.wns, r.tns, r.hpwl));
            }
            Some((wns0, tns0, hpwl0)) => {
                println!(
                    "{r}   (WNS {:+.1}%, TNS {:+.1}%, HPWL {:+.1}% vs DREAMPlace)",
                    100.0 * (1.0 - r.wns / wns0),
                    100.0 * (1.0 - r.tns / tns0),
                    100.0 * (r.hpwl / hpwl0 - 1.0)
                );
            }
        }
    }
    println!(
        "\nThe differentiable flow should recover the most negative slack (paper: \
         up to 32.7% WNS / 59.1% TNS improvement over net weighting)."
    );
    Ok(())
}
