//! Regenerates **Table 3**: WNS / TNS / HPWL / runtime of the three flows —
//! DREAMPlace \[16\] (wirelength only), net weighting \[24\], and the paper's
//! differentiable-timing-driven placer — on the eight superblue proxies,
//! including the Avg.-Ratio row.
//!
//! Usage:
//! `cargo run -p dtp-bench --release --bin table3 [-- scale_denom [max_iters]]`
//!
//! Environment: `DTP_BENCHES=sb1,sb18` restricts the benchmark list. Results
//! are also written to `results/table3.csv`.

use dtp_core::{run_flow, FlowConfig, FlowMode, FlowResult};
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{superblue_proxy, SUPERBLUE_TABLE2};
use std::fmt::Write as _;

fn main() {
    let scale_denom: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(150.0);
    let max_iters: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);
    let only: Option<Vec<String>> = std::env::var("DTP_BENCHES")
        .ok()
        .map(|s| s.split(',').map(|t| t.trim().to_owned()).collect());

    let lib = synthetic_pdk();
    let cfg = FlowConfig { max_iters, trace_timing_every: 0, ..FlowConfig::default() };
    let modes = [
        FlowMode::Wirelength,
        FlowMode::NetWeighting,
        FlowMode::differentiable(),
    ];

    println!(
        "Table 3: comparison at proxy scale 1/{scale_denom:.0}, {max_iters} max iterations\n"
    );
    println!(
        "{:<8} | {:>9} {:>12} {:>10} {:>8} | {:>9} {:>12} {:>10} {:>8} | {:>9} {:>12} {:>10} {:>8}",
        "Bench",
        "WNS", "TNS", "HPWL", "Time",
        "WNS", "TNS", "HPWL", "Time",
        "WNS", "TNS", "HPWL", "Time"
    );
    println!(
        "{:<8} | {:^43} | {:^43} | {:^43}",
        "", "DREAMPlace [16]", "Net Weighting [24]", "Ours"
    );
    println!("{}", "-".repeat(145));

    let mut csv = String::from("bench,mode,wns_ps,tns_ps,hpwl_um,runtime_s,iterations\n");
    // ratios accumulated as (flow metric) / (ours metric), per the paper.
    let mut ratio = [[0.0f64; 4]; 3];
    let mut count = 0usize;

    for &(name, _, _, _) in SUPERBLUE_TABLE2 {
        let short = name.replace("superblue", "sb");
        if let Some(list) = &only {
            if !list.iter().any(|n| n == &short || n == name) {
                continue;
            }
        }
        let design = superblue_proxy(name, 1.0 / scale_denom)
            .expect("built-in benchmark names are valid");
        let results: Vec<FlowResult> = modes
            .iter()
            .map(|&m| run_flow(&design, &lib, m, &cfg).expect("flow succeeds"))
            .collect();
        let ours = &results[2];
        print!("{:<8} |", short);
        for r in &results {
            print!(
                " {:>9.1} {:>12.1} {:>10.0} {:>7.2}s |",
                r.wns, r.tns, r.hpwl, r.runtime
            );
            let _ = writeln!(
                csv,
                "{},{},{:.3},{:.3},{:.1},{:.3},{}",
                short, r.mode, r.wns, r.tns, r.hpwl, r.runtime, r.iterations
            );
        }
        println!();
        for (k, r) in results.iter().enumerate() {
            ratio[k][0] += safe_ratio(r.wns.min(-1e-9), ours.wns.min(-1e-9));
            ratio[k][1] += safe_ratio(r.tns.min(-1e-9), ours.tns.min(-1e-9));
            ratio[k][2] += r.hpwl / ours.hpwl;
            ratio[k][3] += r.runtime / ours.runtime;
        }
        count += 1;
    }
    if count > 0 {
        println!("{}", "-".repeat(145));
        print!("{:<8} |", "Avg.R");
        for row in &ratio {
            print!(
                " {:>9.3} {:>12.3} {:>10.3} {:>8.3} |",
                row[0] / count as f64,
                row[1] / count as f64,
                row[2] / count as f64,
                row[3] / count as f64
            );
        }
        println!();
        println!(
            "\npaper Avg.Ratio reference: DREAMPlace 1.897/3.125/0.987/0.318, \
             NetWeighting 1.282/1.472/1.043/1.807, Ours 1.000/1.000/1.000/1.000"
        );
    }
    std::fs::create_dir_all("results").ok();
    if std::fs::write("results/table3.csv", &csv).is_ok() {
        println!("wrote results/table3.csv");
    }
}

/// |a| / |b| for two negative slack metrics.
fn safe_ratio(a: f64, b: f64) -> f64 {
    (a.abs()) / (b.abs().max(1e-9))
}
