//! Ablation studies of the design choices called out in `DESIGN.md` §4:
//!
//! 1. LSE smoothing γ (paper: ≈100),
//! 2. Steiner topology drift budget (`FlowConfig::topo_dirty_frac`; the
//!    paper's blanket "rebuild every 10 iterations" became a per-net policy),
//! 3. t1/t2 growth schedule (paper: +1 %/iteration starting ≈ iteration 100),
//! 4. objective composition (TNS-only vs WNS-only vs both),
//! 5. the routability term (`--route`) off vs on, judged by the overflow it
//!    leaves at a capacity calibrated on the run without it.
//!
//! Usage: `cargo run -p dtp-bench --release --bin ablation [-- which]`
//! where `which ∈ {gamma, steiner, schedule, objective, route, all}`
//! (default all).
//! Exits non-zero when some sweep printed identical rows throughout: a knob
//! that changes nothing is not wired to the flow any more.

use dtp_core::{run_flow, DiffTimingConfig, FlowConfig, FlowMode, FlowResult, ROUTE_GRID};
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::superblue_proxy;
use dtp_netlist::Design;
use dtp_route::RudyMap;
use dtp_rsmt::build_forest;
use std::process::ExitCode;

/// The figures a sweep compares its rows by.
fn qor(r: &FlowResult) -> [f64; 3] {
    [r.wns, r.tns, r.hpwl]
}

/// Whether the swept knob changed anything: `false` (with a complaint on
/// stderr) when every row of the sweep has the same WNS, TNS and HPWL.
fn knob_is_live(sweep: &str, rows: &[[f64; 3]]) -> bool {
    let live = rows.windows(2).any(|w| w[0] != w[1]);
    if !live {
        let n = rows.len();
        eprintln!("ablation {sweep}: all {n} rows are identical — the knob ablates nothing");
    }
    live
}

/// The exact RUDY map of `r`'s final placement on the flow's route grid, at
/// `capacity` wire-µm per µm².
fn final_map(design: &Design, r: &FlowResult, capacity: f64) -> RudyMap {
    let mut placed = design.clone();
    placed.netlist.set_positions(&r.xs, &r.ys);
    let mut map = RudyMap::new(&placed, ROUTE_GRID, ROUTE_GRID, capacity);
    map.build(&placed.netlist, &build_forest(&placed.netlist));
    map
}

/// The capacity at which `r`'s placement overflows about a quarter of its
/// bins: the 75th percentile of its per-bin worst-direction demand density.
/// Real hot spots, not a uniformly saturated (or empty) grid.
fn calibrated_capacity(design: &Design, r: &FlowResult) -> f64 {
    let map = final_map(design, r, 1.0);
    let bin_area = map.grid().bin_w() * map.grid().bin_h();
    let mut density: Vec<f64> = map
        .h_demand()
        .iter()
        .zip(map.v_demand())
        .map(|(&h, &v)| h.max(v) / bin_area)
        .collect();
    density.sort_by(f64::total_cmp);
    density[density.len() * 3 / 4].max(1e-9)
}

fn main() -> ExitCode {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let design = superblue_proxy("sb18", 1.0 / 300.0).expect("sb18 is built-in");
    let lib = synthetic_pdk();
    let cfg = FlowConfig { trace_timing_every: 0, ..FlowConfig::default() };
    let base = DiffTimingConfig::default();
    let run_with = |d: DiffTimingConfig, cfg: &FlowConfig| {
        run_flow(&design, &lib, FlowMode::Differentiable(d), cfg).expect("flow succeeds")
    };
    let run = |d: DiffTimingConfig| run_with(d, &cfg);
    let mut all_live = true;

    if which == "gamma" || which == "all" {
        println!("== ablation: LSE smoothing gamma (paper ~100) ==");
        println!("{:<10} {:>10} {:>12} {:>10} {:>8}", "gamma", "WNS", "TNS", "HPWL", "time");
        let mut rows = Vec::new();
        for gamma in [5.0, 25.0, 100.0, 400.0, 1600.0] {
            let r = run(DiffTimingConfig { gamma, ..base });
            println!("{:<10} {:>10.1} {:>12.1} {:>10.0} {:>7.2}s", gamma, r.wns, r.tns, r.hpwl, r.runtime);
            rows.push(qor(&r));
        }
        all_live &= knob_is_live("gamma", &rows);
    }
    if which == "steiner" || which == "all" {
        // 0 = every net a moved cell touches gets a fresh topology at every
        // sync; larger budgets re-embed more and rebuild less.
        println!("\n== ablation: Steiner topology drift budget (default 0.10) ==");
        println!("{:<10} {:>10} {:>12} {:>10} {:>8}", "topo_frac", "WNS", "TNS", "HPWL", "time");
        let mut rows = Vec::new();
        for topo_dirty_frac in [0.0, 0.05, 0.10, 0.25, 0.50] {
            let r = run_with(base, &FlowConfig { topo_dirty_frac, ..cfg });
            println!("{:<10} {:>10.1} {:>12.1} {:>10.0} {:>7.2}s", topo_dirty_frac, r.wns, r.tns, r.hpwl, r.runtime);
            rows.push(qor(&r));
        }
        all_live &= knob_is_live("steiner", &rows);
    }
    if which == "schedule" || which == "all" {
        println!("\n== ablation: t1/t2 schedule (paper: start ~100, +1%/iter) ==");
        println!("{:<16} {:>10} {:>12} {:>10}", "start/growth", "WNS", "TNS", "HPWL");
        let mut rows = Vec::new();
        for (start, growth) in [(0usize, 1.01), (50, 1.01), (100, 1.0), (100, 1.01), (100, 1.05)] {
            let r = run(DiffTimingConfig { start_iter: start, growth, ..base });
            println!("{:<16} {:>10.1} {:>12.1} {:>10.0}", format!("{start}/{growth}"), r.wns, r.tns, r.hpwl);
            rows.push(qor(&r));
        }
        all_live &= knob_is_live("schedule", &rows);
    }
    if which == "objective" || which == "all" {
        println!("\n== ablation: objective composition ==");
        println!("{:<16} {:>10} {:>12} {:>10}", "t1/t2", "WNS", "TNS", "HPWL");
        let mut rows = Vec::new();
        for (label, t1, t2) in [
            ("none (WL only)", 0.0, 0.0),
            ("TNS only", base.t1, 0.0),
            ("WNS only", 0.0, base.t2 * 100.0),
            ("both (paper)", base.t1, base.t2),
        ] {
            let r = run(DiffTimingConfig { t1, t2, ..base });
            println!("{:<16} {:>10.1} {:>12.1} {:>10.0}", label, r.wns, r.tns, r.hpwl);
            rows.push(qor(&r));
        }
        all_live &= knob_is_live("objective", &rows);
    }
    if which == "route" || which == "all" {
        // The run without the term calibrates the capacity (the route knobs
        // are inert there); both placements are then judged at it, since the
        // summary a flow reports is taken at the capacity it ran with.
        println!("\n== ablation: routability term (--route), at a calibrated capacity ==");
        let off = run(base);
        let capacity = calibrated_capacity(&design, &off);
        let on = run_with(base, &FlowConfig { route_aware: true, route_capacity: capacity, ..cfg });
        println!("capacity {capacity:.3} wire-um/um^2: 75th percentile of the off run's bin demand");
        println!(
            "{:<10} {:>10} {:>8} {:>10} {:>12} {:>10}",
            "route", "overflowed", "max_ovf", "WNS", "TNS", "HPWL"
        );
        let mut rows = Vec::new();
        for (label, r) in [("off", &off), ("on", &on)] {
            let s = final_map(&design, r, capacity).summary();
            println!(
                "{:<10} {:>9.1}% {:>8.3} {:>10.1} {:>12.1} {:>10.0}",
                label,
                100.0 * s.overflowed_frac,
                s.max_overflow,
                r.wns,
                r.tns,
                r.hpwl
            );
            rows.push(qor(r));
        }
        all_live &= knob_is_live("route", &rows);
    }
    if all_live {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::knob_is_live;

    #[test]
    fn identical_rows_fail_the_sweep_and_one_differing_row_passes_it() {
        let row = [-1235.9, -270982.6, 103599.0];
        assert!(!knob_is_live("forced-equal", &[row; 5]));
        let mut rows = [row; 5];
        rows[3][2] += 1.0;
        assert!(knob_is_live("one-differs", &rows));
    }
}
