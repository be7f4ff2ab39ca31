//! Routability benchmark emitting `BENCH_route.json`.
//!
//! Two hand-timed measurements:
//!
//! 1. **Flow quality**: the same synthetic proxy placed with
//!    `route_aware = false` and `true` under a tight routing capacity; the
//!    JSON records final overflowed-bin fraction, max overflow, HPWL and
//!    TNS of both runs plus the relative deltas (the acceptance target is
//!    ≥ 20 % overflowed-bin reduction at ≤ 5 % HPWL and |TNS| cost).
//! 2. **Map maintenance cost**, both regimes: a full build against the
//!    incremental update after moving 1 % of the cells (the update must
//!    scale with the dirty-net set, not the design), and the update with
//!    *every* net dirty and every cell moved — what each iteration of the
//!    global-placement loop pays — with its ns per stamp, plus the bytes of
//!    stamp record kept per branch.
//!
//! Usage: `cargo run --release -p dtp-bench --bin bench_route [-- cells]`
//! (default 4000). `--smoke` runs a tiny configuration for CI.

use dtp_core::{run_flow, FlowConfig, FlowMode};
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_netlist::{CellId, NetId, Point};
use dtp_route::RudyMap;
use dtp_rsmt::{build_forest, ForestScratch};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Mean nanoseconds per call of `f` (warmup + ~0.5 s of repetitions).
fn time_ns(mut f: impl FnMut()) -> f64 {
    for _ in 0..2 {
        f();
    }
    let probe = Instant::now();
    f();
    let once = probe.elapsed().as_secs_f64();
    let reps = ((0.5 / once.max(1e-6)) as usize).clamp(5, 200);
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e9 / reps as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let cells: usize = args
        .iter()
        .find_map(|a| a.parse().ok())
        .unwrap_or(if smoke { 800 } else { 4000 });

    let design = generate(&GeneratorConfig::named("bench_route", cells)).unwrap();
    let lib = synthetic_pdk();
    let cfg_off = FlowConfig {
        max_iters: if smoke { 120 } else { 500 },
        trace_timing_every: 0,
        ..FlowConfig::default()
    };

    // Baseline flow; the route knobs are inert here, so it doubles as the
    // capacity-calibration run: pick the 75th percentile of the baseline's
    // per-bin worst-direction demand density as the capacity, so that the
    // baseline overflows ~25 % of its bins — real hot spots, not a
    // uniformly saturated (or empty) grid.
    let off = run_flow(&design, &lib, FlowMode::differentiable(), &cfg_off).unwrap();
    let grid = cfg_off.route_grid;
    let mut base = design.clone();
    base.netlist.set_positions(&off.xs, &off.ys);
    let base_forest = build_forest(&base.netlist);
    let mut probe = RudyMap::new(&base, grid, grid, 1.0);
    probe.build(&base.netlist, &base_forest);
    let bin_area = probe.grid().bin_w() * probe.grid().bin_h();
    let mut dens: Vec<f64> = probe
        .h_demand()
        .iter()
        .zip(probe.v_demand())
        .map(|(&h, &v)| h.max(v) / bin_area)
        .collect();
    dens.sort_by(f64::total_cmp);
    let capacity = dens[dens.len() * 3 / 4].max(1e-9);

    let cfg_on = FlowConfig {
        route_aware: true,
        route_capacity: capacity,
        ..cfg_off
    };
    let on = run_flow(&design, &lib, FlowMode::differentiable(), &cfg_on).unwrap();

    // Evaluate both final placements at the calibrated capacity (the
    // baseline's FlowResult summary used the default capacity).
    let summarize = |r: &dtp_core::FlowResult| {
        let mut d = design.clone();
        d.netlist.set_positions(&r.xs, &r.ys);
        let f = build_forest(&d.netlist);
        let mut m = RudyMap::new(&d, grid, grid, capacity);
        m.build(&d.netlist, &f);
        m.summary()
    };
    let off_sum = summarize(&off);
    let on_sum = summarize(&on);

    let overflow_delta = if off_sum.overflowed_frac > 0.0 {
        1.0 - on_sum.overflowed_frac / off_sum.overflowed_frac
    } else {
        0.0
    };
    let hpwl_delta = on.hpwl / off.hpwl - 1.0;
    let tns_delta = if off.tns.abs() > 0.0 { on.tns.abs() / off.tns.abs() - 1.0 } else { 0.0 };

    // Incremental map maintenance: move 1% of the cells, compare a full
    // rebuild against the dirty-net update.
    let mut work = design.clone();
    work.netlist.set_positions(&on.xs, &on.ys);
    let mut forest = build_forest(&work.netlist);
    let mut map = RudyMap::new(&work, grid, grid, cfg_on.route_capacity);
    map.build(&work.netlist, &forest);
    let build_ns = time_ns(|| {
        let mut fresh = RudyMap::new(&work, grid, grid, cfg_on.route_capacity);
        fresh.build(&work.netlist, &forest);
        black_box(fresh.summary());
    });

    let movable: Vec<CellId> = work.netlist.movable_cells().collect();
    let n_moved = (movable.len() / 100).max(1);
    let mut dirty: Vec<NetId> = Vec::new();
    for &c in movable.iter().take(n_moved) {
        let p = work.netlist.cell(c).pos();
        work.netlist.set_cell_pos(c, Point::new(p.x + 2.0, p.y + 1.0));
        for &pin in work.netlist.cell(c).pins() {
            if let Some(net) = work.netlist.pin(pin).net() {
                if !dirty.contains(&net) {
                    dirty.push(net);
                }
            }
        }
    }
    let mut scratch = ForestScratch::new();
    forest.update_nets_into(&work.netlist, &dirty, &mut scratch);
    let update_ns = time_ns(|| {
        map.update_nets(&forest, &dirty);
        map.sync_cells(&work.netlist);
        black_box(map.summary());
    });
    let speedup = build_ns / update_ns;

    // The global-placement case: every cell moves between two position
    // sets, so every tree net is dirty and every cell re-stamps. Only the
    // map's share of an iteration is timed.
    let all_nets: Vec<NetId> = work.netlist.net_ids().collect();
    let (home_x, home_y) = work.netlist.positions();
    let mut away_x = home_x.clone();
    for &c in &movable {
        away_x[c.index()] += 0.75;
    }
    let reps = if smoke { 20 } else { 200 };
    let stamps_before = map.stamps_written();
    let mut update_all_s = 0.0;
    for rep in 0..reps + 2 {
        let xs = if rep % 2 == 0 { &away_x } else { &home_x };
        work.netlist.set_positions(xs, &home_y);
        forest.update_nets_into(&work.netlist, &all_nets, &mut scratch);
        let t0 = Instant::now();
        map.update_nets(&forest, &all_nets);
        map.sync_cells(&work.netlist);
        if rep >= 2 {
            update_all_s += t0.elapsed().as_secs_f64();
        }
    }
    let update_all_ns = update_all_s * 1e9 / reps as f64;
    let stamps_per_update = (map.stamps_written() - stamps_before) / (reps as u64 + 2);
    let ns_per_stamp = update_all_ns / stamps_per_update.max(1) as f64;
    let live_edges: usize = all_nets
        .iter()
        .filter_map(|&n| forest.tree(n))
        .map(|t| t.num_nodes() - 1)
        .sum();
    let bytes_per_live_edge = map.record_bytes() as f64 / live_edges.max(1) as f64;

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"design_cells\": {},", design.netlist.num_cells());
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    let _ = writeln!(json, "  \"threads\": {},", rayon::current_num_threads());
    let _ = writeln!(json, "  \"route_grid\": {grid},");
    let _ = writeln!(json, "  \"route_capacity\": {capacity:.4},");
    let _ = writeln!(json, "  \"flow\": {{");
    for (label, r, s, comma) in
        [("baseline", &off, &off_sum, ","), ("route_aware", &on, &on_sum, ",")]
    {
        let _ = writeln!(
            json,
            "    \"{label}\": {{\"overflowed_frac\": {:.4}, \"max_overflow\": {:.3}, \
             \"avg_overflow\": {:.4}, \"hpwl\": {:.0}, \"wns\": {:.1}, \"tns\": {:.1}}}{comma}",
            s.overflowed_frac,
            s.max_overflow,
            s.avg_overflow,
            r.hpwl,
            r.wns,
            r.tns
        );
    }
    let _ = writeln!(
        json,
        "    \"overflowed_frac_reduction\": {overflow_delta:.4}, \
         \"hpwl_delta\": {hpwl_delta:.4}, \"tns_delta\": {tns_delta:.4}"
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"map\": {{");
    let _ = writeln!(json, "    \"full_build_ns\": {build_ns:.0},");
    let _ = writeln!(
        json,
        "    \"incremental_update_ns\": {update_ns:.0}, \"moved_cells\": {n_moved}, \
         \"dirty_nets\": {}, \"speedup_vs_build\": {speedup:.2},",
        dirty.len()
    );
    let _ = writeln!(
        json,
        "    \"update_all_ns\": {update_all_ns:.0}, \"stamps_per_update_all\": {stamps_per_update}, \
         \"update_all_ns_per_stamp\": {ns_per_stamp:.2},"
    );
    let _ = writeln!(
        json,
        "    \"bytes_per_edge\": {}, \"record_bytes_per_live_edge\": {bytes_per_live_edge:.1}",
        RudyMap::RECORD_BYTES
    );
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_route.json", &json).expect("write BENCH_route.json");

    println!("design: {cells} cells, grid {grid}, calibrated capacity {capacity:.3}");
    println!("baseline   : {off_sum} | HPWL {:.0} | TNS {:.1}", off.hpwl, off.tns);
    println!("route-aware: {on_sum} | HPWL {:.0} | TNS {:.1}", on.hpwl, on.tns);
    println!(
        "overflowed-bin reduction {:.1}% | HPWL delta {:+.2}% | TNS delta {:+.2}%",
        overflow_delta * 100.0,
        hpwl_delta * 100.0,
        tns_delta * 100.0
    );
    println!(
        "map: full build {build_ns:.0} ns, incremental update ({n_moved} cells, {} nets) \
         {update_ns:.0} ns ({speedup:.1}x)",
        dirty.len()
    );
    println!(
        "map: update with every net dirty {update_all_ns:.0} ns ({stamps_per_update} stamps, \
         {ns_per_stamp:.2} ns/stamp); {} B per record, {bytes_per_live_edge:.1} B of records per live branch",
        RudyMap::RECORD_BYTES
    );
    println!("wrote BENCH_route.json");
}
