//! Cross-cutting correctness properties of the routability subsystem:
//!
//! 1. **Mass conservation**: the RUDY rasterizer distributes exactly the
//!    per-net branch demand over the grid — total demand equals the
//!    Steiner forest's wirelength (plus the pin term when enabled), for
//!    any grid shape.
//! 2. **Gradient correctness**: the analytic per-pin gradients of the
//!    smoothed-overflow penalty match central finite differences of the
//!    penalty value, in the same style as the timing gradient checks
//!    (`crates/sta/tests/gradcheck.rs`): topology held fixed, Steiner
//!    points riding along with their source pins.

use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_netlist::{Design, Point};
use dtp_route::{CongestionPenalty, RudyMap};
use dtp_rsmt::{build_forest, ForestScratch, SteinerForest};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Σ bins (h + v) == Σ nets Σ branches (|Δx| + |Δy|), i.e. the forest
    /// wirelength, regardless of grid shape and seed.
    #[test]
    fn rudy_total_demand_is_forest_wirelength(
        cells in 60..260usize,
        m in 4..40usize,
        n in 4..40usize,
        seed in 0..1000u64,
    ) {
        let mut cfg = GeneratorConfig::named("mass", cells);
        cfg.seed = seed;
        let d = generate(&cfg).expect("generator succeeds");
        let forest = build_forest(&d.netlist);
        let mut map = RudyMap::new(&d, m, n, 0.5).with_pin_weight(0.0);
        map.build(&d.netlist, &forest);
        let wl = forest.total_wirelength();
        prop_assert!(
            (map.total_demand() - wl).abs() <= 1e-6 * wl.max(1.0),
            "demand {} vs forest wirelength {}", map.total_demand(), wl
        );
    }
}

/// Penalty value with the tree topologies held fixed: pins re-read from the
/// netlist, Steiner points riding along (the function the backward pass
/// differentiates — same convention as the timing gradcheck).
fn penalty_at(
    pen: &mut CongestionPenalty,
    design: &Design,
    base_forest: &SteinerForest,
) -> f64 {
    let mut forest = base_forest.clone();
    let nets: Vec<_> = design.netlist.net_ids().collect();
    forest.update_nets_into(&design.netlist, &nets, &mut ForestScratch::new());
    pen.value(&design.netlist, &forest)
}

#[test]
fn penalty_gradient_matches_finite_difference() {
    let mut cfg = GeneratorConfig::named("pgrad", 220);
    cfg.seed = 7;
    let mut design = generate(&cfg).expect("generator succeeds");
    let lo_cap = 0.15; // tight capacity so plenty of bins are near overflow
    let mut pen = CongestionPenalty::new(&design, 12, 12, lo_cap);
    let forest = build_forest(&design.netlist);

    let mut gx = Vec::new();
    let mut gy = Vec::new();
    let p0 = pen.value_and_gradient(&design.netlist, &forest, &mut gx, &mut gy);
    assert!(p0 > 0.0, "test needs a congested placement, got penalty {p0}");
    // Value must agree with the forward-only entry point.
    let v0 = penalty_at(&mut pen, &design, &forest);
    assert!((p0 - v0).abs() < 1e-9 * (1.0 + p0.abs()));

    // The penalty is piecewise smooth: kinks at bin-center crossings and
    // zero-span branches. Check a sample of movable cells; require the vast
    // majority to match tightly and the overall direction to be right.
    let movable: Vec<_> = design.netlist.movable_cells().collect();
    let h = 1e-5 * design.region.width().min(design.region.height()) / 12.0;
    let mut checked = 0usize;
    let mut bad = 0usize;
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nn = 0.0;
    for &cell in movable.iter().step_by(3).take(60) {
        let i = cell.index();
        let base = design.netlist.cell(cell).pos();
        for axis in 0..2 {
            let ana = if axis == 0 { gx[i] } else { gy[i] };
            let step = if axis == 0 {
                Point::new(h, 0.0)
            } else {
                Point::new(0.0, h)
            };
            design
                .netlist
                .set_cell_pos(cell, Point::new(base.x + step.x, base.y + step.y));
            let fp = penalty_at(&mut pen, &design, &forest);
            design
                .netlist
                .set_cell_pos(cell, Point::new(base.x - step.x, base.y - step.y));
            let fm = penalty_at(&mut pen, &design, &forest);
            design.netlist.set_cell_pos(cell, base);
            let num = (fp - fm) / (2.0 * h);
            let scale = ana.abs().max(num.abs());
            if scale > 1e-9 {
                checked += 1;
                dot += ana * num;
                na += ana * ana;
                nn += num * num;
                if (ana - num).abs() > 0.02 * scale + 1e-9 {
                    bad += 1;
                }
            }
        }
    }
    assert!(checked >= 40, "too few non-trivial components checked: {checked}");
    // Allow a small number of kink-straddling outliers.
    assert!(
        bad * 10 <= checked,
        "{bad}/{checked} gradient components off by >2%"
    );
    let cosine = dot / (na.sqrt() * nn.sqrt()).max(1e-12);
    assert!(cosine > 0.999, "gradient direction poor: cosine = {cosine}");
}

#[test]
fn incremental_map_agrees_with_rebuild_after_many_rounds() {
    // Repeatedly move cells and update incrementally; drift must not
    // accumulate versus a from-scratch build (the congestion analogue of
    // the incremental-timing golden equivalence).
    let mut cfg = GeneratorConfig::named("rounds", 180);
    cfg.seed = 3;
    let mut design = generate(&cfg).expect("generator succeeds");
    let mut forest = build_forest(&design.netlist);
    let mut map = RudyMap::new(&design, 20, 20, 0.4);
    map.build(&design.netlist, &forest);

    let movable: Vec<_> = design.netlist.movable_cells().collect();
    let mut scratch = ForestScratch::new();
    for round in 0..8 {
        let mut dirty = Vec::new();
        for &c in movable.iter().skip(round).step_by(5) {
            let p = design.netlist.cell(c).pos();
            design.netlist.set_cell_pos(
                c,
                Point::new(p.x + 1.5 * (round as f64 + 1.0), p.y - 0.7),
            );
            for &pin in design.netlist.cell(c).pins() {
                if let Some(nid) = design.netlist.pin(pin).net() {
                    if !dirty.contains(&nid) {
                        dirty.push(nid);
                    }
                }
            }
        }
        // Alternate a 1-worker pool (the serial schedule) and the ambient
        // one: the RUDY map must see identical trees from either.
        if round % 2 == 0 {
            let one = rayon::Pool::new(1);
            let nl = &design.netlist;
            rayon::with_pool(&one, || forest.update_nets_into(nl, &dirty, &mut scratch));
        } else {
            forest.update_nets_into(&design.netlist, &dirty, &mut scratch);
        }
        map.update_nets(&forest, &dirty);
        map.sync_cells(&design.netlist);
    }

    let mut fresh = RudyMap::new(&design, 20, 20, 0.4);
    fresh.build(&design.netlist, &forest);
    let a = map.summary();
    let b = fresh.summary();
    assert!((a.max_overflow - b.max_overflow).abs() < 1e-8);
    assert!((a.avg_overflow - b.avg_overflow).abs() < 1e-8);
    assert_eq!(a.overflowed_frac, b.overflowed_frac);
}
