//! End-to-end gradient verification of the differentiable timer: the full
//! backward pass (Eqs. 8, 10, 12 chained) against central finite differences
//! of the smoothed objective, on generated designs.
//!
//! This is the single most important correctness property of the paper's
//! method — if these gradients are wrong, the placement flow optimizes the
//! wrong thing.

use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_netlist::{Design, Point};
use dtp_rsmt::{build_forest, ForestScratch};
use dtp_sta::{AnalysisScratch, PositionGradients, Timer};

/// The smoothed objective f = −t1·TNSγ − t2·WNSγ evaluated from scratch at
/// the current cell positions, with the *same tree topologies* (updated, not
/// rebuilt) so the function being differentiated is the one the backward
/// pass sees.
fn objective(
    timer: &Timer,
    design: &Design,
    base_forest: &dtp_rsmt::SteinerForest,
    t1: f64,
    t2: f64,
    gamma: f64,
) -> f64 {
    let mut forest = base_forest.clone();
    let nets: Vec<_> = design.netlist.net_ids().collect();
    forest.update_nets_into(&design.netlist, &nets, &mut ForestScratch::new());
    let analysis =
        timer.analyze_smoothed_into(&design.netlist, &forest, &mut AnalysisScratch::new());
    -t1 * analysis.tns_smooth(gamma) - t2 * analysis.wns_smooth(gamma)
}

fn run_gradcheck(cells: usize, seed: u64, t1: f64, t2: f64) {
    let mut cfg = GeneratorConfig::named("gc", cells);
    cfg.seed = seed;
    cfg.depth = 6;
    let mut design = generate(&cfg).expect("generator succeeds");
    let lib = synthetic_pdk();
    let gamma = 50.0;
    let timer = Timer::with_gamma(&design, &lib, gamma).expect("timer builds");
    let forest = build_forest(&design.netlist);

    let mut scratch = AnalysisScratch::new();
    let analysis = timer.analyze_smoothed_into(&design.netlist, &forest, &mut scratch);
    let mut grads = PositionGradients::default();
    timer.gradients_into(
        &design.netlist,
        &analysis,
        &forest,
        t1,
        t2,
        &mut scratch,
        &mut grads,
    );

    // Objective value consistency.
    let f0 = objective(&timer, &design, &forest, t1, t2, gamma);
    assert!(
        (grads.objective - f0).abs() < 1e-6 * (1.0 + f0.abs()),
        "objective mismatch: {} vs {}",
        grads.objective,
        f0
    );

    // Check a sample of movable cells with non-trivial gradient plus a few
    // random ones.
    let movable: Vec<_> = design.netlist.movable_cells().collect();
    let mut checked = 0;
    let h = 1e-4;
    for (k, &c) in movable.iter().enumerate() {
        if k % (movable.len() / 12).max(1) != 0 {
            continue;
        }
        let pos = design.netlist.cell(c).pos();
        for axis in 0..2 {
            let (dx, dy) = if axis == 0 { (h, 0.0) } else { (0.0, h) };
            design.netlist.set_cell_pos(c, Point::new(pos.x + dx, pos.y + dy));
            let fp = objective(&timer, &design, &forest, t1, t2, gamma);
            design.netlist.set_cell_pos(c, Point::new(pos.x - dx, pos.y - dy));
            let fm = objective(&timer, &design, &forest, t1, t2, gamma);
            design.netlist.set_cell_pos(c, pos);
            let num = (fp - fm) / (2.0 * h);
            let ana = if axis == 0 {
                grads.cell_grad_x[c.index()]
            } else {
                grads.cell_grad_y[c.index()]
            };
            // |x| kinks of the Manhattan length make FD noisy when a cell sits
            // exactly on a kink; use a tolerance scaled to the gradient size.
            let tol = 1e-3 * (1.0 + num.abs().max(ana.abs()));
            assert!(
                (num - ana).abs() < tol,
                "cell {c:?} axis {axis}: analytic {ana:.6e} vs numeric {num:.6e} (seed {seed})"
            );
            checked += 1;
        }
    }
    assert!(checked >= 8, "too few gradient checks ran: {checked}");
}

#[test]
fn gradcheck_small_design_tns_only() {
    run_gradcheck(80, 11, 1.0, 0.0);
}

#[test]
fn gradcheck_small_design_wns_only() {
    run_gradcheck(80, 12, 0.0, 1.0);
}

#[test]
fn gradcheck_mixed_objective() {
    run_gradcheck(140, 13, 0.01, 0.0001);
}

#[test]
fn gradient_descends_the_objective() {
    // A step against the gradient must reduce the smoothed objective —
    // the property the placement loop relies on.
    let mut cfg = GeneratorConfig::named("gd", 200);
    cfg.depth = 8;
    let mut design = generate(&cfg).expect("generator succeeds");
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib).expect("timer builds");
    let forest = build_forest(&design.netlist);
    let gamma = timer.gamma();
    let mut scratch = AnalysisScratch::new();
    let analysis = timer.analyze_smoothed_into(&design.netlist, &forest, &mut scratch);
    let mut grads = PositionGradients::default();
    timer.gradients_into(
        &design.netlist,
        &analysis,
        &forest,
        1.0,
        1.0,
        &mut scratch,
        &mut grads,
    );
    let f0 = -analysis.tns_smooth(gamma) - analysis.wns_smooth(gamma);

    // Normalized step.
    let gmax = grads
        .cell_grad_x
        .iter()
        .chain(grads.cell_grad_y.iter())
        .fold(0.0f64, |m, &g| m.max(g.abs()));
    assert!(gmax > 0.0, "gradient is identically zero");
    let step = 0.5 / gmax;
    let (mut xs, mut ys) = design.netlist.positions();
    for c in design.netlist.movable_cells() {
        xs[c.index()] -= step * grads.cell_grad_x[c.index()];
        ys[c.index()] -= step * grads.cell_grad_y[c.index()];
    }
    design.netlist.set_positions(&xs, &ys);
    let mut forest2 = forest.clone();
    let nets: Vec<_> = design.netlist.net_ids().collect();
    forest2.update_nets_into(&design.netlist, &nets, &mut ForestScratch::new());
    let analysis2 = timer.analyze_smoothed_into(&design.netlist, &forest2, &mut scratch);
    let f1 = -analysis2.tns_smooth(gamma) - analysis2.wns_smooth(gamma);
    assert!(
        f1 < f0,
        "objective did not decrease along −gradient: {f0} -> {f1}"
    );
}
