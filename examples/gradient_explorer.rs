//! Gradient explorer: inspect the differentiable timer the way you would a
//! neural network. For the most timing-critical cells of a design this
//! example prints the TNS gradient vector, verifies it against a finite
//! difference, and then walks a few pure-timing gradient-descent steps to
//! show slack actually improving — the paper's Fig. 2/3 mechanism isolated
//! from the placement flow.
//!
//! Run with: `cargo run --release -p dtp-core --example gradient_explorer`

use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_netlist::Point;
use dtp_rsmt::{build_forest, ForestScratch};
use dtp_sta::{AnalysisScratch, PositionGradients, Timer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = generate(&GeneratorConfig::named("explorer", 600))?;
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib)?;
    let mut work = design.clone();

    let forest = build_forest(&work.netlist);
    let mut scratch = AnalysisScratch::new();
    let analysis = timer.analyze_smoothed_into(&work.netlist, &forest, &mut scratch);
    let mut grads = PositionGradients::default();
    timer.gradients_into(
        &work.netlist,
        &analysis,
        &forest,
        1.0,
        0.0,
        &mut scratch,
        &mut grads,
    );
    let exact = timer.analyze_into(&work.netlist, &forest, &mut scratch);
    println!(
        "smoothed TNS objective = {:.2} (exact TNS {:.2}, WNS {:.2})",
        grads.objective,
        exact.tns(),
        exact.wns()
    );

    // The cells with the largest gradient magnitude are the levers on TNS.
    let mut ranked: Vec<(usize, f64)> = (0..work.netlist.num_cells())
        .map(|i| (i, (grads.cell_grad_x[i].powi(2) + grads.cell_grad_y[i].powi(2)).sqrt()))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite gradients"));
    println!("\ntop timing levers (cell, |∂TNS/∂position|):");
    for &(i, mag) in ranked.iter().take(5) {
        let cell = dtp_netlist::CellId::new(i);
        println!(
            "  {:<10} |g| = {:>10.4}  (g_x {:+.4}, g_y {:+.4})",
            work.netlist.cell(cell).name(),
            mag,
            grads.cell_grad_x[i],
            grads.cell_grad_y[i]
        );
    }

    // Finite-difference check on the top lever.
    let (top, _) = ranked[0];
    let top_id = dtp_netlist::CellId::new(top);
    let pos = work.netlist.cell(top_id).pos();
    let h = 1e-4;
    let nets: Vec<_> = work.netlist.net_ids().collect();
    let eval = |w: &mut dtp_netlist::Design| {
        let mut f = forest.clone();
        f.update_nets_into(&w.netlist, &nets, &mut ForestScratch::new());
        let a = timer.analyze_smoothed_into(&w.netlist, &f, &mut AnalysisScratch::new());
        -a.tns_smooth(timer.gamma())
    };
    work.netlist.set_cell_pos(top_id, Point::new(pos.x + h, pos.y));
    let fp = eval(&mut work);
    work.netlist.set_cell_pos(top_id, Point::new(pos.x - h, pos.y));
    let fm = eval(&mut work);
    work.netlist.set_cell_pos(top_id, pos);
    println!(
        "\nfinite-difference check on {}: analytic {:+.5}, numeric {:+.5}",
        work.netlist.cell(top_id).name(),
        grads.cell_grad_x[top],
        (fp - fm) / (2.0 * h)
    );

    // Pure timing descent (no wirelength/density): TNS must improve.
    println!("\npure-TNS gradient descent:");
    for step in 0..6 {
        let f = build_forest(&work.netlist);
        let a = timer.analyze_smoothed_into(&work.netlist, &f, &mut scratch);
        let mut g = PositionGradients::default();
        timer.gradients_into(&work.netlist, &a, &f, 1.0, 0.0, &mut scratch, &mut g);
        let exact = timer.analyze_into(&work.netlist, &f, &mut scratch);
        println!(
            "  step {step}: TNS {:>12.1} ps, WNS {:>9.1} ps",
            exact.tns(),
            exact.wns()
        );
        let gmax = g
            .cell_grad_x
            .iter()
            .chain(g.cell_grad_y.iter())
            .fold(0.0f64, |m, &v| m.max(v.abs()));
        if gmax == 0.0 {
            break;
        }
        let lr = 1.0 / gmax;
        let (mut xs, mut ys) = work.netlist.positions();
        for c in work.netlist.movable_cells() {
            let i = c.index();
            xs[i] = (xs[i] - lr * g.cell_grad_x[i]).clamp(design.region.xl, design.region.xh);
            ys[i] = (ys[i] - lr * g.cell_grad_y[i]).clamp(design.region.yl, design.region.yh);
        }
        work.netlist.set_positions(&xs, &ys);
    }
    Ok(())
}
