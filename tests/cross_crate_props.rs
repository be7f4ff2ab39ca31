//! Property-based tests spanning crate boundaries: random designs through
//! the full differentiable-timing stack must preserve the core invariants.

use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_rsmt::{build_forest, ForestScratch};
use dtp_sta::{AnalysisScratch, PositionGradients, Timer};
use proptest::prelude::*;

fn cfg_strategy() -> impl Strategy<Value = GeneratorConfig> {
    (80usize..400, 2usize..12, 1u64..1000, 0.05f64..0.3).prop_map(
        |(cells, depth, seed, ff)| {
            let mut cfg = GeneratorConfig::named("prop", cells);
            cfg.depth = depth;
            cfg.seed = seed;
            cfg.register_fraction = ff;
            cfg
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_designs_analyze_cleanly(cfg in cfg_strategy()) {
        let design = generate(&cfg).expect("generator succeeds");
        design.netlist.validate().expect("valid");
        let lib = synthetic_pdk();
        let timer = Timer::new(&design, &lib).expect("binds");
        let forest = build_forest(&design.netlist);
        let mut scratch = AnalysisScratch::new();
        let exact = timer.analyze_into(&design.netlist, &forest, &mut scratch);
        // All finite, ordering invariants hold.
        prop_assert!(exact.wns().is_finite());
        prop_assert!(exact.tns() <= exact.wns().min(0.0) + 1e-9);
        for &p in exact.endpoints() {
            prop_assert!(exact.slack[p.index()].is_finite());
        }
        // Smoothed slacks lower-bound exact slacks (LSE-max inflates ATs).
        let smooth = timer.analyze_smoothed_into(&design.netlist, &forest, &mut scratch);
        prop_assert!(smooth.wns() <= exact.wns() + 1e-6);
    }

    #[test]
    fn gradients_are_finite_and_translation_invariant(cfg in cfg_strategy()) {
        let mut design = generate(&cfg).expect("generator succeeds");
        let lib = synthetic_pdk();
        let timer = Timer::new(&design, &lib).expect("binds");
        let forest = build_forest(&design.netlist);
        let mut scratch = AnalysisScratch::new();
        let analysis = timer.analyze_smoothed_into(&design.netlist, &forest, &mut scratch);
        let mut g1 = PositionGradients::default();
        timer.gradients_into(&design.netlist, &analysis, &forest, 1.0, 1.0, &mut scratch, &mut g1);
        for v in g1.cell_grad_x.iter().chain(&g1.cell_grad_y) {
            prop_assert!(v.is_finite());
        }
        // Timing is a function of relative positions: translating the whole
        // design leaves the gradient unchanged.
        let (mut xs, mut ys) = design.netlist.positions();
        for v in xs.iter_mut() { *v += 11.0; }
        for v in ys.iter_mut() { *v += -7.0; }
        design.netlist.set_positions(&xs, &ys);
        let mut forest2 = forest.clone();
        let nets: Vec<_> = design.netlist.net_ids().collect();
        forest2.update_nets_into(&design.netlist, &nets, &mut ForestScratch::new());
        let analysis2 = timer.analyze_smoothed_into(&design.netlist, &forest2, &mut scratch);
        let mut g2 = PositionGradients::default();
        let nl = &design.netlist;
        timer.gradients_into(nl, &analysis2, &forest2, 1.0, 1.0, &mut scratch, &mut g2);
        prop_assert!((g1.objective - g2.objective).abs() < 1e-6 * (1.0 + g1.objective.abs()));
        for (a, b) in g1.cell_grad_x.iter().zip(&g2.cell_grad_x) {
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn steiner_reuse_approximates_rebuild(cfg in cfg_strategy()) {
        // The §3.6 reuse strategy trades accuracy for speed; the accuracy
        // loss must vanish with the move size. Check a tight bound at the
        // per-iteration scale (0.05 um) and a loose sanity bound at 10x that
        // (rebuilds can flip tree topologies, which shifts the estimate).
        let design0 = generate(&cfg).expect("generator succeeds");
        let lib = synthetic_pdk();
        let timer = Timer::new(&design0, &lib).expect("binds");
        for (scale, rel_tol, abs_tol) in [(0.05f64, 0.02, 5.0), (0.5, 0.6, 100.0)] {
            let mut design = design0.clone();
            let mut forest = build_forest(&design.netlist);
            let (mut xs, mut ys) = design.netlist.positions();
            for c in design.netlist.movable_cells() {
                let i = c.index();
                xs[i] += scale * ((i % 7) as f64 / 7.0 - 0.5);
                ys[i] += scale * ((i % 5) as f64 / 5.0 - 0.5);
            }
            design.netlist.set_positions(&xs, &ys);
            let nets: Vec<_> = design.netlist.net_ids().collect();
            forest.update_nets_into(&design.netlist, &nets, &mut ForestScratch::new());
            let mut scratch = AnalysisScratch::new();
            let reused = timer.analyze_into(&design.netlist, &forest, &mut scratch);
            let rebuilt_forest = build_forest(&design.netlist);
            let rebuilt = timer.analyze_into(&design.netlist, &rebuilt_forest, &mut scratch);
            let err = (reused.wns() - rebuilt.wns()).abs();
            let bound = rel_tol * rebuilt.wns().abs().max(100.0) + abs_tol;
            prop_assert!(
                err < bound,
                "scale {scale}: reused {} vs rebuilt {} (err {err} > bound {bound})",
                reused.wns(),
                rebuilt.wns()
            );
        }
    }
}

