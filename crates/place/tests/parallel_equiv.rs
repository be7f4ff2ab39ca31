//! Width-invariance properties of the parallel placement kernels.
//!
//! Every parallel kernel in `dtp-place` reduces in fixed chunk order, so the
//! result must be bit-for-bit identical whatever the pool width — a one-
//! worker pool runs the exact serial schedule, which makes "parallel equals
//! serial" the same statement as "invariant across pool widths". These
//! properties pin that down over random designs and pools of 1/2/4/8
//! threads, for the Nesterov + gradient pipeline and for the legalizer
//! (including multi-band partitions much finer than the auto policy).

use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_netlist::Design;
use dtp_place::{
    check_legal, AbacusLegalizer, DensityModel, DensityResult, DensityScratch, NesterovOptimizer,
    WirelengthModel, WirelengthScratch,
};
use proptest::prelude::*;
use rayon::{with_pool, Pool};

/// Runs a miniature wirelength+density Nesterov loop — the same kernels the
/// full flow drives — and returns the final positions.
fn nesterov_trajectory(d: &Design, iters: usize) -> (Vec<f64>, Vec<f64>) {
    let wl = WirelengthModel::new(&d.netlist);
    let density = DensityModel::with_options(d, 16, 16, 1.0, true);
    let mut opt = NesterovOptimizer::new(d, 1.0);
    let n = d.netlist.num_cells();
    let precond = vec![1.0f64; n];
    let mut wls = WirelengthScratch::new();
    let mut ds = DensityScratch::new();
    let mut dres = DensityResult::default();
    let (mut gx, mut gy) = (Vec::new(), Vec::new());
    for _ in 0..iters {
        let (vx, vy) = {
            let (a, b) = opt.positions();
            (a.to_vec(), b.to_vec())
        };
        wl.wa_gradient_into(&vx, &vy, 5.0, None, &mut wls, &mut gx, &mut gy);
        density.evaluate_into(&vx, &vy, &mut ds, &mut dres);
        for i in 0..n {
            gx[i] += 0.5 * dres.grad_x[i];
            gy[i] += 0.5 * dres.grad_y[i];
        }
        opt.step(&gx, &gy, &precond);
    }
    let (a, b) = opt.solution();
    (a.to_vec(), b.to_vec())
}

fn random_design(cells: usize, seed: u64) -> Design {
    let mut cfg = GeneratorConfig::named("pw", cells);
    cfg.seed ^= seed;
    generate(&cfg).expect("generator succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn nesterov_pipeline_is_pool_width_invariant(
        cells in 150usize..500,
        seed in 0u64..1000,
    ) {
        let d = random_design(cells, seed);
        let base = with_pool(&Pool::new(1), || nesterov_trajectory(&d, 6));
        for threads in [2usize, 4, 8] {
            let got = with_pool(&Pool::new(threads), || nesterov_trajectory(&d, 6));
            prop_assert_eq!(&base.0, &got.0, "x trajectory differs at {} threads", threads);
            prop_assert_eq!(&base.1, &got.1, "y trajectory differs at {} threads", threads);
        }
    }

    #[test]
    fn abacus_legalizer_is_pool_width_invariant(
        cells in 150usize..600,
        seed in 0u64..1000,
        band_rows in 1usize..5,
    ) {
        let d = random_design(cells, seed);
        let (xs0, ys0) = d.netlist.positions();
        let lg = AbacusLegalizer::new(&d).with_band_rows(band_rows);
        let (mut bx, mut by) = (xs0.clone(), ys0.clone());
        let base_disp = with_pool(&Pool::new(1), || lg.legalize(&d, &mut bx, &mut by));
        prop_assert!(check_legal(&d, &bx, &by).is_empty());
        for threads in [2usize, 4, 8] {
            let (mut tx, mut ty) = (xs0.clone(), ys0.clone());
            let disp = with_pool(&Pool::new(threads), || lg.legalize(&d, &mut tx, &mut ty));
            prop_assert_eq!(base_disp, disp, "displacement differs at {} threads", threads);
            prop_assert_eq!(&bx, &tx, "x differs at {} threads", threads);
            prop_assert_eq!(&by, &ty, "y differs at {} threads", threads);
        }
    }
}

/// Banded legalization must stay legal when the bands are forced much finer
/// than the auto policy ever picks — the deferred-cell reconciliation pass
/// has to absorb whatever the narrow bands cannot place.
#[test]
fn single_row_bands_stay_legal() {
    let d = random_design(400, 99);
    for band_rows in [1usize, 2, 3] {
        let (mut xs, mut ys) = d.netlist.positions();
        AbacusLegalizer::new(&d).with_band_rows(band_rows).legalize(&d, &mut xs, &mut ys);
        let v = check_legal(&d, &xs, &ys);
        assert!(v.is_empty(), "abacus band_rows={band_rows}: {v:?}");
    }
}
