//! Property-based tests of the placement substrate: spectral transforms,
//! wirelength model and legalizer over random inputs.

use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_place::{
    check_legal, AbacusLegalizer, PoissonScratch, PoissonSolution, Spectral2D, WirelengthModel,
    WirelengthScratch,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dct_roundtrip_random_grids(
        m in 1usize..24,
        n in 1usize..24,
        seed in 0u64..1000,
    ) {
        let s = Spectral2D::new(m, n, 3.0, 5.0);
        let grid: Vec<f64> = (0..m * n)
            .map(|k| (((k as u64 * 1103515245 + seed) % 1000) as f64) / 100.0 - 5.0)
            .collect();
        let back = s.idct2(&s.dct2(&grid));
        for (a, b) in grid.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn fft_and_dense_transforms_agree_on_pow2_grids(
        mp in 1usize..7,
        np in 1usize..7,
        seed in 0u64..1000,
    ) {
        // m, n = 4..64: the radix-2 backend must reproduce the dense
        // reference transforms to near machine precision.
        let m = 1usize << mp.max(2);
        let n = 1usize << np.max(2);
        let fft = Spectral2D::with_fft(m, n, 4.0, 6.0, true);
        let dense = Spectral2D::with_fft(m, n, 4.0, 6.0, false);
        prop_assert!(fft.uses_fft());
        prop_assert!(!dense.uses_fft());
        let grid: Vec<f64> = (0..m * n)
            .map(|k| (((k as u64 * 2654435761 + seed) % 1000) as f64) / 100.0 - 5.0)
            .collect();
        let ca = fft.dct2(&grid);
        let cb = dense.dct2(&grid);
        for (a, b) in ca.iter().zip(&cb) {
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "dct2: {a} vs {b}");
        }
        let ra = fft.idct2(&ca);
        let rb = dense.idct2(&cb);
        for (a, b) in ra.iter().zip(&rb) {
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "idct2: {a} vs {b}");
        }
        let (mut fa, mut fb) = (PoissonScratch::new(), PoissonScratch::new());
        let (mut sa, mut sb) = (PoissonSolution::default(), PoissonSolution::default());
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        fft.solve_into(&grid, &mut fa, &mut sa);
        dense.solve_into(&grid, &mut fb, &mut sb);
        fft.potential_into(&mut fa, &mut pa);
        dense.potential_into(&mut fb, &mut pb);
        for i in 0..m * n {
            prop_assert!((pa[i] - pb[i]).abs() < 1e-9 * (1.0 + pb[i].abs()));
            prop_assert!(
                (sa.dpsi_dx[i] - sb.dpsi_dx[i]).abs() < 1e-9 * (1.0 + sb.dpsi_dx[i].abs())
            );
            prop_assert!(
                (sa.dpsi_dy[i] - sb.dpsi_dy[i]).abs() < 1e-9 * (1.0 + sb.dpsi_dy[i].abs())
            );
        }
    }

    #[test]
    fn fft_falls_back_on_non_pow2_grids(
        m in 2usize..24,
        n in 2usize..24,
        seed in 0u64..500,
    ) {
        let s = Spectral2D::with_fft(m, n, 3.0, 5.0, true);
        prop_assert_eq!(s.uses_fft(), m.is_power_of_two() && n.is_power_of_two());
        // Whatever backend got selected, the transform pair must invert.
        let grid: Vec<f64> = (0..m * n)
            .map(|k| (((k as u64 * 1103515245 + seed) % 1000) as f64) / 100.0 - 5.0)
            .collect();
        let back = s.idct2(&s.dct2(&grid));
        for (a, b) in grid.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn poisson_solver_is_linear(
        m in 4usize..20,
        seed in 0u64..1000,
        alpha in 0.1f64..5.0,
    ) {
        let s = Spectral2D::new(m, m, 2.0, 2.0);
        let rho: Vec<f64> = (0..m * m)
            .map(|k| (((k as u64 * 2654435761 + seed) % 1000) as f64) / 500.0 - 1.0)
            .collect();
        let scaled: Vec<f64> = rho.iter().map(|v| v * alpha).collect();
        let (mut fa, mut fb) = (PoissonScratch::new(), PoissonScratch::new());
        let (mut a, mut b) = (PoissonSolution::default(), PoissonSolution::default());
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        s.solve_into(&rho, &mut fa, &mut a);
        s.solve_into(&scaled, &mut fb, &mut b);
        s.potential_into(&mut fa, &mut pa);
        s.potential_into(&mut fb, &mut pb);
        for i in 0..m * m {
            prop_assert!((pb[i] - alpha * pa[i]).abs() < 1e-8 * (1.0 + pa[i].abs()));
            prop_assert!(
                (b.dpsi_dx[i] - alpha * a.dpsi_dx[i]).abs()
                    < 1e-8 * (1.0 + a.dpsi_dx[i].abs())
            );
        }
    }

    #[test]
    fn poisson_mirror_symmetry(m in 4usize..16, seed in 0u64..500) {
        // Mirroring the density in x mirrors ψ and negates ∂ψ/∂x.
        let s = Spectral2D::new(m, m, 3.0, 3.0);
        let rho: Vec<f64> = (0..m * m)
            .map(|k| (((k as u64 * 1103515245 + seed) % 1000) as f64) / 500.0 - 1.0)
            .collect();
        let mirrored: Vec<f64> = (0..m * m)
            .map(|k| {
                let (i, j) = (k / m, k % m);
                rho[(m - 1 - i) * m + j]
            })
            .collect();
        let (mut fa, mut fb) = (PoissonScratch::new(), PoissonScratch::new());
        let (mut a, mut b) = (PoissonSolution::default(), PoissonSolution::default());
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        s.solve_into(&rho, &mut fa, &mut a);
        s.solve_into(&mirrored, &mut fb, &mut b);
        s.potential_into(&mut fa, &mut pa);
        s.potential_into(&mut fb, &mut pb);
        for i in 0..m {
            for j in 0..m {
                // Outputs are y-major: bin (i, j) sits at j·m + i.
                let k = j * m + i;
                let km = j * m + (m - 1 - i);
                prop_assert!((pa[k] - pb[km]).abs() < 1e-8);
                prop_assert!((a.dpsi_dx[k] + b.dpsi_dx[km]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn wa_wirelength_bounds_hpwl(
        cells in 60usize..250,
        seed in 0u64..500,
        gamma in 0.05f64..5.0,
    ) {
        let mut cfg = GeneratorConfig::named("pp", cells);
        cfg.seed = seed;
        let d = generate(&cfg).expect("generator succeeds");
        let m = WirelengthModel::new(&d.netlist);
        let (xs, ys) = d.netlist.positions();
        let hpwl = m.hpwl(&xs, &ys);
        let (mut gx, mut gy) = (Vec::new(), Vec::new());
        let wa =
            m.wa_gradient_into(&xs, &ys, gamma, None, &mut WirelengthScratch::new(), &mut gx, &mut gy);
        // WA underestimates HPWL, and converges to it as γ → 0.
        prop_assert!(wa <= hpwl + 1e-6, "wa {wa} > hpwl {hpwl}");
        prop_assert!(wa >= hpwl - gamma * 4.0 * m.num_nets() as f64, "wa too loose");
    }

    /// Both shapes of the legalizer — the classic single band and row bands
    /// far narrower than the automatic policy picks — always end legal.
    #[test]
    fn both_legalizers_always_legal(
        cells in 60usize..300,
        seed in 0u64..500,
    ) {
        let mut cfg = GeneratorConfig::named("pl", cells);
        cfg.seed = seed;
        let d = generate(&cfg).expect("generator succeeds");
        for band_rows in [0usize, 2] {
            let (mut xs, mut ys) = d.netlist.positions();
            AbacusLegalizer::new(&d).with_band_rows(band_rows).legalize(&d, &mut xs, &mut ys);
            let violations = check_legal(&d, &xs, &ys);
            prop_assert!(violations.is_empty(), "band_rows={band_rows}: {violations:?}");
        }
    }
}
