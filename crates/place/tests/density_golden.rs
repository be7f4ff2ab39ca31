//! Golden equivalence tests for the allocation-free density hot path: a
//! [`DensityModel::evaluate_into`] whose scratch is reused across a
//! realistic multi-iteration placement trajectory must be bit-for-bit
//! identical to one handed a fresh scratch every iteration — and to the
//! values the kernels produced before they were rewritten (PR 15).

use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_place::{DensityModel, DensityResult, DensityScratch};

/// Deterministic pseudo-random jitter in [-1, 1).
fn jitter(seed: u64) -> f64 {
    let h = seed.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(31).wrapping_mul(0xbf58476d1ce4e5b9);
    ((h >> 11) as f64) / ((1u64 << 53) as f64) * 2.0 - 1.0
}

/// Drives 50 iterations of a synthetic trajectory (cells drift toward the
/// core center with per-iteration jitter — the same kind of motion the
/// Nesterov loop produces) and checks that the scratch reused for all 50
/// tracks a fresh scratch every iteration exactly, for both spectral
/// backends.
#[test]
fn evaluate_into_matches_evaluate_over_50_iteration_flow() {
    let d = generate(&GeneratorConfig::named("dg", 250)).unwrap();
    for allow_fft in [true, false] {
        let model = DensityModel::with_options(&d, 32, 32, 1.0, allow_fft);
        assert_eq!(model.uses_fft(), allow_fft);
        let (mut xs, mut ys) = d.netlist.positions();
        let c = d.region.center();
        let mut scratch = DensityScratch::new();
        let mut out = DensityResult::default();
        for iter in 0..50u64 {
            for cell in d.netlist.movable_cells() {
                let i = cell.index();
                xs[i] += 0.05 * (c.x - xs[i]) + 0.3 * jitter(iter * 1_000_003 + 2 * i as u64);
                ys[i] += 0.05 * (c.y - ys[i]) + 0.3 * jitter(iter * 1_000_003 + 2 * i as u64 + 1);
            }
            let mut fresh = DensityResult::default();
            model.evaluate_into(&xs, &ys, &mut DensityScratch::new(), &mut fresh);
            model.evaluate_into(&xs, &ys, &mut scratch, &mut out);
            let fresh_energy = model.energy_into(&xs, &ys, &mut DensityScratch::new());
            let energy = model.energy_into(&xs, &ys, &mut scratch);
            assert_eq!(fresh_energy, energy, "iter {iter} fft={allow_fft}: energy");
            assert_eq!(fresh.overflow, out.overflow, "iter {iter} fft={allow_fft}: overflow");
            assert_eq!(
                fresh.max_density, out.max_density,
                "iter {iter} fft={allow_fft}: max_density"
            );
            assert_eq!(fresh.grad_x, out.grad_x, "iter {iter} fft={allow_fft}: grad_x");
            assert_eq!(fresh.grad_y, out.grad_y, "iter {iter} fft={allow_fft}: grad_y");
            // The parent commit's numbers on this trajectory, to the bit.
            let fold = |v: &[f64]| v.iter().fold(0u64, |h, x| h.rotate_left(5) ^ x.to_bits());
            for &(fft, at, e, overflow, peak, gx, gy) in PARENT_VALUES {
                if (fft, at) == (allow_fft, iter) {
                    assert_eq!(energy.to_bits(), e, "iter {iter} fft={fft}: parent energy");
                    assert_eq!(out.overflow.to_bits(), overflow, "iter {iter}: parent overflow");
                    assert_eq!(out.max_density.to_bits(), peak, "iter {iter}: parent peak");
                    assert_eq!(fold(&out.grad_x), gx, "iter {iter} fft={fft}: parent grad_x");
                    assert_eq!(fold(&out.grad_y), gy, "iter {iter} fft={fft}: parent grad_y");
                }
            }
        }
    }
}

/// `(fft, iteration, energy, overflow, max_density, fold(grad_x),
/// fold(grad_y))` as bit patterns, recorded from `DensityResult` at commit
/// 3005525 (the last one whose `evaluate_into` computed the energy) on the
/// trajectory above.
#[allow(clippy::type_complexity)]
const PARENT_VALUES: &[(bool, u64, u64, u64, u64, u64, u64)] = &[
    (true, 0, 0x40a07fc719e5e77f, 0x3fd0991d098ebc14, 0x400e03390887db17, 0x0b09e17da4b530b2, 0x6e2dc23dd769c29c),
    (true, 9, 0x40d61506a57db5ae, 0x3fe0f04993ec8c6b, 0x40171cdc2c1658d0, 0xdb024c83bf5b806d, 0x9ceaef6c3fd1fe68),
    (true, 24, 0x40f3f3b50eb3a8e9, 0x3feab9acdeb7c313, 0x402e7a102d188310, 0xef20bb1a0d35979e, 0xc75bc3578c3d60fa),
    (true, 49, 0x41047da0086c5397, 0x3fee4081ab7aa3c8, 0x4056564625a2786b, 0xb5ec5dd710470384, 0x4b427b454a4c0032),
    (false, 0, 0x40a07fc719e5e77f, 0x3fd0991d098ebc14, 0x400e03390887db17, 0x80789206a058900e, 0xe5a7d4d2940b3740),
    (false, 9, 0x40d61506a57db5ae, 0x3fe0f04993ec8c6b, 0x40171cdc2c1658d0, 0x79e6ba8d9e5d85a1, 0x66d345486cb5a2d6),
    (false, 24, 0x40f3f3b50eb3a8e9, 0x3feab9acdeb7c313, 0x402e7a102d188310, 0x3346edf1d4232775, 0x1afb4cb970fd6bb7),
    (false, 49, 0x41047da0086c5396, 0x3fee4081ab7aa3c8, 0x4056564625a2786b, 0x886f1b39eb507a1c, 0xc7cfcde2f75319c8),
];

/// Finite-difference gradient check run directly against `evaluate_into`
/// with one scratch reused for every probe, so buffer-reuse bugs (stale
/// state leaking between evaluations) would corrupt the numerics and fail.
#[test]
fn evaluate_into_gradient_matches_finite_difference() {
    let d = generate(&GeneratorConfig::named("dgfd", 250)).unwrap();
    let model = DensityModel::new(&d, 32, 32, 1.0);
    let (mut xs, mut ys) = d.netlist.positions();
    let mut scratch = DensityScratch::new();
    let mut out = DensityResult::default();
    model.evaluate_into(&xs, &ys, &mut scratch, &mut out);
    let grad_x = out.grad_x.clone();
    let grad_y = out.grad_y.clone();
    let h = 1e-4;
    let movable: Vec<_> = d.netlist.movable_cells().collect();
    let (mut dot, mut na, mut nn) = (0.0, 0.0, 0.0);
    for &cell in movable.iter().step_by(5) {
        let i = cell.index();

        let v0 = xs[i];
        xs[i] = v0 + h;
        let fp = model.energy_into(&xs, &ys, &mut scratch);
        xs[i] = v0 - h;
        let fm = model.energy_into(&xs, &ys, &mut scratch);
        xs[i] = v0;
        let num = (fp - fm) / (2.0 * h);
        dot += num * grad_x[i];
        na += grad_x[i] * grad_x[i];
        nn += num * num;

        let v0 = ys[i];
        ys[i] = v0 + h;
        let fp = model.energy_into(&xs, &ys, &mut scratch);
        ys[i] = v0 - h;
        let fm = model.energy_into(&xs, &ys, &mut scratch);
        ys[i] = v0;
        let num = (fp - fm) / (2.0 * h);
        dot += num * grad_y[i];
        na += grad_y[i] * grad_y[i];
        nn += num * num;
    }
    // Same tolerance rationale as the in-module gradcheck: the analytic
    // gradient samples the field at the cell center while the FD probe
    // re-integrates the stamped footprint, so require strong directional
    // agreement and same-scale magnitudes.
    let cosine = dot / (na.sqrt() * nn.sqrt()).max(1e-12);
    assert!(cosine > 0.9, "gradient direction poor: cosine = {cosine}");
    let ratio = na.sqrt() / nn.sqrt().max(1e-12);
    assert!((0.4..2.5).contains(&ratio), "gradient magnitude off: ratio = {ratio}");
}
