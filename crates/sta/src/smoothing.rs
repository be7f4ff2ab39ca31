//! Log-Sum-Exp smoothing of max/min (Eq. 5 of the paper, §3.2).
//!
//! The hard `max`/`min` of STA gives all gradient to a single fan-in, which
//! makes gradient descent update only the one most critical path and
//! oscillate. LSE distributes gradient across fan-ins with softmax weights.
//! All functions here subtract the running maximum before exponentiating, so
//! they are overflow-safe for any input range.

/// Smoothed maximum: `γ · ln Σ exp(xᵢ/γ)` (Eq. 5).
///
/// Upper-bounds the true max by at most `γ·ln n`. With `gamma → 0` it
/// converges to `max`.
///
/// ```
/// use dtp_sta::lse_max;
/// let v = lse_max(&[1.0, 5.0, 3.0], 0.5);
/// assert!(v >= 5.0 && v <= 5.0 + 0.5 * 3f64.ln());
/// ```
///
/// # Panics
///
/// Panics if `xs` is empty or `gamma <= 0`.
pub fn lse_max(xs: &[f64], gamma: f64) -> f64 {
    assert!(!xs.is_empty() && gamma > 0.0);
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let s: f64 = xs.iter().map(|&x| ((x - m) / gamma).exp()).sum();
    m + gamma * s.ln()
}

/// Smoothed maximum, writing its softmax gradient weights (`∂LSE/∂xᵢ`,
/// which sum to 1) into a caller-provided buffer.
///
/// # Panics
///
/// Panics if `xs` is empty, `gamma <= 0`, or `out.len() != xs.len()`.
pub fn lse_max_weights_into(xs: &[f64], gamma: f64, out: &mut [f64]) -> f64 {
    assert!(!xs.is_empty() && gamma > 0.0);
    assert_eq!(out.len(), xs.len());
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut s = 0.0;
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = ((x - m) / gamma).exp();
        s += *o;
    }
    for o in out.iter_mut() {
        *o /= s;
    }
    m + gamma * s.ln()
}

/// Smoothed minimum via `min(x) = −max(−x)`: `−γ · ln Σ exp(−xᵢ/γ)`.
///
/// Lower-bounds the true min by at most `γ·ln n`.
///
/// # Panics
///
/// Panics if `xs` is empty or `gamma <= 0`.
pub fn lse_min(xs: &[f64], gamma: f64) -> f64 {
    assert!(!xs.is_empty() && gamma > 0.0);
    let m = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let s: f64 = xs.iter().map(|&x| (-(x - m) / gamma).exp()).sum();
    m - gamma * s.ln()
}

/// Smoothed minimum, writing its gradient weights (non-negative, sum to 1)
/// into a caller-provided buffer.
///
/// # Panics
///
/// Panics if `xs` is empty, `gamma <= 0`, or `out.len() != xs.len()`.
pub fn lse_min_weights_into(xs: &[f64], gamma: f64, out: &mut [f64]) -> f64 {
    assert!(!xs.is_empty() && gamma > 0.0);
    assert_eq!(out.len(), xs.len());
    let m = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut s = 0.0;
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = (-(x - m) / gamma).exp();
        s += *o;
    }
    for o in out.iter_mut() {
        *o /= s;
    }
    m - gamma * s.ln()
}

/// Smooth `min(0, s)` (the per-endpoint TNS contribution) as
/// `−γ·softplus(−s/γ) = −γ·ln(1 + exp(−s/γ))`.
///
/// ```
/// use dtp_sta::smooth_neg;
/// assert!((smooth_neg(-500.0, 10.0) - (-500.0)).abs() < 1e-6); // deep violation ≈ s
/// assert!(smooth_neg(500.0, 10.0).abs() < 1e-6);               // comfortably met ≈ 0
/// ```
pub fn smooth_neg(s: f64, gamma: f64) -> f64 {
    let z = -s / gamma;
    // Stable softplus.
    let sp = if z > 30.0 { z } else { z.exp().ln_1p() };
    -gamma * sp
}

/// Derivative of [`smooth_neg`] with respect to `s`: the sigmoid `σ(−s/γ)`,
/// in `(0, 1)` — 1 for deeply violating slacks, 0 for comfortably met ones.
pub fn smooth_neg_grad(s: f64, gamma: f64) -> f64 {
    let z = -s / gamma;
    if z > 30.0 {
        1.0
    } else if z < -30.0 {
        0.0
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lse_bounds_max() {
        let xs = [1.0, 5.0, 3.0];
        let v = lse_max(&xs, 0.5);
        assert!(v >= 5.0);
        assert!(v <= 5.0 + 0.5 * (3.0f64).ln() + 1e-12);
        // Sharp limit.
        assert!((lse_max(&xs, 1e-6) - 5.0).abs() < 1e-4);
    }

    #[test]
    fn lse_min_bounds_min() {
        let xs = [1.0, 5.0, 3.0];
        let v = lse_min(&xs, 0.5);
        assert!(v <= 1.0);
        assert!(v >= 1.0 - 0.5 * (3.0f64).ln() - 1e-12);
    }

    #[test]
    fn weights_sum_to_one_and_favor_max() {
        let mut w = [0.0; 3];
        lse_max_weights_into(&[1.0, 5.0, 3.0], 1.0, &mut w);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w[1] > w[2] && w[2] > w[0]);
        let mut wm = [0.0; 3];
        lse_min_weights_into(&[1.0, 5.0, 3.0], 1.0, &mut wm);
        assert!((wm.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(wm[0] > wm[2] && wm[2] > wm[1]);
    }

    #[test]
    fn overflow_safe() {
        let v = lse_max(&[1e8, 1e8 + 1.0], 1.0);
        assert!(v.is_finite() && v >= 1e8 + 1.0);
        assert!(lse_min(&[-1e8, -1e8 - 1.0], 1.0).is_finite());
        assert!(smooth_neg(-1e8, 100.0).is_finite());
        assert_eq!(smooth_neg_grad(-1e8, 100.0), 1.0);
        assert_eq!(smooth_neg_grad(1e8, 100.0), 0.0);
    }

    #[test]
    fn smooth_neg_limits() {
        // Deep violation: ≈ s. Comfortable: ≈ 0.
        assert!((smooth_neg(-500.0, 10.0) - (-500.0)).abs() < 1e-6);
        assert!(smooth_neg(500.0, 10.0).abs() < 1e-6);
        // At zero, −γ ln 2.
        assert!((smooth_neg(0.0, 10.0) + 10.0 * 2.0f64.ln()).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn lse_max_ge_true_max(xs in proptest::collection::vec(-100.0..100.0f64, 1..8), g in 0.1..50.0f64) {
            let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(lse_max(&xs, g) >= m - 1e-9);
        }

        #[test]
        fn smooth_neg_grad_matches_fd(s in -300.0..300.0f64, g in 1.0..100.0f64) {
            let h = 1e-5 * g;
            let num = (smooth_neg(s + h, g) - smooth_neg(s - h, g)) / (2.0 * h);
            prop_assert!((smooth_neg_grad(s, g) - num).abs() < 1e-5);
        }

        #[test]
        fn lse_weights_match_fd(
            xs in proptest::collection::vec(-50.0..50.0f64, 2..6),
            g in 0.5..20.0f64,
        ) {
            let mut w = vec![0.0; xs.len()];
            lse_max_weights_into(&xs, g, &mut w);
            for i in 0..xs.len() {
                let h = 1e-6 * g;
                let mut hi = xs.clone();
                hi[i] += h;
                let mut lo = xs.clone();
                lo[i] -= h;
                let num = (lse_max(&hi, g) - lse_max(&lo, g)) / (2.0 * h);
                prop_assert!((w[i] - num).abs() < 1e-4, "weight {i}: {} vs fd {}", w[i], num);
            }
        }
    }
}
