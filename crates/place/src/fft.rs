//! In-tree radix-2 real FFT and the midpoint-cosine transforms derived from
//! it — the O(N log N) engine behind [`crate::Spectral2D`]'s power-of-two
//! fast path.
//!
//! The spectral solver needs three 1-D primitives per axis, all on the
//! DCT-II "cosine at bin midpoints" grid `φ_u(i) = cos(πu(i+½)/N)`:
//!
//! * **Analysis** (`dct2`): `S_u = Σ_i x_i φ_u(i)` — the unnormalized
//!   DCT-II. Computed with Makhoul's even-permutation trick: fold
//!   `v_j = x_{2j}` / `v_{N-1-j} = x_{2j+1}`, take a length-`N/2` complex
//!   FFT of the packed real sequence, untangle to the length-`N` real
//!   spectrum `V`, then `S_u = Re(e^{-iπu/2N} V_u)`.
//! * **Cosine synthesis** (`idct`): `f_i = Σ_u T_u φ_u(i)` for arbitrary
//!   coefficients `T` — the inverse path run backwards: rebuild
//!   `V_u = e^{iπu/2N}(S_u − i·S_{N-u})` from `S_0 = N·T_0`,
//!   `S_u = (N/2)·T_u`, inverse real FFT, un-permute.
//! * **Sine synthesis** (`idxst`): `f_i = Σ_u T_u sin(πu(i+½)/N)`, needed
//!   for the closed-form field derivatives `∂ψ/∂x`. Derived from cosine
//!   synthesis via the fold `sin(πu(i+½)/N) = (−1)^i cos(π(N−u)(i+½)/N)`:
//!   reverse the coefficients, cosine-synthesize, flip the sign of every
//!   odd sample.
//!
//! Every transform reads its input through a stride (`x[k·stride]`), so the
//! second pass of a 2-D transform can read a column of a row-major grid in
//! place instead of going through a transposed copy; the input is touched
//! only by the first load loop, everything after it runs on the strip.
//!
//! All transforms are strictly in-place over a caller-provided scratch strip
//! of `N + 2` floats ([`DctPlan::scratch_len`]) — no allocation per call,
//! which is what lets `Spectral2D::solve_into` run allocation-free inside
//! the placement loop. Plans (bit-reversal table + twiddles + phase tables)
//! are cached per length in a global weak registry, so every solver instance
//! on a 256-bin axis shares one plan.

use std::sync::{Arc, Mutex, OnceLock, Weak};

/// True if `k` is a power of two (and at least 1).
pub fn is_pow2(k: usize) -> bool {
    k > 0 && k & (k - 1) == 0
}

/// Iterative radix-2 complex FFT plan for a fixed length `len` (a power of
/// two), operating on interleaved `[re, im]` buffers of `2 * len` floats.
#[derive(Debug)]
struct FftPlan {
    len: usize,
    /// Bit-reversal permutation, `rev[i]` = reversed index of `i`.
    rev: Vec<u32>,
    /// Forward twiddles `e^{-2πi j/stage_len}` for every stage, interleaved
    /// `[re, im]`, stages concatenated smallest first (`Σ stage_len/2 =
    /// len − 1` complex entries).
    tw: Vec<f64>,
}

impl FftPlan {
    fn new(len: usize) -> FftPlan {
        assert!(is_pow2(len));
        let bits = len.trailing_zeros();
        let rev = (0..len as u32)
            .map(|i| if bits == 0 { 0 } else { i.reverse_bits() >> (32 - bits) })
            .collect();
        let mut tw = Vec::with_capacity(2 * len.saturating_sub(1));
        let mut stage = 2;
        while stage <= len {
            let half = stage / 2;
            for j in 0..half {
                let ang = -2.0 * std::f64::consts::PI * j as f64 / stage as f64;
                tw.push(ang.cos());
                tw.push(ang.sin());
            }
            stage *= 2;
        }
        FftPlan { len, rev, tw }
    }

    /// In-place forward FFT (sign convention `e^{-2πi jk/len}`).
    fn forward(&self, buf: &mut [f64]) {
        let len = self.len;
        debug_assert_eq!(buf.len(), 2 * len);
        for i in 0..len {
            let j = self.rev[i] as usize;
            if i < j {
                buf.swap(2 * i, 2 * j);
                buf.swap(2 * i + 1, 2 * j + 1);
            }
        }
        let mut toff = 0;
        let mut stage = 2;
        while stage <= len {
            let half = stage / 2;
            let mut start = 0;
            while start < len {
                for j in 0..half {
                    let (wr, wi) = (self.tw[toff + 2 * j], self.tw[toff + 2 * j + 1]);
                    let (a, b) = (2 * (start + j), 2 * (start + half + j));
                    let (xr, xi) = (buf[a], buf[a + 1]);
                    let (yr, yi) = (buf[b], buf[b + 1]);
                    let (tr, ti) = (wr * yr - wi * yi, wr * yi + wi * yr);
                    buf[a] = xr + tr;
                    buf[a + 1] = xi + ti;
                    buf[b] = xr - tr;
                    buf[b + 1] = xi - ti;
                }
                start += stage;
            }
            toff += 2 * half;
            stage *= 2;
        }
    }

    /// In-place inverse FFT (unscaled by the conjugation trick, then `1/len`).
    fn inverse(&self, buf: &mut [f64]) {
        for im in buf.iter_mut().skip(1).step_by(2) {
            *im = -*im;
        }
        self.forward(buf);
        let scale = 1.0 / self.len as f64;
        for k in 0..self.len {
            buf[2 * k] *= scale;
            buf[2 * k + 1] *= -scale;
        }
    }
}

/// Fast-transform plan for one axis length `n` (a power of two): the
/// half-length complex FFT plus the DCT phase tables.
#[derive(Debug)]
pub struct DctPlan {
    n: usize,
    /// Complex FFT of length `n/2` (`None` when `n == 1`).
    half: Option<FftPlan>,
    /// `cos/sin(πk/(2n))` for `k = 0..=n/2` (DCT phase).
    ph: Vec<f64>,
    /// `cos/sin(2πk/n)` for `k = 0..=n/2` (real-FFT untangle phase).
    unt: Vec<f64>,
}

impl DctPlan {
    fn build(n: usize) -> DctPlan {
        assert!(is_pow2(n), "DctPlan requires a power-of-two length");
        let half = (n >= 2).then(|| FftPlan::new(n / 2));
        let mut ph = Vec::with_capacity(n + 2);
        let mut unt = Vec::with_capacity(n + 2);
        for k in 0..=n / 2 {
            let a = std::f64::consts::PI * k as f64 / (2.0 * n as f64);
            ph.push(a.cos());
            ph.push(a.sin());
            let b = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
            unt.push(b.cos());
            unt.push(b.sin());
        }
        DctPlan { n, half, ph, unt }
    }

    /// Returns the (globally cached) plan for length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn get(n: usize) -> Arc<DctPlan> {
        type PlanCache = Mutex<Vec<(usize, Weak<DctPlan>)>>;
        static CACHE: OnceLock<PlanCache> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
        let mut reg = cache.lock().unwrap();
        reg.retain(|(_, w)| w.strong_count() > 0);
        if let Some((_, w)) = reg.iter().find(|(k, _)| *k == n) {
            if let Some(plan) = w.upgrade() {
                return plan;
            }
        }
        let plan = Arc::new(DctPlan::build(n));
        reg.push((n, Arc::downgrade(&plan)));
        plan
    }

    /// Transform length (always ≥ 1; a plan is never empty).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Required scratch strip length for any transform of this plan.
    pub fn scratch_len(&self) -> usize {
        self.n + 2
    }

    /// Real FFT of the packed even-permutation already sitting in
    /// `work[0..n]`; leaves the half-spectrum `X_0..=X_{n/2}` interleaved in
    /// `work[0..n+2]`.
    fn rfft_in_place(&self, work: &mut [f64]) {
        let n = self.n;
        let l = n / 2;
        self.half.as_ref().expect("n >= 2").forward(&mut work[..n]);
        // Untangle pairs (k, L−k) in place; X_{n/2} lands in the 2 extra
        // floats past the packed buffer.
        for k in 0..=l / 2 {
            let k2 = l - k;
            let (zr1, zi1) = (work[2 * (k % l)], work[2 * (k % l) + 1]);
            let (zr2, zi2) = (work[2 * (k2 % l)], work[2 * (k2 % l) + 1]);
            // Even part ½(Z_k + Z̄_{L−k}), odd part ½(Z_k − Z̄_{L−k}).
            let (er, ei) = (0.5 * (zr1 + zr2), 0.5 * (zi1 - zi2));
            let (or_, oi) = (0.5 * (zr1 - zr2), 0.5 * (zi1 + zi2));
            // X_k = E − i·e^{−2πik/n}·O ; for the partner index L−k the
            // twiddle is −conj of this one.
            let (cr, ci) = (self.unt[2 * k], -self.unt[2 * k + 1]);
            let xr = er + ci * or_ + cr * oi;
            let xi = ei - cr * or_ + ci * oi;
            // Partner: E' = conj(E), O' = −conj(O), twiddle −(cr, −ci).
            let yr = er - ci * or_ - cr * oi;
            let yi = -ei - cr * or_ + ci * oi;
            work[2 * k] = xr;
            work[2 * k + 1] = xi;
            work[2 * k2] = yr;
            work[2 * k2 + 1] = yi;
        }
    }

    /// Inverse of [`DctPlan::rfft_in_place`]: consumes the half-spectrum in
    /// `work[0..n+2]`, leaves the packed real sequence in `work[0..n]`.
    fn irfft_in_place(&self, work: &mut [f64]) {
        let n = self.n;
        let l = n / 2;
        for k in 0..=l / 2 {
            let k2 = l - k;
            let (xr1, xi1) = (work[2 * k], work[2 * k + 1]);
            let (xr2, xi2) = (work[2 * k2], work[2 * k2 + 1]);
            let (er, ei) = (0.5 * (xr1 + xr2), 0.5 * (xi1 - xi2));
            let (or_, oi) = (0.5 * (xr1 - xr2), 0.5 * (xi1 + xi2));
            // Z_k = E + i·e^{+2πik/n}·O ; partner twiddle −conj again.
            let (cr, ci) = (self.unt[2 * k], self.unt[2 * k + 1]);
            let zr = er - ci * or_ - cr * oi;
            let zi = ei + cr * or_ - ci * oi;
            let wr = er + ci * or_ + cr * oi;
            let wi = -ei + cr * or_ - ci * oi;
            work[2 * k] = zr;
            work[2 * k + 1] = zi;
            if k2 < l {
                work[2 * k2] = wr;
                work[2 * k2 + 1] = wi;
            }
        }
        self.half.as_ref().expect("n >= 2").inverse(&mut work[..n]);
    }

    /// Unnormalized DCT-II analysis: `out[u] = Σ_i x[i·stride]·cos(πu(i+½)/n)`.
    ///
    /// `work` must be [`DctPlan::scratch_len`] floats; `x` and `out` must
    /// not alias.
    pub fn dct2(&self, x: &[f64], stride: usize, out: &mut [f64], work: &mut [f64]) {
        let n = self.n;
        debug_assert!(x.len() > (n - 1) * stride);
        debug_assert_eq!(out.len(), n);
        debug_assert!(work.len() >= self.scratch_len());
        if n == 1 {
            out[0] = x[0];
            return;
        }
        let x = |i: usize| x[i * stride];
        // Even permutation v_j = x_{2j} (front) / x_{2n−2j−1} (back),
        // packed directly as the half-length complex input: Z_k re/im are
        // v_{2k} / v_{2k+1}, which sit at work[2k] / work[2k+1] — i.e. the
        // permuted sequence in natural order.
        for (j, w) in work[..n].iter_mut().enumerate() {
            *w = if 2 * j < n { x(2 * j) } else { x(2 * n - 2 * j - 1) };
        }
        self.rfft_in_place(work);
        // S_u = Re(e^{−iπu/2n} V_u); the conjugate-symmetric upper half
        // comes from the same table entries with cos/sin swapped.
        out[0] = work[0];
        for k in 1..n / 2 {
            let (c, s) = (self.ph[2 * k], self.ph[2 * k + 1]);
            let (re, im) = (work[2 * k], work[2 * k + 1]);
            out[k] = c * re + s * im;
            out[n - k] = s * re - c * im;
        }
        let (c, s) = (self.ph[n], self.ph[n + 1]);
        out[n / 2] = c * work[n] + s * work[n + 1];
    }

    /// Cosine synthesis: `out[i] = Σ_u t[u·stride]·cos(πu(i+½)/n)` for
    /// arbitrary coefficients `t`.
    pub fn idct(&self, t: &[f64], stride: usize, out: &mut [f64], work: &mut [f64]) {
        self.synth(t, stride, out, work, false);
    }

    /// Sine synthesis: `out[i] = Σ_u t[u·stride]·sin(πu(i+½)/n)` (the
    /// `u = 0` term vanishes identically).
    pub fn idxst(&self, t: &[f64], stride: usize, out: &mut [f64], work: &mut [f64]) {
        self.synth(t, stride, out, work, true);
    }

    fn synth(&self, t: &[f64], stride: usize, out: &mut [f64], work: &mut [f64], sine: bool) {
        let n = self.n;
        debug_assert!(t.len() > (n - 1) * stride);
        debug_assert_eq!(out.len(), n);
        debug_assert!(work.len() >= self.scratch_len());
        if n == 1 {
            out[0] = if sine { 0.0 } else { t[0] };
            return;
        }
        let t = |u: usize| t[u * stride];
        let l = n / 2;
        // Scaled spectrum S: S_0 = n·T_0, S_u = (n/2)·T_u, S_n = 0. The
        // sine fold reads the reversed coefficients T_{n−u} with T'_0 = 0.
        let s_at = |u: usize| -> f64 {
            let tu = if sine {
                if u == 0 || u == n {
                    return 0.0;
                }
                t(n - u)
            } else {
                if u == n {
                    return 0.0;
                }
                t(u)
            };
            if u == 0 {
                n as f64 * tu
            } else {
                0.5 * n as f64 * tu
            }
        };
        // V_u = e^{iπu/2n}(S_u − i·S_{n−u}) for u = 0..=n/2.
        for k in 0..=l {
            let (c, s) = (self.ph[2 * k], self.ph[2 * k + 1]);
            let (a, b) = (s_at(k), s_at(n - k));
            work[2 * k] = a * c + b * s;
            work[2 * k + 1] = a * s - b * c;
        }
        self.irfft_in_place(work);
        // Un-permute; the sine fold flips the sign of odd output samples.
        let odd_sign = if sine { -1.0 } else { 1.0 };
        for i in 0..l {
            out[2 * i] = work[i];
            out[2 * i + 1] = odd_sign * work[n - 1 - i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dct2(x: &[f64]) -> Vec<f64> {
        let n = x.len();
        (0..n)
            .map(|u| {
                x.iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        v * (std::f64::consts::PI * u as f64 * (i as f64 + 0.5) / n as f64).cos()
                    })
                    .sum()
            })
            .collect()
    }

    fn naive_synth(t: &[f64], sine: bool) -> Vec<f64> {
        let n = t.len();
        (0..n)
            .map(|i| {
                t.iter()
                    .enumerate()
                    .map(|(u, &c)| {
                        let a = std::f64::consts::PI * u as f64 * (i as f64 + 0.5) / n as f64;
                        c * if sine { a.sin() } else { a.cos() }
                    })
                    .sum()
            })
            .collect()
    }

    fn pseudo(seed: u64, len: usize) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn dct2_matches_naive_all_pow2_lengths() {
        for n in [1usize, 2, 4, 8, 16, 32, 64, 128] {
            let plan = DctPlan::get(n);
            let x = pseudo(n as u64, n);
            let mut out = vec![0.0; n];
            let mut work = vec![0.0; plan.scratch_len()];
            plan.dct2(&x, 1, &mut out, &mut work);
            let want = naive_dct2(&x);
            for (a, b) in out.iter().zip(&want) {
                assert!((a - b).abs() < 1e-10 * n as f64, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn cosine_and_sine_synthesis_match_naive() {
        for n in [1usize, 2, 4, 8, 32, 64] {
            let plan = DctPlan::get(n);
            let t = pseudo(97 + n as u64, n);
            let mut out = vec![0.0; n];
            let mut work = vec![0.0; plan.scratch_len()];
            for sine in [false, true] {
                plan.synth(&t, 1, &mut out, &mut work, sine);
                let want = naive_synth(&t, sine);
                for (a, b) in out.iter().zip(&want) {
                    assert!((a - b).abs() < 1e-10 * n as f64, "n={n} sine={sine}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn analysis_synthesis_roundtrip() {
        let n = 256;
        let plan = DctPlan::get(n);
        let x = pseudo(7, n);
        let mut s = vec![0.0; n];
        let mut back = vec![0.0; n];
        let mut work = vec![0.0; plan.scratch_len()];
        plan.dct2(&x, 1, &mut s, &mut work);
        // Normalize to synthesis coefficients: T_0 = S_0/n, T_u = 2S_u/n.
        for (u, v) in s.iter_mut().enumerate() {
            *v *= if u == 0 { 1.0 } else { 2.0 } / n as f64;
        }
        plan.idct(&s, 1, &mut back, &mut work);
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn strided_input_equals_contiguous_input_bit_for_bit() {
        for n in [1usize, 2, 8, 64] {
            let plan = DctPlan::get(n);
            let x = pseudo(11 + n as u64, n);
            for stride in [2usize, 5] {
                // Column 1 of an `n × stride` row-major grid.
                let mut grid = pseudo(3, n * stride);
                for (k, &v) in x.iter().enumerate() {
                    grid[k * stride + 1] = v;
                }
                let mut work = vec![0.0; plan.scratch_len()];
                let (mut a, mut b) = (vec![0.0; n], vec![0.0; n]);
                plan.dct2(&x, 1, &mut a, &mut work);
                plan.dct2(&grid[1..], stride, &mut b, &mut work);
                assert_eq!(a, b, "dct2 n={n} stride={stride}");
                for sine in [false, true] {
                    plan.synth(&x, 1, &mut a, &mut work, sine);
                    plan.synth(&grid[1..], stride, &mut b, &mut work, sine);
                    assert_eq!(a, b, "synth n={n} stride={stride} sine={sine}");
                }
            }
        }
    }

    #[test]
    fn plans_are_cached_per_length() {
        let a = DctPlan::get(64);
        let b = DctPlan::get(64);
        assert!(Arc::ptr_eq(&a, &b));
        let c = DctPlan::get(128);
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
