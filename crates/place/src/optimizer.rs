//! The first-order optimizer of the nonlinear placement problem.
//!
//! [`NesterovOptimizer`] is the ePlace/DREAMPlace workhorse: Nesterov's
//! accelerated gradient with Barzilai–Borwein step estimation and a caller
//! supplied per-cell preconditioner.

use dtp_netlist::Design;
use rayon::chunks::chunk_count;
use rayon::prelude::*;

/// Cells per parallel work item in the Nesterov sweeps. Fixed — not derived
/// from the pool width — so the chunk-ordered reductions below are bitwise
/// identical no matter how many threads execute them.
const STEP_CHUNK: usize = 4096;

/// Shared clamping data: keep lower-left positions inside the core.
#[derive(Clone, Debug)]
struct Bounds {
    xl: f64,
    yl: f64,
    xh: Vec<f64>,
    yh: Vec<f64>,
    movable: Vec<bool>,
}

impl Bounds {
    fn new(design: &Design) -> Bounds {
        let nl = &design.netlist;
        let mut xh = Vec::with_capacity(nl.num_cells());
        let mut yh = Vec::with_capacity(nl.num_cells());
        let mut movable = Vec::with_capacity(nl.num_cells());
        for c in nl.cell_ids() {
            let class = nl.class_of(c);
            xh.push(design.region.xh - class.width());
            yh.push(design.region.yh - class.height());
            movable.push(!nl.cell(c).is_fixed());
        }
        Bounds { xl: design.region.xl, yl: design.region.yl, xh, yh, movable }
    }

    #[inline]
    fn clamp(&self, i: usize, x: f64, y: f64) -> (f64, f64) {
        (x.clamp(self.xl, self.xh[i].max(self.xl)), y.clamp(self.yl, self.yh[i].max(self.yl)))
    }
}

/// Nesterov accelerated gradient with Barzilai–Borwein step size.
///
/// Usage per iteration: read the query point with
/// [`NesterovOptimizer::positions`], evaluate the total objective gradient
/// there, then call [`NesterovOptimizer::step`].
#[derive(Clone, Debug)]
pub struct NesterovOptimizer {
    /// Current solution (uₖ).
    u_x: Vec<f64>,
    u_y: Vec<f64>,
    /// Lookahead point (vₖ) — where the gradient is evaluated.
    v_x: Vec<f64>,
    v_y: Vec<f64>,
    /// Previous lookahead point / preconditioned gradient for the BB step;
    /// persistent buffers, valid once `have_prev` is set.
    prev_v_x: Vec<f64>,
    prev_v_y: Vec<f64>,
    prev_g_x: Vec<f64>,
    prev_g_y: Vec<f64>,
    /// Persistent buffers for the current preconditioned gradient, swapped
    /// into `prev_g_*` at the end of each step — no per-step allocation.
    gxp: Vec<f64>,
    gyp: Vec<f64>,
    /// Per-chunk reduction partials (one slot per `STEP_CHUNK` cells),
    /// folded serially in chunk order so the BB dot products and the
    /// first-step ∞-norm are independent of the pool width.
    bb_sy: Vec<f64>,
    bb_yy: Vec<f64>,
    have_prev: bool,
    a: f64,
    bounds: Bounds,
    /// Fallback step when BB is unavailable (first iteration).
    initial_step: f64,
}

impl NesterovOptimizer {
    /// Creates the optimizer starting from the positions currently in the
    /// design's netlist. `initial_step` is the first-iteration step length in
    /// microns per unit preconditioned gradient-∞-norm (one bin width is a
    /// good choice).
    pub fn new(design: &Design, initial_step: f64) -> NesterovOptimizer {
        let (xs, ys) = design.netlist.positions();
        NesterovOptimizer {
            u_x: xs.clone(),
            u_y: ys.clone(),
            v_x: xs,
            v_y: ys,
            prev_v_x: Vec::new(),
            prev_v_y: Vec::new(),
            prev_g_x: Vec::new(),
            prev_g_y: Vec::new(),
            gxp: Vec::new(),
            gyp: Vec::new(),
            bb_sy: Vec::new(),
            bb_yy: Vec::new(),
            have_prev: false,
            a: 1.0,
            bounds: Bounds::new(design),
            initial_step,
        }
    }

    /// The point at which the caller must evaluate the gradient.
    pub fn positions(&self) -> (&[f64], &[f64]) {
        (&self.v_x, &self.v_y)
    }

    /// The current (non-lookahead) solution.
    pub fn solution(&self) -> (&[f64], &[f64]) {
        (&self.u_x, &self.u_y)
    }

    /// Applies one Nesterov step with the gradient `(gx, gy)` evaluated at
    /// [`NesterovOptimizer::positions`], dividing each cell's gradient by
    /// `precond[cell]` (pass 1s for no preconditioning). Returns the step
    /// size used.
    ///
    /// All intermediates live in persistent buffers owned by the optimizer,
    /// so steady-state steps perform zero heap allocations. Every sweep and
    /// reduction runs over the pool in fixed `STEP_CHUNK` chunks with
    /// partials folded in chunk order, so the trajectory is bit-for-bit
    /// identical across thread counts.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths mismatch the cell count.
    pub fn step(&mut self, gx: &[f64], gy: &[f64], precond: &[f64]) -> f64 {
        let n = self.u_x.len();
        assert!(gx.len() == n && gy.len() == n && precond.len() == n);
        let chunks = chunk_count(n, STEP_CHUNK);
        // The persistent buffers are fully overwritten, so a plain resize
        // (no-op in steady state) is enough.
        if self.gxp.len() != n {
            self.gxp.resize(n, 0.0);
            self.gyp.resize(n, 0.0);
        }
        if self.bb_sy.len() != chunks {
            self.bb_sy.resize(chunks, 0.0);
            self.bb_yy.resize(chunks, 0.0);
        }

        // Preconditioned gradient into the persistent buffers (elementwise,
        // so chunking cannot change the result).
        self.gxp
            .par_chunks_mut(STEP_CHUNK)
            .zip(self.gyp.par_chunks_mut(STEP_CHUNK))
            .zip(gx.par_chunks(STEP_CHUNK))
            .zip(gy.par_chunks(STEP_CHUNK))
            .zip(precond.par_chunks(STEP_CHUNK))
            .for_each(|((((xo, yo), gxc), gyc), pc)| {
                for k in 0..xo.len() {
                    let p = pc[k].max(1e-12);
                    xo[k] = gxc[k] / p;
                    yo[k] = gyc[k] / p;
                }
            });

        // Barzilai–Borwein step: |Δv·Δg| / |Δg·Δg| on the preconditioned
        // sequence; falls back to a norm-scaled initial step. Each chunk
        // writes one partial slot (4096 cells of work per dispatch), and the
        // fold over partials is serial and chunk-ordered.
        let alpha = if self.have_prev {
            {
                let (v_x, v_y) = (&self.v_x, &self.v_y);
                let (prev_v_x, prev_v_y) = (&self.prev_v_x, &self.prev_v_y);
                let (gxp, gyp) = (&self.gxp, &self.gyp);
                let (prev_g_x, prev_g_y) = (&self.prev_g_x, &self.prev_g_y);
                let movable = &self.bounds.movable;
                self.bb_sy
                    .par_chunks_mut(1)
                    .zip(self.bb_yy.par_chunks_mut(1))
                    .enumerate()
                    .for_each(|(c, (sy_out, yy_out))| {
                        let lo = c * STEP_CHUNK;
                        let hi = (lo + STEP_CHUNK).min(n);
                        let mut sy = 0.0;
                        let mut yy = 0.0;
                        for i in lo..hi {
                            if !movable[i] {
                                continue;
                            }
                            let sxv = v_x[i] - prev_v_x[i];
                            let syv = v_y[i] - prev_v_y[i];
                            let yxv = gxp[i] - prev_g_x[i];
                            let yyv = gyp[i] - prev_g_y[i];
                            sy += sxv * yxv + syv * yyv;
                            yy += yxv * yxv + yyv * yyv;
                        }
                        sy_out[0] = sy;
                        yy_out[0] = yy;
                    });
            }
            let mut sy = 0.0;
            let mut yy = 0.0;
            for c in 0..chunks {
                sy += self.bb_sy[c];
                yy += self.bb_yy[c];
            }
            if yy > 1e-24 {
                (sy.abs() / yy).clamp(1e-9, 1e7)
            } else {
                self.initial_step
            }
        } else {
            // f64 max is exactly associative and commutative, but the fold
            // stays chunk-ordered anyway for uniformity.
            {
                let (gxp, gyp) = (&self.gxp, &self.gyp);
                self.bb_sy.par_chunks_mut(1).enumerate().for_each(|(c, out)| {
                    let lo = c * STEP_CHUNK;
                    let hi = (lo + STEP_CHUNK).min(n);
                    let mut m = 0.0f64;
                    for i in lo..hi {
                        m = m.max(gxp[i].abs()).max(gyp[i].abs());
                    }
                    out[0] = m;
                });
            }
            let gmax = self.bb_sy.iter().fold(0.0f64, |m, &v| m.max(v));
            if gmax > 0.0 {
                self.initial_step / gmax
            } else {
                self.initial_step
            }
        };

        // u_{k+1} = clamp(v_k − α g); v_{k+1} = u_{k+1} + coef (u_{k+1} − u_k).
        let a_next = 0.5 * (1.0 + (4.0 * self.a * self.a + 1.0).sqrt());
        let coef = (self.a - 1.0) / a_next;
        // Save vₖ as the next BB reference, then update u and v in place
        // (fixed cells keep their entries untouched; the update is
        // elementwise, so chunking cannot change it).
        copy_into(&mut self.prev_v_x, &self.v_x);
        copy_into(&mut self.prev_v_y, &self.v_y);
        {
            let (gxp, gyp) = (&self.gxp, &self.gyp);
            let bounds = &self.bounds;
            self.u_x
                .par_chunks_mut(STEP_CHUNK)
                .zip(self.u_y.par_chunks_mut(STEP_CHUNK))
                .zip(self.v_x.par_chunks_mut(STEP_CHUNK))
                .zip(self.v_y.par_chunks_mut(STEP_CHUNK))
                .enumerate()
                .for_each(|(c, (((ux, uy), vx), vy))| {
                    let base = c * STEP_CHUNK;
                    for k in 0..ux.len() {
                        let i = base + k;
                        if !bounds.movable[i] {
                            continue;
                        }
                        let (nux, nuy) =
                            bounds.clamp(i, vx[k] - alpha * gxp[i], vy[k] - alpha * gyp[i]);
                        let (nvx, nvy) = bounds
                            .clamp(i, nux + coef * (nux - ux[k]), nuy + coef * (nuy - uy[k]));
                        ux[k] = nux;
                        uy[k] = nuy;
                        vx[k] = nvx;
                        vy[k] = nvy;
                    }
                });
        }
        std::mem::swap(&mut self.prev_g_x, &mut self.gxp);
        std::mem::swap(&mut self.prev_g_y, &mut self.gyp);
        self.have_prev = true;
        self.a = a_next;
        alpha
    }
}

/// Reuses `dst` as a copy of `src` (no allocation once capacity exists).
fn copy_into(dst: &mut Vec<f64>, src: &[f64]) {
    dst.clear();
    dst.extend_from_slice(src);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtp_netlist::generate::{generate, GeneratorConfig};

    /// Quadratic bowl in x only (the target x = 3 is interior to the region,
    /// so clamping never interferes): f = Σ_movable (x−3)².
    fn quad_grad(d: &dtp_netlist::Design, xs: &[f64]) -> (Vec<f64>, Vec<f64>, f64) {
        let mut gx = vec![0.0; xs.len()];
        let mut f = 0.0;
        for c in d.netlist.movable_cells() {
            let x = xs[c.index()];
            gx[c.index()] = 2.0 * (x - 3.0);
            f += (x - 3.0) * (x - 3.0);
        }
        let gy = vec![0.0; xs.len()];
        (gx, gy, f)
    }

    #[test]
    fn nesterov_descends_quadratic() {
        let d = generate(&GeneratorConfig::named("opt", 60)).unwrap();
        let mut opt = NesterovOptimizer::new(&d, 1.0);
        let ones = vec![1.0; d.netlist.num_cells()];
        let (xs, _) = opt.positions();
        let (_, _, f0) = quad_grad(&d, xs);
        for _ in 0..150 {
            let (xs, _) = opt.positions();
            let (gx, gy, _) = quad_grad(&d, xs);
            opt.step(&gx, &gy, &ones);
        }
        let (xs, _) = opt.solution();
        let (_, _, f1) = quad_grad(&d, xs);
        assert!(f1 < 0.05 * f0, "nesterov did not descend: {f0} -> {f1}");
        for c in d.netlist.movable_cells() {
            assert!((xs[c.index()] - 3.0).abs() < 1.0, "x = {}", xs[c.index()]);
        }
    }

    #[test]
    fn fixed_cells_do_not_move() {
        let d = generate(&GeneratorConfig::named("opt", 60)).unwrap();
        let (x0, y0) = d.netlist.positions();
        let mut opt = NesterovOptimizer::new(&d, 1.0);
        let ones = vec![1.0; d.netlist.num_cells()];
        for _ in 0..5 {
            let (xs, _) = opt.positions();
            let (gx, gy, _) = quad_grad(&d, xs);
            opt.step(&gx, &gy, &ones);
        }
        let (xs, ys) = opt.solution();
        for c in d.netlist.cell_ids() {
            if d.netlist.cell(c).is_fixed() {
                assert_eq!(xs[c.index()], x0[c.index()]);
                assert_eq!(ys[c.index()], y0[c.index()]);
            }
        }
    }

    #[test]
    fn preconditioner_scales_step() {
        let d = generate(&GeneratorConfig::named("opt3", 40)).unwrap();
        let n = d.netlist.num_cells();
        let mut a = NesterovOptimizer::new(&d, 1.0);
        let mut b = NesterovOptimizer::new(&d, 1.0);
        let g = vec![1.0; n];
        a.step(&g, &g, &vec![1.0; n]);
        b.step(&g, &g, &vec![10.0; n]);
        let (ax, _) = a.solution();
        let (bx, _) = b.solution();
        // Stronger preconditioning => smaller move (before clamping effects).
        let mova: f64 = d
            .netlist
            .movable_cells()
            .map(|c| (ax[c.index()] - d.netlist.cell(c).pos().x).abs())
            .sum();
        let movb: f64 = d
            .netlist
            .movable_cells()
            .map(|c| (bx[c.index()] - d.netlist.cell(c).pos().x).abs())
            .sum();
        assert!(movb <= mova + 1e-12);
    }
}
