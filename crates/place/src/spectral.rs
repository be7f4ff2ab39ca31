//! Spectral Poisson solver on a bin grid (the ePlace electrostatics core).
//!
//! Solves `∇²ψ = −ρ̂` (ρ̂ = bin density minus its mean) with Neumann
//! boundaries by expanding ρ̂ in the DCT-II (cosine-at-midpoints) basis:
//! `ρ̂ = Σ a_uv cos(w_u x) cos(w_v y)` with `w_u = πu/W`, giving
//! `ψ_uv = a_uv / (w_u² + w_v²)` and closed-form derivatives.
//!
//! Two transform backends share the same spectral math:
//!
//! * **FFT** (`O(N log N)`, [`crate::fft`]): two sweeps of the radix-2
//!   real-FFT DCT per 2-D transform, y then x. The first sweep of the
//!   forward transform reads contiguous rows; every other sweep reads the
//!   columns of the previous sweep's output *in place* (strided reads,
//!   contiguous writes), so no transposed copy is ever made. A sweep
//!   transforms [`LANES`] = 4 rows per pass on a strip of `[f64; 4]` lanes
//!   held in [`PoissonScratch`], so a column read loads four adjacent
//!   elements; every lane does what a one-row transform does, in its order,
//!   so the result is bit-identical, and a last group of fewer rows repeats
//!   its last row in the spare lanes (the 2-bin axes run the same code).
//!   Selected automatically when *both* grid dimensions are powers of two
//!   ≥ 2 — the only shapes the radix-2 kernels handle.
//! * **Dense** (`O(m³)` separable basis-matrix products): the reference
//!   implementation, kept as the fallback for odd sizes and as the parity
//!   oracle for the FFT path in tests.
//!
//! # What the hot path produces, and in which layout
//!
//! [`Spectral2D::solve_into`] yields the field only — `∂ψ/∂x` and `∂ψ/∂y`,
//! three 2-D transforms (one analysis, two syntheses). The potential ψ is a
//! fourth transform that the placement loop never needs;
//! [`Spectral2D::potential_into`] synthesises it on request from the
//! coefficients the last solve left in the scratch.
//!
//! | grid | layout | why |
//! |---|---|---|
//! | input ρ̂ | x-major, `[i·n + j]` | the charge stamp's column blocks |
//! | coefficients `a_uv` (FFT) | y-major, `[v·m + u]` | the x sweep writes one row per `v` |
//! | coefficients `a_uv` (dense) | x-major, `[u·n + v]` | the matrix products' natural output |
//! | `∂ψ/∂x`, `∂ψ/∂y`, ψ | y-major, `[j·m + i]` | the x sweep writes one row per `j` |
//!
//! The coefficient layout is private to the backend (the `1/k²` scaling is
//! element-wise and walks it through two strides); the output layout is
//! public and the same for both backends. The bilinear field sampler reads
//! four neighbours per cell, so it is indifferent to which axis is major.
//!
//! # Chunking
//!
//! Every sweep hands the pool tasks of a fixed amount of work
//! ([`TASK_WORK`] element-operations, whole rows — whole groups of four
//! rows in an FFT sweep), never a share derived
//! from the pool width: a 64 × 64 grid is one task per sweep and runs inline
//! on the calling thread (the pool's single-index path — no dispatch, no
//! wake-up), a 512 × 512 grid is 16 tasks of 32 rows. Rows are transformed
//! independently, so the chunking cannot change a bit of the result.
//!
//! Per-axis resources (dense cosine/sine tables, FFT plans) depend only on
//! the axis *bin count* — the physical extent enters solely through the
//! frequencies `w_u` — so a square grid builds them once and shares them
//! between x and y. A solver builds them when it is constructed;
//! `DensityModel::set_inflation` changes charges, never the solver.
//!
//! [`Spectral2D::solve_into`] is the allocation-free entry point: all
//! intermediates live in a caller-owned [`PoissonScratch`] and the outputs
//! in a reused [`PoissonSolution`], mirroring the `AnalysisScratch` pattern
//! of the STA hot path.

use crate::fft::{is_pow2, DctPlan, Lane, LANES};
use rayon::prelude::*;
use std::sync::Arc;

/// Work per pool task, in element-operations: a row of an FFT sweep counts
/// its length, a row of a dense product its length times the axis it sums
/// over. 16 Ki is a few tens of microseconds — an order of magnitude above
/// the pool's ≈ 1–2 µs dispatch round trip (2 Ki, which splits a 64 × 64
/// sweep in two, makes the density phase 1.10–1.16× slower: PR 24).
pub(crate) const TASK_WORK: usize = 16 * 1024;

/// Rows per pool task for a sweep whose rows cost `row_work` each.
fn rows_per_task(row_work: usize) -> usize {
    TASK_WORK.div_ceil(row_work.max(1))
}

/// Dense cosine/sine basis tables for one axis length `k`: `cos/sin(πu(i+½)/k)`
/// at `[i*k + u]`. Extent-independent, hence shareable between axes of
/// equal length.
#[derive(Debug)]
struct AxisBases {
    cos: Vec<f64>,
    sin: Vec<f64>,
}

impl AxisBases {
    /// The dense tables for axis length `k`.
    fn new(k: usize) -> AxisBases {
        let mut cos = vec![0.0; k * k];
        let mut sin = vec![0.0; k * k];
        for i in 0..k {
            // Midpoint of bin i in normalized angle: πu(i+0.5)/k.
            for u in 0..k {
                let ang = std::f64::consts::PI * u as f64 * (i as f64 + 0.5) / k as f64;
                cos[i * k + u] = ang.cos();
                sin[i * k + u] = ang.sin();
            }
        }
        AxisBases { cos, sin }
    }
}

/// The per-axis resources of an `m × n` grid, built by `build`: one shared
/// instance when the axes are equally long.
fn per_axis<T>(m: usize, n: usize, build: fn(usize) -> T) -> (Arc<T>, Arc<T>) {
    let x = Arc::new(build(m));
    let y = if n == m { Arc::clone(&x) } else { Arc::new(build(n)) };
    (x, y)
}

/// Transform backend: per-axis resources.
#[derive(Clone, Debug)]
enum Backend {
    /// Dense basis-product reference path.
    Dense { x: Arc<AxisBases>, y: Arc<AxisBases> },
    /// Radix-2 real-FFT path (both axes power-of-two).
    Fft { x: Arc<DctPlan>, y: Arc<DctPlan> },
}

/// Spectral solver for one grid geometry (see module docs).
#[derive(Clone, Debug)]
pub struct Spectral2D {
    m: usize,
    n: usize,
    /// Physical frequencies πu/W.
    wu: Vec<f64>,
    wv: Vec<f64>,
    backend: Backend,
}

/// The solved field on the bin grid: the spatial derivatives of the
/// potential, y-major (`[j·m + i]` for bin column `i`, bin row `j`).
#[derive(Clone, Debug, Default)]
pub struct PoissonSolution {
    /// ∂ψ/∂x per bin, `[j*m + i]`.
    pub dpsi_dx: Vec<f64>,
    /// ∂ψ/∂y per bin, `[j*m + i]`.
    pub dpsi_dy: Vec<f64>,
}

/// Reusable intermediates for [`Spectral2D::solve_into`]. Buffers grow on
/// first use and are reused verbatim afterwards — steady-state calls
/// allocate nothing.
#[derive(Clone, Debug, Default)]
pub struct PoissonScratch {
    /// Forward coefficients `a_uv` of the last solve, in the backend's
    /// coefficient layout.
    a: Vec<f64>,
    /// Synthesis coefficients (`a/k²` and its `w`-scaled variants).
    c: Vec<f64>,
    /// Output of a transform's first sweep.
    t1: Vec<f64>,
    /// x-major staging of the dense backend's output (empty under FFT).
    t2: Vec<f64>,
    /// Per-task lane strips of the FFT sweeps (`tasks × (2·len + 2)`
    /// lanes): a transform's work strip, then its output.
    lanes: Vec<Lane>,
    /// 2-D transforms run through this scratch since it was created.
    transforms: u64,
}

impl PoissonScratch {
    /// Creates an empty scratch; buffers are sized lazily on first use.
    pub fn new() -> PoissonScratch {
        PoissonScratch::default()
    }

    /// Number of 2-D transforms (analyses and syntheses) run through this
    /// scratch so far: a field solve adds 3, a potential synthesis 1.
    pub fn transforms(&self) -> u64 {
        self.transforms
    }
}

/// Resizes `v` to `len` zeros (no realloc when shrinking or in steady-state
/// equal-size calls). For buffers that are accumulated into; buffers that
/// are overwritten whole are merely `resize`d.
pub(crate) fn ensure_len(v: &mut Vec<f64>, len: usize) {
    v.clear();
    v.resize(len, 0.0);
}

/// Out-of-place transpose `src (rows × cols)` → `dst (cols × rows)`.
fn transpose(src: &[f64], dst: &mut [f64], rows: usize, cols: usize) {
    for (c, drow) in dst[..rows * cols].chunks_mut(rows).enumerate() {
        for (r, d) in drow.iter_mut().enumerate() {
            *d = src[r * cols + c];
        }
    }
}

/// Where the input vectors of a sweep sit in its source grid.
#[derive(Clone, Copy)]
enum Read {
    /// Vector `r` is row `r` of a row-major `rows × len` grid.
    Rows,
    /// Vector `r` is column `r` of a row-major `len × rows` grid.
    Columns,
}

impl Spectral2D {
    /// Builds the solver for an `m × n` grid over a `width × height` region,
    /// selecting the FFT backend automatically for power-of-two grids.
    ///
    /// # Panics
    ///
    /// Panics if `m`, `n` are zero or the region is degenerate.
    pub fn new(m: usize, n: usize, width: f64, height: f64) -> Spectral2D {
        Spectral2D::with_fft(m, n, width, height, true)
    }

    /// Like [`Spectral2D::new`] but with explicit backend policy: when
    /// `allow_fft` is false the dense reference path is used even on
    /// power-of-two grids.
    pub fn with_fft(m: usize, n: usize, width: f64, height: f64, allow_fft: bool) -> Spectral2D {
        assert!(m > 0 && n > 0 && width > 0.0 && height > 0.0);
        let freqs = |k: usize, extent: f64| -> Vec<f64> {
            (0..k).map(|u| std::f64::consts::PI * u as f64 / extent).collect()
        };
        let backend = if allow_fft && m >= 2 && n >= 2 && is_pow2(m) && is_pow2(n) {
            let (x, y) = per_axis(m, n, DctPlan::new);
            Backend::Fft { x, y }
        } else {
            let (x, y) = per_axis(m, n, AxisBases::new);
            Backend::Dense { x, y }
        };
        Spectral2D { m, n, wu: freqs(m, width), wv: freqs(n, height), backend }
    }

    /// Grid size `(m, n)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.m, self.n)
    }

    /// True when the radix-2 FFT backend is active.
    pub fn uses_fft(&self) -> bool {
        matches!(self.backend, Backend::Fft { .. })
    }

    /// Strides `(per u, per v)` of the backend's coefficient layout.
    fn coef_strides(&self) -> (usize, usize) {
        match self.backend {
            Backend::Dense { .. } => (self.n, 1),
            Backend::Fft { .. } => (1, self.m),
        }
    }

    // ------------------------------------------------------------------
    // FFT sweeps
    // ------------------------------------------------------------------

    /// One sweep of a 2-D transform: applies the 1-D transform `kind` to
    /// `rows` vectors of `plan.len()` elements read from `src` as `read`
    /// says, writing them as the contiguous rows of `dst`; `finish(r, row)`
    /// post-processes row `r` in the same task. Vectors go through the
    /// transform [`LANES`] at a time, on one lane strip of `lanes` per task;
    /// a last group with fewer vectors repeats its last one in the spare
    /// lanes and discards their results.
    #[allow(clippy::too_many_arguments)]
    fn fft_sweep(
        plan: &DctPlan,
        kind: FftKind,
        src: &[f64],
        read: Read,
        dst: &mut [f64],
        rows: usize,
        lanes: &mut Vec<Lane>,
        finish: impl Fn(usize, &mut [f64]) + Sync,
    ) {
        let len = plan.len();
        // Whole groups per task, so no group straddles two tasks.
        let rpt = rows_per_task(len).next_multiple_of(LANES);
        let work_len = plan.scratch_len();
        let strip = work_len + len;
        // Every transform writes its strip before reading it.
        lanes.resize(rows.div_ceil(rpt) * strip, [0.0; LANES]);
        // Element `i` of vector `r` sits at `src[i·step + r·at]`.
        let (step, at) = match read {
            Read::Rows => (1, len),
            Read::Columns => (rows, 1),
        };
        dst[..rows * len]
            .par_chunks_mut(rpt * len)
            .zip(lanes.par_chunks_mut(strip))
            .enumerate()
            .for_each(|(ti, (dchunk, strip))| {
                let (work, out) = strip.split_at_mut(work_len);
                for (g, group) in dchunk.chunks_mut(LANES * len).enumerate() {
                    let r0 = ti * rpt + g * LANES;
                    let count = group.len() / len;
                    let base: [usize; LANES] =
                        std::array::from_fn(|q| (r0 + q.min(count - 1)) * at);
                    let load = |i: usize| -> Lane {
                        let i = i * step;
                        std::array::from_fn(|q| src[i + base[q]])
                    };
                    match kind {
                        FftKind::Dct2 => plan.dct2_lanes(load, out, work),
                        FftKind::Idct => plan.idct_lanes(load, out, work),
                        FftKind::Idxst => plan.idxst_lanes(load, out, work),
                    }
                    for (q, drow) in group.chunks_mut(len).enumerate() {
                        for (d, v) in drow.iter_mut().zip(out.iter()) {
                            *d = v[q];
                        }
                        finish(r0 + q, drow);
                    }
                }
            });
    }

    // ------------------------------------------------------------------
    // Forward transform
    // ------------------------------------------------------------------

    /// Forward DCT-II of `grid` (`m × n`, x-major) into `scratch.a`, in the
    /// backend's coefficient layout: `a_uv` such that
    /// `grid_ij = Σ a_uv cos·cos` exactly.
    fn forward(&self, grid: &[f64], scratch: &mut PoissonScratch) {
        let (m, n) = (self.m, self.n);
        assert_eq!(grid.len(), m * n);
        scratch.transforms += 1;
        let mut a = std::mem::take(&mut scratch.a);
        match &self.backend {
            Backend::Dense { x, y } => {
                ensure_len(&mut a, m * n);
                self.dense_dct2(grid, &mut a, scratch, x, y)
            }
            Backend::Fft { x, y } => {
                // Both sweeps overwrite their whole output.
                a.resize(m * n, 0.0);
                scratch.t1.resize(m * n, 0.0);
                // Along y: S_y[i][v], rows of the input.
                let (t1, lanes) = (&mut scratch.t1, &mut scratch.lanes);
                Self::fft_sweep(y, FftKind::Dct2, grid, Read::Rows, t1, m, lanes, |_, _| {});
                // Along x: S_xy[v][u], columns of S_y, with the c_u c_v
                // normalization applied as each row lands.
                Self::fft_sweep(x, FftKind::Dct2, t1, Read::Columns, &mut a, n, lanes, |v, row| {
                    let cv = if v == 0 { 1.0 } else { 2.0 } / n as f64;
                    for (u, r) in row.iter_mut().enumerate() {
                        let cu = if u == 0 { 1.0 } else { 2.0 } / m as f64;
                        *r *= cu * cv;
                    }
                });
            }
        }
        scratch.a = a;
    }

    /// Forward DCT-II of `grid` (`m × n`, `[i*n + j]`): coefficients
    /// `[u*n + v]`. Allocating convenience form for tests and tools.
    pub fn dct2(&self, grid: &[f64]) -> Vec<f64> {
        let mut scratch = PoissonScratch::new();
        self.forward(grid, &mut scratch);
        match self.backend {
            Backend::Dense { .. } => scratch.a,
            Backend::Fft { .. } => {
                let mut out = vec![0.0; self.m * self.n];
                transpose(&scratch.a, &mut out, self.n, self.m);
                out
            }
        }
    }

    fn dense_dct2(
        &self,
        grid: &[f64],
        out: &mut [f64],
        scratch: &mut PoissonScratch,
        x: &AxisBases,
        y: &AxisBases,
    ) {
        let (m, n) = (self.m, self.n);
        ensure_len(&mut scratch.t1, m * n);
        // T[u*n + j] = Σ_i cos_x[i][u] grid[i][j]
        let rpt = rows_per_task(m * n);
        scratch.t1.par_chunks_mut(rpt * n).enumerate().for_each(|(ci, chunk)| {
            let base = ci * rpt;
            for (local, row) in chunk.chunks_mut(n).enumerate() {
                let u = base + local;
                for i in 0..m {
                    let cu = x.cos[i * m + u];
                    if cu != 0.0 {
                        let g = &grid[i * n..(i + 1) * n];
                        for (r, gv) in row.iter_mut().zip(g) {
                            *r += cu * gv;
                        }
                    }
                }
            }
        });
        // A[u*n + v] = cu cv Σ_j T[u][j] cos_y[j][v]
        let t1 = &scratch.t1;
        let rpt = rows_per_task(n * n);
        out.par_chunks_mut(rpt * n).enumerate().for_each(|(ci, chunk)| {
            let base = ci * rpt;
            for (local, row) in chunk.chunks_mut(n).enumerate() {
                let u = base + local;
                let cu = if u == 0 { 1.0 / m as f64 } else { 2.0 / m as f64 };
                for j in 0..n {
                    let tv = t1[u * n + j];
                    if tv != 0.0 {
                        for (v, r) in row.iter_mut().enumerate() {
                            *r += tv * y.cos[j * n + v];
                        }
                    }
                }
                for (v, r) in row.iter_mut().enumerate() {
                    let cv = if v == 0 { 1.0 / n as f64 } else { 2.0 / n as f64 };
                    *r *= cu * cv;
                }
            }
        });
    }

    // ------------------------------------------------------------------
    // Synthesis
    // ------------------------------------------------------------------

    /// Evaluates `Σ_uv coef_uv · φx(i,u) · φy(j,v)` on the grid into `out`
    /// (y-major), where the bases are selected by `sin_in_x` / `sin_in_y`
    /// and `coef` is in the backend's coefficient layout.
    fn synth_into(
        &self,
        coef: &[f64],
        sin_in_x: bool,
        sin_in_y: bool,
        out: &mut [f64],
        scratch: &mut PoissonScratch,
    ) {
        let (m, n) = (self.m, self.n);
        debug_assert_eq!(coef.len(), m * n);
        debug_assert_eq!(out.len(), m * n);
        scratch.transforms += 1;
        match &self.backend {
            Backend::Dense { x, y } => {
                let mut staged = std::mem::take(&mut scratch.t2);
                staged.resize(m * n, 0.0);
                self.dense_synth(coef, sin_in_x, sin_in_y, &mut staged, scratch, x, y);
                transpose(&staged, out, m, n);
                scratch.t2 = staged;
            }
            Backend::Fft { x, y } => {
                scratch.t1.resize(m * n, 0.0);
                let (t1, lanes) = (&mut scratch.t1, &mut scratch.lanes);
                // Along y: G[u][j], from the columns of the y-major
                // coefficients.
                let ykind = if sin_in_y { FftKind::Idxst } else { FftKind::Idct };
                Self::fft_sweep(y, ykind, coef, Read::Columns, t1, m, lanes, |_, _| {});
                // Along x: out[j][i], from the columns of G.
                let xkind = if sin_in_x { FftKind::Idxst } else { FftKind::Idct };
                Self::fft_sweep(x, xkind, t1, Read::Columns, out, n, lanes, |_, _| {});
            }
        }
    }

    /// Dense synthesis into `out`, x-major (`[i*n + j]`).
    #[allow(clippy::too_many_arguments)]
    fn dense_synth(
        &self,
        coef: &[f64],
        sin_in_x: bool,
        sin_in_y: bool,
        out: &mut [f64],
        scratch: &mut PoissonScratch,
        x: &AxisBases,
        y: &AxisBases,
    ) {
        let (m, n) = (self.m, self.n);
        let bx = if sin_in_x { &x.sin } else { &x.cos };
        let by = if sin_in_y { &y.sin } else { &y.cos };
        ensure_len(&mut scratch.t1, m * n);
        // T[i*n + v] = Σ_u bx[i][u] coef[u][v]
        let rpt = rows_per_task(m * n);
        scratch.t1.par_chunks_mut(rpt * n).enumerate().for_each(|(ci, chunk)| {
            let base = ci * rpt;
            for (local, row) in chunk.chunks_mut(n).enumerate() {
                let i = base + local;
                for u in 0..m {
                    let b = bx[i * m + u];
                    if b != 0.0 {
                        let c = &coef[u * n..(u + 1) * n];
                        for (r, cv) in row.iter_mut().zip(c) {
                            *r += b * cv;
                        }
                    }
                }
            }
        });
        let t1 = &scratch.t1;
        let rpt = rows_per_task(n * n);
        out.par_chunks_mut(rpt * n).enumerate().for_each(|(ci, chunk)| {
            let base = ci * rpt;
            for (local, row) in chunk.chunks_mut(n).enumerate() {
                let i = base + local;
                for r in row.iter_mut() {
                    *r = 0.0;
                }
                for v in 0..n {
                    let tv = t1[i * n + v];
                    if tv != 0.0 {
                        for (j, r) in row.iter_mut().enumerate() {
                            *r += tv * by[j * n + v];
                        }
                    }
                }
            }
        });
    }

    /// Inverse of [`Spectral2D::dct2`]: evaluates the cosine expansion
    /// `coef` (`[u*n + v]`) on the grid (`[i*n + j]`). Allocating
    /// convenience form for tests and tools.
    pub fn idct2(&self, coef: &[f64]) -> Vec<f64> {
        let (m, n) = (self.m, self.n);
        assert_eq!(coef.len(), m * n);
        let mut native = coef.to_vec();
        if self.uses_fft() {
            transpose(coef, &mut native, m, n);
        }
        let mut y_major = vec![0.0; m * n];
        self.synth_into(&native, false, false, &mut y_major, &mut PoissonScratch::new());
        let mut out = vec![0.0; m * n];
        transpose(&y_major, &mut out, n, m);
        out
    }

    // ------------------------------------------------------------------
    // Poisson solve
    // ------------------------------------------------------------------

    /// Fills the synthesis coefficients `c_uv = num(u, v, a_uv) / k²` (DC
    /// term zero) from the forward coefficients, element-wise in the
    /// backend's coefficient layout.
    fn scale_coefficients(&self, a: &[f64], c: &mut [f64], num: impl Fn(usize, usize, f64) -> f64) {
        let (m, n) = (self.m, self.n);
        let (su, sv) = self.coef_strides();
        let mut set = |u: usize, v: usize| {
            let at = u * su + v * sv;
            let k2 = self.wu[u] * self.wu[u] + self.wv[v] * self.wv[v];
            c[at] = num(u, v, a[at]) / k2;
        };
        // Walk the unit-stride axis innermost.
        if su == 1 {
            (0..n).for_each(|v| (0..m).for_each(|u| set(u, v)));
        } else {
            (0..m).for_each(|u| (0..n).for_each(|v| set(u, v)));
        }
        c[0] = 0.0;
    }

    /// Solves the Poisson problem for the field of the (mean-removed)
    /// density `rho` into a reused solution using caller-owned scratch: three
    /// 2-D transforms, zero heap allocation once the buffers have grown to
    /// size. The forward coefficients stay in `scratch` for
    /// [`Spectral2D::potential_into`].
    pub fn solve_into(&self, rho: &[f64], scratch: &mut PoissonScratch, sol: &mut PoissonSolution) {
        let (m, n) = (self.m, self.n);
        self.forward(rho, scratch);
        let a = std::mem::take(&mut scratch.a);
        let mut c = std::mem::take(&mut scratch.c);
        // Overwritten whole by the scaling and the syntheses.
        c.resize(m * n, 0.0);
        sol.dpsi_dx.resize(m * n, 0.0);
        sol.dpsi_dy.resize(m * n, 0.0);
        // ψ coefficients are a/k²; the derivatives scale them by the
        // frequency (d/dx cos(w x) = −w sin(w x)).
        self.scale_coefficients(&a, &mut c, |u, _, a| -self.wu[u] * a);
        self.synth_into(&c, true, false, &mut sol.dpsi_dx, scratch);
        self.scale_coefficients(&a, &mut c, |_, v, a| -self.wv[v] * a);
        self.synth_into(&c, false, true, &mut sol.dpsi_dy, scratch);
        scratch.a = a;
        scratch.c = c;
    }

    /// Synthesises the potential ψ (y-major, `[j*m + i]`) of the density
    /// last passed to [`Spectral2D::solve_into`] with this `scratch`: the
    /// fourth 2-D transform, kept off the placement loop's path.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` does not hold the coefficients of a solve on this
    /// grid shape.
    pub fn potential_into(&self, scratch: &mut PoissonScratch, psi: &mut Vec<f64>) {
        let (m, n) = (self.m, self.n);
        assert_eq!(scratch.a.len(), m * n, "potential_into needs a preceding solve_into");
        let a = std::mem::take(&mut scratch.a);
        let mut c = std::mem::take(&mut scratch.c);
        c.resize(m * n, 0.0);
        psi.resize(m * n, 0.0);
        self.scale_coefficients(&a, &mut c, |_, _, a| a);
        self.synth_into(&c, false, false, psi, scratch);
        scratch.a = a;
        scratch.c = c;
    }
}

/// 1-D transform selector for the sweeps.
#[derive(Clone, Copy)]
enum FftKind {
    Dct2,
    Idct,
    Idxst,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits;

    #[test]
    fn dct_roundtrip_is_exact() {
        let s = Spectral2D::new(8, 4, 2.0, 1.0);
        assert!(s.uses_fft());
        let grid: Vec<f64> = (0..32).map(|k| ((k * 37 % 11) as f64) - 5.0).collect();
        let coef = s.dct2(&grid);
        let back = s.idct2(&coef);
        for (a, b) in grid.iter().zip(&back) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn dct_roundtrip_is_exact_dense_fallback() {
        let s = Spectral2D::new(6, 9, 2.0, 1.0);
        assert!(!s.uses_fft());
        let grid: Vec<f64> = (0..54).map(|k| ((k * 37 % 11) as f64) - 5.0).collect();
        let coef = s.dct2(&grid);
        let back = s.idct2(&coef);
        for (a, b) in grid.iter().zip(&back) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn constant_grid_has_single_dc_coefficient() {
        let s = Spectral2D::new(4, 4, 1.0, 1.0);
        let coef = s.dct2(&[3.0; 16]);
        assert!((coef[0] - 3.0).abs() < 1e-12);
        for &c in &coef[1..] {
            assert!(c.abs() < 1e-10);
        }
    }

    #[test]
    fn fft_and_dense_backends_agree() {
        let (m, n) = (16, 32);
        let fft = Spectral2D::with_fft(m, n, 3.0, 2.0, true);
        let dense = Spectral2D::with_fft(m, n, 3.0, 2.0, false);
        assert!(fft.uses_fft() && !dense.uses_fft());
        let grid: Vec<f64> = (0..m * n).map(|k| ((k * 31 % 17) as f64) - 8.0).collect();
        let (ca, cb) = (fft.dct2(&grid), dense.dct2(&grid));
        for (a, b) in ca.iter().zip(&cb) {
            assert!((a - b).abs() < 1e-9, "coef {a} vs {b}");
        }
        let (mut fa, mut fb) = (PoissonScratch::new(), PoissonScratch::new());
        let (mut sa, mut sb) = (PoissonSolution::default(), PoissonSolution::default());
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        fft.solve_into(&grid, &mut fa, &mut sa);
        dense.solve_into(&grid, &mut fb, &mut sb);
        fft.potential_into(&mut fa, &mut pa);
        dense.potential_into(&mut fb, &mut pb);
        for (a, b) in pa.iter().zip(&pb) {
            assert!((a - b).abs() < 1e-9, "psi {a} vs {b}");
        }
        for (a, b) in sa.dpsi_dx.iter().zip(&sb.dpsi_dx) {
            assert!((a - b).abs() < 1e-9, "dx {a} vs {b}");
        }
        for (a, b) in sa.dpsi_dy.iter().zip(&sb.dpsi_dy) {
            assert!((a - b).abs() < 1e-9, "dy {a} vs {b}");
        }
    }

    #[test]
    fn solve_into_reuses_buffers_and_matches_solve() {
        let s = Spectral2D::new(16, 16, 2.0, 2.0);
        let grid: Vec<f64> = (0..256).map(|k| ((k * 13 % 23) as f64) - 11.0).collect();
        let (mut fresh_scratch, mut fresh) = (PoissonScratch::new(), PoissonSolution::default());
        s.solve_into(&grid, &mut fresh_scratch, &mut fresh);
        let mut scratch = PoissonScratch::new();
        let mut sol = PoissonSolution::default();
        // Two calls through the same scratch: second must match exactly.
        s.solve_into(&grid, &mut scratch, &mut sol);
        s.solve_into(&grid, &mut scratch, &mut sol);
        assert_eq!(fresh.dpsi_dx, sol.dpsi_dx);
        assert_eq!(fresh.dpsi_dy, sol.dpsi_dy);
        // Field only: one analysis + two syntheses per solve; ψ is the
        // fourth transform, on request, from the coefficients left behind.
        assert_eq!(scratch.transforms(), 6);
        let mut psi = Vec::new();
        s.potential_into(&mut scratch, &mut psi);
        assert_eq!(scratch.transforms(), 7);
        let mut fresh_psi = Vec::new();
        s.potential_into(&mut fresh_scratch, &mut fresh_psi);
        assert_eq!(psi, fresh_psi);
    }

    #[test]
    fn poisson_solves_single_mode_analytically() {
        // ρ = cos(w x) with w = π/W: ψ must be ρ/w², ∂ψ/∂x = −sin(w x)/w.
        let (m, n) = (32, 32);
        let (w_ext, h_ext) = (4.0, 4.0);
        let s = Spectral2D::new(m, n, w_ext, h_ext);
        let w = std::f64::consts::PI / w_ext;
        let mut rho = vec![0.0; m * n];
        for i in 0..m {
            let x = (i as f64 + 0.5) * w_ext / m as f64;
            for j in 0..n {
                rho[i * n + j] = (w * x).cos();
            }
        }
        let mut scratch = PoissonScratch::new();
        let (mut sol, mut psi) = (PoissonSolution::default(), Vec::new());
        s.solve_into(&rho, &mut scratch, &mut sol);
        s.potential_into(&mut scratch, &mut psi);
        for i in 0..m {
            let x = (i as f64 + 0.5) * w_ext / m as f64;
            for j in 0..n {
                let expect_psi = (w * x).cos() / (w * w);
                let expect_dx = -(w * x).sin() / w;
                // Outputs are y-major.
                let at = j * m + i;
                assert!(
                    (psi[at] - expect_psi).abs() < 1e-8,
                    "psi({i},{j}) = {} vs {expect_psi}",
                    psi[at]
                );
                assert!((sol.dpsi_dx[at] - expect_dx).abs() < 1e-8);
                assert!(sol.dpsi_dy[at].abs() < 1e-8);
            }
        }
    }

    #[test]
    fn mixed_mode_poisson() {
        // ρ = cos(wx x)·cos(wy y), wx = 2π/W, wy = π/H.
        let (m, n) = (16, 24);
        let (w_ext, h_ext) = (2.0, 3.0);
        let s = Spectral2D::new(m, n, w_ext, h_ext);
        let wx = 2.0 * std::f64::consts::PI / w_ext;
        let wy = std::f64::consts::PI / h_ext;
        let mut rho = vec![0.0; m * n];
        for i in 0..m {
            let x = (i as f64 + 0.5) * w_ext / m as f64;
            for j in 0..n {
                let y = (j as f64 + 0.5) * h_ext / n as f64;
                rho[i * n + j] = (wx * x).cos() * (wy * y).cos();
            }
        }
        let mut scratch = PoissonScratch::new();
        let (mut sol, mut psi) = (PoissonSolution::default(), Vec::new());
        s.solve_into(&rho, &mut scratch, &mut sol);
        s.potential_into(&mut scratch, &mut psi);
        let k2 = wx * wx + wy * wy;
        for i in 0..m {
            let x = (i as f64 + 0.5) * w_ext / m as f64;
            for j in 0..n {
                let y = (j as f64 + 0.5) * h_ext / n as f64;
                let e_psi = (wx * x).cos() * (wy * y).cos() / k2;
                let e_dy = -wy * (wx * x).cos() * (wy * y).sin() / k2;
                assert!((psi[j * m + i] - e_psi).abs() < 1e-8);
                assert!((sol.dpsi_dy[j * m + i] - e_dy).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn dc_mode_is_ignored() {
        let s = Spectral2D::new(8, 8, 1.0, 1.0);
        let mut scratch = PoissonScratch::new();
        let (mut sol, mut psi) = (PoissonSolution::default(), Vec::new());
        s.solve_into(&[5.0; 64], &mut scratch, &mut sol);
        s.potential_into(&mut scratch, &mut psi);
        for v in psi.iter().chain(&sol.dpsi_dx).chain(&sol.dpsi_dy) {
            assert!(v.abs() < 1e-10);
        }
    }

    /// The parent's 2-D FFT transform: contiguous row sweeps with an
    /// out-of-place transpose before and after the x sweep. `kinds` are the
    /// 1-D transforms along (y, x); input and output x-major.
    fn transposed_2d(
        (xp, yp): (&DctPlan, &DctPlan),
        (ykind, xkind): (FftKind, FftKind),
        src: &[f64],
        (m, n): (usize, usize),
    ) -> Vec<f64> {
        let rows = |plan: &DctPlan, kind: FftKind, src: &[f64], count: usize| {
            let len = plan.len();
            let mut dst = vec![0.0; count * len];
            let mut work = vec![0.0; plan.scratch_len()];
            for (srow, drow) in src.chunks(len).zip(dst.chunks_mut(len)) {
                match kind {
                    FftKind::Dct2 => plan.dct2(srow, 1, drow, &mut work),
                    FftKind::Idct => plan.idct(srow, 1, drow, &mut work),
                    FftKind::Idxst => plan.idxst(srow, 1, drow, &mut work),
                }
            }
            dst
        };
        let along_y = rows(yp, ykind, src, m);
        let mut turned = vec![0.0; m * n];
        transpose(&along_y, &mut turned, m, n);
        let along_x = rows(xp, xkind, &turned, n);
        let mut out = vec![0.0; m * n];
        transpose(&along_x, &mut out, n, m);
        out
    }

    /// Exactness oracle: the strided-read transforms feed every 1-D
    /// transform the numbers the transposing ones fed it, so analysis and
    /// all three synthesis flavours agree bit for bit — on grids that run
    /// inline and on grids that fan out over 1, 2 and 4 threads.
    #[test]
    fn strided_transforms_equal_transposed_transforms_bit_for_bit() {
        for (m, n) in
            [(8, 4), (4, 8), (2, 2), (2, 64), (64, 2), (16, 16), (64, 32), (128, 64), (256, 128)]
        {
            let s = Spectral2D::new(m, n, 3.0, 2.0);
            let Backend::Fft { x, y } = &s.backend else { panic!("pow2 grid") };
            let grid: Vec<f64> =
                (0..m * n).map(|k| ((k * 2654435761 % 1009) as f64) / 37.0 - 13.0).collect();
            let mut x_major = vec![0.0; m * n];
            for threads in [1usize, 2, 4] {
                rayon::with_pool(&rayon::Pool::new(threads), || {
                    let mut scratch = PoissonScratch::new();
                    // Analysis (normalization factored out of the oracle).
                    s.forward(&grid, &mut scratch);
                    let mut want =
                        transposed_2d((x, y), (FftKind::Dct2, FftKind::Dct2), &grid, (m, n));
                    for (k, w) in want.iter_mut().enumerate() {
                        let cu = if k / n == 0 { 1.0 } else { 2.0 } / m as f64;
                        let cv = if k % n == 0 { 1.0 } else { 2.0 } / n as f64;
                        *w *= cu * cv;
                    }
                    transpose(&scratch.a, &mut x_major, n, m);
                    assert_eq!(bits(&x_major), bits(&want), "dct2 {m}x{n} @{threads}");
                    // Synthesis, from x-major coefficients `grid`.
                    let mut coef = vec![0.0; m * n];
                    transpose(&grid, &mut coef, m, n);
                    for (sin_x, sin_y) in [(false, false), (true, false), (false, true)] {
                        let kind = |sine| if sine { FftKind::Idxst } else { FftKind::Idct };
                        let want = transposed_2d((x, y), (kind(sin_y), kind(sin_x)), &grid, (m, n));
                        let mut got = vec![0.0; m * n];
                        s.synth_into(&coef, sin_x, sin_y, &mut got, &mut scratch);
                        transpose(&got, &mut x_major, n, m);
                        assert_eq!(bits(&x_major), bits(&want), "synth {m}x{n} @{threads}");
                    }
                });
            }
        }
    }

    #[test]
    fn small_grids_are_one_task_per_sweep_large_ones_fan_out() {
        // 64-element rows: 256 rows per task, so a 64-row sweep is one task
        // (the pool runs it inline); 512-element rows: 32 rows per task.
        assert_eq!(64usize.div_ceil(rows_per_task(64)), 1);
        assert_eq!(512usize.div_ceil(rows_per_task(512)), 16);
        // A dense product row costs its length times the summed axis.
        assert_eq!(64usize.div_ceil(rows_per_task(64 * 64)), 16);
        assert_eq!(rows_per_task(1 << 20), 1);
    }
}
