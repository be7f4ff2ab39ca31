//! Electrostatic density model (ePlace): charge stamping, Poisson solve,
//! per-cell field gradients, and the density-overflow metric that drives the
//! λ schedule and the global-placement stop criterion.
//!
//! [`DensityModel::evaluate_into`] is the hot-path entry point: every
//! intermediate (the stamp-record arena, the density grid, the Poisson
//! scratch and field) lives in a caller-owned [`DensityScratch`], so
//! steady-state evaluations inside the Nesterov loop perform zero heap
//! allocations — the same pattern as the STA engine's `AnalysisScratch`. It
//! produces what the loop consumes — overflow and the per-cell field
//! gradient — and nothing else: the potential ψ and the energy `½ Σ qψ` are
//! a fourth 2-D transform and a third interpolation per cell that no
//! iteration reads, so they live behind [`DensityModel::energy_into`].
//!
//! The charge stamp is cache-blocked for million-cell grids: a first pass
//! (parallel over fixed [`CELL_CHUNK`] cell chunks) sorts each cell's stamp
//! record into per-(chunk × bin-column-block) runs, and a second pass
//! (parallel over column blocks) accumulates each block's records — walked
//! in chunk order — into its own disjoint `BLOCK_COLS`-column slice of ρ.
//! Each block's write window is a few dozen KB, so the sweep streams instead
//! of thrashing, there is no per-thread full-grid image to reduce, and the
//! accumulation order per bin is fixed regardless of the pool width — the
//! whole evaluation is bit-for-bit identical across thread counts.
//!
//! A record is the cell's inflated rectangle, its charge density and the
//! *integer* bin ranges the rectangle covers, so each of the four
//! rectangle-to-bin divisions is done exactly once per cell and evaluation:
//! the column range in the count sweep (kept in a 4-byte per-cell slot for
//! the fill sweep), the row range in the fill sweep; the accumulation pass
//! divides nothing. The fifth division, `q / (w·h)`, depends on the
//! footprints only and is done when they change.

use crate::spectral::{ensure_len, PoissonScratch, PoissonSolution, Spectral2D, TASK_WORK};
use dtp_netlist::{Design, Rect};
use rayon::chunks::chunk_count;
use rayon::prelude::*;

/// Cells per parallel work item. Fixed — not derived from the pool width —
/// so bucket contents and chunk-ordered folds are width-invariant.
const CELL_CHUNK: usize = 4096;

/// Bin columns (x-indices) per cache block of the stamp accumulation; one
/// block's ρ slice is `BLOCK_COLS · n` contiguous elements.
const BLOCK_COLS: usize = 8;

/// `u32` slots per cache line. Each chunk's run counters are bumped once per
/// cell by the thread that owns the chunk, so they are laid out a line
/// apart: two chunks' counters in one line would bounce it between cores
/// for the whole sweep.
const LINE_SLOTS: usize = 16;

/// Stride between two chunks' per-block run counters: the block count
/// rounded up to whole cache lines plus one line of slack (the vector's
/// base is not line-aligned).
fn run_stride(blocks: usize) -> usize {
    blocks.next_multiple_of(LINE_SLOTS) + LINE_SLOTS
}

/// Bin rows whose overlap with a record is computed ahead of the column
/// loop (taller records are stamped in tiles of this many rows).
const ROW_TILE: usize = 8;

/// One cell's stamp in one column block: the inflated footprint rectangle,
/// its charge density, and the bin ranges `[i0, i1) × [j0, j1)` it covers.
/// 48 bytes — the ranges fit the padding-free tail because a grid axis is
/// capped at `u16::MAX` bins.
#[derive(Clone, Copy, Debug, Default)]
struct StampRec {
    xl: f64,
    yl: f64,
    xh: f64,
    yh: f64,
    dens: f64,
    i0: u16,
    i1: u16,
    j0: u16,
    j1: u16,
}

/// Per-cell stamp constants, one stream for the stamp and sampling sweeps.
#[derive(Clone, Copy, Debug)]
struct CellStamp {
    /// True (footprint) size, for center computation.
    w_true: f64,
    h_true: f64,
    /// Stamped size: possibly inflated, floored at the bin size (charge
    /// preserved).
    w_eff: f64,
    h_eff: f64,
    /// Charge = true area (0 for fixed/port cells, which this model treats
    /// as background), times the current inflation factor.
    q: f64,
    /// Charge density of the stamp, `q / (w_eff · h_eff)`; 0 when `q` is 0.
    dens: f64,
}

impl CellStamp {
    fn new(w_true: f64, h_true: f64, w_eff: f64, h_eff: f64, q: f64) -> CellStamp {
        let dens = if q == 0.0 { 0.0 } else { q / (w_eff * h_eff) };
        CellStamp { w_true, h_true, w_eff, h_eff, q, dens }
    }
}

/// Bins a grid axis may have: the field lives at bin centers and is
/// interpolated between neighbours, so a 1-bin axis has no interior to
/// sample, and stamp records keep bin indices in 16 bits.
pub const GRID_AXIS_BINS: std::ops::RangeInclusive<usize> = 2..=u16::MAX as usize;

/// The density model for one design.
#[derive(Clone, Debug)]
pub struct DensityModel {
    region: Rect,
    m: usize,
    n: usize,
    bin_w: f64,
    bin_h: f64,
    spectral: Spectral2D,
    cells: Vec<CellStamp>,
    /// Uninflated charge, kept so inflation factors never compound.
    base_charge: Vec<f64>,
    /// Stamp records any one cell chunk can produce at the current
    /// footprints, wherever its cells sit: the per-chunk segment length of
    /// the record arena.
    seg_len: usize,
    target_density: f64,
    movable_area: f64,
}

/// The result of one density evaluation. Reused across iterations by
/// [`DensityModel::evaluate_into`]; [`Default`] gives an empty result to
/// initialize the slot.
#[derive(Clone, Debug, Default)]
pub struct DensityResult {
    /// Density overflow: `Σ_b max(0, ρ_b − target·A_b) / movable_area` —
    /// DREAMPlace's stop metric (0.1 ≈ converged, ~1.0 at start).
    pub overflow: f64,
    /// Per-cell field gradient `qᵢ·∂ψ/∂x`: the exact derivative of the
    /// electrostatic energy `½ Σ qᵢ ψ(cᵢ)` of
    /// [`DensityModel::energy_into`] (by reciprocity, moving a charge
    /// changes both its own potential term and every other charge's, which
    /// is what the half accounts for).
    pub grad_x: Vec<f64>,
    /// Per-cell field gradient `qᵢ·∂ψ/∂y`.
    pub grad_y: Vec<f64>,
    /// Peak bin density relative to the bin area.
    pub max_density: f64,
}

/// Reusable intermediates for [`DensityModel::evaluate_into`].
///
/// The stamp records live in one flat arena laid out by the model that uses
/// it (count-then-fill, not push-and-grow): every evaluation fits the arena
/// to its model first — a no-op unless the model, its grid or its footprints
/// changed since the last one — so a scratch may be shared between models,
/// and once fitted (lazily, or eagerly via
/// [`DensityModel::presize_scratch`]) steady-state evaluations perform
/// *zero* heap allocations no matter how cells migrate across column blocks.
#[derive(Clone, Debug, Default)]
pub struct DensityScratch {
    /// Flat stamp-record arena: chunk `ci`'s segment is
    /// `recs[ci · seg_len..(ci + 1) · seg_len]` for the evaluating model's
    /// `seg_len`.
    recs: Vec<StampRec>,
    /// Per-(chunk × block) record counts, `counts[ci · run_stride + b]`.
    counts: Vec<u32>,
    /// Chunk-local start of each (chunk × block) run within the segment,
    /// indexed like `counts`.
    offsets: Vec<u32>,
    /// Per-cell bin-column range `[i0, i1)` of the current evaluation,
    /// handed from the count sweep to the fill sweep.
    cols: Vec<[u16; 2]>,
    /// Reduced density grid ρ.
    rho: Vec<f64>,
    /// Mean-removed, area-normalized density ρ̂.
    rho_hat: Vec<f64>,
    /// Potential ψ and per-chunk energy partials (reduced in chunk order);
    /// touched by [`DensityModel::energy_into`] only.
    psi: Vec<f64>,
    energy: Vec<f64>,
    /// Spectral transform intermediates.
    poisson: PoissonScratch,
    /// Reused ∂ψ grids.
    sol: PoissonSolution,
}

impl DensityScratch {
    /// Creates an empty scratch; buffers are sized lazily on first use.
    pub fn new() -> DensityScratch {
        DensityScratch::default()
    }

    /// Number of 2-D spectral transforms run through this scratch so far:
    /// [`DensityModel::evaluate_into`] adds 3 per call,
    /// [`DensityModel::energy_into`] 4.
    pub fn transforms(&self) -> u64 {
        self.poisson.transforms()
    }
}

impl DensityModel {
    /// Builds the model with an `m × n` bin grid and a target density
    /// (fraction of each bin allowed to be filled, e.g. 1.0). The FFT
    /// transform backend is selected automatically for power-of-two grids.
    ///
    /// # Panics
    ///
    /// Panics on a grid [`DensityModel::with_options`] refuses.
    pub fn new(design: &Design, m: usize, n: usize, target_density: f64) -> DensityModel {
        DensityModel::with_options(design, m, n, target_density, true)
    }

    /// Like [`DensityModel::new`] with an explicit transform-backend policy:
    /// `allow_fft = false` forces the dense reference transforms even on
    /// power-of-two grids.
    ///
    /// # Panics
    ///
    /// Panics if either grid dimension is outside [`GRID_AXIS_BINS`].
    pub fn with_options(
        design: &Design,
        m: usize,
        n: usize,
        target_density: f64,
        allow_fft: bool,
    ) -> DensityModel {
        assert!(
            GRID_AXIS_BINS.contains(&m) && GRID_AXIS_BINS.contains(&n),
            "density grid {m} x {n}: each axis needs 2..=65535 bins"
        );
        let region = design.region;
        let nl = &design.netlist;
        let bin_w = region.width() / m as f64;
        let bin_h = region.height() / n as f64;
        let mut cells = Vec::with_capacity(nl.num_cells());
        let mut base_charge = Vec::with_capacity(nl.num_cells());
        for c in nl.cell_ids() {
            let class = nl.class_of(c);
            let movable = !nl.cell(c).is_fixed();
            // ePlace inflates cells smaller than a bin to the bin size while
            // preserving total charge, which smooths the density field.
            let w = class.width().max(if movable { bin_w } else { 0.0 });
            let h = class.height().max(if movable { bin_h } else { 0.0 });
            let q = if movable { class.area() } else { 0.0 };
            cells.push(CellStamp::new(class.width(), class.height(), w, h, q));
            base_charge.push(q);
        }
        let mut model = DensityModel {
            region,
            m,
            n,
            bin_w,
            bin_h,
            spectral: Spectral2D::with_fft(m, n, region.width(), region.height(), allow_fft),
            cells,
            base_charge,
            seg_len: 0,
            target_density,
            movable_area: nl.movable_area(),
        };
        model.seg_len = model.worst_case_segment();
        model
    }

    /// Bin grid shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.m, self.n)
    }

    /// True when the spectral solve runs on the radix-2 FFT backend.
    pub fn uses_fft(&self) -> bool {
        self.spectral.uses_fft()
    }

    /// Stable identity of the shared spectral basis resources (see
    /// `Spectral2D::basis_token`); used to assert that inflation updates
    /// never rebuild the transform bases.
    #[doc(hidden)]
    pub fn basis_token(&self) -> (usize, usize) {
        self.spectral.basis_token()
    }

    /// Applies per-cell area inflation factors (congestion-driven cell
    /// bloating): cell `c` gets charge `base_area · f[c]` and its effective
    /// footprint grows by `√f[c]` per side (still floored at the bin size),
    /// so the density force clears extra room around congested cells.
    ///
    /// Factors apply to the *uninflated* baseline — calling this repeatedly
    /// replaces, never compounds, the previous factors; `set_inflation(&[1.0;
    /// n])` restores the original model exactly. Fixed cells are unaffected
    /// (their charge is 0). The spectral bases are untouched — inflation
    /// changes charges, not grid geometry — so repeated updates cost O(cells),
    /// not a transform rebuild.
    ///
    /// # Panics
    ///
    /// Panics if `factors` is shorter than the cell count or any factor
    /// is < 1.
    pub fn set_inflation(&mut self, factors: &[f64]) {
        assert!(factors.len() >= self.cells.len(), "factor per cell required");
        let mut movable_area = 0.0;
        for (c, (cell, &f)) in self.cells.iter_mut().zip(factors).enumerate() {
            assert!(f >= 1.0, "inflation factor {f} < 1 for cell {c}");
            let q = self.base_charge[c] * f;
            movable_area += q;
            let (mut w, mut h) = (cell.w_eff, cell.h_eff);
            if self.base_charge[c] > 0.0 {
                let s = f.sqrt();
                w = (cell.w_true * s).max(self.bin_w);
                h = (cell.h_true * s).max(self.bin_h);
            }
            *cell = CellStamp::new(cell.w_true, cell.h_true, w, h, q);
        }
        self.movable_area = movable_area;
        // Footprints changed: so may have the arena segment a chunk needs.
        self.seg_len = self.worst_case_segment();
    }

    /// Worst-case number of stamp records one cell chunk produces at the
    /// current footprints, over all chunks and all placements.
    fn worst_case_segment(&self) -> usize {
        let blocks = self.m.div_ceil(BLOCK_COLS);
        let need = |chunk: &[CellStamp]| -> usize {
            // A stamp of width w covers at most ceil(w/bin_w)+1 columns,
            // hence at most that many / BLOCK_COLS (+1 for straddling)
            // blocks — a position-independent bound.
            let blocks_of = |c: &CellStamp| {
                let cols = ceil_index(c.w_eff / self.bin_w) + 1;
                (cols.div_ceil(BLOCK_COLS) + 1).min(blocks)
            };
            chunk.iter().filter(|c| c.q != 0.0).map(blocks_of).sum()
        };
        self.cells.chunks(CELL_CHUNK).map(need).max().unwrap_or(0).max(1)
    }

    /// Fits `scratch`'s stamp arena to this model: grid shape, chunk count
    /// and the worst-case per-chunk block coverage of the current footprints.
    /// A no-op when it already fits. Called by every evaluation; calling it
    /// eagerly at flow start moves the one-time sizing allocation out of the
    /// iteration loop so the steady state is allocation-free from the very
    /// first evaluation.
    pub fn presize_scratch(&self, scratch: &mut DensityScratch) {
        let n_cells = self.cells.len();
        let chunks = chunk_count(n_cells, CELL_CHUNK);
        let blocks = self.m.div_ceil(BLOCK_COLS);
        scratch.recs.resize(chunks * self.seg_len, StampRec::default());
        scratch.counts.resize(chunks * run_stride(blocks), 0);
        scratch.offsets.resize(chunks * run_stride(blocks), 0);
        scratch.cols.resize(n_cells, [0; 2]);
    }

    /// Evaluates density overflow and per-cell gradients into a reused
    /// result, with every intermediate in caller-owned `scratch`: zero heap
    /// allocation once the buffers have grown to size, three 2-D transforms.
    ///
    /// # Panics
    ///
    /// Panics if the position slices are shorter than the cell count.
    pub fn evaluate_into(
        &self,
        xs: &[f64],
        ys: &[f64],
        scratch: &mut DensityScratch,
        out: &mut DensityResult,
    ) {
        (out.overflow, out.max_density) = self.solve_field(xs, ys, scratch);

        // Per-cell field (bilinear at cell centers); elementwise, every
        // entry written, so neither the chunking nor stale contents matter.
        let n_cells = self.cells.len();
        out.grad_x.resize(n_cells, 0.0);
        out.grad_y.resize(n_cells, 0.0);
        let sol = &scratch.sol;
        out.grad_x
            .par_chunks_mut(CELL_CHUNK)
            .zip(out.grad_y.par_chunks_mut(CELL_CHUNK))
            .enumerate()
            .for_each(|(ci, (gx, gy))| {
                let lo = ci * CELL_CHUNK;
                for (k, (gxc, gyc)) in gx.iter_mut().zip(gy.iter_mut()).enumerate() {
                    let c = lo + k;
                    let cell = &self.cells[c];
                    if cell.q == 0.0 {
                        *gxc = 0.0;
                        *gyc = 0.0;
                        continue;
                    }
                    let at = self.sample_point(cell, xs[c], ys[c]);
                    *gxc = cell.q * at.lerp(&sol.dpsi_dx);
                    *gyc = cell.q * at.lerp(&sol.dpsi_dy);
                }
            });
    }

    /// Electrostatic energy `½ Σ qᵢ ψ(cᵢ)` at the given positions: the
    /// stamp and solve of [`DensityModel::evaluate_into`] plus the ψ
    /// synthesis (a fourth 2-D transform) and one interpolation per cell.
    /// Gradient checks and benches read it; the placement loop does not.
    ///
    /// # Panics
    ///
    /// Panics if the position slices are shorter than the cell count.
    pub fn energy_into(&self, xs: &[f64], ys: &[f64], scratch: &mut DensityScratch) -> f64 {
        self.solve_field(xs, ys, scratch);
        self.spectral.potential_into(&mut scratch.poisson, &mut scratch.psi);
        // Fixed CELL_CHUNK chunks with a chunk-ordered fold of the partials
        // keep the energy width-invariant.
        let chunks = chunk_count(self.cells.len(), CELL_CHUNK);
        scratch.energy.resize(chunks, 0.0);
        let psi = &scratch.psi;
        scratch.energy.par_chunks_mut(1).enumerate().for_each(|(ci, e)| {
            let lo = ci * CELL_CHUNK;
            let hi = (lo + CELL_CHUNK).min(self.cells.len());
            let mut acc = 0.0;
            for c in lo..hi {
                let cell = &self.cells[c];
                if cell.q != 0.0 {
                    acc += 0.5 * cell.q * self.sample_point(cell, xs[c], ys[c]).lerp(psi);
                }
            }
            e[0] = acc;
        });
        scratch.energy.iter().sum()
    }

    /// Stamps the charge, scans ρ and solves for the field into
    /// `scratch.sol`. Returns `(overflow, max_density)`.
    fn solve_field(&self, xs: &[f64], ys: &[f64], scratch: &mut DensityScratch) -> (f64, f64) {
        let n_cells = self.cells.len();
        assert!(xs.len() >= n_cells && ys.len() >= n_cells);
        let bins = self.m * self.n;
        let bin_area = self.bin_w * self.bin_h;
        let chunks = chunk_count(n_cells, CELL_CHUNK);
        let blocks = self.m.div_ceil(BLOCK_COLS);
        self.presize_scratch(scratch);
        let seg_len = self.seg_len;
        let stride = run_stride(blocks);

        // --- Stamp pass 1: sort each cell's record into its chunk's flat
        // arena segment, one run per covered column block. Count, prefix,
        // fill — no growable buckets, so the steady state never allocates no
        // matter how cells migrate across blocks.
        scratch
            .counts
            .par_chunks_mut(stride)
            .zip(scratch.offsets.par_chunks_mut(stride))
            .zip(scratch.recs.par_chunks_mut(seg_len))
            .zip(scratch.cols.par_chunks_mut(CELL_CHUNK))
            .enumerate()
            .for_each(|(ci, (((counts, offsets), recs), cols))| {
                let (counts, offsets) = (&mut counts[..blocks], &mut offsets[..blocks]);
                let lo = ci * CELL_CHUNK;
                let cells = &self.cells[lo..lo + cols.len()];
                let (xs, ys) = (&xs[lo..lo + cols.len()], &ys[lo..lo + cols.len()]);
                let block_span = |[i0, i1]: [u16; 2]| {
                    (i0 as usize / BLOCK_COLS, (i1 as usize).div_ceil(BLOCK_COLS).min(blocks))
                };
                // The inflated footprint, centered on the true cell center.
                let extent = |pos: f64, true_size: f64, size: f64| {
                    let center = pos + 0.5 * true_size;
                    (center - 0.5 * size, center + 0.5 * size)
                };
                counts.fill(0);
                for ((cell, &x), col) in cells.iter().zip(xs).zip(cols.iter_mut()) {
                    if cell.q == 0.0 {
                        continue;
                    }
                    let (xl, xh) = extent(x, cell.w_true, cell.w_eff);
                    *col = bin_range(xl, xh, self.region.xl, self.bin_w, self.m);
                    let (b0, b1) = block_span(*col);
                    for k in &mut counts[b0..b1] {
                        *k += 1;
                    }
                }
                let mut run = 0u32;
                for (o, &k) in offsets.iter_mut().zip(counts.iter()) {
                    *o = run;
                    run += k;
                }
                counts.fill(0);
                for (((cell, &x), &y), &col) in cells.iter().zip(xs).zip(ys).zip(cols.iter()) {
                    if cell.q == 0.0 {
                        continue;
                    }
                    let (xl, xh) = extent(x, cell.w_true, cell.w_eff);
                    let (yl, yh) = extent(y, cell.h_true, cell.h_eff);
                    let [j0, j1] = bin_range(yl, yh, self.region.yl, self.bin_h, self.n);
                    let [i0, i1] = col;
                    let rec = StampRec { xl, yl, xh, yh, dens: cell.dens, i0, i1, j0, j1 };
                    let (b0, b1) = block_span(col);
                    for b in b0..b1 {
                        recs[(offsets[b] + counts[b]) as usize] = rec;
                        counts[b] += 1;
                    }
                }
            });

        // --- Stamp pass 2: accumulate each block's records into its own
        // disjoint ρ columns, walking the chunks' runs in ascending chunk
        // order so the per-bin addition order is independent of the pool
        // width.
        ensure_len(&mut scratch.rho, bins);
        let recs = &scratch.recs;
        let counts = &scratch.counts;
        let offsets = &scratch.offsets;
        scratch.rho.par_chunks_mut(BLOCK_COLS * self.n).enumerate().for_each(|(b, rho)| {
            for ci in 0..chunks {
                let lo = ci * seg_len + offsets[ci * stride + b] as usize;
                let hi = lo + counts[ci * stride + b] as usize;
                for rec in &recs[lo..hi] {
                    self.stamp_block(rho, b, rec);
                }
            }
        });

        // Overflow and peak density (per bin area); serial over the bin
        // grid in index order (deterministic). Division by the positive bin
        // area is monotone, so the peak is divided once, not per bin.
        let mut overflow = 0.0;
        let mut peak: f64 = 0.0;
        let mut total = 0.0;
        for &r in &scratch.rho {
            overflow += (r - self.target_density * bin_area).max(0.0);
            peak = peak.max(r);
            total += r;
        }
        overflow /= self.movable_area.max(1e-12);
        let mean = total / bins as f64;

        // Poisson solve on mean-removed density (per unit area); elementwise,
        // so the chunking cannot change the result.
        scratch.rho_hat.resize(bins, 0.0);
        let rho = &scratch.rho;
        scratch.rho_hat.par_chunks_mut(TASK_WORK).enumerate().for_each(|(bi, hat)| {
            let rho = &rho[bi * TASK_WORK..][..hat.len()];
            for (h, &r) in hat.iter_mut().zip(rho) {
                *h = (r - mean) / bin_area;
            }
        });
        self.spectral.solve_into(&scratch.rho_hat, &mut scratch.poisson, &mut scratch.sol);
        (overflow, peak / bin_area)
    }

    /// Adds `rec.dens · overlap(rec, bin)` to every bin of column block `b`
    /// the record covers; `rho` is the block's local `BLOCK_COLS · n` slice.
    /// Each covered bin receives one addition of `(dens · ox) · oy`.
    fn stamp_block(&self, rho: &mut [f64], b: usize, rec: &StampRec) {
        let col0 = b * BLOCK_COLS;
        let i0 = (rec.i0 as usize).max(col0);
        let i1 = (rec.i1 as usize).min(col0 + BLOCK_COLS);
        if i0 >= i1 {
            return;
        }
        let overlap = |lo: f64, hi: f64, origin: f64, size: f64, k: usize| {
            let b0 = origin + k as f64 * size;
            (hi.min(b0 + size) - lo.max(b0)).max(0.0)
        };
        let mut scaled_ox = [0.0; BLOCK_COLS];
        for (i, sx) in (i0..i1).zip(scaled_ox.iter_mut()) {
            *sx = rec.dens * overlap(rec.xl, rec.xh, self.region.xl, self.bin_w, i);
        }
        let (j0, j1) = (rec.j0 as usize, rec.j1 as usize);
        for t0 in (j0..j1).step_by(ROW_TILE) {
            let t1 = (t0 + ROW_TILE).min(j1);
            let mut oy = [0.0; ROW_TILE];
            for (j, o) in (t0..t1).zip(oy.iter_mut()) {
                *o = overlap(rec.yl, rec.yh, self.region.yl, self.bin_h, j);
            }
            for (i, &sx) in (i0..i1).zip(scaled_ox.iter()) {
                // `dens · 0` is 0 and `ox` is never negative: a zero product
                // is a column the record does not reach.
                if sx == 0.0 {
                    continue;
                }
                let row = &mut rho[(i - col0) * self.n..][t0..t1];
                for (r, &o) in row.iter_mut().zip(oy.iter()) {
                    if o > 0.0 {
                        *r += sx * o;
                    }
                }
            }
        }
    }

    /// Where a cell's center falls between the bin centers the field grids
    /// live at.
    fn sample_point(&self, cell: &CellStamp, x: f64, y: f64) -> SamplePoint {
        let cx = x + 0.5 * cell.w_true;
        let cy = y + 0.5 * cell.h_true;
        let fx = ((cx - self.region.xl) / self.bin_w - 0.5).clamp(0.0, (self.m - 1) as f64 - 1e-9);
        let fy = ((cy - self.region.yl) / self.bin_h - 0.5).clamp(0.0, (self.n - 1) as f64 - 1e-9);
        // Clamped to ≥ 0: truncation is the floor.
        let (i, j) = (fx as usize, fy as usize);
        SamplePoint { at: j * self.m + i, m: self.m, tx: fx - i as f64, ty: fy - j as f64 }
    }
}

/// `ceil(v) as usize` for `v ≥ 0` below 2⁵³ (NaN gives 0, as the cast of
/// its ceiling would): a truncating cast and a compare instead of a libm
/// call.
fn ceil_index(v: f64) -> usize {
    let t = v as usize;
    t + usize::from((t as f64) < v)
}

/// Bin range `[lo_bin, hi_bin)` an interval `[lo, hi]` covers on an axis of
/// `count` bins of `size` starting at `origin`, clipped to the axis:
/// `floor((lo − origin)/size)` and `ceil((hi − origin)/size)`, clamped to
/// `0..=count`. Clamping first makes the floor a truncating cast and the
/// ceiling a [`ceil_index`]; the integers are the same for every input, NaN
/// included (it lands on 0 either way).
fn bin_range(lo: f64, hi: f64, origin: f64, size: f64, count: usize) -> [u16; 2] {
    let top = count as f64;
    let b0 = ((lo - origin) / size).max(0.0).min(top) as usize;
    let b1 = ceil_index(((hi - origin) / size).max(0.0).min(top));
    // `count ≤ u16::MAX` (checked at construction), so the casts are exact.
    [b0 as u16, b1 as u16]
}

/// A bilinear interpolation site in a y-major (`[j·m + i]`) bin grid: the
/// lower-left bin center `at` and the fractional offsets toward its
/// neighbours.
struct SamplePoint {
    at: usize,
    m: usize,
    tx: f64,
    ty: f64,
}

impl SamplePoint {
    fn lerp(&self, g: &[f64]) -> f64 {
        let (tx, ty) = (self.tx, self.ty);
        let g00 = g[self.at];
        let g10 = g[self.at + 1];
        let g01 = g[self.at + self.m];
        let g11 = g[self.at + self.m + 1];
        (g00 * (1.0 - tx) + g10 * tx) * (1.0 - ty) + (g01 * (1.0 - tx) + g11 * tx) * ty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits;
    use dtp_netlist::generate::{generate, GeneratorConfig};

    fn setup() -> (dtp_netlist::Design, DensityModel) {
        let d = generate(&GeneratorConfig::named("dm", 300)).unwrap();
        let m = DensityModel::new(&d, 32, 32, 1.0);
        (d, m)
    }

    fn energy(model: &DensityModel, xs: &[f64], ys: &[f64]) -> f64 {
        model.energy_into(xs, ys, &mut DensityScratch::new())
    }

    #[test]
    fn overflow_high_when_clustered_low_when_spread() {
        let (d, model) = setup();
        let (xs, ys) = d.netlist.positions();
        let mut spread = DensityResult::default();
        model.evaluate_into(&xs, &ys, &mut DensityScratch::new(), &mut spread);
        // Pile every movable cell at the center.
        let c = d.region.center();
        let mut cx = xs.clone();
        let mut cy = ys.clone();
        for cell in d.netlist.movable_cells() {
            cx[cell.index()] = c.x;
            cy[cell.index()] = c.y;
        }
        let mut packed = DensityResult::default();
        model.evaluate_into(&cx, &cy, &mut DensityScratch::new(), &mut packed);
        assert!(
            packed.overflow > spread.overflow,
            "packed {} vs spread {}",
            packed.overflow,
            spread.overflow
        );
        assert!(packed.max_density > spread.max_density);
        assert!(energy(&model, &cx, &cy) > energy(&model, &xs, &ys));
    }

    #[test]
    fn gradient_pushes_away_from_cluster() {
        let (d, model) = setup();
        let (xs, ys) = d.netlist.positions();
        let c = d.region.center();
        let mut cx = xs.clone();
        let mut cy = ys.clone();
        let movable: Vec<_> = d.netlist.movable_cells().collect();
        // Cluster on the left half; one probe cell to the right of it.
        for &cell in &movable {
            cx[cell.index()] = d.region.xl + 0.25 * d.region.width();
            cy[cell.index()] = c.y;
        }
        let probe = movable[0];
        cx[probe.index()] = d.region.xl + 0.30 * d.region.width();
        let mut res = DensityResult::default();
        model.evaluate_into(&cx, &cy, &mut DensityScratch::new(), &mut res);
        // Descending the gradient must move the probe right (away from the
        // cluster): ∂E/∂x < 0 would move it left, so expect positive-to-right
        // push, i.e. grad_x > 0 means energy decreases by moving −x... the
        // probe sits on the right slope of the density hill, so ∂ψ/∂x < 0 and
        // the gradient is negative: a −gradient step moves it to +x.
        assert!(
            res.grad_x[probe.index()] < 0.0,
            "probe gradient should point down-density: {}",
            res.grad_x[probe.index()]
        );
    }

    #[test]
    fn gradient_matches_finite_difference() {
        // The analytic gradient samples the field at the cell center while a
        // finite difference re-integrates the field over the whole stamped
        // footprint, so per-cell agreement is approximate (ePlace makes the
        // same approximation). Check per-cell agreement loosely and global
        // directional agreement (cosine similarity) tightly.
        let (d, model) = setup();
        let (mut xs, mut ys) = d.netlist.positions();
        let mut res = DensityResult::default();
        model.evaluate_into(&xs, &ys, &mut DensityScratch::new(), &mut res);
        let h = 1e-4;
        let movable: Vec<_> = d.netlist.movable_cells().collect();
        let mut dot = 0.0;
        let mut na = 0.0;
        let mut nn = 0.0;
        for &cell in movable.iter().step_by(4) {
            let i = cell.index();
            for axis in 0..2 {
                let ana = if axis == 0 { res.grad_x[i] } else { res.grad_y[i] };
                let (v0, fp, fm);
                if axis == 0 {
                    v0 = xs[i];
                    xs[i] = v0 + h;
                    fp = energy(&model, &xs, &ys);
                    xs[i] = v0 - h;
                    fm = energy(&model, &xs, &ys);
                    xs[i] = v0;
                } else {
                    v0 = ys[i];
                    ys[i] = v0 + h;
                    fp = energy(&model, &xs, &ys);
                    ys[i] = v0 - h;
                    fm = energy(&model, &xs, &ys);
                    ys[i] = v0;
                }
                let num = (fp - fm) / (2.0 * h);
                dot += num * ana;
                na += ana * ana;
                nn += num * num;
            }
        }
        // Direction must agree strongly and the magnitudes must be on the
        // same scale; per-cell deviations come from the footprint-average vs
        // center-sample approximation that ePlace also makes.
        let cosine = dot / (na.sqrt() * nn.sqrt()).max(1e-12);
        assert!(cosine > 0.9, "gradient direction poor: cosine = {cosine}");
        let ratio = na.sqrt() / nn.sqrt().max(1e-12);
        assert!((0.4..2.5).contains(&ratio), "gradient magnitude off: ratio = {ratio}");
    }

    /// A scratch that has already served an evaluation gives the bits of a
    /// fresh one (the name dates from the allocating `evaluate` twin).
    #[test]
    fn evaluate_into_is_bitwise_identical_to_evaluate() {
        let (d, model) = setup();
        assert!(model.uses_fft());
        let (xs, ys) = d.netlist.positions();
        let mut fresh = DensityResult::default();
        model.evaluate_into(&xs, &ys, &mut DensityScratch::new(), &mut fresh);
        let mut scratch = DensityScratch::new();
        let mut out = DensityResult::default();
        // Run through the same scratch twice so reuse is exercised.
        model.evaluate_into(&xs, &ys, &mut scratch, &mut out);
        model.evaluate_into(&xs, &ys, &mut scratch, &mut out);
        assert_eq!(fresh.overflow, out.overflow);
        assert_eq!(fresh.max_density, out.max_density);
        assert_eq!(fresh.grad_x, out.grad_x);
        assert_eq!(fresh.grad_y, out.grad_y);
    }

    #[test]
    fn inflation_replaces_and_restores_exactly() {
        let (d, mut model) = setup();
        let (xs, ys) = d.netlist.positions();
        let mut base = DensityResult::default();
        model.evaluate_into(&xs, &ys, &mut DensityScratch::new(), &mut base);
        let base_energy = energy(&model, &xs, &ys);

        let n = d.netlist.num_cells();
        let mut factors = vec![1.0; n];
        for c in d.netlist.movable_cells().step_by(2) {
            factors[c.index()] = 2.0;
        }
        model.set_inflation(&factors);
        let mut inflated = DensityResult::default();
        model.evaluate_into(&xs, &ys, &mut DensityScratch::new(), &mut inflated);
        let inflated_energy = energy(&model, &xs, &ys);
        assert!(
            inflated.max_density > base.max_density,
            "inflated charge must raise peak density: {} vs {}",
            inflated.max_density,
            base.max_density
        );

        // Applying again must replace, not compound; all-ones restores the
        // original model bit-for-bit.
        model.set_inflation(&factors);
        let mut again = DensityResult::default();
        model.evaluate_into(&xs, &ys, &mut DensityScratch::new(), &mut again);
        assert_eq!(energy(&model, &xs, &ys), inflated_energy);
        assert_eq!(again.overflow, inflated.overflow);

        model.set_inflation(&vec![1.0; n]);
        let mut restored = DensityResult::default();
        model.evaluate_into(&xs, &ys, &mut DensityScratch::new(), &mut restored);
        assert_eq!(energy(&model, &xs, &ys), base_energy);
        assert_eq!(restored.overflow, base.overflow);
        assert_eq!(restored.grad_x, base.grad_x);
        assert_eq!(restored.grad_y, base.grad_y);
    }

    #[test]
    fn inflation_never_rebuilds_spectral_bases() {
        let (d, mut model) = setup();
        let token = model.basis_token();
        let n = d.netlist.num_cells();
        for round in 0..5 {
            let factors = vec![1.0 + 0.1 * round as f64; n];
            model.set_inflation(&factors);
            let (xs, ys) = d.netlist.positions();
            model.evaluate_into(&xs, &ys, &mut DensityScratch::new(), &mut DensityResult::default());
            assert_eq!(model.basis_token(), token, "inflation must not rebuild bases");
        }
        // A second model on the same grid shares the cached bases outright.
        let other = DensityModel::new(&d, 32, 32, 1.0);
        assert_eq!(other.basis_token(), token);
    }

    #[test]
    fn fixed_cells_carry_no_charge() {
        let (d, model) = setup();
        let (xs, ys) = d.netlist.positions();
        let mut res = DensityResult::default();
        model.evaluate_into(&xs, &ys, &mut DensityScratch::new(), &mut res);
        for c in d.netlist.cell_ids() {
            if d.netlist.cell(c).is_fixed() {
                assert_eq!(res.grad_x[c.index()], 0.0);
                assert_eq!(res.grad_y[c.index()], 0.0);
            }
        }
    }

    /// The parent's stamp, kept as the oracle: every record re-derives its
    /// bin ranges with the divisions the new stamp does once, and the
    /// overlap products are formed per bin. Same per-bin addition order
    /// (cells in index order within a column block).
    fn reference_rho(model: &DensityModel, xs: &[f64], ys: &[f64]) -> Vec<f64> {
        let (m, n) = (model.m, model.n);
        let (region, bin_w, bin_h) = (model.region, model.bin_w, model.bin_h);
        let col_range = |xl: f64, xh: f64| {
            let i0 = (((xl - region.xl) / bin_w).floor().max(0.0)) as usize;
            let i1 = ((((xh - region.xl) / bin_w).ceil()) as usize).min(m);
            (i0.min(m), i1)
        };
        let blocks = m.div_ceil(BLOCK_COLS);
        let mut rho = vec![0.0; m * n];
        for (b, rho) in rho.chunks_mut(BLOCK_COLS * n).enumerate() {
            let col0 = b * BLOCK_COLS;
            for (c, cell) in model.cells.iter().enumerate() {
                if cell.q == 0.0 {
                    continue;
                }
                let (w, h) = (cell.w_eff, cell.h_eff);
                let cx = xs[c] + 0.5 * cell.w_true;
                let cy = ys[c] + 0.5 * cell.h_true;
                let (xl, yl, xh, yh) = (cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h);
                let dens = cell.q / (w * h);
                let (i0, i1) = col_range(xl, xh);
                if !(i0 / BLOCK_COLS..i1.div_ceil(BLOCK_COLS).min(blocks)).contains(&b) {
                    continue;
                }
                let i0 = i0.max(col0);
                let i1 = i1.min((col0 + BLOCK_COLS).min(m));
                let j0 = (((yl - region.yl) / bin_h).floor().max(0.0)) as usize;
                let j1 = ((((yh - region.yl) / bin_h).ceil()) as usize).min(n);
                for i in i0..i1 {
                    let bx0 = region.xl + i as f64 * bin_w;
                    let ox = (xh.min(bx0 + bin_w) - xl.max(bx0)).max(0.0);
                    if ox == 0.0 {
                        continue;
                    }
                    for j in j0..j1 {
                        let by0 = region.yl + j as f64 * bin_h;
                        let oy = (yh.min(by0 + bin_h) - yl.max(by0)).max(0.0);
                        if oy > 0.0 {
                            rho[(i - col0) * n + j] += dens * ox * oy;
                        }
                    }
                }
            }
        }
        rho
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Exactness oracle: the one-range stamp equals the parent's stamp
        /// bin for bit on random placements — cells thrown well past every
        /// region edge included — on square and oblong grids, before and
        /// after `set_inflation`, at any pool width.
        #[test]
        fn stamp_equals_reference_stamp_bin_for_bit(
            seed in 0u64..1_000_000,
            cells in 150usize..700,
            shape in 0usize..4,
            inflate in 0usize..2,
        ) {
            use rand::{Rng, SeedableRng};
            let mut cfg = GeneratorConfig::named("stamp", cells);
            cfg.seed ^= seed;
            let d = generate(&cfg).unwrap();
            let (m, n) = [(16, 16), (32, 8), (12, 20), (64, 64)][shape];
            let mut model = DensityModel::new(&d, m, n, 1.0);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            if inflate == 1 {
                let factors: Vec<f64> =
                    (0..d.netlist.num_cells()).map(|_| rng.gen_range(1.0..40.0)).collect();
                model.set_inflation(&factors);
            }
            // A fifth of the span beyond each edge: some stamps straddle an
            // edge, some miss the region altogether.
            let r = d.region;
            let (mut xs, mut ys) = d.netlist.positions();
            for c in d.netlist.movable_cells() {
                xs[c.index()] = r.xl + rng.gen_range(-0.2..1.2) * r.width();
                ys[c.index()] = r.yl + rng.gen_range(-0.2..1.2) * r.height();
            }
            let want = reference_rho(&model, &xs, &ys);
            for threads in [1usize, 2, 4] {
                let mut scratch = DensityScratch::new();
                rayon::with_pool(&rayon::Pool::new(threads), || {
                    model.solve_field(&xs, &ys, &mut scratch);
                    // Second run through the same scratch: reuse is exact.
                    model.solve_field(&xs, &ys, &mut scratch);
                });
                proptest::prop_assert_eq!(bits(&scratch.rho), bits(&want), "{} threads", threads);
            }
        }
    }

    #[test]
    fn bin_range_is_floor_and_ceil_clamped_to_the_axis() {
        let (origin, size, count) = (-3.0, 0.75, 40usize);
        let mut probes = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e300, -1e300];
        // Bin edges, their neighbours one ulp away, and points in between.
        for k in -4..=44 {
            let edge = origin + k as f64 * size;
            probes.extend([edge, f64::from_bits(edge.to_bits() + 1), edge + 0.3 * size]);
            probes.push(f64::from_bits(edge.to_bits().wrapping_sub(1)));
        }
        for &lo in &probes {
            for &hi in &probes {
                let want0 = ((((lo - origin) / size).floor().max(0.0)) as usize).min(count);
                let want1 = ((((hi - origin) / size).ceil()) as usize).min(count);
                let got = bin_range(lo, hi, origin, size, count);
                assert_eq!(got, [want0 as u16, want1 as u16], "lo {lo} hi {hi}");
            }
        }
    }

    #[test]
    fn one_scratch_serves_models_on_different_grids() {
        // Same design, same cell count, different grids: the arena layout
        // (blocks per chunk, segment length) differs, and a scratch keyed on
        // the cell count alone used to panic in the chunk zip.
        let d = generate(&GeneratorConfig::named("dm2", 300)).unwrap();
        let (xs, ys) = d.netlist.positions();
        let models = [
            DensityModel::new(&d, 64, 64, 1.0),
            DensityModel::new(&d, 32, 32, 1.0),
            DensityModel::new(&d, 16, 48, 1.0),
        ];
        let mut shared = DensityScratch::new();
        let mut out = DensityResult::default();
        for round in 0..3 {
            for model in &models {
                let mut fresh = DensityResult::default();
                model.evaluate_into(&xs, &ys, &mut DensityScratch::new(), &mut fresh);
                model.evaluate_into(&xs, &ys, &mut shared, &mut out);
                assert_eq!(fresh.overflow.to_bits(), out.overflow.to_bits(), "round {round}");
                assert_eq!(fresh.max_density.to_bits(), out.max_density.to_bits());
                assert_eq!(bits(&fresh.grad_x), bits(&out.grad_x), "round {round}");
                assert_eq!(bits(&fresh.grad_y), bits(&out.grad_y), "round {round}");
                assert_eq!(
                    energy(model, &xs, &ys).to_bits(),
                    model.energy_into(&xs, &ys, &mut shared).to_bits(),
                    "round {round}"
                );
            }
        }
    }

    #[test]
    fn the_loop_runs_three_transforms_and_the_energy_a_fourth() {
        let (d, model) = setup();
        let (xs, ys) = d.netlist.positions();
        let mut scratch = DensityScratch::new();
        let mut out = DensityResult::default();
        model.evaluate_into(&xs, &ys, &mut scratch, &mut out);
        assert_eq!(scratch.transforms(), 3);
        model.evaluate_into(&xs, &ys, &mut scratch, &mut out);
        assert_eq!(scratch.transforms(), 6);
        model.energy_into(&xs, &ys, &mut scratch);
        assert_eq!(scratch.transforms(), 10);
    }

    #[test]
    #[should_panic(expected = "each axis needs 2..=65535 bins")]
    fn one_bin_axis_is_refused_at_construction() {
        let d = generate(&GeneratorConfig::named("dm1", 150)).unwrap();
        let _ = DensityModel::with_options(&d, 1, 16, 1.0, true);
    }
}
