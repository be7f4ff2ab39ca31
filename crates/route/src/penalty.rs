//! The differentiable congestion penalty.
//!
//! The exact RUDY rasterization ([`crate::RudyMap`]) is piecewise constant
//! in cell positions at the bin level and therefore useless for gradients.
//! For optimization we use a *smoothed* demand model — the same
//! exact-for-reporting / smoothed-for-gradients split the paper applies to
//! STA:
//!
//! - each Steiner branch stamps its horizontal span `|Δx|` (resp. vertical
//!   span `|Δy|`) **bilinearly at the branch midpoint** into the horizontal
//!   (resp. vertical) demand grid, and each cell stamps its pin density at
//!   its center;
//! - per-bin overflow `max(0, demand − capacity)` is smoothed with a
//!   softplus of width `γ` (the congestion analogue of `dtp-sta`'s
//!   `smooth_neg`), giving the penalty
//!   `P = Σ_b γ·softplus((h_b − cap)/γ) + γ·softplus((v_b − cap)/γ)`;
//! - the backward pass chains `σ((d − cap)/γ)` through the bilinear stamp
//!   weights and the branch spans to per-node gradients, scatters
//!   Steiner-node gradients to the pins owning their coordinates (the
//!   `dtp-rsmt` Fig.-4 bookkeeping), and accumulates per-cell gradients.
//!
//! The forward pass walks the forest arena once and writes a *sample tape*
//! — per tree node (a branch is its child node) and per cell: base bin,
//! fractional offsets, clamp flags, spans and span signs — that the
//! backward pass reads back in the same order, so a bilinear sample is
//! derived once; a Steiner node's gradient reaches its cell through the
//! forest's per-net `pin_cell` table, two flat loads.
//!
//! The penalty is exactly differentiable almost everywhere (kinks only at
//! bin-center crossings and zero-length spans); finite-difference tests in
//! `tests/properties.rs` verify the analytic gradients.

use crate::grid::RouteGrid;
use crate::DEFAULT_PIN_WEIGHT;
use dtp_netlist::{CellId, Design, Netlist, Point};
use dtp_rsmt::{ForestArena, SteinerForest};

/// Default softplus smoothing width, expressed as a routing supply
/// (wire-µm per µm² of bin area). Deliberately *independent of the
/// configured capacity*: as capacity grows the smoothed overflow then
/// genuinely underflows to zero instead of plateauing at
/// `γ·softplus(−cap/γ)`. At the default supply of 0.5 this equals a
/// quarter of the bin capacity.
pub(crate) const GAMMA_SUPPLY: f64 = 0.125;

/// [`Sample::flags`]: the slot holds a sample (a branch of nonzero length,
/// a cell with pin mass).
const LIVE: u32 = 1;
/// The sample's x (resp. y) coordinate is off its clamp: the bilinear
/// weights move with it.
const FREE_X: u32 = 1 << 1;
const FREE_Y: u32 = 1 << 2;
/// The branch's child lies right of / left of / above / below its parent.
const X_GT: u32 = 1 << 3;
const X_LT: u32 = 1 << 4;
const Y_GT: u32 = 1 << 5;
const Y_LT: u32 = 1 << 6;

/// `bit` when `on`, else no bit.
#[inline]
fn flag(on: bool, bit: u32) -> u32 {
    if on {
        bit
    } else {
        0
    }
}

/// One bilinear demand sample of the tape: where it lands (base bin and
/// fractional offsets toward the next column / row), what it carries in
/// each direction, and [`LIVE`] … [`Y_LT`].
#[derive(Clone, Copy, Debug)]
struct Sample {
    base: u32,
    flags: u32,
    tx: f64,
    ty: f64,
    mh: f64,
    mv: f64,
}

impl Sample {
    const NONE: Sample = Sample {
        base: 0,
        flags: 0,
        tx: 0.0,
        ty: 0.0,
        mh: 0.0,
        mv: 0.0,
    };

    /// The four bilinear weights, in the stamp order
    /// `(i, j), (i+1, j), (i, j+1), (i+1, j+1)`.
    #[inline]
    fn weights(&self) -> [f64; 4] {
        [
            (1.0 - self.tx) * (1.0 - self.ty),
            self.tx * (1.0 - self.ty),
            (1.0 - self.tx) * self.ty,
            self.tx * self.ty,
        ]
    }

    /// `+1`, `−1` or `0` from a greater-than / less-than flag pair.
    #[inline]
    fn sign(&self, gt: u32, lt: u32) -> f64 {
        if self.flags & gt != 0 {
            1.0
        } else if self.flags & lt != 0 {
            -1.0
        } else {
            0.0
        }
    }
}

/// What the σ fields say at one sample: the smoothed-field values and their
/// spatial derivatives, per direction.
struct Gathered {
    s_h: f64,
    s_v: f64,
    dh_dx: f64,
    dv_dx: f64,
    dh_dy: f64,
    dv_dy: f64,
}

/// The grid-side constants of the sampler, shared by the pool tasks.
#[derive(Clone, Copy, Debug)]
struct Sampler {
    grid: RouteGrid,
    inv_w: f64,
    inv_h: f64,
}

impl Sampler {
    /// The sample of `(mh, mv)` at `(x, y)`: base bin, fractional offsets,
    /// and whether each axis is off its clamp (derivative nonzero).
    #[inline]
    fn sample(&self, x: f64, y: f64, mh: f64, mv: f64, flags: u32) -> Sample {
        let (m, n) = self.grid.shape();
        let region = self.grid.region();
        let fx_raw = (x - region.xl) / self.grid.bin_w() - 0.5;
        let fy_raw = (y - region.yl) / self.grid.bin_h() - 0.5;
        let fx = fx_raw.clamp(0.0, (m - 1) as f64 - 1e-9);
        let fy = fy_raw.clamp(0.0, (n - 1) as f64 - 1e-9);
        // Clamped to ≥ 0: truncation is the floor (NaN lands on 0 both ways).
        let (i, j) = (fx as usize, fy as usize);
        let free_x = fx_raw > 0.0 && fx_raw < (m - 1) as f64;
        let free_y = fy_raw > 0.0 && fy_raw < (n - 1) as f64;
        Sample {
            base: (i * n + j) as u32,
            flags: flags | LIVE | flag(free_x, FREE_X) | flag(free_y, FREE_Y),
            tx: fx - i as f64,
            ty: fy - j as f64,
            mh,
            mv,
        }
    }

    /// The sample of the branch from node `i` of the tree at slots `lo..`
    /// to its parent: its spans, stamped at its midpoint.
    #[inline]
    fn edge(&self, a: &ForestArena<'_>, lo: usize, i: usize) -> Sample {
        let Some((ax, ay, bx, by)) = crate::branch_ends(a, lo, i) else {
            return Sample::NONE;
        };
        let mh = (ax - bx).abs();
        let mv = (ay - by).abs();
        if mh == 0.0 && mv == 0.0 {
            return Sample::NONE;
        }
        let flags =
            flag(ax > bx, X_GT) | flag(ax < bx, X_LT) | flag(ay > by, Y_GT) | flag(ay < by, Y_LT);
        self.sample(0.5 * (ax + bx), 0.5 * (ay + by), mh, mv, flags)
    }

    /// Gathers the smoothed-field value and its spatial derivatives at a
    /// sample, weighted by the two σ fields.
    #[inline]
    fn gather(&self, s: &Sample, sh: &[f64], sv: &[f64]) -> Gathered {
        let n = self.grid.shape().1;
        let base = s.base as usize;
        let (s00h, s10h, s01h, s11h) = (sh[base], sh[base + n], sh[base + 1], sh[base + n + 1]);
        let (s00v, s10v, s01v, s11v) = (sv[base], sv[base + n], sv[base + 1], sv[base + n + 1]);
        let [w00, w10, w01, w11] = s.weights();
        // ∂w/∂x and ∂w/∂y contractions (zero on the clamp).
        let dx = if s.flags & FREE_X != 0 {
            self.inv_w
        } else {
            0.0
        };
        let dy = if s.flags & FREE_Y != 0 {
            self.inv_h
        } else {
            0.0
        };
        Gathered {
            // Field values smoothed at the sample point.
            s_h: s00h * w00 + s10h * w10 + s01h * w01 + s11h * w11,
            s_v: s00v * w00 + s10v * w10 + s01v * w01 + s11v * w11,
            dh_dx: dx * ((s10h - s00h) * (1.0 - s.ty) + (s11h - s01h) * s.ty),
            dv_dx: dx * ((s10v - s00v) * (1.0 - s.ty) + (s11v - s01v) * s.ty),
            dh_dy: dy * ((s01h - s00h) * (1.0 - s.tx) + (s11h - s10h) * s.tx),
            dv_dy: dy * ((s01v - s00v) * (1.0 - s.tx) + (s11v - s10v) * s.tx),
        }
    }
}

/// Differentiable smoothed-overflow congestion penalty with persistent
/// scratch buffers (allocation-free in steady state).
#[derive(Clone, Debug)]
pub struct CongestionPenalty {
    sampler: Sampler,
    cap: f64,
    gamma: f64,
    pin_weight: f64,
    /// Smooth demand fields.
    h: Vec<f64>,
    v: Vec<f64>,
    /// σ((demand − cap)/γ) fields of the backward pass.
    sh: Vec<f64>,
    sv: Vec<f64>,
    /// The sample tape of the last forward pass: one entry per live tree
    /// node in net order (the branch from that node to its parent), then
    /// one per cell.
    tape: Vec<Sample>,
    /// Per-tree node-gradient scratch.
    node_gx: Vec<f64>,
    node_gy: Vec<f64>,
    /// Per-cell data for the pin-density term.
    cell_pins: Vec<f64>,
    cell_cx: Vec<f64>,
    cell_cy: Vec<f64>,
}

impl CongestionPenalty {
    /// Builds the penalty over the design's core region with an `m × n`
    /// grid and the same capacity convention as [`crate::RudyMap`]
    /// (`capacity` µm of routable wire per µm² per direction).
    ///
    /// # Panics
    ///
    /// Panics if either grid dimension is outside [`GRID_AXIS_BINS`] or
    /// `capacity` is not positive.
    ///
    /// [`GRID_AXIS_BINS`]: crate::GRID_AXIS_BINS
    pub fn new(design: &Design, m: usize, n: usize, capacity: f64) -> CongestionPenalty {
        assert!(capacity > 0.0, "capacity must be positive");
        let grid = RouteGrid::new(design.region, m, n);
        let nl = &design.netlist;
        CongestionPenalty {
            sampler: Sampler {
                grid,
                inv_w: 1.0 / grid.bin_w(),
                inv_h: 1.0 / grid.bin_h(),
            },
            cap: grid.bin_capacity(capacity),
            gamma: grid.bin_capacity(GAMMA_SUPPLY),
            pin_weight: DEFAULT_PIN_WEIGHT,
            h: vec![0.0; grid.num_bins()],
            v: vec![0.0; grid.num_bins()],
            sh: vec![0.0; grid.num_bins()],
            sv: vec![0.0; grid.num_bins()],
            tape: Vec::new(),
            node_gx: Vec::new(),
            node_gy: Vec::new(),
            cell_pins: crate::connected_pins(nl),
            cell_cx: nl
                .cell_ids()
                .map(|c| 0.5 * nl.class_of(c).width())
                .collect(),
            cell_cy: nl
                .cell_ids()
                .map(|c| 0.5 * nl.class_of(c).height())
                .collect(),
        }
    }

    /// Overrides the pin-density weight (µm per connected pin; 0 disables).
    pub fn with_pin_weight(mut self, w: f64) -> CongestionPenalty {
        self.pin_weight = w;
        self
    }

    /// Overrides the softplus smoothing width (demand units).
    ///
    /// # Panics
    ///
    /// Panics if `gamma <= 0`.
    pub fn with_gamma(mut self, gamma: f64) -> CongestionPenalty {
        assert!(gamma > 0.0);
        self.gamma = gamma;
        self
    }

    /// Rebuilds the smooth demand fields, and the sample tape they were
    /// stamped from: branches in net order, then cell centers.
    fn forward(&mut self, nl: &Netlist, a: &ForestArena<'_>) {
        let slots = a.x.len() + nl.num_cells();
        if self.tape.capacity() < slots {
            // Sized by the arena's capacity, not by the live nodes, so a
            // topology rebuild never grows anything afterwards.
            self.tape.reserve(slots);
            let widest = a
                .node_off
                .windows(2)
                .map(|w| (w[1] - w[0]) as usize)
                .max()
                .unwrap_or(0);
            self.node_gx.reserve(widest);
            self.node_gy.reserve(widest);
        }
        let CongestionPenalty {
            sampler,
            h,
            v,
            tape,
            ..
        } = self;
        h.fill(0.0);
        v.fill(0.0);
        let n = sampler.grid.shape().1;
        let mut stamp = |s: Sample| {
            if s.flags & LIVE != 0 {
                let base = s.base as usize;
                for (off, w) in [0, n, 1, n + 1].into_iter().zip(s.weights()) {
                    h[base + off] += s.mh * w;
                    v[base + off] += s.mv * w;
                }
            }
            s
        };
        tape.clear();
        for (&lo, &live) in a.node_off.iter().zip(a.n_nodes) {
            tape.extend((0..live as usize).map(|i| stamp(sampler.edge(a, lo as usize, i))));
        }
        tape.extend((0..nl.num_cells()).map(|c| {
            let mass = 0.5 * self.pin_weight * self.cell_pins[c];
            if self.pin_weight > 0.0 && mass != 0.0 {
                let pos = nl.cell(CellId::new(c)).pos();
                stamp(sampler.sample(
                    pos.x + self.cell_cx[c],
                    pos.y + self.cell_cy[c],
                    mass,
                    mass,
                    0,
                ))
            } else {
                Sample::NONE
            }
        }));
    }

    /// Evaluates the smoothed-overflow penalty at the current netlist/forest
    /// geometry (forward pass only).
    pub fn value(&mut self, nl: &Netlist, forest: &SteinerForest) -> f64 {
        self.forward(nl, &forest.arena());
        let (cap, gamma) = (self.cap, self.gamma);
        self.h
            .iter()
            .chain(self.v.iter())
            .map(|&d| softplus_sigma::<true>(d - cap, gamma).0)
            .sum()
    }

    /// Evaluates the penalty and writes per-cell location gradients into
    /// `gx`/`gy` (resized and zeroed to the cell count). Returns the
    /// penalty value.
    pub fn value_and_gradient(
        &mut self,
        nl: &Netlist,
        forest: &SteinerForest,
        gx: &mut Vec<f64>,
        gy: &mut Vec<f64>,
    ) -> f64 {
        self.evaluate::<true>(nl, forest, gx, gy)
    }

    /// [`CongestionPenalty::value_and_gradient`] without the value: the
    /// same gradients, and no logarithm per bin for a number the caller
    /// would drop.
    pub fn gradient(
        &mut self,
        nl: &Netlist,
        forest: &SteinerForest,
        gx: &mut Vec<f64>,
        gy: &mut Vec<f64>,
    ) {
        self.evaluate::<false>(nl, forest, gx, gy);
    }

    fn evaluate<const VALUE: bool>(
        &mut self,
        nl: &Netlist,
        forest: &SteinerForest,
        gx: &mut Vec<f64>,
        gy: &mut Vec<f64>,
    ) -> f64 {
        let a = forest.arena();
        self.forward(nl, &a);
        let (cap, gamma) = (self.cap, self.gamma);
        let mut p = 0.0;
        for b in 0..self.h.len() {
            let (ph, sh) = softplus_sigma::<VALUE>(self.h[b] - cap, gamma);
            let (pv, sv) = softplus_sigma::<VALUE>(self.v[b] - cap, gamma);
            p += ph + pv;
            self.sh[b] = sh;
            self.sv[b] = sv;
        }

        let n_cells = nl.num_cells();
        gx.clear();
        gx.resize(n_cells, 0.0);
        gy.clear();
        gy.resize(n_cells, 0.0);
        let CongestionPenalty {
            sampler,
            sh,
            sv,
            tape,
            node_gx,
            node_gy,
            ..
        } = self;
        let (branches, cells) = tape.split_at(tape.len() - n_cells);

        // Branch demand: chain through midpoints and spans to per-node
        // gradients, then scatter those to the cells owning the nodes'
        // coordinates.
        let mut at = 0;
        for (ni, (&lo, &live)) in a.node_off.iter().zip(a.n_nodes).enumerate() {
            let (lo, live) = (lo as usize, live as usize);
            node_gx.clear();
            node_gx.resize(live, 0.0);
            node_gy.clear();
            node_gy.resize(live, 0.0);
            for (c, s) in branches[at..at + live].iter().enumerate() {
                if s.flags & LIVE == 0 {
                    continue;
                }
                let par = a.parent[lo + c] as usize;
                let g = sampler.gather(s, sh, sv);
                let (sgn_x, sgn_y) = (s.sign(X_GT, X_LT), s.sign(Y_GT, Y_LT));
                // Midpoint motion moves both masses; span change feeds the
                // field value at the midpoint.
                let common_x = 0.5 * (s.mh * g.dh_dx + s.mv * g.dv_dx);
                let common_y = 0.5 * (s.mh * g.dh_dy + s.mv * g.dv_dy);
                node_gx[c] += sgn_x * g.s_h + common_x;
                node_gx[par] += -sgn_x * g.s_h + common_x;
                node_gy[c] += sgn_y * g.s_v + common_y;
                node_gy[par] += -sgn_y * g.s_v + common_y;
            }
            at += live;
            let owner = &a.pin_cell[a.pin_off[ni] as usize..];
            for (&g, &src) in node_gx.iter().zip(&a.x_src[lo..lo + live]) {
                if g != 0.0 {
                    gx[owner[src as usize] as usize] += g;
                }
            }
            for (&g, &src) in node_gy.iter().zip(&a.y_src[lo..lo + live]) {
                if g != 0.0 {
                    gy[owner[src as usize] as usize] += g;
                }
            }
        }

        // Pin-density demand: direct cell-center gradient.
        for (c, s) in cells.iter().enumerate() {
            if s.flags & LIVE != 0 {
                let g = sampler.gather(s, sh, sv);
                gx[c] += s.mh * (g.dh_dx + g.dv_dx);
                gy[c] += s.mh * (g.dh_dy + g.dv_dy);
            }
        }
        p
    }

    /// Per-bin capacity (µm per direction).
    pub fn capacity(&self) -> f64 {
        self.cap
    }

    /// Worst-direction smooth demand/capacity ratio at a point (for
    /// diagnostics; reporting should use [`crate::RudyMap`]).
    pub fn smooth_ratio_at(&self, p: Point) -> f64 {
        let (i, j) = self.sampler.grid.bin_of(p);
        let b = self.sampler.grid.index(i, j);
        (self.h[b] / self.cap).max(self.v[b] / self.cap)
    }
}

/// `(γ·softplus(t/γ), σ(t/γ))` — the smoothed `max(0, t)`, overflow-safe
/// (the congestion analogue of `dtp-sta`'s stable softplus in
/// `smooth_neg`), and its derivative with respect to `t`, from one `exp`.
/// Without `VALUE` the softplus is not evaluated (0 instead).
#[inline]
fn softplus_sigma<const VALUE: bool>(t: f64, gamma: f64) -> (f64, f64) {
    let z = t / gamma;
    if z > 30.0 {
        return (if VALUE { gamma * z } else { 0.0 }, 1.0);
    }
    if z < -30.0 && !VALUE {
        return (0.0, 0.0);
    }
    let e = z.exp();
    (
        if VALUE { gamma * e.ln_1p() } else { 0.0 },
        if z < -30.0 { 0.0 } else { e / (1.0 + e) },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtp_netlist::generate::{generate, GeneratorConfig};
    use dtp_rsmt::build_forest;

    #[test]
    fn huge_capacity_means_negligible_penalty() {
        let d = generate(&GeneratorConfig::named("pen0", 150)).unwrap();
        let forest = build_forest(&d.netlist);
        let mut pen = CongestionPenalty::new(&d, 8, 8, 1e9);
        let p = pen.value(&d.netlist, &forest);
        // softplus of a hugely negative argument underflows to ~0.
        assert!((0.0..1e-3).contains(&p), "penalty {p}");
    }

    #[test]
    fn penalty_strictly_decreases_with_capacity() {
        let d = generate(&GeneratorConfig::named("pen1", 250)).unwrap();
        let forest = build_forest(&d.netlist);
        let mut prev = f64::INFINITY;
        for capacity in [0.05, 0.2, 0.8, 3.2] {
            let mut pen = CongestionPenalty::new(&d, 16, 16, capacity);
            let p = pen.value(&d.netlist, &forest);
            assert!(
                p < prev,
                "penalty must fall as capacity rises: {p} at {capacity} vs {prev}"
            );
            prev = p;
        }
    }

    #[test]
    fn gradient_sums_preserved_per_cell_count() {
        let d = generate(&GeneratorConfig::named("pen2", 200)).unwrap();
        let forest = build_forest(&d.netlist);
        let mut pen = CongestionPenalty::new(&d, 16, 16, 0.2);
        let mut gx = Vec::new();
        let mut gy = Vec::new();
        let p = pen.value_and_gradient(&d.netlist, &forest, &mut gx, &mut gy);
        assert!(p.is_finite() && p >= 0.0);
        assert_eq!(gx.len(), d.netlist.num_cells());
        assert_eq!(gy.len(), d.netlist.num_cells());
        assert!(gx.iter().chain(gy.iter()).all(|g| g.is_finite()));
        // Somewhere the gradient must be nonzero at this tight capacity.
        assert!(gx.iter().chain(gy.iter()).any(|&g| g != 0.0));
    }
}
