//! The route layer as it was before the arena rewrite — per-net cached stamp
//! lists and a two-pass penalty that re-derives every bilinear sample —
//! kept as it was (less the accessors no oracle reads) as what the arena
//! kernels are compared against, bit for bit (see `oracle.rs`).

use crate::grid::{CongestionSummary, RouteGrid};
use crate::DEFAULT_PIN_WEIGHT;
use dtp_netlist::{Design, NetId, Netlist, Point, Rect};
use dtp_rsmt::{SteinerForest, TreeView};
use rayon::prelude::*;

/// One cached demand contribution: `(flat bin, horizontal, vertical)`.
type Stamp = (u32, f64, f64);

/// An incrementally maintained RUDY congestion map.
#[derive(Clone, Debug)]
pub struct RefRudyMap {
    grid: RouteGrid,
    cap: f64,
    pin_weight: f64,
    /// Halo added around degenerate branch bboxes (half a bin each side),
    /// so a purely horizontal wire still occupies a routable strip.
    halo_x: f64,
    halo_y: f64,
    /// Horizontal / vertical demand per bin (µm of wire).
    h: Vec<f64>,
    v: Vec<f64>,
    /// Cached stamps, indexed by net / cell.
    net_stamp: Vec<Vec<Stamp>>,
    cell_stamp: Vec<Vec<Stamp>>,
    /// Cell positions at the last pin-density stamp (for [`RefRudyMap::sync_cells`]).
    cell_pos: Vec<Point>,
    /// Connected-pin count per cell (pin-density mass).
    cell_pins: Vec<f64>,
    /// True cell footprints (pin demand is spread over the footprint).
    cell_w: Vec<f64>,
    cell_h: Vec<f64>,
    movable: Vec<bool>,
}

impl RefRudyMap {
    /// Builds an empty map over the design's core region with an `m × n`
    /// grid and a per-direction routing supply of `capacity` µm of wire per
    /// µm² (so each bin routes `capacity · bin_area` µm per direction).
    ///
    /// # Panics
    ///
    /// Panics if the grid is degenerate or `capacity <= 0`.
    pub fn new(design: &Design, m: usize, n: usize, capacity: f64) -> RefRudyMap {
        assert!(capacity > 0.0, "capacity must be positive");
        let grid = RouteGrid::new(design.region, m, n);
        let nl = &design.netlist;
        let mut cell_pins = vec![0.0f64; nl.num_cells()];
        for p in nl.pin_ids() {
            if nl.pin(p).net().is_some() {
                cell_pins[nl.pin(p).cell().index()] += 1.0;
            }
        }
        let cell_w: Vec<f64> = nl.cell_ids().map(|c| nl.class_of(c).width()).collect();
        let cell_h: Vec<f64> = nl.cell_ids().map(|c| nl.class_of(c).height()).collect();
        let movable: Vec<bool> = nl.cell_ids().map(|c| !nl.cell(c).is_fixed()).collect();
        RefRudyMap {
            cap: grid.bin_capacity(capacity),
            pin_weight: DEFAULT_PIN_WEIGHT,
            halo_x: 0.5 * grid.bin_w(),
            halo_y: 0.5 * grid.bin_h(),
            h: vec![0.0; grid.num_bins()],
            v: vec![0.0; grid.num_bins()],
            net_stamp: vec![Vec::new(); nl.num_nets()],
            cell_stamp: vec![Vec::new(); nl.num_cells()],
            cell_pos: vec![Point::new(f64::NAN, f64::NAN); nl.num_cells()],
            cell_pins,
            cell_w,
            cell_h,
            movable,
            grid,
        }
    }

    /// Overrides the pin-density weight (µm of demand per connected pin);
    /// 0 disables the pin term.
    pub fn with_pin_weight(mut self, w: f64) -> RefRudyMap {
        self.pin_weight = w;
        self
    }

    /// Horizontal demand per bin.
    pub fn h_demand(&self) -> &[f64] {
        &self.h
    }

    /// Vertical demand per bin.
    pub fn v_demand(&self) -> &[f64] {
        &self.v
    }

    /// Rasterizes one tree into stamps (no state change).
    fn rasterize_tree(&self, tree: TreeView<'_>, out: &mut Vec<Stamp>) {
        for (c, p) in tree.edges() {
            let a = tree.node_pos(c);
            let b = tree.node_pos(p);
            let hspan = (a.x - b.x).abs();
            let vspan = (a.y - b.y).abs();
            if hspan == 0.0 && vspan == 0.0 {
                continue;
            }
            let rect = Rect::new(
                a.x.min(b.x) - self.halo_x,
                a.y.min(b.y) - self.halo_y,
                a.x.max(b.x) + self.halo_x,
                a.y.max(b.y) + self.halo_y,
            );
            splat(&self.grid, &rect, hspan, vspan, out);
        }
    }

    /// Rasterizes one cell's pin density into stamps: `pin_weight` µm of
    /// demand per connected pin, split evenly between the two directions
    /// and spread over the halo-expanded footprint.
    fn rasterize_cell(&self, c: usize, pos: Point, out: &mut Vec<Stamp>) {
        let mass = 0.5 * self.pin_weight * self.cell_pins[c];
        if mass == 0.0 {
            return;
        }
        let rect = Rect::new(
            pos.x - self.halo_x,
            pos.y - self.halo_y,
            pos.x + self.cell_w[c] + self.halo_x,
            pos.y + self.cell_h[c] + self.halo_y,
        );
        splat(&self.grid, &rect, mass, mass, out);
    }

    #[inline]
    fn apply(h: &mut [f64], v: &mut [f64], stamps: &[Stamp], sign: f64) {
        for &(b, sh, sv) in stamps {
            h[b as usize] += sign * sh;
            v[b as usize] += sign * sv;
        }
    }

    /// Full (re)build: rasterizes every tree of the forest and every cell's
    /// pin density in parallel, replacing all cached stamps.
    pub fn build(&mut self, nl: &Netlist, forest: &SteinerForest) {
        self.h.fill(0.0);
        self.v.fill(0.0);
        let nets: Vec<NetId> = nl.net_ids().collect();
        let built: Vec<(usize, Vec<Stamp>)> = nets
            .par_iter()
            .filter_map(|&net| {
                let tree = forest.tree(net)?;
                let mut out = Vec::new();
                self.rasterize_tree(tree, &mut out);
                Some((net.index(), out))
            })
            .collect();
        for s in &mut self.net_stamp {
            s.clear();
        }
        for (ni, stamps) in built {
            Self::apply(&mut self.h, &mut self.v, &stamps, 1.0);
            self.net_stamp[ni] = stamps;
        }
        for c in nl.cell_ids() {
            let i = c.index();
            let pos = nl.cell(c).pos();
            let mut out = std::mem::take(&mut self.cell_stamp[i]);
            out.clear();
            self.rasterize_cell(i, pos, &mut out);
            Self::apply(&mut self.h, &mut self.v, &out, 1.0);
            self.cell_stamp[i] = out;
            self.cell_pos[i] = pos;
        }
    }

    /// Incrementally re-stamps one net from its current tree: removes the
    /// cached contribution and rasterizes the new geometry. Cost is
    /// proportional to the bins the net covers. No-op for clock nets.
    pub fn update_net(&mut self, forest: &SteinerForest, net: NetId) {
        let Some(tree) = forest.tree(net) else { return };
        let mut stamps = std::mem::take(&mut self.net_stamp[net.index()]);
        Self::apply(&mut self.h, &mut self.v, &stamps, -1.0);
        stamps.clear();
        self.rasterize_tree(tree, &mut stamps);
        Self::apply(&mut self.h, &mut self.v, &stamps, 1.0);
        self.net_stamp[net.index()] = stamps;
    }

    /// [`RefRudyMap::update_net`] over a dirty-net list — the per-iteration
    /// entry point of the placement flow, fed by the same geometry-dirty
    /// net set as the incremental timing pipeline.
    pub fn update_nets(&mut self, forest: &SteinerForest, nets: &[NetId]) {
        for &n in nets {
            self.update_net(forest, n);
        }
    }

    /// Re-stamps the pin density of every cell whose position changed since
    /// its last stamp. A pure position-compare scan over cells; only moved
    /// cells pay rasterization cost.
    pub fn sync_cells(&mut self, nl: &Netlist) {
        for c in nl.cell_ids() {
            let i = c.index();
            if !self.movable[i] {
                continue;
            }
            let pos = nl.cell(c).pos();
            if pos == self.cell_pos[i] {
                continue;
            }
            let mut stamps = std::mem::take(&mut self.cell_stamp[i]);
            Self::apply(&mut self.h, &mut self.v, &stamps, -1.0);
            stamps.clear();
            self.rasterize_cell(i, pos, &mut stamps);
            Self::apply(&mut self.h, &mut self.v, &stamps, 1.0);
            self.cell_stamp[i] = stamps;
            self.cell_pos[i] = pos;
        }
    }

    /// Summary metrics over the current demand grids.
    pub fn summary(&self) -> CongestionSummary {
        CongestionSummary::from_demand(&self.h, &self.v, self.cap, self.cap)
    }

    /// Worst-direction demand/capacity ratio of the bin containing `p`
    /// (1.0 = at capacity).
    pub fn overflow_ratio_at(&self, p: Point) -> f64 {
        let (i, j) = self.grid.bin_of(p);
        let b = self.grid.index(i, j);
        (self.h[b] / self.cap).max(self.v[b] / self.cap)
    }

    /// Worst overflow (`ratio − 1`, clamped at 0) over the bins this net's
    /// branches are stamped into — the criticality used for
    /// congestion-aware net weighting. 0 for clock nets and uncongested
    /// nets.
    pub fn net_overflow(&self, net: NetId) -> f64 {
        let mut worst = 0.0f64;
        for &(b, _, _) in &self.net_stamp[net.index()] {
            let r = (self.h[b as usize] / self.cap).max(self.v[b as usize] / self.cap);
            worst = worst.max(r - 1.0);
        }
        worst.max(0.0)
    }

}

/// Distributes `h_amt`/`v_amt` over the bins overlapping `rect`
/// (clamped to the region) proportionally to overlap area, appending
/// one `(flat_bin, h, v)` entry per touched bin. Mass-conserving: the
/// appended amounts sum to exactly the inputs (up to round-off) because
/// the bins tile the clamped rectangle.
fn splat(
    g: &RouteGrid,
    rect: &Rect,
    h_amt: f64,
    v_amt: f64,
    out: &mut Vec<(u32, f64, f64)>,
) {
    let (rxl, ryl) = (rect.xl.max(g.region().xl), rect.yl.max(g.region().yl));
    let (rxh, ryh) = (rect.xh.min(g.region().xh), rect.yh.min(g.region().yh));
    // The clamp inverts the rect when the input lies entirely outside
    // the region; such geometry contributes nothing.
    if rxh <= rxl || ryh <= ryl || (h_amt == 0.0 && v_amt == 0.0) {
        return;
    }
    let r = Rect::new(rxl, ryl, rxh, ryh);
    let area = (r.xh - r.xl) * (r.yh - r.yl);
    let i0 = (((r.xl - g.region().xl) / g.bin_w()).floor().max(0.0)) as usize;
    let j0 = (((r.yl - g.region().yl) / g.bin_h()).floor().max(0.0)) as usize;
    let i1 = ((((r.xh - g.region().xl) / g.bin_w()).ceil()) as usize).min(g.shape().0);
    let j1 = ((((r.yh - g.region().yl) / g.bin_h()).ceil()) as usize).min(g.shape().1);
    let inv = 1.0 / area;
    for i in i0..i1 {
        let bx0 = g.region().xl + i as f64 * g.bin_w();
        let ox = (r.xh.min(bx0 + g.bin_w()) - r.xl.max(bx0)).max(0.0);
        if ox == 0.0 {
            continue;
        }
        for j in j0..j1 {
            let by0 = g.region().yl + j as f64 * g.bin_h();
            let oy = (r.yh.min(by0 + g.bin_h()) - r.yl.max(by0)).max(0.0);
            if oy > 0.0 {
                let f = ox * oy * inv;
                out.push((g.index(i, j) as u32, h_amt * f, v_amt * f));
            }
        }
    }
}


/// A bilinear sample: base bin `(i, j)`, fractional offsets, and whether
/// each axis is off its clamp (derivative nonzero).
struct Bilin {
    i: usize,
    j: usize,
    tx: f64,
    ty: f64,
    free_x: bool,
    free_y: bool,
}

/// Differentiable smoothed-overflow congestion penalty with persistent
/// scratch buffers (allocation-free in steady state).
#[derive(Clone, Debug)]
pub struct RefPenalty {
    grid: RouteGrid,
    cap: f64,
    gamma: f64,
    pin_weight: f64,
    /// Smooth demand fields.
    h: Vec<f64>,
    v: Vec<f64>,
    /// σ((demand − cap)/γ) fields of the backward pass.
    sh: Vec<f64>,
    sv: Vec<f64>,
    /// Per-tree node-gradient scratch.
    node_gx: Vec<f64>,
    node_gy: Vec<f64>,
    /// Per-cell data for the pin-density term.
    cell_pins: Vec<f64>,
    cell_cx: Vec<f64>,
    cell_cy: Vec<f64>,
}

impl RefPenalty {
    /// Builds the penalty over the design's core region with an `m × n`
    /// grid and the same capacity convention as [`crate::RudyMap`]
    /// (`capacity` µm of routable wire per µm² per direction).
    ///
    /// # Panics
    ///
    /// Panics if `m < 2`, `n < 2` or `capacity <= 0`.
    pub fn new(design: &Design, m: usize, n: usize, capacity: f64) -> RefPenalty {
        assert!(m >= 2 && n >= 2, "bilinear stamping needs at least 2x2 bins");
        assert!(capacity > 0.0, "capacity must be positive");
        let grid = RouteGrid::new(design.region, m, n);
        let nl = &design.netlist;
        let mut cell_pins = vec![0.0f64; nl.num_cells()];
        for p in nl.pin_ids() {
            if nl.pin(p).net().is_some() {
                cell_pins[nl.pin(p).cell().index()] += 1.0;
            }
        }
        let cell_cx: Vec<f64> = nl
            .cell_ids()
            .map(|c| 0.5 * nl.class_of(c).width())
            .collect();
        let cell_cy: Vec<f64> = nl
            .cell_ids()
            .map(|c| 0.5 * nl.class_of(c).height())
            .collect();
        let cap = grid.bin_capacity(capacity);
        RefPenalty {
            cap,
            gamma: grid.bin_capacity(crate::penalty::GAMMA_SUPPLY),
            pin_weight: DEFAULT_PIN_WEIGHT,
            h: vec![0.0; grid.num_bins()],
            v: vec![0.0; grid.num_bins()],
            sh: vec![0.0; grid.num_bins()],
            sv: vec![0.0; grid.num_bins()],
            node_gx: Vec::new(),
            node_gy: Vec::new(),
            cell_pins,
            cell_cx,
            cell_cy,
            grid,
        }
    }

    /// Overrides the pin-density weight (µm per connected pin; 0 disables).
    pub fn with_pin_weight(mut self, w: f64) -> RefPenalty {
        self.pin_weight = w;
        self
    }

    #[inline]
    fn bilin(&self, x: f64, y: f64) -> Bilin {
        let (m, n) = self.grid.shape();
        let region = self.grid.region();
        let fx_raw = (x - region.xl) / self.grid.bin_w() - 0.5;
        let fy_raw = (y - region.yl) / self.grid.bin_h() - 0.5;
        let fx = fx_raw.clamp(0.0, (m - 1) as f64 - 1e-9);
        let fy = fy_raw.clamp(0.0, (n - 1) as f64 - 1e-9);
        let i = fx.floor() as usize;
        let j = fy.floor() as usize;
        Bilin {
            i,
            j,
            tx: fx - i as f64,
            ty: fy - j as f64,
            free_x: fx_raw > 0.0 && fx_raw < (m - 1) as f64,
            free_y: fy_raw > 0.0 && fy_raw < (n - 1) as f64,
        }
    }

    /// Adds `(mh, mv)` bilinearly at `(x, y)` into the demand fields.
    #[inline]
    fn stamp(&mut self, x: f64, y: f64, mh: f64, mv: f64) {
        let b = self.bilin(x, y);
        let n = self.grid.shape().1;
        let (w00, w10, w01, w11) = (
            (1.0 - b.tx) * (1.0 - b.ty),
            b.tx * (1.0 - b.ty),
            (1.0 - b.tx) * b.ty,
            b.tx * b.ty,
        );
        let base = b.i * n + b.j;
        for (off, w) in [(0, w00), (n, w10), (1, w01), (n + 1, w11)] {
            self.h[base + off] += mh * w;
            self.v[base + off] += mv * w;
        }
    }

    /// Rebuilds the smooth demand fields from the forest and cell centers.
    fn forward(&mut self, nl: &Netlist, forest: &SteinerForest) {
        self.h.fill(0.0);
        self.v.fill(0.0);
        for net in nl.net_ids() {
            let Some(tree) = forest.tree(net) else { continue };
            for (c, p) in tree.edges() {
                let a = tree.node_pos(c);
                let bpos = tree.node_pos(p);
                let mh = (a.x - bpos.x).abs();
                let mv = (a.y - bpos.y).abs();
                if mh == 0.0 && mv == 0.0 {
                    continue;
                }
                self.stamp(
                    0.5 * (a.x + bpos.x),
                    0.5 * (a.y + bpos.y),
                    mh,
                    mv,
                );
            }
        }
        if self.pin_weight > 0.0 {
            for c in nl.cell_ids() {
                let i = c.index();
                let mass = 0.5 * self.pin_weight * self.cell_pins[i];
                if mass == 0.0 {
                    continue;
                }
                let pos = nl.cell(c).pos();
                self.stamp(pos.x + self.cell_cx[i], pos.y + self.cell_cy[i], mass, mass);
            }
        }
    }

    /// Evaluates the smoothed-overflow penalty at the current netlist/forest
    /// geometry (forward pass only).
    pub fn value(&mut self, nl: &Netlist, forest: &SteinerForest) -> f64 {
        self.forward(nl, forest);
        let (cap, gamma) = (self.cap, self.gamma);
        self.h
            .iter()
            .chain(self.v.iter())
            .map(|&d| sp(d - cap, gamma))
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
        self.forward(nl, forest);
        let (cap, gamma) = (self.cap, self.gamma);
        let mut p = 0.0;
        for b in 0..self.h.len() {
            p += sp(self.h[b] - cap, gamma) + sp(self.v[b] - cap, gamma);
            self.sh[b] = sigma(self.h[b] - cap, gamma);
            self.sv[b] = sigma(self.v[b] - cap, gamma);
        }

        let n_cells = nl.num_cells();
        gx.clear();
        gx.resize(n_cells, 0.0);
        gy.clear();
        gy.resize(n_cells, 0.0);
        let inv_w = 1.0 / self.grid.bin_w();
        let inv_h = 1.0 / self.grid.bin_h();
        let n = self.grid.shape().1;

        // Gathers the smoothed-field value and its spatial derivatives at a
        // sample point, weighted by the two σ fields.
        let gather = |this: &RefPenalty, x: f64, y: f64| {
            let b = this.bilin(x, y);
            let base = b.i * n + b.j;
            let (s00h, s10h, s01h, s11h) = (
                this.sh[base],
                this.sh[base + n],
                this.sh[base + 1],
                this.sh[base + n + 1],
            );
            let (s00v, s10v, s01v, s11v) = (
                this.sv[base],
                this.sv[base + n],
                this.sv[base + 1],
                this.sv[base + n + 1],
            );
            let (w00, w10, w01, w11) = (
                (1.0 - b.tx) * (1.0 - b.ty),
                b.tx * (1.0 - b.ty),
                (1.0 - b.tx) * b.ty,
                b.tx * b.ty,
            );
            // Field values smoothed at the sample point.
            let s_h = s00h * w00 + s10h * w10 + s01h * w01 + s11h * w11;
            let s_v = s00v * w00 + s10v * w10 + s01v * w01 + s11v * w11;
            // ∂w/∂x and ∂w/∂y contractions (zero on the clamp).
            let dx = if b.free_x { inv_w } else { 0.0 };
            let dy = if b.free_y { inv_h } else { 0.0 };
            let dh_dx = dx
                * ((s10h - s00h) * (1.0 - b.ty) + (s11h - s01h) * b.ty);
            let dv_dx = dx
                * ((s10v - s00v) * (1.0 - b.ty) + (s11v - s01v) * b.ty);
            let dh_dy = dy
                * ((s01h - s00h) * (1.0 - b.tx) + (s11h - s10h) * b.tx);
            let dv_dy = dy
                * ((s01v - s00v) * (1.0 - b.tx) + (s11v - s10v) * b.tx);
            (s_h, s_v, dh_dx, dv_dx, dh_dy, dv_dy)
        };

        // Branch demand: chain through midpoints and spans, then scatter
        // Steiner-node gradients to their coordinate-source pins.
        for net in nl.net_ids() {
            let Some(tree) = forest.tree(net) else { continue };
            let nn = tree.num_nodes();
            self.node_gx.clear();
            self.node_gx.resize(nn, 0.0);
            self.node_gy.clear();
            self.node_gy.resize(nn, 0.0);
            for (c, par) in tree.edges() {
                let a = tree.node_pos(c);
                let bpos = tree.node_pos(par);
                let mh = (a.x - bpos.x).abs();
                let mv = (a.y - bpos.y).abs();
                if mh == 0.0 && mv == 0.0 {
                    continue;
                }
                let (s_h, s_v, dh_dx, dv_dx, dh_dy, dv_dy) = gather(
                    self,
                    0.5 * (a.x + bpos.x),
                    0.5 * (a.y + bpos.y),
                );
                let sgn_x = match a.x.partial_cmp(&bpos.x) {
                    Some(std::cmp::Ordering::Greater) => 1.0,
                    Some(std::cmp::Ordering::Less) => -1.0,
                    _ => 0.0,
                };
                let sgn_y = match a.y.partial_cmp(&bpos.y) {
                    Some(std::cmp::Ordering::Greater) => 1.0,
                    Some(std::cmp::Ordering::Less) => -1.0,
                    _ => 0.0,
                };
                // Midpoint motion moves both masses; span change feeds the
                // field value at the midpoint.
                let common_x = 0.5 * (mh * dh_dx + mv * dv_dx);
                let common_y = 0.5 * (mh * dh_dy + mv * dv_dy);
                self.node_gx[c] += sgn_x * s_h + common_x;
                self.node_gx[par] += -sgn_x * s_h + common_x;
                self.node_gy[c] += sgn_y * s_v + common_y;
                self.node_gy[par] += -sgn_y * s_v + common_y;
            }
            let xs = tree.x_sources();
            let ys = tree.y_sources();
            let pins = nl.net(net).pins();
            for i in 0..nn {
                if self.node_gx[i] != 0.0 {
                    let cell = nl.pin(pins[xs[i] as usize]).cell();
                    gx[cell.index()] += self.node_gx[i];
                }
                if self.node_gy[i] != 0.0 {
                    let cell = nl.pin(pins[ys[i] as usize]).cell();
                    gy[cell.index()] += self.node_gy[i];
                }
            }
        }

        // Pin-density demand: direct cell-center gradient.
        if self.pin_weight > 0.0 {
            for c in nl.cell_ids() {
                let i = c.index();
                let mass = 0.5 * self.pin_weight * self.cell_pins[i];
                if mass == 0.0 {
                    continue;
                }
                let pos = nl.cell(c).pos();
                let (_, _, dh_dx, dv_dx, dh_dy, dv_dy) = gather(
                    self,
                    pos.x + self.cell_cx[i],
                    pos.y + self.cell_cy[i],
                );
                gx[i] += mass * (dh_dx + dv_dx);
                gy[i] += mass * (dh_dy + dv_dy);
            }
        }
        p
    }

}

/// `γ·softplus(t/γ)` — smoothed `max(0, t)`, overflow-safe (the congestion
/// analogue of `dtp-sta`'s stable softplus in `smooth_neg`).
#[inline]
fn sp(t: f64, gamma: f64) -> f64 {
    let z = t / gamma;
    gamma * if z > 30.0 { z } else { z.exp().ln_1p() }
}

/// `σ(t/γ)` — derivative of [`sp`] with respect to `t`.
#[inline]
fn sigma(t: f64, gamma: f64) -> f64 {
    let z = t / gamma;
    if z > 30.0 {
        1.0
    } else if z < -30.0 {
        0.0
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}
