//! Exact RUDY-style congestion estimation with incremental maintenance.
//!
//! RUDY (Rectangular Uniform wire DensitY) spreads each wire's length
//! uniformly over its bounding box. We apply it per *Steiner branch* rather
//! than per net bounding box — the forest from `dtp-rsmt` already knows
//! where the wire actually goes — which sharpens the estimate on
//! high-degree nets, and we add a pin-density term for local escape
//! routing. Horizontal span feeds the horizontal demand grid, vertical
//! span the vertical grid, mirroring two routing-layer directions.
//!
//! Every net's (and cell's) stamped bins are cached so an update removes
//! the old stamp and applies a new one in time proportional to the bins the
//! net covers: the congestion analogue of the incremental timing pipeline's
//! dirty-set discipline.

use crate::grid::{CongestionSummary, RouteGrid};
use crate::DEFAULT_PIN_WEIGHT;
use dtp_netlist::{Design, NetId, Netlist, Point, Rect};
use dtp_rsmt::{SteinerForest, TreeView};
use rayon::prelude::*;

/// One cached demand contribution: `(flat bin, horizontal, vertical)`.
type Stamp = (u32, f64, f64);

/// An incrementally maintained RUDY congestion map.
#[derive(Clone, Debug)]
pub struct RudyMap {
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
    /// Cell positions at the last pin-density stamp (for [`RudyMap::sync_cells`]).
    cell_pos: Vec<Point>,
    /// Connected-pin count per cell (pin-density mass).
    cell_pins: Vec<f64>,
    /// True cell footprints (pin demand is spread over the footprint).
    cell_w: Vec<f64>,
    cell_h: Vec<f64>,
    movable: Vec<bool>,
}

impl RudyMap {
    /// Builds an empty map over the design's core region with an `m × n`
    /// grid and a per-direction routing supply of `capacity` µm of wire per
    /// µm² (so each bin routes `capacity · bin_area` µm per direction).
    ///
    /// # Panics
    ///
    /// Panics if the grid is degenerate or `capacity <= 0`.
    pub fn new(design: &Design, m: usize, n: usize, capacity: f64) -> RudyMap {
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
        RudyMap {
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
    pub fn with_pin_weight(mut self, w: f64) -> RudyMap {
        self.pin_weight = w;
        self
    }

    /// The shared grid geometry.
    pub fn grid(&self) -> &RouteGrid {
        &self.grid
    }

    /// Per-bin, per-direction capacity (µm of routable wire).
    pub fn capacity(&self) -> f64 {
        self.cap
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
            self.grid.splat(&rect, hspan, vspan, out);
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
        self.grid.splat(&rect, mass, mass, out);
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

    /// [`RudyMap::update_net`] over a dirty-net list — the per-iteration
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

    /// Total demand over both grids (µm). With `pin_weight = 0` this equals
    /// the forest's total wirelength — the mass-conservation invariant of
    /// the rasterizer.
    pub fn total_demand(&self) -> f64 {
        self.h.iter().sum::<f64>() + self.v.iter().sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtp_netlist::generate::{generate, GeneratorConfig};
    use dtp_rsmt::build_forest;

    fn setup(cells: usize, name: &str) -> (dtp_netlist::Design, SteinerForest) {
        let d = generate(&GeneratorConfig::named(name, cells)).unwrap();
        let forest = build_forest(&d.netlist);
        (d, forest)
    }

    #[test]
    fn build_conserves_wirelength() {
        let (d, forest) = setup(200, "rudy");
        let mut map = RudyMap::new(&d, 16, 16, 0.5).with_pin_weight(0.0);
        map.build(&d.netlist, &forest);
        let wl = forest.total_wirelength();
        assert!(
            (map.total_demand() - wl).abs() < 1e-6 * wl.max(1.0),
            "demand {} vs wirelength {}",
            map.total_demand(),
            wl
        );
    }

    #[test]
    fn pin_density_adds_expected_mass() {
        let (d, forest) = setup(150, "rudy_pins");
        let mut map = RudyMap::new(&d, 16, 16, 0.5).with_pin_weight(2.0);
        map.build(&d.netlist, &forest);
        let wl = forest.total_wirelength();
        let pins: f64 = d
            .netlist
            .pin_ids()
            .filter(|&p| d.netlist.pin(p).net().is_some())
            .count() as f64;
        let expect = wl + 2.0 * pins;
        assert!(
            (map.total_demand() - expect).abs() < 1e-6 * expect,
            "demand {} vs expected {}",
            map.total_demand(),
            expect
        );
    }

    #[test]
    fn incremental_update_matches_full_rebuild() {
        let (mut d, mut forest) = setup(250, "rudy_inc");
        let mut map = RudyMap::new(&d, 24, 24, 0.5);
        map.build(&d.netlist, &forest);

        // Move a batch of cells, update their nets' trees, then update the
        // map incrementally; a freshly built map must agree bin-for-bin.
        let moved: Vec<dtp_netlist::CellId> = d.netlist.movable_cells().step_by(7).collect();
        for &c in &moved {
            let p = d.netlist.cell(c).pos();
            d.netlist
                .set_cell_pos(c, Point::new(p.x + 3.0, p.y - 2.0));
        }
        let mut dirty: Vec<NetId> = Vec::new();
        for &c in &moved {
            for &p in d.netlist.cell(c).pins() {
                if let Some(n) = d.netlist.pin(p).net() {
                    if !dirty.contains(&n) {
                        dirty.push(n);
                    }
                }
            }
        }
        forest.update_nets(&d.netlist, &dirty);
        map.update_nets(&forest, &dirty);
        map.sync_cells(&d.netlist);

        let mut fresh = RudyMap::new(&d, 24, 24, 0.5);
        fresh.build(&d.netlist, &forest);
        for b in 0..map.grid().num_bins() {
            assert!(
                (map.h_demand()[b] - fresh.h_demand()[b]).abs() < 1e-8,
                "h bin {b}: {} vs {}",
                map.h_demand()[b],
                fresh.h_demand()[b]
            );
            assert!(
                (map.v_demand()[b] - fresh.v_demand()[b]).abs() < 1e-8,
                "v bin {b}: {} vs {}",
                map.v_demand()[b],
                fresh.v_demand()[b]
            );
        }
    }

    #[test]
    fn packed_placement_is_more_congested() {
        let (d, forest) = setup(300, "rudy_pack");
        let mut map = RudyMap::new(&d, 16, 16, 0.5);
        map.build(&d.netlist, &forest);
        let spread = map.summary();

        let mut packed = d.clone();
        let c = packed.region.center();
        for cell in packed.netlist.movable_cells().collect::<Vec<_>>() {
            packed.netlist.set_cell_pos(cell, c);
        }
        let pforest = build_forest(&packed.netlist);
        let mut pmap = RudyMap::new(&packed, 16, 16, 0.5);
        pmap.build(&packed.netlist, &pforest);
        let ps = pmap.summary();
        assert!(
            ps.max_overflow > spread.max_overflow,
            "packed {} vs spread {}",
            ps.max_overflow,
            spread.max_overflow
        );
        // Everything concentrates into few bins: the hot spot is hotter.
        assert!(pmap.overflow_ratio_at(c) >= ps.max_overflow * 0.5);
    }

    #[test]
    fn net_overflow_zero_when_capacity_huge() {
        let (d, forest) = setup(120, "rudy_cap");
        let mut map = RudyMap::new(&d, 8, 8, 1e9);
        map.build(&d.netlist, &forest);
        for n in d.netlist.net_ids() {
            assert_eq!(map.net_overflow(n), 0.0);
        }
        assert_eq!(map.summary().overflowed_frac, 0.0);
    }
}
