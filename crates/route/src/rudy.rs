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
//! The map keeps one [`StampRec`] — a cache line: the clamped rectangle, its
//! two amounts and the bin range it reaches — per forest node slot (a branch
//! is its child node) and one per cell. An update walks the dirty lists in
//! order; per net it takes the stored records' demand back by *recomputing*
//! their per-bin amounts, then derives, stamps and stores the records of the
//! current geometry. Nothing is allocated, and a bin receives its additions
//! in list order — the order that fixes every bit of the map.
//!
//! Two cost regimes (`BENCH_route.json`): a sparse move (1 % of the cells)
//! re-stamps only the records of its dirty nets and costs 1/30 of a build;
//! inside the global-placement loop every net is dirty in every iteration,
//! and an update costs 1.6 builds (one pass to take the old demand back, one
//! to derive and stamp the new).

use crate::grid::{CongestionSummary, RouteGrid, StampRec};
use crate::DEFAULT_PIN_WEIGHT;
use dtp_netlist::{CellId, Design, NetId, Netlist, Point};
use dtp_rsmt::{ForestArena, SteinerForest};

/// The per-design constants a stamp record is derived from.
#[derive(Clone, Debug)]
struct Shapes {
    grid: RouteGrid,
    pin_weight: f64,
    /// Halo added around degenerate branch bboxes (half a bin each side),
    /// so a purely horizontal wire still occupies a routable strip.
    halo_x: f64,
    halo_y: f64,
    /// Connected-pin count per cell (pin-density mass).
    cell_pins: Vec<f64>,
    /// True cell footprints (pin demand is spread over the footprint).
    cell_w: Vec<f64>,
    cell_h: Vec<f64>,
    movable: Vec<bool>,
}

impl Shapes {
    /// The record of the branch from node `i` of the tree at slots `lo..`
    /// to its parent: the halo-expanded branch box carrying the branch's
    /// horizontal and vertical span. Nothing for the root and for
    /// zero-length branches.
    #[inline]
    fn edge(&self, a: &ForestArena<'_>, lo: usize, i: usize) -> StampRec {
        let Some((ax, ay, bx, by)) = crate::branch_ends(a, lo, i) else {
            return StampRec::NONE;
        };
        let hspan = (ax - bx).abs();
        let vspan = (ay - by).abs();
        if hspan == 0.0 && vspan == 0.0 {
            return StampRec::NONE;
        }
        let rect = (
            ax.min(bx) - self.halo_x,
            ay.min(by) - self.halo_y,
            ax.max(bx) + self.halo_x,
            ay.max(by) + self.halo_y,
        );
        self.grid.record(rect, hspan, vspan)
    }

    /// The record of cell `c`'s pin density at `pos`: `pin_weight` µm of
    /// demand per connected pin, split evenly between the two directions
    /// and spread over the halo-expanded footprint.
    #[inline]
    fn cell(&self, c: usize, pos: Point) -> StampRec {
        let mass = 0.5 * self.pin_weight * self.cell_pins[c];
        if mass == 0.0 {
            return StampRec::NONE;
        }
        let rect = (
            pos.x - self.halo_x,
            pos.y - self.halo_y,
            pos.x + self.cell_w[c] + self.halo_x,
            pos.y + self.cell_h[c] + self.halo_y,
        );
        self.grid.record(rect, mass, mass)
    }
}

/// An incrementally maintained RUDY congestion map.
#[derive(Clone, Debug)]
pub struct RudyMap {
    shapes: Shapes,
    cap: f64,
    /// Horizontal / vertical demand per bin (µm of wire).
    h: Vec<f64>,
    v: Vec<f64>,
    /// The forest's node-slot range per net, copied when the arena is sized.
    node_off: Vec<u32>,
    /// The record each forest node slot last stamped (slot = child node of
    /// the branch), and how many slots of each net's range hold one.
    edge_rec: Vec<StampRec>,
    stamped_nodes: Vec<u32>,
    /// The record and position of each cell's last pin-density stamp.
    cell_rec: Vec<StampRec>,
    cell_pos: Vec<Point>,
    /// Bins written since construction.
    stamps: u64,
}

impl RudyMap {
    /// Builds an empty map over the design's core region with an `m × n`
    /// grid and a per-direction routing supply of `capacity` µm of wire per
    /// µm² (so each bin routes `capacity · bin_area` µm per direction).
    ///
    /// # Panics
    ///
    /// Panics if either grid dimension is outside [`GRID_AXIS_BINS`] or
    /// `capacity` is not positive.
    ///
    /// [`GRID_AXIS_BINS`]: crate::GRID_AXIS_BINS
    pub fn new(design: &Design, m: usize, n: usize, capacity: f64) -> RudyMap {
        assert!(capacity > 0.0, "capacity must be positive");
        let grid = RouteGrid::new(design.region, m, n);
        let nl = &design.netlist;
        RudyMap {
            cap: grid.bin_capacity(capacity),
            h: vec![0.0; grid.num_bins()],
            v: vec![0.0; grid.num_bins()],
            node_off: Vec::new(),
            edge_rec: Vec::new(),
            stamped_nodes: Vec::new(),
            cell_rec: vec![StampRec::NONE; nl.num_cells()],
            cell_pos: vec![Point::new(f64::NAN, f64::NAN); nl.num_cells()],
            stamps: 0,
            shapes: Shapes {
                pin_weight: DEFAULT_PIN_WEIGHT,
                halo_x: 0.5 * grid.bin_w(),
                halo_y: 0.5 * grid.bin_h(),
                cell_pins: crate::connected_pins(nl),
                cell_w: nl.cell_ids().map(|c| nl.class_of(c).width()).collect(),
                cell_h: nl.cell_ids().map(|c| nl.class_of(c).height()).collect(),
                movable: nl.cell_ids().map(|c| !nl.cell(c).is_fixed()).collect(),
                grid,
            },
        }
    }

    /// Overrides the pin-density weight (µm of demand per connected pin);
    /// 0 disables the pin term.
    pub fn with_pin_weight(mut self, w: f64) -> RudyMap {
        self.shapes.pin_weight = w;
        self
    }

    /// The shared grid geometry.
    pub fn grid(&self) -> &RouteGrid {
        &self.shapes.grid
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

    /// Bins written since construction, taking demand back and stamping it
    /// alike — the map's unit of work.
    pub fn stamps_written(&self) -> u64 {
        self.stamps
    }

    /// Bytes of one stamp record — all the map keeps per forest branch and
    /// per cell.
    pub const RECORD_BYTES: usize = std::mem::size_of::<StampRec>();

    /// Bytes of stamp records the map holds: one per forest node slot (a
    /// net's range is sized for its largest possible tree, so there are
    /// more slots than branches) and one per cell.
    pub fn record_bytes(&self) -> usize {
        (self.edge_rec.capacity() + self.cell_rec.capacity()) * Self::RECORD_BYTES
    }

    /// Full (re)build: zeroes the grids and stamps every tree of the forest
    /// and every cell's pin density — an update in which every net is
    /// listed and nothing was stamped before.
    pub fn build(&mut self, nl: &Netlist, forest: &SteinerForest) {
        let a = forest.arena();
        self.h.fill(0.0);
        self.v.fill(0.0);
        self.lay_out(&a);
        self.cell_rec.fill(StampRec::NONE);
        for ni in 0..forest.len() {
            self.restamp_net(&a, ni);
        }
        self.restamp_cells(nl, true);
    }

    /// Incrementally re-stamps the listed nets from their current trees, in
    /// list order: each net's stored records are taken back and its new
    /// geometry stamped. Cost is proportional to the bins the nets cover;
    /// nets without a tree (clock nets) are skipped.
    pub fn update_nets(&mut self, forest: &SteinerForest, nets: &[NetId]) {
        let a = forest.arena();
        if self.node_off.is_empty() {
            // Never built: nothing is stamped yet.
            self.lay_out(&a);
        }
        assert!(
            self.edge_rec.len() == a.x.len() && self.stamped_nodes.len() == forest.len(),
            "forest is laid out differently from the one this map was stamped from"
        );
        for net in nets {
            self.restamp_net(&a, net.index());
        }
    }

    /// Re-stamps the pin density of every movable cell whose position
    /// changed since its last stamp, in cell order. A position-compare scan
    /// over cells; only moved cells pay rasterization cost.
    pub fn sync_cells(&mut self, nl: &Netlist) {
        self.restamp_cells(nl, false);
    }

    /// Sizes the record arena for `a`'s layout with nothing stamped.
    fn lay_out(&mut self, a: &ForestArena<'_>) {
        self.node_off.clear();
        self.node_off.extend_from_slice(a.node_off);
        self.edge_rec.clear();
        self.edge_rec.resize(a.x.len(), StampRec::NONE);
        self.stamped_nodes.clear();
        self.stamped_nodes.resize(a.n_nodes.len(), 0);
    }

    /// Takes the stored records of net `ni` back, then derives, stamps and
    /// stores the records of its current tree. A net listed twice is
    /// re-stamped twice (the second time taking back what the first
    /// stamped), which is what the order of additions per bin requires.
    #[inline]
    fn restamp_net(&mut self, a: &ForestArena<'_>, ni: usize) {
        let lo = self.node_off[ni] as usize;
        let live = a.n_nodes[ni] as usize;
        let recs = &mut self.edge_rec[lo..self.node_off[ni + 1] as usize];
        let g = &self.shapes.grid;
        let mut written = 0;
        for r in &recs[..self.stamped_nodes[ni] as usize] {
            written += g.stamp::<false>(r, &mut self.h, &mut self.v);
        }
        for (i, r) in recs[..live].iter_mut().enumerate() {
            *r = self.shapes.edge(a, lo, i);
            written += g.stamp::<true>(r, &mut self.h, &mut self.v);
        }
        self.stamped_nodes[ni] = live as u32;
        self.stamps += written;
    }

    /// Re-stamps every cell (`all`), or every movable cell that is not where
    /// it was last stamped.
    fn restamp_cells(&mut self, nl: &Netlist, all: bool) {
        assert_eq!(
            nl.num_cells(),
            self.cell_rec.len(),
            "netlist differs from the map's"
        );
        let g = &self.shapes.grid;
        let mut written = 0;
        for (c, (r, last)) in self.cell_rec.iter_mut().zip(&mut self.cell_pos).enumerate() {
            let pos = nl.cell(CellId::new(c)).pos();
            if all || (self.shapes.movable[c] && pos != *last) {
                written += g.stamp::<false>(r, &mut self.h, &mut self.v);
                *r = self.shapes.cell(c, pos);
                written += g.stamp::<true>(r, &mut self.h, &mut self.v);
                *last = pos;
            }
        }
        self.stamps += written;
    }

    /// Summary metrics over the current demand grids.
    pub fn summary(&self) -> CongestionSummary {
        CongestionSummary::from_demand(&self.h, &self.v, self.cap, self.cap)
    }

    /// Worst-direction demand/capacity ratio of the bin containing `p`
    /// (1.0 = at capacity).
    pub fn overflow_ratio_at(&self, p: Point) -> f64 {
        let (i, j) = self.shapes.grid.bin_of(p);
        let b = self.shapes.grid.index(i, j);
        (self.h[b] / self.cap).max(self.v[b] / self.cap)
    }

    /// Worst overflow (`ratio − 1`, clamped at 0) over the bins this net's
    /// branches are stamped into — the criticality used for
    /// congestion-aware net weighting. 0 for clock nets and uncongested
    /// nets.
    pub fn net_overflow(&self, net: NetId) -> f64 {
        let ni = net.index();
        let Some(&lo) = self.node_off.get(ni) else {
            return 0.0;
        };
        let mut worst = 0.0f64;
        for r in &self.edge_rec[lo as usize..][..self.stamped_nodes[ni] as usize] {
            self.shapes.grid.for_each_bin(r, |b| {
                let ratio = (self.h[b] / self.cap).max(self.v[b] / self.cap);
                worst = worst.max(ratio - 1.0);
            });
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
            d.netlist.set_cell_pos(c, Point::new(p.x + 3.0, p.y - 2.0));
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
