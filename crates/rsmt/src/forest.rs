//! Batched Steiner-tree construction and maintenance for a whole netlist.
//!
//! The forest is one flat arena: six node arrays over a single node index
//! space in which net `n` owns the fixed range `node_off[n]..node_off[n + 1]`
//! (its [`node_capacity`]), plus a per-tree-pin gather table
//! (`cell`, `dx`, `dy`) so a sweep computes a pin position from one cell
//! record. Maintenance sweeps mutate the ranges of the requested nets in
//! place; nothing is moved, boxed or reallocated after the build.

use crate::hanan::build_hanan4;
use crate::mst::PrimScratch;
use crate::tables::{
    canonicalize, class_entry, untransform_point, TableConfig, MAX_TABLE_DEGREE,
    MIN_TABLE_DEGREE,
};
use crate::tree::{
    grow, node_capacity, AdjScratch, Nodes, NodesMut, SteinerTree, TreeMut, TreeView,
};
use dtp_netlist::{CellId, NetId, Netlist, Point};
use rayon::prelude::*;
use std::sync::Mutex;

/// Which construction produced a net's current tree (what [`ForestStats`]
/// counts).
#[derive(Clone, Copy, Debug)]
enum Backend {
    /// No tree (clock net / degree 0).
    None,
    /// Exact construction (degree ≤ 3 always; degree 4 when tables are off).
    Exact,
    /// Topology-table lookup (degree 4–9 with tables on).
    Table,
    /// Prim heuristic (degree above the table cap, or a table-class candidate
    /// the Prim tree beat).
    Prim,
}

/// Per-worker scratch buffers for one maintenance lane.
#[derive(Debug, Default)]
struct Lane {
    pins: Vec<Point>,
    prim: PrimScratch,
    adj: AdjScratch,
    steiner: Vec<(Point, u32, u32)>,
    edges: Vec<(usize, usize)>,
}

impl Lane {
    /// Sizes every buffer for nets of up to `degree` pins, so which lane ends
    /// up rebuilding the largest net never decides whether a sweep allocates.
    fn reserve(&mut self, degree: usize) {
        grow(&mut self.pins, degree);
        self.prim.reserve(degree);
        self.adj.reserve(node_capacity(degree));
        grow(&mut self.steiner, MAX_TABLE_DEGREE);
        grow(&mut self.edges, 2 * MAX_TABLE_DEGREE);
    }
}

/// Reusable buffers for the forest-maintenance sweeps
/// ([`SteinerForest::update_nets_into`] / [`SteinerForest::rebuild_nets_into`]):
/// one scratch lane per worker thread, claimed by whichever sweep task runs
/// there. Steady-state sweeps allocate nothing.
#[derive(Debug, Default)]
pub struct ForestScratch {
    lanes: Vec<Mutex<Lane>>,
}

impl ForestScratch {
    /// An empty scratch (buffers grow on first use and then persist).
    pub fn new() -> ForestScratch {
        ForestScratch::default()
    }

    /// Materializes one worker lane per thread of the current pool. Lane
    /// buffers are sized by the forest's largest net (at the first sweep),
    /// not by the design size, so `_num_nets` sizes nothing any more.
    pub fn presize(&mut self, _num_nets: usize) {
        self.ensure_lanes(rayon::current_num_threads(), 0);
    }

    /// At least `lanes` lanes, each sized for nets of up to `degree` pins.
    fn ensure_lanes(&mut self, lanes: usize, degree: usize) {
        while self.lanes.len() < lanes.max(1) {
            self.lanes.push(Mutex::default());
        }
        for lane in &mut self.lanes {
            lane.get_mut().expect("a sweep panicked holding this lane").reserve(degree);
        }
    }

    /// Runs `f` on a lane no other task holds. At most one task runs per pool
    /// thread and the sweeps keep a lane per thread, so the search succeeds;
    /// a task that finds none (a scratch never sized for this pool) works on
    /// a throw-away lane rather than wait.
    fn with_lane<R>(&self, f: impl FnOnce(&mut Lane) -> R) -> R {
        match self.lanes.iter().find_map(|l| l.try_lock().ok()) {
            Some(mut lane) => f(&mut lane),
            None => f(&mut Lane::default()),
        }
    }
}

/// Forest composition, for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ForestStats {
    /// Nets with a tree (signal nets).
    pub trees: usize,
    /// Trees from exact constructions (degree ≤ 3; degree 4 with tables off).
    pub exact: usize,
    /// Trees from topology-table lookups.
    pub table: usize,
    /// Trees from the Prim heuristic.
    pub prim: usize,
}

impl std::fmt::Display for ForestStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} trees (exact {} / table {} / prim {})",
            self.trees, self.exact, self.table, self.prim
        )
    }
}

/// Below this many dirty nets a *rebuild* sweep runs inline: a topology
/// rebuild is microseconds per net, so pool dispatch pays off quickly.
const PAR_MIN_REBUILD_NETS: usize = 32;

/// Below this many dirty nets a *geometry* sweep runs inline: re-embedding
/// coordinates is ~100 ns per net, so the pool only pays off for sweeps
/// touching a large fraction of the design.
const PAR_MIN_UPDATE_NETS: usize = 1024;

/// Nets per parallel sweep task. The node ranges of consecutive nets are
/// contiguous, so a task owns one slice of every arena array.
const NET_CHUNK: usize = 256;

/// What a sweep does to each requested net.
#[derive(Clone, Copy)]
enum Sweep {
    /// Re-embed coordinates, topology unchanged.
    Geometry,
    /// Rebuild the topology.
    Topology,
}

/// Steiner trees for every non-clock net of a netlist, indexed by net.
///
/// Clock nets are skipped (the flow treats the clock network as ideal;
/// besides, the clock net's degree equals the register count and would
/// dominate runtime while contributing nothing to data-path timing).
#[derive(Clone, Debug)]
pub struct SteinerForest {
    nodes: Nodes,
    /// Arena node range per net (`nets + 1` entries); empty for nets without
    /// a tree.
    node_off: Vec<u32>,
    /// `node_off` sampled every [`NET_CHUNK`] nets: the parallel sweeps' node
    /// chunk boundaries.
    chunk_node_bounds: Vec<u32>,
    /// Live node count per net (≤ the length of its range).
    n_nodes: Vec<u32>,
    /// Gather-table range per net (`nets + 1` entries). Its length is the
    /// tree's pin count; an empty range means the net has no tree.
    pin_off: Vec<u32>,
    /// Per tree pin, in net pin order: owning cell and offset from the cell's
    /// position (`pin position = cell position + (dx, dy)`).
    pin_cell: Vec<u32>,
    pin_dx: Vec<f64>,
    pin_dy: Vec<f64>,
    /// Construction of each net's current tree.
    backend: Vec<Backend>,
    /// Nets requested by the sweep in flight (all `false` between sweeps).
    pending: Vec<bool>,
    /// Pin count of the largest tree (what the sweeps size their lanes for).
    max_degree: usize,
    cfg: TableConfig,
}

/// The forest's arena as plain slices, for kernels that keep their own
/// per-node state on the same node slots (`dtp-route`). Net `n` owns node slots
/// `node_off[n]..node_off[n + 1]`, of which the first `n_nodes[n]` are live
/// (slot 0 of a range is the root; every other live node is an edge to its
/// `parent`); `parent`, `x_src` and `y_src` are indices *within* the net
/// (node and tree-pin respectively), and `pin_cell[pin_off[n] + k]` is the
/// cell owning tree pin `k` — so a node's coordinate source resolves to a
/// cell in two flat loads.
#[derive(Clone, Copy, Debug)]
pub struct ForestArena<'a> {
    /// Node-slot range per net (`nets + 1` entries; empty without a tree).
    pub node_off: &'a [u32],
    /// Live node count per net.
    pub n_nodes: &'a [u32],
    /// Node x coordinates.
    pub x: &'a [f64],
    /// Node y coordinates.
    pub y: &'a [f64],
    /// Net-local parent node of each node (the root is its own parent).
    pub parent: &'a [u32],
    /// Net-local tree pin owning each node's x coordinate.
    pub x_src: &'a [u32],
    /// Net-local tree pin owning each node's y coordinate.
    pub y_src: &'a [u32],
    /// Tree-pin range per net (`nets + 1` entries; empty without a tree).
    pub pin_off: &'a [u32],
    /// Owning cell of each tree pin.
    pub pin_cell: &'a [u32],
}

/// The read-only side of a sweep: where each net's pins and nodes are.
struct Gather<'a> {
    nl: &'a Netlist,
    cfg: TableConfig,
    node_off: &'a [u32],
    chunk_node_bounds: &'a [u32],
    pin_off: &'a [u32],
    pin_cell: &'a [u32],
    pin_dx: &'a [f64],
    pin_dy: &'a [f64],
}

/// The per-net state a sweep mutates, whole or one chunk of it.
struct NetsMut<'a> {
    nodes: NodesMut<'a>,
    n_nodes: &'a mut [u32],
    backend: &'a mut [Backend],
    pending: &'a mut [bool],
}

impl Gather<'_> {
    /// Positions of the tree pins of net `ni`, in net pin order.
    #[inline]
    fn pins(&self, ni: usize) -> impl Iterator<Item = Point> + '_ {
        let r = self.pin_off[ni] as usize..self.pin_off[ni + 1] as usize;
        (self.pin_cell[r.clone()].iter().zip(&self.pin_dx[r.clone()]).zip(&self.pin_dy[r])).map(
            |((&c, &dx), &dy)| self.nl.cell(CellId::new(c as usize)).pos() + Point::new(dx, dy),
        )
    }

    /// One net's maintenance step on the tree storage `tree`.
    #[inline]
    fn visit(
        &self,
        sweep: Sweep,
        ni: usize,
        mut tree: TreeMut<'_>,
        backend: &mut Backend,
        lane: &mut Lane,
    ) {
        match sweep {
            Sweep::Geometry => {
                for (i, p) in self.pins(ni).enumerate() {
                    tree.set_pin_pos(i, p);
                }
                tree.ride_branches((self.pin_off[ni + 1] - self.pin_off[ni]) as usize);
            }
            Sweep::Topology => {
                lane.pins.clear();
                lane.pins.extend(self.pins(ni));
                *backend = rebuild_tree(&self.cfg, lane, &mut tree);
            }
        }
    }

    /// Visits the pending nets among `first..first + nets.pending.len()`
    /// (`nets` holds exactly their state; flags are cleared on the way).
    fn visit_pending(&self, sweep: Sweep, first: usize, nets: NetsMut<'_>, lane: &mut Lane) {
        let NetsMut { mut nodes, n_nodes, backend, pending } = nets;
        let base = self.node_off[first] as usize;
        for (k, flag) in pending.iter_mut().enumerate() {
            if std::mem::take(flag) {
                let ni = first + k;
                let lo = self.node_off[ni] as usize - base;
                let hi = self.node_off[ni + 1] as usize - base;
                let tree = nodes.tree(lo, hi, &mut n_nodes[k]);
                self.visit(sweep, ni, tree, &mut backend[k], lane);
            }
        }
    }
}

impl SteinerForest {
    /// The tree of `net`, or `None` for clock nets.
    #[inline]
    pub fn tree(&self, net: NetId) -> Option<TreeView<'_>> {
        let ni = net.index();
        let n_pins = (self.pin_off[ni + 1] - self.pin_off[ni]) as usize;
        if n_pins == 0 {
            return None;
        }
        Some(self.nodes.view(self.node_off[ni] as usize, self.n_nodes[ni] as usize, n_pins))
    }

    /// The arena as plain slices (see [`ForestArena`]).
    pub fn arena(&self) -> ForestArena<'_> {
        ForestArena {
            node_off: &self.node_off,
            n_nodes: &self.n_nodes,
            x: &self.nodes.x,
            y: &self.nodes.y,
            parent: &self.nodes.parent,
            x_src: &self.nodes.x_src,
            y_src: &self.nodes.y_src,
            pin_off: &self.pin_off,
            pin_cell: &self.pin_cell,
        }
    }

    /// Number of net slots (equals the netlist's net count).
    pub fn len(&self) -> usize {
        self.n_nodes.len()
    }

    /// Whether the forest is empty.
    pub fn is_empty(&self) -> bool {
        self.n_nodes.is_empty()
    }

    /// Total wirelength across all trees.
    pub fn total_wirelength(&self) -> f64 {
        (0..self.len())
            .filter_map(|ni| self.tree(NetId::new(ni)))
            .map(TreeView::wirelength)
            .sum()
    }

    /// Current composition.
    pub fn stats(&self) -> ForestStats {
        let mut s = ForestStats::default();
        for b in &self.backend {
            match b {
                Backend::None => {}
                Backend::Exact => s.exact += 1,
                Backend::Table => s.table += 1,
                Backend::Prim => s.prim += 1,
            }
        }
        s.trees = s.exact + s.table + s.prim;
        s
    }

    /// Geometry sweep: updates the trees of `nets` from the netlist's current
    /// pin positions in place, without rebuilding topology (the cheap
    /// between-rebuild path of §3.6), skipping every other net and the nets
    /// without a tree. Long lists run over the persistent worker pool; a tree
    /// is a function of its own pins only, so the result is bit-for-bit
    /// identical at any pool width. Allocates nothing.
    pub fn update_nets_into(&mut self, nl: &Netlist, nets: &[NetId], scratch: &mut ForestScratch) {
        self.sweep(nl, nets, scratch, Sweep::Geometry);
    }

    /// Topology sweep: rebuilds the trees of `nets` (new topology) from the
    /// netlist's current pin positions in place — the topology-dirty path of
    /// the incremental timing pipeline. Nets without a tree (clock nets) are
    /// skipped. Long lists run over the persistent worker pool, bit-for-bit
    /// identical at any pool width; allocation-free once the lanes are warm
    /// and the visited topology classes exist.
    pub fn rebuild_nets_into(&mut self, nl: &Netlist, nets: &[NetId], scratch: &mut ForestScratch) {
        self.sweep(nl, nets, scratch, Sweep::Topology);
    }

    fn flag_all_trees(&mut self) {
        for (flag, pins) in self.pending.iter_mut().zip(self.pin_off.windows(2)) {
            *flag = pins[1] > pins[0];
        }
    }

    /// The one sweep driver. Requested nets are flagged (a net listed twice
    /// is visited once; nets without a tree are skipped); short lists and a
    /// 1-worker pool visit them in list order on the calling thread, longer
    /// ones go through [`SteinerForest::sweep_pending`]. A visit touches only
    /// its own net's arena range and backend, so both forms leave identical
    /// forests.
    fn sweep(&mut self, nl: &Netlist, nets: &[NetId], scratch: &mut ForestScratch, sweep: Sweep) {
        let mut requested = 0usize;
        for &net in nets {
            let ni = net.index();
            if self.pin_off[ni + 1] > self.pin_off[ni] && !self.pending[ni] {
                self.pending[ni] = true;
                requested += 1;
            }
        }
        let min_par = match sweep {
            Sweep::Topology => PAR_MIN_REBUILD_NETS,
            Sweep::Geometry => PAR_MIN_UPDATE_NETS,
        };
        let threads = rayon::current_num_threads();
        if threads > 1 && requested >= min_par {
            scratch.ensure_lanes(threads, self.max_degree);
            self.sweep_pending(nl, scratch, sweep);
        } else {
            // A geometry visit never touches its lane.
            let mut unused = Lane::default();
            let lane = match sweep {
                Sweep::Geometry => &mut unused,
                Sweep::Topology => {
                    scratch.ensure_lanes(1, self.max_degree);
                    scratch.lanes[0].get_mut().expect("a sweep panicked holding this lane")
                }
            };
            let (gather, NetsMut { mut nodes, n_nodes, backend, pending }) = self.split(nl);
            for &net in nets {
                let ni = net.index();
                if std::mem::take(&mut pending[ni]) {
                    let (lo, hi) = (gather.node_off[ni] as usize, gather.node_off[ni + 1] as usize);
                    let tree = nodes.tree(lo, hi, &mut n_nodes[ni]);
                    gather.visit(sweep, ni, tree, &mut backend[ni], lane);
                }
            }
        }
    }

    /// Visits every pending net: [`NET_CHUNK`]-net tasks over the pool, each
    /// owning its chunk's slice of every arena array and working on a lane
    /// claimed from `scratch`.
    fn sweep_pending(&mut self, nl: &Netlist, scratch: &ForestScratch, sweep: Sweep) {
        let (gather, NetsMut { nodes, n_nodes, backend, pending }) = self.split(nl);
        let bounds = gather.chunk_node_bounds;
        (nodes.x.par_chunks_mut_at(bounds))
            .zip(nodes.y.par_chunks_mut_at(bounds))
            .zip(nodes.parent.par_chunks_mut_at(bounds))
            .zip(nodes.order.par_chunks_mut_at(bounds))
            .zip(nodes.x_src.par_chunks_mut_at(bounds))
            .zip(nodes.y_src.par_chunks_mut_at(bounds))
            .zip(n_nodes.par_chunks_mut(NET_CHUNK))
            .zip(backend.par_chunks_mut(NET_CHUNK))
            .zip(pending.par_chunks_mut(NET_CHUNK))
            .enumerate()
            .for_each(|(ci, chunk)| {
                let (((arrays, n_nodes), backend), pending) = chunk;
                let (((((x, y), parent), order), x_src), y_src) = arrays;
                if !pending.contains(&true) {
                    return;
                }
                let nodes = NodesMut { x, y, parent, order, x_src, y_src };
                let nets = NetsMut { nodes, n_nodes, backend, pending };
                scratch.with_lane(|lane| gather.visit_pending(sweep, ci * NET_CHUNK, nets, lane));
            });
    }

    /// Splits the forest into the read-only gather side and the state a
    /// sweep mutates.
    fn split<'a>(&'a mut self, nl: &'a Netlist) -> (Gather<'a>, NetsMut<'a>) {
        assert_eq!(nl.num_nets(), self.len(), "netlist differs from the forest's");
        let gather = Gather {
            nl,
            cfg: self.cfg,
            node_off: &self.node_off,
            chunk_node_bounds: &self.chunk_node_bounds,
            pin_off: &self.pin_off,
            pin_cell: &self.pin_cell,
            pin_dx: &self.pin_dx,
            pin_dy: &self.pin_dy,
        };
        let nets = NetsMut {
            nodes: self.nodes.as_mut(),
            n_nodes: &mut self.n_nodes,
            backend: &mut self.backend,
            pending: &mut self.pending,
        };
        (gather, nets)
    }
}

/// Rebuilds one tree from `lane.pins` under `cfg`: canonicalize the pin
/// sequence, select the cheapest candidate of its class, embed it. Returns
/// the construction that produced the tree.
fn rebuild_tree(cfg: &TableConfig, lane: &mut Lane, tree: &mut TreeMut<'_>) -> Backend {
    let n = lane.pins.len();
    if n < MIN_TABLE_DEGREE {
        // Exact closed forms, the same with tables on or off.
        tree.build_small(&lane.pins);
        return Backend::Exact;
    }
    if !cfg.enabled && n == 4 {
        // Legacy exact Hanan enumeration: it allocates, so it builds an
        // owned tree that is copied in (tables-off forests are built a
        // couple of times per flow and never maintained in the loop).
        tree.copy_from(build_hanan4(&lane.pins).view());
        return Backend::Exact;
    }
    if !cfg.enabled || n > MAX_TABLE_DEGREE {
        crate::mst::prim_steiner_into(&lane.pins, &mut lane.prim, &mut lane.adj, tree);
        return Backend::Prim;
    }

    // --- table path ---------------------------------------------------------
    // Pin orders along each axis (ties broken by the other coordinate, then
    // index, so the orders — and everything derived from them — are total).
    let pins = &lane.pins;
    let mut xo = [0u8; MAX_TABLE_DEGREE];
    let mut yo = [0u8; MAX_TABLE_DEGREE];
    for i in 0..n {
        xo[i] = i as u8;
        yo[i] = i as u8;
    }
    xo[..n].sort_unstable_by(|&a, &b| {
        let (pa, pb) = (pins[a as usize], pins[b as usize]);
        pa.x.partial_cmp(&pb.x)
            .expect("non-NaN coordinates")
            .then(pa.y.partial_cmp(&pb.y).expect("non-NaN coordinates"))
            .then(a.cmp(&b))
    });
    yo[..n].sort_unstable_by(|&a, &b| {
        let (pa, pb) = (pins[a as usize], pins[b as usize]);
        pa.y.partial_cmp(&pb.y)
            .expect("non-NaN coordinates")
            .then(pa.x.partial_cmp(&pb.x).expect("non-NaN coordinates"))
            .then(a.cmp(&b))
    });
    let mut yrank = [0u8; MAX_TABLE_DEGREE];
    for (r, &p) in yo[..n].iter().enumerate() {
        yrank[p as usize] = r as u8;
    }
    let mut seq = [0u8; MAX_TABLE_DEGREE];
    for (a, &p) in xo[..n].iter().enumerate() {
        seq[a] = yrank[p as usize];
    }

    // Canonical class lookup.
    let (canon_key, t) = canonicalize(&seq[..n]);
    let entry = class_entry(n, canon_key);

    // Raw coordinate gaps along each axis, then mapped into the canonical
    // frame (a flipped axis reverses gap order; a swap exchanges the axes).
    let mut rgx = [0.0f64; MAX_TABLE_DEGREE - 1];
    let mut rgy = [0.0f64; MAX_TABLE_DEGREE - 1];
    for g in 0..n - 1 {
        rgx[g] = pins[xo[g + 1] as usize].x - pins[xo[g] as usize].x;
        rgy[g] = pins[yo[g + 1] as usize].y - pins[yo[g] as usize].y;
    }
    let (swap, fx, fy) = (t & 4 != 0, t & 1 != 0, t & 2 != 0);
    let mut gx = [0.0f64; MAX_TABLE_DEGREE - 1];
    let mut gy = [0.0f64; MAX_TABLE_DEGREE - 1];
    for g in 0..n - 1 {
        gx[g] = if swap {
            rgy[if fy { n - 2 - g } else { g }]
        } else {
            rgx[if fx { n - 2 - g } else { g }]
        };
        gy[g] = if swap {
            rgx[if fx { n - 2 - g } else { g }]
        } else {
            rgy[if fy { n - 2 - g } else { g }]
        };
    }

    // Candidate selection: cheapest POWV by gap dot product; degree ≥ 5
    // additionally clamps against the Prim MST length so the emitted tree is
    // never worse than the fallback heuristic (degree 4 tables are exact).
    let mut best_i = 0usize;
    let mut best_c = f64::INFINITY;
    for (i, p) in entry.powvs().enumerate() {
        let c = p.cost(&gx, &gy);
        if c < best_c {
            best_c = c;
            best_i = i;
        }
    }
    let use_prim = n >= 5 && crate::mst::prim_length(pins, &mut lane.prim) < best_c;
    if use_prim {
        crate::mst::prim_steiner_into(&lane.pins, &mut lane.prim, &mut lane.adj, tree);
        return Backend::Prim;
    }

    // Embed the winning canonical topology in the raw frame: each canonical
    // grid point maps back through the symmetry transform, x coordinates
    // ride the pin at the raw x-rank and y coordinates the pin at the raw
    // y-rank (the Fig.-4 branch bookkeeping falls out naturally).
    let powv = entry.powvs().nth(best_i).expect("the winner is one of the class's POWVs");
    lane.steiner.clear();
    lane.edges.clear();
    for (a, b) in powv.steiner() {
        let (ra, rb) = untransform_point(a as usize, b as usize, n, t);
        let px = xo[ra] as u32;
        let py = yo[rb] as u32;
        lane.steiner
            .push((Point::new(pins[px as usize].x, pins[py as usize].y), px, py));
    }
    let map_node = |w: u8| -> usize {
        let w = w as usize;
        if w < n {
            let (ra, rb) = untransform_point(w, entry.seq(w), n, t);
            debug_assert_eq!(seq[ra], rb as u8, "canonical pin maps back onto the sequence");
            xo[ra] as usize
        } else {
            n + (w - n)
        }
    };
    for (u, v) in powv.edges() {
        lane.edges.push((map_node(u), map_node(v)));
    }
    tree.rebuild_from_parts(&lane.pins, &lane.steiner, &lane.edges, &mut lane.adj);
    Backend::Table
}

/// Builds a single Steiner tree under the given topology-table
/// configuration (the construction behind [`build_forest_with`], without a
/// netlist). With [`TableConfig::disabled`] this equals
/// [`SteinerTree::build`]. Intended for tests, benches, and one-off nets;
/// forest maintenance paths reuse scratch buffers instead.
pub fn build_tree_with(pins: &[Point], cfg: TableConfig) -> SteinerTree {
    assert!(!pins.is_empty(), "a net must have at least one pin");
    SteinerTree::build_in(pins.len(), node_capacity(pins.len()), |mut tree| {
        let mut lane = Lane::default();
        lane.pins.extend_from_slice(pins);
        rebuild_tree(&cfg, &mut lane, &mut tree);
    })
}

/// Builds Steiner trees for all non-clock nets in parallel (rayon), the
/// analogue of the paper's multi-threaded FLUTE invocation. Uses the legacy
/// constructions ([`TableConfig::disabled`]); see [`build_forest_with`] for
/// the topology-table backend.
pub fn build_forest(nl: &Netlist) -> SteinerForest {
    build_forest_with(nl, TableConfig::disabled())
}

/// Builds Steiner trees for all non-clock nets in parallel under the given
/// topology-table configuration: one serial pass lays the arena out (node
/// and pin ranges, gather table), then a topology sweep over every net fills
/// it in place.
pub fn build_forest_with(nl: &Netlist, cfg: TableConfig) -> SteinerForest {
    let n_nets = nl.num_nets();
    let to_u32 = |n: usize| u32::try_from(n).expect("fewer than 2^32 forest nodes and pins");
    let mut node_off = Vec::with_capacity(n_nets + 1);
    let mut pin_off = Vec::with_capacity(n_nets + 1);
    let n_pins = nl.num_pins();
    let mut pin_cell = Vec::with_capacity(n_pins);
    let (mut pin_dx, mut pin_dy) = (Vec::with_capacity(n_pins), Vec::with_capacity(n_pins));
    let (mut nodes, mut max_degree) = (0usize, 0usize);
    node_off.push(0);
    pin_off.push(0);
    for net in nl.net_ids().map(|n| nl.net(n)) {
        if !net.is_clock() {
            nodes += node_capacity(net.degree());
            max_degree = max_degree.max(net.degree());
            for &p in net.pins() {
                let offset = nl.pin_spec(p).offset;
                pin_cell.push(to_u32(nl.pin(p).cell().index()));
                pin_dx.push(offset.x);
                pin_dy.push(offset.y);
            }
        }
        node_off.push(to_u32(nodes));
        pin_off.push(to_u32(pin_cell.len()));
    }
    let mut chunk_node_bounds: Vec<u32> = node_off.iter().step_by(NET_CHUNK).copied().collect();
    if !n_nets.is_multiple_of(NET_CHUNK) {
        chunk_node_bounds.push(to_u32(nodes));
    }
    let mut forest = SteinerForest {
        nodes: Nodes::zeroed(nodes),
        node_off,
        chunk_node_bounds,
        n_nodes: vec![0; n_nets],
        pin_off,
        pin_cell,
        pin_dx,
        pin_dy,
        backend: vec![Backend::None; n_nets],
        pending: vec![false; n_nets],
        max_degree,
        cfg,
    };
    let mut scratch = ForestScratch::new();
    scratch.ensure_lanes(rayon::current_num_threads(), max_degree);
    forest.flag_all_trees();
    forest.sweep_pending(nl, &scratch, Sweep::Topology);
    forest
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtp_netlist::generate::{generate, GeneratorConfig};

    #[test]
    fn forest_covers_signal_nets_only() {
        let d = generate(&GeneratorConfig::named("f", 150)).unwrap();
        let forest = build_forest(&d.netlist);
        assert_eq!(forest.len(), d.netlist.num_nets());
        for n in d.netlist.net_ids() {
            let net = d.netlist.net(n);
            if net.is_clock() {
                assert!(forest.tree(n).is_none(), "clock net has a tree");
            } else {
                let t = forest.tree(n).expect("signal net has a tree");
                assert_eq!(t.num_pins(), net.degree());
            }
        }
        assert!(forest.total_wirelength() > 0.0);
    }

    #[test]
    fn node_capacity_covers_every_backend() {
        // Staircases make the Prim heuristic insert a corner on every edge;
        // a tree past its capacity would panic inside the construction.
        for degree in 1..40usize {
            let pins: Vec<Point> = (0..degree)
                .map(|i| Point::new(i as f64 * 3.0, (i * i % 17) as f64 + i as f64))
                .collect();
            for cfg in [TableConfig::disabled(), TableConfig::default()] {
                let n = build_tree_with(&pins, cfg).num_nodes();
                assert!(n <= node_capacity(degree), "degree {degree}: {n} nodes");
            }
        }
        let worst = build_tree_with(
            &(0..7).map(|i| Point::new(i as f64, (i * i) as f64)).collect::<Vec<_>>(),
            TableConfig::disabled(),
        );
        assert_eq!(worst.num_nodes(), node_capacity(7), "the bound is attained");
    }

    #[test]
    fn update_positions_tracks_netlist() {
        let mut d = generate(&GeneratorConfig::named("f", 120)).unwrap();
        let mut forest = build_forest(&d.netlist);
        let wl0 = forest.total_wirelength();
        // Move every movable cell by a constant offset: wirelength is
        // translation invariant.
        let (mut xs, mut ys) = d.netlist.positions();
        let movable: Vec<bool> = d
            .netlist
            .cell_ids()
            .map(|c| !d.netlist.cell(c).is_fixed())
            .collect();
        for i in 0..xs.len() {
            if movable[i] {
                xs[i] += 3.0;
                ys[i] -= 2.0;
            }
        }
        d.netlist.set_positions(&xs, &ys);
        let nets: Vec<NetId> = d.netlist.net_ids().collect();
        forest.update_nets_into(&d.netlist, &nets, &mut ForestScratch::new());
        let wl1 = forest.total_wirelength();
        // Ports are fixed, so wirelength changes, but trees must stay
        // consistent with the new pin positions: rebuildable invariant.
        let rebuilt = build_forest(&d.netlist);
        // The reused topology can only be as good as or worse than rebuilt
        // trees (paper's accuracy-for-speed trade).
        assert!(wl1 >= rebuilt.total_wirelength() - 1e-6);
        assert!(wl0 > 0.0);
    }

    #[test]
    fn table_forest_never_longer_than_legacy() {
        // Degree ≤ 3 trees are identical, degree-4 tables are exact (legacy
        // is exact too), and degree 5–9 tables clamp against Prim — so on
        // the same placement the tables-on forest can never be longer.
        let d = generate(&GeneratorConfig::named("tf", 300)).unwrap();
        let legacy = build_forest(&d.netlist);
        let tables = build_forest_with(&d.netlist, TableConfig::default());
        for n in d.netlist.net_ids() {
            let (Some(a), Some(b)) = (tables.tree(n), legacy.tree(n)) else { continue };
            assert!(
                a.wirelength() <= b.wirelength() + 1e-6,
                "net {}: table {} > legacy {}",
                n.index(),
                a.wirelength(),
                b.wirelength()
            );
        }
        let s = tables.stats();
        assert_eq!(s.trees, s.exact + s.table + s.prim);
        assert!(s.table > 0, "no table-backed trees in a 300-cell design");
    }
}
