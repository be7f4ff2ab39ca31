//! The route layer allocates nothing in steady state: exact-map updates
//! (geometry and topology lists, cells), the feedback reads, a rebuild of
//! the whole map and the penalty gradient all run on buffers sized once.
//!
//! One test only: the counter is process-wide, and the harness runs the
//! tests of a file on parallel threads.

use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_netlist::{CellId, Design, NetId, Point};
use dtp_route::{inflation_factors, CongestionPenalty, RudyMap};
use dtp_rsmt::{build_forest_with, ForestScratch, SteinerForest, TableConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: forwards every call unchanged to the system allocator; the counter
// is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(p, l, n) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Moves every movable cell to its home position plus one of four offsets.
fn drift(design: &mut Design, movable: &[CellId], home: &[Point], state: usize) {
    for (k, (&c, &p)) in movable.iter().zip(home).enumerate() {
        let s = ((k + state) % 4) as f64;
        design
            .netlist
            .set_cell_pos(c, p + Point::new(6.0 * s - 9.0, 7.5 - 5.0 * s));
    }
}

/// Everything one route iteration of the placement loop touches.
struct Rig {
    design: Design,
    movable: Vec<CellId>,
    home: Vec<Point>,
    forest: SteinerForest,
    scratch: ForestScratch,
    nets: Vec<NetId>,
    geo: Vec<NetId>,
    topo: Vec<NetId>,
    map: RudyMap,
    penalty: CongestionPenalty,
    gx: Vec<f64>,
    gy: Vec<f64>,
    factors: Vec<f64>,
    worst: f64,
}

impl Rig {
    /// Forest sync, exact-map update (both lists, then cells), the feedback
    /// reads, both penalty entry points — and a rebuild of the whole map
    /// every fourth time.
    fn iterate(&mut self, state: usize) {
        drift(&mut self.design, &self.movable, &self.home, state % 4);
        let nl = &self.design.netlist;
        self.forest
            .update_nets_into(nl, &self.geo, &mut self.scratch);
        self.forest
            .rebuild_nets_into(nl, &self.topo, &mut self.scratch);
        self.map.update_nets(&self.forest, &self.geo);
        self.map.update_nets(&self.forest, &self.topo);
        self.map.sync_cells(nl);
        inflation_factors(&self.map, nl, 2.5, &mut self.factors);
        for &n in &self.nets {
            self.worst = self.worst.max(self.map.net_overflow(n));
        }
        self.penalty
            .gradient(nl, &self.forest, &mut self.gx, &mut self.gy);
        let p = self
            .penalty
            .value_and_gradient(nl, &self.forest, &mut self.gx, &mut self.gy);
        assert!(p.is_finite());
        if state % 4 == 3 {
            self.map.build(nl, &self.forest);
        }
    }
}

#[test]
fn steady_state_route_iterations_do_not_allocate() {
    let pool = rayon::Pool::new(2);
    rayon::with_pool(&pool, || {
        let design =
            generate(&GeneratorConfig::named("route_zero_alloc", 3000)).expect("generator");
        let movable: Vec<CellId> = design.netlist.movable_cells().collect();
        let home = movable
            .iter()
            .map(|&c| design.netlist.cell(c).pos())
            .collect();
        let forest = build_forest_with(&design.netlist, TableConfig::default());
        let nets: Vec<NetId> = design.netlist.net_ids().collect();
        let mut rig = Rig {
            // Every third net changes topology, the rest only geometry — and
            // a few nets are on both lists, as a caller's lists may be.
            topo: nets.iter().copied().step_by(3).collect(),
            geo: nets
                .iter()
                .copied()
                .filter(|n| n.index() % 3 != 0 || n.index() % 7 == 0)
                .collect(),
            map: RudyMap::new(&design, 32, 32, 6.0),
            penalty: CongestionPenalty::new(&design, 32, 32, 6.0),
            scratch: ForestScratch::new(),
            gx: Vec::new(),
            gy: Vec::new(),
            factors: Vec::new(),
            worst: 0.0,
            design,
            movable,
            home,
            forest,
            nets,
        };
        // Warm-up: one pass over the drift cycle sizes every buffer and
        // generates every topology class the cycle visits.
        rig.map.build(&rig.design.netlist, &rig.forest);
        for state in 0..4 {
            rig.iterate(state);
        }
        let before = rig.forest.stats().seq_rebuilds;
        let allocs = allocs_during(|| {
            for state in 0..8 {
                rig.iterate(state);
            }
        });
        assert_eq!(
            allocs, 0,
            "steady-state route iterations allocated {allocs} times"
        );
        assert!(
            rig.forest.stats().seq_rebuilds > before,
            "the drift never changed a topology"
        );
        assert!(rig.worst > 0.0 && rig.map.stamps_written() > 0);
    });
}
