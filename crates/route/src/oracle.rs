//! Bit-identity oracles: the arena kernels against the formulation they
//! replaced (`reference.rs`), over random update sequences. (Nothing in this
//! crate dispatches to the pool; the flow-level region that runs the map
//! update beside the penalty gradient is pinned at pool widths 1/2/4 by
//! `crates/core/tests/route_golden.rs`.)

use crate::reference::{RefPenalty, RefRudyMap};
use crate::{inflation_factors, CongestionPenalty, RudyMap};
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_netlist::{CellId, Design, NetId, Point};
use dtp_rsmt::{build_forest_with, ForestScratch, SteinerForest, TableConfig};
use proptest::prelude::*;

/// SplitMix64: the sequences below need more structure than a strategy
/// tuple gives.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Moves a random share of the cells: most drift, some jump anywhere up to
/// a region width past every edge of the region, and some pile onto one
/// point (zero-length branches, single-bin boxes).
fn scramble(d: &mut Design, rng: &mut Rng) -> Vec<CellId> {
    let region = d.region;
    let movable: Vec<CellId> = d.netlist.movable_cells().collect();
    let pile = Point::new(
        region.xl + 0.5 * (1.0 + rng.unit()) * region.width(),
        region.yl + 0.5 * (1.0 + rng.unit()) * region.height(),
    );
    let share = 1 + rng.below(4);
    let mut moved = Vec::new();
    for &c in &movable {
        if rng.below(4) >= share {
            continue;
        }
        let p = d.netlist.cell(c).pos();
        let to = match rng.below(8) {
            0 => Point::new(
                region.xl + (0.5 + 1.5 * rng.unit()) * region.width(),
                region.yl + (0.5 + 1.5 * rng.unit()) * region.height(),
            ),
            1 => pile,
            _ => Point::new(p.x + 4.0 * rng.unit(), p.y + 4.0 * rng.unit()),
        };
        d.netlist.set_cell_pos(c, to);
        moved.push(c);
    }
    moved
}

/// The nets of `moved`, split at random into a geometry list and a topology
/// list, each shuffled and with some nets repeated (within a list and
/// across the two).
fn dirty_lists(d: &Design, moved: &[CellId], rng: &mut Rng) -> (Vec<NetId>, Vec<NetId>) {
    let (mut geo, mut topo) = (Vec::new(), Vec::new());
    for &c in moved {
        for &p in d.netlist.cell(c).pins() {
            if let Some(n) = d.netlist.pin(p).net() {
                if rng.below(4) == 0 {
                    &mut topo
                } else {
                    &mut geo
                }
                .push(n);
            }
        }
    }
    for list in [&mut geo, &mut topo] {
        for i in (1..list.len()).rev() {
            list.swap(i, rng.below(i + 1));
        }
    }
    (geo, topo)
}

fn assert_maps_equal(new: &RudyMap, old: &RefRudyMap, d: &Design, what: &str) {
    assert_eq!(bits(new.h_demand()), bits(old.h_demand()), "{what}: h");
    assert_eq!(bits(new.v_demand()), bits(old.v_demand()), "{what}: v");
    let (a, b) = (new.summary(), old.summary());
    assert_eq!(
        [a.max_overflow, a.avg_overflow, a.overflowed_frac].map(f64::to_bits),
        [b.max_overflow, b.avg_overflow, b.overflowed_frac].map(f64::to_bits),
        "{what}: summary"
    );
    for n in d.netlist.net_ids() {
        assert_eq!(
            new.net_overflow(n).to_bits(),
            old.net_overflow(n).to_bits(),
            "{what}: net_overflow({n:?})"
        );
    }
    let mut factors = Vec::new();
    inflation_factors(new, &d.netlist, 2.5, &mut factors);
    for c in d.netlist.movable_cells() {
        let class = d.netlist.class_of(c);
        let pos = d.netlist.cell(c).pos();
        let r = old.overflow_ratio_at(Point::new(
            pos.x + 0.5 * class.width(),
            pos.y + 0.5 * class.height(),
        ));
        let want = if r > 1.0 { r.min(2.5) } else { 1.0 };
        assert_eq!(
            factors[c.index()].to_bits(),
            want.to_bits(),
            "{what}: inflation of {c:?}"
        );
    }
}

fn design(cells: usize, seed: u64) -> Design {
    let mut cfg = GeneratorConfig::named("route-oracle", cells);
    cfg.seed = seed;
    generate(&cfg).expect("generator succeeds")
}

fn forest_of(d: &Design, tables: bool) -> SteinerForest {
    let cfg = if tables {
        TableConfig::default()
    } else {
        TableConfig::disabled()
    };
    build_forest_with(&d.netlist, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arena_map_equals_reference_map_bit_for_bit(
        cells in 40..260usize,
        m in 2..40usize,
        n in 2..40usize,
        seed in 0..1_000_000u64,
    ) {
        let mut rng = Rng(seed);
        let mut d = design(cells, seed);
        let mut forest = forest_of(&d, seed % 2 == 0);
        let pin_weight = [crate::DEFAULT_PIN_WEIGHT, 0.0, 2.0][rng.below(3)];
        let pool = rayon::Pool::new([1, 2, 4][rng.below(3)]);
        rayon::with_pool(&pool, || {
            let mut new = RudyMap::new(&d, m, n, 0.4).with_pin_weight(pin_weight);
            let mut old = RefRudyMap::new(&d, m, n, 0.4).with_pin_weight(pin_weight);
            let mut scratch = ForestScratch::new();
            // Updates before any build start from an empty map.
            let built_first = rng.below(2) == 0;
            if built_first {
                new.build(&d.netlist, &forest);
                old.build(&d.netlist, &forest);
                assert_maps_equal(&new, &old, &d, "build");
            }
            for step in 0..5 {
                let what = format!("step {step}");
                let moved = scramble(&mut d, &mut rng);
                let (geo, topo) = match rng.below(3) {
                    // Every net: the global-placement case.
                    0 => (d.netlist.net_ids().collect(), Vec::new()),
                    _ => dirty_lists(&d, &moved, &mut rng),
                };
                forest.update_nets_into(&d.netlist, &geo, &mut scratch);
                forest.rebuild_nets_into(&d.netlist, &topo, &mut scratch);
                old.update_nets(&forest, &geo);
                old.update_nets(&forest, &topo);
                old.sync_cells(&d.netlist);
                new.update_nets(&forest, &geo);
                new.update_nets(&forest, &topo);
                new.sync_cells(&d.netlist);
                assert_maps_equal(&new, &old, &d, &what);
                if rng.below(4) == 0 {
                    // A rebuild of the whole topology between updates.
                    forest = forest_of(&d, rng.below(2) == 0);
                    new.build(&d.netlist, &forest);
                    old.build(&d.netlist, &forest);
                    assert_maps_equal(&new, &old, &d, &format!("{what}: rebuild"));
                }
            }
        });
    }

    #[test]
    fn penalty_equals_reference_bit_for_bit(
        cells in 40..260usize,
        m in 2..40usize,
        n in 2..40usize,
        seed in 0..1_000_000u64,
    ) {
        let mut rng = Rng(seed);
        let mut d = design(cells, seed);
        let mut forest = forest_of(&d, seed % 2 == 0);
        let pin_weight = [crate::DEFAULT_PIN_WEIGHT, 0.0, 2.0][rng.below(3)];
        let capacity = [0.02, 0.4, 50.0][rng.below(3)];
        let pool = rayon::Pool::new([1, 2, 4][rng.below(3)]);
        rayon::with_pool(&pool, || {
            let mut new = CongestionPenalty::new(&d, m, n, capacity).with_pin_weight(pin_weight);
            let mut old = RefPenalty::new(&d, m, n, capacity).with_pin_weight(pin_weight);
            let (mut gx, mut gy) = (Vec::new(), Vec::new());
            let (mut rx, mut ry) = (vec![7.0; 3], Vec::new());
            let mut scratch = ForestScratch::new();
            let all_nets: Vec<NetId> = d.netlist.net_ids().collect();
            for step in 0..4 {
                let p = new.value_and_gradient(&d.netlist, &forest, &mut gx, &mut gy);
                let r = old.value_and_gradient(&d.netlist, &forest, &mut rx, &mut ry);
                assert_eq!(p.to_bits(), r.to_bits(), "step {step}: value {p} vs {r}");
                assert_eq!(bits(&gx), bits(&rx), "step {step}: gx");
                assert_eq!(bits(&gy), bits(&ry), "step {step}: gy");
                let forward = new.value(&d.netlist, &forest);
                assert_eq!(
                    forward.to_bits(),
                    old.value(&d.netlist, &forest).to_bits(),
                    "step {step}: forward-only value"
                );
                new.gradient(&d.netlist, &forest, &mut gx, &mut gy);
                assert_eq!(bits(&gx), bits(&rx), "step {step}: gradient-only gx");
                assert_eq!(bits(&gy), bits(&ry), "step {step}: gradient-only gy");
                let moved = scramble(&mut d, &mut rng);
                let (geo, topo) = dirty_lists(&d, &moved, &mut rng);
                forest.update_nets_into(&d.netlist, &geo, &mut scratch);
                forest.rebuild_nets_into(&d.netlist, &topo, &mut scratch);
                forest.update_nets_into(&d.netlist, &all_nets, &mut scratch);
            }
        });
    }
}
