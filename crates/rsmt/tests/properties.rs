//! Property-based tests of the Steiner tree invariants over random nets,
//! and of the topology-table / sequence-cache / parallel-sweep machinery.

use dtp_netlist::{Point, Rect};
use dtp_rsmt::{build_tree_with, SteinerTree, TableConfig};
use proptest::prelude::*;

fn pins_strategy(max: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((0.0..200.0f64, 0.0..200.0f64), 1..max)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

fn pins_exact(n: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((0.0..200.0f64, 0.0..200.0f64), n..n + 1)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_spans_and_is_acyclic(pins in pins_strategy(24)) {
        let t = SteinerTree::build(&pins);
        prop_assert_eq!(t.num_pins(), pins.len());
        // Every node reaches the root without cycling.
        for i in 0..t.num_nodes() {
            let mut u = i;
            let mut hops = 0;
            while let Some(p) = t.parent_of(u) {
                u = p;
                hops += 1;
                prop_assert!(hops <= t.num_nodes(), "cycle through node {i}");
            }
            prop_assert_eq!(u, 0);
        }
        // Edge count of a tree.
        prop_assert_eq!(t.edges().count(), t.num_nodes() - 1);
    }

    #[test]
    fn wirelength_between_hpwl_and_star(pins in pins_strategy(24)) {
        let t = SteinerTree::build(&pins);
        let wl = t.wirelength();
        if pins.len() >= 2 {
            let bbox = Rect::bounding(pins.iter().copied()).expect("non-empty");
            prop_assert!(wl >= bbox.half_perimeter() - 1e-9, "wl {wl} < HPWL");
            let star: f64 = pins[1..].iter().map(|p| p.manhattan(pins[0])).sum();
            prop_assert!(wl <= star + 1e-9, "wl {wl} > star {star}");
        } else {
            prop_assert_eq!(wl, 0.0);
        }
    }

    #[test]
    fn update_with_same_positions_is_identity(pins in pins_strategy(16)) {
        let t0 = SteinerTree::build(&pins);
        let mut t = t0.clone();
        t.update_pins(&pins);
        prop_assert_eq!(t.num_nodes(), t0.num_nodes());
        for i in 0..t.num_nodes() {
            prop_assert_eq!(t.node_pos(i), t0.node_pos(i));
        }
        prop_assert!((t.wirelength() - t0.wirelength()).abs() < 1e-12);
    }

    #[test]
    fn scatter_gradient_conserves_totals(
        pins in pins_strategy(16),
        gseed in 0u64..1000,
    ) {
        let t = SteinerTree::build(&pins);
        let n = t.num_nodes();
        // Deterministic pseudo-random gradients from the seed.
        let g = |k: usize, salt: u64| ((k as u64 * 2654435761 + gseed + salt) % 1000) as f64 / 500.0 - 1.0;
        let gx: Vec<f64> = (0..n).map(|k| g(k, 0)).collect();
        let gy: Vec<f64> = (0..n).map(|k| g(k, 7)).collect();
        let per_pin = t.scatter_gradient(&gx, &gy);
        let (tx, ty): (f64, f64) = (gx.iter().sum(), gy.iter().sum());
        let (sx, sy): (f64, f64) = (
            per_pin.iter().map(|p| p.0).sum(),
            per_pin.iter().map(|p| p.1).sum(),
        );
        // Gradient mass is redistributed, never created or lost (the
        // translation-invariance prerequisite).
        prop_assert!((tx - sx).abs() < 1e-9, "x: {tx} vs {sx}");
        prop_assert!((ty - sy).abs() < 1e-9, "y: {ty} vs {sy}");
    }

    #[test]
    fn translation_moves_everything_rigidly(pins in pins_strategy(12), dx in -50.0..50.0f64, dy in -50.0..50.0f64) {
        let mut t = SteinerTree::build(&pins);
        let wl0 = t.wirelength();
        let shifted: Vec<Point> = pins.iter().map(|p| *p + Point::new(dx, dy)).collect();
        t.update_pins(&shifted);
        prop_assert!((t.wirelength() - wl0).abs() < 1e-9);
        for i in 0..t.num_nodes() {
            let orig = SteinerTree::build(&pins).node_pos(i);
            let moved = t.node_pos(i);
            prop_assert!((moved.x - orig.x - dx).abs() < 1e-9);
            prop_assert!((moved.y - orig.y - dy).abs() < 1e-9);
        }
    }

    #[test]
    fn small_nets_are_optimal_vs_exhaustive_mst(pins in pins_strategy(5)) {
        // For ≤4 pins the construction is exact, so it is never longer than
        // the pin-to-pin MST (which is a feasible Steiner tree).
        prop_assume!(pins.len() >= 2 && pins.len() <= 4);
        let t = SteinerTree::build(&pins);
        // Exhaustive MST over pins (Prim on ≤4 nodes).
        let n = pins.len();
        let mut in_tree = vec![false; n];
        in_tree[0] = true;
        let mut mst = 0.0;
        for _ in 1..n {
            let mut best = (f64::INFINITY, 0usize);
            for i in 0..n {
                if in_tree[i] {
                    continue;
                }
                for j in 0..n {
                    if in_tree[j] {
                        let d = pins[i].manhattan(pins[j]);
                        if d < best.0 {
                            best = (d, i);
                        }
                    }
                }
            }
            in_tree[best.1] = true;
            mst += best.0;
        }
        prop_assert!(t.wirelength() <= mst + 1e-9, "tree {} > mst {mst}", t.wirelength());
    }

    #[test]
    fn table_degree4_matches_exact_hanan(pins in pins_exact(4)) {
        // Degree-4 topology tables are exact: same wirelength as the
        // Hanan-grid enumeration (the legacy exact construction), on any
        // pin geometry including ties and collinear runs.
        let exact = SteinerTree::build(&pins);
        let table = build_tree_with(&pins, TableConfig::default());
        prop_assert!(
            (table.wirelength() - exact.wirelength()).abs() < 1e-9,
            "table {} != exact {}",
            table.wirelength(),
            exact.wirelength()
        );
    }

    #[test]
    fn table_degree5to9_never_worse_than_prim(pins in pins_strategy(10)) {
        // Degrees 5–9: the table candidate is clamped against the Prim MST
        // length, so the emitted tree can never lose to the legacy
        // heuristic (the ≥1 % average win is measured by bench_rsmt).
        prop_assume!(pins.len() >= 5);
        let prim = SteinerTree::build(&pins);
        let table = build_tree_with(&pins, TableConfig::default());
        prop_assert!(
            table.wirelength() <= prim.wirelength() + 1e-9,
            "table {} > prim {}",
            table.wirelength(),
            prim.wirelength()
        );
        prop_assert_eq!(table.num_pins(), pins.len());
        // Still a valid rooted spanning structure.
        for i in 0..table.num_nodes() {
            let mut u = i;
            let mut hops = 0;
            while let Some(p) = table.parent_of(u) {
                u = p;
                hops += 1;
                prop_assert!(hops <= table.num_nodes(), "cycle through node {i}");
            }
            prop_assert_eq!(u, 0);
        }
    }

    #[test]
    fn tables_disabled_equals_legacy_build(pins in pins_strategy(16)) {
        // `TableConfig::disabled()` must reproduce `SteinerTree::build`
        // node for node — the bit-for-bit inertness the flow golden test
        // relies on.
        let legacy = SteinerTree::build(&pins);
        let off = build_tree_with(&pins, TableConfig::disabled());
        prop_assert_eq!(off.num_nodes(), legacy.num_nodes());
        for i in 0..off.num_nodes() {
            prop_assert_eq!(off.node_pos(i), legacy.node_pos(i));
            prop_assert_eq!(off.parent_of(i), legacy.parent_of(i));
        }
    }

    #[test]
    fn table_trees_are_bounded(pins in pins_strategy(10)) {
        // Pin-pin edges may be skewed (their Manhattan length counts the
        // implicit L, exactly as in the legacy exact-≤4 trees), but the
        // total must still bracket between HPWL and the star tree.
        prop_assume!(pins.len() >= 2);
        let t = build_tree_with(&pins, TableConfig::default());
        let bbox = Rect::bounding(pins.iter().copied()).expect("non-empty");
        prop_assert!(t.wirelength() >= bbox.half_perimeter() - 1e-9);
        let star: f64 = pins[1..].iter().map(|p| p.manhattan(pins[0])).sum();
        prop_assert!(t.wirelength() <= star + 1e-9);
    }
}

/// Bit-for-bit equality of two forests over the same netlist.
fn assert_forests_identical(a: &dtp_rsmt::SteinerForest, b: &dtp_rsmt::SteinerForest, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: net counts");
    for i in 0..a.len() {
        let n = dtp_netlist::NetId::new(i);
        match (a.tree(n), b.tree(n)) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.num_nodes(), y.num_nodes(), "{ctx}: net {i} node count");
                for k in 0..x.num_nodes() {
                    assert_eq!(x.node_pos(k), y.node_pos(k), "{ctx}: net {i} node {k}");
                    assert_eq!(x.parent_of(k), y.parent_of(k), "{ctx}: net {i} parent {k}");
                }
            }
            _ => panic!("{ctx}: net {i} present in one forest only"),
        }
    }
}

mod maintenance {
    use super::assert_forests_identical;
    use dtp_netlist::generate::{generate, GeneratorConfig};
    use dtp_netlist::{NetId, Netlist, Point};
    use dtp_rsmt::{
        build_forest, build_forest_with, build_tree_with, ForestScratch, SteinerForest,
        SteinerTree, TableConfig,
    };
    use proptest::prelude::*;

    /// Deterministic splitmix64 for position jitter.
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn jitter(xs: &mut [f64], ys: &mut [f64], movable: &[bool], round: u64, scale: f64) {
        for i in 0..xs.len() {
            if movable[i] {
                let a = mix(round.wrapping_mul(0x1000) + i as u64);
                let b = mix(a);
                xs[i] += scale * ((a % 1000) as f64 / 500.0 - 1.0);
                ys[i] += scale * ((b % 1000) as f64 / 500.0 - 1.0);
            }
        }
    }

    #[test]
    fn parallel_sweeps_match_serial_bit_for_bit() {
        // The chunk-ordered parallel sweeps must produce exactly the trees
        // the serial forms do, across several drift rounds, for both the
        // geometry (update) and topology (rebuild) paths, tables on and off.
        for cfg in [TableConfig::default(), TableConfig::disabled()] {
            let mut d = generate(&GeneratorConfig::named("par", 400)).unwrap();
            let mut serial = build_forest_with(&d.netlist, cfg);
            let mut par = serial.clone();
            let mut scratch = ForestScratch::new();
            let nets: Vec<NetId> = d
                .netlist
                .net_ids()
                .filter(|&n| serial.tree(n).is_some())
                .collect();
            let movable: Vec<bool> = d
                .netlist
                .cell_ids()
                .map(|c| !d.netlist.cell(c).is_fixed())
                .collect();
            let (mut xs, mut ys) = d.netlist.positions();
            for round in 0..4u64 {
                jitter(&mut xs, &mut ys, &movable, round, 2.5);
                d.netlist.set_positions(&xs, &ys);
                if round % 2 == 0 {
                    serial.update_nets(&d.netlist, &nets);
                    par.update_nets_into(&d.netlist, &nets, &mut scratch);
                } else {
                    serial.rebuild_nets(&d.netlist, &nets);
                    par.rebuild_nets_into(&d.netlist, &nets, &mut scratch);
                }
                assert_forests_identical(
                    &serial,
                    &par,
                    &format!("tables={} round {round}", cfg.enabled),
                );
            }
            assert_eq!(serial.stats(), par.stats(), "counters diverged");
        }
    }

    #[test]
    fn cached_rebuild_matches_fresh_build() {
        // After any drift, a rebuild sweep over the maintained forest
        // (sequence-cache hits and all) must equal a from-scratch
        // tables-backed build of the same placement, node for node.
        let mut d = generate(&GeneratorConfig::named("seqcache", 350)).unwrap();
        let mut forest = build_forest_with(&d.netlist, TableConfig::default());
        let nets: Vec<NetId> = d
            .netlist
            .net_ids()
            .filter(|&n| forest.tree(n).is_some())
            .collect();
        let movable: Vec<bool> = d
            .netlist
            .cell_ids()
            .map(|c| !d.netlist.cell(c).is_fixed())
            .collect();
        let (mut xs, mut ys) = d.netlist.positions();
        for round in 0..6u64 {
            // Small drifts keep many pin orders intact (cache hits);
            // occasional large rounds force real topology changes.
            let scale = if round % 3 == 2 { 25.0 } else { 0.8 };
            jitter(&mut xs, &mut ys, &movable, round, scale);
            d.netlist.set_positions(&xs, &ys);
            forest.rebuild_nets(&d.netlist, &nets);
            let fresh = build_forest_with(&d.netlist, TableConfig::default());
            assert_forests_identical(&forest, &fresh, &format!("round {round}"));
        }
        let s = forest.stats();
        assert!(s.seq_hits > 0, "drift loop produced no sequence-cache hits");
        assert!(s.seq_rebuilds > 0, "drift loop never rebuilt a topology");
    }

    #[test]
    fn legacy_build_forest_unchanged_by_tables() {
        // `build_forest` (used by external re-analysis consumers) must stay
        // on the legacy constructions regardless of the table machinery.
        let d = generate(&GeneratorConfig::named("legacy", 200)).unwrap();
        let a = build_forest(&d.netlist);
        let b = build_forest_with(&d.netlist, TableConfig::disabled());
        assert_forests_identical(&a, &b, "legacy vs disabled");
        let s = a.stats();
        assert_eq!(s.table, 0, "legacy build must not use tables");
    }

    fn pin_positions(nl: &Netlist, net: NetId) -> Vec<Point> {
        nl.net(net).pins().iter().map(|&p| nl.pin_position(p)).collect()
    }

    /// Every tree of the arena forest equals its owned reference bit for bit
    /// (coordinates, parents, pre-order, coordinate sources).
    fn assert_matches_references(
        forest: &SteinerForest,
        refs: &[Option<SteinerTree>],
        ctx: &str,
    ) -> Result<(), proptest::TestCaseError> {
        for (i, want) in refs.iter().enumerate() {
            let got = forest.tree(NetId::new(i));
            let (Some(got), Some(want)) = (got, want.as_ref()) else {
                prop_assert!(got.is_none() && want.is_none(), "{ctx}: net {i} tree presence");
                continue;
            };
            let want = want.view();
            prop_assert_eq!(got.num_pins(), want.num_pins(), "{ctx}: net {i} pins");
            prop_assert_eq!(got.num_nodes(), want.num_nodes(), "{ctx}: net {i} nodes");
            for k in 0..got.num_nodes() {
                let (a, b) = (got.node_pos(k), want.node_pos(k));
                prop_assert_eq!(
                    (a.x.to_bits(), a.y.to_bits()),
                    (b.x.to_bits(), b.y.to_bits()),
                    "{ctx}: net {i} node {k}"
                );
                prop_assert_eq!(got.parent_of(k), want.parent_of(k), "{ctx}: net {i} parent {k}");
            }
            prop_assert_eq!(got.preorder(), want.preorder(), "{ctx}: net {i} pre-order");
            prop_assert_eq!(got.x_sources(), want.x_sources(), "{ctx}: net {i} x sources");
            prop_assert_eq!(got.y_sources(), want.y_sources(), "{ctx}: net {i} y sources");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn arena_forest_equals_per_net_references(
            seed in 0u64..1_000_000,
            // (rebuild?, net stride, stride offset, jitter scale selector)
            ops in proptest::collection::vec((0u8..2, 1usize..4, 0usize..3, 0usize..3), 1..5),
        ) {
            // Random build → update → rebuild sequences over net subsets, at
            // drifts from "orders mostly kept" to "every topology changes":
            // the in-place parallel sweeps, the serial forms and per-net
            // owned trees (`build_tree_with` / `update_pins`) must agree bit
            // for bit, whatever the pool width. Every sequence ends with a
            // large-drift rebuild of all nets, which changes node counts
            // inside the fixed arena ranges.
            let mut ops = ops;
            ops.push((1, 1, 0, 2));
            for cfg in [TableConfig::default(), TableConfig::disabled()] {
                for width in [1usize, 2, 4] {
                    let ctx = format!("tables={} width={width}", cfg.enabled);
                    let mut d = generate(&GeneratorConfig::named("arena", 1400)).unwrap();
                    let movable: Vec<bool> =
                        d.netlist.cell_ids().map(|c| !d.netlist.cell(c).is_fixed()).collect();
                    let (mut xs, mut ys) = d.netlist.positions();
                    let pool = rayon::Pool::new(width);
                    let outcome: Result<(), proptest::TestCaseError> = rayon::with_pool(&pool, || {
                        let mut par = build_forest_with(&d.netlist, cfg);
                        let mut serial = par.clone();
                        let mut scratch = ForestScratch::new();
                        let mut refs: Vec<Option<SteinerTree>> = d
                            .netlist
                            .net_ids()
                            .map(|n| {
                                let pins = pin_positions(&d.netlist, n);
                                par.tree(n).map(|_| build_tree_with(&pins, cfg))
                            })
                            .collect();
                        assert_matches_references(&par, &refs, &format!("{ctx} build"))?;
                        let mut resized = 0usize;
                        for (round, &(rebuild, stride, offset, scale)) in ops.iter().enumerate() {
                            let scale = [0.6, 5.0, 45.0][scale];
                            jitter(&mut xs, &mut ys, &movable, seed + round as u64, scale);
                            d.netlist.set_positions(&xs, &ys);
                            let nets: Vec<NetId> = d
                                .netlist
                                .net_ids()
                                .filter(|n| refs[n.index()].is_some())
                                .filter(|n| n.index() % stride == offset % stride)
                                .collect();
                            if rebuild == 1 {
                                par.rebuild_nets_into(&d.netlist, &nets, &mut scratch);
                                serial.rebuild_nets(&d.netlist, &nets);
                            } else {
                                par.update_nets_into(&d.netlist, &nets, &mut scratch);
                                serial.update_nets(&d.netlist, &nets);
                            }
                            for &n in &nets {
                                let pins = pin_positions(&d.netlist, n);
                                let tree = refs[n.index()].as_mut().expect("net has a tree");
                                if rebuild == 1 {
                                    let fresh = build_tree_with(&pins, cfg);
                                    resized += usize::from(fresh.num_nodes() != tree.num_nodes());
                                    *tree = fresh;
                                } else {
                                    tree.update_pins(&pins);
                                }
                            }
                            let op = format!("{ctx} op {round}");
                            assert_matches_references(&par, &refs, &format!("{op} parallel"))?;
                            assert_matches_references(&serial, &refs, &format!("{op} serial"))?;
                        }
                        prop_assert_eq!(par.stats(), serial.stats(), "{ctx}: counters diverged");
                        prop_assert!(resized > 0, "{ctx}: no rebuild changed a node count");
                        Ok(())
                    });
                    outcome?;
                }
            }
        }
    }
}
