//! Equivalence tests for incremental timing analysis: after any set of cell
//! moves, `analyze_incremental` must match a from-scratch analysis exactly.

use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_netlist::{CellId, Point};
use dtp_rsmt::{build_forest, build_forest_with, ForestScratch, TableConfig};
use dtp_sta::Timer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_analyses_equal(a: &dtp_sta::Analysis, b: &dtp_sta::Analysis) {
    for i in 0..a.at.len() {
        assert!(
            (a.at[i] - b.at[i]).abs() < 1e-9,
            "at[{i}]: {} vs {}",
            a.at[i],
            b.at[i]
        );
        assert!((a.slew[i] - b.slew[i]).abs() < 1e-9);
        assert!((a.at_early[i] - b.at_early[i]).abs() < 1e-9);
        let (sa, sb) = (a.slack[i], b.slack[i]);
        assert!(sa == sb || (sa - sb).abs() < 1e-9, "slack[{i}]: {sa} vs {sb}");
        let (ra, rb) = (a.rat[i], b.rat[i]);
        assert!(ra == rb || (ra - rb).abs() < 1e-9, "rat[{i}]: {ra} vs {rb}");
    }
    assert!((a.wns() - b.wns()).abs() < 1e-9);
    assert!((a.tns() - b.tns()).abs() < 1e-9);
}

fn run_case(cells: usize, moves: usize, seed: u64, smoothed: bool) {
    let mut design = generate(&GeneratorConfig::named("inc", cells)).expect("generator");
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib).expect("timer builds");
    let mut forest = build_forest(&design.netlist);
    let prev = if smoothed {
        timer.analyze_smoothed(&design.netlist, &forest)
    } else {
        timer.analyze(&design.netlist, &forest)
    };

    // Move a random subset of cells.
    let mut rng = StdRng::seed_from_u64(seed);
    let movable: Vec<CellId> = design.netlist.movable_cells().collect();
    let mut moved = Vec::new();
    for _ in 0..moves {
        let c = movable[rng.gen_range(0..movable.len())];
        let pos = design.netlist.cell(c).pos();
        design.netlist.set_cell_pos(
            c,
            Point::new(pos.x + rng.gen_range(-3.0..3.0), pos.y + rng.gen_range(-3.0..3.0)),
        );
        moved.push(c);
    }
    forest.update_positions(&design.netlist);

    let incr = timer.analyze_incremental(&design.netlist, &forest, &prev, &moved, true);
    let full = if smoothed {
        timer.analyze_smoothed(&design.netlist, &forest)
    } else {
        timer.analyze(&design.netlist, &forest)
    };
    assert_analyses_equal(&incr, &full);
}

#[test]
fn single_move_exact_mode() {
    run_case(250, 1, 1, false);
}

#[test]
fn few_moves_exact_mode() {
    run_case(250, 8, 2, false);
}

#[test]
fn many_moves_exact_mode() {
    run_case(250, 100, 3, false);
}

#[test]
fn smoothed_mode_matches_too() {
    run_case(200, 5, 4, true);
}

#[test]
fn no_moves_is_identity() {
    let design = generate(&GeneratorConfig::named("inc0", 150)).expect("generator");
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib).expect("timer builds");
    let forest = build_forest(&design.netlist);
    let prev = timer.analyze(&design.netlist, &forest);
    let incr = timer.analyze_incremental(&design.netlist, &forest, &prev, &[], true);
    assert_analyses_equal(&incr, &prev);
}

#[test]
fn repeated_incremental_stays_consistent() {
    // Chain several incremental updates; the result must still match a
    // from-scratch analysis (no drift accumulation).
    let mut design = generate(&GeneratorConfig::named("inc_chain", 200)).expect("generator");
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib).expect("timer builds");
    let mut forest = build_forest(&design.netlist);
    let mut analysis = timer.analyze(&design.netlist, &forest);
    let mut rng = StdRng::seed_from_u64(99);
    let movable: Vec<CellId> = design.netlist.movable_cells().collect();
    for _ in 0..5 {
        let c = movable[rng.gen_range(0..movable.len())];
        let pos = design.netlist.cell(c).pos();
        design
            .netlist
            .set_cell_pos(c, Point::new(pos.x + 1.5, pos.y - 0.5));
        forest.update_positions(&design.netlist);
        analysis = timer.analyze_incremental(&design.netlist, &forest, &analysis, &[c], true);
    }
    let full = timer.analyze(&design.netlist, &forest);
    assert_analyses_equal(&analysis, &full);
}

#[test]
fn tables_forest_incremental_matches_full() {
    // Incremental STA over a topology-table forest maintained with the
    // parallel scratch sweeps must still match a from-scratch analysis:
    // the timer only sees trees, so the table backend and sequence cache
    // must be invisible to it.
    let mut design = generate(&GeneratorConfig::named("inc_tab", 250)).expect("generator");
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib).expect("timer builds");
    let mut forest = build_forest_with(&design.netlist, TableConfig::default());
    let prev = timer.analyze(&design.netlist, &forest);

    let mut rng = StdRng::seed_from_u64(7);
    let movable: Vec<CellId> = design.netlist.movable_cells().collect();
    let mut moved = Vec::new();
    let mut dirty = Vec::new();
    for _ in 0..60 {
        let c = movable[rng.gen_range(0..movable.len())];
        let pos = design.netlist.cell(c).pos();
        design.netlist.set_cell_pos(
            c,
            Point::new(pos.x + rng.gen_range(-4.0..4.0), pos.y + rng.gen_range(-4.0..4.0)),
        );
        moved.push(c);
        for &pin in design.netlist.cell(c).pins() {
            if let Some(nid) = design.netlist.pin(pin).net() {
                if forest.tree(nid).is_some() && !dirty.contains(&nid) {
                    dirty.push(nid);
                }
            }
        }
    }
    let mut scratch = ForestScratch::new();
    forest.rebuild_nets_into(&design.netlist, &dirty, &mut scratch);

    let incr = timer.analyze_incremental(&design.netlist, &forest, &prev, &moved, true);
    let full = timer.analyze(&design.netlist, &forest);
    assert_analyses_equal(&incr, &full);
}

#[test]
fn topology_rebuild_that_changes_node_counts_matches_full() {
    // Each net owns a fixed node range of the Elmore arena, sized for the
    // largest tree its degree allows. Rebuilding dirty nets with a new
    // topology changes how many of those nodes are live; both directions
    // (growing and shrinking) must leave the incremental analysis equal to a
    // fresh one, exact and smoothed, bit for bit.
    let mut design = generate(&GeneratorConfig::named("inc_topo", 300)).expect("generator");
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib).expect("timer builds");
    let mut forest = build_forest(&design.netlist);
    let mut exact = timer.analyze(&design.netlist, &forest);
    let mut smoothed = timer.analyze_smoothed(&design.netlist, &forest);

    let mut rng = StdRng::seed_from_u64(11);
    let movable: Vec<CellId> = design.netlist.movable_cells().collect();
    let (mut grew, mut shrank) = (0usize, 0usize);
    for round in 0..6 {
        let mut moved = Vec::new();
        let mut dirty = Vec::new();
        for _ in 0..40 {
            let c = movable[rng.gen_range(0..movable.len())];
            let pos = design.netlist.cell(c).pos();
            // Odd rounds align cells on a coarse grid (Steiner points vanish),
            // even rounds scatter them again (they come back).
            let to = if round % 2 == 1 {
                Point::new((pos.x / 8.0).round() * 8.0, (pos.y / 8.0).round() * 8.0)
            } else {
                Point::new(pos.x + rng.gen_range(-9.0..9.0), pos.y + rng.gen_range(-9.0..9.0))
            };
            design.netlist.set_cell_pos(c, to);
            moved.push(c);
            for &pin in design.netlist.cell(c).pins() {
                if let Some(nid) = design.netlist.pin(pin).net() {
                    if forest.tree(nid).is_some() && !dirty.contains(&nid) {
                        dirty.push(nid);
                    }
                }
            }
        }
        let before: Vec<usize> =
            dirty.iter().map(|&n| forest.tree(n).unwrap().num_nodes()).collect();
        forest.rebuild_nets(&design.netlist, &dirty);
        for (&n, &b) in dirty.iter().zip(&before) {
            let a = forest.tree(n).unwrap().num_nodes();
            grew += usize::from(a > b);
            shrank += usize::from(a < b);
        }

        exact = timer.analyze_incremental(&design.netlist, &forest, &exact, &moved, true);
        smoothed = timer.analyze_incremental(&design.netlist, &forest, &smoothed, &moved, false);
        let full_exact = timer.analyze(&design.netlist, &forest);
        let full_smoothed = timer.analyze_smoothed(&design.netlist, &forest);
        for (incr, full) in [(&exact, &full_exact), (&smoothed, &full_smoothed)] {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&incr.at), bits(&full.at), "round {round}");
            assert_eq!(bits(&incr.at_early), bits(&full.at_early), "round {round}");
            assert_eq!(bits(&incr.slew), bits(&full.slew), "round {round}");
            assert_eq!(bits(&incr.slack), bits(&full.slack), "round {round}");
            assert_eq!(bits(&incr.rat), bits(&full.rat), "round {round}");
            for &n in &dirty {
                let (a, b) = (incr.elmore(n).unwrap(), full.elmore(n).unwrap());
                assert_eq!(a.root_load().to_bits(), b.root_load().to_bits());
                for node in 0..design.netlist.net(n).degree() {
                    assert_eq!(a.delay_at(node).to_bits(), b.delay_at(node).to_bits());
                    assert_eq!(a.impulse_sq_at(node).to_bits(), b.impulse_sq_at(node).to_bits());
                }
            }
        }
        // Gradients read the tape the incremental path patched in place.
        let g_incr = timer.gradients(&design.netlist, &smoothed, &forest, 0.04, 0.0004);
        let g_full = timer.gradients(&design.netlist, &full_smoothed, &forest, 0.04, 0.0004);
        assert_eq!(g_incr.pin_grad_x, g_full.pin_grad_x, "round {round}");
        assert_eq!(g_incr.pin_grad_y, g_full.pin_grad_y, "round {round}");
    }
    assert!(grew > 0 && shrank > 0, "node counts must move both ways: +{grew} −{shrank}");
}

mod drift_properties {
    use super::*;
    use dtp_sta::AnalysisScratch;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Chained incremental analyses through the scratch ping-pong
        /// (`analyze_incremental_into` + `recycle`) never drift: after any
        /// random sequence of move batches, the chained result matches a
        /// from-scratch analysis.
        #[test]
        fn chained_incremental_never_drifts(
            seed in 0u64..1000,
            hops in 1usize..6,
            batch in 1usize..9,
            smoothed_sel in 0usize..2,
        ) {
            let smoothed = smoothed_sel == 1;
            let mut design =
                generate(&GeneratorConfig::named("inc_prop", 180)).expect("generator");
            let lib = synthetic_pdk();
            let timer = Timer::new(&design, &lib).expect("timer builds");
            let mut forest = build_forest(&design.netlist);
            let mut scratch = AnalysisScratch::new();
            let mut analysis = if smoothed {
                timer.analyze_smoothed(&design.netlist, &forest)
            } else {
                timer.analyze(&design.netlist, &forest)
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let movable: Vec<CellId> = design.netlist.movable_cells().collect();
            for _ in 0..hops {
                let mut moved = Vec::new();
                for _ in 0..batch {
                    let c = movable[rng.gen_range(0..movable.len())];
                    let pos = design.netlist.cell(c).pos();
                    design.netlist.set_cell_pos(
                        c,
                        Point::new(
                            pos.x + rng.gen_range(-5.0..5.0),
                            pos.y + rng.gen_range(-5.0..5.0),
                        ),
                    );
                    moved.push(c);
                }
                forest.update_positions(&design.netlist);
                let next = timer.analyze_incremental_into(
                    &design.netlist,
                    &forest,
                    &analysis,
                    &moved,
                    true,
                    &mut scratch,
                );
                scratch.recycle(analysis);
                analysis = next;
            }
            let full = if smoothed {
                timer.analyze_smoothed(&design.netlist, &forest)
            } else {
                timer.analyze(&design.netlist, &forest)
            };
            for i in 0..full.at.len() {
                prop_assert!((analysis.at[i] - full.at[i]).abs() < 1e-9);
                prop_assert!((analysis.slew[i] - full.slew[i]).abs() < 1e-9);
                prop_assert!((analysis.at_early[i] - full.at_early[i]).abs() < 1e-9);
                let (ra, rb) = (analysis.rat[i], full.rat[i]);
                prop_assert!(ra == rb || (ra - rb).abs() < 1e-9);
            }
            prop_assert!((analysis.wns() - full.wns()).abs() < 1e-9);
            prop_assert!((analysis.tns() - full.tns()).abs() < 1e-9);
        }
    }
}

#[test]
fn skipping_rat_keeps_metrics_exact() {
    let mut design = generate(&GeneratorConfig::named("inc_norat", 200)).expect("generator");
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib).expect("timer builds");
    let mut forest = build_forest(&design.netlist);
    let prev = timer.analyze(&design.netlist, &forest);
    let movable: Vec<CellId> = design.netlist.movable_cells().collect();
    let c = movable[3];
    let pos = design.netlist.cell(c).pos();
    design.netlist.set_cell_pos(c, Point::new(pos.x + 4.0, pos.y));
    forest.update_positions(&design.netlist);
    let fast = timer.analyze_incremental(&design.netlist, &forest, &prev, &[c], false);
    let full = timer.analyze(&design.netlist, &forest);
    // WNS/TNS/slacks exact even without the RAT sweep.
    assert!((fast.wns() - full.wns()).abs() < 1e-9);
    assert!((fast.tns() - full.tns()).abs() < 1e-9);
    for &p in full.endpoints() {
        assert!((fast.slack[p.index()] - full.slack[p.index()]).abs() < 1e-9);
    }
    // RATs are carried over from prev (stale by design).
    assert_eq!(fast.rat, prev.rat);
}
