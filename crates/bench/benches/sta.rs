//! Criterion benchmarks of the full differentiable timer on generated
//! designs: exact analysis, smoothed analysis, and the backward gradient
//! sweep — the three per-iteration timing costs of the placement flow.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_rsmt::build_forest;
use dtp_sta::Timer;
use std::hint::black_box;

fn bench_sta(c: &mut Criterion) {
    let lib = synthetic_pdk();
    let mut group = c.benchmark_group("sta");
    group.sample_size(20);
    for cells in [500usize, 2000, 8000] {
        let design = generate(&GeneratorConfig::named("bench", cells))
            .expect("generator succeeds");
        let timer = Timer::new(&design, &lib).expect("timer builds");
        let forest = build_forest(&design.netlist);
        group.bench_with_input(BenchmarkId::new("analyze_exact", cells), &cells, |b, _| {
            b.iter(|| black_box(timer.analyze(&design.netlist, &forest)))
        });
        group.bench_with_input(
            BenchmarkId::new("analyze_smoothed", cells),
            &cells,
            |b, _| b.iter(|| black_box(timer.analyze_smoothed(&design.netlist, &forest))),
        );
        let analysis = timer.analyze_smoothed(&design.netlist, &forest);
        group.bench_with_input(BenchmarkId::new("gradients", cells), &cells, |b, _| {
            b.iter(|| {
                black_box(timer.gradients(&design.netlist, &analysis, &forest, 0.04, 0.0004))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sta, bench_incremental);
criterion_main!(benches);

fn bench_incremental(c: &mut Criterion) {
    use dtp_netlist::{CellId, Point};
    use dtp_sta::AnalysisScratch;
    let lib = synthetic_pdk();
    let mut group = c.benchmark_group("sta_incremental");
    group.sample_size(20);
    let cells = 4000usize;
    let mut design = generate(&GeneratorConfig::named("bench_inc", cells))
        .expect("generator succeeds");
    let timer = Timer::new(&design, &lib).expect("timer builds");
    let mut forest = build_forest(&design.netlist);
    let movable: Vec<CellId> = design.netlist.movable_cells().collect();
    // Sweep the moved-cell fraction: 0.1 %, 1 % (a detailed-placement pass)
    // and 10 % (where the incremental sweep stops paying: ≈ 1.2× a full one).
    for permille in [1usize, 10, 100] {
        let n_moved = (movable.len() * permille / 1000).max(1);
        let prev = timer.analyze(&design.netlist, &forest);
        let moved: Vec<CellId> = movable.iter().copied().take(n_moved).collect();
        for &c in &moved {
            let pos = design.netlist.cell(c).pos();
            design.netlist.set_cell_pos(c, Point::new(pos.x + 2.0, pos.y + 1.0));
        }
        forest.update_positions(&design.netlist);
        let label = format!("{:.1}%", permille as f64 / 10.0);
        group.bench_with_input(
            BenchmarkId::new("incremental", &label),
            &n_moved,
            |b, _| {
                b.iter(|| {
                    black_box(timer.analyze_incremental(
                        &design.netlist,
                        &forest,
                        &prev,
                        &moved,
                        false,
                    ))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("incremental_scratch", &label),
            &n_moved,
            |b, _| {
                let mut scratch = AnalysisScratch::new();
                b.iter(|| {
                    let a = timer.analyze_incremental_into(
                        &design.netlist,
                        &forest,
                        &prev,
                        &moved,
                        false,
                        &mut scratch,
                    );
                    scratch.recycle(black_box(a));
                })
            },
        );
    }
    group.bench_function("full_reanalysis", |b| {
        b.iter(|| black_box(timer.analyze(&design.netlist, &forest)))
    });
    group.finish();
}
