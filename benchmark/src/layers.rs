//! Every call the harness makes into the layer crates: input generation,
//! the set-up replay, the output checks and the per-layer probes.
//!
//! Only constructors and `_into` entry points are used; the allocating twins
//! and the inertness knobs are slated for deletion and must not become a
//! compile-time dependency of the benchmark.

use crate::span::Tracer;
use crate::workloads::DesignSpec;
use dtp_liberty::synth::synthetic_pdk;
use dtp_liberty::Library;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_netlist::{bookshelf, iccad, CellId, Design, NetId};
use dtp_place::detail::DetailPlacer;
use dtp_place::{
    check_legal, AbacusLegalizer, DensityModel, DensityResult, DensityScratch, NesterovOptimizer,
    PoissonScratch, PoissonSolution, Spectral2D, WirelengthModel, WirelengthScratch,
};
use dtp_route::{CongestionPenalty, RudyMap};
use dtp_rsmt::{build_forest, build_forest_with, ForestScratch, TableConfig};
use dtp_sta::{AnalysisScratch, PathScratch, PathSet, PositionGradients, Timer};
use rayon::{with_pool, Pool};
use std::hint::black_box;
use std::path::{Path, PathBuf};

// `FlowConfig::default()` values the replay and the probes must mirror.
const BINS: usize = 64;
const TARGET_DENSITY: f64 = 1.0;
const ROUTE_GRID: usize = 32;
const ROUTE_CAPACITY: f64 = 0.5;
/// `DiffConfig` defaults of `--mode differentiable`.
const T1: f64 = 0.04;
const T2: f64 = 0.0004;
/// `PathExtractConfig` defaults.
const TOP_K: usize = 32;
const PATH_DECAY: f64 = 0.9;

const WARMUP: usize = 2;
const TIMED: usize = 7;

/// splitmix64: the harness's only random source, seeded from `--seed`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// What `write_inputs` left on disk for one design.
pub struct Inputs {
    /// `<dir>/<name>`: `dtp place` takes this prefix.
    pub prefix: PathBuf,
    pub cells: usize,
    pub nets: usize,
    pub pins: usize,
}

/// Generates the design of `spec` and writes the files `dtp gen` writes
/// (`.v .def .sdc .lib` + Bookshelf); the program sees only those files.
pub fn write_inputs(
    spec: &DesignSpec,
    seed: u64,
    smoke: bool,
    dir: &Path,
) -> Result<Inputs, String> {
    let mut cfg =
        GeneratorConfig::named(spec.name, if smoke { spec.cells / 10 } else { spec.cells });
    cfg.depth = spec.depth;
    cfg.utilization = spec.utilization;
    cfg.seed = spec.seed ^ seed;
    let design = generate(&cfg).map_err(|e| e.to_string())?;
    bookshelf::write_design(&design, dir).map_err(|e| e.to_string())?;
    iccad::write_iccad15(&design, dir).map_err(|e| e.to_string())?;
    let prefix = dir.join(spec.name);
    std::fs::write(
        prefix.with_extension("lib"),
        dtp_liberty::write(&synthetic_pdk()),
    )
    .map_err(|e| e.to_string())?;
    let nl = &design.netlist;
    Ok(Inputs {
        prefix,
        cells: nl.num_cells(),
        nets: nl.num_nets(),
        pins: nl.num_pins(),
    })
}

/// Replays, in order, the constructors a `dtp place` run goes through before
/// its first placement iteration; returns the wall time of the whole replay.
pub fn setup_replay(tr: &mut Tracer, prefix: &Path, threads: usize) -> Result<f64, String> {
    let pool = Pool::new(threads);
    with_pool(&pool, || {
        let id = tr.begin("setup");
        let (design, _) = tr.time("setup.read_iccad15", || iccad::read_iccad15(prefix));
        let design = design.map_err(|e| e.to_string())?;
        let nl = &design.netlist;
        let (lib, _) = tr.time("setup.synthetic_pdk", synthetic_pdk);
        let (timer, _) = tr.time("setup.timer_new", || Timer::new(&design, &lib));
        let timer = timer.map_err(|e| e.to_string())?;
        let (forest, _) = tr.time("setup.build_forest", || {
            build_forest_with(nl, TableConfig::default())
        });
        let (wl, _) = tr.time("setup.wirelength_model", || WirelengthModel::new(nl));
        let (density, _) = tr.time("setup.density_model", || {
            let model = DensityModel::with_options(&design, BINS, BINS, TARGET_DENSITY, true);
            let mut scratch = DensityScratch::new();
            model.presize_scratch(&mut scratch);
            (model, scratch)
        });
        let (opt, _) = tr.time("setup.nesterov_new", || {
            NesterovOptimizer::new(&design, design.region.width() / BINS as f64)
        });
        let (scratch, _) = tr.time("setup.analysis_presize", || {
            let mut s = AnalysisScratch::new();
            s.presize(nl.num_pins(), nl.num_nets());
            s
        });
        let secs = tr.end(id);
        black_box((&timer, &forest, &wl, &density, &opt, &scratch));
        Ok(secs)
    })
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Qor {
    pub hpwl: f64,
    pub wns: f64,
    pub tns: f64,
}

/// The input design with the placement `dtp place --out` wrote.
pub struct Placed {
    pub design: Design,
    pub lib: Library,
    pub xs: Vec<f64>,
    pub ys: Vec<f64>,
}

/// Check "the `--out` files parse": reads the input bundle the program read
/// and the Bookshelf files it wrote, and moves the output positions onto the
/// input design (cells matched by index, names verified).
pub fn load_output(in_prefix: &Path, out_prefix: &Path) -> Result<Placed, String> {
    let mut design = iccad::read_iccad15(in_prefix).map_err(|e| format!("input: {e}"))?;
    let out = bookshelf::read_design(out_prefix).map_err(|e| format!("output: {e}"))?;
    let (nl, onl) = (&design.netlist, &out.netlist);
    if nl.num_cells() != onl.num_cells() {
        return Err(format!(
            "output has {} cells, input {}",
            onl.num_cells(),
            nl.num_cells()
        ));
    }
    if let Some(c) = nl
        .cell_ids()
        .find(|&c| nl.cell(c).name() != onl.cell(c).name())
    {
        return Err(format!(
            "cell {} is `{}` in the output",
            nl.cell(c).name(),
            onl.cell(c).name()
        ));
    }
    let (xs, ys) = onl.positions();
    design.netlist.set_positions(&xs, &ys);
    Ok(Placed {
        design,
        lib: synthetic_pdk(),
        xs,
        ys,
    })
}

/// Check "the placement is legal".
pub fn legality(p: &Placed) -> Result<(), String> {
    let violations = check_legal(&p.design, &p.xs, &p.ys);
    match violations.first() {
        None => Ok(()),
        Some(first) => Err(format!("{} violation(s), first: {first}", violations.len())),
    }
}

/// HPWL / WNS / TNS of the written placement, recomputed the way the flow
/// computes its final report.
pub fn recompute_qor(p: &Placed) -> Result<Qor, String> {
    let nl = &p.design.netlist;
    let hpwl = WirelengthModel::new(nl).hpwl(&p.xs, &p.ys);
    let timer = Timer::new(&p.design, &p.lib).map_err(|e| e.to_string())?;
    let forest = build_forest(nl);
    let analysis = timer.analyze_into(nl, &forest, &mut AnalysisScratch::new());
    Ok(Qor {
        hpwl,
        wns: analysis.wns(),
        tns: analysis.tns(),
    })
}

/// One per-layer probe result: metric name, value in the metric's unit, and
/// the number of timed calls behind it.
pub type Probe = (&'static str, f64, usize);

/// Median seconds of `TIMED` calls of `f` after `WARMUP` untimed ones; `f`
/// returns the duration of the part of the call that counts.
fn sample(mut f: impl FnMut() -> f64) -> f64 {
    let times: Vec<f64> = (0..WARMUP + TIMED).map(|_| f()).skip(WARMUP).collect();
    median(&times)
}

/// A 1 % cell sample that `toggle` displaces by one row height and back on
/// alternate calls, so every timed call sees freshly moved cells.
struct Mover<'a> {
    xs: &'a [f64],
    ys: &'a [f64],
    ys_moved: Vec<f64>,
    displaced: bool,
}

impl Mover<'_> {
    fn toggle(&mut self, design: &mut Design) {
        self.displaced = !self.displaced;
        design.netlist.set_positions(
            self.xs,
            if self.displaced {
                &self.ys_moved
            } else {
                self.ys
            },
        );
    }

    /// Back to the output positions.
    fn home(&mut self, design: &mut Design) {
        if self.displaced {
            self.toggle(design);
        }
    }
}

/// Times calls into each layer's public functions on the workload's design at
/// the positions the traced run wrote. `in_bytes` is the size of the input
/// bundle `read_iccad15` reads; `scratch_dir` takes the `netlist.write` files.
pub fn probes(
    tr: &mut Tracer,
    in_prefix: &Path,
    in_bytes: u64,
    mut placed: Placed,
    scratch_dir: &Path,
    seed: u64,
    threads: usize,
) -> Vec<Probe> {
    let pool = Pool::new(threads);
    let mut out = with_pool(&pool, || {
        layer_probes(tr, in_prefix, in_bytes, &mut placed, scratch_dir, seed)
    });
    out.extend(rayon_probes(tr, &placed));
    out
}

fn layer_probes(
    tr: &mut Tracer,
    in_prefix: &Path,
    in_bytes: u64,
    placed: &mut Placed,
    scratch_dir: &Path,
    seed: u64,
) -> Vec<Probe> {
    let Placed {
        design,
        lib,
        xs,
        ys,
    } = placed;
    let (xs, ys) = (&*xs, &*ys);
    let mut out: Vec<Probe> = Vec::new();
    let mut rng = Rng(seed ^ 0x70_726f_6265);
    let n_cells = design.netlist.num_cells() as f64;
    let n_pins = design.netlist.num_pins() as f64;
    let row_h = design.row_height();

    // A seeded 1 % sample of the movable cells, displaced by one row height.
    let movable: Vec<CellId> = design.netlist.movable_cells().collect();
    let moved: Vec<CellId> = movable
        .iter()
        .copied()
        .filter(|_| rng.unit() < 0.01)
        .collect();
    let mut ys_moved = ys.clone();
    for c in &moved {
        ys_moved[c.index()] += row_h;
    }
    let mut mover = Mover {
        xs,
        ys,
        ys_moved,
        displaced: false,
    };
    let all_nets: Vec<NetId> = design.netlist.net_ids().collect();
    let every_tenth: Vec<NetId> = all_nets.iter().copied().step_by(10).collect();
    let pins_of = |design: &Design, nets: &[NetId]| -> f64 {
        nets.iter()
            .map(|&n| design.netlist.net(n).degree())
            .sum::<usize>() as f64
    };
    // Nets touching a moved cell: the dirty set of a 1 % move.
    let dirty: Vec<NetId> = {
        let nl = &design.netlist;
        let mut seen = vec![false; nl.num_nets()];
        let mut nets = Vec::new();
        for &c in &moved {
            for &p in nl.cell(c).pins() {
                if let Some(n) = nl.pin(p).net() {
                    if !std::mem::replace(&mut seen[n.index()], true) {
                        nets.push(n);
                    }
                }
            }
        }
        nets
    };

    // --- netlist ---------------------------------------------------------
    let read_s = sample(|| {
        tr.time("netlist.read", || black_box(iccad::read_iccad15(in_prefix)))
            .1
    });
    out.push(("netlist.read_s", read_s, TIMED));
    out.push(("netlist.read_mb_s", in_bytes as f64 / 1e6 / read_s, TIMED));
    let write_s = sample(|| {
        tr.time("netlist.write", || {
            bookshelf::write_design(design, scratch_dir)
        })
        .1
    });
    out.push(("netlist.write_s", write_s, TIMED));

    // --- rsmt ------------------------------------------------------------
    let build_s = sample(|| {
        tr.time("rsmt.build", || {
            black_box(build_forest_with(&design.netlist, TableConfig::default()))
        })
        .1
    });
    out.push(("rsmt.build_ns_pin", build_s * 1e9 / n_pins, TIMED));
    let mut forest = build_forest_with(&design.netlist, TableConfig::default());
    let mut fscratch = ForestScratch::new();
    fscratch.presize(design.netlist.num_nets());
    let update_s = sample(|| {
        mover.toggle(design);
        tr.time("rsmt.update", || {
            forest.update_nets_into(&design.netlist, &all_nets, &mut fscratch)
        })
        .1
    });
    out.push((
        "rsmt.update_ns_pin",
        update_s * 1e9 / pins_of(design, &all_nets),
        TIMED,
    ));
    let rebuild_s = sample(|| {
        mover.toggle(design);
        tr.time("rsmt.rebuild10", || {
            forest.rebuild_nets_into(&design.netlist, &every_tenth, &mut fscratch)
        })
        .1
    });
    out.push((
        "rsmt.rebuild10_ns_pin",
        rebuild_s * 1e9 / pins_of(design, &every_tenth),
        TIMED,
    ));
    let stats = forest.stats();
    out.push((
        "rsmt.table_share",
        (stats.exact + stats.table) as f64 / stats.trees.max(1) as f64,
        1,
    ));

    // --- sta -------------------------------------------------------------
    let timer_s = sample(|| {
        tr.time("sta.timer_build", || {
            black_box(Timer::new(design, lib)).is_ok()
        })
        .1
    });
    out.push(("sta.timer_build_s", timer_s, TIMED));
    let timer = Timer::new(design, lib).expect("the program bound this design");
    let mut ascratch = AnalysisScratch::new();
    ascratch.presize(design.netlist.num_pins(), design.netlist.num_nets());
    // Forest and netlist back in step at the output positions.
    mover.home(design);
    forest.update_nets_into(&design.netlist, &all_nets, &mut fscratch);
    let analyze_s = sample(|| {
        let (a, dt) = tr.time("sta.analyze", || {
            timer.analyze_into(&design.netlist, &forest, &mut ascratch)
        });
        ascratch.recycle(a);
        dt
    });
    out.push(("sta.analyze_ns_pin", analyze_s * 1e9 / n_pins, TIMED));
    let smoothed_s = sample(|| {
        let (a, dt) = tr.time("sta.smoothed", || {
            timer.analyze_smoothed_into(&design.netlist, &forest, &mut ascratch)
        });
        ascratch.recycle(a);
        dt
    });
    out.push(("sta.smoothed_ns_pin", smoothed_s * 1e9 / n_pins, TIMED));
    let smoothed = timer.analyze_smoothed_into(&design.netlist, &forest, &mut ascratch);
    let mut grads = PositionGradients::default();
    let grad_s = sample(|| {
        tr.time("sta.gradients", || {
            timer.gradients_into(
                &design.netlist,
                &smoothed,
                &forest,
                T1,
                T2,
                &mut ascratch,
                &mut grads,
            )
        })
        .1
    });
    out.push(("sta.gradients_ns_pin", grad_s * 1e9 / n_pins, TIMED));
    ascratch.recycle(smoothed);
    let exact = timer.analyze_into(&design.netlist, &forest, &mut ascratch);
    let mut pscratch = PathScratch::new();
    let mut paths = PathSet::new();
    let paths_s = sample(|| {
        tr.time("sta.paths32", || {
            timer.extract_paths_into(
                &design.netlist,
                &exact,
                TOP_K,
                PATH_DECAY,
                &mut pscratch,
                &mut paths,
            )
        })
        .1
    });
    out.push(("sta.paths32_us", paths_s * 1e6, TIMED));
    let mut prev = exact;
    let incr_s = sample(|| {
        mover.toggle(design);
        forest.update_nets_into(&design.netlist, &dirty, &mut fscratch);
        let (next, dt) = tr.time("sta.incr1", || {
            timer.analyze_incremental_into(
                &design.netlist,
                &forest,
                &prev,
                &moved,
                true,
                &mut ascratch,
            )
        });
        ascratch.recycle(std::mem::replace(&mut prev, next));
        dt
    });
    out.push(("sta.incr1_ns_pin", incr_s * 1e9 / n_pins, TIMED));
    mover.home(design);
    forest.update_nets_into(&design.netlist, &all_nets, &mut fscratch);

    // --- place -----------------------------------------------------------
    let model_s = sample(|| {
        tr.time("place.model_build", || {
            let wl = WirelengthModel::new(&design.netlist);
            let density = DensityModel::with_options(design, BINS, BINS, TARGET_DENSITY, true);
            let mut scratch = DensityScratch::new();
            density.presize_scratch(&mut scratch);
            black_box((wl, density, scratch));
        })
        .1
    });
    out.push(("place.model_build_s", model_s, TIMED));
    let wl = WirelengthModel::new(&design.netlist);
    let bin_w = design.region.width() / BINS as f64;
    // The flow's WA smoothing at its stop overflow of 0.1.
    let gamma = bin_w * (0.1 + 8.0 * 0.1);
    let mut wscratch = WirelengthScratch::new();
    let (mut gx, mut gy) = (Vec::new(), Vec::new());
    let wa_s = sample(|| {
        tr.time("place.wa_grad", || {
            wl.wa_gradient_into(xs, ys, gamma, None, &mut wscratch, &mut gx, &mut gy)
        })
        .1
    });
    out.push(("place.wa_grad_ns_pin", wa_s * 1e9 / n_pins, TIMED));
    let density = DensityModel::with_options(design, BINS, BINS, TARGET_DENSITY, true);
    let mut dscratch = DensityScratch::new();
    density.presize_scratch(&mut dscratch);
    let mut dres = DensityResult::default();
    let density_s = sample(|| {
        tr.time("place.density", || {
            density.evaluate_into(xs, ys, &mut dscratch, &mut dres)
        })
        .1
    });
    out.push(("place.density_ns_cell", density_s * 1e9 / n_cells, TIMED));
    let spectral = Spectral2D::with_fft(
        BINS,
        BINS,
        design.region.width(),
        design.region.height(),
        true,
    );
    let rho: Vec<f64> = (0..BINS * BINS).map(|_| rng.unit() - 0.5).collect();
    let mut pscr = PoissonScratch::new();
    let mut sol = PoissonSolution::default();
    let poisson_s = sample(|| {
        tr.time("place.poisson", || {
            spectral.solve_into(&rho, &mut pscr, &mut sol)
        })
        .1
    });
    out.push((
        "place.poisson_ns_bin",
        poisson_s * 1e9 / (BINS * BINS) as f64,
        TIMED,
    ));
    let mut opt = NesterovOptimizer::new(design, bin_w);
    let precond = vec![1.0; xs.len()];
    let nesterov_s = sample(|| tr.time("place.nesterov", || opt.step(&gx, &gy, &precond)).1);
    out.push(("place.nesterov_ns_cell", nesterov_s * 1e9 / n_cells, TIMED));
    // Legalize from the output jittered by up to ±2 rows in both axes.
    let (mut jx, mut jy) = (xs.clone(), ys.clone());
    for c in &movable {
        jx[c.index()] += (rng.unit() - 0.5) * 4.0 * row_h;
        jy[c.index()] += (rng.unit() - 0.5) * 4.0 * row_h;
    }
    let legalize_s = sample(|| {
        let (mut lx, mut ly) = (jx.clone(), jy.clone());
        tr.time("place.legalize", || {
            AbacusLegalizer::new(design).legalize(design, &mut lx, &mut ly)
        })
        .1
    });
    out.push(("place.legalize_ns_cell", legalize_s * 1e9 / n_cells, TIMED));
    let detail_s = sample(|| {
        let (mut lx, mut ly) = (xs.clone(), ys.clone());
        tr.time("place.detail", || {
            DetailPlacer::new(design).refine(design, &mut lx, &mut ly, 1)
        })
        .1
    });
    out.push(("place.detail_ns_cell", detail_s * 1e9 / n_cells, TIMED));

    // --- route -----------------------------------------------------------
    let mut map = RudyMap::new(design, ROUTE_GRID, ROUTE_GRID, ROUTE_CAPACITY);
    let rudy_s = sample(|| {
        tr.time("route.rudy_build", || map.build(&design.netlist, &forest))
            .1
    });
    out.push(("route.rudy_build_ns_pin", rudy_s * 1e9 / n_pins, TIMED));
    out.push((
        "route.overflowed_bins_pct",
        map.summary().overflowed_frac * 100.0,
        1,
    ));
    let rudy_update_s = sample(|| {
        mover.toggle(design);
        forest.update_nets_into(&design.netlist, &dirty, &mut fscratch);
        tr.time("route.rudy_update1", || map.update_nets(&forest, &dirty))
            .1
    });
    out.push((
        "route.rudy_update1_ns_net",
        rudy_update_s * 1e9 / dirty.len().max(1) as f64,
        TIMED,
    ));
    let mut penalty = CongestionPenalty::new(design, ROUTE_GRID, ROUTE_GRID, ROUTE_CAPACITY);
    let penalty_s = sample(|| {
        tr.time("route.penalty", || {
            penalty.value_and_gradient(&design.netlist, &forest, &mut gx, &mut gy)
        })
        .1
    });
    out.push(("route.penalty_ns_pin", penalty_s * 1e9 / n_pins, TIMED));
    out
}

/// The pool itself: an empty region round trip, and what a second thread
/// buys the WA gradient on this design.
fn rayon_probes(tr: &mut Tracer, placed: &Placed) -> Vec<Probe> {
    const ROUND_TRIPS: usize = 1000;
    let two = Pool::new(2);
    let dispatch_s = sample(|| {
        tr.time("rayon.dispatch", || {
            for _ in 0..ROUND_TRIPS {
                two.run(2, |i| {
                    black_box(i);
                });
            }
        })
        .1
    });
    let Placed { design, xs, ys, .. } = placed;
    let wl = WirelengthModel::new(&design.netlist);
    let gamma = design.region.width() / BINS as f64;
    let mut wa_under = |pool: &Pool, name: &str| {
        let mut scratch = WirelengthScratch::new();
        let (mut gx, mut gy) = (Vec::new(), Vec::new());
        with_pool(pool, || {
            sample(|| {
                tr.time(name, || {
                    wl.wa_gradient_into(xs, ys, gamma, None, &mut scratch, &mut gx, &mut gy)
                })
                .1
            })
        })
    };
    let one_s = wa_under(&Pool::new(1), "rayon.wa_grad_1t");
    let two_s = wa_under(&two, "rayon.wa_grad_2t");
    vec![
        (
            "rayon.dispatch_us",
            dispatch_s * 1e6 / ROUND_TRIPS as f64,
            TIMED,
        ),
        ("rayon.wa_grad_speedup_2t", one_s / two_s, TIMED),
    ]
}
