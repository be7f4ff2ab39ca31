//! The global placement flows (Fig. 7 of the paper).
//!
//! One engine drives all the Table-3 flows; they differ only in which
//! timing mechanism injects itself into the gradient:
//!
//! - wirelength-only: none;
//! - net weighting: exact STA → per-net weights in the WA wirelength;
//! - differentiable (ours): smoothed STA → TNS/WNS gradients added to the
//!   wirelength + density gradient.
//!
//! Orthogonally to the timing mechanism, [`FlowConfig::route_aware`] enables
//! the routability subsystem (`dtp-route`): a smoothed congestion penalty
//! joins the gradient every iteration, and a RUDY feedback loop periodically
//! inflates cells in overflowed bins and boosts the wirelength weight of
//! nets crossing them.
//!
//! Every consumer of wire geometry (the two timing mechanisms, the route
//! layer, the trace STA a caller asks for with
//! [`FlowConfig::trace_timing_every`]) reads one in-loop Steiner forest,
//! built once and then maintained per net under a drift budget
//! ([`LoopForest`]): nets of moved cells are re-embedded, and a net whose
//! accumulated drift exceeds [`FlowConfig::topo_dirty_frac`] of its bounding
//! box gets a fresh topology. A flow with no such consumer — the
//! wirelength-only mode at default knobs — never builds one. Each timing
//! iteration then runs one full, scratch-backed analysis — in global
//! placement every movable cell moves every iteration, so there is no sparse
//! dirty set for an incremental analysis to exploit (that lives in
//! `timing_detail`, where moves are sparse). The exact RUDY map is
//! maintained incrementally from the same geometry/topology-dirty net lists.
//!
//! Every mode drives one [`GradientCore`] (WA wirelength + density +
//! Nesterov step); the modes differ in what they add around it.

use crate::config::{FlowConfig, FlowMode, TIMING_START_ITER};
use crate::weighting::NetWeighter;
use dtp_liberty::Library;
use dtp_netlist::{Design, NetId, Netlist, NetlistError};
use dtp_obs::{Counter, Gauge, IterEvent, Observer, Phase};
use dtp_place::detail::DetailPlacer;
use dtp_place::{
    AbacusLegalizer, DensityModel, DensityResult, DensityScratch, NesterovOptimizer,
    WirelengthModel, WirelengthScratch,
};
use dtp_route::{inflation_factors, CongestionPenalty, CongestionSummary, RudyMap};
use dtp_rsmt::{build_forest, build_forest_with, ForestScratch, ForestStats, SteinerForest, TableConfig};
use dtp_sta::{AnalysisScratch, PositionGradients, StaError, Timer, TimerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::fmt;
use std::time::Instant;

/// Fixed chunk size for the flow's per-cell gradient merges. The merges are
/// elementwise, so any chunking gives identical results; a fixed size keeps
/// the parallel shape independent of the pool width.
const MERGE_CHUNK: usize = 4096;

/// Ratio of the density to the wirelength gradient (1-norms) at which λ is
/// auto-balanced on the first evaluation.
const BALANCE_RATIO: f64 = 0.1;

/// Density overflow below which global placement stops ("the same stop
/// criterion on density overflow" for all flows, §4).
const STOP_OVERFLOW: f64 = 0.10;

/// Target bin density of the electrostatic density model.
const TARGET_DENSITY: f64 = 1.0;

/// Multiplicative λ growth per iteration (cell-spreading pressure).
const LAMBDA_GROWTH: f64 = 1.05;

/// Detailed-placement passes after legalization.
const DETAIL_PASSES: usize = 2;

/// Widest pool a flow asks for (`FlowConfig::threads`). No region of the
/// loop has that many tasks to hand out (a 1M-cell design is 245 chunks of
/// [`MERGE_CHUNK`] cells), and a width beyond it is a typo that would
/// otherwise spend seconds spawning threads the system then refuses.
const MAX_THREADS: usize = 256;

/// Adds `scale * add` into `acc` elementwise over the persistent pool.
fn axpy_into(acc: &mut [f64], add: &[f64], scale: f64) {
    acc.par_chunks_mut(MERGE_CHUNK)
        .zip(add.par_chunks(MERGE_CHUNK))
        .for_each(|(a, b)| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += scale * y;
            }
        });
}

/// Errors from the placement flow.
#[derive(Debug)]
#[non_exhaustive]
pub enum FlowError {
    /// Timing-engine construction failed.
    Sta(StaError),
    /// Netlist-level failure.
    Netlist(NetlistError),
    /// The configuration asks for something no flow can run.
    Config(String),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Sta(e) => write!(f, "timing engine error: {e}"),
            FlowError::Netlist(e) => write!(f, "netlist error: {e}"),
            FlowError::Config(what) => write!(f, "invalid flow configuration: {what}"),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Sta(e) => Some(e),
            FlowError::Netlist(e) => Some(e),
            FlowError::Config(_) => None,
        }
    }
}

impl From<StaError> for FlowError {
    fn from(e: StaError) -> Self {
        FlowError::Sta(e)
    }
}

impl From<NetlistError> for FlowError {
    fn from(e: NetlistError) -> Self {
        FlowError::Netlist(e)
    }
}

/// One sample of the optimization trajectory (the series of Figure 8).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TracePoint {
    /// Iteration index.
    pub iter: usize,
    /// Exact HPWL (µm).
    pub hpwl: f64,
    /// Density overflow.
    pub overflow: f64,
    /// Exact WNS (ps); `NAN` on iterations where timing was not traced.
    pub wns: f64,
    /// Exact TNS (ps); `NAN` when not traced.
    pub tns: f64,
}

/// The outcome of one placement flow run.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// Flow label ("DREAMPlace", "NetWeighting", "Ours").
    pub mode: &'static str,
    /// Design name.
    pub design: String,
    /// Final HPWL after legalization + detailed placement (µm).
    pub hpwl: f64,
    /// Final exact WNS (ps).
    pub wns: f64,
    /// Final exact TNS (ps).
    pub tns: f64,
    /// Final exact hold WNS (ps).
    pub wns_hold: f64,
    /// HPWL at the end of global placement, before legalization.
    pub gp_hpwl: f64,
    /// Global-placement iterations executed.
    pub iterations: usize,
    /// Wall-clock runtime of the whole flow, seconds.
    pub runtime: f64,
    /// Wall-clock spent inside timing analysis/gradients, seconds: the sum
    /// of the STA-phase spans ([`dtp_obs::Phase::is_sta`]) recorded during
    /// this run. Value-compatible with the legacy hand-timed accounting and
    /// populated whether or not observability is on.
    pub timing_runtime: f64,
    /// Optimization trajectory samples, one every
    /// [`FlowConfig::trace_timing_every`] iterations; empty at the default
    /// cadence 0.
    pub trace: Vec<TracePoint>,
    /// Final legalized positions (lower-left), indexed by cell.
    pub xs: Vec<f64>,
    /// Final legalized y positions.
    pub ys: Vec<f64>,
    /// Routing-congestion summary of the final placement (always computed,
    /// on the [`FlowConfig::route_grid`]/[`FlowConfig::route_capacity`]
    /// grid, whether or not the flow was route-aware).
    pub congestion: CongestionSummary,
    /// In-loop Steiner-forest composition (exact / table / Prim backends)
    /// and sequence-cache counters; all zeros when the flow never built a
    /// forest (wirelength-only mode, not route-aware, no trace cadence).
    pub rsmt: ForestStats,
}

impl fmt::Display for FlowResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<13} {:<6} WNS {:>10.1}  TNS {:>12.1}  HPWL {:>12.0}  {:>7.2}s ({} iters)",
            self.mode, self.design, self.wns, self.tns, self.hpwl, self.runtime, self.iterations
        )
    }
}

/// The in-loop Steiner forest and its maintenance policy.
///
/// One instance lives across the whole placement loop. The first sync builds
/// the forest; every later one classifies the nets of moved cells as
/// geometry-dirty (coordinate update) or topology-dirty (per-net Steiner
/// rebuild once accumulated drift exceeds the bbox budget) and applies both.
/// Every buffer persists between iterations, so a steady-state sync
/// allocates nothing.
#[derive(Default)]
struct LoopForest {
    /// `None` until the first consumer (timing, trace, route) asks for it.
    /// Built on the topology tables; the reporting forest
    /// ([`fresh_forest`]) is on the legacy constructions.
    forest: Option<SteinerForest>,
    scratch: ForestScratch,
    /// [`FlowConfig::topo_dirty_frac`].
    topo_frac: f64,
    /// Positions at the last synchronization.
    last_x: Vec<f64>,
    last_y: Vec<f64>,
    /// Accumulated worst cell drift per net since its last topology build.
    net_drift: Vec<f64>,
    /// Topology-rebuild budget per net:
    /// `topo_dirty_frac × pin bounding-box half-perimeter` at build time.
    net_budget: Vec<f64>,
    /// This-iteration max displacement per net (sparse; reset via `touched`).
    net_disp: Vec<f64>,
    /// The last sync's classification; the RUDY map consumes the same lists.
    geo_nets: Vec<NetId>,
    topo_nets: Vec<NetId>,
    touched: Vec<usize>,
    /// Movable cells, and per movable cell (CSR) the nets with a tree its
    /// pins sit on, in pin order — what the per-iteration classification
    /// walks instead of the netlist. Laid out at the forest build.
    movable: Vec<u32>,
    cell_net_off: Vec<u32>,
    cell_nets: Vec<u32>,
}

impl LoopForest {
    fn new(nl: &Netlist, config: &FlowConfig) -> LoopForest {
        // Pre-sized from the design's stats, so the sweeps' warm-up growth
        // happens here, once, and not inside the first iterations.
        let mut scratch = ForestScratch::new();
        scratch.presize(nl.num_nets());
        LoopForest { scratch, topo_frac: config.topo_dirty_frac, ..LoopForest::default() }
    }

    /// Topology-rebuild budget of `net`'s tree as it stands.
    fn budget(&self, forest: &SteinerForest, net: NetId) -> f64 {
        self.topo_frac * forest.tree(net).map_or(0.0, |t| t.pin_bbox_half_perimeter())
    }

    /// Brings the forest up to the positions `xs`/`ys` (already set on
    /// `nl`): a full build the first time, dirty-set maintenance after.
    fn sync(&mut self, nl: &Netlist, xs: &[f64], ys: &[f64], obs: &mut Observer) {
        match self.forest.take() {
            Some(mut f) => {
                obs.time(Phase::SteinerUpdate, || self.maintain(nl, &mut f, xs, ys));
                obs.add(Counter::ForestSyncs, 1);
                obs.add(Counter::GeoDirtyNets, self.geo_nets.len() as u64);
                obs.add(Counter::TopoDirtyNets, self.topo_nets.len() as u64);
                self.forest = Some(f);
            }
            None => {
                self.forest = Some(obs.time(Phase::SteinerBuild, || {
                    let f = build_forest_with(nl, TableConfig::default());
                    self.seed_bookkeeping(nl, &f, xs, ys);
                    f
                }));
                obs.add(Counter::ForestBuilds, 1);
            }
        }
    }

    /// Seeds the bookkeeping after the forest build: budgets from the fresh
    /// trees, zero drift, reference positions = current positions, and the
    /// movable-cell → tree-net table.
    fn seed_bookkeeping(&mut self, nl: &Netlist, forest: &SteinerForest, xs: &[f64], ys: &[f64]) {
        let n = forest.len();
        self.cell_net_off.push(0);
        for c in nl.movable_cells() {
            self.movable.push(c.index() as u32);
            // Clock nets have no tree: never built, never timed.
            let nets = nl.cell(c).pins().iter().filter_map(|&p| nl.pin(p).net());
            let tree_nets = nets.filter(|&net| forest.tree(net).is_some());
            self.cell_nets.extend(tree_nets.map(|net| net.index() as u32));
            self.cell_net_off.push(self.cell_nets.len() as u32);
        }
        self.net_drift.resize(n, 0.0);
        self.net_disp.resize(n, 0.0);
        for ni in 0..n {
            self.net_budget.push(self.budget(forest, NetId::new(ni)));
        }
        self.last_x.extend_from_slice(xs);
        self.last_y.extend_from_slice(ys);
    }

    /// Per-iteration forest maintenance: classify the nets of moved cells as
    /// geometry-dirty or topology-dirty and apply both.
    fn maintain(&mut self, nl: &Netlist, forest: &mut SteinerForest, xs: &[f64], ys: &[f64]) {
        self.touched.clear();
        for (&c, nets) in self.movable.iter().zip(self.cell_net_off.windows(2)) {
            let i = c as usize;
            let d = (xs[i] - self.last_x[i]).abs() + (ys[i] - self.last_y[i]).abs();
            // Any nonzero movement dirties the cell's nets.
            if d <= 0.0 {
                continue;
            }
            for &net in &self.cell_nets[nets[0] as usize..nets[1] as usize] {
                let ni = net as usize;
                if self.net_disp[ni] == 0.0 {
                    self.touched.push(ni);
                }
                if d > self.net_disp[ni] {
                    self.net_disp[ni] = d;
                }
            }
        }
        self.geo_nets.clear();
        self.topo_nets.clear();
        for &ni in &self.touched {
            self.net_drift[ni] += self.net_disp[ni];
            self.net_disp[ni] = 0.0;
            if self.net_drift[ni] > self.net_budget[ni] {
                self.topo_nets.push(NetId::new(ni));
            } else {
                self.geo_nets.push(NetId::new(ni));
            }
        }
        forest.update_nets_into(nl, &self.geo_nets, &mut self.scratch);
        forest.rebuild_nets_into(nl, &self.topo_nets, &mut self.scratch);
        for &net in &self.topo_nets {
            let ni = net.index();
            self.net_drift[ni] = 0.0;
            self.net_budget[ni] = self.budget(forest, net);
        }
        self.last_x.copy_from_slice(xs);
        self.last_y.copy_from_slice(ys);
    }
}

/// Initial placement: the movable cells clustered at the core center with
/// small seeded noise.
fn seed_positions(work: &mut Design, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let center = work.region.center();
    let (mut xs, mut ys) = work.netlist.positions();
    for c in work.netlist.movable_cells() {
        let i = c.index();
        let class = work.netlist.class_of(c);
        xs[i] = center.x - 0.5 * class.width()
            + rng.gen_range(-0.02..0.02) * work.region.width();
        ys[i] = center.y - 0.5 * class.height()
            + rng.gen_range(-0.02..0.02) * work.region.height();
    }
    work.netlist.set_positions(&xs, &ys);
}

/// What every mode's iteration shares: the wirelength and density models,
/// the preconditioned Nesterov optimizer, the λ / overflow state that
/// threads one iteration into the next, and every buffer the steady-state
/// gradient evaluation touches (with these, a wirelength + density + timing
/// gradient evaluation allocates nothing).
struct GradientCore {
    wl_model: WirelengthModel,
    density: DensityModel,
    opt: NesterovOptimizer,
    bin_w: f64,
    /// Per-cell preconditioner ingredients.
    pin_count: Vec<f64>,
    areas: Vec<f64>,
    /// The optimizer's look-ahead positions this iteration evaluates at
    /// (refilled each iteration instead of allocating two fresh Vecs).
    vx: Vec<f64>,
    vy: Vec<f64>,
    /// The iteration's objective gradient, accumulated term by term.
    gx: Vec<f64>,
    gy: Vec<f64>,
    wl_scratch: WirelengthScratch,
    dscratch: DensityScratch,
    dres: DensityResult,
    precond: Vec<f64>,
    /// Density weight; 0 = auto-balance on the first evaluation.
    lambda: f64,
    /// Density overflow of the latest evaluation (1 before the first).
    overflow: f64,
}

impl GradientCore {
    /// Models and buffers for `work` on the configured density grid, the
    /// optimizer starting from the positions `work` currently holds.
    fn new(work: &Design, config: &FlowConfig) -> GradientCore {
        let nl = &work.netlist;
        let bins = config.bins;
        // FFT Poisson backend on a power-of-two grid, dense otherwise.
        let density = DensityModel::new(work, bins, bins, TARGET_DENSITY);
        let bin_w = work.region.width() / bins as f64;
        let mut pin_count = vec![0.0f64; nl.num_cells()];
        for p in nl.pin_ids() {
            if nl.pin(p).net().is_some() {
                pin_count[nl.pin(p).cell().index()] += 1.0;
            }
        }
        let mut dscratch = DensityScratch::new();
        density.presize_scratch(&mut dscratch);
        GradientCore {
            wl_model: WirelengthModel::new(nl),
            opt: NesterovOptimizer::new(work, bin_w),
            density,
            bin_w,
            pin_count,
            areas: nl.cell_ids().map(|c| nl.class_of(c).area()).collect(),
            vx: Vec::new(),
            vy: Vec::new(),
            gx: Vec::new(),
            gy: Vec::new(),
            wl_scratch: WirelengthScratch::new(),
            dscratch,
            dres: DensityResult::default(),
            precond: Vec::new(),
            lambda: 0.0,
            overflow: 1.0,
        }
    }

    /// Copies the optimizer's look-ahead positions into `vx`/`vy`.
    fn load_positions(&mut self) {
        let (a, b) = self.opt.positions();
        self.vx.clear();
        self.vx.extend_from_slice(a);
        self.vy.clear();
        self.vy.extend_from_slice(b);
    }

    /// Starts the iteration's gradient: the WA wirelength gradient (γ
    /// annealed with overflow, nets optionally weighted) plus λ × the
    /// density gradient, into `gx`/`gy`; updates `overflow`. Returns the
    /// smoothed wirelength.
    fn wl_density(&mut self, weights: Option<&[f64]>, obs: &mut Observer) -> f64 {
        let wa_gamma = (self.bin_w * (0.1 + 8.0 * self.overflow)).max(1e-3);
        let wl_value = obs.time(Phase::WirelengthGrad, || {
            self.wl_model.wa_gradient_into(
                &self.vx,
                &self.vy,
                wa_gamma,
                weights,
                &mut self.wl_scratch,
                &mut self.gx,
                &mut self.gy,
            )
        });

        let sp = obs.start(Phase::DensityGrad);
        self.density.evaluate_into(&self.vx, &self.vy, &mut self.dscratch, &mut self.dres);
        self.overflow = self.dres.overflow;
        if self.lambda == 0.0 {
            // Auto-balance λ against the wirelength gradient on iteration 0.
            let norm1 = |x: &[f64], y: &[f64]| x.iter().chain(y).map(|g| g.abs()).sum::<f64>();
            let wl_norm = norm1(&self.gx, &self.gy);
            let d_norm = norm1(&self.dres.grad_x, &self.dres.grad_y);
            self.lambda = if d_norm > 0.0 { BALANCE_RATIO * wl_norm / d_norm } else { 1.0 };
        }
        axpy_into(&mut self.gx, &self.dres.grad_x, self.lambda);
        axpy_into(&mut self.gy, &self.dres.grad_y, self.lambda);
        obs.stop(Phase::DensityGrad, sp);
        wl_value
    }

    /// Preconditioned Nesterov step along `gx`/`gy`, then λ growth. Returns
    /// the step length and the λ this iteration's gradient actually used
    /// (post auto-balance, pre growth) — what the trace records.
    fn step(&mut self, obs: &mut Observer) -> (f64, f64) {
        let sp = obs.start(Phase::NesterovStep);
        let lambda = self.lambda;
        self.precond.resize(self.areas.len(), 0.0);
        self.precond
            .par_chunks_mut(MERGE_CHUNK)
            .zip(self.pin_count.par_chunks(MERGE_CHUNK))
            .zip(self.areas.par_chunks(MERGE_CHUNK))
            .for_each(|((pr, pc), ar)| {
                for ((p, &c), &a) in pr.iter_mut().zip(pc).zip(ar) {
                    *p = (c + lambda * a).max(1.0);
                }
            });
        let step = self.opt.step(&self.gx, &self.gy, &self.precond);
        self.lambda *= LAMBDA_GROWTH;
        obs.stop(Phase::NesterovStep, sp);
        (step, lambda)
    }

    /// Ends the loop: releases the optimizer, the density model and every
    /// buffer, keeping only what the reporting phase reads.
    fn into_wl_model(self) -> WirelengthModel {
        self.wl_model
    }
}

/// A from-scratch forest on the legacy constructions: what the reporting
/// analysis reads.
fn fresh_forest(nl: &Netlist, obs: &mut Observer) -> SteinerForest {
    let f = obs.time(Phase::SteinerBuild, || build_forest(nl));
    obs.add(Counter::ForestBuilds, 1);
    f
}

/// ∞-norm of a gradient held as two coordinate slices.
fn norm_inf(x: &[f64], y: &[f64]) -> f64 {
    x.iter().chain(y).fold(0.0f64, |m, &g| m.max(g.abs()))
}

/// The timing mechanism of a flow with its run-time state, built once from
/// the mode (`None` for the wirelength-only mode): when it starts (it runs
/// on every iteration from then on), which net weights it contributes to
/// the WA wirelength, and what a run does.
struct TimingMechanism {
    /// Iteration at which the mechanism activates.
    start_iter: usize,
    kind: TimingKind,
}

enum TimingKind {
    /// Smoothed analysis → TNS/WNS gradient added to the objective gradient;
    /// t1/t2 grow by `growth` after every run.
    Differentiable { t1: f64, t2: f64, growth: f64, grads: PositionGradients },
    /// Exact analysis → momentum net weights.
    NetWeighting(NetWeighter),
}

impl TimingMechanism {
    fn new(mode: FlowMode, wl_model: &WirelengthModel) -> Option<TimingMechanism> {
        let (start_iter, kind) = match mode {
            FlowMode::Wirelength => return None,
            FlowMode::Differentiable(c) => {
                let (t1, t2, growth) = (c.t1, c.t2, c.growth);
                let grads = PositionGradients::default();
                (c.start_iter, TimingKind::Differentiable { t1, t2, growth, grads })
            }
            FlowMode::NetWeighting => {
                (TIMING_START_ITER, TimingKind::NetWeighting(NetWeighter::new(wl_model)))
            }
        };
        Some(TimingMechanism { start_iter, kind })
    }

    /// Net weights the mechanism carries in the WA wirelength, if any.
    fn weights(&self) -> Option<&[f64]> {
        match &self.kind {
            TimingKind::Differentiable { .. } => None,
            TimingKind::NetWeighting(weighter) => Some(weighter.weights()),
        }
    }

    /// One timing iteration: a full, scratch-backed analysis of the current
    /// placement (`forest` is in sync with it) and the mode's use of it —
    /// the TNS/WNS gradient merged into `core`'s gradient, or the net
    /// weights refreshed for the next iterations. Returns the exact
    /// (WNS, TNS) where the analysis was an exact one, NaNs otherwise.
    fn run(
        &mut self,
        nl: &Netlist,
        timer: &Timer,
        forest: &SteinerForest,
        scratch: &mut AnalysisScratch,
        core: &mut GradientCore,
        obs: &mut Observer,
    ) -> (f64, f64) {
        let analysis = obs.time(Phase::StaForward, || match self.kind {
            TimingKind::Differentiable { .. } => timer.analyze_smoothed_into(nl, forest, scratch),
            // The weighter reads per-pin slacks: forward + RAT sweep.
            TimingKind::NetWeighting(_) => timer.analyze_into(nl, forest, scratch),
        });
        obs.add(Counter::StaFull, 1);
        let traced = match &mut self.kind {
            TimingKind::Differentiable { t1, t2, growth, grads } => {
                obs.time(Phase::StaBackward, || {
                    timer.gradients_into(nl, &analysis, forest, *t1, *t2, scratch, grads)
                });
                axpy_into(&mut core.gx, &grads.cell_grad_x, 1.0);
                axpy_into(&mut core.gy, &grads.cell_grad_y, 1.0);
                *t1 *= *growth;
                *t2 *= *growth;
                (f64::NAN, f64::NAN)
            }
            TimingKind::NetWeighting(weighter) => {
                obs.time(Phase::NetWeight, || weighter.update(nl, &core.wl_model, &analysis));
                (analysis.wns(), analysis.tns())
            }
        };
        scratch.recycle(analysis);
        traced
    }
}

/// Iterations between two forest syncs ahead of the first real consumer —
/// and between two exact-HPWL samples of an observed run — when the caller
/// set no [`FlowConfig::trace_timing_every`]. A flow whose timing mechanism
/// or route layer will read the loop forest builds it on iteration 0 and
/// re-syncs it on this period until the consumer takes over, so the drift
/// bookkeeping the consumer inherits — and with it the placement — is the
/// same whether or not anyone traces timing. The period is the cadence the
/// trace used to default to; it goes when the overflow-milestone `Schedule`
/// (ROADMAP item 1) decides when the forest is first needed.
const SAMPLE_PERIOD: usize = 10;

/// Density overflow below which congestion optimization switches on: like
/// timing, the RUDY estimate is meaningless while every cell still sits in
/// the initial center cluster.
const ROUTE_START_OVERFLOW: f64 = 0.5;

/// Runtime state of the congestion-aware subsystem (`route_aware = true`).
struct RouteState {
    /// Exact incremental RUDY map — reporting and feedback.
    map: RudyMap,
    /// Differentiable smoothed-overflow penalty — the gradient term.
    penalty: CongestionPenalty,
    /// Penalty-gradient scratch.
    pgx: Vec<f64>,
    pgy: Vec<f64>,
    /// Per-model-net congestion boosts (1.0 = neutral) and their product
    /// with the timing weighter's weights.
    boost: Vec<f64>,
    combined: Vec<f64>,
    /// Per-cell inflation factors for the density model.
    inflation: Vec<f64>,
    /// Latched once density overflow first drops under
    /// [`ROUTE_START_OVERFLOW`]; counts active iterations for the feedback
    /// cadence (the map is built on the first and updated on the others).
    iters_active: usize,
    active: bool,
    /// Whether any boost differs from 1 (skips the weight merge if not).
    boosted: bool,
}

impl RouteState {
    fn new(design: &Design, config: &FlowConfig) -> RouteState {
        let g = config.route_grid;
        RouteState {
            map: RudyMap::new(design, g, g, config.route_capacity),
            penalty: CongestionPenalty::new(design, g, g, config.route_capacity),
            pgx: Vec::new(),
            pgy: Vec::new(),
            boost: Vec::new(),
            combined: Vec::new(),
            inflation: Vec::new(),
            iters_active: 0,
            active: false,
            boosted: false,
        }
    }

    /// The congestion boosts as WA net weights, multiplied into the timing
    /// mechanism's weights when it carries any.
    fn boosted_weights(&mut self, timing: Option<&[f64]>) -> &[f64] {
        self.combined.clear();
        match timing {
            Some(w) => self.combined.extend(w.iter().zip(&self.boost).map(|(a, b)| a * b)),
            None => self.combined.extend_from_slice(&self.boost),
        }
        &self.combined
    }
}

/// Runs one placement flow on `design` and returns metrics, trace and the
/// final legalized placement.
///
/// The input design's positions are not modified; the flow works on a copy
/// and returns the result positions in [`FlowResult::xs`]/[`FlowResult::ys`].
///
/// # Errors
///
/// Returns [`FlowError::Sta`] if the netlist cannot be bound to the library
/// or contains combinational cycles.
pub fn run_flow(
    design: &Design,
    lib: &Library,
    mode: FlowMode,
    config: &FlowConfig,
) -> Result<FlowResult, FlowError> {
    let mut obs = Observer::disabled();
    run_flow_observed(design, lib, mode, config, &mut obs)
}

/// [`run_flow`] with a caller-owned [`Observer`]: the caller can attach a
/// JSONL trace sink beforehand and read the phase/counter report afterwards
/// (the `dtp` CLI's `--profile` / `--metrics-out` / `--trace-out` path).
///
/// The observer should be freshly constructed per run. Observability only
/// ever reads clocks and counts events, so an enabled observer leaves the
/// placement trajectory bit-for-bit identical to the disabled one
/// [`run_flow`] runs with — the `obs_golden` tests assert this.
///
/// # Errors
///
/// Returns [`FlowError::Sta`] if the netlist cannot be bound to the library
/// or contains combinational cycles, and [`FlowError::Config`] for a
/// configuration or mode knob no flow can run (the message names the field
/// and, where `dtp place` has one, its flag).
pub fn run_flow_observed(
    design: &Design,
    lib: &Library,
    mode: FlowMode,
    config: &FlowConfig,
    obs: &mut Observer,
) -> Result<FlowResult, FlowError> {
    if config.threads > MAX_THREADS {
        return Err(FlowError::Config(format!(
            "threads (--threads) = {}: a flow runs on at most {MAX_THREADS} threads",
            config.threads
        )));
    }
    if !dtp_place::GRID_AXIS_BINS.contains(&config.bins) {
        return Err(FlowError::Config(format!(
            "bins = {}: the density grid needs 2..=65535 bins per axis",
            config.bins
        )));
    }
    check_route_knobs(config)?;
    check_mode_knobs(mode)?;
    if config.threads > 0 {
        // Dedicated pool of the requested width for the whole flow —
        // every parallel kernel below dispatches through it. The workers
        // persist for the run and are torn down when the pool drops.
        let pool = rayon::Pool::new(config.threads);
        rayon::with_pool(&pool, || run_flow_inner(design, lib, mode, config, obs))
    } else {
        run_flow_inner(design, lib, mode, config, obs)
    }
}

/// Rejects route knobs no flow can run with. They are checked whether or not
/// the flow is route-aware: the final congestion summary is always computed
/// on the configured grid and capacity.
fn check_route_knobs(config: &FlowConfig) -> Result<(), FlowError> {
    let bad = |what: String| Err(FlowError::Config(what));
    if !dtp_route::GRID_AXIS_BINS.contains(&config.route_grid) {
        return bad(format!(
            "route_grid (--route-grid) = {}: the route grid needs {}..={} bins per axis",
            config.route_grid,
            dtp_route::GRID_AXIS_BINS.start(),
            dtp_route::GRID_AXIS_BINS.end()
        ));
    }
    // `!(x > 0)` rather than `x <= 0`: NaN must fail too.
    if !(config.route_capacity > 0.0 && config.route_capacity.is_finite()) {
        return bad(format!(
            "route_capacity (--route-capacity) = {}: the routing supply must be positive and finite",
            config.route_capacity
        ));
    }
    if !(config.route_weight >= 0.0 && config.route_weight.is_finite()) {
        return bad(format!(
            "route_weight (--route-weight) = {}: the congestion weight must be finite and not negative",
            config.route_weight
        ));
    }
    if !(config.inflation_max >= 1.0 && config.inflation_max.is_finite()) {
        return bad(format!(
            "inflation_max (--inflation-max) = {}: the inflation cap must be finite and at least 1",
            config.inflation_max
        ));
    }
    if config.route_update_period == 0 {
        return bad(
            "route_update_period (--route-period) = 0: the feedback period must be at least 1"
                .into(),
        );
    }
    Ok(())
}

/// Rejects differentiable-mode knobs that can only crash a flow or leave it
/// without the timing force the mode is for (the other modes have none).
fn check_mode_knobs(mode: FlowMode) -> Result<(), FlowError> {
    let FlowMode::Differentiable(c) = mode else { return Ok(()) };
    let bad = |what: String| Err(FlowError::Config(what));
    // Written so that NaN fails every test, like the route knobs.
    for (name, v) in [("t1", c.t1), ("t2", c.t2)] {
        if !(v >= 0.0 && v.is_finite()) {
            return bad(format!("{name} = {v}: the weight must be finite and not negative"));
        }
    }
    // γ divides every smoothed max; a growth ≤ 0 flips or zeroes the timing
    // force from the first iteration on.
    for (name, v) in [("gamma", c.gamma), ("growth", c.growth)] {
        if !(v > 0.0 && v.is_finite()) {
            return bad(format!("{name} = {v}: the value must be positive and finite"));
        }
    }
    Ok(())
}

/// Writes the v3 trace header — the run's full identity: mode, config,
/// seed, thread counts, and the design fingerprint — as the first record of
/// the JSONL stream. Runs inside the flow's pool scope, so `pool_threads`
/// reports the width the iterations will actually execute with.
fn emit_trace_header(design: &Design, mode: FlowMode, config: &FlowConfig, obs: &mut Observer) {
    if !obs.is_enabled() {
        return;
    }
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let header = dtp_obs::TraceHeader {
        schema: dtp_obs::TRACE_SCHEMA.to_string(),
        mode: mode.name().to_string(),
        seed: config.seed,
        threads: config.threads as u64,
        pool_threads: rayon::current_num_threads() as u64,
        host_threads: host_threads as u64,
        design: design.name.clone(),
        cells: design.netlist.num_cells() as u64,
        nets: design.netlist.num_nets() as u64,
        pins: design.netlist.num_pins() as u64,
        region: [design.region.xl, design.region.yl, design.region.xh, design.region.yh],
        clock_period: design.constraints.clock_period,
        source: obs.design_source().map(str::to_string),
        config: config.trace_fields(),
        mode_config: mode.trace_fields(),
    };
    obs.emit_header(&header);
}

fn run_flow_inner(
    design: &Design,
    lib: &Library,
    mode: FlowMode,
    config: &FlowConfig,
    obs: &mut Observer,
) -> Result<FlowResult, FlowError> {
    emit_trace_header(design, mode, config, obs);
    let t_start = Instant::now();
    // `timing_runtime` is reported as the STA-span delta across this run,
    // so a reused observer does not double-count an earlier run's time.
    let sta_seconds_at_entry = obs.sta_seconds();
    // Likewise the pool gauges: a pool outlives a flow (the ambient one lives
    // as long as the process), so this run's traffic is a delta.
    let pool_at_entry = rayon::pool_stats();
    let sp = obs.start(Phase::Setup);
    let mut work = design.clone();
    seed_positions(&mut work, config.seed);

    // --- models -------------------------------------------------------------
    let mut core = GradientCore::new(&work, config);
    let timer_config = match mode {
        FlowMode::Differentiable(d) => TimerConfig { gamma: d.gamma, ..TimerConfig::default() },
        _ => TimerConfig::default(),
    };
    let timer = Timer::with_config(&work, lib, timer_config)?;
    let mut timing = TimingMechanism::new(mode, &core.wl_model);
    // The wirelength-only mode never activates timing.
    let timing_start = timing.as_ref().map_or(usize::MAX, |t| t.start_iter);

    let mut route = config.route_aware.then(|| RouteState::new(&work, config));
    let mut loop_forest = LoopForest::new(&work.netlist, config);
    // Sized by the first analysis that draws from it, for what that analysis
    // reads: a flow whose first analysis is the final one reserves nothing
    // through the loop, and the buffers of one analysis come out of the heap
    // as one touched block, which the summary map at the end moves into.
    let mut scratch = AnalysisScratch::new();
    let mut trace = Vec::new();
    // Exact timing is traced only at the cadence the caller set; without one
    // the same sampling points only keep the forest of a flow that has a
    // consumer for it warm, and give an observed run its exact HPWL.
    let trace_cadence = config.trace_timing_every > 0;
    let sample_period = if trace_cadence { config.trace_timing_every } else { SAMPLE_PERIOD };
    let forest_consumer = timing.is_some() || route.is_some();
    let sample_hpwl = trace_cadence || obs.is_enabled();
    obs.stop(Phase::Setup, sp);

    let mut iterations = 0usize;
    for iter in 0..config.max_iters {
        iterations = iter + 1;
        obs.iter_begin();
        obs.add(Counter::Iterations, 1);
        core.load_positions();
        work.netlist.set_positions(&core.vx, &core.vy);
        let timing_active = iter >= timing_start;
        let sampled = iter % sample_period == 0;
        let trace_timing = sampled && trace_cadence;
        // Congestion optimization latches on once the cells have spread out.
        if let Some(rs) = route.as_mut() {
            if !rs.active && iter > 0 && core.overflow < ROUTE_START_OVERFLOW {
                rs.active = true;
            }
        }
        let route_active = route.as_ref().is_some_and(|rs| rs.active);
        // Steiner forest maintenance (only when some consumer needs it, now
        // or — on the sampling points — later in the run).
        let forest = if timing_active
            || route_active
            || (sampled && (trace_cadence || forest_consumer))
        {
            loop_forest.sync(&work.netlist, &core.vx, &core.vy, obs);
            loop_forest.forest.as_ref()
        } else {
            None
        };

        // Route layer, one two-task region: the exact RUDY map (full build on
        // activation, then incremental updates from the geometry/topology-
        // dirty net lists of the forest sync, plus a cell-position scan for
        // the pin-density term) and the smoothed penalty's gradient. Both
        // only read the forest and the positions and write state of their
        // own, so whichever thread runs which leaves the same bits; the
        // gradient is merged into the objective further down, once there is
        // a wirelength + density gradient to scale it against.
        if let (Some(rs), Some(f)) = (route.as_mut().filter(|rs| rs.active), forest) {
            let sp = obs.start(Phase::RudyUpdate);
            let rebuild = rs.iters_active == 0;
            let RouteState { map, penalty, pgx, pgy, .. } = rs;
            let nl = &work.netlist;
            rayon::join(
                || {
                    if rebuild {
                        map.build(nl, f);
                    } else {
                        map.update_nets(f, &loop_forest.geo_nets);
                        map.update_nets(f, &loop_forest.topo_nets);
                        map.sync_cells(nl);
                    }
                },
                || penalty.gradient(nl, f, pgx, pgy),
            );
            obs.add(if rebuild { Counter::RudyBuilds } else { Counter::RudyIncUpdates }, 1);
            obs.stop(Phase::RudyUpdate, sp);
        }

        // Wirelength + density gradient; congested nets carry their boosted
        // weight (merged with the timing mechanism's weights when both are
        // on).
        let timing_weights = timing.as_ref().and_then(TimingMechanism::weights);
        let weights = match route.as_mut() {
            Some(rs) if rs.boosted => Some(rs.boosted_weights(timing_weights)),
            _ => timing_weights,
        };
        let wl_value = core.wl_density(weights, obs);

        if let Some(rs) = route.as_mut().filter(|rs| rs.active) {
            // Congestion penalty gradient (evaluated with the map update
            // above), normalized: its ∞-norm is pinned to `route_weight` times the combined
            // wirelength+density gradient's, so the pressure tracks the
            // optimizer's scale instead of the raw demand units.
            let sp = obs.start(Phase::CongestionGrad);
            let base_norm = norm_inf(&core.gx, &core.gy);
            let p_norm = norm_inf(&rs.pgx, &rs.pgy);
            if p_norm > 0.0 {
                let scale = config.route_weight * base_norm / p_norm;
                axpy_into(&mut core.gx, &rs.pgx, scale);
                axpy_into(&mut core.gy, &rs.pgy, scale);
            }
            obs.stop(Phase::CongestionGrad, sp);

            // RUDY feedback every `route_update_period` active iterations:
            // inflate cells in overflowed bins (density-model footprints) and
            // boost the wirelength weight of nets crossing them; both take
            // effect from the next iteration's gradients.
            let sp = obs.start(Phase::RudyUpdate);
            if rs.iters_active % config.route_update_period == 0 {
                inflation_factors(
                    &rs.map,
                    &work.netlist,
                    config.inflation_max,
                    &mut rs.inflation,
                );
                core.density.set_inflation(&rs.inflation);
                let wl_model = &core.wl_model;
                rs.boost.resize(wl_model.num_nets(), 1.0);
                rs.boosted = false;
                for e in 0..wl_model.num_nets() {
                    let over = rs.map.net_overflow(NetId::new(wl_model.net_index(e)));
                    let b = 1.0 + config.route_weight * over.min(1.0);
                    rs.boost[e] = b;
                    if b != 1.0 {
                        rs.boosted = true;
                    }
                }
            }
            rs.iters_active += 1;
            obs.stop(Phase::RudyUpdate, sp);
        }

        // Timing mechanism, on every iteration once active.
        let (mut traced_wns, mut traced_tns) = (f64::NAN, f64::NAN);
        if let (Some(t), Some(f)) = (timing.as_mut().filter(|_| timing_active), forest) {
            (traced_wns, traced_tns) =
                t.run(&work.netlist, &timer, f, &mut scratch, &mut core, obs);
        }

        // Trace (exact timing only at the cadence the caller set).
        if let Some(f) = forest.filter(|_| trace_timing && traced_wns.is_nan()) {
            let analysis =
                obs.time(Phase::TraceSta, || timer.analyze_into(&work.netlist, f, &mut scratch));
            obs.add(Counter::TraceAnalyses, 1);
            traced_wns = analysis.wns();
            traced_tns = analysis.tns();
            scratch.recycle(analysis);
        }
        // Exact HPWL is only computed on the sampling points, for the trace
        // rows and the observer's `iter` records; it reads `null` elsewhere
        // (the smoothed WA wirelength is free every iteration).
        let iter_hpwl = if sampled && sample_hpwl {
            core.wl_model.hpwl(&core.vx, &core.vy)
        } else {
            f64::NAN
        };
        if trace_timing {
            trace.push(TracePoint {
                iter,
                hpwl: iter_hpwl,
                overflow: core.overflow,
                wns: traced_wns,
                tns: traced_tns,
            });
        }

        let (step, lambda) = core.step(obs);

        obs.iter_end(IterEvent {
            iter: iter as u64,
            wl: wl_value,
            hpwl: iter_hpwl,
            overflow: core.overflow,
            lambda,
            step,
            wns: traced_wns,
            tns: traced_tns,
            timing: timing_active,
        });

        if iter > 30 && core.overflow < STOP_OVERFLOW {
            break;
        }
    }

    // --- post-GP metrics ------------------------------------------------------
    let (sx, sy) = {
        let (a, b) = core.opt.solution();
        (a.to_vec(), b.to_vec())
    };
    work.netlist.set_positions(&sx, &sy);
    // The loop's working set is dead from here on. Released now rather than
    // at return, it is what the reporting phase below (the legalizer, the
    // final forest, analysis and map) allocates from, so the process's peak
    // memory is the loop's, reached long before exit, and not a spike
    // stacked on top of it in the last milliseconds of the run. (A flow
    // that kept no loop forest peaks on the final one, the only forest of
    // the run.)
    let rsmt = loop_forest.forest.as_ref().map(SteinerForest::stats).unwrap_or_default();
    let uses_fft = core.density.uses_fft();
    let live_map = route.map(|rs| rs.map);
    let wl_model = core.into_wl_model();
    drop((timing, loop_forest));
    let gp_hpwl = wl_model.hpwl(&sx, &sy);

    // --- legalization + detailed placement -------------------------------------
    let mut lx = sx;
    let mut ly = sy;
    let sp = obs.start(Phase::Legalize);
    let leg = AbacusLegalizer::new(&work);
    obs.gauge(Gauge::LegalizeBands, leg.bands() as f64);
    leg.legalize(&work, &mut lx, &mut ly);
    obs.stop(Phase::Legalize, sp);
    let sp = obs.start(Phase::DetailPlace);
    DetailPlacer::new(&work).refine(&work, &mut lx, &mut ly, DETAIL_PASSES);
    obs.stop(Phase::DetailPlace, sp);
    work.netlist.set_positions(&lx, &ly);
    let final_forest = fresh_forest(&work.netlist, obs);
    let final_analysis = obs
        .time(Phase::FinalSta, || timer.analyze_into(&work.netlist, &final_forest, &mut scratch));
    let (wns, tns, wns_hold) =
        (final_analysis.wns(), final_analysis.tns(), final_analysis.wns_hold());
    // Timing is done: like the loop state above, the timer and the analysis
    // buffers go now, so the summary map below allocates from what they free.
    drop((final_analysis, scratch, timer));
    // The final map: the live one rebuilt on the final forest when the flow
    // was route-aware, a fresh one otherwise.
    let (congestion, rudy_stamps) = {
        let g = config.route_grid;
        let mut map =
            live_map.unwrap_or_else(|| RudyMap::new(&work, g, g, config.route_capacity));
        let sp = obs.start(Phase::RudyUpdate);
        map.build(&work.netlist, &final_forest);
        obs.stop(Phase::RudyUpdate, sp);
        obs.add(Counter::RudyBuilds, 1);
        (map.summary(), map.stamps_written())
    };

    // End-of-run gauges: backend selections and pool state. Cheap enough to
    // record unconditionally (the registry writes are gated inside `gauge`).
    obs.gauge(Gauge::FftBackend, if uses_fft { 1.0 } else { 0.0 });
    obs.gauge(Gauge::OverflowedFrac, congestion.overflowed_frac);
    obs.gauge(Gauge::RudyStamps, rudy_stamps as f64);
    obs.gauge(Gauge::NetlistBytes, design.netlist.heap_bytes() as f64);
    obs.gauge(Gauge::RsmtExact, rsmt.exact as f64);
    obs.gauge(Gauge::RsmtTable, rsmt.table as f64);
    obs.gauge(Gauge::RsmtPrim, rsmt.prim as f64);
    obs.gauge(Gauge::RsmtSeqHits, rsmt.seq_hits as f64);
    obs.gauge(Gauge::RsmtSeqRebuilds, rsmt.seq_rebuilds as f64);
    // Process-wide table registry counters, so read them even when this flow
    // kept no in-loop forest.
    let tables = dtp_rsmt::table_stats();
    obs.gauge(Gauge::RsmtClassesGenerated, tables.classes_generated as f64);
    obs.gauge(Gauge::RsmtClassGenMs, tables.gen_ns as f64 / 1e6);
    let pool = rayon::pool_stats().since(pool_at_entry);
    obs.gauge(Gauge::PoolDispatches, pool.dispatches as f64);
    obs.gauge(Gauge::PoolInlineRegions, pool.inline_regions as f64);
    obs.gauge(Gauge::PoolHotHandoffs, pool.hot_handoffs() as f64);
    obs.gauge(Gauge::PoolWakes, pool.wakes as f64);
    obs.gauge(Gauge::PoolSpinMs, pool.spin_ns as f64 / 1e6);
    obs.gauge(Gauge::PoolThreads, rayon::current_num_threads() as f64);
    obs.flush();
    let timing_runtime = obs.sta_seconds() - sta_seconds_at_entry;

    Ok(FlowResult {
        mode: mode.label(),
        design: design.name.clone(),
        hpwl: wl_model.hpwl(&lx, &ly),
        wns,
        tns,
        wns_hold,
        gp_hpwl,
        iterations,
        runtime: t_start.elapsed().as_secs_f64(),
        timing_runtime,
        trace,
        xs: lx,
        ys: ly,
        congestion,
        rsmt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiffTimingConfig;

    /// The error `check_mode_knobs` returns for `mode`, `None` if it accepts it.
    fn rejection(mode: FlowMode) -> Option<String> {
        check_mode_knobs(mode).err().map(|e| e.to_string())
    }

    #[test]
    fn defaults_and_the_edges_of_every_range_are_accepted() {
        let accepted = [
            FlowMode::Wirelength,
            FlowMode::differentiable(),
            FlowMode::NetWeighting,
            FlowMode::Differentiable(DiffTimingConfig {
                t1: 0.0,
                t2: 0.0,
                gamma: f64::MIN_POSITIVE,
                growth: 0.5,
                ..DiffTimingConfig::default()
            }),
        ];
        for mode in accepted {
            assert_eq!(rejection(mode), None, "{mode:?}");
        }
    }

    /// The knobs `dtp place` has no flag for: reachable from library callers
    /// and from `dtp trace replay` headers.
    #[test]
    fn knobs_no_flow_can_use_are_rejected_by_name() {
        let diff = DiffTimingConfig::default();
        let cases = [
            (DiffTimingConfig { t1: f64::NAN, ..diff }, "t1"),
            (DiffTimingConfig { t2: -1.0, ..diff }, "t2"),
            (DiffTimingConfig { t2: f64::INFINITY, ..diff }, "t2"),
            (DiffTimingConfig { gamma: 0.0, ..diff }, "gamma"),
            (DiffTimingConfig { gamma: -100.0, ..diff }, "gamma"),
            (DiffTimingConfig { gamma: f64::NAN, ..diff }, "gamma"),
            (DiffTimingConfig { growth: -1.0, ..diff }, "growth"),
            (DiffTimingConfig { growth: 0.0, ..diff }, "growth"),
            (DiffTimingConfig { growth: f64::INFINITY, ..diff }, "growth"),
        ];
        for (c, field) in cases {
            let mode = FlowMode::Differentiable(c);
            let msg = rejection(mode).unwrap_or_else(|| panic!("{mode:?} accepted"));
            assert!(msg.starts_with(&format!("invalid flow configuration: {field} = ")), "{msg}");
        }
    }
}
