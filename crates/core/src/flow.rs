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
//! dirty set for an incremental analysis to exploit. For the same reason the
//! exact RUDY map is built from scratch, and only on the iterations whose
//! feedback reads it.
//!
//! Every mode drives one [`GradientCore`] (WA wirelength + density +
//! Nesterov step); the modes differ in what they add around it.
//!
//! The objective's terms all read the same positions, and only their sum is
//! ordered (Eq. 6). So an iteration evaluates the terms as independent
//! tasks — the wirelength gradient, the density term with the congestion
//! penalty, and the timing analysis — and merges them afterwards in one
//! fixed order. Every iteration runs them as two tasks side by side on the
//! pool, and the thread done first helps with the other task's regions;
//! every placement is the same whichever thread ran which.

use crate::config::{FlowConfig, FlowMode, TIMING_START_ITER};
use crate::weighting::NetWeighter;
use dtp_liberty::Library;
use dtp_netlist::{Design, NetId, Netlist, NetlistError};
use dtp_obs::{Counter, Gauge, Observer, Phase, SpanStart, TraceIter};
use dtp_place::detail::DetailPlacer;
use dtp_place::{
    AbacusLegalizer, DensityModel, DensityResult, DensityScratch, NesterovOptimizer,
    WirelengthModel, WirelengthScratch,
};
use dtp_route::{inflation_factors, CongestionPenalty, CongestionSummary, RudyMap};
use dtp_rsmt::{build_forest, build_forest_with, ForestScratch, ForestStats, SteinerForest, TableConfig};
use dtp_sta::{Analysis, AnalysisScratch, PositionGradients, StaError, Timer};
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
    /// The placement diverged: iteration `iter` is the first whose
    /// wirelength or density overflow is not finite.
    Diverged {
        /// The first iteration with a non-finite wirelength or overflow.
        iter: usize,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Sta(e) => write!(f, "timing engine error: {e}"),
            FlowError::Netlist(e) => write!(f, "netlist error: {e}"),
            FlowError::Config(what) => write!(f, "invalid flow configuration: {what}"),
            FlowError::Diverged { iter } => write!(
                f,
                "placement diverged at iteration {iter}: non-finite wirelength or density overflow"
            ),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Sta(e) => Some(e),
            FlowError::Netlist(e) => Some(e),
            FlowError::Config(_) | FlowError::Diverged { .. } => None,
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
    /// Global-placement iterations executed.
    pub iterations: usize,
    /// Wall-clock runtime of the whole flow, seconds.
    pub runtime: f64,
    /// Wall-clock spent inside timing analysis/gradients, seconds: the sum
    /// of the STA-phase spans ([`dtp_obs::Phase::is_sta`]) recorded during
    /// this run.
    pub timing_runtime: f64,
    /// The optimization trajectory (the series of Figure 8): the `iter`
    /// record of every [`FlowConfig::trace_timing_every`]-th iteration, with
    /// exact HPWL / WNS / TNS and the iteration's counter deltas, byte for
    /// byte what a trace sink receives; empty at the default cadence 0.
    pub trace: Vec<TraceIter>,
    /// Final legalized positions (lower-left), indexed by cell.
    pub xs: Vec<f64>,
    /// Final legalized y positions.
    pub ys: Vec<f64>,
    /// Routing-congestion summary of the final placement (always computed,
    /// on the [`ROUTE_GRID`] grid at [`FlowConfig::route_capacity`], whether
    /// or not the flow was route-aware).
    pub congestion: CongestionSummary,
    /// In-loop Steiner-forest composition (exact / table / Prim backends);
    /// all zeros when the flow never built a forest (wirelength-only mode,
    /// not route-aware, no trace cadence).
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
    /// This-iteration max displacement of each net's pins' cells.
    net_disp: Vec<f64>,
    /// The last sync's classification, in net order.
    geo_nets: Vec<NetId>,
    topo_nets: Vec<NetId>,
}

/// Nets per task of the displacement pull.
const PULL_CHUNK: usize = 4096;

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
                    self.seed_bookkeeping(&f, xs, ys);
                    f
                }));
                obs.add(Counter::ForestBuilds, 1);
            }
        }
    }

    /// Seeds the bookkeeping after the forest build: budgets from the fresh
    /// trees, zero drift, reference positions = current positions.
    fn seed_bookkeeping(&mut self, forest: &SteinerForest, xs: &[f64], ys: &[f64]) {
        let n = forest.len();
        self.net_drift.resize(n, 0.0);
        self.net_disp.resize(n, 0.0);
        for ni in 0..n {
            self.net_budget.push(self.budget(forest, NetId::new(ni)));
        }
        self.last_x.extend_from_slice(xs);
        self.last_y.extend_from_slice(ys);
    }

    /// Per-iteration forest maintenance: classify the nets whose pins moved
    /// as geometry-dirty or topology-dirty and apply both.
    ///
    /// Each net pulls the largest displacement `|Δx| + |Δy|` of its tree
    /// pins' cells, in parallel chunks of nets; then, in net order, a net
    /// that moved adds it to its drift and is classified. This is exactly
    /// what pushing each moved cell's displacement to its nets gives: `max`
    /// is the same in any order, a fixed cell's displacement is 0, and a
    /// tree depends only on its own pins, so the order of the lists does
    /// not change a tree.
    fn maintain(&mut self, nl: &Netlist, forest: &mut SteinerForest, xs: &[f64], ys: &[f64]) {
        let arena = forest.arena();
        let (last_x, last_y) = (&self.last_x, &self.last_y);
        self.net_disp.par_chunks_mut(PULL_CHUNK).enumerate().for_each(|(ci, disp)| {
            for (ni, d) in (ci * PULL_CHUNK..).zip(disp.iter_mut()) {
                let pins = arena.pin_off[ni] as usize..arena.pin_off[ni + 1] as usize;
                let mut max = 0.0;
                for &c in &arena.pin_cell[pins] {
                    let i = c as usize;
                    let moved = (xs[i] - last_x[i]).abs() + (ys[i] - last_y[i]).abs();
                    if moved > max {
                        max = moved;
                    }
                }
                *d = max;
            }
        });
        self.geo_nets.clear();
        self.topo_nets.clear();
        for ni in 0..self.net_disp.len() {
            let d = self.net_disp[ni];
            if d > 0.0 {
                self.classify(ni, d);
            }
        }
        self.apply(nl, forest, xs, ys);
    }

    /// Adds this sync's displacement `d` of net `ni` to its drift and lists
    /// the net as topology-dirty once the drift exceeds its budget, else as
    /// geometry-dirty.
    fn classify(&mut self, ni: usize, d: f64) {
        self.net_drift[ni] += d;
        if self.net_drift[ni] > self.net_budget[ni] {
            self.topo_nets.push(NetId::new(ni));
        } else {
            self.geo_nets.push(NetId::new(ni));
        }
    }

    /// Re-embeds the geometry-dirty nets, rebuilds the topology-dirty ones
    /// (fresh drift and budget), and takes `xs`/`ys` as the new reference.
    fn apply(&mut self, nl: &Netlist, forest: &mut SteinerForest, xs: &[f64], ys: &[f64]) {
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

/// The per-cell push form of [`LoopForest::maintain`], the oracle of its
/// pull: each moved movable cell raises the displacement of the tree nets
/// its pins sit on, and the nets are listed in the order they were first
/// touched.
#[cfg(test)]
impl LoopForest {
    fn maintain_push(&mut self, nl: &Netlist, forest: &mut SteinerForest, xs: &[f64], ys: &[f64]) {
        let mut touched = Vec::new();
        self.net_disp.fill(0.0);
        for c in nl.movable_cells() {
            let i = c.index();
            let d = (xs[i] - self.last_x[i]).abs() + (ys[i] - self.last_y[i]).abs();
            let nets = nl.cell(c).pins().iter().filter_map(|&p| nl.pin(p).net());
            for net in nets.filter(|&net| d > 0.0 && forest.tree(net).is_some()) {
                if self.net_disp[net.index()] == 0.0 {
                    touched.push(net.index());
                }
                self.net_disp[net.index()] = self.net_disp[net.index()].max(d);
            }
        }
        self.geo_nets.clear();
        self.topo_nets.clear();
        for ni in touched {
            self.classify(ni, self.net_disp[ni]);
        }
        self.apply(nl, forest, xs, ys);
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
        // Sized here, on the calling thread: the density evaluation may run
        // on a pool worker, from whose heap they raised `scale_wl_30k`'s
        // peak RSS by 0.35 MB.
        let mut dres = DensityResult::default();
        dres.grad_x.resize(nl.num_cells(), 0.0);
        dres.grad_y.resize(nl.num_cells(), 0.0);
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
            dres,
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

    /// The iteration's two evaluations at the look-ahead positions, as tasks
    /// over disjoint fields, so they may run beside each other and beside
    /// the other terms: the WA wirelength gradient (γ annealed with
    /// overflow, nets optionally weighted), which starts the iteration's
    /// gradient in `gx`/`gy` and returns the smoothed wirelength, and the
    /// density term into `dres`.
    fn evaluations<'a>(
        &'a mut self,
        weights: Option<&'a [f64]>,
    ) -> (impl FnOnce() -> f64 + Send + 'a, impl FnOnce() + Send + 'a) {
        let wa_gamma = (self.bin_w * (0.1 + 8.0 * self.overflow)).max(1e-3);
        let GradientCore { wl_model, density, vx, vy, gx, gy, wl_scratch, dscratch, dres, .. } =
            self;
        let (vx, vy) = (&*vx, &*vy);
        let wl = move || wl_model.wa_gradient_into(vx, vy, wa_gamma, weights, wl_scratch, gx, gy);
        let density = move || density.evaluate_into(vx, vy, dscratch, dres);
        (wl, density)
    }

    /// Merges λ × the evaluated density gradient into `gx`/`gy` (λ
    /// auto-balanced against the wirelength gradient on iteration 0) and
    /// updates `overflow`.
    fn merge_density(&mut self) {
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
    }

    /// Preconditioned Nesterov step along `gx`/`gy`, then λ growth. Returns
    /// the step length and the λ this iteration's gradient actually used
    /// (post auto-balance, pre growth) — what the trace records.
    fn step(&mut self, obs: &mut Observer) -> (f64, f64) {
        let sp = SpanStart::now();
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
/// the mode (`None` for the wirelength-only mode): which net weights it
/// contributes to the WA wirelength, and what a run does. When it runs is
/// [`Activation`]'s decision.
enum TimingMechanism {
    /// Smoothed analysis → TNS/WNS gradient added to the objective gradient;
    /// t1/t2 grow by `growth` after every run.
    Differentiable { t1: f64, t2: f64, growth: f64, grads: PositionGradients },
    /// Exact analysis → momentum net weights.
    NetWeighting(NetWeighter),
}

impl TimingMechanism {
    fn new(mode: FlowMode, wl_model: &WirelengthModel) -> Option<TimingMechanism> {
        match mode {
            FlowMode::Wirelength => None,
            FlowMode::Differentiable(c) => {
                let (t1, t2, growth) = (c.t1, c.t2, c.growth);
                let grads = PositionGradients::default();
                Some(TimingMechanism::Differentiable { t1, t2, growth, grads })
            }
            FlowMode::NetWeighting => {
                Some(TimingMechanism::NetWeighting(NetWeighter::new(wl_model)))
            }
        }
    }

    /// Splits the mechanism into the net weights it carries in the WA
    /// wirelength, if any, and the evaluation half of its timing iteration,
    /// so the wirelength gradient can read the one while the analysis
    /// writes through the other.
    fn split(&mut self) -> (Option<&[f64]>, TimingEval<'_>) {
        match self {
            TimingMechanism::Differentiable { t1, t2, grads, .. } => {
                (None, TimingEval::Smoothed { t1: *t1, t2: *t2, grads })
            }
            TimingMechanism::NetWeighting(weighter) => {
                (Some(weighter.weights()), TimingEval::Exact)
            }
        }
    }

    /// The merge half: the mode's use of `analysis` — the TNS/WNS gradient
    /// added to `core`'s gradient, or the net weights refreshed for the next
    /// iterations — after which the analysis goes back to `scratch`. Returns
    /// the exact (WNS, TNS) where the analysis was an exact one, NaNs
    /// otherwise.
    fn apply(
        &mut self,
        nl: &Netlist,
        analysis: Analysis,
        scratch: &mut AnalysisScratch,
        core: &mut GradientCore,
        obs: &mut Observer,
    ) -> (f64, f64) {
        let traced = match self {
            TimingMechanism::Differentiable { t1, t2, growth, grads } => {
                axpy_into(&mut core.gx, &grads.cell_grad_x, 1.0);
                axpy_into(&mut core.gy, &grads.cell_grad_y, 1.0);
                *t1 *= *growth;
                *t2 *= *growth;
                (f64::NAN, f64::NAN)
            }
            TimingMechanism::NetWeighting(weighter) => {
                obs.time(Phase::NetWeight, || weighter.update(nl, &core.wl_model, &analysis));
                (analysis.wns(), analysis.tns())
            }
        };
        scratch.recycle(analysis);
        traced
    }
}

/// The evaluation half of one timing iteration, borrowed from its
/// [`TimingMechanism`] apart from the net weights.
enum TimingEval<'a> {
    /// Smoothed analysis, then its TNS/WNS gradient at `t1`/`t2` into the
    /// mechanism's `grads`.
    Smoothed { t1: f64, t2: f64, grads: &'a mut PositionGradients },
    /// Exact analysis: the weighter reads per-pin slacks (forward + RAT
    /// sweep).
    Exact,
}

impl TimingEval<'_> {
    /// A full, scratch-backed analysis of the current placement (`forest`
    /// is in sync with it) and, when smoothed, its TNS/WNS gradient. Reads
    /// nothing the wirelength, density and congestion terms write, so it
    /// may run beside them.
    fn analyze(
        self,
        nl: &Netlist,
        timer: &Timer,
        forest: &SteinerForest,
        scratch: &mut AnalysisScratch,
        obs: &mut Observer,
    ) -> Analysis {
        let analysis = obs.time(Phase::StaForward, || match self {
            TimingEval::Smoothed { .. } => timer.analyze_smoothed_into(nl, forest, scratch),
            TimingEval::Exact => timer.analyze_into(nl, forest, scratch),
        });
        obs.add(Counter::StaFull, 1);
        if let TimingEval::Smoothed { t1, t2, grads } = self {
            obs.time(Phase::StaBackward, || {
                timer.gradients_into(nl, &analysis, forest, t1, t2, scratch, grads)
            });
        }
        analysis
    }
}

/// Runs `f` and times it: an evaluation that does not hold the observer
/// (the timing analysis beside it may), whose span [`Observer::record`]
/// books afterwards.
fn busy<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let sp = SpanStart::now();
    let r = f();
    (r, sp.elapsed_ns())
}

/// Runs `a` and `b` side by side as one two-task region and adds how long
/// they overlapped — their busy time minus the region's wall time — to
/// `overlap_ns`.
fn side_by_side<RA: Send, RB: Send>(
    a: impl FnOnce() -> RA + Send,
    b: impl FnOnce() -> RB + Send,
    overlap_ns: &mut u64,
) -> (RA, RB) {
    let (((ra, a_ns), (rb, b_ns)), wall_ns) = busy(|| rayon::join(|| busy(a), || busy(b)));
    *overlap_ns += (a_ns + b_ns).saturating_sub(wall_ns);
    (ra, rb)
}

/// Iterations between two forest syncs ahead of the first real consumer —
/// and between two exact-HPWL samples of a traced run — when the caller
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

/// Memory the density grid may ask for: 1 GiB.
const GRID_MEMORY_BUDGET: usize = 1 << 30;

/// What one density bin costs a flow, every per-bin buffer of the density
/// model, its Poisson solver and scratch together (measured peak memory of
/// `sb1` at 1024² and 2048² bins over the one at 64²).
const BYTES_PER_BIN: usize = 56;

/// The most bins per axis a flow accepts ([`FlowConfig::bins`]): the side of
/// the largest square grid within the 1 GiB budget (4 378; `dtp place` rounds
/// up to powers of two and so accepts up to 4 096).
pub const MAX_BINS: usize = (GRID_MEMORY_BUDGET / BYTES_PER_BIN).isqrt();

/// Routing-congestion grid (bins × bins), for both the exact RUDY map and the
/// smoothed penalty.
pub const ROUTE_GRID: usize = 32;

/// Strength of the congestion pressure: the congestion gradient is rescaled
/// so its ∞-norm equals this fraction of the combined wirelength+density
/// gradient's ∞-norm, and congested nets get their wirelength weight boosted
/// by up to `1 + ROUTE_WEIGHT`.
const ROUTE_WEIGHT: f64 = 1.0;

/// Cap on the congestion-driven per-cell area inflation factor.
const INFLATION_MAX: f64 = 2.5;

/// Run the RUDY feedback (inflation + net reweighting) every this many
/// iterations once congestion optimization is active.
const ROUTE_UPDATE_PERIOD: usize = 20;

/// Runtime state of the congestion-aware subsystem (`route_aware = true`).
struct RouteState {
    /// Exact RUDY map, built from scratch on each feedback iteration (the
    /// only in-loop reader) and once more, on the final forest, for the
    /// congestion summary.
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
    /// Iterations the congestion term has run on: non-zero once the route
    /// latch ([`Activation::decide`]) is set, and the feedback cadence
    /// counts them.
    iters_active: usize,
    /// Whether any boost differs from 1 (skips the weight merge if not).
    boosted: bool,
}

impl RouteState {
    fn new(design: &Design, config: &FlowConfig) -> RouteState {
        let g = ROUTE_GRID;
        RouteState {
            map: RudyMap::new(design, g, g, config.route_capacity),
            penalty: CongestionPenalty::new(design, g, g, config.route_capacity),
            pgx: Vec::new(),
            pgy: Vec::new(),
            boost: Vec::new(),
            combined: Vec::new(),
            inflation: Vec::new(),
            iters_active: 0,
            boosted: false,
        }
    }

    /// Splits the state into the WA net weights — the congestion boosts,
    /// multiplied into the timing mechanism's `timing` weights when it
    /// carries any, or `timing` itself while no boost differs from 1 — and,
    /// when `active`, the congestion term's evaluation, so the wirelength
    /// gradient can read the one while the other writes.
    fn split<'a>(
        &'a mut self,
        timing: Option<&'a [f64]>,
        active: bool,
    ) -> (Option<&'a [f64]>, Option<CongestionEval<'a>>) {
        let RouteState { map, penalty, pgx, pgy, boost, combined, boosted, .. } = self;
        let weights = match timing {
            _ if !*boosted => timing,
            Some(w) => {
                combined.clear();
                combined.extend(w.iter().zip(&*boost).map(|(a, b)| a * b));
                Some(&combined[..])
            }
            None => Some(&boost[..]),
        };
        (weights, active.then_some(CongestionEval { map, penalty, pgx, pgy }))
    }

    /// The merges of an active iteration's congestion term: the penalty
    /// gradient, scaled, into `core`'s gradient and, on a `feedback`
    /// iteration, the RUDY feedback on the map the evaluation built.
    fn apply(&mut self, nl: &Netlist, core: &mut GradientCore, feedback: bool, obs: &mut Observer) {
        // Congestion penalty gradient, normalized: its ∞-norm is pinned
        // to `ROUTE_WEIGHT` times the combined wirelength+density
        // gradient's, so the pressure tracks the optimizer's scale
        // instead of the raw demand units.
        let sp = SpanStart::now();
        let base_norm = norm_inf(&core.gx, &core.gy);
        let p_norm = norm_inf(&self.pgx, &self.pgy);
        if p_norm > 0.0 {
            let scale = ROUTE_WEIGHT * base_norm / p_norm;
            axpy_into(&mut core.gx, &self.pgx, scale);
            axpy_into(&mut core.gy, &self.pgy, scale);
        }
        obs.stop(Phase::CongestionGrad, sp);

        // RUDY feedback on the map built above: inflate cells in
        // overflowed bins (density-model footprints) and boost the
        // wirelength weight of nets crossing them; both take effect from
        // the next iteration's gradients.
        if feedback {
            let sp = SpanStart::now();
            inflation_factors(&self.map, nl, INFLATION_MAX, &mut self.inflation);
            core.density.set_inflation(&self.inflation);
            let wl_model = &core.wl_model;
            self.boost.resize(wl_model.num_nets(), 1.0);
            self.boosted = false;
            for e in 0..wl_model.num_nets() {
                let over = self.map.net_overflow(NetId::new(wl_model.net_index(e)));
                let b = 1.0 + ROUTE_WEIGHT * over.min(1.0);
                self.boost[e] = b;
                if b != 1.0 {
                    self.boosted = true;
                }
            }
            obs.stop(Phase::RudyUpdate, sp);
        }
        self.iters_active += 1;
    }
}

/// The congestion term's evaluation, borrowed from an active [`RouteState`]
/// apart from the net weights.
struct CongestionEval<'a> {
    map: &'a mut RudyMap,
    penalty: &'a mut CongestionPenalty,
    pgx: &'a mut Vec<f64>,
    pgy: &'a mut Vec<f64>,
}

impl CongestionEval<'_> {
    /// The smoothed penalty's gradient and, on a `feedback` iteration, the
    /// exact RUDY map — the feedback is its only in-loop reader, so it is
    /// built from scratch on exactly those iterations, beside the gradient
    /// in one two-task region.
    fn evaluate(self, nl: &Netlist, forest: &SteinerForest, feedback: bool) {
        let CongestionEval { map, penalty, pgx, pgy } = self;
        if feedback {
            rayon::join(|| map.build(nl, forest), || penalty.gradient(nl, forest, pgx, pgy));
        } else {
            penalty.gradient(nl, forest, pgx, pgy);
        }
    }
}

/// Every per-iteration activation decision of the loop, in one place: when
/// the timing mechanism runs, when the route layer switches on and runs its
/// feedback, when the loop forest is synced, and which iterations the trace
/// samples. [`Activation::decide`] holds every rule and reads the iteration
/// index, the previous iteration's density overflow and the route state; it
/// is the one slot the overflow-milestone `Schedule` (ROADMAP item 1)
/// replaces.
struct Activation {
    /// The flow's mode: whether a timing mechanism runs, and from when.
    mode: FlowMode,
    /// [`FlowConfig::trace_timing_every`].
    trace_every: usize,
    /// A trace sink is attached: the sampling points get exact HPWL.
    tracing: bool,
}

/// One iteration's decisions ([`Activation::decide`]).
struct Decisions {
    /// The timing mechanism runs.
    timing: bool,
    /// The congestion term runs.
    route: bool,
    /// The exact RUDY map is built, and the feedback runs on it.
    feedback: bool,
    /// The loop forest is synced to the iteration's positions.
    sync_forest: bool,
    /// The record gets exact timing and joins [`FlowResult::trace`].
    trace_timing: bool,
    /// The record gets exact HPWL.
    exact_hpwl: bool,
}

impl Activation {
    /// Iteration `iter`'s decisions; `overflow` is the previous iteration's
    /// density overflow (1 before the first) and `route` the route layer's
    /// state, `None` when the flow is not route-aware.
    fn decide(&self, iter: usize, overflow: f64, route: Option<&RouteState>) -> Decisions {
        // The timing mechanism runs on every iteration from its start on.
        let timing = match self.mode {
            FlowMode::Wirelength => false,
            FlowMode::Differentiable(c) => iter >= c.start_iter,
            FlowMode::NetWeighting => iter >= TIMING_START_ITER,
        };
        // Exact timing is traced only at the cadence the caller set; without
        // one the same sampling points only keep the forest of a flow that
        // has a consumer for it warm, and give a traced run its exact HPWL.
        let trace_cadence = self.trace_every > 0;
        let period = if trace_cadence { self.trace_every } else { SAMPLE_PERIOD };
        let sampled = iter.is_multiple_of(period);
        let forest_consumer = self.mode != FlowMode::Wirelength || route.is_some();
        // Congestion optimization latches on once the cells have spread out.
        let route_on = route.is_some_and(|rs| {
            rs.iters_active > 0 || (iter > 0 && overflow < ROUTE_START_OVERFLOW)
        });
        let feedback =
            route_on && route.is_some_and(|rs| rs.iters_active % ROUTE_UPDATE_PERIOD == 0);
        Decisions {
            timing,
            route: route_on,
            feedback,
            // Steiner forest maintenance, only when some consumer needs it,
            // now or — on the sampling points — later in the run.
            sync_forest: timing || route_on || (sampled && (trace_cadence || forest_consumer)),
            trace_timing: sampled && trace_cadence,
            // Exact HPWL is only computed on the sampling points, for the
            // `iter` records the caller or the trace sink reads; it reads
            // `null` elsewhere (the smoothed WA wirelength is free every
            // iteration).
            exact_hpwl: sampled && (trace_cadence || self.tracing),
        }
    }
}

/// Runs one placement flow on `design` and returns metrics, trace and the
/// final legalized placement, on an observer of its own that no one reads.
///
/// The input design's positions are not modified; the flow works on a copy
/// and returns the result positions in [`FlowResult::xs`]/[`FlowResult::ys`].
///
/// # Errors
///
/// The errors of [`run_flow_observed`].
pub fn run_flow(
    design: &Design,
    lib: &Library,
    mode: FlowMode,
    config: &FlowConfig,
) -> Result<FlowResult, FlowError> {
    let mut obs = Observer::new();
    run_flow_observed(design, lib, mode, config, &mut obs)
}

/// [`run_flow`] with a caller-owned [`Observer`]: the caller can attach a
/// JSONL trace sink beforehand and read the phase/counter report afterwards
/// (the `dtp` CLI's `--profile` / `--metrics-out` / `--trace-out` path).
///
/// The observer should be freshly constructed per run. It only ever reads
/// clocks and counts events, and a trace sink only adds the work that feeds
/// it (the header, exact HPWL on the sampling points), so a traced run
/// places bit-for-bit like an untraced one — the `obs_golden` tests assert
/// this.
///
/// # Errors
///
/// Returns [`FlowError::Sta`] if the netlist cannot be bound to the library
/// or contains combinational cycles, [`FlowError::Config`] for a
/// configuration or mode knob no flow can run (the message names the field
/// and, where `dtp place` has one, its flag), and [`FlowError::Diverged`]
/// when an iteration's wirelength or density overflow is not finite.
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
    let min_bins = *dtp_place::GRID_AXIS_BINS.start();
    if !(min_bins..=MAX_BINS).contains(&config.bins) {
        return Err(FlowError::Config(format!(
            "bins (--bins) = {}: the density grid takes {min_bins}..={MAX_BINS} bins per axis \
             (at most {} MiB)",
            config.bins,
            GRID_MEMORY_BUDGET >> 20
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

/// Rejects a routing capacity no flow can run with. It is checked whether or
/// not the flow is route-aware: the final congestion summary is always
/// computed at it.
fn check_route_knobs(config: &FlowConfig) -> Result<(), FlowError> {
    // `!(x > 0)` rather than `x <= 0`: NaN must fail too.
    if !(config.route_capacity > 0.0 && config.route_capacity.is_finite()) {
        return Err(FlowError::Config(format!(
            "route_capacity (--route-capacity) = {}: the routing supply must be positive and finite",
            config.route_capacity
        )));
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
    if !obs.is_tracing() {
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

/// One flow inside its pool scope: the trace header, the set-up, the
/// iterations up to the cap or the stop rule, and the reporting phase.
fn run_flow_inner(
    design: &Design,
    lib: &Library,
    mode: FlowMode,
    config: &FlowConfig,
    obs: &mut Observer,
) -> Result<FlowResult, FlowError> {
    emit_trace_header(design, mode, config, obs);
    let mut gp = GlobalPlace::new(design, lib, mode, config, obs)?;
    for _ in 0..config.max_iters {
        if let Step::Converged = gp.step(obs)? {
            break;
        }
    }
    Ok(gp.finish(obs))
}

/// What the loop does after one [`GlobalPlace::step`].
enum Step {
    /// Run the next iteration, if the iteration cap allows one.
    Continue,
    /// The stop rule held: global placement is done.
    Converged,
}

/// Global placement as a value: the state one iteration hands the next,
/// set up by [`GlobalPlace::new`], advanced by [`GlobalPlace::step`] and
/// turned into the run's result by [`GlobalPlace::finish`].
struct GlobalPlace {
    /// The flow's copy of the design, at the iteration's positions.
    work: Design,
    core: GradientCore,
    timer: Timer,
    timing: Option<TimingMechanism>,
    route: Option<RouteState>,
    loop_forest: LoopForest,
    /// Sized by the first analysis that draws from it, for what that analysis
    /// reads: a flow whose first analysis is the final one reserves nothing
    /// through the loop, and the buffers of one analysis come out of the heap
    /// as one touched block, which the summary map at the end moves into.
    scratch: AnalysisScratch,
    activation: Activation,
    /// The records of [`FlowResult::trace`] so far.
    trace: Vec<TraceIter>,
    /// Iterations run so far: the index of the next one.
    iterations: usize,
    /// Summed over the regions that ran two evaluation tasks side by side:
    /// the tasks' busy time minus the region's wall time.
    overlap_ns: u64,
    /// [`FlowResult::mode`].
    label: &'static str,
    /// [`FlowConfig::route_capacity`], for the final map of a flow that kept
    /// no live one.
    route_capacity: f64,
    /// When the flow started, for [`FlowResult::runtime`].
    t_start: Instant,
    /// `timing_runtime` is reported as the STA-span delta across this run,
    /// so a reused observer does not double-count an earlier run's time.
    sta_seconds_at_entry: f64,
    /// Likewise the pool gauges: a pool outlives a flow (the ambient one
    /// lives as long as the process), so this run's traffic is a delta.
    pool_at_entry: rayon::PoolStats,
}

impl GlobalPlace {
    /// The loop's models, mechanisms and buffers for `design`, its movable
    /// cells seeded at the core center, inside one [`Phase::Setup`] span.
    fn new(
        design: &Design,
        lib: &Library,
        mode: FlowMode,
        config: &FlowConfig,
        obs: &mut Observer,
    ) -> Result<GlobalPlace, FlowError> {
        let t_start = Instant::now();
        let sta_seconds_at_entry = obs.sta_seconds();
        let pool_at_entry = rayon::pool_stats();
        obs.gauge(Gauge::NetlistBytes, design.netlist.heap_bytes() as f64);
        let sp = SpanStart::now();
        let mut work = design.clone();
        seed_positions(&mut work, config.seed);
        let core = GradientCore::new(&work, config);
        let timer = match mode {
            FlowMode::Differentiable(d) => Timer::with_gamma(&work, lib, d.gamma)?,
            _ => Timer::new(&work, lib)?,
        };
        let timing = TimingMechanism::new(mode, &core.wl_model);
        let route = config.route_aware.then(|| RouteState::new(&work, config));
        let loop_forest = LoopForest::new(&work.netlist, config);
        let gp = GlobalPlace {
            core,
            timer,
            timing,
            route,
            loop_forest,
            scratch: AnalysisScratch::new(),
            activation: Activation {
                mode,
                trace_every: config.trace_timing_every,
                tracing: obs.is_tracing(),
            },
            trace: Vec::new(),
            iterations: 0,
            overlap_ns: 0,
            label: mode.label(),
            route_capacity: config.route_capacity,
            work,
            t_start,
            sta_seconds_at_entry,
            pool_at_entry,
        };
        obs.stop(Phase::Setup, sp);
        Ok(gp)
    }

    /// One iteration: the activation decisions, the forest sync, the
    /// objective's terms evaluated side by side and merged in one fixed
    /// order, the Nesterov step and the iteration's record; then the stop
    /// rule.
    ///
    /// # Errors
    ///
    /// [`FlowError::Diverged`] when the iteration's wirelength or density
    /// overflow is not finite.
    fn step(&mut self, obs: &mut Observer) -> Result<Step, FlowError> {
        let GlobalPlace {
            work,
            core,
            timer,
            timing,
            route,
            loop_forest,
            scratch,
            activation,
            trace,
            iterations,
            overlap_ns,
            ..
        } = self;
        let iter = *iterations;
        *iterations += 1;
        obs.iter_begin();
        obs.add(Counter::Iterations, 1);
        core.load_positions();
        work.netlist.set_positions(&core.vx, &core.vy);
        let act = activation.decide(iter, core.overflow, route.as_ref());
        let forest = if act.sync_forest {
            loop_forest.sync(&work.netlist, &core.vx, &core.vy, obs);
            loop_forest.forest.as_ref()
        } else {
            None
        };

        // The objective's terms read the same positions and the same forest
        // and write state of their own, so each mode's state splits into
        // what the wirelength gradient reads — the net weights: congested
        // nets carry their boost, merged with the timing mechanism's weights
        // when both are on — and what the other terms write. The terms are
        // evaluated as tasks and merged afterwards in a fixed order.
        let nl = &work.netlist;
        let (timing_weights, timing_eval) = timing.as_mut().map(TimingMechanism::split).unzip();
        let (weights, congestion) = match route.as_mut() {
            Some(rs) => rs.split(timing_weights.flatten(), act.route),
            None => (timing_weights.flatten(), None),
        };
        let live = timing_eval.filter(|_| act.timing).zip(forest);
        let timed = live.is_some();
        let congestion = congestion.zip(forest);
        let (wl_eval, density_eval) = core.evaluations(weights);
        // Every task times itself; the timing analysis holds the observer.
        let wl_task = || busy(wl_eval);
        let density_task = || {
            let density_ns = busy(density_eval).1;
            let route_ns = congestion.map(|(c, f)| busy(|| c.evaluate(nl, f, act.feedback)).1);
            (density_ns, route_ns)
        };
        let timing_task = || live.map(|(e, f)| e.analyze(nl, timer, f, scratch, obs));
        // Every iteration is one two-task region: task A is the density and
        // congestion evaluation, plus the wirelength gradient when a timing
        // analysis is live; task B is that analysis, else the wirelength
        // gradient. The calling thread runs task B — the analysis, or the
        // wirelength gradient — so the scratch its first run grows comes from
        // the main thread's heap, as on one thread; from a pool worker's it
        // raised the peak RSS of `nw_20k` by 9 %, of `scale_wl_30k` by 4 %.
        let ((wl_value, wl_ns), (density_ns, route_ns), analysis) = if timed {
            let (analysis, (wl, dens)) =
                side_by_side(timing_task, || (wl_task(), density_task()), overlap_ns);
            (wl, dens, analysis)
        } else {
            let (wl, dens) = side_by_side(wl_task, density_task, overlap_ns);
            (wl, dens, None)
        };

        // The merges, in one fixed order — the wirelength gradient starts
        // `gx`/`gy`, then λ × density (iteration 0's auto-balance reads the
        // wirelength gradient), the congestion term scaled against
        // wirelength + density, then the timing term — so the sum does not
        // depend on which thread evaluated which term.
        obs.record(Phase::WirelengthGrad, wl_ns);
        obs.record(Phase::DensityGrad, density_ns);
        obs.time(Phase::DensityGrad, || core.merge_density());
        if !(wl_value.is_finite() && core.overflow.is_finite()) {
            return Err(FlowError::Diverged { iter });
        }
        if let Some(rs) = route.as_mut().filter(|_| act.route) {
            if let Some(ns) = route_ns {
                let phase = if act.feedback { Phase::RudyUpdate } else { Phase::CongestionGrad };
                obs.record(phase, ns);
            }
            if act.feedback {
                obs.add(Counter::RudyBuilds, 1);
            }
            rs.apply(nl, core, act.feedback, obs);
        }
        // Timing mechanism, on every iteration once active.
        let (mut traced_wns, mut traced_tns) = (f64::NAN, f64::NAN);
        if let (Some(t), Some(analysis)) = (timing.as_mut(), analysis) {
            (traced_wns, traced_tns) = t.apply(nl, analysis, scratch, core, obs);
        }

        // Trace (exact timing only at the cadence the caller set).
        if let Some(f) = forest.filter(|_| act.trace_timing && traced_wns.is_nan()) {
            let analysis = obs.time(Phase::TraceSta, || timer.analyze_into(nl, f, scratch));
            obs.add(Counter::TraceAnalyses, 1);
            traced_wns = analysis.wns();
            traced_tns = analysis.tns();
            scratch.recycle(analysis);
        }
        let hpwl = if act.exact_hpwl { core.wl_model.hpwl(&core.vx, &core.vy) } else { f64::NAN };
        let (step, lambda) = core.step(obs);
        let mut rec = TraceIter {
            iter: iter as u64,
            wl: wl_value,
            hpwl,
            overflow: core.overflow,
            lambda,
            step,
            wns: traced_wns,
            tns: traced_tns,
            timing: act.timing,
            counters: [0; Counter::COUNT],
        };
        obs.iter_end(&mut rec);
        if act.trace_timing {
            trace.push(rec);
        }

        let converged = iter > 30 && core.overflow < STOP_OVERFLOW;
        Ok(if converged { Step::Converged } else { Step::Continue })
    }

    /// The reporting phase: legalization and detailed placement of the
    /// global placement's solution, then the final forest, analysis and
    /// congestion map, and the run's gauges.
    fn finish(self, obs: &mut Observer) -> FlowResult {
        let GlobalPlace {
            mut work,
            core,
            timer,
            timing,
            route,
            loop_forest,
            mut scratch,
            trace,
            iterations,
            overlap_ns,
            label,
            route_capacity,
            t_start,
            sta_seconds_at_entry,
            pool_at_entry,
            ..
        } = self;
        let (sx, sy) = {
            let (a, b) = core.opt.solution();
            (a.to_vec(), b.to_vec())
        };
        work.netlist.set_positions(&sx, &sy);
        // The loop's working set is dead from here on. Released now rather
        // than at return, it is what the reporting phase below (the
        // legalizer, the final forest, analysis and map) allocates from, so
        // the process's peak memory is the loop's, reached long before exit,
        // and not a spike stacked on top of it in the last milliseconds of
        // the run. (A flow that kept no loop forest peaks on the final one,
        // the only forest of the run.)
        let rsmt = loop_forest.forest.as_ref().map(SteinerForest::stats).unwrap_or_default();
        let uses_fft = core.density.uses_fft();
        let live_map = route.map(|rs| rs.map);
        // Moved into a temporary, the core drops every field but the
        // wirelength model at the end of this statement.
        let GradientCore { wl_model, .. } = { core };
        drop((timing, loop_forest));

        // --- legalization + detailed placement -------------------------------------
        let mut lx = sx;
        let mut ly = sy;
        let sp = SpanStart::now();
        let leg = AbacusLegalizer::new(&work);
        obs.gauge(Gauge::LegalizeBands, leg.bands() as f64);
        leg.legalize(&work, &mut lx, &mut ly);
        obs.stop(Phase::Legalize, sp);
        let sp = SpanStart::now();
        DetailPlacer::new(&work).refine(&work, &mut lx, &mut ly, DETAIL_PASSES);
        obs.stop(Phase::DetailPlace, sp);
        work.netlist.set_positions(&lx, &ly);
        let final_forest = fresh_forest(&work.netlist, obs);
        let final_analysis = obs.time(Phase::FinalSta, || {
            timer.analyze_into(&work.netlist, &final_forest, &mut scratch)
        });
        let (wns, tns) = (final_analysis.wns(), final_analysis.tns());
        // Timing is done: like the loop state above, the timer and the analysis
        // buffers go now, so the summary map below allocates from what they free.
        drop((final_analysis, scratch, timer));
        // The final map: the live one rebuilt on the final forest when the flow
        // was route-aware, a fresh one otherwise.
        let (congestion, rudy_stamps) = {
            let g = ROUTE_GRID;
            let mut map = live_map.unwrap_or_else(|| RudyMap::new(&work, g, g, route_capacity));
            let sp = SpanStart::now();
            map.build(&work.netlist, &final_forest);
            obs.stop(Phase::RudyUpdate, sp);
            obs.add(Counter::RudyBuilds, 1);
            (map.summary(), map.stamps_written())
        };
        let hpwl = wl_model.hpwl(&lx, &ly);

        // End-of-run gauges: backend selections and pool state.
        obs.gauge(Gauge::FftBackend, if uses_fft { 1.0 } else { 0.0 });
        obs.gauge(Gauge::OverflowedFrac, congestion.overflowed_frac);
        obs.gauge(Gauge::RudyStamps, rudy_stamps as f64);
        obs.gauge(Gauge::RsmtExact, rsmt.exact as f64);
        obs.gauge(Gauge::RsmtTable, rsmt.table as f64);
        obs.gauge(Gauge::RsmtPrim, rsmt.prim as f64);
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
        obs.gauge(Gauge::OverlapMs, overlap_ns as f64 / 1e6);
        obs.gauge(Gauge::PoolHelpedRegions, pool.helped_regions as f64);
        obs.gauge(Gauge::PoolStolenChunks, pool.stolen_chunks as f64);
        obs.flush();
        let timing_runtime = obs.sta_seconds() - sta_seconds_at_entry;

        FlowResult {
            mode: label,
            design: work.name.clone(),
            hpwl,
            wns,
            tns,
            iterations,
            runtime: t_start.elapsed().as_secs_f64(),
            timing_runtime,
            trace,
            xs: lx,
            ys: ly,
            congestion,
            rsmt,
        }
    }
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

    /// The pull classification of the loop forest against the per-cell push
    /// it replaced, over random displacement sets — nothing moved, a few
    /// cells, a fifth, every cell, some moved by zero — on a design with
    /// fixed cells on tree nets and cells with two pins on one net: the same
    /// geometry and topology sets, and bit-equal drift and budgets.
    #[test]
    fn pull_classification_equals_the_per_cell_push() {
        use dtp_netlist::generate::{generate, GeneratorConfig};
        let mut design = generate(&GeneratorConfig::named("pull", 1500)).expect("generator");
        let nl = &design.netlist;
        let forest = build_forest(nl);
        let tree_nets = |c: dtp_netlist::CellId| {
            let nets = nl.cell(c).pins().iter().filter_map(|&p| nl.pin(p).net());
            nets.filter(|&n| forest.tree(n).is_some()).collect::<Vec<_>>()
        };
        assert!(nl.cell_ids().any(|c| nl.cell(c).is_fixed() && !tree_nets(c).is_empty()));
        assert!(nl.movable_cells().any(|c| {
            let nets = tree_nets(c);
            (1..nets.len()).any(|k| nets[..k].contains(&nets[k]))
        }));

        let config = FlowConfig::default();
        let (mut xs, mut ys) = design.netlist.positions();
        let mut obs = Observer::new();
        let (mut pull, mut push) =
            (LoopForest::new(&design.netlist, &config), LoopForest::new(&design.netlist, &config));
        pull.sync(&design.netlist, &xs, &ys, &mut obs);
        push.sync(&design.netlist, &xs, &ys, &mut obs);
        let movable: Vec<usize> = design.netlist.movable_cells().map(|c| c.index()).collect();
        let mut rng = StdRng::seed_from_u64(41);
        let (mut geo, mut topo) = (0, 0);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let sorted = |v: &[NetId]| {
            let mut v: Vec<usize> = v.iter().map(|n| n.index()).collect();
            v.sort_unstable();
            v
        };
        for step in 0..16 {
            let share = [0.0, 0.01, 0.2, 1.0][step % 4];
            let reach = if step % 3 == 2 { 0.0 } else { [0.5, 4.0][step % 2] };
            for &c in &movable {
                if rng.gen_bool(share) {
                    xs[c] += reach * rng.gen_range(-1.0..1.0);
                    ys[c] += reach * rng.gen_range(-1.0..1.0);
                }
            }
            design.netlist.set_positions(&xs, &ys);
            for (lf, push_form) in [(&mut pull, false), (&mut push, true)] {
                let mut f = lf.forest.take().expect("built on the first sync");
                if push_form {
                    lf.maintain_push(&design.netlist, &mut f, &xs, &ys);
                } else {
                    lf.maintain(&design.netlist, &mut f, &xs, &ys);
                }
                lf.forest = Some(f);
            }
            assert_eq!(sorted(&pull.geo_nets), sorted(&push.geo_nets), "step {step}");
            assert_eq!(sorted(&pull.topo_nets), sorted(&push.topo_nets), "step {step}");
            assert_eq!(bits(&pull.net_drift), bits(&push.net_drift), "step {step}");
            assert_eq!(bits(&pull.net_budget), bits(&push.net_budget), "step {step}");
            geo += pull.geo_nets.len();
            topo += pull.topo_nets.len();
        }
        assert!(geo > 0 && topo > 0, "the steps exercise both lists: {geo} / {topo}");
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
