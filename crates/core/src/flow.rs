//! The global placement flows (Fig. 7 of the paper).
//!
//! One engine drives all the Table-3 flows; they differ only in which
//! timing mechanism injects itself into the gradient:
//!
//! - wirelength-only: none;
//! - net weighting: exact STA → per-net weights in the WA wirelength;
//! - differentiable (ours): smoothed STA → TNS/WNS gradients added to the
//!   wirelength + density gradient, Steiner forest rebuilt every N
//!   iterations and branch-updated in between;
//! - path extraction: forward-only exact STA → top-K critical paths →
//!   per-net weights concentrated on the extracted pins (the cheap, sharp
//!   timing signal; same weight slot as net weighting, a fraction of the
//!   differentiable mode's per-iteration timing cost).
//!
//! Orthogonally to the timing mechanism, [`FlowConfig::route_aware`] enables
//! the routability subsystem (`dtp-route`): a smoothed congestion penalty
//! joins the gradient every iteration, and a RUDY feedback loop periodically
//! inflates cells in overflowed bins and boosts the wirelength weight of
//! nets crossing them. The exact RUDY map is maintained incrementally from
//! the same geometry-dirty net sets that drive incremental timing.

use crate::config::{FlowConfig, FlowMode, LegalizerChoice};
use crate::weighting::{NetWeighter, PathWeighter};
use dtp_liberty::Library;
use dtp_netlist::{coarsen, CellId, ClusterMap, Design, NetId, NetlistError};
use dtp_obs::{Counter, Gauge, IterEvent, Observer, Phase};
use dtp_place::detail::DetailPlacer;
use dtp_place::{
    AbacusLegalizer, DensityModel, DensityResult, DensityScratch, Legalizer, NesterovOptimizer,
    WirelengthModel, WirelengthScratch,
};
use dtp_route::{inflation_factors, CongestionPenalty, CongestionSummary, RudyMap};
use dtp_rsmt::{build_forest, build_forest_with, ForestScratch, ForestStats, SteinerForest, TableConfig};
use dtp_sta::{Analysis, AnalysisScratch, PositionGradients, StaError, Timer, TimerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::fmt;
use std::time::Instant;

/// Fixed chunk size for the flow's per-cell gradient merges. The merges are
/// elementwise, so any chunking gives identical results; a fixed size keeps
/// the parallel shape independent of the pool width.
const MERGE_CHUNK: usize = 4096;

/// Overflow floor at which a coarse (clustered) level stops. A coarse level
/// only needs to form the global arrangement; resolving overlap at cluster
/// granularity costs far more wirelength than resolving it cell-by-cell, so
/// the expensive low-overflow endgame is left to the finer levels (which
/// redo it anyway).
const COARSE_STOP_OVERFLOW: f64 = 0.30;

/// Minimum iterations per coarse level before the overflow stop can fire
/// (mirrors the fine loop's `iter > 30` guard, scaled down).
const COARSE_MIN_ITERS: usize = 10;

/// Density overflow below which a warm-started finest level activates its
/// timing mechanism. A cold flow gates timing on an iteration count
/// (`start_iter`, default 100) tuned so timing engages once the placement
/// has spread; a warm start reaches the same state at an unpredictable
/// iteration, so it latches on the state itself — the overflow the cold
/// schedule typically shows when its own gate opens. Paired with
/// [`WARM_LAMBDA_GROWTH_BOOST`], which keeps the descent from here to the
/// stop overflow short: without it the warm level crawls through this band
/// at small λ and the (expensive) timing tail runs several times longer
/// than the cold flow's.
const WARM_TIMING_OVERFLOW: f64 = 0.15;

/// Multiplier on `FlowConfig::lambda_growth` for warm-started finest levels.
/// The warm λ re-entry (ratio 0.05 of the gradient balance) buys back the
/// wirelength-dominant phase, but with the cold growth rate the level then
/// spends most of its iterations crawling down the last few points of
/// overflow at small λ — where every iteration may also carry timing work.
/// A slightly steeper anneal compresses that tail.
const WARM_LAMBDA_GROWTH_BOOST: f64 = 1.01;

/// Seed placement handed to the finest level by the multi-level driver.
struct WarmStart {
    /// Interpolated lower-left x positions, indexed by cell.
    xs: Vec<f64>,
    /// Interpolated lower-left y positions.
    ys: Vec<f64>,
}

/// The solution of one coarse-level placement.
struct CoarseOutcome {
    xs: Vec<f64>,
    ys: Vec<f64>,
    iterations: usize,
}

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
    /// WNS at the end of global placement.
    pub gp_wns: f64,
    /// TNS at the end of global placement.
    pub gp_tns: f64,
    /// Global-placement iterations executed (summed over all levels in a
    /// multi-level run).
    pub iterations: usize,
    /// Iterations per level, coarsest first; a flat (single-level) flow
    /// reports one entry equal to [`FlowResult::iterations`].
    pub level_iterations: Vec<usize>,
    /// Wall-clock runtime of the whole flow, seconds.
    pub runtime: f64,
    /// Wall-clock spent inside timing analysis/gradients, seconds: the sum
    /// of the STA-phase spans ([`dtp_obs::Phase::is_sta`]) recorded during
    /// this run. Value-compatible with the legacy hand-timed accounting and
    /// populated whether or not observability is on.
    pub timing_runtime: f64,
    /// Optimization trajectory samples.
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
    /// forest (pure-wirelength mode without tracing).
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

/// Dirty-set bookkeeping for the incremental timing pipeline.
///
/// One instance lives across the whole placement loop; every buffer persists
/// between iterations so the per-iteration work is proportional to the
/// number of moved cells, not the design size.
struct IncrementalState {
    /// Positions at the last Steiner-forest synchronization.
    last_x: Vec<f64>,
    last_y: Vec<f64>,
    /// Accumulated worst cell drift per net since its last topology build.
    net_drift: Vec<f64>,
    /// Topology-rebuild budget per net:
    /// `topo_dirty_frac × pin bounding-box half-perimeter` at build time.
    net_budget: Vec<f64>,
    /// This-iteration max displacement per net (sparse; reset via `touched`).
    net_disp: Vec<f64>,
    /// Cells moved since the last timing analysis (flags + dense list).
    cell_moved: Vec<bool>,
    moved_cells: Vec<CellId>,
    /// Nets dirtied since the last timing analysis (flags + dense list).
    net_dirty: Vec<bool>,
    dirty_nets: Vec<usize>,
    /// Per-iteration classification scratch.
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

impl IncrementalState {
    fn new(num_cells: usize) -> IncrementalState {
        IncrementalState {
            last_x: Vec::new(),
            last_y: Vec::new(),
            net_drift: Vec::new(),
            net_budget: Vec::new(),
            net_disp: Vec::new(),
            cell_moved: vec![false; num_cells],
            moved_cells: Vec::new(),
            net_dirty: Vec::new(),
            dirty_nets: Vec::new(),
            geo_nets: Vec::new(),
            topo_nets: Vec::new(),
            touched: Vec::new(),
            movable: Vec::new(),
            cell_net_off: Vec::new(),
            cell_nets: Vec::new(),
        }
    }

    /// Re-seeds the bookkeeping after a full forest build: budgets from the
    /// fresh trees, zero drift, reference positions = current positions, and
    /// the movable-cell → tree-net table.
    fn reset_after_build(
        &mut self,
        nl: &dtp_netlist::Netlist,
        forest: &SteinerForest,
        xs: &[f64],
        ys: &[f64],
        topo_frac: f64,
    ) {
        let n = forest.len();
        self.movable.clear();
        self.cell_net_off.clear();
        self.cell_nets.clear();
        self.cell_net_off.push(0);
        for c in nl.movable_cells() {
            self.movable.push(c.index() as u32);
            // Clock nets have no tree: never built, never timed.
            let nets = nl.cell(c).pins().iter().filter_map(|&p| nl.pin(p).net());
            let tree_nets = nets.filter(|&net| forest.tree(net).is_some());
            self.cell_nets.extend(tree_nets.map(|net| net.index() as u32));
            self.cell_net_off.push(self.cell_nets.len() as u32);
        }
        self.net_drift.clear();
        self.net_drift.resize(n, 0.0);
        self.net_disp.clear();
        self.net_disp.resize(n, 0.0);
        self.net_budget.clear();
        self.net_budget.extend((0..n).map(|ni| {
            topo_frac
                * forest
                    .tree(NetId::new(ni))
                    .map_or(0.0, |t| t.pin_bbox_half_perimeter())
        }));
        self.net_dirty.clear();
        self.net_dirty.resize(n, false);
        self.dirty_nets.clear();
        self.last_x.clear();
        self.last_x.extend_from_slice(xs);
        self.last_y.clear();
        self.last_y.extend_from_slice(ys);
        self.cell_moved.fill(false);
        self.moved_cells.clear();
    }

    /// Per-iteration forest maintenance: classify the nets of moved cells as
    /// geometry-dirty (coordinate update) or topology-dirty (per-net Steiner
    /// rebuild once accumulated drift exceeds the bbox budget), apply both,
    /// and fold the moved cells into the since-last-analysis dirty set.
    fn sync_forest(
        &mut self,
        nl: &dtp_netlist::Netlist,
        forest: &mut SteinerForest,
        xs: &[f64],
        ys: &[f64],
        config: &FlowConfig,
        scratch: &mut ForestScratch,
    ) {
        let dirty_threshold = config.dirty_threshold;
        let topo_frac = config.topo_dirty_frac;
        self.touched.clear();
        for (&c, nets) in self.movable.iter().zip(self.cell_net_off.windows(2)) {
            let i = c as usize;
            let d = (xs[i] - self.last_x[i]).abs() + (ys[i] - self.last_y[i]).abs();
            if d <= dirty_threshold {
                continue;
            }
            if !self.cell_moved[i] {
                self.cell_moved[i] = true;
                self.moved_cells.push(CellId::new(i));
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
            if !self.net_dirty[ni] {
                self.net_dirty[ni] = true;
                self.dirty_nets.push(ni);
            }
            if self.net_drift[ni] > self.net_budget[ni] {
                self.topo_nets.push(NetId::new(ni));
            } else {
                self.geo_nets.push(NetId::new(ni));
            }
        }
        forest.update_nets_into(nl, &self.geo_nets, scratch);
        forest.rebuild_nets_into(nl, &self.topo_nets, scratch);
        for &net in &self.topo_nets {
            let ni = net.index();
            self.net_drift[ni] = 0.0;
            self.net_budget[ni] = topo_frac
                * forest
                    .tree(net)
                    .map_or(0.0, |t| t.pin_bbox_half_perimeter());
        }
        self.last_x.copy_from_slice(xs);
        self.last_y.copy_from_slice(ys);
    }

    /// Fraction of nets dirtied since the last analysis.
    fn dirty_fraction(&self, num_nets: usize) -> f64 {
        if num_nets == 0 {
            0.0
        } else {
            self.dirty_nets.len() as f64 / num_nets as f64
        }
    }

    /// Clears the since-last-analysis dirty set (call right after an
    /// analysis consumed it).
    fn mark_analyzed(&mut self) {
        for c in self.moved_cells.drain(..) {
            self.cell_moved[c.index()] = false;
        }
        for ni in self.dirty_nets.drain(..) {
            self.net_dirty[ni] = false;
        }
    }
}

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
    /// cadence.
    iters_active: usize,
    active: bool,
    /// Whether the map has been built from a forest yet.
    built: bool,
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
            built: false,
            boosted: false,
        }
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
    let mut obs = Observer::new(config.observe);
    run_flow_observed(design, lib, mode, config, &mut obs)
}

/// [`run_flow`] with a caller-owned [`Observer`]: the caller can attach a
/// JSONL trace sink beforehand and read the phase/counter report afterwards
/// (the `dtp` CLI's `--profile` / `--metrics-out` / `--trace-out` path).
///
/// The observer should be freshly constructed per run; its enablement is
/// honored as-is (it is *not* re-derived from [`FlowConfig::observe`]).
/// Observability only ever reads clocks and counts events, so an enabled
/// observer leaves the placement trajectory bit-for-bit identical to a
/// disabled one — the `obs_golden` tests assert this.
///
/// # Errors
///
/// Returns [`FlowError::Sta`] if the netlist cannot be bound to the library
/// or contains combinational cycles.
pub fn run_flow_observed(
    design: &Design,
    lib: &Library,
    mode: FlowMode,
    config: &FlowConfig,
    obs: &mut Observer,
) -> Result<FlowResult, FlowError> {
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

fn run_flow_inner(
    design: &Design,
    lib: &Library,
    mode: FlowMode,
    config: &FlowConfig,
    obs: &mut Observer,
) -> Result<FlowResult, FlowError> {
    if !dtp_place::GRID_AXIS_BINS.contains(&config.bins) {
        return Err(FlowError::Config(format!(
            "bins = {}: the density grid needs 2..=65535 bins per axis",
            config.bins
        )));
    }
    check_route_knobs(config)?;
    emit_trace_header(design, mode, config, obs);
    if config.multilevel && config.levels >= 2 && config.cluster_ratio > 1.0 {
        run_flow_multilevel(design, lib, mode, config, obs)
    } else {
        run_flow_fine(design, lib, mode, config, obs, None)
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

/// Writes the v2 trace header — the run's full identity: mode, config,
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

/// The multi-level (clustered) V-cycle: coarsen the netlist `levels - 1`
/// times, place the coarsest level from a cold start, then walk back down
/// the ladder — interpolate each coarse solution onto the next finer level
/// and refine it there. Coarse levels run wirelength + density only (cluster
/// pseudo-cells carry synthetic classes the liberty library cannot bind);
/// the finest level runs the full flow, warm-started, with its timing
/// mechanism engaging at [`WARM_TIMING_START`].
fn run_flow_multilevel(
    design: &Design,
    lib: &Library,
    mode: FlowMode,
    config: &FlowConfig,
    obs: &mut Observer,
) -> Result<FlowResult, FlowError> {
    let t_start = Instant::now();

    // Build the ladder: designs[0] is one level above the input design,
    // designs[l] is coarser than designs[l - 1]. Stop early when a round
    // stops reducing (tiny designs, everything fixed).
    let mut designs: Vec<Design> = Vec::new();
    let mut maps: Vec<ClusterMap> = Vec::new();
    let sp = obs.start(Phase::Coarsen);
    for l in 1..config.levels {
        let cur = designs.last().unwrap_or(design);
        let (c, m) = coarsen(cur, config.cluster_ratio, config.seed ^ l as u64);
        if c.netlist.num_cells() as f64 > 0.9 * cur.netlist.num_cells() as f64 {
            break;
        }
        designs.push(c);
        maps.push(m);
    }
    obs.stop(Phase::Coarsen, sp);
    if designs.is_empty() {
        return run_flow_fine(design, lib, mode, config, obs, None);
    }

    // Upstroke: coarsest → finest. Each level refines the previous level's
    // interpolated solution; the coarsest starts cold.
    let mut level_iterations: Vec<usize> = Vec::new();
    let mut warm_pos: Option<(Vec<f64>, Vec<f64>)> = None;
    for l in (0..designs.len()).rev() {
        let out =
            run_coarse_level(&mut designs[l], l + 1, lib, mode, config, obs, warm_pos.take());
        dtp_obs::info!(
            "multilevel: level {} ({} clusters) placed in {} iterations",
            l + 1,
            designs[l].netlist.num_cells(),
            out.iterations
        );
        level_iterations.push(out.iterations);
        let coarse_nl = &designs[l].netlist;
        let (fine_nl, region) = if l == 0 {
            (&design.netlist, design.region)
        } else {
            (&designs[l - 1].netlist, designs[l - 1].region)
        };
        let sp = obs.start(Phase::Interpolate);
        let (mut fx, mut fy) = fine_nl.positions();
        maps[l].interpolate(
            fine_nl, coarse_nl, region, config.seed, &out.xs, &out.ys, &mut fx, &mut fy,
        );
        obs.stop(Phase::Interpolate, sp);
        warm_pos = Some((fx, fy));
    }

    let (wxs, wys) = warm_pos.take().expect("ladder is non-empty");
    let mut result = run_flow_fine(
        design,
        lib,
        mode,
        config,
        obs,
        Some(WarmStart { xs: wxs, ys: wys }),
    )?;
    dtp_obs::info!(
        "multilevel: level 0 ({} cells) refined in {} iterations",
        design.netlist.num_cells(),
        result.iterations
    );
    level_iterations.push(result.iterations);
    result.iterations = level_iterations.iter().sum();
    result.level_iterations = level_iterations;
    result.runtime = t_start.elapsed().as_secs_f64();
    Ok(result)
}

/// Places one coarse (clustered) design: plain ePlace — WA wirelength +
/// electrostatic density under preconditioned Nesterov — with no routing
/// machinery and, in most modes, no timing (cluster pseudo-cells carry
/// synthetic classes the library cannot bind, so the full differentiable
/// objective is unavailable here).
///
/// The one exception is [`FlowMode::PathExtraction`]: its timing signal
/// needs only a forward analysis over whatever endpoints *survive*
/// coarsening (uncollapsed registers, primary outputs), so when the coarse
/// design still has endpoints, the level periodically extracts the top-K
/// paths and carries their net weights in the WA wirelength — timing
/// pressure on the levels where the differentiable gradient cannot run.
///
/// Returns the global-placement solution (unlegalized; finer levels only
/// need the arrangement).
fn run_coarse_level(
    work: &mut Design,
    level: usize,
    lib: &Library,
    mode: FlowMode,
    config: &FlowConfig,
    obs: &mut Observer,
    warm: Option<(Vec<f64>, Vec<f64>)>,
) -> CoarseOutcome {
    let nl_cells = work.netlist.num_cells();
    // Halve the density grid per level (floor 32): clusters are ~ratio×
    // larger than cells, so the field granularity must coarsen with them or
    // it fights cluster interleaving the finer levels resolve trivially.
    // Powers of two are preserved, so the FFT backend still applies.
    let bins = (config.bins >> level).max(32.min(config.bins));

    match warm {
        Some((xs, ys)) => work.netlist.set_positions(&xs, &ys),
        None => {
            // Cold start: same center-cluster seeding as the fine flow.
            let mut rng = StdRng::seed_from_u64(config.seed);
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
    }

    let wl_model = WirelengthModel::new(&work.netlist);
    let density = DensityModel::with_options(
        work,
        bins,
        bins,
        config.target_density,
        config.density_fft,
    );
    let bin_w = work.region.width() / bins as f64;
    let mut pin_count = vec![0.0f64; nl_cells];
    for p in work.netlist.pin_ids() {
        if work.netlist.pin(p).net().is_some() {
            pin_count[work.netlist.pin(p).cell().index()] += 1.0;
        }
    }
    let areas: Vec<f64> = work
        .netlist
        .cell_ids()
        .map(|c| work.netlist.class_of(c).area())
        .collect();
    let mut opt = NesterovOptimizer::new(work, bin_w);
    let mut vx: Vec<f64> = Vec::new();
    let mut vy: Vec<f64> = Vec::new();
    let mut wl_scratch = WirelengthScratch::new();
    let mut gx: Vec<f64> = Vec::new();
    let mut gy: Vec<f64> = Vec::new();
    let mut dscratch = DensityScratch::new();
    density.presize_scratch(&mut dscratch);
    let mut dres = DensityResult::default();
    let mut precond: Vec<f64> = Vec::new();
    let mut lambda = config.lambda_init;
    let mut overflow = 1.0f64;
    let stop_overflow = config.stop_overflow.max(COARSE_STOP_OVERFLOW);

    // Coarse path extraction: only when the mode asks for it, the clustered
    // netlist still binds (synthetic cluster classes bind as unbound
    // pass-throughs), and some endpoints survived coarsening. Everything is
    // guarded — a fully clustered proxy with no endpoints skips the
    // machinery entirely and the level stays pure wirelength + density.
    let mut coarse_paths = match mode {
        FlowMode::PathExtraction(pcfg) => Timer::new(work, lib)
            .ok()
            .filter(|t| !t.graph().endpoints().is_empty())
            .map(|t| {
                let pw = PathWeighter::new(&work.netlist, &wl_model, pcfg);
                (t, pw, AnalysisScratch::new(), pcfg.extract_period.max(1))
            }),
        _ => None,
    };
    // Clusters pre-aggregate connectivity, so the coarse anneal can afford a
    // density schedule twice as steep as the fine flow's: the arrangement
    // forms in roughly half the iterations at no observed quality cost (the
    // finer levels re-anneal the endgame anyway).
    let lambda_growth = config.lambda_growth * config.lambda_growth;

    let mut iterations = 0usize;
    for iter in 0..config.max_iters {
        iterations = iter + 1;
        obs.iter_begin();
        obs.add(Counter::Iterations, 1);
        obs.add(Counter::CoarseIterations, 1);

        {
            let (a, b) = opt.positions();
            vx.clear();
            vx.extend_from_slice(a);
            vy.clear();
            vy.extend_from_slice(b);
        }

        // Periodic top-K extraction (path-extraction mode only): a fresh
        // forest + forward-only analysis at the extraction cadence; the
        // resulting net weights ride in the WA wirelength below until the
        // next extraction.
        let mut traced_wns = f64::NAN;
        let mut traced_tns = f64::NAN;
        if let Some((timer, pw, ascratch, period)) = coarse_paths.as_mut() {
            if iter % *period == 0 {
                work.netlist.set_positions(&vx, &vy);
                let sp = obs.start(Phase::SteinerBuild);
                let f = build_forest(&work.netlist);
                obs.stop(Phase::SteinerBuild, sp);
                obs.add(Counter::ForestBuilds, 1);
                let sp = obs.start(Phase::StaForward);
                let a = timer.analyze_no_rat_into(&work.netlist, &f, ascratch);
                obs.stop(Phase::StaForward, sp);
                obs.add(Counter::StaFull, 1);
                let sp = obs.start(Phase::PathExtract);
                pw.update(&work.netlist, timer, &a);
                obs.stop(Phase::PathExtract, sp);
                obs.add(Counter::PathExtractions, 1);
                traced_wns = a.wns();
                traced_tns = a.tns();
                ascratch.recycle(a);
            }
        }
        let weights = coarse_paths.as_ref().map(|(_, pw, _, _)| pw.weights());

        let wa_gamma = (bin_w * (0.1 + 8.0 * overflow)).max(1e-3);
        let sp = obs.start(Phase::WirelengthGrad);
        let wl_value = wl_model.wa_gradient_into(
            &vx,
            &vy,
            wa_gamma,
            weights,
            &mut wl_scratch,
            &mut gx,
            &mut gy,
        );
        obs.stop(Phase::WirelengthGrad, sp);

        let sp = obs.start(Phase::DensityGrad);
        density.evaluate_into(&vx, &vy, &mut dscratch, &mut dres);
        overflow = dres.overflow;
        if lambda == 0.0 {
            let wl_norm: f64 = gx.iter().chain(gy.iter()).map(|g| g.abs()).sum();
            let d_norm: f64 = dres
                .grad_x
                .iter()
                .chain(dres.grad_y.iter())
                .map(|g| g.abs())
                .sum();
            lambda = if d_norm > 0.0 { 0.1 * wl_norm / d_norm } else { 1.0 };
        }
        axpy_into(&mut gx, &dres.grad_x, lambda);
        axpy_into(&mut gy, &dres.grad_y, lambda);
        obs.stop(Phase::DensityGrad, sp);

        let sp = obs.start(Phase::NesterovStep);
        precond.resize(nl_cells, 0.0);
        precond
            .par_chunks_mut(MERGE_CHUNK)
            .zip(pin_count.par_chunks(MERGE_CHUNK))
            .zip(areas.par_chunks(MERGE_CHUNK))
            .for_each(|((pr, pc), ar)| {
                for ((p, &c), &a) in pr.iter_mut().zip(pc).zip(ar) {
                    *p = (c + lambda * a).max(1.0);
                }
            });
        let step = opt.step(&gx, &gy, &precond);
        let iter_lambda = lambda;
        lambda *= lambda_growth;
        obs.stop(Phase::NesterovStep, sp);

        obs.iter_end(IterEvent {
            iter: iter as u64,
            level: level as u32,
            wl: wl_value,
            hpwl: f64::NAN,
            overflow,
            lambda: iter_lambda,
            step,
            wns: traced_wns,
            tns: traced_tns,
            timing: coarse_paths.is_some(),
        });

        if iter > COARSE_MIN_ITERS && overflow < stop_overflow {
            break;
        }
    }

    let (sx, sy) = opt.solution();
    CoarseOutcome { xs: sx.to_vec(), ys: sy.to_vec(), iterations }
}

fn run_flow_fine(
    design: &Design,
    lib: &Library,
    mode: FlowMode,
    config: &FlowConfig,
    obs: &mut Observer,
    warm: Option<WarmStart>,
) -> Result<FlowResult, FlowError> {
    let t_start = Instant::now();
    // `timing_runtime` is reported as the STA-span delta across this run,
    // so a reused observer does not double-count an earlier run's time.
    let sta_seconds_at_entry = obs.sta_seconds();
    let mut work = design.clone();
    let nl_cells = work.netlist.num_cells();

    // --- initial placement ---------------------------------------------------
    // Cold start: cluster at the core center with small noise. Warm start
    // (multi-level): seed from the interpolated coarse solution.
    match &warm {
        Some(w) => work.netlist.set_positions(&w.xs, &w.ys),
        None => {
            let mut rng = StdRng::seed_from_u64(config.seed);
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
    }

    // Iteration at which the mode's timing mechanism activates. A cold start
    // uses the mode's `start_iter` directly; a warm start doesn't know which
    // iteration corresponds to "spread enough", so it starts unset and is
    // latched below once overflow first drops under [`WARM_TIMING_OVERFLOW`].
    // Pure-wirelength mode never activates timing, warm or not.
    let mut timing_start = match (mode, &warm) {
        (FlowMode::Wirelength, _) => usize::MAX,
        (_, Some(_)) => usize::MAX,
        (FlowMode::Differentiable(d), None) => d.start_iter,
        (FlowMode::NetWeighting(n), None) => n.start_iter,
        (FlowMode::PathExtraction(p), None) => p.start_iter,
    };

    // A warm start re-enters λ low (auto-balance ratio below) to rebuild a
    // wirelength-dominant phase, but the standard growth then crawls through
    // the overflow tail — the placement is already globally arranged, so the
    // anneal is compressed slightly to keep the (expensive) endgame short.
    let lambda_growth = match &warm {
        Some(_) => config.lambda_growth * WARM_LAMBDA_GROWTH_BOOST,
        None => config.lambda_growth,
    };

    // --- models -------------------------------------------------------------
    let wl_model = WirelengthModel::new(&work.netlist);
    let mut density = DensityModel::with_options(
        &work,
        config.bins,
        config.bins,
        config.target_density,
        config.density_fft,
    );
    let bin_w = work.region.width() / config.bins as f64;
    let (timer_gamma, wire_model) = match mode {
        FlowMode::Differentiable(d) => (d.gamma, d.wire_model.into()),
        _ => (TimerConfig::default().gamma, dtp_sta::WireModel::Elmore),
    };
    let timer = Timer::with_config(
        &work,
        lib,
        TimerConfig { gamma: timer_gamma, wire_model, ..TimerConfig::default() },
    )?;
    let mut weighter = match mode {
        FlowMode::NetWeighting(cfg) => Some(NetWeighter::new(&wl_model, cfg)),
        _ => None,
    };
    let mut path_weighter = match mode {
        FlowMode::PathExtraction(cfg) => {
            Some(PathWeighter::new(&work.netlist, &wl_model, cfg))
        }
        _ => None,
    };
    // Per-cell preconditioner ingredients.
    let mut pin_count = vec![0.0f64; nl_cells];
    for p in work.netlist.pin_ids() {
        if work.netlist.pin(p).net().is_some() {
            pin_count[work.netlist.pin(p).cell().index()] += 1.0;
        }
    }
    let areas: Vec<f64> = work
        .netlist
        .cell_ids()
        .map(|c| work.netlist.class_of(c).area())
        .collect();

    let mut route = config.route_aware.then(|| RouteState::new(&work, config));
    let mut opt = NesterovOptimizer::new(&work, bin_w);
    let mut forest: Option<SteinerForest> = None;
    // Topology-table configuration for the in-loop forest; the post-GP and
    // final reporting forests always use the legacy constructions so the
    // reported metrics stay comparable across configurations.
    let table_cfg = TableConfig {
        enabled: config.rsmt_tables,
        max_degree: config.rsmt_table_max_degree,
    };
    let mut forest_scratch = ForestScratch::new();
    let mut inc = IncrementalState::new(nl_cells);
    let mut scratch = AnalysisScratch::new();
    // Pre-size every scratch from the design's stats so the steady-state
    // iteration allocates nothing: the warm-up growth that used to happen
    // lazily inside the first iterations happens here, once.
    forest_scratch.presize(work.netlist.num_nets());
    scratch.presize(work.netlist.num_pins(), work.netlist.num_nets());
    let mut grads = PositionGradients::default();
    let mut prev: Option<Analysis> = None;
    // Persistent position buffers (refilled from the optimizer each
    // iteration instead of allocating two fresh Vecs).
    let mut vx: Vec<f64> = Vec::new();
    let mut vy: Vec<f64> = Vec::new();
    // Persistent gradient-path buffers: with these, the steady-state
    // wirelength + density + timing gradient evaluation allocates nothing.
    let mut wl_scratch = WirelengthScratch::new();
    let mut gx: Vec<f64> = Vec::new();
    let mut gy: Vec<f64> = Vec::new();
    let mut dscratch = DensityScratch::new();
    density.presize_scratch(&mut dscratch);
    let mut dres = DensityResult::default();
    let mut precond: Vec<f64> = Vec::new();
    let mut lambda = config.lambda_init;
    let mut overflow = 1.0f64;
    let mut trace = Vec::new();
    let (mut t1, mut t2) = match mode {
        FlowMode::Differentiable(d) => (d.t1, d.t2),
        _ => (0.0, 0.0),
    };

    let mut iterations = 0usize;
    for iter in 0..config.max_iters {
        iterations = iter + 1;
        obs.iter_begin();
        obs.add(Counter::Iterations, 1);
        {
            let (a, b) = opt.positions();
            vx.clear();
            vx.extend_from_slice(a);
            vy.clear();
            vy.extend_from_slice(b);
        }
        work.netlist.set_positions(&vx, &vy);

        // Warm-started timing latch: `overflow` here is still the previous
        // iteration's value, same as the route-activation latch below.
        if warm.is_some()
            && timing_start == usize::MAX
            && !matches!(mode, FlowMode::Wirelength)
            && iter > 0
            && overflow < WARM_TIMING_OVERFLOW
        {
            timing_start = iter;
        }
        // Steiner forest maintenance (only when some consumer needs it).
        let timing_active = iter >= timing_start;
        let trace_timing =
            config.trace_timing_every > 0 && iter % config.trace_timing_every == 0;
        // Congestion optimization latches on once the cells have spread out
        // (`overflow` here is still the previous iteration's value).
        if let Some(rs) = route.as_mut() {
            if !rs.active && iter > 0 && overflow < ROUTE_START_OVERFLOW {
                rs.active = true;
            }
        }
        let route_active = route.as_ref().is_some_and(|rs| rs.active);
        if timing_active || trace_timing || route_active {
            if config.incremental_timing {
                // Dirty-set maintenance: per-net coordinate updates for
                // geometry-dirty nets, per-net Steiner rebuilds once a net's
                // accumulated drift exceeds its bbox budget. Replaces the
                // blanket periodic full-forest rebuild.
                match &mut forest {
                    Some(f) => {
                        let sp = obs.start(Phase::SteinerUpdate);
                        inc.sync_forest(
                            &work.netlist,
                            f,
                            &vx,
                            &vy,
                            config,
                            &mut forest_scratch,
                        );
                        obs.stop(Phase::SteinerUpdate, sp);
                        obs.add(Counter::ForestSyncs, 1);
                        obs.add(Counter::GeoDirtyNets, inc.geo_nets.len() as u64);
                        obs.add(Counter::TopoDirtyNets, inc.topo_nets.len() as u64);
                    }
                    None => {
                        let sp = obs.start(Phase::SteinerBuild);
                        let f = build_forest_with(&work.netlist, table_cfg);
                        let frac = config.topo_dirty_frac;
                        inc.reset_after_build(&work.netlist, &f, &vx, &vy, frac);
                        forest = Some(f);
                        obs.stop(Phase::SteinerBuild, sp);
                        obs.add(Counter::ForestBuilds, 1);
                        if let Some(p) = prev.take() {
                            scratch.recycle(p);
                        }
                    }
                }
            } else {
                let rebuild_period = match mode {
                    FlowMode::Differentiable(d) => d.steiner_rebuild_period,
                    _ => 10,
                };
                match &mut forest {
                    Some(f) if iter % rebuild_period != 0 => {
                        let sp = obs.start(Phase::SteinerUpdate);
                        f.update_positions(&work.netlist);
                        obs.stop(Phase::SteinerUpdate, sp);
                    }
                    _ => {
                        let sp = obs.start(Phase::SteinerBuild);
                        forest = Some(build_forest_with(&work.netlist, table_cfg));
                        obs.stop(Phase::SteinerBuild, sp);
                        obs.add(Counter::ForestBuilds, 1);
                    }
                }
            }
        }

        // Route layer, one two-task region: the exact RUDY map (full build on
        // activation, then incremental updates from the same
        // geometry/topology-dirty net sets the incremental timer consumes,
        // plus a cell-position scan for the pin-density term; the legacy
        // non-incremental path has no dirty sets and rebuilds at the feedback
        // cadence instead) and the smoothed penalty's gradient. Both only
        // read the forest and the positions and write state of their own, so
        // whichever thread runs which leaves the same bits; the gradient is
        // merged into the objective further down, once there is a
        // wirelength + density gradient to scale it against.
        if route_active {
            let rs = route.as_mut().expect("route state exists when active");
            let f = forest.as_ref().expect("forest built when route is active");
            let sp = obs.start(Phase::RudyUpdate);
            let rebuild = !rs.built
                || (!config.incremental_timing
                    && rs.iters_active % config.route_update_period == 0);
            rs.built = true;
            let RouteState { map, penalty, pgx, pgy, .. } = rs;
            let nl = &work.netlist;
            let mut map_step = || {
                if rebuild {
                    map.build(nl, f);
                } else if config.incremental_timing {
                    map.update_nets(f, &inc.geo_nets);
                    map.update_nets(f, &inc.topo_nets);
                    map.sync_cells(nl);
                }
            };
            let mut penalty_step = || penalty.gradient(nl, f, pgx, pgy);
            let mut steps: [&mut (dyn FnMut() + Send); 2] = [&mut map_step, &mut penalty_step];
            steps.par_chunks_mut(1).for_each(|step| (step[0])());
            if rebuild {
                obs.add(Counter::RudyBuilds, 1);
            } else if config.incremental_timing {
                obs.add(Counter::RudyIncUpdates, 1);
            }
            obs.stop(Phase::RudyUpdate, sp);
        }

        // Wirelength gradient (WA), γ annealed with overflow; congested
        // nets carry their boosted weight (merged with the timing
        // weighter's weights when both mechanisms are on).
        let wa_gamma = (bin_w * (0.1 + 8.0 * overflow)).max(1e-3);
        let sp = obs.start(Phase::WirelengthGrad);
        let timing_weights = weighter
            .as_ref()
            .map(NetWeighter::weights)
            .or_else(|| path_weighter.as_ref().map(PathWeighter::weights));
        if let Some(rs) = route.as_mut().filter(|rs| rs.boosted) {
            rs.combined.clear();
            match timing_weights {
                Some(w) => rs
                    .combined
                    .extend(w.iter().zip(&rs.boost).map(|(a, b)| a * b)),
                None => rs.combined.extend_from_slice(&rs.boost),
            }
        }
        let weights = match route.as_ref() {
            Some(rs) if rs.boosted => Some(rs.combined.as_slice()),
            _ => timing_weights,
        };
        let wl_value = wl_model.wa_gradient_into(
            &vx,
            &vy,
            wa_gamma,
            weights,
            &mut wl_scratch,
            &mut gx,
            &mut gy,
        );
        obs.stop(Phase::WirelengthGrad, sp);

        // Density gradient.
        let sp = obs.start(Phase::DensityGrad);
        density.evaluate_into(&vx, &vy, &mut dscratch, &mut dres);
        overflow = dres.overflow;
        if lambda == 0.0 {
            // Auto-balance λ against the wirelength gradient on iteration 0.
            // A warm start re-enters the λ schedule "mid-flight": the
            // placement is already spread, so the density gradient is small
            // and the cold-start ratio would over-weight density from the
            // first step, freezing the arrangement before wirelength (and
            // timing) can improve it. A lower ratio restores the
            // wirelength-dominant phase the cold schedule gets for free.
            let ratio = if warm.is_some() { 0.05 } else { 0.1 };
            let wl_norm: f64 = gx.iter().chain(gy.iter()).map(|g| g.abs()).sum();
            let d_norm: f64 = dres
                .grad_x
                .iter()
                .chain(dres.grad_y.iter())
                .map(|g| g.abs())
                .sum();
            lambda = if d_norm > 0.0 { ratio * wl_norm / d_norm } else { 1.0 };
        }
        axpy_into(&mut gx, &dres.grad_x, lambda);
        axpy_into(&mut gy, &dres.grad_y, lambda);
        obs.stop(Phase::DensityGrad, sp);

        // Congestion penalty gradient (evaluated with the map update above),
        // normalized like the timing preconditioner: its ∞-norm is pinned to
        // `route_weight` times the combined wirelength+density gradient's,
        // so the pressure tracks the optimizer's scale instead of the raw
        // demand units.
        if route_active {
            let rs = route.as_mut().expect("route state exists when active");
            let sp = obs.start(Phase::CongestionGrad);
            let base_norm = gx
                .iter()
                .chain(gy.iter())
                .fold(0.0f64, |m, &g| m.max(g.abs()));
            let p_norm = rs
                .pgx
                .iter()
                .chain(rs.pgy.iter())
                .fold(0.0f64, |m, &g| m.max(g.abs()));
            if p_norm > 0.0 {
                let scale = config.route_weight * base_norm / p_norm;
                axpy_into(&mut gx, &rs.pgx, scale);
                axpy_into(&mut gy, &rs.pgy, scale);
            }
            obs.stop(Phase::CongestionGrad, sp);
        }

        // RUDY feedback every `route_update_period` active iterations:
        // inflate cells in overflowed bins (density-model footprints) and
        // boost the wirelength weight of nets crossing them; both take
        // effect from the next iteration's gradients.
        if route_active {
            let rs = route.as_mut().expect("route state exists when active");
            let sp = obs.start(Phase::RudyUpdate);
            if rs.iters_active % config.route_update_period == 0 {
                inflation_factors(
                    &rs.map,
                    &work.netlist,
                    config.inflation_max,
                    &mut rs.inflation,
                );
                density.set_inflation(&rs.inflation);
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

        // Timing mechanisms.
        let mut traced_wns = f64::NAN;
        let mut traced_tns = f64::NAN;
        match mode {
            FlowMode::Differentiable(dcfg) if timing_active => {
                let f = forest.as_ref().expect("forest built when timing is active");
                let sp = obs.start(Phase::StaForward);
                // Incremental smoothed analysis when only a few nets are
                // dirty; full re-analysis on the first timing iteration and
                // past the fallback fraction. Gradients never read RATs, so
                // the incremental path skips the backward sweep.
                let analysis = match prev.take() {
                    Some(p)
                        if config.incremental_timing
                            && p.gamma == timer_gamma
                            && inc.dirty_fraction(f.len())
                                <= config.incremental_fallback_frac =>
                    {
                        obs.add(Counter::StaIncremental, 1);
                        let a = timer.analyze_incremental_into(
                            &work.netlist,
                            f,
                            &p,
                            &inc.moved_cells,
                            false,
                            &mut scratch,
                        );
                        scratch.recycle(p);
                        a
                    }
                    p => {
                        obs.add(Counter::StaFull, 1);
                        if config.incremental_timing && p.is_some() {
                            obs.add(Counter::StaFallback, 1);
                        }
                        if let Some(p) = p {
                            scratch.recycle(p);
                        }
                        timer.analyze_smoothed_into(&work.netlist, f, &mut scratch)
                    }
                };
                inc.mark_analyzed();
                obs.stop(Phase::StaForward, sp);
                let sp = obs.start(Phase::StaBackward);
                timer.gradients_into(
                    &work.netlist,
                    &analysis,
                    f,
                    t1,
                    t2,
                    &mut scratch,
                    &mut grads,
                );
                prev = Some(analysis);
                obs.stop(Phase::StaBackward, sp);
                // Optional preconditioning (§5 future work): normalize the
                // timing gradient against the combined WL+density gradient.
                let scale = if dcfg.grad_norm_target > 0.0 {
                    let base_norm = gx
                        .iter()
                        .chain(gy.iter())
                        .fold(0.0f64, |m, &g| m.max(g.abs()));
                    let t_norm = grads
                        .cell_grad_x
                        .iter()
                        .chain(grads.cell_grad_y.iter())
                        .fold(0.0f64, |m, &g| m.max(g.abs()));
                    if t_norm > 0.0 { dcfg.grad_norm_target * base_norm / t_norm } else { 0.0 }
                } else {
                    1.0
                };
                axpy_into(&mut gx, &grads.cell_grad_x, scale);
                axpy_into(&mut gy, &grads.cell_grad_y, scale);
                t1 *= dcfg.growth;
                t2 *= dcfg.growth;
            }
            FlowMode::NetWeighting(wcfg)
                if timing_active && (iter - timing_start) % wcfg.sta_period == 0 =>
            {
                let f = forest.as_ref().expect("forest built when timing is active");
                let sp = obs.start(Phase::StaForward);
                // The weighter reads per-pin slacks, so the incremental
                // path must recompute the RAT sweep (`recompute_rat`).
                let analysis = match prev.take() {
                    Some(p)
                        if config.incremental_timing
                            && p.gamma == 0.0
                            && inc.dirty_fraction(f.len())
                                <= config.incremental_fallback_frac =>
                    {
                        obs.add(Counter::StaIncremental, 1);
                        let a = timer.analyze_incremental_into(
                            &work.netlist,
                            f,
                            &p,
                            &inc.moved_cells,
                            true,
                            &mut scratch,
                        );
                        scratch.recycle(p);
                        a
                    }
                    p => {
                        obs.add(Counter::StaFull, 1);
                        if config.incremental_timing && p.is_some() {
                            obs.add(Counter::StaFallback, 1);
                        }
                        if let Some(p) = p {
                            scratch.recycle(p);
                        }
                        timer.analyze_into(&work.netlist, f, &mut scratch)
                    }
                };
                inc.mark_analyzed();
                obs.stop(Phase::StaForward, sp);
                let sp = obs.start(Phase::NetWeight);
                weighter
                    .as_mut()
                    .expect("weighter exists in net-weighting mode")
                    .update(&work.netlist, &wl_model, &analysis);
                obs.stop(Phase::NetWeight, sp);
                traced_wns = analysis.wns();
                traced_tns = analysis.tns();
                prev = Some(analysis);
            }
            FlowMode::PathExtraction(pcfg)
                if timing_active
                    && (iter - timing_start) % pcfg.extract_period.max(1) == 0 =>
            {
                let f = forest.as_ref().expect("forest built when timing is active");
                let sp = obs.start(Phase::StaForward);
                // Path extraction reads only arrival times and endpoint
                // slacks, so no RAT sweep runs on either path: the
                // incremental analysis skips it (`recompute_rat = false`)
                // and the full analysis is forward-only.
                let analysis = match prev.take() {
                    Some(p)
                        if config.incremental_timing
                            && p.gamma == 0.0
                            && inc.dirty_fraction(f.len())
                                <= config.incremental_fallback_frac =>
                    {
                        obs.add(Counter::StaIncremental, 1);
                        let a = timer.analyze_incremental_into(
                            &work.netlist,
                            f,
                            &p,
                            &inc.moved_cells,
                            false,
                            &mut scratch,
                        );
                        scratch.recycle(p);
                        a
                    }
                    p => {
                        obs.add(Counter::StaFull, 1);
                        if config.incremental_timing && p.is_some() {
                            obs.add(Counter::StaFallback, 1);
                        }
                        if let Some(p) = p {
                            scratch.recycle(p);
                        }
                        timer.analyze_no_rat_into(&work.netlist, f, &mut scratch)
                    }
                };
                inc.mark_analyzed();
                obs.stop(Phase::StaForward, sp);
                let sp = obs.start(Phase::PathExtract);
                path_weighter
                    .as_mut()
                    .expect("path weighter exists in path-extraction mode")
                    .update(&work.netlist, &timer, &analysis);
                obs.stop(Phase::PathExtract, sp);
                obs.add(Counter::PathExtractions, 1);
                traced_wns = analysis.wns();
                traced_tns = analysis.tns();
                prev = Some(analysis);
            }
            _ => {}
        }

        // Trace (exact timing only every `trace_timing_every` iterations).
        if trace_timing && traced_wns.is_nan() {
            if let Some(f) = forest.as_ref() {
                let sp = obs.start(Phase::TraceSta);
                let analysis = timer.analyze_into(&work.netlist, f, &mut scratch);
                obs.stop(Phase::TraceSta, sp);
                obs.add(Counter::TraceAnalyses, 1);
                traced_wns = analysis.wns();
                traced_tns = analysis.tns();
                scratch.recycle(analysis);
            }
        }
        // Exact HPWL is only computed on traced iterations; telemetry reuses
        // it and reports `null` elsewhere (the smoothed WA wirelength is
        // free every iteration).
        let iter_hpwl = if trace_timing { wl_model.hpwl(&vx, &vy) } else { f64::NAN };
        if trace_timing {
            trace.push(TracePoint {
                iter,
                hpwl: iter_hpwl,
                overflow,
                wns: traced_wns,
                tns: traced_tns,
            });
        }

        // Preconditioned Nesterov step (persistent buffer, no per-iteration
        // allocation).
        let sp = obs.start(Phase::NesterovStep);
        precond.resize(nl_cells, 0.0);
        precond
            .par_chunks_mut(MERGE_CHUNK)
            .zip(pin_count.par_chunks(MERGE_CHUNK))
            .zip(areas.par_chunks(MERGE_CHUNK))
            .for_each(|((pr, pc), ar)| {
                for ((p, &c), &a) in pr.iter_mut().zip(pc).zip(ar) {
                    *p = (c + lambda * a).max(1.0);
                }
            });
        let step = opt.step(&gx, &gy, &precond);
        // The trace records the λ this iteration's gradient actually used
        // (post auto-balance, pre growth).
        let iter_lambda = lambda;
        lambda *= lambda_growth;
        obs.stop(Phase::NesterovStep, sp);

        obs.iter_end(IterEvent {
            iter: iter as u64,
            level: 0,
            wl: wl_value,
            hpwl: iter_hpwl,
            overflow,
            lambda: iter_lambda,
            step,
            wns: traced_wns,
            tns: traced_tns,
            timing: timing_active,
        });

        if iter > 30 && overflow < config.stop_overflow {
            break;
        }
    }

    // --- post-GP metrics ------------------------------------------------------
    let (sx, sy) = {
        let (a, b) = opt.solution();
        (a.to_vec(), b.to_vec())
    };
    work.netlist.set_positions(&sx, &sy);
    // The loop's working set is dead from here on. Released now rather than
    // at return, it is what the reporting phase below (two forests, two
    // analyses, the legalizer, the final map) allocates from, so the
    // process's peak memory is the loop's, reached long before exit, and not
    // a spike stacked on top of it in the last milliseconds of the run.
    let rsmt = forest.as_ref().map(SteinerForest::stats).unwrap_or_default();
    let uses_fft = density.uses_fft();
    let live_map = route.map(|rs| rs.map);
    drop((opt, density, dscratch, dres, wl_scratch, weighter, path_weighter));
    drop((forest, forest_scratch, inc, grads, prev));
    drop((vx, vy, gx, gy, precond, pin_count, areas));
    let sp = obs.start(Phase::SteinerBuild);
    let gp_forest = build_forest(&work.netlist);
    obs.stop(Phase::SteinerBuild, sp);
    obs.add(Counter::ForestBuilds, 1);
    let sp = obs.start(Phase::FinalSta);
    let gp_analysis = timer.analyze_into(&work.netlist, &gp_forest, &mut scratch);
    obs.stop(Phase::FinalSta, sp);
    drop(gp_forest);
    let gp_hpwl = wl_model.hpwl(&sx, &sy);
    let (gp_wns, gp_tns) = (gp_analysis.wns(), gp_analysis.tns());
    scratch.recycle(gp_analysis);

    // --- legalization + detailed placement -------------------------------------
    let mut lx = sx;
    let mut ly = sy;
    let sp = obs.start(Phase::Legalize);
    match config.legalizer {
        LegalizerChoice::Abacus => {
            let leg = AbacusLegalizer::new(&work);
            obs.gauge(Gauge::LegalizeBands, leg.bands() as f64);
            leg.legalize(&work, &mut lx, &mut ly);
        }
        LegalizerChoice::Tetris => {
            let leg = Legalizer::new(&work);
            obs.gauge(Gauge::LegalizeBands, leg.bands() as f64);
            leg.legalize(&work, &mut lx, &mut ly);
        }
    }
    obs.stop(Phase::Legalize, sp);
    let sp = obs.start(Phase::DetailPlace);
    DetailPlacer::new(&work).refine(&work, &mut lx, &mut ly, config.detail_passes);
    obs.stop(Phase::DetailPlace, sp);
    work.netlist.set_positions(&lx, &ly);
    let sp = obs.start(Phase::SteinerBuild);
    let final_forest = build_forest(&work.netlist);
    obs.stop(Phase::SteinerBuild, sp);
    obs.add(Counter::ForestBuilds, 1);
    let sp = obs.start(Phase::FinalSta);
    let final_analysis = timer.analyze_into(&work.netlist, &final_forest, &mut scratch);
    obs.stop(Phase::FinalSta, sp);
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
    obs.gauge(Gauge::PoolDispatches, rayon::dispatch_count() as f64);
    obs.gauge(Gauge::PoolInlineRegions, rayon::inline_count() as f64);
    obs.gauge(Gauge::PoolThreads, rayon::current_num_threads() as f64);
    obs.flush();
    let timing_runtime = obs.sta_seconds() - sta_seconds_at_entry;

    Ok(FlowResult {
        mode: mode.label(),
        design: design.name.clone(),
        hpwl: wl_model.hpwl(&lx, &ly),
        wns: final_analysis.wns(),
        tns: final_analysis.tns(),
        wns_hold: final_analysis.wns_hold(),
        gp_hpwl,
        gp_wns,
        gp_tns,
        iterations,
        level_iterations: vec![iterations],
        runtime: t_start.elapsed().as_secs_f64(),
        timing_runtime,
        trace,
        xs: lx,
        ys: ly,
        congestion,
        rsmt,
    })
}
