//! The timing engine: forward analysis and backward gradients (§3.3, Fig. 3).
//!
//! [`Timer`] is constructed once per design (binding + levelization +
//! constraint resolution — stage 1 of Fig. 3, "only once"); each placement
//! iteration then calls [`Timer::analyze_into`] /
//! [`Timer::analyze_smoothed_into`] with the current Steiner forest (stages
//! 2–4) and [`Timer::gradients_into`] for the backward sweep (stage 5).
//!
//! # The allocation-free hot path
//!
//! A timing-driven placement loop calls the timer thousands of times, so
//! every per-call entry point ([`Timer::analyze_into`],
//! [`Timer::analyze_smoothed_into`], [`Timer::analyze_incremental_into`],
//! [`Timer::gradients_into`]) draws every buffer from a caller-owned
//! [`AnalysisScratch`]; a one-shot caller passes a fresh one. Retiring an
//! [`Analysis`] back into the scratch with [`AnalysisScratch::recycle`]
//! double-buffers its vectors: after warm-up the timing hot path performs no
//! heap allocation at all.
//!
//! # Layout
//!
//! Everything the sweeps index is flat and addressed by integers fixed when
//! the timer is built:
//!
//! - **Slots.** The levelized pins in level order, one 20-byte record each
//!   (pin, Elmore node, net driver, net, role): a level is a contiguous slot
//!   range and the sweep never touches the netlist.
//! - **Arc CSR.** Per slot, the delay arcs ending at that pin as parallel
//!   `from pin` / `arc index` arrays, already filtered to fan-ins that take
//!   part in propagation. Arc indices address the binding's contiguous
//!   [`ArcTables`](dtp_liberty::ArcTables) arena.
//! - **Elmore arena.** One struct-of-arrays node space for all nets; net `n`
//!   owns a node range sized for the largest tree its degree can produce, so
//!   topology rebuilds never re-index and the incremental path is a `memcpy`
//!   plus in-place recomputation of the dirty nets.
//! - **Arc tape.** A smoothed (γ > 0) forward sweep records each arc's
//!   [`ArcEval`] at its CSR position; the backward sweep reads the tape
//!   instead of evaluating the LUTs again. Exact analyses carry no tape.
//!
//! Levels and net chunks shorter than [`LEVEL_GRAIN`] / [`NET_GRAIN`] run
//! inline on the calling thread; longer ones are split into fixed-size
//! chunks over the worker pool. Per-pin and per-net results do not depend on
//! the chunking and every cross-item accumulation is serial in a fixed
//! order, so results are bit-identical at any pool width.

use crate::binding::Binding;
use crate::elmore::{backward_into, forward_into, ElmoreArena, NodeAdjoints, NodesMut, NO_NODE};
use crate::error::StaError;
use crate::graph::{PinRole, TimingGraph};
use crate::smoothing::{
    lse_max, lse_max_weights_into, lse_min_weights_into, smooth_neg, smooth_neg_grad,
};
use dtp_liberty::ArcEval;
use dtp_netlist::{CellId, Design, NetId, Netlist, PinId};
use dtp_rsmt::{node_capacity, SteinerForest};
use rayon::prelude::*;
use std::sync::Arc;

/// Tunable parameters of the timing engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimerConfig {
    /// LSE smoothing parameter γ, in ps (the paper uses ≈ 100).
    pub gamma: f64,
    /// Slew of the ideal clock at register clock pins (ps).
    pub clock_slew: f64,
    /// Slew assumed at primary inputs (ps).
    pub input_slew: f64,
    /// Arrival time of the clock edge at registers (ps); 0 for an ideal
    /// zero-insertion-delay clock network.
    pub clock_arrival: f64,
}

impl Default for TimerConfig {
    fn default() -> Self {
        TimerConfig {
            gamma: 100.0,
            clock_slew: 20.0,
            input_slew: 10.0,
            clock_arrival: 0.0,
        }
    }
}

/// Maximum number of fan-in arcs aggregated on the stack per pin; pins with
/// more arcs fall back to a heap buffer (no common library cell comes close).
pub const MAX_INLINE_ARCS: usize = 16;

/// Pins per level-sweep task. A level of at most this many pins is one task
/// and runs inline, writing arrival times in place: handing ≈ 10 µs tasks to
/// a second thread costs more than it saves even when that thread is polling
/// (re-measured in PR 24: 64 is 1.07–1.09× slower end to end, 512 wins the
/// phase on the ≤ 10k-pin designs only).
const LEVEL_GRAIN: usize = 256;

/// Nets per Elmore task (forward and backward).
const NET_GRAIN: usize = 256;

/// "No constraint arc" in the per-endpoint setup/hold arc lists.
const NO_ARC: u32 = u32::MAX;

const ZERO_EVAL: ArcEval = ArcEval {
    delay: 0.0,
    d_delay_d_slew: 0.0,
    d_delay_d_load: 0.0,
    slew: 0.0,
    d_slew_d_slew: 0.0,
    d_slew_d_load: 0.0,
};

/// Fixed-capacity stack buffer for per-pin arc aggregation in the level
/// sweeps. Spills to the heap only past `N` elements, so the common case
/// performs no allocation inside the rayon-parallel pin evaluations.
#[derive(Debug)]
struct F64Buf<const N: usize> {
    stack: [f64; N],
    len: usize,
    heap: Vec<f64>,
}

impl<const N: usize> F64Buf<N> {
    #[inline]
    fn new() -> Self {
        F64Buf { stack: [0.0; N], len: 0, heap: Vec::new() }
    }

    #[inline]
    fn push(&mut self, v: f64) {
        if self.heap.is_empty() && self.len < N {
            self.stack[self.len] = v;
            self.len += 1;
        } else {
            if self.heap.is_empty() {
                self.heap.reserve(N + 1);
                self.heap.extend_from_slice(&self.stack[..self.len]);
                self.len = 0;
            }
            self.heap.push(v);
        }
    }

    #[inline]
    fn as_slice(&self) -> &[f64] {
        if self.heap.is_empty() { &self.stack[..self.len] } else { &self.heap }
    }

    /// Sets the buffer to `n` zeros (for in-place weight computation).
    fn resize_zeroed(&mut self, n: usize) {
        if n <= N {
            self.heap.clear();
            self.len = n;
            self.stack[..n].fill(0.0);
        } else {
            self.len = 0;
            self.heap.clear();
            self.heap.resize(n, 0.0);
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [f64] {
        if self.heap.is_empty() { &mut self.stack[..self.len] } else { &mut self.heap }
    }
}

/// One levelized pin, as the sweeps see it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Slot {
    /// Pin index.
    pub pin: u32,
    /// The pin's node in the Elmore arena (the root of its net for output
    /// pins), or [`NO_NODE`].
    pub node: u32,
    /// Sink pins: the driver pin of the net. Unused otherwise.
    pub driver: u32,
    /// Net index (meaningful iff `node != NO_NODE`).
    pub net: u32,
    /// Role in the timing graph.
    pub role: PinRole,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 20);

/// The differentiable STA engine bound to one design + library.
#[derive(Clone, Debug)]
pub struct Timer {
    binding: Binding,
    graph: TimingGraph,
    config: TimerConfig,
    clock_period: f64,
    /// CSR data: pin capacitances in net pin order, grouped by net (clock
    /// nets contribute an empty range).
    net_pin_caps: Vec<f64>,
    /// The pin behind every `net_pin_caps` entry.
    net_cap_pins: Vec<u32>,
    /// CSR offsets into `net_pin_caps`, one per net plus a trailing end.
    net_cap_offsets: Vec<u32>,
    /// Elmore arena node range per net (`node_off[n]..node_off[n + 1]`),
    /// shared (`Arc`) with every produced [`Analysis`].
    node_off: Arc<[u32]>,
    /// `node_off` / `net_cap_offsets` sampled every [`NET_GRAIN`] nets: the
    /// chunk boundaries of the parallel Elmore passes.
    chunk_node_bounds: Vec<u32>,
    chunk_pin_bounds: Vec<u32>,
    /// Largest per-net node capacity (sizes the backward adjoint scratch).
    max_net_nodes: usize,
    /// Levelized pins in level order.
    slots: Vec<Slot>,
    /// Slot range per level (`level_off[l]..level_off[l + 1]`).
    level_off: Vec<u32>,
    /// Slot of each pin (`u32::MAX` for pins outside the propagation).
    pin_slot: Vec<u32>,
    /// Arc range per slot (`arc_off[s]..arc_off[s + 1]`).
    arc_off: Vec<u32>,
    /// Source pin of each arc (the clock pin's arcs of a register launch
    /// keep their slot's own pin here; it is never read).
    arc_from: Vec<u32>,
    /// Index of each arc in the binding's arc arena.
    arc_idx: Vec<u32>,
    /// For levels longer than [`LEVEL_GRAIN`]: arc offsets (relative to the
    /// level's first arc) at every chunk boundary, flattened;
    /// `level_chunk_off[l]..level_chunk_off[l + 1]` is level `l`'s range.
    level_chunk_bounds: Vec<u32>,
    level_chunk_off: Vec<u32>,
    /// Slots of the register launch pins, in pin order.
    launch_slots: Vec<u32>,
    /// Setup / hold arc per endpoint (parallel to `endpoints`), or
    /// [`NO_ARC`].
    endpoint_setup: Vec<u32>,
    endpoint_hold: Vec<u32>,
    /// Resolved SDC arrival offset per pin (PI pins only, else 0).
    input_delay: Vec<f64>,
    /// Resolved SDC required margin per pin (PO pins only, else 0).
    output_margin: Vec<f64>,
    /// Capture endpoints, shared (`Arc`) with every produced [`Analysis`].
    endpoints: Arc<[PinId]>,
}

/// The result of one timing analysis: arrival times, slews, slacks and the
/// per-net Elmore state needed for the backward pass.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Late (worst-case) arrival time per pin, ps.
    pub at: Vec<f64>,
    /// Early (best-case) arrival time per pin, ps.
    pub at_early: Vec<f64>,
    /// Propagated (worst-case) slew per pin, ps.
    pub slew: Vec<f64>,
    /// Setup slack per pin (`f64::INFINITY` for non-endpoints), ps.
    pub slack: Vec<f64>,
    /// Hold slack per pin (`f64::INFINITY` where unconstrained), ps.
    pub hold_slack: Vec<f64>,
    /// Required arrival time per pin (late/setup view), propagated backward
    /// from the endpoints; `f64::INFINITY` on cones that reach no endpoint,
    /// and everywhere in analyses that skip the required-time sweep
    /// (smoothed analyses).
    pub rat: Vec<f64>,
    /// γ used for max-smoothing in this analysis; 0 means exact (hard max).
    pub gamma: f64,
    /// Elmore state of all nets.
    elmore: ElmoreArena,
    /// Forward arc evaluations in arc-CSR order (smoothed analyses only).
    tape: Vec<ArcEval>,
    node_off: Arc<[u32]>,
    endpoints: Arc<[PinId]>,
}

/// Borrowed Elmore state of one net of an [`Analysis`].
#[derive(Clone, Copy, Debug)]
pub struct ElmoreView<'a> {
    arena: &'a ElmoreArena,
    lo: usize,
}

impl ElmoreView<'_> {
    /// Total capacitive load seen by the driver (Eq. 7a at the root), fF.
    pub fn root_load(&self) -> f64 {
        self.arena.load[self.lo]
    }

    /// Elmore delay from the driver to tree node `node` (Eq. 7b), ps. Pin
    /// nodes come first, in net pin order.
    pub fn delay_at(&self, node: usize) -> f64 {
        self.arena.delay[self.lo + node]
    }

    /// Squared impulse at tree node `node` (Eq. 7e), clamped at 0.
    pub fn impulse_sq_at(&self, node: usize) -> f64 {
        self.arena.impulse_sq[self.lo + node].max(0.0)
    }
}

impl Analysis {
    /// Worst negative slack: the minimum setup slack over endpoints (Eq. 2).
    /// Positive if all constraints are met.
    pub fn wns(&self) -> f64 {
        self.endpoints
            .iter()
            .map(|&p| self.slack[p.index()])
            .fold(f64::INFINITY, f64::min)
    }

    /// Total negative slack: `Σ min(0, slack)` over endpoints (Eq. 2).
    pub fn tns(&self) -> f64 {
        self.endpoints
            .iter()
            .map(|&p| self.slack[p.index()].min(0.0))
            .sum()
    }

    /// Worst hold slack over endpoints.
    pub fn wns_hold(&self) -> f64 {
        self.endpoints
            .iter()
            .map(|&p| self.hold_slack[p.index()])
            .fold(f64::INFINITY, f64::min)
    }

    /// Smoothed TNS (`Σ smooth_min(0, slack)`) at smoothing `gamma`.
    pub fn tns_smooth(&self, gamma: f64) -> f64 {
        self.endpoints
            .iter()
            .map(|&p| smooth_neg(self.slack[p.index()], gamma))
            .sum()
    }

    /// Smoothed WNS (LSE-min over endpoint slacks) at smoothing `gamma`.
    pub fn wns_smooth(&self, gamma: f64) -> f64 {
        let slacks: Vec<f64> = self.endpoints.iter().map(|&p| self.slack[p.index()]).collect();
        if slacks.is_empty() {
            return 0.0;
        }
        crate::smoothing::lse_min(&slacks, gamma)
    }

    /// Capture endpoints of the design.
    pub fn endpoints(&self) -> &[PinId] {
        &self.endpoints
    }

    /// Slack of an arbitrary pin (`RAT − AT`); `f64::INFINITY` for pins whose
    /// fan-out cone reaches no endpoint, and for every non-endpoint pin of an
    /// analysis without required times (see [`Analysis::rat`]).
    pub fn pin_slack(&self, pin: PinId) -> f64 {
        let i = pin.index();
        if self.rat[i].is_finite() {
            self.rat[i] - self.at[i]
        } else {
            f64::INFINITY
        }
    }

    /// The Elmore state of a net (None for clock and pinless nets).
    pub fn elmore(&self, net: NetId) -> Option<ElmoreView<'_>> {
        let lo = self.node_off[net.index()] as usize;
        let hi = self.node_off[net.index() + 1] as usize;
        (lo < hi).then_some(ElmoreView { arena: &self.elmore, lo })
    }

    /// Load driven by the pin whose arena node is `node` (0 without one).
    #[inline]
    pub(crate) fn load_at(&self, node: u32) -> f64 {
        self.elmore.load_at(node)
    }
}

/// Reusable buffers for the per-iteration timing hot path.
///
/// One scratch serves any number of [`Timer::analyze_into`] /
/// [`Timer::analyze_incremental_into`] / [`Timer::gradients_into`] calls on
/// the same design. Feed retired analyses back with
/// [`AnalysisScratch::recycle`] so their vectors return to the pool; the
/// ping-pong between the live [`Analysis`] and the pool is what makes the
/// hot path allocation-free after the first iterations.
#[derive(Debug, Default)]
pub struct AnalysisScratch {
    /// Pool of retired pin-length `f64` buffers (at / slew / slack / rat …).
    pool_f64: Vec<Vec<f64>>,
    /// Pool of retired Elmore arenas.
    pool_elmore: Vec<ElmoreArena>,
    /// Pool of retired arc tapes.
    pool_tape: Vec<Vec<ArcEval>>,
    /// `(at, at_early, slew)` of one dispatched level, in slot order.
    level_stage: Vec<[f64; 3]>,
    /// Per-net dirty flags for the incremental path.
    net_dirty: Vec<bool>,
    /// Per-pin dirty flags for the incremental frontier sweep.
    pin_dirty: Vec<bool>,
    /// Indices of dirty nets this iteration.
    dirty_nets: Vec<usize>,
    /// ∂f/∂AT per pin (gradient sweep).
    g_at: Vec<f64>,
    /// ∂f/∂slew per pin (gradient sweep).
    g_slew: Vec<f64>,
    /// Elmore gradient seeds per arena node: ∂f/∂Delay, ∂f/∂Impulse².
    seed_delay: Vec<f64>,
    seed_impulse_sq: Vec<f64>,
    /// ∂f/∂Load(root) per net.
    seed_root_load: Vec<f64>,
    /// Elmore backward adjoints: one `max_net_nodes` block per net chunk.
    adjoints: Vec<NodeAdjoints>,
    /// Per-pin position gradients in net-pin CSR order.
    net_pin_grads: Vec<[f64; 2]>,
    /// Endpoint slacks (gradient objective evaluation).
    endpoint_slacks: Vec<f64>,
    /// LSE-min weights over endpoint slacks.
    endpoint_weights: Vec<f64>,
}

fn reserve_total<T>(v: &mut Vec<T>, n: usize) {
    v.reserve(n.saturating_sub(v.len()));
}

impl AnalysisScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        AnalysisScratch::default()
    }

    /// Pre-sizes the pin- and net-length buffers for a design with
    /// `num_pins` pins and `num_nets` nets, so their warm-up allocations
    /// happen once at flow start instead of inside the iteration loop. Six
    /// pin-length `f64` buffers cover a full [`Analysis`]; the pool holds two
    /// sets because the incremental flow keeps the previous analysis alive
    /// while building the next one. The node- and arc-length buffers (Elmore
    /// arenas, arc tapes, gradient seeds) are sized by the timer on first
    /// use and recycled from then on.
    pub fn presize(&mut self, num_pins: usize, num_nets: usize) {
        while self.pool_f64.len() < 12 {
            self.pool_f64.push(Vec::new());
        }
        for v in self.pool_f64.iter_mut() {
            reserve_total(v, num_pins);
        }
        reserve_total(&mut self.net_dirty, num_nets);
        reserve_total(&mut self.pin_dirty, num_pins);
        reserve_total(&mut self.dirty_nets, num_nets);
        reserve_total(&mut self.g_at, num_pins);
        reserve_total(&mut self.g_slew, num_pins);
        reserve_total(&mut self.seed_root_load, num_nets);
        reserve_total(&mut self.net_pin_grads, num_pins);
    }

    /// Retires an [`Analysis`], returning its vectors to the pool so the
    /// next `*_into` call reuses them instead of allocating.
    pub fn recycle(&mut self, analysis: Analysis) {
        let Analysis { at, at_early, slew, slack, hold_slack, rat, elmore, tape, .. } = analysis;
        for v in [at, at_early, slew, slack, hold_slack, rat] {
            self.pool_f64.push(v);
        }
        self.pool_elmore.push(elmore);
        if tape.capacity() > 0 {
            self.pool_tape.push(tape);
        }
    }

    /// A pooled buffer of `n` copies of `fill`.
    fn take_filled(&mut self, n: usize, fill: f64) -> Vec<f64> {
        let mut b = self.pool_f64.pop().unwrap_or_default();
        b.clear();
        b.resize(n, fill);
        b
    }

    /// A pooled buffer holding a copy of `src` (a memcpy, no allocation once
    /// the pool is warm).
    fn take_copied(&mut self, src: &[f64]) -> Vec<f64> {
        let mut b = self.pool_f64.pop().unwrap_or_default();
        b.clear();
        b.extend_from_slice(src);
        b
    }
}

/// Gradients of the timing objective with respect to positions.
#[derive(Clone, Debug, Default)]
pub struct PositionGradients {
    /// ∂f/∂x per pin.
    pub pin_grad_x: Vec<f64>,
    /// ∂f/∂y per pin.
    pub pin_grad_y: Vec<f64>,
    /// ∂f/∂x per cell (sum over the cell's pins).
    pub cell_grad_x: Vec<f64>,
    /// ∂f/∂y per cell.
    pub cell_grad_y: Vec<f64>,
    /// The smoothed objective value `−t1·TNSγ − t2·WNSγ` (to be minimized).
    pub objective: f64,
}

impl Timer {
    /// Builds the engine: resolves the library binding, levelizes the timing
    /// graph and resolves SDC constraints to pins.
    ///
    /// # Errors
    ///
    /// Returns [`StaError`] for unbound classes/pins or combinational cycles.
    pub fn new(design: &Design, lib: &dtp_liberty::Library) -> Result<Timer, StaError> {
        Timer::with_config(design, lib, TimerConfig::default())
    }

    /// [`Timer::new`] with explicit configuration.
    ///
    /// # Errors
    ///
    /// Same as [`Timer::new`].
    pub fn with_config(
        design: &Design,
        lib: &dtp_liberty::Library,
        config: TimerConfig,
    ) -> Result<Timer, StaError> {
        let nl = &design.netlist;
        let binding = Binding::resolve(nl, lib)?;
        let graph = TimingGraph::build(nl, &binding)?;
        let (n_pins, n_nets) = (nl.num_pins(), nl.num_nets());

        // Per-net CSR (pin capacitances + the pins behind them) and Elmore
        // arena node ranges; clock nets own empty ranges (the ideal clock
        // network is never analyzed). The same net-order pass fills in each
        // pin's slot record, so the level-order pass below copies one flat
        // record per pin instead of chasing `Pin` → `Net` → its pin list.
        let mut by_pin: Vec<Slot> = nl
            .pin_ids()
            .map(|p| {
                let pin = p.index() as u32;
                Slot { pin, node: NO_NODE, driver: pin, net: 0, role: graph.role(p) }
            })
            .collect();
        let mut net_cap_offsets = Vec::with_capacity(n_nets + 1);
        let mut node_off = Vec::with_capacity(n_nets + 1);
        let mut net_pin_caps = Vec::new();
        let mut net_cap_pins = Vec::new();
        let mut max_net_nodes = 0usize;
        let mut nodes = 0usize;
        net_cap_offsets.push(0u32);
        node_off.push(0u32);
        for net in nl.net_ids() {
            let pins = nl.net(net).pins();
            let is_signal = !nl.net(net).is_clock();
            for (i, &p) in pins.iter().enumerate() {
                let slot = &mut by_pin[p.index()];
                slot.net = net.index() as u32;
                if matches!(
                    slot.role,
                    PinRole::CombInput | PinRole::RegisterData | PinRole::PrimaryOutput
                ) {
                    slot.driver = pins[0].index() as u32;
                }
                if is_signal {
                    slot.node = (nodes + i) as u32;
                    net_pin_caps.push(binding.pin_cap(nl, p));
                    net_cap_pins.push(p.index() as u32);
                }
            }
            if is_signal {
                let cap = node_capacity(pins.len());
                max_net_nodes = max_net_nodes.max(cap);
                nodes += cap;
            }
            net_cap_offsets.push(net_pin_caps.len() as u32);
            node_off.push(u32::try_from(nodes).expect("fewer than 2^32 Elmore nodes"));
        }
        let n_chunks = n_nets.div_ceil(NET_GRAIN).max(1);
        let sample = |off: &[u32]| -> Vec<u32> {
            (0..=n_chunks).map(|c| off[(c * NET_GRAIN).min(n_nets)]).collect()
        };
        let (chunk_node_bounds, chunk_pin_bounds) = (sample(&node_off), sample(&net_cap_offsets));

        // Slots + arc CSR in level order.
        let n_slots: usize = graph.levels().map(<[PinId]>::len).sum();
        let mut slots = Vec::with_capacity(n_slots);
        let mut level_off = Vec::with_capacity(graph.depth() + 1);
        let mut pin_slot = vec![u32::MAX; n_pins];
        let mut arc_off = Vec::with_capacity(n_slots + 1);
        let (mut arc_from, mut arc_idx) = (Vec::new(), Vec::new());
        level_off.push(0u32);
        arc_off.push(0u32);
        for level in graph.levels() {
            for &p in level {
                let slot = by_pin[p.index()];
                let role = slot.role;
                if matches!(role, PinRole::CombOutput | PinRole::RegisterOutput) {
                    let pin = nl.pin(p);
                    let cell = nl.cell(pin.cell());
                    let cb = &binding.classes[cell.class().index()];
                    for &(a, from_cp) in cb.delay_arcs(pin.class_pin().index()) {
                        let from = cell.pins()[from_cp as usize];
                        // A launch pin's arcs start at the (ideal) clock pin;
                        // a combinational output ignores fan-ins that do not
                        // propagate.
                        if role == PinRole::CombOutput
                            && matches!(graph.role(from), PinRole::Unconnected | PinRole::Clock)
                        {
                            continue;
                        }
                        arc_from.push(if role == PinRole::CombOutput {
                            from.index() as u32
                        } else {
                            p.index() as u32
                        });
                        arc_idx.push(a);
                    }
                }
                pin_slot[p.index()] = slots.len() as u32;
                slots.push(slot);
                arc_off.push(arc_from.len() as u32);
            }
            level_off.push(slots.len() as u32);
        }
        let mut level_chunk_bounds = Vec::new();
        let mut level_chunk_off = Vec::with_capacity(level_off.len());
        level_chunk_off.push(0u32);
        for w in level_off.windows(2) {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            if hi - lo > LEVEL_GRAIN {
                level_chunk_bounds.extend(
                    (lo..hi).step_by(LEVEL_GRAIN).chain([hi]).map(|s| arc_off[s] - arc_off[lo]),
                );
            }
            level_chunk_off.push(level_chunk_bounds.len() as u32);
        }
        let launch_slots = nl
            .pin_ids()
            .filter(|&p| graph.role(p) == PinRole::RegisterOutput)
            .map(|p| pin_slot[p.index()])
            .collect();

        let mut input_delay = vec![0.0; n_pins];
        let mut output_margin = vec![0.0; n_pins];
        for p in nl.pin_ids() {
            match graph.role(p) {
                PinRole::PrimaryInput => {
                    let name = nl.cell(nl.pin(p).cell()).name();
                    input_delay[p.index()] = design.constraints.input_delay(name);
                }
                PinRole::PrimaryOutput => {
                    let name = nl.cell(nl.pin(p).cell()).name();
                    output_margin[p.index()] = design.constraints.output_delay(name);
                }
                _ => {}
            }
        }

        let (mut endpoint_setup, mut endpoint_hold) = (Vec::new(), Vec::new());
        for &p in graph.endpoints() {
            let pin = nl.pin(p);
            let cb = &binding.classes[nl.cell(pin.cell()).class().index()];
            let cp = pin.class_pin().index();
            endpoint_setup.push(cb.setup_arc[cp].map_or(NO_ARC, |a| a as u32));
            endpoint_hold.push(cb.hold_arc[cp].map_or(NO_ARC, |a| a as u32));
        }

        let endpoints: Arc<[PinId]> = graph.endpoints().into();
        Ok(Timer {
            binding,
            graph,
            config,
            clock_period: design.constraints.clock_period,
            net_pin_caps,
            net_cap_pins,
            net_cap_offsets,
            node_off: node_off.into(),
            chunk_node_bounds,
            chunk_pin_bounds,
            max_net_nodes,
            slots,
            level_off,
            pin_slot,
            arc_off,
            arc_from,
            arc_idx,
            level_chunk_bounds,
            level_chunk_off,
            launch_slots,
            endpoint_setup,
            endpoint_hold,
            input_delay,
            output_margin,
            endpoints,
        })
    }

    /// The levelized timing graph.
    pub fn graph(&self) -> &TimingGraph {
        &self.graph
    }

    /// The netlist↔library binding.
    pub fn binding(&self) -> &Binding {
        &self.binding
    }

    /// Engine configuration.
    pub fn config(&self) -> TimerConfig {
        self.config
    }

    /// Clock period the analysis checks against, ps.
    pub fn clock_period(&self) -> f64 {
        self.clock_period
    }

    /// Pin capacitances of net `ni` in net pin order (empty for clock nets).
    #[inline]
    fn net_caps(&self, ni: usize) -> &[f64] {
        let lo = self.net_cap_offsets[ni] as usize;
        let hi = self.net_cap_offsets[ni + 1] as usize;
        &self.net_pin_caps[lo..hi]
    }

    /// Arc range of slot `s` in `arc_from` / `arc_idx` / the tape.
    #[inline]
    fn arcs(&self, s: usize) -> std::ops::Range<usize> {
        self.arc_off[s] as usize..self.arc_off[s + 1] as usize
    }

    /// The slot of `pin`, or `None` for pins outside the propagation.
    #[inline]
    pub(crate) fn slot_of(&self, pin: PinId) -> Option<&Slot> {
        self.slots.get(self.pin_slot[pin.index()] as usize)
    }

    /// The propagating fan-in arcs of `pin` as `(source pin, arc index)`
    /// pairs (empty unless `pin` is a levelized cell output).
    pub(crate) fn fanin_arcs(&self, pin: PinId) -> impl Iterator<Item = (PinId, usize)> + '_ {
        let s = self.pin_slot[pin.index()] as usize;
        let range = if s < self.slots.len() { self.arcs(s) } else { 0..0 };
        range.map(|k| (PinId::new(self.arc_from[k] as usize), self.arc_idx[k] as usize))
    }

    /// Number of nets the timer was built for.
    fn num_nets(&self) -> usize {
        self.node_off.len() - 1
    }

    /// Exact analysis: true max/min aggregation; use for reporting WNS/TNS.
    /// Every buffer is drawn from `scratch`; hand the result back through
    /// [`AnalysisScratch::recycle`] and a loop of analyses allocates nothing.
    ///
    /// `nl` must be the same netlist (topology) the timer was built from;
    /// only its connectivity is read — pin positions are baked into `forest`.
    pub fn analyze_into(
        &self,
        nl: &Netlist,
        forest: &SteinerForest,
        scratch: &mut AnalysisScratch,
    ) -> Analysis {
        self.run_forward_into(nl, forest, 0.0, true, scratch)
    }

    /// Smoothed analysis: LSE aggregation at the configured γ, every buffer
    /// drawn from `scratch`.
    ///
    /// The result feeds [`Timer::gradients_into`], which never reads
    /// required times, so the backward RAT sweep is skipped: every RAT is
    /// `f64::INFINITY` and [`Analysis::pin_slack`] is only meaningful at
    /// endpoints.
    pub fn analyze_smoothed_into(
        &self,
        nl: &Netlist,
        forest: &SteinerForest,
        scratch: &mut AnalysisScratch,
    ) -> Analysis {
        self.run_forward_into(nl, forest, self.config.gamma, false, scratch)
    }

    /// Elmore forward of net `ni` into its arena range `s`; a net the forest
    /// has no tree for gets the all-zero state.
    #[inline]
    fn elmore_net(&self, forest: &SteinerForest, ni: usize, mut s: NodesMut<'_>) {
        match forest.tree(NetId::new(ni)) {
            Some(tree) => forward_into(
                tree,
                self.net_caps(ni),
                self.binding.wire_res_per_um,
                self.binding.wire_cap_per_um,
                s,
            ),
            None => s.clear(),
        }
    }

    /// Elmore forward (stage 2 of Fig. 3) over the nets selected by `pick`,
    /// in [`NET_GRAIN`]-net chunks over the pool.
    fn elmore_forward(
        &self,
        forest: &SteinerForest,
        elmore: &mut ElmoreArena,
        pick: impl Fn(usize) -> bool + Sync,
    ) {
        let n_nets = self.num_nets();
        elmore.par_chunks_mut_at(&self.chunk_node_bounds, |ci, mut chunk| {
            let base = self.chunk_node_bounds[ci] as usize;
            for ni in ci * NET_GRAIN..((ci + 1) * NET_GRAIN).min(n_nets) {
                if pick(ni) {
                    let lo = self.node_off[ni] as usize - base;
                    let hi = self.node_off[ni + 1] as usize - base;
                    self.elmore_net(forest, ni, chunk.range(lo, hi));
                }
            }
        });
    }

    /// Full forward analysis (stages 2–4 of Fig. 3): Elmore over all nets,
    /// then the level-synchronous sweep. The netlist is implicit in the
    /// forest (pin positions were baked into the trees) and in the slot /
    /// arc tables built with the timer; the caller guarantees both match the
    /// netlist used at construction. `with_rat = false` leaves every RAT at
    /// `f64::INFINITY` (the gradients never read per-pin slacks, so smoothed
    /// analyses skip the backward sweep entirely).
    fn run_forward_into(
        &self,
        nl: &Netlist,
        forest: &SteinerForest,
        gamma: f64,
        with_rat: bool,
        scratch: &mut AnalysisScratch,
    ) -> Analysis {
        let nl_pins = self.pin_slot.len();
        assert_eq!(nl.num_pins(), nl_pins, "netlist differs from the timer's");
        assert_eq!(forest.len(), self.num_nets(), "forest differs from the timer's netlist");

        let mut elmore = scratch.pool_elmore.pop().unwrap_or_default();
        elmore.set_len(*self.node_off.last().expect("node_off has a trailing end") as usize);
        self.elmore_forward(forest, &mut elmore, |_| true);

        let mut tape = Vec::new();
        if gamma > 0.0 {
            tape = scratch.pool_tape.pop().unwrap_or_default();
            if tape.len() != self.arc_idx.len() {
                tape.clear();
                tape.resize(self.arc_idx.len(), ZERO_EVAL);
            }
        }

        let mut at = scratch.take_filled(nl_pins, 0.0);
        let mut at_early = scratch.take_filled(nl_pins, 0.0);
        let mut slew = scratch.take_filled(nl_pins, self.config.input_slew);
        self.sweep_levels(
            &elmore,
            &mut at,
            &mut at_early,
            &mut slew,
            gamma,
            &mut tape,
            None,
            &mut scratch.level_stage,
        );

        let mut slack = scratch.take_filled(nl_pins, f64::INFINITY);
        let mut hold_slack = scratch.take_filled(nl_pins, f64::INFINITY);
        self.compute_slacks_into(&at, &at_early, &slew, &mut slack, &mut hold_slack);
        let mut rat = scratch.take_filled(nl_pins, f64::INFINITY);
        if with_rat {
            self.compute_rat_into(&elmore, &at, &slew, &slack, &mut rat);
        }

        Analysis {
            at,
            at_early,
            slew,
            slack,
            hold_slack,
            rat,
            gamma,
            elmore,
            tape,
            node_off: self.node_off.clone(),
            endpoints: self.endpoints.clone(),
        }
    }

    /// The level-synchronous forward sweep (stage 3 of Fig. 3) — every level
    /// is a batch whose pins read only lower levels, mirroring the GPU
    /// kernels. With `dirty`, the incremental frontier sweep: a pin is
    /// re-evaluated iff it is flagged or any of its fan-ins is (flags are
    /// propagated level by level, which is safe because a pin's predecessors
    /// all sit on strictly lower levels); every other pin keeps the value
    /// already in `at` / `at_early` / `slew` / `tape`.
    ///
    /// `tape` is either empty (exact analysis, nothing recorded) or the
    /// full arc tape.
    #[allow(clippy::too_many_arguments)]
    fn sweep_levels(
        &self,
        elmore: &ElmoreArena,
        at: &mut [f64],
        at_early: &mut [f64],
        slew: &mut [f64],
        gamma: f64,
        tape: &mut [ArcEval],
        mut dirty: Option<&mut [bool]>,
        stage: &mut Vec<[f64; 3]>,
    ) {
        let record = !tape.is_empty();
        for l in 0..self.level_off.len() - 1 {
            let (lo, hi) = (self.level_off[l] as usize, self.level_off[l + 1] as usize);
            if let Some(dirty) = dirty.as_deref_mut() {
                self.mark_dirty(lo..hi, dirty);
            }
            let dirty = dirty.as_deref();
            let skip = |s: usize| dirty.is_some_and(|d| !d[self.slots[s].pin as usize]);
            if hi - lo <= LEVEL_GRAIN {
                for s in lo..hi {
                    if skip(s) {
                        continue;
                    }
                    let arcs = if record { &mut tape[self.arcs(s)] } else { &mut [][..] };
                    let [a, ae, sw] = self.eval_slot(s, elmore, at, at_early, slew, gamma, arcs);
                    let i = self.slots[s].pin as usize;
                    at[i] = a;
                    at_early[i] = ae;
                    slew[i] = sw;
                }
                continue;
            }
            // Dispatched level: tasks cannot scatter into the pin-indexed
            // arrays, so they fill a slot-ordered stage that is scattered
            // serially below.
            stage.clear();
            stage.resize(hi - lo, [0.0; 3]);
            let (at_r, at_early_r, slew_r) = (&*at, &*at_early, &*slew);
            let eval_chunk = |ci: usize, out: &mut [[f64; 3]], arcs: &mut [ArcEval]| {
                let s0 = lo + ci * LEVEL_GRAIN;
                let arc0 = self.arc_off[s0] as usize;
                for (k, o) in out.iter_mut().enumerate() {
                    let s = s0 + k;
                    if skip(s) {
                        continue;
                    }
                    let r = self.arcs(s);
                    let arcs = if record { &mut arcs[r.start - arc0..r.end - arc0] } else { &mut [][..] };
                    *o = self.eval_slot(s, elmore, at_r, at_early_r, slew_r, gamma, arcs);
                }
            };
            if record {
                let bounds = &self.level_chunk_bounds
                    [self.level_chunk_off[l] as usize..self.level_chunk_off[l + 1] as usize];
                let level_tape = &mut tape[self.arc_off[lo] as usize..self.arc_off[hi] as usize];
                stage
                    .par_chunks_mut(LEVEL_GRAIN)
                    .zip(level_tape.par_chunks_mut_at(bounds))
                    .enumerate()
                    .for_each(|(ci, (out, arcs))| eval_chunk(ci, out, arcs));
            } else {
                stage
                    .par_chunks_mut(LEVEL_GRAIN)
                    .enumerate()
                    .for_each(|(ci, out)| eval_chunk(ci, out, &mut []));
            }
            for (k, &[a, ae, sw]) in stage.iter().enumerate() {
                if skip(lo + k) {
                    continue;
                }
                let i = self.slots[lo + k].pin as usize;
                at[i] = a;
                at_early[i] = ae;
                slew[i] = sw;
            }
        }
    }

    /// Flags every pin of `slots` that has a flagged fan-in.
    fn mark_dirty(&self, slots: std::ops::Range<usize>, dirty: &mut [bool]) {
        for s in slots {
            let sl = &self.slots[s];
            if dirty[sl.pin as usize] {
                continue;
            }
            let pred_dirty = match sl.role {
                PinRole::CombInput | PinRole::RegisterData | PinRole::PrimaryOutput => {
                    dirty[sl.driver as usize]
                }
                PinRole::CombOutput => {
                    self.arc_from[self.arcs(s)].iter().any(|&from| dirty[from as usize])
                }
                _ => false,
            };
            if pred_dirty {
                dirty[sl.pin as usize] = true;
            }
        }
    }

    /// Forward evaluation of slot `s` given completed lower levels:
    /// `[at, at_early, slew]`. Records the slot's arc evaluations into
    /// `tape` (the slot's own arc range) unless it is empty.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn eval_slot(
        &self,
        s: usize,
        elmore: &ElmoreArena,
        at: &[f64],
        at_early: &[f64],
        slew: &[f64],
        gamma: f64,
        tape: &mut [ArcEval],
    ) -> [f64; 3] {
        let sl = &self.slots[s];
        let cfg = &self.config;
        match sl.role {
            PinRole::PrimaryInput => {
                let d = self.input_delay[sl.pin as usize];
                [d, d, cfg.input_slew]
            }
            PinRole::CombInput | PinRole::RegisterData | PinRole::PrimaryOutput => {
                // Net arc from the driver (Eq. 9).
                if sl.node == NO_NODE {
                    return [0.0, 0.0, cfg.input_slew];
                }
                let (node, driver) = (sl.node as usize, sl.driver as usize);
                let d = elmore.delay[node];
                let s_in = slew[driver];
                let s = (s_in * s_in + elmore.impulse_sq[node].max(0.0)).sqrt().max(1e-3);
                [at[driver] + d, at_early[driver] + d, s]
            }
            PinRole::RegisterOutput | PinRole::CombOutput => {
                // Cell arcs (Eq. 11); a register launches through its
                // CK → Q arc at the ideal clock edge.
                let launch = sl.role == PinRole::RegisterOutput;
                let arcs = self.arcs(s);
                if arcs.is_empty() {
                    return if launch {
                        [cfg.clock_arrival, cfg.clock_arrival, cfg.input_slew]
                    } else {
                        [0.0, 0.0, cfg.input_slew]
                    };
                }
                let load = elmore.load_at(sl.node);
                let mut a_vals = F64Buf::<MAX_INLINE_ARCS>::new();
                let mut s_vals = F64Buf::<MAX_INLINE_ARCS>::new();
                let mut ae = f64::INFINITY;
                for (j, k) in arcs.enumerate() {
                    let (slew_in, at_in, at_early_in) = if launch {
                        (cfg.clock_slew, cfg.clock_arrival, cfg.clock_arrival)
                    } else {
                        let from = self.arc_from[k] as usize;
                        (slew[from], at[from], at_early[from])
                    };
                    let e = self.binding.tables.eval(self.arc_idx[k] as usize, slew_in, load);
                    if let Some(t) = tape.get_mut(j) {
                        *t = e;
                    }
                    a_vals.push(at_in + e.delay);
                    ae = ae.min(at_early_in + e.delay);
                    s_vals.push(e.slew);
                }
                let (a, sw) = aggregate(a_vals.as_slice(), s_vals.as_slice(), gamma);
                [a, ae, sw]
            }
            PinRole::Clock | PinRole::Unconnected => [0.0, 0.0, cfg.input_slew],
        }
    }

    /// Setup/hold slack computation at the endpoints (stage 4 of Fig. 3);
    /// `slack`/`hold_slack` arrive pre-filled with `f64::INFINITY`.
    fn compute_slacks_into(
        &self,
        at: &[f64],
        at_early: &[f64],
        slew: &[f64],
        slack: &mut [f64],
        hold_slack: &mut [f64],
    ) {
        let constraint = |arc: u32, data_slew: f64| {
            if arc == NO_ARC {
                0.0
            } else {
                self.binding.arc(arc as usize).constraint_value(data_slew)
            }
        };
        for (k, &p) in self.endpoints.iter().enumerate() {
            let i = p.index();
            match self.graph.role(p) {
                PinRole::RegisterData => {
                    let setup = constraint(self.endpoint_setup[k], slew[i]);
                    let hold = constraint(self.endpoint_hold[k], slew[i]);
                    let rat = self.config.clock_arrival + self.clock_period - setup;
                    slack[i] = rat - at[i];
                    hold_slack[i] = at_early[i] - (self.config.clock_arrival + hold);
                }
                PinRole::PrimaryOutput => {
                    let rat = self.clock_period - self.output_margin[i];
                    slack[i] = rat - at[i];
                }
                _ => unreachable!("endpoints are register data pins or POs"),
            }
        }
    }

    /// Backward RAT propagation (min over fanout requirements), exact arc
    /// delays; gives every pin a slack = RAT − AT for reporting and for
    /// net-criticality-based weighting. `rat` arrives pre-filled with
    /// `f64::INFINITY`.
    fn compute_rat_into(
        &self,
        elmore: &ElmoreArena,
        at: &[f64],
        slew: &[f64],
        slack: &[f64],
        rat: &mut [f64],
    ) {
        for &p in self.endpoints.iter() {
            rat[p.index()] = at[p.index()] + slack[p.index()];
        }
        for l in (0..self.level_off.len() - 1).rev() {
            for s in self.level_off[l] as usize..self.level_off[l + 1] as usize {
                let sl = &self.slots[s];
                let i = sl.pin as usize;
                if !rat[i].is_finite() {
                    continue;
                }
                match sl.role {
                    PinRole::CombInput | PinRole::RegisterData | PinRole::PrimaryOutput => {
                        if sl.node == NO_NODE {
                            continue;
                        }
                        let cand = rat[i] - elmore.delay[sl.node as usize];
                        let driver = sl.driver as usize;
                        if cand < rat[driver] {
                            rat[driver] = cand;
                        }
                    }
                    PinRole::CombOutput => {
                        let load = elmore.load_at(sl.node);
                        for k in self.arcs(s) {
                            let from = self.arc_from[k] as usize;
                            let arc = self.arc_idx[k] as usize;
                            let cand = rat[i] - self.binding.tables.delay(arc, slew[from], load);
                            if cand < rat[from] {
                                rat[from] = cand;
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Incremental re-analysis after moving a set of cells (the workload of
    /// the ICCAD-2015 *incremental* timing-driven placement contest the
    /// paper's benchmarks come from), every buffer drawn from `scratch`.
    ///
    /// Only the Elmore state of nets incident to `moved` cells is recomputed,
    /// and only pins in the transitive fan-out of those nets are
    /// re-propagated; everything else is copied from `prev`. Slacks and the
    /// full RAT sweep are recomputed (they are cheap relative to the forward
    /// arc evaluations). The result is bit-identical to a fresh
    /// [`Timer::analyze_into`] / [`Timer::analyze_smoothed_into`] at the
    /// same γ.
    ///
    /// `forest` must already reflect the new pin positions
    /// (e.g. via [`SteinerForest::update_nets_into`]); `prev` must come from
    /// the same γ mode.
    ///
    /// `recompute_rat = false` skips the backward RAT sweep and carries
    /// `prev`'s RATs over: WNS/TNS/slacks stay exact, but
    /// [`Analysis::pin_slack`] on non-endpoint pins reflects the *previous*
    /// state — the right trade for trial-move loops that only compare
    /// WNS/TNS. A smoothed `prev` has no RATs and the result has none either,
    /// whatever `recompute_rat` says.
    ///
    /// After consuming the result, hand the *previous* analysis back via
    /// [`AnalysisScratch::recycle`]; the two analyses then ping-pong through
    /// the pool and the steady-state loop performs no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `prev` was produced for a different netlist (length
    /// mismatch).
    pub fn analyze_incremental_into(
        &self,
        nl: &Netlist,
        forest: &SteinerForest,
        prev: &Analysis,
        moved: &[CellId],
        recompute_rat: bool,
        scratch: &mut AnalysisScratch,
    ) -> Analysis {
        let nl_pins = self.pin_slot.len();
        assert_eq!(prev.at.len(), nl_pins, "analysis from a different netlist");
        assert_eq!(prev.elmore.len(), *self.node_off.last().expect("trailing end") as usize);
        assert_eq!(forest.len(), self.num_nets(), "forest differs from the timer's netlist");
        let gamma = prev.gamma;

        // 1. Dirty nets: every non-clock net touching a moved cell.
        scratch.net_dirty.clear();
        scratch.net_dirty.resize(forest.len(), false);
        scratch.dirty_nets.clear();
        for &c in moved {
            for &p in nl.cell(c).pins() {
                if let Some(net) = nl.pin(p).net() {
                    let ni = net.index();
                    if !scratch.net_dirty[ni] && !nl.net(net).is_clock() {
                        scratch.net_dirty[ni] = true;
                        scratch.dirty_nets.push(ni);
                    }
                }
            }
        }

        // 2. Elmore: copy the previous arena, recompute the dirty nets in
        //    place (a handful inline, many over the pool).
        let mut elmore = scratch.pool_elmore.pop().unwrap_or_default();
        elmore.copy_from(&prev.elmore);
        if scratch.dirty_nets.len() <= NET_GRAIN {
            let mut nodes = elmore.nodes_mut();
            for &ni in &scratch.dirty_nets {
                let (lo, hi) = (self.node_off[ni] as usize, self.node_off[ni + 1] as usize);
                self.elmore_net(forest, ni, nodes.range(lo, hi));
            }
        } else {
            let net_dirty = &scratch.net_dirty;
            self.elmore_forward(forest, &mut elmore, |ni| net_dirty[ni]);
        }

        // 3. Seed dirty pins: drivers (their load changed) and sinks (their
        //    net delay changed) of dirty nets.
        scratch.pin_dirty.clear();
        scratch.pin_dirty.resize(nl_pins, false);
        for &ni in &scratch.dirty_nets {
            let pins = self.net_cap_offsets[ni] as usize..self.net_cap_offsets[ni + 1] as usize;
            for &p in &self.net_cap_pins[pins] {
                scratch.pin_dirty[p as usize] = true;
            }
        }

        // 4. Forward frontier sweep over copies of the previous state.
        let mut tape = Vec::new();
        if gamma > 0.0 {
            assert_eq!(prev.tape.len(), self.arc_idx.len(), "smoothed analysis without its tape");
            tape = scratch.pool_tape.pop().unwrap_or_default();
            tape.clear();
            tape.extend_from_slice(&prev.tape);
        }
        let mut at = scratch.take_copied(&prev.at);
        let mut at_early = scratch.take_copied(&prev.at_early);
        let mut slew = scratch.take_copied(&prev.slew);
        self.sweep_levels(
            &elmore,
            &mut at,
            &mut at_early,
            &mut slew,
            gamma,
            &mut tape,
            Some(&mut scratch.pin_dirty),
            &mut scratch.level_stage,
        );

        let mut slack = scratch.take_filled(nl_pins, f64::INFINITY);
        let mut hold_slack = scratch.take_filled(nl_pins, f64::INFINITY);
        self.compute_slacks_into(&at, &at_early, &slew, &mut slack, &mut hold_slack);
        let rat = if recompute_rat && gamma == 0.0 {
            let mut rat = scratch.take_filled(nl_pins, f64::INFINITY);
            self.compute_rat_into(&elmore, &at, &slew, &slack, &mut rat);
            rat
        } else {
            scratch.take_copied(&prev.rat)
        };
        Analysis {
            at,
            at_early,
            slew,
            slack,
            hold_slack,
            rat,
            gamma,
            elmore,
            tape,
            node_off: self.node_off.clone(),
            endpoints: self.endpoints.clone(),
        }
    }

    /// Backward sweep (stage 5 of Fig. 3): gradient of
    /// `f = −t1·TNSγ − t2·WNSγ` with respect to all pin/cell positions,
    /// written into a caller-owned result, all intermediate buffers
    /// (adjoints, Elmore seeds, softmax weights) drawn from `scratch`: reuse
    /// one `scratch`/`out` pair across iterations and nothing is
    /// reallocated.
    ///
    /// `analysis` should come from [`Timer::analyze_smoothed_into`] (with an
    /// exact analysis the LSE weights degenerate to hard argmax
    /// subgradients, which is mathematically valid but reintroduces the
    /// oscillation the paper's smoothing removes). The arc sensitivities
    /// come from the tape the smoothed forward sweep recorded; only an exact
    /// `analysis` (no tape) has its arcs evaluated again.
    ///
    /// # Panics
    ///
    /// Panics if the forest does not match the analysis (different net
    /// count).
    #[allow(clippy::too_many_arguments)]
    pub fn gradients_into(
        &self,
        nl: &Netlist,
        analysis: &Analysis,
        forest: &SteinerForest,
        t1: f64,
        t2: f64,
        scratch: &mut AnalysisScratch,
        out: &mut PositionGradients,
    ) {
        let n_pins = analysis.at.len();
        let n_nodes = analysis.elmore.len();
        assert_eq!(n_pins, self.pin_slot.len(), "analysis from a different netlist");
        assert_eq!(forest.len(), analysis.node_off.len() - 1, "forest/analysis mismatch");
        let gamma = if analysis.gamma > 0.0 { analysis.gamma } else { self.config.gamma };

        let AnalysisScratch {
            g_at,
            g_slew,
            seed_delay,
            seed_impulse_sq,
            seed_root_load,
            adjoints,
            net_pin_grads,
            endpoint_slacks,
            endpoint_weights,
            ..
        } = scratch;
        for (buf, n) in [
            (&mut *g_at, n_pins),
            (g_slew, n_pins),
            (seed_delay, n_nodes),
            (seed_impulse_sq, n_nodes),
            (seed_root_load, forest.len()),
        ] {
            buf.clear();
            buf.resize(n, 0.0);
        }

        // --- endpoint seeds ---------------------------------------------------
        endpoint_slacks.clear();
        endpoint_slacks.extend(analysis.endpoints.iter().map(|&p| analysis.slack[p.index()]));
        let objective;
        if endpoint_slacks.is_empty() {
            objective = 0.0;
        } else {
            let tns_g = endpoint_slacks.iter().map(|&s| smooth_neg(s, gamma)).sum::<f64>();
            endpoint_weights.clear();
            endpoint_weights.resize(endpoint_slacks.len(), 0.0);
            let wns_g = lse_min_weights_into(endpoint_slacks, gamma, endpoint_weights);
            objective = -t1 * tns_g - t2 * wns_g;
            for (k, &p) in analysis.endpoints.iter().enumerate() {
                let i = p.index();
                let dslack =
                    -t1 * smooth_neg_grad(endpoint_slacks[k], gamma) - t2 * endpoint_weights[k];
                // slack = rat − at  ⇒  ∂f/∂at = −∂f/∂slack.
                g_at[i] += -dslack;
                // Register setup margin depends on the data slew:
                // slack = … − setup(slew) − at.
                if self.endpoint_setup[k] != NO_ARC {
                    let arc = self.binding.arc(self.endpoint_setup[k] as usize);
                    if let Some(t) = &arc.constraint {
                        let dsetup = t.value_grad(analysis.slew[i]).1;
                        g_slew[i] += dslack * (-dsetup);
                    }
                }
            }
        }

        // --- reverse level sweep (Eqs. 10, 12) --------------------------------
        let el = &analysis.elmore;
        for l in (0..self.level_off.len() - 1).rev() {
            for s in self.level_off[l] as usize..self.level_off[l + 1] as usize {
                let sl = &self.slots[s];
                let i = sl.pin as usize;
                if g_at[i] == 0.0 && g_slew[i] == 0.0 {
                    continue;
                }
                match sl.role {
                    PinRole::CombInput | PinRole::RegisterData | PinRole::PrimaryOutput => {
                        // Net arc backward (Eq. 10).
                        if sl.node == NO_NODE {
                            continue;
                        }
                        let (node, driver) = (sl.node as usize, sl.driver as usize);
                        g_at[driver] += g_at[i];
                        let s_v = analysis.slew[i];
                        let s_u = analysis.slew[driver];
                        if s_v > 0.0 && el.impulse_sq[node] > 0.0 {
                            g_slew[driver] += (s_u / s_v) * g_slew[i];
                        } else {
                            // Degenerate slew merge: all gradient to the driver.
                            g_slew[driver] += g_slew[i];
                        }
                        seed_delay[node] += g_at[i];
                        if s_v > 0.0 {
                            seed_impulse_sq[node] += g_slew[i] / (2.0 * s_v);
                        }
                    }
                    PinRole::CombOutput => {
                        self.backprop_cell_output(s, analysis, gamma, g_at, g_slew, seed_root_load);
                    }
                    _ => {}
                }
            }
        }
        // Register launch pins: AT(Q) depends on the Q net's load (Eq. 12e
        // applied to the CK→Q arc).
        for &s in &self.launch_slots {
            let sl = &self.slots[s as usize];
            let i = sl.pin as usize;
            let arcs = self.arcs(s as usize);
            if (g_at[i] == 0.0 && g_slew[i] == 0.0) || sl.node == NO_NODE || arcs.is_empty() {
                continue;
            }
            let load = el.load[sl.node as usize];
            // Weights over the (usually single) CK→Q arcs.
            let mut a_vals = F64Buf::<MAX_INLINE_ARCS>::new();
            let mut s_vals = F64Buf::<MAX_INLINE_ARCS>::new();
            for k in arcs.clone() {
                let ev = self.arc_eval(analysis, k, self.config.clock_slew, load);
                a_vals.push(self.config.clock_arrival + ev.delay);
                s_vals.push(ev.slew);
            }
            let mut wa = F64Buf::<MAX_INLINE_ARCS>::new();
            let mut ws = F64Buf::<MAX_INLINE_ARCS>::new();
            weights_into(a_vals.as_slice(), gamma, &mut wa);
            weights_into(s_vals.as_slice(), gamma, &mut ws);
            let mut g_load = 0.0;
            for (j, k) in arcs.enumerate() {
                let ev = self.arc_eval(analysis, k, self.config.clock_slew, load);
                g_load += ev.d_delay_d_load * wa.as_slice()[j] * g_at[i];
                g_load += ev.d_slew_d_load * ws.as_slice()[j] * g_slew[i];
            }
            seed_root_load[sl.net as usize] += g_load;
        }

        // --- Elmore backward per net (Eq. 8), chunk-parallel --------------------
        net_pin_grads.clear();
        net_pin_grads.resize(self.net_cap_pins.len(), [0.0; 2]);
        let n_chunks = self.chunk_pin_bounds.len() - 1;
        let block = self.max_net_nodes.max(1);
        if adjoints.len() != n_chunks * block {
            adjoints.clear();
            adjoints.resize(n_chunks * block, [0.0; 6]);
        }
        let (seed_delay, seed_impulse_sq) = (&*seed_delay, &*seed_impulse_sq);
        let seed_root_load = &*seed_root_load;
        let n_nets = forest.len();
        net_pin_grads
            .par_chunks_mut_at(&self.chunk_pin_bounds)
            .zip(adjoints.par_chunks_mut(block))
            .enumerate()
            .for_each(|(ci, (pin_grads, adj))| {
                let pin_base = self.chunk_pin_bounds[ci] as usize;
                let nets = ci * NET_GRAIN..((ci + 1) * NET_GRAIN).min(n_nets);
                for (ni, &root_seed) in nets.clone().zip(&seed_root_load[nets]) {
                    let Some(tree) = forest.tree(NetId::new(ni)) else { continue };
                    let lo = self.node_off[ni] as usize;
                    let hi = lo + tree.num_nodes();
                    assert!(hi <= self.node_off[ni + 1] as usize, "tree outgrew its arena range");
                    let seeded = root_seed != 0.0
                        || seed_delay[lo..hi].iter().any(|&g| g != 0.0)
                        || seed_impulse_sq[lo..hi].iter().any(|&g| g != 0.0);
                    if !seeded {
                        continue;
                    }
                    let pins = self.net_cap_offsets[ni] as usize - pin_base
                        ..self.net_cap_offsets[ni + 1] as usize - pin_base;
                    backward_into(
                        tree,
                        el,
                        lo,
                        seed_delay,
                        seed_impulse_sq,
                        root_seed,
                        self.binding.wire_res_per_um,
                        self.binding.wire_cap_per_um,
                        adj,
                        &mut pin_grads[pins],
                    );
                }
            });

        for buf in [&mut out.pin_grad_x, &mut out.pin_grad_y] {
            buf.clear();
            buf.resize(n_pins, 0.0);
        }
        for (&p, g) in self.net_cap_pins.iter().zip(net_pin_grads.iter()) {
            out.pin_grad_x[p as usize] += g[0];
            out.pin_grad_y[p as usize] += g[1];
        }

        for buf in [&mut out.cell_grad_x, &mut out.cell_grad_y] {
            buf.clear();
            buf.resize(nl.num_cells(), 0.0);
        }
        for p in nl.pin_ids() {
            let c = nl.pin(p).cell().index();
            out.cell_grad_x[c] += out.pin_grad_x[p.index()];
            out.cell_grad_y[c] += out.pin_grad_y[p.index()];
        }
        out.objective = objective;
    }

    /// The forward evaluation of arc `k` (arc-CSR position): read off the
    /// tape of a smoothed analysis, evaluated at `(slew_in, load)` for an
    /// exact one.
    #[inline]
    fn arc_eval(&self, analysis: &Analysis, k: usize, slew_in: f64, load: f64) -> ArcEval {
        match analysis.tape.get(k) {
            Some(&ev) => ev,
            None => self.binding.tables.eval(self.arc_idx[k] as usize, slew_in, load),
        }
    }

    /// Eq. (12): distributes the gradient of the combinational output pin in
    /// slot `s` to its fan-in pins and to the load of its own net.
    fn backprop_cell_output(
        &self,
        s: usize,
        analysis: &Analysis,
        gamma: f64,
        g_at: &mut [f64],
        g_slew: &mut [f64],
        seed_root_load: &mut [f64],
    ) {
        let sl = &self.slots[s];
        let i = sl.pin as usize;
        let arcs = self.arcs(s);
        if arcs.is_empty() {
            return;
        }
        let load = analysis.load_at(sl.node);
        let eval = |k: usize| {
            self.arc_eval(analysis, k, analysis.slew[self.arc_from[k] as usize], load)
        };
        let mut a_vals = F64Buf::<MAX_INLINE_ARCS>::new();
        let mut s_vals = F64Buf::<MAX_INLINE_ARCS>::new();
        for k in arcs.clone() {
            let ev = eval(k);
            a_vals.push(analysis.at[self.arc_from[k] as usize] + ev.delay);
            s_vals.push(ev.slew);
        }
        let mut wa = F64Buf::<MAX_INLINE_ARCS>::new();
        let mut ws = F64Buf::<MAX_INLINE_ARCS>::new();
        weights_into(a_vals.as_slice(), gamma, &mut wa);
        weights_into(s_vals.as_slice(), gamma, &mut ws);
        let mut g_load = 0.0;
        for (j, k) in arcs.enumerate() {
            let ev = eval(k);
            let from = self.arc_from[k] as usize;
            let g_delay_k = wa.as_slice()[j] * g_at[i]; // Eq. 12b
            let g_slew_k = ws.as_slice()[j] * g_slew[i]; // Eq. 12c
            g_at[from] += wa.as_slice()[j] * g_at[i]; // Eq. 12a
            g_slew[from] += ev.d_delay_d_slew * g_delay_k + ev.d_slew_d_slew * g_slew_k; // Eq. 12d
            g_load += ev.d_delay_d_load * g_delay_k + ev.d_slew_d_load * g_slew_k; // Eq. 12e
        }
        if sl.node != NO_NODE {
            seed_root_load[sl.net as usize] += g_load;
        }
    }
}

/// LSE softmax weights, or hard one-hot argmax weights when `gamma == 0`
/// (the exact-mode subgradient), written into `out` without allocating.
fn weights_into(vals: &[f64], gamma: f64, out: &mut F64Buf<MAX_INLINE_ARCS>) {
    out.resize_zeroed(vals.len());
    if gamma > 0.0 {
        lse_max_weights_into(vals, gamma, out.as_mut_slice());
    } else {
        let mut best = 0usize;
        for (i, &v) in vals.iter().enumerate() {
            if v > vals[best] {
                best = i;
            }
        }
        out.as_mut_slice()[best] = 1.0;
    }
}

/// Aggregates arrival candidates and slews with smoothed or hard max.
fn aggregate(a_vals: &[f64], s_vals: &[f64], gamma: f64) -> (f64, f64) {
    if gamma > 0.0 {
        (lse_max(a_vals, gamma), lse_max(s_vals, gamma))
    } else {
        (
            a_vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            s_vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtp_liberty::synth::synthetic_pdk;
    use dtp_netlist::generate::{generate, GeneratorConfig};
    use dtp_rsmt::build_forest;
    use rayon::{with_pool, Pool};

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn tape_gradients_equal_reevaluated_gradients() {
        let design = generate(&GeneratorConfig::named("tape", 900)).unwrap();
        let timer = Timer::new(&design, &synthetic_pdk()).unwrap();
        let forest = build_forest(&design.netlist);
        let nl = &design.netlist;
        let mut scratch = AnalysisScratch::new();
        let taped = timer.analyze_smoothed_into(nl, &forest, &mut scratch);
        assert_eq!(taped.tape.len(), timer.arc_idx.len());
        assert!(!taped.tape.is_empty());
        // The tape holds exactly what an evaluation at the analysis' own
        // slews and loads returns …
        for s in 0..timer.slots.len() {
            let sl = &timer.slots[s];
            let load = taped.load_at(sl.node);
            for k in timer.arcs(s) {
                let slew_in = if sl.role == PinRole::RegisterOutput {
                    timer.config.clock_slew
                } else {
                    taped.slew[timer.arc_from[k] as usize]
                };
                let want = timer.binding.arc(timer.arc_idx[k] as usize).eval(slew_in, load);
                assert_eq!(taped.tape[k], want, "arc {k}");
            }
        }
        // … so dropping it (the exact-analysis path: arcs evaluated again)
        // changes nothing.
        let mut untaped = taped.clone();
        untaped.tape = Vec::new();
        let (mut a, mut b) = (PositionGradients::default(), PositionGradients::default());
        timer.gradients_into(nl, &taped, &forest, 0.04, 0.0004, &mut scratch, &mut a);
        timer.gradients_into(nl, &untaped, &forest, 0.04, 0.0004, &mut scratch, &mut b);
        assert_eq!(bits(&a.pin_grad_x), bits(&b.pin_grad_x));
        assert_eq!(bits(&a.pin_grad_y), bits(&b.pin_grad_y));
        assert_eq!(bits(&a.cell_grad_x), bits(&b.cell_grad_x));
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        assert!(a.pin_grad_x.iter().any(|&g| g != 0.0));
    }

    #[test]
    fn pool_width_does_not_change_a_bit() {
        let mut cfg = GeneratorConfig::named("widths", 5000);
        cfg.depth = 24;
        let design = generate(&cfg).unwrap();
        let timer = Timer::new(&design, &synthetic_pdk()).unwrap();
        let forest = build_forest(&design.netlist);
        let nl = &design.netlist;
        // The design must exercise both sides of both grains.
        let widths: Vec<u32> = timer.level_off.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(widths.iter().any(|&w| w as usize > LEVEL_GRAIN), "no dispatched level");
        assert!(widths.iter().any(|&w| (1..=LEVEL_GRAIN as u32).contains(&w)), "no inline level");
        assert!(timer.num_nets() > 2 * NET_GRAIN);

        let run = |threads: usize| {
            with_pool(&Pool::new(threads), || {
                let mut scratch = AnalysisScratch::new();
                let exact = timer.analyze_into(nl, &forest, &mut scratch);
                let smoothed = timer.analyze_smoothed_into(nl, &forest, &mut scratch);
                let mut g = PositionGradients::default();
                timer.gradients_into(nl, &smoothed, &forest, 0.04, 0.0004, &mut scratch, &mut g);
                (exact, smoothed, g)
            })
        };
        let (e1, s1, g1) = run(1);
        for threads in [2, 4] {
            let (e, s, g) = run(threads);
            for (a, b) in [(&e1, &e), (&s1, &s)] {
                assert_eq!(bits(&a.at), bits(&b.at), "{threads} threads");
                assert_eq!(bits(&a.at_early), bits(&b.at_early));
                assert_eq!(bits(&a.slew), bits(&b.slew));
                assert_eq!(bits(&a.slack), bits(&b.slack));
                assert_eq!(bits(&a.rat), bits(&b.rat));
            }
            assert_eq!(s1.tape, s.tape);
            assert_eq!(bits(&g1.pin_grad_x), bits(&g.pin_grad_x), "{threads} threads");
            assert_eq!(bits(&g1.pin_grad_y), bits(&g.pin_grad_y));
            assert_eq!(g1.objective.to_bits(), g.objective.to_bits());
        }
        // Smoothed analyses carry no required times; exact ones do.
        assert!(s1.rat.iter().all(|r| r.is_infinite()));
        assert!(e1.rat.iter().any(|r| r.is_finite()));
        assert!(e1.tape.is_empty());
    }
}
