//! Top-K critical-path extraction: the K worst endpoints traced back through
//! their worst-arrival predecessors, with a per-pin criticality on the pins
//! of those paths (the extraction of "Timing-Driven Global Placement by
//! Efficient Critical Path Extraction"): an analysis primitive that no
//! placement mode consumes.
//!
//! # Shape of the extraction
//!
//! 1. **Select** the K worst endpoints of an (exact) analysis, ordered by
//!    slack ascending with ties broken by [`PinId`] — bit-for-bit stable
//!    across pool widths.
//! 2. **Trace** each endpoint back through its worst fan-in: at a cell
//!    output the fan-in maximizing `AT + arc delay`, at a sink pin the net
//!    driver, stopping at launch points. The backward step is a
//!    deterministic function of the pin, so two paths that meet share their
//!    entire remaining prefix.
//! 3. **Deduplicate** shared prefixes: a trace stops at the first pin
//!    already claimed by a more critical path. Because paths are traced in
//!    worst-slack-first order and criticality decays with rank, the first
//!    visit always carries the *maximal* criticality — first-visit
//!    assignment equals max-aggregation over the un-deduplicated path set.
//! 4. **Weight**: path rank `r` with endpoint slack `s` gets criticality
//!    `decay^r · clamp(−s / |WNS|, 0, 1)`; every newly visited pin inherits
//!    its path's criticality.
//!
//! # Allocation discipline
//!
//! [`PathScratch`] and [`PathSet`] own every buffer the extraction touches:
//! candidate endpoints, visited flags, the CSR path arrays and the per-pin
//! criticality map (reset sparsely via the previous extraction's pin list).
//! After warm-up, [`Timer::extract_paths_into`] performs zero heap
//! allocations per call — the property `tests/zero_alloc.rs` verifies with a
//! counting allocator.

use crate::engine::{Analysis, Timer};
use crate::graph::PinRole;
use dtp_netlist::{Netlist, PinId};

/// Reusable working memory of [`Timer::extract_paths_into`].
///
/// One scratch serves any number of extractions on the same design; all
/// buffers persist between calls and are reset sparsely, so steady-state
/// extraction allocates nothing.
#[derive(Debug, Default)]
pub struct PathScratch {
    /// Endpoint candidates `(slack, pin)` for the top-K selection.
    cand: Vec<(f64, PinId)>,
    /// Per-pin claimed flags for shared-prefix deduplication.
    visited: Vec<bool>,
    /// Pins claimed this extraction (sparse reset of `visited`).
    touched: Vec<PinId>,
}

impl PathScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> PathScratch {
        PathScratch::default()
    }

    /// Pre-sizes the buffers for a design with `num_pins` pins and
    /// `num_endpoints` endpoints, so warm-up growth happens once at flow
    /// start instead of inside the first extraction.
    pub fn presize(&mut self, num_pins: usize, num_endpoints: usize) {
        if self.visited.len() < num_pins {
            self.visited.resize(num_pins, false);
        }
        self.cand.reserve(num_endpoints.saturating_sub(self.cand.capacity()));
        self.touched.reserve(num_pins.saturating_sub(self.touched.capacity()));
    }
}

/// The result of one top-K extraction: the traced paths in CSR form plus the
/// per-pin criticality map they induce.
///
/// Paths are stored endpoint-first (the order the backward trace emits) and
/// contain only the pins *newly claimed* by that path — a path that merges
/// into a more critical one ends where the shared prefix begins, so every
/// pin appears in exactly one path.
#[derive(Debug, Default)]
pub struct PathSet {
    /// CSR offsets into `pins`; path `k` spans `pins[offsets[k]..offsets[k+1]]`.
    offsets: Vec<u32>,
    /// Flat pin array of all paths, endpoint-first within each path.
    pins: Vec<PinId>,
    /// Endpoint of each path, worst slack first.
    endpoints: Vec<PinId>,
    /// Endpoint slack of each path.
    slacks: Vec<f64>,
    /// Criticality of each path: `decay^rank · clamp(−slack/|WNS|, 0, 1)`.
    crits: Vec<f64>,
    /// Per-pin criticality (0 off the extracted paths); pin-indexed.
    pin_crit: Vec<f64>,
    /// Dense list of pins with nonzero criticality (sparse reset + iteration).
    crit_pins: Vec<PinId>,
    /// Worst slack over *all* endpoints (0 when the design has none).
    wns: f64,
}

impl PathSet {
    /// An empty path set.
    pub fn new() -> PathSet {
        PathSet::default()
    }

    /// Pre-sizes the per-pin criticality map (the one buffer whose first
    /// touch is design-sized).
    pub fn presize(&mut self, num_pins: usize) {
        if self.pin_crit.len() < num_pins {
            self.pin_crit.resize(num_pins, 0.0);
        }
    }

    /// Clears the previous extraction, sparsely zeroing the criticality map.
    fn reset(&mut self, num_pins: usize) {
        if self.pin_crit.len() == num_pins {
            for p in self.crit_pins.drain(..) {
                self.pin_crit[p.index()] = 0.0;
            }
        } else {
            // Different design: rebuild the map from scratch.
            self.crit_pins.clear();
            self.pin_crit.clear();
            self.pin_crit.resize(num_pins, 0.0);
        }
        self.offsets.clear();
        self.offsets.push(0);
        self.pins.clear();
        self.endpoints.clear();
        self.slacks.clear();
        self.crits.clear();
        self.wns = 0.0;
    }

    /// Number of extracted paths (≤ the requested K).
    pub fn num_paths(&self) -> usize {
        self.endpoints.len()
    }

    /// The pins path `k` claimed, endpoint first. A path that merged into a
    /// more critical one ends at the merge point (exclusive).
    pub fn path(&self, k: usize) -> &[PinId] {
        &self.pins[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    /// Endpoint of path `k` (rank order: worst slack first).
    pub fn endpoint(&self, k: usize) -> PinId {
        self.endpoints[k]
    }

    /// Endpoint slack of path `k`, ps.
    pub fn slack(&self, k: usize) -> f64 {
        self.slacks[k]
    }

    /// Criticality of path `k` in `[0, 1]`.
    pub fn criticality(&self, k: usize) -> f64 {
        self.crits[k]
    }

    /// Criticality of a pin: its path's criticality if it lies on an
    /// extracted path, else 0. Equals the max over all (un-deduplicated)
    /// extracted paths through the pin.
    pub fn pin_criticality(&self, pin: PinId) -> f64 {
        self.pin_crit.get(pin.index()).copied().unwrap_or(0.0)
    }

    /// Pins with nonzero criticality, in claim order (most critical path
    /// first).
    pub fn critical_pins(&self) -> &[PinId] {
        &self.crit_pins
    }

    /// Worst slack over all endpoints of the analysis (not just the K
    /// selected); 0.0 when the design has no constrained endpoints.
    pub fn wns(&self) -> f64 {
        self.wns
    }
}

/// The most critical fan-in of `cur`, or `None` at launch/terminal pins.
///
/// Sink pins (cell inputs, register data, primary outputs) follow the net
/// arc back to the driver; combinational outputs pick the fan-in maximizing
/// `AT + arc delay` at the analysis' slews and loads, breaking exact-delay
/// ties by smaller [`PinId`] so the trace is deterministic under any
/// parallel schedule. Launch pins (primary inputs, register outputs) and
/// excluded pins (clock, unconnected) end the trace.
pub(crate) fn worst_fanin(timer: &Timer, analysis: &Analysis, cur: PinId) -> Option<PinId> {
    let slot = timer.slot_of(cur)?;
    match slot.role {
        PinRole::CombInput | PinRole::RegisterData | PinRole::PrimaryOutput => {
            Some(PinId::new(slot.driver as usize))
        }
        PinRole::CombOutput => {
            let load = analysis.load_at(slot.node);
            let mut best: Option<(f64, PinId)> = None;
            for (from, arc) in timer.fanin_arcs(cur) {
                let delay = timer.binding().tables.delay(arc, analysis.slew[from.index()], load);
                let a = analysis.at[from.index()] + delay;
                if best.is_none_or(|(b, bp)| a > b || (a == b && from < bp)) {
                    best = Some((a, from));
                }
            }
            best.map(|(_, from)| from)
        }
        _ => None,
    }
}

impl Timer {
    /// Extracts the top-`top_k` critical paths of `analysis` into `out`,
    /// assigning each path rank `r` (worst slack first, slack ties broken by
    /// [`PinId`]) the criticality `decay^r · clamp(−slack/|WNS|, 0, 1)` and
    /// each pin the criticality of the most critical path through it.
    ///
    /// `analysis` should be exact (γ = 0); a smoothed analysis traces the
    /// smoothed-arrival worst fan-ins instead, which is well-defined but
    /// blurs the path selection. RATs are never read, so incremental
    /// analyses with `recompute_rat = false` are sufficient.
    ///
    /// With `WNS ≥ 0` (no violations) every criticality is 0; the paths are
    /// still traced for reporting. Steady-state calls perform no heap
    /// allocation: all buffers persist in `scratch` and `out`.
    pub fn extract_paths_into(
        &self,
        nl: &Netlist,
        analysis: &Analysis,
        top_k: usize,
        decay: f64,
        scratch: &mut PathScratch,
        out: &mut PathSet,
    ) {
        let num_pins = nl.num_pins();
        if scratch.visited.len() < num_pins {
            scratch.visited.resize(num_pins, false);
        }
        out.reset(num_pins);

        // 1. Deterministic worst-K endpoint selection: slack ascending, ties
        //    by PinId. Selection + sort of K elements keeps the cost at
        //    O(E + K log K) for E endpoints.
        scratch.cand.clear();
        scratch
            .cand
            .extend(analysis.endpoints().iter().map(|&p| (analysis.slack[p.index()], p)));
        let k = top_k.min(scratch.cand.len());
        if k == 0 {
            return;
        }
        let cmp = |a: &(f64, PinId), b: &(f64, PinId)| {
            a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1))
        };
        if k < scratch.cand.len() {
            scratch.cand.select_nth_unstable_by(k - 1, cmp);
            scratch.cand.truncate(k);
        }
        scratch.cand.sort_unstable_by(cmp);
        out.wns = scratch.cand[0].0;
        let wns_mag = if out.wns < 0.0 { -out.wns } else { 0.0 };

        // 2–4. Trace in rank order; stop at the first pin a more critical
        //      path already claimed. Every loop iteration claims a new pin,
        //      so total trace work is bounded by the pins visited (even on a
        //      malformed cyclic graph the walk cannot revisit).
        for rank in 0..k {
            let (slack, endpoint) = scratch.cand[rank];
            let crit = if wns_mag > 0.0 {
                decay.powi(rank as i32) * ((-slack) / wns_mag).clamp(0.0, 1.0)
            } else {
                0.0
            };
            out.endpoints.push(endpoint);
            out.slacks.push(slack);
            out.crits.push(crit);
            let mut cur = endpoint;
            loop {
                let i = cur.index();
                if scratch.visited[i] {
                    break; // shared prefix: owned by a more critical path
                }
                scratch.visited[i] = true;
                scratch.touched.push(cur);
                out.pins.push(cur);
                if crit > 0.0 {
                    out.pin_crit[i] = crit;
                    out.crit_pins.push(cur);
                }
                match worst_fanin(self, analysis, cur) {
                    Some(next) => cur = next,
                    None => break,
                }
            }
            out.offsets.push(out.pins.len() as u32);
        }
        for p in scratch.touched.drain(..) {
            scratch.visited[p.index()] = false;
        }
    }
}
