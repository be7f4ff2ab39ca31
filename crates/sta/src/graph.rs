//! Timing graph construction and pin levelization (§3.3 step 1).
//!
//! The STA DAG has pins as nodes and two arc families: *net arcs* (net driver
//! to each sink) and *cell arcs* (cell input to cell output, from the
//! library binding). Registers cut the graph: their `Q` pins are launch
//! points (clocked by the ideal clock) and their `D` pins are capture
//! endpoints, so no `D → Q` edge exists. Pins are assigned *levels* by
//! longest path from the launch points; level-by-level batches are the unit
//! of parallel propagation (the paper's GPU kernel launches).

use crate::binding::Binding;
use crate::error::StaError;
use dtp_netlist::{Netlist, PinDir, PinId, PinKind};

/// Functional role of a pin in the timing graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PinRole {
    /// Primary-input port pin: a launch point with SDC input delay.
    PrimaryInput,
    /// Primary-output port pin: a capture endpoint with SDC output margin.
    PrimaryOutput,
    /// Register `Q`: a launch point driven by the (ideal) clock.
    RegisterOutput,
    /// Register `D`: a capture endpoint checked against setup/hold.
    RegisterData,
    /// Register clock pin: ideal network, excluded from propagation.
    Clock,
    /// Combinational cell input.
    CombInput,
    /// Combinational cell output.
    CombOutput,
    /// Pin with no net; treated as a constant (excluded).
    Unconnected,
}

impl PinRole {
    /// Whether arrival times originate here.
    #[cfg(test)]
    pub(crate) fn is_launch(self) -> bool {
        matches!(self, PinRole::PrimaryInput | PinRole::RegisterOutput)
    }

    /// Whether slacks are checked here.
    pub(crate) fn is_endpoint(self) -> bool {
        matches!(self, PinRole::PrimaryOutput | PinRole::RegisterData)
    }
}

/// The levelized timing graph.
///
/// Levels are stored in CSR form (one flat pin array plus per-level
/// offsets) so a whole forward or backward sweep touches two contiguous
/// allocations instead of one heap block per level.
#[derive(Clone, Debug)]
pub struct TimingGraph {
    role: Vec<PinRole>,
    level: Vec<u32>,
    /// Flat pin array, grouped by ascending level; only pins that
    /// participate in propagation appear.
    level_pins: Vec<PinId>,
    /// CSR offsets into `level_pins`: level `l` spans
    /// `level_pins[level_offsets[l]..level_offsets[l + 1]]`.
    level_offsets: Vec<u32>,
    endpoints: Vec<PinId>,
}

impl TimingGraph {
    /// Builds and levelizes the timing graph.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::CombinationalCycle`] if the combinational netlist
    /// is cyclic.
    pub fn build(nl: &Netlist, binding: &Binding) -> Result<TimingGraph, StaError> {
        let n = nl.num_pins();
        let mut role = Vec::with_capacity(n);
        for p in nl.pin_ids() {
            let pin = nl.pin(p);
            let spec = nl.pin_spec(p);
            let cell = pin.cell();
            let r = if pin.net().is_none() {
                PinRole::Unconnected
            } else if nl.cell_is_input_port(cell) {
                PinRole::PrimaryInput
            } else if nl.cell_is_output_port(cell) {
                PinRole::PrimaryOutput
            } else if spec.kind == PinKind::Clock {
                PinRole::Clock
            } else if nl.class_of(cell).is_sequential() {
                if spec.dir == PinDir::Output {
                    PinRole::RegisterOutput
                } else {
                    PinRole::RegisterData
                }
            } else if spec.dir == PinDir::Output {
                PinRole::CombOutput
            } else {
                PinRole::CombInput
            };
            role.push(r);
        }

        // Forward adjacency + in-degrees over propagation arcs.
        let mut indeg = vec![0u32; n];
        let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
        let active = |r: PinRole| !matches!(r, PinRole::Clock | PinRole::Unconnected);
        // Net arcs.
        for net_id in nl.net_ids() {
            let net = nl.net(net_id);
            if net.is_clock() {
                continue;
            }
            let Some(driver) = nl.net_driver(net_id) else { continue };
            if !active(role[driver.index()]) {
                continue;
            }
            for &sink in nl.net_sinks(net_id) {
                if active(role[sink.index()]) {
                    succ[driver.index()].push(sink.index() as u32);
                    indeg[sink.index()] += 1;
                }
            }
        }
        // Cell arcs (combinational only; register CK→Q is evaluated at launch,
        // not traversed).
        for p in nl.pin_ids() {
            if role[p.index()] != PinRole::CombOutput {
                continue;
            }
            let pin = nl.pin(p);
            let cell = nl.cell(pin.cell());
            let cb = &binding.classes[cell.class().index()];
            for &(_, from_cp) in cb.delay_arcs(pin.class_pin().index()) {
                let from_pin = cell.pins()[from_cp as usize];
                if active(role[from_pin.index()]) {
                    succ[from_pin.index()].push(p.index() as u32);
                    indeg[p.index()] += 1;
                }
            }
        }

        // Kahn longest-path levelization.
        let mut level = vec![0u32; n];
        let mut queue: Vec<u32> = Vec::new();
        let mut n_active = 0usize;
        for i in 0..n {
            if active(role[i]) {
                n_active += 1;
                if indeg[i] == 0 {
                    queue.push(i as u32);
                }
            }
        }
        let mut processed = 0usize;
        let mut head = 0usize;
        while head < queue.len() {
            let u = queue[head] as usize;
            head += 1;
            processed += 1;
            for &v in &succ[u] {
                let v = v as usize;
                level[v] = level[v].max(level[u] + 1);
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v as u32);
                }
            }
        }
        if processed != n_active {
            let culprit = (0..n)
                .find(|&i| active(role[i]) && indeg[i] > 0)
                .expect("unprocessed pin exists when counts mismatch");
            return Err(StaError::CombinationalCycle {
                pin: nl.pin_name(PinId::new(culprit)),
            });
        }

        let max_level = (0..n)
            .filter(|&i| active(role[i]))
            .map(|i| level[i])
            .max()
            .unwrap_or(0) as usize;
        // Counting sort into CSR: count per level, prefix-sum, scatter.
        let mut level_offsets = vec![0u32; max_level + 2];
        for i in 0..n {
            if active(role[i]) {
                level_offsets[level[i] as usize + 1] += 1;
            }
        }
        for l in 0..=max_level {
            level_offsets[l + 1] += level_offsets[l];
        }
        let mut cursor: Vec<u32> = level_offsets[..=max_level].to_vec();
        let mut level_pins = vec![PinId::new(0); level_offsets[max_level + 1] as usize];
        for i in 0..n {
            if active(role[i]) {
                let l = level[i] as usize;
                level_pins[cursor[l] as usize] = PinId::new(i);
                cursor[l] += 1;
            }
        }
        let endpoints: Vec<PinId> = nl
            .pin_ids()
            .filter(|&p| role[p.index()].is_endpoint())
            .collect();

        Ok(TimingGraph { role, level, level_pins, level_offsets, endpoints })
    }

    /// Role of a pin.
    #[inline]
    pub fn role(&self, pin: PinId) -> PinRole {
        self.role[pin.index()]
    }

    /// Level of a pin (0 for launch points and excluded pins).
    #[inline]
    pub fn level(&self, pin: PinId) -> u32 {
        self.level[pin.index()]
    }

    /// Pins grouped by ascending level: an iterator of per-level slices into
    /// the flat CSR array (no per-level allocation).
    pub fn levels(
        &self,
    ) -> impl DoubleEndedIterator<Item = &[PinId]> + ExactSizeIterator + '_ {
        self.level_offsets
            .windows(2)
            .map(move |w| &self.level_pins[w[0] as usize..w[1] as usize])
    }

    /// Number of levels (the depth of the "neural network", §3.1).
    pub fn depth(&self) -> usize {
        self.level_offsets.len() - 1
    }

    /// All capture endpoints (register data pins and primary outputs).
    pub fn endpoints(&self) -> &[PinId] {
        &self.endpoints
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtp_liberty::synth::synthetic_pdk;
    use dtp_netlist::generate::{generate, GeneratorConfig};

    fn graph_for(cells: usize) -> (dtp_netlist::Design, Binding, TimingGraph) {
        let d = generate(&GeneratorConfig::named("g", cells)).unwrap();
        let lib = synthetic_pdk();
        let b = Binding::resolve(&d.netlist, &lib).unwrap();
        let g = TimingGraph::build(&d.netlist, &b).unwrap();
        (d, b, g)
    }

    #[test]
    fn levels_respect_arcs() {
        let (d, b, g) = graph_for(200);
        // Net arcs: sink strictly deeper than driver.
        for net_id in d.netlist.net_ids() {
            let net = d.netlist.net(net_id);
            if net.is_clock() {
                continue;
            }
            let driver = d.netlist.net_driver(net_id).unwrap();
            if matches!(g.role(driver), PinRole::Clock | PinRole::Unconnected) {
                continue;
            }
            for &s in d.netlist.net_sinks(net_id) {
                if !matches!(g.role(s), PinRole::Clock | PinRole::Unconnected) {
                    assert!(g.level(s) > g.level(driver));
                }
            }
        }
        // Cell arcs: comb output deeper than its inputs.
        for p in d.netlist.pin_ids() {
            if g.role(p) != PinRole::CombOutput {
                continue;
            }
            let pin = d.netlist.pin(p);
            let cell = d.netlist.cell(pin.cell());
            let cb = &b.classes[cell.class().index()];
            for &(_, from_cp) in cb.delay_arcs(pin.class_pin().index()) {
                let from = cell.pins()[from_cp as usize];
                if !matches!(g.role(from), PinRole::Clock | PinRole::Unconnected) {
                    assert!(g.level(p) > g.level(from));
                }
            }
        }
    }

    #[test]
    fn launch_pins_at_level_zero() {
        let (d, _, g) = graph_for(150);
        for p in d.netlist.pin_ids() {
            if g.role(p).is_launch() {
                assert_eq!(g.level(p), 0, "launch pin {} not at level 0", d.netlist.pin_name(p));
            }
        }
    }

    #[test]
    fn endpoints_are_register_data_and_pos() {
        let (d, _, g) = graph_for(150);
        assert!(!g.endpoints().is_empty());
        for &p in g.endpoints() {
            assert!(g.role(p).is_endpoint());
            assert!(d.netlist.pin(p).net().is_some());
        }
    }

    #[test]
    fn clock_pins_excluded_from_levels() {
        let (d, _, g) = graph_for(150);
        for lv in g.levels() {
            for &p in lv {
                assert_ne!(g.role(p), PinRole::Clock);
                assert_ne!(g.role(p), PinRole::Unconnected);
                let _ = d.netlist.pin_name(p);
            }
        }
    }

    #[test]
    fn depth_grows_with_logic_depth() {
        let mut cfg = GeneratorConfig::named("g", 300);
        cfg.depth = 4;
        let lib = synthetic_pdk();
        let d1 = generate(&cfg).unwrap();
        let b1 = Binding::resolve(&d1.netlist, &lib).unwrap();
        let g1 = TimingGraph::build(&d1.netlist, &b1).unwrap();
        cfg.depth = 16;
        let d2 = generate(&cfg).unwrap();
        let b2 = Binding::resolve(&d2.netlist, &lib).unwrap();
        let g2 = TimingGraph::build(&d2.netlist, &b2).unwrap();
        assert!(g2.depth() > g1.depth());
    }
}
