//! Binding of structural netlist classes to liberty library cells.
//!
//! The netlist (`dtp-netlist`) knows only cell footprints and pin names; the
//! library (`dtp-liberty`) holds capacitances and timing arcs. The binding
//! resolves, once, per class: the library cell, per-pin capacitances, and the
//! delay/constraint arcs per output/data pin — so the per-iteration timing
//! passes never do string lookups.

use crate::error::StaError;
use dtp_liberty::{ArcTables, Library, TimingArc};
use dtp_netlist::{ClassId, Netlist, PinId};

/// Per-class resolved binding data.
///
/// Delay arcs are stored in CSR form (flat `(arc, from-pin)` array plus
/// per-class-pin offsets): the inner loops of every timing sweep read them,
/// so one contiguous slice per class beats a `Vec` per pin.
#[derive(Clone, Debug, Default)]
pub(crate) struct ClassBinding {
    /// Library cell index in the binding's arc arena, or `None` for port
    /// pseudo-classes (which have no library view).
    pub bound: bool,
    /// Input capacitance per class pin (0 for outputs/ports).
    pub pin_cap: Vec<f64>,
    /// Flat delay-arc array: `(index into Binding::arcs, class-pin index of
    /// the source input pin)`, grouped by destination (output) class pin.
    pub delay_arc_data: Vec<(u32, u32)>,
    /// CSR offsets into `delay_arc_data`, one entry per class pin plus a
    /// trailing end offset.
    pub delay_arc_offsets: Vec<u32>,
    /// For each class pin: index of the setup arc ending at this (data) pin.
    pub setup_arc: Vec<Option<usize>>,
    /// For each class pin: index of the hold arc ending at this (data) pin.
    pub hold_arc: Vec<Option<usize>>,
}

impl ClassBinding {
    /// Delay arcs ending at class pin `cp`, as `(arc index, from class-pin)`.
    #[inline]
    pub fn delay_arcs(&self, cp: usize) -> &[(u32, u32)] {
        let lo = self.delay_arc_offsets[cp] as usize;
        let hi = self.delay_arc_offsets[cp + 1] as usize;
        &self.delay_arc_data[lo..hi]
    }
}

/// Resolved netlist↔library binding.
#[derive(Clone, Debug)]
pub struct Binding {
    pub(crate) classes: Vec<ClassBinding>,
    pub(crate) arcs: Vec<TimingArc>,
    /// The tables of `arcs` in one contiguous arena, same indices — what the
    /// timing sweeps evaluate.
    pub(crate) tables: ArcTables,
    /// Wire resistance per micron (from the library technology extension).
    pub wire_res_per_um: f64,
    /// Wire capacitance per micron.
    pub wire_cap_per_um: f64,
}

impl Binding {
    /// Resolves the binding for every class used in `nl`.
    ///
    /// Port pseudo-classes (`__PI__`/`__PO__`) and Bookshelf-imported private
    /// classes (`__bs_*`) bind to nothing: zero caps, no arcs.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::UnboundClass`] or [`StaError::UnboundPin`] if a
    /// real class is missing from the library.
    pub fn resolve(nl: &Netlist, lib: &Library) -> Result<Binding, StaError> {
        let mut classes = Vec::with_capacity(nl.num_classes());
        let mut arcs: Vec<TimingArc> = Vec::new();
        for ci in 0..nl.num_classes() {
            let class = nl.class(ClassId::new(ci));
            let n_pins = class.pins().len();
            if class.name().starts_with("__") {
                classes.push(ClassBinding {
                    bound: false,
                    pin_cap: vec![0.0; n_pins],
                    delay_arc_data: Vec::new(),
                    delay_arc_offsets: vec![0; n_pins + 1],
                    setup_arc: vec![None; n_pins],
                    hold_arc: vec![None; n_pins],
                });
                continue;
            }
            let lib_cell = lib
                .cell(class.name())
                .ok_or_else(|| StaError::UnboundClass(class.name().to_owned()))?;
            let mut cb = ClassBinding {
                bound: true,
                pin_cap: Vec::with_capacity(n_pins),
                delay_arc_data: Vec::new(),
                delay_arc_offsets: Vec::new(),
                setup_arc: vec![None; n_pins],
                hold_arc: vec![None; n_pins],
            };
            for spec in class.pins() {
                let lp = lib_cell.pin(&spec.name).ok_or_else(|| StaError::UnboundPin {
                    class: class.name().to_owned(),
                    pin: spec.name.clone(),
                })?;
                cb.pin_cap.push(lp.capacitance);
            }
            // Stage the per-pin arc lists, then flatten to CSR once the whole
            // cell is resolved (arc order within a pin is library order).
            let mut per_pin: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_pins];
            for arc in lib_cell.arcs() {
                let to = class.find_pin(&arc.to).ok_or_else(|| StaError::UnboundPin {
                    class: class.name().to_owned(),
                    pin: arc.to.clone(),
                })?;
                let from = class.find_pin(&arc.from).ok_or_else(|| StaError::UnboundPin {
                    class: class.name().to_owned(),
                    pin: arc.from.clone(),
                })?;
                let idx = arcs.len();
                arcs.push(arc.clone());
                match arc.kind {
                    dtp_liberty::ArcKind::Setup => cb.setup_arc[to.index()] = Some(idx),
                    dtp_liberty::ArcKind::Hold => cb.hold_arc[to.index()] = Some(idx),
                    _ => per_pin[to.index()].push((idx as u32, from.index() as u32)),
                }
            }
            cb.delay_arc_offsets.push(0);
            for pin_arcs in &per_pin {
                cb.delay_arc_data.extend_from_slice(pin_arcs);
                cb.delay_arc_offsets.push(cb.delay_arc_data.len() as u32);
            }
            classes.push(cb);
        }
        Ok(Binding {
            classes,
            tables: ArcTables::new(&arcs),
            arcs,
            wire_res_per_um: lib.wire_res_per_um,
            wire_cap_per_um: lib.wire_cap_per_um,
        })
    }

    /// Input capacitance of a pin instance (0 for outputs and ports).
    #[inline]
    pub fn pin_cap(&self, nl: &Netlist, pin: PinId) -> f64 {
        let p = nl.pin(pin);
        let class = nl.cell(p.cell()).class();
        self.classes[class.index()].pin_cap[p.class_pin().index()]
    }

    /// The timing arc at `index` in the arc arena.
    pub(crate) fn arc(&self, index: usize) -> &TimingArc {
        &self.arcs[index]
    }

    /// Whether `class` has a library binding (false for port pseudo-classes).
    pub fn class_is_bound(&self, class: ClassId) -> bool {
        self.classes[class.index()].bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtp_liberty::synth::synthetic_pdk;
    use dtp_netlist::generate::{generate, GeneratorConfig};

    #[test]
    fn resolves_generated_design() {
        let d = generate(&GeneratorConfig::named("b", 120)).unwrap();
        let lib = synthetic_pdk();
        let b = Binding::resolve(&d.netlist, &lib).unwrap();
        assert_eq!(b.classes.len(), d.netlist.num_classes());
        assert!(b.wire_res_per_um > 0.0);
        // Every connected sink pin of a bound class has positive capacitance.
        let mut found_cap = false;
        for p in d.netlist.pin_ids() {
            let cap = b.pin_cap(&d.netlist, p);
            if cap > 0.0 {
                found_cap = true;
            }
            assert!(cap >= 0.0);
        }
        assert!(found_cap);
    }

    #[test]
    fn missing_cell_is_error() {
        let d = generate(&GeneratorConfig::named("b", 60)).unwrap();
        let empty = Library::new("empty");
        match Binding::resolve(&d.netlist, &empty) {
            Err(StaError::UnboundClass(_)) => {}
            other => panic!("expected UnboundClass, got {other:?}"),
        }
    }

    #[test]
    fn arcs_indexed_by_output_pin() {
        let d = generate(&GeneratorConfig::named("b", 60)).unwrap();
        let lib = synthetic_pdk();
        let b = Binding::resolve(&d.netlist, &lib).unwrap();
        // A NAND2 class must have two delay arcs to its Y pin.
        if let Some(cid) = d.netlist.find_class("NAND2_X1") {
            let class = d.netlist.class(cid);
            let y = class.find_pin("Y").unwrap();
            assert_eq!(b.classes[cid.index()].delay_arcs(y.index()).len(), 2);
        }
        // A DFF class has a setup and hold arc on D and a delay arc on Q.
        if let Some(cid) = d.netlist.find_class("DFF_X1") {
            let class = d.netlist.class(cid);
            let dd = class.find_pin("D").unwrap();
            let q = class.find_pin("Q").unwrap();
            assert!(b.classes[cid.index()].setup_arc[dd.index()].is_some());
            assert!(b.classes[cid.index()].hold_arc[dd.index()].is_some());
            assert_eq!(b.classes[cid.index()].delay_arcs(q.index()).len(), 1);
        }
    }
}
