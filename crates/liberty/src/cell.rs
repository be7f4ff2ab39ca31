//! Library cells and pins.

use crate::arc::{ArcKind, TimingArc};
use dtp_netlist::PinDir;

/// The electrical view of one library pin.
#[derive(Clone, Debug, PartialEq)]
pub struct LibPin {
    /// Pin name (matches the structural class pin name).
    pub name: String,
    /// Direction.
    pub dir: PinDir,
    /// Input capacitance in fF (sink load contribution for Elmore).
    pub capacitance: f64,
    /// Maximum load the pin may drive (output pins; advisory).
    pub max_capacitance: Option<f64>,
    /// Whether this is a clock pin.
    pub is_clock: bool,
}

/// The electrical/timing view of one library cell.
#[derive(Clone, Debug, PartialEq)]
pub struct LibCell {
    name: String,
    area: f64,
    pins: Vec<LibPin>,
    arcs: Vec<TimingArc>,
}

impl LibCell {
    /// Creates a cell with no pins or arcs.
    pub fn new(name: impl Into<String>, area: f64) -> Self {
        LibCell { name: name.into(), area, pins: Vec::new(), arcs: Vec::new() }
    }

    /// Adds a pin (builder style).
    pub fn with_pin(mut self, pin: LibPin) -> Self {
        self.pins.push(pin);
        self
    }

    /// Adds a timing arc (builder style).
    pub fn with_arc(mut self, arc: TimingArc) -> Self {
        self.arcs.push(arc);
        self
    }

    /// Cell name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Cell area attribute.
    pub fn area(&self) -> f64 {
        self.area
    }

    /// All pins.
    pub fn pins(&self) -> &[LibPin] {
        &self.pins
    }

    /// All timing arcs.
    pub fn arcs(&self) -> &[TimingArc] {
        &self.arcs
    }

    /// Finds a pin by name.
    pub fn pin(&self, name: &str) -> Option<&LibPin> {
        self.pins.iter().find(|p| p.name == name)
    }

    /// Input capacitance of `pin`, or 0 if unknown (e.g. port pseudo-pins).
    pub fn pin_cap(&self, pin: &str) -> f64 {
        self.pin(pin).map_or(0.0, |p| p.capacitance)
    }

    /// Delay arcs ending at output pin `to`.
    #[cfg(test)]
    pub(crate) fn delay_arcs_to<'a>(&'a self, to: &'a str) -> impl Iterator<Item = &'a TimingArc> + 'a {
        self.arcs
            .iter()
            .filter(move |a| a.is_delay_arc() && a.to == to)
    }

    /// Constraint (setup/hold) arcs ending at data pin `to`.
    #[cfg(test)]
    pub(crate) fn constraint_arcs_to<'a>(
        &'a self,
        to: &'a str,
    ) -> impl Iterator<Item = &'a TimingArc> + 'a {
        self.arcs
            .iter()
            .filter(move |a| !a.is_delay_arc() && a.to == to)
    }

    /// The setup constraint arc for data pin `to`, if any.
    pub fn setup_arc(&self, to: &str) -> Option<&TimingArc> {
        self.arcs
            .iter()
            .find(|a| a.kind == ArcKind::Setup && a.to == to)
    }

    /// The hold constraint arc for data pin `to`, if any.
    pub fn hold_arc(&self, to: &str) -> Option<&TimingArc> {
        self.arcs
            .iter()
            .find(|a| a.kind == ArcKind::Hold && a.to == to)
    }

    /// Whether the cell has a clock pin (i.e. is sequential).
    pub fn is_sequential(&self) -> bool {
        self.pins.iter().any(|p| p.is_clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::{Lut1, Lut2};

    fn dff() -> LibCell {
        LibCell::new("DFF_X1", 9.0)
            .with_pin(LibPin { name: "D".into(), dir: PinDir::Input, capacitance: 1.5, max_capacitance: None, is_clock: false })
            .with_pin(LibPin { name: "CK".into(), dir: PinDir::Input, capacitance: 1.0, max_capacitance: None, is_clock: true })
            .with_pin(LibPin { name: "Q".into(), dir: PinDir::Output, capacitance: 0.0, max_capacitance: Some(60.0), is_clock: false })
            .with_arc(TimingArc::symmetric_delay("CK", "Q", ArcKind::ClkToQ, Lut2::constant(30.0), Lut2::constant(8.0)))
            .with_arc(TimingArc::constraint("CK", "D", ArcKind::Setup, Lut1::constant(15.0)))
            .with_arc(TimingArc::constraint("CK", "D", ArcKind::Hold, Lut1::constant(3.0)))
    }

    #[test]
    fn pin_and_arc_lookup() {
        let c = dff();
        assert!(c.is_sequential());
        assert_eq!(c.pin_cap("D"), 1.5);
        assert_eq!(c.pin_cap("missing"), 0.0);
        assert_eq!(c.delay_arcs_to("Q").count(), 1);
        assert_eq!(c.setup_arc("D").unwrap().constraint_value(1.0), 15.0);
        assert_eq!(c.hold_arc("D").unwrap().constraint_value(1.0), 3.0);
        assert!(c.setup_arc("Q").is_none());
    }

    #[test]
    fn combinational_cell() {
        let c = LibCell::new("INV_X1", 2.0)
            .with_pin(LibPin { name: "A".into(), dir: PinDir::Input, capacitance: 1.0, max_capacitance: None, is_clock: false })
            .with_pin(LibPin { name: "Y".into(), dir: PinDir::Output, capacitance: 0.0, max_capacitance: None, is_clock: false })
            .with_arc(TimingArc::symmetric_delay("A", "Y", ArcKind::Combinational, Lut2::constant(10.0), Lut2::constant(5.0)));
        assert!(!c.is_sequential());
        assert_eq!(c.area(), 2.0);
        assert_eq!(c.delay_arcs_to("Y").count(), 1);
        assert_eq!(c.constraint_arcs_to("A").count(), 0);
    }
}
