//! Cell classes — the structural analogue of LEF macros.
//!
//! A [`CellClass`] describes the footprint and pin template of a library cell
//! (or of a synthetic I/O pad). Cell instances in the [`crate::Netlist`] refer
//! to a class by [`ClassId`] and to a pin template by [`ClassPinId`]. The
//! electrical/timing view of the same cell (capacitances, NLDM arcs) lives in
//! the `dtp-liberty` crate and is bound by cell-class name.

use crate::geom::Point;
use std::fmt;

/// Identifier of a cell class within a netlist.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub(crate) u32);

impl ClassId {
    /// Creates a class id from a raw index.
    #[inline]
    pub fn new(index: usize) -> Self {
        ClassId(u32::try_from(index).expect("class index overflows u32"))
    }

    /// Returns the raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a pin template within a [`CellClass`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassPinId(pub(crate) u32);

impl ClassPinId {
    /// Creates a class-pin id from a raw index.
    #[inline]
    pub fn new(index: usize) -> Self {
        ClassPinId(u32::try_from(index).expect("class pin index overflows u32"))
    }

    /// Returns the raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Signal direction of a pin, seen from the cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PinDir {
    /// The pin consumes a signal (a net sink).
    Input,
    /// The pin produces a signal (the net driver).
    Output,
}

impl PinDir {
    /// Whether this is an output (driving) pin.
    #[inline]
    pub fn is_output(self) -> bool {
        matches!(self, PinDir::Output)
    }
}

impl fmt::Display for PinDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PinDir::Input => write!(f, "input"),
            PinDir::Output => write!(f, "output"),
        }
    }
}

/// Functional kind of a pin, used by timing analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PinKind {
    /// Ordinary signal pin.
    #[default]
    Signal,
    /// Clock pin of a sequential cell (ideal-clock network in this flow).
    Clock,
}

/// A pin template of a cell class: name, direction, kind and the offset of the
/// physical pin location from the cell's lower-left corner.
#[derive(Clone, Debug, PartialEq)]
pub struct PinSpec {
    /// Pin name within the class (e.g. `"A"`, `"Y"`, `"D"`, `"CK"`).
    pub name: String,
    /// Signal direction.
    pub dir: PinDir,
    /// Functional kind.
    pub kind: PinKind,
    /// Offset of the pin from the cell's lower-left corner, in microns.
    pub offset: Point,
}

/// A cell class: footprint plus pin templates.
///
/// # Example
///
/// ```
/// use dtp_netlist::{CellClass, PinDir};
///
/// let nand = CellClass::new("NAND2_X1", 1.5, 2.0)
///     .with_pin("A", PinDir::Input, 0.25, 1.0)
///     .with_pin("B", PinDir::Input, 0.75, 1.0)
///     .with_pin("Y", PinDir::Output, 1.25, 1.0);
/// assert_eq!(nand.pins().len(), 3);
/// assert!(!nand.is_sequential());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CellClass {
    name: String,
    width: f64,
    height: f64,
    pins: Vec<PinSpec>,
    sequential: bool,
}

impl CellClass {
    /// Creates a combinational cell class with the given footprint (microns).
    pub fn new(name: impl Into<String>, width: f64, height: f64) -> Self {
        CellClass {
            name: name.into(),
            width,
            height,
            pins: Vec::new(),
            sequential: false,
        }
    }

    /// Marks the class as sequential (a register); its clock pin should be
    /// added with [`CellClass::with_clock_pin`].
    pub fn sequential(mut self) -> Self {
        self.sequential = true;
        self
    }

    /// Adds a signal pin template (builder style).
    pub fn with_pin(mut self, name: impl Into<String>, dir: PinDir, dx: f64, dy: f64) -> Self {
        self.pins.push(PinSpec {
            name: name.into(),
            dir,
            kind: PinKind::Signal,
            offset: Point::new(dx, dy),
        });
        self
    }

    /// Adds a clock input pin template (builder style).
    pub fn with_clock_pin(mut self, name: impl Into<String>, dx: f64, dy: f64) -> Self {
        self.pins.push(PinSpec {
            name: name.into(),
            dir: PinDir::Input,
            kind: PinKind::Clock,
            offset: Point::new(dx, dy),
        });
        self
    }

    /// Heap bytes behind this template (its name, pin table and pin names).
    pub(crate) fn heap_bytes(&self) -> usize {
        let pin_names: usize = self.pins.iter().map(|p| p.name.capacity()).sum();
        self.name.capacity() + self.pins.capacity() * std::mem::size_of::<PinSpec>() + pin_names
    }

    /// Class name (the binding key into the liberty library).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Cell width in microns.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Cell height in microns.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Cell area in square microns.
    pub fn area(&self) -> f64 {
        self.width * self.height
    }

    /// Pin templates in declaration order.
    pub fn pins(&self) -> &[PinSpec] {
        &self.pins
    }

    /// Whether the class is a register.
    pub fn is_sequential(&self) -> bool {
        self.sequential
    }

    /// Finds a pin template by name.
    pub fn find_pin(&self, name: &str) -> Option<ClassPinId> {
        self.pins
            .iter()
            .position(|p| p.name == name)
            .map(ClassPinId::new)
    }

    /// Returns the pin template for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this class.
    pub fn pin(&self, id: ClassPinId) -> &PinSpec {
        &self.pins[id.index()]
    }

    /// Iterates over `(ClassPinId, &PinSpec)` pairs.
    pub fn pin_ids(&self) -> impl Iterator<Item = (ClassPinId, &PinSpec)> {
        self.pins
            .iter()
            .enumerate()
            .map(|(i, p)| (ClassPinId::new(i), p))
    }

    /// Output pin ids of the class.
    pub fn output_pins(&self) -> impl Iterator<Item = ClassPinId> + '_ {
        self.pin_ids()
            .filter(|(_, p)| p.dir.is_output())
            .map(|(id, _)| id)
    }

    /// Signal input pin ids of the class (clock pins excluded).
    pub fn signal_input_pins(&self) -> impl Iterator<Item = ClassPinId> + '_ {
        self.pin_ids()
            .filter(|(_, p)| !p.dir.is_output() && p.kind == PinKind::Signal)
            .map(|(id, _)| id)
    }

    /// The clock pin id, if the class has one.
    #[cfg(test)]
    pub(crate) fn clock_pin(&self) -> Option<ClassPinId> {
        self.pin_ids()
            .find(|(_, p)| p.kind == PinKind::Clock)
            .map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dff() -> CellClass {
        CellClass::new("DFF_X1", 3.0, 2.0)
            .sequential()
            .with_pin("D", PinDir::Input, 0.25, 1.0)
            .with_pin("Q", PinDir::Output, 2.75, 1.0)
            .with_clock_pin("CK", 1.5, 0.0)
    }

    #[test]
    fn pin_lookup() {
        let c = dff();
        assert!(c.is_sequential());
        let d = c.find_pin("D").unwrap();
        assert_eq!(c.pin(d).dir, PinDir::Input);
        assert_eq!(c.find_pin("Z"), None);
    }

    #[test]
    fn pin_partitions() {
        let c = dff();
        let outs: Vec<_> = c.output_pins().collect();
        assert_eq!(outs.len(), 1);
        assert_eq!(c.pin(outs[0]).name, "Q");
        let ins: Vec<_> = c.signal_input_pins().collect();
        assert_eq!(ins.len(), 1);
        assert_eq!(c.pin(ins[0]).name, "D");
        let ck = c.clock_pin().unwrap();
        assert_eq!(c.pin(ck).kind, PinKind::Clock);
    }

    #[test]
    fn area() {
        assert_eq!(dff().area(), 6.0);
    }

    #[test]
    fn combinational_has_no_clock() {
        let inv = CellClass::new("INV_X1", 1.0, 2.0)
            .with_pin("A", PinDir::Input, 0.25, 1.0)
            .with_pin("Y", PinDir::Output, 0.75, 1.0);
        assert_eq!(inv.clock_pin(), None);
        assert!(!inv.is_sequential());
    }
}
