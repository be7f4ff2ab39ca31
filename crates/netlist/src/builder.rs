//! Validating netlist builder.

use crate::class::{CellClass, ClassId, ClassPinId, PinDir};
use crate::error::NetlistError;
use crate::geom::Point;
use crate::ids::{CellId, NetId, PinId};
use crate::model::{Netlist, PI_CLASS, PO_CLASS, PORT_PIN};

/// Incrementally constructs a [`Netlist`], validating as it goes and once more
/// in [`NetlistBuilder::finish`].
///
/// See the crate-level example for typical usage.
#[derive(Debug, Default)]
pub struct NetlistBuilder {
    nl: Netlist,
    /// Connected pins in the order of the connect calls: the order of each
    /// net's pin row, which `finish` lays out.
    connected: Vec<PinId>,
    pi_class: Option<ClassId>,
    po_class: Option<ClassId>,
}

impl NetlistBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        NetlistBuilder::default()
    }

    /// An empty builder with room for the given entity counts (reader hints).
    pub(crate) fn with_capacity(cells: usize, nets: usize, pins: usize) -> Self {
        NetlistBuilder {
            nl: Netlist::with_capacity(cells, nets, pins),
            connected: Vec::with_capacity(pins),
            ..NetlistBuilder::default()
        }
    }

    /// Registers a cell class and returns its id. Re-registering an identical
    /// name returns the existing id only if the definitions are equal.
    pub fn add_class(&mut self, class: CellClass) -> ClassId {
        match self.nl.find_class(class.name()) {
            Some(id) => id,
            None => self.nl.push_class(class),
        }
    }

    /// Adds a movable cell instance of `class`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the instance name is taken.
    pub fn add_cell(&mut self, name: impl AsRef<str>, class: ClassId) -> Result<CellId, NetlistError> {
        self.add_cell_inner(name.as_ref(), class, false)
    }

    /// Adds a fixed cell instance (macro / pre-placed block) of `class`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the instance name is taken.
    pub fn add_fixed_cell(&mut self, name: impl AsRef<str>, class: ClassId) -> Result<CellId, NetlistError> {
        self.add_cell_inner(name.as_ref(), class, true)
    }

    fn add_cell_inner(&mut self, name: &str, class: ClassId, fixed: bool) -> Result<CellId, NetlistError> {
        let id = self.nl.push_cell(name, class, fixed)?;
        for cp in 0..self.nl.class(class).pins().len() {
            self.nl.push_pin(id, ClassPinId::new(cp));
        }
        self.nl.close_cell_row();
        Ok(id)
    }

    fn add_port(&mut self, name: &str, class_name: &str, dir: PinDir) -> Result<CellId, NetlistError> {
        let slot = if dir.is_output() { &mut self.pi_class } else { &mut self.po_class };
        let class = *slot.get_or_insert_with(|| {
            self.nl.push_class(CellClass::new(class_name, 0.0, 0.0).with_pin(PORT_PIN, dir, 0.0, 0.0))
        });
        self.add_cell_inner(name, class, true)
    }

    /// Adds a primary-input port: a fixed zero-area pseudo-cell whose single
    /// pin *drives* its net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the port name is taken.
    pub fn add_input_port(&mut self, name: impl AsRef<str>) -> Result<CellId, NetlistError> {
        self.add_port(name.as_ref(), PI_CLASS, PinDir::Output)
    }

    /// Adds a primary-output port: a fixed zero-area pseudo-cell whose single
    /// pin is a net *sink*.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the port name is taken.
    pub fn add_output_port(&mut self, name: impl AsRef<str>) -> Result<CellId, NetlistError> {
        self.add_port(name.as_ref(), PO_CLASS, PinDir::Input)
    }

    /// Creates a new net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the net name is taken.
    pub fn add_net(&mut self, name: impl AsRef<str>) -> Result<NetId, NetlistError> {
        match self.nl.intern_net(name.as_ref()) {
            (id, true) => Ok(id),
            (_, false) => Err(NetlistError::DuplicateName(name.as_ref().to_owned())),
        }
    }

    /// The net of that name, created if there is none yet.
    pub(crate) fn net(&mut self, name: &str) -> NetId {
        self.nl.intern_net(name).0
    }

    /// Connects pin `cell.pin_name` to `net`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownPin`] if the class has no such pin, or
    /// [`NetlistError::PinAlreadyConnected`] if the pin is already on a net.
    pub fn connect_by_name(&mut self, net: NetId, cell: CellId, pin_name: &str) -> Result<PinId, NetlistError> {
        let pin = self.nl.find_pin(cell, pin_name).ok_or_else(|| NetlistError::UnknownPin {
            class: self.nl.class_of(cell).name().to_owned(),
            pin: pin_name.to_owned(),
        })?;
        self.connect(net, pin)?;
        Ok(pin)
    }

    /// Connects a port pseudo-cell's single pin to `net`.
    ///
    /// # Errors
    ///
    /// Same as [`NetlistBuilder::connect_by_name`].
    pub fn connect_port(&mut self, net: NetId, port: CellId) -> Result<PinId, NetlistError> {
        self.connect_by_name(net, port, PORT_PIN)
    }

    /// Connects an existing pin instance to `net`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::PinAlreadyConnected`] if the pin is already on
    /// a net.
    pub fn connect(&mut self, net: NetId, pin: PinId) -> Result<(), NetlistError> {
        if !self.nl.set_pin_net(pin, net) {
            return Err(NetlistError::PinAlreadyConnected(self.nl.pin_name(pin)));
        }
        self.connected.push(pin);
        Ok(())
    }

    /// Sets the initial position of a cell.
    pub fn place(&mut self, cell: CellId, x: f64, y: f64) {
        self.nl.set_cell_pos(cell, Point::new(x, y));
    }

    /// Read-only view of the netlist under construction (for generators that
    /// need to inspect what they have built so far). Cells, pins and each
    /// pin's net are current; every net's pin list is empty until
    /// [`NetlistBuilder::finish`] lays the rows out.
    pub fn as_netlist(&self) -> &Netlist {
        &self.nl
    }

    /// Validates and finalizes the netlist.
    ///
    /// Lays out each net's pin list in connection order with the driver moved
    /// to the front, and marks clock nets (nets with at least one clock sink
    /// pin).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DriverCount`] if any net does not have exactly
    /// one driver. Unconnected pins are allowed (dangling inputs are treated
    /// as constant by timing analysis).
    pub fn finish(mut self) -> Result<Netlist, NetlistError> {
        self.nl.index_net_pins(&self.connected)?;
        Ok(self.nl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::PinKind;

    fn inv_class(b: &mut NetlistBuilder) -> ClassId {
        b.add_class(
            CellClass::new("INV_X1", 1.0, 2.0)
                .with_pin("A", PinDir::Input, 0.25, 1.0)
                .with_pin("Y", PinDir::Output, 0.75, 1.0),
        )
    }

    #[test]
    fn build_inverter_chain() {
        let mut b = NetlistBuilder::new();
        let inv = inv_class(&mut b);
        let pi = b.add_input_port("in").unwrap();
        let po = b.add_output_port("out").unwrap();
        let u1 = b.add_cell("u1", inv).unwrap();
        let u2 = b.add_cell("u2", inv).unwrap();
        let n0 = b.add_net("n0").unwrap();
        let n1 = b.add_net("n1").unwrap();
        let n2 = b.add_net("n2").unwrap();
        b.connect_port(n0, pi).unwrap();
        b.connect_by_name(n0, u1, "A").unwrap();
        b.connect_by_name(n1, u1, "Y").unwrap();
        b.connect_by_name(n1, u2, "A").unwrap();
        b.connect_by_name(n2, u2, "Y").unwrap();
        b.connect_port(n2, po).unwrap();
        let nl = b.finish().unwrap();
        assert_eq!(nl.num_cells(), 4);
        assert_eq!(nl.num_nets(), 3);
        nl.validate().unwrap();
        // The driver is first on every net.
        assert_eq!(nl.net_driver(n1), nl.find_pin(u1, "Y"));
        assert_eq!(nl.net_sinks(n1), &[nl.find_pin(u2, "A").unwrap()]);
        assert!(nl.cell_is_input_port(pi));
        assert!(nl.cell_is_output_port(po));
        assert!(!nl.cell_is_port(u1));
    }

    #[test]
    fn duplicate_cell_name_rejected() {
        let mut b = NetlistBuilder::new();
        let inv = inv_class(&mut b);
        b.add_cell("u1", inv).unwrap();
        assert!(matches!(
            b.add_cell("u1", inv),
            Err(NetlistError::DuplicateName(_))
        ));
    }

    #[test]
    fn duplicate_net_name_rejected() {
        let mut b = NetlistBuilder::new();
        b.add_net("n").unwrap();
        assert!(matches!(b.add_net("n"), Err(NetlistError::DuplicateName(_))));
    }

    #[test]
    fn unknown_pin_rejected() {
        let mut b = NetlistBuilder::new();
        let inv = inv_class(&mut b);
        let u1 = b.add_cell("u1", inv).unwrap();
        let n = b.add_net("n").unwrap();
        assert!(matches!(
            b.connect_by_name(n, u1, "Z"),
            Err(NetlistError::UnknownPin { .. })
        ));
    }

    #[test]
    fn double_connection_rejected() {
        let mut b = NetlistBuilder::new();
        let inv = inv_class(&mut b);
        let u1 = b.add_cell("u1", inv).unwrap();
        let n1 = b.add_net("n1").unwrap();
        let n2 = b.add_net("n2").unwrap();
        b.connect_by_name(n1, u1, "A").unwrap();
        assert!(matches!(
            b.connect_by_name(n2, u1, "A"),
            Err(NetlistError::PinAlreadyConnected(_))
        ));
    }

    #[test]
    fn multi_driver_net_rejected() {
        let mut b = NetlistBuilder::new();
        let inv = inv_class(&mut b);
        let u1 = b.add_cell("u1", inv).unwrap();
        let u2 = b.add_cell("u2", inv).unwrap();
        let n = b.add_net("n").unwrap();
        b.connect_by_name(n, u1, "Y").unwrap();
        b.connect_by_name(n, u2, "Y").unwrap();
        assert!(matches!(
            b.finish(),
            Err(NetlistError::DriverCount { found: 2, .. })
        ));
    }

    #[test]
    fn undriven_net_rejected() {
        let mut b = NetlistBuilder::new();
        let inv = inv_class(&mut b);
        let u1 = b.add_cell("u1", inv).unwrap();
        let n = b.add_net("n").unwrap();
        b.connect_by_name(n, u1, "A").unwrap();
        assert!(matches!(
            b.finish(),
            Err(NetlistError::DriverCount { found: 0, .. })
        ));
    }

    #[test]
    fn clock_nets_marked() {
        let mut b = NetlistBuilder::new();
        let dff = b.add_class(
            CellClass::new("DFF_X1", 3.0, 2.0)
                .sequential()
                .with_pin("D", PinDir::Input, 0.25, 1.0)
                .with_pin("Q", PinDir::Output, 2.75, 1.0)
                .with_clock_pin("CK", 1.5, 0.0),
        );
        let clk = b.add_input_port("clk").unwrap();
        let din = b.add_input_port("din").unwrap();
        let ff = b.add_cell("ff1", dff).unwrap();
        let nck = b.add_net("nck").unwrap();
        let nd = b.add_net("nd").unwrap();
        b.connect_port(nck, clk).unwrap();
        b.connect_by_name(nck, ff, "CK").unwrap();
        b.connect_port(nd, din).unwrap();
        b.connect_by_name(nd, ff, "D").unwrap();
        let nl = b.finish().unwrap();
        assert!(nl.net(nck).is_clock());
        assert!(!nl.net(nd).is_clock());
        let ck_pin = nl.find_pin(ff, "CK").unwrap();
        assert_eq!(nl.pin_spec(ck_pin).kind, PinKind::Clock);
    }

    #[test]
    fn pin_positions_follow_cells() {
        let mut b = NetlistBuilder::new();
        let inv = inv_class(&mut b);
        let u1 = b.add_cell("u1", inv).unwrap();
        b.place(u1, 10.0, 20.0);
        let mut nl = {
            // A single unconnected cell: finish() succeeds (no nets).
            b.finish().unwrap()
        };
        let a = nl.find_pin(u1, "A").unwrap();
        assert_eq!(nl.pin_position(a), Point::new(10.25, 21.0));
        nl.set_cell_pos(u1, Point::new(0.0, 0.0));
        assert_eq!(nl.pin_position(a), Point::new(0.25, 1.0));
    }
}
