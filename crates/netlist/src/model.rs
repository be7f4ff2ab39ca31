//! The immutable-topology netlist model, stored flat.
//!
//! Topology (classes, cells, pins, nets) is fixed after
//! [`crate::NetlistBuilder::finish`]; only cell *positions* are mutable, which
//! is exactly the degree of freedom global placement optimizes.
//!
//! Storage is struct-of-arrays: one `Vec` per attribute indexed by id, CSR
//! offset arrays for cell→pins and net→pins, one text arena per name kind and
//! one open-addressed id table per name kind (no second copy of any name).
//! [`Netlist::cell`], [`Netlist::net`] and [`Netlist::pin`] hand out small
//! `Copy` views over those arrays. See DESIGN.md, "netlist storage".

use crate::class::{CellClass, ClassId, ClassPinId, PinDir, PinKind, PinSpec};
use crate::error::NetlistError;
use crate::geom::Point;
use crate::ids::{CellId, NetId, PinId};
use std::fmt;
use std::sync::Arc;

/// Name of the implicit class used for primary-input ports.
pub(crate) const PI_CLASS: &str = "__PI__";
/// Name of the implicit class used for primary-output ports.
pub(crate) const PO_CLASS: &str = "__PO__";
/// Name of the single pin on port classes.
pub(crate) const PORT_PIN: &str = "P";
/// `pin_net` value of an unconnected pin.
const NO_NET: u32 = u32::MAX;

fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("netlist arena exceeds u32 offsets")
}

/// Rows of a CSR array addressed by their end offsets (row `i` starts where
/// row `i - 1` ends), so an empty table needs no sentinel.
fn row(ends: &[u32], i: usize) -> std::ops::Range<usize> {
    let lo = if i == 0 { 0 } else { ends[i - 1] as usize };
    lo..ends[i] as usize
}

/// Counting sort of `pins` into `rows` CSR rows by `key`, input order kept
/// within a row: returns the row ends and the grouped pins.
fn group_pins(rows: usize, pins: impl Iterator<Item = PinId> + Clone, key: impl Fn(PinId) -> usize) -> (Vec<u32>, Vec<PinId>) {
    let mut ends = vec![0u32; rows];
    for p in pins.clone() {
        ends[key(p)] += 1;
    }
    let mut sum = 0;
    for e in &mut ends {
        sum += *e;
        *e = sum;
    }
    let mut next: Vec<u32> = (0..rows).map(|r| row(&ends, r).start as u32).collect();
    let mut grouped = vec![PinId(0); sum as usize];
    for p in pins {
        let slot = &mut next[key(p)];
        grouped[*slot as usize] = p;
        *slot += 1;
    }
    (ends, grouped)
}

/// Names of one entity kind, back to back in one text arena.
#[derive(Clone, Debug, Default)]
struct Names {
    text: String,
    end: Vec<u32>,
}

impl Names {
    fn get(&self, i: u32) -> &str {
        &self.text[row(&self.end, i as usize)]
    }

    fn push(&mut self, name: &str) {
        self.text.push_str(name);
        self.end.push(to_u32(self.text.len()));
    }
}

/// FxHash-style multiply-rotate hash over 8-byte words of `bytes`.
fn fx_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = bytes.len() as u64;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(K);
    }
    h
}

/// Open-addressed (linear probing) table of dense ids keyed by the name each
/// id already has elsewhere; a slot holds `id + 1`, 0 is empty.
#[derive(Clone, Debug, Default)]
struct NameIndex {
    slots: Vec<u32>,
}

impl NameIndex {
    fn with_capacity(ids: usize) -> Self {
        let mut index = NameIndex::default();
        if ids > 0 {
            index.slots.resize((ids * 4 / 3 + 1).next_power_of_two().max(16), 0);
        }
        index
    }

    /// Home slot of `key`. The multiply only carries entropy upwards, so the
    /// *top* bits index the table (the low bits of `net12345`/`net12346` agree).
    fn home(&self, key: &str) -> usize {
        (fx_hash(key.as_bytes()) >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The id named `key`, or else the empty slot where its probe ended.
    fn probe<'n>(&self, key: &str, name_of: impl Fn(u32) -> &'n str) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                0 => return Err(i),
                s if name_of(s - 1) == key => return Ok(s - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn find<'n>(&self, key: &str, name_of: impl Fn(u32) -> &'n str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(key, name_of).ok()
    }

    /// The id named `key` if there is one; otherwise registers `next`, the
    /// id `key` is about to get, and returns `None`. `name_of` covers the ids
    /// below `next`; the table grows (rehashing through it) above 3/4 load.
    fn intern<'n>(&mut self, key: &str, next: u32, name_of: impl Fn(u32) -> &'n str) -> Option<u32> {
        if (next as usize + 1) * 4 > self.slots.len() * 3 {
            self.slots.clear();
            self.slots.resize(((next as usize + 1) * 2).next_power_of_two().max(16), 0);
            for id in 0..next {
                // Of two ids with one name the first stays the findable one.
                if let Err(slot) = self.probe(name_of(id), &name_of) {
                    self.slots[slot] = id + 1;
                }
            }
        }
        match self.probe(key, name_of) {
            Ok(id) => Some(id),
            Err(slot) => {
                self.slots[slot] = next + 1;
                None
            }
        }
    }
}

/// A cell instance: a `Copy` view into the netlist's arrays.
#[derive(Clone, Copy)]
pub struct Cell<'a> {
    nl: &'a Netlist,
    id: CellId,
}

impl<'a> Cell<'a> {
    /// Instance name.
    pub fn name(&self) -> &'a str {
        self.nl.cell_names.get(self.id.0)
    }

    /// Class of this instance.
    pub fn class(&self) -> ClassId {
        self.nl.cell_class[self.id.index()]
    }

    /// Lower-left position in microns.
    pub fn pos(&self) -> Point {
        Point::new(self.nl.xs[self.id.index()], self.nl.ys[self.id.index()])
    }

    /// Whether the cell is fixed (macros, I/O pads).
    pub fn is_fixed(&self) -> bool {
        self.nl.cell_fixed[self.id.index()]
    }

    /// Pin instances of this cell, parallel to the class pin templates.
    pub fn pins(&self) -> &'a [PinId] {
        &self.nl.cell_pins[row(&self.nl.cell_pin_end, self.id.index())]
    }
}

impl fmt::Debug for Cell<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cell({} `{}`)", self.id, self.name())
    }
}

/// A pin instance (a value copied out of the pin arrays).
#[derive(Clone, Copy, Debug)]
pub struct Pin {
    cell: CellId,
    class_pin: ClassPinId,
    net: Option<NetId>,
}

impl Pin {
    /// Owning cell.
    pub fn cell(&self) -> CellId {
        self.cell
    }

    /// Pin template within the owning cell's class.
    pub fn class_pin(&self) -> ClassPinId {
        self.class_pin
    }

    /// Net this pin is connected to, if any.
    pub fn net(&self) -> Option<NetId> {
        self.net
    }
}

/// A net — one driver pin plus sink pins: a `Copy` view into the netlist.
#[derive(Clone, Copy)]
pub struct Net<'a> {
    nl: &'a Netlist,
    id: NetId,
}

impl<'a> Net<'a> {
    /// Net name.
    pub fn name(&self) -> &'a str {
        self.nl.net_names.get(self.id.0)
    }

    /// All pins on the net; index 0 is the driver.
    pub fn pins(&self) -> &'a [PinId] {
        &self.nl.net_pins[row(&self.nl.net_pin_end, self.id.index())]
    }

    /// Number of pins (degree) of the net.
    pub fn degree(&self) -> usize {
        row(&self.nl.net_pin_end, self.id.index()).len()
    }

    /// Whether this net is part of the (ideal) clock network.
    pub fn is_clock(&self) -> bool {
        self.nl.net_is_clock[self.id.index()]
    }
}

impl fmt::Debug for Net<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Net({} `{}`)", self.id, self.name())
    }
}

/// A validated netlist.
///
/// Construct with [`crate::NetlistBuilder`]. See the crate-level example.
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    /// Shared, so cloning a netlist does not clone the class templates.
    classes: Arc<Vec<CellClass>>,
    class_index: NameIndex,
    cell_names: Names,
    cell_index: NameIndex,
    cell_class: Vec<ClassId>,
    cell_fixed: Vec<bool>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// CSR cell → pins (ascending pin ids): row ends and items.
    cell_pin_end: Vec<u32>,
    cell_pins: Vec<PinId>,
    pin_cell: Vec<CellId>,
    pin_class_pin: Vec<ClassPinId>,
    pin_net: Vec<u32>,
    net_names: Names,
    net_index: NameIndex,
    net_is_clock: Vec<bool>,
    /// CSR net → pins (driver first): row ends and items.
    net_pin_end: Vec<u32>,
    net_pins: Vec<PinId>,
}

impl Netlist {
    // ---- counts -----------------------------------------------------------

    /// Number of cell instances (including fixed cells and I/O ports).
    pub fn num_cells(&self) -> usize {
        self.cell_class.len()
    }

    /// Number of pin instances.
    pub fn num_pins(&self) -> usize {
        self.pin_cell.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.net_is_clock.len()
    }

    /// Number of cell classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Heap bytes held by the netlist, summed from its arrays' capacities
    /// (class templates included).
    pub fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let names = |n: &Names| n.text.capacity() + bytes(&n.end);
        let classes: usize = bytes(&*self.classes)
            + self.classes.iter().map(CellClass::heap_bytes).sum::<usize>();
        classes
            + names(&self.cell_names)
            + names(&self.net_names)
            + bytes(&self.class_index.slots)
            + bytes(&self.cell_index.slots)
            + bytes(&self.net_index.slots)
            + bytes(&self.cell_class)
            + bytes(&self.cell_fixed)
            + bytes(&self.xs)
            + bytes(&self.ys)
            + bytes(&self.cell_pin_end)
            + bytes(&self.cell_pins)
            + bytes(&self.pin_cell)
            + bytes(&self.pin_class_pin)
            + bytes(&self.pin_net)
            + bytes(&self.net_is_clock)
            + bytes(&self.net_pin_end)
            + bytes(&self.net_pins)
    }

    // ---- entity access ----------------------------------------------------

    /// Returns the cell with the given id.
    ///
    /// # Panics
    ///
    /// Panics (on first use of the view) if `id` is out of range.
    pub fn cell(&self, id: CellId) -> Cell<'_> {
        Cell { nl: self, id }
    }

    /// Returns the pin with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn pin(&self, id: PinId) -> Pin {
        let net = self.pin_net[id.index()];
        Pin {
            cell: self.pin_cell[id.index()],
            class_pin: self.pin_class_pin[id.index()],
            net: (net != NO_NET).then_some(NetId(net)),
        }
    }

    /// Returns the net with the given id.
    ///
    /// # Panics
    ///
    /// Panics (on first use of the view) if `id` is out of range.
    pub fn net(&self, id: NetId) -> Net<'_> {
        Net { nl: self, id }
    }

    /// Returns the class with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn class(&self, id: ClassId) -> &CellClass {
        &self.classes[id.index()]
    }

    /// Class of the given cell.
    pub fn class_of(&self, cell: CellId) -> &CellClass {
        self.class(self.cell_class[cell.index()])
    }

    /// Pin template (name, direction, offset) of the given pin instance.
    #[inline]
    pub fn pin_spec(&self, pin: PinId) -> &PinSpec {
        self.class_of(self.pin_cell[pin.index()])
            .pin(self.pin_class_pin[pin.index()])
    }

    // ---- iteration --------------------------------------------------------

    /// Iterates over all cell ids.
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.num_cells()).map(CellId::new)
    }

    /// Iterates over all pin ids.
    pub fn pin_ids(&self) -> impl Iterator<Item = PinId> + '_ {
        (0..self.num_pins()).map(PinId::new)
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.num_nets()).map(NetId::new)
    }

    /// Iterates over movable (non-fixed) cell ids.
    pub fn movable_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.cell_ids().filter(move |&c| !self.cell_fixed[c.index()])
    }

    // ---- lookup by name ---------------------------------------------------

    /// Finds a cell by instance name.
    pub fn find_cell(&self, name: &str) -> Option<CellId> {
        self.cell_index.find(name, |i| self.cell_names.get(i)).map(CellId)
    }

    /// Finds a net by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_index.find(name, |i| self.net_names.get(i)).map(NetId)
    }

    /// Finds a class by name.
    pub fn find_class(&self, name: &str) -> Option<ClassId> {
        self.class_index
            .find(name, |i| self.classes[i as usize].name())
            .map(ClassId)
    }

    /// Finds the pin instance `cell.pin_name`.
    pub fn find_pin(&self, cell: CellId, pin_name: &str) -> Option<PinId> {
        let cp = self.class_of(cell).find_pin(pin_name)?;
        Some(self.cell(cell).pins()[cp.index()])
    }

    /// Full hierarchical name of a pin, `cell/PIN`.
    pub fn pin_name(&self, pin: PinId) -> String {
        let cell = self.cell(self.pin_cell[pin.index()]);
        format!("{}/{}", cell.name(), self.pin_spec(pin).name)
    }

    // ---- geometry ---------------------------------------------------------

    /// Absolute position of a pin (cell position + template offset).
    #[inline]
    pub fn pin_position(&self, pin: PinId) -> Point {
        let c = self.pin_cell[pin.index()].index();
        Point::new(self.xs[c], self.ys[c]) + self.pin_spec(pin).offset
    }

    /// Moves a cell to a new lower-left position.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn set_cell_pos(&mut self, cell: CellId, pos: Point) {
        self.xs[cell.index()] = pos.x;
        self.ys[cell.index()] = pos.y;
    }

    /// Copies all cell positions out as `(x, y)` vectors indexed by cell.
    pub fn positions(&self) -> (Vec<f64>, Vec<f64>) {
        (self.xs.clone(), self.ys.clone())
    }

    /// Writes cell positions back from `(x, y)` vectors indexed by cell.
    ///
    /// Fixed cells are *not* skipped — callers own that policy.
    ///
    /// # Panics
    ///
    /// Panics if the vectors are shorter than the cell count.
    pub fn set_positions(&mut self, xs: &[f64], ys: &[f64]) {
        let n = self.num_cells();
        self.xs.copy_from_slice(&xs[..n]);
        self.ys.copy_from_slice(&ys[..n]);
    }

    /// Total area of movable cells, in square microns.
    pub fn movable_area(&self) -> f64 {
        self.movable_cells().map(|c| self.class_of(c).area()).sum()
    }

    // ---- connectivity -----------------------------------------------------

    /// The driver pin of a net (an output pin), if the net is driven.
    pub fn net_driver(&self, net: NetId) -> Option<PinId> {
        let first = *self.net(net).pins().first()?;
        self.pin_spec(first).dir.is_output().then_some(first)
    }

    /// The sink pins of a net (all pins except the driver).
    pub fn net_sinks(&self, net: NetId) -> &[PinId] {
        self.net(net).pins().get(1..).unwrap_or(&[])
    }

    /// Whether a pin belongs to an I/O port pseudo-cell.
    pub fn pin_is_port(&self, pin: PinId) -> bool {
        self.cell_is_port(self.pin_cell[pin.index()])
    }

    /// Whether a cell is an I/O port pseudo-cell.
    pub fn cell_is_port(&self, cell: CellId) -> bool {
        let name = self.class_of(cell).name();
        name == PI_CLASS || name == PO_CLASS
    }

    /// Whether a cell is a primary-input port.
    pub fn cell_is_input_port(&self, cell: CellId) -> bool {
        self.class_of(cell).name() == PI_CLASS
    }

    /// Whether a cell is a primary-output port.
    pub fn cell_is_output_port(&self, cell: CellId) -> bool {
        self.class_of(cell).name() == PO_CLASS
    }

    fn driver_count(&self, net: NetId) -> usize {
        let is_driver = |p: &&PinId| self.pin_spec(**p).dir.is_output();
        self.net(net).pins().iter().filter(is_driver).count()
    }

    /// Validates structural invariants; used by the builder and by tests.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DriverCount`] if any net does not have exactly
    /// one output pin.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for n in self.net_ids() {
            let found = self.driver_count(n);
            if found != 1 {
                return Err(NetlistError::DriverCount { net: self.net(n).name().to_owned(), found });
            }
        }
        Ok(())
    }

    // ---- construction (crate-internal) --------------------------------------

    /// An empty netlist with room for the given entity counts.
    pub(crate) fn with_capacity(cells: usize, nets: usize, pins: usize) -> Self {
        let names = |n: usize| Names {
            text: String::with_capacity(8 * n),
            end: Vec::with_capacity(n),
        };
        Netlist {
            cell_names: names(cells),
            cell_index: NameIndex::with_capacity(cells),
            cell_class: Vec::with_capacity(cells),
            cell_fixed: Vec::with_capacity(cells),
            xs: Vec::with_capacity(cells),
            ys: Vec::with_capacity(cells),
            cell_pin_end: Vec::with_capacity(cells),
            cell_pins: Vec::with_capacity(pins),
            pin_cell: Vec::with_capacity(pins),
            pin_class_pin: Vec::with_capacity(pins),
            pin_net: Vec::with_capacity(pins),
            net_names: names(nets),
            net_index: NameIndex::with_capacity(nets),
            net_is_clock: Vec::with_capacity(nets),
            net_pin_end: Vec::with_capacity(nets),
            ..Netlist::default()
        }
    }

    /// Appends a class. Names are the builder's to keep distinct.
    pub(crate) fn push_class(&mut self, class: CellClass) -> ClassId {
        let id = to_u32(self.classes.len());
        let classes = &self.classes;
        self.class_index.intern(class.name(), id, |i| classes[i as usize].name());
        Arc::make_mut(&mut self.classes).push(class);
        ClassId(id)
    }

    /// Appends a cell at the origin, without pins.
    pub(crate) fn push_cell(&mut self, name: &str, class: ClassId, fixed: bool) -> Result<CellId, NetlistError> {
        let id = to_u32(self.num_cells());
        let names = &self.cell_names;
        if self.cell_index.intern(name, id, |i| names.get(i)).is_some() {
            return Err(NetlistError::DuplicateName(name.to_owned()));
        }
        self.cell_names.push(name);
        self.cell_class.push(class);
        self.cell_fixed.push(fixed);
        self.xs.push(0.0);
        self.ys.push(0.0);
        Ok(CellId(id))
    }

    /// Appends an unconnected pin instance; the cell → pins rows are the caller's to keep
    /// ([`Netlist::close_cell_row`]).
    pub(crate) fn push_pin(&mut self, cell: CellId, class_pin: ClassPinId) -> PinId {
        let id = PinId(to_u32(self.num_pins()));
        self.pin_cell.push(cell);
        self.pin_class_pin.push(class_pin);
        self.pin_net.push(NO_NET);
        id
    }

    /// Ends the newest cell's pin row at the newest pin (the builder adds a
    /// cell's pins right after the cell, so rows are contiguous id ranges).
    pub(crate) fn close_cell_row(&mut self) {
        let lo = self.cell_pins.len();
        self.cell_pins.extend((lo..self.num_pins()).map(|p| PinId(p as u32)));
        self.cell_pin_end.push(to_u32(self.num_pins()));
    }

    /// The net named `name`, appended (without pins) if there is none yet;
    /// the flag says whether it is new.
    pub(crate) fn intern_net(&mut self, name: &str) -> (NetId, bool) {
        let id = to_u32(self.num_nets());
        let names = &self.net_names;
        if let Some(existing) = self.net_index.intern(name, id, |i| names.get(i)) {
            return (NetId(existing), false);
        }
        self.net_names.push(name);
        self.net_is_clock.push(false);
        self.net_pin_end.push(to_u32(self.net_pins.len()));
        (NetId(id), true)
    }

    /// Points an unconnected pin at `net`; `false` if it already has a net.
    pub(crate) fn set_pin_net(&mut self, pin: PinId, net: NetId) -> bool {
        let slot = &mut self.pin_net[pin.index()];
        let free = *slot == NO_NET;
        if free {
            *slot = net.0;
        }
        free
    }

    /// Marks a cell fixed (DEF `+ FIXED`).
    pub(crate) fn fix_cell(&mut self, cell: CellId) {
        self.cell_fixed[cell.index()] = true;
    }

    /// Builds the net → pins rows from `pin_net`, keeping within each net the
    /// order of `connected` (the order of the connect calls) with the driver
    /// swapped to the front, checks the single-driver rule, marks clock nets
    /// and drops growth slack.
    pub(crate) fn index_net_pins(&mut self, connected: &[PinId]) -> Result<(), NetlistError> {
        let net_of = |p: PinId| self.pin_net[p.index()] as usize;
        (self.net_pin_end, self.net_pins) = group_pins(self.num_nets(), connected.iter().copied(), net_of);
        for n in 0..self.num_nets() {
            let pins = row(&self.net_pin_end, n);
            let (mut driver, mut found, mut is_clock) = (pins.start, 0, false);
            for i in pins.clone() {
                let spec = self.pin_spec(self.net_pins[i]);
                if spec.dir.is_output() {
                    driver = i;
                    found += 1;
                }
                is_clock |= spec.kind == PinKind::Clock && spec.dir == PinDir::Input;
            }
            if found != 1 {
                let net = self.net_names.get(n as u32).to_owned();
                return Err(NetlistError::DriverCount { net, found });
            }
            self.net_pins.swap(pins.start, driver);
            self.net_is_clock[n] = is_clock;
        }
        self.shrink_to_fit();
        Ok(())
    }

    fn shrink_to_fit(&mut self) {
        for names in [&mut self.cell_names, &mut self.net_names] {
            names.text.shrink_to_fit();
            names.end.shrink_to_fit();
        }
        self.cell_class.shrink_to_fit();
        self.cell_fixed.shrink_to_fit();
        self.xs.shrink_to_fit();
        self.ys.shrink_to_fit();
        self.cell_pin_end.shrink_to_fit();
        self.cell_pins.shrink_to_fit();
        self.pin_cell.shrink_to_fit();
        self.pin_class_pin.shrink_to_fit();
        self.pin_net.shrink_to_fit();
        self.net_is_clock.shrink_to_fit();
    }
}
