//! Bookshelf placement format subset (`.nodes`, `.nets`, `.pl`, `.scl`).
//!
//! The ICCAD-2015 contest releases its designs in Bookshelf-derived formats;
//! this module provides a reader/writer for the standard subset so real
//! benchmark data can be dropped into the flow, and so placements can be
//! exported for external evaluation. The writer and reader round-trip
//! ([`write_design`] then [`read_design`]).
//!
//! Conventions of the subset:
//!
//! - `.nodes` lists `name width height [terminal]`; terminals are fixed.
//! - `.nets` lists `NetDegree : d name` headers followed by
//!   `cell I|O : dx dy` pin lines, with pin offsets measured **from the cell
//!   center** (Bookshelf convention; converted to lower-left internally).
//! - `.pl` lists `name x y : N [/FIXED]` with lower-left coordinates.
//! - `.scl` lists horizontal `CoreRow` records.
//!
//! Because Bookshelf has no cell-library concept, every node gets its own
//! private [`CellClass`] named `__bs_<node>`; timing flows that need a library
//! binding should use the synthetic generator or provide a name map.

use crate::builder::NetlistBuilder;
use crate::class::{CellClass, ClassId, PinDir};
use crate::cursor::{fields, finite, Cursor};
use crate::design::{Design, Row};
use crate::error::NetlistError;
use crate::geom::{Point, Rect};
use crate::model::{Netlist, PI_CLASS, PO_CLASS};
use crate::sdc::Sdc;
use crate::stdcells;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// The next field of a record as a finite number.
fn number<'a>(cur: &Cursor<'_>, it: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<f64, NetlistError> {
    let field = it.next().ok_or_else(|| cur.err(format!("missing {what}")))?;
    finite(field).ok_or_else(|| cur.err(format!("bad {what}")))
}

/// The count a `Num… : n` header declares, as a reservation clamped by the
/// bytes that remain (`min_bytes` per record).
fn declared(cur: &Cursor<'_>, line: &str, min_bytes: usize) -> usize {
    cur.clamp_count(fields(line, true).nth(1).and_then(|n| n.parse().ok()).unwrap_or(0), min_bytes)
}

/// A `.nodes` record; the name borrows from the parsed text.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct NodeRecord<'a> {
    /// Node name.
    pub name: &'a str,
    /// Width in microns.
    pub width: f64,
    /// Height in microns.
    pub height: f64,
    /// Whether the node is a fixed terminal.
    pub terminal: bool,
}

/// Parses a `.nodes` file body.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on malformed records and non-finite sizes.
pub(crate) fn parse_nodes(text: &str) -> Result<Vec<NodeRecord<'_>>, NetlistError> {
    let mut cur = Cursor::new("nodes", text);
    let mut out = Vec::new();
    while let Some(line) = cur.record_line() {
        if line.starts_with("NumNodes") {
            out.reserve(declared(&cur, line, 8));
        } else if !line.starts_with("NumTerminals") {
            let mut it = fields(line, false);
            let name = it.next().ok_or_else(|| cur.err("missing name"))?;
            let width = number(&cur, &mut it, "width")?;
            let height = number(&cur, &mut it, "height")?;
            let terminal = it.next().is_some_and(|t| t.starts_with("terminal"));
            out.push(NodeRecord { name, width, height, terminal });
        }
    }
    Ok(out)
}

/// One pin of a `.nets` record: node name, direction, center-relative offset.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct NetPinRecord<'a> {
    /// Node name.
    pub node: &'a str,
    /// Direction (`I` or `O`; `B` is treated as input).
    pub dir: PinDir,
    /// Offset from the node center.
    pub offset: Point,
}

/// The records of a `.nets` file: the net names and one flat pin table cut
/// into per-net rows.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct NetRecords<'a> {
    names: Vec<Cow<'a, str>>,
    pin_end: Vec<u32>,
    pins: Vec<NetPinRecord<'a>>,
}

impl<'a> NetRecords<'a> {
    /// Number of nets.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Total number of pin records.
    pub fn num_pins(&self) -> usize {
        self.pins.len()
    }

    /// `(name, pins)` of every net in file order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[NetPinRecord<'a>])> {
        let starts = std::iter::once(0).chain(self.pin_end.iter().map(|&e| e as usize));
        let rows = starts.zip(&self.pin_end).map(|(lo, &hi)| &self.pins[lo..hi as usize]);
        self.names.iter().map(|n| &**n).zip(rows)
    }
}

/// Parses a `.nets` file body.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on malformed records, degree mismatches,
/// a degree that the rest of the file cannot hold and non-finite offsets.
pub(crate) fn parse_nets(text: &str) -> Result<NetRecords<'_>, NetlistError> {
    let mut cur = Cursor::new("nets", text);
    let mut out = NetRecords::default();
    let mut expect: usize = 0;
    while let Some(line) = cur.record_line() {
        if line.starts_with("NumNets") {
            let nets = declared(&cur, line, 16);
            out.names.reserve(nets);
            out.pin_end.reserve(nets);
        } else if line.starts_with("NumPins") {
            out.pins.reserve(declared(&cur, line, 4));
        } else if let Some(rest) = line.strip_prefix("NetDegree") {
            if expect != 0 {
                return Err(cur.err("previous net is missing pins"));
            }
            let mut it = rest.trim_start_matches([':', ' ', '\t']).split_whitespace();
            let degree = it.next().ok_or_else(|| cur.err("missing degree"))?;
            expect = degree.parse().map_err(|_| cur.err("bad degree"))?;
            // A pin line is at least `a I`: more pins than that cannot follow.
            if cur.clamp_count(expect, 4) < expect {
                return Err(cur.err("degree exceeds the remaining input"));
            }
            let name = it.next().map_or_else(|| format!("net{}", out.len()).into(), Cow::Borrowed);
            out.names.push(name);
            out.pin_end.push(out.pins.len() as u32);
        } else {
            let end = out.pin_end.last_mut().ok_or_else(|| cur.err("pin before any NetDegree"))?;
            // `cell I : dx dy` (offsets optional in some dialects).
            let mut it = fields(line, true);
            let node = it.next().ok_or_else(|| cur.err("missing node"))?;
            let dir = match it.next() {
                Some("O") => PinDir::Output,
                Some("I") | Some("B") => PinDir::Input,
                other => return Err(cur.err(format!("bad direction {other:?}"))),
            };
            let mut offset = || it.next().map_or(Ok(0.0), |f| finite(f).ok_or_else(|| cur.err("bad offset")));
            out.pins.push(NetPinRecord { node, dir, offset: Point::new(offset()?, offset()?) });
            *end = u32::try_from(out.pins.len()).map_err(|_| cur.err("too many pins"))?;
            expect = expect.saturating_sub(1);
        }
    }
    if expect != 0 {
        return Err(cur.err("last net is missing pins"));
    }
    Ok(out)
}

/// A `.pl` record: lower-left position plus fixed flag.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct PlRecord<'a> {
    /// Node name.
    pub name: &'a str,
    /// Lower-left x.
    pub x: f64,
    /// Lower-left y.
    pub y: f64,
    /// Whether the record carries `/FIXED`.
    pub fixed: bool,
}

/// Parses a `.pl` file body.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on malformed records and non-finite
/// coordinates.
pub(crate) fn parse_pl(text: &str) -> Result<Vec<PlRecord<'_>>, NetlistError> {
    let mut cur = Cursor::new("pl", text);
    let mut out = Vec::with_capacity(cur.clamp_count(usize::MAX, 24));
    while let Some(line) = cur.record_line() {
        let mut it = fields(line, true);
        let name = it.next().ok_or_else(|| cur.err("missing name"))?;
        let x = number(&cur, &mut it, "x")?;
        let y = number(&cur, &mut it, "y")?;
        out.push(PlRecord { name, x, y, fixed: line.contains("/FIXED") });
    }
    Ok(out)
}

/// Parses a `.scl` file body into rows.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on malformed row records.
pub(crate) fn parse_scl(text: &str) -> Result<Vec<Row>, NetlistError> {
    let mut cur = Cursor::new("scl", text);
    let mut rows = Vec::new();
    let mut open: Option<(Row, usize)> = None; // the row being read, its NumSites
    while let Some(line) = cur.record_line() {
        if line.starts_with("NumRows") {
            rows.reserve(declared(&cur, line, 32));
        } else if line.starts_with("CoreRow") {
            open = Some((Row { y: 0.0, x_min: 0.0, x_max: 0.0, height: 0.0, site_width: 1.0 }, 0));
        } else if line == "End" {
            let (mut row, sites) = open.take().ok_or_else(|| cur.err("End without CoreRow"))?;
            row.x_max = row.x_min + row.site_width * sites as f64;
            rows.push(row);
        } else if let Some((row, sites)) = open.as_mut() {
            let mut it = fields(line, true);
            match it.next() {
                Some("Coordinate") => row.y = number(&cur, &mut it, "numeric value")?,
                Some("Height") => row.height = number(&cur, &mut it, "numeric value")?,
                Some("Sitewidth") => row.site_width = number(&cur, &mut it, "numeric value")?,
                Some("SubrowOrigin") => {
                    row.x_min = number(&cur, &mut it, "numeric value")?;
                    // Optional `NumSites : n` on the same line.
                    if it.next() == Some("NumSites") {
                        let n = it.next().and_then(|t| t.parse().ok());
                        *sites = n.ok_or_else(|| cur.err("bad NumSites"))?;
                    }
                }
                _ => {} // Siteorient / Sitespacing etc. ignored
            }
        }
    }
    Ok(rows)
}

/// Assembles a [`Netlist`] from parsed Bookshelf records, creating one private
/// class per node (named `__bs_<node>`) whose pins come from the `.nets`
/// records.
///
/// # Errors
///
/// Returns builder errors (duplicate names, multi-driver nets, …).
#[cfg(test)]
pub(crate) fn build_netlist(
    nodes: &[NodeRecord<'_>],
    nets: &NetRecords<'_>,
    pl: &[PlRecord<'_>],
) -> Result<Netlist, NetlistError> {
    build_netlist_with_classes(nodes, nets, pl, &HashMap::new())
}

/// Reads a design from `<prefix>.nodes/.nets/.pl/.scl` (and `<prefix>.sdc`
/// when present).
///
/// # Errors
///
/// Returns I/O errors for missing files and parse/builder errors for
/// malformed content.
pub fn read_design(prefix: &Path) -> Result<Design, NetlistError> {
    let read = |ext: &str| fs::read_to_string(prefix.with_extension(ext));
    let (nodes_text, nets_text, pl_text) = (read("nodes")?, read("nets")?, read("pl")?);
    let nodes = parse_nodes(&nodes_text)?;
    let nets = parse_nets(&nets_text)?;
    let pl = parse_pl(&pl_text)?;
    let rows = parse_scl(&read("scl")?)?;
    // An optional `.classes` sidecar (written by [`write_design`]) maps node
    // names back to standard-cell classes, restoring the library binding
    // that plain Bookshelf cannot express.
    let classes_text = read("classes").unwrap_or_default();
    let netlist = build_netlist_with_classes(&nodes, &nets, &pl, &parse_classes(&classes_text)?)?;
    let sdc = match read("sdc") {
        Ok(text) => Sdc::parse(&text)?,
        Err(_) => Sdc::default(),
    };
    let region = region_of_rows(&rows);
    let name = prefix
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "design".to_owned());
    Ok(Design { name, netlist, region, rows, constraints: sdc })
}

/// Parses a `.classes` sidecar into a `node → class` map.
pub(crate) fn parse_classes(text: &str) -> Result<HashMap<&str, &str>, NetlistError> {
    let mut cur = Cursor::new("classes", text);
    let mut map = HashMap::with_capacity(cur.clamp_count(usize::MAX, 12));
    while let Some(line) = cur.record_line() {
        let mut it = fields(line, false);
        let node = it.next().ok_or_else(|| cur.err("missing node"))?;
        let class = it.next().ok_or_else(|| cur.err("missing class"))?;
        map.insert(node, class);
    }
    Ok(map)
}

/// Like the test-only `build_netlist`, but binds nodes to real classes via a
/// `node → class name` map: standard-cell names resolve through
/// [`stdcells`] (once per class), the port pseudo-class names recreate I/O
/// ports, and unmapped nodes fall back to private Bookshelf classes. Net pins
/// are matched to class pin templates by direction + center offset.
///
/// # Errors
///
/// Returns [`NetlistError`] when a mapped pin cannot be matched to any class
/// pin template, or on builder-level inconsistencies.
pub(crate) fn build_netlist_with_classes(
    nodes: &[NodeRecord<'_>],
    nets: &NetRecords<'_>,
    pl: &[PlRecord<'_>],
    class_of: &HashMap<&str, &str>,
) -> Result<Netlist, NetlistError> {
    /// What a node's class resolves to.
    enum Binding {
        Input,
        Output,
        Std(usize),
        Private,
    }
    let bindings: Vec<Binding> = nodes
        .iter()
        .map(|rec| match class_of.get(rec.name) {
            Some(&PI_CLASS) => Binding::Input,
            Some(&PO_CLASS) => Binding::Output,
            Some(name) => stdcells::CELLS.iter().position(|c| c.name == *name).map_or(Binding::Private, Binding::Std),
            None => Binding::Private,
        })
        .collect();
    // The pins of every node that gets a private class, in file order, so
    // each such class is complete before its cell is instantiated.
    let mut private_pins: HashMap<&str, Vec<(PinDir, Point)>> = HashMap::new();
    for (rec, binding) in nodes.iter().zip(&bindings) {
        if matches!(binding, Binding::Private) {
            private_pins.insert(rec.name, Vec::new());
        }
    }
    if !private_pins.is_empty() {
        for p in &nets.pins {
            if let Some(pins) = private_pins.get_mut(p.node) {
                pins.push((p.dir, p.offset));
            }
        }
    }
    let mut b = NetlistBuilder::with_capacity(nodes.len(), nets.len(), nets.num_pins());
    let mut std_ids: Vec<Option<ClassId>> = vec![None; stdcells::CELLS.len()];
    for (rec, binding) in nodes.iter().zip(&bindings) {
        let class = match *binding {
            Binding::Input => {
                b.add_input_port(rec.name)?;
                continue;
            }
            Binding::Output => {
                b.add_output_port(rec.name)?;
                continue;
            }
            Binding::Std(i) => *std_ids[i].get_or_insert_with(|| b.add_class(stdcells::CELLS[i].to_class())),
            Binding::Private => {
                // Bookshelf offsets are center-relative; the model is
                // lower-left-relative.
                let mut class = CellClass::new(format!("__bs_{}", rec.name), rec.width, rec.height);
                for (k, (dir, off)) in private_pins[rec.name].iter().enumerate() {
                    class = class.with_pin(format!("p{k}"), *dir, off.x + rec.width * 0.5, off.y + rec.height * 0.5);
                }
                b.add_class(class)
            }
        };
        if rec.terminal {
            b.add_fixed_cell(rec.name, class)?;
        } else {
            b.add_cell(rec.name, class)?;
        }
    }
    // Connect: match each net-pin record to an unconnected class pin by
    // direction and lower-left offset.
    for (name, pins) in nets.iter() {
        let net = b.add_net(name)?;
        for p in pins {
            let nl = b.as_netlist();
            let cell = nl.find_cell(p.node).ok_or_else(|| NetlistError::UnknownName(p.node.to_owned()))?;
            let class = nl.class_of(cell);
            let off_ll = Point::new(p.offset.x + class.width() * 0.5, p.offset.y + class.height() * 0.5);
            let found = nl.cell(cell).pins().iter().zip(class.pins()).find(|(&pin, spec)| {
                nl.pin(pin).net().is_none()
                    && spec.dir == p.dir
                    && (spec.offset.x - off_ll.x).abs() < 1e-4
                    && (spec.offset.y - off_ll.y).abs() < 1e-4
            });
            let (&pin, _) = found.ok_or_else(|| NetlistError::UnknownPin {
                class: class.name().to_owned(),
                pin: format!("{} @ ({}, {})", p.dir, off_ll.x, off_ll.y),
            })?;
            b.connect(net, pin)?;
        }
    }
    for rec in pl {
        if let Some(cell) = b.as_netlist().find_cell(rec.name) {
            b.place(cell, rec.x, rec.y);
        }
    }
    b.finish()
}

fn region_of_rows(rows: &[Row]) -> Rect {
    let mut r: Option<Rect> = None;
    for row in rows {
        let rr = Rect::new(row.x_min, row.y, row.x_max, row.y + row.height);
        match &mut r {
            None => r = Some(rr),
            Some(acc) => {
                acc.xl = acc.xl.min(rr.xl);
                acc.yl = acc.yl.min(rr.yl);
                acc.xh = acc.xh.max(rr.xh);
                acc.yh = acc.yh.max(rr.yh);
            }
        }
    }
    r.unwrap_or(Rect::EMPTY)
}

/// Writes `v` as `{:.6}` does — the decimal expansion of the binary value,
/// rounded half-to-even at the sixth place — in integer arithmetic (`fmt`'s
/// exact mode costs ≈ 125 ns a number, and `.pl` prints two per cell).
fn write_fixed6(out: &mut impl Write, v: f64) -> io::Result<()> {
    let bits = v.to_bits();
    let (exp, frac) = ((bits >> 52) as i32 & 0x7ff, bits & ((1 << 52) - 1));
    // |v| = m · 2^e
    let (m, e) = if exp == 0 { (frac, -1074) } else { (frac | 1 << 52, exp - 1075) };
    if exp == 0x7ff || e > 10 {
        return write!(out, "{v:.6}"); // non-finite or ≥ 2^63: not a coordinate
    }
    let scaled = u128::from(m) * 1_000_000; // < 2^73
    let micro = match e {
        0.. => scaled << e,
        -127..=-1 => {
            let (q, rem, half) = (scaled >> -e, scaled & ((1 << -e) - 1), 1u128 << (-e - 1));
            q + u128::from(rem > half || (rem == half && q & 1 == 1))
        }
        _ => 0, // below 2^73 / 2^128: rounds to zero
    };
    let (mut int, mut frac6) = ((micro / 1_000_000) as u64, (micro % 1_000_000) as u32);
    let mut buf = [0u8; 27]; // sign, ≤ 19 integer digits, point, 6 digits
    let mut at = buf.len();
    for _ in 0..6 {
        at -= 1;
        buf[at] = b'0' + (frac6 % 10) as u8;
        frac6 /= 10;
    }
    at -= 1;
    buf[at] = b'.';
    loop {
        at -= 1;
        buf[at] = b'0' + (int % 10) as u8;
        int /= 10;
        if int == 0 {
            break;
        }
    }
    if bits >> 63 == 1 {
        at -= 1;
        buf[at] = b'-';
    }
    out.write_all(&buf[at..])
}

/// Creates `<base>.<ext>` behind a write buffer; the caller flushes.
pub(crate) fn create(base: &Path, ext: &str) -> io::Result<BufWriter<File>> {
    Ok(BufWriter::with_capacity(1 << 16, File::create(base.with_extension(ext))?))
}

/// Writes `<dir>/<design.name>.{nodes,nets,pl,scl,classes}`, each streamed
/// through one write buffer.
///
/// # Errors
///
/// Returns I/O errors from file creation and writing.
pub fn write_design(design: &Design, dir: &Path) -> Result<(), NetlistError> {
    fs::create_dir_all(dir)?;
    let nl = &design.netlist;
    let base = dir.join(&design.name);
    // Everything a line repeats per class or per class pin is formatted once:
    // the `.nets` file alone prints two `{:.6}` offsets per pin drawn from a
    // few dozen distinct values.
    let mut dims = Vec::with_capacity(nl.num_classes());
    let mut first_pin = Vec::with_capacity(nl.num_classes());
    let mut pin_text = Vec::new();
    for class in (0..nl.num_classes()).map(|i| nl.class(ClassId::new(i))) {
        dims.push(format!(" {} {}", class.width(), class.height()));
        first_pin.push(pin_text.len());
        for spec in class.pins() {
            let dir = if spec.dir.is_output() { "O" } else { "I" };
            // Convert lower-left offsets back to center-relative.
            let dx = spec.offset.x - class.width() * 0.5;
            let dy = spec.offset.y - class.height() * 0.5;
            pin_text.push(format!(" {dir} : {dx:.6} {dy:.6}\n"));
        }
    }

    let mut out = create(&base, "nodes")?;
    writeln!(out, "UCLA nodes 1.0\nNumNodes : {}", nl.num_cells())?;
    writeln!(out, "NumTerminals : {}", nl.cell_ids().filter(|&c| nl.cell(c).is_fixed()).count())?;
    for c in nl.cell_ids() {
        let cell = nl.cell(c);
        let term = if cell.is_fixed() { " terminal\n" } else { "\n" };
        for part in ["  ", cell.name(), &dims[cell.class().index()], term] {
            out.write_all(part.as_bytes())?;
        }
    }
    out.flush()?;

    let mut out = create(&base, "nets")?;
    writeln!(out, "UCLA nets 1.0\nNumNets : {}", nl.num_nets())?;
    writeln!(out, "NumPins : {}", nl.net_ids().map(|n| nl.net(n).degree()).sum::<usize>())?;
    for n in nl.net_ids() {
        let net = nl.net(n);
        writeln!(out, "NetDegree : {} {}", net.degree(), net.name())?;
        for &p in net.pins() {
            let pin = nl.pin(p);
            let cell = nl.cell(pin.cell());
            let text = &pin_text[first_pin[cell.class().index()] + pin.class_pin().index()];
            for part in ["  ", cell.name(), text] {
                out.write_all(part.as_bytes())?;
            }
        }
    }
    out.flush()?;

    let mut out = create(&base, "pl")?;
    writeln!(out, "UCLA pl 1.0")?;
    for c in nl.cell_ids() {
        let cell = nl.cell(c);
        out.write_all(cell.name().as_bytes())?;
        for v in [cell.pos().x, cell.pos().y] {
            out.write_all(b" ")?;
            write_fixed6(&mut out, v)?;
        }
        out.write_all(if cell.is_fixed() { b" : N /FIXED\n" } else { b" : N\n" })?;
    }
    out.flush()?;

    // .classes sidecar: node -> class name, so a re-import can rebind the
    // library (standard Bookshelf has no cell-class concept).
    let mut out = create(&base, "classes")?;
    writeln!(out, "# node class")?;
    for c in nl.cell_ids() {
        for part in [nl.cell(c).name(), " ", nl.class_of(c).name(), "\n"] {
            out.write_all(part.as_bytes())?;
        }
    }
    out.flush()?;

    let mut out = create(&base, "scl")?;
    writeln!(out, "UCLA scl 1.0\nNumRows : {}", design.rows.len())?;
    for row in &design.rows {
        writeln!(out, "CoreRow Horizontal")?;
        writeln!(out, "  Coordinate : {}", row.y)?;
        writeln!(out, "  Height : {}", row.height)?;
        writeln!(out, "  Sitewidth : {}", row.site_width)?;
        writeln!(out, "  SubrowOrigin : {} NumSites : {}", row.x_min, row.num_sites())?;
        writeln!(out, "End")?;
    }
    out.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const NODES: &str = "\
UCLA nodes 1.0
NumNodes : 3
NumTerminals : 1
  a 1.0 2.0
  b 1.5 2.0
  p 0.0 0.0 terminal
";

    const NETS: &str = "\
UCLA nets 1.0
NumNets : 2
NumPins : 4
NetDegree : 2 n0
  p O : 0.0 0.0
  a I : -0.25 0.0
NetDegree : 2 n1
  a O : 0.25 0.0
  b I : -0.5 0.0
";

    const PL: &str = "\
UCLA pl 1.0
a 10.0 4.0 : N
b 20.0 6.0 : N
p 0.0 0.0 : N /FIXED
";

    const SCL: &str = "\
UCLA scl 1.0
NumRows : 2
CoreRow Horizontal
  Coordinate : 0.0
  Height : 2.0
  Sitewidth : 0.5
  SubrowOrigin : 0.0 NumSites : 100
End
CoreRow Horizontal
  Coordinate : 2.0
  Height : 2.0
  Sitewidth : 0.5
  SubrowOrigin : 0.0 NumSites : 100
End
";

    #[test]
    fn parse_all_sections() {
        let nodes = parse_nodes(NODES).unwrap();
        assert_eq!(nodes.len(), 3);
        assert!(nodes[2].terminal);
        let nets = parse_nets(NETS).unwrap();
        assert_eq!(nets.len(), 2);
        let (name, pins) = nets.iter().next().unwrap();
        assert_eq!((name, pins.len()), ("n0", 2));
        assert_eq!(pins[0].dir, PinDir::Output);
        let pl = parse_pl(PL).unwrap();
        assert_eq!(pl.len(), 3);
        assert!(pl[2].fixed);
        let rows = parse_scl(SCL).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].y, 2.0);
        assert_eq!(rows[0].x_max, 50.0);
    }

    #[test]
    fn build_and_positions() {
        let nodes = parse_nodes(NODES).unwrap();
        let nets = parse_nets(NETS).unwrap();
        let pl = parse_pl(PL).unwrap();
        let nl = build_netlist(&nodes, &nets, &pl).unwrap();
        nl.validate().unwrap();
        assert_eq!(nl.num_cells(), 3);
        assert_eq!(nl.num_nets(), 2);
        let a = nl.find_cell("a").unwrap();
        assert_eq!(nl.cell(a).pos(), Point::new(10.0, 4.0));
        // Pin offset: center-relative (-0.25, 0) on a 1x2 cell => LL (0.25, 1.0).
        let n0 = nl.find_net("n0").unwrap();
        let sink = nl.net_sinks(n0)[0];
        assert_eq!(nl.pin_position(sink), Point::new(10.25, 5.0));
    }

    #[test]
    fn fixed6_is_what_fmt_prints() {
        let same = |v: f64| {
            let mut out = Vec::new();
            write_fixed6(&mut out, v).unwrap();
            assert_eq!(String::from_utf8(out).unwrap(), format!("{v:.6}"), "{v:e}");
        };
        // Ties (dyadic values ending in …5 at the seventh place), zeros, the
        // subnormal and huge ends, non-finite values.
        for v in [0.0078125, 0.0234375, -0.0078125, 0.5, 1.0000005, 0.0, -0.0, -1e-9, 5e-7, 4.9e-324, f64::MAX, 1e15,
            4503599627370497.0, 9007199254740992.0, 4611686018427387904.0, 9.3e18, 1e22, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 451.03, 123456789.1234565]
        {
            same(v);
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..200_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            same(match i % 4 {
                0 => f64::from_bits(x),
                1 => (x % 1_000_000_000) as f64 / 1024.0 / 7.0,
                2 => (x % 4_000_000) as f64 * 0.25,
                _ => ((x % 2_000_001) as f64 - 1e6) / 128_000.0,
            });
        }
    }

    #[test]
    fn degree_mismatch_is_error() {
        let bad = "NetDegree : 3 n0\n  a I : 0 0\n";
        assert!(parse_nets(bad).is_err());
    }

    #[test]
    fn pin_before_header_is_error() {
        assert!(parse_nets("  a I : 0 0\n").is_err());
    }

    #[test]
    fn roundtrip_through_files() {
        use crate::generate::{generate, GeneratorConfig};
        let design = generate(&GeneratorConfig::named("rt", 80)).unwrap();
        let dir = std::env::temp_dir().join("dtp_bookshelf_rt");
        write_design(&design, &dir).unwrap();
        let back = read_design(&dir.join("rt")).unwrap();
        assert_eq!(back.netlist.num_cells(), design.netlist.num_cells());
        assert_eq!(back.netlist.num_nets(), design.netlist.num_nets());
        assert_eq!(back.rows.len(), design.rows.len());
        // Positions survive the round trip.
        for c in design.netlist.cell_ids() {
            let name = design.netlist.cell(c).name();
            let c2 = back.netlist.find_cell(name).unwrap();
            let p1 = design.netlist.cell(c).pos();
            let p2 = back.netlist.cell(c2).pos();
            assert!((p1.x - p2.x).abs() < 1e-5 && (p1.y - p2.y).abs() < 1e-5);
        }
    }
}

#[cfg(test)]
mod class_sidecar_tests {
    use super::*;
    use crate::generate::{generate, GeneratorConfig};
    use crate::stats::NetlistStats;

    #[test]
    fn classes_sidecar_restores_binding() {
        let design = generate(&GeneratorConfig::named("sidecar", 120)).unwrap();
        let dir = std::env::temp_dir().join("dtp_bookshelf_sidecar");
        write_design(&design, &dir).unwrap();
        assert!(dir.join("sidecar.classes").exists());
        let back = read_design(&dir.join("sidecar")).unwrap();
        // Classes are real standard cells again, not __bs_* privates.
        let s1 = NetlistStats::of(&design.netlist);
        let s2 = NetlistStats::of(&back.netlist);
        assert_eq!(s1.num_cells, s2.num_cells);
        assert_eq!(s1.num_registers, s2.num_registers, "registers lost");
        assert_eq!(s1.num_ports, s2.num_ports, "ports lost");
        // Clock net marking survives (CK pins are clock pins again).
        let c1 = design.netlist.net_ids().filter(|&n| design.netlist.net(n).is_clock()).count();
        let c2 = back.netlist.net_ids().filter(|&n| back.netlist.net(n).is_clock()).count();
        assert_eq!(c1, c2);
        // Every cell's class name matches the original.
        for c in design.netlist.cell_ids() {
            let name = design.netlist.cell(c).name();
            let c2 = back.netlist.find_cell(name).unwrap();
            assert_eq!(
                design.netlist.class_of(c).name(),
                back.netlist.class_of(c2).name(),
                "class mismatch for {name}"
            );
        }
    }

    #[test]
    fn missing_sidecar_falls_back_to_private_classes() {
        let design = generate(&GeneratorConfig::named("nosidecar", 60)).unwrap();
        let dir = std::env::temp_dir().join("dtp_bookshelf_nosidecar");
        write_design(&design, &dir).unwrap();
        std::fs::remove_file(dir.join("nosidecar.classes")).unwrap();
        let back = read_design(&dir.join("nosidecar")).unwrap();
        assert_eq!(back.netlist.num_cells(), design.netlist.num_cells());
        // Private classes: no registers recognizable.
        assert_eq!(NetlistStats::of(&back.netlist).num_registers, 0);
    }

    #[test]
    fn parse_classes_rejects_malformed() {
        assert!(parse_classes("node_without_class\n").is_err());
        let ok = parse_classes("# comment\na INV_X1\nb DFF_X1\n").unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok["b"], "DFF_X1");
    }
}
