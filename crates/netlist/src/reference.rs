//! The oracle: the allocation-forest netlist this crate stored before its
//! arena pass — owning `Cell`/`Net` structs and three `HashMap<String, Id>`
//! — with the builder, the token-vector Verilog parser, the
//! statement-rebuilding DEF parser, the Bookshelf readers and the
//! `String`-building writers that went with it, verbatim but for doc comments
//! and paths. Test-only; `tests` below compares the flat storage, the cursor
//! readers and the streaming writers against it field for field and byte for
//! byte.
//!
//! The readers fill the old [`model::Netlist`]; the writers only ever used
//! accessors, so they run on the crate's own [`crate::Netlist`] unchanged.
#![allow(dead_code, clippy::all)]

pub(crate) mod model {
    use crate::class::{CellClass, ClassId, ClassPinId, PinDir, PinKind, PinSpec};
    use crate::error::NetlistError;
    use crate::geom::Point;
    use crate::ids::{CellId, NetId, PinId};
    use crate::model::{PI_CLASS, PO_CLASS};
    use std::collections::HashMap;


    #[derive(Clone, Debug)]
    pub struct Cell {
        pub(crate) name: String,
        pub(crate) class: ClassId,
        pub(crate) pos: Point,
        pub(crate) fixed: bool,
        pub(crate) pins: Vec<PinId>,
    }

    impl Cell {
        pub fn name(&self) -> &str {
            &self.name
        }

        pub fn class(&self) -> ClassId {
            self.class
        }

        pub fn pos(&self) -> Point {
            self.pos
        }

        pub fn is_fixed(&self) -> bool {
            self.fixed
        }

        pub fn pins(&self) -> &[PinId] {
            &self.pins
        }
    }

    #[derive(Clone, Debug)]
    pub struct Pin {
        pub(crate) cell: CellId,
        pub(crate) class_pin: ClassPinId,
        pub(crate) net: Option<NetId>,
    }

    impl Pin {
        pub fn cell(&self) -> CellId {
            self.cell
        }

        pub fn class_pin(&self) -> ClassPinId {
            self.class_pin
        }

        pub fn net(&self) -> Option<NetId> {
            self.net
        }
    }

    #[derive(Clone, Debug)]
    pub struct Net {
        pub(crate) name: String,
        pub(crate) pins: Vec<PinId>,
        pub(crate) is_clock: bool,
    }

    impl Net {
        pub fn name(&self) -> &str {
            &self.name
        }

        pub fn pins(&self) -> &[PinId] {
            &self.pins
        }

        pub fn degree(&self) -> usize {
            self.pins.len()
        }

        pub fn is_clock(&self) -> bool {
            self.is_clock
        }
    }

    #[derive(Clone, Debug, Default)]
    pub struct Netlist {
        pub(crate) classes: Vec<CellClass>,
        pub(crate) class_names: HashMap<String, ClassId>,
        pub(crate) cells: Vec<Cell>,
        pub(crate) cell_names: HashMap<String, CellId>,
        pub(crate) pins: Vec<Pin>,
        pub(crate) nets: Vec<Net>,
        pub(crate) net_names: HashMap<String, NetId>,
    }

    impl Netlist {
        // ---- counts -----------------------------------------------------------

        pub fn num_cells(&self) -> usize {
            self.cells.len()
        }

        pub fn num_pins(&self) -> usize {
            self.pins.len()
        }

        pub fn num_nets(&self) -> usize {
            self.nets.len()
        }

        pub fn num_classes(&self) -> usize {
            self.classes.len()
        }

        // ---- entity access ----------------------------------------------------

        pub fn cell(&self, id: CellId) -> &Cell {
            &self.cells[id.index()]
        }

        pub fn pin(&self, id: PinId) -> &Pin {
            &self.pins[id.index()]
        }

        pub fn net(&self, id: NetId) -> &Net {
            &self.nets[id.index()]
        }

        pub fn class(&self, id: ClassId) -> &CellClass {
            &self.classes[id.index()]
        }

        pub fn class_of(&self, cell: CellId) -> &CellClass {
            self.class(self.cell(cell).class)
        }

        pub fn pin_spec(&self, pin: PinId) -> &PinSpec {
            let p = self.pin(pin);
            self.class_of(p.cell).pin(p.class_pin)
        }

        // ---- iteration --------------------------------------------------------

        pub fn cell_ids(&self) -> impl Iterator<Item = CellId> + '_ {
            (0..self.cells.len()).map(CellId::new)
        }

        pub fn pin_ids(&self) -> impl Iterator<Item = PinId> + '_ {
            (0..self.pins.len()).map(PinId::new)
        }

        pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
            (0..self.nets.len()).map(NetId::new)
        }

        pub fn movable_cells(&self) -> impl Iterator<Item = CellId> + '_ {
            self.cell_ids().filter(move |&c| !self.cell(c).fixed)
        }

        // ---- lookup by name ---------------------------------------------------

        pub fn find_cell(&self, name: &str) -> Option<CellId> {
            self.cell_names.get(name).copied()
        }

        pub fn find_net(&self, name: &str) -> Option<NetId> {
            self.net_names.get(name).copied()
        }

        pub fn find_class(&self, name: &str) -> Option<ClassId> {
            self.class_names.get(name).copied()
        }

        pub fn find_pin(&self, cell: CellId, pin_name: &str) -> Option<PinId> {
            let c = self.cell(cell);
            let cp = self.class(c.class).find_pin(pin_name)?;
            Some(c.pins[cp.index()])
        }

        pub fn pin_name(&self, pin: PinId) -> String {
            let p = self.pin(pin);
            format!("{}/{}", self.cell(p.cell).name, self.pin_spec(pin).name)
        }

        // ---- geometry ---------------------------------------------------------

        #[inline]
        pub fn pin_position(&self, pin: PinId) -> Point {
            let p = &self.pins[pin.index()];
            let c = &self.cells[p.cell.index()];
            let spec = self.classes[c.class.index()].pin(p.class_pin);
            c.pos + spec.offset
        }

        pub fn set_cell_pos(&mut self, cell: CellId, pos: Point) {
            self.cells[cell.index()].pos = pos;
        }

        pub fn positions(&self) -> (Vec<f64>, Vec<f64>) {
            let xs = self.cells.iter().map(|c| c.pos.x).collect();
            let ys = self.cells.iter().map(|c| c.pos.y).collect();
            (xs, ys)
        }

        pub fn set_positions(&mut self, xs: &[f64], ys: &[f64]) {
            for (i, c) in self.cells.iter_mut().enumerate() {
                c.pos = Point::new(xs[i], ys[i]);
            }
        }

        pub fn movable_area(&self) -> f64 {
            self.cells
                .iter()
                .filter(|c| !c.fixed)
                .map(|c| self.classes[c.class.index()].area())
                .sum()
        }

        // ---- connectivity -----------------------------------------------------

        pub fn net_driver(&self, net: NetId) -> Option<PinId> {
            let n = self.net(net);
            let first = *n.pins.first()?;
            if self.pin_spec(first).dir.is_output() {
                Some(first)
            } else {
                None
            }
        }

        pub fn net_sinks(&self, net: NetId) -> &[PinId] {
            let n = self.net(net);
            if n.pins.is_empty() {
                &[]
            } else {
                &n.pins[1..]
            }
        }

        pub fn pin_is_port(&self, pin: PinId) -> bool {
            self.cell_is_port(self.pin(pin).cell)
        }

        pub fn cell_is_port(&self, cell: CellId) -> bool {
            let name = self.class_of(cell).name();
            name == PI_CLASS || name == PO_CLASS
        }

        pub fn cell_is_input_port(&self, cell: CellId) -> bool {
            self.class_of(cell).name() == PI_CLASS
        }

        pub fn cell_is_output_port(&self, cell: CellId) -> bool {
            self.class_of(cell).name() == PO_CLASS
        }

        pub fn validate(&self) -> Result<(), NetlistError> {
            for (i, net) in self.nets.iter().enumerate() {
                let drivers = net
                    .pins
                    .iter()
                    .filter(|&&p| self.pin_spec(p).dir.is_output())
                    .count();
                if drivers != 1 {
                    return Err(NetlistError::DriverCount {
                        net: self.nets[i].name.clone(),
                        found: drivers,
                    });
                }
            }
            Ok(())
        }
    }

    pub(crate) fn mark_clock_nets(nl: &mut Netlist) {
        for ni in 0..nl.nets.len() {
            let is_clock = nl.nets[ni].pins.iter().any(|&p| {
                let spec = nl.pin_spec(p);
                spec.kind == PinKind::Clock && spec.dir == PinDir::Input
            });
            nl.nets[ni].is_clock = is_clock;
        }
    }
}

pub(crate) mod builder {
    use crate::class::{CellClass, ClassId, ClassPinId, PinDir};
    use crate::error::NetlistError;
    use crate::geom::Point;
    use crate::ids::{CellId, NetId, PinId};
    use super::model::{mark_clock_nets, Cell, Net, Netlist, Pin};
    use crate::model::{PI_CLASS, PO_CLASS, PORT_PIN};

    #[derive(Debug, Default)]
    pub struct NetlistBuilder {
        nl: Netlist,
        pi_class: Option<ClassId>,
        po_class: Option<ClassId>,
    }

    impl NetlistBuilder {
        pub fn new() -> Self {
            NetlistBuilder::default()
        }

        pub fn add_class(&mut self, class: CellClass) -> ClassId {
            if let Some(&id) = self.nl.class_names.get(class.name()) {
                return id;
            }
            let id = ClassId::new(self.nl.classes.len());
            self.nl.class_names.insert(class.name().to_owned(), id);
            self.nl.classes.push(class);
            id
        }

        pub fn add_cell(&mut self, name: impl Into<String>, class: ClassId) -> Result<CellId, NetlistError> {
            self.add_cell_inner(name.into(), class, false)
        }

        pub fn add_fixed_cell(&mut self, name: impl Into<String>, class: ClassId) -> Result<CellId, NetlistError> {
            self.add_cell_inner(name.into(), class, true)
        }

        fn add_cell_inner(&mut self, name: String, class: ClassId, fixed: bool) -> Result<CellId, NetlistError> {
            if self.nl.cell_names.contains_key(&name) {
                return Err(NetlistError::DuplicateName(name));
            }
            let id = CellId::new(self.nl.cells.len());
            let n_pins = self.nl.classes[class.index()].pins().len();
            let mut pins = Vec::with_capacity(n_pins);
            for cp in 0..n_pins {
                let pid = PinId::new(self.nl.pins.len());
                self.nl.pins.push(Pin {
                    cell: id,
                    class_pin: ClassPinId::new(cp),
                    net: None,
                });
                pins.push(pid);
            }
            self.nl.cell_names.insert(name.clone(), id);
            self.nl.cells.push(Cell {
                name,
                class,
                pos: Point::new(0.0, 0.0),
                fixed,
                pins,
            });
            Ok(id)
        }

        pub fn add_input_port(&mut self, name: impl Into<String>) -> Result<CellId, NetlistError> {
            let class = *self.pi_class.get_or_insert_with(|| {
                let id = ClassId::new(self.nl.classes.len());
                let c = CellClass::new(PI_CLASS, 0.0, 0.0).with_pin(PORT_PIN, PinDir::Output, 0.0, 0.0);
                self.nl.class_names.insert(PI_CLASS.to_owned(), id);
                self.nl.classes.push(c);
                id
            });
            self.add_cell_inner(name.into(), class, true)
        }

        pub fn add_output_port(&mut self, name: impl Into<String>) -> Result<CellId, NetlistError> {
            let class = *self.po_class.get_or_insert_with(|| {
                let id = ClassId::new(self.nl.classes.len());
                let c = CellClass::new(PO_CLASS, 0.0, 0.0).with_pin(PORT_PIN, PinDir::Input, 0.0, 0.0);
                self.nl.class_names.insert(PO_CLASS.to_owned(), id);
                self.nl.classes.push(c);
                id
            });
            self.add_cell_inner(name.into(), class, true)
        }

        pub fn add_net(&mut self, name: impl Into<String>) -> Result<NetId, NetlistError> {
            let name = name.into();
            if self.nl.net_names.contains_key(&name) {
                return Err(NetlistError::DuplicateName(name));
            }
            let id = NetId::new(self.nl.nets.len());
            self.nl.net_names.insert(name.clone(), id);
            self.nl.nets.push(Net { name, pins: Vec::new(), is_clock: false });
            Ok(id)
        }

        pub fn connect_by_name(&mut self, net: NetId, cell: CellId, pin_name: &str) -> Result<PinId, NetlistError> {
            let class = self.nl.cells[cell.index()].class;
            let cp = self.nl.classes[class.index()]
                .find_pin(pin_name)
                .ok_or_else(|| NetlistError::UnknownPin {
                    class: self.nl.classes[class.index()].name().to_owned(),
                    pin: pin_name.to_owned(),
                })?;
            let pin = self.nl.cells[cell.index()].pins[cp.index()];
            self.connect(net, pin)?;
            Ok(pin)
        }

        pub fn connect_port(&mut self, net: NetId, port: CellId) -> Result<PinId, NetlistError> {
            self.connect_by_name(net, port, PORT_PIN)
        }

        pub fn connect(&mut self, net: NetId, pin: PinId) -> Result<(), NetlistError> {
            if self.nl.pins[pin.index()].net.is_some() {
                return Err(NetlistError::PinAlreadyConnected(self.nl.pin_name(pin)));
            }
            self.nl.pins[pin.index()].net = Some(net);
            self.nl.nets[net.index()].pins.push(pin);
            Ok(())
        }

        pub fn place(&mut self, cell: CellId, x: f64, y: f64) {
            self.nl.cells[cell.index()].pos = Point::new(x, y);
        }

        pub fn as_netlist(&self) -> &Netlist {
            &self.nl
        }

        pub fn finish(mut self) -> Result<Netlist, NetlistError> {
            // Move the driver to the front of every net's pin list.
            for ni in 0..self.nl.nets.len() {
                let driver_pos = {
                    let net = &self.nl.nets[ni];
                    let mut found = None;
                    let mut count = 0usize;
                    for (i, &p) in net.pins.iter().enumerate() {
                        if self.nl.pin_spec(p).dir.is_output() {
                            count += 1;
                            found = Some(i);
                        }
                    }
                    if count != 1 {
                        return Err(NetlistError::DriverCount {
                            net: net.name.clone(),
                            found: count,
                        });
                    }
                    found.expect("count == 1 implies a driver was found")
                };
                self.nl.nets[ni].pins.swap(0, driver_pos);
            }
            mark_clock_nets(&mut self.nl);
            Ok(self.nl)
        }
    }
}

pub(crate) mod verilog {
    use super::builder::NetlistBuilder;
    use crate::class::CellClass;
    use crate::error::NetlistError;
    use super::model::Netlist;
    use crate::stdcells;
    use std::collections::HashMap;
    use std::fmt::Write as _;

    #[derive(Clone, Debug, PartialEq)]
    enum Tok {
        Word(String),
        Symbol(char),
    }

    fn tokenize(src: &str) -> Result<Vec<(Tok, usize)>, NetlistError> {
        let mut out = Vec::new();
        let mut line = 1usize;
        let mut chars = src.char_indices().peekable();
        while let Some(&(i, c)) = chars.peek() {
            match c {
                '\n' => {
                    line += 1;
                    chars.next();
                }
                c if c.is_whitespace() => {
                    chars.next();
                }
                '/' => {
                    // `//` line comment or `/* */` block comment.
                    let rest = &src[i..];
                    if rest.starts_with("//") {
                        while let Some(&(_, c)) = chars.peek() {
                            if c == '\n' {
                                break;
                            }
                            chars.next();
                        }
                    } else if rest.starts_with("/*") {
                        chars.next();
                        chars.next();
                        let mut prev = ' ';
                        for (_, c) in chars.by_ref() {
                            if c == '\n' {
                                line += 1;
                            }
                            if prev == '*' && c == '/' {
                                break;
                            }
                            prev = c;
                        }
                    } else {
                        return Err(NetlistError::Parse {
                            kind: "verilog",
                            line,
                            message: "stray `/`".into(),
                        });
                    }
                }
                '(' | ')' | ';' | ',' | '.' | '=' => {
                    out.push((Tok::Symbol(c), line));
                    chars.next();
                }
                _ => {
                    let start = i;
                    let mut end = i;
                    while let Some(&(j, c)) = chars.peek() {
                        // `-` continues an identifier but cannot start one, so a
                        // stray `-` still errors; our own ICCAD writer emits
                        // hyphenated design names (`module obs-ci (...)`) and this
                        // subset gives `-` no other lexical role.
                        if c.is_alphanumeric() || c == '_' || c == '\\' || c == '[' || c == ']' || c == '$'
                            || (c == '-' && end > start)
                        {
                            end = j + c.len_utf8();
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    if end == start {
                        return Err(NetlistError::Parse {
                            kind: "verilog",
                            line,
                            message: format!("unexpected character `{c}`"),
                        });
                    }
                    out.push((Tok::Word(src[start..end].trim_start_matches('\\').to_owned()), line));
                }
            }
        }
        Ok(out)
    }

    struct Parser {
        toks: Vec<(Tok, usize)>,
        pos: usize,
    }

    impl Parser {
        fn err(&self, message: impl Into<String>) -> NetlistError {
            let line = self
                .toks
                .get(self.pos.min(self.toks.len().saturating_sub(1)))
                .map_or(0, |(_, l)| *l);
            NetlistError::Parse { kind: "verilog", line, message: message.into() }
        }

        fn next(&mut self) -> Option<Tok> {
            let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
            self.pos += 1;
            t
        }

        fn peek(&self) -> Option<&Tok> {
            self.toks.get(self.pos).map(|(t, _)| t)
        }

        fn expect_symbol(&mut self, c: char) -> Result<(), NetlistError> {
            match self.next() {
                Some(Tok::Symbol(s)) if s == c => Ok(()),
                other => Err(self.err(format!("expected `{c}`, found {other:?}"))),
            }
        }

        fn expect_word(&mut self) -> Result<String, NetlistError> {
            match self.next() {
                Some(Tok::Word(w)) => Ok(w),
                other => Err(self.err(format!("expected identifier, found {other:?}"))),
            }
        }

        fn word_list(&mut self) -> Result<Vec<String>, NetlistError> {
            let mut words = Vec::new();
            loop {
                match self.next() {
                    Some(Tok::Word(w)) => words.push(w),
                    Some(Tok::Symbol(',')) => {}
                    Some(Tok::Symbol(';')) => return Ok(words),
                    other => return Err(self.err(format!("unexpected {other:?} in list"))),
                }
            }
        }
    }

    pub fn parse_verilog(text: &str) -> Result<Netlist, NetlistError> {
        parse_verilog_with(text, |name| stdcells::find(name).map(|s| s.to_class()))
    }

    pub fn parse_verilog_with(
        text: &str,
        resolve: impl Fn(&str) -> Option<CellClass>,
    ) -> Result<Netlist, NetlistError> {
        let mut p = Parser { toks: tokenize(text)?, pos: 0 };
        // module NAME ( ports... ) ;
        match p.next() {
            Some(Tok::Word(w)) if w == "module" => {}
            other => return Err(p.err(format!("expected `module`, found {other:?}"))),
        }
        let _module_name = p.expect_word()?;
        p.expect_symbol('(')?;
        loop {
            match p.next() {
                Some(Tok::Symbol(')')) => break,
                Some(Tok::Word(_)) | Some(Tok::Symbol(',')) => {}
                other => return Err(p.err(format!("unexpected {other:?} in port list"))),
            }
        }
        p.expect_symbol(';')?;

        let mut b = NetlistBuilder::new();
        let mut inputs: Vec<String> = Vec::new();
        let mut outputs: Vec<String> = Vec::new();
        let mut nets: HashMap<String, crate::ids::NetId> = HashMap::new();

        // Declarations and instances until `endmodule`.
        while let Some(tok) = p.peek().cloned() {
            match tok {
                Tok::Word(w) if w == "endmodule" => break,
                Tok::Word(w) if w == "input" => {
                    p.next();
                    inputs.extend(p.word_list()?);
                }
                Tok::Word(w) if w == "output" => {
                    p.next();
                    outputs.extend(p.word_list()?);
                }
                Tok::Word(w) if w == "wire" => {
                    p.next();
                    for name in p.word_list()? {
                        if !nets.contains_key(&name) {
                            nets.insert(name.clone(), b.add_net(name)?);
                        }
                    }
                }
                Tok::Word(w) if w == "assign" => {
                    // `assign a = b;` — the subset treats it as net aliasing
                    // (used for ports that share a net, e.g. a PI feeding a PO
                    // directly). Both names refer to the same net afterwards.
                    p.next();
                    let lhs = p.expect_word()?;
                    p.expect_symbol('=')?;
                    let rhs = p.expect_word()?;
                    p.expect_symbol(';')?;
                    let net = match (nets.get(&lhs).copied(), nets.get(&rhs).copied()) {
                        (Some(n), None) => n,
                        (None, Some(n)) => n,
                        (None, None) => b.add_net(rhs.clone())?,
                        (Some(_), Some(_)) => {
                            return Err(p.err(format!(
                                "assign between two existing nets `{lhs}` and `{rhs}` is unsupported"
                            )))
                        }
                    };
                    nets.insert(lhs, net);
                    nets.insert(rhs, net);
                }
                Tok::Word(_) => {
                    // CELLTYPE instname ( .PIN(net), ... ) ;
                    let cell_type = p.expect_word()?;
                    let inst = p.expect_word()?;
                    let class = resolve(&cell_type)
                        .ok_or_else(|| NetlistError::UnknownName(cell_type.clone()))?;
                    let class_id = b.add_class(class);
                    let cell = b.add_cell(inst, class_id)?;
                    p.expect_symbol('(')?;
                    loop {
                        match p.next() {
                            Some(Tok::Symbol(')')) => break,
                            Some(Tok::Symbol(',')) => {}
                            Some(Tok::Symbol('.')) => {
                                let pin = p.expect_word()?;
                                p.expect_symbol('(')?;
                                let net_name = p.expect_word()?;
                                p.expect_symbol(')')?;
                                let net = match nets.get(&net_name) {
                                    Some(&n) => n,
                                    None => {
                                        let n = b.add_net(net_name.clone())?;
                                        nets.insert(net_name, n);
                                        n
                                    }
                                };
                                b.connect_by_name(net, cell, &pin)?;
                            }
                            other => {
                                return Err(p.err(format!("unexpected {other:?} in connections")))
                            }
                        }
                    }
                    p.expect_symbol(';')?;
                }
                other => return Err(p.err(format!("unexpected {other:?} at top level"))),
            }
        }

        // Create port pseudo-cells and attach them to the nets of the same name.
        for name in inputs {
            let port = b.add_input_port(&*name)?;
            let net = match nets.get(&name) {
                Some(&n) => n,
                None => {
                    let n = b.add_net(name.clone())?;
                    nets.insert(name, n);
                    n
                }
            };
            b.connect_port(net, port)?;
        }
        for name in outputs {
            let port = b.add_output_port(&*name)?;
            let net = match nets.get(&name) {
                Some(&n) => n,
                None => {
                    let n = b.add_net(name.clone())?;
                    nets.insert(name, n);
                    n
                }
            };
            b.connect_port(net, port)?;
        }
        b.finish()
    }

    pub fn write_verilog(nl: &crate::Netlist, module_name: &str) -> String {
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        let mut alias: HashMap<usize, String> = HashMap::new(); // net index -> port name
        let mut assigns: Vec<(String, String)> = Vec::new();
        for c in nl.cell_ids() {
            if !nl.cell_is_port(c) {
                continue;
            }
            let name = nl.cell(c).name().to_owned();
            if nl.cell_is_input_port(c) {
                inputs.push(name.clone());
            } else {
                outputs.push(name.clone());
            }
            if let Some(&pid) = nl.cell(c).pins().first() {
                if let Some(net) = nl.pin(pid).net() {
                    match alias.get(&net.index()) {
                        None => {
                            alias.insert(net.index(), name);
                        }
                        Some(canonical) => assigns.push((name, canonical.clone())),
                    }
                }
            }
        }
        let net_name = |n: crate::ids::NetId| -> &str {
            alias
                .get(&n.index())
                .map(String::as_str)
                .unwrap_or_else(|| nl.net(n).name())
        };
        let mut out = String::new();
        let ports: Vec<&str> = inputs
            .iter()
            .chain(outputs.iter())
            .map(String::as_str)
            .collect();
        let _ = writeln!(out, "module {module_name} ({});", ports.join(", "));
        for i in &inputs {
            let _ = writeln!(out, "input {i};");
        }
        for o in &outputs {
            let _ = writeln!(out, "output {o};");
        }
        for n in nl.net_ids() {
            if !alias.contains_key(&n.index()) {
                let _ = writeln!(out, "wire {};", nl.net(n).name());
            }
        }
        for (l, r) in &assigns {
            let _ = writeln!(out, "assign {l} = {r};");
        }
        out.push('\n');
        for c in nl.cell_ids() {
            if nl.cell_is_port(c) {
                continue;
            }
            let cell = nl.cell(c);
            let class = nl.class_of(c);
            let conns: Vec<String> = cell
                .pins()
                .iter()
                .filter_map(|&p| {
                    let pin = nl.pin(p);
                    pin.net()
                        .map(|net| format!(".{}({})", nl.pin_spec(p).name, net_name(net)))
                })
                .collect();
            let _ = writeln!(out, "{} {} ( {} );", class.name(), cell.name(), conns.join(", "));
        }
        out.push_str("endmodule\n");
        out
    }
}

pub(crate) mod def {
    use crate::design::Row;
    use crate::error::NetlistError;
    use crate::geom::Rect;
    use super::model::Netlist;
    use std::fmt::Write as _;

    #[derive(Clone, Debug, PartialEq)]
    pub struct DefPlacement {
        pub name: String,
        pub x: f64,
        pub y: f64,
        pub fixed: bool,
    }

    #[derive(Clone, Debug, Default)]
    pub struct DefData {
        pub design: String,
        pub dbu_per_micron: f64,
        pub diearea: Rect,
        pub rows: Vec<Row>,
        pub components: Vec<DefPlacement>,
        pub pins: Vec<DefPlacement>,
    }

    fn perr(line: usize, message: impl Into<String>) -> NetlistError {
        NetlistError::Parse { kind: "def", line, message: message.into() }
    }

    pub fn parse_def(text: &str) -> Result<DefData, NetlistError> {
        let mut data = DefData { dbu_per_micron: 1000.0, ..DefData::default() };
        // DEF statements end with `;` and may span lines; rebuild statements.
        let mut statements: Vec<(usize, String)> = Vec::new();
        {
            let mut cur = String::new();
            let mut start_line = 1usize;
            for (i, raw) in text.lines().enumerate() {
                let line = raw.split('#').next().unwrap_or("");
                if cur.is_empty() {
                    start_line = i + 1;
                }
                cur.push_str(line);
                cur.push(' ');
                if line.trim_end().ends_with(';')
                    || line.trim() == "END COMPONENTS"
                    || line.trim() == "END PINS"
                    || line.trim() == "END DESIGN"
                {
                    statements.push((start_line, std::mem::take(&mut cur)));
                }
            }
            if !cur.trim().is_empty() {
                statements.push((start_line, cur));
            }
        }

        #[derive(PartialEq)]
        enum Section {
            Top,
            Components,
            Pins,
            Skip(&'static str),
        }
        let mut section = Section::Top;
        let dbu = |data: &DefData| data.dbu_per_micron;

        for (lineno, stmt) in statements {
            let owned: Vec<String> = stmt
                .replace(['(', ')'], " ")
                .split_whitespace()
                .map(|s| s.trim_end_matches(';').to_owned())
                .filter(|s| !s.is_empty())
                .collect();
            let t: Vec<&str> = owned.iter().map(String::as_str).collect();
            if t.is_empty() {
                continue;
            }
            match section {
                Section::Skip(end) => {
                    if t[0] == "END" && t.get(1).copied() == Some(end) {
                        section = Section::Top;
                    }
                }
                Section::Top => match t[0] {
                    "VERSION" | "DIVIDERCHAR" | "BUSBITCHARS" | "TECHNOLOGY" => {}
                    "DESIGN" => {
                        data.design = t.get(1).unwrap_or(&"design").to_string();
                    }
                    "UNITS" => {
                        // UNITS DISTANCE MICRONS n
                        if let Some(v) = t.last().and_then(|s| s.parse::<f64>().ok()) {
                            data.dbu_per_micron = v;
                        }
                    }
                    "DIEAREA" => {
                        let nums: Vec<f64> = t[1..]
                            .iter()
                            .filter_map(|s| s.parse().ok())
                            .collect();
                        if nums.len() < 4 {
                            return Err(perr(lineno, "DIEAREA needs two points"));
                        }
                        let s = dbu(&data);
                        data.diearea =
                            Rect::new(nums[0] / s, nums[1] / s, nums[2] / s, nums[3] / s);
                    }
                    "ROW" => {
                        // ROW name site x y orient DO nx BY ny STEP sx sy
                        let num = |i: usize| -> Result<f64, NetlistError> {
                            t.get(i)
                                .and_then(|s| s.parse().ok())
                                .ok_or_else(|| perr(lineno, "bad ROW statement"))
                        };
                        let x = num(3)? / dbu(&data);
                        let y = num(4)? / dbu(&data);
                        let do_idx = t.iter().position(|&s| s == "DO");
                        let step_idx = t.iter().position(|&s| s == "STEP");
                        let (nx, sx) = match (do_idx, step_idx) {
                            (Some(d), Some(st)) => {
                                let nx: f64 = t
                                    .get(d + 1)
                                    .and_then(|s| s.parse().ok())
                                    .ok_or_else(|| perr(lineno, "bad DO count"))?;
                                let sx: f64 = t
                                    .get(st + 1)
                                    .and_then(|s| s.parse().ok())
                                    .ok_or_else(|| perr(lineno, "bad STEP"))?;
                                (nx, sx / dbu(&data))
                            }
                            _ => (0.0, 0.0),
                        };
                        data.rows.push(Row {
                            y,
                            x_min: x,
                            x_max: x + nx * sx,
                            height: crate::stdcells::ROW_HEIGHT,
                            site_width: if sx > 0.0 { sx } else { crate::stdcells::SITE_WIDTH },
                        });
                    }
                    "COMPONENTS" => section = Section::Components,
                    "PINS" => section = Section::Pins,
                    "NETS" => section = Section::Skip("NETS"),
                    "SPECIALNETS" => section = Section::Skip("SPECIALNETS"),
                    "END" => {}
                    _ => {} // unsupported top-level statements are skipped
                },
                Section::Components | Section::Pins => {
                    if t[0] == "END" {
                        section = Section::Top;
                        continue;
                    }
                    if t[0] != "-" {
                        continue;
                    }
                    let name = t
                        .get(1)
                        .ok_or_else(|| perr(lineno, "missing name"))?
                        .to_string();
                    let placed = t.iter().position(|&s| s == "PLACED" || s == "FIXED");
                    let Some(pi) = placed else { continue };
                    let fixed = t[pi] == "FIXED";
                    let s = dbu(&data);
                    let x: f64 = t
                        .get(pi + 1)
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| perr(lineno, "bad placement x"))?;
                    let y: f64 = t
                        .get(pi + 2)
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| perr(lineno, "bad placement y"))?;
                    let rec = DefPlacement { name, x: x / s, y: y / s, fixed };
                    if section == Section::Components {
                        data.components.push(rec);
                    } else {
                        data.pins.push(rec);
                    }
                }
            }
        }
        Ok(data)
    }

    pub fn apply_def(nl: &mut Netlist, def: &DefData) -> Result<usize, NetlistError> {
        let mut placed = 0usize;
        for rec in def.components.iter().chain(def.pins.iter()) {
            let cell = nl
                .find_cell(&rec.name)
                .ok_or_else(|| NetlistError::UnknownName(rec.name.clone()))?;
            nl.set_cell_pos(cell, crate::geom::Point::new(rec.x, rec.y));
            placed += 1;
        }
        Ok(placed)
    }

    pub fn write_def(design: &crate::design::Design) -> String {
        let nl = &design.netlist;
        let dbu = 1000.0;
        let mut out = String::new();
        let _ = writeln!(out, "VERSION 5.8 ;");
        let _ = writeln!(out, "DESIGN {} ;", design.name);
        let _ = writeln!(out, "UNITS DISTANCE MICRONS {dbu} ;");
        let _ = writeln!(
            out,
            "DIEAREA ( {:.0} {:.0} ) ( {:.0} {:.0} ) ;",
            design.region.xl * dbu,
            design.region.yl * dbu,
            design.region.xh * dbu,
            design.region.yh * dbu
        );
        for (i, row) in design.rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "ROW row{i} core {:.0} {:.0} N DO {} BY 1 STEP {:.0} 0 ;",
                row.x_min * dbu,
                row.y * dbu,
                row.num_sites(),
                row.site_width * dbu
            );
        }
        let comps: Vec<_> = nl.cell_ids().filter(|&c| !nl.cell_is_port(c)).collect();
        let _ = writeln!(out, "COMPONENTS {} ;", comps.len());
        for c in comps {
            let cell = nl.cell(c);
            let kind = if cell.is_fixed() { "FIXED" } else { "PLACED" };
            let _ = writeln!(
                out,
                " - {} {} + {kind} ( {:.0} {:.0} ) N ;",
                cell.name(),
                nl.class_of(c).name(),
                cell.pos().x * dbu,
                cell.pos().y * dbu
            );
        }
        let _ = writeln!(out, "END COMPONENTS");
        let ports: Vec<_> = nl.cell_ids().filter(|&c| nl.cell_is_port(c)).collect();
        let _ = writeln!(out, "PINS {} ;", ports.len());
        for c in ports {
            let cell = nl.cell(c);
            let dir = if nl.cell_is_input_port(c) { "INPUT" } else { "OUTPUT" };
            let _ = writeln!(
                out,
                " - {} + NET {} + DIRECTION {dir} + PLACED ( {:.0} {:.0} ) N ;",
                cell.name(),
                cell.name(),
                cell.pos().x * dbu,
                cell.pos().y * dbu
            );
        }
        let _ = writeln!(out, "END PINS");
        let _ = writeln!(out, "END DESIGN");
        out
    }
}

pub(crate) mod bookshelf {
    use super::builder::NetlistBuilder;
    use crate::class::{CellClass, PinDir};
    use crate::model::{PI_CLASS, PO_CLASS};
    use crate::stdcells;
    use crate::design::{Design, Row};
    use crate::error::NetlistError;
    use crate::geom::{Point, Rect};
    use crate::ids::CellId;
    use super::model::Netlist;
    use std::collections::HashMap;
    use std::fmt::Write as _;
    use std::fs;
    use std::path::Path;

    fn parse_err(kind: &'static str, line: usize, message: impl Into<String>) -> NetlistError {
        NetlistError::Parse { kind, line, message: message.into() }
    }

    #[derive(Clone, Debug, PartialEq)]
    pub struct NodeRecord {
        pub name: String,
        pub width: f64,
        pub height: f64,
        pub terminal: bool,
    }

    pub fn parse_nodes(text: &str) -> Result<Vec<NodeRecord>, NetlistError> {
        let mut out = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if skip_line(line) || line.starts_with("NumNodes") || line.starts_with("NumTerminals") {
                continue;
            }
            let mut it = line.split_whitespace();
            let name = it.next().ok_or_else(|| parse_err("nodes", i + 1, "missing name"))?;
            let w: f64 = it
                .next()
                .ok_or_else(|| parse_err("nodes", i + 1, "missing width"))?
                .parse()
                .map_err(|_| parse_err("nodes", i + 1, "bad width"))?;
            let h: f64 = it
                .next()
                .ok_or_else(|| parse_err("nodes", i + 1, "missing height"))?
                .parse()
                .map_err(|_| parse_err("nodes", i + 1, "bad height"))?;
            let terminal = it.next().map(|t| t.starts_with("terminal")).unwrap_or(false);
            out.push(NodeRecord { name: name.to_owned(), width: w, height: h, terminal });
        }
        Ok(out)
    }

    #[derive(Clone, Debug, PartialEq)]
    pub struct NetPinRecord {
        pub node: String,
        pub dir: PinDir,
        pub offset: Point,
    }

    #[derive(Clone, Debug, PartialEq)]
    pub struct NetRecord {
        pub name: String,
        pub pins: Vec<NetPinRecord>,
    }

    pub fn parse_nets(text: &str) -> Result<Vec<NetRecord>, NetlistError> {
        let mut out: Vec<NetRecord> = Vec::new();
        let mut expect: usize = 0;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if skip_line(line) || line.starts_with("NumNets") || line.starts_with("NumPins") {
                continue;
            }
            if let Some(rest) = line.strip_prefix("NetDegree") {
                if expect != 0 {
                    return Err(parse_err("nets", i + 1, "previous net is missing pins"));
                }
                let rest = rest.trim_start_matches([':', ' ', '\t']);
                let mut it = rest.split_whitespace();
                let d: usize = it
                    .next()
                    .ok_or_else(|| parse_err("nets", i + 1, "missing degree"))?
                    .parse()
                    .map_err(|_| parse_err("nets", i + 1, "bad degree"))?;
                let name = it
                    .next()
                    .map(str::to_owned)
                    .unwrap_or_else(|| format!("net{}", out.len()));
                out.push(NetRecord { name, pins: Vec::with_capacity(d) });
                expect = d;
            } else {
                let net = out
                    .last_mut()
                    .ok_or_else(|| parse_err("nets", i + 1, "pin before any NetDegree"))?;
                // `cell I : dx dy` (offsets optional in some dialects).
                let cleaned = line.replace(':', " ");
                let mut it = cleaned.split_whitespace();
                let node = it.next().ok_or_else(|| parse_err("nets", i + 1, "missing node"))?;
                let dir = match it.next() {
                    Some("O") => PinDir::Output,
                    Some("I") | Some("B") => PinDir::Input,
                    other => {
                        return Err(parse_err("nets", i + 1, format!("bad direction {other:?}")))
                    }
                };
                let dx: f64 = it.next().and_then(|t| t.parse().ok()).unwrap_or(0.0);
                let dy: f64 = it.next().and_then(|t| t.parse().ok()).unwrap_or(0.0);
                net.pins.push(NetPinRecord { node: node.to_owned(), dir, offset: Point::new(dx, dy) });
                expect = expect.saturating_sub(1);
            }
        }
        if expect != 0 {
            return Err(parse_err("nets", text.lines().count(), "last net is missing pins"));
        }
        Ok(out)
    }

    #[derive(Clone, Debug, PartialEq)]
    pub struct PlRecord {
        pub name: String,
        pub x: f64,
        pub y: f64,
        pub fixed: bool,
    }

    pub fn parse_pl(text: &str) -> Result<Vec<PlRecord>, NetlistError> {
        let mut out = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if skip_line(line) {
                continue;
            }
            let cleaned = line.replace(':', " ");
            let mut it = cleaned.split_whitespace();
            let name = it.next().ok_or_else(|| parse_err("pl", i + 1, "missing name"))?;
            let x: f64 = it
                .next()
                .ok_or_else(|| parse_err("pl", i + 1, "missing x"))?
                .parse()
                .map_err(|_| parse_err("pl", i + 1, "bad x"))?;
            let y: f64 = it
                .next()
                .ok_or_else(|| parse_err("pl", i + 1, "missing y"))?
                .parse()
                .map_err(|_| parse_err("pl", i + 1, "bad y"))?;
            let fixed = line.contains("/FIXED");
            out.push(PlRecord { name: name.to_owned(), x, y, fixed });
        }
        Ok(out)
    }

    pub fn parse_scl(text: &str) -> Result<Vec<Row>, NetlistError> {
        let mut rows = Vec::new();
        let mut cur: Option<(f64, f64, f64, f64, usize)> = None; // y, h, sw, x0, nsites
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if skip_line(line) || line.starts_with("NumRows") {
                continue;
            }
            if line.starts_with("CoreRow") {
                cur = Some((0.0, 0.0, 1.0, 0.0, 0));
            } else if line == "End" {
                let (y, h, sw, x0, n) =
                    cur.take().ok_or_else(|| parse_err("scl", i + 1, "End without CoreRow"))?;
                rows.push(Row { y, x_min: x0, x_max: x0 + sw * n as f64, height: h, site_width: sw });
            } else if let Some(c) = cur.as_mut() {
                let cleaned = line.replace(':', " ");
                let mut it = cleaned.split_whitespace();
                match it.next() {
                    Some("Coordinate") => {
                        c.0 = next_f64(&mut it, "scl", i)?;
                    }
                    Some("Height") => {
                        c.1 = next_f64(&mut it, "scl", i)?;
                    }
                    Some("Sitewidth") => {
                        c.2 = next_f64(&mut it, "scl", i)?;
                    }
                    Some("SubrowOrigin") => {
                        c.3 = next_f64(&mut it, "scl", i)?;
                        // Optional `NumSites : n` on the same line.
                        if let Some(tok) = it.next() {
                            if tok == "NumSites" {
                                c.4 = it
                                    .next()
                                    .and_then(|t| t.parse().ok())
                                    .ok_or_else(|| parse_err("scl", i + 1, "bad NumSites"))?;
                            }
                        }
                    }
                    _ => {} // Siteorient / Sitespacing etc. ignored
                }
            }
        }
        Ok(rows)
    }

    fn next_f64<'a>(
        it: &mut impl Iterator<Item = &'a str>,
        kind: &'static str,
        line0: usize,
    ) -> Result<f64, NetlistError> {
        it.next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| parse_err(kind, line0 + 1, "missing numeric value"))
    }

    fn skip_line(line: &str) -> bool {
        line.is_empty() || line.starts_with('#') || line.starts_with("UCLA")
    }

    pub fn build_netlist(
        nodes: &[NodeRecord],
        nets: &[NetRecord],
        pl: &[PlRecord],
    ) -> Result<Netlist, NetlistError> {
        // First collect all pins per node so each class is complete before
        // instantiation.
        let mut node_pins: HashMap<&str, Vec<(String, PinDir, Point)>> = HashMap::new();
        for n in nets {
            for p in &n.pins {
                let pins = node_pins.entry(p.node.as_str()).or_default();
                let name = format!("p{}", pins.len());
                pins.push((name, p.dir, p.offset));
            }
        }
        let mut b = NetlistBuilder::new();
        let mut cell_of: HashMap<&str, CellId> = HashMap::new();
        // Track, per node, how many of its pins have been consumed so repeated
        // appearances map to successive pins.
        let mut next_pin: HashMap<&str, usize> = HashMap::new();
        for rec in nodes {
            let mut class = CellClass::new(format!("__bs_{}", rec.name), rec.width, rec.height);
            if let Some(pins) = node_pins.get(rec.name.as_str()) {
                for (name, dir, center_off) in pins {
                    // Bookshelf offsets are center-relative; the model is
                    // lower-left-relative.
                    let off = Point::new(center_off.x + rec.width * 0.5, center_off.y + rec.height * 0.5);
                    class = class.with_pin(name.clone(), *dir, off.x, off.y);
                }
            }
            let cid = b.add_class(class);
            let cell = if rec.terminal {
                b.add_fixed_cell(&*rec.name, cid)?
            } else {
                b.add_cell(&*rec.name, cid)?
            };
            cell_of.insert(rec.name.as_str(), cell);
        }
        for n in nets {
            let net = b.add_net(&*n.name)?;
            for p in &n.pins {
                let cell = *cell_of
                    .get(p.node.as_str())
                    .ok_or_else(|| NetlistError::UnknownName(p.node.clone()))?;
                let k = next_pin.entry(p.node.as_str()).or_insert(0);
                let pin_name = format!("p{k}");
                *k += 1;
                b.connect_by_name(net, cell, &pin_name)?;
            }
        }
        for rec in pl {
            if let Some(&cell) = cell_of.get(rec.name.as_str()) {
                b.place(cell, rec.x, rec.y);
            }
        }
        b.finish()
    }

    pub fn parse_classes(text: &str) -> Result<HashMap<String, String>, NetlistError> {
        let mut map = HashMap::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if skip_line(line) {
                continue;
            }
            let mut it = line.split_whitespace();
            let node = it
                .next()
                .ok_or_else(|| parse_err("classes", i + 1, "missing node"))?;
            let class = it
                .next()
                .ok_or_else(|| parse_err("classes", i + 1, "missing class"))?;
            map.insert(node.to_owned(), class.to_owned());
        }
        Ok(map)
    }

    pub fn build_netlist_with_classes(
        nodes: &[NodeRecord],
        nets: &[NetRecord],
        pl: &[PlRecord],
        class_of: &HashMap<String, String>,
    ) -> Result<Netlist, NetlistError> {
        let mut b = NetlistBuilder::new();
        let mut cell_of: HashMap<&str, CellId> = HashMap::new();
        // Collect fallback pins for unmapped nodes (same as build_netlist).
        let mut node_pins: HashMap<&str, Vec<(String, PinDir, Point)>> = HashMap::new();
        for n in nets {
            for p in &n.pins {
                let pins = node_pins.entry(p.node.as_str()).or_default();
                pins.push((format!("p{}", pins.len()), p.dir, p.offset));
            }
        }
        for rec in nodes {
            let class_name = class_of.get(&rec.name).map(String::as_str);
            let cell = match class_name {
                Some(PI_CLASS) => b.add_input_port(&*rec.name)?,
                Some(PO_CLASS) => b.add_output_port(&*rec.name)?,
                Some(name) if stdcells::find(name).is_some() => {
                    let spec = stdcells::find(name).expect("checked above");
                    let cid = b.add_class(spec.to_class());
                    if rec.terminal {
                        b.add_fixed_cell(&*rec.name, cid)?
                    } else {
                        b.add_cell(&*rec.name, cid)?
                    }
                }
                _ => {
                    // Unknown class: private per-node class, as in build_netlist.
                    let mut class = CellClass::new(format!("__bs_{}", rec.name), rec.width, rec.height);
                    if let Some(pins) = node_pins.get(rec.name.as_str()) {
                        for (name, dir, off) in pins {
                            class = class.with_pin(
                                name.clone(),
                                *dir,
                                off.x + rec.width * 0.5,
                                off.y + rec.height * 0.5,
                            );
                        }
                    }
                    let cid = b.add_class(class);
                    if rec.terminal {
                        b.add_fixed_cell(&*rec.name, cid)?
                    } else {
                        b.add_cell(&*rec.name, cid)?
                    }
                }
            };
            cell_of.insert(rec.name.as_str(), cell);
        }
        // Connect: match each net-pin record to an unused class pin by direction
        // and lower-left offset.
        let mut used: HashMap<CellId, Vec<bool>> = HashMap::new();
        for n in nets {
            let net = b.add_net(&*n.name)?;
            for p in &n.pins {
                let cell = *cell_of
                    .get(p.node.as_str())
                    .ok_or_else(|| NetlistError::UnknownName(p.node.clone()))?;
                let (pin_name, idx) = {
                    let nl = b.as_netlist();
                    let class = nl.class_of(cell);
                    let off_ll = Point::new(
                        p.offset.x + class.width() * 0.5,
                        p.offset.y + class.height() * 0.5,
                    );
                    let used_flags = used
                        .entry(cell)
                        .or_insert_with(|| vec![false; class.pins().len()]);
                    let found = class
                        .pins()
                        .iter()
                        .enumerate()
                        .find(|(k, spec)| {
                            !used_flags[*k]
                                && spec.dir == p.dir
                                && (spec.offset.x - off_ll.x).abs() < 1e-4
                                && (spec.offset.y - off_ll.y).abs() < 1e-4
                        })
                        .map(|(k, spec)| (spec.name.clone(), k));
                    found.ok_or_else(|| NetlistError::UnknownPin {
                        class: class.name().to_owned(),
                        pin: format!("{} @ ({}, {})", p.dir, off_ll.x, off_ll.y),
                    })?
                };
                used.get_mut(&cell).expect("inserted above")[idx] = true;
                b.connect_by_name(net, cell, &pin_name)?;
            }
        }
        for rec in pl {
            if let Some(&cell) = cell_of.get(rec.name.as_str()) {
                b.place(cell, rec.x, rec.y);
            }
        }
        b.finish()
    }

    pub fn region_of_rows(rows: &[Row]) -> Rect {
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

    pub fn write_design(design: &Design, dir: &Path) -> Result<(), NetlistError> {
        fs::create_dir_all(dir)?;
        let nl = &design.netlist;
        let base = dir.join(&design.name);

        // .nodes
        let mut nodes = String::from("UCLA nodes 1.0\n");
        let _ = writeln!(nodes, "NumNodes : {}", nl.num_cells());
        let n_term = nl.cell_ids().filter(|&c| nl.cell(c).is_fixed()).count();
        let _ = writeln!(nodes, "NumTerminals : {n_term}");
        for c in nl.cell_ids() {
            let cell = nl.cell(c);
            let class = nl.class_of(c);
            let term = if cell.is_fixed() { " terminal" } else { "" };
            let _ = writeln!(nodes, "  {} {} {}{}", cell.name(), class.width(), class.height(), term);
        }
        fs::write(base.with_extension("nodes"), nodes)?;

        // .nets
        let mut nets = String::from("UCLA nets 1.0\n");
        let _ = writeln!(nets, "NumNets : {}", nl.num_nets());
        let npins: usize = nl.net_ids().map(|n| nl.net(n).degree()).sum();
        let _ = writeln!(nets, "NumPins : {npins}");
        for n in nl.net_ids() {
            let net = nl.net(n);
            let _ = writeln!(nets, "NetDegree : {} {}", net.degree(), net.name());
            for &p in net.pins() {
                let pin = nl.pin(p);
                let cell = nl.cell(pin.cell());
                let class = nl.class_of(pin.cell());
                let spec = nl.pin_spec(p);
                let dir = if spec.dir.is_output() { "O" } else { "I" };
                // Convert lower-left offsets back to center-relative.
                let dx = spec.offset.x - class.width() * 0.5;
                let dy = spec.offset.y - class.height() * 0.5;
                let _ = writeln!(nets, "  {} {dir} : {dx:.6} {dy:.6}", cell.name());
            }
        }
        fs::write(base.with_extension("nets"), nets)?;

        // .pl
        let mut pl = String::from("UCLA pl 1.0\n");
        for c in nl.cell_ids() {
            let cell = nl.cell(c);
            let fixed = if cell.is_fixed() { " /FIXED" } else { "" };
            let _ = writeln!(pl, "{} {:.6} {:.6} : N{}", cell.name(), cell.pos().x, cell.pos().y, fixed);
        }
        fs::write(base.with_extension("pl"), pl)?;

        // .classes sidecar: node -> class name, so a re-import can rebind the
        // library (standard Bookshelf has no cell-class concept).
        let mut classes = String::from("# node class\n");
        for c in nl.cell_ids() {
            let _ = writeln!(classes, "{} {}", nl.cell(c).name(), nl.class_of(c).name());
        }
        fs::write(base.with_extension("classes"), classes)?;

        // .scl
        let mut scl = String::from("UCLA scl 1.0\n");
        let _ = writeln!(scl, "NumRows : {}", design.rows.len());
        for row in &design.rows {
            let _ = writeln!(scl, "CoreRow Horizontal");
            let _ = writeln!(scl, "  Coordinate : {}", row.y);
            let _ = writeln!(scl, "  Height : {}", row.height);
            let _ = writeln!(scl, "  Sitewidth : {}", row.site_width);
            let _ = writeln!(scl, "  SubrowOrigin : {} NumSites : {}", row.x_min, row.num_sites());
            let _ = writeln!(scl, "End");
        }
        fs::write(base.with_extension("scl"), scl)?;
        Ok(())
    }
}

mod tests {
    use super::model::Netlist as OldNetlist;
    use super::{bookshelf as old_bs, def as old_def, verilog as old_v};
    use crate::generate::{generate, GeneratorConfig};
    use crate::{bookshelf, def, iccad, verilog, Design, Netlist, NetlistBuilder, NetlistError};
    use proptest::prelude::*;
    use proptest::TestRng;
    use std::collections::HashMap;
    use std::path::{Path, PathBuf};

    const BOOKSHELF_EXTS: [&str; 5] = ["nodes", "nets", "pl", "scl", "classes"];

    fn design(cells: usize, seed: u64) -> Design {
        let mut cfg = GeneratorConfig::named("oracle", cells);
        cfg.seed = seed;
        generate(&cfg).expect("generator succeeds")
    }

    /// `d` with every cell and net renamed through the characters the lexers
    /// have to work for: hyphens, `$`, brackets. Same ids throughout.
    fn renamed(d: &Design) -> Design {
        let nl = &d.netlist;
        let fancy = |name: &str, i: usize| match i % 5 {
            0 => format!("{name}-x"),
            1 => format!("{name}$"),
            2 => format!("{name}[{i}]"),
            _ => name.to_owned(),
        };
        let mut b = NetlistBuilder::new();
        for c in nl.cell_ids() {
            let (cell, name) = (nl.cell(c), fancy(nl.cell(c).name(), c.index()));
            let id = if nl.cell_is_input_port(c) {
                b.add_input_port(name)
            } else if nl.cell_is_output_port(c) {
                b.add_output_port(name)
            } else {
                let class = b.add_class(nl.class_of(c).clone());
                b.add_cell(name, class)
            };
            b.place(id.expect("names stay distinct"), cell.pos().x, cell.pos().y);
        }
        for n in nl.net_ids() {
            let net = b.add_net(fancy(nl.net(n).name(), n.index())).expect("names stay distinct");
            for &p in nl.net(n).pins() {
                b.connect(net, p).expect("pin ids carry over");
            }
        }
        Design { netlist: b.finish().expect("same topology"), ..d.clone() }
    }

    /// Comments, escaped instance names, multi-line instances and an `assign`
    /// alias port on top of what `write_verilog` emits.
    fn decorate_verilog(text: &str) -> String {
        let mut out = String::from("/* header\n   spanning lines */\n// a line comment\n");
        let first_output = text.lines().find_map(|l| l.strip_prefix("output ")).map(|l| l.trim_end_matches(';'));
        let mut instances = false;
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() {
                if let Some(port) = first_output {
                    out += &format!("output zz-alias;\nassign zz-alias = {port};\n");
                }
                instances = true;
            }
            let mut line = line.to_owned();
            if instances && line.contains(" ( ") {
                if i % 4 == 0 {
                    line = line.replacen(' ', " \\", 1);
                }
                if i % 5 == 0 {
                    line = line.replace(", ", ",\n    ");
                }
                if i % 7 == 0 {
                    line += " // trailing";
                }
            }
            out += &line;
            out.push('\n');
        }
        out
    }

    /// Comments and statements broken across lines on top of `write_def`.
    fn decorate_def(text: &str) -> String {
        let mut out = String::from("# generated for the oracle\n");
        for (i, line) in text.lines().enumerate() {
            let mut line = line.to_owned();
            if line.starts_with(" - ") {
                if i % 3 == 0 {
                    line = line.replace(" + PLACED", "\n     + PLACED");
                }
                if i % 4 == 0 {
                    line += " # note";
                }
            }
            out += &line;
            out.push('\n');
        }
        out
    }

    fn assert_same(new: &Netlist, old: &OldNetlist) {
        assert_eq!(new.num_cells(), old.num_cells());
        assert_eq!(new.num_pins(), old.num_pins());
        assert_eq!(new.num_nets(), old.num_nets());
        assert_eq!(new.num_classes(), old.num_classes());
        for c in new.cell_ids() {
            let (a, b) = (new.cell(c), old.cell(c));
            assert_eq!(a.name(), b.name());
            assert_eq!(a.class(), b.class());
            assert_eq!(new.class_of(c), old.class_of(c));
            assert_eq!((a.pos().x.to_bits(), a.pos().y.to_bits()), (b.pos().x.to_bits(), b.pos().y.to_bits()));
            assert_eq!(a.is_fixed(), b.is_fixed());
            assert_eq!(a.pins(), b.pins());
            assert_eq!(new.find_cell(a.name()), Some(c));
            assert_eq!(new.find_class(new.class_of(c).name()), old.find_class(old.class_of(c).name()));
        }
        for p in new.pin_ids() {
            let (a, b) = (new.pin(p), old.pin(p));
            assert_eq!((a.cell(), a.class_pin(), a.net()), (b.cell(), b.class_pin(), b.net()));
        }
        for n in new.net_ids() {
            let (a, b) = (new.net(n), old.net(n));
            assert_eq!(a.name(), b.name());
            assert_eq!(a.pins(), b.pins());
            assert_eq!(a.degree(), b.degree());
            assert_eq!(a.is_clock(), b.is_clock());
            assert_eq!(new.find_net(a.name()), Some(n));
            // A net name is a cell name only where the old table says so too.
            assert_eq!(new.find_cell(a.name()), old.find_cell(a.name()));
        }
        for absent in ["", "no such name", "g", "net", "\\"] {
            assert_eq!(new.find_cell(absent), old.find_cell(absent));
            assert_eq!(new.find_net(absent), old.find_net(absent));
            assert_eq!(new.find_class(absent), old.find_class(absent));
        }
    }

    fn scratch_dir(tag: &str, seed: u64) -> PathBuf {
        std::env::temp_dir().join(format!("dtp_oracle_{tag}_{}_{seed}", std::process::id()))
    }

    fn read(dir: &Path, name: &str, ext: &str) -> String {
        std::fs::read_to_string(dir.join(name).with_extension(ext)).expect("file written")
    }

    fn iccad_texts(d: &Design) -> (String, String) {
        (decorate_verilog(&verilog::write_verilog(&d.netlist, &d.name)), decorate_def(&def::write_def(d)))
    }

    fn bookshelf_texts(d: &Design, tag: &str, seed: u64) -> [String; 5] {
        let dir = scratch_dir(tag, seed);
        bookshelf::write_design(d, &dir).expect("bookshelf written");
        let texts = BOOKSHELF_EXTS.map(|ext| read(&dir, &d.name, ext));
        std::fs::remove_dir_all(&dir).ok();
        texts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn flat_netlist_equals_reference_field_for_field(cells in 20usize..3000, seed in 0u64..1_000_000) {
            let d = renamed(&design(cells, seed));
            // ICCAD bundle.
            let (vtext, dtext) = iccad_texts(&d);
            let mut new = verilog::parse_verilog(&vtext).expect("cursor reader parses");
            let mut old = old_v::parse_verilog(&vtext).expect("reference parses");
            assert_same(&new, &old);
            let (new_def, old_def) = (def::parse_def(&dtext).expect("cursor"), old_def::parse_def(&dtext).expect("reference"));
            prop_assert_eq!(new_def.design, &old_def.design);
            prop_assert_eq!(new_def.dbu_per_micron, old_def.dbu_per_micron);
            prop_assert_eq!(new_def.diearea, old_def.diearea);
            prop_assert_eq!(&new_def.rows, &old_def.rows);
            for (a, b) in [(&new_def.components, &old_def.components), (&new_def.pins, &old_def.pins)] {
                prop_assert_eq!(a.len(), b.len());
                for (a, b) in a.iter().zip(b) {
                    prop_assert_eq!((a.name, a.x.to_bits(), a.y.to_bits(), a.fixed), (&*b.name, b.x.to_bits(), b.y.to_bits(), b.fixed));
                }
            }
            prop_assert_eq!(def::apply_def(&mut new, &new_def).unwrap(), old_def::apply_def(&mut old, &old_def).unwrap());
            assert_same(&new, &old);
            // Bookshelf, with and without the class sidecar.
            let [nodes, nets, pl, scl, classes] = bookshelf_texts(&d, "fields", seed);
            prop_assert_eq!(bookshelf::parse_scl(&scl).unwrap(), old_bs::parse_scl(&scl).unwrap());
            let new_records = (bookshelf::parse_nodes(&nodes).unwrap(), bookshelf::parse_nets(&nets).unwrap(), bookshelf::parse_pl(&pl).unwrap());
            let old_records = (old_bs::parse_nodes(&nodes).unwrap(), old_bs::parse_nets(&nets).unwrap(), old_bs::parse_pl(&pl).unwrap());
            let new_map: HashMap<&str, &str> = classes.lines().skip(1).filter_map(|l| l.split_once(' ')).collect();
            let old_map = old_bs::parse_classes(&classes).unwrap();
            for sidecar in [true, false] {
                let (empty_new, empty_old) = (HashMap::new(), HashMap::new());
                let new = bookshelf::build_netlist_with_classes(&new_records.0, &new_records.1, &new_records.2, if sidecar { &new_map } else { &empty_new });
                let old = old_bs::build_netlist_with_classes(&old_records.0, &old_records.1, &old_records.2, if sidecar { &old_map } else { &empty_old });
                assert_same(&new.expect("cursor"), &old.expect("reference"));
            }
            let plain = bookshelf::build_netlist(&new_records.0, &new_records.1, &new_records.2).expect("cursor");
            assert_same(&plain, &old_bs::build_netlist(&old_records.0, &old_records.1, &old_records.2).expect("reference"));
        }

        #[test]
        fn writers_equal_reference_byte_for_byte(cells in 20usize..3000, seed in 0u64..1_000_000) {
            let d = renamed(&design(cells, seed));
            let (new_dir, old_dir) = (scratch_dir("new", seed), scratch_dir("old", seed));
            bookshelf::write_design(&d, &new_dir).unwrap();
            iccad::write_iccad15(&d, &new_dir).unwrap();
            old_bs::write_design(&d, &old_dir).unwrap();
            for ext in BOOKSHELF_EXTS {
                prop_assert!(read(&new_dir, &d.name, ext) == read(&old_dir, &d.name, ext), ".{} differs", ext);
            }
            prop_assert!(read(&new_dir, &d.name, "v") == old_v::write_verilog(&d.netlist, &d.name), ".v differs");
            prop_assert!(read(&new_dir, &d.name, "def") == old_def::write_def(&d), ".def differs");
            let sdc = &d.constraints;
            prop_assert_eq!(read(&new_dir, &d.name, "sdc"), format!(
                "create_clock -period {p} -name clk [get_ports clk]\nset_input_delay {i} -clock clk [all_inputs]\nset_output_delay {o} -clock clk [all_outputs]\n",
                p = sdc.clock_period, i = sdc.default_input_delay, o = sdc.default_output_delay
            ));
            // The in-memory twins agree with the streamed files.
            prop_assert!(verilog::write_verilog(&d.netlist, &d.name) == read(&new_dir, &d.name, "v"));
            prop_assert!(def::write_def(&d) == read(&new_dir, &d.name, "def"));
            for dir in [new_dir, old_dir] {
                std::fs::remove_dir_all(dir).ok();
            }
        }

        #[test]
        fn write_read_write_is_a_fixed_point(cells in 20usize..1500, seed in 0u64..1_000_000) {
            let d = design(cells, seed);
            let dirs = [scratch_dir("fp0", seed), scratch_dir("fp1", seed), scratch_dir("fp2", seed)];
            // Bookshelf: already the first rewrite reproduces the files.
            bookshelf::write_design(&d, &dirs[0]).unwrap();
            let back = bookshelf::read_design(&dirs[0].join(&d.name)).unwrap();
            bookshelf::write_design(&back, &dirs[1]).unwrap();
            for ext in BOOKSHELF_EXTS {
                prop_assert!(read(&dirs[0], &d.name, ext) == read(&dirs[1], &d.name, ext), ".{} moved", ext);
            }
            // ICCAD: the first write rounds positions to DEF units and names
            // port nets after their ports; from then on nothing moves.
            iccad::write_iccad15(&d, &dirs[0]).unwrap();
            let once = iccad::read_iccad15(&dirs[0].join(&d.name)).unwrap();
            iccad::write_iccad15(&once, &dirs[1]).unwrap();
            let twice = iccad::read_iccad15(&dirs[1].join(&d.name)).unwrap();
            iccad::write_iccad15(&twice, &dirs[2]).unwrap();
            for ext in ["v", "def", "sdc"] {
                prop_assert!(read(&dirs[1], &d.name, ext) == read(&dirs[2], &d.name, ext), ".{} moved", ext);
            }
            for dir in dirs {
                std::fs::remove_dir_all(dir).ok();
            }
        }
    }

    /// One mutation of `text`: bit flips, a deleted line, a truncation, or a
    /// token the numeric and structural checks exist for.
    fn mutate(text: &str, case: usize, rng: &mut TestRng) -> String {
        const GARBAGE: [&str; 12] = [
            " nan ", " inf ", " -inf ", " 1e999 ", " /* ", " ; ", " ( ", " - ", "\nNetDegree : 1152921504606846976 n0\n",
            "\nUNITS DISTANCE MICRONS 0 ;\n", "\nCOMPONENTS 99999999999 ;\n", "\u{a0}\u{2028}é",
        ];
        let mut bytes = text.as_bytes().to_vec();
        let at = |rng: &mut TestRng, len: usize| (rng.next_u64() % len.max(1) as u64) as usize;
        match case % 4 {
            0 => {
                for _ in 0..=case % 3 {
                    let i = at(rng, bytes.len());
                    bytes[i] ^= 1 << (rng.next_u64() % 8);
                }
            }
            1 => {
                let lines: Vec<&str> = text.lines().collect();
                let skip = at(rng, lines.len());
                bytes = lines.iter().enumerate().filter(|(i, _)| *i != skip).flat_map(|(_, l)| l.bytes().chain([b'\n'])).collect();
            }
            2 => bytes.truncate((case / 4 * 97) % bytes.len().max(1)),
            _ => {
                let i = at(rng, bytes.len());
                let junk = GARBAGE[(rng.next_u64() % GARBAGE.len() as u64) as usize];
                bytes.splice(i..i, junk.bytes());
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// 10⁴ mutated inputs per format: every reader returns `Ok` or a typed
    /// error whose `Parse` variant names a line ≥ 1 — never a panic, and (by
    /// surviving the absurd headers) never an allocation sized by one.
    #[test]
    fn fuzz_mutated_inputs_parse_or_fail_typed_never_panic() {
        const CASES: usize = 10_000;
        let d = design(40, 7);
        let (vtext, dtext) = iccad_texts(&d);
        let [nodes, nets, pl, scl, classes] = bookshelf_texts(&d, "fuzz", 7);
        let base = verilog::parse_verilog(&vtext).expect("base parses");
        // (accepted, rejected) per format: a fuzz that only ever sees one of
        // the two outcomes is not exercising the readers.
        let mut outcomes: HashMap<&str, (usize, usize)> = HashMap::new();
        let mut check = |format: &'static str, r: Result<(), NetlistError>| {
            let seen = outcomes.entry(format).or_default();
            match r {
                Err(NetlistError::Parse { line: 0, kind, message }) => panic!("{format}: {kind} error without a line: {message}"),
                Err(NetlistError::Io(e)) => panic!("{format}: {e}"),
                Err(_) => seen.1 += 1,
                Ok(()) => seen.0 += 1,
            }
        };
        let mut rng = TestRng::seed_from_u64(0xF022);
        for case in 0..CASES {
            check("verilog", verilog::parse_verilog(&mutate(&vtext, case, &mut rng)).map(drop));
            let text = mutate(&dtext, case, &mut rng);
            check("def", def::parse_def(&text).and_then(|data| def::apply_def(&mut base.clone(), &data)).map(drop));
            let build = |nodes: &str, nets: &str, pl: &str, classes: &str| {
                let map = bookshelf::parse_classes(classes)?;
                let records = (bookshelf::parse_nodes(nodes)?, bookshelf::parse_nets(nets)?, bookshelf::parse_pl(pl)?);
                bookshelf::build_netlist_with_classes(&records.0, &records.1, &records.2, &map).map(drop)
            };
            check("nodes", build(&mutate(&nodes, case, &mut rng), &nets, &pl, &classes));
            check("nets", build(&nodes, &mutate(&nets, case, &mut rng), &pl, &classes));
            check("pl", build(&nodes, &nets, &mutate(&pl, case, &mut rng), &classes));
            check("classes", build(&nodes, &nets, &pl, &mutate(&classes, case, &mut rng)));
            check("scl", bookshelf::parse_scl(&mutate(&scl, case, &mut rng)).map(drop));
        }
        assert_eq!(outcomes.len(), 7);
        for (format, (accepted, rejected)) in outcomes {
            assert!(accepted > 0 && rejected > 0, "{format}: {accepted} accepted, {rejected} rejected");
        }
    }

    #[test]
    fn hostile_headers_and_numbers_are_parse_errors() {
        let parse_line = |r: Result<(), NetlistError>| match r {
            Err(NetlistError::Parse { kind, line, .. }) => (kind, line),
            other => panic!("expected a parse error, got {other:?}"),
        };
        assert_eq!(parse_line(bookshelf::parse_nets("UCLA nets 1.0\nNetDegree : 1152921504606846976 n0\n").map(drop)), ("nets", 2));
        assert_eq!(parse_line(verilog::parse_verilog("module t (a);\ninput a;\n/* never closed\n").map(drop)), ("verilog", 3));
        assert_eq!(parse_line(def::parse_def("VERSION 5.8 ;\nUNITS DISTANCE MICRONS 0 ;\n").map(drop)), ("def", 2));
        assert_eq!(parse_line(def::parse_def("UNITS DISTANCE MICRONS nan ;\n").map(drop)), ("def", 1));
        assert_eq!(parse_line(def::parse_def("COMPONENTS 1 ;\n - u X + PLACED ( nan 0 ) N ;\nEND COMPONENTS\n").map(drop)), ("def", 2));
        assert_eq!(parse_line(def::parse_def("DIEAREA ( 0 0 ) ( 0 10 ) ;\n").map(drop)), ("def", 1));
        assert_eq!(parse_line(def::parse_def("COMPONENTS 1 ;\n - u X + PLACED ( 1 2 ) N ;\n").map(drop)), ("def", 3));
        assert_eq!(parse_line(def::parse_def("PINS 1 ;\n").map(drop)), ("def", 2));
        assert_eq!(parse_line(bookshelf::parse_nodes("a inf 1\n").map(drop)), ("nodes", 1));
        assert_eq!(parse_line(bookshelf::parse_pl("a 1 nan : N\n").map(drop)), ("pl", 1));
        // An honest header that merely overstates is only a smaller reservation.
        assert!(def::parse_def("COMPONENTS 99999999999 ;\nEND COMPONENTS\n").is_ok());
    }
}
