//! Gate-level structural Verilog subset — the connectivity format of the
//! ICCAD-2015 incremental-timing-driven-placement contest (the paper's
//! benchmark suite ships as `.v` + `.def` + `.lib` + `.sdc`).
//!
//! Supported subset:
//!
//! ```verilog
//! module top (a, b, out);
//! input a;
//! input b;
//! output out;
//! wire n1;
//!
//! NAND2_X1 g1 ( .A(a), .B(b), .Y(n1) );
//! INV_X1 g2 ( .A(n1), .Y(out) );
//! endmodule
//! ```
//!
//! Instances use named port connections only (the contest style). Cell types
//! resolve against the canonical standard-cell table ([`crate::stdcells`]);
//! unknown types are an error.

use crate::builder::NetlistBuilder;
use crate::class::{CellClass, ClassId};
use crate::cursor::{is_word, Cursor};
use crate::error::NetlistError;
use crate::ids::NetId;
use crate::model::Netlist;
use crate::stdcells;
use std::collections::HashMap;
use std::io::{self, Write};

/// Parses the Verilog subset, resolving instance types through
/// [`stdcells`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on syntax errors,
/// [`NetlistError::UnknownName`] for unresolvable cell types, and builder
/// errors for connectivity problems.
pub fn parse_verilog(text: &str) -> Result<Netlist, NetlistError> {
    parse_verilog_with(text, |name| stdcells::find(name).map(|s| s.to_class()))
}

/// The recursive-descent state: the cursor, the builder it fills, and the
/// names that `assign` made aliases of a net (all other names are the
/// builder's own).
struct Reader<'a> {
    cur: Cursor<'a>,
    b: NetlistBuilder,
    aliases: HashMap<&'a str, NetId>,
}

impl<'a> Reader<'a> {
    fn next(&mut self) -> Result<Option<&'a str>, NetlistError> {
        self.cur.verilog_token()
    }

    fn unexpected(&self, token: Option<&str>, place: &str) -> NetlistError {
        self.cur.err(match token {
            Some(t) => format!("unexpected `{t}` {place}"),
            None => format!("unexpected end of input {place}"),
        })
    }

    fn expect_symbol(&mut self, symbol: &str) -> Result<(), NetlistError> {
        match self.next()? {
            Some(t) if t == symbol => Ok(()),
            other => Err(self.unexpected(other, &format!("(expected `{symbol}`)"))),
        }
    }

    fn expect_word(&mut self) -> Result<&'a str, NetlistError> {
        match self.next()? {
            Some(t) if is_word(t) => Ok(t),
            other => Err(self.unexpected(other, "(expected an identifier)")),
        }
    }

    /// Consumes a comma-separated identifier list terminated by `;`.
    fn word_list(&mut self, mut each: impl FnMut(&mut Self, &'a str) -> Result<(), NetlistError>) -> Result<(), NetlistError> {
        loop {
            match self.next()? {
                Some(";") => return Ok(()),
                Some(",") => {}
                Some(t) if is_word(t) => each(self, t)?,
                other => return Err(self.unexpected(other, "in list")),
            }
        }
    }

    fn find_net(&self, name: &str) -> Option<NetId> {
        self.b.as_netlist().find_net(name).or_else(|| self.aliases.get(name).copied())
    }

    /// The net `name` refers to, created if the name is new.
    fn net(&mut self, name: &'a str) -> NetId {
        match self.aliases.get(name) {
            Some(&n) => n,
            None => self.b.net(name),
        }
    }
}

/// Like [`parse_verilog`], with a custom cell-class resolver (asked once per
/// distinct type name).
///
/// # Errors
///
/// See [`parse_verilog`].
pub(crate) fn parse_verilog_with(
    text: &str,
    resolve: impl Fn(&str) -> Option<CellClass>,
) -> Result<Netlist, NetlistError> {
    let cur = Cursor::new("verilog", text);
    // Table sizes from the file length (`TYPE inst ( .P(net), … );` runs to
    // ≈ 60 bytes a cell in contest files); a wrong guess only costs a regrow.
    let (cells, pins) = (cur.clamp_count(usize::MAX, 48), cur.clamp_count(usize::MAX, 20));
    let mut r = Reader { cur, b: NetlistBuilder::with_capacity(cells, cells, pins), aliases: HashMap::new() };
    // module NAME ( ports... ) ;
    match r.next()? {
        Some("module") => {}
        other => return Err(r.unexpected(other, "(expected `module`)")),
    }
    let _module_name = r.expect_word()?;
    r.expect_symbol("(")?;
    loop {
        match r.next()? {
            Some(")") => break,
            Some(",") => {}
            Some(t) if is_word(t) => {}
            other => return Err(r.unexpected(other, "in port list")),
        }
    }
    r.expect_symbol(";")?;

    let mut inputs: Vec<&str> = Vec::new();
    let mut outputs: Vec<&str> = Vec::new();
    let mut classes: HashMap<&str, ClassId> = HashMap::new();

    // Declarations and instances until `endmodule`.
    loop {
        match r.next()? {
            None | Some("endmodule") => break,
            Some("input") => r.word_list(|_, w| {
                inputs.push(w);
                Ok(())
            })?,
            Some("output") => r.word_list(|_, w| {
                outputs.push(w);
                Ok(())
            })?,
            Some("wire") => r.word_list(|r, w| {
                r.net(w);
                Ok(())
            })?,
            Some("assign") => {
                // `assign a = b;` — the subset treats it as net aliasing
                // (used for ports that share a net, e.g. a PI feeding a PO
                // directly). Both names refer to the same net afterwards.
                let lhs = r.expect_word()?;
                r.expect_symbol("=")?;
                let rhs = r.expect_word()?;
                r.expect_symbol(";")?;
                let net = match (r.find_net(lhs), r.find_net(rhs)) {
                    (Some(n), None) | (None, Some(n)) => n,
                    (None, None) => r.b.add_net(rhs)?,
                    (Some(_), Some(_)) => {
                        return Err(r.cur.err(format!(
                            "assign between two existing nets `{lhs}` and `{rhs}` is unsupported"
                        )))
                    }
                };
                for name in [lhs, rhs] {
                    if r.b.as_netlist().find_net(name).is_none() {
                        r.aliases.insert(name, net);
                    }
                }
            }
            Some(cell_type) if is_word(cell_type) => {
                // CELLTYPE instname ( .PIN(net), ... ) ;
                let inst = r.expect_word()?;
                let class = match classes.get(cell_type) {
                    Some(&id) => id,
                    None => {
                        let class = resolve(cell_type)
                            .ok_or_else(|| NetlistError::UnknownName(cell_type.to_owned()))?;
                        *classes.entry(cell_type).or_insert(r.b.add_class(class))
                    }
                };
                let cell = r.b.add_cell(inst, class)?;
                r.expect_symbol("(")?;
                loop {
                    match r.next()? {
                        Some(")") => break,
                        Some(",") => {}
                        Some(".") => {
                            let pin = r.expect_word()?;
                            r.expect_symbol("(")?;
                            let net_name = r.expect_word()?;
                            r.expect_symbol(")")?;
                            let net = r.net(net_name);
                            r.b.connect_by_name(net, cell, pin)?;
                        }
                        other => return Err(r.unexpected(other, "in connections")),
                    }
                }
                r.expect_symbol(";")?;
            }
            other => return Err(r.unexpected(other, "at top level")),
        }
    }

    // Whatever follows `endmodule` is not parsed but still has to lex.
    while r.next()?.is_some() {}

    // Create port pseudo-cells and attach them to the nets of the same name.
    for name in inputs {
        let port = r.b.add_input_port(name)?;
        let net = r.net(name);
        r.b.connect_port(net, port)?;
    }
    for name in outputs {
        let port = r.b.add_output_port(name)?;
        let net = r.net(name);
        r.b.connect_port(net, port)?;
    }
    r.b.finish()
}

/// Serializes a netlist to the Verilog subset. Port pseudo-cells become
/// module ports; since a Verilog module port *is* a net, every net touching
/// a port is emitted under that port's name, and additional ports on the
/// same net become `assign` aliases.
pub fn write_verilog(nl: &Netlist, module_name: &str) -> String {
    let mut out = Vec::new();
    emit_verilog(nl, module_name, &mut out).expect("writing to memory cannot fail");
    String::from_utf8(out).expect("names are UTF-8")
}

/// [`write_verilog`] into any writer (the bundle writer streams to a file).
pub(crate) fn emit_verilog(nl: &Netlist, module_name: &str, out: &mut impl Write) -> io::Result<()> {
    let ports = || nl.cell_ids().filter(|&c| nl.cell_is_port(c));
    let inputs = || ports().filter(|&c| nl.cell_is_input_port(c));
    let outputs = || ports().filter(|&c| !nl.cell_is_input_port(c));
    // Net index → the port cell it is named after (the first port on it).
    let mut alias = vec![None; nl.num_nets()];
    let mut assigns = Vec::new();
    for c in ports() {
        if let Some(net) = nl.cell(c).pins().first().and_then(|&p| nl.pin(p).net()) {
            match alias[net.index()] {
                None => alias[net.index()] = Some(c),
                Some(canonical) => assigns.push((c, canonical)),
            }
        }
    }
    write!(out, "module {module_name} (")?;
    for (i, c) in inputs().chain(outputs()).enumerate() {
        write!(out, "{}{}", if i == 0 { "" } else { ", " }, nl.cell(c).name())?;
    }
    writeln!(out, ");")?;
    for c in inputs() {
        writeln!(out, "input {};", nl.cell(c).name())?;
    }
    for c in outputs() {
        writeln!(out, "output {};", nl.cell(c).name())?;
    }
    for n in nl.net_ids().filter(|n| alias[n.index()].is_none()) {
        writeln!(out, "wire {};", nl.net(n).name())?;
    }
    for &(l, r) in &assigns {
        writeln!(out, "assign {} = {};", nl.cell(l).name(), nl.cell(r).name())?;
    }
    writeln!(out)?;
    for c in nl.cell_ids().filter(|&c| !nl.cell_is_port(c)) {
        write!(out, "{} {} ( ", nl.class_of(c).name(), nl.cell(c).name())?;
        let mut first = true;
        for &p in nl.cell(c).pins() {
            if let Some(net) = nl.pin(p).net() {
                let net_name = alias[net.index()].map_or(nl.net(net).name(), |port| nl.cell(port).name());
                write!(out, "{}.{}({net_name})", if first { "" } else { ", " }, nl.pin_spec(p).name)?;
                first = false;
            }
        }
        writeln!(out, " );")?;
    }
    writeln!(out, "endmodule")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GeneratorConfig};
    use crate::stats::NetlistStats;

    const SMALL: &str = r#"
// a tiny design
module top (a, b, out);
input a;
input b;
output out;
wire n1;

NAND2_X1 g1 ( .A(a), .B(b), .Y(n1) );
INV_X1 g2 ( .A(n1), .Y(out) );
endmodule
"#;

    #[test]
    fn parse_small_module() {
        let nl = parse_verilog(SMALL).unwrap();
        nl.validate().unwrap();
        // Nets: a, b, n1, out.
        assert_eq!(nl.num_nets(), 4);
        let s = NetlistStats::of(&nl);
        assert_eq!(s.num_cells, 2);
        assert_eq!(s.num_ports, 3);
        let g1 = nl.find_cell("g1").unwrap();
        assert_eq!(nl.class_of(g1).name(), "NAND2_X1");
        // Connectivity: g1/Y drives n1, g2/A sinks it.
        let n1 = nl.find_net("n1").unwrap();
        assert_eq!(nl.net_driver(n1), nl.find_pin(g1, "Y"));
    }

    #[test]
    fn unknown_cell_type_is_error() {
        let bad = "module t (x); input x; FOO_X9 u ( .A(x) ); endmodule";
        assert!(matches!(parse_verilog(bad), Err(NetlistError::UnknownName(_))));
    }

    #[test]
    fn comments_and_block_comments_skipped() {
        let src = "/* header\nspanning lines */\nmodule t (a);\ninput a; // trailing\nINV_X1 g ( .A(a), .Y(z) );\nwire z;\nendmodule";
        let nl = parse_verilog(src).unwrap();
        assert_eq!(nl.num_nets(), 2);
    }

    #[test]
    fn syntax_error_has_line() {
        let bad = "module t (a);\ninput a;\nINV_X1 g ( .A a) );\nendmodule";
        match parse_verilog(bad) {
            Err(NetlistError::Parse { kind: "verilog", line, .. }) => assert!(line >= 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn hyphenated_identifiers_parse_but_stray_hyphen_errors() {
        // `dtp gen` design names may contain `-` and the ICCAD writer emits
        // them verbatim in the module header — the reader must accept them.
        let src = "module obs-ci (a);\ninput a;\nwire z-1;\nINV_X1 g-0 ( .A(a), .Y(z-1) );\nendmodule";
        let nl = parse_verilog(src).unwrap();
        nl.validate().unwrap();
        assert!(nl.find_cell("g-0").is_some());
        assert!(nl.find_net("z-1").is_some());
        // A `-` that does not continue an identifier is still a syntax error.
        let bad = "module t (a);\ninput a;\n- INV_X1 g ( .A(a), .Y(z) );\nwire z;\nendmodule";
        assert!(matches!(parse_verilog(bad), Err(NetlistError::Parse { kind: "verilog", .. })));
    }

    #[test]
    fn missing_comma_between_connections_is_tolerated() {
        // Lenient extension: connections without separating commas parse.
        let src = "module t (a);\ninput a;\nwire z;\nINV_X1 g ( .A(a) .Y(z) );\nendmodule";
        let nl = parse_verilog(src).unwrap();
        nl.validate().unwrap();
    }

    #[test]
    fn roundtrip_generated_design() {
        let d = generate(&GeneratorConfig::named("vrt", 150)).unwrap();
        let text = write_verilog(&d.netlist, "vrt");
        let back = parse_verilog(&text).unwrap();
        back.validate().unwrap();
        let s1 = NetlistStats::of(&d.netlist);
        let s2 = NetlistStats::of(&back);
        assert_eq!(s1.num_cells, s2.num_cells);
        assert_eq!(s1.num_registers, s2.num_registers);
        // A Verilog module port is always a net, so ports that were left
        // unconnected in the generator come back as single-pin nets.
        let dangling_ports = d
            .netlist
            .cell_ids()
            .filter(|&c| {
                d.netlist.cell_is_port(c)
                    && d.netlist.cell(c).pins().iter().all(|&p| d.netlist.pin(p).net().is_none())
            })
            .count();
        assert_eq!(s2.num_nets, s1.num_nets + dangling_ports);
        assert_eq!(s2.num_pins, s1.num_pins + dangling_ports);
        // Per-net degree preserved (port-adjacent nets are renamed to the
        // port name by the writer, so match through a pin instead).
        for n in d.netlist.net_ids() {
            let driver = d.netlist.net(n).pins()[0];
            let cell_name = d.netlist.cell(d.netlist.pin(driver).cell()).name();
            let pin_name = d.netlist.pin_spec(driver).name.clone();
            let c2 = back.find_cell(cell_name).unwrap();
            let p2 = back.find_pin(c2, &pin_name).unwrap();
            let n2 = back.pin(p2).net().unwrap();
            assert_eq!(d.netlist.net(n).degree(), back.net(n2).degree());
        }
    }

    #[test]
    fn escaped_identifiers() {
        let src = "module t (a);\ninput a;\nwire z;\nINV_X1 \\g$1 ( .A(a), .Y(z) );\nendmodule";
        let nl = parse_verilog(src).unwrap();
        assert!(nl.find_cell("g$1").is_some());
    }
}
