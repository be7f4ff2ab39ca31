//! ICCAD-2015 contest bundle I/O: `<prefix>.v` (connectivity) +
//! `<prefix>.def` (floorplan + placement) + optional `<prefix>.sdc`
//! (constraints) — the release format of the benchmark suite the paper
//! evaluates on. The `.lib` file is handled separately by `dtp-liberty`.

use crate::bookshelf::create;
use crate::def::{apply_def, emit_def, parse_def};
use crate::design::Design;
use crate::error::NetlistError;
use crate::sdc::Sdc;
use crate::stdcells::{ROW_HEIGHT, SITE_WIDTH};
use crate::verilog::{emit_verilog, parse_verilog};
use std::fs;
use std::io::Write;
use std::path::Path;

/// Reads `<prefix>.v` + `<prefix>.def` (+ `<prefix>.sdc`) into a [`Design`].
///
/// # Errors
///
/// Returns I/O errors for missing files and parse errors for malformed
/// content; DEF components must all exist in the Verilog netlist.
pub fn read_iccad15(prefix: &Path) -> Result<Design, NetlistError> {
    // One text in memory at a time: the Verilog is dropped before the DEF is
    // read.
    let mut netlist = parse_verilog(&fs::read_to_string(prefix.with_extension("v"))?)?;
    let dtext = fs::read_to_string(prefix.with_extension("def"))?;
    let def = parse_def(&dtext)?;
    apply_def(&mut netlist, &def)?;
    if def.diearea.width() <= 0.0 {
        // `parse_def` rejects an empty DIEAREA, so this one is missing.
        return Err(NetlistError::Parse { kind: "def", line: 1, message: "no DIEAREA statement".into() });
    }
    let sdc = match fs::read_to_string(prefix.with_extension("sdc")) {
        Ok(text) => Sdc::parse(&text)?,
        Err(_) => Sdc::default(),
    };
    let name = if def.design.is_empty() {
        prefix
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "design".to_owned())
    } else {
        def.design.to_owned()
    };
    if def.rows.is_empty() {
        // DEF without ROW statements: synthesize uniform rows.
        return Ok(Design::new(name, netlist, def.diearea, ROW_HEIGHT, SITE_WIDTH, sdc));
    }
    Ok(Design { name, netlist, region: def.diearea, rows: def.rows, constraints: sdc })
}

/// Writes `<dir>/<design.name>.{v,def,sdc}`, each streamed through one write
/// buffer.
///
/// # Errors
///
/// Returns I/O errors from file creation and writing.
pub fn write_iccad15(design: &Design, dir: &Path) -> Result<(), NetlistError> {
    fs::create_dir_all(dir)?;
    let base = dir.join(&design.name);
    let mut out = create(&base, "v")?;
    emit_verilog(&design.netlist, &design.name, &mut out)?;
    out.flush()?;
    let mut out = create(&base, "def")?;
    emit_def(design, &mut out)?;
    out.flush()?;
    let sdc = &design.constraints;
    let mut text = format!(
        "create_clock -period {} -name {} [get_ports {}]\n",
        sdc.clock_period,
        sdc.clock_name,
        sdc.clock_port.as_deref().unwrap_or("clk")
    );
    if sdc.default_input_delay != 0.0 {
        text.push_str(&format!(
            "set_input_delay {} -clock {} [all_inputs]\n",
            sdc.default_input_delay, sdc.clock_name
        ));
    }
    if sdc.default_output_delay != 0.0 {
        text.push_str(&format!(
            "set_output_delay {} -clock {} [all_outputs]\n",
            sdc.default_output_delay, sdc.clock_name
        ));
    }
    fs::write(base.with_extension("sdc"), text)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GeneratorConfig};
    use crate::stats::NetlistStats;

    #[test]
    fn iccad15_bundle_roundtrip() {
        let design = generate(&GeneratorConfig::named("iccadrt", 150)).unwrap();
        let dir = std::env::temp_dir().join("dtp_iccad15_rt");
        write_iccad15(&design, &dir).unwrap();
        let back = read_iccad15(&dir.join("iccadrt")).unwrap();
        let s1 = NetlistStats::of(&design.netlist);
        let s2 = NetlistStats::of(&back.netlist);
        assert_eq!(s1.num_cells, s2.num_cells);
        assert_eq!(s1.num_registers, s2.num_registers);
        assert_eq!(back.name, "iccadrt");
        // Floorplan and constraints survive.
        assert!((back.region.xh - design.region.xh).abs() < 1e-3);
        assert_eq!(back.rows.len(), design.rows.len());
        assert_eq!(back.constraints.clock_period, design.constraints.clock_period);
        // Every cell keeps its position to DEF precision.
        for c in design.netlist.cell_ids() {
            let name = design.netlist.cell(c).name();
            let c2 = back.netlist.find_cell(name).unwrap();
            let p1 = design.netlist.cell(c).pos();
            let p2 = back.netlist.cell(c2).pos();
            assert!((p1.x - p2.x).abs() < 2e-3 && (p1.y - p2.y).abs() < 2e-3, "{name}");
        }
    }

    #[test]
    fn missing_files_are_io_errors() {
        let r = read_iccad15(Path::new("/nonexistent/prefix"));
        assert!(matches!(r, Err(NetlistError::Io(_))));
    }
}
