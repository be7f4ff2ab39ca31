//! The top-level library container.

use crate::cell::LibCell;
use std::collections::HashMap;

/// An NLDM cell library plus the interconnect RC technology parameters that a
/// real flow would read from a technology file. Times are in ps, capacitances
/// in fF, resistances in Ω (so Ω·fF = ps·10⁻³; the units are chosen so that
/// `wire_res_per_um · wire_cap_per_um · length²` comes out in ps).
#[derive(Clone, Debug)]
pub struct Library {
    /// Library name.
    pub name: String,
    /// Wire resistance per micron (kΩ/µm in these units; see struct docs).
    pub wire_res_per_um: f64,
    /// Wire capacitance per micron (fF/µm).
    pub wire_cap_per_um: f64,
    cells: Vec<LibCell>,
    index: HashMap<String, usize>,
}

impl Library {
    /// Creates an empty library with default interconnect parameters.
    pub fn new(name: impl Into<String>) -> Self {
        Library {
            name: name.into(),
            // Chosen so that at the synthetic die sizes (~100 µm across) a
            // typical net's wire delay is comparable to — but does not
            // completely dominate — a gate delay, the regime in which
            // timing-driven *placement* has leverage.
            wire_res_per_um: 0.1,
            wire_cap_per_um: 0.2,
            cells: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Adds a cell, replacing any cell of the same name.
    pub fn add_cell(&mut self, cell: LibCell) {
        if let Some(&i) = self.index.get(cell.name()) {
            self.cells[i] = cell;
        } else {
            self.index.insert(cell.name().to_owned(), self.cells.len());
            self.cells.push(cell);
        }
    }

    /// Looks up a cell by name.
    pub fn cell(&self, name: &str) -> Option<&LibCell> {
        self.index.get(name).map(|&i| &self.cells[i])
    }

    /// All cells in insertion order.
    pub fn cells(&self) -> &[LibCell] {
        &self.cells
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut lib = Library::new("test");
        lib.add_cell(LibCell::new("INV_X1", 1.0));
        lib.add_cell(LibCell::new("BUF_X1", 2.0));
        assert_eq!(lib.num_cells(), 2);
        assert_eq!(lib.cell("INV_X1").unwrap().area(), 1.0);
        assert!(lib.cell("NOPE").is_none());
    }

    #[test]
    fn replace_same_name() {
        let mut lib = Library::new("test");
        lib.add_cell(LibCell::new("INV_X1", 1.0));
        lib.add_cell(LibCell::new("INV_X1", 3.0));
        assert_eq!(lib.num_cells(), 1);
        assert_eq!(lib.cell("INV_X1").unwrap().area(), 3.0);
    }
}
