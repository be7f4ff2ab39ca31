//! Circuit netlist data model for the differentiable-timing-driven placement
//! reproduction (Guo & Lin, DAC 2022).
//!
//! This crate is the structural substrate everything else builds on. It provides:
//!
//! - [`Netlist`]: a flat circuit model (cell classes, cells, pins, nets):
//!   `u32` id newtypes, one array per attribute, CSR rows for cell→pins and
//!   net→pins, names in one arena per kind — the data layout a GPU
//!   placement/timing kernel would use — read through the `Copy` views
//!   [`Cell`], [`Net`] and [`Pin`].
//! - [`NetlistBuilder`]: a validating builder that enforces the single-driver
//!   invariant and connectivity consistency.
//! - [`Design`]: a placed design — netlist plus core region, placement rows and
//!   timing constraints ([`Sdc`]).
//! - [`generate`]: deterministic synthetic benchmark generation, including the
//!   scaled "superblue proxy" designs used to regenerate the paper's Table 2
//!   and Table 3 (the real ICCAD-2015 superblue suite is proprietary contest
//!   data; see `DESIGN.md` for the substitution rationale).
//! - [`bookshelf`], [`verilog`], [`iccad`]: readers/writers for the
//!   Bookshelf subset (`.nodes`, `.nets`, `.pl`, `.scl`) and for the
//!   ICCAD-2015 bundle (`.v` + `.def` + `.sdc`; [`iccad`] reads and writes
//!   the DEF half through an in-crate module), so real benchmark data can be
//!   dropped in when available. The readers share one zero-copy cursor and
//!   answer malformed input with [`NetlistError::Parse`], never a panic.
//! - [`sdc`]: a parser for the SDC subset used by timing-driven placement
//!   (`create_clock`, `set_input_delay`, `set_output_delay`).
//!
//! # Example
//!
//! ```
//! use dtp_netlist::{NetlistBuilder, CellClass, PinDir};
//!
//! # fn main() -> Result<(), dtp_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new();
//! let inv = b.add_class(
//!     CellClass::new("INV_X1", 1.0, 2.0)
//!         .with_pin("A", PinDir::Input, 0.25, 1.0)
//!         .with_pin("Y", PinDir::Output, 0.75, 1.0),
//! );
//! let u1 = b.add_cell("u1", inv)?;
//! let u2 = b.add_cell("u2", inv)?;
//! let n = b.add_net("n1")?;
//! b.connect_by_name(n, u1, "Y")?;
//! b.connect_by_name(n, u2, "A")?;
//! let netlist = b.finish()?;
//! assert_eq!(netlist.num_cells(), 2);
//! assert_eq!(netlist.net_driver(n), Some(netlist.find_pin(u1, "Y").unwrap()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod class;
mod cursor;
mod design;
mod error;
mod geom;
mod ids;
mod model;
#[cfg(test)]
mod reference;
mod stats;

pub mod bookshelf;
mod def;
pub mod generate;
pub mod iccad;
pub mod sdc;
pub mod stdcells;
pub mod verilog;

pub use builder::NetlistBuilder;
pub use class::{CellClass, ClassId, ClassPinId, PinDir, PinKind, PinSpec};
pub use design::{Design, Row};
pub use error::NetlistError;
pub use geom::{Point, Rect};
pub use ids::{CellId, NetId, PinId};
pub use model::{Cell, Net, Netlist, Pin};
pub use sdc::Sdc;
pub use stats::NetlistStats;
