//! NLDM (non-linear delay model) cell library for differentiable timing.
//!
//! The paper's cell-delay propagation (§3.5.2) evaluates per-arc look-up
//! tables `cell_rise/fall` and `rise/fall_transition` at `(input slew, output
//! load)` query points, and needs the *gradients* of those queries for
//! backpropagation (Fig. 6). This crate provides:
//!
//! - [`Lut2`]/[`Lut1`]: differentiable bilinear/linear look-up tables with
//!   extrapolation, returning value and partial derivatives in one call.
//! - [`TimingArc`], [`LibCell`], [`Library`]: the NLDM library model,
//!   including setup/hold constraint arcs for registers and per-pin input
//!   capacitances (the sink loads of the Elmore model).
//! - [`ArcTables`]: the tables of a list of arcs flattened into one
//!   contiguous arena, evaluated bit-identically to [`TimingArc::eval`] —
//!   what the timing sweeps query.
//! - [`parse`]: a Liberty-subset parser (group syntax, `values(...)` tables),
//!   and [`write()`]: a writer that round-trips with the parser.
//! - [`synth`]: a synthetic PDK generated from the canonical standard-cell
//!   table in `dtp-netlist::stdcells` — the substitute for a proprietary
//!   foundry `.lib` (see `DESIGN.md`).
//!
//! # Example
//!
//! ```
//! use dtp_liberty::{synth, ArcKind};
//!
//! let lib = synth::synthetic_pdk();
//! let inv = lib.cell("INV_X1").expect("INV_X1 exists");
//! let arc = inv.arcs().iter().find(|a| a.kind == ArcKind::Combinational).unwrap();
//! let eval = arc.eval(10.0, 2.0); // 10 ps input slew, 2 fF load
//! assert!(eval.delay > 0.0);
//! assert!(eval.d_delay_d_load > 0.0); // more load, more delay
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arc;
mod cell;
mod error;
mod library;
mod lut;
mod parser;
mod tables;
mod writer;

pub mod synth;

pub use arc::{ArcEval, ArcKind, TimingArc, Unate};
pub use cell::{LibCell, LibPin};
pub use error::LibertyError;
pub use library::Library;
pub use lut::{Lut1, Lut2};
pub use parser::parse;
pub use tables::ArcTables;
pub use writer::write;
