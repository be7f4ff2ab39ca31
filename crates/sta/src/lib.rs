//! Differentiable static timing analysis (the paper's §3).
//!
//! This crate implements both halves of the paper's central idea:
//!
//! - **Forward** (an STA engine, §2.1): Steiner-tree-based Elmore wire delay
//!   (Eq. 7), NLDM cell delay via LUTs (Eq. 11), level-by-level arrival-time
//!   and slew propagation (Eq. 9), required times, slacks, WNS and TNS
//!   (Eqs. 1–2) — with an *exact* mode (true min/max, used for reporting) and
//!   a *smoothed* mode (Log-Sum-Exp, Eq. 5, used for optimization).
//! - **Backward** (the differentiable timer, §3.3–3.5): gradients of the
//!   smoothed TNS/WNS objective with respect to every pin position, obtained
//!   by running the propagation in reverse level order (Eqs. 10, 12) and four
//!   reverse dynamic-programming passes per net for the Elmore model (Eq. 8,
//!   Fig. 5), then scattering Steiner-point gradients to pins (Fig. 4).
//!
//! Parallelism: every level and every net is processed with rayon, mirroring
//! the paper's GPU kernels (level-synchronous batches, one thread per pin /
//! per net) — see `DESIGN.md` for the GPU→CPU substitution rationale.
//!
//! # Incremental analysis and the allocation-free hot path
//!
//! When only a small fraction of cells moves, the engine supports
//! *incremental* re-analysis ([`Timer::analyze_incremental_into`]): nets
//! incident to moved cells get their Elmore state recomputed, the affected
//! fan-out cone is re-propagated level by level, and every untouched pin
//! keeps its previous value — the result is bit-identical to a from-scratch
//! analysis. Every entry point ([`Timer::analyze_into`],
//! [`Timer::analyze_smoothed_into`], [`Timer::analyze_incremental_into`],
//! [`Timer::gradients_into`]) draws all buffers from a caller-owned
//! [`AnalysisScratch`]; recycling retired
//! analyses ([`AnalysisScratch::recycle`]) makes the steady-state timing
//! iteration allocation-free. Internally everything the sweeps touch is a
//! flat array addressed by indices fixed when the [`Timer`] is built: the
//! levelized pins and their delay arcs (CSR), one struct-of-arrays Elmore
//! arena in which every net owns a fixed node range, the library's NLDM
//! tables in one contiguous arena ([`dtp_liberty::ArcTables`]), and — for
//! smoothed analyses — a tape of the forward arc evaluations that the
//! backward sweep reads instead of evaluating the tables again. The
//! allocating [`ElmoreNet`] is the reference those kernels are tested
//! against, not part of any analysis.
//!
//! # Top-K critical-path extraction
//!
//! [`Timer::extract_paths_into`] traces the K worst endpoints back through
//! worst-arrival predecessors into a [`PathSet`] — deduplicating shared
//! prefixes and emitting per-pin criticality weights — reading only arrival
//! times and endpoint slacks. Like the rest of the hot path, extraction into
//! a caller-owned [`PathScratch`] is allocation-free at steady state.
//!
//! The main entry point is [`Timer`]. Its one setting is the LSE smoothing
//! γ of the smoothed analysis and the gradients: [`Timer::new`] uses
//! [`DEFAULT_GAMMA`], [`Timer::with_gamma`] takes another and refuses one
//! that is not positive and finite with [`StaError::Gamma`].
//!
//!
//! ```
//! use dtp_netlist::generate::{generate, GeneratorConfig};
//! use dtp_liberty::synth::synthetic_pdk;
//! use dtp_rsmt::build_forest;
//! use dtp_sta::{AnalysisScratch, PositionGradients, Timer};
//!
//! # fn main() -> Result<(), dtp_sta::StaError> {
//! let design = generate(&GeneratorConfig::named("demo", 200)).expect("generator config is valid");
//! let lib = synthetic_pdk();
//! let timer = Timer::new(&design, &lib)?;
//! let forest = build_forest(&design.netlist);
//! let mut scratch = AnalysisScratch::new();
//! let analysis = timer.analyze_into(&design.netlist, &forest, &mut scratch);
//! println!("WNS = {:.1} ps, TNS = {:.1} ps", analysis.wns(), analysis.tns());
//! let smoothed = timer.analyze_smoothed_into(&design.netlist, &forest, &mut scratch);
//! let mut grads = PositionGradients::default();
//! timer.gradients_into(&design.netlist, &smoothed, &forest, 1.0, 1.0, &mut scratch, &mut grads);
//! assert_eq!(grads.cell_grad_x.len(), design.netlist.num_cells());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binding;
mod elmore;
mod engine;
mod error;
mod graph;
mod paths;
mod report;
mod smoothing;

pub use binding::Binding;
pub use elmore::{ElmoreNet, ElmoreSeeds};
pub use engine::{
    Analysis, AnalysisScratch, ElmoreView, PositionGradients, Timer, DEFAULT_GAMMA, INPUT_SLEW,
};
pub use error::StaError;
pub use graph::{PinRole, TimingGraph};
pub use paths::{PathScratch, PathSet};
pub use report::{PathPoint, SlackHistogram, TimingReport};
pub use smoothing::{
    lse_max, lse_max_weights_into, lse_min, lse_min_weights_into, smooth_neg, smooth_neg_grad,
};
