//! Differentiable-timing-driven global placement (Guo & Lin, DAC 2022).
//!
//! This crate is the paper's contribution: a nonlinear global placer whose
//! objective (Eq. 6) fuses
//!
//! ```text
//! min  Σ_e WL(e; x, y)  +  λ·D(x, y)  −  t1·TNS_γ(x, y)  −  t2·WNS_γ(x, y)
//! ```
//!
//! where the TNS/WNS terms and their gradients come from the differentiable
//! STA engine of `dtp-sta` (TNS/WNS are ≤ 0, so *maximizing* them is written
//! as subtracting them from the minimized objective). Three flow modes are
//! provided — the paper's Table 3 comparison:
//!
//! - [`FlowMode::Wirelength`] — plain wirelength+density placement
//!   (DREAMPlace \[16\]);
//! - [`FlowMode::NetWeighting`] — momentum-based net weighting driven by an
//!   exact STA (DREAMPlace 4.0 \[24\], Eq. 4);
//! - [`FlowMode::Differentiable`] — the paper's method: direct gradient
//!   descent on smoothed TNS/WNS with t1/t2 grown 1 %/iteration from a warm
//!   start (§4), on Steiner trees that move with their branches and are
//!   rebuilt per net once the net has drifted past a budget (§3.6, Fig. 7;
//!   [`FlowConfig::topo_dirty_frac`]).
//!
//! # Example
//!
//! ```no_run
//! use dtp_core::{run_flow, FlowConfig, FlowMode};
//! use dtp_liberty::synth::synthetic_pdk;
//! use dtp_netlist::generate::{generate, GeneratorConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = generate(&GeneratorConfig::named("demo", 2000))?;
//! let lib = synthetic_pdk();
//! let result = run_flow(&design, &lib, FlowMode::differentiable(), &FlowConfig::default())?;
//! println!("WNS {:.1} ps, TNS {:.1} ps, HPWL {:.0} um", result.wns, result.tns, result.hpwl);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod flow;
mod weighting;

pub use config::{DiffTimingConfig, FlowConfig, FlowMode};
pub use dtp_obs::Observer;
pub use dtp_route::CongestionSummary;
pub use flow::{run_flow, run_flow_observed, FlowError, FlowResult, TracePoint, ROUTE_GRID};
