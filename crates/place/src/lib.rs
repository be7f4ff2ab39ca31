//! Analytical global-placement substrate (the DREAMPlace/ePlace layer the
//! paper builds on, §2.2).
//!
//! Provides the non-timing parts of Eq. (3)/(4):
//!
//! - [`WirelengthModel`]: exact HPWL for reporting and the weighted-average
//!   (WA) smooth wirelength with analytic gradients, with optional per-net
//!   weights (the hook used by the net-weighting baseline, Eq. 4).
//! - [`DensityModel`]: ePlace-style electrostatic density — bin-grid charge
//!   stamping, spectral Poisson solve (DCT basis, in-house transforms),
//!   per-cell field gradients, and the density-overflow stop metric.
//! - [`NesterovOptimizer`]: Nesterov accelerated gradient with
//!   Barzilai–Borwein step sizing and per-cell preconditioning.
//! - [`AbacusLegalizer`]: row legalization by cluster merging, with
//!   [`check_legal`] as the legality check; [`detail`]: greedy swap-based
//!   detailed placement.
//!
//! The timing-driven placement flows in `dtp-core` compose these pieces with
//! the differentiable timer of `dtp-sta`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abacus;
pub mod detail;
pub mod fft;
pub mod plot;
mod density;
mod legalize;
mod optimizer;
mod spectral;
mod wirelength;

pub use abacus::AbacusLegalizer;
pub use density::{DensityModel, DensityResult, DensityScratch, GRID_AXIS_BINS};
pub use legalize::check_legal;
pub use optimizer::NesterovOptimizer;
pub use spectral::{PoissonScratch, PoissonSolution, Spectral2D};
pub use wirelength::{WirelengthModel, WirelengthScratch};

/// Bit patterns of a float slice, for the exactness oracles.
#[cfg(test)]
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}
