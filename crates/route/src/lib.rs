//! Routability subsystem for the differentiable-timing-driven placer.
//!
//! A placement that wins TNS/WNS but cannot be routed is not shippable, so
//! this crate adds the congestion axis that DREAMPlace 4.x pairs with the
//! paper's timing technique. It mirrors the exact/smoothed split of the
//! timing engine (`dtp-sta`):
//!
//! - [`RudyMap`] — an *exact*, incrementally maintained RUDY-style
//!   congestion estimator. Every Steiner-forest branch (from `dtp-rsmt`'s
//!   Fig.-4 branch bookkeeping) is rasterized into horizontal/vertical
//!   demand grids by bounding-box overlap, plus a per-cell pin-density
//!   term. The map keeps one 64-byte record per branch and per cell (the
//!   clamped rectangle and its two amounts), so a moved net's old demand
//!   is recomputed and taken back and its new geometry stamped in time
//!   proportional to the bins it covers — the congestion analogue of the
//!   dirty-set incremental timing pipeline: 1/30 of a build after a sparse
//!   move, 1.6 builds when every net moved (a global-placement iteration,
//!   which is why the flow rebuilds it instead, and only when it reads it).
//!   Used for reporting and for the feedback loop (inflation, net
//!   weighting).
//! - [`CongestionPenalty`] — a *differentiable* smoothed-overflow penalty:
//!   branch demand is bilinearly point-stamped at edge midpoints, per-bin
//!   overflow is smoothed with a softplus (the same pattern as the
//!   LSE-smoothed TNS/WNS of `dtp-sta`), and analytic per-pin location
//!   gradients flow back through the stamp weights and branch spans,
//!   then through the Steiner trees' coordinate-source bookkeeping to
//!   cells. Used as a weighted term in the optimizer gradient.
//! - [`inflation_factors`] — congestion-driven cell inflation feeding
//!   `dtp-place`'s `DensityModel::set_inflation`: cells sitting in
//!   overflowed bins grow their density footprint/charge so the
//!   electrostatic field spreads the hot region.
//!
//! The flow wiring (activation schedule, gradient weighting, feedback
//! period) lives in `dtp-core`; this crate is pure estimation + calculus.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grid;
mod inflate;
#[cfg(test)]
mod oracle;
mod penalty;
#[cfg(test)]
mod reference;
mod rudy;

pub use grid::{CongestionSummary, RouteGrid, GRID_AXIS_BINS};
pub use inflate::inflation_factors;
pub use penalty::CongestionPenalty;
pub use rudy::RudyMap;

/// Default pin-density demand per connected pin (µm of wire), the local
/// escape-routing cost RUDY adds on top of branch demand.
pub const DEFAULT_PIN_WEIGHT: f64 = 0.5;

/// Connected-pin count per cell: the mass of the pin-density term.
fn connected_pins(nl: &dtp_netlist::Netlist) -> Vec<f64> {
    let mut pins = vec![0.0f64; nl.num_cells()];
    for p in nl.pin_ids() {
        if nl.pin(p).net().is_some() {
            pins[nl.pin(p).cell().index()] += 1.0;
        }
    }
    pins
}

/// Endpoints `(ax, ay, bx, by)` of the branch from node `i` of the tree at
/// arena slots `lo..` to its parent; `None` for the root.
#[inline]
fn branch_ends(a: &dtp_rsmt::ForestArena<'_>, lo: usize, i: usize) -> Option<(f64, f64, f64, f64)> {
    let p = a.parent[lo + i] as usize;
    (p != i).then(|| (a.x[lo + i], a.y[lo + i], a.x[lo + p], a.y[lo + p]))
}
