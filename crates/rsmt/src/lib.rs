//! Rectilinear Steiner minimal tree construction — the FLUTE substitute.
//!
//! Timing-driven placement needs a routing-topology estimate per net to feed
//! the Elmore wire-delay model (§3.4.1 of the paper). The original work uses
//! FLUTE, a licensed LUT-based RSMT package; the paper notes that "FLUTE can
//! be replaced by other RSMT generation algorithms in our framework". This
//! crate provides:
//!
//! - exact RSMT for nets of degree ≤ 4 (median construction / Hanan-grid
//!   enumeration),
//! - FLUTE-style **topology tables** for degrees 4–9: optimal (degree 4) or
//!   near-optimal (5–9) Steiner topologies precomputed per *position
//!   sequence* class (the permutation of y-ranks in x-sorted order,
//!   de-duplicated under the 8 grid symmetries), embedded per net in O(n)
//!   by a gap-vector dot product — see [`TableConfig`],
//! - a rectilinear Prim heuristic with corner steinerization for larger nets
//!   (and as a quality clamp the table candidates must beat at degree 5–9);
//!   every topology rebuild canonicalizes, selects and embeds afresh (no
//!   per-net topology is remembered between rebuilds),
//! - **branch tracking**: every Steiner point records which pin owns its x
//!   and which owns its y coordinate, so (a) [`SteinerTree::update_pins`]
//!   moves Steiner points along with their branches instead of rebuilding
//!   (Fig. 4 / §3.6 tree reuse), and (b) gradients landing on Steiner points
//!   are routed back to real pins by [`SteinerTree::scatter_gradient`].
//! - [`build_forest`] / [`build_forest_with`]: rayon-parallel tree
//!   construction for all nets of a netlist (the paper's multi-threaded
//!   FLUTE calls) into one flat arena — every consumer reads a net's tree
//!   through the borrowed [`TreeView`] — plus allocation-free in-place
//!   parallel maintenance sweeps ([`SteinerForest::update_nets_into`],
//!   [`SteinerForest::rebuild_nets_into`], the only way to update a built
//!   forest) backed by a caller-owned [`ForestScratch`].
//!
//! # Example
//!
//! ```
//! use dtp_netlist::Point;
//! use dtp_rsmt::SteinerTree;
//!
//! let pins = [Point::new(0.0, 0.0), Point::new(4.0, 3.0), Point::new(4.0, -3.0)];
//! let tree = SteinerTree::build(&pins);
//! // Optimal: trunk to (4, 0), then split — total 4 + 3 + 3 = 10.
//! assert_eq!(tree.wirelength(), 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod forest;
mod hanan;
mod mst;
mod tables;
mod tree;

pub use forest::{
    build_forest, build_forest_with, build_tree_with, ForestArena, ForestScratch, ForestStats,
    SteinerForest,
};
pub use tables::{table_stats, TableConfig, TableStats, MAX_TABLE_DEGREE};
pub use tree::{node_capacity, SteinerTree, TreeView};
