//! Deterministic best-choice netlist coarsening for multi-level placement.
//!
//! Multi-level global placement runs the expensive early iterations — where
//! the placement is still near-uniform mush — on a *coarsened* proxy of the
//! netlist, then interpolates the coarse solution back onto the fine cells and
//! refines. This module provides the coarsening pass:
//!
//! - [`coarsen`] merges movable cells bottom-up using a best-choice /
//!   heavy-edge matching score `connectivity / combined-area`, repeated in
//!   matching rounds until the requested reduction ratio is reached. Fixed
//!   cells (macros, I/O pads) are never merged and survive as singleton
//!   clusters with their exact class, position and pin geometry.
//! - The coarse [`Design`] conserves mass for the density model: a cluster's
//!   footprint is a square of area equal to the sum of its members' areas, and
//!   its pins sit at the cluster center.
//! - [`ClusterMap`] records the fine→coarse assignment and supports
//!   [`ClusterMap::interpolate`]: seeding each member cell at its cluster's
//!   centroid plus a deterministic hash-based jitter, which is how a coarse
//!   solution warm-starts the next finer level.
//!
//! Everything here is serial and seed-driven, so the result is bit-for-bit
//! identical across thread-pool widths — a hard requirement of the flow's
//! determinism contract.

use crate::class::{CellClass, ClassPinId, PinDir, PinKind, PinSpec};
use crate::design::Design;
use crate::geom::{Point, Rect};
use crate::ids::{CellId, PinId};
use crate::model::Netlist;

/// Nets with more pins than this are ignored by the clustering score: huge
/// fanout nets (resets, enables) say nothing about which cells belong
/// together, and skipping them keeps the clique expansion O(cap²) per net.
pub const MAX_CLUSTER_NET_DEGREE: usize = 16;

/// Upper bound on matching rounds per [`coarsen`] call. Each round merges at
/// most pairs, so 8 rounds cover reduction ratios up to 256×.
const MAX_ROUNDS: usize = 8;

/// Fine→coarse cell assignment produced by [`coarsen`].
///
/// Coarse cell ids are dense `0..num_clusters()` and index the coarse
/// [`Netlist`] directly; `cell_to_cluster` maps every fine cell (movable,
/// fixed and port pseudo-cells alike) to its cluster.
#[derive(Clone, Debug)]
pub struct ClusterMap {
    /// Fine cell index → coarse cell (cluster) index.
    cell_to_cluster: Vec<u32>,
    /// CSR offsets into `members`, length `num_clusters + 1`.
    member_start: Vec<u32>,
    /// Fine cell indices grouped by cluster, ascending within each cluster.
    members: Vec<u32>,
}

impl ClusterMap {
    /// Number of fine cells covered by the map.
    pub fn num_fine_cells(&self) -> usize {
        self.cell_to_cluster.len()
    }

    /// Number of clusters (cells of the coarse netlist).
    pub fn num_clusters(&self) -> usize {
        self.member_start.len() - 1
    }

    /// Cluster (coarse cell index) of a fine cell.
    pub fn cluster_of(&self, cell: CellId) -> usize {
        self.cell_to_cluster[cell.index()] as usize
    }

    /// Fine member cells of a cluster, in ascending fine-cell order.
    pub fn members(&self, cluster: usize) -> impl Iterator<Item = CellId> + '_ {
        self.member_slice(cluster).iter().map(|&c| CellId::new(c as usize))
    }

    fn member_slice(&self, cluster: usize) -> &[u32] {
        &self.members[self.member_start[cluster] as usize..self.member_start[cluster + 1] as usize]
    }

    /// Interpolates a coarse placement onto the fine netlist: every movable
    /// member cell is seeded at its cluster's center plus a deterministic
    /// jitter spanning the cluster footprint (so members tile the cluster
    /// rather than stacking at a point), clamped into `region`. Fixed fine
    /// cells keep their own positions.
    ///
    /// `coarse_xs`/`coarse_ys` are lower-left coarse cell coordinates indexed
    /// by cluster; `fine_xs`/`fine_ys` receive lower-left fine coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate slices don't match the respective netlists.
    #[allow(clippy::too_many_arguments)]
    pub fn interpolate(
        &self,
        fine: &Netlist,
        coarse: &Netlist,
        region: Rect,
        seed: u64,
        coarse_xs: &[f64],
        coarse_ys: &[f64],
        fine_xs: &mut [f64],
        fine_ys: &mut [f64],
    ) {
        assert_eq!(coarse_xs.len(), coarse.num_cells());
        assert_eq!(coarse_ys.len(), coarse.num_cells());
        assert_eq!(fine_xs.len(), fine.num_cells());
        assert_eq!(fine_ys.len(), fine.num_cells());
        for i in 0..fine.num_cells() {
            let cell = fine.cell(CellId::new(i));
            if cell.is_fixed() {
                fine_xs[i] = cell.pos().x;
                fine_ys[i] = cell.pos().y;
                continue;
            }
            let k = self.cell_to_cluster[i] as usize;
            let kc = coarse.class_of(CellId::new(k));
            let cx = coarse_xs[k] + 0.5 * kc.width();
            let cy = coarse_ys[k] + 0.5 * kc.height();
            let fc = fine.class_of(CellId::new(i));
            let jx = (hash01(seed, i as u64, 0) - 0.5) * kc.width();
            let jy = (hash01(seed, i as u64, 1) - 0.5) * kc.height();
            let x = cx - 0.5 * fc.width() + jx;
            let y = cy - 0.5 * fc.height() + jy;
            fine_xs[i] = x.clamp(region.xl, (region.xh - fc.width()).max(region.xl));
            fine_ys[i] = y.clamp(region.yl, (region.yh - fc.height()).max(region.yl));
        }
    }
}

/// SplitMix64-style hash of `(seed, a, b)` mapped to `[0, 1)`. Pure function
/// of its arguments, so interpolation jitter is reproducible regardless of
/// thread count or iteration order.
fn hash01(seed: u64, a: u64, b: u64) -> f64 {
    let mut z = seed
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Coarsens `design` by roughly `cluster_ratio`× using best-choice matching.
///
/// Score between two clusters is `connectivity / (area_u + area_v)` where
/// connectivity sums the clique-model weight `1/(d-1)` of every shared net of
/// distinct-cluster degree `d` (clock nets and nets wider than
/// [`MAX_CLUSTER_NET_DEGREE`] are ignored). Ties break on a seed-keyed hash,
/// then on the lower cluster index, so the result is deterministic for a given
/// `(design, cluster_ratio, seed)` and independent of the rayon pool width.
///
/// Fixed cells are never merged; an area cap (4·ratio× the mean movable cell
/// area) prevents snowball clusters. The returned coarse [`Design`] shares the
/// fine region, rows and constraints; its netlist drops clock nets and nets
/// that became internal to a cluster, and conserves movable area exactly.
pub fn coarsen(design: &Design, cluster_ratio: f64, seed: u64) -> (Design, ClusterMap) {
    let nl = &design.netlist;
    let nf = nl.num_cells();
    let ratio = cluster_ratio.max(1.0);

    let mut num_mergeable = 0usize;
    let mut movable_area = 0.0f64;
    for c in nl.movable_cells() {
        num_mergeable += 1;
        movable_area += nl.class_of(c).area();
    }
    let target = ((num_mergeable as f64 / ratio).ceil() as usize).max(1);
    let mean_area = if num_mergeable > 0 {
        movable_area / num_mergeable as f64
    } else {
        0.0
    };
    let area_cap = 4.0 * ratio * mean_area;

    // Clustering state: fine cell → current cluster, plus per-cluster stats.
    let mut assign: Vec<u32> = (0..nf as u32).collect();
    let mut cl_area: Vec<f64> = nl.cell_ids().map(|c| nl.class_of(c).area()).collect();
    let mut cl_mergeable: Vec<bool> = nl.cell_ids().map(|c| !nl.cell(c).is_fixed()).collect();
    let mut mergeable_clusters = num_mergeable;

    for _round in 0..MAX_ROUNDS {
        if mergeable_clusters <= target {
            break;
        }
        let nc = cl_area.len();

        // Clique-expand each scoring net into a symmetric cluster edge list.
        let mut edges: Vec<(u32, u32, f64)> = Vec::new();
        let mut distinct: Vec<u32> = Vec::with_capacity(MAX_CLUSTER_NET_DEGREE);
        for net in nl.net_ids().map(|n| nl.net(n)) {
            if net.is_clock() || net.degree() < 2 || net.degree() > MAX_CLUSTER_NET_DEGREE {
                continue;
            }
            distinct.clear();
            for &p in net.pins() {
                distinct.push(assign[nl.pin(p).cell().index()]);
            }
            distinct.sort_unstable();
            distinct.dedup();
            if distinct.len() < 2 {
                continue;
            }
            let w = 1.0 / (distinct.len() - 1) as f64;
            for i in 0..distinct.len() {
                for j in (i + 1)..distinct.len() {
                    edges.push((distinct[i], distinct[j], w));
                    edges.push((distinct[j], distinct[i], w));
                }
            }
        }
        edges.sort_unstable_by_key(|e| (e.0, e.1));

        // Greedy matching in ascending cluster order: each unmatched mergeable
        // cluster takes its best-scoring unmatched neighbor.
        let mut partner: Vec<u32> = vec![u32::MAX; nc];
        let mut matches = 0usize;
        let mut e = 0usize;
        for u in 0..nc as u32 {
            // Aggregate duplicate (u, v) runs while scanning u's adjacency.
            let row_start = e;
            while e < edges.len() && edges[e].0 == u {
                e += 1;
            }
            if !cl_mergeable[u as usize] || partner[u as usize] != u32::MAX {
                continue;
            }
            let mut best: Option<(f64, u64, u32)> = None;
            let mut i = row_start;
            while i < e {
                let v = edges[i].1;
                let mut w = 0.0;
                while i < e && edges[i].1 == v {
                    w += edges[i].2;
                    i += 1;
                }
                if v == u
                    || !cl_mergeable[v as usize]
                    || partner[v as usize] != u32::MAX
                    || cl_area[u as usize] + cl_area[v as usize] > area_cap
                {
                    continue;
                }
                let score = w / (cl_area[u as usize] + cl_area[v as usize]);
                let tie = hash01(seed, u as u64, v as u64).to_bits();
                let cand = (score, tie, v);
                let better = match best {
                    None => true,
                    Some((bs, bt, bv)) => {
                        score > bs || (score == bs && (tie > bt || (tie == bt && v < bv)))
                    }
                };
                if better {
                    best = Some(cand);
                }
            }
            if let Some((_, _, v)) = best {
                partner[u as usize] = v;
                partner[v as usize] = u;
                matches += 1;
            }
        }
        if matches == 0 {
            break;
        }

        // Renumber: the lower-indexed side of each pair leads the new cluster,
        // keeping ids dense and the ordering stable.
        let mut remap: Vec<u32> = vec![u32::MAX; nc];
        let mut new_area: Vec<f64> = Vec::with_capacity(nc - matches);
        let mut new_mergeable: Vec<bool> = Vec::with_capacity(nc - matches);
        for u in 0..nc {
            let p = partner[u];
            if p != u32::MAX && (p as usize) < u {
                remap[u] = remap[p as usize];
                let id = remap[u] as usize;
                new_area[id] += cl_area[u];
            } else {
                remap[u] = new_area.len() as u32;
                new_area.push(cl_area[u]);
                new_mergeable.push(cl_mergeable[u]);
            }
        }
        for a in assign.iter_mut() {
            *a = remap[*a as usize];
        }
        cl_area = new_area;
        cl_mergeable = new_mergeable;
        mergeable_clusters -= matches;
    }

    let nc = cl_area.len();

    // Member CSR (counting sort keeps members ascending within a cluster).
    let mut member_start: Vec<u32> = vec![0; nc + 1];
    for &a in &assign {
        member_start[a as usize + 1] += 1;
    }
    for k in 0..nc {
        member_start[k + 1] += member_start[k];
    }
    let mut cursor = member_start.clone();
    let mut members: Vec<u32> = vec![0; nf];
    for (i, &a) in assign.iter().enumerate() {
        members[cursor[a as usize] as usize] = i as u32;
        cursor[a as usize] += 1;
    }

    let map = ClusterMap {
        cell_to_cluster: assign,
        member_start,
        members,
    };

    let coarse_nl = build_coarse_netlist(nl, &map, &cl_area);
    let coarse = Design {
        name: format!("{}_c", design.name),
        netlist: coarse_nl,
        region: design.region,
        rows: design.rows.clone(),
        constraints: design.constraints.clone(),
    };
    (coarse, map)
}

/// Builds the coarse netlist for a finished assignment. Singleton clusters
/// reuse the fine cell's class, position and pin geometry (critical for fixed
/// cells and I/O ports, which anchor the placement); multi-member clusters get
/// a synthetic square class of conserved area with pins at the center.
fn build_coarse_netlist(nl: &Netlist, map: &ClusterMap, cl_area: &[f64]) -> Netlist {
    let nc = map.num_clusters();
    let mut out = Netlist::with_classes_of(nl);
    // First pin of each singleton cluster (its class pins follow in template
    // order); synthetic clusters start without pins.
    let mut first_pin: Vec<u32> = vec![u32::MAX; nc];

    for (k, &area) in cl_area.iter().enumerate().take(nc) {
        let ms = map.member_slice(k);
        let (class, pos, fixed) = if let [m] = ms {
            let fc = nl.cell(CellId::new(*m as usize));
            (fc.class(), fc.pos(), fc.is_fixed())
        } else {
            let side = area.sqrt();
            let mut cx = 0.0;
            let mut cy = 0.0;
            let mut aw = 0.0;
            for &m in ms {
                let cell = nl.cell(CellId::new(m as usize));
                let cls = nl.class(cell.class());
                let a = cls.area().max(1e-12);
                cx += a * (cell.pos().x + 0.5 * cls.width());
                cy += a * (cell.pos().y + 0.5 * cls.height());
                aw += a;
            }
            cx /= aw;
            cy /= aw;
            let id = out.push_class(CellClass::new(format!("__CL{k}"), side, side));
            (id, Point::new(cx - 0.5 * side, cy - 0.5 * side), false)
        };
        let cell = out.push_cell(&format!("k{k}"), class, fixed).expect("cluster names are distinct");
        out.set_cell_pos(cell, pos);
        // Singleton clusters materialize every class pin up front (initially
        // unconnected), mirroring the builder; synthetic classes grow pins as
        // nets are formed below.
        if ms.len() == 1 {
            first_pin[k] = out.num_pins() as u32;
            for cp in 0..out.class(class).pins().len() {
                out.push_pin(cell, ClassPinId::new(cp));
            }
        }
    }

    // Nets: one coarse net per fine net that still spans ≥2 clusters; clock
    // nets are dropped (the coarse levels run wirelength+density only, and the
    // wirelength model excludes clock nets anyway).
    let cluster_of = |p: PinId| map.cell_to_cluster[nl.pin(p).cell().index()];
    let mut sink_clusters: Vec<u32> = Vec::new();
    for n in nl.net_ids() {
        let net = nl.net(n);
        if net.is_clock() || net.degree() < 2 {
            continue;
        }
        let Some(dpin) = nl.net_driver(n) else {
            continue;
        };
        let d = cluster_of(dpin);
        sink_clusters.clear();
        sink_clusters.extend(net.pins()[1..].iter().map(|&p| cluster_of(p)).filter(|&s| s != d));
        sink_clusters.sort_unstable();
        sink_clusters.dedup();
        if sink_clusters.is_empty() {
            continue;
        }
        out.intern_net(net.name());
        attach_pin(nl, &mut out, &first_pin, d, PinDir::Output, dpin);
        for &s in sink_clusters.iter() {
            // Representative fine sink pin, only meaningful for singletons.
            let rep = net.pins()[1..].iter().copied().find(|&p| cluster_of(p) == s);
            attach_pin(nl, &mut out, &first_pin, s, PinDir::Input, rep.expect("s came from a sink"));
        }
    }
    out.index_cell_pins();
    out
}

/// Connects cluster `k` to the newest coarse net in role `dir`. Singleton
/// clusters route through the pre-materialized pin instance of the
/// representative fine pin `rep`; synthetic clusters grow a fresh center pin.
fn attach_pin(nl: &Netlist, out: &mut Netlist, first_pin: &[u32], k: u32, dir: PinDir, rep: PinId) {
    let cell = CellId::new(k as usize);
    let pin = if first_pin[k as usize] != u32::MAX {
        PinId::new(first_pin[k as usize] as usize + nl.pin(rep).class_pin().index())
    } else {
        let cls = out.class_mut(out.cell(cell).class());
        let prefix = if dir.is_output() { "o" } else { "i" };
        let cp = cls.push_pin(PinSpec {
            name: format!("{prefix}{}", cls.pins().len()),
            dir,
            kind: PinKind::Signal,
            offset: Point::new(0.5 * cls.width(), 0.5 * cls.height()),
        });
        out.push_pin(cell, cp)
    };
    out.push_net_pin(pin);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GeneratorConfig};
    use crate::stats::NetlistStats;

    fn small_design(cells: usize, seed: u64) -> Design {
        let mut cfg = GeneratorConfig::named("clu", cells);
        cfg.seed = seed;
        generate(&cfg).expect("generator succeeds")
    }

    #[test]
    fn coarsen_reduces_and_conserves_area() {
        let d = small_design(800, 11);
        let fine_area = d.netlist.movable_area();
        let fine_stats = NetlistStats::of(&d.netlist);
        let (c, map) = coarsen(&d, 4.0, 1);
        c.netlist.validate().expect("coarse netlist is valid");
        let coarse_stats = NetlistStats::of(&c.netlist);
        assert_eq!(map.num_fine_cells(), d.netlist.num_cells());
        assert_eq!(map.num_clusters(), c.netlist.num_cells());
        // Real reduction on the movable portion.
        assert!(coarse_stats.num_cells * 3 < fine_stats.num_cells);
        // Mass conservation for the density model.
        let coarse_area = c.netlist.movable_area();
        assert!(
            (coarse_area - fine_area).abs() <= 1e-6 * fine_area.max(1.0),
            "coarse area {coarse_area} vs fine {fine_area}"
        );
        // No coarse net is degenerate or a clock.
        for n in c.netlist.net_ids() {
            assert!(c.netlist.net(n).degree() >= 2);
            assert!(!c.netlist.net(n).is_clock());
        }
    }

    #[test]
    fn fixed_cells_stay_singleton_with_geometry() {
        let d = small_design(500, 3);
        let (c, map) = coarsen(&d, 5.0, 9);
        for f in d.netlist.cell_ids() {
            if d.netlist.cell(f).is_fixed() {
                let k = map.cluster_of(f);
                assert_eq!(map.members(k).count(), 1);
                let cc = c.netlist.cell(CellId::new(k));
                assert!(cc.is_fixed());
                assert_eq!(cc.pos(), d.netlist.cell(f).pos());
                assert_eq!(
                    c.netlist.class_of(CellId::new(k)).name(),
                    d.netlist.class_of(f).name()
                );
            }
        }
    }

    #[test]
    fn coarsen_is_deterministic_for_seed() {
        let d = small_design(600, 5);
        let (c1, m1) = coarsen(&d, 4.0, 7);
        let (c2, m2) = coarsen(&d, 4.0, 7);
        assert_eq!(m1.cell_to_cluster, m2.cell_to_cluster);
        assert_eq!(c1.netlist.num_cells(), c2.netlist.num_cells());
        assert_eq!(c1.netlist.num_nets(), c2.netlist.num_nets());
        assert_eq!(c1.netlist.positions(), c2.netlist.positions());
    }

    #[test]
    fn interpolate_lands_inside_region() {
        let d = small_design(400, 2);
        let (c, map) = coarsen(&d, 4.0, 1);
        let (cxs, cys) = c.netlist.positions();
        let n = d.netlist.num_cells();
        let mut xs = vec![0.0; n];
        let mut ys = vec![0.0; n];
        map.interpolate(&d.netlist, &c.netlist, d.region, 42, &cxs, &cys, &mut xs, &mut ys);
        for i in d.netlist.cell_ids() {
            let cls = d.netlist.class_of(i);
            if d.netlist.cell(i).is_fixed() {
                assert_eq!(xs[i.index()], d.netlist.cell(i).pos().x);
            } else {
                assert!(xs[i.index()] >= d.region.xl - 1e-9);
                assert!(xs[i.index()] + cls.width() <= d.region.xh + 1e-9);
                assert!(ys[i.index()] >= d.region.yl - 1e-9);
                assert!(ys[i.index()] + cls.height() <= d.region.yh + 1e-9);
            }
        }
    }

    #[test]
    fn ratio_of_one_is_identity_partition() {
        let d = small_design(200, 4);
        let (c, map) = coarsen(&d, 1.0, 1);
        assert_eq!(c.netlist.num_cells(), d.netlist.num_cells());
        for k in 0..map.num_clusters() {
            assert_eq!(map.members(k).count(), 1);
        }
    }
}
