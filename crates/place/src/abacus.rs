//! Abacus legalization: row-based legalization that minimizes total
//! quadratic displacement by clustering (Spindler et al., ISPD 2008).
//!
//! Cells are inserted in increasing x; within a row, overlapping cells are
//! merged into *clusters* whose optimal position is the weighted mean of
//! their members' targets, solved in closed form. Each cell trials a window
//! of rows around its target y and commits to the cheapest.
//!
//! At scale the row loop runs *band-parallel*: rows are split into
//! independent bands of [`AbacusLegalizer::with_band_rows`] rows each, cells
//! are partitioned to bands by target row, and every band runs the classic
//! insertion concurrently with its search window capped at the band edges.
//! Cells no band row accepts are deferred to a serial full-row
//! reconciliation pass, which preserves the never-fails guarantee. The band
//! count derives from the row count alone, so results are bit-for-bit
//! identical across thread counts; designs under 64 rows use a single band,
//! which is exactly the classic serial algorithm.

use dtp_netlist::{CellId, Design};
use rayon::prelude::*;

/// One cluster in a row: cells `cells[first..last]` packed abutting,
/// starting at `x`.
#[derive(Clone, Debug)]
struct Cluster {
    /// Total weight (cell count; unit weights).
    e: f64,
    /// Σ (target − offset-in-cluster): the optimizer's linear term.
    q: f64,
    /// Total width.
    w: f64,
    /// Current position of the cluster start.
    x: f64,
    /// Index of the first cell of this cluster in the row's cell list.
    first: usize,
}

/// Per-row state: committed cells (in x order) and the cluster stack.
#[derive(Clone, Debug, Default)]
struct RowState {
    cells: Vec<(CellId, f64, f64)>, // (cell, width, target x)
    clusters: Vec<Cluster>,
    /// Committed site-quantized width (capacity bookkeeping).
    used: f64,
}

impl RowState {
    /// Appends a cell and re-clusters; returns nothing (positions are
    /// recovered at the end). `x_min`/`x_max` bound the row.
    fn push(&mut self, cell: CellId, width: f64, target: f64, x_min: f64, x_max: f64) {
        self.used += width;
        let first = self.cells.len();
        self.cells.push((cell, width, target));
        let mut c = Cluster { e: 1.0, q: target, w: width, x: 0.0, first };
        c.x = (c.q / c.e).clamp(x_min, (x_max - c.w).max(x_min));
        // Merge while overlapping the previous cluster.
        while let Some(prev) = self.clusters.last() {
            if prev.x + prev.w <= c.x + 1e-12 {
                break;
            }
            let prev = self.clusters.pop().expect("checked non-empty");
            // Standard Abacus merge: the appended cluster's targets shift by
            // the predecessor's width.
            let merged = Cluster {
                e: prev.e + c.e,
                q: prev.q + c.q - c.e * prev.w,
                w: prev.w + c.w,
                x: 0.0,
                first: prev.first,
            };
            c = merged;
            c.x = (c.q / c.e).clamp(x_min, (x_max - c.w).max(x_min));
        }
        self.clusters.push(c);
    }

    /// Cost of placing `width`/`target` into this row *without* committing:
    /// simulates the merge cascade by walking the cluster stack backwards.
    /// Allocation-free — the popped clusters are never revisited, so locals
    /// replace the old per-trial stack copy (bit-identical arithmetic).
    fn trial_cost(&self, width: f64, target: f64, x_min: f64, x_max: f64) -> f64 {
        // Hard capacity guard: merging can push earlier cells out of the row
        // even when the new cell itself fits, so never exceed the row width.
        if self.used + width > (x_max - x_min) + 1e-9 {
            return f64::INFINITY;
        }
        let mut e = 1.0f64;
        let mut q = target;
        let mut w = width;
        let mut x = (q / e).clamp(x_min, (x_max - w).max(x_min));
        for prev in self.clusters.iter().rev() {
            if prev.x + prev.w <= x + 1e-12 {
                break;
            }
            q = prev.q + q - e * prev.w;
            e += prev.e;
            w += prev.w;
            x = (q / e).clamp(x_min, (x_max - w).max(x_min));
        }
        // The new cell sits at the end of the merged cluster.
        let cell_x = x + w - width;
        if cell_x + width > x_max + 1e-9 || cell_x < x_min - 1e-9 {
            return f64::INFINITY;
        }
        (cell_x - target).abs()
    }

    /// Final x positions per committed cell.
    fn positions(&self) -> Vec<(CellId, f64)> {
        let mut out = Vec::with_capacity(self.cells.len());
        for (k, cluster) in self.clusters.iter().enumerate() {
            let last = self
                .clusters
                .get(k + 1)
                .map_or(self.cells.len(), |next| next.first);
            let mut x = cluster.x;
            for &(cell, w, _) in &self.cells[cluster.first..last] {
                out.push((cell, x));
                x += w;
            }
        }
        out
    }
}

/// The Abacus legalizer.
#[derive(Clone, Debug)]
pub struct AbacusLegalizer {
    row_y: Vec<f64>,
    x_min: f64,
    x_max: f64,
    site: f64,
    /// How many rows above/below the target row to trial.
    window: usize,
    /// Rows per parallel band; 0 = auto (32 for designs with ≥ 64 rows,
    /// otherwise a single band — the classic serial algorithm).
    band_rows: usize,
}

impl AbacusLegalizer {
    /// Builds the legalizer from the design's rows.
    ///
    /// # Panics
    ///
    /// Panics if the design has no rows.
    pub fn new(design: &Design) -> AbacusLegalizer {
        assert!(!design.rows.is_empty(), "design has no rows");
        AbacusLegalizer {
            row_y: design.rows.iter().map(|r| r.y).collect(),
            x_min: design.rows[0].x_min,
            x_max: design.rows[0].x_max,
            site: design.rows[0].site_width,
            window: 6,
            band_rows: 0,
        }
    }

    /// Overrides the parallel band height (rows per band); 0 restores the
    /// automatic policy. The result depends only on this value and the
    /// design, never on the thread count.
    #[must_use]
    pub fn with_band_rows(mut self, band_rows: usize) -> AbacusLegalizer {
        self.band_rows = band_rows;
        self
    }

    fn effective_band_rows(&self) -> usize {
        if self.band_rows > 0 {
            self.band_rows
        } else if self.row_y.len() >= 64 {
            32
        } else {
            self.row_y.len()
        }
    }

    /// Number of row bands the legalizer will partition the core into
    /// (1 = a single serial scan). Depends only on the band policy and the
    /// design, never on the thread count; the flow reports it as the
    /// `legalize_bands` gauge.
    pub fn bands(&self) -> usize {
        self.row_y.len().div_ceil(self.effective_band_rows().max(1)).max(1)
    }

    /// Legalizes `(xs, ys)` in place; returns `(total, max)` displacement.
    ///
    /// # Panics
    ///
    /// Panics if a cell fits in no trialled row (pathologically full core).
    pub fn legalize(&self, design: &Design, xs: &mut [f64], ys: &mut [f64]) -> (f64, f64) {
        let nl = &design.netlist;
        let row_h = design.row_height();
        let n_rows = self.row_y.len();
        let mut order: Vec<CellId> = nl.movable_cells().collect();
        order.sort_by(|&a, &b| {
            xs[a.index()]
                .partial_cmp(&xs[b.index()])
                .expect("positions are finite")
        });
        let band_rows = self.effective_band_rows();
        let bands = n_rows.div_ceil(band_rows);
        let target_row = |ty: f64| {
            (((ty - self.row_y[0]) / row_h).round() as i64).clamp(0, n_rows as i64 - 1)
                as usize
        };
        // Partition cells to bands by target row, preserving the global x
        // order within each band.
        let mut band_members: Vec<Vec<CellId>> = vec![Vec::new(); bands];
        for &c in &order {
            band_members[target_row(ys[c.index()]) / band_rows].push(c);
        }

        // Band-parallel insertion: each band owns a disjoint row range and
        // runs the classic algorithm with its window capped at band edges.
        let mut rows: Vec<RowState> = vec![RowState::default(); n_rows];
        let mut deferred: Vec<Vec<CellId>> = vec![Vec::new(); bands];
        let (xs_r, ys_r) = (&*xs, &*ys);
        rows.par_chunks_mut(band_rows)
            .zip(deferred.par_chunks_mut(1))
            .zip(band_members.par_chunks(1))
            .enumerate()
            .for_each(|(bi, ((band, defer), mems))| {
                let defer = &mut defer[0];
                let band_lo = bi * band_rows;
                let band_hi = (band_lo + band_rows).min(n_rows);
                for &c in &mems[0] {
                    let i = c.index();
                    // Site-quantized width: keeps the capacity guard and the
                    // final snapping consistent.
                    let w = (nl.class_of(c).width() / self.site).ceil() * self.site;
                    let (tx, ty) = (xs_r[i], ys_r[i]);
                    let tr = target_row(ty);
                    let mut best: Option<(f64, usize)> = None;
                    // Expand the window (within the band) until a row accepts.
                    let mut window = self.window;
                    loop {
                        let lo = tr.saturating_sub(window).max(band_lo);
                        let hi = (tr + window + 1).min(band_hi);
                        for r in lo..hi {
                            let dy = (self.row_y[r] - ty).abs();
                            if let Some((bc, _)) = best {
                                if dy >= bc {
                                    continue; // zero x-cost cannot beat this
                                }
                            }
                            let dx =
                                band[r - band_lo].trial_cost(w, tx, self.x_min, self.x_max);
                            let cost = dx + dy;
                            if cost.is_finite() && best.is_none_or(|(bc, _)| cost < bc) {
                                best = Some((cost, r));
                            }
                        }
                        if best.is_some() || (lo == band_lo && hi == band_hi) {
                            break;
                        }
                        window *= 2;
                    }
                    match best {
                        Some((_, r)) => {
                            band[r - band_lo].push(c, w, tx, self.x_min, self.x_max);
                        }
                        None => defer.push(c),
                    }
                }
            });

        // Serial reconciliation: cells whose whole band was full trial every
        // row (deterministic band-then-x order, independent of threads).
        for defer in &deferred {
            for &c in defer {
                let i = c.index();
                let w = (nl.class_of(c).width() / self.site).ceil() * self.site;
                let (tx, ty) = (xs[i], ys[i]);
                let tr = target_row(ty);
                let mut best: Option<(f64, usize)> = None;
                let mut window = self.window;
                while best.is_none() {
                    let lo = tr.saturating_sub(window);
                    let hi = (tr + window + 1).min(n_rows);
                    for (r, row) in rows.iter().enumerate().take(hi).skip(lo) {
                        let dy = (self.row_y[r] - ty).abs();
                        if let Some((bc, _)) = best {
                            if dy >= bc {
                                continue;
                            }
                        }
                        let dx = row.trial_cost(w, tx, self.x_min, self.x_max);
                        let cost = dx + dy;
                        if cost.is_finite() && best.is_none_or(|(bc, _)| cost < bc) {
                            best = Some((cost, r));
                        }
                    }
                    if lo == 0 && hi == n_rows {
                        break;
                    }
                    window *= 2;
                }
                let (_, row) = best.unwrap_or_else(|| panic!("no row accepts cell {c:?}"));
                rows[row].push(c, w, tx, self.x_min, self.x_max);
            }
        }

        // Commit positions, snapping to sites left-to-right. A suffix-width
        // clamp guarantees the remaining cells of the row always fit, so
        // rounding can never push a cell past the row end.
        let mut total = 0.0f64;
        let mut max_disp = 0.0f64;
        for (r, row) in rows.iter().enumerate() {
            let placed = row.positions();
            let widths: Vec<f64> = placed
                .iter()
                .map(|&(cell, _)| {
                    (design.netlist.class_of(cell).width() / self.site).ceil() * self.site
                })
                .collect();
            let mut suffix = vec![0.0; placed.len() + 1];
            for k in (0..placed.len()).rev() {
                suffix[k] = suffix[k + 1] + widths[k];
            }
            let mut cursor = self.x_min;
            for (k, &(cell, x)) in placed.iter().enumerate() {
                let i = cell.index();
                let latest = ((self.x_max - suffix[k]) / self.site + 1e-9).floor() * self.site;
                let snapped = ((x / self.site).round() * self.site)
                    .min(latest)
                    .max(cursor);
                let disp = (snapped - xs[i]).abs() + (self.row_y[r] - ys[i]).abs();
                total += disp;
                max_disp = max_disp.max(disp);
                xs[i] = snapped;
                ys[i] = self.row_y[r];
                cursor = snapped + widths[k];
            }
        }
        (total, max_disp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legalize::check_legal;
    use dtp_netlist::generate::{generate, GeneratorConfig};

    #[test]
    fn produces_legal_placement() {
        let d = generate(&GeneratorConfig::named("ab", 400)).unwrap();
        let (mut xs, mut ys) = d.netlist.positions();
        let (total, max) = AbacusLegalizer::new(&d).legalize(&d, &mut xs, &mut ys);
        assert!(total >= 0.0 && max >= 0.0);
        let violations = check_legal(&d, &xs, &ys);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn dense_row_clusters_share_space() {
        // Pile many cells onto one target row: Abacus must spill or pack
        // them legally.
        let d = generate(&GeneratorConfig::named("ab3", 200)).unwrap();
        let (mut xs, mut ys) = d.netlist.positions();
        let y_target = d.region.center().y;
        for c in d.netlist.movable_cells() {
            ys[c.index()] = y_target;
            xs[c.index()] = d.region.center().x;
        }
        AbacusLegalizer::new(&d).legalize(&d, &mut xs, &mut ys);
        let violations = check_legal(&d, &xs, &ys);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn deterministic() {
        let d = generate(&GeneratorConfig::named("ab4", 150)).unwrap();
        let (mut x1, mut y1) = d.netlist.positions();
        let (mut x2, mut y2) = d.netlist.positions();
        AbacusLegalizer::new(&d).legalize(&d, &mut x1, &mut y1);
        AbacusLegalizer::new(&d).legalize(&d, &mut x2, &mut y2);
        assert_eq!(x1, x2);
        assert_eq!(y1, y2);
    }
}
