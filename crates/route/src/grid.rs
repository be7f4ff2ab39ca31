//! Shared routing-grid geometry and the congestion summary metrics.

use dtp_netlist::{Point, Rect};

/// An `m × n` bin grid over the core region, shared by the exact RUDY map
/// and the differentiable penalty so both see the same bins and capacities.
///
/// Bin `(i, j)` covers `[xl + i·bin_w, xl + (i+1)·bin_w) ×
/// [yl + j·bin_h, yl + (j+1)·bin_h)` and lives at flat index `i·n + j`
/// (the same layout as `dtp-place`'s density grid).
#[derive(Clone, Copy, Debug)]
pub struct RouteGrid {
    region: Rect,
    m: usize,
    n: usize,
    bin_w: f64,
    bin_h: f64,
}

impl RouteGrid {
    /// Builds the grid.
    ///
    /// # Panics
    ///
    /// Panics if `m` or `n` is outside [`GRID_AXIS_BINS`] or the region is
    /// degenerate.
    pub fn new(region: Rect, m: usize, n: usize) -> RouteGrid {
        assert!(
            GRID_AXIS_BINS.contains(&m) && GRID_AXIS_BINS.contains(&n),
            "route grid {m} x {n}: each axis needs {}..={} bins",
            GRID_AXIS_BINS.start(),
            GRID_AXIS_BINS.end()
        );
        assert!(
            region.width() > 0.0 && region.height() > 0.0,
            "route grid needs a non-degenerate region"
        );
        RouteGrid {
            region,
            m,
            n,
            bin_w: region.width() / m as f64,
            bin_h: region.height() / n as f64,
        }
    }

    /// Grid shape `(m, n)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.m, self.n)
    }

    /// Number of bins (`m·n`).
    pub fn num_bins(&self) -> usize {
        self.m * self.n
    }

    /// Bin width (µm).
    pub fn bin_w(&self) -> f64 {
        self.bin_w
    }

    /// Bin height (µm).
    pub fn bin_h(&self) -> f64 {
        self.bin_h
    }

    /// The covered region.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Flat index of bin `(i, j)`.
    #[inline]
    pub fn index(&self, i: usize, j: usize) -> usize {
        i * self.n + j
    }

    /// Bin containing the point, clamped to the grid.
    #[inline]
    pub fn bin_of(&self, p: Point) -> (usize, usize) {
        let i = ((p.x - self.region.xl) / self.bin_w)
            .floor()
            .clamp(0.0, (self.m - 1) as f64) as usize;
        let j = ((p.y - self.region.yl) / self.bin_h)
            .floor()
            .clamp(0.0, (self.n - 1) as f64) as usize;
        (i, j)
    }

    /// Per-bin, per-direction routing capacity (µm of routable wire) for a
    /// supply of `capacity` wirelength per µm² of bin area per direction.
    pub fn bin_capacity(&self, capacity: f64) -> f64 {
        capacity * self.bin_w * self.bin_h
    }

    /// The stamp record of `h_amt`/`v_amt` spread over the rectangle
    /// `(xl, yl, xh, yh)`: the rectangle clamped to the region, the two
    /// amounts, and the bin range and reciprocal area the stamp loops need —
    /// or [`StampRec::NONE`] when nothing would be stamped (both amounts
    /// zero, or the clamp inverted the rectangle because it lies entirely
    /// outside the region).
    #[inline]
    pub(crate) fn record(
        &self,
        (xl, yl, xh, yh): (f64, f64, f64, f64),
        h_amt: f64,
        v_amt: f64,
    ) -> StampRec {
        let (xl, yl) = (xl.max(self.region.xl), yl.max(self.region.yl));
        let (xh, yh) = (xh.min(self.region.xh), yh.min(self.region.yh));
        if xh <= xl || yh <= yl || (h_amt == 0.0 && v_amt == 0.0) {
            return StampRec::NONE;
        }
        StampRec {
            xl,
            yl,
            xh,
            yh,
            h_amt,
            v_amt,
            inv_area: 1.0 / ((xh - xl) * (yh - yl)),
            cols: bin_range(xl, xh, self.region.xl, self.bin_w, self.m),
            rows: bin_range(yl, yh, self.region.yl, self.bin_h, self.n),
        }
    }

    /// Distributes the record's amounts over the bins its rectangle
    /// overlaps, proportionally to overlap area — added when `ADD`, taken
    /// back otherwise. Mass-conserving: the bins tile the clamped
    /// rectangle, so the per-bin amounts sum to the record's (up to
    /// round-off). Every covered bin receives exactly one
    /// `±= amt · (ox · oy / area)`, a pure function of the record, so taking
    /// a stamp back recomputes what was added. Returns the number of bins
    /// written.
    #[inline]
    pub(crate) fn stamp<const ADD: bool>(&self, r: &StampRec, h: &mut [f64], v: &mut [f64]) -> u64 {
        // Rows go in fixed-size tiles so the per-bin loop has no
        // data-dependent trip count: the common one- and two-row boxes
        // (a branch plus its half-bin halo) take one tile of 2.
        if r.rows[1] - r.rows[0] <= 2 || self.n < 4 {
            self.stamp_tiles::<ADD, 2>(r, h, v)
        } else {
            self.stamp_tiles::<ADD, 4>(r, h, v)
        }
    }

    /// [`RouteGrid::stamp`] over the record's rows in tiles of `T`. A tile is a
    /// window of `T` bins of one column; the last one is shifted down to
    /// end at the grid edge, and the rows of the window that are not the
    /// tile's (or that the rectangle does not overlap) keep their value.
    #[inline]
    fn stamp_tiles<const ADD: bool, const T: usize>(
        &self,
        r: &StampRec,
        h: &mut [f64],
        v: &mut [f64],
    ) -> u64 {
        let cols = r.cols[0] as usize..r.cols[1] as usize;
        let rows = r.rows[0] as usize..r.rows[1] as usize;
        let mut written = 0;
        for t0 in rows.clone().step_by(T) {
            let t1 = (t0 + T).min(rows.end);
            let base = t0.min(self.n - T);
            let mut oy = [0.0; T];
            let mut live = [false; T];
            let mut n_live = 0;
            for k in 0..T {
                oy[k] = overlap(r.yl, r.yh, self.region.yl, self.bin_h, base + k);
                live[k] = (t0..t1).contains(&(base + k)) && oy[k] > 0.0;
                n_live += u64::from(live[k]);
            }
            // Whole tiles (nearly all of them) take the loop without the
            // per-row test, which the compiler turns into vector code.
            let whole = n_live == T as u64;
            for i in cols.clone() {
                let ox = overlap(r.xl, r.xh, self.region.xl, self.bin_w, i);
                if ox == 0.0 {
                    continue;
                }
                written += n_live;
                let at = i * self.n + base;
                let hs: &mut [f64; T] = (&mut h[at..at + T]).try_into().expect("a tile of T");
                let vs: &mut [f64; T] = (&mut v[at..at + T]).try_into().expect("a tile of T");
                for k in 0..T {
                    if whole || live[k] {
                        let f = ox * oy[k] * r.inv_area;
                        if ADD {
                            hs[k] += r.h_amt * f;
                            vs[k] += r.v_amt * f;
                        } else {
                            hs[k] -= r.h_amt * f;
                            vs[k] -= r.v_amt * f;
                        }
                    }
                }
            }
        }
        written
    }

    /// Calls `f` with the flat index of every bin [`RouteGrid::stamp`] writes
    /// for this record.
    pub(crate) fn for_each_bin(&self, r: &StampRec, mut f: impl FnMut(usize)) {
        for i in r.cols[0] as usize..r.cols[1] as usize {
            if overlap(r.xl, r.xh, self.region.xl, self.bin_w, i) == 0.0 {
                continue;
            }
            for j in r.rows[0] as usize..r.rows[1] as usize {
                if overlap(r.yl, r.yh, self.region.yl, self.bin_h, j) > 0.0 {
                    f(self.index(i, j));
                }
            }
        }
    }
}

/// Bins a route-grid axis may have: the penalty samples its fields
/// bilinearly between bin centers, so a 1-bin axis has no interior; stamp
/// records keep bin indices in 16 bits, and an axis finer than this
/// allocates gigabytes of demand grid for a map no router resolves.
pub const GRID_AXIS_BINS: std::ops::RangeInclusive<usize> = 2..=2048;

/// One stamped rectangle, a cache line: the part of a branch's (or cell's)
/// halo box that lies inside the region, the demand spread over it in each
/// direction, and what the stamp loops derive from those once — the bin
/// range it reaches and the reciprocal of its area. The per-bin amounts are
/// a pure function of the record, so taking a stamp back recomputes them
/// instead of remembering them.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(align(64))]
pub(crate) struct StampRec {
    pub xl: f64,
    pub yl: f64,
    pub xh: f64,
    pub yh: f64,
    pub h_amt: f64,
    pub v_amt: f64,
    inv_area: f64,
    /// Bin columns / rows `[first, end)` the rectangle reaches.
    cols: [u16; 2],
    rows: [u16; 2],
}

impl StampRec {
    /// The record of geometry that stamps nothing.
    pub const NONE: StampRec = StampRec {
        xl: 0.0,
        yl: 0.0,
        xh: 0.0,
        yh: 0.0,
        h_amt: 0.0,
        v_amt: 0.0,
        inv_area: 0.0,
        cols: [0; 2],
        rows: [0; 2],
    };
}

/// Length of `[lo, hi] ∩ bin k` on an axis of `size`-wide bins from
/// `origin`: `max(0, min(hi, b0 + size) − max(lo, b0))`. The operands are
/// finite (a record's rectangle is clamped to the region), so plain
/// compare-and-select — one instruction each, where `f64::min`/`max` pay for
/// NaN handling — picks the same values; they could differ in the sign of a
/// zero only, and a zero overlap is a bin the callers skip.
#[inline]
fn overlap(lo: f64, hi: f64, origin: f64, size: f64, k: usize) -> f64 {
    // `k` is a bin index (16 bits): the narrow conversion is one instruction.
    let b0 = origin + k as u32 as f64 * size;
    let top = b0 + size;
    let len = (if hi < top { hi } else { top }) - (if lo > b0 { lo } else { b0 });
    if len > 0.0 {
        len
    } else {
        0.0
    }
}

/// `ceil(v) as usize` for `v ≥ 0` below 2⁵³ (NaN gives 0, as the cast of
/// its ceiling would): a truncating cast and a compare instead of a libm
/// call.
#[inline]
fn ceil_index(v: f64) -> usize {
    let t = v as usize;
    t + usize::from((t as f64) < v)
}

/// Bin range `[lo_bin, hi_bin)` the interval `[lo, hi]` covers on an axis of
/// `count` bins of `size` starting at `origin`:
/// `floor((lo − origin)/size)` and `ceil((hi − origin)/size)` clamped to
/// `0..=count`. Clamping first makes the floor a truncating cast and the
/// ceiling a [`ceil_index`]. `lo` and `hi` are finite (clamped to the
/// region), so the clamps are plain compare-and-select.
#[inline]
fn bin_range(lo: f64, hi: f64, origin: f64, size: f64, count: usize) -> [u16; 2] {
    let top = count as u32 as f64;
    let clamp = |q: f64| {
        if q > top {
            top
        } else if q > 0.0 {
            q
        } else {
            0.0
        }
    };
    let b0 = clamp((lo - origin) / size) as usize;
    let b1 = ceil_index(clamp((hi - origin) / size));
    // `count` is within `GRID_AXIS_BINS`, so the casts are exact.
    [b0 as u16, b1 as u16]
}

/// Summary metrics of a congestion map — the routability counterpart of
/// WNS/TNS in the final flow report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CongestionSummary {
    /// Worst per-bin demand/capacity ratio over both directions
    /// (1.0 = exactly at capacity).
    pub max_overflow: f64,
    /// Mean over bins of `max(0, worst-direction ratio − 1)`.
    pub avg_overflow: f64,
    /// Fraction of bins whose worst-direction demand exceeds capacity.
    pub overflowed_frac: f64,
}

impl CongestionSummary {
    /// Computes the summary from demand grids and per-direction capacities.
    ///
    /// # Panics
    ///
    /// Panics if the grids differ in length or capacities are not positive.
    pub fn from_demand(h: &[f64], v: &[f64], cap_h: f64, cap_v: f64) -> CongestionSummary {
        assert_eq!(h.len(), v.len());
        assert!(cap_h > 0.0 && cap_v > 0.0, "capacities must be positive");
        let mut max_ratio = 0.0f64;
        let mut sum_over = 0.0;
        let mut n_over = 0usize;
        for (&dh, &dv) in h.iter().zip(v) {
            let r = (dh / cap_h).max(dv / cap_v);
            max_ratio = max_ratio.max(r);
            if r > 1.0 {
                n_over += 1;
                sum_over += r - 1.0;
            }
        }
        let bins = h.len().max(1) as f64;
        CongestionSummary {
            max_overflow: max_ratio,
            avg_overflow: sum_over / bins,
            overflowed_frac: n_over as f64 / bins,
        }
    }
}

impl std::fmt::Display for CongestionSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "max overflow {:.2}x | avg overflow {:.3} | {:.1}% bins overflowed",
            self.max_overflow,
            self.avg_overflow,
            self.overflowed_frac * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> RouteGrid {
        RouteGrid::new(Rect::new(0.0, 0.0, 10.0, 10.0), 5, 5)
    }

    #[test]
    fn geometry() {
        let g = grid();
        assert_eq!(g.shape(), (5, 5));
        assert_eq!(g.num_bins(), 25);
        assert_eq!(g.bin_w(), 2.0);
        assert_eq!(g.bin_h(), 2.0);
        assert_eq!(g.bin_of(Point::new(0.1, 9.9)), (0, 4));
        // Clamped outside the region.
        assert_eq!(g.bin_of(Point::new(-5.0, 50.0)), (0, 4));
        assert_eq!(g.bin_capacity(0.5), 2.0);
    }

    /// Stamps `rec` over the whole 5 × 5 grid and returns the two fields.
    fn stamped(g: &RouteGrid, rec: &StampRec) -> (Vec<f64>, Vec<f64>, u64) {
        let (mut h, mut v) = (vec![0.0; 25], vec![0.0; 25]);
        let written = g.stamp::<true>(rec, &mut h, &mut v);
        (h, v, written)
    }

    #[test]
    fn stamp_conserves_mass_and_is_taken_back_exactly() {
        let g = grid();
        // A rect straddling several bins and poking outside the region.
        let rec = g.record((-1.0, 3.0, 5.0, 7.5), 6.0, 2.5);
        let (mut h, mut v, written) = stamped(&g, &rec);
        assert!((h.iter().sum::<f64>() - 6.0).abs() < 1e-12, "h mass");
        assert!((v.iter().sum::<f64>() - 2.5).abs() < 1e-12, "v mass");
        assert_eq!(written, 9, "3 columns x 3 rows");
        let mut visited = Vec::new();
        g.for_each_bin(&rec, |b| visited.push(b));
        let touched: Vec<usize> = (0..25).filter(|&b| h[b] != 0.0).collect();
        assert_eq!(visited, touched);
        assert_eq!(g.stamp::<false>(&rec, &mut h, &mut v), 9);
        assert!(
            h.iter().chain(&v).all(|&d| d == 0.0),
            "a lone stamp comes back out bit for bit"
        );
    }

    #[test]
    fn tall_boxes_and_grid_edges_tile_exactly() {
        // Every bin of a box gets `amt · ox · oy / area`, whatever tile it
        // falls in: boxes taller than a tile, ending at the last row, and
        // on a grid too short for a tile of 4.
        for (n, rect) in [
            (5, (0.5, 0.5, 9.5, 10.0)),
            (5, (2.0, 7.9, 4.5, 9.9)),
            (3, (1.0, 0.1, 9.0, 9.9)),
        ] {
            let g = RouteGrid::new(Rect::new(0.0, 0.0, 10.0, 10.0), 5, n);
            let rec = g.record(rect, 3.0, 1.0);
            let (mut h, mut v) = (vec![0.0; 5 * n], vec![0.0; 5 * n]);
            g.stamp::<true>(&rec, &mut h, &mut v);
            let area = (rec.xh - rec.xl) * (rec.yh - rec.yl);
            for i in 0..5 {
                for j in 0..n {
                    let ox =
                        (rec.xh.min(2.0 * (i + 1) as f64) - rec.xl.max(2.0 * i as f64)).max(0.0);
                    let (b0, b1) = (g.bin_h() * j as f64, g.bin_h() * j as f64 + g.bin_h());
                    let oy = (rec.yh.min(b1) - rec.yl.max(b0)).max(0.0);
                    let f = ox * oy * (1.0 / area);
                    assert_eq!(
                        (h[i * n + j], v[i * n + j]),
                        (3.0 * f, 1.0 * f),
                        "bin ({i}, {j}) of {n} rows"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_outside_and_massless_rects_stamp_nothing() {
        let g = grid();
        for rec in [
            g.record((3.0, 4.0, 3.0, 4.0), 1.0, 1.0),
            g.record((12.0, 1.0, 14.0, 2.0), 1.0, 1.0),
            g.record((1.0, 1.0, 4.0, 4.0), 0.0, 0.0),
        ] {
            assert_eq!(rec, StampRec::NONE);
            assert_eq!(stamped(&g, &rec).2, 0);
        }
        assert_eq!(std::mem::size_of::<StampRec>(), 64);
    }

    #[test]
    fn summary_counts_overflowed_bins() {
        let h = vec![0.5, 2.0, 1.0, 3.0];
        let v = vec![0.5, 0.5, 0.5, 0.5];
        let s = CongestionSummary::from_demand(&h, &v, 1.0, 1.0);
        assert_eq!(s.max_overflow, 3.0);
        assert_eq!(s.overflowed_frac, 0.5);
        assert!((s.avg_overflow - (1.0 + 2.0) / 4.0).abs() < 1e-12);
        let text = s.to_string();
        assert!(text.contains("overflow"));
    }
}
