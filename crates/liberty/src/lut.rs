//! Differentiable look-up tables (Fig. 6 of the paper).
//!
//! NLDM characterizes cell delay and output slew as `N × M` tables over
//! `(input slew, output load)`. A query performs bilinear interpolation
//! inside the grid and bilinear **extrapolation** outside it (standard
//! Liberty semantics). The gradient of a query with respect to both query
//! coordinates is piecewise constant per grid cell and is returned together
//! with the value, which is exactly what the backward pass of cell-delay
//! propagation (Eq. 12) consumes.

use crate::error::LibertyError;

/// Axes up to this long are located by a branch-free linear count (NLDM
/// tables have 5–8 samples per axis); longer ones by binary partition.
const LINEAR_LOCATE_MAX: usize = 8;

/// Locates `q` on `axis`, returning the index `i` of the cell `[a_i, a_{i+1}]`
/// used for interpolation/extrapolation (clamped to valid cells) and the
/// unclamped fractional coordinate within it.
///
/// Total in `q`: a NaN query compares below every sample, lands in cell 0
/// and yields a NaN fraction, so NaN in gives NaN out instead of a panic.
#[inline]
fn locate(axis: &[f64], q: f64) -> (usize, f64) {
    let n = axis.len();
    if n == 1 {
        return (0, 0.0);
    }
    // Highest i with axis[i] <= q, clamped into [0, n-2].
    let below = if n <= LINEAR_LOCATE_MAX {
        axis.iter().map(|&a| usize::from(a <= q)).sum()
    } else {
        axis.partition_point(|&a| a <= q)
    };
    let i = below.saturating_sub(1).min(n - 2);
    let t = (q - axis[i]) / (axis[i + 1] - axis[i]);
    (i, t)
}

/// Bilinear value and partial derivatives `(v, ∂v/∂x, ∂v/∂y)` of the
/// row-major table `v` over `xs × ys` at `(x, y)` — the one interpolation
/// kernel behind both [`Lut2::value_grad`] and the flat
/// [`ArcTables`](crate::ArcTables) arena, so the two agree bit for bit.
#[inline]
pub(crate) fn bilinear(xs: &[f64], ys: &[f64], v: &[f64], x: f64, y: f64) -> (f64, f64, f64) {
    let nx = xs.len();
    let ny = ys.len();
    if nx == 1 && ny == 1 {
        return (v[0], 0.0, 0.0);
    }
    if nx == 1 {
        let (j, ty) = locate(ys, y);
        let (v0, v1) = (v[j], v[j + 1]);
        let dy = ys[j + 1] - ys[j];
        return (v0 + ty * (v1 - v0), 0.0, (v1 - v0) / dy);
    }
    if ny == 1 {
        let (i, tx) = locate(xs, x);
        let (v0, v1) = (v[i], v[i + 1]);
        let dx = xs[i + 1] - xs[i];
        return (v0 + tx * (v1 - v0), (v1 - v0) / dx, 0.0);
    }
    let (i, tx) = locate(xs, x);
    let (j, ty) = locate(ys, y);
    let v00 = v[i * ny + j];
    let v01 = v[i * ny + j + 1];
    let v10 = v[(i + 1) * ny + j];
    let v11 = v[(i + 1) * ny + j + 1];
    let dxw = xs[i + 1] - xs[i];
    let dyw = ys[j + 1] - ys[j];
    // 1-D interpolations along y at rows i and i+1 ...
    let a = v00 + ty * (v01 - v00);
    let b = v10 + ty * (v11 - v10);
    // ... then along x.
    let val = a + tx * (b - a);
    let dvdx = (b - a) / dxw;
    let dvdy = ((v01 - v00) * (1.0 - tx) + (v11 - v10) * tx) / dyw;
    (val, dvdx, dvdy)
}

fn check_axis(axis: &[f64], what: &str) -> Result<(), LibertyError> {
    if axis.is_empty() {
        return Err(LibertyError::BadTable(format!("{what} axis is empty")));
    }
    if axis.windows(2).any(|w| w[1] <= w[0]) {
        return Err(LibertyError::BadTable(format!(
            "{what} axis is not strictly increasing"
        )));
    }
    Ok(())
}

/// A one-dimensional look-up table with linear interpolation/extrapolation.
///
/// Used for setup/hold constraint arcs, which in this flow depend on data
/// slew only (the clock network is ideal).
#[derive(Clone, Debug, PartialEq)]
pub struct Lut1 {
    x: Vec<f64>,
    v: Vec<f64>,
}

impl Lut1 {
    /// Creates a 1-D table.
    ///
    /// # Errors
    ///
    /// Returns [`LibertyError::BadTable`] if the axis is empty or not strictly
    /// increasing, or if `values.len() != axis.len()`.
    pub fn new(x: Vec<f64>, v: Vec<f64>) -> Result<Self, LibertyError> {
        check_axis(&x, "index_1")?;
        if v.len() != x.len() {
            return Err(LibertyError::BadTable(format!(
                "expected {} values, got {}",
                x.len(),
                v.len()
            )));
        }
        Ok(Lut1 { x, v })
    }

    /// A constant table (single sample).
    pub fn constant(c: f64) -> Self {
        Lut1 { x: vec![0.0], v: vec![c] }
    }

    /// Axis samples.
    pub fn axis(&self) -> &[f64] {
        &self.x
    }

    /// Table values.
    pub fn values(&self) -> &[f64] {
        &self.v
    }

    /// Interpolated value at `q`.
    pub fn value(&self, q: f64) -> f64 {
        self.value_grad(q).0
    }

    /// Interpolated value and derivative at `q`.
    pub fn value_grad(&self, q: f64) -> (f64, f64) {
        if self.x.len() == 1 {
            return (self.v[0], 0.0);
        }
        let (i, t) = locate(&self.x, q);
        let dv = (self.v[i + 1] - self.v[i]) / (self.x[i + 1] - self.x[i]);
        (self.v[i] + t * (self.v[i + 1] - self.v[i]), dv)
    }
}

/// A two-dimensional NLDM look-up table: `index_1` = input slew (rows),
/// `index_2` = output load (columns), row-major `values`.
///
/// # Example
///
/// ```
/// use dtp_liberty::Lut2;
///
/// # fn main() -> Result<(), dtp_liberty::LibertyError> {
/// let lut = Lut2::new(
///     vec![1.0, 10.0],       // slew axis
///     vec![1.0, 4.0],        // load axis
///     vec![1.0, 2.0,         // values, row-major
///          3.0, 4.0],
/// )?;
/// let (v, dvdx, dvdy) = lut.value_grad(5.5, 2.5);
/// assert!((v - 2.5).abs() < 1e-12);
/// assert!(dvdx > 0.0 && dvdy > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Lut2 {
    x: Vec<f64>,
    y: Vec<f64>,
    v: Vec<f64>,
}

impl Lut2 {
    /// Creates a 2-D table with `values.len() == x.len() * y.len()`.
    ///
    /// # Errors
    ///
    /// Returns [`LibertyError::BadTable`] on inconsistent axes or sizes.
    pub fn new(x: Vec<f64>, y: Vec<f64>, v: Vec<f64>) -> Result<Self, LibertyError> {
        check_axis(&x, "index_1")?;
        check_axis(&y, "index_2")?;
        if v.len() != x.len() * y.len() {
            return Err(LibertyError::BadTable(format!(
                "expected {}x{}={} values, got {}",
                x.len(),
                y.len(),
                x.len() * y.len(),
                v.len()
            )));
        }
        Ok(Lut2 { x, y, v })
    }

    /// A constant table.
    pub fn constant(c: f64) -> Self {
        Lut2 { x: vec![0.0], y: vec![0.0], v: vec![c] }
    }

    /// Builds a table by sampling `f(slew, load)` on the given axes. The
    /// synthetic PDK uses this to fill tables from analytic delay models.
    ///
    /// # Errors
    ///
    /// Returns [`LibertyError::BadTable`] on inconsistent axes.
    pub fn tabulate(
        x: Vec<f64>,
        y: Vec<f64>,
        mut f: impl FnMut(f64, f64) -> f64,
    ) -> Result<Self, LibertyError> {
        check_axis(&x, "index_1")?;
        check_axis(&y, "index_2")?;
        let mut v = Vec::with_capacity(x.len() * y.len());
        for &xi in &x {
            for &yj in &y {
                v.push(f(xi, yj));
            }
        }
        Ok(Lut2 { x, y, v })
    }

    /// `index_1` (input slew) samples.
    pub fn x_axis(&self) -> &[f64] {
        &self.x
    }

    /// `index_2` (output load) samples.
    pub fn y_axis(&self) -> &[f64] {
        &self.y
    }

    /// Row-major values.
    pub fn values(&self) -> &[f64] {
        &self.v
    }

    /// Interpolated/extrapolated value at `(x, y)`.
    #[inline]
    pub fn value(&self, x: f64, y: f64) -> f64 {
        self.value_grad(x, y).0
    }

    /// Value and partial derivatives `(v, ∂v/∂x, ∂v/∂y)` at `(x, y)`.
    ///
    /// This is the "three 1-D interpolations" scheme of the paper's Fig. 6:
    /// two interpolations along `y` at the bracketing rows, then one along
    /// `x`; the gradient falls out of the same expressions.
    #[inline]
    pub fn value_grad(&self, x: f64, y: f64) -> (f64, f64, f64) {
        bilinear(&self.x, &self.y, &self.v, x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid() -> Lut2 {
        // v(x, y) = 2x + 3y sampled exactly; bilinear interpolation of a
        // bilinear function is exact everywhere including extrapolation.
        Lut2::tabulate(
            vec![0.0, 1.0, 4.0, 10.0],
            vec![0.0, 2.0, 8.0],
            |x, y| 2.0 * x + 3.0 * y,
        )
        .unwrap()
    }

    #[test]
    fn exact_on_linear_function() {
        let lut = grid();
        for &(x, y) in &[(0.5, 1.0), (3.0, 7.0), (-2.0, -1.0), (20.0, 30.0), (10.0, 8.0)] {
            let (v, gx, gy) = lut.value_grad(x, y);
            assert!((v - (2.0 * x + 3.0 * y)).abs() < 1e-9, "v({x},{y}) = {v}");
            assert!((gx - 2.0).abs() < 1e-9);
            assert!((gy - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn matches_corner_values() {
        let lut = Lut2::new(vec![1.0, 2.0], vec![10.0, 20.0], vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        assert_eq!(lut.value(1.0, 10.0), 5.0);
        assert_eq!(lut.value(1.0, 20.0), 6.0);
        assert_eq!(lut.value(2.0, 10.0), 7.0);
        assert_eq!(lut.value(2.0, 20.0), 8.0);
    }

    #[test]
    fn rejects_bad_tables() {
        assert!(Lut2::new(vec![], vec![1.0], vec![]).is_err());
        assert!(Lut2::new(vec![1.0, 1.0], vec![1.0], vec![1.0, 2.0]).is_err());
        assert!(Lut2::new(vec![2.0, 1.0], vec![1.0], vec![1.0, 2.0]).is_err());
        assert!(Lut2::new(vec![1.0, 2.0], vec![1.0], vec![1.0]).is_err());
        assert!(Lut1::new(vec![1.0, 0.5], vec![0.0, 0.0]).is_err());
        assert!(Lut1::new(vec![1.0], vec![]).is_err());
    }

    #[test]
    fn constant_tables() {
        let l2 = Lut2::constant(42.0);
        assert_eq!(l2.value_grad(123.0, -5.0), (42.0, 0.0, 0.0));
        let l1 = Lut1::constant(7.0);
        assert_eq!(l1.value_grad(1e9), (7.0, 0.0));
    }

    #[test]
    fn lut1_interp_and_extrap() {
        let l = Lut1::new(vec![0.0, 10.0], vec![0.0, 100.0]).unwrap();
        assert_eq!(l.value(5.0), 50.0);
        assert_eq!(l.value(-5.0), -50.0); // extrapolation
        assert_eq!(l.value(20.0), 200.0);
        assert_eq!(l.value_grad(3.0).1, 10.0);
    }

    #[test]
    fn degenerate_single_row_or_column() {
        let row = Lut2::new(vec![1.0], vec![0.0, 1.0], vec![3.0, 5.0]).unwrap();
        let (v, gx, gy) = row.value_grad(99.0, 0.5);
        assert_eq!((v, gx, gy), (4.0, 0.0, 2.0));
        let col = Lut2::new(vec![0.0, 1.0], vec![1.0], vec![3.0, 5.0]).unwrap();
        let (v, gx, gy) = col.value_grad(0.5, 99.0);
        assert_eq!((v, gx, gy), (4.0, 2.0, 0.0));
    }

    #[test]
    fn nan_query_is_nan_not_a_panic() {
        let l1 = Lut1::new(vec![0.0, 10.0, 20.0], vec![0.0, 100.0, 150.0]).unwrap();
        let (v, _) = l1.value_grad(f64::NAN);
        assert!(v.is_nan());
        let (v, gx, gy) = grid().value_grad(f64::NAN, 1.0);
        assert!(v.is_nan() && gx.is_finite() && gy.is_nan());
        assert!(grid().value(1.0, f64::NAN).is_nan());
        // Degenerate single-row/column tables take the 1-D branches.
        let row = Lut2::new(vec![1.0], vec![0.0, 1.0], vec![3.0, 5.0]).unwrap();
        assert!(row.value(0.0, f64::NAN).is_nan());
        // Infinite queries extrapolate instead of panicking, too.
        assert_eq!(l1.value(f64::INFINITY), f64::INFINITY);
    }

    #[test]
    fn long_axes_locate_like_short_ones() {
        // 12 samples take the binary-partition branch of `locate`; a linear
        // truth makes every cell (and both extrapolation sides) checkable.
        let x: Vec<f64> = (0..12).map(|i| i as f64 * 1.5).collect();
        let l = Lut1::new(x.clone(), x.iter().map(|&a| 4.0 * a - 1.0).collect()).unwrap();
        for q in [-3.0, 0.0, 0.7, 1.5, 8.2, 16.5, 16.6, 40.0] {
            assert!((l.value(q) - (4.0 * q - 1.0)).abs() < 1e-9, "q = {q}");
        }
        assert!(l.value(f64::NAN).is_nan());
    }

    /// Central finite difference of a scalar function.
    fn fd(mut f: impl FnMut(f64) -> f64, x: f64, h: f64) -> f64 {
        (f(x + h) - f(x - h)) / (2.0 * h)
    }

    proptest! {
        #[test]
        fn gradient_matches_finite_difference(
            x in -5.0..20.0f64,
            y in -5.0..20.0f64,
        ) {
            // A curved (quadratic) truth sampled on a grid: interpolation is
            // not exact, but its *own* gradient must match its own finite
            // difference away from grid lines.
            let lut = Lut2::tabulate(
                vec![0.0, 2.0, 5.0, 9.0, 14.0],
                vec![0.0, 3.0, 7.0, 12.0],
                |x, y| 0.5 * x * x + 0.1 * x * y + y,
            ).unwrap();
            let h = 1e-7;
            // Skip queries within h of a grid line (gradient is discontinuous there).
            let near = |axis: &[f64], q: f64| axis.iter().any(|&a| (a - q).abs() < 1e-4);
            prop_assume!(!near(lut.x_axis(), x) && !near(lut.y_axis(), y));
            let (_, gx, gy) = lut.value_grad(x, y);
            let nx = fd(|t| lut.value(t, y), x, h);
            let ny = fd(|t| lut.value(x, t), y, h);
            prop_assert!((gx - nx).abs() < 1e-4, "gx={gx} fd={nx}");
            prop_assert!((gy - ny).abs() < 1e-4, "gy={gy} fd={ny}");
        }

        #[test]
        fn interpolation_within_value_bounds_inside_grid(
            x in 0.0..14.0f64,
            y in 0.0..12.0f64,
        ) {
            let lut = Lut2::tabulate(
                vec![0.0, 2.0, 5.0, 9.0, 14.0],
                vec![0.0, 3.0, 7.0, 12.0],
                |x, y| x.sin() + y.cos(),
            ).unwrap();
            let v = lut.value(x, y);
            let lo = lut.values().iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = lut.values().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }
}
