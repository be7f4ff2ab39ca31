//! Planar geometry primitives used throughout the placement flow.
//!
//! Coordinates are `f64` microns. Global placement works in continuous
//! coordinates; legalization snaps to rows/sites at the end.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// A point (or displacement vector) in the placement plane.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Point {
    /// Horizontal coordinate in microns.
    pub x: f64,
    /// Vertical coordinate in microns.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Manhattan (rectilinear) distance to `other` — the metric of
    /// rectilinear routing and hence of the Elmore wire model.
    #[inline]
    pub fn manhattan(self, other: Point) -> f64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Euclidean distance to `other` (used only for diagnostics).
    #[inline]
    pub fn euclidean(self, other: Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Point {
    #[inline]
    fn add_assign(&mut self, rhs: Point) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Point {
    #[inline]
    fn sub_assign(&mut self, rhs: Point) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.x, self.y)
    }
}

/// An axis-aligned rectangle given by its lower-left and upper-right corners.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Rect {
    /// Lower-left x.
    pub xl: f64,
    /// Lower-left y.
    pub yl: f64,
    /// Upper-right x.
    pub xh: f64,
    /// Upper-right y.
    pub yh: f64,
}

impl Rect {
    /// Creates a rectangle from its corner coordinates.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the rectangle is inverted.
    #[inline]
    pub fn new(xl: f64, yl: f64, xh: f64, yh: f64) -> Self {
        debug_assert!(xl <= xh && yl <= yh, "inverted rectangle");
        Rect { xl, yl, xh, yh }
    }

    /// An empty rectangle at the origin.
    pub const EMPTY: Rect = Rect { xl: 0.0, yl: 0.0, xh: 0.0, yh: 0.0 };

    /// Width (x extent).
    #[inline]
    pub fn width(&self) -> f64 {
        self.xh - self.xl
    }

    /// Height (y extent).
    #[inline]
    pub fn height(&self) -> f64 {
        self.yh - self.yl
    }

    /// Area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(0.5 * (self.xl + self.xh), 0.5 * (self.yl + self.yh))
    }

    /// Half-perimeter of the rectangle — the HPWL contribution of a net whose
    /// bounding box this is.
    #[inline]
    pub fn half_perimeter(&self) -> f64 {
        self.width() + self.height()
    }

    /// Whether `p` lies inside the rectangle (inclusive of the boundary).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.xl && p.x <= self.xh && p.y >= self.yl && p.y <= self.yh
    }

    /// Grows the rectangle to include `p`.
    #[inline]
    pub fn expand_to(&mut self, p: Point) {
        self.xl = self.xl.min(p.x);
        self.yl = self.yl.min(p.y);
        self.xh = self.xh.max(p.x);
        self.yh = self.yh.max(p.y);
    }

    /// Bounding box of a non-empty set of points.
    ///
    /// Returns `None` when the iterator is empty.
    pub fn bounding<I: IntoIterator<Item = Point>>(points: I) -> Option<Rect> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut r = Rect { xl: first.x, yl: first.y, xh: first.x, yh: first.y };
        for p in it {
            r.expand_to(p);
        }
        Some(r)
    }

    /// Overlap area between two rectangles (zero if disjoint).
    #[inline]
    pub fn overlap_area(&self, other: &Rect) -> f64 {
        let w = (self.xh.min(other.xh) - self.xl.max(other.xl)).max(0.0);
        let h = (self.yh.min(other.yh) - self.yl.max(other.yl)).max(0.0);
        w * h
    }

    /// Clamps a point into the rectangle.
    #[inline]
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(p.x.clamp(self.xl, self.xh), p.y.clamp(self.yl, self.yh))
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.4}, {:.4}] x [{:.4}, {:.4}]", self.xl, self.xh, self.yl, self.yh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, -2.0);
        assert_eq!(a.manhattan(b), 7.0);
        assert_eq!(b.manhattan(a), 7.0);
        assert_eq!(a.manhattan(a), 0.0);
    }

    #[test]
    fn point_arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(0.5, -1.0);
        assert_eq!(a + b, Point::new(1.5, 1.0));
        assert_eq!(a - b, Point::new(0.5, 3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
    }

    #[test]
    fn rect_basics() {
        let r = Rect::new(0.0, 0.0, 4.0, 2.0);
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 2.0);
        assert_eq!(r.area(), 8.0);
        assert_eq!(r.half_perimeter(), 6.0);
        assert_eq!(r.center(), Point::new(2.0, 1.0));
        assert!(r.contains(Point::new(4.0, 2.0)));
        assert!(!r.contains(Point::new(4.1, 2.0)));
    }

    #[test]
    fn bounding_box() {
        let pts = [Point::new(1.0, 5.0), Point::new(-2.0, 3.0), Point::new(0.0, 7.0)];
        let r = Rect::bounding(pts).unwrap();
        assert_eq!(r, Rect::new(-2.0, 3.0, 1.0, 7.0));
        assert_eq!(Rect::bounding(std::iter::empty()), None);
    }

    #[test]
    fn overlap() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        let b = Rect::new(1.0, 1.0, 3.0, 3.0);
        assert_eq!(a.overlap_area(&b), 1.0);
        let c = Rect::new(5.0, 5.0, 6.0, 6.0);
        assert_eq!(a.overlap_area(&c), 0.0);
    }

    #[test]
    fn clamp_into() {
        let r = Rect::new(0.0, 0.0, 2.0, 2.0);
        assert_eq!(r.clamp(Point::new(-1.0, 5.0)), Point::new(0.0, 2.0));
    }
}
