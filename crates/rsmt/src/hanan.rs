//! Exact RSMT for small nets (degree 3 and 4).
//!
//! Hanan's theorem: some RSMT uses only Steiner points on the *Hanan grid*
//! (intersections of horizontal/vertical lines through pins). For degree 3
//! the optimum is the coordinate-wise median point; for degree 4 we enumerate
//! up to two Hanan-grid Steiner points (an RSMT over `n` terminals needs at
//! most `n − 2` Steiner points) and keep the cheapest spanning tree.

use crate::tree::SteinerTree;
use dtp_netlist::Point;

/// Index of the pin holding the median coordinate among exactly 3 values.
fn median_index(vals: [f64; 3]) -> usize {
    let mut idx = [0usize, 1, 2];
    idx.sort_by(|&a, &b| vals[a].partial_cmp(&vals[b]).expect("non-NaN coordinates"));
    idx[1]
}

/// Where the exact degree-3 construction branches: at the coordinate-wise
/// median point.
pub(crate) enum Median3 {
    /// The median point coincides with this pin (the first such pin), which
    /// connects to the other two directly — no Steiner point needed.
    Pin(usize),
    /// A Steiner point at the median, with the pins owning its x and its y.
    Steiner(Point, u32, u32),
}

/// The exact degree-3 construction: a star around the median point.
pub(crate) fn median3(pins: &[Point]) -> Median3 {
    let xs = [pins[0].x, pins[1].x, pins[2].x];
    let ys = [pins[0].y, pins[1].y, pins[2].y];
    let mi = median_index(xs);
    let mj = median_index(ys);
    let m = Point::new(xs[mi], ys[mj]);
    match pins.iter().position(|&p| p == m) {
        Some(k) => Median3::Pin(k),
        None => Median3::Steiner(m, mi as u32, mj as u32),
    }
}

/// Minimum-spanning-tree length and edges over a small point set
/// (Prim, O(k²)).
fn mst(points: &[Point]) -> (f64, Vec<(usize, usize)>) {
    let n = points.len();
    let mut in_tree = vec![false; n];
    let mut best = vec![(f64::INFINITY, 0usize); n];
    in_tree[0] = true;
    for j in 1..n {
        best[j] = (points[0].manhattan(points[j]), 0);
    }
    let mut total = 0.0;
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for _ in 1..n {
        let (u, &(d, from)) = best
            .iter()
            .enumerate()
            .filter(|(i, _)| !in_tree[*i])
            .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("non-NaN distance"))
            .expect("some node remains outside the tree");
        in_tree[u] = true;
        total += d;
        edges.push((from, u));
        for j in 0..n {
            if !in_tree[j] {
                let dj = points[u].manhattan(points[j]);
                if dj < best[j].0 {
                    best[j] = (dj, u);
                }
            }
        }
    }
    (total, edges)
}

/// Builds the exact RSMT for 4 pins.
pub(crate) fn build_hanan4(pins: &[Point]) -> SteinerTree {
    debug_assert_eq!(pins.len(), 4);
    // Candidate Hanan points with their coordinate sources, excluding points
    // that coincide with pins (those add nothing over the plain MST).
    let mut candidates: Vec<(Point, u32, u32)> = Vec::with_capacity(16);
    for (i, pi) in pins.iter().enumerate() {
        for (j, pj) in pins.iter().enumerate() {
            let h = Point::new(pi.x, pj.y);
            if !pins.contains(&h) && !candidates.iter().any(|(c, _, _)| *c == h) {
                candidates.push((h, i as u32, j as u32));
            }
        }
    }

    let mut best_len;
    let mut best_pts: Vec<(Point, u32, u32)> = Vec::new();
    let mut best_edges: Vec<(usize, usize)>;
    {
        let (l, e) = mst(pins);
        best_len = l;
        best_edges = e;
    }
    let mut points = pins.to_vec();
    // One Steiner point.
    for c1 in &candidates {
        points.truncate(pins.len());
        points.push(c1.0);
        let (l, e) = mst(&points);
        if l < best_len - 1e-12 {
            best_len = l;
            best_pts = vec![*c1];
            best_edges = e;
        }
    }
    // Two Steiner points.
    for (a, c1) in candidates.iter().enumerate() {
        for c2 in &candidates[a + 1..] {
            points.truncate(pins.len());
            points.push(c1.0);
            points.push(c2.0);
            let (l, e) = mst(&points);
            if l < best_len - 1e-12 {
                best_len = l;
                best_pts = vec![*c1, *c2];
                best_edges = e;
            }
        }
    }

    // Prune Steiner points of degree < 3: a degree-1 Steiner leaf is useless
    // and a degree-2 Steiner point can be bypassed without changing length.
    loop {
        let n = pins.len() + best_pts.len();
        let mut deg = vec![0usize; n];
        for &(a, b) in &best_edges {
            deg[a] += 1;
            deg[b] += 1;
        }
        let Some(victim) = (pins.len()..n).find(|&i| deg[i] < 3) else {
            break;
        };
        let neighbors: Vec<usize> = best_edges
            .iter()
            .filter(|&&(a, b)| a == victim || b == victim)
            .map(|&(a, b)| if a == victim { b } else { a })
            .collect();
        best_edges.retain(|&(a, b)| a != victim && b != victim);
        if neighbors.len() == 2 {
            best_edges.push((neighbors[0], neighbors[1]));
        }
        // Reindex nodes above the removed Steiner point.
        best_pts.remove(victim - pins.len());
        for e in &mut best_edges {
            if e.0 > victim {
                e.0 -= 1;
            }
            if e.1 > victim {
                e.1 -= 1;
            }
        }
    }

    SteinerTree::from_parts(pins, &best_pts, &best_edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median3_is_optimal() {
        let pins = [Point::new(0.0, 0.0), Point::new(4.0, 3.0), Point::new(4.0, -3.0)];
        let t = SteinerTree::build(&pins);
        assert_eq!(t.wirelength(), 10.0);
        assert_eq!(t.num_nodes(), 4);
    }

    #[test]
    fn median3_collinear_needs_no_steiner() {
        let pins = [Point::new(0.0, 0.0), Point::new(2.0, 0.0), Point::new(5.0, 0.0)];
        let t = SteinerTree::build(&pins);
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.wirelength(), 5.0);
    }

    #[test]
    fn median3_at_pin_location() {
        // Median point equals pin 1.
        let pins = [Point::new(0.0, 0.0), Point::new(1.0, 1.0), Point::new(2.0, 2.0)];
        let t = SteinerTree::build(&pins);
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.wirelength(), 4.0);
    }

    #[test]
    fn four_pin_cross_beats_mst() {
        // Four pins at the compass points of a cross: MST costs 3 edges of
        // length 2 (via center visits? no — pin-to-pin MST costs 6), the RSMT
        // with a center Steiner point costs 4.
        let pins = [
            Point::new(0.0, 1.0),
            Point::new(0.0, -1.0),
            Point::new(1.0, 0.0),
            Point::new(-1.0, 0.0),
        ];
        let t = SteinerTree::build(&pins);
        assert_eq!(t.wirelength(), 4.0);
        assert_eq!(t.num_nodes(), 5);
    }

    #[test]
    fn four_pin_rectangle() {
        // Corners of a 4x1 rectangle: RSMT length = 4 + 1 + 1 = 6.
        let pins = [
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(4.0, 1.0),
        ];
        let t = SteinerTree::build(&pins);
        assert!((t.wirelength() - 6.0).abs() < 1e-12, "wl = {}", t.wirelength());
    }

    #[test]
    fn four_coincident_pins() {
        let p = Point::new(2.0, 2.0);
        let t = SteinerTree::build(&[p, p, p, p]);
        assert_eq!(t.wirelength(), 0.0);
    }

    #[test]
    fn wirelength_never_exceeds_hpwl_sanity() {
        // RSMT ≥ HPWL/1 for 2-3 pins; and ≥ HPWL for any net it is ≥ half
        // perimeter. Spot-check the degree-4 bound RSMT ≥ HP(bbox).
        let pins = [
            Point::new(0.0, 0.0),
            Point::new(3.0, 7.0),
            Point::new(5.0, 2.0),
            Point::new(1.0, 4.0),
        ];
        let t = SteinerTree::build(&pins);
        let bbox = dtp_netlist::Rect::bounding(pins.iter().copied()).unwrap();
        assert!(t.wirelength() >= bbox.half_perimeter() - 1e-12);
    }
}
