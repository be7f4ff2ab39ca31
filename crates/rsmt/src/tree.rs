//! The Steiner tree data structure with branch tracking.
//!
//! A tree is six parallel node arrays (`x y parent order x_src y_src`).
//! [`SteinerTree`] owns its arrays; a [`SteinerForest`](crate::SteinerForest)
//! keeps the arrays of every net in one arena. Both hand out the same
//! borrowed [`TreeView`], and every construction writes through the same
//! exclusive [`TreeMut`], so a tree is built, updated and read by one code
//! path wherever it lives.

use crate::hanan::{median3, Median3};
use dtp_netlist::Point;

/// Largest tree (in nodes) any Steiner backend builds for a net of `degree`
/// pins — the per-net capacity of the forest arena (and of every per-node
/// arena laid out alongside it, such as the timer's Elmore state). One- and
/// two-pin nets have no Steiner point; beyond that the Prim heuristic may
/// insert one corner per edge (`degree − 1` of them), which bounds the exact
/// and table constructions (`degree − 2`) too.
pub fn node_capacity(degree: usize) -> usize {
    if degree <= 2 { degree } else { 2 * degree - 1 }
}

/// A borrowed rooted rectilinear Steiner tree over a net's pins.
///
/// Nodes `0..num_pins()` are the net pins in their original order (node 0 is
/// the driver and the tree root); nodes `num_pins()..num_nodes()` are Steiner
/// points. Every node records which *pin* owns its x coordinate and which
/// owns its y coordinate (for pins: itself); this is the paper's Fig. 4
/// branch bookkeeping, used both for incremental updates and for routing
/// Steiner-point gradients back to pins.
#[derive(Clone, Copy, Debug)]
pub struct TreeView<'a> {
    n_pins: usize,
    x: &'a [f64],
    y: &'a [f64],
    /// Parent of each node; the root is its own parent.
    parent: &'a [u32],
    /// Pre-order traversal (root first); reverse is a valid bottom-up order.
    order: &'a [u32],
    x_src: &'a [u32],
    y_src: &'a [u32],
}

impl<'a> TreeView<'a> {
    /// Number of pin nodes.
    #[inline]
    pub fn num_pins(self) -> usize {
        self.n_pins
    }

    /// Total number of nodes (pins + Steiner points).
    #[inline]
    pub fn num_nodes(self) -> usize {
        self.x.len()
    }

    /// Position of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn node_pos(self, i: usize) -> Point {
        Point::new(self.x[i], self.y[i])
    }

    /// Parent of node `i`, or `None` for the root.
    #[inline]
    pub fn parent_of(self, i: usize) -> Option<usize> {
        let p = self.parent[i] as usize;
        (p != i).then_some(p)
    }

    /// Pre-order traversal, root first. The reverse order visits children
    /// before parents (the bottom-up order of the Elmore passes).
    #[inline]
    pub fn preorder(self) -> &'a [u32] {
        self.order
    }

    /// Pin indices owning each node's x coordinate.
    #[inline]
    pub fn x_sources(self) -> &'a [u32] {
        self.x_src
    }

    /// Pin indices owning each node's y coordinate.
    #[inline]
    pub fn y_sources(self) -> &'a [u32] {
        self.y_src
    }

    /// Iterates over `(child, parent)` edges.
    pub fn edges(self) -> impl Iterator<Item = (usize, usize)> + 'a {
        (0..self.num_nodes()).filter_map(move |i| self.parent_of(i).map(|p| (i, p)))
    }

    /// Manhattan length of the edge from node `i` to its parent (0 for root).
    #[inline]
    pub fn edge_length(self, i: usize) -> f64 {
        match self.parent_of(i) {
            Some(p) => self.node_pos(i).manhattan(self.node_pos(p)),
            None => 0.0,
        }
    }

    /// Total tree wirelength.
    pub fn wirelength(self) -> f64 {
        (0..self.num_nodes()).map(|i| self.edge_length(i)).sum()
    }

    /// Half-perimeter of the bounding box of the *pin* nodes — the natural
    /// length scale of the net, used to decide when accumulated cell drift
    /// justifies a topology rebuild rather than a coordinate update.
    pub fn pin_bbox_half_perimeter(self) -> f64 {
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for (&x, &y) in self.x[..self.n_pins].iter().zip(&self.y[..self.n_pins]) {
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        (max_x - min_x) + (max_y - min_y)
    }
}

/// Six parallel node arrays: the storage of one owned tree, or of a whole
/// forest.
#[derive(Clone, Debug)]
pub(crate) struct Nodes {
    pub x: Vec<f64>,
    pub y: Vec<f64>,
    pub parent: Vec<u32>,
    pub order: Vec<u32>,
    pub x_src: Vec<u32>,
    pub y_src: Vec<u32>,
}

impl Nodes {
    pub fn zeroed(n: usize) -> Nodes {
        Nodes {
            x: vec![0.0; n],
            y: vec![0.0; n],
            parent: vec![0; n],
            order: vec![0; n],
            x_src: vec![0; n],
            y_src: vec![0; n],
        }
    }

    /// The tree of `n_pins` pins stored in nodes `lo..lo + n_nodes`.
    #[inline]
    pub fn view(&self, lo: usize, n_nodes: usize, n_pins: usize) -> TreeView<'_> {
        let r = lo..lo + n_nodes;
        TreeView {
            n_pins,
            x: &self.x[r.clone()],
            y: &self.y[r.clone()],
            parent: &self.parent[r.clone()],
            order: &self.order[r.clone()],
            x_src: &self.x_src[r.clone()],
            y_src: &self.y_src[r],
        }
    }

    pub fn as_mut(&mut self) -> NodesMut<'_> {
        NodesMut {
            x: &mut self.x,
            y: &mut self.y,
            parent: &mut self.parent,
            order: &mut self.order,
            x_src: &mut self.x_src,
            y_src: &mut self.y_src,
        }
    }
}

/// Exclusive view of a node range of [`Nodes`].
pub(crate) struct NodesMut<'a> {
    pub x: &'a mut [f64],
    pub y: &'a mut [f64],
    pub parent: &'a mut [u32],
    pub order: &'a mut [u32],
    pub x_src: &'a mut [u32],
    pub y_src: &'a mut [u32],
}

impl NodesMut<'_> {
    /// The storage of the tree occupying nodes `lo..hi` of this view.
    #[inline]
    pub fn tree<'t>(&'t mut self, lo: usize, hi: usize, n_nodes: &'t mut u32) -> TreeMut<'t> {
        TreeMut {
            n_nodes,
            x: &mut self.x[lo..hi],
            y: &mut self.y[lo..hi],
            parent: &mut self.parent[lo..hi],
            order: &mut self.order[lo..hi],
            x_src: &mut self.x_src[lo..hi],
            y_src: &mut self.y_src[lo..hi],
        }
    }
}

/// Exclusive access to one tree's storage: six node arrays of the tree's
/// *capacity* (≥ its node count) plus the live node count. Every
/// construction and update writes through this, whether the storage is a
/// [`SteinerTree`]'s own vectors or a net's range of the forest arena.
pub(crate) struct TreeMut<'a> {
    pub n_nodes: &'a mut u32,
    pub x: &'a mut [f64],
    pub y: &'a mut [f64],
    pub parent: &'a mut [u32],
    pub order: &'a mut [u32],
    pub x_src: &'a mut [u32],
    pub y_src: &'a mut [u32],
}

impl TreeMut<'_> {
    /// Writes the pin nodes (each its own coordinate source).
    fn set_pins(&mut self, pins: &[Point]) {
        for (i, p) in pins.iter().enumerate() {
            self.x[i] = p.x;
            self.y[i] = p.y;
            self.x_src[i] = i as u32;
            self.y_src[i] = i as u32;
        }
    }

    /// Assembles the tree from pins, Steiner points (with their coordinate
    /// sources) and undirected edges, then roots it at node 0 via `adj`'s CSR
    /// scratch. The CSR fill preserves the per-node neighbor insertion order
    /// of the edge scan, which fixes parents and pre-order.
    ///
    /// # Panics
    ///
    /// Panics if the edges do not form a spanning tree over all nodes, or the
    /// tree exceeds the storage's capacity.
    pub fn rebuild_from_parts(
        &mut self,
        pins: &[Point],
        steiner: &[(Point, u32, u32)],
        edges: &[(usize, usize)],
        adj: &mut AdjScratch,
    ) {
        let n_pins = pins.len();
        let n = n_pins + steiner.len();
        assert!(n <= self.x.len(), "tree of {n} nodes outgrew its capacity {}", self.x.len());
        *self.n_nodes = n as u32;
        self.set_pins(pins);
        for (i, &(p, xs, ys)) in (n_pins..).zip(steiner) {
            debug_assert!((xs as usize) < n_pins && (ys as usize) < n_pins);
            self.x[i] = p.x;
            self.y[i] = p.y;
            self.x_src[i] = xs;
            self.y_src[i] = ys;
        }
        // CSR adjacency: counting pass, prefix sums, then a fill pass in edge
        // order (per-node neighbor order == push order of a Vec<Vec> build).
        adj.head.clear();
        adj.head.resize(n + 1, 0);
        for &(a, b) in edges {
            adj.head[a + 1] += 1;
            adj.head[b + 1] += 1;
        }
        for i in 0..n {
            adj.head[i + 1] += adj.head[i];
        }
        adj.cursor.clear();
        adj.cursor.extend_from_slice(&adj.head[..n]);
        adj.nbr.clear();
        adj.nbr.resize(2 * edges.len(), 0);
        for &(a, b) in edges {
            adj.nbr[adj.cursor[a] as usize] = b as u32;
            adj.cursor[a] += 1;
            adj.nbr[adj.cursor[b] as usize] = a as u32;
            adj.cursor[b] += 1;
        }
        let parent = &mut self.parent[..n];
        parent.fill(u32::MAX);
        parent[0] = 0;
        let mut visited = 0;
        adj.stack.clear();
        adj.stack.push(0);
        while let Some(u) = adj.stack.pop() {
            self.order[visited] = u;
            visited += 1;
            let (lo, hi) = (adj.head[u as usize] as usize, adj.head[u as usize + 1] as usize);
            for &v in &adj.nbr[lo..hi] {
                if parent[v as usize] == u32::MAX {
                    parent[v as usize] = u;
                    adj.stack.push(v);
                }
            }
        }
        assert_eq!(visited, n, "edges do not span all tree nodes");
    }

    /// The exact constructions for 1–3 pins with parents and pre-order in
    /// closed form: what [`TreeMut::rebuild_from_parts`] emits for the edge
    /// lists `[]`, `[(0, 1)]` and the [`median3`] star (edges in pin order), without
    /// the adjacency build and DFS.
    pub fn build_small(&mut self, pins: &[Point]) {
        self.set_pins(pins);
        let (parent, order): (&[u32], &[u32]) = match pins.len() {
            1 => (&[0], &[0]),
            2 => (&[0, 0], &[0, 1]),
            3 => match median3(pins) {
                // A star around the pin the median point coincides with.
                Median3::Pin(0) => (&[0, 0, 0], &[0, 2, 1]),
                Median3::Pin(1) => (&[0, 0, 1], &[0, 1, 2]),
                Median3::Pin(_) => (&[0, 2, 0], &[0, 2, 1]),
                // A star around a Steiner point (node 3) at the median.
                Median3::Steiner(m, xs, ys) => {
                    (self.x[3], self.y[3], self.x_src[3], self.y_src[3]) = (m.x, m.y, xs, ys);
                    (&[0, 3, 3, 0], &[0, 3, 2, 1])
                }
            },
            n => unreachable!("closed forms cover 1–3 pins, not {n}"),
        };
        *self.n_nodes = parent.len() as u32;
        self.parent[..parent.len()].copy_from_slice(parent);
        self.order[..order.len()].copy_from_slice(order);
    }

    /// Copies another tree in (it must fit the capacity).
    pub fn copy_from(&mut self, t: TreeView<'_>) {
        let n = t.num_nodes();
        *self.n_nodes = n as u32;
        self.x[..n].copy_from_slice(t.x);
        self.y[..n].copy_from_slice(t.y);
        self.parent[..n].copy_from_slice(t.parent);
        self.order[..n].copy_from_slice(t.order);
        self.x_src[..n].copy_from_slice(t.x_src);
        self.y_src[..n].copy_from_slice(t.y_src);
    }

    /// Moves pin `i` (the Steiner points follow in
    /// [`TreeMut::ride_branches`]).
    #[inline]
    pub fn set_pin_pos(&mut self, i: usize, p: Point) {
        self.x[i] = p.x;
        self.y[i] = p.y;
    }

    /// Lets the Steiner points ride along with their branches (Fig. 4): each
    /// Steiner coordinate is re-read from its source pin.
    #[inline]
    pub fn ride_branches(&mut self, n_pins: usize) {
        for i in n_pins..*self.n_nodes as usize {
            self.x[i] = self.x[self.x_src[i] as usize];
            self.y[i] = self.y[self.y_src[i] as usize];
        }
    }

    /// Moves all pins and lets the Steiner points follow.
    pub fn update_pins(&mut self, pins: &[Point]) {
        for (i, &p) in pins.iter().enumerate() {
            self.set_pin_pos(i, p);
        }
        self.ride_branches(pins.len());
    }
}

/// An owned Steiner tree (see [`TreeView`] for the node model). The forest
/// keeps its trees in an arena instead; this type serves one-off nets, tests
/// and reference implementations.
#[derive(Clone, Debug)]
pub struct SteinerTree {
    n_pins: usize,
    nodes: Nodes,
}

impl SteinerTree {
    /// Builds the tree for `pins` (`pins[0]` is the driver/root).
    ///
    /// Degree ≤ 4 nets use exact constructions; larger nets use a rectilinear
    /// Prim heuristic with corner steinerization.
    ///
    /// # Panics
    ///
    /// Panics if `pins` is empty.
    pub fn build(pins: &[Point]) -> SteinerTree {
        assert!(!pins.is_empty(), "a net must have at least one pin");
        match pins.len() {
            1..=3 => SteinerTree::build_in(pins.len(), node_capacity(pins.len()), |mut t| {
                t.build_small(pins)
            }),
            4 => crate::hanan::build_hanan4(pins),
            _ => crate::mst::build_prim_steiner(pins),
        }
    }

    /// Allocates storage for `capacity` nodes, lets `fill` construct the tree
    /// in it, and trims the storage to the nodes actually built.
    pub(crate) fn build_in(
        n_pins: usize,
        capacity: usize,
        fill: impl FnOnce(TreeMut<'_>),
    ) -> SteinerTree {
        let mut nodes = Nodes::zeroed(capacity);
        let mut n_nodes = 0;
        fill(nodes.as_mut().tree(0, capacity, &mut n_nodes));
        let n = n_nodes as usize;
        nodes.x.truncate(n);
        nodes.y.truncate(n);
        for a in [&mut nodes.parent, &mut nodes.order, &mut nodes.x_src, &mut nodes.y_src] {
            a.truncate(n);
        }
        SteinerTree { n_pins, nodes }
    }

    /// Assembles a tree from pins, Steiner points (with their coordinate
    /// sources) and undirected edges, rooted at node 0.
    ///
    /// # Panics
    ///
    /// Panics if the edges do not form a spanning tree over all nodes.
    pub(crate) fn from_parts(
        pins: &[Point],
        steiner: &[(Point, u32, u32)],
        edges: &[(usize, usize)],
    ) -> SteinerTree {
        SteinerTree::build_in(pins.len(), pins.len() + steiner.len(), |mut t| {
            t.rebuild_from_parts(pins, steiner, edges, &mut AdjScratch::default())
        })
    }

    /// The borrowed form every tree consumer takes.
    #[inline]
    pub fn view(&self) -> TreeView<'_> {
        self.nodes.view(0, self.num_nodes(), self.n_pins)
    }

    /// Number of pin nodes.
    pub fn num_pins(&self) -> usize {
        self.n_pins
    }

    /// Total number of nodes (pins + Steiner points).
    pub fn num_nodes(&self) -> usize {
        self.nodes.x.len()
    }

    /// Position of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn node_pos(&self, i: usize) -> Point {
        self.view().node_pos(i)
    }

    /// Parent of node `i`, or `None` for the root.
    #[inline]
    pub fn parent_of(&self, i: usize) -> Option<usize> {
        self.view().parent_of(i)
    }

    /// Pre-order traversal, root first. The reverse order visits children
    /// before parents (the bottom-up order of the Elmore passes).
    pub fn preorder(&self) -> &[u32] {
        &self.nodes.order
    }

    /// Pin indices owning each node's x coordinate.
    pub fn x_sources(&self) -> &[u32] {
        &self.nodes.x_src
    }

    /// Pin indices owning each node's y coordinate.
    pub fn y_sources(&self) -> &[u32] {
        &self.nodes.y_src
    }

    /// Iterates over `(child, parent)` edges.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.view().edges()
    }

    /// Manhattan length of the edge from node `i` to its parent (0 for root).
    #[inline]
    pub fn edge_length(&self, i: usize) -> f64 {
        self.view().edge_length(i)
    }

    /// Total tree wirelength.
    pub fn wirelength(&self) -> f64 {
        self.view().wirelength()
    }

    /// Half-perimeter of the bounding box of the *pin* nodes (see
    /// [`TreeView::pin_bbox_half_perimeter`]).
    pub fn pin_bbox_half_perimeter(&self) -> f64 {
        self.view().pin_bbox_half_perimeter()
    }

    /// Moves the pins to new positions and lets the Steiner points ride along
    /// with their branches (Fig. 4): each Steiner coordinate is re-read from
    /// its source pin. The topology is unchanged — this is the cheap update
    /// used for the 9 iterations between FLUTE rebuilds (§3.6).
    ///
    /// # Panics
    ///
    /// Panics if `pins.len() != num_pins()`.
    pub fn update_pins(&mut self, pins: &[Point]) {
        assert_eq!(pins.len(), self.n_pins, "pin count changed");
        let (n, mut n_nodes) = (self.num_nodes(), self.num_nodes() as u32);
        self.nodes.as_mut().tree(0, n, &mut n_nodes).update_pins(pins);
    }

    /// Routes per-node gradients back to per-pin gradients: pin nodes keep
    /// their own gradient, Steiner-point gradients are added to the pins that
    /// own the corresponding coordinate (the backward counterpart of Fig. 4).
    ///
    /// `grad_x[i]`, `grad_y[i]` are ∂f/∂(node i position); the result is
    /// indexed by pin.
    ///
    /// # Panics
    ///
    /// Panics if the gradient slices are shorter than `num_nodes()`.
    pub fn scatter_gradient(&self, grad_x: &[f64], grad_y: &[f64]) -> Vec<(f64, f64)> {
        let mut out = vec![(0.0, 0.0); self.n_pins];
        for i in 0..self.num_nodes() {
            out[self.nodes.x_src[i] as usize].0 += grad_x[i];
            out[self.nodes.y_src[i] as usize].1 += grad_y[i];
        }
        out
    }
}

/// Reusable CSR adjacency + DFS scratch for [`TreeMut::rebuild_from_parts`].
#[derive(Clone, Debug, Default)]
pub(crate) struct AdjScratch {
    head: Vec<u32>,
    cursor: Vec<u32>,
    nbr: Vec<u32>,
    stack: Vec<u32>,
}

impl AdjScratch {
    /// Sizes every buffer for trees of up to `nodes` nodes.
    pub fn reserve(&mut self, nodes: usize) {
        grow(&mut self.head, nodes + 1);
        grow(&mut self.cursor, nodes);
        grow(&mut self.nbr, 2 * nodes);
        grow(&mut self.stack, nodes);
    }
}

/// Grows `v`'s capacity to at least `capacity` elements.
pub(crate) fn grow<T>(v: &mut Vec<T>, capacity: usize) {
    v.reserve(capacity.saturating_sub(v.len()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_pin() {
        let t = SteinerTree::build(&[Point::new(1.0, 2.0)]);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.wirelength(), 0.0);
        assert_eq!(t.parent_of(0), None);
        assert_eq!(t.edges().count(), 0);
    }

    #[test]
    fn two_pins() {
        let t = SteinerTree::build(&[Point::new(0.0, 0.0), Point::new(3.0, 4.0)]);
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.wirelength(), 7.0);
        assert_eq!(t.parent_of(1), Some(0));
    }

    #[test]
    fn closed_forms_equal_the_dfs_construction() {
        // Degrees 1–3 over a small grid hit every `build_small` arm (median
        // at pin 0/1/2, a Steiner point, coincident pins); parents,
        // pre-order and coordinate sources must equal what the adjacency +
        // DFS build emits for the same parts.
        let grid: Vec<Point> =
            (0..9).map(|i| Point::new((i % 3) as f64, (i / 3) as f64)).collect();
        let mut arms = std::collections::BTreeSet::new();
        let mut check = |pins: &[Point]| {
            let (steiner, edges) = match pins.len() {
                1 => (vec![], vec![]),
                2 => (vec![], vec![(0, 1)]),
                _ => match median3(pins) {
                    Median3::Steiner(m, xs, ys) => {
                        (vec![(m, xs, ys)], vec![(0, 3), (1, 3), (2, 3)])
                    }
                    Median3::Pin(k) => {
                        (vec![], (0..3).filter(|&i| i != k).map(|i| (k, i)).collect())
                    }
                },
            };
            let want = SteinerTree::from_parts(pins, &steiner, &edges);
            let got = SteinerTree::build(pins);
            let (g, w) = (&got.nodes, &want.nodes);
            assert_eq!(g.parent, w.parent, "{pins:?}");
            assert_eq!(g.order, w.order, "{pins:?}");
            assert_eq!((&g.x, &g.y), (&w.x, &w.y), "{pins:?}");
            assert_eq!((&g.x_src, &g.y_src), (&w.x_src, &w.y_src), "{pins:?}");
            arms.insert(g.parent.clone());
        };
        for &a in &grid {
            check(&[a]);
            for &b in &grid {
                check(&[a, b]);
                for &c in &grid {
                    check(&[a, b, c]);
                }
            }
        }
        assert_eq!(arms.len(), 6, "some closed form was never exercised");
    }

    #[test]
    fn preorder_parents_first() {
        let pins: Vec<Point> = (0..8)
            .map(|i| Point::new((i * 7 % 5) as f64, (i * 3 % 7) as f64))
            .collect();
        let t = SteinerTree::build(&pins);
        let order = t.preorder();
        assert_eq!(order.len(), t.num_nodes());
        let mut seen = vec![false; t.num_nodes()];
        for &u in order {
            if let Some(p) = t.parent_of(u as usize) {
                assert!(seen[p], "parent of {u} not visited first");
            }
            seen[u as usize] = true;
        }
    }

    #[test]
    fn update_pins_moves_steiner_points() {
        let mut pins = vec![Point::new(0.0, 0.0), Point::new(4.0, 3.0), Point::new(4.0, -3.0)];
        let mut t = SteinerTree::build(&pins);
        assert!(t.num_nodes() > 3, "median construction adds a Steiner point");
        let wl0 = t.wirelength();
        // Shift everything by (1, 1): wirelength invariant, Steiner follows.
        for p in &mut pins {
            *p += Point::new(1.0, 1.0);
        }
        t.update_pins(&pins);
        assert!((t.wirelength() - wl0).abs() < 1e-12);
        let s = t.node_pos(3);
        assert_eq!(s, Point::new(5.0, 1.0));
    }

    #[test]
    fn scatter_gradient_routes_to_source_pins() {
        let pins = vec![Point::new(0.0, 0.0), Point::new(4.0, 3.0), Point::new(4.0, -3.0)];
        let t = SteinerTree::build(&pins);
        let n = t.num_nodes();
        // Put gradient 1.0 on the Steiner point only.
        let mut gx = vec![0.0; n];
        let mut gy = vec![0.0; n];
        gx[n - 1] = 1.0;
        gy[n - 1] = 2.0;
        let per_pin = t.scatter_gradient(&gx, &gy);
        let total_x: f64 = per_pin.iter().map(|g| g.0).sum();
        let total_y: f64 = per_pin.iter().map(|g| g.1).sum();
        assert_eq!(total_x, 1.0);
        assert_eq!(total_y, 2.0);
        // The x gradient lands on the pin owning the Steiner x (a pin with x = 4).
        let xs = t.x_sources()[n - 1] as usize;
        assert_eq!(pins[xs].x, 4.0);
        assert_eq!(per_pin[xs].0, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one pin")]
    fn empty_net_panics() {
        let _ = SteinerTree::build(&[]);
    }
}
