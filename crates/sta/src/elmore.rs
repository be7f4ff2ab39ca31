//! Differentiable Elmore wire-delay model (§3.4.2, Eqs. 7–8, Fig. 5).
//!
//! Forward: four dynamic-programming passes over the net's Steiner tree,
//! alternating bottom-up and top-down, computing `Load`, `Delay`, `LDelay`,
//! `Beta` and the slew `Impulse`. Backward: four passes in the exact reverse
//! order computing the adjoints, then the chain rule through
//! `Res = r·len(edge)` and `Cap = pin_cap + (c/2)·Σ len(adjacent edges)` down
//! to node positions.
//!
//! Note on Eq. (8) of the paper: equations (8c) and (8f) as printed contain
//! two apparent typos (`+2·Delay·∇Impulse²` should carry a minus sign because
//! `Impulse² = 2·Beta − Delay²`, and `Beta(u)·∇LDelay(u)` in (8f) should be
//! `LDelay(u)·∇Beta(u)`, the adjoint of `Beta(u) = Beta(fa) + Res·LDelay(u)`).
//! This implementation uses the mathematically consistent forms and validates
//! them against finite differences in the test suite.
//!
//! Two implementations live here. [`ElmoreNet`] owns its per-node vectors and
//! allocates them per call: it is the readable reference, used by tests and
//! `figure4`. The timing engine runs the
//! slice kernels [`forward_into`] / [`backward_into`] over one persistent
//! struct-of-arrays [`ElmoreArena`] shared by every net (each net owns a
//! fixed node range), which perform the same arithmetic in the same order
//! and are tested bit-for-bit against the reference.

use dtp_rsmt::{SteinerTree, TreeView};

/// Per-net Elmore state: the forward quantities of Eq. (7), indexed by tree
/// node (pins first, Steiner points after).
#[derive(Clone, Debug)]
pub struct ElmoreNet {
    /// Node capacitance: pin cap + half the wire cap of adjacent edges (fF).
    cap: Vec<f64>,
    /// Resistance of the edge from the node to its parent (kΩ); 0 at root.
    res: Vec<f64>,
    /// Downstream capacitance (Eq. 7a).
    load: Vec<f64>,
    /// Elmore delay from the driver (Eq. 7b), ps.
    delay: Vec<f64>,
    /// Load-weighted delay (Eq. 7c).
    ldelay: Vec<f64>,
    /// Raw `2·Beta − Delay²` before clamping (ps²); negative values are
    /// clamped to 0 in [`ElmoreNet::impulse_sq_at`] with a dead gradient.
    impulse_sq_raw: Vec<f64>,
    /// Wire resistance per micron used by the forward pass.
    r_per_um: f64,
    /// Wire capacitance per micron used by the forward pass.
    c_per_um: f64,
}

/// Gradient seeds flowing into a net's Elmore backward pass.
#[derive(Clone, Debug)]
pub struct ElmoreSeeds {
    /// ∂f/∂Delay(node), nonzero at sink pin nodes (from Eq. 10b).
    pub grad_delay: Vec<f64>,
    /// ∂f/∂Impulse²(node), nonzero at sink pin nodes (from Eq. 10d).
    pub grad_impulse_sq: Vec<f64>,
    /// ∂f/∂Load(root) — the driving-cell arcs' load sensitivity (Eq. 12e).
    pub grad_root_load: f64,
}

impl ElmoreSeeds {
    /// Zero seeds for a tree with `n` nodes.
    pub fn zeros(n: usize) -> Self {
        ElmoreSeeds {
            grad_delay: vec![0.0; n],
            grad_impulse_sq: vec![0.0; n],
            grad_root_load: 0.0,
        }
    }

}

impl ElmoreNet {
    /// Runs the forward Elmore passes (Eq. 7) over `tree`.
    ///
    /// `pin_caps[i]` is the input capacitance of pin node `i`; the driver's
    /// own entry is ignored (a driver does not load itself). `r`/`c` are the
    /// per-micron wire resistance and capacitance.
    ///
    /// # Panics
    ///
    /// Panics if `pin_caps.len() != tree.num_pins()`.
    pub fn forward(tree: &SteinerTree, pin_caps: &[f64], r: f64, c: f64) -> ElmoreNet {
        assert_eq!(pin_caps.len(), tree.num_pins());
        let n = tree.num_nodes();
        let order = tree.preorder();

        let mut cap = vec![0.0; n];
        let mut res = vec![0.0; n];
        for (i, &pc) in pin_caps.iter().enumerate().skip(1) {
            cap[i] = pc;
        }
        for i in 0..n {
            if let Some(p) = tree.parent_of(i) {
                let len = tree.edge_length(i);
                res[i] = r * len;
                let half = 0.5 * c * len;
                cap[i] += half;
                cap[p] += half;
            }
        }

        // Pass 1 (bottom-up): Load.
        let mut load = cap.clone();
        for &u in order.iter().rev() {
            let u = u as usize;
            if let Some(p) = tree.parent_of(u) {
                load[p] += load[u];
            }
        }
        // Pass 2 (top-down): Delay.
        let mut delay = vec![0.0; n];
        for &u in order.iter() {
            let u = u as usize;
            if let Some(p) = tree.parent_of(u) {
                delay[u] = delay[p] + res[u] * load[u];
            }
        }
        // Pass 3 (bottom-up): LDelay.
        let mut ldelay: Vec<f64> = (0..n).map(|i| cap[i] * delay[i]).collect();
        for &u in order.iter().rev() {
            let u = u as usize;
            if let Some(p) = tree.parent_of(u) {
                ldelay[p] += ldelay[u];
            }
        }
        // Pass 4 (top-down): Beta.
        let mut beta = vec![0.0; n];
        for &u in order.iter() {
            let u = u as usize;
            if let Some(p) = tree.parent_of(u) {
                beta[u] = beta[p] + res[u] * ldelay[u];
            }
        }
        let impulse_sq_raw = (0..n).map(|i| 2.0 * beta[i] - delay[i] * delay[i]).collect();

        ElmoreNet {
            cap,
            res,
            load,
            delay,
            ldelay,
            impulse_sq_raw,
            r_per_um: r,
            c_per_um: c,
        }
    }

    /// Elmore delay from the driver to `node`, ps (Eq. 7b).
    #[inline]
    pub fn delay_at(&self, node: usize) -> f64 {
        self.delay[node]
    }

    /// Squared impulse at `node` (clamped at 0).
    #[inline]
    pub fn impulse_sq_at(&self, node: usize) -> f64 {
        self.impulse_sq_raw[node].max(0.0)
    }

    /// Total capacitive load seen by the driver (Eq. 7a at the root).
    #[inline]
    pub fn root_load(&self) -> f64 {
        self.load[0]
    }

    /// Downstream capacitance at `node` (Eq. 7a).
    #[inline]
    pub fn load_at(&self, node: usize) -> f64 {
        self.load[node]
    }

    /// Runs the backward passes (Eq. 8, lower half of Fig. 5) and the chain
    /// rule to node positions.
    ///
    /// Returns `(grad_x, grad_y)`: ∂f/∂(node position) per tree node. Use
    /// [`SteinerTree::scatter_gradient`] to fold Steiner-point entries onto
    /// pins.
    ///
    /// # Panics
    ///
    /// Panics if the seed vectors are not `tree.num_nodes()` long.
    pub fn backward(&self, tree: &SteinerTree, seeds: &ElmoreSeeds) -> (Vec<f64>, Vec<f64>) {
        let n = tree.num_nodes();
        assert_eq!(seeds.grad_delay.len(), n);
        assert_eq!(seeds.grad_impulse_sq.len(), n);
        let order = tree.preorder();

        // Impulse clamping: a node whose raw impulse² went negative has a
        // dead gradient through the impulse path.
        let g_imp: Vec<f64> = (0..n)
            .map(|i| if self.impulse_sq_raw[i] > 0.0 { seeds.grad_impulse_sq[i] } else { 0.0 })
            .collect();

        // Reverse pass 1 (bottom-up): ∇Beta (Eq. 8a).
        let mut g_beta: Vec<f64> = (0..n).map(|i| 2.0 * g_imp[i]).collect();
        for &u in order.iter().rev() {
            let u = u as usize;
            if let Some(p) = tree.parent_of(u) {
                g_beta[p] += g_beta[u];
            }
        }
        // Reverse pass 2 (top-down): ∇LDelay (Eq. 8b). The root's Res is 0,
        // so its adjoint is 0 without special-casing.
        let mut g_ldelay: Vec<f64> = (0..n).map(|i| self.res[i] * g_beta[i]).collect();
        for &u in order.iter() {
            let u = u as usize;
            if let Some(p) = tree.parent_of(u) {
                g_ldelay[u] += g_ldelay[p];
            }
        }

        // Reverse pass 3 (bottom-up): ∇Delay (Eq. 8c with the corrected
        // −2·Delay sign; see module docs).
        let mut g_delay: Vec<f64> = (0..n)
            .map(|i| {
                seeds.grad_delay[i] - 2.0 * self.delay[i] * g_imp[i] + self.cap[i] * g_ldelay[i]
            })
            .collect();
        for &u in order.iter().rev() {
            let u = u as usize;
            if let Some(p) = tree.parent_of(u) {
                g_delay[p] += g_delay[u];
            }
        }
        // Reverse pass 4 (top-down): ∇Load (Eq. 8d) with the root seed from
        // the driving cell's arcs.
        let mut g_load = vec![0.0; n];
        g_load[0] = seeds.grad_root_load;
        for &u in order.iter() {
            let u = u as usize;
            if let Some(p) = tree.parent_of(u) {
                g_load[u] = self.res[u] * g_delay[u] + g_load[p];
            }
        }

        // Local adjoints: ∇Cap (Eq. 8e) and ∇Res (Eq. 8f corrected).
        let g_cap: Vec<f64> = (0..n).map(|i| g_load[i] + self.delay[i] * g_ldelay[i]).collect();
        let g_res: Vec<f64> = (0..n)
            .map(|i| self.load[i] * g_delay[i] + self.ldelay[i] * g_beta[i])
            .collect();

        // Chain to edge lengths and node positions. The wire parameters are
        // recoverable from the stored res/cap arrays only jointly, so we
        // recompute lengths from the tree geometry.
        let mut gx = vec![0.0; n];
        let mut gy = vec![0.0; n];
        for u in 0..n {
            let Some(p) = tree.parent_of(u) else { continue };
            let g_len = self.r_per_um * g_res[u]
                + 0.5 * self.c_per_um * (g_cap[u] + g_cap[p]);
            let a = tree.node_pos(u);
            let b = tree.node_pos(p);
            let sx = (a.x - b.x).signum_or_zero();
            let sy = (a.y - b.y).signum_or_zero();
            gx[u] += sx * g_len;
            gx[p] -= sx * g_len;
            gy[u] += sy * g_len;
            gy[p] -= sy * g_len;
        }
        (gx, gy)
    }
}

/// "No arena node": the pin has no net or sits on an (ideal) clock net.
pub(crate) const NO_NODE: u32 = u32::MAX;

/// The forward Elmore state of every net of a design, struct-of-arrays over
/// one node index space: net `n` owns the nodes
/// `node_off[n]..node_off[n + 1]` of each array (a capacity fixed when the
/// timer is built), of which the first `tree.num_nodes()` are live. Field
/// meanings are those of [`ElmoreNet`]; `impulse_sq` is the raw, unclamped
/// `2·Beta − Delay²`.
#[derive(Clone, Debug, Default)]
pub(crate) struct ElmoreArena {
    pub cap: Vec<f64>,
    pub res: Vec<f64>,
    pub load: Vec<f64>,
    pub delay: Vec<f64>,
    pub ldelay: Vec<f64>,
    pub beta: Vec<f64>,
    pub impulse_sq: Vec<f64>,
}

/// Exclusive view of a node range of an [`ElmoreArena`].
pub(crate) struct NodesMut<'a> {
    cap: &'a mut [f64],
    res: &'a mut [f64],
    load: &'a mut [f64],
    delay: &'a mut [f64],
    ldelay: &'a mut [f64],
    beta: &'a mut [f64],
    impulse_sq: &'a mut [f64],
}

impl NodesMut<'_> {
    /// Reborrows the sub-range `lo..hi` of this view.
    pub fn range(&mut self, lo: usize, hi: usize) -> NodesMut<'_> {
        NodesMut {
            cap: &mut self.cap[lo..hi],
            res: &mut self.res[lo..hi],
            load: &mut self.load[lo..hi],
            delay: &mut self.delay[lo..hi],
            ldelay: &mut self.ldelay[lo..hi],
            beta: &mut self.beta[lo..hi],
            impulse_sq: &mut self.impulse_sq[lo..hi],
        }
    }

    /// Zeroes the range (the state of a net without a tree).
    pub fn clear(&mut self) {
        for a in [
            &mut *self.cap,
            &mut *self.res,
            &mut *self.load,
            &mut *self.delay,
            &mut *self.ldelay,
            &mut *self.beta,
            &mut *self.impulse_sq,
        ] {
            a.fill(0.0);
        }
    }
}

impl ElmoreArena {
    fn arrays_mut(&mut self) -> [&mut Vec<f64>; 7] {
        [
            &mut self.cap,
            &mut self.res,
            &mut self.load,
            &mut self.delay,
            &mut self.ldelay,
            &mut self.beta,
            &mut self.impulse_sq,
        ]
    }

    /// Sets the node count. Contents are unspecified afterwards: every
    /// forward pass writes all live nodes of every net before they are read.
    pub fn set_len(&mut self, nodes: usize) {
        for a in self.arrays_mut() {
            if a.len() != nodes {
                a.clear();
                a.resize(nodes, 0.0);
            }
        }
    }

    /// Makes `self` a copy of `src` (seven `memcpy`s into kept capacity).
    pub fn copy_from(&mut self, src: &ElmoreArena) {
        let src = [&src.cap, &src.res, &src.load, &src.delay, &src.ldelay, &src.beta, &src.impulse_sq];
        for (d, s) in self.arrays_mut().into_iter().zip(src) {
            d.clear();
            d.extend_from_slice(s);
        }
    }

    /// Downstream capacitance at `node` — the load a driver sees at its
    /// net's root — or 0 for [`NO_NODE`].
    #[inline]
    pub fn load_at(&self, node: u32) -> f64 {
        if node == NO_NODE { 0.0 } else { self.load[node as usize] }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.cap.len()
    }

    /// Exclusive view of all nodes.
    pub fn nodes_mut(&mut self) -> NodesMut<'_> {
        NodesMut {
            cap: &mut self.cap,
            res: &mut self.res,
            load: &mut self.load,
            delay: &mut self.delay,
            ldelay: &mut self.ldelay,
            beta: &mut self.beta,
            impulse_sq: &mut self.impulse_sq,
        }
    }

    /// Runs `f(chunk index, view of nodes bounds[i]..bounds[i + 1])` for
    /// every chunk over the worker pool (inline when there is one chunk).
    /// `bounds` must start at 0, be non-decreasing and end at `self.len()`.
    pub fn par_chunks_mut_at(
        &mut self,
        bounds: &[u32],
        f: impl Fn(usize, NodesMut<'_>) + Sync,
    ) {
        use rayon::prelude::*;
        self.cap
            .par_chunks_mut_at(bounds)
            .zip(self.res.par_chunks_mut_at(bounds))
            .zip(self.load.par_chunks_mut_at(bounds))
            .zip(self.delay.par_chunks_mut_at(bounds))
            .zip(self.ldelay.par_chunks_mut_at(bounds))
            .zip(self.beta.par_chunks_mut_at(bounds))
            .zip(self.impulse_sq.par_chunks_mut_at(bounds))
            .enumerate()
            .for_each(|(ci, ((((((cap, res), load), delay), ldelay), beta), impulse_sq))| {
                f(ci, NodesMut { cap, res, load, delay, ldelay, beta, impulse_sq });
            });
    }
}

/// [`ElmoreNet::forward`] into a net's arena range: same passes, same
/// arithmetic, no allocation. Writes the first `tree.num_nodes()` nodes of
/// `s` and leaves the spare capacity untouched.
///
/// # Panics
///
/// Panics if `pin_caps.len() != tree.num_pins()` or the tree has more nodes
/// than `s`.
pub(crate) fn forward_into(tree: TreeView<'_>, pin_caps: &[f64], r: f64, c: f64, s: NodesMut<'_>) {
    assert_eq!(pin_caps.len(), tree.num_pins());
    let n = tree.num_nodes();
    assert!(n <= s.cap.len(), "tree of {n} nodes outgrew its arena range of {}", s.cap.len());
    let order = tree.preorder();
    let (cap, res, load) = (&mut s.cap[..n], &mut s.res[..n], &mut s.load[..n]);
    let (delay, ldelay, beta) = (&mut s.delay[..n], &mut s.ldelay[..n], &mut s.beta[..n]);
    let impulse_sq = &mut s.impulse_sq[..n];

    cap.fill(0.0);
    cap[1..pin_caps.len()].copy_from_slice(&pin_caps[1..]);
    for i in 0..n {
        match tree.parent_of(i) {
            Some(p) => {
                let len = tree.edge_length(i);
                res[i] = r * len;
                let half = 0.5 * c * len;
                cap[i] += half;
                cap[p] += half;
            }
            None => res[i] = 0.0,
        }
    }
    // Pass 1 (bottom-up): Load.
    load.copy_from_slice(cap);
    for &u in order.iter().rev() {
        let u = u as usize;
        if let Some(p) = tree.parent_of(u) {
            load[p] += load[u];
        }
    }
    // Pass 2 (top-down): Delay.
    for &u in order {
        let u = u as usize;
        delay[u] = match tree.parent_of(u) {
            Some(p) => delay[p] + res[u] * load[u],
            None => 0.0,
        };
    }
    // Pass 3 (bottom-up): LDelay.
    for i in 0..n {
        ldelay[i] = cap[i] * delay[i];
    }
    for &u in order.iter().rev() {
        let u = u as usize;
        if let Some(p) = tree.parent_of(u) {
            ldelay[p] += ldelay[u];
        }
    }
    // Pass 4 (top-down): Beta.
    for &u in order {
        let u = u as usize;
        beta[u] = match tree.parent_of(u) {
            Some(p) => beta[p] + res[u] * ldelay[u],
            None => 0.0,
        };
    }
    for i in 0..n {
        impulse_sq[i] = 2.0 * beta[i] - delay[i] * delay[i];
    }
}

/// Per-node adjoint scratch of [`backward_into`]: `∇Beta`, `∇LDelay`,
/// `∇Delay`, `∇Load` and the node position gradient `(x, y)`.
pub(crate) type NodeAdjoints = [f64; 6];

/// [`ElmoreNet::backward`] + [`SteinerTree::scatter_gradient`] over arena
/// ranges: same passes, same arithmetic, no allocation.
///
/// `el` is the arena the forward pass filled and `lo` the net's first node
/// in it; the two seed slices are indexed like the arena. `adj` is
/// scratch of at least `tree.num_nodes()` entries; the per-pin position
/// gradient `(∂x, ∂y)` lands in `pin_grad` (`tree.num_pins()` long).
#[allow(clippy::too_many_arguments)]
pub(crate) fn backward_into(
    tree: TreeView<'_>,
    el: &ElmoreArena,
    lo: usize,
    seed_delay: &[f64],
    seed_impulse_sq: &[f64],
    seed_root_load: f64,
    r: f64,
    c: f64,
    adj: &mut [NodeAdjoints],
    pin_grad: &mut [[f64; 2]],
) {
    const G_BETA: usize = 0;
    const G_LDELAY: usize = 1;
    const G_DELAY: usize = 2;
    const G_LOAD: usize = 3;
    const GX: usize = 4;
    const GY: usize = 5;
    let n = tree.num_nodes();
    let order = tree.preorder();
    let hi = lo + n;
    let (cap, res, load) = (&el.cap[lo..hi], &el.res[lo..hi], &el.load[lo..hi]);
    let (delay, ldelay, impulse_sq) = (&el.delay[lo..hi], &el.ldelay[lo..hi], &el.impulse_sq[lo..hi]);
    let (seed_delay, seed_impulse_sq) = (&seed_delay[lo..hi], &seed_impulse_sq[lo..hi]);
    let adj = &mut adj[..n];
    // Impulse clamping: a node whose raw impulse² went negative has a dead
    // gradient through the impulse path.
    let g_imp = |i: usize| if impulse_sq[i] > 0.0 { seed_impulse_sq[i] } else { 0.0 };

    // Reverse pass 1 (bottom-up): ∇Beta (Eq. 8a).
    for (i, a) in adj.iter_mut().enumerate() {
        a[G_BETA] = 2.0 * g_imp(i);
    }
    for &u in order.iter().rev() {
        let u = u as usize;
        if let Some(p) = tree.parent_of(u) {
            adj[p][G_BETA] += adj[u][G_BETA];
        }
    }
    // Reverse pass 2 (top-down): ∇LDelay (Eq. 8b).
    for i in 0..n {
        adj[i][G_LDELAY] = res[i] * adj[i][G_BETA];
    }
    for &u in order {
        let u = u as usize;
        if let Some(p) = tree.parent_of(u) {
            adj[u][G_LDELAY] += adj[p][G_LDELAY];
        }
    }
    // Reverse pass 3 (bottom-up): ∇Delay (Eq. 8c, corrected sign).
    for i in 0..n {
        adj[i][G_DELAY] = seed_delay[i] - 2.0 * delay[i] * g_imp(i) + cap[i] * adj[i][G_LDELAY];
    }
    for &u in order.iter().rev() {
        let u = u as usize;
        if let Some(p) = tree.parent_of(u) {
            adj[p][G_DELAY] += adj[u][G_DELAY];
        }
    }
    // Reverse pass 4 (top-down): ∇Load (Eq. 8d), seeded at the root by the
    // driving cell's arcs.
    for &u in order {
        let u = u as usize;
        adj[u][G_LOAD] = match tree.parent_of(u) {
            Some(p) => res[u] * adj[u][G_DELAY] + adj[p][G_LOAD],
            None => seed_root_load,
        };
    }
    // Local adjoints ∇Cap (Eq. 8e) and ∇Res (Eq. 8f corrected), chained to
    // edge lengths and node positions.
    let g_cap = |a: &[NodeAdjoints], i: usize| a[i][G_LOAD] + delay[i] * a[i][G_LDELAY];
    let g_res = |a: &[NodeAdjoints], i: usize| load[i] * a[i][G_DELAY] + ldelay[i] * a[i][G_BETA];
    for a in adj.iter_mut() {
        a[GX] = 0.0;
        a[GY] = 0.0;
    }
    for u in 0..n {
        let Some(p) = tree.parent_of(u) else { continue };
        let g_len = r * g_res(adj, u) + 0.5 * c * (g_cap(adj, u) + g_cap(adj, p));
        let a = tree.node_pos(u);
        let b = tree.node_pos(p);
        let sx = (a.x - b.x).signum_or_zero();
        let sy = (a.y - b.y).signum_or_zero();
        adj[u][GX] += sx * g_len;
        adj[p][GX] -= sx * g_len;
        adj[u][GY] += sy * g_len;
        adj[p][GY] -= sy * g_len;
    }
    // Steiner-point gradients ride back to the pins owning each coordinate.
    let pin_grad = &mut pin_grad[..tree.num_pins()];
    pin_grad.fill([0.0; 2]);
    let (x_src, y_src) = (tree.x_sources(), tree.y_sources());
    for i in 0..n {
        pin_grad[x_src[i] as usize][0] += adj[i][GX];
        pin_grad[y_src[i] as usize][1] += adj[i][GY];
    }
}

/// Extension trait: sign with 0 at 0 (subgradient of `|x|`).
trait SignumOrZero {
    fn signum_or_zero(self) -> f64;
}

impl SignumOrZero for f64 {
    #[inline]
    fn signum_or_zero(self) -> f64 {
        if self > 0.0 {
            1.0
        } else if self < 0.0 {
            -1.0
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtp_netlist::Point;

    const R: f64 = 1.0;
    const C: f64 = 0.25;

    #[test]
    fn two_pin_net_matches_hand_calc() {
        // Driver at 0, sink at distance L = 10. Lumped RC:
        // Res = R·L, node caps: each gets C·L/2; sink also pin cap 2.0.
        // Load(sink) = C·L/2 + 2.0 = 1.25 + 2 = 3.25
        // Delay(sink) = Res · Load(sink) = 10 · 3.25 = 32.5
        let tree = SteinerTree::build(&[Point::new(0.0, 0.0), Point::new(10.0, 0.0)]);
        let e = ElmoreNet::forward(&tree, &[0.0, 2.0], R, C);
        assert!((e.delay_at(1) - 32.5).abs() < 1e-12);
        assert!((e.root_load() - (0.25 * 10.0 + 2.0)).abs() < 1e-12);
        // Beta(sink) = Res · LDelay(sink) = 10 · (3.25 · 32.5) = 1056.25
        // Impulse² = 2·1056.25 − 32.5² = 2112.5 − 1056.25 = 1056.25
        assert!((e.impulse_sq_at(1) - 1056.25).abs() < 1e-9);
    }

    #[test]
    fn delay_monotone_in_distance() {
        for l in [1.0, 5.0, 20.0, 80.0] {
            let t1 = SteinerTree::build(&[Point::new(0.0, 0.0), Point::new(l, 0.0)]);
            let t2 = SteinerTree::build(&[Point::new(0.0, 0.0), Point::new(l * 2.0, 0.0)]);
            let e1 = ElmoreNet::forward(&t1, &[0.0, 1.0], R, C);
            let e2 = ElmoreNet::forward(&t2, &[0.0, 1.0], R, C);
            assert!(e2.delay_at(1) > e1.delay_at(1));
        }
    }

    #[test]
    fn load_accumulates_over_sinks() {
        let pins = [
            Point::new(0.0, 0.0),
            Point::new(5.0, 5.0),
            Point::new(-5.0, 5.0),
        ];
        let tree = SteinerTree::build(&pins);
        let e = ElmoreNet::forward(&tree, &[0.0, 1.5, 2.5], R, C);
        let total_wire_cap = C * tree.wirelength();
        assert!((e.root_load() - (1.5 + 2.5 + total_wire_cap)).abs() < 1e-9);
    }

    /// Builds a scalar objective from seeds and checks the analytic position
    /// gradient against central finite differences on each pin coordinate.
    fn grad_check(pins: &[Point], pin_caps: &[f64]) {
        let tree = SteinerTree::build(pins);
        let n = tree.num_nodes();
        let mut seeds = ElmoreSeeds::zeros(n);
        // Arbitrary but fixed seed pattern on the sink pins + root load.
        for i in 1..tree.num_pins() {
            seeds.grad_delay[i] = 1.0 + 0.3 * i as f64;
            seeds.grad_impulse_sq[i] = 0.01 * i as f64;
        }
        seeds.grad_root_load = 0.7;

        let objective = |pins: &[Point]| -> f64 {
            let mut t = tree.clone();
            t.update_pins(pins);
            let e = ElmoreNet::forward(&t, pin_caps, R, C);
            let mut f = seeds.grad_root_load * e.root_load();
            for i in 1..t.num_pins() {
                f += seeds.grad_delay[i] * e.delay_at(i);
                f += seeds.grad_impulse_sq[i] * e.impulse_sq_at(i);
            }
            f
        };

        let e = ElmoreNet::forward(&tree, pin_caps, R, C);
        let (gx, gy) = e.backward(&tree, &seeds);
        let per_pin = tree.scatter_gradient(&gx, &gy);

        let h = 1e-5;
        for i in 0..pins.len() {
            for axis in 0..2 {
                let mut hi = pins.to_vec();
                let mut lo = pins.to_vec();
                if axis == 0 {
                    hi[i].x += h;
                    lo[i].x -= h;
                } else {
                    hi[i].y += h;
                    lo[i].y -= h;
                }
                let num = (objective(&hi) - objective(&lo)) / (2.0 * h);
                let ana = if axis == 0 { per_pin[i].0 } else { per_pin[i].1 };
                assert!(
                    (num - ana).abs() < 1e-4 * (1.0 + num.abs()),
                    "pin {i} axis {axis}: analytic {ana} vs numeric {num}"
                );
            }
        }
    }

    #[test]
    fn gradcheck_two_pins() {
        grad_check(
            &[Point::new(0.0, 0.0), Point::new(13.0, 7.0)],
            &[0.0, 2.0],
        );
    }

    #[test]
    fn gradcheck_three_pins_with_steiner() {
        grad_check(
            &[Point::new(0.0, 0.0), Point::new(9.0, 6.0), Point::new(11.0, -4.0)],
            &[0.0, 1.0, 3.0],
        );
    }

    #[test]
    fn gradcheck_larger_net() {
        let pins = [
            Point::new(0.0, 0.0),
            Point::new(10.0, 3.0),
            Point::new(-6.0, 8.0),
            Point::new(4.0, -9.0),
            Point::new(12.0, 12.0),
            Point::new(-3.0, -5.0),
            Point::new(7.0, 1.5),
        ];
        let caps = [0.0, 1.0, 2.0, 1.5, 0.5, 2.5, 1.2];
        grad_check(&pins, &caps);
    }

    #[test]
    fn zero_seeds_give_zero_gradient() {
        let pins = [Point::new(0.0, 0.0), Point::new(5.0, 5.0)];
        let tree = SteinerTree::build(&pins);
        let e = ElmoreNet::forward(&tree, &[0.0, 1.0], R, C);
        let (gx, gy) = e.backward(&tree, &ElmoreSeeds::zeros(tree.num_nodes()));
        assert!(gx.iter().chain(gy.iter()).all(|&g| g == 0.0));
    }

    proptest::proptest! {
        /// The arena kernels equal the allocating reference bit for bit:
        /// forward state, and backward + scatter. The net sits in the middle
        /// of a NaN-filled arena, so a read of anything the forward pass did
        /// not write would show.
        #[test]
        fn arena_kernels_equal_reference(
            xy in proptest::collection::vec((-40.0..40.0f64, -40.0..40.0f64), 1..14),
            snap in 0usize..3,
            root_seed in -1.0..1.0f64,
        ) {
            // Snapping some runs to a coarse grid produces aligned and
            // coincident pins (zero-length edges, clamped impulses).
            let q = [0.0, 1.0, 8.0][snap];
            let pins: Vec<Point> = xy
                .iter()
                .map(|&(x, y)| if q > 0.0 { Point::new((x / q).round() * q, (y / q).round() * q) } else { Point::new(x, y) })
                .collect();
            let tree = SteinerTree::build(&pins);
            let (n, n_pins) = (tree.num_nodes(), tree.num_pins());
            let caps: Vec<f64> = (0..n_pins).map(|i| 0.5 + 0.25 * (i % 5) as f64).collect();
            let reference = ElmoreNet::forward(&tree, &caps, R, C);

            let (lo, total) = (3, n + 7);
            let mut arena = ElmoreArena::default();
            arena.set_len(total);
            for a in arena.arrays_mut() {
                a.fill(f64::NAN);
            }
            forward_into(tree.view(), &caps, R, C, arena.nodes_mut().range(lo, lo + n + 2));
            let pairs = [
                (&arena.cap, &reference.cap),
                (&arena.res, &reference.res),
                (&arena.load, &reference.load),
                (&arena.delay, &reference.delay),
                (&arena.ldelay, &reference.ldelay),
                // `2·Beta − Delay²`: the arena's Beta pass, through the one
                // value the reference keeps of it.
                (&arena.impulse_sq, &reference.impulse_sq_raw),
            ];
            for (got, want) in pairs {
                for i in 0..n {
                    proptest::prop_assert_eq!(got[lo + i].to_bits(), want[i].to_bits());
                }
                proptest::prop_assert!(got[..lo].iter().chain(&got[lo + n..]).all(|v| v.is_nan()));
            }

            let mut seeds = ElmoreSeeds::zeros(n);
            for i in 1..n_pins {
                seeds.grad_delay[i] = 1.0 - 0.3 * i as f64;
                seeds.grad_impulse_sq[i] = 0.01 * (i % 3) as f64;
            }
            seeds.grad_root_load = root_seed;
            let (gx, gy) = reference.backward(&tree, &seeds);
            let want = tree.scatter_gradient(&gx, &gy);

            let at = |v: &[f64]| {
                let mut a = vec![f64::NAN; total];
                a[lo..lo + n].copy_from_slice(v);
                a
            };
            let mut adj = vec![[f64::NAN; 6]; n + 1];
            let mut got = vec![[f64::NAN; 2]; n_pins];
            backward_into(
                tree.view(),
                &arena,
                lo,
                &at(&seeds.grad_delay),
                &at(&seeds.grad_impulse_sq),
                seeds.grad_root_load,
                R,
                C,
                &mut adj,
                &mut got,
            );
            for (g, w) in got.iter().zip(&want) {
                proptest::prop_assert_eq!(g[0].to_bits(), w.0.to_bits());
                proptest::prop_assert_eq!(g[1].to_bits(), w.1.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "outgrew its arena range")]
    fn forward_into_rejects_a_short_range() {
        let pins = [Point::new(0.0, 0.0), Point::new(4.0, 3.0), Point::new(4.0, -3.0)];
        let tree = SteinerTree::build(&pins);
        let mut arena = ElmoreArena::default();
        arena.set_len(tree.num_nodes() - 1);
        forward_into(tree.view(), &[0.0, 1.0, 1.0], R, C, arena.nodes_mut());
    }

    #[test]
    fn coincident_pins_do_not_produce_nan() {
        let p = Point::new(1.0, 1.0);
        let tree = SteinerTree::build(&[p, p, p]);
        let e = ElmoreNet::forward(&tree, &[0.0, 1.0, 1.0], R, C);
        let mut seeds = ElmoreSeeds::zeros(tree.num_nodes());
        seeds.grad_delay[1] = 1.0;
        let (gx, gy) = e.backward(&tree, &seeds);
        assert!(gx.iter().chain(gy.iter()).all(|g| g.is_finite()));
    }
}
