//! Wirelength models: exact HPWL and the weighted-average (WA) smooth
//! approximation with analytic gradients.
//!
//! The WA model (Hsu et al., used by ePlace/DREAMPlace) approximates
//! `max(x)` by `Σ xᵢ·e^(xᵢ/γ) / Σ e^(xᵢ/γ)` and `min` symmetrically; the net
//! wirelength is `(max−min)` in each axis. Unlike LSE it is exact for 2-pin
//! nets as γ→0 and has bounded error. Per-net weights implement the
//! net-weighting objective of Eq. (4).
//!
//! [`WirelengthModel::wa_gradient_into`] is the hot-path form. It runs in
//! two passes, both over fixed-size chunks so results are bit-for-bit
//! identical across pool widths:
//!
//! 1. **Scatter (parallel over net chunks)** — each chunk of [`NET_CHUNK`]
//!    nets writes per-pin gradients straight into its own disjoint range of
//!    a pin-indexed scratch array (struct-of-arrays net CSR, streamed in
//!    order), one net kernel per degree class: a closed form for 2 pins,
//!    stack arrays up to [`STACK_DEGREE`] pins, the chunk's heap buffer
//!    above that.
//! 2. **Gather (parallel over cell chunks)** — a static cell → pin-slot
//!    transpose CSR lets each cell sum its pins' contributions in a fixed
//!    order, writing the dense gradient directly.
//!
//! Unlike the previous per-thread full-gradient-image design, the scratch
//! footprint is O(pins), not O(threads × cells), and no cross-thread
//! reduction of dense images is needed — the layout streams at 1M cells.
//!
//! # Exponentials that are never called
//!
//! The stabilized model needs `e⁺ᵢ = exp((xᵢ − xmax)/γ)` and
//! `e⁻ᵢ = exp(−(xᵢ − xmin)/γ)` per pin and axis. Two IEEE-754 identities
//! make about half of those calls redundant *exactly*, not approximately:
//!
//! * a pin at the net's max has `xᵢ − xmax = ±0`, and `exp(±0) = 1`; the
//!   same holds for `e⁻` of a pin at the min;
//! * subtraction rounds symmetrically, so `xmin − xmax` and
//!   `−(xmax − xmin)` are the same bits: `e⁺` of a pin at the min and `e⁻`
//!   of a pin at the max are one value, computed once per net and axis.
//!
//! A net of `k` pins therefore costs `2k − 3` calls per axis instead of
//! `2k` (one call for a 2-pin net), and every sum, product and division
//! that remains is the one the plain formulation performs, in the same
//! order — the kernels are bit-for-bit equal to the reference
//! `tests::wa_axis_into`, the oracle of the proptest there.

use dtp_netlist::Netlist;
use rayon::chunks::chunk_count;
use rayon::prelude::*;

/// Nets per parallel work item in the scatter pass. Fixed — not derived from
/// the pool width — so per-chunk sums fold identically at any thread count.
const NET_CHUNK: usize = 1024;

/// Cells per parallel work item in the gather pass.
const CELL_CHUNK: usize = 4096;

/// Largest net degree whose working arrays live on the stack (87 % of the
/// nets of the generated designs have ≤ 4 pins, > 99 % have ≤ 16).
const STACK_DEGREE: usize = 16;

/// Precomputed net → pin structure for fast wirelength evaluation, in
/// struct-of-arrays form plus a cell → pin-slot transpose.
///
/// Clock nets are excluded (they are ideal in this flow and their huge fanout
/// would dominate the wirelength objective meaninglessly).
#[derive(Clone, Debug)]
pub struct WirelengthModel {
    /// Owning cell per pin slot; pins of net `e` occupy slots
    /// `net_start[e]..net_start[e+1]` (CSR).
    pin_cell: Vec<u32>,
    /// Pin offset from the cell origin, x component, per slot.
    pin_dx: Vec<f64>,
    /// Pin offset from the cell origin, y component, per slot.
    pin_dy: Vec<f64>,
    net_start: Vec<u32>,
    /// Map from model net index to original netlist net index.
    net_index: Vec<u32>,
    /// Pin-slot offset of every `NET_CHUNK`-net boundary (`chunks + 1`
    /// entries): the scatter pass hands chunk `ci` the exact pin range
    /// `chunk_pin_start[ci]..chunk_pin_start[ci+1]` via `par_chunks_mut_at`.
    chunk_pin_start: Vec<u32>,
    /// Transpose CSR: pin slots of cell `c` (ascending) are
    /// `cell_slots[cell_start[c]..cell_start[c+1]]`.
    cell_start: Vec<u32>,
    cell_slots: Vec<u32>,
    num_cells: usize,
}

/// Per-net-chunk state: the chunk's weighted wirelength partial plus the
/// working arrays (`x y e⁺ e⁻`, one quarter each) of its nets above
/// [`STACK_DEGREE`] pins — grown once to the chunk's largest net, empty for
/// a chunk that has none.
#[derive(Clone, Debug, Default)]
struct WlChunk {
    wl: f64,
    big: Vec<f64>,
}

/// Reusable intermediates for [`WirelengthModel::wa_gradient_into`]. Buffers
/// grow on first use; steady-state evaluations allocate nothing.
#[derive(Clone, Debug, Default)]
pub struct WirelengthScratch {
    /// Per-pin-slot gradient contributions (x / y), written disjointly by
    /// the scatter pass and read by the gather pass.
    pin_gx: Vec<f64>,
    pin_gy: Vec<f64>,
    chunks: Vec<WlChunk>,
}

impl WirelengthScratch {
    /// Creates an empty scratch; buffers are sized lazily on first use.
    pub fn new() -> WirelengthScratch {
        WirelengthScratch::default()
    }
}

impl WirelengthModel {
    /// Builds the model from a netlist.
    pub fn new(nl: &Netlist) -> WirelengthModel {
        let mut pin_cell = Vec::new();
        let mut pin_dx = Vec::new();
        let mut pin_dy = Vec::new();
        let mut net_start = vec![0u32];
        let mut net_index = Vec::new();
        for net_id in nl.net_ids() {
            let net = nl.net(net_id);
            if net.is_clock() || net.degree() < 2 {
                continue;
            }
            for &p in net.pins() {
                let pin = nl.pin(p);
                let offset = nl.pin_spec(p).offset;
                pin_cell.push(pin.cell().index() as u32);
                pin_dx.push(offset.x);
                pin_dy.push(offset.y);
            }
            net_start.push(pin_cell.len() as u32);
            net_index.push(net_id.index() as u32);
        }

        WirelengthModel::from_csr(pin_cell, pin_dx, pin_dy, net_start, net_index, nl.num_cells())
    }

    /// Finishes a model from its net → pin CSR: the chunk boundaries of the
    /// scatter pass and the cell → pin-slot transpose of the gather pass.
    fn from_csr(
        pin_cell: Vec<u32>,
        pin_dx: Vec<f64>,
        pin_dy: Vec<f64>,
        net_start: Vec<u32>,
        net_index: Vec<u32>,
        num_cells: usize,
    ) -> WirelengthModel {
        let nets = net_index.len();
        let chunks = chunk_count(nets, NET_CHUNK);
        let chunk_pin_start: Vec<u32> =
            (0..=chunks).map(|ci| net_start[(ci * NET_CHUNK).min(nets)]).collect();

        // Cell → pin-slot transpose by counting sort; filling in slot order
        // leaves each cell's slot list ascending (deterministic gather).
        let mut cell_start = vec![0u32; num_cells + 1];
        for &c in &pin_cell {
            cell_start[c as usize + 1] += 1;
        }
        for c in 0..num_cells {
            cell_start[c + 1] += cell_start[c];
        }
        let mut cursor = cell_start.clone();
        let mut cell_slots = vec![0u32; pin_cell.len()];
        for (slot, &c) in pin_cell.iter().enumerate() {
            cell_slots[cursor[c as usize] as usize] = slot as u32;
            cursor[c as usize] += 1;
        }

        WirelengthModel {
            pin_cell,
            pin_dx,
            pin_dy,
            net_start,
            net_index,
            chunk_pin_start,
            cell_start,
            cell_slots,
            num_cells,
        }
    }

    /// Number of nets in the model.
    pub fn num_nets(&self) -> usize {
        self.net_index.len()
    }

    /// Original netlist index of model net `e`.
    pub fn net_index(&self, e: usize) -> usize {
        self.net_index[e] as usize
    }

    /// Exact half-perimeter wirelength at cell positions `(xs, ys)`
    /// (lower-left corners). Per-chunk partials are folded in chunk order,
    /// so the value is independent of the pool width.
    pub fn hpwl(&self, xs: &[f64], ys: &[f64]) -> f64 {
        let nets = self.num_nets();
        let mut partials = vec![0.0; chunk_count(nets, NET_CHUNK)];
        partials.par_chunks_mut(1).enumerate().for_each(|(ci, p)| {
            let lo = ci * NET_CHUNK;
            let hi = (lo + NET_CHUNK).min(nets);
            let mut acc = 0.0;
            for e in lo..hi {
                let mut xmin = f64::INFINITY;
                let mut xmax = f64::NEG_INFINITY;
                let mut ymin = f64::INFINITY;
                let mut ymax = f64::NEG_INFINITY;
                for s in self.net_start[e] as usize..self.net_start[e + 1] as usize {
                    let x = xs[self.pin_cell[s] as usize] + self.pin_dx[s];
                    let y = ys[self.pin_cell[s] as usize] + self.pin_dy[s];
                    xmin = xmin.min(x);
                    xmax = xmax.max(x);
                    ymin = ymin.min(y);
                    ymax = ymax.max(y);
                }
                acc += (xmax - xmin) + (ymax - ymin);
            }
            p[0] = acc;
        });
        partials.iter().sum()
    }

    /// Weighted-average smooth wirelength with its gradient with respect to
    /// cell positions written into reused vectors; every intermediate lives
    /// in caller-owned `scratch`, so steady-state calls perform zero heap
    /// allocations.
    ///
    /// `gamma` is the WA smoothing parameter (same length unit as positions);
    /// `weights`, when given, scales each model net's contribution (Eq. 4).
    ///
    /// Returns the (weighted) smooth wirelength.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is provided with the wrong length.
    #[allow(clippy::too_many_arguments)]
    pub fn wa_gradient_into(
        &self,
        xs: &[f64],
        ys: &[f64],
        gamma: f64,
        weights: Option<&[f64]>,
        scratch: &mut WirelengthScratch,
        grad_x: &mut Vec<f64>,
        grad_y: &mut Vec<f64>,
    ) -> f64 {
        if let Some(w) = weights {
            assert_eq!(w.len(), self.num_nets(), "one weight per model net");
        }
        let nets = self.num_nets();
        let n_pins = self.pin_cell.len();
        let chunks = chunk_count(nets, NET_CHUNK);
        // Every pin slot is overwritten by exactly one net, so a plain
        // resize (no-op in steady state) is enough.
        scratch.pin_gx.resize(n_pins, 0.0);
        scratch.pin_gy.resize(n_pins, 0.0);
        scratch.chunks.resize_with(chunks, WlChunk::default);

        // Scatter: each net chunk writes its pins' gradients into its own
        // disjoint pin-slot range (exact bounds via `par_chunks_mut_at`).
        scratch
            .pin_gx
            .par_chunks_mut_at(&self.chunk_pin_start)
            .zip(scratch.pin_gy.par_chunks_mut_at(&self.chunk_pin_start))
            .zip(scratch.chunks.par_chunks_mut(1))
            .enumerate()
            .for_each(|(ci, ((pgx, pgy), st))| {
                let st = &mut st[0];
                let lo = ci * NET_CHUNK;
                let hi = (lo + NET_CHUNK).min(nets);
                let pin_base = self.chunk_pin_start[ci] as usize;
                let mut acc = 0.0;
                for e in lo..hi {
                    let w = weights.map_or(1.0, |w| w[e]);
                    let s = self.net_start[e] as usize;
                    let t = self.net_start[e + 1] as usize;
                    let pins = NetPins {
                        cell: &self.pin_cell[s..t],
                        dx: &self.pin_dx[s..t],
                        dy: &self.pin_dy[s..t],
                    };
                    let gx = &mut pgx[s - pin_base..t - pin_base];
                    let gy = &mut pgy[s - pin_base..t - pin_base];
                    let (wx, wy) = match t - s {
                        2 => wa_net2(&pins, xs, ys, gamma, w, gx, gy),
                        k if k <= STACK_DEGREE => {
                            let mut buf = [0.0; 4 * STACK_DEGREE];
                            wa_net(&pins, xs, ys, gamma, w, &mut buf[..4 * k], gx, gy)
                        }
                        k => {
                            if st.big.len() < 4 * k {
                                st.big.resize(4 * k, 0.0);
                            }
                            wa_net(&pins, xs, ys, gamma, w, &mut st.big[..4 * k], gx, gy)
                        }
                    };
                    acc += w * wx;
                    acc += w * wy;
                }
                st.wl = acc;
            });

        // Gather: each cell sums its pin slots in ascending slot order via
        // the static transpose — elementwise over cells, so chunking cannot
        // change the result. Every entry is overwritten: no zero fill.
        let n_cells = self.num_cells;
        grad_x.resize(n_cells, 0.0);
        grad_y.resize(n_cells, 0.0);
        let (pin_gx, pin_gy) = (&scratch.pin_gx, &scratch.pin_gy);
        grad_x
            .par_chunks_mut(CELL_CHUNK)
            .zip(grad_y.par_chunks_mut(CELL_CHUNK))
            .enumerate()
            .for_each(|(bi, (gxc, gyc))| {
                let base = bi * CELL_CHUNK;
                for k in 0..gxc.len() {
                    let c = base + k;
                    let mut sx = 0.0;
                    let mut sy = 0.0;
                    for s in self.cell_start[c] as usize..self.cell_start[c + 1] as usize {
                        let slot = self.cell_slots[s] as usize;
                        sx += pin_gx[slot];
                        sy += pin_gy[slot];
                    }
                    gxc[k] = sx;
                    gyc[k] = sy;
                }
            });
        // Chunk-ordered fold of the per-chunk wirelength partials.
        scratch.chunks.iter().map(|a| a.wl).sum()
    }
}

/// The pin slots of one net: owning cell and pin offset per slot.
struct NetPins<'a> {
    cell: &'a [u32],
    dx: &'a [f64],
    dy: &'a [f64],
}

/// `exp` of the two pins of a 2-pin net along one axis, `(e⁺₀, e⁺₁, e⁻₀,
/// e⁻₁)`: the pin at an extreme takes 1, the other one the single call.
#[inline]
fn exps2(a: f64, b: f64, gamma: f64) -> [f64; 4] {
    let hi = f64::NEG_INFINITY.max(a).max(b);
    let lo = f64::INFINITY.min(a).min(b);
    let span = ((lo - hi) / gamma).exp();
    let at = |v: f64, extreme: f64| if v == extreme { 1.0 } else { span };
    [at(a, hi), at(b, hi), at(a, lo), at(b, lo)]
}

/// WA length and weighted gradient of a 2-pin net along one axis — the
/// general kernel unrolled, sums taken through `Iterator::sum` so they
/// start from the same neutral element.
#[inline]
fn wa_axis2(a: f64, b: f64, gamma: f64, w: f64, out: &mut [f64]) -> f64 {
    let [pa, pb, ma, mb] = exps2(a, b, gamma);
    let sp: f64 = [pa, pb].iter().sum();
    let sm: f64 = [ma, mb].iter().sum();
    let sxp: f64 = [a * pa, b * pb].iter().sum();
    let sxm: f64 = [a * ma, b * mb].iter().sum();
    let wa_max = sxp / sp;
    let wa_min = sxm / sm;
    let grad = |x: f64, ep: f64, em: f64| {
        let gp = ep * (1.0 + (x - wa_max) / gamma) / sp;
        let gm = em * (1.0 - (x - wa_min) / gamma) / sm;
        w * (gp - gm)
    };
    out[0] = grad(a, pa, ma);
    out[1] = grad(b, pb, mb);
    wa_max - wa_min
}

/// 2-pin net: both axes in closed form, one `exp` call per axis. Returns
/// the unweighted `(x, y)` lengths; `gx`/`gy` receive the weighted per-pin
/// gradients.
#[inline]
fn wa_net2(
    p: &NetPins<'_>,
    xs: &[f64],
    ys: &[f64],
    gamma: f64,
    w: f64,
    gx: &mut [f64],
    gy: &mut [f64],
) -> (f64, f64) {
    let (c0, c1) = (p.cell[0] as usize, p.cell[1] as usize);
    let wx = wa_axis2(xs[c0] + p.dx[0], xs[c1] + p.dx[1], gamma, w, gx);
    let wy = wa_axis2(ys[c0] + p.dy[0], ys[c1] + p.dy[1], gamma, w, gy);
    (wx, wy)
}

/// Net of any degree: x and y gathered in one pass over the pin slots into
/// the first two quarters of `buf`, the exponentials in the other two.
#[inline]
#[allow(clippy::too_many_arguments)]
fn wa_net(
    p: &NetPins<'_>,
    xs: &[f64],
    ys: &[f64],
    gamma: f64,
    w: f64,
    buf: &mut [f64],
    gx: &mut [f64],
    gy: &mut [f64],
) -> (f64, f64) {
    let k = p.cell.len();
    let (x, rest) = buf.split_at_mut(k);
    let (y, rest) = rest.split_at_mut(k);
    let (ep, em) = rest.split_at_mut(k);
    for (i, &c) in p.cell.iter().enumerate() {
        x[i] = xs[c as usize] + p.dx[i];
        y[i] = ys[c as usize] + p.dy[i];
    }
    let wx = wa_axis(x, gamma, w, ep, em, gx);
    let wy = wa_axis(y, gamma, w, ep, em, gy);
    (wx, wy)
}

/// WA smooth length along one axis; the weighted per-pin gradients land in
/// `out`. Pins at the extremes take their exponentials without a call (see
/// the module docs); everything else is the arithmetic of the reference
/// `wa_axis_into`, operation for operation.
#[inline]
fn wa_axis(x: &[f64], gamma: f64, w: f64, ep: &mut [f64], em: &mut [f64], out: &mut [f64]) -> f64 {
    let k = x.len();
    let (ep, em, out) = (&mut ep[..k], &mut em[..k], &mut out[..k]);
    let xmax = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let xmin = x.iter().cloned().fold(f64::INFINITY, f64::min);
    let span = ((xmin - xmax) / gamma).exp();
    for (i, &v) in x.iter().enumerate() {
        ep[i] = if v == xmax {
            1.0
        } else if v == xmin {
            span
        } else {
            ((v - xmax) / gamma).exp()
        };
        em[i] = if v == xmin {
            1.0
        } else if v == xmax {
            span
        } else {
            (-(v - xmin) / gamma).exp()
        };
    }
    let sp: f64 = ep.iter().sum();
    let sm: f64 = em.iter().sum();
    let sxp: f64 = x.iter().zip(ep.iter()).map(|(&x, &e)| x * e).sum();
    let sxm: f64 = x.iter().zip(em.iter()).map(|(&x, &e)| x * e).sum();
    let wa_max = sxp / sp;
    let wa_min = sxm / sm;
    for (i, &v) in x.iter().enumerate() {
        // d(wa_max)/dx_k = e_k (1 + (x_k − wa_max)/γ) / sp
        let gp = ep[i] * (1.0 + (v - wa_max) / gamma) / sp;
        let gm = em[i] * (1.0 - (v - wa_min) / gamma) / sm;
        out[i] = w * (gp - gm);
    }
    wa_max - wa_min
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits;
    use dtp_netlist::generate::{generate, GeneratorConfig};

    /// The plain formulation — `2k` calls to `exp`, growable buffers — that the
    /// kernels above must equal bit for bit.
    fn wa_axis_into(
        xs: &[f64],
        gamma: f64,
        ep: &mut Vec<f64>,
        em: &mut Vec<f64>,
        grads: &mut Vec<f64>,
    ) -> f64 {
        let xmax = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let xmin = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        // Stabilized exponentials.
        ep.clear();
        em.clear();
        for &x in xs {
            ep.push(((x - xmax) / gamma).exp());
            em.push((-(x - xmin) / gamma).exp());
        }
        let sp: f64 = ep.iter().sum();
        let sm: f64 = em.iter().sum();
        let sxp: f64 = xs.iter().zip(ep.iter()).map(|(&x, &e)| x * e).sum();
        let sxm: f64 = xs.iter().zip(em.iter()).map(|(&x, &e)| x * e).sum();
        let wa_max = sxp / sp;
        let wa_min = sxm / sm;
        grads.clear();
        for (k, &x) in xs.iter().enumerate() {
            // d(wa_max)/dx_k = e_k (1 + (x_k − wa_max)/γ) / sp
            let gp = ep[k] * (1.0 + (x - wa_max) / gamma) / sp;
            let gm = em[k] * (1.0 - (x - wa_min) / gamma) / sm;
            grads.push(gp - gm);
        }
        wa_max - wa_min
    }

    fn wa_axis(coords: impl Iterator<Item = f64>, gamma: f64) -> (f64, Vec<f64>) {
        let xs: Vec<f64> = coords.collect();
        let mut ep = Vec::new();
        let mut em = Vec::new();
        let mut grads = Vec::new();
        let wl = wa_axis_into(&xs, gamma, &mut ep, &mut em, &mut grads);
        (wl, grads)
    }

    fn model() -> (dtp_netlist::Design, WirelengthModel) {
        let d = generate(&GeneratorConfig::named("wl", 150)).unwrap();
        let m = WirelengthModel::new(&d.netlist);
        (d, m)
    }

    #[test]
    fn hpwl_matches_bounding_boxes() {
        let (d, m) = model();
        let (xs, ys) = d.netlist.positions();
        let hpwl = m.hpwl(&xs, &ys);
        // Independent computation via the netlist API.
        let mut expect = 0.0;
        for net_id in d.netlist.net_ids() {
            let net = d.netlist.net(net_id);
            if net.is_clock() || net.degree() < 2 {
                continue;
            }
            let bbox = dtp_netlist::Rect::bounding(
                net.pins().iter().map(|&p| d.netlist.pin_position(p)),
            )
            .unwrap();
            expect += bbox.half_perimeter();
        }
        assert!((hpwl - expect).abs() < 1e-6, "{hpwl} vs {expect}");
    }

    #[test]
    fn wa_upper_bounds_hpwl_and_converges() {
        let (d, m) = model();
        let (xs, ys) = d.netlist.positions();
        let hpwl = m.hpwl(&xs, &ys);
        let mut scratch = WirelengthScratch::new();
        let (mut gx, mut gy) = (Vec::new(), Vec::new());
        let wa_tight = m.wa_gradient_into(&xs, &ys, 0.01, None, &mut scratch, &mut gx, &mut gy);
        // WA underestimates HPWL slightly; at tiny gamma they coincide.
        assert!((wa_tight - hpwl).abs() < 0.01 * hpwl);
        let wa_loose = m.wa_gradient_into(&xs, &ys, 10.0, None, &mut scratch, &mut gx, &mut gy);
        assert!((wa_loose - hpwl).abs() < 0.5 * hpwl);
    }

    #[test]
    fn wa_gradient_matches_finite_difference() {
        let (d, m) = model();
        let (mut xs, mut ys) = d.netlist.positions();
        let gamma = 2.0;
        let mut scratch = WirelengthScratch::new();
        let (mut gx, mut gy) = (Vec::new(), Vec::new());
        m.wa_gradient_into(&xs, &ys, gamma, None, &mut scratch, &mut gx, &mut gy);
        // The probes' own gradients land in throw-away vectors.
        let (mut px, mut py) = (Vec::new(), Vec::new());
        let mut value = |xs: &[f64], ys: &[f64]| {
            m.wa_gradient_into(xs, ys, gamma, None, &mut scratch, &mut px, &mut py)
        };
        let h = 1e-6;
        // Check several cells.
        for c in (0..xs.len()).step_by(xs.len() / 10 + 1) {
            let x0 = xs[c];
            xs[c] = x0 + h;
            let fp = value(&xs, &ys);
            xs[c] = x0 - h;
            let fm = value(&xs, &ys);
            xs[c] = x0;
            let num = (fp - fm) / (2.0 * h);
            assert!((gx[c] - num).abs() < 1e-5 * (1.0 + num.abs()), "cell {c}: {} vs {num}", gx[c]);

            let y0 = ys[c];
            ys[c] = y0 + h;
            let fp = value(&xs, &ys);
            ys[c] = y0 - h;
            let fm = value(&xs, &ys);
            ys[c] = y0;
            let num = (fp - fm) / (2.0 * h);
            assert!((gy[c] - num).abs() < 1e-5 * (1.0 + num.abs()));
        }
    }

    /// A scratch and gradient vectors that have already served a call give
    /// the bits of fresh ones.
    #[test]
    fn wa_gradient_into_is_bitwise_identical() {
        let (d, m) = model();
        let (xs, ys) = d.netlist.positions();
        let (mut gx, mut gy) = (Vec::new(), Vec::new());
        let wl =
            m.wa_gradient_into(&xs, &ys, 2.0, None, &mut WirelengthScratch::new(), &mut gx, &mut gy);
        let mut scratch = WirelengthScratch::new();
        let mut gx2 = Vec::new();
        let mut gy2 = Vec::new();
        // Run twice through the same scratch so buffer reuse is exercised.
        let _ = m.wa_gradient_into(&xs, &ys, 2.0, None, &mut scratch, &mut gx2, &mut gy2);
        let wl2 = m.wa_gradient_into(&xs, &ys, 2.0, None, &mut scratch, &mut gx2, &mut gy2);
        assert_eq!(wl, wl2);
        assert_eq!(gx, gx2);
        assert_eq!(gy, gy2);
    }

    #[test]
    fn weights_scale_gradients() {
        let (d, m) = model();
        let (xs, ys) = d.netlist.positions();
        let w1 = vec![1.0; m.num_nets()];
        let w2 = vec![2.0; m.num_nets()];
        let mut scratch = WirelengthScratch::new();
        let (mut g1x, mut g2x, mut gy) = (Vec::new(), Vec::new(), Vec::new());
        let f1 = m.wa_gradient_into(&xs, &ys, 2.0, Some(&w1), &mut scratch, &mut g1x, &mut gy);
        let f2 = m.wa_gradient_into(&xs, &ys, 2.0, Some(&w2), &mut scratch, &mut g2x, &mut gy);
        assert!((f2 - 2.0 * f1).abs() < 1e-9 * f1.abs());
        for (a, b) in g1x.iter().zip(&g2x) {
            assert!((b - 2.0 * a).abs() < 1e-12 + 1e-9 * a.abs());
        }
    }

    #[test]
    fn clock_nets_excluded() {
        let (d, m) = model();
        for e in 0..m.num_nets() {
            let ni = dtp_netlist::NetId::new(m.net_index(e));
            assert!(!d.netlist.net(ni).is_clock());
        }
    }

    /// `wa_gradient_into` as the parent computed it: `wa_axis_into` per net
    /// and axis, `w·g` per pin, chunk partials folded in chunk order, cells
    /// summing their slots in ascending order. Returns `(value, grad_x,
    /// grad_y, pin_gx, pin_gy)`.
    #[allow(clippy::type_complexity)]
    fn reference_gradient(
        m: &WirelengthModel,
        xs: &[f64],
        ys: &[f64],
        gamma: f64,
        weights: Option<&[f64]>,
    ) -> (f64, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let n_pins = m.pin_cell.len();
        let (mut pin_gx, mut pin_gy) = (vec![0.0; n_pins], vec![0.0; n_pins]);
        let (mut ep, mut em, mut grads) = (Vec::new(), Vec::new(), Vec::new());
        let mut partials = Vec::new();
        for lo in (0..m.num_nets()).step_by(NET_CHUNK) {
            let mut acc = 0.0;
            for e in lo..(lo + NET_CHUNK).min(m.num_nets()) {
                let w = weights.map_or(1.0, |w| w[e]);
                let slots = m.net_start[e] as usize..m.net_start[e + 1] as usize;
                let axes: [(&[f64], &[f64], &mut Vec<f64>); 2] =
                    [(xs, &m.pin_dx, &mut pin_gx), (ys, &m.pin_dy, &mut pin_gy)];
                for (pos, off, pin_g) in axes {
                    let coords: Vec<f64> =
                        slots.clone().map(|s| pos[m.pin_cell[s] as usize] + off[s]).collect();
                    let wl = wa_axis_into(&coords, gamma, &mut ep, &mut em, &mut grads);
                    acc += w * wl;
                    for (k, s) in slots.clone().enumerate() {
                        pin_g[s] = w * grads[k];
                    }
                }
            }
            partials.push(acc);
        }
        let gather = |pin_g: &[f64]| -> Vec<f64> {
            (0..m.num_cells)
                .map(|c| {
                    let mut sum = 0.0;
                    for s in m.cell_start[c] as usize..m.cell_start[c + 1] as usize {
                        sum += pin_g[m.cell_slots[s] as usize];
                    }
                    sum
                })
                .collect()
        };
        let (gx, gy) = (gather(&pin_gx), gather(&pin_gy));
        (partials.iter().sum(), gx, gy, pin_gx, pin_gy)
    }

    /// A random net CSR of degrees 2–40 over `cells` cells. Positions sit on
    /// a coarse lattice and most pin offsets are zero, so coincident pins
    /// and several pins tied at a net's max/min are the common case, not
    /// the exception; `reach` stretches the lattice past `exp` underflow.
    fn random_model(seed: u64, nets: usize, reach: f64) -> (WirelengthModel, Vec<f64>, Vec<f64>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cells = 24 + nets / 2;
        let lattice = |rng: &mut rand::rngs::StdRng| {
            (rng.gen_range(0..7usize) as f64 - 3.0) * reach
        };
        let xs: Vec<f64> = (0..cells).map(|_| lattice(&mut rng)).collect();
        let ys: Vec<f64> = (0..cells).map(|_| lattice(&mut rng)).collect();
        let (mut pin_cell, mut pin_dx, mut pin_dy) = (Vec::new(), Vec::new(), Vec::new());
        let mut net_start = vec![0u32];
        for _ in 0..nets {
            let degree = match rng.gen_range(0..10usize) {
                0..=4 => 2,
                5..=7 => rng.gen_range(3..=16usize),
                _ => rng.gen_range(17..=40usize),
            };
            for _ in 0..degree {
                pin_cell.push(rng.gen_range(0..cells) as u32);
                let jitter = rng.gen_range(0..4usize) == 0;
                pin_dx.push(if jitter { rng.gen_range(-1.0..1.0) } else { 0.0 });
                pin_dy.push(if jitter { rng.gen_range(-1.0..1.0) } else { 0.0 });
            }
            net_start.push(pin_cell.len() as u32);
        }
        let net_index = (0..nets as u32).collect();
        (WirelengthModel::from_csr(pin_cell, pin_dx, pin_dy, net_start, net_index, cells), xs, ys)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Exactness oracle: the degree-specialised kernels equal the plain
        /// formulation bit for bit — value, per-cell and per-pin gradients —
        /// at any pool width, with and without net weights, for tied and
        /// coincident pins and for spreads far beyond `exp` underflow
        /// (`reach / γ` up to 10⁴ lattice steps of 745).
        #[test]
        fn kernels_equal_plain_formulation_bit_for_bit(
            seed in 0u64..1_000_000,
            nets in 1usize..2600,
            gamma in 0.05f64..8.0,
            reach_steps in 0usize..4,
            weighted in 0usize..2,
        ) {
            let reach = [0.5, 3.0, 40.0, 4000.0][reach_steps];
            let (m, xs, ys) = random_model(seed, nets, reach);
            let weights: Vec<f64> =
                (0..nets).map(|e| 0.25 + ((e * 37 + seed as usize) % 11) as f64 * 0.5).collect();
            let weights = (weighted == 1).then_some(&weights[..]);
            let (wl, gx, gy, pgx, pgy) = reference_gradient(&m, &xs, &ys, gamma, weights);
            for threads in [1usize, 2, 4] {
                let mut scratch = WirelengthScratch::new();
                // Stale contents must not leak into the result.
                let (mut ox, mut oy) = (vec![f64::NAN; 3], vec![f64::NAN; m.num_cells + 5]);
                let got = rayon::with_pool(&rayon::Pool::new(threads), || {
                    m.wa_gradient_into(&xs, &ys, gamma, weights, &mut scratch, &mut ox, &mut oy)
                });
                proptest::prop_assert_eq!(got.to_bits(), wl.to_bits(), "value @{}", threads);
                proptest::prop_assert_eq!(bits(&ox), bits(&gx), "grad_x, {} threads", threads);
                proptest::prop_assert_eq!(bits(&oy), bits(&gy), "grad_y, {} threads", threads);
                proptest::prop_assert_eq!(bits(&scratch.pin_gx), bits(&pgx), "pin x gradients");
                proptest::prop_assert_eq!(bits(&scratch.pin_gy), bits(&pgy), "pin y gradients");
            }
        }
    }

    /// The two identities the kernels rest on, checked on the host's `exp`.
    #[test]
    fn exp_identities_hold_on_this_host() {
        assert_eq!((0.0f64).exp().to_bits(), 1.0f64.to_bits());
        assert_eq!((-0.0f64).exp().to_bits(), 1.0f64.to_bits());
        for (a, b) in [(1.5, 7.25), (-3.0, 1e-9), (0.1, 0.3), (-1e300, 1e300), (5e-324, 1.0)] {
            let (lo, hi): (f64, f64) = (a, b);
            assert_eq!((lo - hi).to_bits(), (-(hi - lo)).to_bits(), "{lo} {hi}");
        }
    }

    #[test]
    fn two_pin_wa_gradient_sign() {
        // For a 2-pin net, the gradient pulls pins together.
        let (_, grads) = wa_axis([0.0, 10.0].into_iter(), 1.0);
        assert!(grads[0] < 0.0, "left pin pulled right (negative direction grad means moving +x reduces)");
        assert!(grads[1] > 0.0);
    }
}
