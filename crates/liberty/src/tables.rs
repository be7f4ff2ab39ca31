//! Flat table view of a set of delay arcs: every axis and value of every
//! NLDM table in one contiguous `f64` arena.
//!
//! [`TimingArc::eval`] chases four separately allocated [`Lut2`]s (three
//! `Vec`s each) per query. A timing sweep evaluates every arc of the design
//! every iteration, so [`ArcTables`] copies the tables of the arcs it is
//! built from into one allocation — equal axes stored once, each arc's
//! delay and transition values back to back — and evaluates through the
//! same interpolation kernel as [`Lut2::value_grad`], so results are
//! bit-identical to [`TimingArc::eval`].
//!
//! Arcs whose rise and fall tables are equal (checked once, at build) take
//! two lookups instead of three: the worst-of-rise/fall selection picks the
//! rise pair on a tie, and the tie is certain.

use crate::arc::{ArcEval, TimingArc, MIN_SLEW};
use crate::lut::{bilinear, Lut2};

/// One table's location in the arena.
#[derive(Clone, Copy, Debug)]
struct FlatLut {
    x: u32,
    y: u32,
    v: u32,
    nx: u32,
    ny: u32,
}

/// One arc's four tables; `fall*` alias `rise*` on symmetric arcs.
#[derive(Clone, Copy, Debug)]
struct FlatArc {
    rise: FlatLut,
    fall: FlatLut,
    rise_transition: FlatLut,
    fall_transition: FlatLut,
    symmetric: bool,
}

/// Contiguous arena of the NLDM tables of a fixed list of arcs, addressed by
/// the arc's position in that list.
#[derive(Clone, Debug, Default)]
pub struct ArcTables {
    data: Vec<f64>,
    arcs: Vec<FlatArc>,
}

impl ArcTables {
    /// Flattens the tables of `arcs`; arc `i` of the iterator is arc `i` of
    /// [`ArcTables::eval`]. Constraint arcs carry constant-zero delay tables
    /// and flatten like any other arc.
    pub fn new<'a>(arcs: impl IntoIterator<Item = &'a TimingArc>) -> ArcTables {
        let mut t = ArcTables::default();
        // (offset, len) of every distinct axis stored so far.
        let mut axes: Vec<(u32, u32)> = Vec::new();
        for arc in arcs {
            let symmetric = arc.cell_rise == arc.cell_fall
                && arc.rise_transition == arc.fall_transition;
            let rise = t.push_lut(&arc.cell_rise, &mut axes);
            let rise_transition = t.push_lut(&arc.rise_transition, &mut axes);
            let (fall, fall_transition) = if symmetric {
                (rise, rise_transition)
            } else {
                (
                    t.push_lut(&arc.cell_fall, &mut axes),
                    t.push_lut(&arc.fall_transition, &mut axes),
                )
            };
            t.arcs.push(FlatArc { rise, fall, rise_transition, fall_transition, symmetric });
        }
        t
    }

    fn push_axis(&mut self, axis: &[f64], axes: &mut Vec<(u32, u32)>) -> u32 {
        for &(off, len) in axes.iter() {
            if self.data[off as usize..(off + len) as usize] == *axis {
                return off;
            }
        }
        let off = self.data.len() as u32;
        self.data.extend_from_slice(axis);
        axes.push((off, axis.len() as u32));
        off
    }

    fn push_lut(&mut self, lut: &Lut2, axes: &mut Vec<(u32, u32)>) -> FlatLut {
        let x = self.push_axis(lut.x_axis(), axes);
        let y = self.push_axis(lut.y_axis(), axes);
        let v = self.data.len() as u32;
        self.data.extend_from_slice(lut.values());
        FlatLut { x, y, v, nx: lut.x_axis().len() as u32, ny: lut.y_axis().len() as u32 }
    }

    #[inline]
    fn value_grad(&self, l: FlatLut, x: f64, y: f64) -> (f64, f64, f64) {
        let (nx, ny) = (l.nx as usize, l.ny as usize);
        let xs = &self.data[l.x as usize..l.x as usize + nx];
        let ys = &self.data[l.y as usize..l.y as usize + ny];
        let v = &self.data[l.v as usize..l.v as usize + nx * ny];
        bilinear(xs, ys, v, x, y)
    }

    /// [`TimingArc::eval`] of arc `arc` at `(input slew, output load)`,
    /// bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `arc` is not the position of an arc given to [`ArcTables::new`].
    #[inline]
    pub fn eval(&self, arc: usize, slew_in: f64, load: f64) -> ArcEval {
        let a = &self.arcs[arc];
        let (dr, dr_dx, dr_dy) = self.value_grad(a.rise, slew_in, load);
        let (delay, d_dx, d_dy, trans) = if a.symmetric {
            (dr, dr_dx, dr_dy, a.rise_transition)
        } else {
            let (df, df_dx, df_dy) = self.value_grad(a.fall, slew_in, load);
            if dr >= df {
                (dr, dr_dx, dr_dy, a.rise_transition)
            } else {
                (df, df_dx, df_dy, a.fall_transition)
            }
        };
        let (s, s_dx, s_dy) = self.value_grad(trans, slew_in, load);
        let (s, s_dx, s_dy) = if s < MIN_SLEW { (MIN_SLEW, 0.0, 0.0) } else { (s, s_dx, s_dy) };
        ArcEval {
            delay,
            d_delay_d_slew: d_dx,
            d_delay_d_load: d_dy,
            slew: s,
            d_slew_d_slew: s_dx,
            d_slew_d_load: s_dy,
        }
    }

    /// The `delay` field of [`ArcTables::eval`] without the transition
    /// lookup — all a required-time sweep needs.
    ///
    /// # Panics
    ///
    /// Panics if `arc` is not the position of an arc given to [`ArcTables::new`].
    #[inline]
    pub fn delay(&self, arc: usize, slew_in: f64, load: f64) -> f64 {
        let a = &self.arcs[arc];
        let dr = self.value_grad(a.rise, slew_in, load).0;
        if a.symmetric {
            return dr;
        }
        let df = self.value_grad(a.fall, slew_in, load).0;
        if dr >= df { dr } else { df }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arc::{ArcKind, Unate};
    use crate::synth::synthetic_pdk;
    use proptest::prelude::*;

    /// A deliberately asymmetric arc: rise and fall surfaces cross inside
    /// the grid, the transition floor triggers in one corner, and the load
    /// axis differs from the slew axis.
    fn asymmetric() -> TimingArc {
        let xs = vec![1.0, 4.0, 16.0, 64.0];
        let ys = vec![0.5, 2.0, 8.0];
        let lut = |f: fn(f64, f64) -> f64| Lut2::tabulate(xs.clone(), ys.clone(), f).unwrap();
        TimingArc {
            from: "A".into(),
            to: "Y".into(),
            kind: ArcKind::Combinational,
            unate: Unate::Negative,
            cell_rise: lut(|s, l| 5.0 + 0.3 * s + 1.5 * l),
            cell_fall: lut(|s, l| 9.0 + 0.1 * s + 0.02 * s * l),
            rise_transition: lut(|s, l| 2.0 + 0.2 * s + l),
            fall_transition: lut(|s, l| -1.0 + 0.05 * s + 0.1 * l),
            constraint: None,
        }
    }

    fn all_arcs() -> Vec<TimingArc> {
        let lib = synthetic_pdk();
        let mut arcs: Vec<TimingArc> =
            lib.cells().iter().flat_map(|c| c.arcs().iter().cloned()).collect();
        arcs.push(asymmetric());
        arcs.push(TimingArc::symmetric_delay(
            "A",
            "Y",
            ArcKind::Combinational,
            Lut2::constant(3.0),
            Lut2::new(vec![1.0], vec![0.0, 1.0], vec![3.0, 5.0]).unwrap(),
        ));
        arcs
    }

    fn same_bits(a: ArcEval, b: ArcEval) -> bool {
        let f = |e: ArcEval| {
            [e.delay, e.d_delay_d_slew, e.d_delay_d_load, e.slew, e.d_slew_d_slew, e.d_slew_d_load]
                .map(f64::to_bits)
        };
        f(a) == f(b)
    }

    #[test]
    fn symmetric_arcs_are_detected_and_axes_shared() {
        let arcs = all_arcs();
        let t = ArcTables::new(&arcs);
        assert_eq!(t.arcs.len(), arcs.len());
        let n_sym = t.arcs.iter().filter(|a| a.symmetric).count();
        assert_eq!(n_sym, arcs.len() - 1, "only the hand-built arc is asymmetric");
        // Shared axes: far fewer f64s than four private tables per arc.
        let private: usize = arcs
            .iter()
            .map(|a| {
                [&a.cell_rise, &a.cell_fall, &a.rise_transition, &a.fall_transition]
                    .iter()
                    .map(|l| l.x_axis().len() + l.y_axis().len() + l.values().len())
                    .sum::<usize>()
            })
            .sum();
        assert!(t.data.len() < private / 2);
    }

    #[test]
    fn nan_query_propagates() {
        let arcs = all_arcs();
        let t = ArcTables::new(&arcs);
        for (k, arc) in arcs.iter().enumerate() {
            if arc.is_delay_arc() && arc.cell_rise.values().len() > 1 {
                assert!(t.eval(k, f64::NAN, 1.0).delay.is_nan());
                assert!(t.delay(k, 1.0, f64::NAN).is_nan());
            }
        }
    }

    proptest! {
        #[test]
        fn eval_equals_timing_arc_eval_bit_for_bit(
            slew in -10.0..300.0f64,
            load in -5.0..300.0f64,
        ) {
            let arcs = all_arcs();
            let t = ArcTables::new(&arcs);
            for (k, arc) in arcs.iter().enumerate() {
                let want = arc.eval(slew, load);
                prop_assert!(same_bits(t.eval(k, slew, load), want), "arc {k}");
                prop_assert_eq!(t.delay(k, slew, load).to_bits(), want.delay.to_bits());
            }
        }
    }
}
