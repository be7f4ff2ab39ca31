//! Timing arcs: NLDM delay/transition arcs and setup/hold constraint arcs.

use crate::lut::{Lut1, Lut2};

/// Unateness of a combinational arc (which input edge causes which output
/// edge). The simplified single-corner propagation of this flow evaluates the
/// worst of rise/fall regardless of unateness, but the attribute is parsed,
/// stored and written so libraries round-trip.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Unate {
    /// Rising input causes rising output.
    Positive,
    /// Rising input causes falling output.
    #[default]
    Negative,
    /// Edge relationship depends on other inputs.
    NonUnate,
}

/// Kind of a timing arc.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArcKind {
    /// Input-to-output delay arc of a combinational cell.
    Combinational,
    /// Clock-to-output delay arc of a register (`CK -> Q`).
    ClkToQ,
    /// Setup constraint arc (`CK -> D`): data must arrive this long before
    /// the capturing clock edge.
    Setup,
    /// Hold constraint arc (`CK -> D`): data must stay stable this long after
    /// the clock edge.
    Hold,
}

/// Result of evaluating a delay arc at `(input slew, output load)`:
/// worst-case delay and output slew, plus partial derivatives with respect to
/// both query coordinates — the quantities consumed by Eq. (12) of the paper.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArcEval {
    /// Arc delay (ps).
    pub delay: f64,
    /// ∂delay/∂(input slew).
    pub d_delay_d_slew: f64,
    /// ∂delay/∂(output load).
    pub d_delay_d_load: f64,
    /// Output slew (ps).
    pub slew: f64,
    /// ∂slew/∂(input slew).
    pub d_slew_d_slew: f64,
    /// ∂slew/∂(output load).
    pub d_slew_d_load: f64,
}

/// An NLDM timing arc between two pins of a cell.
#[derive(Clone, Debug, PartialEq)]
pub struct TimingArc {
    /// Source pin name (`related_pin` in Liberty terms is the *from* pin).
    pub from: String,
    /// Destination pin name (the pin the `timing()` group is attached to).
    pub to: String,
    /// Arc kind.
    pub kind: ArcKind,
    /// Unateness attribute.
    pub unate: Unate,
    /// `cell_rise` delay table.
    pub cell_rise: Lut2,
    /// `cell_fall` delay table.
    pub cell_fall: Lut2,
    /// `rise_transition` output-slew table.
    pub rise_transition: Lut2,
    /// `fall_transition` output-slew table.
    pub fall_transition: Lut2,
    /// Constraint table for [`ArcKind::Setup`]/[`ArcKind::Hold`] arcs,
    /// indexed by data slew (the clock network is ideal in this flow).
    pub constraint: Option<Lut1>,
}

impl TimingArc {
    /// Creates a delay arc whose rise and fall behaviour is identical
    /// (the synthetic PDK uses symmetric cells).
    pub fn symmetric_delay(
        from: impl Into<String>,
        to: impl Into<String>,
        kind: ArcKind,
        delay: Lut2,
        transition: Lut2,
    ) -> Self {
        TimingArc {
            from: from.into(),
            to: to.into(),
            kind,
            unate: Unate::Negative,
            cell_rise: delay.clone(),
            cell_fall: delay,
            rise_transition: transition.clone(),
            fall_transition: transition,
            constraint: None,
        }
    }

    /// Creates a setup or hold constraint arc.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not [`ArcKind::Setup`] or [`ArcKind::Hold`].
    pub fn constraint(
        from: impl Into<String>,
        to: impl Into<String>,
        kind: ArcKind,
        table: Lut1,
    ) -> Self {
        assert!(
            matches!(kind, ArcKind::Setup | ArcKind::Hold),
            "constraint arcs must be Setup or Hold"
        );
        TimingArc {
            from: from.into(),
            to: to.into(),
            kind,
            unate: Unate::NonUnate,
            cell_rise: Lut2::constant(0.0),
            cell_fall: Lut2::constant(0.0),
            rise_transition: Lut2::constant(0.0),
            fall_transition: Lut2::constant(0.0),
            constraint: Some(table),
        }
    }

    /// Whether this is a delay (propagation) arc rather than a constraint.
    pub fn is_delay_arc(&self) -> bool {
        matches!(self.kind, ArcKind::Combinational | ArcKind::ClkToQ)
    }

    /// Evaluates the arc at `(input slew, output load)` using single-corner
    /// worst-case semantics: the rise/fall table pair with the larger delay
    /// is active, and the gradient is that of the active tables (the same
    /// subgradient convention a `max` in a neural network uses).
    pub fn eval(&self, slew_in: f64, load: f64) -> ArcEval {
        let (dr, dr_dx, dr_dy) = self.cell_rise.value_grad(slew_in, load);
        let (df, df_dx, df_dy) = self.cell_fall.value_grad(slew_in, load);
        let rise_active = dr >= df;
        let (delay, d_dx, d_dy, trans) = if rise_active {
            (dr, dr_dx, dr_dy, &self.rise_transition)
        } else {
            (df, df_dx, df_dy, &self.fall_transition)
        };
        let (s, s_dx, s_dy) = trans.value_grad(slew_in, load);
        // Output slew must stay positive for downstream sqrt/LUT queries;
        // clamp with a dead gradient below the floor.
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

    /// Evaluates a setup/hold constraint at the given data slew, returning
    /// the constraint margin in ps. Returns 0 for delay arcs.
    pub fn constraint_value(&self, data_slew: f64) -> f64 {
        self.constraint.as_ref().map_or(0.0, |t| t.value(data_slew))
    }
}

/// Floor for propagated slews (ps): keeps LUT queries and the slew-merge
/// square root well conditioned.
pub(crate) const MIN_SLEW: f64 = 1e-3;

#[cfg(test)]
mod tests {
    use super::*;

    fn arc() -> TimingArc {
        // delay = 10 + 0.5*slew + 2*load; transition = 2 + 0.2*slew + 1*load
        let delay = Lut2::tabulate(vec![0.0, 50.0], vec![0.0, 10.0], |s, l| {
            10.0 + 0.5 * s + 2.0 * l
        })
        .unwrap();
        let trans = Lut2::tabulate(vec![0.0, 50.0], vec![0.0, 10.0], |s, l| {
            2.0 + 0.2 * s + 1.0 * l
        })
        .unwrap();
        TimingArc::symmetric_delay("A", "Y", ArcKind::Combinational, delay, trans)
    }

    #[test]
    fn eval_linear_model() {
        let e = arc().eval(10.0, 3.0);
        assert!((e.delay - 21.0).abs() < 1e-9);
        assert!((e.d_delay_d_slew - 0.5).abs() < 1e-9);
        assert!((e.d_delay_d_load - 2.0).abs() < 1e-9);
        assert!((e.slew - 7.0).abs() < 1e-9);
        assert!((e.d_slew_d_slew - 0.2).abs() < 1e-9);
        assert!((e.d_slew_d_load - 1.0).abs() < 1e-9);
    }

    #[test]
    fn worst_case_picks_larger_table() {
        let fast = Lut2::constant(1.0);
        let slow = Lut2::constant(5.0);
        let tr = Lut2::constant(2.0);
        let tf = Lut2::constant(3.0);
        let a = TimingArc {
            from: "A".into(),
            to: "Y".into(),
            kind: ArcKind::Combinational,
            unate: Unate::Negative,
            cell_rise: fast,
            cell_fall: slow,
            rise_transition: tr,
            fall_transition: tf,
            constraint: None,
        };
        let e = a.eval(1.0, 1.0);
        assert_eq!(e.delay, 5.0); // fall is worse
        assert_eq!(e.slew, 3.0); // fall transition table active
    }

    #[test]
    fn slew_floor() {
        let d = Lut2::constant(1.0);
        let t = Lut2::constant(-4.0); // pathological table
        let a = TimingArc::symmetric_delay("A", "Y", ArcKind::Combinational, d, t);
        let e = a.eval(1.0, 1.0);
        assert_eq!(e.slew, MIN_SLEW);
        assert_eq!(e.d_slew_d_slew, 0.0);
    }

    #[test]
    fn constraint_arc() {
        let t = Lut1::new(vec![0.0, 100.0], vec![20.0, 30.0]).unwrap();
        let a = TimingArc::constraint("CK", "D", ArcKind::Setup, t);
        assert!(!a.is_delay_arc());
        assert!((a.constraint_value(50.0) - 25.0).abs() < 1e-12);
        assert_eq!(arc().constraint_value(50.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "Setup or Hold")]
    fn constraint_with_wrong_kind_panics() {
        let _ = TimingArc::constraint("CK", "D", ArcKind::ClkToQ, Lut1::constant(1.0));
    }
}
