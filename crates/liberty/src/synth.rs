//! Synthetic PDK generation.
//!
//! A real flow reads a foundry `.lib`; none can ship with this reproduction,
//! so we generate one from the canonical standard-cell table in
//! [`dtp_netlist::stdcells`]. The delay/slew surfaces are *linear* in each of
//! (input slew, output load) — `delay = intrinsic + R_out·load + k·slew` —
//! which has two nice properties: it is a reasonable first-order model of a
//! driving CMOS stage, and bilinear LUT interpolation reproduces it exactly,
//! so tests can compare LUT queries against the analytic closed form.

use crate::arc::{ArcKind, TimingArc};
use crate::cell::{LibCell, LibPin};
use crate::library::Library;
use crate::lut::{Lut1, Lut2};
use dtp_netlist::stdcells::{self, StdCellSpec, CLOCK_PIN};
use dtp_netlist::PinDir;

/// Slew axis (ps) of the synthetic tables.
const SLEW_AXIS: [f64; 5] = [0.5, 2.0, 8.0, 32.0, 128.0];
/// Load axis (fF) of the synthetic tables.
const LOAD_AXIS: [f64; 5] = [0.5, 2.0, 8.0, 32.0, 128.0];

/// Base output resistance (kΩ) of a drive-1 cell; kΩ·fF = ps.
const BASE_DRIVE_RES: f64 = 2.0;
/// Delay sensitivity to input slew (dimensionless).
const SLEW_TO_DELAY: f64 = 0.15;
/// Output-slew sensitivity to load relative to delay sensitivity.
const TRANS_LOAD_FACTOR: f64 = 1.2;
/// Output-slew sensitivity to input slew.
const SLEW_TO_SLEW: f64 = 0.10;
/// Intrinsic output slew (ps).
const TRANS_INTRINSIC: f64 = 3.0;
/// Base input-pin capacitance (fF).
const BASE_PIN_CAP: f64 = 1.0;

/// Analytic arc delay of a cell described by `spec` (the truth the synthetic
/// LUTs tabulate).
pub fn analytic_delay(spec: &StdCellSpec, slew: f64, load: f64) -> f64 {
    spec.intrinsic + (BASE_DRIVE_RES / spec.drive) * load + SLEW_TO_DELAY * slew
}

/// Analytic output slew of a cell described by `spec`.
pub fn analytic_slew(spec: &StdCellSpec, slew: f64, load: f64) -> f64 {
    TRANS_INTRINSIC + TRANS_LOAD_FACTOR * (BASE_DRIVE_RES / spec.drive) * load + SLEW_TO_SLEW * slew
}

/// Input capacitance (fF) of pins on a cell described by `spec`: bigger drive
/// means proportionally bigger input transistors.
pub fn analytic_pin_cap(spec: &StdCellSpec) -> f64 {
    BASE_PIN_CAP * spec.drive
}

/// Setup margin (ps) as a function of data slew.
pub fn analytic_setup(data_slew: f64) -> f64 {
    12.0 + 0.25 * data_slew
}

/// Hold margin (ps) as a function of data slew.
pub fn analytic_hold(data_slew: f64) -> f64 {
    2.0 + 0.05 * data_slew
}

fn delay_lut(spec: &StdCellSpec) -> Lut2 {
    Lut2::tabulate(SLEW_AXIS.to_vec(), LOAD_AXIS.to_vec(), |s, l| analytic_delay(spec, s, l))
        .expect("static axes are valid")
}

fn trans_lut(spec: &StdCellSpec) -> Lut2 {
    Lut2::tabulate(SLEW_AXIS.to_vec(), LOAD_AXIS.to_vec(), |s, l| analytic_slew(spec, s, l))
        .expect("static axes are valid")
}

/// Builds the [`LibCell`] for one standard-cell descriptor.
fn synth_cell(spec: &StdCellSpec) -> LibCell {
    let cap = analytic_pin_cap(spec);
    let mut cell = LibCell::new(spec.name, spec.width * stdcells::ROW_HEIGHT);
    for input in spec.inputs {
        cell = cell.with_pin(LibPin {
            name: (*input).to_owned(),
            dir: PinDir::Input,
            capacitance: cap,
            max_capacitance: None,
            is_clock: false,
        });
    }
    cell = cell.with_pin(LibPin {
        name: spec.output.to_owned(),
        dir: PinDir::Output,
        capacitance: 0.0,
        max_capacitance: Some(LOAD_AXIS[LOAD_AXIS.len() - 1]),
        is_clock: false,
    });
    if spec.seq {
        cell = cell.with_pin(LibPin {
            name: CLOCK_PIN.to_owned(),
            dir: PinDir::Input,
            capacitance: 0.8 * cap,
            max_capacitance: None,
            is_clock: true,
        });
        // CK -> Q propagation arc.
        cell = cell.with_arc(TimingArc::symmetric_delay(
            CLOCK_PIN,
            spec.output,
            ArcKind::ClkToQ,
            delay_lut(spec),
            trans_lut(spec),
        ));
        // CK -> D setup/hold constraint arcs over data slew.
        let setup = Lut1::new(
            SLEW_AXIS.to_vec(),
            SLEW_AXIS.iter().map(|&s| analytic_setup(s)).collect(),
        )
        .expect("static axis is valid");
        let hold = Lut1::new(
            SLEW_AXIS.to_vec(),
            SLEW_AXIS.iter().map(|&s| analytic_hold(s)).collect(),
        )
        .expect("static axis is valid");
        for input in spec.inputs {
            cell = cell
                .with_arc(TimingArc::constraint(CLOCK_PIN, *input, ArcKind::Setup, setup.clone()))
                .with_arc(TimingArc::constraint(CLOCK_PIN, *input, ArcKind::Hold, hold.clone()));
        }
    } else {
        for input in spec.inputs {
            cell = cell.with_arc(TimingArc::symmetric_delay(
                *input,
                spec.output,
                ArcKind::Combinational,
                delay_lut(spec),
                trans_lut(spec),
            ));
        }
    }
    cell
}

/// Generates the full synthetic PDK matching `dtp_netlist::stdcells::CELLS`.
pub fn synthetic_pdk() -> Library {
    let mut lib = Library::new("dtp_synth_pdk");
    for spec in stdcells::CELLS {
        lib.add_cell(synth_cell(spec));
    }
    lib
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pdk_covers_all_stdcells() {
        let lib = synthetic_pdk();
        assert_eq!(lib.num_cells(), stdcells::CELLS.len());
        for spec in stdcells::CELLS {
            let c = lib.cell(spec.name).unwrap();
            assert_eq!(c.is_sequential(), spec.seq, "{}", spec.name);
            // One delay arc per signal input (comb) or exactly one CK->Q arc.
            let delay_arcs = c.arcs().iter().filter(|a| a.is_delay_arc()).count();
            if spec.seq {
                assert_eq!(delay_arcs, 1);
                assert!(c.setup_arc(spec.inputs[0]).is_some());
                assert!(c.hold_arc(spec.inputs[0]).is_some());
            } else {
                assert_eq!(delay_arcs, spec.inputs.len());
            }
        }
    }

    #[test]
    fn lut_matches_analytic_model_exactly() {
        // The model is bilinear-free (no slew*load term), so interpolation is
        // exact even between samples and under extrapolation.
        let spec = stdcells::find("NAND2_X1").unwrap();
        let cell = synth_cell(spec);
        let arc = cell.delay_arcs_to("Y").next().unwrap();
        for &(s, l) in &[(1.0, 1.0), (5.0, 20.0), (100.0, 60.0), (200.0, 300.0)] {
            let e = arc.eval(s, l);
            assert!(
                (e.delay - analytic_delay(spec, s, l)).abs() < 1e-9,
                "delay mismatch at ({s}, {l})"
            );
            assert!(
                (e.slew - analytic_slew(spec, s, l)).abs() < 1e-9,
                "slew mismatch at ({s}, {l})"
            );
        }
    }

    #[test]
    fn arc_gradients_match_analytic_model() {
        let spec = stdcells::find("INV_X2").unwrap();
        let cell = synth_cell(spec);
        let arc = cell.delay_arcs_to("Y").next().unwrap();
        let e = arc.eval(7.0, 13.0);
        assert!((e.d_delay_d_slew - SLEW_TO_DELAY).abs() < 1e-9);
        assert!((e.d_delay_d_load - BASE_DRIVE_RES / spec.drive).abs() < 1e-9);
        assert!((e.d_slew_d_slew - SLEW_TO_SLEW).abs() < 1e-9);
        assert!((e.d_slew_d_load - TRANS_LOAD_FACTOR * BASE_DRIVE_RES / spec.drive).abs() < 1e-9);
    }

    #[test]
    fn stronger_drive_is_faster() {
        let lib = synthetic_pdk();
        let x1 = lib.cell("INV_X1").unwrap().delay_arcs_to("Y").next().unwrap().eval(10.0, 20.0);
        let x2 = lib.cell("INV_X2").unwrap().delay_arcs_to("Y").next().unwrap().eval(10.0, 20.0);
        assert!(x2.delay < x1.delay);
    }

    #[test]
    fn setup_grows_with_data_slew() {
        let lib = synthetic_pdk();
        let dff = lib.cell("DFF_X1").unwrap();
        let setup = dff.setup_arc("D").unwrap();
        assert!(setup.constraint_value(50.0) > setup.constraint_value(5.0));
    }
}
