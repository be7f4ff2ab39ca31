//! Error type for timing analysis setup.

use std::fmt;

/// Errors produced while binding a netlist to a library or building the
/// timing graph.
#[derive(Debug)]
#[non_exhaustive]
pub enum StaError {
    /// A netlist cell class has no cell of the same name in the library.
    UnboundClass(String),
    /// A library cell lacks a pin that the netlist class declares.
    UnboundPin {
        /// Class/cell name.
        class: String,
        /// Missing pin name.
        pin: String,
    },
    /// The combinational part of the netlist contains a cycle, so it cannot
    /// be levelized.
    CombinationalCycle {
        /// A pin on the cycle (diagnostic).
        pin: String,
    },
    /// The LSE smoothing γ is not positive and finite, so no smoothed
    /// analysis or gradient can use it.
    Gamma(f64),
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaError::UnboundClass(c) => {
                write!(f, "cell class `{c}` not found in the library")
            }
            StaError::UnboundPin { class, pin } => {
                write!(f, "library cell `{class}` has no pin `{pin}`")
            }
            StaError::CombinationalCycle { pin } => {
                write!(f, "combinational cycle through pin `{pin}`")
            }
            StaError::Gamma(g) => {
                write!(f, "LSE smoothing gamma must be positive and finite, got {g}")
            }
        }
    }
}

impl std::error::Error for StaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(StaError::UnboundClass("X".into()).to_string().contains("`X`"));
        let e = StaError::UnboundPin { class: "C".into(), pin: "P".into() };
        assert!(e.to_string().contains("no pin `P`"));
        let c = StaError::CombinationalCycle { pin: "u1/Y".into() };
        assert!(c.to_string().contains("cycle"));
    }
}
