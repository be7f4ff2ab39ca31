//! Timing constraints and an SDC-subset parser.
//!
//! Timing-driven placement needs three pieces of constraint information: the
//! clock period (for register-to-register paths), input arrival offsets (for
//! PI-to-register paths) and output required offsets (register-to-PO paths).
//! That is exactly the subset of SDC parsed here:
//!
//! ```text
//! create_clock -period 10.0 -name core_clk [get_ports clk]
//! set_input_delay 1.5 -clock core_clk [get_ports {a b c}]
//! set_output_delay 2.0 -clock core_clk [all_outputs]
//! ```

use crate::error::NetlistError;
use std::collections::HashMap;

/// Timing constraints for a design (SDC subset).
#[derive(Clone, Debug, PartialEq)]
pub struct Sdc {
    /// Clock period in picoseconds.
    pub clock_period: f64,
    /// Clock name (diagnostic only).
    pub clock_name: String,
    /// Port driving the clock network, if any.
    pub clock_port: Option<String>,
    /// Arrival-time offset per primary-input port name.
    pub input_delays: HashMap<String, f64>,
    /// Required-time margin per primary-output port name.
    pub output_delays: HashMap<String, f64>,
    /// Arrival offset applied to inputs not listed in `input_delays`.
    pub default_input_delay: f64,
    /// Required margin applied to outputs not listed in `output_delays`.
    pub default_output_delay: f64,
}

impl Default for Sdc {
    fn default() -> Self {
        Sdc {
            clock_period: 1000.0,
            clock_name: "clk".to_owned(),
            clock_port: None,
            input_delays: HashMap::new(),
            output_delays: HashMap::new(),
            default_input_delay: 0.0,
            default_output_delay: 0.0,
        }
    }
}

impl Sdc {
    /// Creates constraints with just a clock period (ps).
    pub fn with_period(period: f64) -> Self {
        Sdc { clock_period: period, ..Sdc::default() }
    }

    /// Arrival-time offset for a primary input port.
    pub fn input_delay(&self, port: &str) -> f64 {
        self.input_delays
            .get(port)
            .copied()
            .unwrap_or(self.default_input_delay)
    }

    /// Required-time margin for a primary output port.
    pub fn output_delay(&self, port: &str) -> f64 {
        self.output_delays
            .get(port)
            .copied()
            .unwrap_or(self.default_output_delay)
    }

    /// Parses the SDC subset described in the module docs.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Parse`] on malformed commands. Unknown commands
    /// are ignored (SDC files routinely carry commands irrelevant to
    /// placement).
    pub fn parse(text: &str) -> Result<Sdc, NetlistError> {
        let mut sdc = Sdc::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let tokens = tokenize(line);
            if tokens.is_empty() {
                continue;
            }
            let err = |message: String| NetlistError::Parse {
                kind: "sdc",
                line: lineno + 1,
                message,
            };
            match tokens[0].as_str() {
                "create_clock" => {
                    let mut i = 1;
                    while i < tokens.len() {
                        match tokens[i].as_str() {
                            "-period" => {
                                let v = tokens
                                    .get(i + 1)
                                    .ok_or_else(|| err("missing -period value".into()))?;
                                sdc.clock_period = v
                                    .parse()
                                    .map_err(|_| err(format!("bad period `{v}`")))?;
                                i += 2;
                            }
                            "-name" => {
                                sdc.clock_name = tokens
                                    .get(i + 1)
                                    .ok_or_else(|| err("missing -name value".into()))?
                                    .clone();
                                i += 2;
                            }
                            "get_ports" => {
                                sdc.clock_port = tokens.get(i + 1).cloned();
                                i += 2;
                            }
                            _ => i += 1,
                        }
                    }
                }
                "set_input_delay" | "set_output_delay" => {
                    let is_input = tokens[0] == "set_input_delay";
                    let value: f64 = tokens
                        .get(1)
                        .ok_or_else(|| err("missing delay value".into()))?
                        .parse()
                        .map_err(|_| err(format!("bad delay `{}`", tokens[1])))?;
                    let mut ports: Vec<String> = Vec::new();
                    let mut all = false;
                    let mut i = 2;
                    while i < tokens.len() {
                        match tokens[i].as_str() {
                            "-clock" => i += 2,
                            "get_ports" => {
                                let mut j = i + 1;
                                while j < tokens.len() {
                                    ports.push(tokens[j].clone());
                                    j += 1;
                                }
                                i = j;
                            }
                            "all_inputs" | "all_outputs" => {
                                all = true;
                                i += 1;
                            }
                            _ => i += 1,
                        }
                    }
                    if all {
                        if is_input {
                            sdc.default_input_delay = value;
                        } else {
                            sdc.default_output_delay = value;
                        }
                    }
                    for p in ports {
                        if is_input {
                            sdc.input_delays.insert(p, value);
                        } else {
                            sdc.output_delays.insert(p, value);
                        }
                    }
                }
                _ => {} // unknown commands ignored
            }
        }
        Ok(sdc)
    }
}

/// Splits an SDC command into tokens, treating `[`, `]`, `{`, `}` as
/// whitespace (they only group in the subset we accept).
fn tokenize(line: &str) -> Vec<String> {
    line.replace(['[', ']', '{', '}'], " ")
        .split_whitespace()
        .map(str::to_owned)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_example() {
        let text = "\
# comment
create_clock -period 750.0 -name core_clk [get_ports clk]
set_input_delay 10.0 -clock core_clk [get_ports {a b}]
set_output_delay 20.0 -clock core_clk [all_outputs]
set_units -time ps
";
        let sdc = Sdc::parse(text).unwrap();
        assert_eq!(sdc.clock_period, 750.0);
        assert_eq!(sdc.clock_name, "core_clk");
        assert_eq!(sdc.clock_port.as_deref(), Some("clk"));
        assert_eq!(sdc.input_delay("a"), 10.0);
        assert_eq!(sdc.input_delay("b"), 10.0);
        assert_eq!(sdc.input_delay("zzz"), 0.0);
        assert_eq!(sdc.output_delay("any"), 20.0);
    }

    #[test]
    fn bad_period_is_error() {
        let e = Sdc::parse("create_clock -period abc").unwrap_err();
        assert!(e.to_string().contains("bad period"));
    }

    #[test]
    fn missing_delay_value_is_error() {
        assert!(Sdc::parse("set_input_delay").is_err());
    }

    #[test]
    fn defaults() {
        let sdc = Sdc::default();
        assert_eq!(sdc.clock_period, 1000.0);
        assert_eq!(sdc.input_delay("x"), 0.0);
        let s2 = Sdc::with_period(500.0);
        assert_eq!(s2.clock_period, 500.0);
    }

    #[test]
    fn unknown_commands_ignored() {
        let sdc = Sdc::parse("set_false_path -from [get_ports a]\n").unwrap();
        assert_eq!(sdc, Sdc::default());
    }
}
