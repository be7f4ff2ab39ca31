//! Error type for netlist construction and I/O.

use std::fmt;

/// Errors produced while building, validating or parsing netlists.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetlistError {
    /// A cell, net or class name was declared twice.
    DuplicateName(String),
    /// A referenced name does not exist.
    UnknownName(String),
    /// A class pin name does not exist on the referenced class.
    UnknownPin {
        /// The class name.
        class: String,
        /// The missing pin name.
        pin: String,
    },
    /// A pin was connected to more than one net.
    PinAlreadyConnected(String),
    /// A net has zero or more than one driving pin.
    DriverCount {
        /// The net name.
        net: String,
        /// Number of output pins found on the net.
        found: usize,
    },
    /// A parse error in one of the text formats.
    Parse {
        /// File kind (e.g. "nodes", "nets", "sdc").
        kind: &'static str,
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A superblue proxy scale that is not finite or outside `(0, 1]`: a
    /// proxy is at most the contest design.
    ProxyScale(f64),
    /// An underlying I/O error.
    Io(std::io::Error),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateName(n) => write!(f, "duplicate name `{n}`"),
            NetlistError::UnknownName(n) => write!(f, "unknown name `{n}`"),
            NetlistError::UnknownPin { class, pin } => {
                write!(f, "class `{class}` has no pin `{pin}`")
            }
            NetlistError::PinAlreadyConnected(p) => {
                write!(f, "pin `{p}` is already connected to a net")
            }
            NetlistError::DriverCount { net, found } => {
                write!(f, "net `{net}` has {found} drivers, expected exactly 1")
            }
            NetlistError::Parse { kind, line, message } => {
                write!(f, "{kind} parse error at line {line}: {message}")
            }
            NetlistError::ProxyScale(s) => {
                write!(f, "proxy scale {s} is not in (0, 1]: a proxy is at most the contest design")
            }
            NetlistError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for NetlistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetlistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetlistError {
    fn from(e: std::io::Error) -> Self {
        NetlistError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            NetlistError::DuplicateName("u1".into()).to_string(),
            "duplicate name `u1`"
        );
        assert_eq!(
            NetlistError::DriverCount { net: "n1".into(), found: 2 }.to_string(),
            "net `n1` has 2 drivers, expected exactly 1"
        );
        let e = NetlistError::Parse { kind: "nets", line: 7, message: "bad degree".into() };
        assert_eq!(e.to_string(), "nets parse error at line 7: bad degree");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetlistError>();
    }
}
