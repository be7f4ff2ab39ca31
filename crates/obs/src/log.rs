//! Leveled logging facade: `obs::warn!` / `info!`.
//!
//! A single process-global level ([`set_level`]) gates emission; disabled
//! levels cost one relaxed atomic load and no formatting (the macros check
//! the level *before* building `format_args!`). `info` goes to stdout and
//! `warn` to stderr, so `--log-level warn` yields a machine-clean stdout
//! (nothing but result lines). `error` is a level a caller can set, not a
//! macro: nothing logs at it, so setting it silences the warnings.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// Log severity, most severe first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or data-losing conditions.
    Error = 0,
    /// Suspicious conditions the run survives (fallbacks, clamped knobs).
    Warn = 1,
    /// Per-run summaries (default).
    Info = 2,
}

impl Level {
    /// Parses a level name (`error|warn|info`), case-insensitive.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            _ => None,
        }
    }
}

/// Current maximum emitted level, as a `u8` (default [`Level::Info`]).
static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Sets the process-global log level.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Whether messages at `l` are currently emitted.
#[inline]
pub fn enabled(l: Level) -> bool {
    (l as u8) <= LEVEL.load(Ordering::Relaxed)
}

/// Emits one pre-gated message (the macros call this after the level check).
pub fn emit(l: Level, args: fmt::Arguments<'_>) {
    if l <= Level::Warn {
        eprintln!("{args}");
    } else {
        println!("{args}");
    }
}

/// Logs at [`Level::Warn`] (stderr).
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::Level::Warn) {
            $crate::log::emit($crate::Level::Warn, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Info`] (stdout).
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::Level::Info) {
            $crate::log::emit($crate::Level::Info, format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names `--log-level` accepts, and the order the gate compares.
    /// (The level is process-global, so setting it here would race the
    /// other tests; the CLI's gating is covered end to end.)
    #[test]
    fn levels_parse_by_name_and_order_by_severity() {
        assert_eq!(Level::parse("error"), Some(Level::Error));
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("info"), Some(Level::Info));
        assert_eq!(Level::parse("debug"), None);
        assert_eq!(Level::parse("bogus"), None);
        assert!(Level::Error < Level::Warn && Level::Warn < Level::Info);
    }
}
