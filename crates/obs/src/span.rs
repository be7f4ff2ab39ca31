//! Span accumulation: preallocated per-phase slots.
//!
//! Everything here is fixed-size and allocation-free: recording a span is
//! `Instant::now()` twice plus one add into a slot, and every span is
//! recorded. This is what keeps the steady-state loop at zero heap
//! allocations (asserted by `tests/zero_alloc.rs`).

use crate::phase::Phase;
use std::time::Instant;

/// An in-flight span: the capture of `Instant::now()` at phase entry.
#[derive(Clone, Copy, Debug)]
pub struct SpanStart(Instant);

impl SpanStart {
    /// Starts timing a span.
    #[inline]
    pub fn now() -> SpanStart {
        SpanStart(Instant::now())
    }

    /// Elapsed nanoseconds since the start.
    #[inline]
    pub fn elapsed_ns(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Accumulated time and call count of one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseSlot {
    /// Total nanoseconds spent in the phase.
    pub nanos: u64,
    /// Number of completed spans.
    pub calls: u64,
}

/// The per-phase accumulation table (fixed size, no allocation).
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTable {
    slots: [PhaseSlot; Phase::COUNT],
}

impl SpanTable {
    /// Adds one completed span of `ns` nanoseconds to `phase`.
    #[inline]
    pub fn add(&mut self, phase: Phase, ns: u64) {
        let s = &mut self.slots[phase.index()];
        s.nanos += ns;
        s.calls += 1;
    }

    /// The accumulated slot of `phase`.
    #[inline]
    pub fn slot(&self, phase: Phase) -> PhaseSlot {
        self.slots[phase.index()]
    }

    /// Total seconds accumulated in `phase`.
    #[inline]
    pub fn seconds(&self, phase: Phase) -> f64 {
        self.slots[phase.index()].nanos as f64 * 1e-9
    }

    /// Raw nanosecond totals, in [`Phase::ALL`] order.
    #[inline]
    pub fn nanos(&self) -> [u64; Phase::COUNT] {
        let mut out = [0u64; Phase::COUNT];
        for (o, s) in out.iter_mut().zip(&self.slots) {
            *o = s.nanos;
        }
        out
    }

    /// Seconds accumulated across the STA phases ([`Phase::is_sta`]): the
    /// span-table view that replaces the legacy `timing_runtime` field.
    pub fn sta_seconds(&self) -> f64 {
        Phase::ALL
            .iter()
            .filter(|p| p.is_sta())
            .map(|&p| self.seconds(p))
            .sum()
    }

    /// Seconds accumulated across every phase.
    pub fn total_seconds(&self) -> f64 {
        self.slots.iter().map(|s| s.nanos as f64 * 1e-9).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_table_accumulates() {
        let mut t = SpanTable::default();
        t.add(Phase::StaForward, 100);
        t.add(Phase::StaForward, 50);
        t.add(Phase::DensityGrad, 7);
        assert_eq!(t.slot(Phase::StaForward), PhaseSlot { nanos: 150, calls: 2 });
        assert_eq!(t.slot(Phase::DensityGrad), PhaseSlot { nanos: 7, calls: 1 });
        assert!((t.sta_seconds() - 150e-9).abs() < 1e-18);
        assert!((t.total_seconds() - 157e-9).abs() < 1e-18);
    }
}
