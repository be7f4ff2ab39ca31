//! Span accumulation: preallocated per-phase slots and a bounded ring
//! buffer of recent per-iteration samples.
//!
//! Everything here is fixed-size and allocation-free after construction:
//! recording a span is `Instant::now()` twice plus one add into a slot, and
//! pushing an iteration sample copies a `Copy` struct into a preallocated
//! ring. This is what keeps the observed steady-state loop at zero heap
//! allocations (asserted by `tests/zero_alloc.rs`).

use crate::counters::Counter;
use crate::phase::Phase;
use std::time::Instant;

/// An in-flight span: the capture of `Instant::now()` at phase entry, or
/// nothing when the phase is not being timed (observability off and the
/// phase is not part of the always-on STA accounting).
#[derive(Clone, Copy, Debug)]
pub struct SpanStart(Option<Instant>);

impl SpanStart {
    /// A span that is being timed.
    #[inline]
    pub fn now() -> SpanStart {
        SpanStart(Some(Instant::now()))
    }

    /// A span that is not being timed (zero-cost stop).
    #[inline]
    pub fn off() -> SpanStart {
        SpanStart(None)
    }

    /// Elapsed nanoseconds since the start, `None` if not timing.
    #[inline]
    pub fn elapsed_ns(self) -> Option<u64> {
        self.0.map(|t| t.elapsed().as_nanos() as u64)
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

/// One iteration's worth of telemetry: QoR samples plus the per-phase time
/// and per-counter deltas of that iteration. `Copy` so the ring can recycle
/// slots without allocation.
#[derive(Clone, Copy, Debug)]
pub struct IterSample {
    /// Iteration index.
    pub iter: u64,
    /// Smoothed (weighted-average) wirelength from the gradient evaluation.
    pub wl: f64,
    /// Exact HPWL; `NAN` when not computed this iteration.
    pub hpwl: f64,
    /// Density overflow.
    pub overflow: f64,
    /// Exact WNS (ps); `NAN` on iterations where timing was not traced.
    pub wns: f64,
    /// Exact TNS (ps); `NAN` when not traced.
    pub tns: f64,
    /// Nanoseconds spent per phase during this iteration.
    pub phase_ns: [u64; Phase::COUNT],
    /// Counter increments during this iteration.
    pub counter_delta: [u64; Counter::COUNT],
}

impl Default for IterSample {
    fn default() -> Self {
        IterSample {
            iter: 0,
            wl: f64::NAN,
            hpwl: f64::NAN,
            overflow: f64::NAN,
            wns: f64::NAN,
            tns: f64::NAN,
            phase_ns: [0; Phase::COUNT],
            counter_delta: [0; Counter::COUNT],
        }
    }
}

/// Bounded ring buffer of the most recent iteration samples — an in-memory
/// flight recorder that works without any sink attached.
#[derive(Clone, Debug)]
pub struct IterRing {
    buf: Vec<IterSample>,
    /// Total samples ever pushed (the ring holds the last `buf.len()`).
    count: u64,
}

impl IterRing {
    /// A ring holding the last `capacity` samples, fully preallocated.
    pub fn new(capacity: usize) -> IterRing {
        IterRing {
            buf: vec![IterSample::default(); capacity],
            count: 0,
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Number of samples currently held (≤ capacity).
    pub fn len(&self) -> usize {
        (self.count as usize).min(self.buf.len())
    }

    /// Whether no sample was ever pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total samples ever pushed (including overwritten ones).
    pub fn total_pushed(&self) -> u64 {
        self.count
    }

    /// Pushes a sample, overwriting the oldest once full. No allocation.
    #[inline]
    pub fn push(&mut self, s: IterSample) {
        if self.buf.is_empty() {
            return;
        }
        let idx = (self.count as usize) % self.buf.len();
        self.buf[idx] = s;
        self.count += 1;
    }

    /// Iterates the held samples oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &IterSample> {
        let len = self.len();
        let cap = self.buf.len().max(1);
        let start = if (self.count as usize) > len {
            (self.count as usize) % cap
        } else {
            0
        };
        (0..len).map(move |i| &self.buf[(start + i) % cap])
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

    #[test]
    fn ring_wraps_and_keeps_most_recent() {
        let mut r = IterRing::new(4);
        for i in 0..10u64 {
            r.push(IterSample { iter: i, ..IterSample::default() });
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total_pushed(), 10);
        let iters: Vec<u64> = r.iter().map(|s| s.iter).collect();
        assert_eq!(iters, [6, 7, 8, 9]);
    }

    #[test]
    fn zero_capacity_ring_is_inert() {
        let mut r = IterRing::new(0);
        r.push(IterSample::default());
        assert!(r.is_empty());
        assert_eq!(r.iter().count(), 0);
    }

    #[test]
    fn span_start_off_is_free() {
        assert!(SpanStart::off().elapsed_ns().is_none());
        assert!(SpanStart::now().elapsed_ns().is_some());
    }
}
