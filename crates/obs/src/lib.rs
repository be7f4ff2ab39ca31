//! `dtp-obs` — zero-overhead observability for the placement flow.
//!
//! The flow's Table-3/Figure-8 claims are all trajectories — WNS/TNS/HPWL
//! vs. iteration and where the runtime goes — so the flow needs to answer
//! "which phase regressed, which cache stopped hitting, which incremental
//! path fell back to a full rebuild" without a debugger. This crate provides
//! the four pieces, all behind one [`Observer`] handle:
//!
//! 1. **Span-based phase profiler** — scoped timers over the closed
//!    [`Phase`] enum accumulate into preallocated slots ([`SpanTable`]).
//!    Recording a span is two `Instant` reads and an array add: the observed
//!    steady-state loop stays zero-allocation (asserted by
//!    `tests/zero_alloc.rs`).
//! 2. **Counters/gauges registry** ([`Counter`], [`Gauge`], [`Registry`]) —
//!    the health signals of the incremental subsystems: dirty-net counts,
//!    incremental-vs-full STA fallbacks, table-vs-Prim Steiner backends,
//!    FFT-vs-dense Poisson selection, pool dispatches, overflow bins.
//! 3. **Structured sinks** — the schema-v3 JSONL flight recorder
//!    (`--trace-out`): one [`TraceHeader`] record carrying config, seed,
//!    pool width, and design fingerprint, then per-iteration pairs of a
//!    deterministic `iter` record ([`TraceIter`], the one per-iteration
//!    record type: the flow fills it, [`Observer::iter_end`] writes it) and
//!    a wall-clock `span` record ([`TraceSpan`]); an in-memory sink
//!    ([`MemorySink`]) for callers that read the stream back; plus an
//!    end-of-run `metrics.json` ([`Report::to_json`], `--metrics-out`) and a
//!    human-readable phase table ([`Report::table`], `--profile`).
//!    Non-finite floats serialize as `null`; every emitted line parses
//!    back through [`trace::parse_record`] / [`json::parse`]. The names
//!    and the record fields are each written once, as a table ([`schema`]),
//!    and the writers and the strict reader are generated from it.
//! 4. **Leveled logging facade** — [`warn!`]/[`info!`] gated by a
//!    process-global [`Level`].
//!
//! # One mode
//!
//! An [`Observer`] always records: every span, counter and gauge lands in
//! its tables, whether or not a sink is attached. A span costs two
//! `Instant` reads, far below the noise of the work it brackets. Only the
//! sinks are optional: the JSONL stream flows when a writer is attached
//! ([`Observer::set_trace_writer`], [`Observer::is_tracing`]), and the
//! report is read when the caller asks for it. Nothing here touches the
//! optimization state, so a flow places bit-for-bit the same with or
//! without a sink; the flow's golden tests assert it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
pub mod json;
pub mod log;
mod phase;
pub mod schema;
mod sink;
mod span;
pub mod trace;

pub use counters::{Counter, Gauge, Registry};
pub use log::Level;
pub use phase::Phase;
pub use sink::{MemorySink, PhaseReport, QorSummary, Report, METRICS_SCHEMA, TRACE_SCHEMA};
pub use span::{PhaseSlot, SpanStart, SpanTable};
pub use trace::{TraceHeader, TraceIter, TraceRecord, TraceSpan};

use std::io::Write;

/// The per-run observability handle: spans + registry + optional JSONL
/// sink. Create one per flow run.
#[derive(Default)]
pub struct Observer {
    spans: SpanTable,
    registry: Registry,
    /// Span/counter snapshots at `iter_begin`, for per-iteration deltas.
    mark_ns: [u64; Phase::COUNT],
    mark_counters: [u64; Counter::COUNT],
    in_iter: bool,
    trace: Option<Box<dyn Write + Send>>,
    /// Latched on the first sink error so one bad disk doesn't spam.
    trace_failed: bool,
    /// The design-source spec recorded in the trace header (for replay).
    design_source: Option<String>,
}

impl Observer {
    /// A new observer with no sink attached.
    pub fn new() -> Observer {
        Observer::default()
    }

    /// Whether a JSONL sink is attached: the work that only feeds the
    /// stream (its header, the sampled exact HPWL) asks this.
    #[inline]
    pub fn is_tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Attaches a JSONL sink for per-iteration events (e.g. a buffered
    /// file).
    pub fn set_trace_writer(&mut self, w: Box<dyn Write + Send>) {
        self.trace = Some(w);
        self.trace_failed = false;
    }

    /// Records the design-source spec (e.g. the CLI design argument) so the
    /// flow can stamp it into the trace header, enabling `dtp trace replay`
    /// without a user-supplied design override.
    pub fn set_design_source(&mut self, spec: &str) {
        self.design_source = Some(spec.to_string());
    }

    /// The recorded design-source spec, if any.
    pub fn design_source(&self) -> Option<&str> {
        self.design_source.as_deref()
    }

    /// Writes the v3 trace header record to the attached sink, if any.
    /// Call once, before the first iteration. Allocates (once per run).
    pub fn emit_header(&mut self, header: &TraceHeader) {
        let Some(w) = self.trace.as_mut().filter(|_| !self.trace_failed) else {
            return;
        };
        if let Err(e) = header.write_jsonl(w.as_mut()) {
            self.trace_failed = true;
            crate::warn!("trace sink failed, disabling stream: {e}");
        }
    }

    /// Completes a span of `phase` started with [`SpanStart::now`].
    #[inline]
    pub fn stop(&mut self, phase: Phase, start: SpanStart) {
        self.spans.add(phase, start.elapsed_ns());
    }

    /// Records one completed span of `phase` that was timed elsewhere — by
    /// a task that ran on another thread while this observer was lent to
    /// the task beside it — from its [`SpanStart::elapsed_ns`].
    #[inline]
    pub fn record(&mut self, phase: Phase, ns: u64) {
        self.spans.add(phase, ns);
    }

    /// Times `f` as one span of `phase`.
    #[inline]
    pub fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let s = SpanStart::now();
        let r = f();
        self.stop(phase, s);
        r
    }

    /// Adds `n` to `counter`.
    #[inline]
    pub fn add(&mut self, counter: Counter, n: u64) {
        self.registry.add(counter, n);
    }

    /// Sets `gauge` to `v`.
    #[inline]
    pub fn gauge(&mut self, gauge: Gauge, v: f64) {
        self.registry.set(gauge, v);
    }

    /// Marks the start of one loop iteration: snapshots span and counter
    /// totals so `iter_end` can emit this iteration's deltas. No allocation.
    pub fn iter_begin(&mut self) {
        self.mark_ns = self.spans.nanos();
        self.mark_counters = self.registry.counters();
        self.in_iter = true;
    }

    /// Completes one loop iteration: fills `rec.counters` with this
    /// iteration's counter deltas and, if a sink is attached, streams `rec`
    /// and the iteration's phase deltas as its `iter` and `span` lines. No
    /// allocation.
    pub fn iter_end(&mut self, rec: &mut TraceIter) {
        if !std::mem::take(&mut self.in_iter) {
            return;
        }
        let now_counters = self.registry.counters();
        rec.counters = std::array::from_fn(|i| now_counters[i] - self.mark_counters[i]);
        let Some(w) = self.trace.as_mut().filter(|_| !self.trace_failed) else {
            return;
        };
        let now_ns = self.spans.nanos();
        let span = TraceSpan {
            iter: rec.iter,
            phase_ns: std::array::from_fn(|i| now_ns[i] - self.mark_ns[i]),
        };
        // Deterministic convergence record first, then the wall-clock span
        // record (diff/replay skip the latter).
        let res = rec.write_jsonl(w.as_mut()).and_then(|()| span.write_jsonl(w.as_mut()));
        if let Err(e) = res {
            self.trace_failed = true;
            crate::warn!("trace sink failed, disabling stream: {e}");
        }
    }

    /// Seconds accumulated across the STA phases — the span-table view of
    /// the flow's `timing_runtime`.
    pub fn sta_seconds(&self) -> f64 {
        self.spans.sta_seconds()
    }

    /// The span table.
    pub fn spans(&self) -> &SpanTable {
        &self.spans
    }

    /// The counter/gauge registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Snapshots spans/counters/gauges into an end-of-run [`Report`].
    pub fn report(&self) -> Report {
        let slots: [PhaseSlot; Phase::COUNT] =
            std::array::from_fn(|i| self.spans.slot(Phase::ALL[i]));
        Report::build(&slots, &self.registry.counters(), &self.gauges_array())
    }

    fn gauges_array(&self) -> [f64; Gauge::COUNT] {
        std::array::from_fn(|i| self.registry.gauge(Gauge::ALL[i]))
    }

    /// Flushes the trace sink (call once at end-of-run).
    pub fn flush(&mut self) {
        if let Some(w) = self.trace.as_mut() {
            if let Err(e) = w.flush() {
                if !self.trace_failed {
                    self.trace_failed = true;
                    crate::warn!("trace sink flush failed: {e}");
                }
            }
        }
    }
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observer")
            .field("has_trace_sink", &self.trace.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(iter: u64) -> TraceIter {
        TraceIter {
            iter,
            wl: 1.0,
            hpwl: 1.0,
            overflow: 1.0,
            lambda: 1.0,
            step: f64::NAN,
            wns: f64::NAN,
            tns: f64::NAN,
            timing: false,
            counters: [0; Counter::COUNT],
        }
    }

    #[test]
    fn an_observer_without_a_sink_records_everything_and_writes_nothing() {
        let mut obs = Observer::new();
        assert!(!obs.is_tracing());
        obs.iter_begin();
        obs.time(Phase::WirelengthGrad, || std::hint::black_box(3 * 7));
        obs.time(Phase::StaForward, || std::hint::black_box(5 * 11));
        obs.add(Counter::Iterations, 5);
        obs.gauge(Gauge::FftBackend, 1.0);
        let mut rec = record(0);
        obs.iter_end(&mut rec);
        assert_eq!(rec.counters[Counter::Iterations.index()], 5, "deltas filled without a sink");
        assert_eq!(obs.registry().get(Counter::Iterations), 5);
        assert_eq!(obs.registry().gauge(Gauge::FftBackend), 1.0);
        assert_eq!(obs.spans().slot(Phase::WirelengthGrad).calls, 1);
        assert_eq!(obs.spans().slot(Phase::StaForward).calls, 1);
        assert!(obs.sta_seconds() > 0.0);

        // The sinkless iteration left nothing behind for a later sink; one
        // attached now streams only what follows.
        let buf = MemorySink::default();
        obs.set_trace_writer(Box::new(buf.clone()));
        assert!(obs.is_tracing());
        obs.iter_end(&mut record(0));
        obs.flush();
        assert!(buf.take().is_empty(), "an unmatched iter_end wrote");
        obs.iter_begin();
        obs.iter_end(&mut record(1));
        let text = String::from_utf8(buf.take()).unwrap();
        assert_eq!(text.lines().count(), 2, "{text}");
    }

    #[test]
    fn iteration_deltas_land_in_sink() {
        let buf = MemorySink::default();
        let mut obs = Observer::new();
        obs.set_trace_writer(Box::new(buf.clone()));
        for iter in 0..3u64 {
            obs.iter_begin();
            obs.time(Phase::DensityGrad, || std::hint::black_box(17 * 13));
            obs.add(Counter::GeoDirtyNets, 4);
            let mut rec = TraceIter { wl: 100.0 + iter as f64, hpwl: f64::NAN, ..record(iter) };
            obs.iter_end(&mut rec);
        }
        obs.flush();
        // Totals accumulate across iterations.
        assert_eq!(obs.registry().get(Counter::GeoDirtyNets), 12);
        let text = String::from_utf8(buf.take()).unwrap();
        // One `iter` + one `span` record per iteration.
        assert_eq!(text.lines().count(), 6);
        for (i, line) in text.lines().enumerate() {
            let rec = trace::parse_record(line).expect("JSONL line parses as a v3 record");
            match rec {
                TraceRecord::Iter(it) => {
                    assert_eq!(i % 2, 0, "iter record out of order at line {i}");
                    assert_eq!(it.iter, (i / 2) as u64);
                    assert!(it.wns.is_nan());
                    assert_eq!(it.counters[Counter::GeoDirtyNets.index()], 4);
                }
                TraceRecord::Span(sp) => {
                    assert_eq!(i % 2, 1, "span record out of order at line {i}");
                    assert_eq!(sp.iter, (i / 2) as u64);
                    assert!(sp.phase_ns[Phase::DensityGrad.index()] > 0);
                }
                TraceRecord::Header(_) => panic!("unexpected header record"),
            }
        }
    }

    #[test]
    fn header_record_streams_before_iterations() {
        let buf = MemorySink::default();
        let mut obs = Observer::new();
        obs.set_trace_writer(Box::new(buf.clone()));
        obs.set_design_source("sb1");
        let header = TraceHeader {
            schema: TRACE_SCHEMA.to_string(),
            mode: "wirelength".to_string(),
            seed: 42,
            threads: 0,
            pool_threads: 2,
            host_threads: 8,
            design: "sb1".to_string(),
            cells: 10,
            nets: 9,
            pins: 30,
            region: [0.0, 0.0, 64.0, 64.0],
            clock_period: 5000.0,
            source: obs.design_source().map(str::to_string),
            config: vec![("max_iters".to_string(), json::Value::Num(5.0))],
            mode_config: vec![],
        };
        obs.emit_header(&header);
        obs.iter_begin();
        obs.iter_end(&mut record(0));
        obs.flush();
        let text = String::from_utf8(buf.take()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let TraceRecord::Header(h) = trace::parse_record(lines[0]).unwrap() else {
            panic!("first record is not the header");
        };
        assert_eq!(h.source.as_deref(), Some("sb1"));
        assert_eq!(h.pool_threads, 2);
    }

    #[test]
    fn report_snapshot_reflects_state() {
        let mut obs = Observer::new();
        obs.time(Phase::StaForward, || std::hint::black_box(1 + 1));
        obs.add(Counter::StaFull, 1);
        obs.gauge(Gauge::PoolThreads, 8.0);
        let r = obs.report();
        assert!(r.sta_seconds > 0.0);
        assert!(r.phases.iter().any(|p| p.phase == Phase::StaForward && p.calls == 1));
        assert!(r.counters.contains(&("sta_full", 1)));
        assert!(r.gauges.contains(&("pool_threads", 8.0)));
        assert_eq!(r.sta_seconds, obs.sta_seconds());
    }
}
