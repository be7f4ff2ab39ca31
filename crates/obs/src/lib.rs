//! `dtp-obs` — zero-overhead observability for the placement flow.
//!
//! The flow's Table-3/Figure-8 claims are all trajectories — WNS/TNS/HPWL
//! vs. iteration and where the runtime goes — so the flow needs to answer
//! "which phase regressed, which cache stopped hitting, which incremental
//! path fell back to a full rebuild" without a debugger. This crate provides
//! the four pieces, all behind one [`Observer`] handle:
//!
//! 1. **Span-based phase profiler** — scoped timers over the closed
//!    [`Phase`] enum accumulate into preallocated slots ([`SpanTable`]) and
//!    a bounded ring of recent iterations ([`IterRing`]). Recording a span
//!    is two `Instant` reads and an array add: the observed steady-state
//!    loop stays zero-allocation (asserted by `bench_obs`).
//! 2. **Counters/gauges registry** ([`Counter`], [`Gauge`], [`Registry`]) —
//!    the health signals of the incremental subsystems: dirty-net counts,
//!    incremental-vs-full STA fallbacks, table-vs-Prim Steiner backends,
//!    FFT-vs-dense Poisson selection, pool dispatches, overflow bins.
//! 3. **Structured sinks** — the schema-v3 JSONL flight recorder
//!    (`--trace-out`): one [`TraceHeader`] record carrying config, seed,
//!    pool width, and design fingerprint, then per-iteration pairs of a
//!    deterministic `iter` record ([`write_iter_record`]) and a wall-clock
//!    `span` record ([`write_span_record`]); plus an end-of-run
//!    `metrics.json` ([`Report::to_json`], `--metrics-out`) and a
//!    human-readable phase table ([`Report::table`], `--profile`).
//!    Non-finite floats serialize as `null`; every emitted line parses
//!    back through [`trace::parse_record`] / [`json::parse`].
//! 4. **Leveled logging facade** — [`error!`]/[`warn!`]/[`info!`]/
//!    [`debug!`] gated by a process-global [`Level`].
//!
//! # Inertness contract
//!
//! With observability off ([`Observer::disabled`]) every call is a branch on
//! a `bool` — no ring, no counters, no sinks — **except** the STA phases
//! ([`Phase::is_sta`]), which keep their `Instant` reads so the flow's
//! `timing_runtime` stays value-compatible with the legacy hand-timed
//! accounting (the same handful of clock reads the old code did). Nothing
//! here touches the optimization state, so observability on vs. off is
//! bit-for-bit identical on placement trajectories; the flow's golden tests
//! assert it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
pub mod json;
pub mod log;
mod phase;
mod sink;
mod span;
pub mod trace;

pub use counters::{Counter, Gauge, Registry};
pub use log::Level;
pub use phase::Phase;
pub use sink::{
    write_iter_record, write_span_record, IterEvent, PhaseReport, QorSummary, Report,
    METRICS_SCHEMA, TRACE_SCHEMA,
};
pub use span::{IterRing, IterSample, PhaseSlot, SpanStart, SpanTable};
pub use trace::{TraceHeader, TraceIter, TraceRecord, TraceSpan};

use std::io::Write;

/// Ring capacity when observability is enabled: enough to hold the recent
/// window of any realistic run without unbounded growth.
const RING_CAPACITY: usize = 256;

/// The per-run observability handle: spans + registry + ring + optional
/// JSONL sink. Create one per flow run.
pub struct Observer {
    enabled: bool,
    spans: SpanTable,
    registry: Registry,
    ring: IterRing,
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
    /// A new observer; `enabled = false` yields the inert instance.
    pub fn new(enabled: bool) -> Observer {
        Observer {
            enabled,
            spans: SpanTable::default(),
            registry: Registry::default(),
            ring: IterRing::new(if enabled { RING_CAPACITY } else { 0 }),
            mark_ns: [0; Phase::COUNT],
            mark_counters: [0; Counter::COUNT],
            in_iter: false,
            trace: None,
            trace_failed: false,
            design_source: None,
        }
    }

    /// The inert observer: no ring, no counters, no sinks; only the STA
    /// phases keep their clock reads (see the crate docs).
    pub fn disabled() -> Observer {
        Observer::new(false)
    }

    /// Whether full observability is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Attaches a JSONL sink for per-iteration events (e.g. a buffered
    /// file). Implies nothing about `enabled`; events flow only when the
    /// observer is enabled.
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
        if !self.enabled {
            return;
        }
        if let Some(w) = self.trace.as_mut() {
            if !self.trace_failed {
                if let Err(e) = header.write_jsonl(w.as_mut()) {
                    self.trace_failed = true;
                    crate::warn!("trace sink failed, disabling stream: {e}");
                }
            }
        }
    }

    /// Starts a span. When observability is off, only [`Phase::is_sta`]
    /// phases are timed (the legacy `timing_runtime` accounting); all other
    /// phases return a free no-op start.
    #[inline]
    pub fn start(&self, phase: Phase) -> SpanStart {
        if self.enabled || phase.is_sta() {
            SpanStart::now()
        } else {
            SpanStart::off()
        }
    }

    /// Completes a span started with [`Observer::start`].
    #[inline]
    pub fn stop(&mut self, phase: Phase, start: SpanStart) {
        if let Some(ns) = start.elapsed_ns() {
            self.spans.add(phase, ns);
        }
    }

    /// Times `f` as one span of `phase`.
    #[inline]
    pub fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let s = self.start(phase);
        let r = f();
        self.stop(phase, s);
        r
    }

    /// Adds `n` to `counter` (no-op when disabled).
    #[inline]
    pub fn add(&mut self, counter: Counter, n: u64) {
        if self.enabled {
            self.registry.add(counter, n);
        }
    }

    /// Sets `gauge` to `v` (no-op when disabled).
    #[inline]
    pub fn gauge(&mut self, gauge: Gauge, v: f64) {
        if self.enabled {
            self.registry.set(gauge, v);
        }
    }

    /// Marks the start of one loop iteration: snapshots span and counter
    /// totals so `iter_end` can emit this iteration's deltas. No allocation.
    pub fn iter_begin(&mut self) {
        if !self.enabled {
            return;
        }
        self.mark_ns = self.spans.nanos();
        self.mark_counters = self.registry.counters();
        self.in_iter = true;
    }

    /// Completes one loop iteration: pushes the sample into the ring and
    /// streams a JSONL event if a sink is attached. No allocation.
    pub fn iter_end(&mut self, ev: IterEvent) {
        if !self.enabled || !self.in_iter {
            return;
        }
        self.in_iter = false;
        let now_ns = self.spans.nanos();
        let now_counters = self.registry.counters();
        let mut sample = IterSample {
            iter: ev.iter,
            wl: ev.wl,
            hpwl: ev.hpwl,
            overflow: ev.overflow,
            wns: ev.wns,
            tns: ev.tns,
            ..IterSample::default()
        };
        for (i, ns) in now_ns.iter().enumerate() {
            sample.phase_ns[i] = ns - self.mark_ns[i];
        }
        for (i, n) in now_counters.iter().enumerate() {
            sample.counter_delta[i] = n - self.mark_counters[i];
        }
        self.ring.push(sample);
        if let Some(w) = self.trace.as_mut() {
            if !self.trace_failed {
                // Deterministic convergence record first, then the
                // wall-clock span record (diff/replay skip the latter).
                let res = write_iter_record(w.as_mut(), &ev, &sample.counter_delta).and_then(
                    |()| write_span_record(w.as_mut(), ev.iter, &sample.phase_ns),
                );
                if let Err(e) = res {
                    self.trace_failed = true;
                    crate::warn!("trace sink failed, disabling stream: {e}");
                }
            }
        }
    }

    /// Seconds accumulated across the STA phases — the span-table view of
    /// the flow's `timing_runtime`. Works with observability off.
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

    /// The ring of recent iteration samples.
    pub fn ring(&self) -> &IterRing {
        &self.ring
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
            .field("enabled", &self.enabled)
            .field("ring_len", &self.ring.len())
            .field("has_trace_sink", &self.trace.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A `Write` that appends into a shared buffer (test sink).
    #[derive(Clone)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn disabled_observer_is_inert_except_sta_spans() {
        let mut obs = Observer::disabled();
        let s = obs.start(Phase::WirelengthGrad);
        assert!(s.elapsed_ns().is_none(), "non-STA phase timed while disabled");
        obs.stop(Phase::WirelengthGrad, s);
        let s = obs.start(Phase::StaForward);
        assert!(s.elapsed_ns().is_some(), "STA phase must stay timed");
        obs.stop(Phase::StaForward, s);
        obs.add(Counter::Iterations, 5);
        obs.gauge(Gauge::FftBackend, 1.0);
        obs.iter_begin();
        obs.iter_end(IterEvent {
            iter: 0,
            wl: 1.0,
            hpwl: 1.0,
            overflow: 1.0,
            lambda: 1.0,
            step: f64::NAN,
            wns: f64::NAN,
            tns: f64::NAN,
            timing: false,
        });
        assert_eq!(obs.registry().get(Counter::Iterations), 0);
        assert_eq!(obs.registry().gauge(Gauge::FftBackend), 0.0);
        assert!(obs.ring().is_empty());
        assert_eq!(obs.spans().slot(Phase::WirelengthGrad).calls, 0);
        assert_eq!(obs.spans().slot(Phase::StaForward).calls, 1);
        assert!(obs.sta_seconds() >= 0.0);
    }

    #[test]
    fn iteration_deltas_land_in_ring_and_sink() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut obs = Observer::new(true);
        obs.set_trace_writer(Box::new(SharedBuf(Arc::clone(&buf))));
        for iter in 0..3u64 {
            obs.iter_begin();
            obs.time(Phase::DensityGrad, || std::hint::black_box(17 * 13));
            obs.add(Counter::GeoDirtyNets, 4);
            obs.iter_end(IterEvent {
                iter,
                    wl: 100.0 + iter as f64,
                hpwl: f64::NAN,
                overflow: 0.9,
                lambda: 2e-4,
                step: 10.0,
                wns: f64::NAN,
                tns: f64::NAN,
                timing: false,
            });
        }
        obs.flush();
        assert_eq!(obs.ring().len(), 3);
        for s in obs.ring().iter() {
            assert_eq!(s.counter_delta[Counter::GeoDirtyNets.index()], 4);
            assert!(s.phase_ns[Phase::DensityGrad.index()] > 0);
        }
        // Totals accumulate across iterations.
        assert_eq!(obs.registry().get(Counter::GeoDirtyNets), 12);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
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
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut obs = Observer::new(true);
        obs.set_trace_writer(Box::new(SharedBuf(Arc::clone(&buf))));
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
        obs.iter_end(IterEvent {
            iter: 0,
            wl: 1.0,
            hpwl: 1.0,
            overflow: 0.5,
            lambda: 1e-4,
            step: 3.0,
            wns: f64::NAN,
            tns: f64::NAN,
            timing: false,
        });
        obs.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
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
        let mut obs = Observer::new(true);
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
