//! Golden tests for trace schema v3 and the `dtp-trace` forensics layer.
//!
//! The contract under test: the canonical trace bytes (header with the
//! execution environment normalized away, plus every deterministic `iter`
//! record) are **bit-identical** across reruns and across pool widths; the
//! header's config/mode fields reconstruct the exact `FlowConfig`/`FlowMode`
//! that produced the run (the `dtp trace replay` foundation).

use dtp_core::{run_flow_observed, FlowConfig, FlowMode, Observer};
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_trace::{diff, Tolerances, Trace};
use std::io::Write;
use std::sync::{Arc, Mutex};

fn design() -> dtp_netlist::Design {
    generate(&GeneratorConfig::named("trace-golden", 500)).expect("generator succeeds")
}

fn base_config() -> FlowConfig {
    FlowConfig {
        max_iters: 60,
        trace_timing_every: 10,
        ..FlowConfig::default()
    }
}

/// A `Write` that appends into a shared buffer (in-memory JSONL sink).
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

fn run_traced(d: &dtp_netlist::Design, mode: FlowMode, config: &FlowConfig) -> Trace {
    let lib = synthetic_pdk();
    let buf = Arc::new(Mutex::new(Vec::new()));
    let mut obs = Observer::new(true);
    obs.set_design_source("trace-golden");
    obs.set_trace_writer(Box::new(SharedBuf(Arc::clone(&buf))));
    run_flow_observed(d, &lib, mode, config, &mut obs).expect("flow runs");
    let text = String::from_utf8(buf.lock().unwrap().clone()).expect("JSONL is UTF-8");
    Trace::parse(&text).expect("v3 stream parses")
}

#[test]
fn canonical_bytes_are_bit_identical_across_reruns_and_pool_widths() {
    let d = design();
    let mut traces = Vec::new();
    for threads in [1usize, 1, 2, 4] {
        let config = FlowConfig { threads, ..base_config() };
        let t = run_traced(&d, FlowMode::differentiable(), &config);
        traces.push(t);
    }
    let golden = traces[0].canonical_bytes();
    assert!(!golden.is_empty());
    for (i, t) in traces.iter().enumerate().skip(1) {
        assert_eq!(
            t.canonical_bytes(),
            golden,
            "canonical trace bytes diverged at pool-width case {i}"
        );
        // The structured diff agrees, and demotes the thread-count header
        // fields to informational notes.
        let report = diff(&traces[0], t, &Tolerances::zero());
        assert!(report.is_clean(), "zero-tolerance diff dirty:\n{}", report.render());
    }
    // Pool widths 2 and 4 genuinely differed in the header environment.
    let report = diff(&traces[1], &traces[3], &Tolerances::zero());
    assert!(
        report.notes.iter().any(|n| n.contains("threads")),
        "expected an informational thread-count note, got: {:?}",
        report.notes
    );
}

#[test]
fn header_reconstructs_the_exact_flow_config_and_mode() {
    let d = design();
    let config = FlowConfig {
        threads: 2,
        seed: u64::MAX - 17,
        detail_passes: 3,
        ..base_config()
    };
    let mode = FlowMode::path_extraction();
    let t = run_traced(&d, mode, &config);
    assert_eq!(t.header.mode, "path-extraction");
    assert_eq!(t.header.seed, u64::MAX - 17);
    assert_eq!(t.header.design, "trace-golden");
    assert_eq!(t.header.source.as_deref(), Some("trace-golden"));
    assert_eq!(t.header.cells, d.netlist.num_cells() as u64);
    assert_eq!(t.header.nets, d.netlist.num_nets() as u64);
    assert_eq!(t.header.pins, d.netlist.num_pins() as u64);
    // Round trip: the recorded fields rebuild a config/mode whose own trace
    // fields are identical — replay runs exactly what was recorded.
    let rebuilt = FlowConfig::from_trace_fields(&t.header.config).expect("config reconstructs");
    assert_eq!(rebuilt.trace_fields(), config.trace_fields());
    assert_eq!(rebuilt.seed, config.seed);
    assert_eq!(rebuilt.threads, config.threads);
    let rebuilt_mode =
        FlowMode::from_trace(&t.header.mode, &t.header.mode_config).expect("mode reconstructs");
    assert_eq!(rebuilt_mode.trace_fields(), mode.trace_fields());
}
