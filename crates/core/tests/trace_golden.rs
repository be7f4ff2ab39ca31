//! Golden tests for trace schema v3 and the `dtp-trace` forensics layer.
//!
//! The contract under test: the canonical trace bytes (header with the
//! execution environment normalized away, plus every deterministic `iter`
//! record) are **bit-identical** across reruns and across pool widths; the
//! header's config/mode fields reconstruct the exact `FlowConfig`/`FlowMode`
//! that produced the run (the `dtp trace replay` foundation), and `dtp trace
//! replay` refuses a header it cannot run — with exit 1 naming the field,
//! never a panic.

use dtp_core::{run_flow_observed, DiffTimingConfig, FlowConfig, FlowMode, Observer};
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::bookshelf;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_trace::{diff, Tolerances, Trace};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;
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
        topo_dirty_frac: 0.2,
        ..base_config()
    };
    // Every mode knob off its default, timing live inside the 60 iterations.
    let mode = FlowMode::Differentiable(DiffTimingConfig {
        gamma: 80.0,
        t1: 0.05,
        t2: 0.0005,
        growth: 1.02,
        start_iter: 30,
    });
    let t = run_traced(&d, mode, &config);
    assert_eq!(t.header.mode, "differentiable");
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
    assert_eq!(rebuilt_mode, mode);
}

/// Records a 3-iteration `dtp place --mode <mode>` run of a small on-disk
/// design; returns the temporary directory and the trace in it.
fn recorded_cli_trace(tag: &str, mode: &str) -> (PathBuf, PathBuf) {
    let name = format!("replay-{tag}");
    let d = generate(&GeneratorConfig::named(&name, 300)).expect("generator succeeds");
    let dir = std::env::temp_dir().join(format!("dtp-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    bookshelf::write_design(&d, &dir).expect("bookshelf written");
    let trace = dir.join("trace.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_dtp"))
        .args(["place", dir.join(&name).to_str().unwrap(), "--mode", mode])
        .args(["--max-iters", "3", "--log-level", "warn", "--trace-out", trace.to_str().unwrap()])
        .output()
        .expect("dtp runs");
    assert!(out.status.success(), "dtp place: {}", String::from_utf8_lossy(&out.stderr));
    (dir, trace)
}

/// `dtp trace replay` of `trace` with `from` replaced by `to` in its header
/// line: the exit code and stderr.
fn replay_edited(trace: &Path, from: &str, to: &str) -> (Option<i32>, String) {
    let text = std::fs::read_to_string(trace).expect("trace written");
    let (header, rest) = text.split_once('\n').expect("a header line");
    assert!(header.contains(from), "`{from}` not in the header: {header}");
    let edited = trace.with_extension("edited.jsonl");
    std::fs::write(&edited, format!("{}\n{rest}", header.replacen(from, to, 1))).expect("written");
    let out = Command::new(env!("CARGO_BIN_EXE_dtp"))
        .args(["trace", "replay", edited.to_str().unwrap(), "--log-level", "warn"])
        .output()
        .expect("dtp runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// A recorded header whose differentiable-mode knobs no flow can run with:
/// `gamma = 0` used to panic in the smoothing kernel, `growth = -1` to flip
/// the timing force every iteration. Both exit 1 naming the field.
#[test]
fn replay_rejects_mode_knobs_no_flow_can_run_with() {
    let (dir, trace) = recorded_cli_trace("knobs", "differentiable");
    // The unedited trace replays: what fails below is the edit.
    assert_eq!(replay_edited(&trace, "\"gamma\":100", "\"gamma\":100").0, Some(0));
    for (from, to, field) in [
        ("\"gamma\":100", "\"gamma\":0", "gamma"),
        ("\"gamma\":100", "\"gamma\":-100", "gamma"),
        ("\"growth\":1.01", "\"growth\":-1", "growth"),
        ("\"growth\":1.01", "\"growth\":0", "growth"),
    ] {
        let (code, stderr) = replay_edited(&trace, from, to);
        assert_eq!(code, Some(1), "{to}: {stderr}");
        assert!(stderr.contains(&format!("{field} = ")), "{to}: error does not name it: {stderr}");
        assert!(!stderr.contains("panicked"), "{to} panicked: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Headers written before the net-weighting knobs and four `FlowConfig`
/// fields became constants name a field this reader does not know.
#[test]
fn replay_refuses_a_net_weighting_header_carrying_momentum() {
    let (dir, trace) = recorded_cli_trace("momentum", "net-weighting");
    let (code, stderr) =
        replay_edited(&trace, "\"mode_config\":{}", "\"mode_config\":{\"momentum\":0.5}");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("unknown config field `momentum`"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_refuses_a_flow_config_header_carrying_stop_overflow() {
    let (dir, trace) = recorded_cli_trace("stop-overflow", "wirelength");
    let (code, stderr) =
        replay_edited(&trace, "\"config\":{", "\"config\":{\"stop_overflow\":0.1,");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("unknown config field `stop_overflow`"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
