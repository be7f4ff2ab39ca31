//! Golden tests for trace schema v3 and the `dtp-trace` forensics layer.
//!
//! The contract under test: the canonical trace bytes (header with the
//! execution environment normalized away, plus every deterministic `iter`
//! record) are **bit-identical** across reruns and across pool widths; the
//! header's config/mode fields reconstruct the exact `FlowConfig`/`FlowMode`
//! that produced the run (the `dtp trace replay` foundation), and `dtp trace
//! replay` refuses a header it cannot run — with exit 1 naming the field,
//! never a panic.

use dtp_core::{
    run_flow, run_flow_observed, DiffTimingConfig, FlowConfig, FlowError, FlowMode, Observer,
};
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::bookshelf;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_obs::MemorySink;
use dtp_trace::{diff, Trace};
use std::path::{Path, PathBuf};
use std::process::Command;

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

fn run_traced(d: &dtp_netlist::Design, mode: FlowMode, config: &FlowConfig) -> Trace {
    let lib = synthetic_pdk();
    let buf = MemorySink::default();
    let mut obs = Observer::new();
    obs.set_design_source("trace-golden");
    obs.set_trace_writer(Box::new(buf.clone()));
    run_flow_observed(d, &lib, mode, config, &mut obs).expect("flow runs");
    let text = String::from_utf8(buf.take()).expect("JSONL is UTF-8");
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
        let report = diff(&traces[0], t);
        assert!(report.is_clean(), "exact diff dirty:\n{}", report.render());
    }
    // Pool widths 2 and 4 genuinely differed in the header environment.
    let report = diff(&traces[1], &traces[3]);
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

/// Writes `trace` with every `(from, to)` edit applied to its header line
/// next to it; returns the edited file.
fn edit_header(trace: &Path, edits: &[(&str, &str)]) -> PathBuf {
    let text = std::fs::read_to_string(trace).expect("trace written");
    let (header, rest) = text.split_once('\n').expect("a header line");
    let mut header = header.to_owned();
    for (from, to) in edits {
        assert!(header.contains(from), "`{from}` not in the header: {header}");
        header = header.replacen(from, to, 1);
    }
    let edited = trace.with_extension("edited.jsonl");
    std::fs::write(&edited, format!("{header}\n{rest}")).expect("written");
    edited
}

/// `dtp trace replay` of `trace` with `edits` applied to its header line:
/// the exit code and stderr.
fn replay_edits(trace: &Path, edits: &[(&str, &str)]) -> (Option<i32>, String) {
    let edited = edit_header(trace, edits);
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
    assert_eq!(replay_edits(&trace, &[("\"gamma\":100", "\"gamma\":100")]).0, Some(0));
    for (from, to, field) in [
        ("\"gamma\":100", "\"gamma\":0", "gamma"),
        ("\"gamma\":100", "\"gamma\":-100", "gamma"),
        ("\"growth\":1.01", "\"growth\":-1", "growth"),
        ("\"growth\":1.01", "\"growth\":0", "growth"),
    ] {
        let (code, stderr) = replay_edits(&trace, &[(from, to)]);
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
        replay_edits(&trace, &[("\"mode_config\":{}", "\"mode_config\":{\"momentum\":0.5}")]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("unknown config field `momentum`"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Likewise the `FlowConfig` fields that became constants later: the route
/// grid, weight, inflation cap and feedback period.
#[test]
fn replay_refuses_a_flow_config_header_carrying_stop_overflow() {
    let (dir, trace) = recorded_cli_trace("stop-overflow", "wirelength");
    for field in ["\"stop_overflow\":0.1", "\"route_grid\":32"] {
        let (code, stderr) =
            replay_edits(&trace, &[("\"config\":{", &format!("\"config\":{{{field},"))]);
        assert_eq!(code, Some(1), "{field}: {stderr}");
        let name = field.split('"').nth(1).expect("a quoted key");
        assert!(stderr.contains(&format!("unknown config field `{name}`")), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run whose timing weights explode (`growth` 1e10 from iteration 10)
/// fails with the first iteration whose wirelength or overflow is not
/// finite — from `run_flow` on the edited header's knobs and from `dtp trace
/// replay` of that header alike — instead of panicking in the legalizer.
#[test]
fn a_diverging_run_fails_naming_its_first_non_finite_iteration() {
    let (dir, trace) = recorded_cli_trace("diverged", "differentiable");
    let edits = [
        ("\"max_iters\":3", "\"max_iters\":60"),
        ("\"growth\":1.01,\"start_iter\":100", "\"growth\":1e10,\"start_iter\":10"),
    ];
    let edited = Trace::parse(&std::fs::read_to_string(edit_header(&trace, &edits)).unwrap())
        .expect("edited trace parses");
    let config = FlowConfig::from_trace_fields(&edited.header.config).expect("config");
    let mode = FlowMode::from_trace(&edited.header.mode, &edited.header.mode_config).expect("mode");
    let design = bookshelf::read_design(&dir.join("replay-diverged")).expect("design reads");
    let iter = match run_flow(&design, &synthetic_pdk(), mode, &config) {
        Err(FlowError::Diverged { iter }) => iter,
        other => panic!("expected a divergence, got {other:?}"),
    };
    assert!((10..60).contains(&iter), "diverged at iteration {iter}");
    let (code, stderr) = replay_edits(&trace, &edits);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains(&format!("placement diverged at iteration {iter}:")), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
