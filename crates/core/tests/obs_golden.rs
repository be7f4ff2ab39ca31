//! Golden tests for the observability subsystem (`dtp-obs`).
//!
//! The contract under test: observability is *pure telemetry*. An
//! unobserved flow must be bit-for-bit identical to an observed run;
//! `FlowResult::timing_runtime` must equal the sum of the STA-phase spans
//! either way; the v3 JSONL stream must emit a header record followed
//! by one `iter` + `span` record pair per iteration; and at `--log-level
//! warn` the CLI's stdout must contain nothing but the result line.

use dtp_core::{run_flow, run_flow_observed, FlowConfig, FlowMode, FlowResult, Observer};
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_netlist::bookshelf;
use dtp_obs::{json, Counter, Phase};
use std::io::Write;
use std::path::PathBuf;
use std::process::Command;
use std::sync::{Arc, Mutex};

fn design() -> dtp_netlist::Design {
    generate(&GeneratorConfig::named("obs-golden", 700)).expect("generator succeeds")
}

fn base_config() -> FlowConfig {
    FlowConfig {
        max_iters: 200,
        trace_timing_every: 10,
        ..FlowConfig::default()
    }
}

fn assert_identical(a: &FlowResult, b: &FlowResult) {
    assert_eq!(a.iterations, b.iterations, "iteration counts diverged");
    assert_eq!(a.trace.len(), b.trace.len(), "trace lengths diverged");
    for (p, q) in a.trace.iter().zip(&b.trace) {
        assert_eq!(p.iter, q.iter);
        assert_eq!(p.hpwl, q.hpwl, "iter {}: HPWL diverged", p.iter);
        assert_eq!(p.overflow, q.overflow, "iter {}: overflow diverged", p.iter);
        assert!(
            p.wns == q.wns || (p.wns.is_nan() && q.wns.is_nan()),
            "iter {}: WNS {} vs {}",
            p.iter,
            p.wns,
            q.wns
        );
        assert!(
            p.tns == q.tns || (p.tns.is_nan() && q.tns.is_nan()),
            "iter {}: TNS {} vs {}",
            p.iter,
            p.tns,
            q.tns
        );
    }
    assert_eq!(a.xs, b.xs, "final x positions diverged");
    assert_eq!(a.ys, b.ys, "final y positions diverged");
    assert_eq!(a.hpwl, b.hpwl);
    assert_eq!(a.wns, b.wns);
    assert_eq!(a.tns, b.tns);
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

#[test]
fn observe_off_is_bit_for_bit_identical_to_observe_on() {
    let d = design();
    let lib = synthetic_pdk();
    let off = run_flow(&d, &lib, FlowMode::differentiable(), &base_config())
        .expect("unobserved flow runs");
    let mut obs = Observer::new(true);
    let on = run_flow_observed(&d, &lib, FlowMode::differentiable(), &base_config(), &mut obs)
        .expect("observed flow runs");
    assert_identical(&off, &on);
    // The observed run actually recorded something.
    assert!(obs.spans().total_seconds() > 0.0, "no spans recorded");
    assert_eq!(
        obs.registry().get(dtp_obs::Counter::Iterations) as usize,
        on.iterations,
        "iteration counter disagrees with the flow"
    );
    assert_eq!(
        obs.ring().total_pushed() as usize,
        on.iterations,
        "ring samples disagree with the flow"
    );
}

#[test]
fn timing_runtime_equals_sta_span_sum() {
    let d = design();
    let lib = synthetic_pdk();
    // Observability off: the STA spans still accumulate, and the reported
    // timing_runtime is exactly their sum (fresh observer, so no delta
    // correction applies).
    let mut obs = Observer::disabled();
    let r = run_flow_observed(&d, &lib, FlowMode::differentiable(), &base_config(), &mut obs)
        .expect("flow runs");
    assert_eq!(
        r.timing_runtime,
        obs.sta_seconds(),
        "timing_runtime must be the STA-phase span sum"
    );
    assert!(r.timing_runtime > 0.0, "timing flow spent no time in STA");
    assert!(
        r.timing_runtime < r.runtime,
        "STA time {} exceeds whole-flow runtime {}",
        r.timing_runtime,
        r.runtime
    );
}

#[test]
fn jsonl_stream_emits_header_then_two_records_per_iteration() {
    let d = design();
    let lib = synthetic_pdk();
    let cfg = base_config();
    let buf = Arc::new(Mutex::new(Vec::new()));
    let mut obs = Observer::new(true);
    obs.set_trace_writer(Box::new(SharedBuf(Arc::clone(&buf))));
    let r = run_flow_observed(&d, &lib, FlowMode::differentiable(), &cfg, &mut obs)
        .expect("flow runs");
    let text = String::from_utf8(buf.lock().unwrap().clone()).expect("JSONL is UTF-8");
    // Schema v3: one header record, then an iter + span record pair per
    // placement iteration.
    assert_eq!(
        text.lines().count(),
        1 + 2 * r.iterations,
        "header plus two JSONL records per placement iteration"
    );
    assert!(!text.contains("NaN"), "raw NaN token leaked into the stream");
    for line in text.lines().skip(1) {
        // The header legitimately contains "inf" inside the key name
        // `inflation_max`; the per-iteration records must never carry a raw
        // non-finite token.
        assert!(!line.contains("inf"), "raw infinity token leaked: {line}");
    }
    for (i, line) in text.lines().enumerate() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("line {i} unparseable ({e}): {line}"));
        let tag = v.get("t").and_then(|t| t.as_str()).expect("record tag present");
        if i == 0 {
            assert_eq!(tag, "header", "first record must be the run header");
            assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some(dtp_obs::TRACE_SCHEMA));
            assert_eq!(v.get("design").and_then(|s| s.as_str()), Some("obs-golden"));
            continue;
        }
        let expect_iter = ((i - 1) / 2) as f64;
        assert_eq!(tag, if i % 2 == 1 { "iter" } else { "span" });
        assert_eq!(v.get("iter").and_then(|x| x.as_f64()), Some(expect_iter));
        if i % 2 == 1 {
            let wns = v.get("wns").expect("wns member present");
            assert!(wns.is_null() || wns.as_f64().is_some());
            // Every in-loop analysis is a full one, counted by `sta_full`:
            // in differentiable mode, one on each iteration marked `timing`.
            let timing = v.get("timing").and_then(|t| t.as_bool()).expect("timing member");
            let analyses =
                v.get("counters").and_then(|c| c.get("sta_full")).and_then(|n| n.as_f64());
            assert_eq!(analyses, timing.then_some(1.0), "{line}");
        }
    }
    let start_iter = dtp_core::DiffTimingConfig::default().start_iter;
    assert!(r.iterations > start_iter, "timing never engaged");
    assert_eq!(
        obs.registry().get(dtp_obs::Counter::StaFull) as usize,
        r.iterations - start_iter,
        "sta_full must count one analysis per iteration from `start_iter` on"
    );
}

/// One observed run of `mode` on the golden design.
fn observed(mode: FlowMode, config: &FlowConfig) -> (Observer, FlowResult) {
    let mut obs = Observer::new(true);
    let r = run_flow_observed(&design(), &synthetic_pdk(), mode, config, &mut obs)
        .expect("flow runs");
    (obs, r)
}

/// At the default cadence nobody reads exact timing inside the loop, so the
/// loop computes none: the wirelength-only flow has no consumer for a forest
/// at all and builds only the one the final report is analysed on.
#[test]
fn an_untraced_wirelength_flow_builds_no_loop_forest_and_runs_no_trace_sta() {
    let config = FlowConfig { max_iters: 200, ..FlowConfig::default() };
    assert_eq!(config.trace_timing_every, 0, "the default asks for no exact-timing trace");
    let (obs, r) = observed(FlowMode::Wirelength, &config);
    assert!(r.trace.is_empty());
    assert_eq!(r.rsmt.trees, 0, "no in-loop forest to report on");
    let count = |c| obs.registry().get(c);
    assert_eq!(count(Counter::TraceAnalyses), 0);
    assert_eq!(count(Counter::ForestSyncs), 0);
    assert_eq!(count(Counter::ForestBuilds), 1);
    let calls = |p| obs.spans().slot(p).calls;
    assert_eq!(calls(Phase::TraceSta), 0);
    assert_eq!(calls(Phase::SteinerUpdate), 0);
    assert_eq!(calls(Phase::SteinerBuild), 1);
    assert_eq!(calls(Phase::FinalSta), 1);
    assert_eq!(calls(Phase::Setup), 1);
    // The observer still gets its convergence forensics: exact HPWL on the
    // loop's sampling period, every tenth iteration.
    let sampled = obs.ring().iter().filter(|s| s.hpwl.is_finite()).count();
    assert_eq!(sampled, r.iterations.div_ceil(10));
}

/// A timing flow keeps its forest maintenance — the syncs ahead of the
/// mechanism's start included — exactly as at cadence 10; only the trace
/// analyses go.
#[test]
fn an_untraced_timing_flow_does_the_traced_flows_forest_and_sta_work() {
    for mode in [FlowMode::NetWeighting, FlowMode::differentiable()] {
        let untraced = FlowConfig { max_iters: 200, ..FlowConfig::default() };
        let (at_0, _) = observed(mode, &untraced);
        let (at_10, _) = observed(mode, &base_config());
        assert_eq!(at_0.registry().get(Counter::TraceAnalyses), 0, "{}", mode.name());
        assert!(at_10.registry().get(Counter::TraceAnalyses) > 0, "{}", mode.name());
        for c in [
            Counter::ForestBuilds,
            Counter::ForestSyncs,
            Counter::GeoDirtyNets,
            Counter::TopoDirtyNets,
            Counter::StaFull,
        ] {
            let (a, b) = (at_0.registry().get(c), at_10.registry().get(c));
            assert_eq!(a, b, "{}: {} differs", mode.name(), c.name());
            assert!(a > 0, "{}: {} never counted", mode.name(), c.name());
        }
    }
}

/// The Poisson backend is picked from the grid shape alone, and the pick is
/// observable: FFT on a power-of-two grid, dense on any other, a legal
/// placement out of both.
#[test]
fn the_fft_backend_gauge_follows_the_grid_shape() {
    for (bins, fft) in [(64, 1.0), (48, 0.0)] {
        let config = FlowConfig { max_iters: 200, bins, ..FlowConfig::default() };
        let (obs, r) = observed(FlowMode::Wirelength, &config);
        assert_eq!(obs.registry().gauge(dtp_obs::Gauge::FftBackend), fft, "bins = {bins}");
        let violations = dtp_place::check_legal(&design(), &r.xs, &r.ys);
        assert!(violations.is_empty(), "bins = {bins}: {violations:?}");
    }
}

#[test]
fn counters_are_exactly_the_nine_survivors() {
    let names: Vec<&str> = dtp_obs::Counter::ALL.iter().map(|c| c.name()).collect();
    assert_eq!(
        names,
        [
            "iterations",
            "geo_dirty_nets",
            "topo_dirty_nets",
            "sta_full",
            "forest_builds",
            "forest_syncs",
            "rudy_builds",
            "rudy_inc_updates",
            "trace_analyses",
        ]
    );
}

#[test]
fn gauges_are_exactly_these_nineteen_and_the_netlist_stays_under_160_bytes_a_cell() {
    let names: Vec<&str> = dtp_obs::Gauge::ALL.iter().map(|g| g.name()).collect();
    assert_eq!(
        names,
        [
            "fft_backend",
            "overflowed_frac",
            "rsmt_exact",
            "rsmt_table",
            "rsmt_prim",
            "rsmt_seq_hits",
            "rsmt_seq_rebuilds",
            "rsmt_classes_generated",
            "rsmt_class_gen_ms",
            "pool_dispatches",
            "pool_inline_regions",
            "pool_hot_handoffs",
            "pool_wakes",
            "pool_spin_ms",
            "pool_threads",
            "legalize_bands",
            "rudy_stamps",
            "netlist_bytes",
            "parse_mb_s",
        ]
    );
    let d = design();
    let mut obs = Observer::new(true);
    let config = FlowConfig { max_iters: 40, ..FlowConfig::default() };
    run_flow_observed(&d, &synthetic_pdk(), FlowMode::Wirelength, &config, &mut obs).expect("flow runs");
    let bytes = obs.registry().gauge(dtp_obs::Gauge::NetlistBytes);
    assert_eq!(bytes, d.netlist.heap_bytes() as f64);
    let per_cell = bytes / d.netlist.num_cells() as f64;
    assert!(per_cell > 0.0 && per_cell <= 160.0, "{per_cell} netlist bytes per cell");
    // `parse_mb_s` belongs to the CLI's parse phase; an in-memory design has none.
    assert_eq!(obs.registry().gauge(dtp_obs::Gauge::ParseMbS), 0.0);
}

/// The pool gauges are this run's traffic, not the pool's lifetime totals:
/// the second of two identical flows on one pool reports what the first did.
#[test]
fn pool_gauges_are_per_run_deltas_not_pool_totals() {
    use dtp_obs::Gauge;
    // Big enough that the net-chunked WA sweep has more than one task.
    let d = generate(&GeneratorConfig::named("obs-pool", 3000)).expect("generator succeeds");
    let lib = synthetic_pdk();
    // `threads: 0`: both flows run on the pool of the enclosing scope.
    let config = FlowConfig { max_iters: 30, ..FlowConfig::default() };
    let pool = rayon::Pool::new(2);
    let run = || {
        let mut obs = Observer::new(true);
        run_flow_observed(&d, &lib, FlowMode::Wirelength, &config, &mut obs).expect("flow runs");
        let g = |gauge| obs.registry().gauge(gauge);
        assert_eq!(g(Gauge::PoolHotHandoffs) + g(Gauge::PoolWakes), g(Gauge::PoolDispatches));
        assert!(g(Gauge::PoolSpinMs) >= 0.0);
        (g(Gauge::PoolDispatches), g(Gauge::PoolInlineRegions))
    };
    let (first, second) = rayon::with_pool(&pool, || (run(), run()));
    assert!(first.0 > 0.0 && first.1 > 0.0, "the flow dispatched nothing: {first:?}");
    assert_eq!(second, first);
    let total = pool.stats();
    assert_eq!(total.dispatches as f64, 2.0 * first.0);
    assert_eq!(total.inline_regions as f64, 2.0 * first.1);
}

/// Generates a design on disk and returns (dir, bookshelf prefix path).
fn write_cli_fixture(tag: &str) -> (PathBuf, PathBuf) {
    let name = format!("obs-cli-{tag}");
    let d = generate(&GeneratorConfig::named(&name, 400)).expect("generator succeeds");
    let dir = std::env::temp_dir().join(format!("dtp-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    bookshelf::write_design(&d, &dir).expect("bookshelf written");
    let prefix = dir.join(&name);
    (dir, prefix)
}

#[test]
fn cli_log_level_warn_leaves_stdout_machine_clean() {
    let (dir, prefix) = write_cli_fixture("quiet");
    let out = Command::new(env!("CARGO_BIN_EXE_dtp"))
        .args([
            "place",
            prefix.to_str().unwrap(),
            "--mode",
            "wirelength",
            "--max-iters",
            "40",
            "--log-level",
            "warn",
        ])
        .output()
        .expect("dtp runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "dtp failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines.len(),
        1,
        "--log-level warn must leave only the result line on stdout, got:\n{stdout}"
    );
    assert!(
        lines[0].starts_with("DREAMPlace"),
        "unexpected result line: {}",
        lines[0]
    );
}

#[test]
fn cli_rejects_a_density_grid_it_cannot_sample() {
    // `--bins 0` and `--bins 1` used to abort mid-loop with a `f64::clamp`
    // panic out of the field sampler; they are malformed flags.
    let (dir, prefix) = write_cli_fixture("bins");
    for bins in ["0", "1"] {
        let out = Command::new(env!("CARGO_BIN_EXE_dtp"))
            .args(["place", prefix.to_str().unwrap(), "--mode", "wirelength", "--bins", bins])
            .output()
            .expect("dtp runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--bins {bins}: {stderr}");
        assert!(stderr.contains("--bins"), "--bins {bins}: error does not name the flag: {stderr}");
        assert!(!stderr.contains("panicked"), "--bins {bins} panicked: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_rejects_route_knobs_no_flow_can_run_with() {
    // Each of these used to panic (`capacity must be positive` out of the
    // final summary map even without `--route`, `inflation_max must be >= 1`
    // mid-run), abort on an 80 GB grid, or be silently rewritten to 2 / 1.
    let (dir, prefix) = write_cli_fixture("route-knobs");
    let cases: &[&[&str]] = &[
        &["--route-capacity", "0"],
        &["--route-capacity", "-1"],
        &["--route-capacity", "nan"],
        &["--route-grid", "0"],
        &["--route-grid", "1"],
        &["--route-grid", "100000"],
        &["--route", "--inflation-max", "0.5"],
        &["--route", "--route-period", "0"],
        &["--route", "--route-weight", "-1"],
        &["--route", "--route-weight", "nan"],
        // Not a route knob, same contract: this one aborted (`failed to
        // spawn thread`) after three seconds of `clone`.
        &["--threads", "257"],
        &["--threads", "200000"],
    ];
    for knobs in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_dtp"))
            .args(["place", prefix.to_str().unwrap(), "--mode", "wirelength", "--max-iters", "40"])
            .args(*knobs)
            .output()
            .expect("dtp runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = knobs[knobs.len() - 2];
        assert_eq!(out.status.code(), Some(1), "{knobs:?}: {stderr}");
        assert!(stderr.contains(flag), "{knobs:?}: error does not name the flag: {stderr}");
        assert!(!stderr.contains("panicked"), "{knobs:?} panicked: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every flag the usage string advertises is accepted, and nothing else is:
/// the retired flags (the V-cycle's and path extraction's among them) are
/// unknown options, and `--out` / `--svg` without a value are errors rather
/// than silently writing nothing.
#[test]
fn cli_accepts_exactly_the_flags_its_usage_lists() {
    let dtp = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_dtp")).arg("place").args(args).output().expect("dtp runs")
    };
    let usage = String::from_utf8(dtp(&[]).stderr).expect("usage is UTF-8");
    let (dir, prefix) = write_cli_fixture("flags");
    let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
    // One `[--flag]` or `[--flag PLACEHOLDER]` group per option.
    let mut args = vec![prefix.to_str().unwrap().to_string()];
    let mut flags = 0;
    for group in usage.split('[').skip(1) {
        let group = group.split(']').next().expect("split yields a first piece");
        let mut words = group.split_whitespace();
        let flag = words.next().filter(|f| f.starts_with("--")).expect("a group names a flag");
        flags += 1;
        args.push(flag.to_string());
        match words.next() {
            None => {}
            Some("N") => args.push("8".into()),
            Some("F" | "C" | "W") => args.push("2".into()),
            Some("dir" | "file") => args.push(file(flag.trim_start_matches('-'))),
            Some(choice) => args.push(choice.split('|').next().unwrap_or(choice).into()),
        }
    }
    assert_eq!(flags, 16, "`dtp place` flags, counted off its usage:\n{usage}");
    let out = dtp(&args.iter().map(String::as_str).collect::<Vec<_>>());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {stderr}");

    let rejected: &[&[&str]] = &[
        &["--observe"],
        &["--no-density-fft"],
        &["--no-rsmt-tables"],
        &["--rsmt-table-max-degree", "4"],
        &["--multilevel"],
        &["--cluster-ratio", "4"],
        &["--levels", "2"],
        &["--top-k", "32"],
        &["--extract-period", "5"],
        &["--path-decay", "0.9"],
        &["--pin-weight-cap", "8"],
        &["--out"],
        &["--svg"],
    ];
    for tail in rejected {
        let out = dtp(&[&[prefix.to_str().unwrap(), "--max-iters", "8"], *tail].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tail:?}: {stderr}");
        assert!(stderr.contains(tail[0]), "{tail:?}: error does not name the option: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_rejects_the_retired_mode_aliases_like_any_typo() {
    let (dir, prefix) = write_cli_fixture("aliases");
    for mode in ["wl", "nw", "diff", "wirelenght", "path-extraction"] {
        let out = Command::new(env!("CARGO_BIN_EXE_dtp"))
            .args(["place", prefix.to_str().unwrap(), "--mode", mode, "--max-iters", "40"])
            .output()
            .expect("dtp runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--mode {mode}: {stderr}");
        assert!(stderr.contains("unknown mode"), "--mode {mode}: {stderr}");
        assert!(stderr.contains(mode), "--mode {mode}: error does not name it: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_profile_metrics_and_trace_outputs() {
    let (dir, prefix) = write_cli_fixture("sinks");
    let metrics = dir.join("metrics.json");
    let trace = dir.join("trace.jsonl");
    let place = |out_dir: &str, sinks: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_dtp"))
            .args(["place", prefix.to_str().unwrap(), "--mode", "differentiable"])
            .args(["--max-iters", "120", "--out", dir.join(out_dir).to_str().unwrap()])
            .args(sinks)
            .output()
            .expect("dtp runs");
        assert!(out.status.success(), "dtp failed: {}", String::from_utf8_lossy(&out.stderr));
        out
    };
    let out = place(
        "traced",
        &[
            "--profile",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ],
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(
        stdout.contains("phase breakdown"),
        "--profile printed no phase table:\n{stdout}"
    );
    assert!(stdout.contains("sta_forward"), "phase table misses STA phases:\n{stdout}");

    let metrics_text = std::fs::read_to_string(&metrics).expect("metrics.json written");
    let v = json::parse(&metrics_text).expect("metrics.json parses");
    assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some(dtp_obs::METRICS_SCHEMA));
    assert!(v.get("qor").is_some(), "metrics.json misses the QoR block");
    // The once-per-run work around the loop is accounted: reading the
    // design, the flow's set-up and writing `--out` are one span each.
    let phases = v.get("phases").and_then(|p| p.as_array()).expect("metrics.json misses phases");
    for name in ["parse", "setup", "write"] {
        let calls = phases
            .iter()
            .find(|p| p.get("phase").and_then(|n| n.as_str()) == Some(name))
            .and_then(|p| p.get("calls"))
            .and_then(|c| c.as_f64());
        assert_eq!(calls, Some(1.0), "phase `{name}` in metrics.json");
        assert!(stdout.contains(name), "--profile misses `{name}`:\n{stdout}");
    }

    // The route layer's unit of work: a per-run total in the metrics and the
    // profile (the final summary map is built even without `--route`),
    // never in the trace.
    let stamps = v.get("gauges").and_then(|g| g.get("rudy_stamps")).and_then(|s| s.as_f64());
    assert!(stamps.is_some_and(|s| s > 0.0), "metrics.json misses rudy_stamps: {stamps:?}");
    assert!(stdout.contains("rudy_stamps"), "--profile misses rudy_stamps:\n{stdout}");

    let trace_text = std::fs::read_to_string(&trace).expect("trace.jsonl written");
    assert!(trace_text.lines().count() > 0, "trace stream is empty");
    assert!(!trace_text.contains("rudy_stamps"), "rudy_stamps leaked into the trace");
    // Likewise the netlist layer's two: what it holds and how fast it read.
    for name in ["netlist_bytes", "parse_mb_s"] {
        let value = v.get("gauges").and_then(|g| g.get(name)).and_then(|s| s.as_f64());
        assert!(value.is_some_and(|x| x > 0.0), "metrics.json misses {name}: {value:?}");
        assert!(stdout.contains(name), "--profile misses {name}:\n{stdout}");
        assert!(!trace_text.contains(name), "{name} leaked into the trace");
    }
    for line in trace_text.lines() {
        json::parse(line).unwrap_or_else(|e| panic!("trace line unparseable ({e}): {line}"));
    }
    assert!(!trace_text.contains("\"parse\""), "a once-per-run span leaked into the trace");

    // A recorder attached or not, the flow does the same work: the placement
    // written with every sink on is the one written with none.
    place("untraced", &[]);
    let pl = |out_dir: &str| {
        let name = prefix.with_extension("pl");
        std::fs::read(dir.join(out_dir).join(name.file_name().unwrap())).expect(".pl written")
    };
    assert!(pl("traced") == pl("untraced"), "--trace-out changed the placement");
    let _ = std::fs::remove_dir_all(&dir);
}
