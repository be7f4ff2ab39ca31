//! Golden tests for the observability subsystem (`dtp-obs`).
//!
//! The contract under test: observability is *pure telemetry*. A flow with
//! a trace sink must place bit-for-bit like one without, and record the
//! same counters and span counts; `FlowResult::timing_runtime` must equal
//! the sum of the STA-phase spans; the v3 JSONL stream must emit a header
//! record followed by one `iter` + `span` record pair per iteration; and at
//! `--log-level warn` the CLI's stdout must contain nothing but the result
//! line.

use dtp_core::{run_flow_observed, FlowConfig, FlowError, FlowMode, FlowResult, Observer};
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_netlist::bookshelf;
use dtp_obs::{json, trace, Counter, MemorySink, Phase, TraceIter, TraceRecord};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

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

/// Attaches an in-memory JSONL sink to `obs` and returns it.
fn attach_sink(obs: &mut Observer) -> MemorySink {
    let buf = MemorySink::default();
    obs.set_trace_writer(Box::new(buf.clone()));
    buf
}

/// The `iter` records streamed into `buf`, in order.
fn iter_records(buf: &MemorySink) -> Vec<TraceIter> {
    let text = String::from_utf8(buf.take()).expect("JSONL is UTF-8");
    text.lines()
        .filter_map(|line| match trace::parse_record(line).expect("JSONL line parses") {
            TraceRecord::Iter(it) => Some(it),
            _ => None,
        })
        .collect()
}

#[test]
fn a_trace_sink_changes_no_placement_counter_or_span_count() {
    let d = design();
    let lib = synthetic_pdk();
    let mut bare = Observer::new();
    let off = run_flow_observed(&d, &lib, FlowMode::differentiable(), &base_config(), &mut bare)
        .expect("sinkless flow runs");
    let mut obs = Observer::new();
    let buf = attach_sink(&mut obs);
    let on = run_flow_observed(&d, &lib, FlowMode::differentiable(), &base_config(), &mut obs)
        .expect("traced flow runs");
    assert_identical(&off, &on);
    // Both runs record everything, and the same things: the sink only
    // streams what the observer records anyway.
    assert!(bare.spans().total_seconds() > 0.0, "no spans recorded");
    assert_eq!(bare.registry().counters(), obs.registry().counters());
    for phase in Phase::ALL {
        let calls = |o: &Observer| o.spans().slot(phase).calls;
        assert_eq!(calls(&bare), calls(&obs), "{}: span count differs", phase.name());
    }
    assert_eq!(
        obs.registry().get(dtp_obs::Counter::Iterations) as usize,
        on.iterations,
        "iteration counter disagrees with the flow"
    );
    let iters = iter_records(&buf);
    assert_eq!(iters.len(), on.iterations, "one iter record per iteration");
    assert!(iters.iter().enumerate().all(|(i, it)| it.iter == i as u64));
}

/// `FlowResult::trace` is the recorded trajectory itself: each returned
/// record writes the very `iter` line the sink received for its iteration,
/// counters included.
#[test]
fn the_returned_trajectory_is_the_recorded_one() {
    let mut obs = Observer::new();
    let buf = attach_sink(&mut obs);
    let r = run_flow_observed(
        &design(),
        &synthetic_pdk(),
        FlowMode::differentiable(),
        &base_config(),
        &mut obs,
    )
    .expect("flow runs");
    let text = String::from_utf8(buf.take()).expect("JSONL is UTF-8");
    let recorded: Vec<&str> = text.lines().filter(|l| l.starts_with(r#"{"t":"iter","#)).collect();
    assert_eq!(recorded.len(), r.iterations);
    assert_eq!(r.trace.len(), r.iterations.div_ceil(10), "one record every 10 iterations");
    for rec in &r.trace {
        let mut line = Vec::new();
        rec.write_jsonl(&mut line).expect("Vec<u8> writes are infallible");
        let line = String::from_utf8(line).expect("records write UTF-8");
        assert_eq!(line.trim_end(), recorded[rec.iter as usize], "iter {}", rec.iter);
        assert_eq!(rec.counters[Counter::Iterations.index()], 1, "iter {}", rec.iter);
    }
}

#[test]
fn timing_runtime_equals_sta_span_sum() {
    let d = design();
    let lib = synthetic_pdk();
    // No sink: the reported timing_runtime is exactly the STA spans' sum
    // (fresh observer, so no delta correction applies).
    let mut obs = Observer::new();
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
    let mut obs = Observer::new();
    let buf = attach_sink(&mut obs);
    let r = run_flow_observed(&d, &lib, FlowMode::differentiable(), &cfg, &mut obs)
        .expect("flow runs");
    let text = String::from_utf8(buf.take()).expect("JSONL is UTF-8");
    // Schema v3: one header record, then an iter + span record pair per
    // placement iteration.
    assert_eq!(
        text.lines().count(),
        1 + 2 * r.iterations,
        "header plus two JSONL records per placement iteration"
    );
    assert!(!text.contains("NaN"), "raw NaN token leaked into the stream");
    for line in text.lines().skip(1) {
        // The per-iteration records must never carry a raw non-finite token
        // (a header's design source may legitimately spell "inf").
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
    let mut obs = Observer::new();
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
    let mut obs = Observer::new();
    let buf = attach_sink(&mut obs);
    let r = run_flow_observed(&design(), &synthetic_pdk(), FlowMode::Wirelength, &config, &mut obs)
        .expect("flow runs");
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
    let sampled = iter_records(&buf).iter().filter(|it| it.hpwl.is_finite()).count();
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

/// The route layer builds its exact map only where the feedback reads it:
/// on the first active iteration and every `ROUTE_UPDATE_PERIOD` (20, a
/// `flow.rs` constant) after it, plus once for the final summary. A map
/// maintained on the iterations in between would show as many more builds.
#[test]
fn a_route_aware_flow_builds_the_map_only_for_its_feedback() {
    const ROUTE_UPDATE_PERIOD: u64 = 20;
    let config = FlowConfig { route_aware: true, route_capacity: 3.0, ..base_config() };
    let (obs, r) = observed(FlowMode::differentiable(), &config);
    let builds = obs.registry().get(Counter::RudyBuilds);
    let most = r.iterations as u64 / ROUTE_UPDATE_PERIOD + 2;
    assert!(
        (2..=most).contains(&builds),
        "{builds} map builds in {} iterations: want 2..={most}",
        r.iterations
    );
}

#[test]
fn counters_are_exactly_the_eight_survivors() {
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
            "trace_analyses",
        ]
    );
}

#[test]
fn gauges_are_exactly_these_twenty_and_the_netlist_stays_under_160_bytes_a_cell() {
    let names: Vec<&str> = dtp_obs::Gauge::ALL.iter().map(|g| g.name()).collect();
    assert_eq!(
        names,
        [
            "fft_backend",
            "overflowed_frac",
            "rsmt_exact",
            "rsmt_table",
            "rsmt_prim",
            "rsmt_classes_generated",
            "rsmt_class_gen_ms",
            "pool_dispatches",
            "pool_inline_regions",
            "pool_hot_handoffs",
            "pool_wakes",
            "pool_spin_ms",
            "pool_threads",
            "overlap_ms",
            "legalize_bands",
            "rudy_stamps",
            "netlist_bytes",
            "parse_mb_s",
            "pool_helped_regions",
            "pool_stolen_chunks",
        ]
    );
    let d = design();
    let mut obs = Observer::new();
    let config = FlowConfig { max_iters: 40, ..FlowConfig::default() };
    run_flow_observed(&d, &synthetic_pdk(), FlowMode::Wirelength, &config, &mut obs).expect("flow runs");
    let bytes = obs.registry().gauge(dtp_obs::Gauge::NetlistBytes);
    assert_eq!(bytes, d.netlist.heap_bytes() as f64);
    let per_cell = bytes / d.netlist.num_cells() as f64;
    assert!(per_cell > 0.0 && per_cell <= 160.0, "{per_cell} netlist bytes per cell");
    // `parse_mb_s` belongs to the CLI's parse phase; an in-memory design has none.
    assert_eq!(obs.registry().gauge(dtp_obs::Gauge::ParseMbS), 0.0);
}

/// Every iteration evaluates the objective's terms side by side, in every
/// mode and whatever the design size or grid: on a two-thread pool they
/// overlap, on a one-thread pool they run one after the other and nothing
/// overlaps. A grid whose transforms take more than one task, and a design
/// above one cell chunk, are no exception.
#[test]
fn every_flow_overlaps_its_terms_on_two_threads_and_not_on_one() {
    use dtp_obs::Gauge;
    let d = generate(&GeneratorConfig::named("obs-overlap", 800)).expect("generator succeeds");
    let lib = synthetic_pdk();
    let overlap_ms = |d: &dtp_netlist::Design, mode: FlowMode, config: FlowConfig| {
        let mut obs = Observer::new();
        run_flow_observed(d, &lib, mode, &config, &mut obs).expect("flow runs");
        obs.registry().gauge(Gauge::OverlapMs)
    };
    let run = |threads| FlowConfig { max_iters: 250, threads, ..FlowConfig::default() };
    for mode in [FlowMode::Wirelength, FlowMode::differentiable(), FlowMode::NetWeighting] {
        assert!(overlap_ms(&d, mode, run(2)) > 0.0, "{}: nothing overlapped", mode.name());
        assert_eq!(overlap_ms(&d, mode, run(1)), 0.0, "{}: overlap on one thread", mode.name());
    }
    let fine_grid = |threads| FlowConfig { bins: 256, ..run(threads) };
    assert!(overlap_ms(&d, FlowMode::Wirelength, fine_grid(2)) > 0.0, "256 x 256 bins");
    assert_eq!(overlap_ms(&d, FlowMode::Wirelength, fine_grid(1)), 0.0, "256 x 256 bins, 1 thread");
    let big =
        generate(&GeneratorConfig::named("obs-overlap-big", 4096)).expect("generator succeeds");
    assert!(big.netlist.num_cells() > 4096);
    assert!(overlap_ms(&big, FlowMode::Wirelength, run(2)) > 0.0, "above one cell chunk");
    assert_eq!(overlap_ms(&big, FlowMode::Wirelength, run(1)), 0.0, "above one chunk, 1 thread");
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
        let mut obs = Observer::new();
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
fn cli_refuses_the_retired_debug_level() {
    // Nothing logs below `info`, so there is no `debug` level to select.
    let out = Command::new(env!("CARGO_BIN_EXE_dtp"))
        .args(["place", "sb1", "--max-iters", "1", "--log-level", "debug"])
        .output()
        .expect("dtp runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error|warn|info"), "error does not name the levels: {stderr}");
}

#[test]
fn cli_rejects_a_density_grid_it_cannot_sample() {
    // `--bins 0` and `--bins 1` used to abort mid-loop with a `f64::clamp`
    // panic out of the field sampler; they are malformed flags. The two
    // large values were rounded up first, to 65536 (which the grid then
    // refused) and past `usize::MAX` (a debug-build panic). 16384 and
    // 32768 were accepted and asked for 15 and 60 GB of density grid: a
    // grid past the flow's memory budget is refused before anything is read.
    let (dir, prefix) = write_cli_fixture("bins");
    for bins in ["0", "1", "16384", "32768", "40000", "18446744073709551615"] {
        let start = Instant::now();
        let out = Command::new(env!("CARGO_BIN_EXE_dtp"))
            .args(["place", prefix.to_str().unwrap(), "--mode", "wirelength", "--bins", bins])
            .output()
            .expect("dtp runs");
        let elapsed = start.elapsed();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--bins {bins}: {stderr}");
        assert!(elapsed < Duration::from_secs(1), "--bins {bins} took {elapsed:?}");
        assert!(stderr.contains("--bins"), "--bins {bins}: error does not name the flag: {stderr}");
        assert!(stderr.contains(bins), "--bins {bins}: error does not name the value: {stderr}");
        assert!(!stderr.contains("rounding up"), "--bins {bins} was rounded: {stderr}");
        assert!(!stderr.contains("panicked"), "--bins {bins} panicked: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    // The library holds the same bound, which the CLI rounds within.
    let bins = dtp_core::MAX_BINS + 1;
    let config = FlowConfig { bins, ..FlowConfig::default() };
    let mut obs = Observer::new();
    match run_flow_observed(&design(), &synthetic_pdk(), FlowMode::Wirelength, &config, &mut obs) {
        Err(FlowError::Config(msg)) => {
            assert!(msg.contains("bins (--bins)") && msg.contains(&bins.to_string()), "{msg}");
        }
        other => panic!("bins = {bins} was not refused: {other:?}"),
    }
}

#[test]
fn cli_rejects_route_knobs_no_flow_can_run_with() {
    // Each of these used to panic (`capacity must be positive` out of the
    // final summary map even without `--route`).
    let (dir, prefix) = write_cli_fixture("route-knobs");
    let cases: &[&[&str]] = &[
        &["--route-capacity", "0"],
        &["--route-capacity", "-1"],
        &["--route-capacity", "nan"],
        &["--route", "--route-capacity", "0"],
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
            Some("C") => args.push("2".into()),
            Some("dir" | "file") => args.push(file(flag.trim_start_matches('-'))),
            Some(choice) => args.push(choice.split('|').next().unwrap_or(choice).into()),
        }
    }
    assert_eq!(flags, 12, "`dtp place` flags, counted off its usage:\n{usage}");
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
        &["--route-grid", "32"],
        &["--route-weight", "1"],
        &["--inflation-max", "2.5"],
        &["--route-period", "20"],
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

/// `dtp proxy sb1 0` asked for 16 GiB and aborted (exit 134), `0.0000001`
/// for 7.3 TB; `abc` silently became 150, `-5` and `nan` the 64-cell floor.
#[test]
fn cli_proxy_refuses_a_scale_no_proxy_has() {
    let proxy = |denom: &str| {
        Command::new(env!("CARGO_BIN_EXE_dtp"))
            .args(["proxy", "sb1", denom])
            .output()
            .expect("dtp runs")
    };
    for denom in ["0", "0.0000001", "abc", "-5", "nan"] {
        let out = proxy(denom);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{denom}: {stderr}");
        assert!(stderr.contains("scale_denom"), "{denom}: error does not name it: {stderr}");
    }
    let out = proxy("3000");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
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
