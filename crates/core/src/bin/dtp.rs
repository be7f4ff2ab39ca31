//! `dtp` — command-line front end for the differentiable-timing-driven
//! placement library.
//!
//! ```text
//! dtp gen   <name> <cells> <out_dir>        generate a synthetic design (Bookshelf + .lib + .sdc)
//! dtp sta   <bookshelf_prefix> <lib_file>   timing report for a placed design
//! dtp place <bookshelf_prefix_or_proxy>
//!           [--mode wirelength|net-weighting|differentiable]
//!           [--out dir] [--svg file]
//!           [--bins N] [--max-iters N] [--threads N]
//!           [--route] [--route-grid N] [--route-capacity C] [--route-weight W]
//!           [--inflation-max F] [--route-period N]
//!           [--profile] [--metrics-out file] [--trace-out file]
//!           [--log-level error|warn|info|debug]
//! dtp proxy <sbN> [scale_denom]             print statistics of a superblue proxy
//! dtp trace validate <trace.jsonl>          schema-checked parse of a v3 trace
//! dtp trace diff <a.jsonl> <b.jsonl>
//!           [--abs F] [--rel F] [--field name:abs:rel]
//!                                           tolerance-aware trace comparison
//! dtp trace replay <trace.jsonl> [--design spec] [--out file]
//!                                           re-run the recorded flow, diff bit-for-bit
//! dtp trace report <trace.jsonl>            phase/convergence forensics
//! ```
//!
//! Mode selection is unified under `--mode`; the modes take no options.
//!
//! Designs can be given either as a Bookshelf prefix (path to
//! `X.{nodes,nets,pl,scl}`) or as a built-in proxy name (`sb1`…`sb18`).
//! Bookshelf carries no library binding, so `sta`/`place` on Bookshelf input
//! require the cells to use the synthetic PDK class names.
//!
//! Observability: `--profile` prints the end-of-run phase table,
//! `--metrics-out` writes `metrics.json`, `--trace-out` streams one JSON
//! object per placement iteration; any of the three enables the observer.
//! `--log-level warn` silences the informational summaries, leaving stdout
//! machine-clean (the `FlowResult` line only).

use dtp_core::{run_flow_observed, FlowConfig, FlowMode};
use dtp_obs::{self as obs, Gauge, Level, Observer, Phase, QorSummary};
use dtp_trace::{Tolerances, Trace};
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, superblue_proxy, GeneratorConfig};
use dtp_netlist::{bookshelf, Design, NetlistStats, Sdc};
use dtp_place::plot::{render_svg, PlotOptions};
use dtp_rsmt::build_forest;
use dtp_sta::{SlackHistogram, Timer, TimingReport};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("sta") => cmd_sta(&args[1..]),
        Some("place") => cmd_place(&args[1..]),
        Some("proxy") => cmd_proxy(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        _ => {
            eprintln!("usage: dtp <gen|sta|place|proxy|trace> ... (see --help in the crate docs)");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn load_design(spec: &str) -> Result<Design, Box<dyn std::error::Error>> {
    if spec.starts_with("sb") || spec.starts_with("superblue") {
        return Ok(superblue_proxy(spec, dtp_netlist::generate::DEFAULT_PROXY_SCALE)?);
    }
    let prefix = Path::new(spec);
    if is_iccad_bundle(prefix) {
        Ok(dtp_netlist::iccad::read_iccad15(prefix)?)
    } else {
        Ok(bookshelf::read_design(prefix)?)
    }
}

/// ICCAD-2015 bundle (.v + .def) takes precedence; fall back to Bookshelf.
fn is_iccad_bundle(prefix: &Path) -> bool {
    prefix.with_extension("v").exists() && prefix.with_extension("def").exists()
}

/// Bytes of the files `load_design` reads for `spec` (0 for a proxy name).
fn input_bytes(spec: &str) -> u64 {
    let prefix = Path::new(spec);
    let exts: &[&str] = if is_iccad_bundle(prefix) {
        &["v", "def", "sdc"]
    } else {
        &["nodes", "nets", "pl", "scl", "classes", "sdc"]
    };
    exts.iter().filter_map(|ext| std::fs::metadata(prefix.with_extension(ext)).ok()).map(|m| m.len()).sum()
}

fn cmd_gen(args: &[String]) -> CliResult {
    let [name, cells, out] = args else {
        return Err("usage: dtp gen <name> <cells> <out_dir>".into());
    };
    let cells: usize = cells.parse()?;
    let design = generate(&GeneratorConfig::named(name.clone(), cells))?;
    let dir = Path::new(out);
    bookshelf::write_design(&design, dir)?;
    dtp_netlist::iccad::write_iccad15(&design, dir)?;
    std::fs::write(dir.join(format!("{name}.lib")), dtp_liberty::write(&synthetic_pdk()))?;
    std::fs::write(
        dir.join(format!("{name}.sdc")),
        format!(
            "create_clock -period {} -name clk [get_ports clk]\n",
            design.constraints.clock_period
        ),
    )?;
    println!(
        "wrote {}/{name}.{{nodes,nets,pl,scl,classes,v,def,lib,sdc}}  ({})",
        dir.display(),
        NetlistStats::of(&design.netlist)
    );
    Ok(())
}

fn cmd_sta(args: &[String]) -> CliResult {
    let Some(spec) = args.first() else {
        return Err("usage: dtp sta <design> [lib_file]".into());
    };
    let design = load_design(spec)?;
    let lib = match args.get(1) {
        Some(path) => dtp_liberty::parse(&std::fs::read_to_string(path)?)?,
        None => synthetic_pdk(),
    };
    let timer = Timer::new(&design, &lib)?;
    let forest = build_forest(&design.netlist);
    let analysis = timer.analyze(&design.netlist, &forest);
    println!("{}", TimingReport::new(&timer, &design.netlist, &analysis));
    let lo = analysis.wns().min(0.0) * 1.05 - 1.0;
    let hi = (-lo * 0.5).max(design.constraints.clock_period * 0.5);
    println!("{}", SlackHistogram::new(&analysis, lo, hi, 12));
    Ok(())
}

fn cmd_place(args: &[String]) -> CliResult {
    let Some(spec) = args.first() else {
        return Err(
            "usage: dtp place <design> \
             [--mode wirelength|net-weighting|differentiable] \
             [--out dir] [--svg file] \
             [--bins N] [--max-iters N] [--threads N] \
             [--route] [--route-grid N] [--route-capacity C] [--route-weight W] \
             [--inflation-max F] [--route-period N] \
             [--profile] [--metrics-out file] [--trace-out file] \
             [--log-level error|warn|info|debug]"
                .into(),
        );
    };
    let mut mode = FlowMode::differentiable();
    let mut config = FlowConfig::default();
    let mut out_dir: Option<String> = None;
    let mut svg_path: Option<String> = None;
    let mut profile = false;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut i = 1;
    // Numeric option value parser (shared by the route knobs).
    fn num<T: std::str::FromStr>(
        args: &[String],
        i: usize,
    ) -> Result<T, Box<dyn std::error::Error>> {
        args.get(i + 1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("option `{}` needs a numeric value", args[i]).into())
    }
    while i < args.len() {
        match args[i].as_str() {
            "--mode" => {
                let name = args.get(i + 1).map(String::as_str);
                mode = match name {
                    Some("wirelength") => FlowMode::Wirelength,
                    Some("net-weighting") => FlowMode::NetWeighting,
                    Some("differentiable") => FlowMode::differentiable(),
                    other => {
                        return Err(format!(
                            "unknown mode {other:?} (wirelength|net-weighting|differentiable)"
                        )
                        .into())
                    }
                };
                i += 2;
            }
            "--out" => {
                out_dir = Some(args.get(i + 1).ok_or("option `--out` needs a directory")?.clone());
                i += 2;
            }
            "--svg" => {
                svg_path = Some(args.get(i + 1).ok_or("option `--svg` needs a file path")?.clone());
                i += 2;
            }
            "--bins" => {
                config.bins = num(args, i)?;
                i += 2;
            }
            "--route" => {
                config.route_aware = true;
                i += 1;
            }
            "--route-grid" => {
                config.route_grid = num(args, i)?;
                i += 2;
            }
            "--route-capacity" => {
                config.route_capacity = num(args, i)?;
                i += 2;
            }
            "--route-weight" => {
                config.route_weight = num(args, i)?;
                i += 2;
            }
            "--inflation-max" => {
                config.inflation_max = num(args, i)?;
                i += 2;
            }
            "--route-period" => {
                config.route_update_period = num(args, i)?;
                i += 2;
            }
            "--max-iters" => {
                config.max_iters = num(args, i)?;
                i += 2;
            }
            "--threads" => {
                config.threads = num(args, i)?;
                i += 2;
            }
            "--profile" => {
                profile = true;
                i += 1;
            }
            "--metrics-out" => {
                metrics_out = Some(
                    args.get(i + 1)
                        .ok_or("option `--metrics-out` needs a file path")?
                        .clone(),
                );
                i += 2;
            }
            "--trace-out" => {
                trace_out = Some(
                    args.get(i + 1)
                        .ok_or("option `--trace-out` needs a file path")?
                        .clone(),
                );
                i += 2;
            }
            "--log-level" => {
                let name = args.get(i + 1).ok_or("option `--log-level` needs a level")?;
                let level = Level::parse(name)
                    .ok_or_else(|| format!("unknown log level `{name}` (error|warn|info|debug)"))?;
                obs::log::set_level(level);
                i += 2;
            }
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }
    // The density field is interpolated between bin centers: an axis needs
    // at least two of them.
    if config.bins < 2 {
        return Err(
            format!("option `--bins` needs a value of at least 2, got {}", config.bins).into()
        );
    }
    // The FFT Poisson backend needs a power-of-two grid; round a custom
    // `--bins` up rather than silently dropping to the dense solver.
    if !config.bins.is_power_of_two() {
        let rounded = config.bins.next_power_of_two();
        obs::warn!(
            "warning: --bins {} is not a power of two; rounding up to {rounded}, the next \
             grid the FFT density solver runs on",
            config.bins
        );
        config.bins = rounded;
    }
    // Per-mode configuration, at info so stdout stays machine-clean at warn.
    match mode {
        FlowMode::Wirelength => obs::info!("mode wirelength: no timing mechanism"),
        FlowMode::NetWeighting => {
            obs::info!("mode net-weighting: momentum net weights from an exact STA")
        }
        FlowMode::Differentiable(c) => obs::info!(
            "mode differentiable: gamma {} t1 {} t2 {} growth {} start_iter {}",
            c.gamma,
            c.t1,
            c.t2,
            c.growth,
            c.start_iter
        ),
    }
    // Created before the design is read, so parsing is a span of the run.
    let mut observer =
        Observer::new(profile || metrics_out.is_some() || trace_out.is_some());
    let parse_start = std::time::Instant::now();
    let mut design = observer.time(Phase::Parse, || load_design(spec))?;
    let parse_mb_s = input_bytes(spec) as f64 / 1e6 / parse_start.elapsed().as_secs_f64();
    observer.gauge(Gauge::ParseMbS, parse_mb_s);
    if design.constraints.clock_port.is_none() && design.constraints.clock_period >= 1000.0 {
        // Bookshelf input with no SDC: pick a period that creates pressure.
        design.constraints = Sdc::with_period(500.0);
    }
    let lib = synthetic_pdk();
    // Recorded in the trace header so `dtp trace replay` can reload the
    // same design without being told where it came from.
    observer.set_design_source(spec);
    if let Some(path) = &trace_out {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create --trace-out {path}: {e}"))?;
        observer.set_trace_writer(Box::new(std::io::BufWriter::new(file)));
    }
    let r = run_flow_observed(&design, &lib, mode, &config, &mut observer)?;
    println!("{r}");
    obs::info!(
        "congestion ({}x{} grid, capacity {}): {}",
        config.route_grid, config.route_grid, config.route_capacity, r.congestion
    );
    if r.rsmt.trees > 0 {
        obs::info!(
            "steiner forest (topology tables): {}; {}",
            r.rsmt,
            dtp_rsmt::table_stats()
        );
    }
    // The placed design is written before the profile and the metrics, so
    // both account for the write.
    if let Some(dir) = &out_dir {
        design.netlist.set_positions(&r.xs, &r.ys);
        observer.time(Phase::Write, || bookshelf::write_design(&design, Path::new(dir)))?;
        obs::info!("wrote placed design to {dir}/");
    }
    if profile {
        // Explicitly requested output: printed regardless of --log-level.
        print!("{}", observer.report().table());
    }
    if let Some(path) = &metrics_out {
        let qor = QorSummary {
            design: r.design.clone(),
            mode: r.mode.to_string(),
            hpwl: r.hpwl,
            wns: r.wns,
            tns: r.tns,
            iterations: r.iterations as u64,
            runtime: r.runtime,
            timing_runtime: r.timing_runtime,
        };
        std::fs::write(path, observer.report().to_json(Some(&qor)))
            .map_err(|e| format!("cannot write --metrics-out {path}: {e}"))?;
        obs::info!("wrote {path}");
    }
    if let Some(path) = &trace_out {
        obs::info!("wrote {path}");
    }
    if let Some(path) = svg_path {
        // Color by endpoint-cone slack: hotter = more violating pins.
        design.netlist.set_positions(&r.xs, &r.ys);
        let timer = Timer::new(&design, &lib)?;
        let forest = build_forest(&design.netlist);
        let analysis = timer.analyze(&design.netlist, &forest);
        let wns = analysis.wns().min(-1.0);
        let heat: Vec<f64> = design
            .netlist
            .cell_ids()
            .map(|c| {
                let worst = design
                    .netlist
                    .cell(c)
                    .pins()
                    .iter()
                    .map(|&p| analysis.pin_slack(p))
                    .fold(f64::INFINITY, f64::min);
                if worst.is_finite() { (worst / wns).clamp(0.0, 1.0) } else { 0.0 }
            })
            .collect();
        let opts = PlotOptions {
            heat: Some(heat),
            title: format!("{} {} WNS {:.0}ps", r.mode, r.design, r.wns),
            ..PlotOptions::default()
        };
        std::fs::write(&path, render_svg(&design, Some(&r.xs), Some(&r.ys), &opts))?;
        obs::info!("wrote {path}");
    }
    Ok(())
}

fn cmd_proxy(args: &[String]) -> CliResult {
    let Some(name) = args.first() else {
        return Err("usage: dtp proxy <sbN> [scale_denom]".into());
    };
    let denom: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(150.0);
    let design = superblue_proxy(name, 1.0 / denom)?;
    println!("{}: {}", design.name, NetlistStats::of(&design.netlist));
    println!(
        "region {} x {} um, {} rows, clock period {} ps, utilization {:.2}",
        design.region.width(),
        design.region.height(),
        design.rows.len(),
        design.constraints.clock_period,
        design.utilization()
    );
    Ok(())
}

/// An in-memory trace sink shared between the observer (which owns a boxed
/// writer) and the replay driver (which reads the bytes back afterwards).
#[derive(Clone, Default)]
struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("trace buffer poisoned").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn take(&self) -> Vec<u8> {
        std::mem::take(&mut *self.0.lock().expect("trace buffer poisoned"))
    }
}

fn load_trace(path: &str) -> Result<Trace, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Trace::parse(&text).map_err(|e| format!("{path}: {e}").into())
}

const TRACE_USAGE: &str = "usage: dtp trace <validate|diff|replay|report> ...\n\
    dtp trace validate <trace.jsonl>\n\
    dtp trace diff <a.jsonl> <b.jsonl> [--abs F] [--rel F] [--field name:abs:rel]\n\
    dtp trace replay <trace.jsonl> [--design spec] [--out file]\n\
    dtp trace report <trace.jsonl>";

fn cmd_trace(args: &[String]) -> CliResult {
    match args.first().map(String::as_str) {
        Some("validate") => cmd_trace_validate(&args[1..]),
        Some("diff") => cmd_trace_diff(&args[1..]),
        Some("replay") => cmd_trace_replay(&args[1..]),
        Some("report") => cmd_trace_report(&args[1..]),
        _ => Err(TRACE_USAGE.into()),
    }
}

fn cmd_trace_validate(args: &[String]) -> CliResult {
    let [path] = args else {
        return Err("usage: dtp trace validate <trace.jsonl>".into());
    };
    let t = load_trace(path)?;
    println!(
        "{path}: valid {} trace — design {} ({} cells), mode {}, seed {}, \
         {} iteration record(s), {} span record(s)",
        t.header.schema,
        t.header.design,
        t.header.cells,
        t.header.mode,
        t.header.seed,
        t.iters.len(),
        t.spans.len()
    );
    Ok(())
}

fn cmd_trace_diff(args: &[String]) -> CliResult {
    let (Some(path_a), Some(path_b)) = (args.first(), args.get(1)) else {
        return Err(
            "usage: dtp trace diff <a.jsonl> <b.jsonl> [--abs F] [--rel F] \
             [--field name:abs:rel]"
                .into(),
        );
    };
    let mut tol = Tolerances::zero();
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--abs" => {
                tol.default_abs = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .ok_or("option `--abs` needs a numeric value")?;
                i += 2;
            }
            "--rel" => {
                tol.default_rel = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .ok_or("option `--rel` needs a numeric value")?;
                i += 2;
            }
            "--field" => {
                let spec = args.get(i + 1).ok_or("option `--field` needs name:abs:rel")?;
                let parts: Vec<&str> = spec.split(':').collect();
                let [name, abs, rel] = parts[..] else {
                    return Err(format!("bad --field spec `{spec}` (want name:abs:rel)").into());
                };
                tol.per_field.push((
                    name.to_string(),
                    abs.parse().map_err(|_| format!("bad abs in `{spec}`"))?,
                    rel.parse().map_err(|_| format!("bad rel in `{spec}`"))?,
                ));
                i += 2;
            }
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }
    let a = load_trace(path_a)?;
    let b = load_trace(path_b)?;
    let report = dtp_trace::diff(&a, &b, &tol);
    print!("{}", report.render());
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("traces diverge: {path_a} vs {path_b}").into())
    }
}

fn cmd_trace_replay(args: &[String]) -> CliResult {
    let Some(path) = args.first() else {
        return Err("usage: dtp trace replay <trace.jsonl> [--design spec] [--out file]".into());
    };
    let mut design_override: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--design" => {
                design_override =
                    Some(args.get(i + 1).ok_or("option `--design` needs a design spec")?.clone());
                i += 2;
            }
            "--out" => {
                out_path =
                    Some(args.get(i + 1).ok_or("option `--out` needs a file path")?.clone());
                i += 2;
            }
            "--log-level" => {
                let name = args.get(i + 1).ok_or("option `--log-level` needs a level")?;
                let level = Level::parse(name)
                    .ok_or_else(|| format!("unknown log level `{name}` (error|warn|info|debug)"))?;
                obs::log::set_level(level);
                i += 2;
            }
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }
    let recorded = load_trace(path)?;
    // Rebuild the exact run configuration from the header. Both
    // reconstructions are strict: a trace from a different binary version
    // fails loudly here instead of replaying with silently-defaulted knobs.
    let config = FlowConfig::from_trace_fields(&recorded.header.config)
        .map_err(|e| format!("{path}: header config: {e}"))?;
    let mode = FlowMode::from_trace(&recorded.header.mode, &recorded.header.mode_config)
        .map_err(|e| format!("{path}: header mode: {e}"))?;
    let spec = match design_override.or_else(|| recorded.header.source.clone()) {
        Some(s) => s,
        None => {
            return Err(format!(
                "{path}: trace header has no design source; pass --design <spec>"
            )
            .into())
        }
    };
    let mut design = load_design(&spec)?;
    if design.constraints.clock_port.is_none() && design.constraints.clock_period >= 1000.0 {
        // Mirror cmd_place's Bookshelf fallback so replays of `dtp place`
        // runs see the same constraints.
        design.constraints = Sdc::with_period(500.0);
    }
    // Design fingerprint gate: replaying against the wrong netlist would
    // produce a wall of metric diffs; fail with the real cause instead.
    let (cells, nets, pins) = (
        design.netlist.num_cells() as u64,
        design.netlist.num_nets() as u64,
        design.netlist.num_pins() as u64,
    );
    if (cells, nets, pins) != (recorded.header.cells, recorded.header.nets, recorded.header.pins)
    {
        return Err(format!(
            "design fingerprint mismatch: trace records {} cells / {} nets / {} pins, \
             `{spec}` has {cells} / {nets} / {pins}",
            recorded.header.cells, recorded.header.nets, recorded.header.pins
        )
        .into());
    }
    obs::info!(
        "replaying {} (mode {}, seed {}, {} recorded iterations) on `{spec}`",
        recorded.header.design,
        recorded.header.mode,
        recorded.header.seed,
        recorded.iters.len()
    );
    let lib = synthetic_pdk();
    let buf = SharedBuf::default();
    let mut observer = Observer::new(true);
    observer.set_design_source(&spec);
    observer.set_trace_writer(Box::new(buf.clone()));
    let r = run_flow_observed(&design, &lib, mode, &config, &mut observer)?;
    println!("{r}");
    let bytes = buf.take();
    if let Some(out) = &out_path {
        std::fs::write(out, &bytes).map_err(|e| format!("cannot write --out {out}: {e}"))?;
        obs::info!("wrote {out}");
    }
    let fresh = Trace::parse(std::str::from_utf8(&bytes)?)
        .map_err(|e| format!("replayed trace: {e}"))?;
    if fresh.canonical_bytes() == recorded.canonical_bytes() {
        println!(
            "replay matches: {} iteration record(s) bit-identical to {path}",
            fresh.iters.len()
        );
        return Ok(());
    }
    // Not bit-identical — run the structured diff to name the first
    // diverging iteration and field.
    let report = dtp_trace::diff(&recorded, &fresh, &Tolerances::zero());
    print!("{}", report.render());
    Err(format!("replay diverges from {path}").into())
}

fn cmd_trace_report(args: &[String]) -> CliResult {
    let [path] = args else {
        return Err("usage: dtp trace report <trace.jsonl>".into());
    };
    let t = load_trace(path)?;
    print!("{}", dtp_trace::report(&t));
    Ok(())
}
