//! `dtp-benchmark`: times the real `dtp place` binary end to end on the four
//! workloads of `BENCHMARK.json`, checks every output, takes one traced run
//! per workload for the per-layer numbers and probes each layer from outside.
//! See README.md for the protocol and the metric definitions.

mod host;
mod json;
mod layers;
mod span;
mod workloads;

use json::{number, quote, Json};
use layers::{median, Placed, Qor};
use span::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use workloads::{Workload, WORKLOADS};

/// `--threads` of every `dtp place` run and pool width of the probes.
const THREADS: usize = 2;
const MIN_REPS: usize = 5;
/// Untraced runs of a `--trace 1` invocation: only the base of
/// `obs.trace_overhead_pct`, never reported as end-to-end timing.
const TRACE_ONLY_REPS: usize = 3;
/// Set-up replays per run: at least five, then more (they are short) until
/// the budget is spent, because the median of five is still noisy.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 25;
const SETUP_BUDGET_S: f64 = 2.0;
const RSS_POLL: Duration = Duration::from_millis(20);
const OUT_DIR: &str = "benchmark/out";
const PHASES: [&str; 14] = [
    "wirelength_grad",
    "density_grad",
    "congestion_grad",
    "rudy_update",
    "steiner_build",
    "steiner_update",
    "sta_forward",
    "sta_backward",
    "net_weight",
    "trace_sta",
    "nesterov_step",
    "legalize",
    "detail_place",
    "final_sta",
];

#[derive(Clone, Copy, PartialEq)]
enum Trace {
    /// `--trace 0`: end-to-end metrics only.
    Off,
    /// `--trace 1`: per-layer metrics only.
    Only,
    /// No `--trace`: the traced run first, then the timed reps.
    Both,
}

struct Args {
    workloads: Vec<&'static Workload>,
    /// `--workload` given: the last stdout line is the result object.
    single: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: Trace,
    reps: usize,
    smoke: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: WORKLOADS.iter().collect(),
        single: false,
        seed: 1,
        seconds: None,
        trace: Trace::Both,
        reps: MIN_REPS,
        smoke: false,
        selfcheck: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if matches!(flag, "--smoke" | "--selfcheck") {
            if flag == "--smoke" {
                a.smoke = true;
            } else {
                a.selfcheck = true;
            }
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("option `{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| w.name == value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?;
                a.workloads = vec![w];
                a.single = true;
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = Some(value.parse().map_err(|_| bad())?),
            "--reps" => a.reps = value.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::Only,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
        i += 2;
    }
    if a.smoke {
        a.reps = 1;
    }
    if a.reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    Ok(a)
}

/// One metric of `BENCHMARK.json`.
struct MetricDef {
    name: String,
    unit: String,
    lower_is_better: bool,
    /// `None` for per-layer metrics.
    bound: Option<f64>,
}

struct Definition {
    run_seconds: f64,
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

fn load_definition() -> Result<Definition, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
        doc.get(key)
            .map(Json::arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::str)
                        .ok_or(format!("BENCHMARK.json: {key}: no `{k}`"))
                };
                Ok(MetricDef {
                    name: field("name")?.to_owned(),
                    unit: field("unit")?.to_owned(),
                    lower_is_better: field("better")? == "lower",
                    bound: m.get("bound").and_then(Json::num),
                })
            })
            .collect()
    };
    for w in WORKLOADS {
        let listed = doc.get("workloads").map(Json::arr).unwrap_or_default();
        if !listed
            .iter()
            .any(|l| l.get("name").and_then(Json::str) == Some(w.name))
        {
            return Err(format!(
                "BENCHMARK.json does not list workload `{}`",
                w.name
            ));
        }
    }
    Ok(Definition {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::num)
            .ok_or("BENCHMARK.json: no run_seconds")?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// Median with spread of the samples behind one reported number.
#[derive(Clone, Copy)]
struct Stat {
    value: f64,
    n: usize,
    min: f64,
    max: f64,
    /// Median absolute deviation.
    mad: f64,
    /// Distance between the first and the third quartile, as Python's
    /// `statistics.quantiles(samples, n=4)` gives them (0 below two samples).
    iqr: f64,
}

impl Stat {
    fn of(samples: &[f64]) -> Stat {
        let value = median(samples);
        let dev: Vec<f64> = samples.iter().map(|x| (x - value).abs()).collect();
        Stat {
            value,
            n: samples.len(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mad: median(&dev),
            iqr: quartile(samples, 3) - quartile(samples, 1),
        }
    }

    fn single(value: f64, n: usize) -> Stat {
        Stat {
            value,
            n,
            min: value,
            max: value,
            mad: 0.0,
            iqr: 0.0,
        }
    }

    /// The quartile distance as a share of the median: the spread a bound is
    /// compared with.
    fn spread(&self) -> f64 {
        self.iqr / self.value.abs()
    }
}

/// Quartile `k` of 4 by the exclusive method (positions `k(n+1)/4`, clamped).
fn quartile(samples: &[f64], k: usize) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() < 2 {
        return v.first().copied().unwrap_or(f64::NAN);
    }
    let j = (k * (v.len() + 1) / 4).clamp(1, v.len() - 1);
    let delta = (k * (v.len() + 1)) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// A reported metric: measured, or absent with the reason.
type Reported = Result<Stat, String>;

struct WorkloadResult {
    name: &'static str,
    /// `(name, cells, nets, pins)` per design.
    designs: Vec<(&'static str, usize, usize, usize)>,
    metrics: BTreeMap<String, Reported>,
    ops: u64,
    ops_failed: u64,
}

impl WorkloadResult {
    /// Bytes one WA-gradient + Nesterov iteration sweeps on the largest
    /// design, computed from array sizes (README.md has the formula).
    fn working_set_bytes(&self) -> u64 {
        self.designs
            .iter()
            .map(|&(_, c, n, p)| (40 * p + 116 * c + 8 * n) as u64)
            .max()
            .unwrap_or(0)
    }
}

struct ResultSet {
    smoke: bool,
    results: Vec<WorkloadResult>,
}

struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    /// Counts one op; a failure is logged and returns `false`.
    fn check(&mut self, what: &str, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        if let Err(e) = &outcome {
            self.failed += 1;
            eprintln!("FAILED {what}: {e}");
        }
        outcome.is_ok()
    }
}

struct ProcRun {
    wall_s: f64,
    peak_rss_kb: f64,
    stdout: String,
    status: Result<(), String>,
}

/// Runs one `dtp place` process to completion: wall clock spawn → exit, and
/// `VmHWM` polled from `/proc/<pid>/status`. The harness does nothing else
/// meanwhile: this thread blocks in `wait`, the poller sleeps between reads.
fn run_process(tr: &mut Tracer, dtp: &Path, args: &[String]) -> ProcRun {
    let id = tr.begin(&format!("dtp place {}", args.join(" ")));
    let start = Instant::now();
    let spawned = Command::new(dtp)
        .arg("place")
        .args(args)
        .stdout(Stdio::piped())
        .spawn();
    let child = match spawned {
        Ok(c) => c,
        Err(e) => {
            tr.end(id);
            return ProcRun {
                wall_s: 0.0,
                peak_rss_kb: 0.0,
                stdout: String::new(),
                status: Err(format!("spawn {}: {e}", dtp.display())),
            };
        }
    };
    let status_path = format!("/proc/{}/status", child.id());
    let exited = AtomicBool::new(false);
    let (waited, wall_s, peak_rss_kb) = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut hwm = 0.0f64;
            while !exited.load(Ordering::SeqCst) {
                if let Ok(text) = std::fs::read_to_string(&status_path) {
                    let kb = text
                        .lines()
                        .find_map(|l| l.strip_prefix("VmHWM:"))
                        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
                    hwm = hwm.max(kb.unwrap_or(0.0));
                }
                std::thread::sleep(RSS_POLL);
            }
            hwm
        });
        // The program prints one line; it cannot fill the pipe before exit.
        let waited = child.wait_with_output();
        let wall_s = start.elapsed().as_secs_f64();
        exited.store(true, Ordering::SeqCst);
        (waited, wall_s, poller.join().expect("RSS poller panicked"))
    });
    tr.end(id);
    let (status, stdout) = match waited {
        Ok(o) if o.status.success() => (Ok(()), String::from_utf8_lossy(&o.stdout).into_owned()),
        Ok(o) => (Err(format!("exit status {}", o.status)), String::new()),
        Err(e) => (Err(format!("wait: {e}")), String::new()),
    };
    ProcRun {
        wall_s,
        peak_rss_kb,
        stdout,
        status,
    }
}

/// The number after `label` on the program's result line, and how many
/// decimals it was printed with.
fn printed(stdout: &str, label: &str) -> Option<(f64, i32)> {
    let mut tokens = stdout.split_whitespace().skip_while(|t| *t != label);
    let token = tokens.nth(1)?;
    let decimals = token
        .split_once('.')
        .map_or(0, |(_, frac)| frac.len() as i32);
    Some((token.parse().ok()?, decimals))
}

/// Check "recomputed HPWL/WNS/TNS agree with the stdout line to its printed
/// precision": within half a unit of the last printed digit (2 % slack for
/// the rounding of the `.pl` file's own six decimals).
fn agrees_with_stdout(qor: &Qor, stdout: &str) -> Result<(), String> {
    for (label, value) in [("HPWL", qor.hpwl), ("WNS", qor.wns), ("TNS", qor.tns)] {
        let (shown, decimals) =
            printed(stdout, label).ok_or(format!("no {label} on stdout: `{}`", stdout.trim()))?;
        if (value - shown).abs() > 0.51 * 10f64.powi(-decimals) {
            return Err(format!(
                "{label}: program printed {shown}, output files give {value}"
            ));
        }
    }
    Ok(())
}

/// The first checked output of one design; later runs must reproduce it.
struct Reference {
    pl: Vec<u8>,
    /// The stdout line up to the runtime column (mode, design, WNS, TNS, HPWL).
    stdout_qor: String,
    qor: Qor,
}

struct DesignState {
    spec: &'static workloads::DesignSpec,
    inputs: layers::Inputs,
    out_dir: PathBuf,
    reference: Option<Reference>,
}

impl DesignState {
    fn out_prefix(&self) -> PathBuf {
        self.out_dir.join(self.spec.name)
    }

    /// Bytes of the bundle `read_iccad15` reads.
    fn input_bytes(&self) -> u64 {
        ["v", "def", "sdc"]
            .iter()
            .filter_map(|ext| std::fs::metadata(self.inputs.prefix.with_extension(ext)).ok())
            .map(|m| m.len())
            .sum()
    }
}

/// The stdout line up to and including the HPWL figure: everything but the
/// runtime and iteration columns.
fn qor_columns(stdout: &str) -> String {
    let tokens: Vec<&str> = stdout.split_whitespace().collect();
    let end = tokens
        .iter()
        .position(|&t| t == "HPWL")
        .map_or(tokens.len(), |i| i + 2);
    tokens[..end.min(tokens.len())].join(" ")
}

/// Runs the output checks on one finished process, each counted as an op.
/// Returns the placement when this run was checked in full (the first good
/// run of the design); `Err` when any check failed.
fn check_run(d: &mut DesignState, run: &ProcRun, ops: &mut Ops) -> Result<Option<Placed>, ()> {
    let what = |check: &str| format!("{} {check}", d.spec.name);
    if !ops.check(&what("exit status"), run.status.clone()) {
        return Err(());
    }
    let pl = std::fs::read(d.out_prefix().with_extension("pl")).map_err(|e| e.to_string());
    if let Some(r) = &d.reference {
        // Byte-identical output is the output already checked in full.
        let same = pl.and_then(|pl| {
            if pl == r.pl {
                Ok(())
            } else {
                Err(".pl differs from the first run".into())
            }
        });
        let same_line = if qor_columns(&run.stdout) == r.stdout_qor {
            Ok(())
        } else {
            Err(format!(
                "stdout `{}` differs from the first run",
                run.stdout.trim()
            ))
        };
        let ok = ops.check(&what("determinism (.pl)"), same)
            & ops.check(&what("determinism (stdout)"), same_line);
        return if ok { Ok(None) } else { Err(()) };
    }
    let loaded = layers::load_output(&d.inputs.prefix, &d.out_prefix());
    let placed = match loaded {
        Ok(p) => {
            ops.check(&what("output parses"), Ok(()));
            p
        }
        Err(e) => {
            ops.check(&what("output parses"), Err(e));
            return Err(());
        }
    };
    let legal = ops.check(&what("legality"), layers::legality(&placed));
    let qor = layers::recompute_qor(&placed);
    let agrees = ops.check(
        &what("QoR agrees with stdout"),
        qor.clone()
            .and_then(|q| agrees_with_stdout(&q, &run.stdout)),
    );
    if !(legal && agrees) {
        return Err(());
    }
    d.reference = Some(Reference {
        pl: pl.map_err(|_| ())?,
        stdout_qor: qor_columns(&run.stdout),
        qor: qor.map_err(|_| ())?,
    });
    Ok(Some(placed))
}

/// What the traced run of one workload contributes to the `core.*`/`obs.*`
/// metrics, summed over its designs.
#[derive(Default)]
struct Traced {
    wall_s: f64,
    phases: BTreeMap<String, f64>,
    counters: BTreeMap<String, f64>,
    /// Σ forest_syncs × nets: the denominator of `core.dirty_net_share`.
    sync_nets: f64,
    trace_bytes: f64,
}

impl Traced {
    fn absorb_metrics_file(&mut self, path: &Path, nets: usize) -> Result<(), String> {
        let doc = Json::parse(&std::fs::read_to_string(path).map_err(|e| e.to_string())?)?;
        for p in doc.get("phases").map(Json::arr).unwrap_or_default() {
            if let (Some(name), Some(s)) = (
                p.get("phase").and_then(Json::str),
                p.get("seconds").and_then(Json::num),
            ) {
                *self.phases.entry(name.to_owned()).or_default() += s;
            }
        }
        let counters = doc.get("counters");
        if let Some(Json::Obj(members)) = counters {
            for (name, v) in members {
                *self.counters.entry(name.clone()).or_default() += v.num().unwrap_or(0.0);
            }
        }
        let syncs = counters
            .and_then(|c| c.get("forest_syncs"))
            .and_then(Json::num);
        self.sync_nets += syncs.unwrap_or(0.0) * nets as f64;
        Ok(())
    }
}

struct WorkloadState {
    workload: &'static Workload,
    designs: Vec<DesignState>,
    tracer: Tracer,
    ops: Ops,
    gen_s: f64,
    traced: Option<Traced>,
    /// Output of the traced run on the largest design: where the probes run.
    probe_at: Option<Placed>,
    /// Wall and peak RSS of the good timed reps.
    walls: Vec<f64>,
    rss_mb: Vec<f64>,
    attempts: usize,
    /// Harness time spent in timed reps, checks included.
    spent_s: f64,
    metrics: BTreeMap<String, Reported>,
}

impl WorkloadState {
    fn largest(&self) -> usize {
        (0..self.designs.len())
            .max_by_key(|&i| self.designs[i].inputs.cells)
            .expect("a workload has designs")
    }

    /// One pass over the designs, one process each, back to back. Returns
    /// `(Σ wall, max RSS)` when every op of the pass succeeded.
    fn pass(&mut self, dtp: &Path, traced: bool) -> Option<(f64, f64)> {
        let span = self
            .tracer
            .begin(if traced { "traced_run" } else { "timed_rep" });
        let (mut wall, mut rss, mut ok) = (0.0, 0.0f64, true);
        let largest = self.largest();
        for i in 0..self.designs.len() {
            let d = &mut self.designs[i];
            let mut args = vec![d.inputs.prefix.display().to_string()];
            args.extend(self.workload.flags.iter().map(|f| f.to_string()));
            args.extend([
                "--threads".into(),
                THREADS.to_string(),
                "--log-level".into(),
                "warn".into(),
            ]);
            args.extend(["--out".into(), d.out_dir.display().to_string()]);
            let metrics_file = d.out_dir.join("metrics.json");
            let trace_file = d.out_dir.join("trace.jsonl");
            if traced {
                args.extend(["--metrics-out".into(), metrics_file.display().to_string()]);
                args.extend(["--trace-out".into(), trace_file.display().to_string()]);
            }
            let run = run_process(&mut self.tracer, dtp, &args);
            let check = self.tracer.begin("check_output");
            let checked = check_run(d, &run, &mut self.ops);
            self.tracer.end(check);
            match checked {
                Ok(placed) => {
                    wall += run.wall_s;
                    rss = rss.max(run.peak_rss_kb / 1024.0);
                    if traced {
                        let t = self.traced.get_or_insert_with(Traced::default);
                        t.wall_s += run.wall_s;
                        // Tolerant: an unreadable metrics file leaves the
                        // `core.*` metrics absent, it is not a failed op.
                        if let Err(e) = t.absorb_metrics_file(&metrics_file, d.inputs.nets) {
                            eprintln!("{}: metrics file unreadable: {e}", d.spec.name);
                        }
                        t.trace_bytes +=
                            std::fs::metadata(&trace_file).map_or(0.0, |m| m.len() as f64);
                        if i == largest {
                            self.probe_at = placed;
                        }
                    }
                }
                Err(()) => ok = false,
            }
        }
        self.tracer.end(span);
        ok.then_some((wall, rss))
    }

    fn timed_rep(&mut self, dtp: &Path) {
        let start = Instant::now();
        if let Some((wall, rss)) = self.pass(dtp, false) {
            self.walls.push(wall);
            self.rss_mb.push(rss);
        }
        self.attempts += 1;
        self.spent_s += start.elapsed().as_secs_f64();
    }

    /// At least `min_reps`, then as many more as fit in `seconds`.
    fn wants_rep(&self, min_reps: usize, seconds: f64) -> bool {
        self.attempts < min_reps || self.spent_s + self.spent_s / self.attempts as f64 <= seconds
    }

    fn report(&mut self, name: &str, value: Reported) {
        self.metrics.insert(name.to_owned(), value);
    }

    fn end_to_end_metrics(&mut self) {
        let over_reps = |samples: &[f64]| match samples {
            [] => Err("no rep passed its checks".to_owned()),
            _ => Ok(Stat::of(samples)),
        };
        self.report("place_wall_s", over_reps(&self.walls));
        self.report("peak_rss_mb", over_reps(&self.rss_mb));
        let mut setups = Vec::new();
        let started = Instant::now();
        while setups.len() < SETUP_MIN_REPS
            || (setups.len() < SETUP_MAX_REPS && started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
        {
            let mut total = 0.0;
            for i in 0..self.designs.len() {
                let prefix = self.designs[i].inputs.prefix.clone();
                match layers::setup_replay(&mut self.tracer, &prefix, THREADS) {
                    Ok(s) => total += s,
                    Err(e) => eprintln!("setup replay of {}: {e}", prefix.display()),
                }
            }
            setups.push(total);
        }
        self.report("setup_s", Ok(Stat::of(&setups)));
        let n = self.walls.len().max(1);
        let qor = self.checked_qor();
        self.report(
            "hpwl_um",
            qor.clone()
                .map(|q| Stat::single(q.iter().map(|q| q.hpwl).sum(), n)),
        );
        self.report(
            "tns_viol_ps",
            qor.map(|q| Stat::single(q.iter().map(|q| -q.tns).sum(), n)),
        );
    }

    /// The recomputed QoR of every design, once each has a checked output.
    fn checked_qor(&self) -> Result<Vec<Qor>, String> {
        self.designs
            .iter()
            .map(|d| {
                d.reference
                    .as_ref()
                    .map(|r| r.qor)
                    .ok_or(format!("no output of {} passed its checks", d.spec.name))
            })
            .collect()
    }

    fn per_layer_metrics(&mut self, seed: u64) {
        self.report("bench.gen_s", Ok(Stat::single(self.gen_s, 1)));
        let wns = self.checked_qor().map(|q| {
            Stat::single(
                q.iter().map(|q| (-q.wns).max(0.0)).sum::<f64>() / q.len() as f64,
                1,
            )
        });
        self.report("core.wns_viol_ps", wns);
        let untraced = (!self.walls.is_empty()).then(|| median(&self.walls));
        // Without a traced run the `core.*`/`obs.*` metrics stay unreported
        // and print as absent.
        if let Some(t) = self.traced.take() {
            for m in PHASES {
                let v = t
                    .phases
                    .get(m)
                    .map(|&s| Stat::single(s, 1))
                    .ok_or("phase not in the metrics file".to_owned());
                self.report(&format!("core.phase.{m}_s"), v);
            }
            let counter = |name: &str| {
                t.counters
                    .get(name)
                    .copied()
                    .ok_or(format!("counter `{name}` not in the metrics file"))
            };
            let ratio =
                |num: Result<f64, String>, den: Result<f64, String>, zero: &str| match (num, den) {
                    (Ok(n), Ok(d)) if d > 0.0 => Ok(Stat::single(n / d, 1)),
                    (Ok(_), Ok(_)) => Err(zero.to_owned()),
                    (Err(e), _) | (_, Err(e)) => Err(e),
                };
            self.report(
                "core.iterations",
                counter("iterations").map(|v| Stat::single(v, 1)),
            );
            self.report(
                "core.timing_iterations",
                counter("sta_full").map(|v| Stat::single(v, 1)),
            );
            self.report(
                "core.sta_fallback_ratio",
                ratio(
                    counter("sta_fallback"),
                    counter("sta_full"),
                    "no full STA ran",
                ),
            );
            self.report(
                "core.dirty_net_share",
                ratio(
                    counter("geo_dirty_nets"),
                    Ok(t.sync_nets),
                    "no forest sync ran",
                ),
            );
            let attributed: f64 = t.phases.values().sum();
            self.report(
                "core.unattributed_s",
                Ok(Stat::single(t.wall_s - attributed, 1)),
            );
            self.report(
                "obs.trace_bytes_iter",
                ratio(Ok(t.trace_bytes), counter("iterations"), "no iteration ran"),
            );
            let overhead = untraced
                .map(|u| Stat::single((t.wall_s - u) / u * 100.0, self.walls.len()))
                .ok_or("no untraced run to compare with".to_owned());
            self.report("obs.trace_overhead_pct", overhead);
        }
        let Some(placed) = self.probe_at.take() else {
            eprintln!(
                "{}: no checked traced output; layer probes skipped",
                self.workload.name
            );
            return;
        };
        let d = &self.designs[self.largest()];
        let scratch = d.out_dir.join("probe");
        let span = self.tracer.begin("layer_probes");
        let probes = layers::probes(
            &mut self.tracer,
            &d.inputs.prefix,
            d.input_bytes(),
            placed,
            &scratch,
            seed,
            THREADS,
        );
        self.tracer.end(span);
        for (name, value, n) in probes {
            self.report(name, Ok(Stat::single(value, n)));
        }
    }
}

/// Runs one full set: inputs, traced runs, rep-major timed reps, set-up
/// replays, probes.
fn run_set(args: &Args, def: &Definition, dtp: &Path) -> Result<ResultSet, String> {
    let out = Path::new(OUT_DIR);
    let mut states = Vec::new();
    for &workload in &args.workloads {
        let mut tracer = Tracer::new();
        let dir = out.join(workload.name);
        // Stale outputs of an earlier invocation must not pass as this one's.
        let _ = std::fs::remove_dir_all(&dir);
        let span = tracer.begin("generate_inputs");
        let mut designs = Vec::new();
        for spec in workload.designs {
            let inputs = layers::write_inputs(spec, args.seed, args.smoke, &dir.join("in"))
                .map_err(|e| format!("{}: generating {}: {e}", workload.name, spec.name))?;
            let out_dir = dir.join("run").join(spec.name);
            std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
            designs.push(DesignState {
                spec,
                inputs,
                out_dir,
                reference: None,
            });
        }
        let gen_s = tracer.end(span);
        states.push(WorkloadState {
            workload,
            designs,
            tracer,
            ops: Ops {
                attempted: 0,
                failed: 0,
            },
            gen_s,
            traced: None,
            probe_at: None,
            walls: Vec::new(),
            rss_mb: Vec::new(),
            attempts: 0,
            spent_s: 0.0,
            metrics: BTreeMap::new(),
        });
    }
    if args.trace != Trace::Off {
        for s in &mut states {
            s.pass(dtp, true);
        }
    }
    let min_reps = if args.trace == Trace::Only {
        TRACE_ONLY_REPS.min(args.reps)
    } else {
        args.reps
    };
    // A trace-only or smoke set runs its fixed rep count and no more.
    let seconds = if args.trace == Trace::Only || args.smoke {
        0.0
    } else {
        args.seconds.unwrap_or(def.run_seconds)
    };
    // Rep-major, so machine drift hits all workloads alike.
    while states.iter().any(|s| s.wants_rep(min_reps, seconds)) {
        for s in states.iter_mut().filter(|s| s.wants_rep(min_reps, seconds)) {
            s.timed_rep(dtp);
        }
    }
    let mut results = Vec::new();
    for mut s in states {
        if args.trace != Trace::Only {
            s.end_to_end_metrics();
        }
        if args.trace != Trace::Off {
            s.per_layer_metrics(args.seed);
        }
        let trace_path = out.join(format!("trace_{}.json", s.workload.name));
        std::fs::write(&trace_path, s.tracer.to_json(s.workload.name))
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        results.push(WorkloadResult {
            name: s.workload.name,
            designs: s
                .designs
                .iter()
                .map(|d| (d.spec.name, d.inputs.cells, d.inputs.nets, d.inputs.pins))
                .collect(),
            metrics: s.metrics,
            ops: s.ops.attempted,
            ops_failed: s.ops.failed,
        });
    }
    Ok(ResultSet {
        smoke: args.smoke,
        results,
    })
}

/// The metrics this invocation must report, in `BENCHMARK.json` order.
fn expected(def: &Definition, trace: Trace) -> Vec<&MetricDef> {
    let e2e = def.end_to_end.iter().filter(|_| trace != Trace::Only);
    e2e.chain(def.per_layer.iter().filter(|_| trace != Trace::Off))
        .collect()
}

/// One line per metric: `workload metric unit value n spread`.
fn print_set(set: &ResultSet, def: &Definition, trace: Trace) -> Result<(), String> {
    for r in &set.results {
        for m in expected(def, trace) {
            match r.metrics.get(&m.name) {
                Some(Ok(s)) => println!(
                    "{} {} {} {} n={} spread={:.2}% min={} max={} mad={}",
                    r.name,
                    m.name,
                    m.unit,
                    number(s.value),
                    s.n,
                    s.spread() * 100.0,
                    number(s.min),
                    number(s.max),
                    number(s.mad)
                ),
                Some(Err(why)) => println!("{} {} {} absent ({why})", r.name, m.name, m.unit),
                None => println!("{} {} {} absent (not measured)", r.name, m.name, m.unit),
            }
        }
        if let Some(stray) = r.metrics.keys().find(|k| {
            !def.end_to_end
                .iter()
                .chain(&def.per_layer)
                .any(|m| &m.name == *k)
        }) {
            return Err(format!("metric `{stray}` is not defined in BENCHMARK.json"));
        }
        let share = r.ops_failed as f64 / r.ops.max(1) as f64;
        println!(
            "{} fail_share ratio {} ops={} ops_failed={}",
            r.name,
            number(share),
            r.ops,
            r.ops_failed
        );
    }
    Ok(())
}

fn set_json(set: &ResultSet, def: &Definition, args: &Args, host: &host::Host) -> String {
    let mut out = format!(
        "{{\n\"schema\": \"dtp-benchmark-v1\",\n\"smoke\": {},\n\"seed\": {},\n\"threads\": {THREADS},\n\"reps\": {},\n\"host\": {},\n\"workloads\": [\n",
        set.smoke, args.seed, args.reps, host.to_json()
    );
    for (wi, r) in set.results.iter().enumerate() {
        let designs: Vec<String> = r
            .designs
            .iter()
            .map(|(n, c, e, p)| {
                format!(
                    "{{\"name\": {}, \"cells\": {c}, \"nets\": {e}, \"pins\": {p}}}",
                    quote(n)
                )
            })
            .collect();
        let ws = r.working_set_bytes();
        out.push_str(&format!(
            "{{\"name\": {}, \"designs\": [{}], \"working_set_kb_computed\": {}, \"fits_last_level_cache\": {}, \"ops\": {}, \"ops_failed\": {}, \"metrics\": {{\n",
            quote(r.name),
            designs.join(", "),
            ws / 1024,
            host.last_level_cache_kb.map_or("null".to_owned(), |kb| (ws / 1024 <= kb).to_string()),
            r.ops,
            r.ops_failed
        ));
        let all: Vec<&MetricDef> = def.end_to_end.iter().chain(&def.per_layer).collect();
        let rows: Vec<String> = all
            .iter()
            .filter_map(|m| {
                let body = match r.metrics.get(&m.name)? {
                    Ok(s) => format!(
                        "\"value\": {}, \"n\": {}, \"min\": {}, \"max\": {}, \"mad\": {}, \"iqr\": {}",
                        number(s.value), s.n, number(s.min), number(s.max), number(s.mad), number(s.iqr)
                    ),
                    Err(why) => format!("\"absent\": {}", quote(why)),
                };
                Some(format!("  {}: {{\"unit\": {}, {body}}}", quote(&m.name), quote(&m.unit)))
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str(if wi + 1 < set.results.len() {
            "\n}},\n"
        } else {
            "\n}}\n"
        });
    }
    out.push_str("]\n}\n");
    out
}

/// The result object the driver reads from the last stdout line.
fn result_line(r: &WorkloadResult, def: &Definition, trace: Trace) -> String {
    let metrics: Vec<String> = expected(def, trace)
        .iter()
        .map(|m| {
            // An absent per-layer metric still has to appear: it reads 0.
            let value = r
                .metrics
                .get(&m.name)
                .and_then(|v| v.as_ref().ok())
                .map_or(0.0, |s| s.value);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                number(value),
                quote(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.ops_failed == 0 && r.ops > 0,
        r.ops.max(1),
        r.ops_failed,
        metrics.join(", ")
    )
}

/// `--selfcheck`: set B must be within every end-to-end bound of set A.
/// Prints one verdict per metric and workload; `unresolved` where a set's own
/// spread exceeds the bound. Returns whether every resolved verdict is `ok`.
fn compare(a: &ResultSet, b: &ResultSet, def: &Definition) -> Result<bool, String> {
    if a.smoke != b.smoke {
        return Err("refusing to compare a smoke run with a full run".into());
    }
    let mut all_ok = true;
    for (ra, rb) in a.results.iter().zip(&b.results) {
        for m in &def.end_to_end {
            let bound = m.bound.unwrap_or(0.0);
            let (Some(Ok(sa)), Some(Ok(sb))) = (ra.metrics.get(&m.name), rb.metrics.get(&m.name))
            else {
                println!("selfcheck {} {} FAIL (absent in a set)", ra.name, m.name);
                all_ok = false;
                continue;
            };
            let worse = if m.lower_is_better {
                sb.value - sa.value
            } else {
                sa.value - sb.value
            } / sa.value.abs();
            let verdict = if sa.spread() > bound || sb.spread() > bound {
                "unresolved"
            } else if worse > bound {
                all_ok = false;
                "FAIL"
            } else {
                "ok"
            };
            println!(
                "selfcheck {} {} {verdict} A={} [{}..{}] mad={} spread={:.2}% B={} [{}..{}] mad={} spread={:.2}% change={:+.3}% bound={}%",
                ra.name, m.name,
                number(sa.value), number(sa.min), number(sa.max), number(sa.mad), sa.spread() * 100.0,
                number(sb.value), number(sb.min), number(sb.max), number(sb.mad), sb.spread() * 100.0,
                worse * 100.0, bound * 100.0
            );
        }
        if ra.ops_failed + rb.ops_failed > 0 {
            println!(
                "selfcheck {} fail_share FAIL ({} + {} failed ops)",
                ra.name, ra.ops_failed, rb.ops_failed
            );
            all_ok = false;
        }
    }
    Ok(all_ok)
}

fn run(args: &Args) -> Result<bool, String> {
    let def = load_definition()?;
    let dtp = PathBuf::from(
        std::env::var("DTP_BIN")
            .map_err(|_| "DTP_BIN is not set: start the benchmark with benchmark/run.sh")?,
    );
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let host = host::Host::probe(THREADS);
    let write_results = |file: &str, set: &ResultSet| {
        let path = Path::new(OUT_DIR).join(file);
        std::fs::write(&path, set_json(set, &def, args, &host))
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    let set = run_set(args, &def, &dtp)?;
    print_set(&set, &def, args.trace)?;
    let mut ok = set.results.iter().all(|r| r.ops_failed == 0 && r.ops > 0);
    if args.selfcheck {
        write_results("results_a.json", &set)?;
        let second = run_set(args, &def, &dtp)?;
        print_set(&second, &def, args.trace)?;
        ok &= compare(&set, &second, &def)?;
        write_results("results.json", &second)?;
    } else {
        write_results("results.json", &set)?;
    }
    if args.single {
        println!("{}", result_line(&set.results[0], &def, args.trace));
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dtp-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
