//! `cvkbench`: the end-to-end and per-layer benchmark of the CHERIvoke
//! runtimes, driven only through the public APIs of `cherivoke`,
//! `journal` and `workloads`.
//!
//! ```text
//! cvkbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! One workload runs in this process: set up, measured for `--seconds`,
//! put through the correctness gate, then set up a few more times so that
//! `setup_s` is a median. Untraced, it prints the end-to-end metrics;
//! traced, the per-layer metrics, and it writes
//! `DIR/<workload>.trace.json`. With no
//! `--workload` every workload runs in turn, each in a child process.
//! The last line of standard output is the result as one JSON object;
//! any failed check exits non-zero without it.

mod fleet;
mod hist;
mod metrics;
mod run;
mod service;
mod single;
mod spans;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use hist::exact_percentile;
use metrics::{Report, WORKLOADS};
use run::{
    measure, median, peak_rss_mib, Measured, Probe, Recorder, Scale, Workload, SAMPLE_EVERY,
};

/// Variables `RevocationPolicy::paper_default` or the runtimes read: a set
/// one would silently measure a different program.
const REFUSED_ENV: [&str; 6] = [
    "CHERIVOKE_KERNEL",
    "CHERIVOKE_FAST_KERNEL",
    "CHERIVOKE_SWEEP_WORKERS",
    "CHERIVOKE_BACKEND",
    "CHERIVOKE_FAULT_PLAN",
    "CHERIVOKE_JOURNAL",
];

/// A run sets its workload up at least `MIN_SETUPS` times, and more, up to
/// `MAX_SETUPS`, until its set-ups have taken `SETUP_BUDGET_S` seconds;
/// `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;

#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 42,
        seconds: 18.0,
        trace: false,
        out: PathBuf::from("bench-out/cvkbench"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w}; known: {}",
                        WORKLOADS.join(", ")
                    ));
                }
                o.workload = Some(w.clone());
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => o.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

/// The refused variables that `is_set` reports set.
fn refused_env(is_set: impl Fn(&str) -> bool) -> Vec<&'static str> {
    REFUSED_ENV.into_iter().filter(|v| is_set(v)).collect()
}

fn setup(
    name: &str,
    seed: u64,
    scale: Scale,
    out: &Path,
) -> Result<(Box<dyn Workload>, Duration), String> {
    Ok(match name {
        "xalanc-replay" => {
            let (w, t) = single::Xalanc::setup(seed, scale, out)?;
            (Box::new(w), t)
        }
        "dense-sweep" => {
            let (w, t) = single::Dense::setup(seed, scale)?;
            (Box::new(w), t)
        }
        "service-churn" => {
            let (w, t) = service::Service::setup(seed, scale)?;
            (Box::new(w), t)
        }
        "fleet-zipf" => {
            let (w, t) = fleet::Fleet::setup(seed, scale)?;
            (Box::new(w), t)
        }
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Sets the workload up once, adding the time taken to `setups` and the
/// part of it spent building inputs to `inputs`.
fn timed_setup(
    name: &str,
    o: &Options,
    scale: Scale,
    setups: &mut Vec<f64>,
    inputs: &mut Vec<f64>,
) -> Result<Box<dyn Workload>, String> {
    let t0 = Instant::now();
    let (w, input_time) = setup(name, o.seed, scale, &o.out)?;
    setups.push(t0.elapsed().as_secs_f64());
    inputs.push(input_time.as_secs_f64());
    Ok(w)
}

/// Sets up, measures and gates one workload, returning its report and,
/// when traced, the trace file's contents.
fn run_workload(name: &str, o: &Options, scale: Scale) -> Result<(Report, Option<String>), String> {
    let (mut setups, mut inputs) = (Vec::new(), Vec::new());
    let mut w = timed_setup(name, o, scale, &mut setups, &mut inputs)?;
    println!(
        "cvkbench {name} seed={} seconds={} trace={} host_parallelism={}",
        o.seed,
        o.seconds,
        u8::from(o.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("  resolved {}", w.resolved());

    let total = Duration::from_secs_f64(o.seconds);
    // Traced runs interleave untraced and traced quarters (ABBA), so the
    // tracing overhead is measured against the same heap state.
    let plan = if o.trace {
        let q = total / 4;
        vec![(false, q), (true, q), (true, q), (false, q)]
    } else {
        vec![(false, total)]
    };
    let mut rec = Recorder::new();
    let m = measure(w.as_mut(), &mut rec, &plan)?;
    w.gate()?;
    if rec.attempted() != rec.completed() + rec.failed() {
        return Err(format!(
            "{} ops attempted, but {} completed and {} failed",
            rec.attempted(),
            rec.completed(),
            rec.failed()
        ));
    }
    // No op of any workload may fail: a failure is a regression however
    // rare, and a rate of 0 cannot be a bounded metric.
    if rec.failed() > 0 {
        return Err(format!(
            "{} of {} ops failed",
            rec.failed(),
            rec.attempted()
        ));
    }
    let mut r = Report::new(o.trace, rec.attempted(), rec.failed());
    run_metrics(&mut r, w.as_ref(), &mut rec, &m)?;
    let trace = if o.trace {
        per_layer(&mut r, w.as_ref(), &mut rec, &m);
        Some(rec.tracer().to_json(name))
    } else {
        None
    };
    // `peak_rss_mib` has seen only the measured set-up. More set-ups
    // follow, each dropped before the next, for a steadier median.
    drop(w);
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(timed_setup(name, o, scale, &mut setups, &mut inputs)?);
    }
    let note = format!("median of {} set-ups", setups.len());
    let mut runtime: Vec<f64> = setups.iter().zip(&inputs).map(|(s, i)| s - i).collect();
    r.set("setup_s", median(&mut setups), note.clone());
    r.set("setup.inputs_s", median(&mut inputs), note.clone());
    r.set("setup.runtime_s", median(&mut runtime), note);
    Ok((r, trace))
}

/// The metrics both kinds of run measure: from the untraced segments'
/// windows, pauses and counters, the memory samples and the resident set.
/// Each report keeps the ones its catalogue lists.
fn run_metrics(
    r: &mut Report,
    w: &dyn Workload,
    rec: &mut Recorder,
    m: &Measured,
) -> Result<(), String> {
    r.set("peak_rss_mib", peak_rss_mib()?, "VmHWM");
    r.set(
        "mem_overhead",
        w.mem_overhead(),
        "mean (footprint + shadow) / mean live",
    );
    let windows = rec.windows();
    if windows.is_empty() {
        return Err("no op completed".into());
    }
    let k = windows.len();
    let mut rates: Vec<f64> = windows.iter().map(|w| w.ops as f64 / w.secs).collect();
    r.set(
        "ops_per_s",
        median(&mut rates),
        format!(
            "median of {k} windows; {} ops in {:.3} s",
            m.untraced_ops, m.untraced_secs
        ),
    );
    for (i, metric) in ["op_p50_us", "op_p99_us"].into_iter().enumerate() {
        let mut values: Vec<f64> = windows.iter().map(|w| w.pct[i].value).collect();
        let fewest = windows
            .iter()
            .map(|w| w.pct[i])
            .min_by_key(|q| q.count)
            .expect("at least one window");
        r.set(
            metric,
            median(&mut values) / 1e3,
            format!(
                "median of {k} windows; each n>={} beyond>={}",
                fewest.count, fewest.beyond
            ),
        );
    }
    // A background revoker reports its own sweep time; a stop-the-world
    // heap revokes inside the calls, so its pauses are its revoking time.
    let (revoking_ns, how) = match m.untraced.sweep_ns {
        0 => (
            rec.pauses().iter().sum::<u64>(),
            "ops that ran a revocation",
        ),
        ns => (ns, "the revoker's sweep time"),
    };
    r.set(
        "revoke_time_frac",
        revoking_ns as f64 / (m.untraced_secs * 1e9),
        format!("{how} / wall time"),
    );
    let probe = match w.probe() {
        Probe::EveryOp => "ops during which the revocation counter advanced".to_string(),
        Probe::Blocks => format!(
            "slowest op of each {SAMPLE_EVERY}-op block during which the epoch counter advanced"
        ),
    };
    for (metric, p) in [("pause_p50_us", 50.0), ("pause_p99_us", 99.0)] {
        let q = exact_percentile(rec.pauses(), p).ok_or("no op ran a revocation")?;
        r.set(
            metric,
            q.value / 1e3,
            format!("n={} beyond={}; {probe}", q.count, q.beyond),
        );
    }
    Ok(())
}

/// The metrics of the traced quarters: call times, epoch spans and the
/// layers' counter deltas.
fn per_layer(r: &mut Report, w: &dyn Workload, rec: &mut Recorder, m: &Measured) {
    let c = m.traced;
    let per = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    const MIB: f64 = (1 << 20) as f64;
    let tr = rec.tracer();
    for call in ["malloc", "free", "store_cap"] {
        let (mean, p99, n) = tr.clean(call).map_or((0.0, 0.0, 0), |h| {
            let p99 = h.percentile(99.0).map_or(0.0, |q| q.value);
            (h.mean(), p99, h.count())
        });
        let note = format!("n={n}, calls that ran no revocation");
        r.set(&format!("call.{call}_ns"), mean, note.clone());
        r.set(&format!("call.{call}_ns_p99"), p99, note);
    }
    let epoch_ns = tr.total_ns("epoch");
    let backoff_ns = tr.total_ns("backoff");
    r.set(
        "heap.pauses",
        tr.pauses().len() as f64,
        "calls during which the epoch counter advanced",
    );
    let kops = m.traced_ops as f64 / 1e3;
    r.set("heap.epochs", c.epochs as f64, "");
    r.set("heap.epochs_per_kop", c.epochs as f64 / kops, "");
    // A background revoker reports its own sweep time; a single heap
    // revokes inside the calls, where the epoch spans measure it.
    let busy_ns = if c.sweep_ns > 0 { c.sweep_ns } else { epoch_ns };
    let traced_ns = m.traced_secs * 1e9;
    r.set(
        "revoker.swept_mib_per_epoch",
        per(c.bytes_swept, c.epochs) / MIB,
        "",
    );
    r.set(
        "revoker.sweep_gib_s",
        per(c.bytes_swept, busy_ns) * 1e9 / (MIB * 1024.0),
        "bytes swept per second of revocation",
    );
    r.set(
        "revoker.painted_mib_per_epoch",
        per(c.bytes_painted, c.epochs) / MIB,
        "",
    );
    r.set(
        "revoker.pages_skipped_per_epoch",
        per(c.pages_skipped, c.epochs),
        "",
    );
    r.set(
        "revoker.caps_inspected_per_epoch",
        per(c.caps_inspected, c.epochs),
        "",
    );
    r.set(
        "revoker.revoked_per_inspected",
        per(c.caps_revoked, c.caps_inspected),
        "",
    );
    r.set("revoker.emergency_sweeps", c.emergency_sweeps as f64, "");
    r.set(
        "revoker.barrier_revocations",
        c.barrier_revocations as f64,
        "",
    );
    r.set(
        "cvkalloc.internal_frees_per_epoch",
        per(c.internal_frees, c.drains),
        "",
    );
    r.set(
        "cvkalloc.peak_quarantine_frac",
        w.peak_quarantine_frac(),
        "quarantined / (live + quarantined)",
    );
    r.set(
        "journal.bytes_per_epoch",
        per(c.journal_bytes, c.epochs),
        "",
    );
    r.set("service.foreign_sweeps", c.foreign_sweeps as f64, "");
    r.set("service.revoker_restarts", c.revoker_restarts as f64, "");
    r.set("fleet.throttled_per_kop", c.throttled as f64 / kops, "");
    r.set("fleet.backoff_frac", backoff_ns as f64 / traced_ns, "");
    r.set("fleet.steals", c.steals as f64, "");
    r.set("fleet.max_budget_fraction", w.max_budget_fraction(), "");
    let plain = m.untraced_ops as f64 / m.untraced_secs;
    let traced = m.traced_ops as f64 / m.traced_secs;
    r.set(
        "trace_overhead_pct",
        (plain - traced) / plain * 100.0,
        format!("{plain:.0} untraced vs {traced:.0} traced ops/s"),
    );
}

/// Runs one workload in this process and prints its report.
fn run_one(name: &str, o: &Options) -> Result<String, String> {
    let (report, trace) = run_workload(name, o, Scale::Full)?;
    if let Some(trace) = trace {
        std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
        let path = o.out.join(format!("{name}.trace.json"));
        std::fs::write(&path, trace).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  trace written to {}", path.display());
    }
    print!("{}", report.human()?);
    report.json()
}

/// Runs every workload, each in a child process, and combines their
/// results into one line whose metrics are named `<workload>/<metric>`.
fn run_all(o: &Options) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating cvkbench: {e}"))?;
    let mut metrics = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for name in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", name, "--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&o.out)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("running {name}: {e}"))?;
        if !out.status.success() {
            return Err(format!("{name} failed ({})", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().ok_or(format!("{name} printed nothing"))?;
        for line in lines {
            println!("{line}");
        }
        let v = serde_json::from_str(last).map_err(|e| format!("{name} result: {e}"))?;
        attempted += v.get("attempted").and_then(|a| a.as_u64()).unwrap_or(0);
        failed += v.get("failed").and_then(|f| f.as_u64()).unwrap_or(0);
        let entries = v
            .get("metrics")
            .and_then(|m| m.as_object())
            .ok_or(format!("{name} result has no metrics"))?;
        for (metric, m) in entries {
            let value = m.get("value").and_then(|x| x.as_f64()).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(|u| u.as_str()).unwrap_or("");
            metrics.push(format!(
                "\"{name}/{metric}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

/// Prints the result line and exits 0, or reports the failure and exits
/// non-zero without a result.
fn finish(result: Result<String, String>) -> ExitCode {
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cvkbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cvkbench: {e}");
            return ExitCode::from(2);
        }
    };
    let refused = refused_env(|v| std::env::var_os(v).is_some());
    if !refused.is_empty() {
        eprintln!(
            "cvkbench: refusing to run with {} set: the runtimes would measure a different \
             configuration",
            refused.join(", ")
        );
        return ExitCode::from(2);
    }
    finish(match &o.workload {
        Some(name) => run_one(name, &o),
        None => run_all(&o),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> serde_json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn names(v: &serde_json::Value, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(|a| a.as_array())
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(|n| n.as_str())
                    .expect("named")
                    .to_string()
            })
            .collect()
    }

    fn tiny(trace: bool) -> Options {
        Options {
            workload: None,
            seed: 7,
            seconds: 0.3,
            trace,
            out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/bench-out/test")),
        }
    }

    #[test]
    fn benchmark_json_declares_what_the_binary_emits() {
        let v = benchmark_json();
        assert_eq!(names(&v, "workloads"), WORKLOADS);
        for (key, catalogue) in [
            ("end_to_end", metrics::END_TO_END),
            ("per_layer", metrics::PER_LAYER),
        ] {
            let declared = v.get(key).and_then(|a| a.as_array()).expect(key);
            assert_eq!(declared.len(), catalogue.len(), "{key}");
            for (d, m) in declared.iter().zip(catalogue) {
                assert_eq!(d.get("name").and_then(|n| n.as_str()), Some(m.name));
                assert_eq!(
                    d.get("unit").and_then(|u| u.as_str()),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    d.get("better").and_then(|b| b.as_str()),
                    Some(better),
                    "{}",
                    m.name
                );
            }
        }
        let bound = |name: &str| {
            v.get("end_to_end")
                .and_then(|a| a.as_array())
                .and_then(|a| {
                    a.iter()
                        .find(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
                })
                .and_then(|e| e.get("bound"))
                .and_then(|b| b.as_f64())
                .expect("bound")
        };
        for m in metrics::END_TO_END {
            assert!(
                bound(m.name) <= bound("setup_s"),
                "setup_s has the largest bound"
            );
        }
    }

    /// The `[profile.release]` table of the manifest at `path`, one
    /// setting per line, comments and blank lines dropped.
    fn release_profile(path: &str) -> String {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        text.lines()
            .map(str::trim)
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn release_profile_matches_the_repository_manifest() {
        let ours = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        let root = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
        assert!(
            !root.is_empty(),
            "the repository manifest has a release profile"
        );
        assert_eq!(
            ours, root,
            "the benchmark builds the program as the repository ships it"
        );
    }

    #[test]
    fn every_workload_passes_the_gate_at_tiny_size() {
        for trace in [false, true] {
            for name in WORKLOADS {
                let (report, trace_json) = run_workload(name, &tiny(trace), Scale::Tiny)
                    .unwrap_or_else(|e| panic!("{name} (trace {trace}): {e}"));
                let line = report.json().unwrap_or_else(|e| panic!("{name}: {e}"));
                let v = serde_json::from_str(&line).expect("the result line is JSON");
                assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
                assert!(v.get("attempted").and_then(|a| a.as_u64()).unwrap() >= 1);
                assert_eq!(v.get("failed").and_then(|f| f.as_u64()), Some(0), "{name}");
                let emitted: Vec<&str> = v
                    .get("metrics")
                    .and_then(|m| m.as_object())
                    .expect("metrics")
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                let key = if trace { "per_layer" } else { "end_to_end" };
                assert_eq!(emitted, names(&benchmark_json(), key), "{name}");
                assert_eq!(trace_json.is_some(), trace);
            }
        }
    }

    #[test]
    fn a_failing_audit_exits_non_zero_without_a_result() {
        let (mut w, _) = single::Dense::setup(3, Scale::Tiny).unwrap();
        w.plant_dangling_capability();
        let gate = w.gate();
        assert!(
            gate.as_ref().is_err_and(|e| e.contains("audit")),
            "{gate:?}"
        );
        assert_eq!(finish(gate.map(|()| String::new())), ExitCode::FAILURE);
        assert_eq!(finish(Ok("{}".into())), ExitCode::SUCCESS);
    }

    #[test]
    fn a_report_missing_a_metric_is_an_error() {
        let mut r = Report::new(false, 1, 0);
        r.set("revoke_time_frac", 0.5, "");
        // A per-layer metric has no place in an untraced report.
        r.set("ops_per_s", 1.0, "");
        assert!(r.json().is_err_and(|e| e.contains("setup_s")));
        r.set("setup_s", 0.1, "");
        let line = r.json().unwrap();
        assert!(
            line.contains("revoke_time_frac") && !line.contains("ops_per_s"),
            "{line}"
        );
    }

    #[test]
    fn set_knob_variables_are_refused_by_name() {
        assert!(refused_env(|_| false).is_empty());
        let refused = refused_env(|v| v == "CHERIVOKE_KERNEL" || v == "CHERIVOKE_JOURNAL");
        assert_eq!(refused, ["CHERIVOKE_KERNEL", "CHERIVOKE_JOURNAL"]);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse(&args(
            "--workload dense-sweep --seed 9 --seconds 2 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("dense-sweep"));
        assert_eq!((o.seed, o.seconds, o.trace), (9, 2.0, true));
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--bogus 1")).is_err());
    }
}
