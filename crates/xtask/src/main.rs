//! Repo automation (`cargo xtask …`), in the cargo-xtask idiom: plain
//! Rust instead of CI-embedded shell/Python, so every CI verdict can be
//! reproduced locally with the same command CI runs.
//!
//! Subcommands:
//!
//! * `cargo xtask ab --base <rev>` — the one wall-clock perf measurement
//!   (DESIGN.md §16.2): interleaved cvkbench pairs of the working tree
//!   against `<rev>`, judged by bootstrap intervals ([`ab`]).
//! * `cargo xtask lab` — the acceptance-bar verdicts (DESIGN.md §16):
//!   runs every [`bench::verdicts`] bar in-process, writes
//!   `BENCH_trajectory.json` at the repo root, and with `--gate` compares
//!   the verdicts against the committed baseline ([`gate`]).
//! * `cargo xtask results` — regenerates the deterministic
//!   `results/*.txt` captures; `--check` fails on drift.

mod ab;
mod gate;
mod results;
mod trajectory;

use bench::service::{churn, ChurnParams};
use gate::compare;
use std::path::PathBuf;
use trajectory::{HostFingerprint, Trajectory, SCHEMA_VERSION};

const USAGE: &str = "\
usage: cargo xtask <subcommand>

  ab --base REV
      Build cvkbench in the working tree and in REV (checked out in a git
      worktree under target/ab/), run 10 interleaved pairs of every
      BENCHMARK.json workload, and report medians, quartiles, wins and a
      bootstrap 95% interval of each end-to-end metric's change/base ratio
      (also written to target/ab/report.txt). Exit 1 when an interval lies
      wholly past the metric's bound, a run gives no correct result, or the
      change fails a larger share of its ops.

  lab [--gate] [--out PATH] [--baseline PATH] [--metrics-out PATH]
      Run the acceptance-bar verdicts and write BENCH_trajectory.json.
        --gate         compare the verdicts against the baseline trajectory;
                       exit 1 on a FAIL the baseline does not share, or on a
                       baseline verdict missing from the run
        --out PATH     trajectory output (default: <repo>/BENCH_trajectory.json)
        --baseline PATH  baseline to gate against (default: the committed --out file)
        --metrics-out PATH  write the telemetry churn's metrics snapshot JSON

  results [--check] [--only NAME]
      Regenerate the deterministic results/*.txt captures.
        --check        fail if committed captures drift from regenerated output
        --only NAME    restrict to one capture
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("ab") => ab_cmd(&args[1..]),
        Some("lab") => lab(&args[1..]),
        Some("results") => results_cmd(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!(
            "unknown subcommand {:?}\n\n{USAGE}",
            other.unwrap_or("<none>")
        )),
    };
    if let Err(message) = code {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}

struct Flags {
    switches: Vec<String>,
    values: std::collections::BTreeMap<String, String>,
}

/// Splits `args` into boolean switches and `--key VALUE` pairs.
fn parse_flags(args: &[String], value_flags: &[&str]) -> Result<Flags, String> {
    let mut flags = Flags {
        switches: Vec::new(),
        values: std::collections::BTreeMap::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if value_flags.contains(&arg.as_str()) {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("{arg} requires a value"))?;
            flags.values.insert(arg.clone(), value.clone());
            i += 2;
        } else if arg.starts_with("--") {
            flags.switches.push(arg.clone());
            i += 1;
        } else {
            return Err(format!("unexpected argument '{arg}'\n\n{USAGE}"));
        }
    }
    Ok(flags)
}

fn lab(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["--out", "--baseline", "--metrics-out"])?;
    for s in &flags.switches {
        if s != "--gate" {
            return Err(format!("unknown flag '{s}'\n\n{USAGE}"));
        }
    }
    let out_path = flags
        .values
        .get("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| results::repo_root().join("BENCH_trajectory.json"));
    let baseline_path = flags
        .values
        .get("--baseline")
        .map(PathBuf::from)
        .unwrap_or_else(|| out_path.clone());
    // Read the baseline *before* the run overwrites the file.
    let baseline_text = std::fs::read_to_string(&baseline_path).ok();

    let trajectory = run_lab(flags.values.get("--metrics-out"))?;
    std::fs::write(&out_path, trajectory.to_json())
        .map_err(|e| format!("write {}: {e}", out_path.display()))?;
    eprintln!(
        "lab: trajectory ({} verdicts) written to {}",
        trajectory.verdicts.len(),
        out_path.display()
    );

    if !flags.switches.iter().any(|s| s == "--gate") {
        return Ok(());
    }
    let Some(baseline_text) = baseline_text else {
        eprintln!(
            "gate: no baseline at {} — nothing to compare against; the trajectory just \
             written becomes the baseline once committed",
            baseline_path.display()
        );
        return Ok(());
    };
    let baseline = Trajectory::parse(&baseline_text)
        .map_err(|e| format!("baseline {}: {e}", baseline_path.display()))?;
    let report = compare(&baseline, &trajectory.statuses());
    print!("{}", report.render());
    if report.passed() {
        Ok(())
    } else {
        Err("lab gate failed (see FAIL lines above)".into())
    }
}

/// Runs the acceptance-bar verdicts and assembles the trajectory.
fn run_lab(metrics_out: Option<&String>) -> Result<Trajectory, String> {
    eprintln!(
        "lab: verdicts (fast kernel, simd kernel, telemetry, faults, journal, recovery, \
         snapshot, fleet, quarantine)"
    );
    let mut verdicts = vec![
        bench::verdicts::fast_kernel_verdict(),
        bench::verdicts::simd_kernel_verdict(),
    ];
    let record_iters = 10_000_000;
    verdicts.push(bench::verdicts::telemetry_disabled_verdict(record_iters));
    let op_ns = bench::verdicts::service_op_ns(40_000);
    verdicts.push(bench::verdicts::fault_overhead_verdict(record_iters, op_ns));
    // Crash-recovery bars: the journal must be ~free on the service hot
    // path, and the full soft-crash matrix must recover safely.
    verdicts.push(bench::verdicts::journal_overhead_verdict(40_000));
    verdicts.push(bench::verdicts::recovery_safety_verdict());
    // Telemetry-enabled churn: proves the instrumented path records real
    // traffic.
    let (_, snapshot) = churn(&ChurnParams {
        telemetry: true,
        ops_per_thread: 100_000,
        ..ChurnParams::default()
    });
    let snapshot = snapshot.expect("telemetry churn returns a snapshot");
    verdicts.push(bench::verdicts::telemetry_snapshot_verdict(&snapshot));
    verdicts.push(bench::fleet::fleet_fairness_verdict());
    verdicts.push(bench::verdicts::quarantine_bound_verdict());
    if let Some(path) = metrics_out {
        std::fs::write(path, snapshot.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("lab: metrics snapshot written to {path}");
    }
    for v in &verdicts {
        eprintln!(
            "lab: verdict {}: {} ({})",
            v.name,
            v.status.as_str(),
            v.detail
        );
    }

    Ok(Trajectory {
        schema_version: SCHEMA_VERSION,
        host: HostFingerprint::current(),
        verdicts,
    })
}

fn ab_cmd(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["--base"])?;
    if let Some(s) = flags.switches.first() {
        return Err(format!("unknown flag '{s}'\n\n{USAGE}"));
    }
    let base = flags
        .values
        .get("--base")
        .ok_or_else(|| format!("ab needs --base REV\n\n{USAGE}"))?;
    ab::run(&results::repo_root(), base)
}

fn results_cmd(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["--only"])?;
    for s in &flags.switches {
        if s != "--check" {
            return Err(format!("unknown flag '{s}'\n\n{USAGE}"));
        }
    }
    results::run(
        flags.switches.iter().any(|s| s == "--check"),
        flags.values.get("--only").map(String::as_str),
    )
}
