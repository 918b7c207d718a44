//! Repo automation (`cargo xtask …`), in the cargo-xtask idiom: plain
//! Rust instead of CI-embedded shell/Python, so every CI verdict can be
//! reproduced locally with the same command CI runs.
//!
//! Subcommands:
//!
//! * `cargo xtask lab` — the scalability lab (DESIGN.md §16): runs the
//!   experiment matrix (`bench::lab`) in-process, writes
//!   `BENCH_trajectory.json` at the repo root, and with `--gate` diffs it
//!   against the committed baseline, failing on regression beyond the
//!   per-metric thresholds of `gate::default_policies`.
//! * `cargo xtask results` — regenerates the deterministic
//!   `results/*.txt` captures; `--check` fails on drift.

mod gate;
mod results;
mod trajectory;

use bench::fleet::{run_fleet_cell, FleetParams};
use bench::lab::{run_experiment, ExperimentConfig, LabMatrix, LabOptions, FLEET_GRID};
use bench::service::{churn, ChurnParams};
use gate::{compare, default_policies};
use std::path::PathBuf;
use trajectory::{HostFingerprint, Trajectory, SCHEMA_VERSION};

const USAGE: &str = "\
usage: cargo xtask <subcommand>

  lab [--smoke|--full] [--gate] [--list] [--out PATH] [--baseline PATH]
      [--metrics-out PATH]
      Run the scalability-lab experiment matrix and write BENCH_trajectory.json.
        --smoke        CI-sized matrix and sizing (the default)
        --full         full characterisation matrix
        --gate         diff against the baseline trajectory; exit 1 on regression
        --list         print the expanded experiment matrix and exit
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
        if !["--smoke", "--full", "--gate", "--list"].contains(&s.as_str()) {
            return Err(format!("unknown flag '{s}'\n\n{USAGE}"));
        }
    }
    let full = flags.switches.iter().any(|s| s == "--full");
    if full && flags.switches.iter().any(|s| s == "--smoke") {
        return Err("--smoke and --full are mutually exclusive".into());
    }
    let mode = if full { "full" } else { "smoke" };
    let root = results::repo_root();

    let (matrix, opts) = if full {
        (LabMatrix::full(), LabOptions::full())
    } else {
        (LabMatrix::smoke(), LabOptions::smoke())
    };
    let experiments = matrix.expand();
    let fleet_cells = fleet_params(mode, &FLEET_GRID, &opts);

    if flags.switches.iter().any(|s| s == "--list") {
        println!(
            "lab matrix ({mode}): {} experiments + {} fleet cells",
            experiments.len(),
            fleet_cells.len()
        );
        for config in &experiments {
            println!("  {}", config.id());
        }
        for cell in &fleet_cells {
            println!("  {}", cell.id());
        }
        return Ok(());
    }

    let out_path = flags
        .values
        .get("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("BENCH_trajectory.json"));
    let baseline_path = flags
        .values
        .get("--baseline")
        .map(PathBuf::from)
        .unwrap_or_else(|| out_path.clone());
    // Read the baseline *before* the run overwrites the file.
    let baseline_text = std::fs::read_to_string(&baseline_path).ok();

    let trajectory = run_lab(
        mode,
        &experiments,
        &fleet_cells,
        &opts,
        flags.values.get("--metrics-out"),
    )?;
    std::fs::write(&out_path, trajectory.to_json())
        .map_err(|e| format!("write {}: {e}", out_path.display()))?;
    eprintln!(
        "lab: trajectory ({} experiments, {} verdicts) written to {}",
        trajectory.experiments.len(),
        trajectory.verdicts.len(),
        out_path.display()
    );

    if !flags.switches.iter().any(|s| s == "--gate") {
        return Ok(());
    }
    let Some(baseline_text) = baseline_text else {
        eprintln!(
            "gate: no baseline at {} — nothing to diff against; the trajectory just written \
             becomes the baseline once committed",
            baseline_path.display()
        );
        return Ok(());
    };
    let baseline = Trajectory::parse(&baseline_text)
        .map_err(|e| format!("baseline {}: {e}", baseline_path.display()))?;
    let policies = default_policies();
    let mut trajectory = trajectory;
    let mut report = compare(&baseline, &trajectory.flatten(), &policies);
    // A failing wall-clock comparison on a shared host may just be a bad
    // measurement window: confirm by re-measuring the implicated
    // experiments before believing it. Deterministic failures are final
    // and never retried.
    const GATE_RETRIES: usize = 2;
    for attempt in 1..=GATE_RETRIES {
        if report.passed() {
            break;
        }
        let ids = report.retryable_experiments();
        if ids.is_empty() {
            break;
        }
        eprintln!(
            "gate: re-measuring {} experiment(s) to confirm wall-clock regression \
             (attempt {attempt}/{GATE_RETRIES}): {}",
            ids.len(),
            ids.join(", ")
        );
        for id in &ids {
            if let Some(pos) = trajectory.experiments.iter().position(|e| &e.id == id) {
                let fresh = run_experiment(&trajectory.experiments[pos].config.clone(), &opts)?;
                trajectory.experiments[pos]
                    .metrics
                    .merge_best(&fresh.metrics);
            } else if let Some(pos) = trajectory.fleet.iter().position(|e| &e.id == id) {
                let fresh = run_fleet_cell(&trajectory.fleet[pos].config.clone())?;
                trajectory.fleet[pos].metrics.merge_best(&fresh.metrics);
            }
        }
        std::fs::write(&out_path, trajectory.to_json())
            .map_err(|e| format!("write {}: {e}", out_path.display()))?;
        report = compare(&baseline, &trajectory.flatten(), &policies);
    }
    print!("{}", report.render());
    if report.passed() {
        Ok(())
    } else {
        Err("perf gate failed (see FAIL lines above)".into())
    }
}

/// Sizes the [`FLEET_GRID`] cells for the run: the lab seed flows
/// through, and the full mode drives each cell harder.
fn fleet_params(mode: &str, cells: &[(usize, f64, usize)], opts: &LabOptions) -> Vec<FleetParams> {
    cells
        .iter()
        .map(|&(tenants, skew, workers)| {
            let mut params = FleetParams::smoke(tenants, skew, workers);
            params.seed = opts.seed;
            if mode == "full" {
                params.ops_per_thread = 25_000;
                params.measure_repeats = opts.measure_repeats.max(1);
            }
            params
        })
        .collect()
}

/// Runs the matrix plus the acceptance-bar verdicts and assembles the
/// trajectory.
fn run_lab(
    mode: &str,
    experiments: &[ExperimentConfig],
    fleet_cells: &[FleetParams],
    opts: &LabOptions,
    metrics_out: Option<&String>,
) -> Result<Trajectory, String> {
    let total = experiments.len();
    let mut results = Vec::with_capacity(total);
    for (i, config) in experiments.iter().enumerate() {
        eprintln!("lab: [{}/{total}] {}", i + 1, config.id());
        results.push(run_experiment(config, opts)?);
    }

    let mut fleet = Vec::with_capacity(fleet_cells.len());
    for (i, params) in fleet_cells.iter().enumerate() {
        eprintln!(
            "lab: [fleet {}/{}] {}",
            i + 1,
            fleet_cells.len(),
            params.id()
        );
        fleet.push(run_fleet_cell(params)?);
    }

    // The acceptance bars CI used to compute with inline Python over
    // bench stdout, now in-process (bench::verdicts).
    eprintln!(
        "lab: verdicts (fast kernel, simd kernel, telemetry, faults, journal, recovery, snapshot)"
    );
    let mut verdicts = vec![
        bench::verdicts::fast_kernel_verdict(),
        bench::verdicts::simd_kernel_verdict(),
    ];
    let record_iters = if mode == "full" {
        50_000_000
    } else {
        10_000_000
    };
    verdicts.push(bench::verdicts::telemetry_disabled_verdict(record_iters));
    let op_ns = bench::verdicts::service_op_ns(40_000);
    verdicts.push(bench::verdicts::fault_overhead_verdict(record_iters, op_ns));
    // Crash-recovery bars: the journal must be ~free on the service hot
    // path, and the full soft-crash matrix must recover safely.
    verdicts.push(bench::verdicts::journal_overhead_verdict(40_000));
    verdicts.push(bench::verdicts::recovery_safety_verdict());
    // Telemetry-enabled churn: proves the instrumented path records real
    // traffic (the old telemetry-smoke CI job's Python assertions).
    let (_, snapshot) = churn(&ChurnParams {
        telemetry: true,
        ops_per_thread: opts.service_ops_per_thread,
        shard_mib: opts.service_shard_mib,
        ..ChurnParams::default()
    });
    let snapshot = snapshot.expect("telemetry churn returns a snapshot");
    verdicts.push(bench::verdicts::telemetry_snapshot_verdict(&snapshot));
    if !fleet.is_empty() {
        verdicts.push(bench::fleet::fleet_fairness_verdict(&fleet));
    }
    if let Some(path) = metrics_out {
        std::fs::write(path, snapshot.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("lab: metrics snapshot written to {path}");
    }
    for v in &verdicts {
        eprintln!("lab: verdict {}: {} ({})", v.name, v.status(), v.detail);
    }

    Ok(Trajectory {
        schema_version: SCHEMA_VERSION,
        mode: mode.to_string(),
        host: HostFingerprint::current(),
        experiments: results,
        fleet,
        verdicts,
    })
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
