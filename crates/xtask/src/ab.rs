//! `cargo xtask ab --base <rev>`: the repository's one wall-clock
//! performance measurement.
//!
//! It checks `<rev>` out in a `git worktree` under `target/ab/`, builds
//! both trees' cvkbench offline, and runs [`PAIRS`] interleaved pairs of
//! every `BENCHMARK.json` workload with that file's `command` and
//! `run_seconds`, alternating which side goes first. For each
//! end-to-end metric and workload it reports both sides' medians and
//! quartiles, the change's wins, and the bootstrap 95% interval of the
//! change/base ratio ([`bench::paired`]). It fails only when a whole
//! interval lies past the metric's `bound`, when a run gives no result
//! line or `correct: false`, or when the change fails a larger share of
//! its operations. The report goes to stdout and to [`REPORT`].

use bench::paired::{Better, Paired, Status};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Interleaved pairs per workload.
pub const PAIRS: usize = 10;

/// Where the report is written, relative to the repository root.
pub const REPORT: &str = "target/ab/report.txt";

/// What `BENCHMARK.json` declares.
struct Spec {
    command: Vec<String>,
    run_seconds: f64,
    workloads: Vec<String>,
    /// End-to-end metrics: name, direction, relative bound.
    metrics: Vec<(String, Better, f64)>,
}

fn read_spec(root: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let bad = |what: &str| format!("BENCHMARK.json: bad or missing {what}");
    let list = |key: &str| v.get(key).and_then(Value::as_array).ok_or(bad(key));
    let str_of = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);
    let mut metrics = Vec::new();
    for m in list("end_to_end")? {
        let better = match m.get("better").and_then(Value::as_str) {
            Some("lower") => Better::Lower,
            Some("higher") => Better::Higher,
            _ => return Err(bad("better")),
        };
        let bound = m.get("bound").and_then(Value::as_f64).ok_or(bad("bound"))?;
        metrics.push((str_of(m, "name").ok_or(bad("name"))?, better, bound));
    }
    Ok(Spec {
        command: list("command")?
            .iter()
            .map(|c| c.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()
            .filter(|c| !c.is_empty())
            .ok_or(bad("command"))?,
        run_seconds: v
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or(bad("run_seconds"))?,
        workloads: list("workloads")?
            .iter()
            .map(|w| str_of(w, "name"))
            .collect::<Option<_>>()
            .ok_or(bad("workload name"))?,
        metrics,
    })
}

/// One cvkbench run's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric name -> value.
    pub metrics: BTreeMap<String, f64>,
}

/// Reads a cvkbench run's standard output, whose last line must be its
/// JSON result with `correct: true`.
///
/// # Errors
///
/// Names what is missing or wrong.
pub fn parse_result(stdout: &str) -> Result<RunResult, String> {
    let last = stdout.lines().last().unwrap_or_default();
    let v: Value = serde_json::from_str(last).map_err(|_| "no result line".to_string())?;
    if v.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err("result line is not correct: true".into());
    }
    let count = |key: &str| {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or(format!("result line has no {key}"))
    };
    let metrics = v
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(RunResult {
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// Failed operations as a share of those attempted, over `runs`.
pub fn failed_share(runs: &[RunResult]) -> f64 {
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    failed as f64 / attempted.max(1) as f64
}

fn git(root: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .args(args)
        .current_dir(root)
        .output()
        .map_err(|e| format!("git: {e}"))?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        return Err(format!("git {}: {}", args.join(" "), err.trim()));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The checked-out base tree (repository root, worktree path). Dropping
/// it removes the worktree, so no exit path, a panic included, leaves it
/// registered.
struct Worktree<'a>(&'a Path, String);

impl Drop for Worktree<'_> {
    fn drop(&mut self) {
        let _ = git(self.0, &["worktree", "remove", "--force", &self.1]);
    }
}

/// One side of the comparison: its name, its tree, and the target
/// directory its cvkbench builds into (`None`: the tree's own).
type Side<'a> = (&'static str, &'a Path, Option<PathBuf>);

/// `program` run in `side`'s tree, building into its target directory.
fn in_tree(side: &Side, program: &str) -> Command {
    let mut cmd = Command::new(program);
    cmd.current_dir(side.1);
    if let Some(target) = &side.2 {
        cmd.env("CARGO_TARGET_DIR", target);
    }
    cmd
}

/// One run of `workload` on `side`, by `BENCHMARK.json`'s command.
fn run_once(spec: &Spec, side: &Side, workload: &str) -> Result<RunResult, String> {
    let out = in_tree(side, &spec.command[0])
        .args(&spec.command[1..])
        .args(["--workload", workload])
        .args(["--seconds", &spec.run_seconds.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", spec.command[0]))?;
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    parse_result(&String::from_utf8_lossy(&out.stdout))
}

/// Runs the A/B comparison of the working tree at `root` against `base`.
///
/// # Errors
///
/// Fails when either side cannot be checked out or built, or when the
/// comparison finds a regression (the report names each one).
pub fn run(root: &Path, base: &str) -> Result<(), String> {
    let started = Instant::now();
    let spec = read_spec(root)?;
    let rev = git(
        root,
        &["rev-parse", "--verify", &format!("{base}^{{commit}}")],
    )?;
    let dir = root.join("target/ab");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    // A worktree left by an interrupted run is replaced.
    let tree = dir.join("base");
    let tree_arg = tree.display().to_string();
    let _ = git(root, &["worktree", "remove", "--force", &tree_arg]);
    git(root, &["worktree", "add", "--detach", &tree_arg, &rev])?;
    let worktree = Worktree(root, tree_arg);
    let sides: [Side; 2] = [
        ("base", &tree, Some(dir.join("base-target"))),
        ("change", root, None),
    ];
    for side in &sides {
        eprintln!("ab: building the {} tree's cvkbench", side.0);
        let built = in_tree(side, "cargo")
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["--manifest-path", "cvkbench/Cargo.toml"])
            .status()
            .is_ok_and(|s| s.success());
        if !built {
            return Err(format!("building the {} tree's cvkbench failed", side.0));
        }
    }

    // runs[workload][side]: the results, in pair order.
    let mut runs: Vec<[Vec<RunResult>; 2]> = vec![Default::default(); spec.workloads.len()];
    let mut failures = Vec::new();
    for pair in 0..PAIRS {
        for (w, workload) in spec.workloads.iter().enumerate() {
            let order = if (pair + w) % 2 == 0 { [0, 1] } else { [1, 0] };
            for s in order {
                let side = sides[s].0;
                eprintln!("ab: pair {}/{PAIRS} {workload} {side}", pair + 1);
                match run_once(&spec, &sides[s], workload) {
                    Ok(r) => runs[w][s].push(r),
                    Err(e) => failures.push(format!(
                        "{workload}: {side} run {} gave no result ({e})",
                        pair + 1
                    )),
                }
            }
        }
    }
    drop(worktree);

    let mut report = format!(
        "ab: base {rev} vs the working tree, {PAIRS} pairs of {} s runs per workload\n\
         workload       metric                  base median [q1, q3]     change median [q1, q3]  wins  ratio     95% interval bound  status\n",
        spec.run_seconds
    );
    for (workload, ok) in spec.workloads.iter().zip(&runs) {
        if ok.iter().any(|side| side.len() < PAIRS) {
            continue;
        }
        let (base_share, change_share) = (failed_share(&ok[0]), failed_share(&ok[1]));
        if change_share > base_share {
            failures.push(format!(
                "{workload}: the change failed {change_share:.2e} of its ops, the base {base_share:.2e}"
            ));
        }
        for (metric, better, bound) in &spec.metrics {
            let values = |runs: &[RunResult]| -> Option<Vec<f64>> {
                runs.iter()
                    .map(|r| r.metrics.get(metric).copied())
                    .collect()
            };
            let (Some(b), Some(c)) = (values(&ok[0]), values(&ok[1])) else {
                failures.push(format!("{workload}: a run reported no {metric}"));
                continue;
            };
            let p = Paired::new(&b, &c, *better);
            let limit = match better {
                Better::Lower => 1.0 + bound,
                Better::Higher => 1.0 - bound,
            };
            let status = p.against(limit, *better);
            let _ = writeln!(
                report,
                "{workload:<14} {metric:<17} {:>26} {:>26} {:>2}/{PAIRS} {:>6.3} {:>16} {limit:>5.2}  {}",
                format!("{:.4} [{:.4}, {:.4}]", p.base.1, p.base.0, p.base.2),
                format!("{:.4} [{:.4}, {:.4}]", p.change.1, p.change.0, p.change.2),
                p.wins,
                p.ratio,
                format!("[{:.3}, {:.3}]", p.interval.0, p.interval.1),
                status.as_str()
            );
            if status == Status::Fail {
                failures.push(format!(
                    "{workload} :: {metric}: the whole interval lies past the {limit:.2} bound"
                ));
            }
        }
    }
    for f in &failures {
        let _ = writeln!(report, "FAIL: {f}");
    }
    let _ = writeln!(
        report,
        "ab: wall time {:.0} s → {}",
        started.elapsed().as_secs_f64(),
        if failures.is_empty() { "PASS" } else { "FAIL" }
    );
    print!("{report}");
    std::fs::write(root.join(REPORT), &report).map_err(|e| format!("write {REPORT}: {e}"))?;
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "ab found {} failure(s) (see FAIL lines above)",
            failures.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"revoke_time_frac": {"value": 0.25, "unit": "fraction"}, "setup_s": {"value": 0.5, "unit": "s"}}}"#;

    #[test]
    fn result_line_is_the_last_line() {
        let r = parse_result(&format!(
            "cvkbench xalanc-replay seed=42\n  resolved x\n{LINE}\n"
        ))
        .unwrap();
        assert_eq!((r.attempted, r.failed), (1000, 0));
        assert_eq!(r.metrics["revoke_time_frac"], 0.25);
        assert_eq!(r.metrics["setup_s"], 0.5);
    }

    #[test]
    fn missing_result_line_is_an_error() {
        assert_eq!(parse_result("").unwrap_err(), "no result line");
        // A run that died after its progress lines printed no result.
        let cut = "cvkbench dense-sweep seed=42\n  resolved kernel=simd\n";
        assert_eq!(parse_result(cut).unwrap_err(), "no result line");
        // The result must be the last line, not any line.
        assert!(parse_result(&format!("{LINE}\ntrailing")).is_err());
    }

    #[test]
    fn incorrect_result_is_an_error() {
        let wrong = LINE.replace("\"correct\": true", "\"correct\": false");
        assert!(parse_result(&wrong).unwrap_err().contains("correct"));
        let absent = LINE.replace("\"correct\": true, ", "");
        assert!(parse_result(&absent).is_err());
    }

    #[test]
    fn failed_share_pools_runs() {
        let run = |attempted, failed| RunResult {
            attempted,
            failed,
            metrics: BTreeMap::new(),
        };
        assert_eq!(failed_share(&[run(1000, 0), run(1000, 0)]), 0.0);
        assert_eq!(failed_share(&[run(900, 3), run(100, 7)]), 0.01);
        assert_eq!(failed_share(&[]), 0.0);
    }

    #[test]
    fn benchmark_json_declares_a_runnable_spec() {
        let spec = read_spec(&crate::results::repo_root()).expect("BENCHMARK.json parses");
        assert_eq!(spec.command[0], "cargo");
        assert!(spec.run_seconds > 0.0);
        assert!(spec.workloads.contains(&"fleet-zipf".to_string()));
        assert!(spec
            .metrics
            .iter()
            .any(|(name, better, bound)| name == "revoke_time_frac"
                && *better == Better::Lower
                && *bound > 0.0));
    }
}
