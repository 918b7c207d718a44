//! The perf-regression gate: diffs a lab run against the committed
//! baseline trajectory and decides pass/fail per metric.
//!
//! ## Gating policy (DESIGN.md §16)
//!
//! Metrics are classed two ways:
//!
//! * **Deterministic** metrics (`overhead_time`, `overhead_memory`,
//!   `quarantine_bounded`) come from the modelled fig. 5 replay — the
//!   same commit produces the same value on any machine — so they gate
//!   unconditionally, with tight thresholds.
//! * **Wall-clock** metrics (`sweep_mib_s`, `service_ops_per_sec`, pause
//!   percentiles) gate only when the baseline was recorded on a
//!   comparable host (same OS/arch/cores, [`crate::trajectory::HostFingerprint`]
//!   comparability); otherwise they are reported informationally. This is
//!   what keeps a baseline committed from a laptop from failing CI on a
//!   2-core runner while still catching regressions wherever the hosts do
//!   match.
//!
//! Verdicts ([`bench::verdicts`]) gate as booleans: a verdict that passed
//! in the baseline must still pass.

use crate::trajectory::ParsedTrajectory;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger numbers are better (throughput).
    HigherIsBetter,
    /// Smaller numbers are better (pauses, overheads).
    LowerIsBetter,
}

/// How one metric is gated.
#[derive(Debug, Clone, Copy)]
pub struct MetricPolicy {
    /// Regression tolerated before failing, in percent of the baseline.
    pub threshold_pct: f64,
    /// Comparison direction.
    pub direction: Direction,
    /// Wall-clock metric: gate only on comparable hosts.
    pub wall_clock: bool,
    /// Sibling metric recording this metric's measured noise (relative
    /// repeat spread, percent). When present in both runs, the effective
    /// threshold is raised to [`NOISE_MARGIN`] × the larger spread: a
    /// host that demonstrably cannot measure a metric to X% must not
    /// flag an X% "regression" in it.
    pub noise_metric: Option<&'static str>,
}

/// Multiplier on the observed repeat spread when it widens a threshold.
/// Between-run drift (frequency scaling, co-tenant load changing over
/// minutes) is typically larger than within-run spread, so the floor
/// gets headroom.
pub const NOISE_MARGIN: f64 = 2.0;

/// Ceiling on the noise floor. A host whose demonstrated spread needs a
/// wider bar than this cannot measure the metric at all: rather than
/// silently absorbing arbitrarily large regressions, such comparisons are
/// reported as informational with the noise called out.
pub const NOISE_CAP: f64 = 40.0;

/// The per-metric policy table. Thresholds are the 10% default except
/// where a metric's variance demands otherwise.
pub fn default_policies() -> BTreeMap<String, MetricPolicy> {
    let mut m = BTreeMap::new();
    let mut p = |name: &str, threshold_pct: f64, direction, wall_clock, noise_metric| {
        m.insert(
            name.to_string(),
            MetricPolicy {
                threshold_pct,
                direction,
                wall_clock,
                noise_metric,
            },
        );
    };
    p(
        "sweep_mib_s",
        10.0,
        Direction::HigherIsBetter,
        true,
        Some("sweep_noise_pct"),
    );
    p(
        "service_ops_per_sec",
        10.0,
        Direction::HigherIsBetter,
        true,
        Some("service_noise_pct"),
    );
    // Pause percentiles are log2-bucketed, so adjacent buckets differ 2×:
    // anything under a full bucket step is quantisation, not regression.
    p("p50_pause_us", 120.0, Direction::LowerIsBetter, true, None);
    p("p99_pause_us", 120.0, Direction::LowerIsBetter, true, None);
    // Deterministic model outputs: a 2% drift in normalised time is a
    // real policy change, not noise.
    p("overhead_time", 2.0, Direction::LowerIsBetter, false, None);
    p(
        "overhead_memory",
        2.0,
        Direction::LowerIsBetter,
        false,
        None,
    );
    p(
        "quarantine_bounded",
        0.0,
        Direction::HigherIsBetter,
        false,
        None,
    );
    // The CapDirty probe's visited fraction is pure counting —
    // zero tolerance, like the other deterministic metrics.
    p("swept_fraction", 0.0, Direction::LowerIsBetter, false, None);
    // Fleet cells (`bench::lab::FLEET_GRID`): aggregate throughput and pause tail
    // are wall-clock; budget boundedness is enforced synchronously by
    // admission control, so it is deterministic and gates at zero drift.
    p(
        "fleet_ops_per_sec",
        10.0,
        Direction::HigherIsBetter,
        true,
        Some("fleet_noise_pct"),
    );
    // Fleet sweep slices are tens of µs and contention-scheduled, so the
    // log2-bucketed p99 jitters a couple of buckets run to run; only an
    // order-of-magnitude blowup is a regression (the hard bound is the
    // fleet_fairness verdict's 5 ms pause bar).
    p(
        "fleet_p99_pause_us",
        700.0,
        Direction::LowerIsBetter,
        true,
        None,
    );
    p(
        "tenant_budget_bounded",
        0.0,
        Direction::HigherIsBetter,
        false,
        None,
    );
    m
}

/// Severity of one gate check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Within threshold (or improved).
    Pass,
    /// Wall-clock delta on a non-comparable host — reported, not gated.
    Info,
    /// Beyond threshold, or a structural problem: fails the gate.
    Fail,
}

/// One comparison the gate made.
#[derive(Debug, Clone)]
pub struct Check {
    /// `experiment id :: metric` (or `verdict :: name`).
    pub subject: String,
    /// What happened.
    pub outcome: Outcome,
    /// Human-readable delta line.
    pub detail: String,
    /// The experiment this check belongs to (`None` for verdict checks).
    pub experiment_id: Option<String>,
    /// Whether this is a wall-clock metric comparison. A failing
    /// wall-clock check is worth re-measuring before believing — the
    /// driver re-runs the experiment to confirm; deterministic failures
    /// are final.
    pub wall_clock: bool,
}

/// The full gate result.
#[derive(Debug)]
pub struct GateReport {
    /// Every comparison, in baseline order.
    pub checks: Vec<Check>,
    /// Context lines (missing baseline, host mismatch, new experiments).
    pub notes: Vec<String>,
}

impl GateReport {
    /// Whether the gate passes (no `Fail` outcome).
    pub fn passed(&self) -> bool {
        !self.checks.iter().any(|c| c.outcome == Outcome::Fail)
    }

    /// When *every* failure is a wall-clock metric comparison, the ids
    /// of the implicated experiments (deduplicated, in order) — the set
    /// worth re-measuring before believing the failure. Empty when the
    /// gate passed or any failure is structural/deterministic (those are
    /// final; re-running would not change them).
    pub fn retryable_experiments(&self) -> Vec<String> {
        let mut ids: Vec<String> = Vec::new();
        for c in &self.checks {
            if c.outcome != Outcome::Fail {
                continue;
            }
            let Some(id) = c.experiment_id.as_ref().filter(|_| c.wall_clock) else {
                return Vec::new();
            };
            if !ids.contains(id) {
                ids.push(id.clone());
            }
        }
        ids
    }

    /// Renders the report for CI logs: notes, then failures, then a
    /// one-line summary. Passing checks are summarised, not listed.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        let mut counts = (0usize, 0usize, 0usize);
        for c in &self.checks {
            match c.outcome {
                Outcome::Pass => counts.0 += 1,
                Outcome::Info => counts.1 += 1,
                Outcome::Fail => counts.2 += 1,
            }
            if c.outcome != Outcome::Pass {
                let tag = if c.outcome == Outcome::Fail {
                    "FAIL"
                } else {
                    "info"
                };
                let _ = writeln!(out, "{tag}: {} — {}", c.subject, c.detail);
            }
        }
        let _ = writeln!(
            out,
            "gate: {} checks pass, {} informational, {} failing → {}",
            counts.0,
            counts.1,
            counts.2,
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Percentage change of `current` vs `baseline` in the *regression*
/// direction: positive = got worse, negative = improved.
pub fn regression_pct(baseline: f64, current: f64, direction: Direction) -> f64 {
    if baseline == 0.0 {
        // No meaningful relative change; treat any nonzero current as a
        // full-scale move in whichever direction it is.
        let moved = match direction {
            Direction::HigherIsBetter => -current.signum(),
            Direction::LowerIsBetter => current.signum(),
        };
        return if current == 0.0 { 0.0 } else { moved * 100.0 };
    }
    let change = (current - baseline) / baseline * 100.0;
    match direction {
        Direction::HigherIsBetter => -change,
        Direction::LowerIsBetter => change,
    }
}

/// Diffs `current` against `baseline` under `policies`.
///
/// Structural rules: an experiment present in the baseline but missing
/// from the current run **fails** when both runs used the same mode (a
/// shrunken matrix could otherwise hide a regression); new experiments
/// and metrics are noted and pass. A verdict that passed in the baseline
/// and fails now is a failure even without thresholds.
pub fn compare(
    baseline: &ParsedTrajectory,
    current: &ParsedTrajectory,
    policies: &BTreeMap<String, MetricPolicy>,
) -> GateReport {
    let mut checks = Vec::new();
    let mut notes = Vec::new();

    let hosts_comparable = baseline.host.comparable_to(&current.host);
    if !hosts_comparable {
        notes.push(format!(
            "baseline host ({}/{}/{} cores) differs from this host ({}/{}/{} cores): \
             wall-clock metrics are informational only",
            baseline.host.os,
            baseline.host.arch,
            baseline.host.cores,
            current.host.os,
            current.host.arch,
            current.host.cores
        ));
    }
    let same_mode = baseline.mode == current.mode;
    if !same_mode {
        notes.push(format!(
            "baseline mode '{}' differs from current mode '{}': only shared experiments compare",
            baseline.mode, current.mode
        ));
    }

    for (id, base_metrics) in &baseline.metrics {
        let Some(cur_metrics) = current.metrics.get(id) else {
            if same_mode {
                checks.push(Check {
                    subject: id.clone(),
                    outcome: Outcome::Fail,
                    detail: "experiment present in baseline but missing from this run".into(),
                    experiment_id: Some(id.clone()),
                    wall_clock: false,
                });
            } else {
                notes.push(format!("experiment '{id}' not in this run's matrix"));
            }
            continue;
        };
        for (metric, &base) in base_metrics {
            let Some(policy) = policies.get(metric) else {
                continue; // un-gated metric (informational fields)
            };
            let Some(&cur) = cur_metrics.get(metric) else {
                checks.push(Check {
                    subject: format!("{id} :: {metric}"),
                    outcome: Outcome::Fail,
                    detail: "metric present in baseline but missing from this run".into(),
                    experiment_id: Some(id.clone()),
                    wall_clock: false,
                });
                continue;
            };
            let reg = regression_pct(base, cur, policy.direction);
            // Noise floor: both runs recorded how repeatable this metric
            // was on their host; the gate cannot resolve regressions
            // finer than that.
            let noise_floor = policy.noise_metric.map_or(0.0, |noise| {
                let b = base_metrics.get(noise).copied().unwrap_or(0.0);
                let c = cur_metrics.get(noise).copied().unwrap_or(0.0);
                NOISE_MARGIN * b.max(c)
            });
            let unmeasurable = noise_floor > NOISE_CAP;
            let threshold = policy.threshold_pct.max(noise_floor.min(NOISE_CAP));
            let regressed = reg > threshold;
            let outcome = if !regressed {
                Outcome::Pass
            } else if policy.wall_clock && !hosts_comparable {
                Outcome::Info
            } else if unmeasurable {
                // The repeats spread so far that no delta in this metric
                // is credible on this host; surface it, don't gate on it.
                Outcome::Info
            } else {
                Outcome::Fail
            };
            let raw_change = if base == 0.0 {
                0.0
            } else {
                (cur - base) / base * 100.0
            };
            let threshold_src = if unmeasurable {
                " (noise-limited host: spread exceeds the gateable cap)"
            } else if threshold > policy.threshold_pct {
                " (noise floor)"
            } else {
                ""
            };
            checks.push(Check {
                subject: format!("{id} :: {metric}"),
                outcome,
                detail: format!(
                    "baseline {base:.3}, current {cur:.3} ({raw_change:+.1}%, {} — threshold {threshold:.1}%{threshold_src})",
                    if reg > 0.0 { "worse" } else { "better or equal" },
                ),
                experiment_id: Some(id.clone()),
                wall_clock: policy.wall_clock,
            });
        }
    }
    let new: Vec<&String> = current
        .metrics
        .keys()
        .filter(|id| !baseline.metrics.contains_key(*id))
        .collect();
    if !new.is_empty() {
        notes.push(format!(
            "{} new experiment(s) with no baseline: {}",
            new.len(),
            new.iter()
                .map(|id| id.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }

    for (name, &base_pass) in &baseline.verdicts {
        match current.verdicts.get(name) {
            None => checks.push(Check {
                subject: format!("verdict :: {name}"),
                outcome: Outcome::Fail,
                detail: "verdict present in baseline but missing from this run".into(),
                experiment_id: None,
                wall_clock: false,
            }),
            Some(&cur_pass) => checks.push(Check {
                subject: format!("verdict :: {name}"),
                outcome: if base_pass && !cur_pass {
                    Outcome::Fail
                } else {
                    Outcome::Pass
                },
                detail: format!("baseline {base_pass}, current {cur_pass}"),
                experiment_id: None,
                wall_clock: false,
            }),
        }
    }

    GateReport { checks, notes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::{fixtures, Trajectory};

    fn baseline() -> ParsedTrajectory {
        fixtures::trajectory(vec![
            fixtures::experiment("a", 1000.0, 2_000_000.0),
            fixtures::experiment("b", 500.0, 1_000_000.0),
        ])
        .flatten()
    }

    #[test]
    fn threshold_math() {
        use Direction::*;
        // Throughput dropping is a regression; rising is an improvement.
        assert_eq!(regression_pct(100.0, 80.0, HigherIsBetter), 20.0);
        assert_eq!(regression_pct(100.0, 120.0, HigherIsBetter), -20.0);
        // Pauses rising is a regression.
        assert_eq!(regression_pct(100.0, 120.0, LowerIsBetter), 20.0);
        assert_eq!(regression_pct(100.0, 80.0, LowerIsBetter), -20.0);
        // Zero baselines cannot divide; any move is full-scale.
        assert_eq!(regression_pct(0.0, 5.0, LowerIsBetter), 100.0);
        assert_eq!(regression_pct(0.0, 5.0, HigherIsBetter), -100.0);
        assert_eq!(regression_pct(0.0, 0.0, LowerIsBetter), 0.0);
    }

    #[test]
    fn identical_runs_pass() {
        let report = compare(&baseline(), &baseline(), &default_policies());
        assert!(report.passed(), "{}", report.render());
        assert!(report.checks.iter().all(|c| c.outcome == Outcome::Pass));
    }

    #[test]
    fn synthetic_20pct_throughput_regression_fails_the_gate() {
        // The ISSUE acceptance fixture: drop one experiment's sweep
        // throughput 20% below baseline; the 10% threshold must fire.
        let mut current = fixtures::trajectory(vec![
            fixtures::experiment("a", 800.0, 2_000_000.0),
            fixtures::experiment("b", 500.0, 1_000_000.0),
        ])
        .flatten();
        current.host = baseline().host; // same host: wall-clock gates hard
        let report = compare(&baseline(), &current, &default_policies());
        assert!(!report.passed(), "{}", report.render());
        let failing: Vec<&Check> = report
            .checks
            .iter()
            .filter(|c| c.outcome == Outcome::Fail)
            .collect();
        assert_eq!(failing.len(), 1, "{}", report.render());
        assert_eq!(failing[0].subject, "wl-a/fast/w4/off :: sweep_mib_s");
        assert!(
            failing[0].detail.contains("-20.0%"),
            "{}",
            failing[0].detail
        );
    }

    #[test]
    fn noise_floor_widens_wall_clock_thresholds() {
        // Same 20% sweep drop as the acceptance fixture, but this time
        // the run recorded that sweep rate only repeats to within 15% on
        // this host: 2× 15% = 30% effective threshold, so the drop is
        // indistinguishable from noise and must not fail.
        let mut noisy_base = fixtures::experiment("a", 1000.0, 2_000_000.0);
        noisy_base.metrics.sweep_noise_pct = 15.0;
        let baseline = fixtures::trajectory(vec![noisy_base]).flatten();
        let mut dropped = fixtures::experiment("a", 800.0, 2_000_000.0);
        dropped.metrics.sweep_noise_pct = 15.0;
        let current = fixtures::trajectory(vec![dropped]).flatten();
        let report = compare(&baseline, &current, &default_policies());
        assert!(report.passed(), "{}", report.render());
        // A drop beyond the widened threshold still fails.
        let mut collapsed = fixtures::experiment("a", 600.0, 2_000_000.0);
        collapsed.metrics.sweep_noise_pct = 15.0;
        let current = fixtures::trajectory(vec![collapsed]).flatten();
        let report = compare(&baseline, &current, &default_policies());
        assert!(!report.passed(), "{}", report.render());
        let fail = report
            .checks
            .iter()
            .find(|c| c.outcome == Outcome::Fail)
            .expect("one failure");
        assert!(fail.detail.contains("noise floor"), "{}", fail.detail);
    }

    #[test]
    fn hopelessly_noisy_metrics_report_info_instead_of_gating() {
        // Spread so wide the floor passes NOISE_CAP: a 60% drop can't be
        // distinguished from measurement noise, but it must not vanish —
        // it reports as informational, and the gate still passes.
        let mut noisy_base = fixtures::experiment("a", 1000.0, 2_000_000.0);
        noisy_base.metrics.sweep_noise_pct = 30.0; // 2x30 = 60 > cap
        let baseline = fixtures::trajectory(vec![noisy_base]).flatten();
        let mut dropped = fixtures::experiment("a", 400.0, 2_000_000.0);
        dropped.metrics.sweep_noise_pct = 30.0;
        let current = fixtures::trajectory(vec![dropped]).flatten();
        let report = compare(&baseline, &current, &default_policies());
        assert!(report.passed(), "{}", report.render());
        let info = report
            .checks
            .iter()
            .find(|c| c.outcome == Outcome::Info)
            .expect("one info check");
        assert!(info.subject.contains("sweep_mib_s"), "{}", info.subject);
        assert!(info.detail.contains("noise-limited"), "{}", info.detail);
    }

    #[test]
    fn wall_clock_regressions_downgrade_to_info_on_different_hosts() {
        let mut current = fixtures::trajectory(vec![
            fixtures::experiment("a", 800.0, 2_000_000.0),
            fixtures::experiment("b", 500.0, 1_000_000.0),
        ])
        .flatten();
        current.host.cores = 2; // CI runner, laptop baseline
        let report = compare(&baseline(), &current, &default_policies());
        assert!(report.passed(), "{}", report.render());
        assert!(report
            .checks
            .iter()
            .any(|c| c.outcome == Outcome::Info && c.subject.contains("sweep_mib_s")));
    }

    #[test]
    fn deterministic_regressions_gate_regardless_of_host() {
        let mut worse = fixtures::experiment("a", 1000.0, 2_000_000.0);
        worse.metrics.overhead_time = 1.09; // > 2% above the 1.05 baseline
        let mut current =
            fixtures::trajectory(vec![worse, fixtures::experiment("b", 500.0, 1_000_000.0)])
                .flatten();
        current.host.cores = 2;
        let report = compare(&baseline(), &current, &default_policies());
        assert!(!report.passed(), "{}", report.render());
    }

    #[test]
    fn missing_experiment_fails_same_mode_but_notes_cross_mode() {
        let mut current =
            fixtures::trajectory(vec![fixtures::experiment("a", 1000.0, 2_000_000.0)]).flatten();
        let report = compare(&baseline(), &current, &default_policies());
        assert!(!report.passed());
        current.mode = "full".into();
        let report = compare(&baseline(), &current, &default_policies());
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn verdict_flips_fail() {
        let mut t = fixtures::trajectory(vec![fixtures::experiment("a", 1.0, 1.0)]);
        t.verdicts[0].pass = false;
        let current = t.flatten();
        let report = compare(&baseline(), &current, &default_policies());
        assert!(!report.passed());
        assert!(report
            .checks
            .iter()
            .any(|c| c.subject == "verdict :: fast_kernel" && c.outcome == Outcome::Fail));
    }

    #[test]
    fn gate_round_trips_through_disk_format() {
        // End-to-end fixture: render → parse → compare, as the CLI does.
        let base = fixtures::trajectory(vec![fixtures::experiment("a", 1000.0, 2_000_000.0)]);
        let parsed = Trajectory::parse(&base.to_json()).expect("parses");
        let report = compare(&parsed, &base.flatten(), &default_policies());
        assert!(report.passed(), "{}", report.render());
    }
}
