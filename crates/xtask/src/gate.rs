//! The lab gate: diffs a lab run against the committed baseline
//! trajectory and decides pass/fail per metric.
//!
//! ## Gating policy (DESIGN.md §16)
//!
//! The lab records only what is deterministic or an invariant, so every
//! metric here gates on any host, with tight thresholds:
//!
//! * the modelled fig. 5 replay (`overhead_time`, `overhead_memory`) —
//!   the same commit produces the same value on any machine;
//! * the CapDirty probe's `swept_fraction` (pure counts);
//! * the invariants `quarantine_bounded` and `tenant_budget_bounded`.
//!
//! Verdicts ([`bench::verdicts`]) gate on their status: a verdict that
//! reads FAIL fails the gate unless the baseline already read FAIL. An
//! UNRESOLVED wall-clock verdict is reported as such and does not fail
//! it. Wall-clock speed is not the lab's to judge: `cargo xtask ab`
//! measures it in paired runs against a base revision.

use crate::trajectory::ParsedTrajectory;
use bench::paired::Better;
use bench::verdicts::Status;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How one metric is gated.
#[derive(Debug, Clone, Copy)]
pub struct MetricPolicy {
    /// Regression tolerated before failing, in percent of the baseline.
    pub threshold_pct: f64,
    /// Comparison direction.
    pub direction: Better,
}

/// The per-metric policy table.
pub fn default_policies() -> BTreeMap<String, MetricPolicy> {
    let policy = |threshold_pct, direction| MetricPolicy {
        threshold_pct,
        direction,
    };
    BTreeMap::from([
        // Deterministic model outputs: a 2% drift in normalised time is a
        // real policy change, not noise.
        ("overhead_time".to_string(), policy(2.0, Better::Lower)),
        ("overhead_memory".to_string(), policy(2.0, Better::Lower)),
        // Pure counts and invariants: zero tolerance.
        ("swept_fraction".to_string(), policy(0.0, Better::Lower)),
        (
            "quarantine_bounded".to_string(),
            policy(0.0, Better::Higher),
        ),
        (
            "tenant_budget_bounded".to_string(),
            policy(0.0, Better::Higher),
        ),
    ])
}

/// One comparison the gate made.
#[derive(Debug, Clone)]
pub struct Check {
    /// `experiment id :: metric` (or `verdict :: name`).
    pub subject: String,
    /// What happened: FAIL fails the gate; UNRESOLVED (a wall-clock
    /// verdict straddling its bar) is reported, never passed or failed.
    pub outcome: Status,
    /// Human-readable delta line.
    pub detail: String,
}

/// The full gate result.
#[derive(Debug)]
pub struct GateReport {
    /// Every comparison, in baseline order.
    pub checks: Vec<Check>,
    /// Context lines (missing baseline, new experiments).
    pub notes: Vec<String>,
}

impl GateReport {
    /// Whether the gate passes (no `Fail` outcome).
    pub fn passed(&self) -> bool {
        !self.checks.iter().any(|c| c.outcome == Status::Fail)
    }

    /// Renders the report for CI logs: notes, then unresolved and failing
    /// checks, then a one-line summary. Passing checks are summarised,
    /// not listed.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        let mut counts = [0usize; 3];
        for c in &self.checks {
            counts[c.outcome as usize] += 1;
            if c.outcome != Status::Pass {
                let _ = writeln!(out, "{}: {} — {}", c.outcome.as_str(), c.subject, c.detail);
            }
        }
        let _ = writeln!(
            out,
            "gate: {} checks pass, {} unresolved, {} failing → {}",
            counts[0],
            counts[1],
            counts[2],
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Percentage change of `current` vs `baseline` in the *regression*
/// direction: positive = got worse, negative = improved.
pub fn regression_pct(baseline: f64, current: f64, direction: Better) -> f64 {
    if baseline == 0.0 {
        // No meaningful relative change; treat any nonzero current as a
        // full-scale move in whichever direction it is.
        let moved = match direction {
            Better::Higher => -current.signum(),
            Better::Lower => current.signum(),
        };
        return if current == 0.0 { 0.0 } else { moved * 100.0 };
    }
    let change = (current - baseline) / baseline * 100.0;
    match direction {
        Better::Higher => -change,
        Better::Lower => change,
    }
}

/// Diffs `current` against `baseline` under `policies`.
///
/// Structural rules: an experiment present in the baseline but missing
/// from the current run **fails** when both runs used the same mode (a
/// shrunken matrix could otherwise hide a regression); new experiments
/// and metrics are noted and pass. A verdict that reads FAIL now fails
/// unless the baseline read FAIL too.
pub fn compare(
    baseline: &ParsedTrajectory,
    current: &ParsedTrajectory,
    policies: &BTreeMap<String, MetricPolicy>,
) -> GateReport {
    let mut checks = Vec::new();
    let mut notes = Vec::new();
    let mut check = |subject: String, outcome, detail: String| {
        checks.push(Check {
            subject,
            outcome,
            detail,
        })
    };

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
                check(
                    id.clone(),
                    Status::Fail,
                    "experiment present in baseline but missing from this run".into(),
                );
            } else {
                notes.push(format!("experiment '{id}' not in this run's matrix"));
            }
            continue;
        };
        for (metric, &base) in base_metrics {
            let Some(policy) = policies.get(metric) else {
                continue; // un-gated metric (informational fields)
            };
            let subject = format!("{id} :: {metric}");
            let Some(&cur) = cur_metrics.get(metric) else {
                check(
                    subject,
                    Status::Fail,
                    "metric present in baseline but missing from this run".into(),
                );
                continue;
            };
            let reg = regression_pct(base, cur, policy.direction);
            let raw_change = regression_pct(base, cur, Better::Lower);
            check(
                subject,
                Status::from_pass(reg <= policy.threshold_pct),
                format!(
                    "baseline {base:.3}, current {cur:.3} ({raw_change:+.1}%, {} — threshold {:.1}%)",
                    if reg > 0.0 { "worse" } else { "better or equal" },
                    policy.threshold_pct
                ),
            );
        }
    }
    let new: Vec<&str> = current
        .metrics
        .keys()
        .filter(|id| !baseline.metrics.contains_key(*id))
        .map(String::as_str)
        .collect();
    if !new.is_empty() {
        notes.push(format!(
            "{} new experiment(s) with no baseline: {}",
            new.len(),
            new.join(", ")
        ));
    }

    for (name, &base) in &baseline.verdicts {
        let subject = format!("verdict :: {name}");
        let Some(&cur) = current.verdicts.get(name) else {
            check(
                subject,
                Status::Fail,
                "verdict present in baseline but missing from this run".into(),
            );
            continue;
        };
        let outcome = match (base, cur) {
            (Status::Fail, Status::Fail) => Status::Pass,
            _ => cur,
        };
        check(
            subject,
            outcome,
            format!("baseline {}, current {}", base.as_str(), cur.as_str()),
        );
    }

    GateReport { checks, notes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::{fixtures, Trajectory};

    fn baseline() -> ParsedTrajectory {
        fixtures::trajectory(vec![fixtures::experiment("a"), fixtures::experiment("b")]).flatten()
    }

    #[test]
    fn threshold_math() {
        use Better::*;
        // Throughput dropping is a regression; rising is an improvement.
        assert_eq!(regression_pct(100.0, 80.0, Higher), 20.0);
        assert_eq!(regression_pct(100.0, 120.0, Higher), -20.0);
        // Pauses rising is a regression.
        assert_eq!(regression_pct(100.0, 120.0, Lower), 20.0);
        assert_eq!(regression_pct(100.0, 80.0, Lower), -20.0);
        // Zero baselines cannot divide; any move is full-scale.
        assert_eq!(regression_pct(0.0, 5.0, Lower), 100.0);
        assert_eq!(regression_pct(0.0, 5.0, Higher), -100.0);
        assert_eq!(regression_pct(0.0, 0.0, Lower), 0.0);
    }

    #[test]
    fn identical_runs_pass() {
        let report = compare(&baseline(), &baseline(), &default_policies());
        assert!(report.passed(), "{}", report.render());
        assert!(report.checks.iter().all(|c| c.outcome == Status::Pass));
    }

    #[test]
    fn synthetic_20pct_throughput_regression_fails_the_gate() {
        // The acceptance fixture, on the modelled time: one experiment's
        // normalised time 20% above baseline; the 2% threshold must fire.
        let mut slower = fixtures::experiment("a");
        slower.metrics.overhead_time *= 1.2;
        let current = fixtures::trajectory(vec![slower, fixtures::experiment("b")]).flatten();
        let report = compare(&baseline(), &current, &default_policies());
        assert!(!report.passed(), "{}", report.render());
        let failing: Vec<&Check> = report
            .checks
            .iter()
            .filter(|c| c.outcome == Status::Fail)
            .collect();
        assert_eq!(failing.len(), 1, "{}", report.render());
        assert_eq!(failing[0].subject, "wl-a/fast/w4/off :: overhead_time");
        assert!(
            failing[0].detail.contains("+20.0%"),
            "{}",
            failing[0].detail
        );
    }

    #[test]
    fn deterministic_regressions_gate_regardless_of_host() {
        let mut worse = fixtures::experiment("a");
        worse.metrics.overhead_time = 1.09; // > 2% above the 1.05 baseline
        let current = fixtures::trajectory(vec![worse, fixtures::experiment("b")]).flatten();
        let report = compare(&baseline(), &current, &default_policies());
        assert!(!report.passed(), "{}", report.render());
    }

    #[test]
    fn missing_experiment_fails_same_mode_but_notes_cross_mode() {
        let mut current = fixtures::trajectory(vec![fixtures::experiment("a")]).flatten();
        let report = compare(&baseline(), &current, &default_policies());
        assert!(!report.passed());
        current.mode = "full".into();
        let report = compare(&baseline(), &current, &default_policies());
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn verdict_flips_fail() {
        let mut t = fixtures::trajectory(vec![fixtures::experiment("a")]);
        t.verdicts[0].status = Status::Fail;
        let current = t.flatten();
        let report = compare(&baseline(), &current, &default_policies());
        assert!(!report.passed());
        assert!(report
            .checks
            .iter()
            .any(|c| c.subject == "verdict :: fast_kernel" && c.outcome == Status::Fail));
    }

    #[test]
    fn unresolved_verdicts_are_reported_and_do_not_fail() {
        let mut t =
            fixtures::trajectory(vec![fixtures::experiment("a"), fixtures::experiment("b")]);
        t.verdicts[0].status = Status::Unresolved;
        let report = compare(&baseline(), &t.flatten(), &default_policies());
        assert!(report.passed(), "{}", report.render());
        assert!(report
            .render()
            .contains("UNRESOLVED: verdict :: fast_kernel — baseline PASS, current UNRESOLVED"));
    }

    #[test]
    fn gate_round_trips_through_disk_format() {
        // End-to-end fixture: render → parse → compare, as the CLI does.
        let base = fixtures::trajectory(vec![fixtures::experiment("a")]);
        let parsed = Trajectory::parse(&base.to_json()).expect("parses");
        let report = compare(&parsed, &base.flatten(), &default_policies());
        assert!(report.passed(), "{}", report.render());
    }
}
