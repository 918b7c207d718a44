//! The lab gate: compares a lab run's verdicts against the committed
//! baseline trajectory and decides pass/fail per verdict.
//!
//! ## Gating policy (DESIGN.md §16)
//!
//! Every verdict of the run gates on its status ([`bench::verdicts`]): a
//! verdict that reads FAIL fails the gate unless the baseline holds the
//! same verdict as FAIL, so a verdict new to this run has no FAIL to
//! inherit. A baseline verdict missing from the run fails too, so a
//! shrunken verdict list cannot hide a regression. An UNRESOLVED
//! wall-clock verdict is reported as such and does not fail the gate.
//! Wall-clock speed is not the lab's to judge: `cargo xtask ab` measures
//! it in paired runs against a base revision.

use crate::trajectory::Statuses;
use bench::verdicts::Status;
use std::fmt::Write as _;

/// One comparison the gate made.
#[derive(Debug, Clone)]
pub struct Check {
    /// `verdict :: name`.
    pub subject: String,
    /// What happened: FAIL fails the gate; UNRESOLVED (a wall-clock
    /// verdict straddling its bar) is reported, never passed or failed.
    pub outcome: Status,
    /// Human-readable baseline/current line.
    pub detail: String,
}

/// The full gate result.
#[derive(Debug)]
pub struct GateReport {
    /// Every comparison: the run's verdicts, then the baseline's missing
    /// ones.
    pub checks: Vec<Check>,
}

impl GateReport {
    /// Whether the gate passes (no `Fail` outcome).
    pub fn passed(&self) -> bool {
        !self.checks.iter().any(|c| c.outcome == Status::Fail)
    }

    /// Renders the report for CI logs: unresolved and failing checks,
    /// then a one-line summary. Passing checks are summarised, not
    /// listed.
    pub fn render(&self) -> String {
        let mut out = String::new();
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

/// Compares the `current` run's verdicts with the `baseline`'s under the
/// module's gating policy.
pub fn compare(baseline: &Statuses, current: &Statuses) -> GateReport {
    let mut checks = Vec::new();
    for (name, &cur) in current {
        let base = baseline.get(name).copied();
        let outcome = match (base, cur) {
            (Some(Status::Fail), Status::Fail) => Status::Pass,
            _ => cur,
        };
        checks.push(Check {
            subject: format!("verdict :: {name}"),
            outcome,
            detail: format!(
                "baseline {}, current {}",
                base.map_or("none", Status::as_str),
                cur.as_str()
            ),
        });
    }
    for name in baseline.keys().filter(|name| !current.contains_key(*name)) {
        checks.push(Check {
            subject: format!("verdict :: {name}"),
            outcome: Status::Fail,
            detail: "verdict present in baseline but missing from this run".into(),
        });
    }
    GateReport { checks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::{fixtures, Trajectory};

    fn run(verdicts: &[(&str, Status)]) -> Statuses {
        fixtures::trajectory(
            verdicts
                .iter()
                .map(|&(name, status)| fixtures::verdict(name, status))
                .collect(),
        )
        .statuses()
    }

    fn baseline() -> Statuses {
        run(&[("fast_kernel", Status::Pass), ("simd_kernel", Status::Fail)])
    }

    fn failing(report: &GateReport) -> Vec<&str> {
        report
            .checks
            .iter()
            .filter(|c| c.outcome == Status::Fail)
            .map(|c| c.subject.as_str())
            .collect()
    }

    #[test]
    fn identical_runs_pass() {
        // simd_kernel's FAIL passes because the baseline reads FAIL too.
        let report = compare(&baseline(), &baseline());
        assert!(report.passed(), "{}", report.render());
        assert!(report.checks.iter().all(|c| c.outcome == Status::Pass));
    }

    #[test]
    fn verdict_flips_fail() {
        let current = run(&[("fast_kernel", Status::Fail), ("simd_kernel", Status::Fail)]);
        let report = compare(&baseline(), &current);
        assert!(!report.passed());
        assert_eq!(failing(&report), ["verdict :: fast_kernel"]);
    }

    #[test]
    fn failing_verdict_new_to_the_run_fails() {
        let mut current = baseline();
        current.insert("quarantine_bound".into(), Status::Fail);
        let report = compare(&baseline(), &current);
        assert!(!report.passed(), "{}", report.render());
        assert_eq!(failing(&report), ["verdict :: quarantine_bound"]);
        assert!(report
            .render()
            .contains("FAIL: verdict :: quarantine_bound — baseline none, current FAIL"));
        // A new verdict that passes is just another passing check.
        current.insert("quarantine_bound".into(), Status::Pass);
        assert!(compare(&baseline(), &current).passed());
    }

    #[test]
    fn missing_verdict_fails_the_gate() {
        let current = run(&[("fast_kernel", Status::Pass)]);
        let report = compare(&baseline(), &current);
        assert!(!report.passed());
        assert_eq!(failing(&report), ["verdict :: simd_kernel"]);
    }

    #[test]
    fn unresolved_verdicts_are_reported_and_do_not_fail() {
        let current = run(&[
            ("fast_kernel", Status::Unresolved),
            ("simd_kernel", Status::Fail),
        ]);
        let report = compare(&baseline(), &current);
        assert!(report.passed(), "{}", report.render());
        assert!(report
            .render()
            .contains("UNRESOLVED: verdict :: fast_kernel — baseline PASS, current UNRESOLVED"));
    }

    #[test]
    fn gate_round_trips_through_disk_format() {
        // End-to-end fixture: render → parse → compare, as the CLI does.
        let base = fixtures::trajectory(vec![fixtures::verdict("fast_kernel", Status::Pass)]);
        let parsed = Trajectory::parse(&base.to_json()).expect("parses");
        let report = compare(&parsed, &base.statuses());
        assert!(report.passed(), "{}", report.render());
    }
}
