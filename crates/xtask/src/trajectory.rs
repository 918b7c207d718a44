//! The `BENCH_trajectory.json` schema: one machine-readable record of a
//! lab run, written at the repo root and committed, so every PR diffs its
//! perf against the previous trajectory instead of ad-hoc per-PR verdicts.
//!
//! Serialisation uses the workspace `serde` derive; parsing walks the
//! shim `serde_json` [`Value`] tree (the shim has no typed deserialiser).
//! [`Trajectory::parse`] is therefore the schema's compatibility surface:
//! it accepts any JSON carrying `schema_version`, `mode`,
//! `experiments[].{id,metrics}` and `verdicts[].{name,status}`, ignoring
//! unknown keys, so old baselines keep parsing as the schema grows. A v1
//! file, whose verdicts carry `pass` instead of `status`, is refused.
//!
//! Deliberately **no timestamps**: a re-run on the same host+commit must
//! produce a byte-identical file for the deterministic metrics, so the
//! committed trajectory only changes when the performance does.

use bench::fleet::FleetResult;
use bench::lab::ExperimentResult;
use bench::verdicts::{Status, Verdict};
use serde::{Serialize, Value};
use std::collections::BTreeMap;

/// Current schema version (bump on breaking field changes). v2 replaced
/// each verdict's `pass` flag with a `status`.
pub const SCHEMA_VERSION: u64 = 2;

/// Machine identity attached to every trajectory: the provenance of its
/// verdict values. The gate does not read it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HostFingerprint {
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Available parallelism when the lab ran.
    pub cores: usize,
    /// `rustc --version` output (or `unknown`).
    pub rustc: String,
}

impl HostFingerprint {
    /// Fingerprints the current process's host.
    pub fn current() -> HostFingerprint {
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        HostFingerprint {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc,
        }
    }
}

/// A full lab run: the file `cargo xtask lab` writes.
#[derive(Debug, Serialize)]
pub struct Trajectory {
    /// [`SCHEMA_VERSION`].
    pub schema_version: u64,
    /// `smoke` or `full`.
    pub mode: String,
    /// Where the run happened.
    pub host: HostFingerprint,
    /// Per-experiment records, in matrix order.
    pub experiments: Vec<ExperimentResult>,
    /// Fleet-cell records (`[matrix.fleet]`), in grid order. Empty when
    /// the run had no fleet grid; old baselines without the field still
    /// parse (the gate then treats fleet ids as new experiments).
    pub fleet: Vec<FleetResult>,
    /// The acceptance-bar verdicts ([`bench::verdicts`]).
    pub verdicts: Vec<Verdict>,
}

/// A parsed (possibly older) trajectory: experiment metrics flattened to
/// `id -> metric -> value`, plus verdict statuses. This is everything
/// the gate needs from a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedTrajectory {
    /// Schema version the file declared.
    pub schema_version: u64,
    /// `smoke` or `full`.
    pub mode: String,
    /// `experiment id -> metric name -> value` (numeric metrics only;
    /// booleans are folded to 0.0 / 1.0).
    pub metrics: BTreeMap<String, BTreeMap<String, f64>>,
    /// `verdict name -> status`.
    pub verdicts: BTreeMap<String, Status>,
}

impl Trajectory {
    /// Renders the canonical pretty-printed JSON (what gets committed).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("serialise trajectory");
        s.push('\n');
        s
    }

    /// Flattens this run into the gate's comparison form — the same shape
    /// [`Trajectory::parse`] produces, so "current run vs parsed
    /// baseline" and "parsed current vs parsed baseline" are identical.
    pub fn flatten(&self) -> ParsedTrajectory {
        parse(&serde_json::from_str(&self.to_json()).expect("own rendering parses"))
            .expect("own rendering matches schema")
    }

    /// Parses trajectory JSON text into the gate's comparison form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed or missing field.
    pub fn parse(text: &str) -> Result<ParsedTrajectory, String> {
        let value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        parse(&value)
    }
}

fn parse(value: &Value) -> Result<ParsedTrajectory, String> {
    let schema_version = value
        .get("schema_version")
        .and_then(Value::as_u64)
        .ok_or("missing schema_version")?;
    if schema_version > SCHEMA_VERSION {
        return Err(format!(
            "trajectory schema v{schema_version} is newer than this xtask (v{SCHEMA_VERSION}); \
             rebuild xtask or regenerate the baseline"
        ));
    }
    let mode = value
        .get("mode")
        .and_then(Value::as_str)
        .ok_or("missing mode")?
        .to_string();
    // Fleet cells are optional (the field postdates the first v1
    // baselines) and flatten into the same id -> metric map the gate
    // diffs.
    let experiments = value
        .get("experiments")
        .and_then(Value::as_array)
        .ok_or("missing experiments")?;
    let fleet = value.get("fleet").and_then(Value::as_array).unwrap_or(&[]);
    let mut metrics = BTreeMap::new();
    for exp in experiments.iter().chain(fleet) {
        let id = str_field(exp, "id")?;
        let row = exp
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("experiment {id}: missing metrics"))?
            .iter()
            .filter_map(|(name, metric)| {
                let folded = match metric {
                    Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
                    other => other.as_f64(),
                };
                Some((name.clone(), folded?))
            })
            .collect();
        if metrics.insert(id.clone(), row).is_some() {
            return Err(format!("duplicate experiment id '{id}'"));
        }
    }

    let mut verdicts = BTreeMap::new();
    for v in value
        .get("verdicts")
        .and_then(Value::as_array)
        .ok_or("missing verdicts")?
    {
        let name = str_field(v, "name")?;
        let status = v
            .get("status")
            .and_then(Value::as_str)
            .and_then(Status::parse)
            .ok_or_else(|| format!("verdict {name}: missing status"))?;
        verdicts.insert(name, status);
    }

    Ok(ParsedTrajectory {
        schema_version,
        mode,
        metrics,
        verdicts,
    })
}

fn str_field(value: &Value, key: &str) -> Result<String, String> {
    value
        .get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing field '{key}'"))
}

#[cfg(test)]
pub(crate) mod fixtures {
    use bench::fleet::{FleetMetrics, FleetParams, FleetResult};
    use bench::lab::{ExperimentConfig, ExperimentMetrics, ExperimentResult};

    /// A fixture fleet cell with round metric values.
    pub fn fleet_cell(tenants: usize, bounded: bool) -> FleetResult {
        let config = FleetParams {
            ops_per_thread: 1_000,
            driver_threads: 2,
            measure_repeats: 1,
            ..FleetParams::smoke(tenants, 1.2, 4)
        };
        FleetResult {
            id: config.id(),
            config,
            metrics: FleetMetrics {
                fleet_p99_pause_us: 800.0,
                tenant_budget_bounded: bounded,
                max_budget_fraction: 0.9,
                steals: 5,
                epochs: 20,
                throttled: 3,
                emergency_sweeps: 1,
            },
        }
    }

    /// A fixture experiment with round metric values the gate tests can
    /// perturb.
    pub fn experiment(id_suffix: &str) -> ExperimentResult {
        let config = ExperimentConfig {
            workload: format!("wl-{id_suffix}"),
            kernel: "fast".into(),
            sweep_workers: 4,
            fault_plan: "off".into(),
        };
        ExperimentResult {
            id: config.id(),
            config,
            metrics: ExperimentMetrics {
                overhead_time: 1.05,
                overhead_memory: 1.2,
                swept_fraction: 0.25,
                service_epochs: 12,
                quarantine_bounded: true,
            },
        }
    }

    pub fn trajectory(experiments: Vec<ExperimentResult>) -> super::Trajectory {
        super::Trajectory {
            schema_version: super::SCHEMA_VERSION,
            mode: "smoke".into(),
            host: super::HostFingerprint {
                os: "linux".into(),
                arch: "x86_64".into(),
                cores: 8,
                rustc: "rustc 1.0.0-fixture".into(),
            },
            experiments,
            fleet: Vec::new(),
            verdicts: vec![bench::verdicts::Verdict {
                name: "fast_kernel".into(),
                status: bench::verdicts::Status::Pass,
                value: 4.5,
                target: 3.0,
                detail: "fixture".into(),
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_round_trips_through_json() {
        let t = fixtures::trajectory(vec![fixtures::experiment("a"), fixtures::experiment("b")]);
        let rendered = t.to_json();
        let parsed = Trajectory::parse(&rendered).expect("parses");
        assert_eq!(parsed.schema_version, SCHEMA_VERSION);
        assert_eq!(parsed.mode, "smoke");
        assert_eq!(parsed.metrics.len(), 2);
        let a = &parsed.metrics["wl-a/fast/w4/off"];
        assert_eq!(a["overhead_time"], 1.05);
        assert_eq!(a["swept_fraction"], 0.25);
        assert_eq!(a["quarantine_bounded"], 1.0);
        assert_eq!(parsed.verdicts["fast_kernel"], Status::Pass);
        // flatten() is the same projection.
        assert_eq!(t.flatten(), parsed);
    }

    #[test]
    fn fleet_cells_flatten_into_the_metric_map() {
        let mut t = fixtures::trajectory(vec![fixtures::experiment("a")]);
        t.fleet.push(fixtures::fleet_cell(128, true));
        let parsed = Trajectory::parse(&t.to_json()).expect("parses");
        let cell = &parsed.metrics["fleet/t128/s1.2/w4"];
        assert_eq!(cell["fleet_p99_pause_us"], 800.0);
        assert_eq!(cell["tenant_budget_bounded"], 1.0);
        assert_eq!(cell["steals"], 5.0);
        assert_eq!(t.flatten(), parsed);
        // Baselines predating the field parse as before.
        let without = fixtures::trajectory(vec![]).to_json();
        assert!(Trajectory::parse(&without).is_ok());
    }

    #[test]
    fn parse_ignores_unknown_fields_but_rejects_missing_ones() {
        let t = fixtures::trajectory(vec![fixtures::experiment("a")]);
        let with_extra = t.to_json().replacen(
            "\"schema_version\"",
            "\"future_field\": {\"x\": 1},\n  \"schema_version\"",
            1,
        );
        assert!(Trajectory::parse(&with_extra).is_ok());
        assert!(Trajectory::parse("{}")
            .unwrap_err()
            .contains("schema_version"));
        assert!(Trajectory::parse("not json").is_err());
    }

    #[test]
    fn newer_schema_versions_are_refused() {
        let t = fixtures::trajectory(vec![]);
        let bumped = t.to_json().replacen(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 999",
            1,
        );
        let err = Trajectory::parse(&bumped).unwrap_err();
        assert!(err.contains("newer"), "{err}");
    }
}
