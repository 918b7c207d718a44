//! The `BENCH_trajectory.json` schema: one machine-readable record of a
//! lab run's verdicts, written at the repo root and committed, so every
//! PR gates its acceptance bars against the previous trajectory.
//!
//! Serialisation uses the workspace `serde` derive; parsing walks the
//! shim `serde_json` [`Value`] tree (the shim has no typed deserialiser).
//! [`Trajectory::parse`] is therefore the schema's compatibility surface:
//! it accepts any JSON carrying `schema_version` and
//! `verdicts[].{name,status}`, ignoring unknown keys. A v1 file, whose
//! verdicts carry `pass` instead of `status`, is refused.
//!
//! Deliberately **no timestamps**: the committed trajectory only changes
//! when a verdict does.

use bench::verdicts::{Status, Verdict};
use serde::{Serialize, Value};
use std::collections::BTreeMap;

/// Current schema version (bump on breaking field changes). v2 replaced
/// each verdict's `pass` flag with a `status`; v3 dropped the experiment
/// and fleet sections and the run mode.
pub const SCHEMA_VERSION: u64 = 3;

/// Machine identity attached to every trajectory: the provenance of its
/// verdict values. The gate does not read it.
#[derive(Debug, Serialize)]
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

/// A lab run: the file `cargo xtask lab` writes.
#[derive(Debug, Serialize)]
pub struct Trajectory {
    /// [`SCHEMA_VERSION`].
    pub schema_version: u64,
    /// Where the run happened.
    pub host: HostFingerprint,
    /// The acceptance-bar verdicts ([`bench::verdicts`]).
    pub verdicts: Vec<Verdict>,
}

/// `verdict name -> status`: everything the gate reads from a trajectory.
pub type Statuses = BTreeMap<String, Status>;

impl Trajectory {
    /// Renders the canonical pretty-printed JSON (what gets committed).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("serialise trajectory");
        s.push('\n');
        s
    }

    /// This run's verdict statuses, in the form [`Trajectory::parse`]
    /// returns.
    pub fn statuses(&self) -> Statuses {
        self.verdicts
            .iter()
            .map(|v| (v.name.clone(), v.status))
            .collect()
    }

    /// Parses trajectory JSON text into its verdict statuses.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed or missing field.
    pub fn parse(text: &str) -> Result<Statuses, String> {
        let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let schema_version = value
            .get("schema_version")
            .and_then(Value::as_u64)
            .ok_or("missing schema_version")?;
        if schema_version > SCHEMA_VERSION {
            return Err(format!(
                "trajectory schema v{schema_version} is newer than this xtask \
                 (v{SCHEMA_VERSION}); rebuild xtask or regenerate the baseline"
            ));
        }
        let mut statuses = BTreeMap::new();
        for v in value
            .get("verdicts")
            .and_then(Value::as_array)
            .ok_or("missing verdicts")?
        {
            let name = v
                .get("name")
                .and_then(Value::as_str)
                .ok_or("verdict: missing field 'name'")?;
            let status = v
                .get("status")
                .and_then(Value::as_str)
                .and_then(Status::parse)
                .ok_or_else(|| format!("verdict {name}: missing status"))?;
            statuses.insert(name.to_string(), status);
        }
        Ok(statuses)
    }
}

#[cfg(test)]
pub(crate) mod fixtures {
    use bench::verdicts::{Status, Verdict};

    /// A fixture verdict.
    pub fn verdict(name: &str, status: Status) -> Verdict {
        Verdict {
            name: name.into(),
            status,
            value: 4.5,
            target: 3.0,
            detail: "fixture".into(),
        }
    }

    pub fn trajectory(verdicts: Vec<Verdict>) -> super::Trajectory {
        super::Trajectory {
            schema_version: super::SCHEMA_VERSION,
            host: super::HostFingerprint {
                os: "linux".into(),
                arch: "x86_64".into(),
                cores: 8,
                rustc: "rustc 1.0.0-fixture".into(),
            },
            verdicts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_verdicts() -> Trajectory {
        fixtures::trajectory(vec![
            fixtures::verdict("fast_kernel", Status::Pass),
            fixtures::verdict("simd_kernel", Status::Fail),
        ])
    }

    #[test]
    fn schema_round_trips_through_json() {
        let t = two_verdicts();
        let parsed = Trajectory::parse(&t.to_json()).expect("parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed["fast_kernel"], Status::Pass);
        assert_eq!(parsed["simd_kernel"], Status::Fail);
        // statuses() is the same projection.
        assert_eq!(t.statuses(), parsed);
    }

    #[test]
    fn parse_ignores_unknown_fields_but_rejects_missing_ones() {
        let t = two_verdicts();
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
        let bumped = two_verdicts().to_json().replacen(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 999",
            1,
        );
        let err = Trajectory::parse(&bumped).unwrap_err();
        assert!(err.contains("newer"), "{err}");
    }
}
