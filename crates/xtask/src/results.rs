//! `cargo xtask results`: regenerates the committed `results/*.txt`
//! captures deterministically, and (with `--check`) fails when the
//! committed files have drifted from what the current code produces.
//!
//! Only the *model-driven* experiment binaries are covered — their output
//! is a pure function of (code, seed, scale), so a drift means someone
//! changed behaviour without regenerating the captures. Host-measured
//! binaries (`fig7`, `cache_effect`, `parallelism`, `ablations`,
//! `model_check`) print wall-clock sweep rates and are excluded: their
//! captures are illustrative snapshots, not gateable artefacts.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The experiment binaries whose stdout is deterministic, and therefore
/// drift-checked in CI. Each entry regenerates `results/<name>.txt`.
pub const DETERMINISTIC_RESULTS: &[&str] =
    &["table2", "fig5", "fig6", "fig8a", "fig8b", "fig9", "fig10"];

/// The repository root (two levels above this crate's manifest).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("xtask lives at <repo>/crates/xtask")
}

/// Regenerates (or with `check`, verifies) every deterministic capture,
/// optionally restricted to one binary named by `only`.
///
/// # Errors
///
/// Returns a message listing the first failure: an unknown `only` name, a
/// binary that exited nonzero, or (in check mode) each drifted capture.
pub fn run(check: bool, only: Option<&str>) -> Result<(), String> {
    let names: Vec<&str> = match only {
        Some(name) => {
            if !DETERMINISTIC_RESULTS.contains(&name) {
                return Err(format!(
                    "'{name}' is not a deterministic result (choose from: {})",
                    DETERMINISTIC_RESULTS.join(", ")
                ));
            }
            vec![name]
        }
        None => DETERMINISTIC_RESULTS.to_vec(),
    };
    let root = repo_root();
    let mut drifted = Vec::new();
    for name in names {
        let output = capture(&root, name)?;
        let path = root.join("results").join(format!("{name}.txt"));
        let committed = std::fs::read_to_string(&path).unwrap_or_default();
        if output == committed {
            eprintln!("results: {name}.txt up to date");
            continue;
        }
        if check {
            eprintln!("results: {name}.txt DRIFTED from regenerated output");
            drifted.push(name);
        } else {
            std::fs::write(&path, &output).map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("results: {name}.txt regenerated");
        }
    }
    if drifted.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "committed results diverge from regenerated output: {} — run `cargo xtask results` \
             and commit the refreshed captures",
            drifted
                .iter()
                .map(|n| format!("results/{n}.txt"))
                .collect::<Vec<_>>()
                .join(", ")
        ))
    }
}

/// Runs one experiment binary and captures its stdout.
fn capture(root: &Path, name: &str) -> Result<String, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .current_dir(root)
        .args([
            "run",
            "--release",
            "--locked",
            "-q",
            "-p",
            "bench",
            "--bin",
            name,
        ])
        .output()
        .map_err(|e| format!("spawn cargo run --bin {name}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{name} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8(out.stdout).map_err(|_| format!("{name} printed non-UTF-8 output"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_list_matches_committed_captures() {
        let results = repo_root().join("results");
        for name in DETERMINISTIC_RESULTS {
            assert!(
                results.join(format!("{name}.txt")).exists(),
                "results/{name}.txt is drift-checked but not committed"
            );
        }
    }

    #[test]
    fn unknown_only_target_is_rejected() {
        let err = run(true, Some("fig99")).unwrap_err();
        assert!(err.contains("not a deterministic result"), "{err}");
    }
}
