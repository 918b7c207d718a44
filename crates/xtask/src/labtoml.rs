//! Parser for `lab.toml`, the scalability lab's declarative config: the
//! experiment matrices and the gate's per-metric thresholds.
//!
//! This is a deliberately minimal TOML subset (the workspace is hermetic;
//! there is no `toml` crate to lean on): `[section]` headers, `key =
//! value` pairs, values that are strings, integers, floats, booleans, or
//! flat arrays of those, and `#` comments. That covers the whole config —
//! anything fancier in the file is a parse error, not silently ignored.

use bench::lab::{LabMatrix, LabOptions};
use std::collections::BTreeMap;

/// One parsed value.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A quoted string.
    Str(String),
    /// An integer (also accepted where floats are expected).
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A flat array.
    Array(Vec<TomlValue>),
}

impl TomlValue {
    fn as_f64(&self) -> Option<f64> {
        match self {
            TomlValue::Int(i) => Some(*i as f64),
            TomlValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    fn as_usize(&self) -> Option<usize> {
        match self {
            TomlValue::Int(i) => usize::try_from(*i).ok(),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            TomlValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// The whole lab config file.
#[derive(Debug, Default)]
pub struct LabFile {
    /// `section -> key -> value`.
    pub sections: BTreeMap<String, BTreeMap<String, TomlValue>>,
}

impl LabFile {
    /// Parses `lab.toml` text.
    ///
    /// # Errors
    ///
    /// Returns `line: message` for anything outside the supported subset.
    pub fn parse(text: &str) -> Result<LabFile, String> {
        let mut file = LabFile::default();
        let mut section = String::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| format!("lab.toml line {}: {msg}", lineno + 1);
            if let Some(name) = line.strip_prefix('[') {
                let name = name.strip_suffix(']').ok_or_else(|| err("unclosed '['"))?;
                section = name.trim().to_string();
                file.sections.entry(section.clone()).or_default();
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err("expected 'key = value'"))?;
            let value = parse_value(value.trim()).map_err(|m| err(&m))?;
            file.sections
                .entry(section.clone())
                .or_default()
                .insert(key.trim().to_string(), value);
        }
        Ok(file)
    }

    fn get(&self, section: &str, key: &str) -> Option<&TomlValue> {
        self.sections.get(section)?.get(key)
    }

    /// The `[thresholds]` section as `metric -> percent`.
    ///
    /// # Errors
    ///
    /// Returns a message for non-numeric thresholds.
    pub fn thresholds(&self) -> Result<BTreeMap<String, f64>, String> {
        let mut out = BTreeMap::new();
        if let Some(entries) = self.sections.get("thresholds") {
            for (metric, value) in entries {
                let pct = value
                    .as_f64()
                    .ok_or_else(|| format!("threshold '{metric}' is not a number"))?;
                if pct < 0.0 {
                    return Err(format!("threshold '{metric}' is negative"));
                }
                out.insert(metric.clone(), pct);
            }
        }
        Ok(out)
    }

    /// The matrix declared in `[matrix.<mode>]`, overlaid on `defaults`
    /// (axes absent from the file keep the default).
    ///
    /// # Errors
    ///
    /// Returns a message for malformed axis values, and one naming the key
    /// for a key that is not an axis (a typo would otherwise quietly run
    /// the default).
    pub fn matrix(&self, mode: &str, defaults: LabMatrix) -> Result<LabMatrix, String> {
        const AXES: [&str; 4] = ["workloads", "kernels", "fault_plans", "sweep_workers"];
        let section = format!("matrix.{mode}");
        if let Some(key) = self
            .sections
            .get(&section)
            .and_then(|entries| entries.keys().find(|k| !AXES.contains(&k.as_str())))
        {
            return Err(format!(
                "[{section}]: unknown key '{key}' (expected one of {})",
                AXES.join(", ")
            ));
        }
        let mut matrix = defaults;
        if let Some(v) = self.get(&section, "workloads") {
            matrix.workloads = string_axis(v, "workloads")?;
        }
        if let Some(v) = self.get(&section, "kernels") {
            matrix.kernels = string_axis(v, "kernels")?;
        }
        if let Some(v) = self.get(&section, "fault_plans") {
            matrix.fault_plans = string_axis(v, "fault_plans")?;
        }
        if let Some(v) = self.get(&section, "sweep_workers") {
            let TomlValue::Array(items) = v else {
                return Err("sweep_workers must be an array".into());
            };
            matrix.sweep_workers = items
                .iter()
                .map(|i| i.as_usize().ok_or("sweep_workers entries must be integers"))
                .collect::<Result<_, _>>()?;
        }
        Ok(matrix)
    }

    /// The `[matrix.fleet]` grid: the cross product of `tenants` ×
    /// `skew` × `workers`, each cell one fleet experiment
    /// ([`bench::fleet::run_fleet_cell`]), in deterministic order
    /// (tenants-major, workers-minor). An absent section means no fleet
    /// cells; a present section must declare all three axes.
    ///
    /// # Errors
    ///
    /// Returns a message for a missing axis or malformed entries.
    pub fn fleet_grid(&self) -> Result<Vec<(usize, f64, usize)>, String> {
        let Some(section) = self.sections.get("matrix.fleet") else {
            return Ok(Vec::new());
        };
        let axis = |key: &str| -> Result<&TomlValue, String> {
            section
                .get(key)
                .ok_or_else(|| format!("[matrix.fleet] is missing the '{key}' axis"))
        };
        let usizes = |key: &str| -> Result<Vec<usize>, String> {
            let TomlValue::Array(items) = axis(key)? else {
                return Err(format!("[matrix.fleet] {key} must be an array"));
            };
            items
                .iter()
                .map(|i| {
                    i.as_usize()
                        .ok_or_else(|| format!("[matrix.fleet] {key} entries must be integers"))
                })
                .collect()
        };
        let TomlValue::Array(skews) = axis("skew")? else {
            return Err("[matrix.fleet] skew must be an array".into());
        };
        let skews: Vec<f64> = skews
            .iter()
            .map(|i| {
                i.as_f64()
                    .ok_or_else(|| "[matrix.fleet] skew entries must be numbers".to_string())
            })
            .collect::<Result<_, _>>()?;
        let tenants = usizes("tenants")?;
        let workers = usizes("workers")?;
        let mut cells = Vec::new();
        for &t in &tenants {
            for &s in &skews {
                for &w in &workers {
                    cells.push((t, s, w));
                }
            }
        }
        Ok(cells)
    }

    /// `[lab]` sizing overrides on top of `defaults`.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed values.
    pub fn options(&self, defaults: LabOptions) -> Result<LabOptions, String> {
        let mut opts = defaults;
        let num = |key: &str| -> Result<Option<f64>, String> {
            match self.get("lab", key) {
                None => Ok(None),
                Some(v) => v
                    .as_f64()
                    .map(Some)
                    .ok_or_else(|| format!("[lab] {key} must be a number")),
            }
        };
        if let Some(v) = num("seed")? {
            opts.seed = v as u64;
        }
        if let Some(v) = num("image_mib")? {
            opts.image_mib = v as u64;
        }
        if let Some(v) = num("service_ops_per_thread")? {
            opts.service_ops_per_thread = v as u64;
        }
        if let Some(v) = num("service_shard_mib")? {
            opts.service_shard_mib = v as u64;
        }
        if let Some(v) = num("measure_repeats")? {
            if v < 1.0 {
                return Err("[lab] measure_repeats must be at least 1".into());
            }
            opts.measure_repeats = v as usize;
        }
        if let Some(v) = num("trace_scale_denominator")? {
            if v <= 0.0 {
                return Err("[lab] trace_scale_denominator must be positive".into());
            }
            opts.trace_scale = 1.0 / v;
        }
        Ok(opts)
    }
}

fn strip_comment(line: &str) -> &str {
    // '#' inside a quoted string is content, not a comment.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn string_axis(value: &TomlValue, name: &str) -> Result<Vec<String>, String> {
    let TomlValue::Array(items) = value else {
        return Err(format!("{name} must be an array"));
    };
    items
        .iter()
        .map(|i| {
            i.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{name} entries must be strings"))
        })
        .collect()
}

fn parse_value(text: &str) -> Result<TomlValue, String> {
    if let Some(inner) = text.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| "unclosed array".to_string())?;
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if !part.is_empty() {
                items.push(parse_value(part)?);
            }
        }
        return Ok(TomlValue::Array(items));
    }
    if let Some(inner) = text.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| "unclosed string".to_string())?;
        if inner.contains('"') {
            return Err("embedded quotes are not supported".to_string());
        }
        return Ok(TomlValue::Str(inner.to_string()));
    }
    match text {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    if let Ok(i) = text.parse::<i64>() {
        return Ok(TomlValue::Int(i));
    }
    if let Ok(f) = text.parse::<f64>() {
        return Ok(TomlValue::Float(f));
    }
    Err(format!("unsupported value '{text}'"))
}

/// Splits on commas (arrays here are flat, so no nesting to respect, but
/// strings may contain commas).
fn split_top_level(text: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in text.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&text[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# the lab config
[lab]
seed = 7
service_ops_per_thread = 5000

[matrix.smoke]
workloads = ["omnetpp"]  # one workload only
kernels = ["reference", "fast"]
sweep_workers = [1, 2]
fault_plans = ["off", "chaos-smoke"]

[matrix.fleet]
tenants = [8, 128]
skew = [0.0, 1.2]
workers = [2]

[thresholds]
sweep_mib_s = 25.0
overhead_time = 1
"#;

    #[test]
    fn parses_sections_values_and_comments() {
        let file = LabFile::parse(SAMPLE).expect("parses");
        let thresholds = file.thresholds().expect("thresholds");
        assert_eq!(thresholds["sweep_mib_s"], 25.0);
        assert_eq!(thresholds["overhead_time"], 1.0);

        let matrix = file.matrix("smoke", LabMatrix::smoke()).expect("matrix");
        assert_eq!(matrix.workloads, vec!["omnetpp"]);
        assert_eq!(matrix.kernels, vec!["reference", "fast"]);
        assert_eq!(matrix.sweep_workers, vec![1, 2]);
        assert_eq!(matrix.fault_plans, vec!["off", "chaos-smoke"]);
        // Absent mode falls through to defaults.
        let full = file.matrix("full", LabMatrix::full()).expect("full");
        assert_eq!(full.sweep_workers, LabMatrix::full().sweep_workers);

        let opts = file.options(LabOptions::smoke()).expect("options");
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.service_ops_per_thread, 5000);
        assert_eq!(opts.image_mib, LabOptions::smoke().image_mib);

        let cells = file.fleet_grid().expect("fleet grid");
        assert_eq!(
            cells,
            vec![(8, 0.0, 2), (8, 1.2, 2), (128, 0.0, 2), (128, 1.2, 2)]
        );
    }

    #[test]
    fn matrix_rejects_unknown_keys() {
        // A stale axis and a typo'd one are errors that name the key.
        for (line, key) in [
            ("backends = [\"stock\"]", "backends"),
            ("kernel = [\"fast\"]", "kernel"),
        ] {
            let file = LabFile::parse(&format!("[matrix.smoke]\n{line}")).unwrap();
            let err = file.matrix("smoke", LabMatrix::smoke()).unwrap_err();
            assert!(err.contains(&format!("'{key}'")), "{err}");
        }
    }

    #[test]
    fn fleet_grid_is_optional_but_strict_when_present() {
        assert_eq!(LabFile::parse("").unwrap().fleet_grid().unwrap(), vec![]);
        let missing = LabFile::parse("[matrix.fleet]\ntenants = [8]\nskew = [1.0]").unwrap();
        let err = missing.fleet_grid().unwrap_err();
        assert!(err.contains("workers"), "{err}");
        let bad = LabFile::parse("[matrix.fleet]\ntenants = [\"x\"]\nskew = [1.0]\nworkers = [2]")
            .unwrap();
        assert!(bad.fleet_grid().is_err());
    }

    #[test]
    fn rejects_unsupported_syntax() {
        assert!(LabFile::parse("key value").is_err());
        assert!(LabFile::parse("[unclosed").is_err());
        assert!(LabFile::parse("x = [1, 2").is_err());
        assert!(LabFile::parse("x = 'single'").is_err());
        let bad = LabFile::parse("[thresholds]\nx = \"fast\"").unwrap();
        assert!(bad.thresholds().is_err());
    }

    #[test]
    fn strings_protect_delimiters() {
        let file = LabFile::parse("[s]\nx = [\"a,b\", \"c#d\"]").expect("parses");
        let TomlValue::Array(items) = &file.sections["s"]["x"] else {
            panic!("array");
        };
        assert_eq!(items[0], TomlValue::Str("a,b".into()));
        assert_eq!(items[1], TomlValue::Str("c#d".into()));
    }
}
