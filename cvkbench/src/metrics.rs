//! The metric catalogue (what `BENCHMARK.json` declares) and the report a
//! run prints: one human line per metric, then one JSON line.

use std::fmt::Write as _;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "xalanc-replay",
    "dense-sweep",
    "service-churn",
    "fleet-zipf",
];

/// A metric's name, unit and whether higher is better.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn def(name: &'static str, unit: &'static str, higher_is_better: bool) -> Def {
    Def {
        name,
        unit,
        higher_is_better,
    }
}

/// Printed by every untraced run: the metrics whose medians hold their
/// regression bounds from one set of runs to the next on a shared host.
pub const END_TO_END: &[Def] = &[
    def("revoke_time_frac", "fraction", false),
    def("setup_s", "s", false),
];

/// Printed by every traced run. The first seven are end-to-end numbers,
/// read from the run's untraced quarters, whose medians move with the
/// host's speed or its timing by more than their regression bounds. A
/// runtime that does not expose a counter reports 0 for it; every time is
/// measured on every workload.
pub const PER_LAYER: &[Def] = &[
    def("ops_per_s", "ops/s", true),
    def("op_p50_us", "us", false),
    def("op_p99_us", "us", false),
    def("pause_p50_us", "us", false),
    def("pause_p99_us", "us", false),
    def("mem_overhead", "ratio", false),
    def("peak_rss_mib", "MiB", false),
    def("call.malloc_ns", "ns", false),
    def("call.free_ns", "ns", false),
    def("call.store_cap_ns", "ns", false),
    def("call.malloc_ns_p99", "ns", false),
    def("call.free_ns_p99", "ns", false),
    def("call.store_cap_ns_p99", "ns", false),
    def("heap.pauses", "count", false),
    def("heap.epochs", "count", false),
    def("heap.epochs_per_kop", "count/kop", false),
    def("revoker.swept_mib_per_epoch", "MiB", false),
    def("revoker.sweep_gib_s", "GiB/s", true),
    def("revoker.painted_mib_per_epoch", "MiB", false),
    def("revoker.pages_skipped_per_epoch", "count", true),
    def("revoker.caps_inspected_per_epoch", "count", false),
    def("revoker.revoked_per_inspected", "fraction", true),
    def("revoker.emergency_sweeps", "count", false),
    def("revoker.barrier_revocations", "count", false),
    def("cvkalloc.internal_frees_per_epoch", "count", false),
    def("cvkalloc.peak_quarantine_frac", "fraction", false),
    def("journal.bytes_per_epoch", "B", false),
    def("service.foreign_sweeps", "count", false),
    def("service.revoker_restarts", "count", false),
    def("fleet.throttled_per_kop", "count/kop", false),
    def("fleet.backoff_frac", "fraction", false),
    def("fleet.steals", "count", false),
    def("fleet.max_budget_fraction", "fraction", false),
    def("setup.inputs_s", "s", false),
    def("setup.runtime_s", "s", false),
    def("trace_overhead_pct", "%", false),
];

/// One run's result.
pub struct Report {
    catalogue: &'static [Def],
    values: Vec<(f64, String)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    pub fn new(traced: bool, attempted: u64, failed: u64) -> Report {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        Report {
            catalogue,
            values: vec![(f64::NAN, String::new()); catalogue.len()],
            attempted,
            failed,
        }
    }

    /// Sets metric `name`, with a note printed beside it. A metric of the
    /// other kind of run is dropped.
    pub fn set(&mut self, name: &str, value: f64, note: impl Into<String>) {
        match self.catalogue.iter().position(|d| d.name == name) {
            Some(i) => self.values[i] = (value, note.into()),
            None => assert!(
                END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
                "{name} is in neither catalogue"
            ),
        }
    }

    /// Every metric, in catalogue order; an error names any left unset.
    fn rows(&self) -> Result<impl Iterator<Item = (&Def, f64, &str)>, String> {
        let unset: Vec<&str> = self
            .catalogue
            .iter()
            .zip(&self.values)
            .filter(|(_, (v, _))| !v.is_finite())
            .map(|(d, _)| d.name)
            .collect();
        if !unset.is_empty() {
            return Err(format!(
                "metrics without a finite value: {}",
                unset.join(", ")
            ));
        }
        Ok(self
            .catalogue
            .iter()
            .zip(&self.values)
            .map(|(d, (v, note))| (d, *v, note.as_str())))
    }

    /// The human-readable lines.
    pub fn human(&self) -> Result<String, String> {
        let mut out = String::new();
        for (d, v, note) in self.rows()? {
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let _ = writeln!(
                out,
                "  {:<34} {:>16.4} {:<10} {better:<6} {note}",
                d.name, v, d.unit
            );
        }
        Ok(out)
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (d, v, _)) in self.rows()?.enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}
