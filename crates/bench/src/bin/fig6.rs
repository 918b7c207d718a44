//! Regenerates **Figure 6**: decomposition of CHERIvoke's run-time
//! overhead into quarantine-buffer, shadow-map and sweeping components,
//! at the default 25% heap overhead (all 17 benchmarks including ffmpeg).

use workloads::{profiles, run_trace, CherivokeUnderTest, CostModel, Stage, TraceGenerator};

struct Fig6Row {
    benchmark: String,
    quarantine_only: f64,
    with_shadow: f64,
    with_sweeping: f64,
}

fn main() {
    let scale = 1.0 / 512.0;
    let seed = 42;
    let mut rows = Vec::new();

    for p in profiles::all() {
        let trace = TraceGenerator::new(p, scale, seed).generate();
        let mut stage_time = [0.0f64; 3];
        for (i, stage) in [Stage::QuarantineOnly, Stage::WithShadow, Stage::Full]
            .into_iter()
            .enumerate()
        {
            let mut sut = CherivokeUnderTest::new(
                &trace,
                cherivoke::RevocationPolicy::paper_default(),
                CostModel::x86_default(),
                stage,
            )
            .expect("construct heap");
            let report = run_trace(&mut sut, &trace).unwrap_or_else(|e| panic!("{}: {e}", p.name));
            stage_time[i] = report.normalized_time;
        }
        rows.push(Fig6Row {
            benchmark: p.name.to_string(),
            quarantine_only: stage_time[0],
            with_shadow: stage_time[1],
            with_sweeping: stage_time[2],
        });
    }

    let g = |f: &dyn Fn(&Fig6Row) -> f64| bench::geomean(&rows.iter().map(f).collect::<Vec<_>>());
    rows.push(Fig6Row {
        benchmark: "geomean".to_string(),
        quarantine_only: g(&|r| r.quarantine_only),
        with_shadow: g(&|r| r.with_shadow),
        with_sweeping: g(&|r| r.with_sweeping),
    });

    println!("Figure 6: decomposition of run-time overheads (25% heap overhead)\n");
    bench::print_table(
        &[
            "benchmark",
            "quarantine only",
            "+ shadow space",
            "+ sweeping",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.benchmark.clone(),
                    format!("{:.3}", r.quarantine_only),
                    format!("{:.3}", r.with_shadow),
                    format!("{:.3}", r.with_sweeping),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nBars below 1.000 are the free-batching gain of §6.1.1; xalancbmk's tall\n\
         quarantine bar is the temporal-fragmentation cache effect."
    );
}
