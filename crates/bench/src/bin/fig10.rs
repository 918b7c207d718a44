//! Regenerates **Figure 10**: off-core traffic overhead of sweeping.
//!
//! The sweep's extra off-core traffic is measured from the real runs (bytes
//! the sweeps read per second of virtual execution). The application's own
//! baseline off-core traffic is not observable from an allocation trace, so
//! it is modelled with the paper's own observation (§6.5): *allocation-
//! intensive workloads tend to be memory-bandwidth intensive* — baseline
//! traffic is a floor plus a multiple of the free rate.

use workloads::{profiles, run_trace, CherivokeUnderTest, TraceGenerator};

/// Baseline app off-core traffic model: floor + beta × free rate.
const APP_TRAFFIC_FLOOR_MIB_S: f64 = 1200.0;
const APP_TRAFFIC_PER_FREE_RATE: f64 = 40.0;

struct Fig10Row {
    benchmark: String,
    sweep_traffic_mib_s: f64,
    app_traffic_mib_s: f64,
    traffic_overhead_pct: f64,
    time_overhead_pct: f64,
}

fn main() {
    let scale = 1.0 / 512.0;
    let seed = 42;
    let mut rows = Vec::new();

    for p in profiles::all() {
        let trace = TraceGenerator::new(p, scale, seed).generate();
        let mut sut = CherivokeUnderTest::paper_default(&trace).expect("construct heap");
        let report = run_trace(&mut sut, &trace).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        // Sweep traffic at full scale: bytes swept per virtual second is
        // scale-invariant (frequency × per-sweep bytes cancel the scale).
        let sweep_mib_s =
            sut.heap().stats().bytes_swept as f64 / (1024.0 * 1024.0) / report.app_seconds;
        let app_mib_s = APP_TRAFFIC_FLOOR_MIB_S + APP_TRAFFIC_PER_FREE_RATE * p.free_rate_mib_s;
        rows.push(Fig10Row {
            benchmark: p.name.to_string(),
            sweep_traffic_mib_s: sweep_mib_s,
            app_traffic_mib_s: app_mib_s,
            traffic_overhead_pct: 100.0 * sweep_mib_s / app_mib_s,
            time_overhead_pct: (report.normalized_time - 1.0) * 100.0,
        });
    }

    println!("Figure 10: off-core traffic overhead\n");
    bench::print_table(
        &[
            "benchmark",
            "sweep MiB/s",
            "app MiB/s (model)",
            "traffic ovh %",
            "time ovh %",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.benchmark.clone(),
                    format!("{:.0}", r.sweep_traffic_mib_s),
                    format!("{:.0}", r.app_traffic_mib_s),
                    format!("{:.1}", r.traffic_overhead_pct),
                    format!("{:.1}", r.time_overhead_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nThe paper's claim to verify: traffic overhead is comparable to or lower\n\
         than the performance overhead on allocation-intensive workloads (§6.5)."
    );
}
