//! Regenerates **Figure 9**: normalised execution time at varying heap
//! overhead (quarantine fraction), for the two worst-overhead workloads,
//! xalancbmk and omnetpp.

use workloads::{profiles, run_trace, CherivokeUnderTest, CostModel, Stage, TraceGenerator};

struct Fig9Row {
    heap_overhead_pct: f64,
    xalancbmk: f64,
    omnetpp: f64,
}

fn time_at(name: &str, fraction: f64, scale: f64, seed: u64) -> f64 {
    let p = profiles::by_name(name).expect("known benchmark");
    let trace = TraceGenerator::new(p, scale, seed).generate();
    let mut sut = CherivokeUnderTest::new(
        &trace,
        cherivoke::RevocationPolicy::with_fraction(fraction),
        CostModel::x86_default(),
        Stage::Full,
    )
    .expect("construct heap");
    run_trace(&mut sut, &trace)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .normalized_time
}

fn main() {
    let scale = 1.0 / 512.0;
    let seed = 42;
    let fractions = [0.05, 0.10, 0.25, 0.50, 0.75, 1.00, 1.50, 2.00];
    let rows: Vec<Fig9Row> = fractions
        .iter()
        .map(|&f| Fig9Row {
            heap_overhead_pct: f * 100.0,
            xalancbmk: time_at("xalancbmk", f, scale, seed),
            omnetpp: time_at("omnetpp", f, scale, seed),
        })
        .collect();

    println!("Figure 9: normalised execution time vs heap overhead\n");
    bench::print_table(
        &["heap overhead %", "xalancbmk", "omnetpp"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.0}", r.heap_overhead_pct),
                    format!("{:.3}", r.xalancbmk),
                    format!("{:.3}", r.omnetpp),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nBoth curves fall monotonically as memory is traded for time; the default\n\
         25% point is the paper's dotted line."
    );
}
