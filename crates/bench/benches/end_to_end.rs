//! End-to-end Criterion benchmark: a full CHERIvoke heap (allocation,
//! capability stores, quarantine, policy-triggered revocation sweeps)
//! replaying a scaled allocation-intensive trace, plus the cost of
//! generating the trace cvkbench's `xalanc-replay` workload replays.

use criterion::{criterion_group, criterion_main, Criterion};
use workloads::{profiles, run_trace, CherivokeUnderTest, TraceGenerator};

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);

    for name in ["xalancbmk", "dealII", "milc"] {
        let profile = profiles::by_name(name).expect("known benchmark");
        let trace = TraceGenerator::new(profile, 1.0 / 2048.0, 42)
            .with_max_events(30_000)
            .generate();
        group.bench_function(format!("replay_{name}"), |b| {
            b.iter(|| {
                let mut sut = CherivokeUnderTest::paper_default(&trace).expect("construct");
                run_trace(&mut sut, &trace).expect("replay")
            });
        });
    }
    group.finish();
}

/// Generating cvkbench's full-scale `xalanc-replay` trace (about 1.1 M
/// events), the set-up step its `setup_s` metric is dominated by.
fn bench_trace_gen(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_gen");
    group.sample_size(10);
    let profile = profiles::by_name("xalancbmk").expect("known benchmark");
    let generator = TraceGenerator::new(profile, 1.0 / 64.0, 1)
        .with_duration(0.6)
        .with_max_events(1_200_000);
    group.bench_function("xalancbmk_1_64", |b| b.iter(|| generator.generate()));
    group.finish();
}

criterion_group!(benches, bench_end_to_end, bench_trace_gen);
criterion_main!(benches);
