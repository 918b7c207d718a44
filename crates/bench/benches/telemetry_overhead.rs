//! Criterion benchmark for the telemetry subsystem's hot paths.
//!
//! Two questions, one per group:
//!
//! 1. What does a *disabled* handle cost? Every instrumented site in the
//!    heap, allocator and sweep engine holds `Option`-backed handles that
//!    are `None` when telemetry is off, so the disabled path is a single
//!    branch. This is the cost the whole fleet pays when nobody is
//!    looking; `cargo xtask lab`'s `telemetry_disabled` verdict holds it
//!    under 1% of a service malloc/free op.
//! 2. What does an *enabled* record cost (relaxed atomic fetch-add, plus a
//!    leading-zeros bucket index for histograms)? This is the cost a
//!    deployment opting into metrics pays per instrumented event.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use telemetry::{Counter, LogHistogram, Registry};

fn bench_disabled_handles(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_disabled");
    let counter = Counter::default();
    let histogram = LogHistogram::default();
    let registry = Registry::disabled();
    group.bench_function("counter_inc", |b| {
        b.iter(|| black_box(&counter).inc());
    });
    group.bench_function("histogram_record", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9);
            black_box(&histogram).record(black_box(i));
        });
    });
    group.bench_function("registry_event", |b| {
        b.iter(|| {
            black_box(&registry).event(telemetry::EventKind::OomRevocation { shard: 0 });
        });
    });
    group.finish();
}

fn bench_enabled_handles(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_enabled");
    let registry = Registry::new(64);
    let counter = registry.counter("bench_counter");
    let histogram = registry.histogram("bench_histogram");
    group.bench_function("counter_inc", |b| {
        b.iter(|| black_box(&counter).inc());
    });
    group.bench_function("histogram_record", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9);
            black_box(&histogram).record(black_box(i));
        });
    });
    group.bench_function("snapshot_64_metrics", |b| {
        let registry = Registry::new(64);
        for i in 0..32 {
            registry.counter(&format!("c{i}")).inc();
            registry.histogram(&format!("h{i}")).record(i);
        }
        b.iter(|| black_box(registry.snapshot()));
    });
    group.finish();
}

criterion_group!(benches, bench_disabled_handles, bench_enabled_handles);
criterion_main!(benches);
