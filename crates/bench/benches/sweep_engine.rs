//! Criterion benchmark for the sweep engine running the shipped
//! [`Kernel::Simd`]: the §3.4 filters and chunk-parallel execution over
//! worker counts (§3.5). Kernel tiers are compared in `sweep_kernel.rs`.
//!
//! The final group prints a PASS/SKIP verdict for the PR's scaling
//! acceptance bar: the engine with 4 workers should clear 2× the
//! sequential throughput on a host with ≥ 4 cores. Hosts with fewer cores
//! print SKIP rather than failing — scaling cannot be measured there.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use revoker::{CLoadTagsLines, EveryLine, Kernel, SegmentSource, ShadowMap, SweepEngine};

const IMAGE_BYTES: u64 = 8 << 20;

fn image() -> (tagmem::TaggedMemory, ShadowMap) {
    // A realistic mixed image: ~7% of granules hold capabilities, a
    // quarter of the heap quarantined so revocation stores happen.
    let mem = bench::image_with_granule_density(IMAGE_BYTES, 0.07);
    let mut shadow = ShadowMap::new(mem.base(), mem.len());
    shadow.paint(mem.base(), mem.len() / 4);
    (mem, shadow)
}

/// Filters under the one-worker engine: what the §3.4 assists cost/save
/// at this density, on the identical visitation order.
fn bench_filters(c: &mut Criterion) {
    let (mem, shadow) = image();
    let mut group = c.benchmark_group("sweep_engine_filters");
    group.throughput(Throughput::Bytes(IMAGE_BYTES));
    group.sample_size(10);
    let engine = SweepEngine::new(Kernel::Simd);
    group.bench_function("simd/everyline", |b| {
        b.iter_batched(
            || mem.clone(),
            |mut img| engine.sweep(SegmentSource::new(&mut img), EveryLine, &shadow),
            criterion::BatchSize::LargeInput,
        );
    });
    group.bench_function("simd/cloadtags", |b| {
        b.iter_batched(
            || mem.clone(),
            |mut img| engine.sweep(SegmentSource::new(&mut img), CLoadTagsLines::new(), &shadow),
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

/// Engine scaling over worker counts, line-granular plan (the
/// multi-chunk shape real sweeps take).
fn bench_parallel_scaling(c: &mut Criterion) {
    let (mem, shadow) = image();
    let mut group = c.benchmark_group("sweep_engine_par");
    group.throughput(Throughput::Bytes(IMAGE_BYTES));
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("simd", format!("workers{workers}")),
            &workers,
            |b, &workers| {
                let engine = SweepEngine::new(Kernel::Simd).with_workers(workers);
                b.iter_batched(
                    || mem.clone(),
                    |mut img| engine.sweep(SegmentSource::new(&mut img), EveryLine, &shadow),
                    criterion::BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();
}

/// The acceptance-bar check: 4 workers ≥ 2× sequential on a ≥ 4-core
/// host; SKIP (never fail) elsewhere. Uses `bench::engine_sweep_rate`
/// (warmed best of five) rather than criterion samples so the verdict
/// matches the fig7/parallelism harnesses.
fn scaling_verdict() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 4 {
        println!(
            "sweep_engine/scaling_verdict: SKIP ({cores} cores < 4, cannot measure 4-way scaling)"
        );
        return;
    }
    let mem = bench::image_with_granule_density(64 << 20, 0.07);
    let mut shadow = ShadowMap::new(mem.base(), mem.len());
    shadow.paint(mem.base(), mem.len() / 4);
    let seq = bench::engine_sweep_rate(Kernel::Simd, 1, &mem, &shadow);
    let par = bench::engine_sweep_rate(Kernel::Simd, 4, &mem, &shadow);
    let speedup = par / seq;
    let verdict = if speedup >= 2.0 { "PASS" } else { "BELOW-BAR" };
    println!(
        "sweep_engine/scaling_verdict: {verdict} ({seq:.0} MiB/s seq, {par:.0} MiB/s at 4 workers, {speedup:.2}x, target 2.00x)"
    );
}

criterion_group!(benches, bench_filters, bench_parallel_scaling);

fn main() {
    benches();
    scaling_verdict();
}
