//! Criterion benchmark for the sweep engine running the shipped
//! [`Kernel::Simd`]: the §3.4 filters, chunk-parallel execution over
//! worker counts (§3.5), and a heap's peer sweep
//! (`CherivokeHeap::sweep_foreign`) over its CapDirty runs. Kernel tiers
//! are compared in `sweep_kernel.rs`; the `parallelism` binary reports
//! the engine's worker scaling on a 128 MiB image of the same density.

use cheri::Capability;
use cherivoke::{CherivokeHeap, HeapConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use revoker::{visit_set, CLoadTagsLines, EveryLine, Kernel, NoFilter, ShadowMap, SweepEngine};
use tagmem::{SegmentKind, PAGE_SIZE};

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
    let run = [(mem.base(), mem.len())];
    let mut group = c.benchmark_group("sweep_engine_filters");
    group.throughput(Throughput::Bytes(IMAGE_BYTES));
    group.sample_size(10);
    let engine = SweepEngine::new(Kernel::Simd);
    group.bench_function("simd/everyline", |b| {
        b.iter_batched(
            || mem.clone(),
            |mut img| engine.sweep(std::slice::from_mut(&mut img), &run, EveryLine, &shadow),
            criterion::BatchSize::LargeInput,
        );
    });
    group.bench_function("simd/cloadtags", |b| {
        b.iter_batched(
            || mem.clone(),
            |mut img| {
                engine.sweep(
                    std::slice::from_mut(&mut img),
                    &run,
                    CLoadTagsLines::new(),
                    &shadow,
                )
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

/// Engine scaling over worker counts, line-granular plan (the
/// multi-chunk shape real sweeps take).
fn bench_parallel_scaling(c: &mut Criterion) {
    let (mem, shadow) = image();
    let run = [(mem.base(), mem.len())];
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
                    |mut img| {
                        engine.sweep(std::slice::from_mut(&mut img), &run, EveryLine, &shadow)
                    },
                    criterion::BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();
}

/// A default (16 MiB) heap with one capability on each of `pct`% of its
/// heap pages, spread evenly, every one into a peer's unpainted range:
/// steady state, as a sweep revokes nothing and re-cleans no page. The
/// returned shadow map is the peer's, a quarter of it painted.
fn peer_image(pct: u64) -> (CherivokeHeap, ShadowMap) {
    const PEER: u64 = 0x4000_0000;
    let mut heap = CherivokeHeap::new(HeapConfig::default()).expect("heap");
    let space = heap.space_mut();
    let mem = space
        .segment(SegmentKind::Heap)
        .expect("heap segment")
        .mem();
    let (base, pages) = (mem.base(), mem.len() / PAGE_SIZE);
    for page in (0..pages).filter(|p| p * pct / 100 != (p + 1) * pct / 100) {
        let target = Capability::root_rw(PEER + (1 << 20) + page * 16, 16);
        space
            .store_cap(base + page * PAGE_SIZE, &target)
            .expect("heap page is mapped");
    }
    let mut shadow = ShadowMap::new(PEER, 4 << 20);
    shadow.paint(PEER, 1 << 20);
    (heap, shadow)
}

/// The peer sweep against heap pages 1%, 10% and 100% CapDirty: it sweeps
/// the runs of the visit set ([`visit_set`]), so its cost should follow
/// the dirty pages, not the 16 MiB of segments. The `whole_space` rows
/// build the visit set the way a heap does with CapDirty off (every
/// sweepable segment whole) and sweep it with the same engine.
fn bench_sweep_foreign(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_foreign");
    group.sample_size(10);
    for pct in [1u64, 10, 100] {
        let (mut heap, shadow) = peer_image(pct);
        group.bench_function(format!("visit_set/dirty{pct}pct"), |b| {
            b.iter(|| heap.sweep_foreign(&shadow));
        });
        let engine = SweepEngine::new(heap.policy().kernel);
        let mut runs = Vec::new();
        group.bench_function(format!("whole_space/dirty{pct}pct"), |b| {
            b.iter(|| {
                visit_set(heap.space(), false, &mut runs);
                let (segments, _, _) = heap.space_mut().sweep_parts_mut();
                engine.sweep(segments, &runs, NoFilter, &shadow)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_filters,
    bench_parallel_scaling,
    bench_sweep_foreign
);
criterion_main!(benches);
