//! Criterion benchmark for allocator operations: the plain dlmalloc-style
//! allocator vs the quarantining `dlmalloc_cherivoke` (paper §6.1.1: a
//! quarantine push typically costs less than half a real free).

use criterion::{criterion_group, criterion_main, Criterion};
use cvkalloc::{CherivokeAllocator, DlAllocator};

const BASE: u64 = 0x1000_0000;
const SIZE: u64 = 64 << 20;

fn bench_alloc(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocator");

    group.bench_function("dlmalloc_malloc_free_64B", |b| {
        let mut heap = DlAllocator::new(BASE, SIZE);
        b.iter(|| {
            let blk = heap.malloc(64).expect("space");
            heap.free(blk.addr).expect("valid");
        });
    });

    group.bench_function("cherivoke_malloc_quarantine_64B", |b| {
        let mut heap = CherivokeAllocator::new(DlAllocator::new(BASE, SIZE), 0.25);
        // Ballast so the drain below is the only recycling path.
        let _ballast = heap.malloc(1 << 20).expect("space");
        b.iter(|| {
            let blk = heap.malloc(64).expect("space");
            heap.free(blk.addr).expect("valid");
            if heap.needs_sweep() {
                heap.drain_quarantine();
            }
        });
    });

    group.bench_function("dlmalloc_mixed_sizes", |b| {
        let mut heap = DlAllocator::new(BASE, SIZE);
        let mut live = Vec::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            // Hold the live set bounded so unlimited criterion iterations
            // cannot exhaust the arena.
            if (i.is_multiple_of(3) || live.len() >= 8192) && !live.is_empty() {
                let victim: u64 = live.swap_remove((i as usize * 7) % live.len());
                heap.free(victim).expect("valid");
            } else {
                let size = 16 + (i * 37) % 2048;
                live.push(heap.malloc(size).expect("space").addr);
            }
        });
    });

    group.bench_function("quarantine_aggregation_drain", |b| {
        b.iter_batched(
            || {
                let mut heap = CherivokeAllocator::new(DlAllocator::new(BASE, SIZE), f64::INFINITY);
                let blocks: Vec<u64> = (0..1000)
                    .map(|_| heap.malloc(64).expect("space").addr)
                    .collect();
                (heap, blocks)
            },
            |(mut heap, blocks)| {
                for addr in blocks {
                    heap.free(addr).expect("valid");
                }
                heap.drain_quarantine()
            },
            criterion::BatchSize::SmallInput,
        );
    });

    // One epoch's drain: 1000 sealed chunks, each between two free
    // chunks, with a live chunk after every group, so each release
    // absorbs both neighbours out of the free bins.
    group.bench_function("sealed_drain_coalescing_1000", |b| {
        b.iter_batched(
            || {
                let mut heap = CherivokeAllocator::new(DlAllocator::new(BASE, SIZE), f64::INFINITY);
                let blocks: Vec<u64> = (0..4000u64)
                    .map(|i| heap.malloc(16 + (i * 37) % 2048).expect("space").addr)
                    .collect();
                // Slots 0 and 2 of every four become free chunks, slot 1
                // the sealed generation, slot 3 stays live.
                for (i, &addr) in blocks.iter().enumerate() {
                    if i % 2 == 0 {
                        heap.free(addr).expect("valid");
                    }
                }
                heap.drain_quarantine();
                for (i, &addr) in blocks.iter().enumerate() {
                    if i % 4 == 1 {
                        heap.free(addr).expect("valid");
                    }
                }
                heap.seal_quarantine();
                heap
            },
            |mut heap| heap.drain_sealed(),
            criterion::BatchSize::SmallInput,
        );
    });

    group.finish();
}

criterion_group!(benches, bench_alloc);
criterion_main!(benches);
