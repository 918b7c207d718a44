//! Criterion benchmark for shadow-map maintenance (paper §6.1.2): painting
//! and clearing quarantined ranges of various sizes and alignments.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use revoker::ShadowMap;

const HEAP_BASE: u64 = 0x1000_0000;
const HEAP_LEN: u64 = 64 << 20;

fn bench_paint(c: &mut Criterion) {
    let mut group = c.benchmark_group("shadow_paint");

    // Contiguous ranges: the wide-store fast path.
    for size in [64u64, 4096, 1 << 20] {
        group.throughput(Throughput::Bytes(size));
        group.bench_with_input(BenchmarkId::new("paint_clear", size), &size, |b, &size| {
            let mut shadow = ShadowMap::new(HEAP_BASE, HEAP_LEN);
            b.iter(|| {
                shadow.paint(HEAP_BASE + 4096, size);
                shadow.clear(HEAP_BASE + 4096, size);
            });
        });
    }

    // Fragmented quarantine: many small scattered chunks (the §6.1.2
    // "sensitivity towards the alignment and size of allocations").
    group.bench_function("paint_fragmented_1000x64B", |b| {
        let mut shadow = ShadowMap::new(HEAP_BASE, HEAP_LEN);
        b.iter(|| {
            for i in 0..1000u64 {
                shadow.paint(HEAP_BASE + i * 4096 + 1024, 64);
            }
            shadow.clear_all();
        });
    });

    // One epoch's paint and unpaint: ~1000 quarantined ranges of 16 B to
    // 2 KiB at mixed granule alignment, painted, then cleared range by
    // range as the drain does. Nearly every range has a ragged end, so
    // this is the per-word mask path rather than the whole-word body.
    let ranges = epoch_ranges(1000);
    let bytes: u64 = ranges.iter().map(|&(_, len)| len).sum();
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function("epoch_paint_clear_1000_ranges", |b| {
        let mut shadow = ShadowMap::new(HEAP_BASE, HEAP_LEN);
        b.iter(|| {
            for &(addr, len) in &ranges {
                shadow.paint(addr, len);
            }
            for &(addr, len) in &ranges {
                shadow.clear(addr, len);
            }
        });
    });

    group.finish();
}

/// `n` disjoint ranges of 16..=2048 bytes separated by 0..=1008-byte gaps,
/// from a fixed linear congruential sequence.
fn epoch_ranges(n: usize) -> Vec<(u64, u64)> {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut next = |bound: u64| {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) % bound
    };
    let mut addr = HEAP_BASE;
    (0..n)
        .map(|_| {
            addr += next(64) * 16;
            let len = (1 + next(128)) * 16;
            let range = (addr, len);
            addr += len;
            range
        })
        .collect()
}

criterion_group!(benches, bench_paint);
criterion_main!(benches);
