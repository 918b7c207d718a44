//! Criterion benchmark behind Figure 7: throughput of the sweep kernels at
//! several pointer densities.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use revoker::{Kernel, NoFilter, SegmentSource, ShadowMap, SweepEngine};

const IMAGE_BYTES: u64 = 8 << 20;

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_kernels");
    group.throughput(Throughput::Bytes(IMAGE_BYTES));
    group.sample_size(20);

    for density in [0.0, 0.01, 0.08, 0.5] {
        let mem = bench::image_with_granule_density(IMAGE_BYTES, density);
        let mut shadow = ShadowMap::new(mem.base(), mem.len());
        // Paint a quarter of the heap so revocation stores happen.
        shadow.paint(mem.base(), mem.len() / 4);
        for (name, kernel) in [
            ("simple", Kernel::Simple),
            ("unrolled", Kernel::Unrolled),
            ("wide", Kernel::Wide),
            ("fast", Kernel::Fast),
            ("simd", Kernel::Simd),
        ] {
            group.bench_with_input(
                BenchmarkId::new(name, format!("density{density}")),
                &kernel,
                |b, &kernel| {
                    let engine = SweepEngine::new(kernel);
                    b.iter_batched(
                        || mem.clone(),
                        |mut img| engine.sweep(SegmentSource::new(&mut img), NoFilter, &shadow),
                        criterion::BatchSize::LargeInput,
                    );
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_kernels, conservative_benches::bench);
criterion_main!(benches);

// Appended: the §5.3 conservative-image kernels (see `revoker::conservative`).
mod conservative_benches {
    use criterion::{BenchmarkId, Criterion, Throughput};
    use revoker::conservative::{sweep_avx2, sweep_scalar, sweep_unrolled, ConservativeImage};
    use revoker::ShadowMap;

    const IMAGE_BYTES: u64 = 8 << 20;

    pub fn bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("conservative_kernels");
        group.throughput(Throughput::Bytes(IMAGE_BYTES));
        group.sample_size(20);
        for density in [0.01, 0.08] {
            let mem = bench::image_with_granule_density(IMAGE_BYTES, density);
            let image = ConservativeImage::from_memory(&mem, mem.base(), mem.end());
            let mut shadow = ShadowMap::new(mem.base(), mem.len());
            shadow.paint(mem.base(), mem.len() / 4);
            for (name, f) in [
                (
                    "scalar",
                    sweep_scalar as fn(&mut ConservativeImage, &ShadowMap) -> _,
                ),
                ("unrolled", sweep_unrolled),
                ("avx2", sweep_avx2),
            ] {
                group.bench_with_input(
                    BenchmarkId::new(name, format!("density{density}")),
                    &f,
                    |b, f| {
                        b.iter_batched(
                            || image.clone(),
                            |mut img| f(&mut img, &shadow),
                            criterion::BatchSize::LargeInput,
                        );
                    },
                );
            }
        }
        group.finish();
    }
}
