//! Criterion benchmark for the Figure 7 kernel tiers: the §3.3 reference
//! loop ([`Kernel::Simple`]), the word-skipping [`Kernel::Unrolled`], the
//! word-at-a-time fast kernel ([`Kernel::Fast`]) and the vector kernel
//! heaps ship with ([`Kernel::Simd`]), across sparse/dense/mixed tag
//! density and clean/painted shadow state. The kernel acceptance bars on
//! these images are `cargo xtask lab`'s `fast_kernel` and `simd_kernel`
//! verdicts; fig. 7 reports each kernel's achieved bandwidth.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use revoker::{Kernel, NoCost, NoFilter, ShadowMap, SweepEngine, SweepScratch};

const IMAGE_BYTES: u64 = 4 << 20;

/// Sparse: 5% tag density, clustered (the fast-verdict image). Dense: 25%
/// uniformly spread self-caps — the shape where per-capability decode
/// work dominates and no tag word is skippable (the simd-verdict image).
/// Mixed: pages alternate dense/capability-free, flipping the kernels
/// between their bulk-skip and decode paths every 4 KiB.
fn images() -> Vec<(&'static str, tagmem::TaggedMemory)> {
    vec![
        (
            "sparse",
            bench::image_with_clustered_caps(IMAGE_BYTES, 0.05),
        ),
        ("dense", bench::image_with_self_caps(IMAGE_BYTES, 0.25)),
        ("mixed", bench::image_with_mixed_pages(IMAGE_BYTES)),
    ]
}

const KERNELS: [(&str, Kernel); 4] = [
    ("reference", Kernel::Simple),
    ("unrolled", Kernel::Unrolled),
    ("fast", Kernel::Fast),
    ("simd", Kernel::Simd),
];

fn shadows(mem: &tagmem::TaggedMemory) -> Vec<(&'static str, ShadowMap)> {
    let clean = ShadowMap::new(mem.base(), mem.len());
    let mut painted = ShadowMap::new(mem.base(), mem.len());
    // A quarter of the heap quarantined: revocation stores happen and
    // shadow screens must discriminate.
    painted.paint(mem.base(), mem.len() / 4);
    vec![("clean", clean), ("painted", painted)]
}

fn bench_kernel_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_kernel");
    group.throughput(Throughput::Bytes(IMAGE_BYTES));
    group.sample_size(10);
    for (iname, mem) in images() {
        let run = [(mem.base(), mem.len())];
        for (sname, shadow) in shadows(&mem) {
            for (kname, kernel) in KERNELS {
                group.bench_with_input(
                    BenchmarkId::new(kname, format!("{iname}_{sname}")),
                    &kernel,
                    |b, &kernel| {
                        let engine = SweepEngine::new(kernel);
                        let mut scratch = SweepScratch::new();
                        b.iter_batched(
                            || mem.clone(),
                            |mut img| {
                                engine.sweep_with(
                                    std::slice::from_mut(&mut img),
                                    &run,
                                    NoFilter,
                                    &shadow,
                                    &mut NoCost,
                                    &mut scratch,
                                )
                            },
                            criterion::BatchSize::LargeInput,
                        );
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_kernel_matrix);
criterion_main!(benches);
