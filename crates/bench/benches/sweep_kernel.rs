//! Criterion benchmark for the Figure 7 kernel tiers: the §3.3 reference
//! loop ([`Kernel::Simple`]), the word-skipping [`Kernel::Unrolled`], the
//! word-at-a-time fast kernel ([`Kernel::Fast`]) and the vector kernel
//! heaps ship with ([`Kernel::Simd`]), across sparse/dense/mixed tag
//! density and clean/painted shadow state.
//!
//! Two verdict lines are the acceptance bars: on a sparse-capability heap
//! (≤ 5% tag density, clustered) the fast kernel must clear 3× the
//! reference kernel's throughput, and on the dense image (25% uniformly
//! spread self-caps) the simd kernel must clear 2× the fast kernel. After
//! the Criterion matrix a summary table reports each kernel's achieved
//! sweep bandwidth in GiB/s per image, alongside the per-op numbers.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use revoker::{Kernel, NoCost, NoFilter, SegmentSource, ShadowMap, SweepEngine, SweepScratch};

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
                                    SegmentSource::new(&mut img),
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

/// Per-kernel achieved sweep bandwidth in GiB/s on each image with the
/// painted quarantine, via the same warmed best-of-five
/// [`bench::engine_sweep_rate`] the verdicts use — the absolute numbers
/// the per-op Criterion output obscures.
fn bandwidth_table() {
    println!("\nsweep_kernel achieved bandwidth (GiB/s, painted shadow):");
    let mut rows = Vec::new();
    for (iname, mem) in images() {
        let mut shadow = ShadowMap::new(mem.base(), mem.len());
        shadow.paint(mem.base(), mem.len() / 4);
        let mut row = vec![iname.to_string()];
        for (_, kernel) in KERNELS {
            let mib_s = bench::engine_sweep_rate(kernel, 1, &mem, &shadow);
            row.push(format!("{:.2}", mib_s / 1024.0));
        }
        rows.push(row);
    }
    bench::print_table(&["image", "reference", "unrolled", "fast", "simd"], &rows);
}

/// The acceptance-bar checks: fast ≥ 3× reference on the sparse clustered
/// image, simd ≥ 2× fast on the dense image. The measurements live in
/// [`bench::verdicts`] so `cargo xtask lab` computes the identical
/// verdicts in-process; this main just prints them in the historical line
/// format.
fn kernel_verdicts() {
    let v = bench::verdicts::fast_kernel_verdict();
    println!(
        "sweep_kernel/fast_verdict: {} ({})",
        v.status.as_str(),
        v.detail
    );
    let v = bench::verdicts::simd_kernel_verdict();
    println!(
        "sweep_kernel/simd_verdict: {} ({})",
        v.status.as_str(),
        v.detail
    );
}

criterion_group!(benches, bench_kernel_matrix);

fn main() {
    benches();
    bandwidth_table();
    kernel_verdicts();
}
