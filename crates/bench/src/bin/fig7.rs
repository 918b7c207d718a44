//! Regenerates **Figure 7**: memory bandwidth achieved by the sweep loop
//! under different implementations, measured for real on the host machine.
//!
//! The paper compares a naïve loop, an unrolled/pipelined loop, and an
//! AVX2 kernel sweeping application images. Here each benchmark's image is
//! synthesised at its pointer density, a quarter of it is painted into
//! the shadow map (the paper-default 25% quarantine, so every tier
//! decodes bases and revokes), and it is swept by this crate's kernel
//! tiers ([`revoker::Kernel::Simple`] / `Unrolled` / `Fast` / `Simd`, the
//! last the kernel heaps ship with, plus Simd on the four-worker
//! [`revoker::SweepEngine`] of §3.5); the reference line is the host's
//! streaming read bandwidth over the same buffer. All rates come through
//! [`bench::engine_sweep_rate`] — one engine, one visitation order.

use std::time::Instant;

use revoker::conservative::{sweep_avx2, sweep_scalar, sweep_unrolled, ConservativeImage};
use revoker::{Kernel, ShadowMap};
use workloads::profiles;

const IMAGE_BYTES: u64 = 64 << 20;

struct Fig7Row {
    benchmark: String,
    granule_density: f64,
    simple_mib_s: f64,
    unrolled_mib_s: f64,
    fast_mib_s: f64,
    simd_mib_s: f64,
    parallel_mib_s: f64,
    /// §5.3 conservative-image kernels (the paper's actual x86 loops).
    cons_simple_mib_s: f64,
    cons_unrolled_mib_s: f64,
    cons_avx2_mib_s: f64,
}

/// Times a conservative-image sweep kernel (median of three), in MiB/s.
fn conservative_rate(
    f: fn(&mut ConservativeImage, &ShadowMap) -> revoker::conservative::ConservativeStats,
    image: &ConservativeImage,
    shadow: &ShadowMap,
) -> f64 {
    let mut times = Vec::new();
    for _ in 0..3 {
        let mut img = image.clone();
        let t0 = Instant::now();
        std::hint::black_box(f(&mut img, shadow));
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    (image.len_bytes() as f64 / (1024.0 * 1024.0)) / times[1]
}

/// Streaming read bandwidth of the host over the same buffer.
fn read_bandwidth(mem: &tagmem::TaggedMemory) -> f64 {
    let data = mem.data();
    let t0 = Instant::now();
    let mut acc = 0u64;
    for chunk in data.chunks_exact(8) {
        acc = acc.wrapping_add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
    }
    let dt = t0.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    (data.len() as f64 / (1024.0 * 1024.0)) / dt
}

fn main() {
    // The benchmarks fig. 7 shows: those with significant deallocation.
    let names = [
        "ffmpeg",
        "astar",
        "dealII",
        "gobmk",
        "h264ref",
        "hmmer",
        "mcf",
        "milc",
        "omnetpp",
        "povray",
        "soplex",
        "sphinx3",
        "xalancbmk",
    ];
    let mut rows = Vec::new();
    let mut reference = 0.0f64;

    for name in names {
        let p = profiles::by_name(name).expect("known benchmark");
        // Granule density inside pointer-bearing pages is sparse; scale the
        // page density down to a plausible word-level density.
        let density = (p.pointer_page_density * 0.08).min(0.5);
        let mem = bench::image_with_granule_density(IMAGE_BYTES, density);
        let mut shadow = ShadowMap::new(mem.base(), mem.len());
        shadow.paint(mem.base(), mem.len() / 4);
        let rate = |kernel, workers| bench::engine_sweep_rate(kernel, workers, &mem, &shadow);
        reference = reference.max(read_bandwidth(&mem));
        let cons = ConservativeImage::from_memory(&mem, mem.base(), mem.end());
        rows.push(Fig7Row {
            benchmark: name.to_string(),
            granule_density: density,
            simple_mib_s: rate(Kernel::Simple, 1),
            unrolled_mib_s: rate(Kernel::Unrolled, 1),
            fast_mib_s: rate(Kernel::Fast, 1),
            simd_mib_s: rate(Kernel::Simd, 1),
            parallel_mib_s: rate(Kernel::Simd, 4),
            cons_simple_mib_s: conservative_rate(sweep_scalar, &cons, &shadow),
            cons_unrolled_mib_s: conservative_rate(sweep_unrolled, &cons, &shadow),
            cons_avx2_mib_s: conservative_rate(sweep_avx2, &cons, &shadow),
        });
    }

    let g = |f: &dyn Fn(&Fig7Row) -> f64| bench::geomean(&rows.iter().map(f).collect::<Vec<_>>());
    rows.push(Fig7Row {
        benchmark: "geomean".to_string(),
        granule_density: 0.0,
        simple_mib_s: g(&|r| r.simple_mib_s),
        unrolled_mib_s: g(&|r| r.unrolled_mib_s),
        fast_mib_s: g(&|r| r.fast_mib_s),
        simd_mib_s: g(&|r| r.simd_mib_s),
        parallel_mib_s: g(&|r| r.parallel_mib_s),
        cons_simple_mib_s: g(&|r| r.cons_simple_mib_s),
        cons_unrolled_mib_s: g(&|r| r.cons_unrolled_mib_s),
        cons_avx2_mib_s: g(&|r| r.cons_avx2_mib_s),
    });

    println!(
        "Figure 7: sweep-loop bandwidth by kernel (host-measured, 64 MiB images, \
         a quarter painted)\n\
         Host streaming read bandwidth reference: {reference:.0} MiB/s\n"
    );
    bench::print_table(
        &[
            "benchmark",
            "density",
            "simple",
            "unrolled",
            "fast",
            "simd",
            "simd par(4)",
            "§5.3 simple",
            "§5.3 unrolled",
            "§5.3 AVX2",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.benchmark.clone(),
                    format!("{:.3}", r.granule_density),
                    format!("{:.0}", r.simple_mib_s),
                    format!("{:.0}", r.unrolled_mib_s),
                    format!("{:.0}", r.fast_mib_s),
                    format!("{:.0}", r.simd_mib_s),
                    format!("{:.0}", r.parallel_mib_s),
                    format!("{:.0}", r.cons_simple_mib_s),
                    format!("{:.0}", r.cons_unrolled_mib_s),
                    format!("{:.0}", r.cons_avx2_mib_s),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("\n(All rates in MiB/s; the optimised kernels should approach the read\n reference, the naïve loop should sit well below it — the fig. 7 ordering.)");
}
