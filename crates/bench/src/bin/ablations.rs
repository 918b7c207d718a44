//! Ablation study for the design choices DESIGN.md calls out: what does
//! each of CHERIvoke's optimisations actually buy?
//!
//! 1. **Quarantine aggregation** (§5.2): constant-time coalescing of
//!    adjacent freed chunks vs. per-chunk quarantine entries.
//! 2. **Shadow-map wide stores** (§5.2): word-at-a-time painting vs. the
//!    naïve bit-at-a-time loop (host-measured).
//! 3. **PTE CapDirty page skipping** (§3.4.2): bytes a sweep must walk
//!    with and without page filtering, on the same workload.
//! 4. **Sweep-kernel tier** (§6.2): end-to-end overhead priced at each
//!    kernel's host-measured scan rate.
//! 5. **Incremental epochs** (§3.5): maximum revocation pause vs. slice
//!    size, against the stop-the-world pause.

use std::time::Instant;

use cherivoke::RevocationPolicy;
use revoker::{Kernel, ShadowMap};
use workloads::{profiles, run_trace, CherivokeUnderTest, CostModel, Stage, TraceGenerator};

struct Ablations {
    aggregation: AggregationAblation,
    painting: PaintingAblation,
    capdirty: CapDirtyAblation,
    kernels: Vec<KernelAblation>,
    pauses: Vec<PauseAblation>,
}

struct AggregationAblation {
    internal_frees_with: u64,
    internal_frees_without: u64,
    reduction_factor: f64,
}

struct PaintingAblation {
    wide_mib_s: f64,
    bitwise_mib_s: f64,
    speedup: f64,
}

struct CapDirtyAblation {
    bytes_swept_with: u64,
    bytes_swept_without: u64,
    work_reduction: f64,
}

struct KernelAblation {
    kernel: String,
    scan_rate_mib_s: f64,
    xalancbmk_overhead_pct: f64,
}

struct PauseAblation {
    mode: String,
    max_pause_bytes: u64,
    max_pause_ms_at_8gib_s: f64,
}

fn aggregation() -> AggregationAblation {
    let p = profiles::by_name("dealII").expect("profile");
    let trace = TraceGenerator::new(p, 1.0 / 1024.0, 11).generate();
    let mut counts = [0u64; 2];
    for (i, aggregate) in [true, false].into_iter().enumerate() {
        let mut policy = RevocationPolicy::paper_default();
        policy.quarantine.aggregate = aggregate;
        let mut sut =
            CherivokeUnderTest::new(&trace, policy, CostModel::x86_default(), Stage::Full)
                .expect("heap");
        run_trace(&mut sut, &trace).expect("run");
        counts[i] = sut.heap().stats().alloc.internal_frees;
    }
    AggregationAblation {
        internal_frees_with: counts[0],
        internal_frees_without: counts[1],
        reduction_factor: counts[1] as f64 / counts[0].max(1) as f64,
    }
}

fn painting() -> PaintingAblation {
    const LEN: u64 = 64 << 20;
    let rate = |bitwise: bool| -> f64 {
        let mut shadow = ShadowMap::new(0x1000_0000, LEN);
        let t0 = Instant::now();
        let mut painted = 0u64;
        for _ in 0..8 {
            if bitwise {
                shadow.paint_bitwise(0x1000_0000, LEN);
            } else {
                shadow.paint(0x1000_0000, LEN);
            }
            shadow.clear_all();
            painted += LEN;
        }
        painted as f64 / (1024.0 * 1024.0) / t0.elapsed().as_secs_f64()
    };
    let wide = rate(false);
    let bitwise = rate(true);
    PaintingAblation {
        wide_mib_s: wide,
        bitwise_mib_s: bitwise,
        speedup: wide / bitwise,
    }
}

fn capdirty() -> CapDirtyAblation {
    let p = profiles::by_name("sphinx3").expect("profile");
    let trace = TraceGenerator::new(p, 1.0 / 1024.0, 11).generate();
    let mut swept = [0u64; 2];
    for (i, use_capdirty) in [true, false].into_iter().enumerate() {
        let mut policy = RevocationPolicy::paper_default();
        policy.use_capdirty = use_capdirty;
        let mut sut =
            CherivokeUnderTest::new(&trace, policy, CostModel::x86_default(), Stage::Full)
                .expect("heap");
        run_trace(&mut sut, &trace).expect("run");
        swept[i] = sut.heap().stats().bytes_swept;
    }
    CapDirtyAblation {
        bytes_swept_with: swept[0],
        bytes_swept_without: swept[1],
        work_reduction: 1.0 - swept[0] as f64 / swept[1].max(1) as f64,
    }
}

fn kernels() -> Vec<KernelAblation> {
    // Host-measure each kernel's scan rate, then price xalancbmk with it.
    // A quarter painted, as in Fig. 7: every tier decodes and revokes.
    let mem = bench::image_with_granule_density(32 << 20, 0.07);
    let mut shadow = ShadowMap::new(mem.base(), mem.len());
    shadow.paint(mem.base(), mem.len() / 4);
    let p = profiles::by_name("xalancbmk").expect("profile");
    let trace = TraceGenerator::new(p, 1.0 / 1024.0, 11).generate();
    [
        ("simple", Kernel::Simple, 1),
        ("unrolled", Kernel::Unrolled, 1),
        ("fast", Kernel::Fast, 1),
        ("simd", Kernel::Simd, 1),
        ("parallel4", Kernel::Simd, 4),
    ]
    .into_iter()
    .map(|(name, kernel, workers)| {
        let rate = bench::engine_sweep_rate(kernel, workers, &mem, &shadow);
        let mut sut = CherivokeUnderTest::new(
            &trace,
            RevocationPolicy::paper_default(),
            CostModel::x86_default().with_scan_rate(rate * 1024.0 * 1024.0),
            Stage::Full,
        )
        .expect("heap");
        let overhead = (run_trace(&mut sut, &trace).expect("run").normalized_time - 1.0) * 100.0;
        KernelAblation {
            kernel: name.to_string(),
            scan_rate_mib_s: rate,
            xalancbmk_overhead_pct: overhead,
        }
    })
    .collect()
}

fn pauses() -> Vec<PauseAblation> {
    let p = profiles::by_name("xalancbmk").expect("profile");
    let trace = TraceGenerator::new(p, 1.0 / 1024.0, 11).generate();
    let mut out = Vec::new();

    // Stop-the-world: the pause is a full sweep's bytes. Project to the
    // benchmark's full-scale heap (pause bytes scale with the heap; slice
    // sizes do not — that is the point of incremental mode).
    let mut sut = CherivokeUnderTest::paper_default(&trace).expect("heap");
    run_trace(&mut sut, &trace).expect("run");
    let sweeps = sut.heap().stats().sweeps.max(1);
    let bytes_per_sweep = (sut.heap().stats().bytes_swept / sweeps) as f64 / trace.scale;
    out.push(PauseAblation {
        mode: "stop-the-world (full-scale)".to_string(),
        max_pause_bytes: bytes_per_sweep as u64,
        max_pause_ms_at_8gib_s: bytes_per_sweep / (8.0 * 1024.0 * 1024.0 * 1024.0) * 1000.0,
    });

    // Incremental: the pause is one slice.
    for slice in [256 << 10, 64 << 10, 8 << 10] {
        out.push(PauseAblation {
            mode: format!("incremental {} KiB slices", slice >> 10),
            max_pause_bytes: slice,
            max_pause_ms_at_8gib_s: slice as f64 / (8.0 * 1024.0 * 1024.0 * 1024.0) * 1000.0,
        });
    }
    out
}

fn main() {
    let result = Ablations {
        aggregation: aggregation(),
        painting: painting(),
        capdirty: capdirty(),
        kernels: kernels(),
        pauses: pauses(),
    };

    println!("Ablation study\n");
    println!(
        "1. Quarantine aggregation (§5.2): {} internal frees with, {} without\n\
         \u{20}  -> {:.0}x fewer drain-time frees\n",
        result.aggregation.internal_frees_with,
        result.aggregation.internal_frees_without,
        result.aggregation.reduction_factor
    );
    println!(
        "2. Shadow painting (§5.2): wide stores {:.0} MiB/s vs bitwise {:.0} MiB/s\n\
         \u{20}  -> {:.1}x speedup\n",
        result.painting.wide_mib_s, result.painting.bitwise_mib_s, result.painting.speedup
    );
    println!(
        "3. PTE CapDirty (§3.4.2): {} MiB swept with, {} MiB without\n\
         \u{20}  -> {:.0}% of sweep work eliminated (sphinx3)\n",
        result.capdirty.bytes_swept_with >> 20,
        result.capdirty.bytes_swept_without >> 20,
        result.capdirty.work_reduction * 100.0
    );
    println!("4. Sweep kernel tier (§6.2), xalancbmk end-to-end:");
    for k in &result.kernels {
        println!(
            "   {:>9}: {:>6.0} MiB/s scan -> {:>5.1}% overhead",
            k.kernel, k.scan_rate_mib_s, k.xalancbmk_overhead_pct
        );
    }
    println!("\n5. Revocation pauses (§3.5), xalancbmk:");
    for pa in &result.pauses {
        println!(
            "   {:>28}: {:>8} bytes/pause = {:.3} ms at 8 GiB/s",
            pa.mode, pa.max_pause_bytes, pa.max_pause_ms_at_8gib_s
        );
    }
}
