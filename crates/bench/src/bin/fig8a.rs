//! Regenerates **Figure 8(a)**: the proportion of memory a revocation
//! sweep must read under PTE CapDirty (page granularity) and CLoadTags
//! (cache-line granularity) work elimination, per benchmark.
//!
//! Each benchmark's trace is replayed on the real heap; a clone of the
//! resulting core dump is swept by the [`revoker::SweepEngine`] under each
//! assist's filter composition, and the bytes it swept are the metric.

use revoker::timed::{sweep_image, TimedMode};
use revoker::{Kernel, NoCost, ShadowMap, SweepEngine};
use workloads::{profiles, run_trace, CherivokeUnderTest, TraceGenerator};

struct Fig8aRow {
    benchmark: String,
    pte_capdirty_fraction: f64,
    cloadtags_fraction: f64,
}

fn main() {
    let scale = 1.0 / 512.0;
    let seed = 42;
    let mut rows = Vec::new();

    for p in profiles::all() {
        let trace = TraceGenerator::new(p, scale, seed).generate();
        let mut sut = CherivokeUnderTest::paper_default(&trace).expect("construct heap");
        run_trace(&mut sut, &trace).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        let dump = sut.heap().dump();
        let swept = |mode| {
            sweep_image(
                &SweepEngine::new(Kernel::Fast),
                dump.clone().segments_mut(),
                dump.cap_dirty_pages(),
                &ShadowMap::new(0, 0),
                mode,
                &mut NoCost,
            )
            .bytes_swept
        };
        let (pte, clt) = (swept(TimedMode::PteCapDirty), swept(TimedMode::CLoadTags));
        let total: u64 = dump.segments().iter().map(|img| img.mem.len()).sum();
        // Normalise against the memory the application actually used, not
        // the simulator's oversized heap segment (the paper sweeps real
        // process images whose segments are sized to the application).
        let used = sut.heap().stats().alloc.peak_footprint_bytes
            + sut
                .heap()
                .space()
                .segments()
                .iter()
                .filter(|s| s.kind().sweepable() && s.kind() != tagmem::SegmentKind::Heap)
                .map(|s| s.mem().len())
                .sum::<u64>();
        let used = used.min(total).max(1);
        rows.push(Fig8aRow {
            benchmark: p.name.to_string(),
            pte_capdirty_fraction: (pte as f64 / used as f64).min(1.0),
            cloadtags_fraction: (clt as f64 / used as f64).min(1.0),
        });
    }

    println!("Figure 8(a): proportion of memory that must be swept\n");
    bench::print_table(
        &["benchmark", "PTE CapDirty", "CLoadTags"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.benchmark.clone(),
                    format!("{:.3}", r.pte_capdirty_fraction),
                    format!("{:.3}", r.cloadtags_fraction),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nCLoadTags ≤ PTE CapDirty everywhere; the gap is the further line-level\n\
         work reduction of §3.4.1 (largest where pages are dirty but sparse)."
    );
}
