//! The paper's §5.3 measurement methodology, end to end: run a workload,
//! capture a core dump when the quarantine fills, then time revocation
//! sweeps over the dump offline — on a modelled CHERI FPGA — under each
//! hardware-assist configuration.
//!
//! ```sh
//! cargo run --release --example offline_sweep
//! ```

use cherivoke::{CherivokeHeap, HeapConfig};
use revoker::timed::{sweep_image, timed_sweep, TimedMode};
use revoker::{Kernel, NoCost, ShadowMap, SweepEngine};
use simcache::{Machine, MachineConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Run an allocation-heavy workload until its quarantine is full.
    //    (The policy's automatic sweep is disabled so we can capture the
    //    dump at exactly the moment a sweep *would* trigger — the paper
    //    dumps core "when the quarantine buffer is full", §5.3.)
    let mut cfg = HeapConfig::default();
    cfg.policy.quarantine.fraction = f64::INFINITY;
    let mut heap = CherivokeHeap::new(cfg)?;
    let table = heap.malloc(64 << 10)?;
    let mut live = Vec::new();
    let mut slot = 0u64;
    let mut rng = 0x5eed_5eedu64;
    while heap.quarantined_bytes() < heap.live_bytes() / 4 || heap.quarantined_bytes() < (1 << 20) {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
        if rng.is_multiple_of(3) && !live.is_empty() {
            let cap: cheri::Capability = live.swap_remove((rng >> 33) as usize % live.len());
            heap.free(cap)?;
        } else if heap.live_bytes() < 8 << 20 {
            let cap = heap.malloc(64 + (rng >> 40) % 2048)?;
            if slot < 4096 {
                // Scatter references so the dump has pointer-dense pages.
                heap.store_cap(&table, slot * 16, &cap)?;
                slot += 1;
            }
            live.push(cap);
        }
    }

    // 2. Capture the §5.3 core dump (memory + tags + CapDirty page list)
    //    and paint the shadow map as the sweep would see it.
    let dump = heap.dump();
    let stats = dump.stats();
    println!(
        "dump captured: {} MiB, {} capabilities, page density {:.1}%, line density {:.1}%",
        stats.total_bytes >> 20,
        stats.tagged_granules,
        stats.page_density() * 100.0,
        stats.line_density() * 100.0
    );
    let heap_seg = dump
        .segments()
        .iter()
        .find(|s| s.kind == tagmem::SegmentKind::Heap)
        .unwrap();
    let mut shadow = ShadowMap::new(heap_seg.mem.base(), heap_seg.mem.len());
    for (addr, len) in heap.allocator().quarantined_ranges() {
        shadow.paint(addr, len);
    }

    // 3. Sweep a clone of the dump under each hardware assist and count
    //    the bytes read (fig. 8a's metric).
    for mode in [
        TimedMode::Full,
        TimedMode::PteCapDirty,
        TimedMode::CLoadTags,
    ] {
        let swept = sweep_image(
            &SweepEngine::new(Kernel::Fast),
            dump.clone().segments_mut(),
            dump.cap_dirty_pages(),
            &shadow,
            mode,
            &mut NoCost,
        );
        println!(
            "sweep {mode:?}: {:>5.1}% of memory must be read",
            swept.bytes_swept as f64 / stats.total_bytes as f64 * 100.0
        );
    }

    // 4. Time the sweep on the CHERI-FPGA machine model under each mode
    //    (fig. 8b's metric), averaging several sweeps like the paper.
    println!();
    for mode in [
        TimedMode::Full,
        TimedMode::PteCapDirty,
        TimedMode::CLoadTags,
        TimedMode::Ideal,
    ] {
        let mut machine = Machine::new(MachineConfig::cheri_fpga_like());
        let mut cycles = 0;
        const REPS: u64 = 5;
        for _ in 0..REPS {
            machine.reset();
            let r = timed_sweep(&dump, &shadow, &mut machine, mode);
            cycles += r.cycles;
        }
        let avg = cycles / REPS;
        println!(
            "timed {mode:?}: {:>12} cycles/sweep = {:>8.3} ms at 100 MHz",
            avg,
            MachineConfig::cheri_fpga_like().cycles_to_seconds(avg) * 1000.0
        );
    }

    println!(
        "\nThe orderings to observe: CLoadTags ≤ PTE CapDirty ≤ Full in swept\n\
         bytes, and Ideal ≤ assisted ≤ Full in cycles — §3.4's two assists, both\n\
         necessary for optimal work reduction (§6.3)."
    );
    Ok(())
}
