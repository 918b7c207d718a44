//! Regenerates **Figure 8(b)**: normalised sweep execution time versus
//! pointer density, for PTE CapDirty and CLoadTags, against the idealised
//! `x = y` line — on the modelled CHERI FPGA memory hierarchy.
//!
//! As in the paper, each mechanism is plotted against *its* granularity:
//! PTE CapDirty against page density (images where a fraction of pages hold
//! capabilities densely) and CLoadTags against cache-line density (images
//! where a fraction of lines hold capabilities uniformly). Times are
//! normalised to a full sweep of the same image.

use revoker::timed::{timed_sweep, TimedMode};
use revoker::ShadowMap;
use simcache::{Machine, MachineConfig};
use tagmem::{CoreDump, SegmentImage, SegmentKind, TaggedMemory};

const IMAGE_BYTES: u64 = 8 << 20;

struct Fig8bRow {
    density: f64,
    pte_dirty: f64,
    cloadtags: f64,
    idealised: f64,
}

fn normalised(mem: TaggedMemory, mode: TimedMode) -> f64 {
    let shadow = ShadowMap::new(mem.base(), mem.len());
    let dump = CoreDump::from_images(vec![SegmentImage {
        kind: SegmentKind::Heap,
        mem,
    }]);
    let mut full_m = Machine::new(MachineConfig::cheri_fpga_like());
    let full = timed_sweep(&dump, &shadow, &mut full_m, TimedMode::Full);
    let mut m = Machine::new(MachineConfig::cheri_fpga_like());
    let r = timed_sweep(&dump, &shadow, &mut m, mode);
    r.cycles as f64 / full.cycles as f64
}

fn main() {
    let mut rows = Vec::new();
    for step in 0..=20 {
        let d = step as f64 / 20.0;
        let pte = normalised(
            bench::image_with_page_density(IMAGE_BYTES, d),
            TimedMode::PteCapDirty,
        );
        let clt = normalised(
            bench::image_with_line_density(IMAGE_BYTES, d),
            TimedMode::CLoadTags,
        );
        rows.push(Fig8bRow {
            density: d,
            pte_dirty: pte,
            cloadtags: clt,
            idealised: d,
        });
    }

    println!(
        "Figure 8(b): normalised sweep time vs pointer density\n\
         (CHERI-FPGA-like machine model; each mechanism plotted against its\n\
         own granularity; 'idealised' is the x = y oracle)\n"
    );
    bench::print_table(
        &["density", "PTE dirty", "CLoadTags", "idealised"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.2}", r.density),
                    format!("{:.3}", r.pte_dirty),
                    format!("{:.3}", r.cloadtags),
                    format!("{:.3}", r.idealised),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nExpected shape: PTE dirty hugs the idealised line; CLoadTags is better\n\
         than PTE at low density but crosses above 1.0 as density approaches 1\n\
         (per-line tag queries plus the unpredictable branch, §6.3)."
    );
}
