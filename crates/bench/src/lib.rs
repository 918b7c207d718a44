//! Shared harness utilities for the experiment binaries and Criterion
//! benches that regenerate the paper's tables and figures.
//!
//! Each `src/bin/` target regenerates one artefact:
//!
//! | target | paper artefact |
//! |---|---|
//! | `table2` | Table 2 (deallocation metadata) |
//! | `fig5` | Figure 5 (execution time + memory vs comparators) |
//! | `fig6` | Figure 6 (overhead decomposition) |
//! | `fig7` | Figure 7 (sweep-loop bandwidth, measured on the host) |
//! | `fig8a` | Figure 8a (proportion of memory swept) |
//! | `fig8b` | Figure 8b (sweep time vs pointer density, modelled FPGA) |
//! | `fig9` | Figure 9 (time vs heap overhead trade-off) |
//! | `fig10` | Figure 10 (off-core traffic overhead) |
//! | `model_check` | §6.1.3 analytic model vs measured |
//!
//! Every binary prints one text table; `cargo xtask results` captures the
//! deterministic ones into `results/*.txt`.
//!
//! The [`verdicts`] module holds the acceptance bars `cargo xtask lab`
//! gates on, over the [`service`] churn and the [`fleet`] cells, and
//! [`paired`] the paired A/B statistics that both its wall-clock verdicts
//! and `cargo xtask ab` decide through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod paired;
pub mod service;
pub mod verdicts;

use cheri::Capability;
use revoker::{Kernel, NoFilter, ShadowMap, SweepEngine};
use tagmem::{TaggedMemory, GRANULE_SIZE, LINE_SIZE, PAGE_SIZE};

/// Geometric mean of a slice (the paper's summary statistic in fig. 5).
///
/// # Panics
///
/// Panics on an empty slice or non-positive entries.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of nothing");
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean requires positive values, got {x}");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

/// Prints a fixed-width text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let s: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        println!("  {}", s.join("  "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Warmed best-of-five sweep rate (MiB/s) of `mem` under one engine
/// composition: `kernel` executed by a [`SweepEngine`] with
/// `workers` threads (1 = the calling thread): two untimed warm-up
/// sweeps, then the fastest of five timed ones. Every host-measured
/// sweep number in the experiment binaries comes through here, so
/// figures, the Criterion benches and the runtime share one visitation
/// order. Both choices are noise armor. The warm-up matters for the
/// vector kernel: a core's first 256-bit µops execute at reduced
/// throughput until its AVX voltage/frequency transition completes, and
/// without it that one-off license ramp is charged to whichever kernel
/// happens to run first. Min-time (rather than a median) is the right
/// estimator for a *capability* number on a shared host: a sweep is a
/// few hundred microseconds, so one hypervisor preemption slice landing
/// inside a rep inflates it by an order of magnitude, and on a noisy
/// guest a majority of reps can be hit — the minimum is the rep the
/// interference missed.
pub fn engine_sweep_rate(
    kernel: Kernel,
    workers: usize,
    mem: &TaggedMemory,
    shadow: &ShadowMap,
) -> f64 {
    let engine = SweepEngine::new(kernel).with_workers(workers);
    let run = [(mem.base(), mem.len())];
    let mut times = Vec::new();
    for rep in 0..7 {
        let mut img = mem.clone();
        let t0 = std::time::Instant::now();
        let stats = engine.sweep(std::slice::from_mut(&mut img), &run, NoFilter, shadow);
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(stats.bytes_swept, mem.len());
        if rep >= 2 {
            times.push(dt);
        }
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    (mem.len() as f64 / (1024.0 * 1024.0)) / times[0]
}

/// Builds a memory image whose **pages** have capability density `d`:
/// a `d` fraction of pages hold capabilities in every line (the fig. 8b
/// page-granularity x-axis).
pub fn image_with_page_density(len: u64, d: f64) -> TaggedMemory {
    let base = 0x1000_0000u64;
    let mut mem = TaggedMemory::new(base, len);
    let cap = Capability::root_rw(base, 64);
    let pages = len / PAGE_SIZE;
    let dirty = (pages as f64 * d).round() as u64;
    // Spread dirty pages evenly.
    for i in 0..dirty {
        let page = base + (i * pages / dirty.max(1)) * PAGE_SIZE;
        let mut line = page;
        while line < page + PAGE_SIZE {
            mem.write_cap(line, &cap).expect("in range");
            line += LINE_SIZE;
        }
    }
    mem
}

/// Builds a memory image whose **lines** have capability density `d`,
/// spread uniformly (the fig. 8b line-granularity x-axis).
pub fn image_with_line_density(len: u64, d: f64) -> TaggedMemory {
    let base = 0x1000_0000u64;
    let mut mem = TaggedMemory::new(base, len);
    let cap = Capability::root_rw(base, 64);
    let lines = len / LINE_SIZE;
    let tagged = (lines as f64 * d).round() as u64;
    for i in 0..tagged {
        let line = base + (i * lines / tagged.max(1)) * LINE_SIZE;
        mem.write_cap(line, &cap).expect("in range");
    }
    mem
}

/// Builds an image with the given **granule** density of capabilities,
/// uniformly spread — used by the fig. 7 kernel-bandwidth measurements,
/// where the paper sweeps real application images of varying density.
pub fn image_with_granule_density(len: u64, d: f64) -> TaggedMemory {
    let base = 0x1000_0000u64;
    let mut mem = TaggedMemory::new(base, len);
    let cap = Capability::root_rw(base, 64);
    let granules = len / GRANULE_SIZE;
    let tagged = (granules as f64 * d).round() as u64;
    for i in 0..tagged {
        let g = base + (i * granules / tagged.max(1)) * GRANULE_SIZE;
        mem.write_cap(g, &cap).expect("in range");
    }
    mem
}

/// Builds an image with the given **granule** density of capabilities,
/// each bounded to its *own* granule — allocation-local pointees, the
/// steady-state shape the sweep-kernel benchmark measures: a painted
/// quarantine prefix revokes only the capabilities living inside it, and
/// every survivor's shadow lookup lands in its own 1 KiB window.
pub fn image_with_self_caps(len: u64, d: f64) -> TaggedMemory {
    let base = 0x1000_0000u64;
    let mut mem = TaggedMemory::new(base, len);
    let granules = len / GRANULE_SIZE;
    let tagged = (granules as f64 * d).round() as u64;
    for i in 0..tagged {
        let g = base + (i * granules / tagged.max(1)) * GRANULE_SIZE;
        let cap = Capability::root_rw(g, GRANULE_SIZE);
        mem.write_cap(g, &cap).expect("in range");
    }
    mem
}

/// Builds an image with **clustered** capabilities at overall granule
/// density `d`: a `d` fraction of pages is capability-dense (a self-cap
/// in every granule), the rest are capability-free — the pointer-array /
/// data-page split real heaps exhibit, and the shape where word-at-a-time
/// tag skipping pays (a uniform spread at the same density leaves almost
/// no tag word empty).
pub fn image_with_clustered_caps(len: u64, d: f64) -> TaggedMemory {
    let base = 0x1000_0000u64;
    let mut mem = TaggedMemory::new(base, len);
    let pages = len / PAGE_SIZE;
    let dirty = (pages as f64 * d).round() as u64;
    for i in 0..dirty {
        let page = base + (i * pages / dirty.max(1)) * PAGE_SIZE;
        let mut g = page;
        while g < page + PAGE_SIZE {
            let cap = Capability::root_rw(g, GRANULE_SIZE);
            mem.write_cap(g, &cap).expect("in range");
            g += GRANULE_SIZE;
        }
    }
    mem
}

/// Builds a **mixed-density** image: pages alternate between
/// capability-dense (a self-cap in every granule, as in
/// [`image_with_self_caps`] at full density) and capability-free. This is
/// the adversarial shape for a vector kernel's clean-span skip: every
/// other page the sweep flips between the bulk skip path and the
/// lane-parallel decode path, so branchy dispatch overhead shows up here
/// before it shows up on uniformly dense or uniformly sparse images.
pub fn image_with_mixed_pages(len: u64) -> TaggedMemory {
    let base = 0x1000_0000u64;
    let mut mem = TaggedMemory::new(base, len);
    let pages = len / PAGE_SIZE;
    for p in (0..pages).step_by(2) {
        let page = base + p * PAGE_SIZE;
        let mut g = page;
        while g < page + PAGE_SIZE {
            let cap = Capability::root_rw(g, GRANULE_SIZE);
            mem.write_cap(g, &cap).expect("in range");
            g += GRANULE_SIZE;
        }
    }
    mem
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagmem::{CoreDump, SegmentImage, SegmentKind};

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn page_density_images_hit_target() {
        for d in [0.0, 0.25, 0.5, 1.0] {
            let mem = image_with_page_density(1 << 20, d);
            let dump = CoreDump::from_images(vec![SegmentImage {
                kind: SegmentKind::Heap,
                mem,
            }]);
            let got = dump.stats().page_density();
            assert!((got - d).abs() < 0.02, "target {d}, got {got}");
        }
    }

    #[test]
    fn line_density_images_hit_target() {
        for d in [0.1, 0.5, 0.9] {
            let mem = image_with_line_density(1 << 20, d);
            let dump = CoreDump::from_images(vec![SegmentImage {
                kind: SegmentKind::Heap,
                mem,
            }]);
            let got = dump.stats().line_density();
            assert!((got - d).abs() < 0.02, "target {d}, got {got}");
        }
    }

    #[test]
    fn granule_density_images_hit_target() {
        let mem = image_with_granule_density(1 << 20, 0.2);
        let density = mem.tag_count() as f64 / (mem.granules() as f64);
        assert!((density - 0.2).abs() < 0.01);
    }

    #[test]
    fn mixed_pages_alternate_dense_and_free() {
        let mem = image_with_mixed_pages(1 << 20);
        let granules_per_page = PAGE_SIZE / GRANULE_SIZE;
        for p in 0..(1u64 << 20) / PAGE_SIZE {
            let page = mem.base() + p * PAGE_SIZE;
            let tags = mem.count_tags_in(page, PAGE_SIZE);
            if p % 2 == 0 {
                assert_eq!(tags, granules_per_page, "page {p} should be dense");
            } else {
                assert_eq!(tags, 0, "page {p} should be capability-free");
            }
        }
        // Exactly half of all granules are tagged.
        assert_eq!(mem.tag_count(), mem.granules() / 2);
    }
}
