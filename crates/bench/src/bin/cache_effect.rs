//! Mechanistic validation of the quarantine cache effect (§6.1.1, §6.4).
//!
//! The paper attributes xalancbmk's 22% quarantine-only overhead to cache
//! behaviour: eager allocators reuse cache-warm memory immediately, while
//! quarantine forces allocations onto cold lines ("missing the opportunity
//! to reuse cached memory"); performance counters showed L2 misses growing
//! 50% with instructions up only 3%.
//!
//! This experiment reproduces the *mechanism* rather than assuming it: the
//! same allocation trace runs against the eager allocator and against
//! `dlmalloc_cherivoke` at several quarantine fractions; every allocation's
//! first-touch writes are fed through the `simcache` x86-like hierarchy,
//! and the L2 miss counts are compared.

use cvkalloc::{CherivokeAllocator, DlAllocator};
use simcache::{Machine, MachineConfig};
use workloads::{profiles, TraceGenerator, TraceOp};

struct CacheEffectRow {
    config: String,
    l2_miss_ratio: f64,
    cycles_per_alloc: f64,
    miss_growth_vs_eager_pct: f64,
}

/// Replays the trace's allocation stream, touching each new object, and
/// returns (L2 miss ratio, cycles, allocations).
fn run(trace: &workloads::Trace, quarantine_fraction: Option<f64>) -> (f64, u64, u64) {
    let mut machine = Machine::new(MachineConfig::x86_like());
    let mut allocs = 0u64;

    // The system under test: eager dlmalloc or dlmalloc_cherivoke.
    let size = cheri::CompressedBounds::representable_length(trace.heap_bytes * 4);
    let mut eager = DlAllocator::new(0x1000_0000, size);
    let mut quarantined = quarantine_fraction
        .map(|f| CherivokeAllocator::new(DlAllocator::new(0x1000_0000, size), f));

    let mut addr_of = std::collections::HashMap::new();
    for e in &trace.events {
        match e.op {
            TraceOp::Malloc { id, size } => {
                let block = match &mut quarantined {
                    Some(q) => {
                        if q.needs_sweep() {
                            q.drain_quarantine();
                        }
                        q.malloc(size).expect("space")
                    }
                    None => eager.malloc(size).expect("space"),
                };
                addr_of.insert(id, block.addr);
                // First touch: the program initialises its new object.
                machine.write(block.addr, block.size.min(512));
                allocs += 1;
            }
            TraceOp::Free { id } => {
                let addr = addr_of.remove(&id).expect("live");
                match &mut quarantined {
                    Some(q) => {
                        q.free(addr).expect("valid");
                    }
                    None => {
                        eager.free(addr).expect("valid");
                    }
                }
            }
            TraceOp::WritePtr { from, slot, to } => {
                // Pointer stores touch both objects.
                if let (Some(&f), Some(&t)) = (addr_of.get(&from), addr_of.get(&to)) {
                    machine.write(f + slot, 16);
                    machine.read(t, 16);
                }
            }
        }
    }

    let (_, l2, _, _) = machine.hierarchy().cache_stats();
    (l2.miss_ratio(), machine.cycles(), allocs.max(1))
}

fn main() {
    let p = profiles::by_name("xalancbmk").expect("profile");
    // Scale note: at 1/1024 the modelled L2 is large relative to the heap,
    // which isolates the *reuse* effect at moderate fractions. At large
    // fractions the growing footprint spills the L2 (a capacity effect the
    // full-scale system pays in the L3 instead), so only moderate
    // fractions are shown; fig. 6's driver therefore uses the calibrated
    // sensitivity rather than this mechanistic model.
    let trace = TraceGenerator::new(p, 1.0 / 1024.0, 21)
        .with_max_events(120_000)
        .generate();

    let (eager_miss, eager_cycles, allocs) = run(&trace, None);
    let mut rows = vec![CacheEffectRow {
        config: "eager dlmalloc".to_string(),
        l2_miss_ratio: eager_miss,
        cycles_per_alloc: eager_cycles as f64 / allocs as f64,
        miss_growth_vs_eager_pct: 0.0,
    }];
    for fraction in [0.25, 0.5] {
        let (miss, cycles, allocs) = run(&trace, Some(fraction));
        rows.push(CacheEffectRow {
            config: format!("quarantine {:.0}%", fraction * 100.0),
            l2_miss_ratio: miss,
            cycles_per_alloc: cycles as f64 / allocs as f64,
            miss_growth_vs_eager_pct: (miss / eager_miss - 1.0) * 100.0,
        });
    }

    println!(
        "Quarantine cache effect (xalancbmk-like trace, x86-like hierarchy)\n\
         Paper §6.1.1: quarantine grew L2 misses ~50% with instructions ~flat.\n"
    );
    bench::print_table(
        &[
            "configuration",
            "L2 miss ratio",
            "cycles/alloc",
            "miss growth",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.config.clone(),
                    format!("{:.4}", r.l2_miss_ratio),
                    format!("{:.0}", r.cycles_per_alloc),
                    format!("{:+.1}%", r.miss_growth_vs_eager_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nExpected shape: quarantining raises L2 misses over the eager allocator\n\
         (delayed reuse defeats cache-warm recycling, §6.1.1)."
    );
}
