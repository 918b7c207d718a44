//! Cross-crate test of the full §5.3 offline pipeline: run a workload,
//! capture a dump, serialise it, deserialise on "another machine", and
//! verify that assisted, timed and functional sweeps all agree with the
//! live heap's view.

use cherivoke::{CherivokeHeap, HeapConfig};
use revoker::timed::{sweep_image, timed_sweep, TimedMode};
use revoker::{Kernel, NoCost, NoFilter, ShadowMap, SweepEngine};
use simcache::{Machine, MachineConfig};
use tagmem::snapshot_io::{decode_dump, encode_dump};
use tagmem::CoreDump;
use workloads::trace_io::{decode_trace, encode_trace};
use workloads::{profiles, run_trace, CherivokeUnderTest, TraceGenerator};

/// Build a heap mid-workload with a painted shadow, exactly as a sweep
/// would see it.
fn loaded_heap() -> (CherivokeHeap, ShadowMap) {
    let mut cfg = HeapConfig::small();
    cfg.policy.quarantine.fraction = f64::INFINITY; // manual control
    let mut h = CherivokeHeap::new(cfg).unwrap();
    let holder = h.malloc(4096).unwrap();
    let mut doomed = Vec::new();
    for i in 0..128u64 {
        let obj = h.malloc(64 + i % 512).unwrap();
        if i % 2 == 0 {
            h.store_cap(&holder, (i / 2 * 16) % 4096, &obj).unwrap();
        }
        if i % 3 == 0 {
            doomed.push(obj);
        }
    }
    for d in doomed {
        h.free(d).unwrap();
    }
    let mut shadow = ShadowMap::new(0x1000_0000, 1 << 20);
    for (addr, len) in h.allocator().quarantined_ranges() {
        shadow.paint(addr, len);
    }
    (h, shadow)
}

#[test]
fn serialised_dumps_sweep_identically_to_live_memory() {
    let (h, shadow) = loaded_heap();
    let dump = h.dump();

    // Round-trip through the wire format.
    let restored = decode_dump(encode_dump(&dump)).expect("valid encoding");
    assert_eq!(restored, dump);

    // Assisted sweeps (fig. 8a's walks) agree byte for byte.
    let engine = SweepEngine::new(Kernel::Unrolled);
    for mode in [
        TimedMode::Full,
        TimedMode::PteCapDirty,
        TimedMode::CLoadTags,
    ] {
        let (mut a, mut b) = (dump.clone(), restored.clone());
        let sa = sweep_image(
            &engine,
            a.segments_mut(),
            dump.cap_dirty_pages(),
            &shadow,
            mode,
            &mut NoCost,
        );
        let sb = sweep_image(
            &engine,
            b.segments_mut(),
            restored.cap_dirty_pages(),
            &shadow,
            mode,
            &mut NoCost,
        );
        assert_eq!(sa, sb, "{mode:?}");
        assert_eq!(a, b, "{mode:?}");
    }

    // Timed sweeps agree cycle for cycle (the model is deterministic).
    for mode in [
        TimedMode::Full,
        TimedMode::PteCapDirty,
        TimedMode::CLoadTags,
    ] {
        let mut m1 = Machine::new(MachineConfig::cheri_fpga_like());
        let mut m2 = Machine::new(MachineConfig::cheri_fpga_like());
        let r1 = timed_sweep(&dump, &shadow, &mut m1, mode);
        let r2 = timed_sweep(&restored, &shadow, &mut m2, mode);
        assert_eq!(r1.cycles, r2.cycles, "{mode:?}");
        assert_eq!(r1.caps_revoked, r2.caps_revoked);
    }

    // Functional sweep of the restored dump matches a sweep of the live
    // heap's own image.
    let mut live_img = dump.clone();
    let mut wire_img = restored;
    let whole = |img: &CoreDump| -> Vec<(u64, u64)> {
        img.segments()
            .iter()
            .map(|s| (s.mem.base(), s.mem.len()))
            .collect()
    };
    let (live_runs, wire_runs) = (whole(&live_img), whole(&wire_img));
    let live_total = engine
        .sweep(live_img.segments_mut(), &live_runs, NoFilter, &shadow)
        .caps_revoked;
    let wire_total = engine
        .sweep(wire_img.segments_mut(), &wire_runs, NoFilter, &shadow)
        .caps_revoked;
    assert_eq!(live_total, wire_total);
    assert!(live_total > 0, "scenario must have dangling captures");
}

#[test]
fn serialised_traces_replay_identically() {
    let p = profiles::by_name("omnetpp").unwrap();
    let trace = TraceGenerator::new(p, 1.0 / 2048.0, 77).generate();
    let wire = decode_trace(encode_trace(&trace)).expect("valid encoding");

    let mut a = CherivokeUnderTest::paper_default(&trace).unwrap();
    let mut b = CherivokeUnderTest::paper_default(&wire).unwrap();
    let ra = run_trace(&mut a, &trace).unwrap();
    let rb = run_trace(&mut b, &wire).unwrap();

    assert_eq!(ra.events, rb.events);
    assert_eq!(a.heap().stats().caps_revoked, b.heap().stats().caps_revoked);
    assert_eq!(a.heap().stats().sweeps, b.heap().stats().sweeps);
    assert_eq!(
        a.heap().stats().alloc.peak_footprint_bytes,
        b.heap().stats().alloc.peak_footprint_bytes
    );
    assert!((ra.normalized_time - rb.normalized_time).abs() < 1e-12);
}
