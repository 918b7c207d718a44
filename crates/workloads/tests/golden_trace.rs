//! Pins the bytes of generated traces.
//!
//! `traces_are_deterministic` only compares two runs of the same code; these
//! digests compare against traces recorded from an earlier generator, so a
//! change to `TraceGenerator::generate` that shifts a single random draw,
//! event or size fails here. Every figure capture and cvkbench's
//! `xalanc-replay` replay these traces, so a digest must change only
//! together with a deliberate re-capture of `results/`.

use workloads::{profiles, trace_io, TraceGenerator};

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(generator: &TraceGenerator) -> (usize, u64) {
    let trace = generator.generate();
    (trace.events.len(), fnv1a64(&trace_io::encode_trace(&trace)))
}

/// cvkbench's full-scale `xalanc-replay` trace.
#[test]
fn xalancbmk_replay_trace_is_pinned() {
    let p = profiles::by_name("xalancbmk").unwrap();
    let g = TraceGenerator::new(p, 1.0 / 64.0, 1)
        .with_duration(0.6)
        .with_max_events(1_200_000);
    assert_eq!(digest(&g), (XALANCBMK_EVENTS, XALANCBMK_DIGEST));
}

/// A mostly-oldest-first victim mix (omnetpp) and a page-spanning,
/// pointer-dense one (mcf), at the figures' default length.
#[test]
fn small_profile_traces_are_pinned() {
    for (name, expected) in [("omnetpp", OMNETPP), ("mcf", MCF)] {
        let g = TraceGenerator::new(profiles::by_name(name).unwrap(), 1.0 / 512.0, 1);
        assert_eq!(digest(&g), expected, "{name}");
    }
}

// (event count, FNV-1a over `trace_io::encode_trace`), recorded from the
// generator that kept its live set in a `Vec`.
const XALANCBMK_EVENTS: usize = 1_095_019;
const XALANCBMK_DIGEST: u64 = 0xd156_12e2_1169_2ed7;
const OMNETPP: (usize, u64) = (45_398, 0xa66e_eb3e_f4d0_773d);
const MCF: (usize, u64) = (794, 0xf335_7513_d41c_9cc5);
