//! A heap sweeps with the kernel its [`RevocationPolicy`] names. The
//! kernels themselves are proven equivalent on the revoker's own sweep
//! (`kernels_are_equivalent` in `crates/revoker/tests/prop_sweep.rs`);
//! this checks only the plumbing from policy to engine, through the
//! kernel name a telemetry-attached heap reports for each sweep.

use cherivoke::{CherivokeHeap, HeapConfig, Kernel, RevocationPolicy};
use telemetry::{EventKind, Registry};

#[test]
fn each_policy_kernel_reaches_the_heap_sweep() {
    for kernel in [Kernel::Simple, Kernel::Unrolled, Kernel::Fast, Kernel::Simd] {
        let mut config = HeapConfig::small();
        config.policy = RevocationPolicy {
            kernel,
            ..RevocationPolicy::paper_default()
        };
        // Only the explicit `revoke_now` below sweeps.
        config.policy.quarantine.fraction = f64::INFINITY;
        let mut heap = CherivokeHeap::new(config).expect("heap");
        let registry = Registry::new(64);
        heap.set_telemetry(&registry);

        let holder = heap.malloc(64).expect("holder");
        let obj = heap.malloc(64).expect("obj");
        heap.store_cap(&holder, 0, &obj).expect("store");
        heap.free(obj).expect("free");
        let stats = heap.revoke_now();
        assert!(
            stats.caps_revoked > 0,
            "{}: the sweep revoked nothing",
            kernel.name()
        );

        let swept_with: Vec<&str> = registry
            .recent_events(64)
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::Sweep { kernel, .. } => Some(kernel),
                _ => None,
            })
            .collect();
        assert!(!swept_with.is_empty(), "{}: no sweep event", kernel.name());
        assert!(
            swept_with.iter().all(|&name| name == kernel.name()),
            "policy kernel {} but the heap swept with {swept_with:?}",
            kernel.name()
        );
    }
}
