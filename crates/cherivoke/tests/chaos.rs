//! Chaos tests: arbitrary mutator interleavings × arbitrary fault plans.
//!
//! The headline property (ISSUE 5): **after any completed revocation
//! epoch, no tagged capability to a quarantined-then-reused granule is
//! observable anywhere in the service** — no matter which faults were
//! injected along the way (sweep-worker panics, tag-memory read errors,
//! delayed epoch barriers, allocation failures, revoker-thread deaths).
//! Every fault is survivable: the op driver asserts that each operation
//! either succeeds or returns a *documented* typed [`HeapError`], never a
//! panic, and that the service keeps revoking soundly afterwards.
//!
//! Each seed also picks the service configuration it runs under: shard
//! count, quarantine fraction, sweep kernel and sweep worker count (see
//! [`chaos_config`]). The seed list covers every kernel with both worker
//! counts.
//!
//! A failing seed is reproducible from the seed alone: the op stream, the
//! fault plan and the configuration all derive from it. The seed, its
//! expanded fault plan and the resolved configuration are written to
//! `$CARGO_TARGET_TMPDIR/chaos_failing_plan.txt` (CI uploads it as an
//! artifact) and printed when the test fails.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use cheri::Capability;
use cherivoke::fault::{FaultInjector, FaultPlan, FaultPoint};
use cherivoke::{ConcurrentHeap, HeapClient, HeapError, Kernel, ServiceConfig};
use telemetry::EventKind;

/// SplitMix64 — the op driver's own deterministic stream (independent of
/// the fault plan's seed expansion).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// What the model knows about the capability stored in one stash slot.
#[derive(Clone, Copy)]
struct Stored {
    base: u64,
    /// The stored capability's allocation has been freed.
    freed: bool,
    /// A full revocation completed *after* the free: the architectural
    /// copy in the slot must now be untagged. This is the chaos invariant.
    revoked: bool,
}

struct Driver {
    heap: ConcurrentHeap,
    /// One client pinned to each shard. Frees and accesses route by
    /// address, so any of them serves those.
    clients: Vec<HeapClient>,
    rng: Rng,
    /// Live allocations (model of the program's owned objects).
    live: Vec<Capability>,
    /// Always-live 16-byte slots capabilities get stashed into.
    slots: Vec<Capability>,
    stored: Vec<Option<Stored>>,
    oom_errors: u64,
}

/// Allocates, tolerating a bounded number of *injected* allocation
/// failures (fault plans cap each rule's firings, so retries converge).
fn must_malloc(client: &HeapClient, size: u64) -> Capability {
    for _ in 0..16 {
        match client.malloc(size) {
            Ok(cap) => return cap,
            Err(HeapError::OutOfMemory { .. }) => continue,
            Err(e) => panic!("malloc returned undocumented error {e:?}"),
        }
    }
    panic!(
        "allocation failed 16 times in a row on shard {}",
        client.shard()
    );
}

impl Driver {
    fn new(heap: ConcurrentHeap, seed: u64) -> Driver {
        let clients: Vec<_> = (0..heap.shards()).map(|i| heap.handle_on(i)).collect();
        let slots: Vec<_> = (0..12)
            .map(|i| must_malloc(&clients[i % clients.len()], 16))
            .collect();
        let stored = vec![None; slots.len()];
        Driver {
            heap,
            clients,
            rng: Rng(seed),
            live: Vec::new(),
            slots,
            stored,
            oom_errors: 0,
        }
    }

    /// One random operation. Returns only documented outcomes; anything
    /// else panics the test (the driver runs under `catch_unwind` so the
    /// fault plan can be exported on failure).
    fn step(&mut self) {
        match self.rng.below(10) {
            // malloc — the only op allowed to fail, and only with the
            // documented terminal error.
            0..=3 => {
                let shard = self.rng.below(self.clients.len() as u64) as usize;
                let size = 16 + self.rng.below(4096);
                match self.clients[shard].malloc(size) {
                    Ok(cap) => {
                        assert!(cap.tag(), "fresh allocation must be tagged");
                        self.live.push(cap);
                    }
                    Err(HeapError::OutOfMemory { .. }) => self.oom_errors += 1,
                    Err(e) => panic!("malloc returned undocumented error {e:?}"),
                }
            }
            // free a random live allocation.
            4..=6 => {
                if self.live.is_empty() {
                    return;
                }
                let i = self.rng.below(self.live.len() as u64) as usize;
                let cap = self.live.swap_remove(i);
                let base = cap.base();
                self.clients[0]
                    .free(cap)
                    .expect("freeing a live allocation");
                for s in self.stored.iter_mut().flatten() {
                    if s.base == base {
                        s.freed = true;
                    }
                }
            }
            // store_cap: stash a random live capability in a random slot.
            7 => {
                if self.live.is_empty() {
                    return;
                }
                let v = self.live[self.rng.below(self.live.len() as u64) as usize];
                let s = self.rng.below(self.slots.len() as u64) as usize;
                self.clients[0]
                    .store_cap(&self.slots[s], 0, &v)
                    .expect("store_cap into a live slot");
                self.stored[s] = Some(Stored {
                    base: v.base(),
                    freed: false,
                    revoked: false,
                });
            }
            // load_cap: read a slot back and check it against the model.
            8 => {
                let s = self.rng.below(self.slots.len() as u64) as usize;
                let got = self.clients[0]
                    .load_cap(&self.slots[s], 0)
                    .expect("load_cap from a live slot");
                match self.stored[s] {
                    Some(st) if st.revoked => assert!(
                        !got.tag(),
                        "HEADLINE VIOLATION: tagged capability to base {:#x} observable \
                         after the revocation epoch that covered its free",
                        st.base
                    ),
                    // Never freed ⇒ never painted ⇒ still tagged.
                    Some(st) if !st.freed => {
                        assert!(got.tag(), "live capability lost its tag")
                    }
                    // Freed but no *observed* completed epoch: the
                    // background revoker may or may not have gotten there.
                    _ => {}
                }
            }
            // store/load data through a live capability.
            _ => {
                if self.live.is_empty() {
                    return;
                }
                let c = self.live[self.rng.below(self.live.len() as u64) as usize];
                self.clients[0]
                    .store_u64(&c, 0, 0xfeed)
                    .expect("store through a live capability");
                assert_eq!(self.clients[0].load_u64(&c, 0).unwrap(), 0xfeed);
            }
        }
    }

    /// A completed epoch: everything freed before this point must be
    /// unobservable afterwards.
    fn epoch_and_check(&mut self) {
        self.heap.revoke_all_now();
        for s in self.stored.iter_mut().flatten() {
            if s.freed {
                s.revoked = true;
            }
        }
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(st) = self.stored[i] {
                if st.revoked {
                    let got = self.clients[0].load_cap(slot, 0).unwrap();
                    assert!(
                        !got.tag(),
                        "HEADLINE VIOLATION: stash of freed base {:#x} still tagged \
                         after a completed epoch",
                        st.base
                    );
                }
            }
        }
    }
}

fn chaos_config(seed: u64) -> ServiceConfig {
    let mut config = ServiceConfig::small();
    config.shards = 1 + (seed % 4) as usize;
    config.telemetry = true;
    config.revoker_watchdog = Duration::from_millis(20);
    config.policy.quarantine.fraction = if seed.is_multiple_of(3) { 0.1 } else { 0.25 };
    // Rotate the sweep kernel and worker count by seed: the headline
    // invariant must hold under every sweep path alike.
    config.policy.kernel = [Kernel::Unrolled, Kernel::Fast, Kernel::Simd][(seed / 3 % 3) as usize];
    config.policy.sweep_workers = if (seed / 9).is_multiple_of(2) { 1 } else { 4 };
    config
}

/// The seed's fault plan and resolved configuration, as recorded when it
/// fails.
fn describe_seed(seed: u64) -> String {
    let config = chaos_config(seed);
    let policy = config.policy;
    format!(
        "seed={seed}\nfault_plan={}\nshards={}\nquarantine_fraction={}\nkernel={}\n\
         sweep_workers={}\n",
        FaultPlan::from_seed(seed),
        config.shards,
        policy.quarantine.fraction,
        policy.kernel.name(),
        policy.sweep_workers,
    )
}

/// Runs one full chaos scenario for `seed`; panics on any invariant
/// violation.
fn run_seed(seed: u64) {
    cherivoke::fault::silence_injected_panics();
    let plan = FaultPlan::from_seed(seed);
    let injector = FaultInjector::new(plan);
    let heap = ConcurrentHeap::with_journal_dir(chaos_config(seed), injector, None)
        .expect("chaos config is always repairable");
    let mut driver = Driver::new(heap, seed ^ 0xdead_beef);
    for round in 0..4 {
        for _ in 0..150 {
            driver.step();
        }
        driver.epoch_and_check();
        // Mid-run, also let the background revoker race the mutator.
        if round == 1 {
            driver.heap.kick_revoker();
        }
    }

    // Every injected fault kind that actually fired must have left its
    // documented recovery evidence behind.
    let inj = driver.heap.fault_injector().clone();
    let snap = driver.heap.snapshot();
    let stats = driver.heap.stats();
    if inj.fired(FaultPoint::SweepWorkerPanic) + inj.fired(FaultPoint::TagReadError) > 0 {
        assert!(
            snap.counters["cvk_sweep_retries_total"] > 0,
            "injected sweep faults left no retry evidence"
        );
    }
    if inj.fired(FaultPoint::RevokerDeath) > 0 {
        // The supervisor notices a death at its next tick; give it time.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while driver.heap.stats().revoker_restarts == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "injected revoker deaths left no restart evidence"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    if inj.fired(FaultPoint::AllocFailure) > 0 {
        assert!(
            driver.oom_errors + stats.oom_revocations + stats.emergency_sweeps > 0,
            "injected allocation failures left no OOM-path evidence"
        );
    }

    // Final soundness: drain everything and verify the heap still works.
    let survivors: Vec<_> = driver.live.drain(..).collect();
    for cap in survivors {
        driver.clients[0].free(cap).unwrap();
    }
    driver.epoch_and_check();
    assert_eq!(driver.heap.quarantined_bytes(), 0, "quarantine drained");
    assert!(must_malloc(&driver.clients[0], 64).tag());

    // Full-heap safety audit, per shard: whatever the fault plan did, no
    // tagged capability may point into memory the allocator can hand out
    // again (the crash-recovery module's invariant, applied to the live
    // service).
    for (shard, report) in driver.heap.audit_all().iter().enumerate() {
        assert!(
            report.clean(),
            "post-chaos audit found dangling capabilities on shard {shard}: {report:?}"
        );
    }
}

/// The chaos seeds. Together they cover every kernel with both worker
/// counts (checked by `seeds_cover_every_kernel_and_worker_count`).
const SEEDS: [u64; 10] = [1, 2, 3, 7, 9, 13, 42, 1337, 0xdead, 0xc0ffee];

#[test]
fn seeds_cover_every_kernel_and_worker_count() {
    let configs: Vec<_> = SEEDS
        .iter()
        .map(|&seed| {
            let policy = chaos_config(seed).policy;
            (policy.kernel, policy.sweep_workers)
        })
        .collect();
    for kernel in [Kernel::Unrolled, Kernel::Fast, Kernel::Simd] {
        for workers in [1, 4] {
            assert!(
                configs.contains(&(kernel, workers)),
                "no seed runs {kernel:?} with {workers} sweep workers"
            );
        }
    }
}

#[test]
fn chaos_property_holds_across_seeds_and_plans() {
    for seed in SEEDS {
        let outcome = catch_unwind(AssertUnwindSafe(|| run_seed(seed)));
        if let Err(payload) = outcome {
            let description = describe_seed(seed);
            let artifact =
                std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos_failing_plan.txt");
            let _ = std::fs::write(&artifact, &description);
            eprintln!(
                "chaos seed {seed} failed; the seed alone reproduces it (run this test with \
                 only {seed} in its seed list). Written to {}:\n{description}",
                artifact.display()
            );
            std::panic::resume_unwind(payload);
        }
    }
}

#[test]
fn directed_sweep_faults_recover_via_retry() {
    cherivoke::fault::silence_injected_panics();
    let plan: FaultPlan = "worker_panic@1/2x6,tag_read_error@2/2x6".parse().unwrap();
    let mut config = ServiceConfig::small();
    config.telemetry = true;
    let heap = ConcurrentHeap::with_journal_dir(config, FaultInjector::new(plan), None).unwrap();
    let client = heap.handle_on(0);
    let victim = client.malloc(64).unwrap();
    let stash = heap.handle_on(1).malloc(16).unwrap();
    client.store_cap(&stash, 0, &victim).unwrap();
    client.free(victim).unwrap();
    heap.revoke_all_now();
    // The panicked chunks were retried on the sequential reference kernel
    // and the sweep still revoked the cross-shard copy.
    assert!(!client.load_cap(&stash, 0).unwrap().tag());
    assert!(heap.fault_injector().fired(FaultPoint::SweepWorkerPanic) > 0);
    let snap = heap.snapshot();
    assert!(snap.counters["cvk_sweep_retries_total"] > 0);
    assert!(heap
        .telemetry()
        .recent_events(128)
        .iter()
        .any(|e| matches!(e.kind, EventKind::SweepRetried { .. })));
}

#[test]
fn directed_barrier_delay_cannot_leak_dangling_caps() {
    let plan: FaultPlan = "barrier_delay@1x4".parse().unwrap();
    let mut config = ServiceConfig::small();
    config.telemetry = true;
    let heap = ConcurrentHeap::with_journal_dir(config, FaultInjector::new(plan), None).unwrap();
    // The classic cross-shard stash, with the window between barrier
    // publication and the foreign sweeps stretched by the injected delay.
    let client = heap.handle_on(0);
    let victim = client.malloc(64).unwrap();
    let stash = heap.handle_on(1).malloc(16).unwrap();
    client.store_cap(&stash, 0, &victim).unwrap();
    client.free(victim).unwrap();
    heap.revoke_all_now();
    assert!(!client.load_cap(&stash, 0).unwrap().tag());
    assert!(heap.fault_injector().fired(FaultPoint::EpochBarrierDelay) > 0);
    assert!(heap.telemetry().recent_events(128).iter().any(|e| matches!(
        e.kind,
        EventKind::FaultInjected {
            point: "barrier_delay",
            ..
        }
    )));
}

#[test]
fn directed_alloc_failure_triggers_emergency_sweep() {
    // Hit 1 = `a` below; hit 2 = the post-free malloc, which the plan
    // fails. The quarantine is non-empty, so the service must run the
    // emergency synchronous sweep and satisfy the retry — the mutator
    // never sees the fault.
    let plan: FaultPlan = "alloc_failure@2x1".parse().unwrap();
    let mut config = ServiceConfig::small();
    config.telemetry = true;
    // Keep the background revoker out of it (as in the plain OOM test):
    // the emergency path must be the one draining the quarantine.
    config.policy.quarantine.fraction = f64::INFINITY;
    let heap = ConcurrentHeap::with_journal_dir(config, FaultInjector::new(plan), None).unwrap();
    let client = heap.handle_on(0);
    let a = client.malloc(64 << 10).unwrap();
    client.free(a).unwrap();
    let b = client.malloc(64 << 10).unwrap();
    assert!(b.tag());
    let stats = heap.stats();
    assert_eq!(stats.oom_revocations, 1);
    assert!(stats.emergency_sweeps >= 1);
    assert!(heap
        .telemetry()
        .recent_events(128)
        .iter()
        .any(|e| matches!(e.kind, EventKind::EmergencySweep { .. })));
}

#[test]
fn directed_revoker_death_is_survivable_under_load() {
    // The revoker dies every other wakeup, forever. Between supervisor
    // restarts, mutators route revocation inline — quarantine must stay
    // bounded and the workload must complete with zero panics.
    let plan: FaultPlan = "revoker_death@1/2".parse().unwrap();
    let mut config = ServiceConfig::small();
    config.telemetry = true;
    config.revoker_watchdog = Duration::from_millis(5);
    config.policy.quarantine.fraction = 0.2;
    let heap = ConcurrentHeap::with_journal_dir(config, FaultInjector::new(plan), None).unwrap();
    let client = heap.handle();
    for _ in 0..400 {
        let c = client.malloc(4096).unwrap();
        client.free(c).unwrap();
    }
    heap.revoke_all_now();
    assert_eq!(heap.quarantined_bytes(), 0);
    // The workload may outrun the revoker's first wakeup; wait for at
    // least one injected death (and its restart) to prove the point fired.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while heap.fault_injector().fired(FaultPoint::RevokerDeath) == 0
        || heap.stats().revoker_restarts == 0
    {
        assert!(
            std::time::Instant::now() < deadline,
            "revoker death never fired"
        );
        heap.kick_revoker();
        std::thread::sleep(Duration::from_millis(1));
    }
}
