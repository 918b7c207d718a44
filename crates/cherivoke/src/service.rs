//! The concurrent revocation service (paper §3.5 at deployment scale).
//!
//! [`ConcurrentHeap`] shards one logical heap across `N` independent
//! [`CherivokeHeap`]s, each owning a **disjoint address range**, so that
//! `malloc`/`free` from different threads proceed in parallel on
//! uncontended per-shard locks while a background worker drives
//! incremental revocation epochs ([`CherivokeHeap::begin_revocation`] →
//! [`CherivokeHeap::revoke_step`] → completion) in bounded slices — the
//! paper's observation that "sweeping revocation … can run alongside the
//! execution of the program" made concrete.
//!
//! A `ConcurrentHeap` is a thin configuration of the runtime core in
//! [`crate::fleet`]: **one isolation domain whose members are the
//! shards**, served by a one-worker pool under the core's supervisor. The
//! core owns the threads, the scheduler, the drain and emergency paths,
//! the statistics and the journals; this module only maps
//! [`ServiceConfig`] onto it.
//!
//! # Sharding
//!
//! Shard `i` owns heap addresses `[base + i·stride, base + i·stride +
//! size)`. Every capability the service hands out is bounded inside
//! exactly one shard, so `free`, loads and stores route by the
//! capability's *base address* with no shared state on the hot path.
//! Every per-capability operation goes through a [`HeapClient`]:
//! [`ConcurrentHeap::handle`] pins each client to a shard round-robin, so
//! `threads ≤ shards` keeps allocation entirely uncontended, and
//! [`ConcurrentHeap::handle_on`] pins one to a chosen shard.
//!
//! # Peer sweeps
//!
//! A capability into shard A's heap may be *stored in* shard B's memory,
//! and shard A's own sweep never visits shard B. Because the shards form
//! one domain, every epoch on shard A first publishes A's painted ranges
//! to the domain barrier (filtering every capability moved through
//! [`HeapClient::load_cap`] / [`HeapClient::store_cap`] after the
//! destination shard's lock is acquired), sweeps every other shard's root
//! set against A's shadow map ([`CherivokeHeap::sweep_foreign`]), and only
//! then lets the epoch drain. The epoch is held open
//! ([`CherivokeHeap::set_epoch_hold`]) until the peer sweeps finish, so
//! mutators pumping the epoch from their own `malloc`/`free` make
//! progress on the sweep but cannot race the drain past them.
//!
//! Like [`CherivokeHeap::free`], Rust-side [`Capability`] values model CPU
//! registers the simulator does not track as sweep roots: architectural
//! copies (in shard memory) are revoked, but a client retaining a freed
//! capability in a local variable models a register the real hardware
//! sweep *would* have cleared.
//!
//! # Example
//!
//! ```
//! use cherivoke::{ConcurrentHeap, ServiceConfig};
//!
//! let heap = ConcurrentHeap::new(ServiceConfig::small()).unwrap();
//! let client = heap.handle();
//! let obj = client.malloc(64).unwrap();
//! let stash = client.malloc(16).unwrap();
//! client.store_cap(&stash, 0, &obj).unwrap();
//! client.free(obj).unwrap();
//! heap.revoke_all_now();
//! assert!(!client.load_cap(&stash, 0).unwrap().tag());
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cheri::Capability;
use faultinject::FaultInjector;
use telemetry::{MetricsSnapshot, Registry};

use crate::fleet::{Core, FleetConfig, FleetError, Runtime, Shape, TenantPolicy};
use crate::stats::{ServiceStats, ShardStats};
use crate::{CherivokeHeap, HeapError, RevocationPolicy};

/// Configuration for a [`ConcurrentHeap`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Number of shards (= maximally parallel allocation streams).
    pub shards: usize,
    /// Heap bytes per shard (rounded up to CHERI-representable bounds).
    pub shard_heap_size: u64,
    /// Revocation policy. The quarantine fraction decides when the
    /// *service* opens an epoch on a shard and bounds each shard's
    /// quarantine; kernel, CapDirty and `sweep_workers` settings flow
    /// through to each shard's sweep engine (epoch slices and the peer
    /// sweeps all run on it).
    pub policy: RevocationPolicy,
    /// How often the background worker wakes to check shard quarantines.
    pub revoker_interval: Duration,
    /// Watchdog deadline for the background worker: if its heartbeat
    /// goes silent for longer than this, the supervisor declares it
    /// stalled, supersedes it, and spawns a replacement (with exponential
    /// backoff). A dead worker (thread exited) is detected at the next
    /// supervisor tick regardless of this deadline.
    pub revoker_watchdog: Duration,
    /// Enables the telemetry subsystem: every shard heap, allocator and
    /// sweep engine reports into one shared [`telemetry::Registry`]
    /// (reachable via [`ConcurrentHeap::telemetry`]), and lifecycle events
    /// are traced. Disabled (the default), instrumented sites cost one
    /// branch each.
    pub telemetry: bool,
}

impl Default for ServiceConfig {
    /// 4 shards × 16 MiB, paper-default policy, 1 ms revoker cadence.
    fn default() -> Self {
        ServiceConfig {
            shards: 4,
            shard_heap_size: 16 << 20,
            policy: RevocationPolicy::paper_default(),
            revoker_interval: Duration::from_millis(1),
            revoker_watchdog: Duration::from_secs(1),
            telemetry: false,
        }
    }
}

impl ServiceConfig {
    /// A small configuration for tests and examples: 4 shards × 1 MiB,
    /// 200 µs revoker cadence.
    pub fn small() -> ServiceConfig {
        ServiceConfig {
            shard_heap_size: 1 << 20,
            revoker_interval: Duration::from_micros(200),
            ..ServiceConfig::default()
        }
    }

    /// Validates and normalises the whole service configuration (see
    /// [`RevocationPolicy::validated`] for the error/clamp philosophy):
    /// unrepairable values are typed [`HeapError::InvalidConfig`] errors,
    /// repairable ones (zero shards, zero intervals, a watchdog shorter
    /// than the revoker cadence) are clamped with a warning. Constructors
    /// call this and print the warnings to stderr.
    pub fn validated(mut self) -> Result<(ServiceConfig, Vec<String>), HeapError> {
        let mut warnings = Vec::new();
        if self.shards == 0 {
            warnings.push("shards 0 cannot hold a heap; clamping to 1".to_string());
            self.shards = 1;
        }
        if self.shard_heap_size < (1 << 16) {
            warnings.push(format!(
                "shard_heap_size {} is below the 64 KiB floor; clamping",
                self.shard_heap_size
            ));
            self.shard_heap_size = 1 << 16;
        }
        if self.revoker_interval.is_zero() {
            warnings
                .push("revoker_interval 0 busy-spins the revoker; clamping to 50 µs".to_string());
            self.revoker_interval = Duration::from_micros(50);
        }
        let watchdog_floor = (self.revoker_interval * 4).max(Duration::from_millis(1));
        if self.revoker_watchdog < watchdog_floor {
            warnings.push(format!(
                "revoker_watchdog {:?} is shorter than 4 revoker wakeups; clamping to {:?} \
                 (a healthy revoker heartbeats once per wakeup)",
                self.revoker_watchdog, watchdog_floor
            ));
            self.revoker_watchdog = watchdog_floor;
        }
        let (policy, policy_warnings) = self.policy.validated()?;
        self.policy = policy;
        warnings.extend(policy_warnings);
        Ok((self, warnings))
    }

    /// The runtime-core configuration of a validated service: one worker,
    /// no fleet-wide ceiling, and a per-shard quarantine bound of half
    /// the policy fraction of the shard's capacity (the paper sizes
    /// quarantine against heap footprint; the headroom keeps concurrent
    /// freers who all cross the trigger together under the fraction).
    fn runtime(&self) -> FleetConfig {
        let fraction = self.policy.quarantine.fraction;
        let bound = if fraction.is_finite() {
            (fraction * self.shard_heap_size as f64 / 2.0) as u64
        } else {
            u64::MAX
        };
        FleetConfig {
            tenants: self.shards,
            tenant_heap_size: self.shard_heap_size,
            global_ceiling: u64::MAX,
            workers: 1,
            policy: self.policy,
            tenant_policy: TenantPolicy {
                quarantine_quota: bound,
            },
            scheduler_interval: self.revoker_interval,
            telemetry: self.telemetry,
        }
    }
}

/// A sharded, thread-safe CHERIvoke heap with a background revoker: one
/// isolation domain of the [`crate::fleet`] runtime core, whose members
/// are the shards. Create one, share [`HeapClient`]s across threads, and
/// drop it to stop the revoker.
pub struct ConcurrentHeap {
    rt: Runtime,
    next_handle: AtomicUsize,
}

impl ConcurrentHeap {
    /// Builds the shards and starts the supervisor (which in turn runs
    /// the background worker), with fault injection and journaling off:
    /// [`ConcurrentHeap::with_journal_dir`] with
    /// [`FaultInjector::disabled`] and no journal directory.
    ///
    /// This constructor never panics: configuration problems come back as
    /// typed [`HeapError`]s, and a failure to spawn the supervisor or
    /// worker thread degrades the service to inline revocation on mutator
    /// threads instead of failing construction.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidConfig`] for unrepairable configuration (see
    /// [`ServiceConfig::validated`]); [`HeapError`] if a shard heap cannot
    /// be constructed.
    pub fn new(config: ServiceConfig) -> Result<ConcurrentHeap, HeapError> {
        ConcurrentHeap::with_journal_dir(config, FaultInjector::disabled(), None)
    }

    /// The full constructor: as [`ConcurrentHeap::new`], armed with
    /// `faults` (a [`FaultInjector::new`] plan, or
    /// [`FaultInjector::disabled`]) and journaling into `journal_dir`:
    /// each shard writes its crash-consistency journal to
    /// `journal_dir/shard-{i}.cvj` (see [`crate::recovery`]). `None` runs
    /// without journaling. A journal that cannot be created degrades
    /// that shard to unjournaled operation with a once-per-process
    /// warning; construction still succeeds.
    ///
    /// # Errors
    ///
    /// As [`ConcurrentHeap::new`].
    pub fn with_journal_dir(
        config: ServiceConfig,
        faults: FaultInjector,
        journal_dir: Option<&std::path::Path>,
    ) -> Result<ConcurrentHeap, HeapError> {
        let (config, warnings) = config.validated()?;
        for warning in &warnings {
            eprintln!("cherivoke: {warning}");
        }
        let shape = Shape {
            one_domain: true,
            watchdog: config.revoker_watchdog,
            prefix: "cvk_service",
            member: "shard",
        };
        let rt = Runtime::start(config.runtime(), shape, faults, journal_dir, HashMap::new())?;
        Ok(ConcurrentHeap {
            rt,
            next_handle: AtomicUsize::new(0),
        })
    }

    fn core(&self) -> &Core {
        &self.rt.core
    }

    /// A client pinned (round-robin) to one shard for allocation. Clients
    /// are cheap, `Send`, and independent — give each thread its own.
    pub fn handle(&self) -> HeapClient {
        self.handle_on(self.next_handle.fetch_add(1, Ordering::Relaxed) % self.shards())
    }

    /// A client pinned to a specific shard (tests placing objects on
    /// chosen shards, and benchmarks pinning multiple clients to one shard
    /// to measure lock contention; normal callers use the round-robin
    /// [`ConcurrentHeap::handle`]).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn handle_on(&self, shard: usize) -> HeapClient {
        assert!(shard < self.shards(), "shard out of range");
        HeapClient {
            core: Arc::clone(&self.rt.core),
            shard,
        }
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.core().members.len()
    }

    /// Runs a full, synchronous, cross-shard revocation: seals and paints
    /// every shard's quarantine, runs the peer sweeps, drains everything.
    /// The concurrent analogue of [`CherivokeHeap::revoke_now`].
    pub fn revoke_all_now(&self) {
        self.core().drain_all();
    }

    /// Runs the full-heap safety audit ([`CherivokeHeap::audit`]) on
    /// every shard and returns the per-shard reports. Valid at any time,
    /// including mid-epoch: the audit's invariant is that no tagged
    /// capability points into *reusable* (free) memory, which must hold
    /// in every epoch phase. The chaos harnesses run this after a
    /// fault-injected run as the final soundness check.
    pub fn audit_all(&self) -> Vec<revoker::AuditReport> {
        self.core().audit_all()
    }

    /// Asks the background worker to check quarantines now rather than
    /// at its next scheduled wakeup.
    pub fn kick_revoker(&self) {
        self.core().kick();
    }

    /// Whether a background worker thread is currently running. `false`
    /// during restart windows (death or stall recovery) and in fully
    /// degraded inline mode — mutators cover revocation either way.
    pub fn revoker_alive(&self) -> bool {
        self.core().workers_alive()
    }

    /// The service's fault injector (disabled unless a plan was passed to
    /// [`ConcurrentHeap::with_journal_dir`]).
    /// Chaos tests read its hit/fired counts to assert coverage.
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.core().faults
    }

    /// Bytes quarantined across all shards.
    pub fn quarantined_bytes(&self) -> u64 {
        self.sum(CherivokeHeap::quarantined_bytes)
    }

    /// Bytes live across all shards.
    pub fn live_bytes(&self) -> u64 {
        self.sum(CherivokeHeap::live_bytes)
    }

    fn sum(&self, f: impl Fn(&CherivokeHeap) -> u64) -> u64 {
        (0..self.shards()).map(|i| f(&self.core().lock(i))).sum()
    }

    /// A statistics snapshot across all shards and the revoker.
    pub fn stats(&self) -> ServiceStats {
        let core = self.core();
        let elapsed = core.started.elapsed().as_secs_f64().max(1e-9);
        let shards = core
            .members
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let heap = core.lock(i);
                let mallocs = m.mallocs.load(Ordering::Relaxed);
                let frees = m.frees.load(Ordering::Relaxed);
                ShardStats {
                    mallocs,
                    frees,
                    freed_bytes: m.freed_bytes.load(Ordering::Relaxed),
                    mallocs_per_sec: mallocs as f64 / elapsed,
                    frees_per_sec: frees as f64 / elapsed,
                    live_bytes: heap.live_bytes(),
                    quarantined_bytes: heap.quarantined_bytes(),
                    heap: heap.stats(),
                }
            })
            .collect();
        // Read before the pause snapshot, so the peer-sweep share never
        // exceeds the total it is part of.
        let foreign_sweep_ns = core.foreign_sweep_ns.load(Ordering::Acquire);
        let pauses = core.pauses.snapshot();
        ServiceStats {
            shards,
            epochs: core.epochs.get(),
            foreign_sweeps: core.foreign_sweeps.get(),
            foreign_caps_revoked: core.foreign_caps_revoked.load(Ordering::Relaxed),
            barrier_revocations: core.barrier_revocations.get(),
            oom_revocations: core.oom_revocations.get(),
            revoker_restarts: core.revoker_restarts.get(),
            emergency_sweeps: core.emergency_sweeps.get(),
            bytes_swept: core.bytes_swept.load(Ordering::Relaxed),
            sweep_secs: pauses.sum as f64 / 1e9,
            foreign_sweep_secs: foreign_sweep_ns as f64 / 1e9,
            pauses,
            elapsed_secs: elapsed,
        }
    }

    /// The service's telemetry registry — the shared sink every shard
    /// heap, allocator and sweep engine reports into. A disabled registry
    /// (all reads zero, no events) unless [`ServiceConfig::telemetry`] is
    /// set.
    pub fn telemetry(&self) -> &Registry {
        &self.core().registry
    }

    /// A point-in-time metrics snapshot (export with
    /// [`MetricsSnapshot::to_prometheus`] / [`MetricsSnapshot::to_json`],
    /// or diff two with [`MetricsSnapshot::delta`] for rates).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.core().registry.snapshot()
    }
}

/// A per-thread client of a [`ConcurrentHeap`], pinned to one shard for
/// allocation (frees and accesses route by address, so a capability may be
/// freed by any client).
#[derive(Clone)]
pub struct HeapClient {
    core: Arc<Core>,
    shard: usize,
}

impl HeapClient {
    /// The shard this client allocates from.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Allocates `size` bytes from the pinned shard.
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::malloc`]; on out-of-memory the service first
    /// drains every shard's quarantine if policy allows.
    pub fn malloc(&self, size: u64) -> Result<Capability, HeapError> {
        self.core.malloc(self.shard, size)
    }

    /// Frees `cap`, routing to the owning shard by address (any shard's,
    /// not only the pinned one).
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::free`]; [`HeapError::NotAnAllocation`] if the
    /// capability does not point into any shard.
    pub fn free(&self, cap: Capability) -> Result<(), HeapError> {
        self.core.free(cap)
    }

    /// Loads a `u64` through `cap`.
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::load_u64`].
    pub fn load_u64(&self, cap: &Capability, offset: u64) -> Result<u64, HeapError> {
        self.core.with_member(cap, |h| h.load_u64(cap, offset))
    }

    /// Stores a `u64` through `cap`.
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::store_u64`].
    pub fn store_u64(&self, cap: &Capability, offset: u64, value: u64) -> Result<(), HeapError> {
        self.core
            .with_member(cap, |h| h.store_u64(cap, offset, value))
    }

    /// Loads a capability through `cap`, applying both the shard's epoch
    /// barrier and the domain barrier.
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::load_cap`].
    pub fn load_cap(&self, cap: &Capability, offset: u64) -> Result<Capability, HeapError> {
        self.core.load_cap(cap, offset)
    }

    /// Stores capability `value` through `cap`. The value is checked
    /// against the domain barrier *after* the destination shard's lock is
    /// held — the ordering that makes cross-shard quarantine drains sound
    /// (see the module docs).
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::store_cap`]; a tagged `value` pointing outside
    /// every shard is refused as [`HeapError::NotAnAllocation`].
    pub fn store_cap(
        &self,
        cap: &Capability,
        offset: u64,
        value: &Capability,
    ) -> Result<(), HeapError> {
        self.core
            .store_cap(cap, offset, value)
            .map_err(|e| match e {
                FleetError::Heap(e) => e,
                // The shards share one domain: no store crosses domains.
                e => unreachable!("{e}"),
            })
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use telemetry::EventKind;

    use super::*;

    fn service() -> ConcurrentHeap {
        ConcurrentHeap::new(ServiceConfig::small()).unwrap()
    }

    #[test]
    fn journal_dir_attaches_a_journal_per_shard() {
        let dir = std::env::temp_dir().join(format!("cvk-svc-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let heap = ConcurrentHeap::with_journal_dir(
            ServiceConfig::small(),
            FaultInjector::disabled(),
            Some(&dir),
        )
        .unwrap();
        let client = heap.handle_on(0);
        for i in 0..heap.shards() {
            assert!(
                heap.core().lock(i).journal_active(),
                "shard {i} journal missing"
            );
            assert!(dir.join(format!("shard-{i}.cvj")).exists());
        }
        // Journaled shards still run full epochs end to end.
        let a = client.malloc(256).unwrap();
        client.free(a).unwrap();
        heap.revoke_all_now();
        assert_eq!(heap.quarantined_bytes(), 0);
        drop(heap);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn without_journal_dir_shards_run_unjournaled() {
        let heap = service();
        for i in 0..heap.shards() {
            assert!(!heap.core().lock(i).journal_active());
        }
    }

    #[test]
    fn shards_own_disjoint_address_ranges() {
        let heap = service();
        let client = heap.handle_on(0);
        let caps: Vec<_> = (0..heap.shards())
            .map(|i| heap.handle_on(i).malloc(64).unwrap())
            .collect();
        for (i, a) in caps.iter().enumerate() {
            for b in &caps[i + 1..] {
                assert_ne!(a.base(), b.base());
            }
        }
        // Every cap frees back through address routing.
        for c in caps {
            client.free(c).unwrap();
        }
    }

    #[test]
    fn handles_pin_round_robin() {
        let heap = service();
        let shards: Vec<_> = (0..heap.shards() * 2)
            .map(|_| heap.handle().shard())
            .collect();
        assert_eq!(&shards[..heap.shards()], &shards[heap.shards()..]);
    }

    #[test]
    fn cross_shard_stash_is_revoked() {
        let heap = service();
        let client = heap.handle_on(0);
        // Victim on shard 0, stash slot on shard 1.
        let victim = client.malloc(64).unwrap();
        let stash = heap.handle_on(1).malloc(16).unwrap();
        client.store_u64(&victim, 0, 0xfeed).unwrap();
        client.store_cap(&stash, 0, &victim).unwrap();
        client.free(victim).unwrap();
        heap.revoke_all_now();
        let dangling = client.load_cap(&stash, 0).unwrap();
        assert!(!dangling.tag(), "cross-shard copy survived revocation");
        assert_eq!(heap.quarantined_bytes(), 0, "quarantine drained");
    }

    #[test]
    fn same_shard_uaf_still_caught() {
        let heap = service();
        let client = heap.handle_on(0);
        let victim = heap.handle_on(2).malloc(64).unwrap();
        let stash = heap.handle_on(2).malloc(16).unwrap();
        client.store_cap(&stash, 0, &victim).unwrap();
        client.free(victim).unwrap();
        heap.revoke_all_now();
        assert!(!client.load_cap(&stash, 0).unwrap().tag());
    }

    #[test]
    fn store_of_a_capability_outside_every_shard_is_refused() {
        let heap = service();
        let client = heap.handle_on(0);
        let slot = client.malloc(16).unwrap();
        let outside = Capability::root_rw(0x10, 0x10);
        assert_eq!(
            client.store_cap(&slot, 0, &outside),
            Err(HeapError::NotAnAllocation { base: 0x10 })
        );
        // Untagged data words are never capabilities, so they pass.
        client.store_cap(&slot, 0, &outside.cleared()).unwrap();
    }

    #[test]
    fn revoked_memory_is_reusable_and_new_caps_live() {
        let heap = service();
        let client = heap.handle_on(0);
        let a = client.malloc(256).unwrap();
        let stash = heap.handle_on(1).malloc(16).unwrap();
        client.store_cap(&stash, 0, &a).unwrap();
        let old_base = a.base();
        client.free(a).unwrap();
        heap.revoke_all_now();
        // The address range comes back…
        let b = client.malloc(256).unwrap();
        assert_eq!(b.base(), old_base, "drained memory is reusable");
        // …and a fresh capability to it is NOT filtered by stale barrier
        // state.
        client.store_cap(&stash, 0, &b).unwrap();
        assert!(client.load_cap(&stash, 0).unwrap().tag());
    }

    #[test]
    fn oom_triggers_cross_shard_revocation() {
        let mut config = ServiceConfig::small();
        config.policy.quarantine.fraction = f64::INFINITY; // revoker never fires
        let heap = ConcurrentHeap::new(config).unwrap();
        let client = heap.handle_on(0);
        let blocks: Vec<_> = (0..15).map(|_| client.malloc(64 << 10).unwrap()).collect();
        for b in blocks {
            client.free(b).unwrap();
        }
        assert!(heap.quarantined_bytes() > 0);
        let c = client.malloc(512 << 10).unwrap();
        assert!(c.tag());
        assert_eq!(heap.stats().oom_revocations, 1);
    }

    #[test]
    fn quarantine_is_bounded_by_half_the_fraction_of_capacity() {
        // Nothing wakes the background worker, so the bound is enforced
        // by the freeing mutator alone.
        let mut config = ServiceConfig::small();
        config.revoker_interval = Duration::from_secs(30);
        config.revoker_watchdog = Duration::from_secs(120);
        let heap = ConcurrentHeap::new(config).unwrap();
        let client = heap.handle_on(0);
        let bound = (0.25 * (1u64 << 20) as f64 / 2.0) as u64;
        let _live: Vec<_> = (0..64).map(|_| client.malloc(4096).unwrap()).collect();
        for _ in 0..200 {
            let c = client.malloc(4096).unwrap();
            client.free(c).unwrap();
            assert!(heap.quarantined_bytes() <= bound);
        }
        assert!(heap.stats().emergency_sweeps > 0);
    }

    #[test]
    fn background_revoker_drains_quarantine() {
        let mut config = ServiceConfig::small();
        config.policy.quarantine.fraction = 0.25;
        let heap = ConcurrentHeap::new(config).unwrap();
        let client = heap.handle();
        let _live: Vec<_> = (0..16).map(|_| client.malloc(4096).unwrap()).collect();
        // 24 × 4 KiB frees: past the shard's trigger (a quarter of its
        // 64 KiB live) several times over, yet below the 128 KiB bound at
        // which a free drains synchronously, so only the background
        // worker drains.
        for _ in 0..24 {
            let t = client.malloc(4096).unwrap();
            client.free(t).unwrap();
        }
        heap.kick_revoker();
        // A shard with peers is due only at its trigger, so the worker
        // leaves a residual below it for later frees: it is done once the
        // shard is no longer due, not once quarantine reads 0.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let stats = heap.stats();
            if stats.epochs > 0 && !heap.core().due(client.shard()) {
                assert!(stats.foreign_sweeps > 0, "peer sweeps ran");
                assert!(stats.pauses.count() > 0, "pauses recorded");
                assert!(
                    0.0 < stats.foreign_sweep_secs && stats.foreign_sweep_secs <= stats.sweep_secs,
                    "peer sweeps are timed as a share of the pauses: {} of {} s",
                    stats.foreign_sweep_secs,
                    stats.sweep_secs
                );
                assert_eq!(stats.emergency_sweeps, 0, "the mutator drained");
                break;
            }
            assert!(
                Instant::now() < deadline,
                "revoker never brought the shard below its trigger"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn concurrent_mutators_allocate_and_free_safely() {
        let heap = service();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let client = heap.handle();
                scope.spawn(move || {
                    let mut held = Vec::new();
                    for i in 0..500u64 {
                        let c = client.malloc(64 + (i % 8) * 32).unwrap();
                        client.store_u64(&c, 0, i).unwrap();
                        held.push(c);
                        if held.len() > 8 {
                            let victim = held.swap_remove((i % 8) as usize);
                            let expect = client.load_u64(&victim, 0).unwrap();
                            assert!(expect < 500);
                            client.free(victim).unwrap();
                        }
                    }
                    for c in held {
                        client.free(c).unwrap();
                    }
                });
            }
        });
        let stats = heap.stats();
        let mallocs: u64 = stats.shards.iter().map(|s| s.mallocs).sum();
        let frees: u64 = stats.shards.iter().map(|s| s.frees).sum();
        assert_eq!(mallocs, 4 * 500);
        assert_eq!(frees, 4 * 500);
        heap.revoke_all_now();
        assert_eq!(heap.quarantined_bytes(), 0);
    }

    #[test]
    fn foreign_caps_register_in_stats() {
        let heap = service();
        let client = heap.handle_on(0);
        let victim = client.malloc(64).unwrap();
        let stash = heap.handle_on(1).malloc(16).unwrap();
        client.store_cap(&stash, 0, &victim).unwrap();
        client.free(victim).unwrap();
        heap.revoke_all_now();
        assert!(heap.stats().foreign_caps_revoked >= 1);
    }

    #[test]
    fn peer_sweeps_count_in_the_swept_shard() {
        let heap = service();
        let client = heap.handle_on(0);
        let victim = client.malloc(64).unwrap();
        let stash = heap.handle_on(1).malloc(16).unwrap();
        client.store_cap(&stash, 0, &victim).unwrap();
        client.free(victim).unwrap();
        heap.revoke_all_now();
        let swept = heap.stats().shards[1].heap;
        assert_eq!(swept.sweeps, 0, "shard 1 ran no epoch of its own");
        // Shard 0's epoch swept shard 1 once: its one capability and the
        // pages its visit set left out count in shard 1's statistics.
        assert_eq!(swept.caps_inspected, 1);
        let shard = heap.core().lock(1);
        let clean = revoker::visit_set(shard.space(), true, &mut Vec::new());
        assert!(clean > 0);
        assert_eq!(swept.pages_skipped, clean);
    }

    #[test]
    fn telemetry_registry_tracks_service_lifecycle() {
        let mut config = ServiceConfig::small();
        config.telemetry = true;
        let heap = ConcurrentHeap::new(config).unwrap();
        let client = heap.handle_on(0);
        let victim = client.malloc(64).unwrap();
        let stash = heap.handle_on(1).malloc(16).unwrap();
        client.store_cap(&stash, 0, &victim).unwrap();
        client.free(victim).unwrap();
        heap.revoke_all_now();
        let snap = heap.snapshot();
        assert!(snap.counters["cvk_alloc_mallocs_total"] >= 2);
        assert!(snap.counters["cvk_alloc_frees_total"] >= 1);
        assert!(snap.counters["cvk_service_epochs_total"] >= 1);
        assert!(snap.counters["cvk_service_foreign_sweeps_total"] >= 3);
        assert!(snap.counters["cvk_heap_epochs_total"] >= 1);
        assert!(snap.counters["cvk_sweeps_total"] >= 1);
        assert!(snap.histograms["cvk_service_pause_ns"].count() > 0);
        assert_eq!(
            snap.counters["cvk_service_shard_mallocs_total{shard=\"1\"}"],
            1
        );
        // The quarantine drained, so its gauge is back to zero.
        assert_eq!(snap.gauges["cvk_alloc_quarantined_bytes"], 0);
        // Lifecycle events were traced, including the peer sweeps.
        let events = heap.telemetry().recent_events(64);
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::ForeignSweep { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::EpochRetired { .. })));
        // Both exporters render the service metrics.
        let prom = snap.to_prometheus();
        assert!(prom.contains("cvk_service_pause_ns_count"));
        assert!(prom.contains("cvk_service_epochs_total"));
        assert!(snap.to_json().contains("\"cvk_service_epochs_total\""));
    }

    #[test]
    fn telemetry_disabled_by_default() {
        let heap = service();
        let client = heap.handle_on(0);
        let c = client.malloc(64).unwrap();
        client.free(c).unwrap();
        heap.revoke_all_now();
        assert!(!heap.telemetry().is_enabled());
        let snap = heap.snapshot();
        assert!(snap.counters.is_empty());
        assert!(heap.telemetry().recent_events(8).is_empty());
        // ServiceStats pause accounting still works without the registry.
        assert!(heap.stats().pauses.count() > 0);
    }

    #[test]
    fn config_validation_clamps_and_rejects() {
        // Repairable: zero shards clamps to one (with a warning).
        let heap = ConcurrentHeap::new(ServiceConfig {
            shards: 0,
            ..ServiceConfig::small()
        })
        .unwrap();
        assert_eq!(heap.shards(), 1);
        drop(heap);
        // Unrepairable: a non-positive quarantine fraction is a typed error.
        let mut config = ServiceConfig::small();
        config.policy.quarantine.fraction = 0.0;
        assert!(matches!(
            ConcurrentHeap::new(config),
            Err(HeapError::InvalidConfig(_))
        ));
    }

    #[test]
    fn exhausted_heap_returns_typed_oom() {
        // One shard, nothing freed: the emergency sweep has nothing to
        // reclaim and the typed terminal error comes back — no panic.
        let config = ServiceConfig {
            shards: 1,
            ..ServiceConfig::small()
        };
        let heap = ConcurrentHeap::new(config).unwrap();
        let client = heap.handle_on(0);
        let mut held = Vec::new();
        let err = loop {
            match client.malloc(64 << 10) {
                Ok(cap) => held.push(cap),
                Err(e) => break e,
            }
            assert!(held.len() < 1 << 10, "1 MiB shard never filled");
        };
        assert!(matches!(err, HeapError::OutOfMemory { .. }), "got {err:?}");
        // The service is still operational after reporting OOM.
        for cap in held {
            client.free(cap).unwrap();
        }
        heap.revoke_all_now();
        assert!(client.malloc(64 << 10).is_ok());
    }

    #[test]
    fn supervisor_restarts_dead_revoker() {
        use crate::fault::{FaultInjector, FaultPlan};
        // The revoker dies on its first three wakeups, then stays up.
        let plan: FaultPlan = "revoker_death@1/1x3".parse().unwrap();
        let mut config = ServiceConfig::small();
        config.telemetry = true;
        config.revoker_watchdog = Duration::from_millis(5);
        let heap =
            ConcurrentHeap::with_journal_dir(config, FaultInjector::new(plan), None).unwrap();
        let client = heap.handle_on(0);
        let deadline = Instant::now() + Duration::from_secs(10);
        while heap.stats().revoker_restarts < 3 || !heap.revoker_alive() {
            assert!(Instant::now() < deadline, "supervisor never recovered");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Recovery is observable in telemetry, and the healed service
        // still revokes.
        let events = heap.telemetry().recent_events(64);
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::RevokerRestarted { cause: "death", .. })));
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::FaultInjected {
                point: "revoker_death",
                ..
            }
        )));
        let victim = client.malloc(64).unwrap();
        let stash = heap.handle_on(1).malloc(16).unwrap();
        client.store_cap(&stash, 0, &victim).unwrap();
        client.free(victim).unwrap();
        heap.revoke_all_now();
        assert!(!client.load_cap(&stash, 0).unwrap().tag());
    }

    #[test]
    fn supervisor_supersedes_stalled_revoker() {
        let mut config = ServiceConfig::small();
        config.telemetry = true;
        config.revoker_watchdog = Duration::from_millis(2);
        let heap = ConcurrentHeap::new(config).unwrap();
        let client = heap.handle_on(0);
        let core = heap.core();
        // Wedge the worker: shard 0 looks due, so its next pass blocks on
        // shard 0's lock, which the test holds; its heartbeat goes stale
        // and the watchdog must fire.
        let guard = core.lock(0);
        core.members[0]
            .quarantined_hint
            .store(1 << 20, Ordering::Relaxed);
        core.global_quarantine.fetch_add(1 << 20, Ordering::Relaxed);
        heap.kick_revoker();
        let deadline = Instant::now() + Duration::from_secs(10);
        // stats() takes shard locks (we hold one); probe the registry
        // counter instead.
        while heap.snapshot().counters["cvk_service_revoker_restarts_total"] == 0 {
            assert!(Instant::now() < deadline, "watchdog never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(guard);
        let events = heap.telemetry().recent_events(64);
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::RevokerRestarted { cause: "stall", .. })));
        // Superseded generations unwedge and retire; the service drains.
        let c = client.malloc(64).unwrap();
        client.free(c).unwrap();
        heap.revoke_all_now();
        assert_eq!(heap.quarantined_bytes(), 0);
    }

    #[test]
    fn frees_route_across_clients() {
        let heap = service();
        let a = heap.handle(); // shard 0
        let b = heap.handle(); // shard 1
        let cap = a.malloc(128).unwrap();
        // The other client can free it: routing is by address, not pin.
        b.free(cap).unwrap();
        let stats = heap.stats();
        assert_eq!(stats.shards[a.shard()].frees, 1);
    }
}
