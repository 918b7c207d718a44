//! The concurrent runtime core, and the fleet-scale multi-tenant service
//! built on it.
//!
//! # The runtime core
//!
//! One core runs every concurrent configuration in this crate. It owns
//! the only table of *member* heaps — each a private [`CherivokeHeap`] in
//! a disjoint address range (`base + i · stride`) — plus a shared worker
//! pool that runs revocation epochs in bounded slices, the supervisor
//! that keeps the pool alive, the synchronous drain and emergency path,
//! one pause histogram, the telemetry block and the per-member epoch
//! journals.
//!
//! Every member belongs to an **isolation domain**: the set of members
//! its capabilities may reach. A tagged capability store across domains
//! is refused ([`FleetError::CrossTenantStore`]), so an epoch is complete
//! once it has swept every member of its own domain:
//!
//! * a **one-member domain** sweeps only itself; the heap's own epoch
//!   barrier covers flows inside it;
//! * in a **domain with peers**, an epoch first publishes its painted
//!   ranges to the domain barrier, which filters every capability loaded
//!   or stored while the ranges are published. It then sweeps each
//!   peer's roots against its shadow map ([`CherivokeHeap::sweep_foreign`]),
//!   retires the barrier, and only then runs its own slices. The epoch
//!   is held open ([`CherivokeHeap::set_epoch_hold`]) until the peer
//!   sweeps finish, so no drain can race past them.
//!
//! [`HeapService`] is N one-member domains (its tenants);
//! [`crate::ConcurrentHeap`] is one domain whose members are its shards.
//!
//! The domain's shape also sets the epoch cadence. A member with peers
//! pays a peer sweep on every epoch, so it becomes due only on a worker
//! tick (the scheduler interval, or an explicit kick), at most once per
//! tick, when its quarantine reaches the policy fraction of its live
//! bytes or half its quarantine bound. A one-member domain has one
//! trigger, its quarantine debt: it is due, and kicks the pool from the
//! free that makes it so, once its quarantine reaches
//! `min(fraction, THROTTLE_FRACTION) × quota`. Below that it sweeps
//! nothing in the background.
//!
//! # The fleet
//!
//! [`HeapService`] hosts hundreds of independent tenant heaps under
//! skewed traffic:
//!
//! * **Tenants.** A capability minted by tenant A can never be stored
//!   into tenant B's heap, so one tenant's epoch never sweeps another
//!   tenant's memory, and a revoked capability from tenant A cannot
//!   resurrect through tenant B's reuse (their bases never alias).
//!
//! * **Global sweep scheduler.** Sweep bandwidth is arbitrated by a
//!   *debt* run queue: `debt = quarantine / (min(fraction,
//!   THROTTLE_FRACTION) × quota)`, where `fraction` is the policy's
//!   quarantine fraction. Workers pull the highest-debt tenant with
//!   `debt ≥ 1`; when nobody is due they steal or idle. A cold tenant
//!   keeps up to its trigger in quarantine, memory the policy already
//!   budgets. A dropped pick stays on the queue and is re-selected by
//!   the next pass ([`FaultPoint::SchedulerSkip`] chaos-proves it).
//!
//! * **Budgets and admission control.** Each tenant's
//!   [`TenantPolicy::quarantine_quota`] is a hard bound enforced in
//!   three escalating stages: at debt 1 (`min(fraction,
//!   THROTTLE_FRACTION) × quota`) the tenant is *due* (scheduler work);
//!   past [`THROTTLE_FRACTION`] of quota, where it is always due,
//!   `malloc` returns the typed backpressure error
//!   [`FleetError::TenantThrottled`]; and a `free` that would cross the
//!   quota runs a synchronous drain *first*, so quarantine never
//!   exceeds the budget. A fleet-wide ceiling
//!   ([`FleetConfig::global_ceiling`]) triggers an emergency global
//!   sweep before any tenant can see an out-of-memory error.
//!
//! * **Work-stealing.** A worker with no runnable tenant does not idle:
//!   it *steals* the next slice of the busiest in-flight epoch (largest
//!   remaining bytes), keeping the heaviest tenant's epoch continuously
//!   serviced even while its owner is descheduled or stalled
//!   ([`FaultPoint::TenantStall`]).
//!
//! * **Supervision.** Each pool worker heartbeats at every task and
//!   slice. The supervisor respawns a worker that died
//!   ([`FaultPoint::RevokerDeath`]) or whose heartbeat outlived the
//!   watchdog, with exponential backoff. While no worker runs, a free
//!   that makes its member due drains it inline — the paper's
//!   synchronous design — so quarantine never grows unbounded.
//!
//! ```
//! use cherivoke::fleet::{FleetConfig, HeapService};
//!
//! let service = HeapService::new(FleetConfig::with_tenants(4)).unwrap();
//! let obj = service.malloc(0, 64).unwrap();
//! service.store_u64(&obj, 0, 7).unwrap();
//! service.free(obj).unwrap();
//! service.drain_all();
//! assert_eq!(service.global_quarantined(), 0);
//! ```

use std::collections::HashMap;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cheri::Capability;
use faultinject::{FaultInjector, FaultPoint};
use journal::Journal;
use telemetry::{Counter, EventKind, HistogramSnapshot, LogHistogram, MetricsSnapshot, Registry};

use crate::recovery::{warn_once, HeapImage, ImageChunkState};
use crate::{
    CherivokeHeap, HeapConfig, HeapError, RecoveryError, RecoveryReport, RevocationPolicy,
};

/// Hard ceiling on the tenant count — beyond this the per-free global
/// accounting and the scheduler's O(tenants) debt scan stop being
/// sensible, and the config is rejected rather than repaired.
pub const MAX_FLEET_TENANTS: usize = 4096;

/// Smallest admissible per-tenant quarantine quota. Quotas below this
/// clamp up (a quota under one sweep slice would drain on every free),
/// and the global ceiling must cover at least this much per tenant.
pub const MIN_TENANT_QUOTA: u64 = 64 << 10;

/// Fraction of a tenant's quota past which `malloc` starts returning
/// [`FleetError::TenantThrottled`] — backpressure engages *before* the
/// hard budget bound so callers can shed or self-throttle while the
/// scheduler catches up.
pub const THROTTLE_FRACTION: f64 = 0.75;

/// Per-tenant budget policy, the same for every tenant of a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Hard quarantine budget in bytes. Enforced synchronously: a free
    /// that would push quarantine past the quota drains the tenant
    /// first, so the bound holds at every operation boundary.
    pub quarantine_quota: u64,
}

impl Default for TenantPolicy {
    fn default() -> TenantPolicy {
        TenantPolicy {
            quarantine_quota: 512 << 10,
        }
    }
}

/// Configuration for a [`HeapService`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Number of tenant heaps.
    pub tenants: usize,
    /// Heap bytes per tenant (rounded up to CHERI-representable bounds).
    pub tenant_heap_size: u64,
    /// Fleet-wide quarantine ceiling in bytes. Crossing it triggers an
    /// emergency global sweep — memory pressure drains the whole fleet
    /// before any tenant sees an out-of-memory error.
    pub global_ceiling: u64,
    /// Shared sweep-worker pool size (threads executing epoch slices and
    /// stealing from busy tenants).
    pub workers: usize,
    /// Revocation policy template applied to every tenant heap. The
    /// quarantine fraction, capped at [`THROTTLE_FRACTION`], is each
    /// tenant's trigger as a share of its quota (see the debt metric);
    /// kernel and `sweep_workers` flow through to each tenant's
    /// sweep engine.
    pub policy: RevocationPolicy,
    /// Per-tenant policy, applied to every tenant.
    pub tenant_policy: TenantPolicy,
    /// How long an idle worker parks before rescanning the run queue.
    pub scheduler_interval: Duration,
    /// Enables telemetry: fleet-aggregate counters and the fleet pause
    /// histogram, plus tenant-labelled per-tenant series
    /// (`cvk_fleet_tenant_*{tenant="N"}`), all in one shared
    /// [`telemetry::Registry`].
    pub telemetry: bool,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        let tenant_policy = TenantPolicy::default();
        FleetConfig {
            tenants: 8,
            tenant_heap_size: 1 << 20,
            global_ceiling: 8 * tenant_policy.quarantine_quota,
            workers: 2,
            policy: RevocationPolicy::paper_default(),
            tenant_policy,
            scheduler_interval: Duration::from_micros(200),
            telemetry: false,
        }
    }
}

impl FleetConfig {
    /// The default config resized to `tenants` tenants, with the global
    /// ceiling scaled to match (`tenants × quota`).
    pub fn with_tenants(tenants: usize) -> FleetConfig {
        let mut c = FleetConfig::default();
        c.tenants = tenants;
        c.global_ceiling = tenants as u64 * c.tenant_policy.quarantine_quota;
        c
    }

    /// Validates and repairs the configuration, in the same clamp+warn
    /// idiom as [`crate::ServiceConfig::validated`]: unrepairable
    /// inconsistencies are rejected as [`HeapError::InvalidConfig`],
    /// repairable ones are clamped with a warning describing the repair.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidConfig`] when the tenant count exceeds
    /// [`MAX_FLEET_TENANTS`], the tenant quota is zero, the global
    /// ceiling cannot cover [`MIN_TENANT_QUOTA`] per tenant, or the
    /// embedded [`RevocationPolicy`] is itself invalid.
    pub fn validated(mut self) -> Result<(FleetConfig, Vec<String>), HeapError> {
        let mut warnings = Vec::new();
        if self.tenants == 0 {
            warnings.push("fleet tenant count 0 raised to 1".to_string());
            self.tenants = 1;
        }
        if self.tenants > MAX_FLEET_TENANTS {
            return Err(HeapError::InvalidConfig(
                "fleet tenant count exceeds MAX_FLEET_TENANTS",
            ));
        }
        if self.tenant_heap_size < (64 << 10) {
            warnings.push(format!(
                "tenant heap size {} raised to the 64 KiB floor",
                self.tenant_heap_size
            ));
            self.tenant_heap_size = 64 << 10;
        }
        if self.workers == 0 {
            warnings.push("fleet worker pool size 0 raised to 1".to_string());
            self.workers = 1;
        }
        if self.workers > revoker::MAX_SWEEP_WORKERS {
            warnings.push(format!(
                "fleet worker pool size {} clamped to {}",
                self.workers,
                revoker::MAX_SWEEP_WORKERS
            ));
            self.workers = revoker::MAX_SWEEP_WORKERS;
        }
        if self.tenant_policy.quarantine_quota == 0 {
            return Err(HeapError::InvalidConfig(
                "tenant quarantine quota must be positive",
            ));
        }
        if self.tenant_policy.quarantine_quota < MIN_TENANT_QUOTA {
            warnings.push(format!(
                "tenant quarantine quota {} raised to the {} floor",
                self.tenant_policy.quarantine_quota, MIN_TENANT_QUOTA
            ));
            self.tenant_policy.quarantine_quota = MIN_TENANT_QUOTA;
        }
        if self.tenant_policy.quarantine_quota > self.tenant_heap_size {
            warnings.push("tenant quarantine quota clamped to the tenant heap size".to_string());
            self.tenant_policy.quarantine_quota = self.tenant_heap_size;
        }
        if self.scheduler_interval.is_zero() {
            warnings.push("fleet scheduler interval 0 raised to 50µs".to_string());
            self.scheduler_interval = Duration::from_micros(50);
        }
        // The ceiling must be able to host every tenant at the minimum
        // quota — a smaller ceiling guarantees emergency sweeps in a
        // steady state, which is a misconfiguration, not a policy.
        if self.global_ceiling < self.tenants as u64 * MIN_TENANT_QUOTA {
            return Err(HeapError::InvalidConfig(
                "fleet global ceiling is below the sum of minimum tenant quotas",
            ));
        }
        let (policy, policy_warnings) = self.policy.validated()?;
        self.policy = policy;
        warnings.extend(policy_warnings);
        Ok((self, warnings))
    }
}

/// Member heap policy derived from the runtime config, shared by
/// construction and crash recovery so both build identical heaps:
/// members never self-trigger revocation or sweep on OOM — the core's
/// scheduler and emergency path own both decisions. Returns the policy
/// and the shared slice byte budget.
fn fleet_heap_policy(config: &FleetConfig) -> (RevocationPolicy, u64) {
    let slice_bytes = (config.tenant_heap_size / 16).clamp(64 << 10, 1 << 20);
    let mut heap_policy = config.policy;
    heap_policy.quarantine.fraction = f64::INFINITY;
    heap_policy.strict = false;
    heap_policy.sweep_on_oom = false;
    heap_policy.incremental_slice_bytes = Some(slice_bytes);
    (heap_policy, slice_bytes)
}

/// The debt metric, shared by `Core::due`, the scheduler's ordering and
/// crash recovery's: a member's quarantine over its trigger,
/// `quarantined / (min(fraction, THROTTLE_FRACTION) × quota)`. `≥ 1.0`
/// means due for a one-member domain. The cap keeps the trigger at or
/// below the throttle point, so a throttled member is always due, even
/// under a fraction of 1.0 or `INFINITY`.
fn debt(quarantined: u64, quota: u64, fraction: f64) -> f64 {
    quarantined as f64 / (fraction.min(THROTTLE_FRACTION) * quota as f64)
}

/// Member address-space layout: `(first_base, stride, rounded_size)`.
/// Member `i`'s heap lives at `first_base + i·stride`, sized
/// `rounded_size`. The stride over-provisions to the next power of two
/// so every base stays aligned for exact CHERI bounds. Shared by
/// construction and crash recovery so a recovered image always lands on
/// the extent it was captured from.
fn tenant_layout(config: &FleetConfig) -> (u64, u64, u64) {
    let rounded = cheri::CompressedBounds::representable_length(cheri::granule_round_up(
        config.tenant_heap_size,
    ));
    let stride = rounded.next_power_of_two();
    (stride.max(0x1000_0000), stride, rounded)
}

/// Persisted crash artifacts for one tenant: the heap image written at
/// the crash point plus that tenant's epoch journal bytes (see the
/// [`crate::recovery`] module). Feed a batch to [`HeapService::recover`].
#[derive(Debug, Clone)]
pub struct TenantCrashArtifact {
    /// Which tenant the artifacts belong to. At most one artifact per
    /// tenant; when duplicates are supplied the later one wins.
    pub tenant: usize,
    /// Encoded [`HeapImage`] bytes.
    pub image: Vec<u8>,
    /// Raw journal bytes. Torn tails are tolerated — they classify as
    /// the interrupted step they tore in.
    pub journal: Vec<u8>,
}

/// Outcome of recovering one tenant in [`HeapService::recover`].
#[derive(Debug)]
pub struct TenantRecovery {
    /// The recovered tenant.
    pub tenant: usize,
    /// The debt-scheduler key its recovery order used (higher = sooner):
    /// the image's quarantine over the tenant's trigger,
    /// `min(fraction, THROTTLE_FRACTION) × quota`.
    pub debt: f64,
    /// The per-heap recovery report, including the safety audit.
    pub report: RecoveryReport,
}

/// The ways a fleet operation can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FleetError {
    /// Typed backpressure: the tenant's quarantine crossed
    /// [`THROTTLE_FRACTION`] of its quota, so new allocations are
    /// refused until the sweep scheduler (or an explicit
    /// [`HeapService::drain_tenant`]) catches up. Retryable.
    TenantThrottled {
        /// The throttled tenant.
        tenant: usize,
        /// Its quarantine at the time of the refusal.
        quarantined: u64,
        /// Its configured quota.
        quota: u64,
    },
    /// The tenant index is outside the fleet.
    NoSuchTenant {
        /// The requested index.
        tenant: usize,
    },
    /// A capability minted by one tenant was used in another tenant's
    /// heap. Tenant isolation is the fleet's cross-tenant safety
    /// argument, so these are refused rather than swept.
    CrossTenantStore {
        /// Tenant owning the capability.
        from: usize,
        /// Tenant owning the destination memory.
        to: usize,
    },
    /// The underlying heap operation failed.
    Heap(HeapError),
}

impl core::fmt::Display for FleetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FleetError::TenantThrottled {
                tenant,
                quarantined,
                quota,
            } => write!(
                f,
                "tenant {tenant} throttled: quarantine {quarantined} of quota {quota}"
            ),
            FleetError::NoSuchTenant { tenant } => write!(f, "no such tenant {tenant}"),
            FleetError::CrossTenantStore { from, to } => write!(
                f,
                "cross-tenant store refused: capability of tenant {from} into tenant {to}"
            ),
            FleetError::Heap(e) => write!(f, "heap error: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Heap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HeapError> for FleetError {
    fn from(e: HeapError) -> FleetError {
        FleetError::Heap(e)
    }
}

/// Point-in-time statistics for one tenant.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant index.
    pub tenant: usize,
    /// Lifetime mallocs.
    pub mallocs: u64,
    /// Lifetime frees.
    pub frees: u64,
    /// Current quarantine bytes.
    pub quarantined_bytes: u64,
    /// Configured quarantine quota.
    pub quota: u64,
    /// Revocation epochs opened on this tenant (scheduled or drains).
    pub epochs: u64,
    /// `malloc` refusals due to throttling.
    pub throttled: u64,
}

/// Point-in-time statistics for the whole fleet.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// Per-tenant rows, tenant 0 first.
    pub tenants: Vec<TenantStats>,
    /// Revocation epochs opened across the fleet (scheduled or drains).
    pub epochs: u64,
    /// Epoch slices executed by a worker that *stole* them from another
    /// worker's in-flight epoch instead of idling.
    pub steals: u64,
    /// Scheduler picks dropped by the `scheduler_skip` fault point.
    pub scheduler_skips: u64,
    /// Total `malloc` refusals due to per-tenant throttling.
    pub throttled: u64,
    /// Emergency synchronous sweeps (quota crossings and global-ceiling
    /// crossings).
    pub emergency_sweeps: u64,
    /// Pool workers respawned by the supervisor after a death or a
    /// watchdog stall.
    pub revoker_restarts: u64,
    /// Current fleet-wide quarantine bytes.
    pub global_quarantined: u64,
    /// Fleet-aggregate sweep-pause histogram (every epoch slice by every
    /// worker, stolen or not, and every synchronous drain).
    pub pauses: HistogramSnapshot,
}

impl FleetStats {
    /// Largest quarantine-to-quota ratio across tenants (1.0 = at
    /// budget). The budget-boundedness acceptance metric.
    pub fn max_budget_fraction(&self) -> f64 {
        self.tenants
            .iter()
            .map(|t| t.quarantined_bytes as f64 / t.quota.max(1) as f64)
            .fold(0.0, f64::max)
    }
}

/// Exponential restart backoff for the supervisor: starts at `floor`,
/// doubles on every respawn, caps at `ceiling`, and resets to the floor
/// as soon as a healthy heartbeat is observed. A pure state machine, so
/// the schedule is pinned by unit tests without threads or clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RestartBackoff {
    floor: Duration,
    ceiling: Duration,
    current: Duration,
}

impl RestartBackoff {
    fn new(floor: Duration, ceiling: Duration) -> RestartBackoff {
        let floor = floor.min(ceiling);
        RestartBackoff {
            floor,
            ceiling,
            current: floor,
        }
    }

    /// How long a restart must trail the last heartbeat.
    fn delay(&self) -> Duration {
        self.current
    }

    /// A live, heartbeating worker was observed: the next failure's
    /// backoff starts over from the floor.
    fn on_healthy(&mut self) {
        self.current = self.floor;
    }

    /// A replacement worker was spawned: double the next delay, capped
    /// at the ceiling.
    fn on_restart(&mut self) {
        self.current = (self.current * 2).min(self.ceiling);
    }
}

/// How a facade shapes the runtime core: its isolation domains, its
/// watchdog, and the names its telemetry and journals use.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shape {
    /// `true`: every member belongs to one domain (a sharded heap);
    /// `false`: each member is a domain of its own (a fleet).
    pub(crate) one_domain: bool,
    /// Heartbeat age past which the supervisor declares a pool worker
    /// stalled and replaces it.
    pub(crate) watchdog: Duration,
    /// Metric-name prefix (`cvk_fleet`, `cvk_service`).
    pub(crate) prefix: &'static str,
    /// What a member is called in metric labels and journal file names.
    pub(crate) member: &'static str,
}

impl Shape {
    /// A fleet of tenants. [`FleetConfig`] has no watchdog field, so the
    /// fleet uses [`crate::ServiceConfig`]'s default deadline.
    const FLEET: Shape = Shape {
        one_domain: false,
        watchdog: Duration::from_secs(1),
        prefix: "cvk_fleet",
        member: "tenant",
    };
}

/// A lifetime count mirrored into a telemetry counter (a disabled
/// handle when telemetry is off).
pub(crate) struct Tally {
    n: AtomicU64,
    metric: Counter,
}

impl Tally {
    fn new(registry: &Registry, prefix: &str, name: &str) -> Tally {
        Tally {
            n: AtomicU64::new(0),
            metric: registry.counter(&format!("{prefix}_{name}_total")),
        }
    }

    fn add(&self, by: u64) {
        self.n.fetch_add(by, Ordering::Relaxed);
        self.metric.add(by);
    }

    pub(crate) fn get(&self) -> u64 {
        self.n.load(Ordering::Relaxed)
    }
}

/// One member heap plus its scheduling state.
pub(crate) struct Member {
    heap: Mutex<CherivokeHeap>,
    base: u64,
    size: u64,
    /// The member's isolation domain: the index range of every member
    /// its capabilities may reach (itself included).
    domain: Range<usize>,
    // Quarantine and live-byte hints maintained by every lock holder;
    // the scheduler and admission control read them lock-free.
    pub(crate) quarantined_hint: AtomicU64,
    live_hint: AtomicU64,
    // Claimed by a worker running this member's epoch (advisory — actual
    // exclusion is the heap mutex; the flag only steers scheduling).
    sweeping: AtomicBool,
    // Remaining epoch bytes, updated after every slice: the steal
    // victim-selection key.
    remaining_hint: AtomicU64,
    // The worker tick on which this member last opened a scheduled
    // epoch: a member with peers opens at most one per tick.
    last_tick: AtomicU64,
    pub(crate) mallocs: AtomicU64,
    pub(crate) frees: AtomicU64,
    pub(crate) freed_bytes: AtomicU64,
    epochs: AtomicU64,
    throttled: AtomicU64,
    t_mallocs: Counter,
    t_frees: Counter,
    t_quarantine: telemetry::Gauge,
}

impl Member {
    fn has_peers(&self) -> bool {
        self.domain.len() > 1
    }

    /// Refreshes the lock-free hints from the locked heap and returns
    /// the new quarantine, keeping the core-wide total in step.
    fn sync_hints(&self, heap: &CherivokeHeap, global: &AtomicU64) -> u64 {
        let q = heap.quarantined_bytes();
        self.live_hint.store(heap.live_bytes(), Ordering::Relaxed);
        let old = self.quarantined_hint.swap(q, Ordering::Relaxed);
        // Signed delta on an unsigned atomic: wrapping arithmetic keeps
        // the sum exact as long as every update goes through here.
        global.fetch_add(q.wrapping_sub(old), Ordering::Relaxed);
        self.t_quarantine.offset(q as i64 - old as i64);
        q
    }
}

/// Supervision state of one pool worker. `gen` is the generation the
/// supervisor last issued (a worker that observes a newer one retires);
/// `alive` holds the generation of the running worker (0 = none). The
/// supervisor sets `alive` when it spawns a worker, and a drop guard
/// clears it on any exit — only for its own generation, so a superseded
/// worker exiting late cannot erase its replacement's liveness.
/// `heartbeat_ns` is stamped by the live worker at every task and slice.
#[derive(Default)]
struct Slot {
    gen: AtomicU64,
    alive: AtomicU64,
    heartbeat_ns: AtomicU64,
}

/// What a worker decided to do with one scheduling pass.
enum Task {
    /// Claimed due member `i`, highest debt first: run its epoch to
    /// completion.
    Run(usize),
    /// Nothing claimable, but member `i` has an in-flight epoch with the
    /// most remaining bytes: steal its next slice.
    Steal(usize),
    /// Nothing to do: park until kicked or the scheduler interval.
    Idle,
}

/// Outcome of one epoch slice.
enum Slice {
    Progress,
    Done,
    Inactive,
}

/// The runtime core: the member table, the worker pool's shared state,
/// the domain barrier, and every counter the facades report.
pub(crate) struct Core {
    pub(crate) members: Vec<Member>,
    config: FleetConfig,
    shape: Shape,
    slice_bytes: u64,
    pub(crate) global_quarantine: AtomicU64,
    /// The domain barrier: painted `(addr, len)` ranges of every epoch
    /// whose peer sweeps are in flight.
    painted: RwLock<Vec<(u64, u64)>>,
    /// Epochs currently published to the barrier — its fast-path gate.
    barriers: AtomicUsize,
    /// Worker wake-ups so far (see `Member::last_tick`).
    tick: AtomicU64,
    pub(crate) epochs: Tally,
    steals: Tally,
    scheduler_skips: Tally,
    throttled: Tally,
    pub(crate) emergency_sweeps: Tally,
    pub(crate) foreign_sweeps: Tally,
    pub(crate) oom_revocations: Tally,
    pub(crate) barrier_revocations: Tally,
    pub(crate) revoker_restarts: Tally,
    faults_injected: Tally,
    pub(crate) foreign_caps_revoked: AtomicU64,
    pub(crate) bytes_swept: AtomicU64,
    pub(crate) pauses: LogHistogram,
    /// Nanoseconds of `pauses` spent in peer sweeps (`sweep_peers`).
    pub(crate) foreign_sweep_ns: AtomicU64,
    pub(crate) faults: FaultInjector,
    pub(crate) registry: Registry,
    slots: Vec<Slot>,
    stop: AtomicBool,
    park: Mutex<bool>,
    wake: Condvar,
    pub(crate) started: Instant,
}

impl Core {
    /// Builds the member table. `config` must already be validated;
    /// members listed in `recovered` reuse the recovered heap.
    fn new(
        config: FleetConfig,
        shape: Shape,
        faults: FaultInjector,
        journal_dir: Option<&Path>,
        mut recovered: HashMap<usize, CherivokeHeap>,
    ) -> Result<Core, HeapError> {
        let (heap_policy, slice_bytes) = fleet_heap_policy(&config);
        let (first_base, stride, rounded) = tenant_layout(&config);
        let registry = if config.telemetry {
            Registry::new(512)
        } else {
            Registry::disabled()
        };
        let (prefix, label) = (shape.prefix, shape.member);
        let n = config.tenants;
        let mut members = Vec::with_capacity(n);
        for i in 0..n {
            let base = first_base + i as u64 * stride;
            let mut heap = match recovered.remove(&i) {
                Some(heap) => heap,
                None => CherivokeHeap::new(HeapConfig {
                    heap_base: base,
                    heap_size: rounded,
                    policy: heap_policy,
                    ..HeapConfig::default()
                })?,
            };
            if config.telemetry {
                heap.set_telemetry_for_shard(&registry, i);
            }
            if faults.is_enabled() {
                heap.set_fault_injector(faults.clone());
            }
            if let Some(dir) = journal_dir {
                // Creation failure is degraded mode, not a constructor
                // error: the member runs correct-but-unjournaled, like a
                // mid-run journal write failure (DESIGN.md §20).
                let _ = std::fs::create_dir_all(dir);
                match Journal::create(dir.join(format!("{label}-{i}.cvj"))) {
                    Ok(j) => heap.set_journal(j),
                    Err(e) => {
                        warn_once(&format!(
                            "cannot create {label} {i} epoch journal in {}: {e}; \
                             {label} runs unjournaled",
                            dir.display()
                        ));
                    }
                }
            }
            let value = i.to_string();
            members.push(Member {
                heap: Mutex::new(heap),
                base,
                size: rounded,
                domain: if shape.one_domain { 0..n } else { i..i + 1 },
                quarantined_hint: AtomicU64::new(0),
                live_hint: AtomicU64::new(0),
                sweeping: AtomicBool::new(false),
                remaining_hint: AtomicU64::new(0),
                last_tick: AtomicU64::new(0),
                mallocs: AtomicU64::new(0),
                frees: AtomicU64::new(0),
                freed_bytes: AtomicU64::new(0),
                epochs: AtomicU64::new(0),
                throttled: AtomicU64::new(0),
                t_mallocs: registry.counter_labeled(
                    &format!("{prefix}_{label}_mallocs_total"),
                    label,
                    &value,
                ),
                t_frees: registry.counter_labeled(
                    &format!("{prefix}_{label}_frees_total"),
                    label,
                    &value,
                ),
                t_quarantine: registry.gauge_labeled(
                    &format!("{prefix}_{label}_quarantined_bytes"),
                    label,
                    &value,
                ),
            });
        }
        // Registry-backed when telemetry is on (the same distribution
        // feeds the exporters); standalone otherwise, so the stats'
        // pause histogram is always populated.
        let pauses = if config.telemetry {
            registry.histogram(&format!("{prefix}_pause_ns"))
        } else {
            LogHistogram::standalone()
        };
        let tally = |name: &str| Tally::new(&registry, prefix, name);
        let core = Core {
            members,
            slice_bytes,
            global_quarantine: AtomicU64::new(0),
            painted: RwLock::new(Vec::new()),
            barriers: AtomicUsize::new(0),
            tick: AtomicU64::new(1),
            epochs: tally("epochs"),
            steals: tally("steals"),
            scheduler_skips: tally("scheduler_skips"),
            throttled: tally("throttled"),
            emergency_sweeps: tally("emergency_sweeps"),
            foreign_sweeps: tally("foreign_sweeps"),
            oom_revocations: tally("oom_revocations"),
            barrier_revocations: tally("barrier_revocations"),
            revoker_restarts: tally("revoker_restarts"),
            faults_injected: tally("faults_injected"),
            foreign_caps_revoked: AtomicU64::new(0),
            bytes_swept: AtomicU64::new(0),
            pauses,
            foreign_sweep_ns: AtomicU64::new(0),
            faults,
            registry,
            slots: (0..config.workers).map(|_| Slot::default()).collect(),
            stop: AtomicBool::new(false),
            park: Mutex::new(false),
            wake: Condvar::new(),
            started: Instant::now(),
            config,
            shape,
        };
        // A recovered member can re-enter service still carrying
        // quarantine (the reopen-seal rollback path); sync every hint now
        // so the scheduler and the admission throttle see it before the
        // first free, not after.
        for (i, m) in core.members.iter().enumerate() {
            m.sync_hints(&core.lock(i), &core.global_quarantine);
        }
        Ok(core)
    }

    pub(crate) fn lock(&self, i: usize) -> MutexGuard<'_, CherivokeHeap> {
        // A panic while holding a member lock (e.g. a failing assertion
        // in a test mutator) must not wedge the runtime; the heap's state
        // is consistent between &mut calls.
        match self.members[i].heap.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn member_of(&self, base: u64) -> Option<usize> {
        self.members
            .iter()
            .position(|m| base >= m.base && base < m.base + m.size)
    }

    /// Every member's quarantine bound.
    fn quota(&self) -> u64 {
        self.config.tenant_policy.quarantine_quota
    }

    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    fn note_fault(&self, point: FaultPoint, member: usize) {
        self.faults_injected.add(1);
        self.registry.event(EventKind::FaultInjected {
            point: point.name(),
            shard: member,
        });
    }

    /// Records an emergency synchronous sweep: the graceful-degradation
    /// path taken under memory pressure.
    fn note_emergency(&self, member: usize) {
        self.emergency_sweeps.add(1);
        self.registry
            .event(EventKind::EmergencySweep { shard: member });
    }

    /// Wakes the worker pool now instead of at its next scheduled scan.
    pub(crate) fn kick(&self) {
        let mut kicked = match self.park.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        *kicked = true;
        drop(kicked);
        self.wake.notify_all();
    }

    /// Whether any pool worker is running. `false` covers worker death,
    /// spawn failure and restart windows — in all of which mutators
    /// drain due members inline (see `free`).
    pub(crate) fn workers_alive(&self) -> bool {
        self.slots
            .iter()
            .any(|s| s.alive.load(Ordering::SeqCst) != 0)
    }

    // --- The domain barrier ---------------------------------------------

    /// Filters `cap` through the domain barrier. MUST be called while
    /// holding the lock of the member being read from / written to: the
    /// lock acquisition happens-after the publication of the painted
    /// ranges, so a store into an already-swept peer always sees them.
    fn filter(&self, cap: Capability) -> Capability {
        if !cap.tag() || self.barriers.load(Ordering::SeqCst) == 0 {
            return cap;
        }
        let painted = match self.painted.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let base = cap.base();
        if painted
            .iter()
            .any(|&(addr, len)| base >= addr && base < addr + len)
        {
            self.barrier_revocations.add(1);
            cap.cleared()
        } else {
            cap
        }
    }

    fn publish(&self, ranges: &[(u64, u64)]) {
        let mut painted = match self.painted.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        painted.extend_from_slice(ranges);
        drop(painted);
        self.barriers.fetch_add(1, Ordering::SeqCst);
    }

    fn unpublish(&self, ranges: &[(u64, u64)]) {
        let mut painted = match self.painted.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        painted.retain(|r| !ranges.contains(r));
        drop(painted);
        self.barriers.fetch_sub(1, Ordering::SeqCst);
    }

    // --- Mutator-facing operations --------------------------------------

    /// Allocates from member `i`. An out-of-memory with quarantine
    /// anywhere drains every member and retries once (if the policy
    /// allows); a heap that is full even then returns the typed error.
    pub(crate) fn malloc(&self, i: usize, size: u64) -> Result<Capability, HeapError> {
        let m = &self.members[i];
        let result = self.lock(i).malloc(size);
        let cap = match result {
            Ok(cap) => cap,
            Err(HeapError::OutOfMemory { .. })
                if self.config.policy.sweep_on_oom
                    && self.global_quarantine.load(Ordering::Relaxed) > 0 =>
            {
                self.oom_revocations.add(1);
                self.registry.event(EventKind::OomRevocation { shard: i });
                self.note_emergency(i);
                self.drain_all();
                self.lock(i).malloc(size)?
            }
            Err(e) => return Err(e),
        };
        m.mallocs.fetch_add(1, Ordering::Relaxed);
        m.t_mallocs.inc();
        Ok(cap)
    }

    /// The fleet's admission-controlled `malloc`: typed backpressure once
    /// the tenant's quarantine crosses the throttle mark. The pool is
    /// kicked so a well-behaved caller's retry finds the debt already
    /// being worked off.
    fn fleet_malloc(&self, tenant: usize, size: u64) -> Result<Capability, FleetError> {
        let m = self
            .members
            .get(tenant)
            .ok_or(FleetError::NoSuchTenant { tenant })?;
        let quota = self.quota();
        let quarantined = m.quarantined_hint.load(Ordering::Relaxed);
        if (quarantined as f64) >= THROTTLE_FRACTION * quota as f64 {
            m.throttled.fetch_add(1, Ordering::Relaxed);
            self.throttled.add(1);
            self.kick();
            return Err(FleetError::TenantThrottled {
                tenant,
                quarantined,
                quota,
            });
        }
        Ok(self.malloc(tenant, size)?)
    }

    /// Frees `cap` into its member's quarantine, routed by address.
    pub(crate) fn free(&self, cap: Capability) -> Result<(), HeapError> {
        let base = cap.base();
        let i = self
            .member_of(base)
            .ok_or(HeapError::NotAnAllocation { base })?;
        let m = &self.members[i];
        let size = cap.length();
        // Hard quarantine bound, enforced *before* the quarantine grows:
        // if this free would cross the quota, drain synchronously first.
        // The freer pays for the sweep — the paper's synchronous design,
        // surfacing exactly at the configured bound. The test and the
        // free are one critical section on the member, so concurrent
        // freers cannot both pass the test, and the test charges the
        // chunk's real size, which is what the quarantine will grow by.
        loop {
            let mut heap = self.lock(i);
            let quarantined = heap.quarantined_bytes();
            let chunk = heap
                .allocator()
                .inner()
                .chunks()
                .get(base)
                .map_or(size, |(bytes, _)| bytes);
            if quarantined > 0 && quarantined.saturating_add(chunk) > self.quota() {
                drop(heap);
                self.note_emergency(i);
                self.drain(i);
                continue;
            }
            heap.free(cap)?;
            m.sync_hints(&heap, &self.global_quarantine);
            break;
        }
        m.frees.fetch_add(1, Ordering::Relaxed);
        m.freed_bytes.fetch_add(size, Ordering::Relaxed);
        m.t_frees.inc();
        // Global ceiling: core-wide memory pressure drains everyone
        // before it can turn into an out-of-memory error.
        if self.global_quarantine.load(Ordering::Relaxed) > self.config.global_ceiling {
            self.note_emergency(i);
            self.drain_all();
        } else if self.due(i) {
            if !self.workers_alive() {
                // Graceful degradation: with no worker running (dead,
                // restarting, or never spawned), the mutator runs the
                // paper's synchronous design at the normal trigger.
                self.drain(i);
            } else if !m.has_peers() {
                self.kick();
            }
        }
        Ok(())
    }

    /// Runs `f` on the member owning `cap`, routed by address.
    pub(crate) fn with_member<R>(
        &self,
        cap: &Capability,
        f: impl FnOnce(&mut CherivokeHeap) -> Result<R, HeapError>,
    ) -> Result<R, HeapError> {
        let base = cap.base();
        let i = self
            .member_of(base)
            .ok_or(HeapError::NotAnAllocation { base })?;
        f(&mut self.lock(i))
    }

    /// Loads a capability through `cap`, filtered by the member's own
    /// epoch barrier and the domain barrier.
    pub(crate) fn load_cap(&self, cap: &Capability, offset: u64) -> Result<Capability, HeapError> {
        self.with_member(cap, |h| Ok(self.filter(h.load_cap(cap, offset)?)))
    }

    /// Stores capability `value` through `cap`. A tagged `value` must
    /// belong to the destination's isolation domain (one in no member at
    /// all is [`HeapError::NotAnAllocation`]); it is checked
    /// against the domain barrier *after* the destination's lock is held
    /// — the ordering that makes peer sweeps sound.
    pub(crate) fn store_cap(
        &self,
        cap: &Capability,
        offset: u64,
        value: &Capability,
    ) -> Result<(), FleetError> {
        let base = cap.base();
        let to = self
            .member_of(base)
            .ok_or(FleetError::Heap(HeapError::NotAnAllocation { base }))?;
        if value.tag() {
            let base = value.base();
            let from = self
                .member_of(base)
                .ok_or(FleetError::Heap(HeapError::NotAnAllocation { base }))?;
            if !self.members[to].domain.contains(&from) {
                return Err(FleetError::CrossTenantStore { from, to });
            }
        }
        self.with_member(cap, |h| h.store_cap(cap, offset, &self.filter(*value)))
            .map_err(FleetError::from)
    }

    /// The full-heap safety audit of every member.
    pub(crate) fn audit_all(&self) -> Vec<revoker::AuditReport> {
        (0..self.members.len())
            .map(|i| self.lock(i).audit())
            .collect()
    }

    // --- Scheduling ------------------------------------------------------

    /// Whether member `i` wants an epoch. A one-member domain is due at
    /// debt 1, i.e. once its quarantine reaches
    /// `min(fraction, THROTTLE_FRACTION) × quota`. A member with peers
    /// pays a peer sweep per epoch, so it is due only once quarantine
    /// reaches the policy fraction of its live bytes, or half its
    /// quarantine bound (staying ahead of the synchronous drain at the
    /// bound).
    pub(crate) fn due(&self, i: usize) -> bool {
        let m = &self.members[i];
        let q = m.quarantined_hint.load(Ordering::Relaxed);
        let p = self.config.policy.quarantine;
        if !m.has_peers() {
            return debt(q, self.quota(), p.fraction) >= 1.0;
        }
        let live = m.live_hint.load(Ordering::Relaxed).max(1);
        q >= p.min_bytes.max(1) && (q as f64 >= p.fraction * live as f64 || q >= self.quota() / 2)
    }

    /// Claims member `i` for epoch execution (advisory flag steering the
    /// run queue; the heap mutex is the actual exclusion).
    fn claim(&self, i: usize) -> bool {
        self.members[i]
            .sweeping
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    fn unclaim(&self, i: usize) {
        self.members[i].sweeping.store(false, Ordering::Release);
    }

    /// One scheduling pass: debt order first, then stealing from an
    /// in-flight epoch, else idle.
    fn next_task(&self) -> Task {
        let tick = self.tick.load(Ordering::Relaxed);
        // 1. Highest-debt due member not already claimed. A member with
        // peers opens at most one scheduled epoch per worker tick.
        let mut best: Option<(usize, f64)> = None;
        for (i, m) in self.members.iter().enumerate() {
            if m.sweeping.load(Ordering::Acquire)
                || (m.has_peers() && m.last_tick.load(Ordering::Relaxed) >= tick)
                || !self.due(i)
            {
                continue;
            }
            let debt = debt(
                m.quarantined_hint.load(Ordering::Relaxed),
                self.quota(),
                self.config.policy.quarantine.fraction,
            );
            if best.is_none_or(|(_, d)| debt > d) {
                best = Some((i, debt));
            }
        }
        if let Some((i, _)) = best {
            if self.claim(i) {
                if self.faults.should_fire(FaultPoint::SchedulerSkip) {
                    // A buggy arbiter drops its pick. Liveness survives
                    // because the debt is still on the queue: the next
                    // pass (any worker) re-selects the member.
                    self.note_fault(FaultPoint::SchedulerSkip, i);
                    self.scheduler_skips.add(1);
                    self.unclaim(i);
                    return Task::Idle;
                }
                self.members[i].last_tick.store(tick, Ordering::Relaxed);
                return Task::Run(i);
            }
        }
        // 2. Nobody due: help the in-flight epoch with the most work left,
        // which bounds the pause tail and keeps a stalled owner's epoch
        // moving.
        (0..self.members.len())
            .filter(|&i| self.members[i].sweeping.load(Ordering::Acquire))
            .max_by_key(|&i| self.members[i].remaining_hint.load(Ordering::Relaxed))
            .filter(|&i| self.members[i].remaining_hint.load(Ordering::Relaxed) > 0)
            .map_or(Task::Idle, Task::Steal)
    }

    /// Opens an epoch on member `i` unless one is already active, and
    /// for a member with peers runs the domain half of it (see
    /// `sweep_peers`). Returns whether an epoch is active afterwards.
    fn open_epoch(&self, i: usize) -> bool {
        let m = &self.members[i];
        let ranges = {
            let mut heap = self.lock(i);
            if heap.revocation_active() {
                return true;
            }
            heap.set_epoch_hold(m.has_peers());
            if !heap.begin_revocation() {
                heap.set_epoch_hold(false);
                m.sync_hints(&heap, &self.global_quarantine);
                return false;
            }
            m.remaining_hint
                .store(heap.revocation_remaining_bytes(), Ordering::Relaxed);
            m.epochs.fetch_add(1, Ordering::Relaxed);
            self.epochs.add(1);
            if !m.has_peers() {
                return true;
            }
            heap.epoch_ranges()
        };
        self.sweep_peers(i, &ranges);
        true
    }

    /// The domain half of member `i`'s epoch: publish its painted ranges
    /// to the domain barrier, sweep every peer's root set against `i`'s
    /// shadow map, retire the barrier and release the epoch hold.
    /// Bounded lock holds: one peer at a time, plus `i` for its shadow.
    fn sweep_peers(&self, i: usize, ranges: &[(u64, u64)]) {
        self.publish(ranges);
        if self.faults.should_fire(FaultPoint::EpochBarrierDelay) {
            // Stretch the window between barrier publication and the
            // peer sweeps: capabilities moved meanwhile must be filtered
            // by the published ranges, not by sweep timing.
            self.note_fault(FaultPoint::EpochBarrierDelay, i);
            std::thread::sleep(Duration::from_millis(1));
        }
        for j in self.members[i].domain.clone() {
            if j == i {
                continue;
            }
            // Lock order: ascending index. Mutators only ever hold one
            // member lock, and this is the only two-lock site.
            let (first, second) = (i.min(j), i.max(j));
            let t0 = Instant::now();
            let mut a = self.lock(first);
            let mut b = self.lock(second);
            let (painting, peer) = if first == i {
                (&mut a, &mut b)
            } else {
                (&mut b, &mut a)
            };
            let stats = peer.sweep_foreign(painting.shadow());
            peer.count_peer_sweep(&stats);
            drop(b);
            drop(a);
            let pause = t0.elapsed();
            self.pauses.record_duration(pause);
            // Release after the pause record: a reader that sees this
            // time also sees it in `pauses` (`ConcurrentHeap::stats`).
            self.foreign_sweep_ns.fetch_add(
                u64::try_from(pause.as_nanos()).unwrap_or(u64::MAX),
                Ordering::Release,
            );
            self.bytes_swept
                .fetch_add(stats.bytes_swept, Ordering::Relaxed);
            self.foreign_sweeps.add(1);
            self.foreign_caps_revoked
                .fetch_add(stats.caps_revoked, Ordering::Relaxed);
            self.registry.event(EventKind::ForeignSweep {
                painting_shard: i,
                swept_shard: j,
                caps_revoked: stats.caps_revoked,
            });
        }
        // Every dangling copy outside member `i` is gone, and `i`'s own
        // epoch barrier covers its unswept regions until completion.
        // Retiring the domain barrier *before* the drain means a fresh
        // allocation of the recycled range is never filtered by a stale
        // entry.
        self.unpublish(ranges);
        self.lock(i).set_epoch_hold(false);
    }

    /// Executes one step of member `i`'s epoch, sweeping at most `budget`
    /// bytes: a `slice_bytes` slice for its owner and thieves, the whole
    /// remaining worklist for a synchronous drain.
    fn sweep_slice(&self, i: usize, budget: u64) -> Slice {
        let m = &self.members[i];
        let t0 = Instant::now();
        let mut heap = self.lock(i);
        if !heap.revocation_active() {
            m.remaining_hint.store(0, Ordering::Relaxed);
            return Slice::Inactive;
        }
        let before = heap.revocation_remaining_bytes();
        let done = heap.revoke_step(budget);
        m.remaining_hint
            .store(heap.revocation_remaining_bytes(), Ordering::Relaxed);
        m.sync_hints(&heap, &self.global_quarantine);
        drop(heap);
        // A pause is a step that swept something or retired the epoch; a
        // step on an epoch held open for its peer sweeps does neither.
        if before > 0 || done.is_some() {
            self.pauses.record_duration(t0.elapsed());
        }
        match done {
            Some(stats) => {
                self.bytes_swept
                    .fetch_add(stats.bytes_swept, Ordering::Relaxed);
                Slice::Done
            }
            None => Slice::Progress,
        }
    }

    /// Runs member `i`'s epoch to completion (claimed via the run
    /// queue). Slices release the heap lock between steps, so mutators
    /// interleave and idle workers can steal slices of this same epoch.
    fn run_epoch(&self, i: usize, slot: &Slot) {
        if self.open_epoch(i) {
            while !self.stop.load(Ordering::SeqCst) {
                if self.faults.should_fire(FaultPoint::TenantStall) {
                    // The owner stalls mid-epoch *without* holding the
                    // heap lock: mutators keep running and thieves keep
                    // the epoch advancing — the liveness the chaos test
                    // checks.
                    self.note_fault(FaultPoint::TenantStall, i);
                    std::thread::sleep(Duration::from_micros(500));
                }
                slot.heartbeat_ns.store(self.now_ns(), Ordering::Relaxed);
                match self.sweep_slice(i, self.slice_bytes) {
                    Slice::Progress => std::thread::yield_now(),
                    Slice::Done | Slice::Inactive => break,
                }
            }
        }
        self.unclaim(i);
    }

    /// Synchronously drains member `i`'s quarantine to zero. Helps an
    /// in-flight epoch rather than hijacking it (its owner may be holding
    /// it open for the peer sweeps); loops because a helped in-flight
    /// epoch sealed only what was quarantined when it opened, so frees
    /// since then wait for a new epoch.
    pub(crate) fn drain(&self, i: usize) {
        while self.open_epoch(i) {
            // Progress without completion: the epoch is held open by its
            // owner's peer sweeps; let them finish.
            while let Slice::Progress = self.sweep_slice(i, u64::MAX) {
                std::thread::yield_now();
            }
        }
    }

    /// Synchronously drains every member (the emergency global sweep).
    pub(crate) fn drain_all(&self) {
        for i in 0..self.members.len() {
            self.drain(i);
        }
    }

    // --- Worker pool and supervisor ----------------------------------------

    fn retired(&self, slot: &Slot, gen: u64) -> bool {
        self.stop.load(Ordering::SeqCst) || slot.gen.load(Ordering::SeqCst) != gen
    }

    /// Parks an idle worker until kicked or one scheduler interval.
    fn park_worker(&self) {
        let mut kicked = match self.park.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if !*kicked {
            kicked = self
                .wake
                .wait_timeout(kicked, self.config.scheduler_interval)
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
        }
        *kicked = false;
    }

    /// Pool worker `w`, generation `gen`. Any exit — retirement, an
    /// injected death, or a genuine panic — clears its liveness through
    /// a drop guard, which the supervisor sees at its next tick.
    fn worker_loop(&self, w: usize, gen: u64) {
        struct Alive<'a> {
            slot: &'a Slot,
            gen: u64,
        }
        impl Drop for Alive<'_> {
            fn drop(&mut self) {
                let _ = self.slot.alive.compare_exchange(
                    self.gen,
                    0,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
            }
        }
        let slot = &self.slots[w];
        let _alive = Alive { slot, gen };
        while !self.retired(slot, gen) {
            slot.heartbeat_ns.store(self.now_ns(), Ordering::Relaxed);
            match self.next_task() {
                Task::Run(i) => self.run_epoch(i, slot),
                Task::Steal(i) => {
                    if matches!(
                        self.sweep_slice(i, self.slice_bytes),
                        Slice::Progress | Slice::Done
                    ) {
                        self.steals.add(1);
                    }
                }
                Task::Idle => {
                    self.park_worker();
                    if self.retired(slot, gen) {
                        return;
                    }
                    if self.faults.should_fire(FaultPoint::RevokerDeath) {
                        // Simulated worker death: exit without another
                        // pass. The supervisor restarts the slot.
                        self.note_fault(FaultPoint::RevokerDeath, w);
                        return;
                    }
                    self.tick.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    fn spawn_worker(self: &Arc<Self>, w: usize, gen: u64) -> Result<JoinHandle<()>, HeapError> {
        let slot = &self.slots[w];
        slot.gen.store(gen, Ordering::SeqCst);
        slot.heartbeat_ns.store(self.now_ns(), Ordering::Relaxed);
        // Alive from the spawn, so a worker slow to start is not taken
        // for dead.
        slot.alive.store(gen, Ordering::SeqCst);
        let core = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("cherivoke-worker-{w}"))
            .spawn(move || core.worker_loop(w, gen))
            .map_err(|_| {
                let _ = slot
                    .alive
                    .compare_exchange(gen, 0, Ordering::SeqCst, Ordering::SeqCst);
                HeapError::RevokerSpawn
            })
    }

    /// The supervisor: spawns the pool, then watches every worker for
    /// death (liveness cleared) and stalls (heartbeat older than the
    /// watchdog) and respawns it with exponential backoff. While no
    /// worker runs, mutators drain inline (see `free`), so every failure
    /// mode degrades to the paper's synchronous design.
    fn supervise(self: &Arc<Self>) {
        let watchdog_ns = self.shape.watchdog.as_nanos() as u64;
        let tick =
            (self.shape.watchdog / 8).clamp(Duration::from_micros(200), Duration::from_millis(20));
        let floor = self.config.scheduler_interval.max(Duration::from_millis(1));
        let mut backoff =
            vec![RestartBackoff::new(floor, Duration::from_secs(1)); self.slots.len()];
        let mut handles: Vec<JoinHandle<()>> = Vec::new();
        for w in 0..self.slots.len() {
            match self.spawn_worker(w, 1) {
                Ok(h) => handles.push(h),
                Err(e) => eprintln!("cherivoke: {e}; mutators will revoke inline until a retry"),
            }
        }
        while !self.stop.load(Ordering::SeqCst) {
            std::thread::park_timeout(tick);
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            for (w, slot) in self.slots.iter().enumerate() {
                let gen = slot.gen.load(Ordering::SeqCst);
                let alive = slot.alive.load(Ordering::SeqCst) == gen;
                let now = self.now_ns();
                let heartbeat = slot.heartbeat_ns.load(Ordering::Relaxed);
                let stalled = alive && now.saturating_sub(heartbeat) > watchdog_ns;
                if alive && !stalled {
                    backoff[w].on_healthy();
                    continue;
                }
                // Exponential backoff between restarts after a death: a
                // crash-looping worker must not starve the mutators who
                // are covering inline.
                if !stalled && heartbeat.saturating_add(backoff[w].delay().as_nanos() as u64) > now
                {
                    continue;
                }
                let cause = if stalled { "stall" } else { "death" };
                // Issuing a new generation makes a stalled worker retire
                // as soon as it resumes; its drop guard cannot clear the
                // new generation's liveness.
                match self.spawn_worker(w, gen + 1) {
                    Ok(h) => {
                        handles.push(h);
                        self.revoker_restarts.add(1);
                        self.registry.event(EventKind::RevokerRestarted {
                            generation: gen + 1,
                            cause,
                        });
                    }
                    Err(e) => {
                        eprintln!("cherivoke: {e}; mutators will revoke inline until a retry");
                    }
                }
                backoff[w].on_restart();
            }
            // Retired threads eventually finish; reap without blocking
            // the watch loop on a stalled one.
            handles.retain(|h| !h.is_finished());
            while handles.len() > 8 * self.slots.len() {
                let _ = handles.remove(0).join();
            }
        }
        for h in handles {
            let _ = h.join();
        }
    }

    fn fleet_stats(&self) -> FleetStats {
        let tenants = self
            .members
            .iter()
            .enumerate()
            .map(|(i, m)| TenantStats {
                tenant: i,
                mallocs: m.mallocs.load(Ordering::Relaxed),
                frees: m.frees.load(Ordering::Relaxed),
                quarantined_bytes: m.quarantined_hint.load(Ordering::Relaxed),
                quota: self.quota(),
                epochs: m.epochs.load(Ordering::Relaxed),
                throttled: m.throttled.load(Ordering::Relaxed),
            })
            .collect();
        FleetStats {
            tenants,
            epochs: self.epochs.get(),
            steals: self.steals.get(),
            scheduler_skips: self.scheduler_skips.get(),
            throttled: self.throttled.get(),
            emergency_sweeps: self.emergency_sweeps.get(),
            revoker_restarts: self.revoker_restarts.get(),
            global_quarantined: self.global_quarantine.load(Ordering::Relaxed),
            pauses: self.pauses.snapshot(),
        }
    }
}

/// A running core: the member table plus its supervised worker pool.
/// Dropping it stops and joins every thread.
pub(crate) struct Runtime {
    pub(crate) core: Arc<Core>,
    supervisor: Option<JoinHandle<()>>,
}

impl Runtime {
    /// Builds the core from an already-validated `config` and starts the
    /// supervisor, which spawns the worker pool. Construction never fails
    /// on thread exhaustion: without a supervisor no worker runs, and
    /// mutators revoke inline.
    pub(crate) fn start(
        config: FleetConfig,
        shape: Shape,
        faults: FaultInjector,
        journal_dir: Option<&Path>,
        recovered: HashMap<usize, CherivokeHeap>,
    ) -> Result<Runtime, HeapError> {
        let core = Arc::new(Core::new(config, shape, faults, journal_dir, recovered)?);
        // The pool counts as alive from construction, so mutators do not
        // drain inline while the supervisor is still spawning it.
        for slot in &core.slots {
            slot.gen.store(1, Ordering::SeqCst);
            slot.alive.store(1, Ordering::SeqCst);
        }
        let supervised = Arc::clone(&core);
        let supervisor = match std::thread::Builder::new()
            .name("cherivoke-supervisor".into())
            .spawn(move || supervised.supervise())
        {
            Ok(handle) => Some(handle),
            Err(_) => {
                eprintln!(
                    "cherivoke: {}; degrading to inline revocation on mutator threads",
                    HeapError::RevokerSpawn
                );
                for slot in &core.slots {
                    slot.alive.store(0, Ordering::SeqCst);
                }
                None
            }
        };
        Ok(Runtime { core, supervisor })
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.core.stop.store(true, Ordering::SeqCst);
        self.core.kick();
        // Joining the supervisor joins every worker generation it spawned.
        if let Some(handle) = self.supervisor.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

/// A fleet of tenant heaps behind a global sweep scheduler and a shared
/// work-stealing sweep-worker pool. See the module docs for the design.
pub struct HeapService {
    rt: Runtime,
}

impl HeapService {
    /// Builds the fleet and spawns the shared worker pool, with fault
    /// injection and journaling off: [`HeapService::with_journal_dir`]
    /// with [`FaultInjector::disabled`] and no journal directory.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidConfig`] via [`FleetConfig::validated`], or
    /// any tenant-heap construction error.
    pub fn new(config: FleetConfig) -> Result<HeapService, HeapError> {
        HeapService::with_journal_dir(config, FaultInjector::disabled(), None)
    }

    /// The full constructor: as [`HeapService::new`], armed with `faults`
    /// (a [`FaultInjector::new`] plan, or [`FaultInjector::disabled`]) and
    /// journaling into `journal_dir`: each tenant writes its
    /// crash-consistency journal to `journal_dir/tenant-{i}.cvj` (see
    /// [`crate::recovery`]). `None` runs without journaling. A journal
    /// that cannot be created degrades that tenant to unjournaled
    /// operation with a once-per-process warning; construction still
    /// succeeds.
    ///
    /// # Errors
    ///
    /// As [`HeapService::new`].
    pub fn with_journal_dir(
        config: FleetConfig,
        faults: FaultInjector,
        journal_dir: Option<&Path>,
    ) -> Result<HeapService, HeapError> {
        HeapService::assemble(config, faults, journal_dir, HashMap::new())
    }

    /// Rebuilds a fleet after a crash. Each [`TenantCrashArtifact`] is
    /// replayed through [`CherivokeHeap::recover`] onto the extent the
    /// fleet layout assigns that tenant; tenants without artifacts start
    /// fresh. When several artifacts name one tenant, the last one wins.
    /// Recovery runs in **debt-scheduler order** — the same
    /// quarantine-over-trigger key the epoch scheduler uses, computed from
    /// the persisted images — so the tenants furthest past their trigger
    /// are made safe first. Every recovered tenant's quarantine hint is
    /// synced before workers start, so admission throttling engages
    /// immediately.
    ///
    /// Returns the running service plus one [`TenantRecovery`] per
    /// recovered tenant (in recovery order). Callers should gate on
    /// [`RecoveryReport::safe`] before admitting traffic.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::UnknownTenant`] when an artifact names a tenant
    /// outside the validated fleet; otherwise as
    /// [`CherivokeHeap::recover`] and [`HeapService::new`].
    pub fn recover(
        config: FleetConfig,
        faults: FaultInjector,
        journal_dir: Option<&Path>,
        artifacts: Vec<TenantCrashArtifact>,
    ) -> Result<(HeapService, Vec<TenantRecovery>), RecoveryError> {
        let (config, _) = config.validated()?;
        let (heap_policy, _) = fleet_heap_policy(&config);
        let (first_base, stride, rounded) = tenant_layout(&config);
        // The last artifact per tenant, in input order.
        let mut seen = vec![false; config.tenants];
        let mut latest = Vec::with_capacity(artifacts.len());
        for art in artifacts.into_iter().rev() {
            if art.tenant >= config.tenants {
                return Err(RecoveryError::UnknownTenant { tenant: art.tenant });
            }
            if !std::mem::replace(&mut seen[art.tenant], true) {
                latest.push(art);
            }
        }
        latest.reverse();
        // Debt key per artifact, from the persisted image's quarantine
        // bytes.
        let mut ordered = Vec::with_capacity(latest.len());
        for art in latest {
            let image = HeapImage::decode(&art.image)?;
            let quarantined: u64 = image
                .chunks
                .iter()
                .filter(|c| {
                    matches!(
                        c.state,
                        ImageChunkState::QuarantinedOpen | ImageChunkState::QuarantinedSealed
                    )
                })
                .map(|c| c.size)
                .sum();
            let debt = debt(
                quarantined,
                config.tenant_policy.quarantine_quota,
                config.policy.quarantine.fraction,
            );
            ordered.push((debt, art));
        }
        ordered.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut recovered = HashMap::new();
        let mut reports = Vec::with_capacity(ordered.len());
        for (debt, art) in ordered {
            let base = first_base + art.tenant as u64 * stride;
            let (heap, report) = CherivokeHeap::recover(
                HeapConfig {
                    heap_base: base,
                    heap_size: rounded,
                    policy: heap_policy,
                    ..HeapConfig::default()
                },
                &art.image,
                &art.journal,
            )?;
            recovered.insert(art.tenant, heap);
            reports.push(TenantRecovery {
                tenant: art.tenant,
                debt,
                report,
            });
        }
        let service = HeapService::assemble(config, faults, journal_dir, recovered)?;
        Ok((service, reports))
    }

    fn assemble(
        config: FleetConfig,
        faults: FaultInjector,
        journal_dir: Option<&Path>,
        recovered: HashMap<usize, CherivokeHeap>,
    ) -> Result<HeapService, HeapError> {
        let (config, warnings) = config.validated()?;
        for warning in &warnings {
            eprintln!("cherivoke: {warning}");
        }
        // An idle worker heartbeats once per scheduler interval, so the
        // watchdog must outlast a few of them.
        let shape = Shape {
            watchdog: Shape::FLEET.watchdog.max(config.scheduler_interval * 4),
            ..Shape::FLEET
        };
        let rt = Runtime::start(config, shape, faults, journal_dir, recovered)?;
        Ok(HeapService { rt })
    }

    fn core(&self) -> &Core {
        &self.rt.core
    }

    fn check(&self, tenant: usize) -> Result<(), FleetError> {
        if tenant < self.core().members.len() {
            Ok(())
        } else {
            Err(FleetError::NoSuchTenant { tenant })
        }
    }

    /// Number of tenants in the fleet.
    pub fn tenant_count(&self) -> usize {
        self.core().members.len()
    }

    /// Allocates `size` bytes from `tenant`'s heap.
    ///
    /// # Errors
    ///
    /// [`FleetError::TenantThrottled`] past the throttle mark,
    /// [`FleetError::NoSuchTenant`], or the tenant heap's error (OOM
    /// only after an emergency global sweep failed to help).
    pub fn malloc(&self, tenant: usize, size: u64) -> Result<Capability, FleetError> {
        self.core().fleet_malloc(tenant, size)
    }

    /// Frees `cap`, quarantining its memory in the owning tenant. If the
    /// free would push the tenant past its quarantine quota, the tenant
    /// is synchronously drained first — the budget bound holds at every
    /// operation boundary.
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::free`] (wrapped in [`FleetError::Heap`]).
    pub fn free(&self, cap: Capability) -> Result<(), FleetError> {
        Ok(self.core().free(cap)?)
    }

    /// Loads a `u64` through `cap` (routed to the owning tenant).
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::load_u64`].
    pub fn load_u64(&self, cap: &Capability, offset: u64) -> Result<u64, FleetError> {
        Ok(self.core().with_member(cap, |h| h.load_u64(cap, offset))?)
    }

    /// Stores a `u64` through `cap` (routed to the owning tenant).
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::store_u64`].
    pub fn store_u64(&self, cap: &Capability, offset: u64, value: u64) -> Result<(), FleetError> {
        Ok(self
            .core()
            .with_member(cap, |h| h.store_u64(cap, offset, value))?)
    }

    /// Loads a capability through `cap` from the owning tenant's heap.
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::load_cap`].
    pub fn load_cap(&self, cap: &Capability, offset: u64) -> Result<Capability, FleetError> {
        Ok(self.core().load_cap(cap, offset)?)
    }

    /// Stores capability `value` through `cap`. Tenant isolation is
    /// enforced here: `value` must belong to the same tenant as the
    /// destination — cross-tenant capability flow is the one thing that
    /// could defeat per-tenant sweeps, so it is refused, never swept.
    ///
    /// # Errors
    ///
    /// [`FleetError::CrossTenantStore`];
    /// [`HeapError::NotAnAllocation`] (as [`FleetError::Heap`]) when
    /// `cap`, or a tagged `value`, points into no tenant; otherwise as
    /// [`CherivokeHeap::store_cap`].
    pub fn store_cap(
        &self,
        cap: &Capability,
        offset: u64,
        value: &Capability,
    ) -> Result<(), FleetError> {
        self.core().store_cap(cap, offset, value)
    }

    /// Synchronously drains one tenant's quarantine to zero (the caller
    /// pays; see [`HeapService::free`] for when the fleet does this
    /// implicitly).
    ///
    /// # Errors
    ///
    /// [`FleetError::NoSuchTenant`].
    pub fn drain_tenant(&self, tenant: usize) -> Result<(), FleetError> {
        self.check(tenant)?;
        self.core().drain(tenant);
        Ok(())
    }

    /// Synchronously drains every tenant (the emergency global sweep,
    /// callable explicitly).
    pub fn drain_all(&self) {
        self.core().drain_all();
    }

    /// Wakes the worker pool now instead of at its next scheduled scan.
    pub fn kick(&self) {
        self.core().kick();
    }

    /// Runs the full-heap safety audit ([`CherivokeHeap::audit`]) on
    /// every tenant and returns the per-tenant reports. Valid at any
    /// time, including mid-epoch. The chaos harnesses run this after a
    /// fault-injected run as the final soundness check.
    pub fn audit_all(&self) -> Vec<revoker::AuditReport> {
        self.core().audit_all()
    }

    /// Current quarantine bytes of one tenant.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoSuchTenant`].
    pub fn quarantined_bytes(&self, tenant: usize) -> Result<u64, FleetError> {
        self.check(tenant)?;
        Ok(self.core().lock(tenant).quarantined_bytes())
    }

    /// Fleet-wide quarantine bytes (the lock-free running total the
    /// global ceiling is enforced against).
    pub fn global_quarantined(&self) -> u64 {
        self.core().global_quarantine.load(Ordering::Relaxed)
    }

    /// Point-in-time fleet statistics.
    pub fn stats(&self) -> FleetStats {
        self.core().fleet_stats()
    }

    /// The fleet's fault injector (for test assertions on fired points).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.core().faults
    }

    /// The shared telemetry registry (disabled unless
    /// [`FleetConfig::telemetry`] was set).
    pub fn telemetry(&self) -> &Registry {
        &self.core().registry
    }

    /// A snapshot of every fleet metric (empty when telemetry is off).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.core().registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(tenants: usize) -> FleetConfig {
        let mut c = FleetConfig::with_tenants(tenants);
        c.tenant_heap_size = 256 << 10;
        c.tenant_policy.quarantine_quota = 128 << 10;
        c.global_ceiling = tenants as u64 * (128 << 10);
        c
    }

    #[test]
    fn restart_backoff_pins_the_exponential_sequence_and_cap() {
        // The supervisor's schedule for a 1 ms floor: 1, 2, 4, … doubling
        // per respawn, capped at the 1 s ceiling, and never growing past
        // it.
        let mut b = RestartBackoff::new(Duration::from_millis(1), Duration::from_secs(1));
        let mut seen = Vec::new();
        for _ in 0..14 {
            seen.push(b.delay().as_millis() as u64);
            b.on_restart();
        }
        assert_eq!(
            seen,
            vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000, 1000, 1000, 1000],
            "doubling sequence with a 1 s cap"
        );
    }

    #[test]
    fn restart_backoff_resets_on_healthy_heartbeat() {
        let mut b = RestartBackoff::new(Duration::from_millis(1), Duration::from_secs(1));
        for _ in 0..6 {
            b.on_restart();
        }
        assert_eq!(b.delay(), Duration::from_millis(64));
        b.on_healthy();
        assert_eq!(b.delay(), Duration::from_millis(1), "reset to the floor");
        b.on_restart();
        assert_eq!(b.delay(), Duration::from_millis(2), "doubling starts over");
    }

    #[test]
    fn restart_backoff_floor_above_ceiling_is_clamped() {
        let mut b = RestartBackoff::new(Duration::from_secs(5), Duration::from_secs(1));
        assert_eq!(b.delay(), Duration::from_secs(1));
        b.on_restart();
        assert_eq!(b.delay(), Duration::from_secs(1));
        b.on_healthy();
        assert_eq!(b.delay(), Duration::from_secs(1));
    }

    #[test]
    fn validated_clamps_and_warns() {
        let mut c = FleetConfig {
            tenants: 0,
            workers: 0,
            tenant_heap_size: 1,
            scheduler_interval: Duration::ZERO,
            ..FleetConfig::default()
        };
        c.tenant_policy.quarantine_quota = 1;
        let (v, warnings) = c.validated().unwrap();
        assert_eq!(v.tenants, 1);
        assert_eq!(v.workers, 1);
        assert_eq!(v.tenant_policy.quarantine_quota, MIN_TENANT_QUOTA);
        assert_eq!(v.tenant_heap_size, 64 << 10);
        assert!(!v.scheduler_interval.is_zero());
        assert!(warnings.len() >= 5, "{warnings:?}");
    }

    #[test]
    fn validated_rejects_inconsistent_configs() {
        let c = FleetConfig {
            tenants: MAX_FLEET_TENANTS + 1,
            ..FleetConfig::default()
        };
        assert_eq!(
            c.validated().unwrap_err(),
            HeapError::InvalidConfig("fleet tenant count exceeds MAX_FLEET_TENANTS")
        );

        let mut c = FleetConfig::default();
        c.tenant_policy.quarantine_quota = 0;
        assert_eq!(
            c.validated().unwrap_err(),
            HeapError::InvalidConfig("tenant quarantine quota must be positive")
        );

        let mut c = FleetConfig::with_tenants(16);
        c.global_ceiling = 15 * MIN_TENANT_QUOTA;
        assert_eq!(
            c.validated().unwrap_err(),
            HeapError::InvalidConfig(
                "fleet global ceiling is below the sum of minimum tenant quotas"
            )
        );

        // The embedded revocation policy's own arms still apply.
        let mut c = FleetConfig::default();
        c.policy.quarantine.fraction = f64::NAN;
        assert!(matches!(c.validated(), Err(HeapError::InvalidConfig(_))));
    }

    #[test]
    fn workers_clamp_to_engine_maximum() {
        let c = FleetConfig {
            workers: revoker::MAX_SWEEP_WORKERS + 7,
            ..FleetConfig::default()
        };
        let (v, warnings) = c.validated().unwrap();
        assert_eq!(v.workers, revoker::MAX_SWEEP_WORKERS);
        assert!(warnings.iter().any(|w| w.contains("worker pool")));
    }

    #[test]
    fn quota_clamps_to_heap_size() {
        let mut c = FleetConfig {
            tenant_heap_size: 128 << 10,
            ..FleetConfig::default()
        };
        c.tenant_policy.quarantine_quota = 1 << 20;
        let (v, warnings) = c.validated().unwrap();
        assert_eq!(v.tenant_policy.quarantine_quota, 128 << 10);
        assert!(warnings.iter().any(|w| w.contains("quota")));
    }

    #[test]
    fn malloc_free_and_cross_tenant_isolation() {
        let service =
            HeapService::with_journal_dir(small_config(2), FaultInjector::disabled(), None)
                .unwrap();
        let slot_a = service.malloc(0, 64).unwrap();
        let obj_a = service.malloc(0, 64).unwrap();
        let slot_b = service.malloc(1, 64).unwrap();
        // Same-tenant capability stores work…
        service.store_cap(&slot_a, 0, &obj_a).unwrap();
        assert_eq!(service.load_cap(&slot_a, 0).unwrap().base(), obj_a.base());
        // …cross-tenant stores are refused with the typed error.
        assert_eq!(
            service.store_cap(&slot_b, 0, &obj_a).unwrap_err(),
            FleetError::CrossTenantStore { from: 0, to: 1 }
        );
        service.free(obj_a).unwrap();
        assert!(service.quarantined_bytes(0).unwrap() > 0);
        service.drain_all();
        assert_eq!(service.global_quarantined(), 0);
        // The stale pointer the drain revoked no longer loads.
        assert!(!service.load_cap(&slot_a, 0).unwrap().tag());
    }

    #[test]
    fn no_such_tenant_is_typed() {
        let service =
            HeapService::with_journal_dir(small_config(1), FaultInjector::disabled(), None)
                .unwrap();
        assert_eq!(
            service.malloc(9, 64).unwrap_err(),
            FleetError::NoSuchTenant { tenant: 9 }
        );
        assert!(service.drain_tenant(9).is_err());
        assert!(service.quarantined_bytes(9).is_err());
    }

    /// An injector whose `scheduler_skip` fires on every pick, so no
    /// pool worker ever claims a member.
    fn skip_every_pick() -> FaultInjector {
        use faultinject::{FaultPlan, FaultRule};
        FaultInjector::new(FaultPlan::from_rules(vec![FaultRule {
            point: FaultPoint::SchedulerSkip,
            start: 1,
            every: 1,
            limit: u64::MAX,
        }]))
    }

    /// Soft-crashes a standalone heap on the extent the fleet layout
    /// assigns `tenant`, mid-epoch at `point`, and returns the persisted
    /// image + journal as a recovery artifact. The crash heap runs a
    /// self-triggering policy (the fleet's own tenants are
    /// scheduler-driven) — recovery only requires the extent to match.
    fn crash_artifact(
        config: FleetConfig,
        tenant: usize,
        point: FaultPoint,
        ballast: u64,
    ) -> TenantCrashArtifact {
        use faultinject::{silence_injected_panics, FaultPlan, FaultRule};
        // Tests run in parallel and several crash the same tenant at the
        // same point: every call needs a directory of its own.
        static CALLS: AtomicU64 = AtomicU64::new(0);
        silence_injected_panics();
        let (config, _) = config.validated().unwrap();
        let (first_base, stride, rounded) = tenant_layout(&config);
        let dir = std::env::temp_dir().join(format!(
            "cvk-fleet-crash-{}-{}",
            std::process::id(),
            CALLS.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let image_path = dir.join("heap.img");
        let journal_path = dir.join("heap.cvj");
        let mut policy = config.policy;
        policy.quarantine.fraction = 0.25;
        policy.incremental_slice_bytes = Some(16 << 10);
        let mut heap = CherivokeHeap::new(HeapConfig {
            heap_base: first_base + tenant as u64 * stride,
            heap_size: rounded,
            policy,
            ..HeapConfig::default()
        })
        .unwrap();
        heap.set_journal(Journal::create(&journal_path).unwrap());
        heap.set_crash_persist(image_path.clone(), false);
        heap.set_fault_injector(FaultInjector::new(FaultPlan::from_rules(vec![
            FaultRule::once(point, 0),
        ])));
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Live ballast raises the epoch trigger (quarantine fraction
            // is relative to live bytes), so `ballast` steers how much
            // quarantine the image holds at the crash — i.e. the debt.
            let mut live = Vec::new();
            let mut remaining = ballast;
            while remaining > 0 {
                let piece = remaining.min(32 << 10);
                live.push(heap.malloc(piece).unwrap());
                remaining -= piece;
            }
            let holder = heap.malloc(16).unwrap();
            for _ in 0..400 {
                let obj = heap.malloc(4 << 10).unwrap();
                heap.store_cap(&holder, 0, &obj).unwrap();
                heap.free(obj).unwrap();
            }
        }));
        assert!(crashed.is_err(), "{point:?} never fired");
        drop(heap);
        let artifact = TenantCrashArtifact {
            tenant,
            image: std::fs::read(&image_path).unwrap(),
            journal: std::fs::read(&journal_path).unwrap(),
        };
        let _ = std::fs::remove_dir_all(&dir);
        artifact
    }

    #[test]
    fn recover_rolls_a_crashed_tenant_forward_in_debt_order() {
        let config = small_config(3);
        // Tenant 2 crashes holding a *sealed* quarantine (reopen-seal —
        // its quarantine survives recovery) with 8× the live ballast of
        // tenant 0's mid-sweep crash: its image carries several times the
        // quarantine debt, so it must recover first despite being passed
        // last.
        let heavy = crash_artifact(config, 2, FaultPoint::CrashAfterSeal, 128 << 10);
        let light = crash_artifact(config, 0, FaultPoint::CrashMidSweep, 16 << 10);
        let (service, reports) =
            HeapService::recover(config, FaultInjector::disabled(), None, vec![light, heavy])
                .unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(
            reports.iter().map(|r| r.tenant).collect::<Vec<_>>(),
            vec![2, 0],
            "recovery must run highest debt first: {reports:?}"
        );
        assert!(reports[0].debt > reports[1].debt, "{reports:?}");
        for r in &reports {
            assert!(
                r.report.safe(),
                "tenant {} unsafe: {:?}",
                r.tenant,
                r.report
            );
        }
        // Recovered tenants serve traffic again, isolated as before.
        let a = service.malloc(0, 256).unwrap();
        let b = service.malloc(2, 256).unwrap();
        assert_ne!(a.base(), b.base());
        service.free(a).unwrap();
        service.free(b).unwrap();
        service.drain_all();
        assert_eq!(service.global_quarantined(), 0);
    }

    #[test]
    fn recover_keeps_the_last_of_duplicate_artifacts() {
        let config = small_config(1);
        // The heavier after-seal artifact comes second, so it wins even
        // though the lighter mid-sweep one would recover first by debt.
        let light = crash_artifact(config, 0, FaultPoint::CrashMidSweep, 16 << 10);
        let heavy = crash_artifact(config, 0, FaultPoint::CrashAfterSeal, 128 << 10);
        let (_service, reports) =
            HeapService::recover(config, FaultInjector::disabled(), None, vec![light, heavy])
                .unwrap();
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert!(
            matches!(reports[0].report.action, crate::RecoveryAction::ReopenSeal),
            "{reports:?}"
        );
        assert!(reports[0].report.safe());
    }

    #[test]
    fn recover_rejects_unknown_tenants() {
        let config = small_config(2);
        let art = crash_artifact(config, 0, FaultPoint::CrashAfterPaint, 16 << 10);
        let bad = TenantCrashArtifact {
            tenant: 7,
            ..art.clone()
        };
        assert!(matches!(
            HeapService::recover(config, FaultInjector::disabled(), None, vec![bad]),
            Err(RecoveryError::UnknownTenant { tenant: 7 })
        ));
    }

    #[test]
    fn cross_tenant_store_is_still_refused_after_recovery() {
        let config = small_config(2);
        let art = crash_artifact(config, 0, FaultPoint::CrashMidSweep, 16 << 10);
        let (service, reports) =
            HeapService::recover(config, FaultInjector::disabled(), None, vec![art]).unwrap();
        assert!(reports[0].report.safe());
        let slot_a = service.malloc(0, 64).unwrap();
        let obj_b = service.malloc(1, 64).unwrap();
        assert_eq!(
            service.store_cap(&slot_a, 0, &obj_b).unwrap_err(),
            FleetError::CrossTenantStore { from: 1, to: 0 }
        );
        service.free(obj_b).unwrap();
    }

    #[test]
    fn tenant_throttle_is_still_enforced_after_recovery() {
        let mut config = small_config(2);
        config.scheduler_interval = Duration::from_secs(30);
        config.tenant_policy.quarantine_quota = MIN_TENANT_QUOTA;
        // A mid-sweep crash rolls forward, so the recovered tenant comes
        // back with an empty quarantine.
        let art = crash_artifact(config, 0, FaultPoint::CrashMidSweep, 16 << 10);
        // Every scheduler pick is dropped, so no worker ever claims the
        // tenant: the loop's frees make it due and kick the pool, but
        // nothing drains behind the test's back.
        let (service, reports) =
            HeapService::recover(config, skip_every_pick(), None, vec![art]).unwrap();
        assert_eq!(reports[0].report.action, crate::RecoveryAction::RollForward);
        assert!(reports[0].report.safe());
        // Push the recovered tenant past THROTTLE_FRACTION of the tight
        // quota. Admission reads the hint the frees keep synced, and the
        // condition re-checks actual quarantine before each malloc, so
        // every malloc in the loop stays admitted.
        while (service.quarantined_bytes(0).unwrap() as f64)
            < THROTTLE_FRACTION * MIN_TENANT_QUOTA as f64
        {
            let obj = service.malloc(0, 8 << 10).unwrap();
            service.free(obj).unwrap();
        }
        assert!(matches!(
            service.malloc(0, 64),
            Err(FleetError::TenantThrottled { tenant: 0, .. })
        ));
        // An explicit drain clears the backpressure.
        service.drain_tenant(0).unwrap();
        let c = service.malloc(0, 64).unwrap();
        service.free(c).unwrap();
    }

    #[test]
    fn a_tenant_is_due_at_its_trigger_and_the_crossing_free_opens_an_epoch() {
        let mut config = small_config(1);
        config.tenant_policy.quarantine_quota = MIN_TENANT_QUOTA;
        // Park the pool: only a kick from the crossing free wakes it.
        config.scheduler_interval = Duration::from_secs(30);
        let trigger = MIN_TENANT_QUOTA / 4;

        // The boundary, on a service whose worker drops every pick, so
        // no epoch resyncs the hint under the test.
        let probe = HeapService::with_journal_dir(config, skip_every_pick(), None).unwrap();
        let core = probe.core();
        let hint = &core.members[0].quarantined_hint;
        hint.store(trigger - 1, Ordering::Relaxed);
        assert!(!core.due(0), "one byte below the trigger is not due");
        hint.store(trigger, Ordering::Relaxed);
        assert!(core.due(0), "the trigger itself is due");

        let service =
            HeapService::with_journal_dir(config, FaultInjector::disabled(), None).unwrap();
        let step = trigger / 4;
        for _ in 0..3 {
            let obj = service.malloc(0, step).unwrap();
            service.free(obj).unwrap();
        }
        assert_eq!(service.quarantined_bytes(0).unwrap(), trigger - step);
        assert_eq!(service.stats().epochs, 0);
        let obj = service.malloc(0, step).unwrap();
        service.free(obj).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.stats().epochs == 0 {
            assert!(
                Instant::now() < deadline,
                "the free that crossed the trigger opened no epoch"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn journal_dir_attaches_a_journal_per_tenant() {
        let dir = std::env::temp_dir().join(format!("cvk-fleet-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service =
            HeapService::with_journal_dir(small_config(2), FaultInjector::disabled(), Some(&dir))
                .unwrap();
        for i in 0..service.tenant_count() {
            assert!(
                service.core().lock(i).journal_active(),
                "tenant {i} journal missing"
            );
            assert!(dir.join(format!("tenant-{i}.cvj")).exists());
        }
        let obj = service.malloc(0, 256).unwrap();
        service.free(obj).unwrap();
        service.drain_all();
        assert_eq!(service.global_quarantined(), 0);
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
