//! Deterministic, seed-driven fault injection for the revocation machinery.
//!
//! The safety argument of CHERIvoke (PAPER.md §4) only holds if revocation
//! *always completes*: a sweep worker that panics or a background revoker
//! that dies silently turns the service back into an unsafe allocator. This
//! crate provides the instrumentation half of that hardening story — a
//! catalogue of named [`FaultPoint`]s, deterministic [`FaultPlan`]s that
//! schedule when each point fires, and a cheap [`FaultInjector`] handle the
//! hot paths query.
//!
//! # Design
//!
//! - **Disabled is (nearly) free.** [`FaultInjector`] follows the same
//!   disabled-handle pattern as `telemetry::Counter`: an
//!   `Option<Arc<State>>` that is `None` when no plan is armed, so
//!   [`FaultInjector::should_fire`] is a single branch on the hot path.
//!   `cargo xtask lab`'s `fault_disabled` verdict holds the cost under
//!   1% of a service op.
//! - **Deterministic.** A plan is a set of `(start, every, limit)` rules
//!   keyed by fault point; firing depends only on how many times the point
//!   has been *reached* (per-point atomic hit counters), never on wall
//!   clock or thread scheduling of unrelated points. The same plan against
//!   the same op sequence injects the same faults.
//! - **Reproducible from one string.** Plans round-trip through
//!   [`FaultPlan::parse`] / `Display`, and `seed=N` expands to a derived
//!   rule set, so a plan printed in a failure message is re-armed from
//!   that one string: `FaultInjector::new(FaultPlan::parse(s)?)`.
//!   The library reads no environment variable; a runtime is armed
//!   only through the injector its constructor is given.
//!
//! # Plan syntax
//!
//! A plan string is a comma-separated list of clauses:
//!
//! - `seed=N` — derive a pseudo-random rule set from seed `N`
//!   ([`FaultPlan::from_seed`]).
//! - `<point>@<start>` — fire once, at the `start`-th hit (1-based).
//! - `<point>@<start>x<limit>` — fire at hit `start` and every hit after,
//!   at most `limit` times.
//! - `<point>@<start>/<every>x<limit>` — fire at hit `start` and then every
//!   `every`-th hit, at most `limit` times (`x<limit>` optional =
//!   unlimited).
//!
//! Point names are the [`FaultPoint::name`] strings: `worker_panic`,
//! `tag_read_error`, `barrier_delay`, `alloc_failure`, `revoker_death`,
//! `tenant_stall`, `scheduler_skip`, the process-kill points
//! `crash_after_seal`, `crash_after_paint`, `crash_mid_sweep`,
//! `crash_before_drain`, `crash_before_commit`, and `journal_append`
//! (journal write failure → degraded mode).
//!
//! ```
//! use faultinject::{FaultInjector, FaultPlan, FaultPoint};
//!
//! let plan: FaultPlan = "worker_panic@2/3x2,alloc_failure@1".parse().unwrap();
//! let inj = FaultInjector::new(plan);
//! let fires: Vec<bool> = (1..=9)
//!     .map(|_| inj.should_fire(FaultPoint::SweepWorkerPanic))
//!     .collect();
//! // Fires at hits 2 and 5 (start=2, every=3, limit=2).
//! assert_eq!(
//!     fires,
//!     [false, true, false, false, true, false, false, false, false]
//! );
//! assert!(inj.should_fire(FaultPoint::AllocFailure));
//! assert_eq!(inj.fired(FaultPoint::SweepWorkerPanic), 2);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The catalogue of named fault points threaded through the revocation
/// machinery. Each variant names one *place and failure mode*; a
/// [`FaultPlan`] decides *when* each fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultPoint {
    /// A sweep worker panics mid-chunk (before touching the chunk), as a
    /// buggy kernel would. Recovery: `catch_unwind` + retry on the
    /// sequential reference kernel.
    SweepWorkerPanic,
    /// A simulated tag-memory read error while sweeping a chunk with the
    /// fast kernel. Recovery: same poisoned-chunk retry path.
    TagReadError,
    /// The cross-shard epoch barrier publication is delayed, widening the
    /// window in which in-flight capabilities must be filtered.
    EpochBarrierDelay,
    /// An allocation request fails spuriously, as under genuine memory
    /// pressure. Recovery: emergency synchronous sweep, then a typed
    /// out-of-memory error — never a panic.
    AllocFailure,
    /// The background revoker thread dies between passes. Recovery: the
    /// supervisor restarts it with exponential backoff; mutators revoke
    /// inline while it is down.
    RevokerDeath,
    /// A fleet tenant's epoch slice stalls mid-sweep (the tenant holds
    /// its heap lock longer than its pause bound), as a descheduled or
    /// page-faulting tenant would. Recovery: the fleet scheduler's
    /// work-stealing pool keeps other tenants' epochs advancing and the
    /// stalled epoch completes on a later slice.
    TenantStall,
    /// The fleet scheduler drops the tenant it just selected instead of
    /// sweeping it, as a buggy arbiter would. Recovery: the skipped
    /// tenant's debt stays on the run queue, so the next scheduling pass
    /// re-selects it and every due tenant is still swept.
    SchedulerSkip,
    /// The process dies right after the quarantine is sealed but
    /// before the `Sealed` journal record lands. Recovery: the journal
    /// tail is clean, so the image's sealed chunks are re-opened (safe —
    /// the memory stays quarantined).
    CrashAfterSeal,
    /// The process dies after the shadow map painted but before any
    /// sweeping. Recovery: roll forward — re-paint and re-sweep.
    CrashAfterPaint,
    /// The process dies mid-sweep, between sweep slices. Recovery: roll
    /// forward with a full re-sweep (sweeps are idempotent).
    CrashMidSweep,
    /// The process dies after the register-file sweep but before the
    /// sealed quarantine drains. Recovery: roll forward; the drain
    /// re-runs over the image's sealed chunks.
    CrashBeforeDrain,
    /// The process dies after the drain but before the `EpochCommitted`
    /// record. Recovery: roll forward — the image holds no sealed chunk,
    /// so nothing is re-painted; that is safe because the completed
    /// sweep revoked every capability into the drained ranges and no
    /// allocation happens in that window.
    CrashBeforeCommit,
    /// A journal append fails (disk full, I/O error). Recovery: degraded
    /// mode — warn once, drop the journal, and force synchronous epoch
    /// completion so no crash window spans an open epoch.
    JournalAppend,
}

/// All fault points, for iteration (plan derivation, catalogues, docs).
///
/// New points append at the end: [`FaultPlan::from_seed`] draws its RNG
/// stream in this order, so appending keeps every existing seed's rules
/// for the earlier points bit-identical.
pub const ALL_POINTS: [FaultPoint; 13] = [
    FaultPoint::SweepWorkerPanic,
    FaultPoint::TagReadError,
    FaultPoint::EpochBarrierDelay,
    FaultPoint::AllocFailure,
    FaultPoint::RevokerDeath,
    FaultPoint::TenantStall,
    FaultPoint::SchedulerSkip,
    FaultPoint::CrashAfterSeal,
    FaultPoint::CrashAfterPaint,
    FaultPoint::CrashMidSweep,
    FaultPoint::CrashBeforeDrain,
    FaultPoint::CrashBeforeCommit,
    FaultPoint::JournalAppend,
];

/// The process-kill fault points, in epoch-lifecycle order. The crash
/// chaos harness iterates these; each names one window of the epoch
/// state machine in which the process dies.
pub const CRASH_POINTS: [FaultPoint; 5] = [
    FaultPoint::CrashAfterSeal,
    FaultPoint::CrashAfterPaint,
    FaultPoint::CrashMidSweep,
    FaultPoint::CrashBeforeDrain,
    FaultPoint::CrashBeforeCommit,
];

impl FaultPoint {
    /// Stable snake_case name, used in plan strings and telemetry events.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::SweepWorkerPanic => "worker_panic",
            FaultPoint::TagReadError => "tag_read_error",
            FaultPoint::EpochBarrierDelay => "barrier_delay",
            FaultPoint::AllocFailure => "alloc_failure",
            FaultPoint::RevokerDeath => "revoker_death",
            FaultPoint::TenantStall => "tenant_stall",
            FaultPoint::SchedulerSkip => "scheduler_skip",
            FaultPoint::CrashAfterSeal => "crash_after_seal",
            FaultPoint::CrashAfterPaint => "crash_after_paint",
            FaultPoint::CrashMidSweep => "crash_mid_sweep",
            FaultPoint::CrashBeforeDrain => "crash_before_drain",
            FaultPoint::CrashBeforeCommit => "crash_before_commit",
            FaultPoint::JournalAppend => "journal_append",
        }
    }

    /// Inverse of [`FaultPoint::name`].
    pub fn from_name(name: &str) -> Option<FaultPoint> {
        ALL_POINTS.iter().copied().find(|p| p.name() == name)
    }

    fn index(self) -> usize {
        match self {
            FaultPoint::SweepWorkerPanic => 0,
            FaultPoint::TagReadError => 1,
            FaultPoint::EpochBarrierDelay => 2,
            FaultPoint::AllocFailure => 3,
            FaultPoint::RevokerDeath => 4,
            FaultPoint::TenantStall => 5,
            FaultPoint::SchedulerSkip => 6,
            FaultPoint::CrashAfterSeal => 7,
            FaultPoint::CrashAfterPaint => 8,
            FaultPoint::CrashMidSweep => 9,
            FaultPoint::CrashBeforeDrain => 10,
            FaultPoint::CrashBeforeCommit => 11,
            FaultPoint::JournalAppend => 12,
        }
    }
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// When one fault point fires, as a function of its 1-based hit count:
/// at hit `start`, then every `every`-th hit after, at most `limit` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// The point this rule arms.
    pub point: FaultPoint,
    /// First hit (1-based) at which the fault fires.
    pub start: u64,
    /// Period between firings after `start` (0 is normalised to 1).
    pub every: u64,
    /// Maximum number of firings (`u64::MAX` = unlimited).
    pub limit: u64,
}

impl FaultRule {
    /// A rule that fires exactly once, at hit `start`.
    pub fn once(point: FaultPoint, start: u64) -> FaultRule {
        FaultRule {
            point,
            start: start.max(1),
            every: 1,
            limit: 1,
        }
    }

    fn fires_at(&self, hit: u64, fired_so_far: u64) -> bool {
        if fired_so_far >= self.limit || hit < self.start {
            return false;
        }
        (hit - self.start).is_multiple_of(self.every.max(1))
    }
}

impl fmt::Display for FaultRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.point, self.start)?;
        if self.every != 1 {
            write!(f, "/{}", self.every)?;
        }
        if self.limit != u64::MAX {
            write!(f, "x{}", self.limit)?;
        }
        Ok(())
    }
}

/// A parse failure from [`FaultPlan::parse`], carrying the offending
/// clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError {
    clause: String,
    reason: &'static str,
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad fault-plan clause {:?}: {}",
            self.clause, self.reason
        )
    }
}

impl std::error::Error for PlanParseError {}

/// A deterministic schedule of fault injections: a seed (when derived) and
/// a rule per armed fault point. The `Display` form round-trips through
/// [`FaultPlan::parse`], so a plan is reproducible from one string.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    seed: Option<u64>,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan: no point ever fires (but hit counters still run).
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan built from explicit rules.
    pub fn from_rules(rules: Vec<FaultRule>) -> FaultPlan {
        FaultPlan { seed: None, rules }
    }

    /// Derives a pseudo-random plan from `seed` with a SplitMix64 stream:
    /// each fault point is independently armed (~2/3 of seeds) with a
    /// small `start`, period, and firing budget. The same seed always
    /// yields the same plan.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut s = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut next = move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut rules = Vec::new();
        for point in ALL_POINTS {
            if next() % 3 == 0 {
                continue; // leave this point unarmed
            }
            // Mutator-rate points are hit orders of magnitude more often
            // than per-pass points, so give them sparser schedules.
            let (start_span, every_span) = match point {
                FaultPoint::AllocFailure => (400, 256),
                FaultPoint::SweepWorkerPanic | FaultPoint::TagReadError => (24, 16),
                FaultPoint::EpochBarrierDelay | FaultPoint::RevokerDeath => (8, 6),
                // Fleet scheduler points fire per scheduling decision /
                // epoch slice — pass-rate, like the barrier and revoker.
                FaultPoint::TenantStall | FaultPoint::SchedulerSkip => (8, 6),
                // Crash points are hit once per epoch phase — a handful
                // of hits per run, so keep starts tight.
                FaultPoint::CrashAfterSeal
                | FaultPoint::CrashAfterPaint
                | FaultPoint::CrashMidSweep
                | FaultPoint::CrashBeforeDrain
                | FaultPoint::CrashBeforeCommit => (4, 3),
                // Journal appends happen several times per epoch.
                FaultPoint::JournalAppend => (12, 8),
            };
            rules.push(FaultRule {
                point,
                start: 1 + next() % start_span,
                every: 1 + next() % every_span,
                limit: 1 + next() % 4,
            });
        }
        FaultPlan {
            seed: Some(seed),
            rules,
        }
    }

    /// Parses the plan syntax described in the crate docs. `seed=N`
    /// clauses expand via [`FaultPlan::from_seed`]; explicit rule clauses
    /// are appended after (and may re-arm a derived point — explicit rules
    /// win because later rules for the same point shadow earlier ones).
    ///
    /// Every malformed clause is a typed [`PlanParseError`]: an unknown
    /// point name, a non-numeric field, `start=0`, `every=0` or `limit=0`.
    pub fn parse(text: &str) -> Result<FaultPlan, PlanParseError> {
        let mut plan = FaultPlan::empty();
        for clause in text.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let err = |reason| PlanParseError {
                clause: clause.to_string(),
                reason,
            };
            if let Some(seed) = clause.strip_prefix("seed=") {
                let seed: u64 = seed.parse().map_err(|_| err("seed is not a u64"))?;
                let derived = FaultPlan::from_seed(seed);
                plan.seed = Some(seed);
                plan.rules.extend(derived.rules);
                continue;
            }
            let (name, sched) = clause.split_once('@').ok_or(err("expected point@start"))?;
            let point = FaultPoint::from_name(name).ok_or(err("unknown fault point"))?;
            let (sched, limit) = match sched.split_once('x') {
                Some((s, l)) => (s, l.parse().map_err(|_| err("limit is not a u64"))?),
                None => (sched, u64::MAX),
            };
            let (start, every) = match sched.split_once('/') {
                Some((s, e)) => (
                    s.parse().map_err(|_| err("start is not a u64"))?,
                    e.parse().map_err(|_| err("every is not a u64"))?,
                ),
                None => (sched.parse().map_err(|_| err("start is not a u64"))?, 1),
            };
            if start == 0 {
                return Err(err("start must be >= 1 (hits are 1-based)"));
            }
            if every == 0 {
                return Err(err("every must be >= 1"));
            }
            if limit == 0 {
                return Err(err("limit must be >= 1"));
            }
            // Explicit clauses shadow any derived rule for the same point.
            plan.rules.retain(|r| r.point != point);
            plan.rules.push(FaultRule {
                point,
                start,
                every,
                limit,
            });
        }
        Ok(plan)
    }

    /// The seed this plan was derived from, if any.
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// The armed rules (later rules for a point shadow earlier ones).
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Whether any point is armed.
    pub fn is_armed(&self) -> bool {
        !self.rules.is_empty()
    }
}

impl fmt::Display for FaultPlan {
    /// Renders the *effective* rules (not `seed=N`): the output reproduces
    /// the plan exactly even if rule derivation changes across versions.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for rule in &self.rules {
            if !first {
                f.write_str(",")?;
            }
            write!(f, "{rule}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromStr for FaultPlan {
    type Err = PlanParseError;

    fn from_str(s: &str) -> Result<FaultPlan, PlanParseError> {
        FaultPlan::parse(s)
    }
}

/// Panic payload used by injected sweep faults, so recovery code and tests
/// can tell an injected panic from a genuine kernel bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Payload of a [`FaultPoint::SweepWorkerPanic`] injection.
    WorkerPanic,
    /// Payload of a [`FaultPoint::TagReadError`] injection.
    TagReadError,
    /// Payload of a soft (in-process) crash injection: the heap has
    /// persisted its image and unwinds instead of calling `abort()`, so
    /// the crash probe in the bench lab can recover in the same process.
    /// Carries the crash point that fired.
    CrashRequested(FaultPoint),
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectedFault::WorkerPanic => f.write_str("injected sweep-worker panic"),
            InjectedFault::TagReadError => f.write_str("injected tag-memory read error"),
            InjectedFault::CrashRequested(p) => {
                write!(f, "injected process crash at {p}")
            }
        }
    }
}

/// Installs (once per process) a panic hook that suppresses the default
/// report for panics whose payload is an [`InjectedFault`], delegating
/// everything else to the previously installed hook. Injected faults are
/// *expected* panics — recovery code catches them — so chaos tests call
/// this to keep their output readable.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedFault>().is_none() {
                prev(info);
            }
        }));
    });
}

#[derive(Debug, Default)]
struct PointState {
    rule: Option<FaultRule>,
    hits: AtomicU64,
    fired: AtomicU64,
}

#[derive(Debug)]
struct State {
    plan: FaultPlan,
    points: [PointState; ALL_POINTS.len()],
}

/// The handle hot paths query. Cloning shares the underlying counters, so
/// every copy of one injector sees the same deterministic schedule. A
/// [`FaultInjector::disabled`] handle (also `Default`) is `None` inside —
/// [`FaultInjector::should_fire`] is then a single branch.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector(Option<Arc<State>>);

impl FaultInjector {
    /// The no-op injector: nothing fires, nothing is counted.
    pub fn disabled() -> FaultInjector {
        FaultInjector(None)
    }

    /// An injector armed with `plan`. An empty plan still counts hits
    /// (useful for probing how often points are reached).
    pub fn new(plan: FaultPlan) -> FaultInjector {
        let mut points: [PointState; ALL_POINTS.len()] = Default::default();
        for rule in &plan.rules {
            points[rule.point.index()].rule = Some(*rule);
        }
        FaultInjector(Some(Arc::new(State { plan, points })))
    }

    /// Whether a plan is armed (even an empty one).
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The armed plan, if any.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.0.as_deref().map(|s| &s.plan)
    }

    /// Records one hit on `point` and reports whether the armed plan says
    /// the fault fires here. Disabled: one branch, no counting. The caller
    /// is responsible for actually *injecting* the failure (panicking,
    /// returning an error, sleeping) — this only decides.
    #[inline]
    pub fn should_fire(&self, point: FaultPoint) -> bool {
        let Some(state) = &self.0 else {
            return false;
        };
        self.should_fire_slow(state, point)
    }

    #[inline(never)]
    fn should_fire_slow(&self, state: &State, point: FaultPoint) -> bool {
        let ps = &state.points[point.index()];
        let hit = ps.hits.fetch_add(1, Ordering::Relaxed) + 1;
        let Some(rule) = &ps.rule else {
            return false;
        };
        if rule.limit != u64::MAX && ps.fired.load(Ordering::Relaxed) >= rule.limit {
            return false;
        }
        // `fetch_add` below hands out firing slots; a racing hit past the
        // limit gives its slot back so `fired()` never overcounts.
        if rule.fires_at(hit, ps.fired.load(Ordering::Relaxed)) {
            let slot = ps.fired.fetch_add(1, Ordering::Relaxed);
            if slot < rule.limit {
                return true;
            }
            ps.fired.fetch_sub(1, Ordering::Relaxed);
        }
        false
    }

    /// How many times `point` has been reached (fired or not).
    pub fn hits(&self, point: FaultPoint) -> u64 {
        self.0
            .as_deref()
            .map_or(0, |s| s.points[point.index()].hits.load(Ordering::Relaxed))
    }

    /// How many times `point` has actually fired.
    pub fn fired(&self, point: FaultPoint) -> u64 {
        self.0
            .as_deref()
            .map_or(0, |s| s.points[point.index()].fired.load(Ordering::Relaxed))
    }

    /// Total faults fired across all points.
    pub fn total_fired(&self) -> u64 {
        ALL_POINTS.iter().map(|&p| self.fired(p)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires_and_never_counts() {
        let inj = FaultInjector::disabled();
        assert!(!inj.is_enabled());
        for point in ALL_POINTS {
            for _ in 0..10 {
                assert!(!inj.should_fire(point));
            }
            assert_eq!(inj.hits(point), 0);
            assert_eq!(inj.fired(point), 0);
        }
    }

    #[test]
    fn rule_schedule_start_every_limit() {
        let plan = FaultPlan::from_rules(vec![FaultRule {
            point: FaultPoint::AllocFailure,
            start: 3,
            every: 2,
            limit: 3,
        }]);
        let inj = FaultInjector::new(plan);
        let fires: Vec<u64> = (1..=12)
            .filter(|_| inj.should_fire(FaultPoint::AllocFailure))
            .collect();
        // Hits 3, 5, 7 fire; limit 3 stops the rest.
        assert_eq!(inj.fired(FaultPoint::AllocFailure), 3);
        assert_eq!(inj.hits(FaultPoint::AllocFailure), 12);
        assert_eq!(fires.len(), 3);
    }

    #[test]
    fn once_rule_fires_exactly_once() {
        let inj = FaultInjector::new(FaultPlan::from_rules(vec![FaultRule::once(
            FaultPoint::RevokerDeath,
            2,
        )]));
        let fired: Vec<bool> = (0..6)
            .map(|_| inj.should_fire(FaultPoint::RevokerDeath))
            .collect();
        assert_eq!(fired, [false, true, false, false, false, false]);
    }

    #[test]
    fn clones_share_counters() {
        let inj = FaultInjector::new(FaultPlan::from_rules(vec![FaultRule::once(
            FaultPoint::SweepWorkerPanic,
            2,
        )]));
        let other = inj.clone();
        assert!(!inj.should_fire(FaultPoint::SweepWorkerPanic));
        assert!(other.should_fire(FaultPoint::SweepWorkerPanic));
        assert_eq!(inj.fired(FaultPoint::SweepWorkerPanic), 1);
        assert_eq!(inj.total_fired(), 1);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_vary_by_seed() {
        let a = FaultPlan::from_seed(42);
        let b = FaultPlan::from_seed(42);
        assert_eq!(a, b);
        // Across a spread of seeds, at least two distinct plans and at
        // least one rule must appear (the derivation is not degenerate).
        let plans: Vec<FaultPlan> = (0..16).map(FaultPlan::from_seed).collect();
        assert!(plans.iter().any(|p| p.is_armed()));
        assert!(plans.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn plan_display_round_trips() {
        for seed in 0..32 {
            let plan = FaultPlan::from_seed(seed);
            let text = plan.to_string();
            let reparsed = FaultPlan::parse(&text).unwrap();
            assert_eq!(plan.rules(), reparsed.rules(), "seed {seed}: {text}");
        }
        let plan = FaultPlan::parse("worker_panic@2/3x2, alloc_failure@1").unwrap();
        assert_eq!(plan.to_string(), "worker_panic@2/3x2,alloc_failure@1");
        let reparsed: FaultPlan = plan.to_string().parse().unwrap();
        assert_eq!(plan.rules(), reparsed.rules());
    }

    #[test]
    fn parse_rejects_bad_clauses() {
        assert!(FaultPlan::parse("nonsense").is_err());
        assert!(FaultPlan::parse("worker_panic@0").is_err());
        assert!(FaultPlan::parse("worker_panic@x").is_err());
        assert!(FaultPlan::parse("unknown_point@1").is_err());
        assert!(FaultPlan::parse("seed=notanumber").is_err());
        assert!(FaultPlan::parse("worker_panic@2/0x3").is_err());
        assert!(FaultPlan::parse("alloc_failure@1x0").is_err());
        // Empty and whitespace are fine (no rules armed).
        assert!(!FaultPlan::parse("").unwrap().is_armed());
        assert!(!FaultPlan::parse(" , ").unwrap().is_armed());
    }

    #[test]
    fn explicit_clause_shadows_seeded_rule() {
        // Find a seed that arms worker_panic, then override it.
        let seed = (0..64)
            .find(|&s| {
                FaultPlan::from_seed(s)
                    .rules()
                    .iter()
                    .any(|r| r.point == FaultPoint::SweepWorkerPanic)
            })
            .expect("some seed arms worker_panic");
        let plan = FaultPlan::parse(&format!("seed={seed},worker_panic@7x1")).unwrap();
        let rules: Vec<_> = plan
            .rules()
            .iter()
            .filter(|r| r.point == FaultPoint::SweepWorkerPanic)
            .collect();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].start, 7);
        assert_eq!(plan.seed(), Some(seed));
    }

    #[test]
    fn point_names_round_trip() {
        for point in ALL_POINTS {
            assert_eq!(FaultPoint::from_name(point.name()), Some(point));
        }
        assert_eq!(FaultPoint::from_name("bogus"), None);
    }

    #[test]
    fn parse_error_names_the_offending_clause() {
        // Each malformed form produces a typed error whose Display
        // carries the clause, so the warning a user sees is actionable.
        for (text, needle) in [
            ("nonsense", "expected point@start"),
            ("worker_panic@0", "start must be >= 1"),
            // `@x` splits at the limit separator first, so the empty
            // limit field is what fails to parse.
            ("worker_panic@x", "limit is not a u64"),
            ("worker_panic@", "start is not a u64"),
            ("unknown_point@1", "unknown fault point"),
            ("worker_panic@1x?", "limit is not a u64"),
            ("worker_panic@1/?", "every is not a u64"),
            ("seed=notanumber", "seed is not a u64"),
        ] {
            let err = FaultPlan::parse(text).expect_err(text);
            let msg = err.to_string();
            assert!(msg.contains(needle), "{text}: {msg}");
        }
    }

    #[test]
    fn crash_points_are_appended_after_existing_points() {
        // from_seed draws its RNG stream in ALL_POINTS order, so the
        // crash points must come last to keep old seeds' rules for the
        // original seven points bit-identical.
        for (i, point) in CRASH_POINTS.iter().enumerate() {
            assert_eq!(ALL_POINTS[7 + i], *point);
        }
        assert_eq!(ALL_POINTS[12], FaultPoint::JournalAppend);
        for point in ALL_POINTS {
            assert_eq!(ALL_POINTS[point.index()], point);
        }
    }
}
