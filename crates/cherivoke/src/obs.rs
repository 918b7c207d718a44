//! Heap-level telemetry: epoch lifecycle counters and events.
//!
//! The layering (DESIGN.md §13): the [`telemetry::Registry`] owns the
//! metric cells; instrumented sites — [`crate::CherivokeHeap`], the
//! allocator ([`cvkalloc::AllocTelemetry`]), the sweep engine
//! ([`revoker::SweepTelemetry`]) and [`crate::ConcurrentHeap`] — hold
//! cheap handles; exporters render [`telemetry::Registry::snapshot`]s.

use telemetry::{Counter, EventKind, Registry};

use revoker::SweepTelemetry;

/// Metric handles a [`crate::CherivokeHeap`] reports into. Detached by
/// default; attach with [`crate::CherivokeHeap::set_telemetry`].
#[derive(Debug, Clone, Default)]
pub(crate) struct HeapTelemetry {
    epochs: Counter,
    oom_sweeps: Counter,
    barrier_revocations: Counter,
    recoveries: Counter,
    recovered_caps_revoked: Counter,
    audit_runs: Counter,
    audit_violations: Counter,
    journal_degraded: Counter,
    sweep: SweepTelemetry,
    registry: Registry,
    shard: usize,
}

impl HeapTelemetry {
    /// Telemetry reporting into `registry` under the `cvk_heap_*` metric
    /// names; `shard` labels this heap's lifecycle events (0 for a
    /// standalone heap).
    pub fn register(registry: &Registry, shard: usize) -> HeapTelemetry {
        HeapTelemetry {
            epochs: registry.counter("cvk_heap_epochs_total"),
            oom_sweeps: registry.counter("cvk_heap_oom_sweeps_total"),
            barrier_revocations: registry.counter("cvk_heap_barrier_revocations_total"),
            recoveries: registry.counter("cvk_heap_recoveries_total"),
            recovered_caps_revoked: registry.counter("cvk_heap_recovery_caps_revoked_total"),
            audit_runs: registry.counter("cvk_heap_audit_runs_total"),
            audit_violations: registry.counter("cvk_heap_audit_violations_total"),
            journal_degraded: registry.counter("cvk_heap_journal_degraded_total"),
            sweep: SweepTelemetry::register(registry),
            registry: registry.clone(),
            shard,
        }
    }

    /// Whether any backing registry records.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_enabled()
    }

    /// The sweep-engine telemetry sharing this registry (re-attached to
    /// the engine whenever the heap rebuilds it).
    pub(crate) fn sweep(&self) -> SweepTelemetry {
        self.sweep.clone()
    }

    pub(crate) fn on_quarantine_sealed(&self, bytes: u64, ranges: u64) {
        self.registry.event(EventKind::QuarantineSealed {
            shard: self.shard,
            bytes,
            ranges,
        });
    }

    pub(crate) fn on_epoch_opened(&self, painted_bytes: u64) {
        self.registry.event(EventKind::EpochOpened {
            shard: self.shard,
            painted_bytes,
        });
    }

    pub(crate) fn on_epoch_retired(&self, duration_ns: u64) {
        self.epochs.inc();
        self.registry.event(EventKind::EpochRetired {
            shard: self.shard,
            duration_ns,
        });
    }

    pub(crate) fn on_oom_sweep(&self) {
        self.oom_sweeps.inc();
        self.registry
            .event(EventKind::OomRevocation { shard: self.shard });
    }

    pub(crate) fn on_barrier_revocation(&self) {
        self.barrier_revocations.inc();
    }

    pub(crate) fn on_recovery(&self, report: &crate::recovery::RecoveryReport) {
        self.recoveries.inc();
        self.recovered_caps_revoked.add(report.caps_revoked);
        self.registry.event(EventKind::Recovery {
            shard: self.shard,
            action: match report.action {
                crate::recovery::RecoveryAction::None => "none",
                crate::recovery::RecoveryAction::ReopenSeal => "reopen-seal",
                crate::recovery::RecoveryAction::RollForward => "roll-forward",
            },
            caps_revoked: report.caps_revoked,
        });
    }

    pub(crate) fn on_audit(&self, report: &revoker::AuditReport) {
        self.audit_runs.inc();
        self.audit_violations
            .add(report.violations + report.reg_violations);
    }

    pub(crate) fn on_journal_degraded(&self) {
        self.journal_degraded.inc();
    }
}
