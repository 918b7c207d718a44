//! Sweep-engine telemetry: per-sweep metrics and events.

use std::time::Duration;

use telemetry::{Counter, EventKind, LogHistogram, Registry};

use crate::SweepStats;

/// Metric handles a sweep engine reports into. Default-constructed (or
/// registered against a disabled [`Registry`]) telemetry is a no-op, so
/// the engine carries it unconditionally.
#[derive(Debug, Clone, Default)]
pub struct SweepTelemetry {
    sweeps: Counter,
    bytes: Counter,
    caps_inspected: Counter,
    caps_revoked: Counter,
    retries: Counter,
    plan_ns: Counter,
    execute_ns: Counter,
    sweep_ns: LogHistogram,
    sweep_bytes: LogHistogram,
    registry: Registry,
}

impl SweepTelemetry {
    /// Telemetry reporting into `registry` under the `cvk_sweep_*`
    /// metric names, with one [`EventKind::Sweep`] event per sweep.
    pub fn register(registry: &Registry) -> SweepTelemetry {
        SweepTelemetry {
            sweeps: registry.counter("cvk_sweeps_total"),
            bytes: registry.counter("cvk_sweep_bytes_total"),
            caps_inspected: registry.counter("cvk_sweep_caps_inspected_total"),
            caps_revoked: registry.counter("cvk_sweep_caps_revoked_total"),
            retries: registry.counter("cvk_sweep_retries_total"),
            plan_ns: registry.counter("cvk_sweep_plan_ns_total"),
            execute_ns: registry.counter("cvk_sweep_execute_ns_total"),
            sweep_ns: registry.histogram("cvk_sweep_duration_ns"),
            sweep_bytes: registry.histogram("cvk_sweep_bytes"),
            registry: registry.clone(),
        }
    }

    /// Whether any backing registry records.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_enabled()
    }

    /// Records one completed sweep that took `elapsed`, `phases` of it
    /// split between the plan and execute steps. `kernel` is the
    /// executing kernel's stable name (see [`crate::Kernel::name`]).
    pub fn observe(
        &self,
        stats: &SweepStats,
        elapsed: Duration,
        phases: SweepPhases,
        workers: usize,
        kernel: &'static str,
    ) {
        if !self.is_enabled() {
            return;
        }
        let duration_ns = nanos(elapsed);
        self.sweeps.inc();
        self.plan_ns.add(nanos(phases.plan));
        self.execute_ns.add(nanos(phases.execute));
        self.bytes.add(stats.bytes_swept);
        self.caps_inspected.add(stats.caps_inspected);
        self.caps_revoked.add(stats.caps_revoked);
        self.sweep_ns.record(duration_ns);
        self.sweep_bytes.record(stats.bytes_swept);
        self.registry.event(EventKind::Sweep {
            bytes_swept: stats.bytes_swept,
            caps_inspected: stats.caps_inspected,
            caps_revoked: stats.caps_revoked,
            duration_ns,
            workers,
            kernel,
        });
    }

    /// Records a sweep that recovered from `chunks` panicking chunks by
    /// retrying them on the reference kernel. `kernel` is the kernel
    /// whose chunks panicked.
    pub fn observe_retries(&self, chunks: u64, kernel: &'static str) {
        if !self.is_enabled() {
            return;
        }
        self.retries.add(chunks);
        self.registry
            .event(EventKind::SweepRetried { chunks, kernel });
    }
}

/// Where one sweep's time went, for the `cvk_sweep_plan_ns_total` and
/// `cvk_sweep_execute_ns_total` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepPhases {
    /// The plan step: the filter walk, the fold of capability counts onto
    /// pages and the false-positive purge. A costed sweep executes during
    /// its walk, so only its purge counts here.
    pub plan: Duration,
    /// The execute step: the kernel over the planned chunks (the whole
    /// walk of a costed sweep).
    pub execute: Duration,
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kernel;

    #[test]
    fn disabled_telemetry_observes_nothing() {
        let phases = SweepPhases {
            plan: Duration::from_micros(1),
            execute: Duration::from_micros(3),
        };
        let t = SweepTelemetry::default();
        assert!(!t.is_enabled());
        t.observe(
            &SweepStats::default(),
            Duration::from_micros(5),
            phases,
            2,
            "simd",
        );
        // A disabled registry hands out handles that record nothing either.
        let off = Registry::disabled();
        let t = SweepTelemetry::register(&off);
        assert!(!t.is_enabled());
        t.observe(
            &SweepStats::default(),
            Duration::from_micros(5),
            phases,
            2,
            "simd",
        );
        let snap = off.snapshot();
        for name in [
            "cvk_sweeps_total",
            "cvk_sweep_plan_ns_total",
            "cvk_sweep_execute_ns_total",
        ] {
            assert_eq!(snap.counters.get(name).copied().unwrap_or(0), 0, "{name}");
        }
        // And a registered one records.
        let registry = Registry::new(8);
        let t = SweepTelemetry::register(&registry);
        let stats = SweepStats {
            bytes_swept: 4096,
            caps_inspected: 10,
            caps_revoked: 2,
            ..Default::default()
        };
        t.observe(
            &stats,
            Duration::from_micros(5),
            phases,
            2,
            Kernel::Fast.name(),
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counters["cvk_sweeps_total"], 1);
        assert_eq!(snap.counters["cvk_sweep_plan_ns_total"], 1_000);
        assert_eq!(snap.counters["cvk_sweep_execute_ns_total"], 3_000);
        assert_eq!(snap.counters["cvk_sweep_bytes_total"], 4096);
        let events = registry.recent_events(4);
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0].kind,
            EventKind::Sweep {
                caps_revoked: 2,
                workers: 2,
                kernel: "fast",
                ..
            }
        ));
    }
}
