//! Sweep-engine telemetry: per-sweep metrics/events and a [`SweepCost`]
//! implementation that feeds the engine's cost hooks into histograms.

use std::time::Duration;

use telemetry::{Counter, EventKind, LogHistogram, Registry};

use crate::engine::SweepCost;
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
            sweep_ns: registry.histogram("cvk_sweep_duration_ns"),
            sweep_bytes: registry.histogram("cvk_sweep_bytes"),
            registry: registry.clone(),
        }
    }

    /// Whether any backing registry records.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_enabled()
    }

    /// Records one completed sweep. `kernel` is the executing kernel's
    /// stable name (see [`crate::Kernel::name`]).
    pub fn observe(
        &self,
        stats: &SweepStats,
        elapsed: Duration,
        workers: usize,
        kernel: &'static str,
    ) {
        if !self.is_enabled() {
            return;
        }
        let duration_ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        self.sweeps.inc();
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

/// A [`SweepCost`] implementation that counts the engine's memory-access
/// hooks into registry metrics — the §6.3 access mix (chunk reads,
/// `CLoadTags` queries, shadow lookups, revocation stores, mispredicts)
/// observable on a live run. Chunk sizes feed a histogram, exposing the
/// filter-induced chunking distribution.
#[derive(Debug, Clone, Default)]
pub struct TelemetryCost {
    chunk_reads: Counter,
    chunk_bytes: Counter,
    cloadtags: Counter,
    shadow_lookups: Counter,
    revoke_stores: Counter,
    branch_mispredicts: Counter,
    chunk_size: LogHistogram,
}

impl TelemetryCost {
    /// A cost observer reporting into `registry` under the
    /// `cvk_sweep_access_*` metric names.
    pub fn register(registry: &Registry) -> TelemetryCost {
        TelemetryCost {
            chunk_reads: registry.counter("cvk_sweep_access_chunk_reads_total"),
            chunk_bytes: registry.counter("cvk_sweep_access_chunk_bytes_total"),
            cloadtags: registry.counter("cvk_sweep_access_cloadtags_total"),
            shadow_lookups: registry.counter("cvk_sweep_access_shadow_lookups_total"),
            revoke_stores: registry.counter("cvk_sweep_access_revoke_stores_total"),
            branch_mispredicts: registry.counter("cvk_sweep_access_branch_mispredicts_total"),
            chunk_size: registry.histogram("cvk_sweep_access_chunk_bytes"),
        }
    }
}

impl SweepCost for TelemetryCost {
    fn chunk_read(&mut self, _addr: u64, len: u64) {
        self.chunk_reads.inc();
        self.chunk_bytes.add(len);
        self.chunk_size.record(len);
    }

    fn cloadtags(&mut self, _addr: u64) {
        self.cloadtags.inc();
    }

    fn shadow_lookup(&mut self, _cap_base: u64) {
        self.shadow_lookups.inc();
    }

    fn revoke_store(&mut self, _addr: u64) {
        self.revoke_stores.inc();
    }

    fn branch_mispredict(&mut self) {
        self.branch_mispredicts.inc();
    }
}

/// Cost models compose as tuples: every hook fans out to both halves, so
/// a timed sweep can charge its machine model *and* stream the same
/// access mix into telemetry in one walk.
impl<A: SweepCost, B: SweepCost> SweepCost for (A, B) {
    const IS_FREE: bool = A::IS_FREE && B::IS_FREE;

    fn chunk_read(&mut self, addr: u64, len: u64) {
        self.0.chunk_read(addr, len);
        self.1.chunk_read(addr, len);
    }

    fn cloadtags(&mut self, addr: u64) {
        self.0.cloadtags(addr);
        self.1.cloadtags(addr);
    }

    fn shadow_lookup(&mut self, cap_base: u64) {
        self.0.shadow_lookup(cap_base);
        self.1.shadow_lookup(cap_base);
    }

    fn revoke_store(&mut self, addr: u64) {
        self.0.revoke_store(addr);
        self.1.revoke_store(addr);
    }

    fn branch_mispredict(&mut self) {
        self.0.branch_mispredict();
        self.1.branch_mispredict();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CLoadTagsLines, SegmentSource, SweepEngine};
    use crate::{Kernel, ShadowMap};
    use cheri::Capability;
    use tagmem::TaggedMemory;

    const BASE: u64 = 0x2000_0000;

    #[test]
    fn telemetry_cost_counts_the_access_mix() {
        let mut mem = TaggedMemory::new(BASE, 1 << 14);
        mem.write_cap(BASE + 0x100, &Capability::root_rw(BASE + 0x40, 64))
            .unwrap();
        let mut shadow = ShadowMap::new(BASE, 1 << 14);
        shadow.paint(BASE + 0x40, 64);

        let registry = Registry::new(8);
        let mut cost = TelemetryCost::register(&registry);
        let stats = SweepEngine::new(Kernel::Wide).sweep_costed(
            SegmentSource::new(&mut mem),
            CLoadTagsLines::new(),
            &shadow,
            &mut cost,
        );
        assert_eq!(stats.caps_revoked, 1);

        let snap = registry.snapshot();
        assert!(snap.counters["cvk_sweep_access_cloadtags_total"] > 0);
        assert_eq!(snap.counters["cvk_sweep_access_shadow_lookups_total"], 1);
        assert_eq!(snap.counters["cvk_sweep_access_revoke_stores_total"], 1);
        assert!(snap.histograms["cvk_sweep_access_chunk_bytes"].count() > 0);
    }

    #[test]
    fn tuple_cost_fans_out_to_both_halves() {
        let registry = Registry::new(8);
        let mut cost = (
            TelemetryCost::register(&registry),
            TelemetryCost::register(&registry),
        );
        cost.chunk_read(BASE, 128);
        cost.branch_mispredict();
        let snap = registry.snapshot();
        // Both halves share the registry cells, so each hook counts twice.
        assert_eq!(snap.counters["cvk_sweep_access_chunk_reads_total"], 2);
        assert_eq!(
            snap.counters["cvk_sweep_access_branch_mispredicts_total"],
            2
        );
    }

    #[test]
    fn disabled_telemetry_observes_nothing() {
        let t = SweepTelemetry::default();
        assert!(!t.is_enabled());
        t.observe(&SweepStats::default(), Duration::from_micros(5), 2, "wide");
        // And a registered one records.
        let registry = Registry::new(8);
        let t = SweepTelemetry::register(&registry);
        let stats = SweepStats {
            bytes_swept: 4096,
            caps_inspected: 10,
            caps_revoked: 2,
            ..Default::default()
        };
        t.observe(&stats, Duration::from_micros(5), 2, Kernel::Fast.name());
        let snap = registry.snapshot();
        assert_eq!(snap.counters["cvk_sweeps_total"], 1);
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

    #[test]
    fn cost_freeness_composes() {
        use crate::engine::NoCost;
        const {
            assert!(<NoCost as SweepCost>::IS_FREE);
            assert!(<(NoCost, NoCost) as SweepCost>::IS_FREE);
            assert!(!<TelemetryCost as SweepCost>::IS_FREE);
            assert!(!<(NoCost, TelemetryCost) as SweepCost>::IS_FREE);
        }
    }
}
