//! Heap-wide statistics — and the concurrent service's per-shard counters,
//! sweep-bandwidth accounting and pause-time histogram.

use cvkalloc::AllocStats;
use revoker::SweepStats;
use telemetry::HistogramSnapshot;

/// Cumulative statistics of a [`crate::CherivokeHeap`]. Every revocation
/// cycle — stop-the-world, incremental or recovery's roll-forward — is one
/// epoch, folded in once when it retires.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Revocation epochs retired (each sweeps its visit set once).
    pub sweeps: u64,
    /// Total capabilities revoked across all sweeps.
    pub caps_revoked: u64,
    /// Total capabilities inspected across all sweeps, peer sweeps of
    /// this heap's roots included.
    pub caps_inspected: u64,
    /// Total bytes walked by sweeps.
    pub bytes_swept: u64,
    /// Pages left out of the CapDirty visit sets of this heap's epochs
    /// and of peer sweeps of its roots.
    pub pages_skipped: u64,
    /// Bytes painted into the shadow map (cumulative).
    pub bytes_painted: u64,
    /// Emergency sweeps triggered by out-of-memory (policy
    /// `sweep_on_oom`).
    pub oom_sweeps: u64,
    /// Dangling capabilities revoked in flight by the epoch load/store
    /// barrier rather than by the sweep itself.
    pub barrier_revocations: u64,
    /// Allocator counters at the last observation.
    pub alloc: AllocStats,
}

impl HeapStats {
    /// Folds one retired epoch's counters in.
    pub(crate) fn absorb_sweep(&mut self, s: &SweepStats, painted: u64) {
        self.sweeps += 1;
        self.caps_revoked += s.caps_revoked;
        self.caps_inspected += s.caps_inspected;
        self.bytes_swept += s.bytes_swept;
        self.pages_skipped += s.pages_skipped;
        self.bytes_painted += painted;
    }
}

/// Counters for one shard of a [`crate::ConcurrentHeap`], plus derived
/// rates over the service's lifetime.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Allocations served by this shard.
    pub mallocs: u64,
    /// Frees routed to this shard.
    pub frees: u64,
    /// Total bytes freed into this shard's quarantine.
    pub freed_bytes: u64,
    /// Allocations per second since the service started.
    pub mallocs_per_sec: f64,
    /// Frees per second since the service started.
    pub frees_per_sec: f64,
    /// Bytes currently live in this shard.
    pub live_bytes: u64,
    /// Bytes currently quarantined in this shard.
    pub quarantined_bytes: u64,
    /// The shard heap's own cumulative statistics.
    pub heap: HeapStats,
}

/// Aggregated statistics of a running [`crate::ConcurrentHeap`].
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Per-shard counters, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Revocation epochs opened (by the background worker, by a
    /// synchronous drain, or by a mutator covering for a dead worker).
    pub epochs: u64,
    /// Peer sweeps performed (other shards swept against a painting
    /// shard's shadow map).
    pub foreign_sweeps: u64,
    /// Capabilities revoked by peer sweeps.
    pub foreign_caps_revoked: u64,
    /// Dangling capabilities filtered in flight by the domain barrier
    /// (on top of each shard's own epoch barrier).
    pub barrier_revocations: u64,
    /// Synchronous whole-service revocations forced by out-of-memory.
    pub oom_revocations: u64,
    /// Background workers respawned by the supervisor after a death or
    /// watchdog stall.
    pub revoker_restarts: u64,
    /// Emergency synchronous sweeps: allocation failures retried after a
    /// full revocation, plus drains of a shard whose next free would
    /// cross its quarantine bound.
    pub emergency_sweeps: u64,
    /// Bytes swept by retired epochs and peer sweeps.
    pub bytes_swept: u64,
    /// Wall-clock seconds spent sweeping with a shard lock held: epoch
    /// slices, peer sweeps and synchronous drains (the sum of `pauses`).
    pub sweep_secs: f64,
    /// The share of `sweep_secs` spent in peer sweeps (other shards swept
    /// against a painting shard's shadow map, both shard locks held); the
    /// rest is the shards' own epoch slices and drains.
    pub foreign_sweep_secs: f64,
    /// Revoker pause-time distribution (log2 buckets of nanoseconds;
    /// `percentile`/`max_value` give bucket ceilings, `sum` is exact).
    pub pauses: HistogramSnapshot,
    /// Seconds since the service started.
    pub elapsed_secs: f64,
}

impl ServiceStats {
    /// Aggregate allocations per second across all shards.
    pub fn mallocs_per_sec(&self) -> f64 {
        self.shards.iter().map(|s| s.mallocs_per_sec).sum()
    }

    /// The revoker's realised sweep bandwidth, bytes per second of sweep
    /// time (not wall time) — comparable to fig. 7's sweep-rate axis.
    pub fn sweep_bandwidth(&self) -> f64 {
        if self.sweep_secs == 0.0 {
            0.0
        } else {
            self.bytes_swept as f64 / self.sweep_secs
        }
    }

    /// Bytes quarantined across all shards.
    pub fn quarantined_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.quarantined_bytes).sum()
    }

    /// Bytes live across all shards.
    pub fn live_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.live_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut h = HeapStats::default();
        let s = SweepStats {
            caps_revoked: 3,
            caps_inspected: 10,
            bytes_swept: 100,
            ..Default::default()
        };
        h.absorb_sweep(&s, 64);
        h.absorb_sweep(&s, 32);
        assert_eq!(h.sweeps, 2);
        assert_eq!(h.caps_revoked, 6);
        assert_eq!(h.bytes_painted, 96);
    }

    #[test]
    fn pause_histogram_buckets_by_log2() {
        use std::time::Duration;
        let h = telemetry::LogHistogram::standalone();
        h.record_duration(Duration::from_nanos(1)); // bucket 0
        h.record_duration(Duration::from_nanos(3)); // bucket 1
        h.record_duration(Duration::from_nanos(1024)); // bucket 10
        let s = h.snapshot();
        assert_eq!(s.count(), 3);
        assert_eq!(s.counts[0], 1);
        assert_eq!(s.counts[1], 1);
        assert_eq!(s.counts[10], 1);
    }

    #[test]
    fn pause_percentiles_are_bucket_ceilings() {
        use std::time::Duration;
        let h = telemetry::LogHistogram::standalone();
        for _ in 0..99 {
            h.record_duration(Duration::from_nanos(100)); // bucket 6: [64, 128)
        }
        h.record_duration(Duration::from_micros(100)); // bucket 16
        let s = h.snapshot();
        assert_eq!(s.percentile(50.0), 128);
        assert_eq!(s.percentile(99.0), 128);
        assert_eq!(s.percentile(100.0), 1 << 17);
        assert_eq!(s.max_value(), 1 << 17);
    }

    #[test]
    fn empty_pause_histogram_is_zero() {
        let s = telemetry::LogHistogram::standalone().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.percentile(99.0), 0);
    }

    #[test]
    fn service_stats_aggregate_across_shards() {
        let stats = ServiceStats {
            shards: vec![
                ShardStats {
                    mallocs_per_sec: 10.0,
                    quarantined_bytes: 100,
                    live_bytes: 400,
                    ..Default::default()
                },
                ShardStats {
                    mallocs_per_sec: 30.0,
                    quarantined_bytes: 50,
                    live_bytes: 600,
                    ..Default::default()
                },
            ],
            bytes_swept: 1000,
            sweep_secs: 0.5,
            ..Default::default()
        };
        assert_eq!(stats.mallocs_per_sec(), 40.0);
        assert_eq!(stats.quarantined_bytes(), 150);
        assert_eq!(stats.live_bytes(), 1000);
        assert_eq!(stats.sweep_bandwidth(), 2000.0);
    }
}
