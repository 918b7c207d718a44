//! The service churn the lab's `quarantine_bound` and
//! `telemetry_snapshot` verdicts run.
//!
//! One [`churn`] call spins up a faults-off, unjournaled
//! [`ConcurrentHeap`] of [`SHARDS`] × [`SHARD_MIB`] MiB, drives `threads`
//! mutators through a malloc/store/load/free working set, samples every
//! shard's quarantine against its own bound the whole time, and returns a
//! [`ServiceRow`] with the peak.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cherivoke::fault::FaultInjector;
use cherivoke::{ConcurrentHeap, ServiceConfig};
use telemetry::MetricsSnapshot;

/// Service shards of every churn.
pub const SHARDS: usize = 4;

/// Heap MiB per shard of every churn.
pub const SHARD_MIB: u64 = 4;

/// One churn configuration. `Default` is the 4-thread shape the lab's
/// telemetry churn runs, on the paper-default policy.
#[derive(Debug)]
pub struct ChurnParams {
    /// Mutator threads.
    pub threads: usize,
    /// malloc(+store/load)+free pairs per mutator.
    pub ops_per_thread: u64,
    /// Enable the telemetry registry for this run.
    pub telemetry: bool,
}

impl Default for ChurnParams {
    fn default() -> ChurnParams {
        ChurnParams {
            threads: 4,
            ops_per_thread: 20_000,
            telemetry: false,
        }
    }
}

/// What one churn run observed.
#[derive(Debug)]
pub struct ServiceRow {
    /// Revocation epochs completed.
    pub epochs: u64,
    /// Peak, over samples and shards, of a shard's quarantined bytes
    /// divided by its bound ([`shard_load`]); at most 1.0 iff every shard
    /// stayed within its bound.
    pub peak_shard_load: f64,
}

/// The largest of `quarantined` (one entry per shard) divided by the
/// per-shard quarantine bound `config` gives a [`ConcurrentHeap`]: half
/// the policy fraction of the shard's bytes, as the service sizes it.
pub fn shard_load(quarantined: &[u64], config: &ServiceConfig) -> f64 {
    let bound = config.policy.quarantine.fraction * config.shard_heap_size as f64 / 2.0;
    quarantined
        .iter()
        .map(|&q| q as f64 / bound)
        .fold(0.0, f64::max)
}

/// Runs one churn; returns what it observed plus (with telemetry enabled)
/// the final metrics snapshot.
///
/// # Panics
///
/// Panics if the service cannot be constructed or a mutator operation
/// fails — churn failures are harness bugs, not measurements.
pub fn churn(params: &ChurnParams) -> (ServiceRow, Option<MetricsSnapshot>) {
    let config = ServiceConfig {
        shards: SHARDS,
        shard_heap_size: SHARD_MIB << 20,
        telemetry: params.telemetry,
        ..ServiceConfig::default()
    };
    let heap = ConcurrentHeap::with_journal_dir(config, FaultInjector::disabled(), None)
        .expect("construct service");

    // Peak shard load in parts per million, sampled while the mutators run.
    let peak_ppm = AtomicU64::new(0);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                let quarantined: Vec<u64> = heap
                    .stats()
                    .shards
                    .iter()
                    .map(|s| s.quarantined_bytes)
                    .collect();
                let ppm = (shard_load(&quarantined, &config) * 1e6) as u64;
                peak_ppm.fetch_max(ppm, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        let mutators: Vec<_> = (0..params.threads)
            .map(|t| {
                let client = heap.handle();
                let ops_per_thread = params.ops_per_thread;
                scope.spawn(move || {
                    let mut held = Vec::with_capacity(32);
                    for i in 0..ops_per_thread {
                        let size = 64 + ((i * 7 + t as u64) % 16) * 48;
                        let cap = client.malloc(size).expect("service malloc");
                        client.store_u64(&cap, 0, i).expect("store");
                        held.push(cap);
                        if held.len() >= 16 {
                            let victim = held.swap_remove((i % 16) as usize);
                            let v = client.load_u64(&victim, 0).expect("load");
                            assert!(v <= i);
                            client.free(victim).expect("service free");
                        }
                    }
                    for cap in held {
                        client.free(cap).expect("drain working set");
                    }
                })
            })
            .collect();
        // Join mutators *before* asserting on their results: the sampler
        // must see `done` even if a mutator panicked, or the scope would
        // deadlock joining it during unwind.
        let results: Vec<_> = mutators.into_iter().map(|m| m.join()).collect();
        done.store(true, Ordering::Relaxed);
        for r in results {
            r.expect("mutator thread");
        }
    });

    let row = ServiceRow {
        epochs: heap.stats().epochs,
        peak_shard_load: peak_ppm.load(Ordering::Relaxed) as f64 / 1e6,
    };
    (row, params.telemetry.then(|| heap.snapshot()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_churn_produces_consistent_row() {
        let (row, metrics) = churn(&ChurnParams {
            threads: 2,
            ..ChurnParams::default()
        });
        assert!(row.epochs > 0, "{row:?}");
        assert!(row.peak_shard_load > 0.0, "{row:?}");
        assert!(row.peak_shard_load <= 1.0, "{row:?}");
        assert!(metrics.is_none());
    }

    #[test]
    fn telemetry_churn_returns_snapshot_with_service_counters() {
        let (_, metrics) = churn(&ChurnParams {
            threads: 1,
            ops_per_thread: 500,
            telemetry: true,
        });
        let snap = metrics.expect("telemetry snapshot");
        assert!(*snap.counters.get("cvk_alloc_mallocs_total").unwrap_or(&0) > 0);
    }
}
