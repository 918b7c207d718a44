//! In-process churn harness for the concurrent revocation service — the
//! measurement core of the `service_throughput` binary, exposed as a
//! library so `cargo xtask lab`'s verdicts run the same churn (identical
//! mutator loop, identical metrics) without parsing binary stdout.
//!
//! One [`churn`] call spins up a [`ConcurrentHeap`], drives `threads`
//! mutators through a malloc/store/load/free working set, samples peak
//! quarantine occupancy the whole time, and returns a [`ServiceRow`] with
//! throughput, pause percentiles and sweep bandwidth.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use cherivoke::fault::{FaultInjector, FaultPoint};
use cherivoke::{ConcurrentHeap, ServiceConfig};
use serde::Serialize;
use telemetry::MetricsSnapshot;

/// Disabled `should_fire` branches a single service op crosses: mallocs
/// cross exactly one (the allocator's alloc-failure check), frees cross
/// none, and the sweep/barrier/revoker sites run on the sweep path behind
/// an `is_enabled()` gate, amortising to a rounding error per op — so 1.0
/// over-counts the true per-op average (which is ~0.5 across a
/// malloc+free pair).
pub const FAULT_SITES_PER_OP: f64 = 1.0;

/// How a [`churn`] run's fault injector is constructed.
#[derive(Debug, Clone, Default)]
pub enum FaultMode {
    /// `FaultInjector::from_env()` — honours `CHERIVOKE_FAULT_PLAN`.
    #[default]
    Inherit,
    /// An explicitly disabled injector (the faults-off control row).
    Disabled,
}

/// One churn configuration. `Default` is the 4-thread sharded smoke shape
/// the CI verdicts are computed from, on the paper-default policy.
#[derive(Debug, Clone)]
pub struct ChurnParams {
    /// Mutator threads.
    pub threads: usize,
    /// Service shards.
    pub shards: usize,
    /// Pin every mutator to shard 0 (the contended control row).
    pub contend: bool,
    /// malloc(+store/load)+free pairs per mutator.
    pub ops_per_thread: u64,
    /// Heap MiB per shard.
    pub shard_mib: u64,
    /// Enable the telemetry registry for this run.
    pub telemetry: bool,
    /// Fault-injection mode.
    pub faults: FaultMode,
}

impl Default for ChurnParams {
    fn default() -> ChurnParams {
        ChurnParams {
            threads: 4,
            shards: 4,
            contend: false,
            ops_per_thread: 20_000,
            shard_mib: 4,
            telemetry: false,
            faults: FaultMode::Inherit,
        }
    }
}

/// Metrics of one churn run (one row of the `service_throughput` table).
#[derive(Debug, Clone, Serialize)]
pub struct ServiceRow {
    /// Row label: `sharded`, `contended-1-shard`, `sharded-faults-off`, …
    pub mode: String,
    /// Sweep-kernel name the shards ran.
    pub kernel: String,
    /// Mutator threads.
    pub threads: usize,
    /// Service shards.
    pub shards: usize,
    /// Total mallocs + frees completed.
    pub total_ops: u64,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Aggregate throughput.
    pub ops_per_sec: f64,
    /// Revocation epochs completed.
    pub epochs: u64,
    /// Cross-shard foreign sweeps.
    pub foreign_sweeps: u64,
    /// Capabilities revoked by foreign sweeps.
    pub caps_revoked_foreign: u64,
    /// Peak fraction of the total heap in quarantine.
    pub peak_quarantine_fraction: f64,
    /// The policy's configured quarantine bound.
    pub quarantine_bound_fraction: f64,
    /// Whether the peak stayed under the bound.
    pub quarantine_bounded: bool,
    /// Median revocation pause.
    pub p50_pause_us: f64,
    /// 99th-percentile revocation pause.
    pub p99_pause_us: f64,
    /// Worst revocation pause.
    pub max_pause_us: f64,
    /// Aggregate sweep bandwidth.
    pub sweep_bandwidth_mib_s: f64,
}

/// Runs one churn experiment; returns its metrics row plus (with
/// telemetry enabled) the final metrics snapshot.
///
/// # Panics
///
/// Panics if the service cannot be constructed or a mutator operation
/// fails — churn failures are harness bugs, not measurements.
pub fn churn(params: &ChurnParams) -> (ServiceRow, Option<MetricsSnapshot>) {
    let config = ServiceConfig {
        shards: params.shards,
        shard_heap_size: params.shard_mib << 20,
        telemetry: params.telemetry,
        ..ServiceConfig::default()
    };
    let fraction = config.policy.quarantine.fraction;
    let kernel = config.policy.kernel.name();
    let injector = match params.faults {
        FaultMode::Inherit => FaultInjector::from_env(),
        FaultMode::Disabled => FaultInjector::disabled(),
    };
    let heap = ConcurrentHeap::with_faults(config, injector).expect("construct service");
    let total_heap = (params.shard_mib << 20) * params.shards as u64;

    // Peak-quarantine sampler: fraction of the *total heap* detained, in
    // parts per million, sampled while the mutators run.
    let peak_ppm = AtomicU64::new(0);
    let done = AtomicBool::new(false);

    let t0 = Instant::now();
    let mut secs = 0.0;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                let q = heap.quarantined_bytes();
                let ppm = q * 1_000_000 / total_heap;
                peak_ppm.fetch_max(ppm, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        let mutators: Vec<_> = (0..params.threads)
            .map(|t| {
                let client = if params.contend {
                    heap.handle_on(0)
                } else {
                    heap.handle()
                };
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
        secs = t0.elapsed().as_secs_f64();
        done.store(true, Ordering::Relaxed);
        for r in results {
            r.expect("mutator thread");
        }
    });

    let stats = heap.stats();
    let metrics = params.telemetry.then(|| heap.snapshot());
    let total_ops = 2 * params.threads as u64 * params.ops_per_thread; // mallocs + frees
    let peak_fraction = peak_ppm.load(Ordering::Relaxed) as f64 / 1e6;
    let row = ServiceRow {
        mode: if params.contend {
            "contended-1-shard"
        } else if matches!(params.faults, FaultMode::Disabled) {
            "sharded-faults-off"
        } else {
            "sharded"
        }
        .to_string(),
        kernel: kernel.to_string(),
        threads: params.threads,
        shards: params.shards,
        total_ops,
        secs,
        ops_per_sec: total_ops as f64 / secs,
        epochs: stats.epochs,
        foreign_sweeps: stats.foreign_sweeps,
        caps_revoked_foreign: stats.foreign_caps_revoked,
        peak_quarantine_fraction: peak_fraction,
        quarantine_bound_fraction: fraction,
        quarantine_bounded: peak_fraction < fraction,
        p50_pause_us: stats.pauses.percentile(50.0) as f64 / 1e3,
        p99_pause_us: stats.pauses.percentile(99.0) as f64 / 1e3,
        max_pause_us: stats.pauses.max_value() as f64 / 1e3,
        sweep_bandwidth_mib_s: stats.sweep_bandwidth() / (1 << 20) as f64,
    };
    (row, metrics)
}

/// Nanoseconds per call of `should_fire` on a *disabled* injector — the
/// cost every instrumented hot-path site pays in production.
pub fn disabled_fault_branch_ns(iters: u64) -> f64 {
    let injector = FaultInjector::disabled();
    let mut fired = 0u64;
    let t0 = Instant::now();
    for _ in 0..iters {
        if std::hint::black_box(&injector).should_fire(FaultPoint::AllocFailure) {
            fired += 1;
        }
    }
    let ns = t0.elapsed().as_secs_f64() * 1e9 / iters as f64;
    assert_eq!(std::hint::black_box(fired), 0);
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_churn_produces_consistent_row() {
        let (row, metrics) = churn(&ChurnParams {
            threads: 2,
            shards: 2,
            ops_per_thread: 500,
            shard_mib: 1,
            ..ChurnParams::default()
        });
        assert_eq!(row.mode, "sharded");
        assert_eq!(row.total_ops, 2 * 2 * 500);
        assert!(row.ops_per_sec > 0.0);
        assert!(row.quarantine_bounded, "{row:?}");
        assert!(metrics.is_none());
    }

    #[test]
    fn telemetry_churn_returns_snapshot_with_service_counters() {
        let (_, metrics) = churn(&ChurnParams {
            threads: 1,
            shards: 1,
            ops_per_thread: 500,
            shard_mib: 1,
            telemetry: true,
            ..ChurnParams::default()
        });
        let snap = metrics.expect("telemetry snapshot");
        assert!(*snap.counters.get("cvk_alloc_mallocs_total").unwrap_or(&0) > 0);
    }
}
