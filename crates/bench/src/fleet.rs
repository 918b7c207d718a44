//! The fleet experiment family: invariants and pause tails of a
//! [`cherivoke::HeapService`] hosting 100+ tenants under Zipfian-skewed
//! load.
//!
//! One cell of [`FLEET_GRID`] is {tenants × skew × workers}: driver
//! threads deal malloc/store/load/free churn across the tenants with
//! Zipfian weights from [`workloads::profiles::zipfian_fleet`], while the
//! service's shared worker pool arbitrates sweep bandwidth. The cell
//! reports invariants, not speed: the peak quarantine/quota ratio, the
//! worst fleet p99 pause, and whether idle workers stole sweep slices
//! from the busiest tenant's epoch. [`fleet_fairness_verdict`] runs the
//! grid and judges it. Speed is `cargo xtask ab`'s to measure.

use cherivoke::fault::FaultInjector;
use cherivoke::fleet::{FleetConfig, FleetError, HeapService};
use workloads::profiles;

use crate::verdicts::{Status, Verdict};

/// The fleet grid [`fleet_fairness_verdict`] runs, as `(tenants, Zipfian
/// skew, sweep workers)` cells in deterministic order. The 128-tenant
/// cell at skew 1.2 is the acceptance cell.
pub const FLEET_GRID: [(usize, f64, usize); 4] =
    [(8, 0.0, 4), (8, 1.2, 4), (128, 0.0, 4), (128, 1.2, 4)];

/// One point of the fleet grid.
#[derive(Debug, Clone)]
pub struct FleetParams {
    /// Tenant count.
    pub tenants: usize,
    /// Zipfian skew exponent `s` (0 = uniform).
    pub skew: f64,
    /// Shared sweep-worker pool size.
    pub workers: usize,
    /// Deal seed (tenant weights and the op stream).
    pub seed: u64,
    /// Ops per driver thread.
    pub ops_per_thread: u64,
    /// Driver (mutator) threads.
    pub driver_threads: usize,
    /// Heap KiB per tenant.
    pub tenant_heap_kib: u64,
    /// Quarantine quota KiB per tenant.
    pub quota_kib: u64,
    /// Repeats; the invariants hold only if they hold in every one.
    pub measure_repeats: usize,
}

impl FleetParams {
    /// CI-sized cell: small per-tenant heaps, enough ops that the
    /// scheduler, budgets and stealing all engage.
    pub fn smoke(tenants: usize, skew: f64, workers: usize) -> FleetParams {
        FleetParams {
            tenants,
            skew,
            workers,
            seed: 42,
            ops_per_thread: 6_000,
            driver_threads: 4,
            tenant_heap_kib: 256,
            quota_kib: 64,
            measure_repeats: 3,
        }
    }

    /// Stable cell name: `fleet/tN/sS/wW`.
    pub fn id(&self) -> String {
        format!(
            "fleet/t{}/s{:.1}/w{}",
            self.tenants, self.skew, self.workers
        )
    }
}

/// What one fleet cell measured.
#[derive(Debug, Clone)]
pub struct FleetMetrics {
    /// Worst repeat's 99th-percentile sweep-slice pause across the whole
    /// fleet (µs).
    pub fleet_p99_pause_us: f64,
    /// Peak quarantine/quota ratio observed across tenants at any sampled
    /// instant (≤ 1.0 iff every tenant stayed within its budget).
    pub max_budget_fraction: f64,
    /// Epoch slices executed by stealing workers.
    pub steals: u64,
}

/// The drivers' own deterministic stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        crate::paired::splitmix(&mut self.0)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Runs one fleet cell: `driver_threads` mutators dealing Zipfian churn
/// over a fresh [`HeapService`], repeated `measure_repeats` times. Budget
/// and pause come from the *worst* repeat, so a single violation fails
/// the cell; steals add up over all repeats.
///
/// # Errors
///
/// Returns a message naming the failing stage (service construction or a
/// driver hitting an undocumented error).
pub fn run_fleet_cell(params: &FleetParams) -> Result<FleetMetrics, String> {
    let mut m = run_once(params, params.seed)?;
    for rep in 1..params.measure_repeats.max(1) {
        let run = run_once(params, params.seed.wrapping_add(rep as u64))?;
        m.fleet_p99_pause_us = m.fleet_p99_pause_us.max(run.fleet_p99_pause_us);
        m.max_budget_fraction = m.max_budget_fraction.max(run.max_budget_fraction);
        // Stealing evidence accumulates: any repeat demonstrating the
        // mechanism is proof it engages under this cell's shape.
        m.steals += run.steals;
    }
    Ok(m)
}

fn run_once(params: &FleetParams, seed: u64) -> Result<FleetMetrics, String> {
    let mut config = FleetConfig::with_tenants(params.tenants);
    config.tenant_heap_size = params.tenant_heap_kib << 10;
    config.tenant_policy.quarantine_quota = params.quota_kib << 10;
    config.global_ceiling = params.tenants as u64 * (params.quota_kib << 10);
    config.workers = params.workers;
    let service = std::sync::Arc::new(
        HeapService::with_journal_dir(config, FaultInjector::disabled(), None)
            .map_err(|e| format!("{}: fleet construction failed: {e}", params.id()))?,
    );

    // Zipfian tenant weights, via the workloads dealer (same weights the
    // trace round-trip proptests exercise), flattened to a cumulative
    // distribution the drivers sample.
    let fleet = profiles::zipfian_fleet(params.tenants, params.skew, seed);
    let mut cdf = Vec::with_capacity(fleet.tenants().len());
    let mut acc = 0.0;
    for load in fleet.tenants() {
        acc += load.weight;
        cdf.push(acc);
    }

    let mut handles = Vec::new();
    for thread in 0..params.driver_threads.max(1) {
        let service = std::sync::Arc::clone(&service);
        let cdf = cdf.clone();
        let ops = params.ops_per_thread;
        let quota = params.quota_kib << 10;
        let mut rng = Rng(seed ^ (0xd1f7 + thread as u64) << 17);
        handles.push(std::thread::spawn(move || -> Result<u64, String> {
            // Per-tenant stacks of live objects this driver owns.
            let mut live: Vec<Vec<cheri::Capability>> = vec![Vec::new(); cdf.len()];
            let mut peak = 0.0f64;
            for op in 0..ops {
                let u = rng.unit();
                let tenant = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
                let depth = live[tenant].len();
                if depth >= 8 || (depth > 0 && rng.next().is_multiple_of(3)) {
                    let cap = live[tenant].remove(0);
                    service
                        .free(cap)
                        .map_err(|e| format!("free on tenant {tenant}: {e}"))?;
                } else {
                    match service.malloc(tenant, 512 + (rng.next() % 8) * 448) {
                        Ok(cap) => {
                            // A self-capability store dirties the page, so
                            // sweeps have real worklists (and thieves real
                            // slices to take).
                            service
                                .store_cap(&cap, 0, &cap)
                                .map_err(|e| format!("store on tenant {tenant}: {e}"))?;
                            live[tenant].push(cap);
                        }
                        Err(FleetError::TenantThrottled { .. }) => {
                            // Backpressure: shed our oldest object, wake
                            // the pool and yield briefly — a well-behaved
                            // client backs off instead of hammering a
                            // throttled tenant.
                            if let Some(cap) = live[tenant].pop() {
                                service
                                    .free(cap)
                                    .map_err(|e| format!("shed on tenant {tenant}: {e}"))?;
                            }
                            service.kick();
                            std::thread::sleep(std::time::Duration::from_micros(50));
                        }
                        Err(FleetError::Heap(cherivoke::HeapError::OutOfMemory { .. })) => {
                            live[tenant].clear();
                        }
                        Err(e) => return Err(format!("malloc on tenant {tenant}: {e}")),
                    }
                }
                // Budget probe: the bound must hold at *every* operation
                // boundary, not just at the end of the run.
                if op.is_multiple_of(64) {
                    if let Ok(q) = service.quarantined_bytes(tenant) {
                        peak = peak.max(q as f64 / quota as f64);
                    }
                }
            }
            for stack in live {
                for cap in stack {
                    let _ = service.free(cap);
                }
            }
            Ok(peak.to_bits())
        }));
    }
    let mut driver_peak = 0.0f64;
    for handle in handles {
        let bits = handle
            .join()
            .map_err(|_| format!("{}: driver thread panicked", params.id()))??;
        driver_peak = driver_peak.max(f64::from_bits(bits));
    }
    let stats = service.stats();
    Ok(FleetMetrics {
        fleet_p99_pause_us: stats.pauses.percentile(99.0) as f64 / 1e3,
        max_budget_fraction: driver_peak.max(stats.max_budget_fraction()),
        steals: stats.steals,
    })
}

/// The fleet p99 pause bar of [`fleet_fairness_verdict`], in µs (5 ms).
const PAUSE_BOUND_US: f64 = 5_000.0;

/// The fleet-fairness acceptance bar: runs every [`FLEET_GRID`] cell at
/// [`FleetParams::smoke`] size and requires, in each, (1) every tenant's
/// quarantine within its budget, (2) the fleet p99 pause within 5 ms, and
/// (3) at skew ≥ 1 with ≥ 2 workers a nonzero stolen-slice counter — the
/// scheduler demonstrably redistributed sweep bandwidth toward the skew.
pub fn fleet_fairness_verdict() -> Verdict {
    let cells = FLEET_GRID.map(|(tenants, skew, workers)| {
        let params = FleetParams::smoke(tenants, skew, workers);
        let metrics = run_fleet_cell(&params);
        (params, metrics)
    });
    judge_fleet(&cells)
}

/// Judges [`fleet_fairness_verdict`]'s cells; a cell that failed to run
/// fails the verdict.
fn judge_fleet(cells: &[(FleetParams, Result<FleetMetrics, String>)]) -> Verdict {
    let mut failures = Vec::new();
    let mut worst_fraction = 0.0f64;
    for (params, metrics) in cells {
        let id = params.id();
        let m = match metrics {
            Ok(m) => m,
            Err(e) => {
                failures.push(e.clone());
                continue;
            }
        };
        worst_fraction = worst_fraction.max(m.max_budget_fraction);
        if m.max_budget_fraction > 1.0 {
            failures.push(format!(
                "{id}: budget exceeded ({:.2}x quota)",
                m.max_budget_fraction
            ));
        }
        if m.fleet_p99_pause_us > PAUSE_BOUND_US {
            failures.push(format!(
                "{id}: p99 pause {:.0}µs over the {PAUSE_BOUND_US:.0}µs bound",
                m.fleet_p99_pause_us
            ));
        }
        if params.skew >= 1.0 && params.workers >= 2 && m.steals == 0 {
            failures.push(format!("{id}: no slice stolen at skew {}", params.skew));
        }
    }
    let pass = !cells.is_empty() && failures.is_empty();
    Verdict {
        name: "fleet_fairness".to_string(),
        status: Status::from_pass(pass),
        value: worst_fraction,
        target: 1.0,
        detail: if cells.is_empty() {
            "no fleet cells ran".to_string()
        } else if pass {
            format!(
                "{} cells: every tenant within budget (peak {:.2}x quota), p99 within \
                 {PAUSE_BOUND_US:.0}µs, stealing engaged at skew >= 1",
                cells.len(),
                worst_fraction
            )
        } else {
            failures.join("; ")
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(tenants: usize, skew: f64, workers: usize) -> FleetParams {
        FleetParams {
            ops_per_thread: 1_500,
            driver_threads: 2,
            measure_repeats: 1,
            ..FleetParams::smoke(tenants, skew, workers)
        }
    }

    #[test]
    fn cell_ids_are_stable() {
        assert_eq!(FleetParams::smoke(128, 1.2, 4).id(), "fleet/t128/s1.2/w4");
        assert_eq!(FleetParams::smoke(8, 0.0, 1).id(), "fleet/t8/s0.0/w1");
    }

    #[test]
    fn one_tiny_fleet_cell_runs_end_to_end() {
        let metrics = run_fleet_cell(&tiny(8, 1.2, 2)).expect("cell runs");
        assert!(metrics.fleet_p99_pause_us > 0.0, "the cell swept");
        assert!(metrics.max_budget_fraction <= 1.0);
    }

    #[test]
    fn fairness_verdict_flags_failures() {
        let params = tiny(4, 1.5, 2);
        let mut metrics = run_fleet_cell(&params).expect("cell runs");
        let ok = judge_fleet(&[(params.clone(), Ok(metrics.clone()))]);
        // The genuine cell may or may not steal in a tiny run; only the
        // budget facts are asserted here. Synthetic failures must flag:
        metrics.max_budget_fraction = 1.7;
        let bad = judge_fleet(&[(params.clone(), Ok(metrics))]);
        assert!(!bad.passed());
        assert!(bad.detail.contains("budget exceeded"), "{}", bad.detail);
        assert!(bad.value >= ok.value);
        let broken = judge_fleet(&[(params, Err("driver panicked".into()))]);
        assert!(!broken.passed());
        assert!(!judge_fleet(&[]).passed());
    }
}
