//! A multi-tenant "heap as a service" on the fleet subsystem.
//!
//! ```sh
//! cargo run --release --example fleet_churn
//! ```
//!
//! Sixty-four tenant heaps behind one [`cherivoke::HeapService`]: driver
//! threads deal Zipfian-skewed malloc/free churn (tenant 0 gets the bulk
//! of the traffic), while the shared sweep-worker pool arbitrates
//! revocation bandwidth by quarantine debt. The run demonstrates the
//! three fleet mechanisms end to end:
//!
//! * **Budgets** — every tenant's quarantine stays within its quota, no
//!   matter how hot the traffic gets; `malloc` on a tenant past 75% of
//!   its quota gets typed backpressure ([`FleetError::TenantThrottled`])
//!   instead of unbounded growth.
//! * **Work-stealing** — idle workers take epoch slices from the hot
//!   tenant instead of waiting for a cold tenant to become due.
//! * **Isolation** — a stale capability stashed by the hot tenant is
//!   revoked by that tenant's own sweep, and a cross-tenant stash is
//!   refused outright, so one tenant's dangling pointers can never be
//!   laundered through another tenant's heap.

use std::sync::atomic::{AtomicU64, Ordering};

use cherivoke::fleet::{FleetConfig, FleetError, HeapService};

const TENANTS: usize = 64;
const DRIVERS: usize = 4;
const OPS_PER_DRIVER: u64 = 20_000;
const ZIPF_S: f64 = 1.2;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = FleetConfig::with_tenants(TENANTS);
    config.tenant_heap_size = 1 << 20;
    config.tenant_policy.quarantine_quota = 128 << 10;
    config.global_ceiling = TENANTS as u64 * (128 << 10);
    config.workers = 4;
    let service = HeapService::new(config)?;

    // Zipfian tenant weights, w ∝ 1/rank^s, as a cumulative distribution.
    let weights: Vec<f64> = (0..TENANTS)
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(TENANTS);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }

    let throttles = AtomicU64::new(0);
    // Peak quarantine-to-quota fraction observed mid-churn, in basis
    // points (the post-drain snapshot would always read zero).
    let peak_bps = AtomicU64::new(0);
    let t0 = std::time::Instant::now();
    std::thread::scope(|scope| {
        for driver in 0..DRIVERS {
            let service = &service;
            let cdf = &cdf;
            let throttles = &throttles;
            let peak_bps = &peak_bps;
            scope.spawn(move || {
                let mut state = 0x9e37u64 ^ (driver as u64) << 32;
                let mut rng = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let mut live: Vec<Vec<cheri::Capability>> = vec![Vec::new(); TENANTS];
                for op in 0..OPS_PER_DRIVER {
                    if op % 64 == 0 {
                        let frac = service.stats().max_budget_fraction();
                        peak_bps.fetch_max((frac * 10_000.0) as u64, Ordering::Relaxed);
                    }
                    let u = (rng() >> 11) as f64 / (1u64 << 53) as f64;
                    let tenant = cdf.partition_point(|&c| c < u).min(TENANTS - 1);
                    if live[tenant].len() >= 8 {
                        let cap = live[tenant].remove(0);
                        service.free(cap).expect("free");
                    } else {
                        match service.malloc(tenant, 512 + (rng() % 8) * 448) {
                            Ok(cap) => {
                                // A self-capability makes the page worth
                                // sweeping — real worklists for the pool.
                                service.store_cap(&cap, 0, &cap).expect("store");
                                live[tenant].push(cap);
                            }
                            Err(FleetError::TenantThrottled { .. }) => {
                                // Idiomatic backpressure: shed load, wake
                                // the sweep pool, and yield so it can
                                // drain the quarantine we just grew.
                                throttles.fetch_add(1, Ordering::Relaxed);
                                if let Some(cap) = live[tenant].pop() {
                                    service.free(cap).expect("shed");
                                }
                                service.kick();
                                std::thread::sleep(std::time::Duration::from_micros(50));
                            }
                            Err(e) => panic!("malloc: {e}"),
                        }
                    }
                }
                for stack in live {
                    for cap in stack {
                        let _ = service.free(cap);
                    }
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();

    // Isolation demo: a stale pointer in the hot tenant dies with its
    // tenant's sweep; smuggling it into another tenant is refused.
    // (Drain first — the hot tenant may still be throttled post-churn.)
    service.drain_all();
    let stash = service.malloc(0, 16)?;
    let victim = service.malloc(0, 64)?;
    service.store_cap(&stash, 0, &victim)?;
    let foreign_slot = service.malloc(TENANTS - 1, 16)?;
    let smuggle = service.store_cap(&foreign_slot, 0, &victim);
    assert!(matches!(smuggle, Err(FleetError::CrossTenantStore { .. })));
    service.free(victim)?;
    service.drain_tenant(0)?;
    let dangling = service.load_cap(&stash, 0)?;
    assert!(!dangling.tag(), "stale capability must be revoked");

    service.drain_all();
    let stats = service.stats();
    let ops = DRIVERS as u64 * OPS_PER_DRIVER;
    println!("fleet_churn: {TENANTS} tenants, {DRIVERS} drivers, zipf s={ZIPF_S}");
    println!(
        "  {ops} ops in {elapsed:.2}s = {:.0} ops/s aggregate",
        ops as f64 / elapsed
    );
    println!(
        "  epochs {} | stolen slices {} | throttled mallocs {} | emergency sweeps {}",
        stats.epochs, stats.steals, stats.throttled, stats.emergency_sweeps
    );
    let peak = peak_bps.load(Ordering::Relaxed) as f64 / 100.0;
    println!(
        "  p99 sweep pause {:.0}µs | peak budget use {peak:.0}% of quota | global quarantine {}",
        stats.pauses.percentile(99.0) as f64 / 1e3,
        stats.global_quarantined
    );
    let hot_stats = &stats.tenants[0];
    println!(
        "  hot tenant: {} mallocs, {} frees, {} epochs, {} throttles",
        hot_stats.mallocs, hot_stats.frees, hot_stats.epochs, hot_stats.throttled
    );
    assert!(peak <= 100.0, "budget bound must hold");
    assert_eq!(stats.global_quarantined, 0);
    println!("  every tenant stayed within its quarantine budget; stale pointer revoked");
    Ok(())
}
