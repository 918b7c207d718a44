//! Fleet integration tests: cross-tenant temporal safety,
//! quarantine-budget enforcement under pressure, work-stealing evidence,
//! a 100-tenant smoke, and scheduler liveness under rotated
//! `tenant_stall` / `scheduler_skip` fault plans.

use std::time::{Duration, Instant};

use cheri::Capability;
use cherivoke::fault::{FaultInjector, FaultPlan, FaultPoint, FaultRule};
use cherivoke::fleet::{FleetConfig, FleetError, HeapService, MIN_TENANT_QUOTA, THROTTLE_FRACTION};
use cherivoke::HeapError;

/// A small fleet config sized so budget arithmetic in the tests is exact.
fn fleet_config(tenants: usize, heap: u64, quota: u64) -> FleetConfig {
    let mut c = FleetConfig::with_tenants(tenants);
    c.tenant_heap_size = heap;
    c.tenant_policy.quarantine_quota = quota;
    c.global_ceiling = tenants as u64 * quota;
    c
}

/// Waits until `done()` or panics with `what` after a generous deadline.
fn await_or_die(service: &HeapService, what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        service.kick();
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A tenant's scheduler trigger under the default quarantine fraction
/// (0.25, below `THROTTLE_FRACTION`): it is due at `fraction × quota`.
fn trigger(quota: u64) -> u64 {
    quota / 4
}

/// Waits until the background scheduler has nothing left to do, then
/// checks that what it left behind is sound: every tenant below its
/// trigger (a scheduled epoch opens only at the trigger and keeps its
/// sealed bytes quarantined until it retires, so none is in flight
/// either); then an explicit drain empties the fleet and every tenant's
/// audit is clean.
fn settle_then_drain(service: &HeapService, quota: u64, what: &str) {
    await_or_die(service, what, || {
        (0..service.tenant_count()).all(|t| service.quarantined_bytes(t).unwrap() < trigger(quota))
    });
    service.drain_all();
    assert_eq!(service.global_quarantined(), 0);
    for (tenant, report) in service.audit_all().iter().enumerate() {
        assert!(report.clean(), "tenant {tenant}: {report:?}");
    }
}

#[test]
fn cross_tenant_uaf_is_stopped() {
    let service = HeapService::with_journal_dir(
        fleet_config(4, 256 << 10, 64 << 10),
        FaultInjector::disabled(),
        None,
    )
    .unwrap();
    // Tenant A allocates an object and stashes a second pointer to it;
    // tenant B holds an unrelated live object the sweep must not touch.
    let stash = service.malloc(0, 16).unwrap();
    let obj = service.malloc(0, 64).unwrap();
    service.store_u64(&obj, 0, 0xfeed).unwrap();
    service.store_cap(&stash, 0, &obj).unwrap();
    let b_obj = service.malloc(3, 64).unwrap();
    service.store_u64(&b_obj, 0, 0xbee5).unwrap();

    // Isolation: the dangling-to-be capability cannot even be smuggled
    // into tenant B's heap, so A's sweep never needs to scan B.
    assert!(matches!(
        service.store_cap(&b_obj, 0, &obj),
        Err(FleetError::CrossTenantStore { from: 0, to: 3 })
    ));

    service.free(obj).unwrap();
    service.drain_tenant(0).unwrap();

    // The stashed copy in tenant A is revoked in place…
    let dangling = service.load_cap(&stash, 0).unwrap();
    assert!(
        !dangling.tag(),
        "stashed dangling capability must be untagged"
    );
    assert!(service.load_u64(&dangling, 0).is_err());
    // …and tenant B's live object is untouched.
    assert_eq!(service.load_u64(&b_obj, 0).unwrap(), 0xbee5);
    assert_eq!(service.quarantined_bytes(0).unwrap(), 0);
}

/// A capability outside every tenant routes nowhere: each routed
/// operation refuses it as `NotAnAllocation` with that capability's base,
/// whether it is the destination or the stored value.
#[test]
fn capabilities_outside_every_tenant_are_not_allocations() {
    let service = HeapService::with_journal_dir(
        fleet_config(2, 256 << 10, 64 << 10),
        FaultInjector::disabled(),
        None,
    )
    .unwrap();
    let slot = service.malloc(0, 16).unwrap();
    let outside = Capability::root_rw(0x10, 0x10);
    let refused = FleetError::Heap(HeapError::NotAnAllocation { base: 0x10 });
    assert_eq!(service.store_cap(&slot, 0, &outside), Err(refused));
    assert_eq!(service.store_cap(&outside, 0, &slot), Err(refused));
    assert_eq!(service.load_cap(&outside, 0), Err(refused));
    assert_eq!(service.free(outside), Err(refused));
    // Untagged data words are never capabilities, so they pass.
    service.store_cap(&slot, 0, &outside.cleared()).unwrap();
    assert!(!service.load_cap(&slot, 0).unwrap().tag());
}

#[test]
fn quarantine_budget_is_enforced_under_pressure() {
    let quota = 64u64 << 10;
    let mut config = fleet_config(1, 256 << 10, quota);
    // Park the worker pool for long stretches so admission control —
    // not a background drain — is what the test observes.
    config.scheduler_interval = Duration::from_millis(500);
    let service = HeapService::with_journal_dir(config, FaultInjector::disabled(), None).unwrap();

    let mut throttled = None;
    for _ in 0..10_000 {
        match service.malloc(0, 4096) {
            Ok(cap) => service.free(cap).unwrap(),
            Err(FleetError::TenantThrottled {
                tenant,
                quarantined,
                quota: q,
            }) => {
                throttled = Some((tenant, quarantined, q));
                break;
            }
            Err(e) => panic!("unexpected error under pressure: {e}"),
        }
        // The hard bound holds at every operation boundary: a free that
        // would cross the quota drains synchronously first.
        assert!(
            service.quarantined_bytes(0).unwrap() <= quota,
            "quarantine exceeded the tenant budget"
        );
    }
    let (tenant, quarantined, q) = throttled.expect("backpressure never engaged");
    assert_eq!(tenant, 0);
    assert_eq!(q, quota);
    assert!((quarantined as f64) >= THROTTLE_FRACTION * quota as f64);
    assert!(service.stats().throttled >= 1);

    // An explicit drain lifts the throttle.
    service.drain_tenant(0).unwrap();
    assert_eq!(service.quarantined_bytes(0).unwrap(), 0);
    let cap = service
        .malloc(0, 4096)
        .expect("drain must lift the throttle");
    service.free(cap).unwrap();
    assert!(service.stats().max_budget_fraction() <= 1.0);
}

#[test]
fn quarantine_budget_holds_under_concurrent_frees() {
    // Four threads free into one tenant at once, with the lab fleet
    // driver's object sizes and throttle shed, and the worker pool parked
    // as above. Every free must still land at or below the quota: the
    // quota test and the free are one critical section, so two freers
    // cannot both pass it.
    let quota = 64u64 << 10;
    let mut config = fleet_config(1, 256 << 10, quota);
    config.scheduler_interval = Duration::from_millis(500);
    let service = std::sync::Arc::new(
        HeapService::with_journal_dir(config, FaultInjector::disabled(), None).unwrap(),
    );
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            let service = std::sync::Arc::clone(&service);
            std::thread::spawn(move || {
                let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ (t << 17);
                let mut next = move || {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng
                };
                let mut live: Vec<Capability> = Vec::new();
                let mut peak = 0u64;
                let free = |cap: Capability, peak: &mut u64| {
                    service.free(cap).unwrap();
                    *peak = (*peak).max(service.quarantined_bytes(0).unwrap());
                };
                for _ in 0..100_000 {
                    if live.len() >= 8 || (!live.is_empty() && next() % 3 == 0) {
                        free(live.remove(0), &mut peak);
                        continue;
                    }
                    match service.malloc(0, 512 + (next() % 8) * 448) {
                        Ok(cap) => live.push(cap),
                        Err(FleetError::TenantThrottled { .. }) => {
                            if let Some(cap) = live.pop() {
                                free(cap, &mut peak);
                            }
                            service.kick();
                            std::thread::sleep(Duration::from_micros(50));
                        }
                        Err(FleetError::Heap(HeapError::OutOfMemory { .. })) => {}
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                for cap in live {
                    free(cap, &mut peak);
                }
                peak
            })
        })
        .collect();
    for t in threads {
        let peak = t.join().unwrap();
        assert!(
            peak <= quota,
            "quarantine peaked at {peak} B over the {quota} B quota"
        );
    }
    assert!(service.stats().max_budget_fraction() <= 1.0);
}

#[test]
fn idle_workers_steal_slices_from_the_busiest_epoch() {
    let mut config = fleet_config(2, 1 << 20, 512 << 10);
    config.workers = 4;
    config.scheduler_interval = Duration::from_micros(50);
    // Stall the epoch owner repeatedly (off-lock): thieves must keep the
    // epoch advancing, which is exactly the stolen-slice counter.
    let plan = FaultPlan::from_rules(vec![FaultRule {
        point: FaultPoint::TenantStall,
        start: 1,
        every: 1,
        limit: 512,
    }]);
    let service = HeapService::with_journal_dir(config, FaultInjector::new(plan), None).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    while service.stats().steals == 0 {
        assert!(Instant::now() < deadline, "no slice was ever stolen");
        // Build ~400 KiB of quarantine in tenant 0 (debt ≈ 3, due).
        // Chain capability stores through every object first: the epoch
        // worklist is the heap's capability-dirty pages, so ~100 dirtied
        // pages give the epoch enough slices to be worth stealing.
        let objs: Vec<_> = (0..100)
            .filter_map(|_| service.malloc(0, 4096).ok())
            .collect();
        for pair in objs.windows(2) {
            service.store_cap(&pair[0], 0, &pair[1]).unwrap();
        }
        for cap in objs {
            service.free(cap).unwrap();
        }
        service.kick();
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(service.stats().steals > 0);
    assert!(service.fault_injector().fired(FaultPoint::TenantStall) > 0);
    // The stalls cost wall-clock, not safety: every due epoch still
    // completes.
    settle_then_drain(&service, 512 << 10, "post-steal settle");
}

#[test]
fn hundred_tenant_smoke_is_fast_and_drains_clean() {
    let t0 = Instant::now();
    let tenants = 128;
    let mut config = fleet_config(tenants, 256 << 10, 64 << 10);
    config.workers = 4;
    config.telemetry = true;
    let service = HeapService::with_journal_dir(config, FaultInjector::disabled(), None).unwrap();

    for tenant in 0..tenants {
        let objs: Vec<_> = (0..8)
            .map(|_| service.malloc(tenant, 1024).unwrap())
            .collect();
        for (i, cap) in objs.iter().enumerate() {
            service.store_u64(cap, 0, i as u64).unwrap();
        }
        for (i, cap) in objs.iter().enumerate() {
            assert_eq!(service.load_u64(cap, 0).unwrap(), i as u64);
        }
        // Free half; the other half stays live across the global drain.
        for cap in objs.into_iter().skip(4) {
            service.free(cap).unwrap();
        }
    }
    service.drain_all();
    assert_eq!(service.global_quarantined(), 0);

    let stats = service.stats();
    assert_eq!(stats.tenants.len(), tenants);
    assert!(stats.tenants.iter().all(|t| t.mallocs == 8 && t.frees == 4));
    assert!(stats.max_budget_fraction() <= 1.0);
    // Tenant-labelled series landed in the shared registry.
    let snap = service.snapshot();
    assert_eq!(
        snap.counters["cvk_fleet_tenant_mallocs_total{tenant=\"127\"}"],
        8
    );
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "128-tenant smoke took {:?}",
        t0.elapsed()
    );
}

/// The fleet runs on the same supervised runtime core as the sharded
/// service: a pool worker killed by an injected death is respawned,
/// mutators cover while it is down, and every tenant still drains to a
/// clean audit.
#[test]
fn dead_pool_workers_are_respawned() {
    let plan: FaultPlan = "revoker_death@1/2".parse().unwrap();
    let mut config = fleet_config(4, 256 << 10, 64 << 10);
    config.workers = 2;
    let service = HeapService::with_journal_dir(config, FaultInjector::new(plan), None).unwrap();
    let stashes: Vec<_> = (0..4).map(|t| service.malloc(t, 16).unwrap()).collect();
    for _ in 0..50 {
        for (tenant, stash) in stashes.iter().enumerate() {
            if let Ok(cap) = service.malloc(tenant, 4096) {
                service.store_cap(stash, 0, &cap).unwrap();
                service.free(cap).unwrap();
            }
        }
    }
    await_or_die(&service, "a pool worker restart", || {
        service.stats().revoker_restarts > 0
    });
    assert!(service.fault_injector().fired(FaultPoint::RevokerDeath) > 0);
    service.drain_all();
    assert_eq!(service.global_quarantined(), 0);
    for (tenant, stash) in stashes.iter().enumerate() {
        assert_eq!(service.quarantined_bytes(tenant).unwrap(), 0);
        assert!(!service.load_cap(stash, 0).unwrap().tag());
    }
    for (tenant, report) in service.audit_all().iter().enumerate() {
        assert!(report.clean(), "tenant {tenant}: {report:?}");
    }
}

/// The fleet scheduler stays live under rotated `tenant_stall` /
/// `scheduler_skip` fault plans — under every plan variation each due
/// tenant is still swept below its trigger, with the budget bound
/// intact throughout.
#[test]
fn scheduler_survives_rotated_stall_and_skip_plans() {
    let quota = 64u64 << 10;
    for seed in 0..6u64 {
        let plan = FaultPlan::from_rules(vec![
            FaultRule {
                point: FaultPoint::TenantStall,
                start: 1 + seed % 3,
                every: 1 + seed % 2,
                limit: 8,
            },
            FaultRule {
                point: FaultPoint::SchedulerSkip,
                start: 1 + seed % 4,
                every: 1,
                limit: 8,
            },
        ]);
        // Four tenants: each ends the push due (or was already picked),
        // so the pool makes at least four picks and every plan's first
        // skip (at pick 1–4) fires.
        let mut config = fleet_config(4, 256 << 10, quota);
        config.workers = 2;
        config.scheduler_interval = Duration::from_micros(100);
        let injector = FaultInjector::new(plan.clone());
        let service = HeapService::with_journal_dir(config, injector, None).unwrap();

        // Push every tenant past its debt threshold (56 KiB of frees,
        // short of the quota, so no free drains synchronously).
        for tenant in 0..4 {
            for _ in 0..14 {
                if let Ok(cap) = service.malloc(tenant, 4096) {
                    service.free(cap).unwrap();
                }
                assert!(
                    service.quarantined_bytes(tenant).unwrap() <= quota,
                    "budget bound broke under plan {plan}"
                );
            }
        }
        // Liveness: a dropped pick stays due and is re-selected, stalls
        // are covered by thieves — every tenant ends below its trigger.
        settle_then_drain(&service, quota, &format!("settle under plan {plan}"));
        let skips = service.stats().scheduler_skips;
        assert!(skips >= 1, "no pick was skipped under plan {plan}");
        assert_eq!(
            skips,
            service.fault_injector().fired(FaultPoint::SchedulerSkip),
            "plan {plan}"
        );
    }
}

/// Debt is the only background trigger, and it sits at or below the
/// throttle point whatever the policy fraction. With a fraction of 1.0 a
/// throttled tenant is still due, so retrying `malloc` (which kicks the
/// pool) is admitted again without any explicit drain.
#[test]
fn throttled_tenant_is_drained_without_an_explicit_drain() {
    let mut config = fleet_config(1, 256 << 10, MIN_TENANT_QUOTA);
    config.policy.quarantine.fraction = 1.0;
    let service = HeapService::with_journal_dir(config, FaultInjector::disabled(), None).unwrap();

    let mut throttled = false;
    for _ in 0..10_000 {
        match service.malloc(0, 4096) {
            Ok(cap) => service.free(cap).unwrap(),
            Err(FleetError::TenantThrottled { .. }) => {
                throttled = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(throttled, "backpressure never engaged");

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match service.malloc(0, 4096) {
            Ok(cap) => {
                service.free(cap).unwrap();
                break;
            }
            Err(FleetError::TenantThrottled { .. }) => {
                assert!(
                    Instant::now() < deadline,
                    "a throttled tenant was never drained in the background"
                );
                service.kick();
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}
