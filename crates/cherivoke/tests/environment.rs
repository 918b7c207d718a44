//! The library reads no environment variable: a runtime's fault plan and
//! journal directory come only from its constructor's arguments, so
//! `new` builds the same unarmed, unjournaled runtime whatever the shell
//! exports.
//!
//! This binary holds a single test, so its `std::env::set_var` calls race
//! no other test's reads of the environment.

use cherivoke::fleet::{FleetConfig, HeapService};
use cherivoke::{ConcurrentHeap, ServiceConfig};

#[test]
fn constructors_ignore_the_environment() {
    let dir = std::env::temp_dir().join(format!("cvk-env-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A plan that fails every allocation, and a journal directory that
    // exists: a runtime that read either would fail the checks below.
    std::env::set_var("CHERIVOKE_FAULT_PLAN", "alloc_failure@1/1");
    std::env::set_var("CHERIVOKE_JOURNAL", &dir);

    let heap = ConcurrentHeap::new(ServiceConfig::small()).unwrap();
    assert!(!heap.fault_injector().is_enabled());
    let client = heap.handle();
    for _ in 0..8 {
        let cap = client.malloc(256).expect("malloc under an unarmed heap");
        client.free(cap).unwrap();
    }
    heap.revoke_all_now();
    drop(heap);

    let service = HeapService::new(FleetConfig::with_tenants(2)).unwrap();
    assert!(!service.fault_injector().is_enabled());
    for tenant in 0..2 {
        for _ in 0..8 {
            let cap = service
                .malloc(tenant, 256)
                .expect("malloc under an unarmed fleet");
            service.free(cap).unwrap();
        }
    }
    service.drain_all();
    drop(service);

    let journals: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "cvj"))
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(journals.is_empty(), "journals written: {journals:?}");
}
