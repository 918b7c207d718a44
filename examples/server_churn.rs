//! A long-running multi-threaded "session server" on the concurrent
//! CHERIvoke revocation service.
//!
//! ```sh
//! cargo run --release --example server_churn
//! ```
//!
//! The motivating deployment of the paper's intro: a network-facing service
//! written in an unsafe language, churning session objects as clients come
//! and go, with a *bug* that keeps a stale session pointer in a routing
//! table. Here the server runs `WORKERS` mutator threads over a
//! [`cherivoke::ConcurrentHeap`]: each worker owns a column of the routing
//! table (stored in shard 0's memory) but allocates its sessions from its
//! *own* pinned shard — so every routing-table entry is a **cross-shard**
//! capability, the case §3.5's concurrent revocation has to get right. The
//! background worker and the peer sweeps every epoch runs across the
//! shards revoke the stale pointer before its memory is ever reused, so
//! the bug is a clean fault instead of a security hole.

use std::sync::atomic::{AtomicU64, Ordering};

use cherivoke::{ConcurrentHeap, ServiceConfig};

const WORKERS: usize = 4;
const SESSIONS_PER_WORKER: usize = 128;
const ROUNDS: usize = 40;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let heap = ConcurrentHeap::new(ServiceConfig::default())?;

    let uaf_attempts = AtomicU64::new(0);
    let uaf_caught = AtomicU64::new(0);

    std::thread::scope(|scope| -> Result<(), cherivoke::HeapError> {
        let mut workers = Vec::new();
        for w in 0..WORKERS {
            // The routing table lives in shard 0; worker sessions come from
            // the worker's own shard. Every table entry crosses shards.
            let table = heap
                .handle_on(0)
                .malloc((SESSIONS_PER_WORKER * 16) as u64)?;
            let client = heap.handle();
            let uaf_attempts = &uaf_attempts;
            let uaf_caught = &uaf_caught;
            workers.push(scope.spawn(move || -> Result<(), cherivoke::HeapError> {
                let mut sessions: Vec<Option<cheri::Capability>> =
                    (0..SESSIONS_PER_WORKER).map(|_| None).collect();
                let mut next_id = 0u64;
                let mut stale_slot: Option<usize> = None;

                for round in 0..ROUNDS {
                    // Clients connect: fill empty slots with new sessions.
                    for (slot, entry) in sessions.iter_mut().enumerate() {
                        if entry.is_none() {
                            let size = 64 + (next_id % 7) * 48;
                            let cap = client.malloc(size)?;
                            client.store_u64(&cap, 0, next_id)?; // session id
                            client.store_cap(&table, (slot * 16) as u64, &cap)?;
                            *entry = Some(cap);
                            next_id += 1;
                        }
                    }

                    // Clients disconnect: tear down a pseudo-random half.
                    for (slot, entry) in sessions.iter_mut().enumerate() {
                        if (slot * 2654435761 + round * 40503 + w * 97) % 100 < 50 {
                            if let Some(cap) = entry.take() {
                                // THE BUG: one teardown per round forgets to
                                // clear the routing-table entry.
                                if stale_slot.is_none() {
                                    stale_slot = Some(slot);
                                } else {
                                    client.store_u64(&table, (slot * 16) as u64, 0)?;
                                }
                                client.free(cap)?;
                            }
                        }
                    }

                    // The router later follows a stale entry (use-after-free!).
                    if let Some(slot) = stale_slot.take() {
                        uaf_attempts.fetch_add(1, Ordering::Relaxed);
                        let stale = client.load_cap(&table, (slot * 16) as u64)?;
                        if !stale.tag() || client.load_u64(&stale, 0).is_err() {
                            // The dangling capability was revoked — by a
                            // foreign sweep, the cross-shard barrier, or the
                            // shard's own epoch — before the router used it.
                            uaf_caught.fetch_add(1, Ordering::Relaxed);
                        }
                        // else: pre-sweep, the memory is still quarantined,
                        // so the read cannot observe another session's data.
                        client.store_u64(&table, (slot * 16) as u64, 0)?;
                    }
                }
                Ok(())
            }));
        }
        for worker in workers {
            worker.join().expect("worker thread")?;
        }
        Ok(())
    })?;

    // Drain whatever the background revoker hadn't gotten to yet.
    heap.revoke_all_now();

    let stats = heap.stats();
    let mallocs: u64 = stats.shards.iter().map(|s| s.mallocs).sum();
    println!(
        "server ran {WORKERS} workers x {ROUNDS} rounds, {mallocs} sessions allocated \
         across {} shards",
        stats.shards.len()
    );
    println!(
        "revocation: {} background epochs, {} foreign sweeps, \
         {} dangling capabilities revoked cross-shard, {} by the in-flight barrier",
        stats.epochs, stats.foreign_sweeps, stats.foreign_caps_revoked, stats.barrier_revocations
    );
    println!(
        "pauses: p50 {} µs, p99 {} µs, max {} µs over {} revoker lock holds \
         ({:.2} of {:.2} ms in peer sweeps)",
        stats.pauses.percentile(50.0) / 1_000,
        stats.pauses.percentile(99.0) / 1_000,
        stats.pauses.max_value() / 1_000,
        stats.pauses.count(),
        stats.foreign_sweep_secs * 1e3,
        stats.sweep_secs * 1e3
    );
    println!(
        "stale-pointer dereferences: {} attempted, {} faulted cleanly,\n\
         the rest read only quarantined (never-reallocated) memory",
        uaf_attempts.load(Ordering::Relaxed),
        uaf_caught.load(Ordering::Relaxed)
    );
    println!(
        "memory: {} KiB live at exit, quarantine drained to {} KiB",
        heap.live_bytes() >> 10,
        heap.quarantined_bytes() >> 10
    );
    assert!(
        stats.epochs > 0,
        "the service should have swept during churn"
    );
    assert_eq!(
        heap.quarantined_bytes(),
        0,
        "final drain leaves no quarantine"
    );
    Ok(())
}
