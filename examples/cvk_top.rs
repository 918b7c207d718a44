//! `cvk-top`: a `top`-style live view of a running [`cherivoke::ConcurrentHeap`],
//! built entirely on the telemetry subsystem.
//!
//! ```sh
//! cargo run --release --example cvk_top -- [--ticks N] [--interval-ms MS] [--prometheus]
//! ```
//!
//! The example starts the concurrent revocation service with telemetry
//! enabled, runs a pool of mutator threads churning allocations against it,
//! and tails the service's [`telemetry::Registry`]: each tick diffs the
//! latest [`telemetry::MetricsSnapshot`] against the previous one
//! ([`MetricsSnapshot::delta`]) to print *rates* — allocations/s, sweep
//! bandwidth, pause percentiles — plus the newest lifecycle events from the
//! event ring. With `--prometheus`, the final snapshot is dumped in
//! Prometheus text format instead of JSON.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cherivoke::{ConcurrentHeap, ServiceConfig};
use telemetry::MetricsSnapshot;

const WORKERS: usize = 4;

fn arg(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

fn rate(delta: &MetricsSnapshot, name: &str, secs: f64) -> f64 {
    delta.counters.get(name).copied().unwrap_or(0) as f64 / secs
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ticks: u64 = arg("--ticks").map_or(10, |v| v.parse().expect("--ticks N"));
    let interval_ms: u64 =
        arg("--interval-ms").map_or(200, |v| v.parse().expect("--interval-ms MS"));
    let prometheus = std::env::args().any(|a| a == "--prometheus");

    let mut config = ServiceConfig::small();
    config.policy.quarantine.fraction = 0.25;
    config.telemetry = true;
    let heap = ConcurrentHeap::new(config)?;

    // The mutator pool: each worker churns differently-sized sessions so
    // the quarantine fills and the background revoker has work to report.
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| -> Result<(), Box<dyn std::error::Error>> {
        for w in 0..WORKERS {
            let client = heap.handle();
            let stop = &stop;
            scope.spawn(move || {
                // A stash of pointers gives every sweep real capability
                // pages to walk (and dangling copies to revoke).
                let stash = client.malloc(64 * 16).expect("stash");
                let mut held = Vec::new();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let c = match client.malloc(64 + (i % 8) * 48) {
                        Ok(c) => c,
                        Err(_) => continue, // OOM revocation path retried for us
                    };
                    client.store_u64(&c, 0, i).unwrap();
                    client.store_cap(&stash, (i % 64) * 16, &c).unwrap();
                    held.push(c);
                    if held.len() > 32 {
                        let victim = held.swap_remove(((i + w as u64) % 32) as usize);
                        client.free(victim).unwrap();
                    }
                    i += 1;
                }
                for c in held {
                    client.free(c).unwrap();
                }
                client.free(stash).unwrap();
            });
        }

        // The "top" loop: snapshot, diff, render.
        println!(
            "{:>5} {:>10} {:>10} {:>12} {:>10} {:>10} {:>9}",
            "tick", "malloc/s", "free/s", "sweep MiB/s", "p50 µs", "p99 µs", "quar KiB"
        );
        let mut prev = heap.snapshot();
        let mut last = Instant::now();
        for tick in 1..=ticks {
            std::thread::sleep(Duration::from_millis(interval_ms));
            let now = Instant::now();
            let secs = (now - last).as_secs_f64().max(1e-9);
            last = now;
            let snap = heap.snapshot();
            let delta = snap.delta(&prev);
            let pauses = snap
                .histograms
                .get("cvk_service_pause_ns")
                .cloned()
                .unwrap_or_default();
            println!(
                "{:>5} {:>10.0} {:>10.0} {:>12.1} {:>10} {:>10} {:>9}",
                tick,
                rate(&delta, "cvk_alloc_mallocs_total", secs),
                rate(&delta, "cvk_alloc_frees_total", secs),
                rate(&delta, "cvk_sweep_bytes_total", secs) / (1 << 20) as f64,
                pauses.percentile(50.0) / 1_000,
                pauses.percentile(99.0) / 1_000,
                snap.gauges
                    .get("cvk_alloc_quarantined_bytes")
                    .copied()
                    .unwrap_or(0)
                    >> 10,
            );
            prev = snap;
        }
        stop.store(true, Ordering::Relaxed);
        Ok(())
    })?;

    heap.revoke_all_now();

    // The newest lifecycle events, straight off the ring.
    println!("\nrecent events:");
    for e in heap.telemetry().recent_events(8) {
        println!("  {e}");
    }

    let snap = heap.snapshot();
    println!("\nfinal snapshot:");
    if prometheus {
        println!("{}", snap.to_prometheus());
    } else {
        println!("{}", snap.to_json());
    }

    assert!(
        snap.counters.get("cvk_sweeps_total").copied().unwrap_or(0) > 0,
        "the service should have swept during churn"
    );
    Ok(())
}
