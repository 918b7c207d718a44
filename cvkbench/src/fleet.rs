//! `fleet-zipf`: a 64-tenant `HeapService` with one sweep worker, driven
//! by one thread that picks tenants with Zipfian weights. Tenants hold at
//! most eight small objects, so epochs are tiny and frequent: per-epoch
//! fixed cost and the debt scheduler dominate, not the sweep kernel.

use std::time::{Duration, Instant};

use cheri::Capability;
use cherivoke::fault::FaultInjector;
use cherivoke::fleet::{FleetConfig, FleetError, HeapService, TenantPolicy};
use cherivoke::RevocationPolicy;
use workloads::profiles;

use crate::run::{Counters, MemSamples, Probe, Recorder, Rng, Scale, Stash, Workload};

const TENANTS: usize = 64;
/// Live objects per tenant.
const PER_TENANT: usize = 8;
/// Back-off after a throttled malloc, before retrying the same call.
const BACKOFF: Duration = Duration::from_micros(50);
/// A malloc throttled this many times in a row counts as failed.
const MAX_RETRIES: u32 = 1_000;

pub struct Fleet {
    service: HeapService,
    config: FleetConfig,
    /// Cumulative Zipfian weights, tenant 0 heaviest.
    cdf: Vec<f64>,
    stashes: Vec<Capability>,
    stashed: Stash,
    live: Vec<Vec<Capability>>,
    live_bytes: u64,
    rng: Rng,
    mem: MemSamples,
    peak_budget: f64,
}

impl Fleet {
    /// Returns the workload and the time spent dealing tenant weights
    /// and allocating the stashes.
    pub fn setup(seed: u64, scale: Scale) -> Result<(Fleet, Duration), String> {
        let tenant_heap_size = match scale {
            Scale::Full => 512 << 10,
            Scale::Tiny => 256 << 10,
        };
        let quota = 128 << 10;
        let config = FleetConfig {
            tenants: TENANTS,
            tenant_heap_size,
            global_ceiling: TENANTS as u64 * quota,
            workers: 1,
            policy: RevocationPolicy::paper_default(),
            tenant_policy: TenantPolicy {
                quarantine_quota: quota,
                ..TenantPolicy::default()
            },
            ..FleetConfig::default()
        };
        let service = HeapService::with_journal_dir(config, FaultInjector::disabled(), None)
            .map_err(|e| format!("fleet: {e}"))?;
        let t0 = Instant::now();
        let fleet = profiles::zipfian_fleet(TENANTS, 1.2, seed);
        let mut acc = 0.0;
        let cdf = fleet
            .tenants()
            .iter()
            .map(|t| {
                acc += t.weight;
                acc
            })
            .collect();
        let stashes = (0..TENANTS)
            .map(|t| service.malloc(t, Stash::BYTES))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("stash: {e}"))?;
        let stash_bytes = stashes.iter().map(|c| c.length()).sum();
        Ok((
            Fleet {
                service,
                config,
                cdf,
                stashes,
                stashed: Stash::new(),
                live: (0..TENANTS)
                    .map(|_| Vec::with_capacity(PER_TENANT))
                    .collect(),
                live_bytes: stash_bytes,
                rng: Rng::new(seed),
                // Each tenant's shadow map is 1/128 of its heap.
                mem: MemSamples::new(TENANTS as u64 * tenant_heap_size / 128),
                peak_budget: 0.0,
            },
            t0.elapsed(),
        ))
    }

    fn pick_tenant(&mut self) -> usize {
        let u = self.rng.unit() * self.cdf[TENANTS - 1];
        self.cdf.partition_point(|&c| c <= u).min(TENANTS - 1)
    }

    /// One malloc op: throttled attempts back off and retry the same
    /// call, so backpressure shows up as latency.
    fn malloc(&mut self, rec: &mut Recorder, tenant: usize, size: u64) -> Option<Capability> {
        let s = rec.start();
        let mut retries = 0;
        let r = loop {
            let attempt = rec.stamp();
            match self.service.malloc(tenant, size) {
                Err(FleetError::TenantThrottled { .. }) if retries < MAX_RETRIES => {
                    rec.child("throttled", attempt);
                    let backoff = rec.stamp();
                    self.service.kick();
                    std::thread::sleep(BACKOFF);
                    rec.child("backoff", backoff);
                    retries += 1;
                }
                other => break other,
            }
        };
        rec.finish("malloc", s, r, || self.revocations()).ok()
    }

    fn sample(&mut self, rec: &mut Recorder) {
        if !rec.sample_due() {
            return;
        }
        let s = self.service.stats();
        self.mem.sample(self.live_bytes, s.global_quarantined);
        self.peak_budget = self.peak_budget.max(s.max_budget_fraction());
        rec.block_end(s.epochs);
        // The snapshot reads every tenant; keep it out of the next op.
        rec.resync();
    }
}

impl Workload for Fleet {
    fn step(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let t = self.pick_tenant();
        if self.live[t].len() >= PER_TENANT {
            let victim = self.live[t].swap_remove(self.rng.below(PER_TENANT as u64) as usize);
            self.live_bytes -= victim.length();
            if let Some(offset) = self.stashed.before_free() {
                let s = rec.start();
                let r = self.service.store_cap(&self.stashes[t], offset, &victim);
                let _ = rec.finish("store_cap", s, r, || self.revocations());
            }
            let s = rec.start();
            let r = self.service.free(victim);
            let _ = rec.finish("free", s, r, || self.revocations());
        }
        let size = 512 + 16 * self.rng.below(197);
        if let Some(obj) = self.malloc(rec, t, size) {
            let s = rec.start();
            let r = self.service.store_cap(&obj, 0, &obj);
            let _ = rec.finish("store_cap", s, r, || self.revocations());
            self.live_bytes += obj.length();
            self.live[t].push(obj);
        }
        self.sample(rec);
        Ok(())
    }

    fn revocations(&self) -> u64 {
        self.service.stats().epochs
    }

    fn probe(&self) -> Probe {
        Probe::Blocks
    }

    fn counters(&self) -> Counters {
        let s = self.service.stats();
        Counters {
            epochs: s.epochs,
            sweep_ns: s.pauses.sum,
            emergency_sweeps: s.emergency_sweeps,
            throttled: s.throttled,
            steals: s.steals,
            ..Counters::default()
        }
    }

    fn mem_overhead(&self) -> f64 {
        self.mem.mem_overhead()
    }

    fn peak_quarantine_frac(&self) -> f64 {
        self.mem.peak_quarantine_frac()
    }

    fn max_budget_fraction(&self) -> f64 {
        self.peak_budget
    }

    fn resolved(&self) -> String {
        let p = self.config.policy;
        format!(
            "kernel={:?} backend={:?} sweep_workers={} tenants={} fleet_workers={}",
            p.kernel, p.backend, p.sweep_workers, self.config.tenants, self.config.workers
        )
    }

    fn gate(&mut self) -> Result<(), String> {
        self.service.drain_all();
        let budget = self.service.stats().max_budget_fraction();
        self.peak_budget = self.peak_budget.max(budget);
        if self.peak_budget > 1.0 {
            return Err(format!(
                "a tenant's quarantine reached {:.3} of its quota",
                self.peak_budget
            ));
        }
        for (tenant, report) in self.service.audit_all().iter().enumerate() {
            if !report.clean() {
                return Err(format!(
                    "audit: tenant {tenant}: {} capabilities reach reusable memory",
                    report.violations + report.reg_violations
                ));
            }
        }
        for (tenant, stash) in self.stashes.iter().enumerate() {
            for offset in self.stashed.offsets() {
                let cap = self
                    .service
                    .load_cap(stash, offset)
                    .map_err(|e| format!("stash load: {e}"))?;
                if cap.tag() {
                    return Err(format!(
                        "tenant {tenant} stash slot {offset}: a freed object's capability \
                         survived revocation"
                    ));
                }
            }
        }
        Ok(())
    }
}
