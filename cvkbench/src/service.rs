//! `service-churn`: a two-shard `ConcurrentHeap` whose background revoker
//! runs beside one mutator thread. The mutator alternates between one
//! client per shard, and its objects point across shards, so every epoch
//! runs the cross-shard foreign-sweep handshake.

use std::time::{Duration, Instant};

use cheri::Capability;
use cherivoke::fault::FaultInjector;
use cherivoke::{ConcurrentHeap, HeapClient, ServiceConfig};

use crate::run::{Counters, MemSamples, Probe, Recorder, Rng, Scale, Stash, Workload};

/// Live objects the mutator keeps.
const WORKING_SET: usize = 256;

pub struct Service {
    heap: ConcurrentHeap,
    clients: [HeapClient; 2],
    config: ServiceConfig,
    stash: Capability,
    stashed: Stash,
    live: Vec<Capability>,
    rng: Rng,
    turn: usize,
    mem: MemSamples,
}

impl Service {
    /// Returns the workload and the time spent populating its working set.
    pub fn setup(seed: u64, scale: Scale) -> Result<(Service, Duration), String> {
        let config = ServiceConfig {
            shards: 2,
            shard_heap_size: match scale {
                Scale::Full => 16 << 20,
                Scale::Tiny => 1 << 20,
            },
            ..ServiceConfig::default()
        };
        // Faults and journaling stay off whatever the environment says
        // (main refuses to run with either variable set).
        let heap = ConcurrentHeap::with_journal_dir(config, FaultInjector::disabled(), None)
            .map_err(|e| format!("service: {e}"))?;
        let clients = [heap.handle_on(0), heap.handle_on(1)];
        let stash = clients[0]
            .malloc(Stash::BYTES)
            .map_err(|e| format!("stash: {e}"))?;
        let t0 = Instant::now();
        let mut s = Service {
            heap,
            clients,
            config,
            stash,
            stashed: Stash::new(),
            live: Vec::with_capacity(WORKING_SET),
            rng: Rng::new(seed),
            turn: 0,
            // Each shard's shadow map is 1/128 of its heap.
            mem: MemSamples::new(config.shards as u64 * config.shard_heap_size / 128),
        };
        let mut fill = Recorder::new();
        while s.live.len() < WORKING_SET {
            s.step(&mut fill)?;
        }
        if fill.failed() > 0 {
            return Err(format!(
                "{} calls failed filling the working set",
                fill.failed()
            ));
        }
        Ok((s, t0.elapsed()))
    }

    fn sample(&mut self, rec: &mut Recorder) {
        if !rec.sample_due() {
            return;
        }
        let s = self.heap.stats();
        self.mem.sample(s.live_bytes(), s.quarantined_bytes());
        rec.block_end(s.epochs);
        // Sampling takes every shard lock; keep it out of the next op.
        rec.resync();
    }
}

impl Workload for Service {
    fn step(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let c = self.turn;
        self.turn ^= 1;
        if self.live.len() >= WORKING_SET {
            let victim = self
                .live
                .swap_remove(self.rng.below(self.live.len() as u64) as usize);
            if let Some(offset) = self.stashed.before_free() {
                let s = rec.start();
                let r = self.clients[c].store_cap(&self.stash, offset, &victim);
                let _ = rec.finish("store_cap", s, r, || self.revocations());
            }
            let s = rec.start();
            let r = self.clients[c].free(victim);
            let _ = rec.finish("free", s, r, || self.revocations());
        }
        let size = 64 + 16 * self.rng.below(46);
        let s = rec.start();
        let r = self.clients[c].malloc(size);
        if let Ok(obj) = rec.finish("malloc", s, r, || self.revocations()) {
            let s = rec.start();
            let r = self.clients[c].store_cap(&obj, 0, &obj);
            let _ = rec.finish("store_cap", s, r, || self.revocations());
            if !self.live.is_empty() {
                // Live objects come from both shards: half of these
                // pointers cross shards.
                let other = self.live[self.rng.below(self.live.len() as u64) as usize];
                let s = rec.start();
                let r = self.clients[c].store_cap(&obj, 16, &other);
                let _ = rec.finish("store_cap", s, r, || self.revocations());
                let from = self.live[self.rng.below(self.live.len() as u64) as usize];
                let s = rec.start();
                let r = self.clients[c].load_cap(&from, 16 * self.rng.below(2));
                let _ = rec.finish("load_cap", s, r, || self.revocations());
            }
            self.live.push(obj);
        }
        self.sample(rec);
        Ok(())
    }

    fn revocations(&self) -> u64 {
        self.heap.stats().epochs
    }

    fn probe(&self) -> Probe {
        Probe::Blocks
    }

    fn counters(&self) -> Counters {
        let s = self.heap.stats();
        let mut c = Counters {
            epochs: s.epochs,
            bytes_swept: s.bytes_swept,
            sweep_ns: (s.sweep_secs * 1e9) as u64,
            foreign_sweeps: s.foreign_sweeps,
            emergency_sweeps: s.emergency_sweeps,
            revoker_restarts: s.revoker_restarts,
            barrier_revocations: s.barrier_revocations,
            ..Counters::default()
        };
        for shard in &s.shards {
            let h = &shard.heap;
            c.bytes_painted += h.bytes_painted;
            c.pages_skipped += h.pages_skipped;
            c.caps_inspected += h.caps_inspected;
            c.caps_revoked += h.caps_revoked;
            c.internal_frees += h.alloc.internal_frees;
            c.drains += h.alloc.drains;
            c.barrier_revocations += h.barrier_revocations;
        }
        c
    }

    fn mem_overhead(&self) -> f64 {
        self.mem.mem_overhead()
    }

    fn peak_quarantine_frac(&self) -> f64 {
        self.mem.peak_quarantine_frac()
    }

    fn resolved(&self) -> String {
        let p = self.config.policy;
        format!(
            "kernel={:?} backend={:?} sweep_workers={} shards={} revoker=background",
            p.kernel, p.backend, p.sweep_workers, self.config.shards
        )
    }

    fn gate(&mut self) -> Result<(), String> {
        self.heap.revoke_all_now();
        for (shard, report) in self.heap.audit_all().iter().enumerate() {
            if !report.clean() {
                return Err(format!(
                    "audit: shard {shard}: {} capabilities reach reusable memory",
                    report.violations + report.reg_violations
                ));
            }
        }
        for offset in self.stashed.offsets() {
            let cap = self.clients[0]
                .load_cap(&self.stash, offset)
                .map_err(|e| format!("stash load: {e}"))?;
            if cap.tag() {
                return Err(format!(
                    "stash slot {offset}: a freed object's capability survived revocation"
                ));
            }
        }
        Ok(())
    }
}
