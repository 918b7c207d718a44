//! The two single-heap workloads: `xalanc-replay` (allocator, quarantine
//! drain and journal bound) and `dense-sweep` (sweep-kernel and shadow
//! bound). Both run one `CherivokeHeap` with the paper's stop-the-world
//! policy on the load thread, so every revocation runs inside a call.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cheri::Capability;
use cherivoke::{CherivokeHeap, HeapConfig, RevocationPolicy};
use workloads::{profiles, TraceGenerator, TraceOp};

use crate::run::{Counters, MemSamples, Recorder, Rng, Scale, Stash, Workload};

fn counters(heap: &CherivokeHeap) -> Counters {
    let s = heap.stats();
    Counters {
        epochs: s.sweeps,
        bytes_swept: s.bytes_swept,
        bytes_painted: s.bytes_painted,
        pages_skipped: s.pages_skipped,
        caps_inspected: s.caps_inspected,
        caps_revoked: s.caps_revoked,
        internal_frees: s.alloc.internal_frees,
        drains: s.alloc.drains,
        emergency_sweeps: s.oom_sweeps,
        barrier_revocations: s.barrier_revocations,
        ..Counters::default()
    }
}

fn resolved(heap: &CherivokeHeap) -> String {
    let p = heap.policy();
    format!(
        "kernel={:?} backend={:?} sweep_workers={}",
        p.kernel, p.backend, p.sweep_workers
    )
}

/// The shared half of both workloads: the heap, the stash, and the
/// memory samples.
struct Single {
    heap: CherivokeHeap,
    stash: Capability,
    stashed: Stash,
    mem: MemSamples,
}

impl Single {
    fn new(heap_size: u64) -> Result<Single, String> {
        let mut heap = CherivokeHeap::new(HeapConfig {
            heap_size,
            policy: RevocationPolicy::paper_default(),
            ..HeapConfig::default()
        })
        .map_err(|e| format!("heap: {e}"))?;
        let stash = heap
            .malloc(Stash::BYTES)
            .map_err(|e| format!("stash: {e}"))?;
        Ok(Single {
            mem: MemSamples::new(heap.shadow_bytes()),
            heap,
            stash,
            stashed: Stash::new(),
        })
    }

    /// Stop-the-world revocations so far.
    fn sweeps(&self) -> u64 {
        self.heap.stats().sweeps
    }

    fn malloc(&mut self, rec: &mut Recorder, size: u64) -> Option<Capability> {
        let s = rec.start();
        let r = self.heap.malloc(size);
        rec.finish("malloc", s, r, || self.sweeps()).ok()
    }

    fn store_cap(
        &mut self,
        rec: &mut Recorder,
        holder: &Capability,
        offset: u64,
        cap: &Capability,
    ) {
        let s = rec.start();
        let r = self.heap.store_cap(holder, offset, cap);
        let _ = rec.finish("store_cap", s, r, || self.sweeps());
    }

    fn free(&mut self, rec: &mut Recorder, cap: Capability) {
        if let Some(offset) = self.stashed.before_free() {
            let stash = self.stash;
            self.store_cap(rec, &stash, offset, &cap);
        }
        let s = rec.start();
        let r = self.heap.free(cap);
        let _ = rec.finish("free", s, r, || self.sweeps());
    }

    fn sample(&mut self, rec: &mut Recorder) {
        if rec.sample_due() {
            self.mem
                .sample(self.heap.live_bytes(), self.heap.quarantined_bytes());
        }
    }

    fn gate(&mut self) -> Result<(), String> {
        self.heap.revoke_now();
        let report = self.heap.audit();
        if !report.clean() {
            return Err(format!(
                "audit: {} capabilities and {} registers reach reusable memory",
                report.violations, report.reg_violations
            ));
        }
        for offset in self.stashed.offsets() {
            let cap = self
                .heap
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

/// The epoch journal's directory under `root`, unique to this process and
/// set-up, removed when dropped.
struct JournalDir(PathBuf);

impl JournalDir {
    fn new(root: &Path) -> Result<JournalDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(format!("journal-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(JournalDir(dir))
    }
}

impl Drop for JournalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `xalanc-replay`: a Table 2 xalancbmk trace, replayed pass after pass.
pub struct Xalanc {
    single: Single,
    events: Vec<TraceOp>,
    handles: Vec<Option<Capability>>,
    cursor: usize,
    journal: PathBuf,
    _dir: JournalDir,
}

impl Xalanc {
    /// Returns the workload and the time spent generating its trace.
    pub fn setup(seed: u64, scale: Scale, out: &Path) -> Result<(Xalanc, Duration), String> {
        let t0 = Instant::now();
        let profile = profiles::by_name("xalancbmk").expect("Table 2 lists xalancbmk");
        let trace = match scale {
            // Heap scale 1/64: 0.6 s of the trace's virtual time at
            // xalancbmk's 811 k frees/s, capped at 1.2 M events.
            Scale::Full => TraceGenerator::new(profile, 1.0 / 64.0, seed)
                .with_duration(0.6)
                .with_max_events(1_200_000),
            Scale::Tiny => TraceGenerator::new(profile, 1.0 / 1024.0, seed).with_max_events(20_000),
        }
        .generate();
        let events: Vec<TraceOp> = trace.events.iter().map(|e| e.op).collect();
        let ids = events
            .iter()
            .filter(|op| matches!(op, TraceOp::Malloc { .. }))
            .count();
        let inputs = t0.elapsed();
        // Sized the way the figure 5 adapter sizes it: the trace's heap
        // plus room for the quarantine, so no sweep is an emergency one.
        let policy = RevocationPolicy::paper_default();
        let slack = 1.5 + policy.quarantine.fraction.min(4.0);
        let heap_size = cheri::granule_round_up((trace.heap_bytes as f64 * slack) as u64);
        let mut single = Single::new(heap_size)?;
        let dir = JournalDir::new(out)?;
        let journal = dir.0.join("heap.cvj");
        let j = journal::Journal::create(&journal)
            .map_err(|e| format!("journal {}: {e}", journal.display()))?;
        single.heap.set_journal(j);
        Ok((
            Xalanc {
                single,
                events,
                handles: vec![None; ids],
                cursor: 0,
                journal,
                _dir: dir,
            },
            inputs,
        ))
    }
}

impl Workload for Xalanc {
    fn step(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let Some(&op) = self.events.get(self.cursor) else {
            // End of a pass: free what the trace left live, start over.
            for h in &mut self.handles {
                if let Some(cap) = h.take() {
                    self.single.free(rec, cap);
                }
            }
            self.cursor = 0;
            return Ok(());
        };
        self.cursor += 1;
        // An object whose malloc failed is skipped by later events; the
        // failure is already counted.
        match op {
            TraceOp::Malloc { id, size } => {
                self.handles[id as usize] = self.single.malloc(rec, size);
            }
            TraceOp::Free { id } => {
                if let Some(cap) = self.handles[id as usize].take() {
                    self.single.free(rec, cap);
                }
            }
            TraceOp::WritePtr { from, slot, to } => {
                if let (Some(holder), Some(target)) =
                    (self.handles[from as usize], self.handles[to as usize])
                {
                    self.single.store_cap(rec, &holder, slot, &target);
                }
            }
        }
        self.single.sample(rec);
        Ok(())
    }

    fn revocations(&self) -> u64 {
        self.single.sweeps()
    }

    fn counters(&self) -> Counters {
        Counters {
            journal_bytes: std::fs::metadata(&self.journal).map_or(0, |m| m.len()),
            ..counters(&self.single.heap)
        }
    }

    fn mem_overhead(&self) -> f64 {
        self.single.mem.mem_overhead()
    }

    fn peak_quarantine_frac(&self) -> f64 {
        self.single.mem.peak_quarantine_frac()
    }

    fn resolved(&self) -> String {
        format!("{} journal=on", resolved(&self.single.heap))
    }

    fn gate(&mut self) -> Result<(), String> {
        if !self.single.heap.journal_active() {
            return Err("the epoch journal degraded during the run".into());
        }
        self.single.gate()
    }
}

/// `dense-sweep`: a 64 MiB heap held 55% live with capability-dense
/// objects, churned one object at a time.
pub struct Dense {
    single: Single,
    live: Vec<Capability>,
    live_bytes: u64,
    target: u64,
    rng: Rng,
    min_size: u64,
    max_size: u64,
}

impl Dense {
    /// A capability every this many bytes of every object.
    const CAP_STRIDE: u64 = 256;

    /// Returns the workload and the time spent filling its live set.
    pub fn setup(seed: u64, scale: Scale) -> Result<(Dense, Duration), String> {
        let (heap_size, min_size, max_size) = match scale {
            Scale::Full => (64 << 20, 4 << 10, 32 << 10),
            Scale::Tiny => (2 << 20, 1 << 10, 4 << 10),
        };
        let single = Single::new(heap_size)?;
        let t0 = Instant::now();
        let mut d = Dense {
            single,
            live: Vec::new(),
            live_bytes: 0,
            target: heap_size * 55 / 100,
            rng: Rng::new(seed),
            min_size,
            max_size,
        };
        // The fill runs the same calls as the churn, unrecorded.
        let mut fill = Recorder::new();
        while d.live_bytes < d.target {
            d.grow(&mut fill);
        }
        if fill.failed() > 0 {
            return Err(format!("{} calls failed filling the heap", fill.failed()));
        }
        Ok((d, t0.elapsed()))
    }

    fn grow(&mut self, rec: &mut Recorder) {
        let span = (self.max_size - self.min_size) / 16 + 1;
        let size = self.min_size + 16 * self.rng.below(span);
        let Some(obj) = self.single.malloc(rec, size) else {
            return;
        };
        self.live.push(obj);
        self.live_bytes += obj.length();
        for offset in (0..obj.length()).step_by(Self::CAP_STRIDE as usize) {
            let target = self.live[self.rng.below(self.live.len() as u64) as usize];
            self.single.store_cap(rec, &obj, offset, &target);
        }
    }
}

impl Workload for Dense {
    fn step(&mut self, rec: &mut Recorder) -> Result<(), String> {
        if self.live_bytes >= self.target {
            let victim = self.rng.below(self.live.len() as u64) as usize;
            let cap = self.live.swap_remove(victim);
            self.live_bytes -= cap.length();
            self.single.free(rec, cap);
        } else {
            self.grow(rec);
        }
        self.single.sample(rec);
        Ok(())
    }

    fn revocations(&self) -> u64 {
        self.single.sweeps()
    }

    fn counters(&self) -> Counters {
        counters(&self.single.heap)
    }

    fn mem_overhead(&self) -> f64 {
        self.single.mem.mem_overhead()
    }

    fn peak_quarantine_frac(&self) -> f64 {
        self.single.mem.peak_quarantine_frac()
    }

    fn resolved(&self) -> String {
        format!("{} journal=off", resolved(&self.single.heap))
    }

    fn gate(&mut self) -> Result<(), String> {
        self.single.gate()
    }
}

#[cfg(test)]
impl Dense {
    /// Breaks the heap's safety invariant the way a buggy revoker would:
    /// a tagged capability to an object that has been freed, swept and
    /// recycled, written straight into memory past every barrier.
    pub fn plant_dangling_capability(&mut self) {
        let holder = self.live[0];
        let victim = self.live.pop().expect("a filled heap");
        self.single.heap.free(victim).unwrap();
        self.single.heap.revoke_now();
        self.single
            .heap
            .space_mut()
            .store_cap(holder.address(), &victim)
            .unwrap();
    }
}
