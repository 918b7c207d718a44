//! pSweeper-style concurrent pointer sweeping (§7.1).

use workloads::{MechanismBreakdown, Trace, WorkloadHeap};

use crate::common::{BaseAlloc, BaselineCosts};

/// A pSweeper-style concurrent dangling-pointer sweeper.
///
/// pSweeper keeps *live pointer* metadata up to date with per-store
/// instrumentation and runs the sweep **concurrently on spare cores**, so
/// the main thread pays:
///
/// * a store barrier on every pointer write (cheaper than DangSan's
///   registry append, but on the same per-store scaling), and
/// * memory-bandwidth contention while the sweeper thread walks the heap.
///
/// Freed objects are batched until a concurrent sweep completes (a delay
/// window similar to CHERIvoke's quarantine), so memory overhead resembles
/// a quarantine plus the live-pointer metadata.
pub struct PSweeperHeap {
    base: BaseAlloc,
    costs: BaselineCosts,
    mech_seconds: f64,
    /// Bytes freed but awaiting the in-flight concurrent sweep.
    pending_free_bytes: u64,
    peak_pending: u64,
    metadata_bytes: u64,
    peak_metadata: u64,
    sweeps: u64,
    implied_rate: f64,
    duration_s: f64,
}

/// Live-pointer metadata bytes per tracked store.
const META_BYTES: u64 = 8;

impl PSweeperHeap {
    /// A pSweeper model over the trace's heap with default costs.
    pub fn new(trace: &Trace) -> PSweeperHeap {
        PSweeperHeap::with_costs(trace, BaselineCosts::default())
    }

    /// A pSweeper model with explicit costs.
    pub fn with_costs(trace: &Trace, costs: BaselineCosts) -> PSweeperHeap {
        PSweeperHeap {
            base: BaseAlloc::new(trace.heap_bytes),
            implied_rate: costs.implied_ptr_stores_per_s * trace.profile.pointer_page_density * 0.5, // lighter instrumentation coverage than DangSan
            costs,
            mech_seconds: 0.0,
            pending_free_bytes: 0,
            peak_pending: 0,
            metadata_bytes: 0,
            peak_metadata: 0,
            sweeps: 0,
            duration_s: trace.duration_s,
        }
    }

    /// Concurrent sweeps completed.
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    fn barrier(&mut self, count: u64) {
        self.mech_seconds += count as f64 * self.costs.t_ptr_barrier_s;
        // pSweeper's live-pointer metadata is bounded: it records *current*
        // pointer locations (overwritten slots are updated in place), so it
        // cannot exceed the live heap's pointer-slot capacity.
        let cap = self.base.alloc.stats().live_bytes / 4;
        self.metadata_bytes = (self.metadata_bytes + count * META_BYTES).min(cap);
        self.peak_metadata = self.peak_metadata.max(self.metadata_bytes);
    }

    fn maybe_sweep(&mut self) {
        let live = self.base.alloc.stats().live_bytes;
        if self.pending_free_bytes * 4 >= live.max(1) {
            // The sweeper walks live memory on another core; the main
            // thread only pays the contention fraction of that walk.
            let sweep_s = live as f64 / self.costs.psweep_scan_rate_bytes_s;
            self.mech_seconds += sweep_s * self.costs.sweeper_contention;
            self.pending_free_bytes = 0;
            self.metadata_bytes /= 2; // stale metadata pruned by the sweep
            self.sweeps += 1;
        }
    }
}

impl WorkloadHeap for PSweeperHeap {
    fn malloc(&mut self, id: u64, size: u64) -> Result<(), String> {
        self.base.malloc(id, size)?;
        self.barrier(1); // the returned pointer's first store
        Ok(())
    }

    fn free(&mut self, id: u64) -> Result<(), String> {
        let size = self.base.free(id)?;
        self.pending_free_bytes += size;
        self.peak_pending = self.peak_pending.max(self.pending_free_bytes);
        self.maybe_sweep();
        Ok(())
    }

    fn write_ptr(&mut self, _from: u64, _slot: u64, _to: u64) -> Result<(), String> {
        self.barrier(1);
        Ok(())
    }

    fn finish(&mut self) {
        // Background pointer-store stream (see DangSan).
        let implied = (self.implied_rate * self.duration_s) as u64;
        self.barrier(implied);
    }

    fn mechanism(&self) -> MechanismBreakdown {
        MechanismBreakdown {
            other: self.mech_seconds,
            ..Default::default()
        }
    }

    fn peak_footprint(&self) -> u64 {
        self.base.peak_live() + self.peak_pending + self.peak_metadata
    }

    fn peak_live(&self) -> u64 {
        self.base.peak_live()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{profiles, run_trace, TraceGenerator};

    fn trace(name: &str) -> Trace {
        TraceGenerator::new(profiles::by_name(name).unwrap(), 1.0 / 2048.0, 19).generate()
    }

    #[test]
    fn concurrency_keeps_overhead_below_dangsan() {
        let t = trace("omnetpp");
        let mut p = PSweeperHeap::new(&t);
        let p_report = run_trace(&mut p, &t).unwrap();
        let mut d = crate::DangSanHeap::new(&t);
        let d_report = run_trace(&mut d, &t).unwrap();
        assert!(p.sweeps() > 0);
        assert!(
            p_report.normalized_time < d_report.normalized_time,
            "pSweeper {} should beat DangSan {}",
            p_report.normalized_time,
            d_report.normalized_time
        );
        assert!(p_report.normalized_time > 1.0);
    }

    #[test]
    fn frees_are_delayed_until_sweep() {
        let t = trace("bzip2");
        let mut p = PSweeperHeap::new(&t);
        for i in 0..8 {
            p.malloc(i, 4096).unwrap();
        }
        p.free(0).unwrap();
        assert!(p.pending_free_bytes > 0);
        // Free enough to cross the 25% threshold.
        for i in 1..8 {
            p.free(i).unwrap();
        }
        assert_eq!(p.pending_free_bytes, 0, "sweep should have drained");
        assert!(p.sweeps() >= 1);
    }
}
