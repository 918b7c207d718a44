//! The CHERIvoke system-under-test adapter.

use std::collections::HashMap;

use cheri::Capability;
use cherivoke::{CherivokeHeap, HeapConfig, HeapStats, RevocationPolicy};

use crate::{MechanismBreakdown, Trace, WorkloadHeap};

/// Which constituent parts of CHERIvoke to charge for — the three bars of
/// Figure 6 (quarantine only → + shadow map → + sweeping). The underlying
/// mechanics always run in full; the stage only masks which costs count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Quarantine buffer only.
    QuarantineOnly,
    /// Quarantine + shadow-map maintenance.
    WithShadow,
    /// The complete system including memory sweeps.
    Full,
}

/// Calibrated unit costs for converting measured mechanism work into
/// virtual seconds — the same hybrid methodology as the paper (§5.2–5.3:
/// live allocator runs combined with offline sweep-rate measurements).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// A conventional `free()` on the baseline allocator (replaced by the
    /// quarantine push).
    pub t_free_s: f64,
    /// A quarantine push — "typically less than half the execution time of
    /// a real free" (§6.1.1).
    pub t_quarantine_free_s: f64,
    /// One internal free at drain time (after aggregation there are far
    /// fewer of these than program frees).
    pub t_internal_free_s: f64,
    /// Shadow-map painting rate in bytes/s of painted heap (wide aligned
    /// stores, §5.2; painting touches 1/128 of the painted bytes).
    pub paint_rate_bytes_s: f64,
    /// Sweep scan rate in bytes/s (fig. 7: the AVX2 kernel sustains
    /// ~8 GiB/s on the paper's machine).
    pub scan_rate_bytes_s: f64,
}

impl CostModel {
    /// Costs calibrated to the paper's x86 evaluation machine.
    pub fn x86_default() -> CostModel {
        CostModel {
            t_free_s: 80e-9,
            t_quarantine_free_s: 35e-9,
            t_internal_free_s: 60e-9,
            paint_rate_bytes_s: 30.0 * 1024.0 * 1024.0 * 1024.0,
            scan_rate_bytes_s: 8.0 * 1024.0 * 1024.0 * 1024.0,
        }
    }

    /// A cost model with a different sweep scan rate (e.g. the fig. 7
    /// kernels' measured rates).
    pub fn with_scan_rate(self, bytes_per_s: f64) -> CostModel {
        CostModel {
            scan_rate_bytes_s: bytes_per_s,
            ..self
        }
    }
}

/// A real [`CherivokeHeap`] driven by workload traces, accounting its costs
/// per the [`CostModel`].
///
/// See the crate-level example.
#[derive(Debug)]
pub struct CherivokeUnderTest {
    heap: CherivokeHeap,
    handles: HashMap<u64, Capability>,
    cost: CostModel,
    stage: Stage,
    cache_sensitivity: f64,
    app_seconds: f64,
    quarantine_s: f64,
    shadow_s: f64,
    sweep_s: f64,
    last: HeapStats,
    finished: bool,
}

impl CherivokeUnderTest {
    /// Builds the system under test for `trace` with explicit policy, cost
    /// model and fig. 6 stage.
    ///
    /// # Errors
    ///
    /// Returns an error if the heap cannot be constructed.
    pub fn new(
        trace: &Trace,
        policy: RevocationPolicy,
        cost: CostModel,
        stage: Stage,
    ) -> Result<CherivokeUnderTest, String> {
        // Headroom so quarantine growth does not force emergency sweeps:
        // the live target is 45% of the trace's nominal heap.
        let slack = 1.5 + policy.quarantine.fraction.min(4.0);
        let heap_size = cheri::granule_round_up((trace.heap_bytes as f64 * slack) as u64);
        let config = HeapConfig {
            heap_size,
            policy,
            ..HeapConfig::default()
        };
        let heap = CherivokeHeap::new(config).map_err(|e| e.to_string())?;
        let last = heap.stats();
        Ok(CherivokeUnderTest {
            heap,
            handles: HashMap::new(),
            cost,
            stage,
            cache_sensitivity: trace.profile.cache_sensitivity,
            app_seconds: trace.duration_s,
            quarantine_s: 0.0,
            shadow_s: 0.0,
            sweep_s: 0.0,
            last,
            finished: false,
        })
    }

    /// The paper's default configuration (25% quarantine, full system,
    /// x86 cost model).
    ///
    /// # Errors
    ///
    /// As [`CherivokeUnderTest::new`].
    pub fn paper_default(trace: &Trace) -> Result<CherivokeUnderTest, String> {
        CherivokeUnderTest::new(
            trace,
            RevocationPolicy::paper_default(),
            CostModel::x86_default(),
            Stage::Full,
        )
    }

    /// The underlying heap (inspection).
    pub fn heap(&self) -> &CherivokeHeap {
        &self.heap
    }

    /// Number of sweeps the policy has triggered so far.
    pub fn sweeps(&self) -> u64 {
        self.heap.stats().sweeps
    }

    /// Folds any newly-performed sweeps' measured work into the cost
    /// accounting.
    fn absorb_new_work(&mut self) {
        let now = self.heap.stats();
        let d_painted = now.bytes_painted - self.last.bytes_painted;
        let d_swept = now.bytes_swept - self.last.bytes_swept;
        let d_internal = now.alloc.internal_frees - self.last.alloc.internal_frees;
        // Painting writes 1/128 of the painted bytes, twice (paint + clear).
        self.shadow_s += 2.0 * (d_painted as f64 / 128.0) / self.cost.paint_rate_bytes_s;
        self.sweep_s += d_swept as f64 / self.cost.scan_rate_bytes_s;
        self.quarantine_s += d_internal as f64 * self.cost.t_internal_free_s;
        self.last = now;
    }

    /// The §6.1.1 / §6.4 temporal-fragmentation cache penalty: worst at
    /// small quarantines, easing as the quarantine grows (fig. 9's
    /// counterintuitive second effect).
    fn cache_penalty_s(&self) -> f64 {
        if self.cache_sensitivity == 0.0 {
            return 0.0;
        }
        let fraction = self.heap.policy().quarantine.fraction.max(0.01);
        self.cache_sensitivity * (0.25 / fraction).powf(0.7) * self.app_seconds
    }
}

impl WorkloadHeap for CherivokeUnderTest {
    fn malloc(&mut self, id: u64, size: u64) -> Result<(), String> {
        // Allocation cost equals the baseline's: no overhead charged.
        let cap = self
            .heap
            .malloc(size)
            .map_err(|e| format!("malloc {id}: {e}"))?;
        self.handles.insert(id, cap);
        self.absorb_new_work(); // malloc may have emergency-swept
        Ok(())
    }

    fn free(&mut self, id: u64) -> Result<(), String> {
        let cap = self
            .handles
            .remove(&id)
            .ok_or_else(|| format!("free of unknown id {id}"))?;
        self.heap.free(cap).map_err(|e| format!("free {id}: {e}"))?;
        // The program paid a quarantine push instead of a real free.
        self.quarantine_s += self.cost.t_quarantine_free_s - self.cost.t_free_s;
        self.absorb_new_work();
        Ok(())
    }

    fn write_ptr(&mut self, from: u64, slot: u64, to: u64) -> Result<(), String> {
        let from_cap = *self
            .handles
            .get(&from)
            .ok_or_else(|| format!("unknown holder {from}"))?;
        let to_cap = *self
            .handles
            .get(&to)
            .ok_or_else(|| format!("unknown target {to}"))?;
        // Pointer stores cost the same as on the baseline: no overhead.
        self.heap
            .store_cap(&from_cap, slot, &to_cap)
            .map_err(|e| format!("write_ptr {from}+{slot}: {e}"))
    }

    fn finish(&mut self) {
        self.absorb_new_work();
        self.finished = true;
    }

    fn mechanism(&self) -> MechanismBreakdown {
        let quarantine = self.quarantine_s + self.cache_penalty_s();
        match self.stage {
            Stage::QuarantineOnly => MechanismBreakdown {
                quarantine,
                ..Default::default()
            },
            Stage::WithShadow => MechanismBreakdown {
                quarantine,
                shadow: self.shadow_s,
                ..Default::default()
            },
            Stage::Full => MechanismBreakdown {
                quarantine,
                shadow: self.shadow_s,
                sweep: self.sweep_s,
                other: 0.0,
            },
        }
    }

    fn peak_footprint(&self) -> u64 {
        self.heap.stats().alloc.peak_footprint_bytes + self.heap.shadow_bytes()
    }

    fn peak_live(&self) -> u64 {
        self.heap.stats().alloc.peak_live_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{profiles, run_trace, TraceGenerator};

    fn trace(name: &str) -> Trace {
        TraceGenerator::new(profiles::by_name(name).unwrap(), 1.0 / 1024.0, 5).generate()
    }

    #[test]
    fn allocation_heavy_workload_sweeps_and_pays() {
        let t = trace("xalancbmk");
        let mut sut = CherivokeUnderTest::paper_default(&t).unwrap();
        let report = run_trace(&mut sut, &t).unwrap();
        assert!(sut.sweeps() > 0, "policy should have triggered sweeps");
        assert!(
            report.normalized_time > 1.05,
            "xalancbmk must show real overhead"
        );
        assert!(
            report.normalized_time < 2.0,
            "but not a blow-up: {report:?}"
        );
        assert!(report.breakdown.sweep > 0.0);
        // Memory: quarantine (25% of live) + shadow.
        assert!(report.normalized_memory > 1.05);
        assert!(report.normalized_memory < 1.6);
    }

    #[test]
    fn idle_workload_costs_nothing() {
        let t = trace("bzip2");
        let mut sut = CherivokeUnderTest::paper_default(&t).unwrap();
        let report = run_trace(&mut sut, &t).unwrap();
        assert_eq!(sut.sweeps(), 0);
        assert!((report.normalized_time - 1.0).abs() < 0.01, "{report:?}");
    }

    #[test]
    fn batching_makes_quarantine_cheap_or_free() {
        // dealII's quarantine component should be near zero or negative:
        // frees are replaced by cheaper pushes (§6.1.1).
        let t = trace("dealII");
        let mut sut = CherivokeUnderTest::paper_default(&t).unwrap();
        let report = run_trace(&mut sut, &t).unwrap();
        assert!(
            report.breakdown.quarantine < 0.0,
            "expected net batching gain, got {:?}",
            report.breakdown
        );
    }

    #[test]
    fn stages_are_cumulative() {
        let t = trace("omnetpp");
        let mut totals = Vec::new();
        for stage in [Stage::QuarantineOnly, Stage::WithShadow, Stage::Full] {
            let mut sut = CherivokeUnderTest::new(
                &t,
                cherivoke::RevocationPolicy::paper_default(),
                CostModel::x86_default(),
                stage,
            )
            .unwrap();
            let report = run_trace(&mut sut, &t).unwrap();
            totals.push(report.breakdown.total());
        }
        assert!(totals[0] <= totals[1] + 1e-12);
        assert!(totals[1] <= totals[2] + 1e-12);
    }

    #[test]
    fn bigger_quarantine_trades_memory_for_time() {
        let t = trace("xalancbmk");
        let mut time_small = 0.0;
        let mut time_big = 0.0;
        let mut mem_small = 0.0;
        let mut mem_big = 0.0;
        for (fraction, time, mem) in [
            (0.25, &mut time_small, &mut mem_small),
            (1.0, &mut time_big, &mut mem_big),
        ] {
            let mut sut = CherivokeUnderTest::new(
                &t,
                cherivoke::RevocationPolicy::with_fraction(fraction),
                CostModel::x86_default(),
                Stage::Full,
            )
            .unwrap();
            let report = run_trace(&mut sut, &t).unwrap();
            *time = report.normalized_time;
            *mem = report.normalized_memory;
        }
        assert!(time_big < time_small, "{time_big} !< {time_small}");
        assert!(mem_big > mem_small, "{mem_big} !> {mem_small}");
    }

    #[test]
    fn dangling_pointers_get_revoked_during_real_runs() {
        let t = trace("omnetpp");
        let mut sut = CherivokeUnderTest::paper_default(&t).unwrap();
        run_trace(&mut sut, &t).unwrap();
        let stats = sut.heap().stats();
        assert!(
            stats.caps_revoked > 0,
            "churny pointer-dense run must revoke something"
        );
    }
}

#[cfg(test)]
mod incremental_tests {
    use super::*;
    use crate::{profiles, run_trace, TraceGenerator};

    /// The §3.5 incremental mode replays full workloads with the same
    /// safety outcome as stop-the-world, at comparable cost.
    #[test]
    fn incremental_mode_replays_workloads_safely() {
        let p = profiles::by_name("xalancbmk").unwrap();
        let trace = TraceGenerator::new(p, 1.0 / 1024.0, 5).generate();

        let mut stw = CherivokeUnderTest::paper_default(&trace).unwrap();
        let stw_report = run_trace(&mut stw, &trace).unwrap();

        let mut policy = cherivoke::RevocationPolicy::paper_default();
        policy.incremental_slice_bytes = Some(32 << 10);
        let mut inc =
            CherivokeUnderTest::new(&trace, policy, CostModel::x86_default(), Stage::Full).unwrap();
        let inc_report = run_trace(&mut inc, &trace).unwrap();

        // Both modes revoke dangling capabilities (barrier + sweep for the
        // incremental run).
        let inc_stats = inc.heap().stats();
        assert!(
            inc_stats.sweeps > 0,
            "incremental mode must have run epochs"
        );
        assert!(
            inc_stats.caps_revoked + inc_stats.barrier_revocations > 0,
            "incremental run revoked nothing"
        );
        assert!(stw.heap().stats().caps_revoked > 0);

        // Costs stay in the same regime (incremental pays some extra work
        // for bounded pauses, but no blow-up).
        assert!(
            inc_report.normalized_time < stw_report.normalized_time * 2.5 + 0.1,
            "incremental {} vs stop-the-world {}",
            inc_report.normalized_time,
            stw_report.normalized_time
        );
    }
}
