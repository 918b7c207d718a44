//! The scalability lab: a declarative experiment matrix over
//! {workload × kernel × sweep workers × fault plan}, executed in-process.
//!
//! This is the library `cargo xtask lab` drives. Each matrix point runs
//! three measurements against the *same* configuration, and keeps only
//! what is deterministic or an invariant — speed is `cargo xtask ab`'s to
//! measure:
//!
//! 1. **Service churn** — [`crate::service::churn`]: mutator threads over
//!    a 4-shard [`cherivoke::ConcurrentHeap`] whose shards sweep with the
//!    experiment's kernel/workers, and whose fault injector is the
//!    experiment's fault plan. Every repeat must keep its peak quarantine
//!    under the policy bound.
//! 2. **Workload overhead** — the fig. 5 replay: the workload's synthetic
//!    trace against a real [`cherivoke::CherivokeHeap`] with the paper's
//!    cost model, yielding normalised time/memory vs the unprotected
//!    baseline. Deterministic for a given seed and scale, so it gates
//!    hard in CI.
//! 3. **CapDirty probe** — [`swept_fraction_probe`]: how much of the
//!    sweepable space one revocation pass visits. Pure counts.
//!
//! Experiments run one at a time (never concurrently).

use cherivoke::fault::FaultPlan;
use revoker::Kernel;
use serde::Serialize;
use workloads::{profiles, run_trace, CherivokeUnderTest, CostModel, Stage, TraceGenerator};

use crate::service::{churn, ChurnParams, FaultMode};

/// The fault plan the lab's `chaos-smoke` dimension arms: every
/// *self-healing* fault point (worker panics, tag read errors, barrier
/// delays, revoker death) on a small deterministic schedule. Alloc-failure
/// injection is deliberately excluded — it makes mutator mallocs fail by
/// design, which is a recovery-path test (`crates/cherivoke/tests/chaos.rs`),
/// not a throughput experiment.
pub const CHAOS_SMOKE_PLAN: &str =
    "worker_panic@4/8x4,tag_read_error@6/10x3,barrier_delay@2/4x2,revoker_death@1/3x2";

/// The matrix: every combination of the four axes is one experiment.
#[derive(Debug, Clone, Serialize)]
pub struct LabMatrix {
    /// Table-2 workload names (`omnetpp`, `xalancbmk`, …).
    pub workloads: Vec<String>,
    /// Kernel names: `reference`, `unrolled`, `fast`, `simd`.
    pub kernels: Vec<String>,
    /// Sweep worker counts per sweep (1 = the calling thread).
    pub sweep_workers: Vec<usize>,
    /// Fault plans: `off` or `chaos-smoke`.
    pub fault_plans: Vec<String>,
}

impl LabMatrix {
    /// The reduced matrix CI runs on every PR (2 experiments): its
    /// workload axis at the paper default's kernel (`simd`) and worker
    /// count (1). Every gated metric reads the same for every kernel and
    /// worker count, which the revoker's kernel-equivalence property
    /// proves, so only [`LabMatrix::full`] varies them.
    pub fn smoke() -> LabMatrix {
        LabMatrix {
            workloads: vec!["omnetpp".into(), "xalancbmk".into()],
            kernels: vec!["simd".into()],
            sweep_workers: vec![1],
            fault_plans: vec!["off".into()],
        }
    }

    /// The full characterisation matrix (the paper's axes: 4 workloads ×
    /// 4 kernels × 4 worker counts × 2 fault plans = 128 experiments).
    pub fn full() -> LabMatrix {
        LabMatrix {
            workloads: vec![
                "omnetpp".into(),
                "xalancbmk".into(),
                "dealII".into(),
                "mcf".into(),
            ],
            kernels: vec![
                "reference".into(),
                "unrolled".into(),
                "fast".into(),
                "simd".into(),
            ],
            sweep_workers: vec![1, 2, 4, 8],
            fault_plans: vec!["off".into(), "chaos-smoke".into()],
        }
    }

    /// Expands the matrix into its experiment list, in deterministic
    /// order (workload-major, fault-plan-minor).
    pub fn expand(&self) -> Vec<ExperimentConfig> {
        let mut out = Vec::new();
        for workload in &self.workloads {
            for kernel in &self.kernels {
                for &workers in &self.sweep_workers {
                    for fault_plan in &self.fault_plans {
                        out.push(ExperimentConfig {
                            workload: workload.clone(),
                            kernel: kernel.clone(),
                            sweep_workers: workers,
                            fault_plan: fault_plan.clone(),
                        });
                    }
                }
            }
        }
        out
    }
}

/// One point of the matrix.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentConfig {
    /// Table-2 workload name.
    pub workload: String,
    /// Kernel name (`reference` / `unrolled` / `fast` / `simd`).
    pub kernel: String,
    /// Sweep workers per sweep.
    pub sweep_workers: usize,
    /// Fault plan name (`off` / `chaos-smoke`).
    pub fault_plan: String,
}

impl ExperimentConfig {
    /// Stable experiment id: `workload/kernel/wN/faults` — the key the
    /// trajectory diff joins baseline and current runs on.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/w{}/{}",
            self.workload, self.kernel, self.sweep_workers, self.fault_plan
        )
    }

    fn kernel(&self) -> Result<Kernel, String> {
        match self.kernel.as_str() {
            "reference" => Ok(Kernel::Simple),
            "unrolled" => Ok(Kernel::Unrolled),
            "fast" => Ok(Kernel::Fast),
            "simd" => Ok(Kernel::Simd),
            other => Err(format!("unknown kernel '{other}'")),
        }
    }

    fn fault_mode(&self) -> Result<FaultMode, String> {
        match self.fault_plan.as_str() {
            "off" => Ok(FaultMode::Disabled),
            "chaos-smoke" => Ok(FaultMode::Plan(
                FaultPlan::parse(CHAOS_SMOKE_PLAN).expect("chaos-smoke plan parses"),
            )),
            other => Err(format!("unknown fault plan '{other}'")),
        }
    }
}

/// The fleet grid both modes run, as `(tenants, Zipfian skew, sweep
/// workers)` cells in deterministic order (tenants-major, workers-minor):
/// each cell is one multi-tenant `HeapService` churn
/// ([`crate::fleet::run_fleet_cell`]); the full mode drives each cell
/// harder. The 128-tenant cell at skew 1.2 is the acceptance cell: the
/// `fleet_fairness` verdict requires every tenant within its quarantine
/// budget, the fleet p99 pause within the tenant policy bound, and a
/// nonzero stolen-slice counter there.
pub const FLEET_GRID: [(usize, f64, usize); 4] =
    [(8, 0.0, 4), (8, 1.2, 4), (128, 0.0, 4), (128, 1.2, 4)];

/// Sizing knobs shared by every experiment in one lab run.
#[derive(Debug, Clone, Serialize)]
pub struct LabOptions {
    /// Heap scale for the workload trace (fig. 5 uses 1/512).
    pub trace_scale: f64,
    /// Trace generator seed.
    pub seed: u64,
    /// Service churn: malloc/free pairs per mutator thread.
    pub service_ops_per_thread: u64,
    /// Service churn: heap MiB per shard.
    pub service_shard_mib: u64,
    /// Service churn repeats: `quarantine_bounded` holds only if every
    /// repeat kept its peak quarantine under the policy bound.
    pub measure_repeats: usize,
}

impl LabOptions {
    /// CI-sized: coarse traces and churns long enough to run many epochs.
    pub fn smoke() -> LabOptions {
        LabOptions {
            trace_scale: 1.0 / 2048.0,
            seed: 42,
            service_ops_per_thread: 100_000,
            service_shard_mib: 4,
            measure_repeats: 5,
        }
    }

    /// Full characterisation sizing (fig. 5 scale).
    pub fn full() -> LabOptions {
        LabOptions {
            trace_scale: 1.0 / 512.0,
            seed: 42,
            service_ops_per_thread: 500_000,
            service_shard_mib: 8,
            measure_repeats: 5,
        }
    }
}

/// What one experiment measured.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentMetrics {
    /// fig. 5a: execution time normalised to the unprotected baseline
    /// (1.0 = no overhead). Deterministic.
    pub overhead_time: f64,
    /// fig. 5b: memory normalised to peak live bytes. Deterministic.
    pub overhead_memory: f64,
    /// Fraction of the sweepable address space a single revocation pass
    /// actually visited in the [`swept_fraction_probe`] scenario (1.0 =
    /// every byte walked). Deterministic — pure counts, no wall clock —
    /// so it gates hard: any growth means CapDirty skipping lost pages.
    pub swept_fraction: f64,
    /// Revocation epochs the service completed over all churn repeats.
    pub service_epochs: u64,
    /// Did every churn repeat's peak quarantine stay under the policy
    /// bound?
    pub quarantine_bounded: bool,
}

/// One experiment's record in the trajectory.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentResult {
    /// [`ExperimentConfig::id`].
    pub id: String,
    /// The matrix point.
    pub config: ExperimentConfig,
    /// Its measurements.
    pub metrics: ExperimentMetrics,
}

/// The deterministic CapDirty scenario behind
/// [`ExperimentMetrics::swept_fraction`]: a 16 MiB heap tiled with ~60 KiB
/// arenas, each holding capabilities to itself on its first page and on
/// further pages at the workload's pointer page density, with exactly one
/// arena freed. One `revoke_now` then reports how much of the sweepable
/// address space the CapDirty-filtered sweep actually walked.
///
/// Pure counts, no wall clock: the same density and seed always produce
/// the same fraction, so the metric gates hard in CI.
///
/// # Errors
///
/// Returns a message if the probe heap cannot be constructed or driven.
pub fn swept_fraction_probe(pointer_page_density: f64, seed: u64) -> Result<f64, String> {
    let mut policy = cherivoke::RevocationPolicy::paper_default();
    policy.use_capdirty = true;
    policy.strict = false;
    policy.incremental_slice_bytes = None;
    policy.sweep_workers = 1;
    policy.quarantine.fraction = f64::INFINITY; // only the explicit pass sweeps
    let config = cherivoke::HeapConfig {
        policy,
        ..cherivoke::HeapConfig::default()
    };
    let mut heap = cherivoke::CherivokeHeap::new(config).map_err(|e| format!("probe heap: {e}"))?;

    const ARENA_BYTES: u64 = 60 << 10;
    const PAGE: u64 = 4096;
    let mut arenas = Vec::new();
    while arenas.len() < 4096 {
        match heap.malloc(ARENA_BYTES) {
            Ok(cap) => arenas.push(cap),
            Err(_) => break, // heap full: the tiling is complete
        }
    }
    if arenas.len() < 32 {
        return Err("probe heap tiled fewer than 32 arenas".into());
    }
    // Each arena stores a capability to itself on its first page, and on
    // each further page with probability `pointer_page_density` (the
    // workload's Table-2 pointer page density), via a fixed-seed LCG.
    let mut rng = seed | 1;
    let mut next = move || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) as f64 / (1u64 << 31) as f64
    };
    for arena in &arenas {
        for page in 0..arena.length() / PAGE {
            if page == 0 || next() < pointer_page_density {
                heap.store_cap(arena, page * PAGE, arena)
                    .map_err(|e| format!("probe store: {e}"))?;
            }
        }
    }
    let victim = arenas.swap_remove(0);
    heap.free(victim).map_err(|e| format!("probe free: {e}"))?;
    let stats = heap.revoke_now();
    if stats.caps_revoked == 0 {
        return Err("probe revoked nothing: the victim arena held no capability".into());
    }
    let sweepable: u64 = heap
        .space()
        .segments()
        .iter()
        .filter(|s| s.kind().sweepable())
        .map(|s| s.mem().len())
        .sum();
    Ok(stats.bytes_swept as f64 / sweepable as f64)
}

/// Runs one experiment end to end (service churn, workload replay,
/// CapDirty probe) and returns its trajectory record.
///
/// # Errors
///
/// Returns a message naming the failing stage for unknown workloads /
/// kernels / fault plans or a failed trace replay.
pub fn run_experiment(
    config: &ExperimentConfig,
    opts: &LabOptions,
) -> Result<ExperimentResult, String> {
    let profile = profiles::by_name(&config.workload)
        .ok_or_else(|| format!("unknown workload '{}'", config.workload))?;
    let kernel = config.kernel()?;
    let faults = config.fault_mode()?;

    // 1. Service churn under the same kernel/workers, with the
    // experiment's fault plan armed. Mutator threads are capped at the
    // host's parallelism: oversubscribing a small container turns the
    // run into scheduler noise.
    let threads = ChurnParams::default()
        .threads
        .min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let (mut service_epochs, mut quarantine_bounded) = (0, true);
    for _ in 0..opts.measure_repeats.max(1) {
        let row = churn(&ChurnParams {
            threads,
            ops_per_thread: opts.service_ops_per_thread,
            shard_mib: opts.service_shard_mib,
            kernel,
            sweep_workers: config.sweep_workers,
            faults: faults.clone(),
            ..ChurnParams::default()
        })
        .0;
        service_epochs += row.epochs;
        quarantine_bounded &= row.quarantine_bounded;
    }

    // 2. The fig. 5 replay (deterministic overhead vs baseline).
    let trace = TraceGenerator::new(profile, opts.trace_scale, opts.seed).generate();
    let mut policy = cherivoke::RevocationPolicy::paper_default();
    policy.kernel = kernel;
    policy.sweep_workers = config.sweep_workers;
    let mut sut = CherivokeUnderTest::new(&trace, policy, CostModel::x86_default(), Stage::Full)
        .map_err(|e| format!("{}: heap construction failed: {e}", config.id()))?;
    let report = run_trace(&mut sut, &trace)
        .map_err(|e| format!("{}: trace replay failed: {e}", config.id()))?;

    // 3. The deterministic CapDirty probe: how much of the sweepable
    // space does one revocation pass actually visit?
    let swept_fraction = swept_fraction_probe(profile.pointer_page_density, opts.seed)
        .map_err(|e| format!("{}: {e}", config.id()))?;

    Ok(ExperimentResult {
        id: config.id(),
        config: config.clone(),
        metrics: ExperimentMetrics {
            overhead_time: report.normalized_time,
            overhead_memory: report.normalized_memory,
            swept_fraction,
            service_epochs,
            quarantine_bounded,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_matrix_expands_in_stable_order() {
        let ids: Vec<String> = LabMatrix::smoke()
            .expand()
            .iter()
            .map(ExperimentConfig::id)
            .collect();
        assert_eq!(ids, ["omnetpp/simd/w1/off", "xalancbmk/simd/w1/off"]);
    }

    #[test]
    fn swept_fraction_probe_is_deterministic() {
        // CapDirty skips the capability-free pages, and re-running the
        // probe reproduces the fraction bit-for-bit (the lab gates it at
        // zero drift).
        let density = profiles::by_name("omnetpp").unwrap().pointer_page_density;
        let fraction = swept_fraction_probe(density, 42).unwrap();
        assert!(fraction > 0.0 && fraction < 1.0, "{fraction}");
        assert_eq!(swept_fraction_probe(density, 42).unwrap(), fraction);
    }

    #[test]
    fn chaos_smoke_plan_parses_and_spares_alloc_failure() {
        let plan = FaultPlan::parse(CHAOS_SMOKE_PLAN).expect("parses");
        assert!(plan.is_armed());
        assert!(plan
            .rules()
            .iter()
            .all(|r| r.point != cherivoke::fault::FaultPoint::AllocFailure));
    }

    #[test]
    fn unknown_axes_are_reported() {
        let mut config = LabMatrix::smoke().expand().remove(0);
        config.kernel = "avx512".into();
        let err = run_experiment(&config, &LabOptions::smoke()).unwrap_err();
        assert!(err.contains("unknown kernel"), "{err}");
    }

    #[test]
    fn one_tiny_experiment_runs_end_to_end() {
        let config = ExperimentConfig {
            workload: "omnetpp".into(),
            kernel: "fast".into(),
            sweep_workers: 2,
            fault_plan: "chaos-smoke".into(),
        };
        let opts = LabOptions {
            trace_scale: 1.0 / 8192.0,
            seed: 42,
            service_ops_per_thread: 500,
            service_shard_mib: 1,
            measure_repeats: 1,
        };
        let result = run_experiment(&config, &opts).expect("experiment runs");
        assert_eq!(result.id, "omnetpp/fast/w2/chaos-smoke");
        assert!(result.metrics.overhead_time >= 1.0 - 0.05);
        assert!(result.metrics.overhead_memory > 0.0);
        assert!(result.metrics.swept_fraction > 0.0);
        assert!(result.metrics.swept_fraction < 1.0);
    }
}
