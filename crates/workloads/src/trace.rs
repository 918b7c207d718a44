//! Deterministic allocation-trace generation from benchmark profiles.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::BenchmarkProfile;

/// One operation in an allocation trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Allocate `size` bytes; the object is known as `id` from here on.
    Malloc {
        /// Object identifier (unique per trace).
        id: u64,
        /// Requested size in bytes.
        size: u64,
    },
    /// Free object `id`.
    Free {
        /// Object identifier.
        id: u64,
    },
    /// Store a pointer to object `to` into object `from` at byte offset
    /// `slot` (16-byte aligned within the object).
    WritePtr {
        /// Holder object.
        from: u64,
        /// 16-byte-aligned offset within the holder.
        slot: u64,
        /// Target object.
        to: u64,
    },
}

/// A timestamped trace operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time in microseconds from trace start.
    pub at_us: u64,
    /// The operation.
    pub op: TraceOp,
}

/// A generated workload trace.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The profile this trace was generated from.
    pub profile: BenchmarkProfile,
    /// Heap-size scale factor applied (1.0 = full SPEC footprint).
    pub scale: f64,
    /// Simulated heap size in bytes (scaled, granule-aligned).
    pub heap_bytes: u64,
    /// Virtual duration in seconds.
    pub duration_s: f64,
    /// The events, sorted by timestamp.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Number of `Malloc` events.
    pub fn mallocs(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.op, TraceOp::Malloc { .. }))
            .count()
    }

    /// Number of `Free` events.
    pub fn frees(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.op, TraceOp::Free { .. }))
            .count()
    }

    /// Number of `WritePtr` events.
    pub fn ptr_writes(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.op, TraceOp::WritePtr { .. }))
            .count()
    }

    /// Total bytes freed by the trace.
    pub fn freed_bytes(&self) -> u64 {
        let mut sizes = std::collections::HashMap::new();
        let mut freed = 0;
        for e in &self.events {
            match e.op {
                TraceOp::Malloc { id, size } => {
                    sizes.insert(id, size);
                }
                TraceOp::Free { id } => freed += sizes.get(&id).copied().unwrap_or(0),
                TraceOp::WritePtr { .. } => {}
            }
        }
        freed
    }
}

/// Generates seeded, deterministic traces whose realised statistics match a
/// [`BenchmarkProfile`].
///
/// The generator preserves the quantities CHERIvoke's costs depend on
/// (§6.1.3) under heap scaling:
///
/// * **Free rate (MiB/s)** is preserved exactly in expectation: if the
///   scaled heap forces the mean allocation below the profile's, the event
///   rate is raised to compensate.
/// * **Pointer page density** is steered by giving each object a pointer
///   with probability `1 - (1 - density)^(1/objects_per_page)`, the
///   analytic solution under uniform object placement.
/// * **Temporal fragmentation** (the §6.1.1 xalancbmk effect) is controlled
///   by the victim-selection mix: cache-sensitive profiles free scattered
///   (random) victims; others free mostly oldest-first.
///
/// # Examples
///
/// ```
/// use workloads::{profiles, TraceGenerator};
///
/// let p = profiles::by_name("omnetpp").unwrap();
/// let t = TraceGenerator::new(p, 1.0 / 1024.0, 7).generate();
/// assert!(t.frees() > 100);
/// // Deterministic: same seed, same trace.
/// let t2 = TraceGenerator::new(p, 1.0 / 1024.0, 7).generate();
/// assert_eq!(t.events, t2.events);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: BenchmarkProfile,
    scale: f64,
    seed: u64,
    duration_s: Option<f64>,
    max_events: usize,
}

impl TraceGenerator {
    /// A generator for `profile` at heap scale `scale` with a deterministic
    /// `seed`.
    pub fn new(profile: BenchmarkProfile, scale: f64, seed: u64) -> TraceGenerator {
        TraceGenerator {
            profile,
            scale,
            seed,
            duration_s: None,
            max_events: 400_000,
        }
    }

    /// Overrides the automatically-chosen virtual duration.
    pub fn with_duration(mut self, seconds: f64) -> TraceGenerator {
        self.duration_s = Some(seconds);
        self
    }

    /// Caps the number of generated events (the duration shrinks to fit).
    pub fn with_max_events(mut self, max: usize) -> TraceGenerator {
        self.max_events = max;
        self
    }

    /// Generates the trace.
    pub fn generate(&self) -> Trace {
        let p = &self.profile;
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0xc0ff_ee00);

        let heap_bytes =
            cheri::granule_round_up(((p.heap_mib * self.scale) * 1024.0 * 1024.0) as u64)
                .max(256 << 10);
        let live_target = (heap_bytes as f64 * 0.45) as u64;

        // Allocation granularity, clamped so a scaled heap still holds a
        // meaningful number of objects.
        let mean = p.mean_alloc_bytes().min(heap_bytes / 128).max(16);
        // Event rate preserving the profile's free MiB/s.
        let free_bytes_per_s = p.free_rate_mib_s * 1024.0 * 1024.0;
        let churns_per_s = if free_bytes_per_s > 0.0 {
            free_bytes_per_s / mean as f64
        } else {
            0.0
        };

        // Duration: enough for several quarantine cycles at the default 25%
        // fraction, bounded by the event budget.
        let mut duration = self.duration_s.unwrap_or_else(|| {
            if free_bytes_per_s <= 0.0 {
                return 0.05;
            }
            let per_sweep = 0.25 * live_target as f64;
            (8.0 * per_sweep / free_bytes_per_s).clamp(0.02, 5.0)
        });
        if churns_per_s > 0.0 {
            let max_dur = self.max_events as f64 / (2.5 * churns_per_s);
            duration = duration.min(max_dur);
        }

        // Pointer-bearing probability solving for the target page density,
        // with a calibration factor compensating for fragmentation spreading
        // allocations over more pages than the footprint implies.
        let objs_per_page = (4096.0 / mean as f64).max(1.0);
        let d_adj = (p.pointer_page_density * 1.1).min(0.999);
        let p_ptr = if p.pointer_page_density >= 1.0 {
            1.0
        } else {
            1.0 - (1.0 - d_adj).powf(1.0 / objs_per_page)
        };
        let page_density = p.pointer_page_density;

        // Victim-selection mix: cache-sensitive → scattered lifetimes.
        let random_victim_frac = if p.cache_sensitivity > 0.0 { 0.8 } else { 0.3 };

        let mut events = Vec::new();
        let mut live = LiveSet::new();
        let mut live_bytes = 0u64;
        let mut t_us = 0u64;

        let sample_size = |rng: &mut SmallRng| -> u64 {
            // A discrete spread with mean ≈ `mean`.
            let f = match rng.gen_range(0..100) {
                0..=39 => 0.5,
                40..=79 => 1.0,
                80..=94 => 2.0,
                _ => 4.0,
            };
            ((mean as f64 * f) as u64).clamp(16, heap_bytes / 16)
        };

        // Emits the pointer stores a fresh object receives: small objects
        // carry one pointer with probability `p_ptr`; page-spanning objects
        // get an independent chance per page (large structures hold
        // pointers throughout, e.g. mcf's arena of linked nodes).
        // Most pointers in real programs reference *live* data (interior
        // structure pointers); only a minority end up dangling. Model this
        // with 70% self-references (stable for the holder's lifetime) and
        // 30% cross-object references (the dangling-pointer source).
        let pick_target = |rng: &mut SmallRng, live: &LiveSet, id: u64| -> u64 {
            if rng.gen_bool(0.7) || live.is_empty() {
                id
            } else {
                live.select(rng.gen_range(0..live.len()))
            }
        };
        let emit_ptrs = |rng: &mut SmallRng,
                         events: &mut Vec<TraceEvent>,
                         live: &LiveSet,
                         at_us: u64,
                         id: u64,
                         size: u64| {
            if size > 4096 {
                for k in 0..(size / 4096) {
                    if rng.gen_bool(page_density) {
                        let target = pick_target(rng, live, id);
                        events.push(TraceEvent {
                            at_us,
                            op: TraceOp::WritePtr {
                                from: id,
                                slot: k * 4096,
                                to: target,
                            },
                        });
                    }
                }
            } else if rng.gen_bool(p_ptr) {
                let target = pick_target(rng, live, id);
                events.push(TraceEvent {
                    at_us,
                    op: TraceOp::WritePtr {
                        from: id,
                        slot: 0,
                        to: target,
                    },
                });
            }
        };

        // Ramp-up: build the live set at t ≈ 0.
        while live_bytes < live_target {
            let size = sample_size(&mut rng);
            let id = live.next_id();
            events.push(TraceEvent {
                at_us: t_us,
                op: TraceOp::Malloc { id, size },
            });
            emit_ptrs(&mut rng, &mut events, &live, t_us, id, size);
            live.push(size);
            live_bytes += size;
            t_us += 1;
        }

        // Steady-state churn at the profile's free rate.
        if churns_per_s > 0.0 {
            let step_us = (1e6 / churns_per_s).max(1e-3);
            let mut t = t_us as f64;
            let end_us = duration * 1e6;
            while t < end_us && events.len() + 4 < self.max_events {
                t += step_us;
                let at_us = t as u64;
                // Free a victim.
                if !live.is_empty() {
                    let idx = if rng.gen_bool(random_victim_frac) {
                        rng.gen_range(0..live.len())
                    } else {
                        0 // oldest
                    };
                    let (id, size) = live.remove_at(idx);
                    live_bytes -= size;
                    events.push(TraceEvent {
                        at_us,
                        op: TraceOp::Free { id },
                    });
                }
                // Allocate a replacement to hold the live set steady.
                if live_bytes < live_target {
                    let size = sample_size(&mut rng);
                    let id = live.next_id();
                    events.push(TraceEvent {
                        at_us,
                        op: TraceOp::Malloc { id, size },
                    });
                    emit_ptrs(&mut rng, &mut events, &live, at_us, id, size);
                    live.push(size);
                    live_bytes += size;
                }
            }
            duration = duration.max(t / 1e6);
        }

        Trace {
            profile: *p,
            scale: self.scale,
            heap_bytes,
            duration_s: duration,
            events,
        }
    }
}

/// The generator's live objects in allocation order, with every operation
/// in O(log n).
///
/// Free victims and pointer targets are picked by position — 0 is the
/// oldest live object, a random position a scattered one — so a trace of
/// n events must not pay O(live objects) per free. Ids are handed out as
/// 0, 1, 2, … so allocation order is id order, and a Fenwick tree of
/// presence counts over ids finds the k-th live object by a prefix-count
/// descent.
#[derive(Debug)]
struct LiveSet {
    /// Size of every object ever pushed, indexed by id.
    sizes: Vec<u64>,
    /// Fenwick tree of presence counts, 1-based: node `i` counts the live
    /// ids in `[i - lowbit(i), i)`. `tree.len() - 1`, the capacity in ids,
    /// is a power of two, so node `cap` counts every live id.
    tree: Vec<u32>,
}

impl LiveSet {
    fn new() -> LiveSet {
        LiveSet {
            sizes: Vec::new(),
            tree: vec![0; 2],
        }
    }

    fn len(&self) -> usize {
        self.tree[self.tree.len() - 1] as usize
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The id the next [`push`](LiveSet::push) assigns.
    fn next_id(&self) -> u64 {
        self.sizes.len() as u64
    }

    /// Adds a live object of `size` bytes under id [`next_id`](LiveSet::next_id).
    fn push(&mut self, size: u64) {
        let id = self.sizes.len();
        self.sizes.push(size);
        let cap = self.tree.len() - 1;
        if id == cap {
            // Node `cap` covers every id so far, so node `2 * cap` starts as
            // its copy; the nodes between cover only ids not yet pushed.
            let total = self.tree[cap];
            self.tree.resize(2 * cap + 1, 0);
            self.tree[2 * cap] = total;
        }
        let mut i = id + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    /// The id of the `k`-th oldest live object (0-based). The descent
    /// finds, one bit at a time from the top, the longest id range
    /// `[0, pos)` holding at most `k` live ids; id `pos` is then live and
    /// the `k`-th.
    fn select(&self, k: usize) -> u64 {
        assert!(
            k < self.len(),
            "select({k}) of a {}-object live set",
            self.len()
        );
        let cap = self.tree.len() - 1;
        let mut rem = k as u32;
        let mut pos = 0;
        let mut step = cap;
        while step > 0 {
            let next = pos + step;
            if next <= cap && self.tree[next] <= rem {
                pos = next;
                rem -= self.tree[next];
            }
            step >>= 1;
        }
        pos as u64
    }

    /// Removes the `k`-th oldest live object and returns its id and size.
    fn remove_at(&mut self, k: usize) -> (u64, u64) {
        let id = self.select(k) as usize;
        let mut i = id + 1;
        while i < self.tree.len() {
            self.tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
        (id as u64, self.sizes[id])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use proptest::prelude::*;

    fn gen(name: &str, scale: f64) -> Trace {
        TraceGenerator::new(profiles::by_name(name).unwrap(), scale, 1).generate()
    }

    #[test]
    fn traces_are_deterministic() {
        let a = gen("dealII", 1.0 / 512.0);
        let b = gen("dealII", 1.0 / 512.0);
        assert_eq!(a.events, b.events);
        assert_eq!(a.heap_bytes, b.heap_bytes);
    }

    #[test]
    fn free_rate_is_preserved_under_scaling() {
        for name in ["dealII", "omnetpp", "xalancbmk", "mcf", "milc"] {
            let t = gen(name, 1.0 / 512.0);
            let realised = t.freed_bytes() as f64 / t.duration_s / (1024.0 * 1024.0);
            let target = t.profile.free_rate_mib_s;
            assert!(
                (realised - target).abs() / target < 0.35,
                "{name}: realised {realised:.1} MiB/s vs target {target} MiB/s"
            );
        }
    }

    #[test]
    fn never_freeing_benchmarks_generate_ramp_only() {
        let t = gen("bzip2", 1.0 / 512.0);
        assert_eq!(t.frees(), 0);
        assert!(t.mallocs() > 0);
    }

    #[test]
    fn pointer_writes_track_density() {
        let dense = gen("omnetpp", 1.0 / 512.0);
        let sparse = gen("milc", 1.0 / 512.0);
        let dense_frac = dense.ptr_writes() as f64 / dense.mallocs() as f64;
        let sparse_frac = sparse.ptr_writes() as f64 / sparse.mallocs().max(1) as f64;
        assert!(dense_frac > sparse_frac, "{dense_frac} vs {sparse_frac}");
    }

    #[test]
    fn events_are_time_ordered() {
        let t = gen("xalancbmk", 1.0 / 512.0);
        let mut last = 0;
        for e in &t.events {
            assert!(e.at_us >= last);
            last = e.at_us;
        }
    }

    #[test]
    fn event_budget_is_respected() {
        let t = TraceGenerator::new(profiles::by_name("omnetpp").unwrap(), 1.0 / 64.0, 3)
            .with_max_events(10_000)
            .generate();
        assert!(t.events.len() <= 10_000);
    }

    /// One step of a [`LiveSet`] workload: the operation and a raw draw
    /// its size or position is taken from.
    #[derive(Debug, Clone, Copy)]
    enum LiveOp {
        Push(u64),
        RemoveOldest,
        RemoveAt(u64),
        Select(u64),
    }

    fn arb_live_op() -> impl Strategy<Value = LiveOp> {
        prop_oneof![
            3 => any::<u64>().prop_map(LiveOp::Push),
            1 => Just(LiveOp::RemoveOldest),
            1 => any::<u64>().prop_map(LiveOp::RemoveAt),
            1 => any::<u64>().prop_map(LiveOp::Select),
        ]
    }

    proptest! {
        /// The Fenwick-tree live set answers every operation exactly as the
        /// `Vec` the generator used to keep, through many capacity
        /// doublings (the set starts at a capacity of one id).
        #[test]
        fn live_set_matches_a_vec(ops in proptest::collection::vec(arb_live_op(), 0..1500)) {
            let mut set = LiveSet::new();
            let mut reference: Vec<(u64, u64)> = Vec::new();
            for op in ops {
                match op {
                    LiveOp::Push(size) => {
                        let id = set.next_id();
                        set.push(size);
                        reference.push((id, size));
                    }
                    LiveOp::RemoveOldest if !reference.is_empty() => {
                        prop_assert_eq!(set.remove_at(0), reference.remove(0));
                    }
                    LiveOp::RemoveAt(r) if !reference.is_empty() => {
                        let k = (r % reference.len() as u64) as usize;
                        prop_assert_eq!(set.remove_at(k), reference.remove(k));
                    }
                    LiveOp::Select(r) if !reference.is_empty() => {
                        let k = (r % reference.len() as u64) as usize;
                        prop_assert_eq!(set.select(k), reference[k].0);
                    }
                    _ => {}
                }
                prop_assert_eq!(set.len(), reference.len());
                prop_assert_eq!(set.is_empty(), reference.is_empty());
            }
            // Drain what is left, oldest first.
            for expected in reference {
                prop_assert_eq!(set.remove_at(0), expected);
            }
            prop_assert!(set.is_empty());
        }
    }

    #[test]
    fn frees_reference_live_objects_only() {
        let t = gen("dealII", 1.0 / 512.0);
        let mut live = std::collections::HashSet::new();
        for e in &t.events {
            match e.op {
                TraceOp::Malloc { id, .. } => {
                    assert!(live.insert(id), "duplicate id {id}");
                }
                TraceOp::Free { id } => {
                    assert!(live.remove(&id), "free of dead id {id}");
                }
                TraceOp::WritePtr { from, to, .. } => {
                    assert!(live.contains(&from), "write into dead object");
                    assert!(live.contains(&to), "pointer to dead object");
                }
            }
        }
    }
}
