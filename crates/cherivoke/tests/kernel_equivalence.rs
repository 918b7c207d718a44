//! The default kernel is the same program as the scalar one at heap level:
//! one seeded malloc/free/store_cap sequence replayed on a heap sweeping
//! with [`Kernel::Fast`] and on one sweeping with [`Kernel::Simd`] (the
//! paper default, vectorised on AVX2/NEON hosts) ends in identical heap
//! statistics and identical tagged memory, and both heaps audit clean.
//! The sequence crosses several stop-the-world epochs and then drives one
//! incremental epoch in small slices, with capability stores (and their
//! barrier) between the slices.

use cheri::Capability;
use cherivoke::{CherivokeHeap, HeapConfig, Kernel, RevocationPolicy};

/// xorshift64: a seeded, dependency-free operation stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Both heaps under test, driven in lockstep. Every call's result must
/// agree, so the two allocators hand out the same blocks throughout.
struct Pair {
    heaps: [CherivokeHeap; 2],
    /// Live allocations, as capabilities valid on both heaps.
    live: Vec<Capability>,
}

impl Pair {
    fn new() -> Pair {
        let heap = |kernel| {
            let mut config = HeapConfig::small();
            config.policy = RevocationPolicy {
                kernel,
                ..RevocationPolicy::paper_default()
            };
            CherivokeHeap::new(config).expect("heap")
        };
        Pair {
            heaps: [heap(Kernel::Fast), heap(Kernel::Simd)],
            live: Vec::new(),
        }
    }

    fn malloc(&mut self, size: u64) {
        let [fast, simd] = &mut self.heaps;
        let cap = fast.malloc(size).expect("fast malloc");
        assert_eq!(simd.malloc(size).expect("simd malloc"), cap);
        self.live.push(cap);
    }

    fn free(&mut self, idx: usize) {
        let cap = self.live.swap_remove(idx);
        for h in &mut self.heaps {
            h.free(cap).expect("free");
        }
    }

    /// Stores live allocation `target` into a granule of live allocation
    /// `holder`.
    fn store(&mut self, rng: &mut Rng) {
        let holder = self.live[rng.below(self.live.len() as u64) as usize];
        let target = self.live[rng.below(self.live.len() as u64) as usize];
        let offset = rng.below(holder.length() / 16) * 16;
        for h in &mut self.heaps {
            h.store_cap(&holder, offset, &target).expect("store_cap");
        }
    }

    /// One random operation: allocate, free, or store a capability.
    fn step(&mut self, rng: &mut Rng) {
        match rng.below(10) {
            0..=3 if self.live.len() < 256 => self.malloc(16 * (1 + rng.below(64))),
            4..=6 if !self.live.is_empty() => self.store(rng),
            _ if !self.live.is_empty() => {
                let idx = rng.below(self.live.len() as u64) as usize;
                self.free(idx);
            }
            _ => self.malloc(64),
        }
    }

    fn assert_same(&self) {
        let [fast, simd] = &self.heaps;
        assert_eq!(fast.stats(), simd.stats(), "heap statistics diverged");
        assert_eq!(fast.dump(), simd.dump(), "tagged memory diverged");
        assert!(fast.audit().clean(), "fast heap failed its audit");
        assert!(simd.audit().clean(), "simd heap failed its audit");
    }
}

#[test]
fn simd_heap_replays_a_fast_heap_exactly() {
    let mut rng = Rng(0x5eed_cafe_f00d_0001);
    let mut pair = Pair::new();

    // Stop-the-world phase: the 25% quarantine trigger fires repeatedly.
    for _ in 0..4000 {
        pair.step(&mut rng);
    }
    let stw = pair.heaps[0].stats();
    assert!(stw.sweeps >= 3, "only {} stop-the-world epochs", stw.sweeps);
    assert!(stw.caps_revoked > 0, "the sequence revoked nothing");
    pair.assert_same();

    // One incremental epoch over half the live set, swept in 4 KiB slices
    // with capability stores between them.
    for _ in 0..pair.live.len() / 2 {
        let idx = rng.below(pair.live.len() as u64) as usize;
        pair.free(idx);
    }
    let sweeps = pair.heaps[0].stats().sweeps;
    for h in &mut pair.heaps {
        assert!(h.begin_revocation(), "incremental epoch did not open");
    }
    let mut slices = 0;
    loop {
        slices += 1;
        let [fast, simd] = &mut pair.heaps;
        let done = fast.revoke_step(4096);
        assert_eq!(simd.revoke_step(4096), done, "slice {slices} diverged");
        if done.is_some() {
            break;
        }
        pair.store(&mut rng);
    }
    assert!(slices > 1, "the epoch finished in one slice");
    assert_eq!(pair.heaps[0].stats().sweeps, sweeps + 1);
    pair.assert_same();
}
