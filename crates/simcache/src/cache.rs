//! A set-associative, write-back, LRU cache model.

use core::fmt;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two line size,
    /// capacity not divisible by `ways * line_bytes`, or zero anywhere).
    pub fn sets(&self) -> u64 {
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.ways > 0 && self.size_bytes > 0);
        let per_way = self.size_bytes / u64::from(self.ways);
        assert_eq!(per_way % self.line_bytes, 0, "inconsistent cache geometry");
        let sets = per_way / self.line_bytes;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines evicted (write-back traffic).
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]` (zero when idle).
    pub fn miss_ratio(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses as f64 / a as f64
        }
    }
}

#[derive(Clone)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotonic timestamp of last touch, for LRU.
    stamp: u64,
}

/// A set-associative LRU cache.
///
/// This is a *presence* model: it tracks which lines are resident, not their
/// contents (data lives in the simulated `tagmem`-style memory). Timing is
/// charged by the surrounding [`crate::MemoryHierarchy`].
///
/// # Examples
///
/// ```
/// use simcache::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 64 });
/// assert!(!c.access(0x40, false).hit); // cold miss
/// assert!(c.access(0x40, false).hit);  // now resident
/// ```
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<Way>>,
    clock: u64,
    stats: CacheStats,
}

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The line was resident.
    pub hit: bool,
    /// A dirty victim was evicted to make room (write-back traffic).
    pub writeback: bool,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (see [`CacheConfig::sets`]).
    pub fn new(config: CacheConfig) -> Cache {
        let sets = config.sets() as usize;
        Cache {
            config,
            sets: vec![Vec::with_capacity(config.ways as usize); sets],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Invalidates all lines and resets statistics.
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.stats = CacheStats::default();
    }

    #[inline]
    fn index_of(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.config.line_bytes;
        let set = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        (set, tag)
    }

    /// Touches the line containing `addr`; `write` marks it dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        self.clock += 1;
        let clock = self.clock;
        let ways = self.config.ways as usize;
        let (set_idx, tag) = self.index_of(addr);
        let set = &mut self.sets[set_idx];

        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.stamp = clock;
            way.dirty |= write;
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                writeback: false,
            };
        }

        self.stats.misses += 1;
        let mut writeback = false;
        if set.len() < ways {
            set.push(Way {
                tag,
                valid: true,
                dirty: write,
                stamp: clock,
            });
        } else {
            let victim = set
                .iter_mut()
                .min_by_key(|w| w.stamp)
                .expect("non-empty set");
            if victim.dirty {
                writeback = true;
                self.stats.writebacks += 1;
            }
            *victim = Way {
                tag,
                valid: true,
                dirty: write,
                stamp: clock,
            };
        }
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// `true` if the line containing `addr` is resident (no LRU update, no
    /// stats — a pure probe, used by `CLoadTags` snooping).
    pub fn probe(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.index_of(addr);
        self.sets[set_idx].iter().any(|w| w.valid && w.tag == tag)
    }
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cache {{ {}B/{}-way/{}B lines, stats: {:?} }}",
            self.config.size_bytes, self.config.ways, self.config.line_bytes, self.stats
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256B.
        Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn geometry_is_computed() {
        let c = tiny();
        assert_eq!(c.config().sets(), 2);
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 100,
            ways: 3,
            line_bytes: 64,
        })
        .config()
        .sets();
    }

    #[test]
    fn hits_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0x0, false).hit);
        assert!(c.access(0x0, false).hit);
        assert!(c.access(0x3f, false).hit); // same line
        assert!(!c.access(0x40, false).hit); // next line, other set
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Set 0 lines: addresses with line index even (64B lines, 2 sets).
        c.access(0x000, false); // set 0, tag 0
        c.access(0x080, false); // set 0, tag 1
        c.access(0x000, false); // refresh tag 0
        c.access(0x100, false); // set 0, tag 2 -> evicts tag 1
        assert!(c.access(0x000, false).hit);
        assert!(!c.access(0x080, false).hit);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.access(0x000, true);
        c.access(0x080, false);
        let out = c.access(0x100, false); // evicts LRU = 0x000 (dirty)
        assert!(out.writeback);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn probe_is_side_effect_free() {
        let mut c = tiny();
        c.access(0x0, false);
        let s = c.stats();
        assert!(c.probe(0x20));
        assert!(!c.probe(0x40));
        assert_eq!(c.stats(), s);
    }

    #[test]
    fn flush_empties() {
        let mut c = tiny();
        c.access(0x0, true);
        c.flush();
        assert!(!c.probe(0x0));
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn miss_ratio_sane() {
        let mut c = tiny();
        assert_eq!(c.stats().miss_ratio(), 0.0);
        c.access(0x0, false);
        c.access(0x0, false);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }
}
