//! Allocation statistics.

/// Counters maintained by the allocators; the workload driver reads these to
//  compute the memory-overhead figures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// `malloc` calls that succeeded.
    pub mallocs: u64,
    /// `free` calls accepted.
    pub frees: u64,
    /// Bytes currently allocated to the program (granted sizes).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes`.
    pub peak_live_bytes: u64,
    /// Bytes currently detained in quarantine.
    pub quarantined_bytes: u64,
    /// High-water mark of `live_bytes + quarantined_bytes` (the heap
    /// footprint CHERIvoke's memory overhead is measured against).
    pub peak_footprint_bytes: u64,
    /// Cumulative bytes ever freed (drives sweep frequency: the paper's
    /// *FreeRate* integrated over time).
    pub freed_bytes_total: u64,
    /// Number of quarantine drains (== revocation sweeps triggered).
    pub drains: u64,
    /// Internal frees issued when draining (after aggregation this is much
    /// smaller than `frees`, §6.1.1).
    pub internal_frees: u64,
}

impl AllocStats {
    /// Updates the high-water marks after live/quarantine changes.
    pub(crate) fn note_footprint(&mut self) {
        self.peak_live_bytes = self.peak_live_bytes.max(self.live_bytes);
        self.peak_footprint_bytes = self
            .peak_footprint_bytes
            .max(self.live_bytes + self.quarantined_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_tracks_peaks() {
        let mut s = AllocStats {
            live_bytes: 100,
            quarantined_bytes: 50,
            ..AllocStats::default()
        };
        s.note_footprint();
        assert_eq!(s.peak_live_bytes, 100);
        assert_eq!(s.peak_footprint_bytes, 150);
        s.live_bytes = 20;
        s.quarantined_bytes = 0;
        s.note_footprint();
        assert_eq!(s.peak_live_bytes, 100);
        assert_eq!(s.peak_footprint_bytes, 150);
    }
}
