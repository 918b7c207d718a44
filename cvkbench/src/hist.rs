//! Latency accounting: a log-linear histogram for the tens of millions of
//! op latencies a run produces, and exact nearest-rank percentiles for the
//! few thousand pauses.

/// Sub-buckets per power of two. A bucket spans at most `1/SUB` of its
/// lower edge, so any value in it is within 0.79% of any other.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Octaves above the exact range `[0, SUB)`, enough for every `u64`.
const OCTAVES: usize = 64 - SUB_BITS as usize;
const BUCKETS: usize = SUB as usize + OCTAVES * SUB as usize;

/// One percentile read: the value, how many samples it was taken from and
/// how many samples rank above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile's value, in the unit the samples were recorded in.
    pub value: f64,
    /// Samples recorded.
    pub count: u64,
    /// Samples ranked above the percentile's rank.
    pub beyond: u64,
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(p: f64, n: u64) -> u64 {
    ((p / 100.0 * n as f64).ceil() as u64).clamp(1, n)
}

/// Exact nearest-rank percentile of `samples`, which it sorts in place.
/// `None` when there are no samples.
pub fn exact_percentile(samples: &mut [u64], p: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let n = samples.len() as u64;
    let rank = nearest_rank(p, n);
    Some(Percentile {
        value: samples[(rank - 1) as usize] as f64,
        count: n,
        beyond: n - rank,
    })
}

/// A log-linear histogram of `u64` samples with a per-bucket sum, so a
/// percentile reads as the mean of the samples in its bucket: within 1%
/// of the exact nearest-rank value, and carrying every digit measured.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    sums: Vec<u64>,
    total: u64,
    sum: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            sums: vec![0; BUCKETS],
            total: 0,
            sum: 0,
        }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros() - SUB_BITS;
        let sub = (v >> octave) - SUB;
        (SUB + u64::from(octave) * SUB + sub) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let b = Self::bucket(v);
        self.counts[b] += 1;
        self.sums[b] = self.sums[b].saturating_add(v);
        self.total += 1;
        self.sum += u128::from(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Nearest-rank percentile `p`, `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<Percentile> {
        if self.total == 0 {
            return None;
        }
        let rank = nearest_rank(p, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Percentile {
                    value: self.sums[b] as f64 / c as f64,
                    count: self.total,
                    beyond: self.total - rank,
                });
            }
        }
        unreachable!(
            "rank {rank} lies within the {} recorded samples",
            self.total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        let p50 = exact_percentile(&mut v, 50.0).unwrap();
        assert_eq!((p50.value, p50.count, p50.beyond), (50.0, 100, 50));
        let p99 = exact_percentile(&mut v, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert_eq!(exact_percentile(&mut v, 100.0).unwrap().value, 100.0);
        // Rank 1 is the floor: p0 reads the smallest sample.
        assert_eq!(exact_percentile(&mut v, 0.0).unwrap().value, 1.0);
        // Ten samples: p99 is rank ceil(9.9) = 10, nothing beyond it.
        let mut ten: Vec<u64> = (1..=10).collect();
        let p = exact_percentile(&mut ten, 99.0).unwrap();
        assert_eq!((p.value, p.beyond), (10.0, 0));
        let mut one = vec![7];
        assert_eq!(exact_percentile(&mut one, 50.0).unwrap().value, 7.0);
        assert!(exact_percentile(&mut [], 50.0).is_none());
    }

    #[test]
    fn histogram_percentiles_stay_within_one_percent() {
        // A SplitMix64 stream spread over nine decades.
        let mut state = 7u64;
        let mut samples = Vec::new();
        let mut h = Hist::default();
        for _ in 0..200_000 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let v = 1 + (z >> (34 + z % 30));
            samples.push(v);
            h.record(v);
        }
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let exact = exact_percentile(&mut samples, p).unwrap();
            let approx = h.percentile(p).unwrap();
            let err = (approx.value - exact.value).abs() / exact.value;
            assert!(
                err <= 0.01,
                "p{p}: {} vs exact {}",
                approx.value,
                exact.value
            );
            assert_eq!((approx.count, approx.beyond), (exact.count, exact.beyond));
        }
        let mean = samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64;
        assert!((h.mean() - mean).abs() / mean < 1e-9);
    }

    #[test]
    fn buckets_cover_u64() {
        let mut a = Hist::default();
        for v in [0, u64::MAX, 127, 128] {
            a.record(v);
        }
        assert_eq!(a.count(), 4);
        assert_eq!(a.percentile(25.0).unwrap().value, 0.0);
        assert_eq!(a.percentile(50.0).unwrap().value, 127.0);
        assert_eq!(a.percentile(75.0).unwrap().value, 128.0);
        assert!(Hist::default().percentile(50.0).is_none());
    }
}
