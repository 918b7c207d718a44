//! Paired A/B statistics: the one way this repository turns wall-clock
//! samples into a verdict, for `cargo xtask ab` and the wall-clock
//! verdicts in [`crate::verdicts`] alike. A measurement is a list of
//! base/change pairs taken back to back, the order alternating, so host
//! drift lands on both sides alike. [`Paired::new`] summarises them with
//! a seeded, hence repeatable, bootstrap interval of the change/base
//! ratio of medians, and [`Paired::against`] judges that interval.

use serde::{Serialize, Value};

/// Bootstrap resamples behind each interval.
pub const RESAMPLES: usize = 2000;

/// Seed of the bootstrap's resampling stream.
pub const SEED: u64 = 0x5eed_ab0b;

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (time, pauses, overheads).
    Lower,
    /// Bigger is better (rates).
    Higher,
}

/// How a check came out: a verdict, a gate check, or a paired ratio
/// against its bar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Cleared the bar (for an interval: all of it).
    Pass,
    /// An interval straddling its bar: the samples cannot tell pass from
    /// fail on this host.
    Unresolved,
    /// Missed the bar (for an interval: all of it lies past).
    Fail,
}

impl Status {
    /// `Pass` when `pass`, else `Fail`.
    pub fn from_pass(pass: bool) -> Status {
        if pass {
            Status::Pass
        } else {
            Status::Fail
        }
    }

    /// `PASS` / `UNRESOLVED` / `FAIL`, as reports and the trajectory
    /// spell it.
    pub fn as_str(self) -> &'static str {
        ["PASS", "UNRESOLVED", "FAIL"][self as usize]
    }

    /// Parses [`Status::as_str`]'s spelling.
    pub fn parse(s: &str) -> Option<Status> {
        [Status::Pass, Status::Unresolved, Status::Fail]
            .into_iter()
            .find(|status| status.as_str() == s)
    }
}

impl Serialize for Status {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

/// Summary of one paired measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Paired {
    /// Base side: (lower quartile, median, upper quartile).
    pub base: (f64, f64, f64),
    /// Change side: (lower quartile, median, upper quartile).
    pub change: (f64, f64, f64),
    /// Pairs in which the change was strictly better; ties count for
    /// neither side.
    pub wins: usize,
    /// Change median / base median.
    pub ratio: f64,
    /// Bootstrap 95% interval of [`Self::ratio`].
    pub interval: (f64, f64),
}

impl Paired {
    /// Summarises `base[i]` against `change[i]`.
    ///
    /// # Panics
    ///
    /// Panics when the sides differ in length or are empty.
    pub fn new(base: &[f64], change: &[f64], better: Better) -> Paired {
        assert!(
            !base.is_empty() && base.len() == change.len(),
            "paired samples need equal, non-zero counts"
        );
        let n = base.len();
        let wins = base
            .iter()
            .zip(change)
            .filter(|&(b, c)| match better {
                Better::Lower => c < b,
                Better::Higher => c > b,
            })
            .count();
        let mut rng = SEED;
        let mut ratios = Vec::with_capacity(RESAMPLES);
        let (mut b, mut c) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..RESAMPLES {
            b.clear();
            c.clear();
            for _ in 0..n {
                let i = (splitmix(&mut rng) % n as u64) as usize;
                b.push(base[i]);
                c.push(change[i]);
            }
            ratios.push(quartiles(&c).1 / quartiles(&b).1);
        }
        ratios.sort_by(f64::total_cmp);
        let (base, change) = (quartiles(base), quartiles(change));
        Paired {
            base,
            change,
            wins,
            ratio: change.1 / base.1,
            interval: (
                ratios[RESAMPLES * 25 / 1000],
                ratios[RESAMPLES * 975 / 1000 - 1],
            ),
        }
    }

    /// Places the ratio interval against `bar`, a ratio the change may
    /// not pass: with `Better::Lower` the interval fails when it lies
    /// wholly above the bar, with `Better::Higher` wholly below it.
    pub fn against(&self, bar: f64, better: Better) -> Status {
        let (lo, hi) = self.interval;
        match better {
            Better::Lower if hi <= bar => Status::Pass,
            Better::Lower if lo > bar => Status::Fail,
            Better::Higher if lo >= bar => Status::Pass,
            Better::Higher if hi < bar => Status::Fail,
            _ => Status::Unresolved,
        }
    }
}

/// (lower quartile, median, upper quartile) of `xs`, each by linear
/// interpolation between the closest ranks.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of nothing");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (s.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// SplitMix64: the bootstrap's resampling stream (and the fleet
/// drivers').
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_ranks() {
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.5, 2.0, 2.5));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.75, 2.5, 3.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn fixed_pairs_give_known_medians_and_wins() {
        let base = [10.0, 11.0, 12.0, 13.0, 14.0];
        let change = [9.0, 12.0, 11.0, 13.0, 13.0];
        let p = Paired::new(&base, &change, Better::Lower);
        assert_eq!(p.base, (11.0, 12.0, 13.0));
        assert_eq!(p.change, (11.0, 12.0, 13.0));
        // 9 < 10, 11 < 12, 13 < 14; 13 = 13 is a tie and 12 > 11 a loss.
        assert_eq!(p.wins, 3);
        assert_eq!(Paired::new(&base, &change, Better::Higher).wins, 1);
        assert_eq!(p.ratio, 1.0);
        assert!(p.interval.0 <= 1.0 && 1.0 <= p.interval.1, "{p:?}");
    }

    #[test]
    fn bootstrap_is_deterministic_under_its_seed() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + (i * 7 % 10) as f64).collect();
        let change: Vec<f64> = (0..10).map(|i| 104.0 + (i * 3 % 10) as f64).collect();
        let a = Paired::new(&base, &change, Better::Lower);
        let b = Paired::new(&base, &change, Better::Lower);
        assert_eq!(a, b);
        assert!(a.interval.0 < a.ratio && a.ratio < a.interval.1, "{a:?}");
    }

    #[test]
    fn intervals_classify_against_a_bar() {
        let base = [1.0; 10];
        let slower: Vec<f64> = (0..10).map(|i| 1.5 + i as f64 * 0.01).collect();
        let p = Paired::new(&base, &slower, Better::Lower);
        // Every resample sits between 1.50 and 1.59.
        assert_eq!(p.against(1.2, Better::Lower), Status::Fail);
        assert_eq!(p.against(1.55, Better::Lower), Status::Unresolved);
        assert_eq!(p.against(2.0, Better::Lower), Status::Pass);
        // The same interval read as a rate the change must raise 2x.
        assert_eq!(p.against(2.0, Better::Higher), Status::Fail);
        assert_eq!(p.against(1.55, Better::Higher), Status::Unresolved);
        assert_eq!(p.against(1.2, Better::Higher), Status::Pass);
    }

    #[test]
    fn statuses_round_trip_their_spelling() {
        for status in [Status::Pass, Status::Unresolved, Status::Fail] {
            assert_eq!(Status::parse(status.as_str()), Some(status));
        }
        assert_eq!(Status::parse("BELOW-BAR"), None);
    }
}
