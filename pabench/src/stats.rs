//! Order statistics and failure accounting.

/// Latency recorded for an operation that failed: it must stay in the
/// sample (a failed request misses every limit), so it sorts last.
pub const FAILED_NS: u64 = u64::MAX;

/// Operations attempted and failed. A failure is a wrong byte, an
/// unexpected status, a timeout or a dead child — never dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations whose outcome was not the expected one.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The `i`-th quartile cut (1, 2 or 3) of an ascending slice, by the
/// rule of Python's `statistics.quantiles(values, n=4)`, which is what
/// the benchmark driver applies to a set of runs.
fn quartile_sorted(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Median, quartiles and extremes of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// Summarises `values` (which must be non-empty).
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        Summary {
            n,
            min: v[0],
            q1: quartile_sorted(&v, 1),
            median: quartile_sorted(&v, 2),
            q3: quartile_sorted(&v, 3),
            max: v[n - 1],
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Median and tail of a latency sample in nanoseconds, as microseconds.
/// The tail is the 99th percentile when the sample has at least 1000
/// values (ten beyond it); a smaller sample supports no percentile
/// that far out, and its tail is the upper quartile. A failed
/// operation ([`FAILED_NS`]) reads as infinity.
pub fn latency_us(ns: &mut [u64]) -> (f64, f64) {
    assert!(!ns.is_empty(), "latency of an empty sample");
    ns.sort_unstable();
    let us = |v: u64| {
        if v == FAILED_NS {
            f64::INFINITY
        } else {
            v as f64 / 1e3
        }
    };
    let p50 = ns[(ns.len() - 1) / 2];
    let tail = if ns.len() >= 1000 {
        ns[(ns.len() * 99).div_ceil(100) - 1]
    } else {
        ns[(ns.len() * 3).div_ceil(4) - 1]
    };
    (us(p50), us(tail))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_hand_values() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 1.5, 3.0, 4.5, 5.0)
        );
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        let one = Summary::of(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn a_failed_operation_stays_in_the_sample() {
        let mut ns: Vec<u64> = (1..=1000).map(|i| i * 1000).collect();
        let (p50, p99) = latency_us(&mut ns);
        assert_eq!((p50, p99), (500.0, 990.0));
        // Eleven failures in a thousand push the 99th percentile out.
        for v in ns.iter_mut().take(11) {
            *v = FAILED_NS;
        }
        let (_, p99) = latency_us(&mut ns);
        assert!(p99.is_infinite());
        let mut few = vec![3000, 1000, 2000, 4000];
        assert_eq!(latency_us(&mut few), (2.0, 3.0));
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        let mut sum = Tally::default();
        sum.absorb(t);
        sum.absorb(t);
        assert_eq!((sum.attempted, sum.failed), (4, 2));
    }
}
