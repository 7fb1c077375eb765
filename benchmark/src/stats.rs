//! Order statistics of repeated timings.

/// What is reported for one timed quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The highest percentile that still has at least ten samples beyond
    /// it, as `(percentile, value)`; absent below twenty samples.
    pub tail: Option<(f64, f64)>,
    /// In the order measured.
    pub samples: Vec<f64>,
}

impl Summary {
    pub fn n(&self) -> usize {
        self.samples.len()
    }
}

/// Quantile by linear interpolation at position `q * (n + 1)` (1-based,
/// clamped to the sample range): the "exclusive" rule, which is also what
/// Python's `statistics.quantiles` uses by default.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let pos = (q * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    let hi = (lo + 1).min(n);
    sorted[lo - 1] + frac * (sorted[hi - 1] - sorted[lo - 1])
}

pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "a timing needs at least one sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let tail = (n >= 20).then(|| {
        let pct = (n - 10) as f64 / n as f64;
        (100.0 * pct, s[n - 11])
    });
    Summary {
        median: quantile(&s, 0.5),
        q1: quantile(&s, 0.25),
        q3: quantile(&s, 0.75),
        tail,
        samples: samples.to_vec(),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_the_exclusive_rule() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.tail, None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.tail, Some((90.0, 90.0)));
        assert_eq!(summarize(&[3.0]).median, 3.0);
    }
}
