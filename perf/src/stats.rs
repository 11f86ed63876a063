//! Order statistics over small samples.

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Panics on an empty sample: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Quartile `i` of 4 exactly as Python's `statistics.quantiles(values,
/// n=4)` computes it (the exclusive method, which extrapolates past the
/// ends of very small samples), so spreads computed here and by a driver
/// agree.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let len = sorted.len();
    if len == 1 {
        return sorted[0];
    }
    let m = len + 1;
    let j = (i * m / 4).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    Summary {
        median: quartile(&s, 2),
        q1: quartile(&s, 1),
        q3: quartile(&s, 3),
        n: s.len(),
    }
}

/// Nearest-rank percentile, `p` in (0, 100].
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest whole percentile that still has at least ten samples beyond
/// it, never below the median: 99 from 1000 samples, 90 from 100.
pub fn tail_percentile(n: usize) -> f64 {
    if n < 20 {
        return 50.0;
    }
    (100.0 * (1.0 - 10.0 / n as f64)).floor().clamp(50.0, 99.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_single_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        let s = summarize(&[50.0, 10.0, 40.0, 20.0, 30.0]);
        assert_eq!((s.q1, s.median, s.q3), (15.0, 30.0, 45.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = summarize(&[5.0]);
        assert_eq!((s.q1, s.median, s.q3), (5.0, 5.0, 5.0));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[9.0], 99.0), 9.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1100), 99.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 98.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(5), 50.0);
    }
}
