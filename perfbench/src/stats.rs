//! Order statistics for timing samples.
//!
//! Quartiles use the default ("exclusive") method of Python's
//! `statistics.quantiles(data, n=4)`, so the spread a run reports is the
//! spread a reader recomputes from the same samples.

/// Median, quartiles and extremes of one metric's samples in a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Middle value (mean of the two middle values for even `n`).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        let [q1, q3] = quartiles(&sorted);
        Some(Summary {
            n: sorted.len(),
            median: median(&sorted),
            q1,
            q3,
            min,
            max,
        })
    }
}

/// Median of sorted, non-empty `sorted`.
pub fn median(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartiles of sorted, non-empty `sorted`, by the
/// exclusive method of `statistics.quantiles(data, n=4)`. A single
/// sample is its own quartiles.
pub fn quartiles(sorted: &[f64]) -> [f64; 2] {
    let len = sorted.len();
    if len == 1 {
        return [sorted[0], sorted[0]];
    }
    let m = len + 1;
    [1, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        // Negative when the clamp moved `j` up: extrapolation, as in Python.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0, 4.0]);
    }

    #[test]
    fn summary_sorts_its_samples() {
        let s = Summary::of(&[3.0, 1.0, 2.0, 10.0]).expect("non-empty");
        assert_eq!((s.n, s.min, s.max, s.median), (4, 1.0, 10.0, 2.5));
        assert_eq!([s.q1, s.q3], quartiles(&[1.0, 2.0, 3.0, 10.0]));
        assert!(Summary::of(&[]).is_none());
    }
}
