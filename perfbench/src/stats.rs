//! Order statistics for summarising repeated timings.
//!
//! Quantiles follow Python's `statistics.quantiles` (its default
//! "exclusive" method), the same arithmetic used to judge the spread of a
//! set of benchmark runs, so a summary printed here and one computed from
//! the printed values agree.

/// Cut points dividing `values` into `n` groups of equal probability, as
/// `statistics.quantiles(values, n=n)` computes them. `None` when there are
/// fewer than two values or `n` is zero.
pub fn quantiles(values: &[f64], n: usize) -> Option<Vec<f64>> {
    if values.len() < 2 || n == 0 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    let cuts = (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            // As in Python, `delta` is taken after clamping `j`, so for a
            // tiny sample the outer cuts extrapolate past its ends.
            let delta = (i * m) as f64 - (j * n) as f64;
            (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
        })
        .collect();
    Some(cuts)
}

/// The median: the middle value, or the mean of the middle two.
///
/// # Panics
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let mid = data.len() / 2;
    if data.len() % 2 == 1 {
        data[mid]
    } else {
        (data[mid - 1] + data[mid]) / 2.0
    }
}

/// The highest whole percentile that still has at least ten samples beyond
/// it, with its value; `None` when the sample is too small for any
/// percentile above the median to qualify.
pub fn tail_percentile(values: &[f64]) -> Option<(u32, f64)> {
    let n = values.len();
    // Percentile p leaves n * (100 - p) / 100 samples above it.
    let p = (51..=99u32)
        .rev()
        .find(|&p| n * (100 - p as usize) >= 10 * 100)?;
    let cuts = quantiles(values, 100)?;
    Some((p, cuts[p as usize - 1]))
}

/// Median, quartiles and tail of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub median: f64,
    /// First and third quartile, when there are at least two samples.
    pub quartiles: Option<(f64, f64)>,
    /// The highest percentile with ten samples beyond it, if any.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarises `values`.
    ///
    /// # Panics
    /// Panics if `values` is empty.
    pub fn of(values: &[f64]) -> Self {
        Summary {
            n: values.len(),
            median: median(values),
            quartiles: quantiles(values, 4).map(|q| (q[0], q[2])),
            tail: tail_percentile(values),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
    }

    fn all_close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| close(*x, *y))
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // Expected values are what Python 3.11's
        // `statistics.quantiles(data, n=4)` returns for the same data.
        let cases: [(&[f64], [f64; 3]); 5] = [
            (&[1.0, 2.0], [0.75, 1.5, 2.25]),
            (&[3.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
            (&[1.0, 2.0, 3.0, 4.0], [1.25, 2.5, 3.75]),
            (
                &[4.1, 3.9, 4.4, 4.0, 4.2, 3.8, 4.3, 4.05, 4.15, 3.95],
                [3.9375, 4.075, 4.225],
            ),
            (&[10.0, 10.0, 10.0], [10.0, 10.0, 10.0]),
        ];
        for (data, want) in cases {
            let got = quantiles(data, 4).expect("two or more values");
            assert!(all_close(&got, &want), "{data:?}: {got:?} != {want:?}");
        }
    }

    #[test]
    fn deciles_match_python_statistics() {
        // `statistics.quantiles(range(1, 11), n=10)`.
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        let want = [1.1, 2.2, 3.3, 4.4, 5.5, 6.6, 7.7, 8.8, 9.9];
        let got = quantiles(&data, 10).expect("ten values");
        assert!(all_close(&got, &want), "{got:?}");
    }

    #[test]
    fn quantiles_need_two_values() {
        assert_eq!(quantiles(&[], 4), None);
        assert_eq!(quantiles(&[1.0], 4), None);
        assert_eq!(quantiles(&[1.0, 2.0], 0), None);
    }

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail_percentile(&few), None);
        // 20 samples: only the median leaves ten above it.
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail_percentile(&twenty), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, v) = tail_percentile(&hundred).expect("enough samples");
        assert_eq!(p, 90);
        // `statistics.quantiles(range(1, 101), n=100)[89]` == 90.9.
        assert!(close(v, 90.9), "{v}");
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand).map(|t| t.0), Some(99));
    }

    #[test]
    fn summary_collects_all_parts() {
        let s = Summary::of(&[2.0, 1.0, 3.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.quartiles, Some((1.0, 3.0)));
        assert_eq!(s.tail, None);
    }
}
