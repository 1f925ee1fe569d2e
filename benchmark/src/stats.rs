//! Sample summaries: median and quartiles computed exactly as Python's
//! `statistics.median` and `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads this benchmark reports are
//! the ones a reader recomputes from the raw samples.

/// Median, quartiles and raw samples of one metric; the median is the
/// value a run reports.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: Vec<f64>,
}

impl Summary {
    /// Summarises `samples`, which must not be empty.
    pub fn of(samples: Vec<f64>) -> Summary {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&sorted);
        Summary {
            median: median(&sorted),
            q1,
            q3,
            samples,
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn relative_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile; one sample is its own quartiles.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let ld = sorted.len();
    if ld < 2 {
        return (sorted[0], sorted[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of((1..=10).map(f64::from).collect());
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(vec![3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([4, 8], n=4) == [3.0, 6.0, 9.0]
        let s = Summary::of(vec![8.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (3.0, 6.0, 9.0));
        assert_eq!(s.samples, vec![8.0, 4.0], "samples keep their order");
    }

    #[test]
    fn single_sample_has_no_spread() {
        let s = Summary::of(vec![0.25]);
        assert_eq!((s.q1, s.median, s.q3), (0.25, 0.25, 0.25));
        assert_eq!(s.relative_iqr(), 0.0);
    }
}
