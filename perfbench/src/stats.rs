//! Order statistics over repeated timings, and span self time.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spread the harness prints is the
//! spread anyone recomputing it from the raw values gets.

/// Five-number summary of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `samples`; panics on an empty slice (a metric with no
    /// repetition is a harness bug, not a measurement).
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of zero samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let quartile = |i: usize| -> f64 {
            if n == 1 {
                return sorted[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        Summary {
            n,
            min: sorted[0],
            q1: quartile(1),
            median: quartile(2),
            q3: quartile(3),
            max: sorted[n - 1],
        }
    }

    /// Distance between the first and third quartile.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// The IQR as a share of the median (0 when the median is 0).
    pub fn relative_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            self.iqr() / self.median.abs()
        }
    }
}

/// Median of `samples` (see [`Summary::of`]).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Self time of the interval `[start, end)`: its duration minus the part its
/// `children` cover. Children may nest or overlap each other (their union is
/// what counts) and are clipped to the parent.
pub fn self_time_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(start, end), e.clamp(start, end)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let from = s.max(cursor);
        if e > from {
            covered += e - from;
            cursor = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_count_matches_python_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!((s.n, s.min, s.max), (5, 1.0, 5.0));
        assert_eq!(s.iqr(), 3.0);
        assert_eq!(s.relative_spread(), 1.0);
    }

    #[test]
    fn even_count_matches_python_quantiles() {
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = Summary::of(&[4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = Summary::of(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn ten_values_match_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let s = Summary::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.iqr()), (7.0, 7.0, 7.0, 0.0));
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time_ns(100, 600, &[]), 500);
    }

    #[test]
    fn nested_children_count_once() {
        // [150,350) contains [200,300): the union covers 200 ns.
        assert_eq!(self_time_ns(100, 600, &[(150, 350), (200, 300)]), 300);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // [100,300) and [200,400) overlap: union is [100,400) = 300 ns.
        assert_eq!(self_time_ns(0, 1000, &[(200, 400), (100, 300)]), 700);
        // Disjoint children simply add up.
        assert_eq!(self_time_ns(0, 1000, &[(0, 100), (900, 1000)]), 800);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child that outlives the parent (a cell observed after the
        // operation's end was stamped) covers only the shared part.
        assert_eq!(self_time_ns(100, 200, &[(50, 150), (180, 900)]), 30);
        assert_eq!(self_time_ns(100, 200, &[(0, 50)]), 100);
    }
}
