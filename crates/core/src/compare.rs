//! Metric helpers: speed-ups, miss reductions and geometric means.

/// Speed-up (in percent) of a candidate over a baseline given their cycle (or
/// runtime) counts: positive when the candidate is faster.
pub fn speedup_pct(baseline: f64, candidate: f64) -> f64 {
    assert!(
        baseline > 0.0 && candidate > 0.0,
        "cycle counts must be positive"
    );
    (baseline / candidate - 1.0) * 100.0
}

/// Percentage of misses eliminated by the candidate relative to the baseline
/// (positive = fewer misses). The metric of Figs. 5 and 11.
pub fn miss_reduction_pct(baseline_misses: u64, candidate_misses: u64) -> f64 {
    if baseline_misses == 0 {
        return 0.0;
    }
    (baseline_misses as f64 - candidate_misses as f64) / baseline_misses as f64 * 100.0
}

/// Geometric mean of a set of speed-up percentages, computed over the
/// underlying ratios (the way the paper's "GM" bars are computed): each
/// percentage `p` corresponds to a ratio `1 + p/100`; the result is converted
/// back to a percentage.
pub fn geometric_mean_speedup(speedups_pct: &[f64]) -> f64 {
    if speedups_pct.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = speedups_pct
        .iter()
        .map(|&p| {
            let ratio = 1.0 + p / 100.0;
            assert!(ratio > 0.0, "speed-up below -100% is not meaningful");
            ratio.ln()
        })
        .sum();
    ((log_sum / speedups_pct.len() as f64).exp() - 1.0) * 100.0
}

/// Arithmetic mean of a set of percentages (used for miss-reduction averages).
pub fn arithmetic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_sign_and_magnitude() {
        assert!((speedup_pct(110.0, 100.0) - 10.0).abs() < 1e-9);
        assert!(speedup_pct(100.0, 110.0) < 0.0);
        assert_eq!(speedup_pct(100.0, 100.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_cycles_panics() {
        let _ = speedup_pct(0.0, 1.0);
    }

    #[test]
    fn miss_reduction_handles_edge_cases() {
        assert!((miss_reduction_pct(200, 150) - 25.0).abs() < 1e-12);
        assert!((miss_reduction_pct(100, 150) + 50.0).abs() < 1e-12);
        assert_eq!(miss_reduction_pct(0, 5), 0.0);
    }

    #[test]
    fn geometric_mean_of_identical_values_is_that_value() {
        let gm = geometric_mean_speedup(&[5.0, 5.0, 5.0]);
        assert!((gm - 5.0).abs() < 1e-9);
    }

    #[test]
    fn geometric_mean_mixes_gains_and_losses() {
        // +10% and -9.09% are reciprocal ratios: GM should be ~0.
        let gm = geometric_mean_speedup(&[10.0, -9.090909]);
        assert!(gm.abs() < 1e-3, "gm {gm}");
        assert_eq!(geometric_mean_speedup(&[]), 0.0);
    }

    #[test]
    fn arithmetic_mean_basics() {
        assert_eq!(arithmetic_mean(&[]), 0.0);
        assert!((arithmetic_mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
