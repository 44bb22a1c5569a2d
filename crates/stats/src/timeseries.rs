//! Time-series diagnostics for the §6.2 periodicity extension: sample
//! autocorrelation, a dominant-period detector, and the Ljung–Box
//! portmanteau test for "is this series just noise?".

use crate::special::chi2_sf;
use crate::{Result, StatsError};

/// Sample autocorrelation at lags `0..=max_lag` (biased estimator, the
/// standard convention: divide by n and the lag-0 variance).
pub fn acf(series: &[f64], max_lag: usize) -> Result<Vec<f64>> {
    let n = series.len();
    if n < 3 {
        return Err(StatsError::InvalidInput("acf needs n ≥ 3".into()));
    }
    if max_lag >= n {
        return Err(StatsError::InvalidInput(format!(
            "max_lag {max_lag} must be < n = {n}"
        )));
    }
    let mean = series.iter().sum::<f64>() / n as f64;
    let var: f64 = series.iter().map(|v| (v - mean) * (v - mean)).sum();
    if var <= 0.0 {
        return Err(StatsError::Numeric("acf of a constant series".into()));
    }
    Ok((0..=max_lag)
        .map(|lag| {
            let cov: f64 = (0..n - lag)
                .map(|i| (series[i] - mean) * (series[i + lag] - mean))
                .sum();
            cov / var
        })
        .collect())
}

/// The result of a periodicity scan.
#[derive(Debug, Clone, PartialEq)]
pub struct Periodicity {
    /// The lag (≥ 2) with the largest autocorrelation.
    pub dominant_lag: usize,
    /// The autocorrelation at that lag.
    pub strength: f64,
    /// The approximate two-sided significance threshold `±1.96/√n`.
    pub threshold: f64,
    /// Whether the dominant lag clears the threshold.
    pub significant: bool,
}

/// Scans lags `2..=max_lag` for a dominant period in the series.
/// (Lag 1 is excluded: adjacent-snapshot correlation is expected from the
/// rolling window; periodicity means a *recurrence* at longer lags.)
pub fn detect_periodicity(series: &[f64], max_lag: usize) -> Result<Periodicity> {
    let correlations = acf(series, max_lag)?;
    let n = series.len() as f64;
    let threshold = 1.96 / n.sqrt();
    let (dominant_lag, strength) = correlations
        .iter()
        .enumerate()
        .skip(2)
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(lag, &r)| (lag, r))
        .ok_or_else(|| StatsError::InvalidInput("max_lag must be ≥ 2".into()))?;
    Ok(Periodicity {
        dominant_lag,
        strength,
        threshold,
        significant: strength > threshold,
    })
}

/// Ljung–Box portmanteau test: H₀ = the series is white noise up to
/// `max_lag`. Returns (Q statistic, p-value).
pub fn ljung_box(series: &[f64], max_lag: usize) -> Result<(f64, f64)> {
    let correlations = acf(series, max_lag)?;
    let n = series.len() as f64;
    let q: f64 = (1..=max_lag)
        .map(|lag| {
            let r = correlations[lag];
            r * r / (n - lag as f64)
        })
        .sum::<f64>()
        * n
        * (n + 2.0);
    Ok((q, chi2_sf(q, max_lag as f64)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ytaudit_types::kit::mix64;

    #[test]
    fn acf_of_constant_trendless_noise_is_small() {
        // A deterministic low-autocorrelation sequence (a hash, not an
        // LCG — linear congruences have strong lag structure).
        let series: Vec<f64> = (0..200u64).map(|i| (mix64(i) % 1000) as f64).collect();
        let r = acf(&series, 10).unwrap();
        assert!((r[0] - 1.0).abs() < 1e-12);
        for &v in &r[1..] {
            assert!(v.abs() < 0.2, "{v}");
        }
        let (_q, p) = ljung_box(&series, 10).unwrap();
        assert!(
            p > 0.01,
            "pseudo-random series should look like noise: p={p}"
        );
    }

    #[test]
    fn acf_detects_a_planted_period() {
        // Period-7 signal plus small deterministic jitter.
        let series: Vec<f64> = (0..140)
            .map(|i| (std::f64::consts::TAU * i as f64 / 7.0).sin() + ((i * 37) % 11) as f64 * 0.01)
            .collect();
        let p = detect_periodicity(&series, 20).unwrap();
        assert_eq!(p.dominant_lag, 7, "{p:?}");
        assert!(p.strength > 0.8);
        assert!(p.significant);
        let (_q, pval) = ljung_box(&series, 10).unwrap();
        assert!(pval < 1e-6);
    }

    #[test]
    fn acf_is_symmetric_in_shift_and_scale() {
        let base: Vec<f64> = (0..60).map(|i| ((i * 31) % 17) as f64).collect();
        let scaled: Vec<f64> = base.iter().map(|v| v * 3.0 + 100.0).collect();
        let a = acf(&base, 8).unwrap();
        let b = acf(&scaled, 8).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn errors_on_degenerate_input() {
        assert!(acf(&[1.0, 2.0], 1).is_err());
        assert!(acf(&[1.0; 10], 3).is_err()); // constant
        assert!(acf(&[1.0, 2.0, 3.0, 4.0], 4).is_err()); // lag ≥ n
        assert!(detect_periodicity(&[1.0, 2.0, 1.0, 2.0, 1.0], 1).is_err());
    }

    #[test]
    fn ljung_box_matches_hand_computation_on_tiny_series() {
        let series = [1.0, 3.0, 2.0, 5.0, 4.0, 6.0, 5.0, 8.0];
        let r = acf(&series, 2).unwrap();
        let n = 8.0;
        let expected_q = n * (n + 2.0) * (r[1] * r[1] / (n - 1.0) + r[2] * r[2] / (n - 2.0));
        let (q, p) = ljung_box(&series, 2).unwrap();
        assert!((q - expected_q).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&p));
    }
}
