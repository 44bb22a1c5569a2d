//! Periodicity analysis — the paper's §6.2 proposal, implemented.
//!
//! "Future research can replicate our experiments with more sparse
//! collections over a longer period, to check for potential periodicity
//! in set similarities." This module runs that check: it takes a
//! collected dataset, builds the vs-first similarity series J(Sₜ, S₁),
//! detrends it by first-differencing, and scans for a dominant cycle
//! with the autocorrelation tooling in `ytaudit-stats::timeseries`.
//!
//! The calibrated sampler is aperiodic, so the default platform should
//! *fail* this test — and a platform built with
//! `SamplerConfig::with_seasonality(...)` should pass it, which is how
//! the detector itself is validated.

use crate::dataset::AuditDataset;
use serde::{Deserialize, Serialize};
use ytaudit_stats::timeseries::{acf, detect_periodicity, ljung_box, Periodicity};
use ytaudit_stats::{Result as StatsResult, StatsError};
use ytaudit_types::Topic;

/// The periodicity scan of one topic's similarity series.
///
/// The scanned signal is the *first difference* of the vs-first series
/// ΔJ(Sₜ, S₁): similarity to the first snapshot oscillates with the full
/// period of any planted cycle (each video's key returns to its starting
/// value every period, whatever its phase), and differencing removes the
/// monotone decay trend that would otherwise fake long-lag correlation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeriodicityReport {
    /// The topic scanned.
    pub topic: Topic,
    /// The vs-first Jaccard series J(Sₜ, S₁), t = 1….
    pub series: Vec<f64>,
    /// The detrended signal actually scanned (first differences).
    pub detrended: Vec<f64>,
    /// Sample autocorrelation of the detrended signal at lags 0..=max_lag.
    pub acf: Vec<f64>,
    /// The dominant lag (≥ 2) and whether it is significant.
    pub dominant_lag: usize,
    /// Autocorrelation at the dominant lag.
    pub strength: f64,
    /// The ±1.96/√n significance threshold.
    pub threshold: f64,
    /// Whether the dominant lag clears the threshold.
    pub significant: bool,
    /// Ljung–Box Q statistic over the scanned lags.
    pub ljung_box_q: f64,
    /// Ljung–Box p-value (small ⇒ the series is not white noise).
    pub ljung_box_p: f64,
}

/// Scans one topic. `max_lag` defaults to a third of the series length
/// when `None`.
pub fn analyze(
    dataset: &AuditDataset,
    topic: Topic,
    max_lag: Option<usize>,
) -> StatsResult<PeriodicityReport> {
    let n = dataset.len();
    if n < 8 {
        return Err(StatsError::InvalidInput(format!(
            "periodicity needs ≥ 8 snapshots, got {n}"
        )));
    }
    let sets: Vec<_> = (0..n).map(|i| dataset.id_set(topic, i)).collect();
    let series: Vec<f64> = sets[1..]
        .iter()
        // ytlint: allow(indexing) — n ≥ 8 guard above: sets is non-empty
        .map(|s| ytaudit_stats::sets::jaccard(s, &sets[0]))
        .collect();
    // ytlint: allow(indexing) — windows(2) yields exactly-2-long slices
    let detrended: Vec<f64> = series.windows(2).map(|w| w[1] - w[0]).collect();
    let max_lag = max_lag
        .unwrap_or(detrended.len() / 3)
        .clamp(2, detrended.len().saturating_sub(1));
    let correlations = acf(&detrended, max_lag)?;
    let dominant = detect_periodicity(&detrended, max_lag)?;
    let (q, p) = ljung_box(&detrended, max_lag)?;
    let Periodicity {
        dominant_lag,
        strength,
        threshold,
        significant,
    } = dominant;
    Ok(PeriodicityReport {
        topic,
        series,
        detrended,
        acf: correlations,
        dominant_lag,
        strength,
        threshold,
        significant,
        ljung_box_q: q,
        ljung_box_p: p,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablation::client_with_sampler;
    use crate::collect::{Collector, CollectorConfig};
    use crate::schedule::Schedule;
    use ytaudit_platform::SamplerConfig;
    use ytaudit_types::Timestamp;

    fn sparse_collection(sampler: SamplerConfig, snapshots: usize) -> AuditDataset {
        let (client, _service) = client_with_sampler(0.25, sampler);
        let config = CollectorConfig {
            topics: vec![Topic::Capitol],
            schedule: Schedule::every(Timestamp::from_ymd(2025, 2, 9).unwrap(), 5, snapshots),
            hourly_bins: true,
            fetch_metadata: false,
            fetch_channels: false,
            fetch_comments: false,
            shard: None,
            platform: ytaudit_types::PlatformKind::Youtube,
        };
        Collector::new(&client, config).run().unwrap()
    }

    #[test]
    fn planted_seasonality_is_detected() {
        // Period 20 days, collected every 5 days ⇒ dominant lag 4.
        let dataset = sparse_collection(SamplerConfig::default().with_seasonality(20.0, 0.22), 24);
        let report = analyze(&dataset, Topic::Capitol, Some(6)).unwrap();
        assert_eq!(report.dominant_lag, 4, "{report:?}");
        assert!(report.significant, "{report:?}");
        assert!(report.ljung_box_p < 0.05, "{report:?}");
    }

    #[test]
    fn default_sampler_is_aperiodic() {
        let dataset = sparse_collection(SamplerConfig::default(), 16);
        let report = analyze(&dataset, Topic::Capitol, Some(5)).unwrap();
        // Adjacent similarity under the calibrated sampler drifts slowly;
        // short-lag autocorrelation exists, but no *periodic* recurrence
        // should dominate decisively the way the planted cycle does.
        assert!(
            report.strength < 0.8,
            "no strong cycle expected: {report:?}"
        );
        assert_eq!(report.series.len(), 15);
        assert_eq!(report.detrended.len(), 14);
        assert!((report.acf[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn too_few_snapshots_error() {
        let dataset = sparse_collection(SamplerConfig::default(), 4);
        assert!(analyze(&dataset, Topic::Capitol, None).is_err());
    }
}
