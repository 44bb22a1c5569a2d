//! Ablation experiments: switch off one sampler mechanism at a time and
//! check which of the paper's signatures disappears.
//!
//! DESIGN.md encodes the paper's *inferred* mechanism into the simulator;
//! this module is the evidence that each mechanism is individually
//! load-bearing:
//!
//! | variant               | expected change |
//! |-----------------------|-----------------|
//! | `default`             | all signatures present |
//! | `frozen` (stability 1)| Figure 1 decay and Figure 3 churn vanish |
//! | `memoryless` (stab. 0)| adjacent-snapshot similarity collapses to the long-run floor — no rolling window |
//! | `no-gating`           | forced-zero hours disappear (Table 2's suppression) |
//! | `no-propensity`       | Table 3's popularity coefficients go to ~0 |

use crate::collect::{Collector, CollectorConfig};
use crate::dataset::AuditDataset;
use crate::streaming::Analyzer;
use std::sync::Arc;
use ytaudit_api::service::{ApiService, FaultConfig};
use ytaudit_client::{InProcessTransport, YouTubeClient};
use ytaudit_platform::{Corpus, CorpusConfig, Platform, SamplerConfig, SimClock};
use ytaudit_types::{Result, Topic};

/// Observables extracted from one ablated audit run.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationOutcome {
    /// Variant label.
    pub variant: String,
    /// Final J(Sₜ, S₁) for the churniest topic collected.
    pub final_jaccard: f64,
    /// Mean adjacent-snapshot Jaccard.
    pub mean_adjacent_jaccard: f64,
    /// Share of window hours with zero returns at the first snapshot.
    pub zero_hour_share: f64,
    /// Videos returned in hours the default density gate suppresses —
    /// exactly 0 with gating on, positive with it off.
    pub gated_hour_returns: usize,
    /// The `likes` coefficient of the binned ordinal regression (NaN if
    /// the model could not be fit for this variant).
    pub likes_coefficient: f64,
    /// P(present | PP) from the attrition Markov chain (NaN if
    /// unobservable).
    pub p_stay_present: f64,
}

/// Builds an in-process client over a platform with the given sampler.
pub fn client_with_sampler(scale: f64, sampler: SamplerConfig) -> (YouTubeClient, Arc<ApiService>) {
    let platform = Platform::with_sampler(
        Corpus::generate(CorpusConfig {
            scale,
            ..CorpusConfig::default()
        }),
        sampler,
    );
    let service = Arc::new(
        ApiService::new(Arc::new(platform), SimClock::at_audit_start()).with_faults(FaultConfig {
            metadata_miss_rate: 0.0,
            backend_error_rate: 0.0,
        }),
    );
    service.quota().register("ablate", u64::MAX / 2);
    let client = YouTubeClient::new(
        Box::new(InProcessTransport::new(Arc::clone(&service))),
        "ablate",
    );
    (client, service)
}

/// Runs one ablated audit (default: BLM + Higgs, `snapshots` snapshots at
/// `scale` corpus scale) and extracts the observables.
pub fn run_variant(
    label: &str,
    sampler: SamplerConfig,
    scale: f64,
    snapshots: usize,
) -> Result<AblationOutcome> {
    let (client, _service) = client_with_sampler(scale, sampler);
    let config = CollectorConfig::quick(vec![Topic::Capitol, Topic::Higgs], snapshots);
    let dataset = Collector::new(&client, config).run()?;
    Ok(extract(label, &dataset))
}

/// Extracts the ablation observables from a collected dataset.
pub fn extract(label: &str, dataset: &AuditDataset) -> AblationOutcome {
    let focus = dataset.topics.first().copied().unwrap_or(Topic::Capitol);
    let report = Analyzer::analyze_dataset(dataset);
    let consistency = report.figure1.iter().find(|tc| tc.topic == focus);
    let zero_hour_share = dataset
        .snapshots
        .first()
        .and_then(|s| s.topics.get(&focus))
        .map(|ts| {
            let non_zero = ts.hours.iter().filter(|h| !h.video_ids.is_empty()).count();
            1.0 - non_zero as f64 / 672.0
        })
        .unwrap_or(f64::NAN);
    // Returns landing in hours the default gate would suppress: exactly 0
    // under gating, positive without it.
    let default_gate = ytaudit_platform::SamplerConfig::default().gate_fraction;
    let density = ytaudit_platform::InterestDensity::for_topic(&focus.spec());
    let gated_hour_returns: usize = dataset
        .snapshots
        .iter()
        .filter_map(|s| s.topics.get(&focus))
        .flat_map(|ts| ts.hours.iter())
        .filter(|h| density.is_gated(h.hour as usize, default_gate))
        .map(|h| h.video_ids.len())
        .sum();
    let likes_coefficient = report
        .regression
        .as_ref()
        .ok()
        .and_then(|reg| reg.table3.as_ref().ok())
        .and_then(|fit| fit.coefficient("likes"))
        .unwrap_or(f64::NAN);
    let p_stay_present = report
        .figure3
        .as_ref()
        .map(|f| f.p_stay_present())
        .unwrap_or(f64::NAN);
    AblationOutcome {
        variant: label.to_string(),
        final_jaccard: consistency.map_or(f64::NAN, |tc| tc.final_jaccard_first()),
        mean_adjacent_jaccard: consistency.map_or(f64::NAN, |tc| tc.mean_jaccard_prev()),
        zero_hour_share,
        gated_hour_returns,
        likes_coefficient,
        p_stay_present,
    }
}

/// The standard variant suite.
pub fn standard_variants() -> Vec<(&'static str, SamplerConfig)> {
    vec![
        ("default", SamplerConfig::default()),
        ("frozen", SamplerConfig::default().frozen()),
        ("memoryless", SamplerConfig::default().memoryless()),
        ("no-gating", SamplerConfig::default().without_gating()),
        (
            "no-propensity",
            SamplerConfig::default().without_propensity(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frozen_sampler_kills_the_churn() {
        let default = run_variant("default", SamplerConfig::default(), 0.15, 3).unwrap();
        let frozen = run_variant("frozen", SamplerConfig::default().frozen(), 0.15, 3).unwrap();
        assert!(
            frozen.final_jaccard > 0.97,
            "frozen sampler must be ~deterministic: {}",
            frozen.final_jaccard
        );
        assert!(
            default.final_jaccard < frozen.final_jaccard,
            "default {} vs frozen {}",
            default.final_jaccard,
            frozen.final_jaccard
        );
    }

    #[test]
    fn memoryless_sampler_kills_the_rolling_window() {
        let default = run_variant("default", SamplerConfig::default(), 0.15, 4).unwrap();
        let memoryless =
            run_variant("memoryless", SamplerConfig::default().memoryless(), 0.15, 4).unwrap();
        // Without a static component the adjacent similarity drops well
        // below the default's.
        assert!(
            memoryless.mean_adjacent_jaccard < default.mean_adjacent_jaccard - 0.02,
            "memoryless {} vs default {}",
            memoryless.mean_adjacent_jaccard,
            default.mean_adjacent_jaccard
        );
    }

    #[test]
    fn disabling_gating_opens_quiet_hours() {
        let default = run_variant("default", SamplerConfig::default(), 0.5, 3).unwrap();
        let ungated = run_variant(
            "no-gating",
            SamplerConfig::default().without_gating(),
            0.5,
            3,
        )
        .unwrap();
        assert_eq!(
            default.gated_hour_returns, 0,
            "gating must suppress low-density hours entirely"
        );
        assert!(
            ungated.gated_hour_returns > 0,
            "without gating the quiet hours return videos"
        );
    }
}
