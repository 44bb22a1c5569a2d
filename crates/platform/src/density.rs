//! Topical interest density over each topic's 28-day window.
//!
//! Section 4.2 of the paper concludes that the search endpoint "samples
//! videos from empirical distributions, returning results based on the
//! relative density of topical interest". This module is that empirical
//! distribution: a Gaussian burst centred near the focal date on top of a
//! constant background, with a diurnal cycle layered in (uploads dip in the
//! UTC night hours). The same density drives both the corpus generator
//! (uploads follow interest) and the hidden search sampler (returns follow
//! interest).

use crate::hash::{hash_bytes, mix_all, unit_normal};
use ytaudit_types::time::HOUR;
use ytaudit_types::{Timestamp, TopicSpec};

/// The per-hour interest profile of one topic across its audit window.
#[derive(Debug, Clone)]
pub struct InterestDensity {
    window_start: Timestamp,
    /// Relative weight per hour (length 672 for the standard window);
    /// normalized to mean 1.
    weights: Vec<f64>,
}

impl InterestDensity {
    /// Builds the density for a topic spec over `[window_start,
    /// window_end)`.
    pub fn for_topic(spec: &TopicSpec) -> InterestDensity {
        let window_start = spec.topic.window_start();
        let window_end = spec.topic.window_end();
        let hours = window_end.hours_since(window_start).max(0) as usize;
        let peak_time = spec.focal_date.as_secs() as f64 + spec.peak_offset_days * 86_400.0;
        let sigma = (spec.peak_width_days * 86_400.0).max(3_600.0);
        // A sharp spike rides on the main burst: tight event topics
        // (Capitol, Grammys) concentrate heavily in the event hours, which
        // is what produces Table 2's per-hour maxima of ~20–30 returns.
        let spike_sigma = 3.0 * HOUR as f64;
        let spike_share = (1.5 / spec.peak_width_days).clamp(0.3, 3.0);
        let topic_hash = hash_bytes(spec.topic.key().as_bytes());
        let mut weights = Vec::with_capacity(hours);
        for h in 0..hours {
            let t = window_start.add_hours(h as i64);
            let mid = t.as_secs() as f64 + HOUR as f64 / 2.0;
            let z = (mid - peak_time) / sigma;
            let burst = (-0.5 * z * z).exp();
            let zs = (mid - peak_time) / spike_sigma;
            let spike = spike_share * (-0.5 * zs * zs).exp();
            // Diurnal cycle: ±35% swing, trough at 06:00 UTC.
            let hour_of_day = t.to_civil().hour as f64;
            let diurnal = 1.0 + 0.35 * ((hour_of_day - 6.0) / 24.0 * std::f64::consts::TAU).sin();
            // Hour-level roughness: real upload streams are bursty.
            // Deterministic per (topic, hour) so every snapshot sees the
            // same density — Figure 2's stacked daily histograms coincide
            // because of this.
            let rough = (0.55 * unit_normal(mix_all(&[topic_hash, h as u64, 0xDE_51]))).exp();
            weights.push((spec.background_level + burst + spike) * diurnal * rough);
        }
        // Normalize to mean 1 so budgets read naturally.
        let mean = weights.iter().sum::<f64>() / weights.len().max(1) as f64;
        if mean > 0.0 {
            for w in &mut weights {
                *w /= mean;
            }
        }
        InterestDensity {
            window_start,
            weights,
        }
    }

    /// Number of hour bins in the window.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The relative weight of the hour bin containing `t`, or 0 outside
    /// the window.
    pub fn weight_at(&self, t: Timestamp) -> f64 {
        let idx = t.hours_since(self.window_start);
        if idx < 0 || idx as usize >= self.weights.len() {
            0.0
        } else {
            self.weights[idx as usize]
        }
    }

    /// The weight of hour bin `idx`.
    pub fn weight(&self, idx: usize) -> f64 {
        self.weights.get(idx).copied().unwrap_or(0.0)
    }

    /// The start of hour bin `idx`.
    pub fn hour_start(&self, idx: usize) -> Timestamp {
        self.window_start.add_hours(idx as i64)
    }

    /// All weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The relative-density gate: hours with weight below `gate_fraction`
    /// of the mean (= 1.0 after normalization) are suppressed by the
    /// sampler — the paper's "forcing zero videos to be returned when this
    /// relative density is adequately low".
    pub fn is_gated(&self, idx: usize, gate_fraction: f64) -> bool {
        self.weight(idx) < gate_fraction
    }

    /// Total weight mass of non-gated hours. The sampler normalizes its
    /// per-hour budgets over this so gating redistributes rather than
    /// shrinks the per-collection total.
    pub fn open_mass(&self, gate_fraction: f64) -> f64 {
        self.weights.iter().filter(|&&w| w >= gate_fraction).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ytaudit_types::Topic;

    #[test]
    fn window_has_672_hours() {
        for topic in Topic::ALL {
            let d = InterestDensity::for_topic(&topic.spec());
            assert_eq!(d.len(), 672, "{topic}");
            assert!(!d.is_empty());
        }
    }

    #[test]
    fn weights_are_normalized_and_positive() {
        for topic in Topic::ALL {
            let d = InterestDensity::for_topic(&topic.spec());
            let mean: f64 = d.weights().iter().sum::<f64>() / d.len() as f64;
            assert!((mean - 1.0).abs() < 1e-9, "{topic}: mean {mean}");
            assert!(d.weights().iter().all(|&w| w > 0.0), "{topic}");
        }
    }

    /// Daily totals (roughness averages out over 24 hours).
    fn daily_totals(d: &InterestDensity) -> Vec<f64> {
        d.weights()
            .chunks(24)
            .map(|day| day.iter().sum::<f64>())
            .collect()
    }

    #[test]
    fn peak_day_is_near_focal_plus_offset() {
        for topic in Topic::ALL {
            let spec = topic.spec();
            let d = InterestDensity::for_topic(&spec);
            let days = daily_totals(&d);
            let peak_day = (0..days.len())
                .max_by(|&a, &b| days[a].partial_cmp(&days[b]).unwrap())
                .unwrap() as f64;
            // Day index of the focal date within the window is 14.
            let expected_day = 14.0 + spec.peak_offset_days;
            assert!(
                (peak_day - expected_day).abs() <= spec.peak_width_days.max(1.0) + 1.0,
                "{topic}: peak day {peak_day}, expected ~{expected_day}"
            );
        }
    }

    #[test]
    fn blm_peaks_after_focal_date() {
        // Figure 2: the BLM peak (Blackout Tuesday) lags the focal date.
        let d = InterestDensity::for_topic(&Topic::Blm.spec());
        let days = daily_totals(&d);
        let peak_day = (0..days.len())
            .max_by(|&a, &b| days[a].partial_cmp(&days[b]).unwrap())
            .unwrap();
        assert!(peak_day > 14 + 4, "peak day {peak_day}");
    }

    #[test]
    fn tight_topics_have_sharper_peaks() {
        let capitol = InterestDensity::for_topic(&Topic::Capitol.spec());
        let world_cup = InterestDensity::for_topic(&Topic::WorldCup.spec());
        let peak = |d: &InterestDensity| d.weights().iter().cloned().fold(f64::MIN, f64::max);
        // Capitol's burst is concentrated: a higher peak relative to its
        // mean than the ongoing World Cup.
        assert!(peak(&capitol) > 1.5 * peak(&world_cup));
    }

    #[test]
    fn weight_at_is_zero_outside_window() {
        let spec = Topic::Higgs.spec();
        let d = InterestDensity::for_topic(&spec);
        assert_eq!(d.weight_at(spec.topic.window_start().add_days(-1)), 0.0);
        assert_eq!(d.weight_at(spec.topic.window_end().add_days(1)), 0.0);
        assert!(d.weight_at(spec.focal_date) > 0.0);
    }

    #[test]
    fn gating_suppresses_low_density_hours() {
        let d = InterestDensity::for_topic(&Topic::Capitol.spec());
        let gated = (0..d.len()).filter(|&i| d.is_gated(i, 0.25)).count();
        let open = d.len() - gated;
        // The tight Capitol burst leaves a meaningful share of background
        // hours below a quarter of the mean, while the burst region stays
        // open. (Roughness and diurnal modulation keep the exact count
        // stochastic-looking but deterministic.)
        assert!(gated > 30, "gated {gated}");
        assert!(open > 300, "open {open}");
    }
}
