//! The paper's reported numbers, embedded for side-by-side comparison.
//!
//! Absolute values are not expected to match (the substrate is a
//! synthetic simulator, not YouTube); the *shape* — orderings, signs,
//! significance patterns, caps — is what EXPERIMENTS.md compares.

#![allow(clippy::type_complexity)] // reference tables are literal tuples by design

use ytaudit_types::Topic;

/// Table 1 (videos returned per collection): (topic, min, max, mean, std).
pub const TABLE1: [(Topic, usize, usize, f64, f64); 6] = [
    (Topic::Blm, 639, 765, 743.44, 27.86),
    (Topic::Brexit, 478, 573, 559.81, 21.86),
    (Topic::Capitol, 507, 590, 571.81, 17.35),
    (Topic::Grammys, 564, 677, 659.13, 25.45),
    (Topic::Higgs, 476, 512, 507.44, 8.32),
    (Topic::WorldCup, 419, 516, 502.5, 21.96),
];

/// Table 2 (per-hour returns): (topic, mean, min, max, std, rho, stars, N).
pub const TABLE2: [(Topic, f64, usize, usize, f64, f64, &str, usize); 6] = [
    (Topic::Blm, 1.10, 0, 17, 2.33, 0.13, "**", 267),
    (Topic::Brexit, 0.83, 0, 13, 1.57, 0.15, "***", 324),
    (Topic::Capitol, 0.85, 0, 28, 2.54, 0.29, "***", 242),
    (Topic::Grammys, 0.98, 0, 21, 2.22, 0.26, "***", 387),
    (Topic::Higgs, 0.75, 0, 14, 1.62, -0.11, "", 216),
    (Topic::WorldCup, 0.75, 0, 31, 1.37, 0.12, "*", 418),
];

/// Table 3 (binned ordinal logit): (predictor, beta, stars).
pub const TABLE3: [(&str, f64, &str); 14] = [
    ("SD (quality)", -0.018, ""),
    ("brexit (topic)", 1.231, "***"),
    ("capriot (topic)", -0.160, ""),
    ("grammys (topic)", 0.171, "*"),
    ("higgs (topic)", 3.10, "***"),
    ("worldcup (topic)", 0.161, ""),
    ("duration", -0.115, "***"),
    ("views", 0.161, ""),
    ("likes", 0.285, "**"),
    ("comments", 0.069, ""),
    ("channel age", 0.049, ""),
    ("channel views", 0.3176, "*"),
    ("channel subs", -0.3784, "**"),
    ("# channel videos", -0.0212, ""),
];

/// Table 3 model-level stats: (LR χ², df, pseudo-R²).
pub const TABLE3_MODEL: (f64, usize, f64) = (1137.63, 14, 0.079);

/// Table 4 (pool sizes): (topic, min, max, mean, mode).
pub const TABLE4: [(Topic, u64, u64, u64, u64); 6] = [
    (Topic::Blm, 679_000, 1_000_000, 982_000, 1_000_000),
    (Topic::Brexit, 247_000, 786_000, 624_000, 613_000),
    (Topic::Capitol, 515_000, 1_000_000, 966_000, 1_000_000),
    (Topic::Grammys, 12_800, 1_000_000, 150_000, 123_000),
    (Topic::Higgs, 5_500, 65_200, 40_200, 39_000),
    (Topic::WorldCup, 634_000, 1_000_000, 998_000, 1_000_000),
];

/// Table 5 (comment Jaccards): (topic, TL_NS, N_NS, TL_S, N_S); `None` =
/// the paper's N/A.
pub const TABLE5: [(Topic, Option<f64>, Option<f64>, Option<f64>, Option<f64>); 6] = [
    (
        Topic::Blm,
        Some(0.329),
        Some(0.307),
        Some(0.976),
        Some(0.983),
    ),
    (
        Topic::Brexit,
        Some(0.381),
        Some(0.339),
        Some(0.999),
        Some(0.999),
    ),
    (
        Topic::Capitol,
        Some(0.648),
        Some(0.625),
        Some(0.998),
        Some(0.994),
    ),
    (
        Topic::Grammys,
        Some(0.728),
        Some(0.737),
        Some(0.996),
        Some(0.992),
    ),
    (Topic::Higgs, Some(0.974), None, Some(0.998), None),
    (
        Topic::WorldCup,
        Some(0.470),
        Some(0.532),
        Some(0.999),
        Some(0.999),
    ),
];

/// Table 6 (OLS + HC1): (predictor, beta, stars).
pub const TABLE6: [(&str, f64, &str); 14] = [
    ("SD (quality)", 0.0712, ""),
    ("brexit (topic)", 3.416, "***"),
    ("capriot (topic)", -0.283, ""),
    ("grammys (topic)", 0.571, "*"),
    ("higgs (topic)", 6.718, "***"),
    ("worldcup (topic)", 0.438, ""),
    ("duration", -0.285, "***"),
    ("views", 0.429, ""),
    ("likes", 0.713, "**"),
    ("comments", 0.242, ""),
    ("channel age", 0.113, ""),
    ("channel views", 1.079, "**"),
    ("channel subs", -1.157, "***"),
    ("# channel videos", -0.2212, ""),
];

/// Table 6 model-level stats: (R², F, df1, df2).
pub const TABLE6_MODEL: (f64, f64, usize, usize) = (0.164, 122.3, 14, 5348);

/// Table 7 (non-binned ordinal cloglog): (predictor, beta, stars).
pub const TABLE7: [(&str, f64, &str); 14] = [
    ("SD (quality)", 0.0228, ""),
    ("brexit (topic)", 0.9207, "***"),
    ("capriot (topic)", -0.0412, ""),
    ("grammys (topic)", 0.2395, "***"),
    ("higgs (topic)", 2.2998, "***"),
    ("worldcup (topic)", 0.1338, "*"),
    ("duration", -0.0710, "***"),
    ("views", 0.0352, ""),
    ("likes", 0.2051, "**"),
    ("comments", 0.0656, ""),
    ("channel age", 0.0355, ""),
    ("channel views", 0.2852, "**"),
    ("channel subs", -0.2734, "**"),
    ("# channel videos", -0.0958, ""),
];

/// Table 7 model-level stats: (LR χ², pseudo-R²).
pub const TABLE7_MODEL: (f64, f64) = (1167.64, 0.04);

/// Figure 1's headline: the approximate final J(Sₜ, S₁) band per topic,
/// read off the published figure.
pub const FIGURE1_FINAL_BAND: [(Topic, f64, f64); 6] = [
    (Topic::Blm, 0.25, 0.50),
    (Topic::Brexit, 0.45, 0.75),
    (Topic::Capitol, 0.25, 0.55),
    (Topic::Grammys, 0.30, 0.60),
    (Topic::Higgs, 0.80, 1.00),
    (Topic::WorldCup, 0.25, 0.55),
];

/// Star coding used across the paper's tables.
pub fn stars(p: f64) -> &'static str {
    if p < 0.001 {
        "***"
    } else if p < 0.01 {
        "**"
    } else if p < 0.05 {
        "*"
    } else {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_tables_cover_all_topics() {
        for topic in Topic::ALL {
            assert!(TABLE1.iter().any(|r| r.0 == topic));
            assert!(TABLE2.iter().any(|r| r.0 == topic));
            assert!(TABLE4.iter().any(|r| r.0 == topic));
            assert!(TABLE5.iter().any(|r| r.0 == topic));
            assert!(FIGURE1_FINAL_BAND.iter().any(|r| r.0 == topic));
        }
        assert_eq!(TABLE3.len(), 14);
        assert_eq!(TABLE6.len(), 14);
        assert_eq!(TABLE7.len(), 14);
    }

    #[test]
    fn star_thresholds() {
        assert_eq!(stars(0.0001), "***");
        assert_eq!(stars(0.005), "**");
        assert_eq!(stars(0.02), "*");
        assert_eq!(stars(0.5), "");
    }

    #[test]
    fn higgs_nested_is_na_in_reference() {
        let higgs = TABLE5.iter().find(|r| r.0 == Topic::Higgs).unwrap();
        assert!(higgs.2.is_none());
        assert!(higgs.4.is_none());
    }
}
