//! Rank-based and product-moment correlation with significance tests.
//!
//! Table 2 reports Spearman ρ between per-hour Jaccard similarity and mean
//! per-hour video count, with star-coded p-values; the regression section
//! reports Pearson correlations between engagement metrics (r ≈ 0.92 for
//! views–likes). Both are implemented here with the usual t-approximation
//! for significance.

use crate::special::t_p_two_sided;
use crate::{Result, StatsError};

/// A correlation estimate with its significance test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Correlation {
    /// The correlation coefficient (ρ or r).
    pub coefficient: f64,
    /// Two-sided p-value from the t approximation.
    pub p_value: f64,
    /// Sample size.
    pub n: usize,
}

impl Correlation {
    /// The paper's star coding: `*` p<0.05, `**` p<0.01, `***` p<0.001.
    pub fn stars(&self) -> &'static str {
        if self.p_value < 0.001 {
            "***"
        } else if self.p_value < 0.01 {
            "**"
        } else if self.p_value < 0.05 {
            "*"
        } else {
            ""
        }
    }
}

/// Mid-rank ranking: ties receive the average of the ranks they span.
/// Ranks are 1-based.
pub fn midranks(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        // Items order[i..=j] are tied; average rank of positions i..=j
        // (1-based) is (i + j)/2 + 1.
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg_rank;
        }
        i = j + 1;
    }
    ranks
}

/// Pearson product-moment correlation with a t-test p-value.
pub fn pearson(x: &[f64], y: &[f64]) -> Result<Correlation> {
    if x.len() != y.len() {
        return Err(StatsError::InvalidInput("pearson: length mismatch".into()));
    }
    let n = x.len();
    if n < 3 {
        return Err(StatsError::InvalidInput("pearson: need n ≥ 3".into()));
    }
    let mx = x.iter().sum::<f64>() / n as f64;
    let my = y.iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = x[i] - mx;
        let dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return Err(StatsError::Numeric("pearson: zero variance".into()));
    }
    let r = (sxy / (sxx * syy).sqrt()).clamp(-1.0, 1.0);
    let df = (n - 2) as f64;
    let p_value = if r.abs() >= 1.0 {
        0.0
    } else {
        let t = r * (df / (1.0 - r * r)).sqrt();
        t_p_two_sided(t, df)
    };
    Ok(Correlation {
        coefficient: r,
        p_value,
        n,
    })
}

/// Spearman rank correlation: Pearson on mid-ranks, with the same
/// t-approximation for the p-value (the convention statsmodels and R use
/// for n beyond the exact-permutation range).
pub fn spearman(x: &[f64], y: &[f64]) -> Result<Correlation> {
    if x.len() != y.len() {
        return Err(StatsError::InvalidInput("spearman: length mismatch".into()));
    }
    pearson(&midranks(x), &midranks(y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn midranks_without_ties() {
        assert_eq!(midranks(&[10.0, 30.0, 20.0]), vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn midranks_with_ties() {
        // Two values tied for ranks 2 and 3 → both get 2.5.
        assert_eq!(midranks(&[1.0, 5.0, 5.0, 9.0]), vec![1.0, 2.5, 2.5, 4.0]);
        // All tied.
        assert_eq!(midranks(&[7.0, 7.0, 7.0]), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn pearson_perfect_correlation() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 4.0, 6.0, 8.0, 10.0];
        let c = pearson(&x, &y).unwrap();
        assert!((c.coefficient - 1.0).abs() < 1e-12);
        assert!(c.p_value < 1e-10);
        let y_neg: Vec<f64> = y.iter().map(|v| -v).collect();
        assert!((pearson(&x, &y_neg).unwrap().coefficient + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_known_value() {
        // Hand computation: Sxy = 16, Sxx = 17.5, Syy = 70/3
        // ⇒ r = 16/√(17.5·70/3) = 0.791794…; t = r√(4/(1−r²)) = 2.5926
        // ⇒ two-sided p ≈ 0.0606 on 4 df.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let y = [2.0, 1.0, 4.0, 3.0, 7.0, 5.0];
        let c = pearson(&x, &y).unwrap();
        let expect_r = 16.0 / (17.5f64 * 70.0 / 3.0).sqrt();
        assert!(
            (c.coefficient - expect_r).abs() < 1e-12,
            "{}",
            c.coefficient
        );
        assert!((c.p_value - 0.0606).abs() < 0.002, "{}", c.p_value);
        assert_eq!(c.stars(), "");
    }

    #[test]
    fn spearman_is_rank_invariant() {
        // Monotone transform of x leaves ρ unchanged.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let y = [2.0, 1.0, 4.0, 3.0, 7.0, 5.0];
        let x_exp: Vec<f64> = x.iter().map(|v: &f64| v.exp()).collect();
        let a = spearman(&x, &y).unwrap();
        let b = spearman(&x_exp, &y).unwrap();
        assert!((a.coefficient - b.coefficient).abs() < 1e-12);
    }

    #[test]
    fn spearman_known_value() {
        // No ties, so the classic formula applies: Σd² = 6
        // ⇒ ρ = 1 − 6·6/(6·35) = 29/35 = 0.828571…; the t approximation
        // gives t = 2.9599 on 4 df ⇒ p ≈ 0.0417.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let y = [2.0, 1.0, 4.0, 3.0, 7.0, 5.0];
        let c = spearman(&x, &y).unwrap();
        assert!(
            (c.coefficient - 29.0 / 35.0).abs() < 1e-12,
            "{}",
            c.coefficient
        );
        assert!((c.p_value - 0.0417).abs() < 0.002, "{}", c.p_value);
        assert_eq!(c.stars(), "*");
    }

    #[test]
    fn spearman_handles_ties() {
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [1.0, 2.0, 3.0, 4.0];
        let c = spearman(&x, &y).unwrap();
        // R: cor(c(1,2,2,3), c(1,2,3,4), method="spearman") = 0.9486833.
        assert!(
            (c.coefficient - 0.948_683_3).abs() < 1e-6,
            "{}",
            c.coefficient
        );
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(pearson(&[1.0, 2.0], &[1.0]).is_err());
        assert!(pearson(&[1.0, 2.0], &[3.0, 4.0]).is_err()); // n < 3
        assert!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_err()); // zero variance
    }

    #[test]
    fn star_thresholds() {
        let make = |p| Correlation {
            coefficient: 0.5,
            p_value: p,
            n: 10,
        };
        assert_eq!(make(0.0005).stars(), "***");
        assert_eq!(make(0.005).stars(), "**");
        assert_eq!(make(0.03).stars(), "*");
        assert_eq!(make(0.2).stars(), "");
    }
}
