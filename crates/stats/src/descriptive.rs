//! Descriptive statistics and the transforms the paper applies before
//! regression (log transform, z-standardization), plus min/max/mean/std
//! summaries (Tables 1, 2, 4) and the integer mode (Table 4).

use crate::{Result, StatsError};

/// A five-number-ish summary used throughout the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Description {
    /// Number of observations.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator).
    pub std: f64,
}

/// One-pass running moments (Welford's algorithm) — the streaming
/// counterpart of [`describe`]. Fold observations as they arrive, then
/// [`Moments::finish`] into a [`Description`]; `describe` itself is
/// implemented as "fold everything, then finish" so batch and streaming
/// analyses share one numeric code path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Moments {
    /// An empty accumulator.
    pub fn new() -> Moments {
        Moments {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one observation into the running moments.
    pub fn fold(&mut self, value: f64) {
        self.n += 1;
        let delta = value - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another accumulator's state (Chan et al.'s parallel
    /// variance update), enabling sharded analysis. Count, min and max
    /// merge exactly; mean and M2 merge to within floating-point
    /// reassociation error.
    pub fn merge(&mut self, other: &Moments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let n = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * (n2 / n);
        self.m2 += other.m2 + delta * delta * (n1 * n2 / n);
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations folded so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The raw state `(n, mean, m2, min, max)` — for checkpointing.
    pub fn parts(&self) -> (u64, f64, f64, f64, f64) {
        (self.n, self.mean, self.m2, self.min, self.max)
    }

    /// Rebuilds an accumulator from [`Moments::parts`] output.
    pub fn from_parts(n: u64, mean: f64, m2: f64, min: f64, max: f64) -> Moments {
        Moments {
            n,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Finalizes into a [`Description`]. Errors on an empty accumulator,
    /// matching `describe` on an empty sample.
    pub fn finish(&self) -> Result<Description> {
        if self.n == 0 {
            return Err(StatsError::InvalidInput("describe of empty sample".into()));
        }
        let std = if self.n > 1 {
            (self.m2.max(0.0) / (self.n - 1) as f64).sqrt()
        } else {
            0.0
        };
        Ok(Description {
            n: self.n as usize,
            min: self.min,
            max: self.max,
            mean: self.mean,
            std,
        })
    }
}

impl Default for Moments {
    fn default() -> Moments {
        Moments::new()
    }
}

/// Summarizes a sample. Errors on empty input.
pub fn describe(values: &[f64]) -> Result<Description> {
    let mut acc = Moments::new();
    for &v in values {
        acc.fold(v);
    }
    acc.finish()
}

/// Arithmetic mean; errors on empty input.
pub fn mean(values: &[f64]) -> Result<f64> {
    if values.is_empty() {
        return Err(StatsError::InvalidInput("mean of empty sample".into()));
    }
    Ok(values.iter().sum::<f64>() / values.len() as f64)
}

/// Sample standard deviation (n − 1); errors on fewer than 2 values.
pub fn std_dev(values: &[f64]) -> Result<f64> {
    if values.len() < 2 {
        return Err(StatsError::InvalidInput("std of < 2 values".into()));
    }
    let m = mean(values)?;
    let ss: f64 = values.iter().map(|v| (v - m) * (v - m)).sum();
    Ok((ss / (values.len() - 1) as f64).sqrt())
}

/// Median (average of middle two for even n).
pub fn median(values: &[f64]) -> Result<f64> {
    if values.is_empty() {
        return Err(StatsError::InvalidInput("median of empty sample".into()));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Ok(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Mode of an integer sample: the most frequent value; ties break toward
/// the smaller value (deterministic). Errors on empty input.
pub fn mode_u64(values: &[u64]) -> Result<u64> {
    if values.is_empty() {
        return Err(StatsError::InvalidInput("mode of empty sample".into()));
    }
    let mut counts = std::collections::BTreeMap::new();
    for &v in values {
        *counts.entry(v).or_insert(0usize) += 1;
    }
    // BTreeMap iterates keys ascending, so `>` keeps the smallest mode.
    let mut best = (0u64, 0usize);
    for (value, count) in counts {
        if count > best.1 {
            best = (value, count);
        }
    }
    Ok(best.0)
}

/// `ln(1 + x)` transform applied element-wise — the paper log-transforms
/// all continuous predictors "to reduce multicollinearity"; `log1p` keeps
/// zero counts finite.
pub fn log1p_transform(values: &[f64]) -> Vec<f64> {
    values.iter().map(|v| v.ln_1p()).collect()
}

/// Z-standardizes a sample: subtract the mean, divide by the sample
/// standard deviation. A constant column standardizes to all zeros rather
/// than erroring (the caller typically drops it).
pub fn standardize(values: &[f64]) -> Vec<f64> {
    let Ok(m) = mean(values) else {
        return Vec::new();
    };
    let sd = std_dev(values).unwrap_or(0.0);
    if sd <= 0.0 {
        return vec![0.0; values.len()];
    }
    values.iter().map(|v| (v - m) / sd).collect()
}

/// Splits `frequency` (1-based) into the paper's four Table-3 bins:
/// 1–5 → 0, 6–10 → 1, 11–15 → 2, 16 (the modal value) → 3. Values above 16
/// clamp into the top bin so reduced-snapshot runs still bin sensibly.
pub fn bin_frequency(frequency: u32) -> u8 {
    match frequency {
        0..=5 => 0,
        6..=10 => 1,
        11..=15 => 2,
        _ => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_known_sample() {
        let d = describe(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(d.n, 8);
        assert_eq!(d.min, 2.0);
        assert_eq!(d.max, 9.0);
        assert!((d.mean - 5.0).abs() < 1e-12);
        // Sample std of this classic sample is sqrt(32/7).
        assert!((d.std - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert!(describe(&[]).is_err());
    }

    #[test]
    fn describe_single_value() {
        let d = describe(&[3.5]).unwrap();
        assert_eq!(d.std, 0.0);
        assert_eq!(d.mean, 3.5);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).unwrap(), 2.5);
        assert!(median(&[]).is_err());
    }

    #[test]
    fn mode_picks_most_frequent() {
        assert_eq!(mode_u64(&[1, 2, 2, 3, 3, 3]).unwrap(), 3);
        assert_eq!(mode_u64(&[5]).unwrap(), 5);
        // Tie breaks toward the smaller value.
        assert_eq!(mode_u64(&[7, 7, 9, 9]).unwrap(), 7);
        assert!(mode_u64(&[]).is_err());
    }

    #[test]
    fn log1p_handles_zero_counts() {
        let out = log1p_transform(&[0.0, 1.0, (std::f64::consts::E - 1.0)]);
        assert_eq!(out[0], 0.0);
        assert!((out[1] - 2.0f64.ln()).abs() < 1e-12);
        assert!((out[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn standardize_has_zero_mean_unit_sd() {
        let z = standardize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((mean(&z).unwrap()).abs() < 1e-12);
        assert!((std_dev(&z).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn standardize_constant_column_is_zeros() {
        assert_eq!(standardize(&[2.0, 2.0, 2.0]), vec![0.0, 0.0, 0.0]);
        assert!(standardize(&[]).is_empty());
    }

    #[test]
    fn moments_agree_with_describe() {
        let sample = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut acc = Moments::new();
        for &v in &sample {
            acc.fold(v);
        }
        let d = acc.finish().unwrap();
        let batch = describe(&sample).unwrap();
        assert_eq!(d, batch);
        assert_eq!(acc.count(), 8);
        assert!(Moments::new().finish().is_err());
    }

    #[test]
    fn moments_merge_matches_single_pass() {
        let sample: Vec<f64> = (0..40).map(|i| ((i * 37) % 11) as f64 - 3.0).collect();
        let mut whole = Moments::new();
        for &v in &sample {
            whole.fold(v);
        }
        let (left, right) = sample.split_at(17);
        let mut a = Moments::new();
        for &v in left {
            a.fold(v);
        }
        let mut b = Moments::new();
        for &v in right {
            b.fold(v);
        }
        a.merge(&b);
        let da = a.finish().unwrap();
        let dw = whole.finish().unwrap();
        assert_eq!(da.n, dw.n);
        assert_eq!(da.min, dw.min);
        assert_eq!(da.max, dw.max);
        assert!((da.mean - dw.mean).abs() < 1e-12);
        assert!((da.std - dw.std).abs() < 1e-12);
        // Merging into an empty accumulator copies the other side.
        let mut empty = Moments::new();
        empty.merge(&whole);
        assert_eq!(empty.finish().unwrap(), dw);
    }

    #[test]
    fn frequency_bins_match_paper() {
        assert_eq!(bin_frequency(1), 0);
        assert_eq!(bin_frequency(5), 0);
        assert_eq!(bin_frequency(6), 1);
        assert_eq!(bin_frequency(10), 1);
        assert_eq!(bin_frequency(11), 2);
        assert_eq!(bin_frequency(15), 2);
        assert_eq!(bin_frequency(16), 3);
        assert_eq!(bin_frequency(20), 3);
    }
}
