//! Ordinary least squares with classical and HC1 (heteroskedasticity-
//! robust) standard errors — the model behind the paper's Table 6, where
//! return frequency is regressed on video/channel features "with robust
//! standard errors".

use crate::matrix::Matrix;
use crate::special::{f_sf, t_p_two_sided};
use crate::{Result, StatsError};
use serde::{Deserialize, Serialize};

/// One-pass sufficient statistics for least squares: the accumulator
/// folds `(x-row, y)` observations into running `X'X` (upper triangle)
/// and `X'y`, so the normal equations can be solved without ever holding
/// more than `O(p²)` state. [`OlsFit::fit`] is implemented on top of it,
/// and independent accumulators over disjoint observation shards can be
/// [`OlsAccumulator::merge`]d before solving.
#[derive(Debug, Clone, PartialEq)]
pub struct OlsAccumulator {
    p: usize,
    n: u64,
    /// Upper triangle of X'X; the lower triangle is mirrored on demand in
    /// [`OlsAccumulator::xtx`], matching `Matrix::gram`'s fill order so
    /// the batch and streaming paths agree bit-for-bit.
    xtx_upper: Matrix,
    xty: Vec<f64>,
}

impl OlsAccumulator {
    /// An empty accumulator over `p` design columns.
    pub fn new(p: usize) -> OlsAccumulator {
        OlsAccumulator {
            p,
            n: 0,
            xtx_upper: Matrix::zeros(p, p),
            xty: vec![0.0; p],
        }
    }

    /// Folds one observation (a full design row including any intercept
    /// column, plus its response).
    pub fn fold(&mut self, row: &[f64], y: f64) -> Result<()> {
        if row.len() != self.p {
            return Err(StatsError::InvalidInput(format!(
                "design row has {} columns, accumulator expects {}",
                row.len(),
                self.p
            )));
        }
        // Same traversal (and zero-skip) as Matrix::gram so folding rows
        // one at a time reproduces the batch Gram matrix exactly.
        for a in 0..self.p {
            let ra = row[a];
            if ra == 0.0 {
                continue;
            }
            for (b, &rb) in row.iter().enumerate().skip(a) {
                self.xtx_upper[(a, b)] += ra * rb;
            }
        }
        for (j, &rj) in row.iter().enumerate() {
            self.xty[j] += rj * y;
        }
        self.n += 1;
        Ok(())
    }

    /// Merges another accumulator over the same design width (entrywise
    /// sums — exact for counts, reassociation-only error for floats).
    pub fn merge(&mut self, other: &OlsAccumulator) -> Result<()> {
        if other.p != self.p {
            return Err(StatsError::InvalidInput(format!(
                "cannot merge accumulators of width {} and {}",
                self.p, other.p
            )));
        }
        for a in 0..self.p {
            for b in a..self.p {
                self.xtx_upper[(a, b)] += other.xtx_upper[(a, b)];
            }
        }
        for (j, v) in other.xty.iter().enumerate() {
            self.xty[j] += v;
        }
        self.n += other.n;
        Ok(())
    }

    /// Number of observations folded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The full (mirrored) `X'X` matrix.
    pub fn xtx(&self) -> Matrix {
        let mut out = self.xtx_upper.clone();
        for a in 0..self.p {
            for b in 0..a {
                out[(a, b)] = out[(b, a)];
            }
        }
        out
    }

    /// The `X'y` vector.
    pub fn xty(&self) -> &[f64] {
        &self.xty
    }

    /// Solves the normal equations for β (Cholesky, with an LU fallback
    /// for near-semidefinite systems) — the same solve `OlsFit::fit`
    /// performs.
    pub fn solve(&self) -> Result<Vec<f64>> {
        let xtx = self.xtx();
        xtx.solve_spd(&self.xty)
            .or_else(|_| xtx.solve(&self.xty))
            .map_err(|_| StatsError::Numeric("X'X is singular (collinear predictors)".into()))
    }
}

/// Options for [`OlsFit::fit`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OlsOptions {
    /// Use the HC1 sandwich estimator for standard errors (the
    /// `statsmodels` `HC1` / Stata `robust` convention) instead of the
    /// classical homoskedastic formula.
    pub robust_hc1: bool,
}

/// A fitted OLS model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OlsFit {
    /// Term names: `"(intercept)"` followed by the predictor names.
    pub names: Vec<String>,
    /// Coefficient estimates, aligned with `names`.
    pub coefficients: Vec<f64>,
    /// Standard errors (classical or HC1 per the fit options).
    pub std_errors: Vec<f64>,
    /// t statistics.
    pub t_values: Vec<f64>,
    /// Two-sided p-values.
    pub p_values: Vec<f64>,
    /// 95% confidence interval lower bounds.
    pub ci_low: Vec<f64>,
    /// 95% confidence interval upper bounds.
    pub ci_high: Vec<f64>,
    /// Coefficient of determination.
    pub r_squared: f64,
    /// Adjusted R².
    pub adj_r_squared: f64,
    /// Overall F statistic (against the intercept-only model).
    pub f_statistic: f64,
    /// p-value of the F statistic.
    pub f_p_value: f64,
    /// Residual degrees of freedom (n − p).
    pub df_resid: usize,
    /// Number of observations.
    pub n: usize,
    /// Residuals.
    pub residuals: Vec<f64>,
}

impl OlsFit {
    /// Fits `y ~ 1 + X`. `x` holds one row per observation (predictors
    /// only; the intercept is added internally), `names` one entry per
    /// predictor column.
    pub fn fit(names: &[&str], x: &[Vec<f64>], y: &[f64], options: OlsOptions) -> Result<OlsFit> {
        let n = y.len();
        if x.len() != n {
            return Err(StatsError::InvalidInput("X/y length mismatch".into()));
        }
        let k = names.len();
        if x.iter().any(|row| row.len() != k) {
            return Err(StatsError::InvalidInput("X row width != names".into()));
        }
        let p = k + 1; // + intercept
        if n <= p {
            return Err(StatsError::InvalidInput(format!(
                "need n > p ({n} observations for {p} parameters)"
            )));
        }
        // Design matrix with leading intercept column.
        let mut design = Matrix::zeros(n, p);
        for i in 0..n {
            design[(i, 0)] = 1.0;
            for j in 0..k {
                design[(i, j + 1)] = x[i][j];
            }
        }
        let mut acc = OlsAccumulator::new(p);
        for (i, &yi) in y.iter().enumerate() {
            acc.fold(design.row(i), yi)?;
        }
        let xtx = acc.xtx();
        let beta = acc.solve()?;

        let fitted = design.matvec(&beta)?;
        let residuals: Vec<f64> = y.iter().zip(&fitted).map(|(yi, fi)| yi - fi).collect();
        let ss_res: f64 = residuals.iter().map(|e| e * e).sum();
        let y_mean = y.iter().sum::<f64>() / n as f64;
        let ss_tot: f64 = y.iter().map(|yi| (yi - y_mean) * (yi - y_mean)).sum();
        let df_resid = n - p;
        let sigma2 = ss_res / df_resid as f64;
        let r_squared = if ss_tot > 0.0 {
            1.0 - ss_res / ss_tot
        } else {
            0.0
        };
        let adj_r_squared = 1.0 - (1.0 - r_squared) * ((n - 1) as f64 / df_resid as f64);

        let xtx_inv = xtx.inverse()?;
        let cov = if options.robust_hc1 {
            // HC1: (X'X)⁻¹ (Σᵢ eᵢ² xᵢxᵢᵀ) (X'X)⁻¹ · n/(n−p).
            let mut meat = Matrix::zeros(p, p);
            for (i, residual) in residuals.iter().enumerate() {
                let e2 = residual * residual;
                let row = design.row(i);
                for a in 0..p {
                    let ra = row[a] * e2;
                    if ra == 0.0 {
                        continue;
                    }
                    for b in 0..p {
                        meat[(a, b)] += ra * row[b];
                    }
                }
            }
            let mut sandwich = xtx_inv.matmul(&meat)?.matmul(&xtx_inv)?;
            let scale = n as f64 / df_resid as f64;
            for a in 0..p {
                for b in 0..p {
                    sandwich[(a, b)] *= scale;
                }
            }
            sandwich
        } else {
            let mut cov = xtx_inv.clone();
            for a in 0..p {
                for b in 0..p {
                    cov[(a, b)] *= sigma2;
                }
            }
            cov
        };

        let mut std_errors = Vec::with_capacity(p);
        let mut t_values = Vec::with_capacity(p);
        let mut p_values = Vec::with_capacity(p);
        let mut ci_low = Vec::with_capacity(p);
        let mut ci_high = Vec::with_capacity(p);
        // 97.5% t quantile via bisection on the CDF (cheap, done once).
        let t_crit = t_quantile_975(df_resid as f64);
        for j in 0..p {
            let se = cov[(j, j)].max(0.0).sqrt();
            let t = if se > 0.0 {
                beta[j] / se
            } else {
                f64::INFINITY
            };
            std_errors.push(se);
            t_values.push(t);
            p_values.push(t_p_two_sided(t, df_resid as f64));
            ci_low.push(beta[j] - t_crit * se);
            ci_high.push(beta[j] + t_crit * se);
        }

        let df_model = k as f64;
        let f_statistic = if k > 0 && r_squared < 1.0 {
            (r_squared / df_model) / ((1.0 - r_squared) / df_resid as f64)
        } else {
            f64::INFINITY
        };
        let f_p_value = f_sf(f_statistic, df_model, df_resid as f64);

        let mut all_names = vec!["(intercept)".to_string()];
        all_names.extend(names.iter().map(|s| s.to_string()));
        Ok(OlsFit {
            names: all_names,
            coefficients: beta,
            std_errors,
            t_values,
            p_values,
            ci_low,
            ci_high,
            r_squared,
            adj_r_squared,
            f_statistic,
            f_p_value,
            df_resid,
            n,
            residuals,
        })
    }

    /// Coefficient for a named term, if present.
    pub fn coefficient(&self, name: &str) -> Option<f64> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|idx| self.coefficients[idx])
    }

    /// p-value for a named term, if present.
    pub fn p_value(&self, name: &str) -> Option<f64> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|idx| self.p_values[idx])
    }
}

/// 0.975 quantile of the t distribution via bisection on the CDF.
fn t_quantile_975(df: f64) -> f64 {
    let mut lo = 0.0;
    let mut hi = 200.0;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if crate::special::t_cdf(mid, df) < 0.975 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_coefficients_on_noiseless_data() {
        // y = 1.5 + 2x₁ − 3x₂ exactly.
        let x: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, (i * i % 7) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 1.5 + 2.0 * r[0] - 3.0 * r[1]).collect();
        let fit = OlsFit::fit(&["x1", "x2"], &x, &y, OlsOptions::default()).unwrap();
        assert!((fit.coefficients[0] - 1.5).abs() < 1e-9);
        assert!((fit.coefficients[1] - 2.0).abs() < 1e-9);
        assert!((fit.coefficients[2] + 3.0).abs() < 1e-9);
        assert!(fit.r_squared > 0.999_999);
    }

    #[test]
    fn matches_simple_regression_closed_form() {
        // For one predictor, compare against the closed-form slope,
        // intercept and classical SEs computed independently.
        let x_vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let y = [2.1, 3.9, 6.2, 7.8, 10.3, 11.9, 14.2, 15.8];
        let n = x_vals.len() as f64;
        let mx = x_vals.iter().sum::<f64>() / n;
        let my = y.iter().sum::<f64>() / n;
        let sxx: f64 = x_vals.iter().map(|v| (v - mx) * (v - mx)).sum();
        let sxy: f64 = x_vals
            .iter()
            .zip(&y)
            .map(|(a, b)| (a - mx) * (b - my))
            .sum();
        let slope = sxy / sxx;
        let intercept = my - slope * mx;
        let ss_res: f64 = x_vals
            .iter()
            .zip(&y)
            .map(|(xi, yi)| {
                let e = yi - intercept - slope * xi;
                e * e
            })
            .sum();
        let sigma2 = ss_res / (n - 2.0);
        let se_slope = (sigma2 / sxx).sqrt();
        let se_intercept = (sigma2 * (1.0 / n + mx * mx / sxx)).sqrt();

        let rows: Vec<Vec<f64>> = x_vals.iter().map(|&v| vec![v]).collect();
        let fit = OlsFit::fit(&["x"], &rows, &y, OlsOptions::default()).unwrap();
        assert!((fit.coefficients[0] - intercept).abs() < 1e-10);
        assert!((fit.coefficients[1] - slope).abs() < 1e-10);
        assert!((fit.std_errors[0] - se_intercept).abs() < 1e-10);
        assert!((fit.std_errors[1] - se_slope).abs() < 1e-10);
        assert_eq!(fit.df_resid, 6);
    }

    #[test]
    fn hc1_matches_direct_sandwich_computation() {
        // Heteroskedastic data: variance grows with x.
        let x_vals: Vec<f64> = (1..=12).map(|i| i as f64).collect();
        let y: Vec<f64> = x_vals
            .iter()
            .enumerate()
            .map(|(i, &v)| 2.0 * v + if i % 2 == 0 { v * 0.5 } else { -v * 0.5 })
            .collect();
        let rows: Vec<Vec<f64>> = x_vals.iter().map(|&v| vec![v]).collect();
        let classical = OlsFit::fit(&["x"], &rows, &y, OlsOptions::default()).unwrap();
        let robust = OlsFit::fit(&["x"], &rows, &y, OlsOptions { robust_hc1: true }).unwrap();
        // Coefficients identical; SEs differ.
        assert_eq!(classical.coefficients, robust.coefficients);
        assert_ne!(classical.std_errors[1], robust.std_errors[1]);
        // Direct HC1 computation for the slope entry.
        let n = x_vals.len() as f64;
        let p = 2.0;
        let design: Vec<[f64; 2]> = x_vals.iter().map(|&v| [1.0, v]).collect();
        let mut xtx = [[0.0f64; 2]; 2];
        for row in &design {
            for a in 0..2 {
                for b in 0..2 {
                    xtx[a][b] += row[a] * row[b];
                }
            }
        }
        let det = xtx[0][0] * xtx[1][1] - xtx[0][1] * xtx[1][0];
        let xtx_inv = [
            [xtx[1][1] / det, -xtx[0][1] / det],
            [-xtx[1][0] / det, xtx[0][0] / det],
        ];
        let mut meat = [[0.0f64; 2]; 2];
        for (i, row) in design.iter().enumerate() {
            let e = classical.residuals[i];
            for a in 0..2 {
                for b in 0..2 {
                    meat[a][b] += e * e * row[a] * row[b];
                }
            }
        }
        // sandwich[1][1]
        let mut tmp = [[0.0f64; 2]; 2];
        for a in 0..2 {
            for b in 0..2 {
                for c in 0..2 {
                    tmp[a][b] += xtx_inv[a][c] * meat[c][b];
                }
            }
        }
        let mut sw11 = 0.0;
        for c in 0..2 {
            sw11 += tmp[1][c] * xtx_inv[c][1];
        }
        let expected_se = (sw11 * n / (n - p)).sqrt();
        assert!(
            (robust.std_errors[1] - expected_se).abs() < 1e-10,
            "{} vs {}",
            robust.std_errors[1],
            expected_se
        );
    }

    #[test]
    fn f_statistic_and_r2_consistency() {
        let x: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i % 7) as f64, (i % 3) as f64])
            .collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, r)| 1.0 + r[0] - 0.5 * r[1] + ((i * 37 % 11) as f64 - 5.0) * 0.3)
            .collect();
        let fit = OlsFit::fit(&["a", "b"], &x, &y, OlsOptions::default()).unwrap();
        assert!(fit.r_squared > 0.0 && fit.r_squared < 1.0);
        assert!(fit.adj_r_squared < fit.r_squared);
        let k = 2.0;
        let expect_f = (fit.r_squared / k) / ((1.0 - fit.r_squared) / fit.df_resid as f64);
        assert!((fit.f_statistic - expect_f).abs() < 1e-10);
        assert!(fit.f_p_value < 0.001);
    }

    #[test]
    fn confidence_intervals_bracket_estimates() {
        let x: Vec<Vec<f64>> = (0..25).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, r)| 3.0 * r[0] + ((i % 5) as f64))
            .collect();
        let fit = OlsFit::fit(&["x"], &x, &y, OlsOptions::default()).unwrap();
        for j in 0..fit.coefficients.len() {
            assert!(fit.ci_low[j] < fit.coefficients[j]);
            assert!(fit.coefficients[j] < fit.ci_high[j]);
        }
        // CI half-width should be t_crit × SE.
        let half = (fit.ci_high[1] - fit.ci_low[1]) / 2.0;
        assert!((half / fit.std_errors[1] - t_quantile_975(fit.df_resid as f64)).abs() < 1e-9);
    }

    #[test]
    fn lookup_by_name() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| 2.0 * i as f64 + 1.0).collect();
        let fit = OlsFit::fit(&["slope"], &x, &y, OlsOptions::default()).unwrap();
        assert!((fit.coefficient("slope").unwrap() - 2.0).abs() < 1e-9);
        assert!((fit.coefficient("(intercept)").unwrap() - 1.0).abs() < 1e-9);
        assert!(fit.coefficient("nope").is_none());
        assert!(fit.p_value("slope").unwrap() < 0.05);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(OlsFit::fit(&["x"], &[vec![1.0]], &[1.0], OlsOptions::default()).is_err());
        assert!(OlsFit::fit(
            &["x"],
            &[vec![1.0], vec![2.0]],
            &[1.0],
            OlsOptions::default()
        )
        .is_err());
        // Perfectly collinear predictors.
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert!(OlsFit::fit(&["a", "b"], &x, &y, OlsOptions::default()).is_err());
    }

    #[test]
    fn accumulator_reproduces_gram_bit_for_bit() {
        // Rows with zeros exercise gram()'s zero-skip fast path.
        let rows: Vec<Vec<f64>> = (0..15)
            .map(|i| {
                vec![
                    1.0,
                    if i % 3 == 0 { 0.0 } else { (i as f64).sin() },
                    (i as f64 * 0.7).cos(),
                ]
            })
            .collect();
        let y: Vec<f64> = (0..15).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let design = Matrix::from_rows(&rows).unwrap();
        let batch_xtx = design.gram();
        let batch_xty: Vec<f64> = (0..3)
            .map(|j| (0..15).map(|i| design[(i, j)] * y[i]).sum())
            .collect();
        let mut acc = OlsAccumulator::new(3);
        for (row, &yi) in rows.iter().zip(&y) {
            acc.fold(row, yi).unwrap();
        }
        let xtx = acc.xtx();
        for a in 0..3 {
            for b in 0..3 {
                assert_eq!(xtx[(a, b)].to_bits(), batch_xtx[(a, b)].to_bits());
            }
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(acc.xty()), bits(&batch_xty));
        assert_eq!(acc.count(), 15);
        assert!(acc.fold(&[1.0], 0.0).is_err());
    }

    #[test]
    fn accumulator_merge_matches_single_pass() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![1.0, i as f64 * 0.25]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 2.0 + 0.5 * r[1]).collect();
        let mut whole = OlsAccumulator::new(2);
        for (row, &yi) in rows.iter().zip(&y) {
            whole.fold(row, yi).unwrap();
        }
        let mut a = OlsAccumulator::new(2);
        let mut b = OlsAccumulator::new(2);
        for (i, (row, &yi)) in rows.iter().zip(&y).enumerate() {
            if i < 9 {
                a.fold(row, yi).unwrap();
            } else {
                b.fold(row, yi).unwrap();
            }
        }
        a.merge(&b).unwrap();
        assert_eq!(a.count(), whole.count());
        let beta_a = a.solve().unwrap();
        let beta_w = whole.solve().unwrap();
        for (x, y) in beta_a.iter().zip(&beta_w) {
            assert!((x - y).abs() < 1e-9);
        }
        assert!(a.merge(&OlsAccumulator::new(3)).is_err());
    }

    #[test]
    fn t_quantile_is_correct() {
        // R: qt(0.975, 10) = 2.228139.
        assert!((t_quantile_975(10.0) - 2.228_139).abs() < 1e-5);
        // Large df → normal 1.959964.
        assert!((t_quantile_975(100_000.0) - 1.959_964).abs() < 1e-4);
    }
}
