//! Proportional-odds cumulative-link (ordinal) regression, the model
//! behind the paper's Tables 3 (logit link, binned frequency) and 7
//! (complementary log-log link, 16 outcome levels).
//!
//! The model is `P(Y ≤ j | x) = F(θⱼ − xᵀβ)` with ordered thresholds θ and
//! a shared coefficient vector β. It is fit by Newton–Raphson with an
//! analytic gradient and Hessian, step-halving, and ridge rescue — the
//! same strategy R's `MASS::polr` uses.

// ytlint: allow-file(indexing) — threshold ordering checks index windows(2)
// slices, whose length is fixed by the iterator

use crate::matrix::Matrix;
use crate::special::{chi2_sf, normal_p_two_sided, normal_quantile};
use crate::{Result, StatsError};
use std::collections::BTreeMap;

/// The cumulative link function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// Logistic link: `F(z) = 1/(1+e^{−z})` (Table 3).
    Logit,
    /// Complementary log-log link: `F(z) = 1 − exp(−exp(z))`, appropriate
    /// when the outcome distribution is skewed toward the top category
    /// (Table 7's reasoning).
    Cloglog,
}

impl Link {
    /// The CDF `F(z)`.
    pub fn cdf(self, z: f64) -> f64 {
        match self {
            Link::Logit => {
                if z >= 0.0 {
                    1.0 / (1.0 + (-z).exp())
                } else {
                    let e = z.exp();
                    e / (1.0 + e)
                }
            }
            Link::Cloglog => {
                let z = z.min(30.0);
                1.0 - (-(z.exp())).exp()
            }
        }
    }

    /// The density `f(z) = F′(z)`.
    pub fn pdf(self, z: f64) -> f64 {
        match self {
            Link::Logit => {
                let p = self.cdf(z);
                p * (1.0 - p)
            }
            Link::Cloglog => {
                let z = z.min(30.0);
                (z - z.exp()).exp()
            }
        }
    }

    /// The density derivative `f′(z)`.
    pub fn dpdf(self, z: f64) -> f64 {
        match self {
            Link::Logit => {
                let p = self.cdf(z);
                p * (1.0 - p) * (1.0 - 2.0 * p)
            }
            Link::Cloglog => {
                let z = z.min(30.0);
                self.pdf(z) * (1.0 - z.exp())
            }
        }
    }

    /// The quantile `F⁻¹(p)`, used to initialize thresholds from the
    /// empirical cumulative distribution.
    pub fn quantile(self, p: f64) -> f64 {
        let p = p.clamp(1e-10, 1.0 - 1e-10);
        match self {
            Link::Logit => (p / (1.0 - p)).ln(),
            Link::Cloglog => (-(1.0 - p).ln()).ln(),
        }
    }
}

/// Fit configuration.
#[derive(Debug, Clone, Copy)]
pub struct OrdinalModel {
    /// Link function.
    pub link: Link,
    /// Maximum Newton iterations.
    pub max_iter: usize,
    /// Convergence tolerance on the gradient max-norm.
    pub tol: f64,
}

impl OrdinalModel {
    /// A logit-link model with default iteration settings.
    pub fn logit() -> OrdinalModel {
        OrdinalModel {
            link: Link::Logit,
            max_iter: 100,
            tol: 1e-8,
        }
    }

    /// A cloglog-link model with default iteration settings.
    pub fn cloglog() -> OrdinalModel {
        OrdinalModel {
            link: Link::Cloglog,
            max_iter: 200,
            tol: 1e-6,
        }
    }

    /// Fits the model. `x` holds one row of predictors per observation;
    /// `y` holds 0-based category indices (all categories 0..J−1 must be
    /// observed, J ≥ 2).
    pub fn fit(&self, names: &[&str], x: &[Vec<f64>], y: &[usize]) -> Result<OrdinalFit> {
        let n = y.len();
        let k = names.len();
        if x.len() != n {
            return Err(StatsError::InvalidInput("X/y length mismatch".into()));
        }
        if x.iter().any(|row| row.len() != k) {
            return Err(StatsError::InvalidInput("X row width != names".into()));
        }
        let n_cat = y.iter().copied().max().map_or(0, |m| m + 1);
        if n_cat < 2 {
            return Err(StatsError::InvalidInput(
                "need at least 2 outcome categories".into(),
            ));
        }
        let mut counts = vec![0usize; n_cat];
        for &yi in y {
            counts[yi] += 1;
        }
        if counts.contains(&0) {
            return Err(StatsError::InvalidInput(
                "every outcome category 0..J−1 must be observed".into(),
            ));
        }
        let n_thresh = n_cat - 1;
        let n_params = n_thresh + k;

        // Initialize thresholds at the link-quantiles of the empirical
        // cumulative proportions, betas at zero.
        let mut params = vec![0.0; n_params];
        let mut cum = 0usize;
        for j in 0..n_thresh {
            cum += counts[j];
            params[j] = self.link.quantile(cum as f64 / n as f64);
        }

        let mut ll = self.log_likelihood(x, y, &params, n_thresh);
        if !ll.is_finite() {
            return Err(StatsError::Numeric("non-finite initial likelihood".into()));
        }

        let mut converged = false;
        for _iter in 0..self.max_iter {
            let (grad, hessian) = self.derivatives(x, y, &params, n_thresh)?;
            let grad_norm = grad.iter().fold(0.0f64, |m, g| m.max(g.abs()));
            if grad_norm < self.tol {
                converged = true;
                break;
            }
            // Newton step: solve (−H) δ = g.
            let mut neg_h = hessian.clone();
            for a in 0..n_params {
                for b in 0..n_params {
                    neg_h[(a, b)] = -neg_h[(a, b)];
                }
            }
            let mut step = match neg_h.solve_spd(&grad) {
                Ok(step) => step,
                Err(_) => {
                    // Ridge rescue for a non-PD Hessian.
                    let mut ridged = neg_h.clone();
                    ridged.add_ridge(1e-4 * (1.0 + grad_norm));
                    ridged
                        .solve(&grad)
                        .map_err(|_| StatsError::Numeric("Hessian is singular".into()))?
                }
            };
            // Step-halving: accept the first step that improves the
            // likelihood and keeps thresholds ordered.
            let mut accepted = false;
            for _half in 0..40 {
                let candidate: Vec<f64> = params.iter().zip(&step).map(|(p, s)| p + s).collect();
                let ordered = candidate
                    .windows(2)
                    .take(n_thresh.saturating_sub(1))
                    .all(|w| w[0] < w[1]);
                if ordered {
                    let cand_ll = self.log_likelihood(x, y, &candidate, n_thresh);
                    if cand_ll.is_finite() && cand_ll >= ll - 1e-12 {
                        let improved = cand_ll - ll;
                        params = candidate;
                        ll = cand_ll;
                        accepted = true;
                        // A tiny improvement with a tiny step also counts
                        // as convergence.
                        if improved.abs() < 1e-12 && grad_norm < 1e-4 {
                            converged = true;
                        }
                        break;
                    }
                }
                for s in &mut step {
                    *s *= 0.5;
                }
            }
            if !accepted {
                // Cannot improve: treat as converged if the gradient is
                // small, otherwise report failure.
                if grad_norm < 1e-3 {
                    converged = true;
                }
                break;
            }
            if converged {
                break;
            }
        }
        if !converged {
            // One final check: accept if the gradient is small enough for
            // practical purposes.
            let (grad, _) = self.derivatives(x, y, &params, n_thresh)?;
            let grad_norm = grad.iter().fold(0.0f64, |m, g| m.max(g.abs()));
            if grad_norm > 1e-3 * (1.0 + n as f64) {
                return Err(StatsError::Numeric(format!(
                    "ordinal fit failed to converge (‖g‖∞ = {grad_norm:.3e})"
                )));
            }
        }

        // Refresh the Hessian at the optimum for standard errors.
        let (_, hessian) = self.derivatives(x, y, &params, n_thresh)?;
        let mut neg_h = hessian.clone();
        for a in 0..n_params {
            for b in 0..n_params {
                neg_h[(a, b)] = -neg_h[(a, b)];
            }
        }
        let cov = neg_h.inverse().or_else(|_| {
            let mut ridged = neg_h.clone();
            ridged.add_ridge(1e-8);
            ridged.inverse()
        })?;

        // Null model: intercept-only PO model fits the empirical category
        // proportions exactly, so its log-likelihood has a closed form.
        let null_ll: f64 = counts
            .iter()
            .map(|&c| c as f64 * ((c as f64 / n as f64).ln()))
            .sum();
        let lr_chi2 = (2.0 * (ll - null_ll)).max(0.0);
        let lr_df = k as f64;
        let lr_p = chi2_sf(lr_chi2, lr_df.max(1.0));
        let pseudo_r2 = if null_ll < 0.0 {
            1.0 - ll / null_ll
        } else {
            0.0
        };

        let z_crit = normal_quantile(0.975);
        let mut coefficients = Vec::with_capacity(k);
        let mut std_errors = Vec::with_capacity(k);
        let mut z_values = Vec::with_capacity(k);
        let mut p_values = Vec::with_capacity(k);
        let mut ci_low = Vec::with_capacity(k);
        let mut ci_high = Vec::with_capacity(k);
        for j in 0..k {
            let idx = n_thresh + j;
            let beta = params[idx];
            let se = cov[(idx, idx)].max(0.0).sqrt();
            let z = if se > 0.0 { beta / se } else { f64::INFINITY };
            coefficients.push(beta);
            std_errors.push(se);
            z_values.push(z);
            p_values.push(normal_p_two_sided(z));
            ci_low.push(beta - z_crit * se);
            ci_high.push(beta + z_crit * se);
        }

        Ok(OrdinalFit {
            names: names.iter().map(|s| s.to_string()).collect(),
            link: self.link,
            thresholds: params[..n_thresh].to_vec(),
            coefficients,
            std_errors,
            z_values,
            p_values,
            ci_low,
            ci_high,
            log_likelihood: ll,
            null_log_likelihood: null_ll,
            lr_chi2,
            lr_df: k,
            lr_p,
            pseudo_r2,
            n,
            n_categories: n_cat,
        })
    }

    /// Log-likelihood at `params = [θ…, β…]`.
    fn log_likelihood(&self, x: &[Vec<f64>], y: &[usize], params: &[f64], n_thresh: usize) -> f64 {
        let betas = &params[n_thresh..];
        let mut ll = 0.0;
        for (row, &yi) in x.iter().zip(y) {
            let eta: f64 = row.iter().zip(betas).map(|(a, b)| a * b).sum();
            let upper = if yi < n_thresh {
                self.link.cdf(params[yi] - eta)
            } else {
                1.0
            };
            let lower = if yi > 0 {
                self.link.cdf(params[yi - 1] - eta)
            } else {
                0.0
            };
            let p = (upper - lower).max(1e-300);
            ll += p.ln();
        }
        ll
    }

    /// Analytic gradient and Hessian of the log-likelihood.
    fn derivatives(
        &self,
        x: &[Vec<f64>],
        y: &[usize],
        params: &[f64],
        n_thresh: usize,
    ) -> Result<(Vec<f64>, Matrix)> {
        let k = params.len() - n_thresh;
        let betas = &params[n_thresh..];
        let n_params = params.len();
        let mut grad = vec![0.0; n_params];
        let mut hess = Matrix::zeros(n_params, n_params);
        for (row, &yi) in x.iter().zip(y) {
            let eta: f64 = row.iter().zip(betas).map(|(a, b)| a * b).sum();
            // z1 = θ_y − η (upper bound), z0 = θ_{y−1} − η (lower bound).
            let (has1, z1) = if yi < n_thresh {
                (true, params[yi] - eta)
            } else {
                (false, 0.0)
            };
            let (has0, z0) = if yi > 0 {
                (true, params[yi - 1] - eta)
            } else {
                (false, 0.0)
            };
            let f1 = if has1 { self.link.cdf(z1) } else { 1.0 };
            let f0 = if has0 { self.link.cdf(z0) } else { 0.0 };
            let p = (f1 - f0).max(1e-300);
            let g1 = if has1 { self.link.pdf(z1) } else { 0.0 };
            let g0 = if has0 { self.link.pdf(z0) } else { 0.0 };
            let d1 = if has1 { self.link.dpdf(z1) } else { 0.0 };
            let d0 = if has0 { self.link.dpdf(z0) } else { 0.0 };

            // First derivatives of ℓ = ln p w.r.t. z1 and z0.
            let dz1 = g1 / p;
            let dz0 = -g0 / p;
            // Second derivatives.
            let dz1z1 = d1 / p - dz1 * dz1;
            let dz0z0 = -d0 / p - dz0 * dz0;
            let dz1z0 = -dz1 * dz0; // = g1·g0/p²

            // Parameter sensitivities: ∂z1/∂θ_y = 1, ∂z0/∂θ_{y−1} = 1,
            // ∂z/∂β_m = −x_m for both.
            // Gradient.
            if has1 {
                grad[yi] += dz1;
            }
            if has0 {
                grad[yi - 1] += dz0;
            }
            for m in 0..k {
                grad[n_thresh + m] += -(dz1 + dz0) * row[m];
            }

            // Hessian.
            if has1 {
                hess[(yi, yi)] += dz1z1;
            }
            if has0 {
                hess[(yi - 1, yi - 1)] += dz0z0;
            }
            if has1 && has0 {
                hess[(yi, yi - 1)] += dz1z0;
                hess[(yi - 1, yi)] += dz1z0;
            }
            for m in 0..k {
                let xm = row[m];
                if has1 {
                    let v = -(dz1z1 + dz1z0) * xm;
                    hess[(yi, n_thresh + m)] += v;
                    hess[(n_thresh + m, yi)] += v;
                }
                if has0 {
                    let v = -(dz0z0 + dz1z0) * xm;
                    hess[(yi - 1, n_thresh + m)] += v;
                    hess[(n_thresh + m, yi - 1)] += v;
                }
                for m2 in 0..k {
                    hess[(n_thresh + m, n_thresh + m2)] +=
                        (dz1z1 + 2.0 * dz1z0 + dz0z0) * xm * row[m2];
                }
            }
        }
        Ok((grad, hess))
    }
}

/// A streaming multiset of `(predictor row, category)` observations for
/// ordinal regression. The Newton solver needs several passes over the
/// data, so the accumulator keeps *counted distinct rows* rather than raw
/// per-observation storage: state is bounded by the number of distinct
/// predictor profiles, folds commute exactly (counts are integers keyed
/// by the bit patterns of the row), and `merge` is plain count addition.
/// [`ObservationSet::fit`] expands rows in sorted key order, so any fold
/// order produces a bit-identical fit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObservationSet {
    rows: BTreeMap<(Vec<u64>, usize), u64>,
}

impl ObservationSet {
    /// An empty observation set.
    pub fn new() -> ObservationSet {
        ObservationSet::default()
    }

    /// Folds one observation (predictor row + 0-based outcome category).
    pub fn fold(&mut self, row: &[f64], category: usize) {
        let key: Vec<u64> = row.iter().map(|v| v.to_bits()).collect();
        *self.rows.entry((key, category)).or_insert(0) += 1;
    }

    /// Merges another observation set (exact: counts add).
    pub fn merge(&mut self, other: &ObservationSet) {
        for (key, count) in &other.rows {
            *self.rows.entry(key.clone()).or_insert(0) += count;
        }
    }

    /// Total observations folded.
    pub fn count(&self) -> u64 {
        self.rows.values().sum()
    }

    /// Fits `model` over the accumulated observations, expanding counted
    /// rows in canonical (sorted bit-pattern) order.
    pub fn fit(&self, model: &OrdinalModel, names: &[&str]) -> Result<OrdinalFit> {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for ((bits, category), &count) in &self.rows {
            let row: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            for _ in 0..count {
                x.push(row.clone());
                y.push(*category);
            }
        }
        model.fit(names, &x, &y)
    }
}

/// A fitted ordinal regression.
#[derive(Debug, Clone)]
pub struct OrdinalFit {
    /// Predictor names (no intercept — thresholds play that role).
    pub names: Vec<String>,
    /// The link that was fit.
    pub link: Link,
    /// Ordered thresholds θ₀ < … < θ_{J−2}.
    pub thresholds: Vec<f64>,
    /// β estimates, aligned with `names`.
    pub coefficients: Vec<f64>,
    /// Standard errors from the observed information matrix.
    pub std_errors: Vec<f64>,
    /// Wald z statistics.
    pub z_values: Vec<f64>,
    /// Two-sided p-values.
    pub p_values: Vec<f64>,
    /// 95% CI lower bounds.
    pub ci_low: Vec<f64>,
    /// 95% CI upper bounds.
    pub ci_high: Vec<f64>,
    /// Maximized log-likelihood.
    pub log_likelihood: f64,
    /// Log-likelihood of the thresholds-only null model.
    pub null_log_likelihood: f64,
    /// Likelihood-ratio χ² against the null model.
    pub lr_chi2: f64,
    /// Degrees of freedom of the LR test (number of predictors).
    pub lr_df: usize,
    /// p-value of the LR test.
    pub lr_p: f64,
    /// McFadden pseudo-R².
    pub pseudo_r2: f64,
    /// Number of observations.
    pub n: usize,
    /// Number of outcome categories.
    pub n_categories: usize,
}

impl OrdinalFit {
    /// Coefficient for a named predictor.
    pub fn coefficient(&self, name: &str) -> Option<f64> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| self.coefficients[i])
    }

    /// p-value for a named predictor.
    pub fn p_value(&self, name: &str) -> Option<f64> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| self.p_values[i])
    }

    /// Predicted category probabilities for a predictor row.
    pub fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let eta: f64 = row.iter().zip(&self.coefficients).map(|(a, b)| a * b).sum();
        let mut probs = Vec::with_capacity(self.n_categories);
        let mut prev = 0.0;
        for j in 0..self.n_categories {
            let cum = if j < self.thresholds.len() {
                self.link.cdf(self.thresholds[j] - eta)
            } else {
                1.0
            };
            probs.push((cum - prev).max(0.0));
            prev = cum;
        }
        probs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logit(p: f64) -> f64 {
        (p / (1.0 - p)).ln()
    }

    #[test]
    fn link_functions_are_consistent() {
        for link in [Link::Logit, Link::Cloglog] {
            for &z in &[-3.0, -1.0, 0.0, 0.5, 2.0] {
                // f ≈ dF/dz numerically.
                let h = 1e-6;
                let numeric = (link.cdf(z + h) - link.cdf(z - h)) / (2.0 * h);
                assert!((link.pdf(z) - numeric).abs() < 1e-6, "{link:?} pdf at {z}");
                let numeric2 = (link.pdf(z + h) - link.pdf(z - h)) / (2.0 * h);
                assert!(
                    (link.dpdf(z) - numeric2).abs() < 1e-5,
                    "{link:?} dpdf at {z}"
                );
                // Quantile inverts the CDF.
                let p = link.cdf(z);
                assert!(
                    (link.quantile(p) - z).abs() < 1e-6,
                    "{link:?} quantile at {z}"
                );
            }
        }
    }

    /// With J=2 and one binary predictor the model is saturated, so the
    /// MLE matches the empirical log-odds exactly.
    #[test]
    fn binary_logit_matches_closed_form() {
        // Group x=0: 30 of 100 in category 1. Group x=1: 70 of 100.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            x.push(vec![0.0]);
            y.push(usize::from(i < 30)); // 30 ones... careful: category 1 means y=1
        }
        for i in 0..100 {
            x.push(vec![1.0]);
            y.push(usize::from(i < 70));
        }
        let fit = OrdinalModel::logit().fit(&["x"], &x, &y).unwrap();
        // P(Y ≤ 0 | x=0) = 0.7 ⇒ θ = logit(0.7); P(Y ≤ 0 | x=1) = 0.3 ⇒
        // θ − β = logit(0.3).
        let theta = logit(0.7);
        let beta = theta - logit(0.3);
        assert!(
            (fit.thresholds[0] - theta).abs() < 1e-6,
            "{}",
            fit.thresholds[0]
        );
        assert!(
            (fit.coefficients[0] - beta).abs() < 1e-6,
            "{}",
            fit.coefficients[0]
        );
        assert!(fit.p_values[0] < 0.001);
        assert!(fit.lr_p < 0.001);
        assert!(fit.pseudo_r2 > 0.0);
    }

    #[test]
    fn binary_cloglog_matches_closed_form() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            x.push(vec![0.0]);
            y.push(usize::from(i < 80)); // P(Y≤0|0) = 0.6
        }
        for i in 0..200 {
            x.push(vec![1.0]);
            y.push(usize::from(i < 140)); // P(Y≤0|1) = 0.3
        }
        let fit = OrdinalModel::cloglog().fit(&["x"], &x, &y).unwrap();
        let inv = |p: f64| (-(1.0f64 - p).ln()).ln();
        let theta = inv(0.6);
        let beta = theta - inv(0.3);
        assert!(
            (fit.thresholds[0] - theta).abs() < 1e-4,
            "{}",
            fit.thresholds[0]
        );
        assert!(
            (fit.coefficients[0] - beta).abs() < 1e-4,
            "{}",
            fit.coefficients[0]
        );
    }

    #[test]
    fn gradient_matches_numeric_gradient() {
        let model = OrdinalModel::logit();
        let x = vec![
            vec![0.5, 1.0],
            vec![-1.0, 0.0],
            vec![2.0, -1.5],
            vec![0.0, 0.5],
            vec![1.0, 1.0],
            vec![-0.5, 2.0],
        ];
        let y = vec![0, 1, 2, 1, 2, 0];
        let params = vec![-0.4, 0.9, 0.3, -0.2]; // θ0 < θ1, β1, β2
        let (grad, hess) = model.derivatives(&x, &y, &params, 2).unwrap();
        let h = 1e-6;
        for i in 0..params.len() {
            let mut up = params.clone();
            up[i] += h;
            let mut down = params.clone();
            down[i] -= h;
            let numeric = (model.log_likelihood(&x, &y, &up, 2)
                - model.log_likelihood(&x, &y, &down, 2))
                / (2.0 * h);
            assert!(
                (grad[i] - numeric).abs() < 1e-5,
                "param {i}: analytic {} vs numeric {numeric}",
                grad[i]
            );
            // Hessian row i ≈ numeric derivative of the gradient.
            let (gup, _) = model.derivatives(&x, &y, &up, 2).unwrap();
            let (gdown, _) = model.derivatives(&x, &y, &down, 2).unwrap();
            for j in 0..params.len() {
                let numeric_h = (gup[j] - gdown[j]) / (2.0 * h);
                assert!(
                    (hess[(i, j)] - numeric_h).abs() < 1e-4,
                    "hess ({i},{j}): analytic {} vs numeric {numeric_h}",
                    hess[(i, j)]
                );
            }
        }
    }

    #[test]
    fn recovers_simulated_coefficients() {
        // Deterministic "simulation": a grid of x values with category
        // assignment by the model's own quantile structure.
        let model = OrdinalModel::logit();
        let true_beta = 1.2;
        let thresholds = [-0.8, 0.9];
        let mut x = Vec::new();
        let mut y = Vec::new();
        // Integrate out the latent noise by replicating each x with the
        // model-implied category proportions (law of large numbers without
        // randomness).
        for step in -20..=20 {
            let xv = step as f64 / 8.0;
            let eta = true_beta * xv;
            let p0 = Link::Logit.cdf(thresholds[0] - eta);
            let p1 = Link::Logit.cdf(thresholds[1] - eta);
            let reps = 60;
            let n0 = (p0 * reps as f64).round() as usize;
            let n1 = (p1 * reps as f64).round() as usize;
            for i in 0..reps {
                x.push(vec![xv]);
                y.push(if i < n0 {
                    0
                } else if i < n1 {
                    1
                } else {
                    2
                });
            }
        }
        let fit = model.fit(&["x"], &x, &y).unwrap();
        assert!(
            (fit.coefficients[0] - true_beta).abs() < 0.08,
            "recovered {}",
            fit.coefficients[0]
        );
        assert!((fit.thresholds[0] - thresholds[0]).abs() < 0.08);
        assert!((fit.thresholds[1] - thresholds[1]).abs() < 0.08);
        assert!(fit.thresholds[0] < fit.thresholds[1]);
    }

    #[test]
    fn predicted_probabilities_sum_to_one() {
        let x = vec![
            vec![0.0],
            vec![1.0],
            vec![2.0],
            vec![0.5],
            vec![1.5],
            vec![2.5],
        ];
        let y = vec![0, 0, 1, 1, 2, 2];
        let fit = OrdinalModel::logit().fit(&["x"], &x, &y).unwrap();
        for row in &x {
            let probs = fit.predict_proba(row);
            assert_eq!(probs.len(), 3);
            let total: f64 = probs.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
            assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn null_likelihood_matches_empirical_entropy() {
        let x: Vec<Vec<f64>> = (0..60).map(|_| vec![0.0]).collect();
        let y: Vec<usize> = (0..60).map(|i| i % 3).collect();
        // A constant predictor carries no information: LR χ² ≈ 0 and the
        // likelihood equals n Σ pⱼ ln pⱼ.
        let fit = OrdinalModel::logit().fit(&["x"], &x, &y);
        // Constant predictor makes the Hessian singular in β; accept
        // either a clean error or a fit with tiny LR.
        if let Ok(fit) = fit {
            assert!(fit.lr_chi2 < 1e-3);
        }
        // Directly check the closed form with a varying predictor that is
        // independent of y.
        let x2: Vec<Vec<f64>> = (0..60).map(|i| vec![(i % 2) as f64]).collect();
        let fit2 = OrdinalModel::logit().fit(&["x"], &x2, &y).unwrap();
        let expected_null = 60.0 * (1.0f64 / 3.0).ln();
        assert!((fit2.null_log_likelihood - expected_null).abs() < 1e-9);
        assert!(fit2.lr_chi2 < 1.0);
        assert!(fit2.lr_p > 0.3);
    }

    #[test]
    fn observation_set_is_order_invariant() {
        let x = [
            vec![0.0],
            vec![1.0],
            vec![2.0],
            vec![0.5],
            vec![1.5],
            vec![2.5],
        ];
        let y = [0, 0, 1, 1, 2, 2];
        let mut forward = ObservationSet::new();
        for (row, &yi) in x.iter().zip(&y) {
            forward.fold(row, yi);
        }
        let mut reversed = ObservationSet::new();
        for (row, &yi) in x.iter().zip(&y).rev() {
            reversed.fold(row, yi);
        }
        assert_eq!(forward, reversed);
        assert_eq!(forward.count(), 6);
        let model = OrdinalModel::logit();
        let a = forward.fit(&model, &["x"]).unwrap();
        let b = reversed.fit(&model, &["x"]).unwrap();
        assert_eq!(a.coefficients[0].to_bits(), b.coefficients[0].to_bits());
        assert_eq!(a.thresholds, b.thresholds);
        // Merging two halves equals folding everything into one set.
        let mut left = ObservationSet::new();
        let mut right = ObservationSet::new();
        for (i, (row, &yi)) in x.iter().zip(&y).enumerate() {
            if i % 2 == 0 {
                left.fold(row, yi);
            } else {
                right.fold(row, yi);
            }
        }
        left.merge(&right);
        assert_eq!(left, forward);
    }

    #[test]
    fn rejects_bad_inputs() {
        let model = OrdinalModel::logit();
        assert!(model.fit(&["x"], &[vec![1.0]], &[0, 1]).is_err()); // length mismatch
        assert!(model.fit(&["x"], &[vec![1.0], vec![2.0]], &[0, 0]).is_err()); // one category
                                                                               // Category 2 present but category 1 missing.
        assert!(model
            .fit(&["x"], &[vec![1.0], vec![2.0], vec![3.0]], &[0, 0, 2])
            .is_err());
    }

    #[test]
    fn cloglog_handles_top_heavy_outcomes() {
        // Outcome skewed toward the top category, the paper's Table-7
        // scenario.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..300 {
            let xv = (i % 10) as f64 / 3.0;
            x.push(vec![xv]);
            y.push(if i % 10 < 2 {
                0
            } else if i % 10 < 4 {
                1
            } else {
                2
            });
        }
        let fit = OrdinalModel::cloglog().fit(&["x"], &x, &y).unwrap();
        assert_eq!(fit.n_categories, 3);
        assert!(fit.thresholds[0] < fit.thresholds[1]);
        assert!(fit.log_likelihood > fit.null_log_likelihood - 1e-9);
    }
}
