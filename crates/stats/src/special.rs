//! Special functions and distribution functions.
//!
//! Implementations follow the standard numerical recipes: Lanczos
//! log-gamma, Abramowitz–Stegun-style erf via the incomplete gamma, the
//! series/continued-fraction split for the regularized incomplete gamma,
//! and the Lentz continued fraction for the regularized incomplete beta.
//! Accuracy is ~1e-10 relative over the ranges the audit uses, verified in
//! tests against high-precision reference values.

// ytlint: allow-file(indexing) — polynomial coefficients live in fixed-size
// arrays; literal indices are bounds-checked at compile time

/// Natural log of the gamma function (Lanczos approximation, g = 7, n = 9).
pub fn ln_gamma(x: f64) -> f64 {
    // Coefficients for g=7, n=9 (Godfrey/Press).
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx).
        std::f64::consts::PI.ln() - (std::f64::consts::PI * x).sin().abs().ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut acc = COEFFS[0];
        for (i, &c) in COEFFS.iter().enumerate().skip(1) {
            acc += c / (x + i as f64);
        }
        let t = x + 7.5;
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
    }
}

/// Regularized lower incomplete gamma P(a, x) = γ(a, x) / Γ(a).
pub fn gamma_p(a: f64, x: f64) -> f64 {
    if x < 0.0 || a <= 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma Q(a, x) = 1 − P(a, x).
pub fn gamma_q(a: f64, x: f64) -> f64 {
    if x < 0.0 || a <= 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// Series expansion of P(a, x), valid for x < a + 1.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut term = 1.0 / a;
    let mut sum = term;
    let mut n = a;
    for _ in 0..500 {
        n += 1.0;
        term *= x / n;
        sum += term;
        if term.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Modified Lentz continued fraction for Q(a, x), valid for x ≥ a + 1.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    h * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Error function, via the incomplete gamma: erf(x) = P(1/2, x²) for x ≥ 0.
pub fn erf(x: f64) -> f64 {
    if x < 0.0 {
        -erf(-x)
    } else {
        gamma_p(0.5, x * x)
    }
}

/// Complementary error function.
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        2.0 - erfc(-x)
    } else {
        gamma_q(0.5, x * x)
    }
}

/// Standard normal probability density.
pub fn normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal CDF Φ(z).
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / std::f64::consts::SQRT_2)
}

/// Two-sided p-value for a standard-normal test statistic.
pub fn normal_p_two_sided(z: f64) -> f64 {
    (erfc(z.abs() / std::f64::consts::SQRT_2)).min(1.0)
}

/// Inverse standard normal CDF (Acklam's rational approximation, refined
/// with one Halley step; |error| < 1e-12 over (1e-300, 1−1e-16)).
pub fn normal_quantile(p: f64) -> f64 {
    if !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement step.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

/// Regularized incomplete beta I_x(a, b), via the Lentz continued fraction.
pub fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    if !(0.0..=1.0).contains(&x) || a <= 0.0 || b <= 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    // Use the symmetry relation to keep the continued fraction convergent.
    if x < (a + 1.0) / (a + b + 2.0) {
        ln_front.exp() * beta_cf(a, b, x) / a
    } else {
        1.0 - ln_front.exp() * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Lentz continued fraction for the incomplete beta.
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..500 {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    h
}

/// χ² CDF with `df` degrees of freedom.
pub fn chi2_cdf(x: f64, df: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        gamma_p(df / 2.0, x / 2.0)
    }
}

/// Upper-tail χ² probability (the p-value of a likelihood-ratio test).
pub fn chi2_sf(x: f64, df: f64) -> f64 {
    if x <= 0.0 {
        1.0
    } else {
        gamma_q(df / 2.0, x / 2.0)
    }
}

/// Student-t CDF with `df` degrees of freedom.
pub fn t_cdf(t: f64, df: f64) -> f64 {
    if df <= 0.0 {
        return f64::NAN;
    }
    let x = df / (df + t * t);
    let tail = 0.5 * beta_inc(df / 2.0, 0.5, x);
    if t >= 0.0 {
        1.0 - tail
    } else {
        tail
    }
}

/// Two-sided p-value for a t statistic.
pub fn t_p_two_sided(t: f64, df: f64) -> f64 {
    (2.0 * (1.0 - t_cdf(t.abs(), df))).clamp(0.0, 1.0)
}

/// F-distribution upper-tail probability (p-value of an F test).
pub fn f_sf(f: f64, df1: f64, df2: f64) -> f64 {
    if f <= 0.0 {
        return 1.0;
    }
    beta_inc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + b.abs())
    }

    #[test]
    fn ln_gamma_matches_references() {
        // Γ(n) = (n−1)! for integers.
        assert!(close(ln_gamma(1.0), 0.0, 1e-12));
        assert!(close(ln_gamma(2.0), 0.0, 1e-12));
        assert!(close(ln_gamma(5.0), 24f64.ln(), 1e-12));
        assert!(close(ln_gamma(11.0), 3_628_800f64.ln(), 1e-12));
        // Γ(1/2) = √π.
        assert!(close(
            ln_gamma(0.5),
            std::f64::consts::PI.sqrt().ln(),
            1e-12
        ));
        // Γ(1.5) = √π/2.
        assert!(close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-12
        ));
        // Reflection region.
        assert!(close(ln_gamma(0.1), 2.252_712_651_734_206, 1e-10));
    }

    #[test]
    fn erf_matches_references() {
        // Reference values from Abramowitz & Stegun.
        assert!(close(erf(0.0), 0.0, 1e-15));
        assert!(close(erf(0.5), 0.520_499_877_813_046_5, 1e-10));
        assert!(close(erf(1.0), 0.842_700_792_949_714_9, 1e-10));
        assert!(close(erf(2.0), 0.995_322_265_018_952_7, 1e-10));
        assert!(close(erf(-1.0), -0.842_700_792_949_714_9, 1e-10));
        assert!(close(erfc(1.0), 0.157_299_207_050_285_1, 1e-10));
        assert!(close(erfc(3.0), 2.209_049_699_858_544e-5, 1e-8));
    }

    #[test]
    fn normal_cdf_matches_references() {
        assert!(close(normal_cdf(0.0), 0.5, 1e-14));
        assert!(close(normal_cdf(1.0), 0.841_344_746_068_542_9, 1e-10));
        assert!(close(normal_cdf(1.959_963_984_540_054), 0.975, 1e-9));
        assert!(close(normal_cdf(-2.326_347_874_040_841), 0.01, 1e-9));
        assert!(close(normal_p_two_sided(1.959_963_984_540_054), 0.05, 1e-8));
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        for &p in &[
            1e-10,
            1e-6,
            0.001,
            0.01,
            0.025,
            0.1,
            0.5,
            0.9,
            0.975,
            0.999,
            1.0 - 1e-9,
        ] {
            let z = normal_quantile(p);
            assert!(close(normal_cdf(z), p, 1e-10), "p={p}, z={z}");
        }
        assert!(close(normal_quantile(0.975), 1.959_963_984_540_054, 1e-9));
        assert_eq!(normal_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(normal_quantile(1.0), f64::INFINITY);
        assert!(normal_quantile(-0.1).is_nan());
    }

    #[test]
    fn gamma_p_q_are_complementary() {
        for &(a, x) in &[
            (0.5, 0.3),
            (1.0, 1.0),
            (2.5, 4.0),
            (10.0, 8.0),
            (10.0, 14.0),
        ] {
            assert!(
                close(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-12),
                "a={a} x={x}"
            );
        }
        // P(1, x) = 1 − e^{−x}.
        assert!(close(gamma_p(1.0, 2.0), 1.0 - (-2.0f64).exp(), 1e-12));
        assert_eq!(gamma_p(1.0, 0.0), 0.0);
        assert_eq!(gamma_q(1.0, 0.0), 1.0);
    }

    #[test]
    fn chi2_matches_references() {
        // R: pchisq(3.841458820694124, df=1) = 0.95
        assert!(close(chi2_cdf(3.841_458_820_694_124, 1.0), 0.95, 1e-9));
        // R: pchisq(5.991464547107979, df=2) = 0.95
        assert!(close(chi2_cdf(5.991_464_547_107_979, 2.0), 0.95, 1e-9));
        // LR test from the paper: χ²=1137.63 on 14 df is essentially 0.
        assert!(chi2_sf(1137.63, 14.0) < 1e-200);
        assert!(close(chi2_sf(0.0, 5.0), 1.0, 1e-12));
    }

    #[test]
    fn beta_inc_matches_references() {
        // I_x(a,b) reference values (R: pbeta).
        assert!(close(beta_inc(2.0, 3.0, 0.4), 0.5248, 1e-9)); // pbeta(0.4,2,3)
        assert!(close(beta_inc(0.5, 0.5, 0.5), 0.5, 1e-9));
        assert!(close(beta_inc(5.0, 1.0, 0.8), 0.8f64.powi(5), 1e-9));
        assert_eq!(beta_inc(2.0, 2.0, 0.0), 0.0);
        assert_eq!(beta_inc(2.0, 2.0, 1.0), 1.0);
        // Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a).
        for &(a, b, x) in &[(2.0, 5.0, 0.3), (7.5, 2.2, 0.8), (0.5, 0.5, 0.1)] {
            assert!(
                close(beta_inc(a, b, x), 1.0 - beta_inc(b, a, 1.0 - x), 1e-10),
                "a={a} b={b} x={x}"
            );
        }
    }

    #[test]
    fn t_cdf_matches_references() {
        // R: pt(2.0, df=10) = 0.9633060
        assert!(close(t_cdf(2.0, 10.0), 0.963_306_02, 1e-7));
        // R: pt(1.812461, df=10) = 0.95
        assert!(close(t_cdf(1.812_461_122_811_676, 10.0), 0.95, 1e-8));
        assert!(close(t_cdf(0.0, 5.0), 0.5, 1e-12));
        // Symmetry.
        assert!(close(t_cdf(-1.3, 7.0), 1.0 - t_cdf(1.3, 7.0), 1e-12));
        // Large df approaches the normal.
        assert!(close(t_cdf(1.96, 100_000.0), normal_cdf(1.96), 1e-5));
        // Two-sided p.
        assert!(close(
            t_p_two_sided(2.228_138_851_986_273, 10.0),
            0.05,
            1e-8
        ));
    }

    #[test]
    fn f_sf_matches_references() {
        // R: pf(4.964603, 1, 10, lower.tail=FALSE) = 0.05
        assert!(close(f_sf(4.964_602_743_730_36, 1.0, 10.0), 0.05, 1e-7));
        // R: pf(122.3, 14, 5348, lower.tail=FALSE) ~ 0 (the paper's OLS F).
        assert!(f_sf(122.3, 14.0, 5348.0) < 1e-200);
        assert!(close(f_sf(0.0, 3.0, 10.0), 1.0, 1e-12));
    }
}
