//! Stable hashing and smooth "value noise" — the deterministic randomness
//! underneath the simulated search endpoint.
//!
//! Everything the platform randomizes must be a *pure function* of
//! (seed, entity, time): two identical queries at the same simulated
//! instant must return identical results, while queries weeks apart drift.
//! `std`'s hashers are not guaranteed stable across runs, so we use our own
//! splitmix64-based mixer ([`mix64`], from `ytaudit_types::kit`).

use ytaudit_types::time::DAY;
use ytaudit_types::Timestamp;

/// SplitMix64: the workspace's one 64-bit mixer, shared with identifier
/// minting.
pub use ytaudit_types::kit::mix64;

/// Combines a sequence of words into one hash (order-sensitive).
pub fn mix_all(words: &[u64]) -> u64 {
    let mut acc = 0x243F_6A88_85A3_08D3; // π digits, arbitrary non-zero
    for &w in words {
        acc = mix64(acc ^ w);
    }
    acc
}

/// FNV-1a over bytes, for hashing strings (query text, video IDs) into the
/// mixer's input space.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix64(acc)
}

/// Maps a hash to a uniform `f64` in `[0, 1)`.
pub fn unit_f64(hash: u64) -> f64 {
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

/// Maps a hash to an approximately standard-normal value via the
/// Box–Muller transform on two derived uniforms.
pub fn unit_normal(hash: u64) -> f64 {
    let u1 = unit_f64(mix64(hash ^ 0xAAAA_AAAA_AAAA_AAAA)).max(1e-12);
    let u2 = unit_f64(mix64(hash ^ 0x5555_5555_5555_5555));
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Smooth per-entity noise over time ("value noise"): hash values are
/// pinned at knots spaced `knot_days` apart and linearly interpolated
/// between them. The result is a deterministic function of
/// (seed, entity, t) that changes slowly — correlation between two samples
/// decays linearly to zero as they drift one knot apart.
///
/// This is the mechanism behind the paper's "rolling window" drop-in/
/// drop-out behaviour (Figure 3): a video's inclusion score moves smoothly
/// across collection snapshots, so presence persists over adjacent
/// snapshots and churns over months.
pub fn value_noise(seed: u64, entity: u64, t: Timestamp, knot_days: f64) -> f64 {
    debug_assert!(knot_days > 0.0);
    let knot_secs = knot_days * DAY as f64;
    let pos = t.as_secs() as f64 / knot_secs;
    let k0 = pos.floor();
    let frac = pos - k0;
    let k0 = k0 as i64;
    let v0 = unit_f64(mix_all(&[seed, entity, k0 as u64, 0x4B4E_4F54]));
    let v1 = unit_f64(mix_all(&[seed, entity, (k0 + 1) as u64, 0x4B4E_4F54]));
    v0 + (v1 - v0) * frac
}

/// Two-scale value noise: a fast component (short knots) layered on a slow
/// component (long knots). The fast part gives snapshot-to-snapshot churn;
/// the slow part keeps similarity decaying for months instead of
/// plateauing after one knot interval — matching Figure 1's long decay.
pub fn layered_noise(
    seed: u64,
    entity: u64,
    t: Timestamp,
    fast_days: f64,
    slow_days: f64,
    fast_weight: f64,
) -> f64 {
    let fast = value_noise(seed ^ 0xFA57, entity, t, fast_days);
    let slow = value_noise(seed ^ 0x5103, entity, t, slow_days);
    fast_weight * fast + (1.0 - fast_weight) * slow
}

#[cfg(test)]
mod tests {
    use super::*;
    use ytaudit_types::Timestamp;

    #[test]
    fn mix_is_deterministic_and_sensitive() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
        assert_eq!(mix_all(&[1, 2, 3]), mix_all(&[1, 2, 3]));
        assert_ne!(mix_all(&[1, 2, 3]), mix_all(&[3, 2, 1]));
        assert_eq!(hash_bytes(b"brexit"), hash_bytes(b"brexit"));
        assert_ne!(hash_bytes(b"brexit"), hash_bytes(b"brexlt"));
    }

    #[test]
    fn unit_f64_in_range_and_roughly_uniform() {
        let mut sum = 0.0;
        let n = 10_000;
        for i in 0..n {
            let u = unit_f64(mix64(i));
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn unit_normal_moments() {
        let n = 20_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for i in 0..n {
            let z = unit_normal(mix64(i));
            sum += z;
            sum_sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn value_noise_is_smooth_and_bounded() {
        let t0 = Timestamp::from_ymd(2025, 2, 9).unwrap();
        for entity in 0..50u64 {
            let mut prev = value_noise(7, entity, t0, 10.0);
            for day in 1..60 {
                let v = value_noise(7, entity, t0.add_days(day), 10.0);
                assert!((0.0..=1.0).contains(&v));
                // Max change per day is 1/knot_days of the full range.
                assert!((v - prev).abs() <= 1.0 / 10.0 + 1e-9);
                prev = v;
            }
        }
    }

    #[test]
    fn value_noise_decorrelates_over_knots() {
        // Correlation of samples 1 knot apart should be near zero, and
        // samples at the same instant identical.
        let t0 = Timestamp::from_ymd(2025, 2, 9).unwrap();
        let knot = 10.0;
        let n = 4_000;
        let (mut sxy, mut sx, mut sy, mut sxx, mut syy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for entity in 0..n {
            let a = value_noise(3, entity, t0, knot);
            let b = value_noise(3, entity, t0.add_days(20), knot);
            assert_eq!(a, value_noise(3, entity, t0, knot));
            sx += a;
            sy += b;
            sxy += a * b;
            sxx += a * a;
            syy += b * b;
        }
        let nf = n as f64;
        let cov = sxy / nf - (sx / nf) * (sy / nf);
        let corr =
            cov / ((sxx / nf - (sx / nf).powi(2)).sqrt() * (syy / nf - (sy / nf).powi(2)).sqrt());
        assert!(corr.abs() < 0.06, "corr {corr}");
    }

    #[test]
    fn nearby_samples_are_highly_correlated() {
        let t0 = Timestamp::from_ymd(2025, 2, 9).unwrap();
        let knot = 30.0;
        let n = 4_000;
        let (mut sxy, mut sx, mut sy, mut sxx, mut syy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for entity in 0..n {
            let a = value_noise(3, entity, t0, knot);
            let b = value_noise(3, entity, t0.add_days(3), knot);
            sx += a;
            sy += b;
            sxy += a * b;
            sxx += a * a;
            syy += b * b;
        }
        let nf = n as f64;
        let cov = sxy / nf - (sx / nf) * (sy / nf);
        let corr =
            cov / ((sxx / nf - (sx / nf).powi(2)).sqrt() * (syy / nf - (sy / nf).powi(2)).sqrt());
        assert!(corr > 0.8, "corr {corr}");
    }

    #[test]
    fn layered_noise_is_bounded() {
        let t0 = Timestamp::from_ymd(2025, 3, 1).unwrap();
        for entity in 0..100 {
            let v = layered_noise(9, entity, t0, 8.0, 45.0, 0.5);
            assert!((0.0..=1.0).contains(&v));
        }
    }
}
