//! Property tests for the statistics crate: plain `#[test]`s over
//! random cases from `ytaudit_types::kit::check`, so CI rotates them with
//! `YTAUDIT_PROP_SEED`; a failure names the value and case to reproduce
//! with.

use std::collections::HashSet;
use ytaudit_stats::descriptive::{describe, standardize};
use ytaudit_stats::markov::MarkovChain2;
use ytaudit_stats::matrix::Matrix;
use ytaudit_stats::ols::{OlsFit, OlsOptions};
use ytaudit_stats::rank::{midranks, pearson, spearman};
use ytaudit_stats::sets::{jaccard, set_differences};
use ytaudit_stats::special::{chi2_cdf, normal_cdf, normal_quantile, t_cdf};
use ytaudit_types::kit::{check, Rng};

/// Random cases per property.
const CASES: usize = 256;

/// Uniform in `[lo, hi)`.
fn f64(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * ((rng.next() >> 11) as f64 / (1u64 << 53) as f64)
}

/// Finite values in `[-1e6, 1e6)`, `lo..hi` of them.
fn finite_vec(rng: &mut Rng, lo: i64, hi: i64) -> Vec<f64> {
    let len = rng.range(lo, hi);
    (0..len).map(|_| f64(rng, -1e6, 1e6)).collect()
}

/// A set of `lo..hi` distinct values below 200.
fn set(rng: &mut Rng, lo: i64, hi: i64) -> HashSet<u32> {
    let len = rng.range(lo, hi) as usize;
    let mut set = HashSet::new();
    while set.len() < len {
        set.insert(rng.below(200) as u32);
    }
    set
}

/// Jaccard is bounded, symmetric, and 1 exactly on equal sets.
#[test]
fn jaccard_properties() {
    check(CASES, 1, |rng| {
        let (a, b) = (set(rng, 0, 60), set(rng, 0, 60));
        let j = jaccard(&a, &b);
        assert!((0.0..=1.0).contains(&j));
        assert_eq!(j, jaccard(&b, &a));
        assert_eq!(jaccard(&a, &a), 1.0);
        // Set-difference identity: |A∪B| = |A∩B| + |A−B| + |B−A|.
        let (ab, ba) = set_differences(&a, &b);
        let union: HashSet<_> = a.union(&b).collect();
        let inter = a.intersection(&b).count();
        assert_eq!(union.len(), inter + ab + ba);
    });
}

/// Midranks are a permutation-with-ties of 1..n: they sum to n(n+1)/2.
#[test]
fn midranks_sum_invariant() {
    check(CASES, 2, |rng| {
        let values = finite_vec(rng, 1, 50);
        let ranks = midranks(&values);
        let n = values.len() as f64;
        let total: f64 = ranks.iter().sum();
        assert!((total - n * (n + 1.0) / 2.0).abs() < 1e-6);
        assert!(ranks.iter().all(|&r| r >= 1.0 && r <= n));
    });
}

/// Correlations live in [−1, 1] and are invariant to positive affine
/// transforms of either argument.
#[test]
fn correlation_bounds_and_affine_invariance() {
    check(CASES, 3, |rng| {
        let x = finite_vec(rng, 5, 30);
        let (scale, shift) = (f64(rng, 0.1, 100.0), f64(rng, -1000.0, 1000.0));
        // Build y as a noisy-ish deterministic companion to avoid constant
        // vectors.
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| v * 0.5 + ((i * 7919 % 97) as f64))
            .collect();
        if let (Ok(c1), Ok(c2)) = (
            pearson(&x, &y),
            pearson(&x.iter().map(|v| v * scale + shift).collect::<Vec<_>>(), &y),
        ) {
            assert!((-1.0..=1.0).contains(&c1.coefficient));
            assert!((c1.coefficient - c2.coefficient).abs() < 1e-8);
            assert!((0.0..=1.0).contains(&c1.p_value));
        }
        if let Ok(s) = spearman(&x, &y) {
            assert!((-1.0..=1.0).contains(&s.coefficient));
        }
    });
}

/// describe() is exact on location/scale transforms.
#[test]
fn describe_affine() {
    check(CASES, 4, |rng| {
        let values = finite_vec(rng, 2, 40);
        let (scale, shift) = (f64(rng, 0.001, 1000.0), f64(rng, -1e5, 1e5));
        let base = describe(&values).unwrap();
        let transformed: Vec<f64> = values.iter().map(|v| v * scale + shift).collect();
        let t = describe(&transformed).unwrap();
        assert!((t.mean - (base.mean * scale + shift)).abs() < 1e-4 * (1.0 + t.mean.abs()));
        assert!((t.std - base.std * scale).abs() < 1e-4 * (1.0 + t.std.abs()));
        assert!(t.min <= t.mean + 1e-9 && t.mean <= t.max + 1e-9);
    });
}

/// Standardized vectors have mean ~0 and sd ~1 (when non-constant).
#[test]
fn standardize_properties() {
    check(CASES, 5, |rng| {
        let values = finite_vec(rng, 3, 40);
        let z = standardize(&values);
        assert_eq!(z.len(), values.len());
        let d = describe(&z).unwrap();
        if d.std > 0.0 {
            assert!(d.mean.abs() < 1e-8);
            assert!((d.std - 1.0).abs() < 1e-8);
        }
    });
}

/// Solving a random well-conditioned SPD system and substituting back
/// reproduces the RHS.
#[test]
fn spd_solve_round_trip() {
    check(CASES, 6, |rng| {
        let n = rng.range(2, 8);
        // Pseudo-random SPD matrix A = BᵀB + nI.
        let mut next = || f64(rng, -1.0, 1.0);
        let b_rows: Vec<Vec<f64>> = (0..n).map(|_| (0..n).map(|_| next()).collect()).collect();
        let b = Matrix::from_rows(&b_rows).unwrap();
        let mut a = b.transpose().matmul(&b).unwrap();
        a.add_ridge(n as f64);
        let rhs: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = a.solve_spd(&rhs).unwrap();
        let back = a.matvec(&x).unwrap();
        for (r, br) in rhs.iter().zip(&back) {
            assert!((r - br).abs() < 1e-8);
        }
        // LU agrees with Cholesky.
        let x_lu = a.solve(&rhs).unwrap();
        for (u, v) in x.iter().zip(&x_lu) {
            assert!((u - v).abs() < 1e-8);
        }
    });
}

/// OLS on exactly-linear data recovers the coefficients regardless of
/// the design points.
#[test]
fn ols_exact_recovery() {
    check(CASES, 7, |rng| {
        let len = rng.range(10, 40);
        let xs: Vec<(f64, f64)> = (0..len)
            .map(|_| (f64(rng, -100.0, 100.0), f64(rng, -100.0, 100.0)))
            .collect();
        let (b0, b1, b2) = (
            f64(rng, -10.0, 10.0),
            f64(rng, -10.0, 10.0),
            f64(rng, -10.0, 10.0),
        );
        // Ensure the design is not collinear by perturbing the second
        // column deterministically.
        let rows: Vec<Vec<f64>> = xs
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| vec![a, b + (i as f64) * 0.01])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| b0 + b1 * r[0] + b2 * r[1]).collect();
        if let Ok(fit) = OlsFit::fit(&["a", "b"], &rows, &y, OlsOptions::default()) {
            assert!((fit.coefficients[0] - b0).abs() < 1e-5);
            assert!((fit.coefficients[1] - b1).abs() < 1e-5);
            assert!((fit.coefficients[2] - b2).abs() < 1e-5);
        }
    });
}

/// Distribution functions are monotone CDFs in [0, 1], and the normal
/// quantile inverts the normal CDF.
fn cdf_case(z: f64, df: f64) {
    let p = normal_cdf(z);
    assert!((0.0..=1.0).contains(&p));
    assert!(normal_cdf(z + 0.1) >= p);
    // Inversion accuracy is limited by the float spacing of p near the
    // tails (δz ≈ δp/φ(z)); restrict the check to where p carries
    // enough precision.
    if z.abs() < 6.0 && p > 1e-10 && p < 1.0 - 1e-10 {
        assert!((normal_quantile(p) - z).abs() < 1e-6);
    }
    let tp = t_cdf(z, df);
    assert!((0.0..=1.0).contains(&tp));
    assert!(t_cdf(z + 0.1, df) >= tp - 1e-12);
    let x = z.abs() * 3.0;
    let cp = chi2_cdf(x, df);
    assert!((0.0..=1.0).contains(&cp));
    assert!(chi2_cdf(x + 0.1, df) >= cp - 1e-12);
}

#[test]
fn distribution_functions_are_cdfs() {
    check(CASES, 8, |rng| {
        cdf_case(f64(rng, -8.0, 8.0), f64(rng, 1.0, 200.0))
    });
}

/// A case a shrinker once reduced a CDF monotonicity failure to.
#[test]
fn distribution_functions_pinned_case() {
    cdf_case(6.541960967953414, 1.0);
}

/// Markov transition rows always sum to 1 over observed states, and
/// counts equal (sequence length − 2) per sequence.
#[test]
fn markov_conservation() {
    check(CASES, 9, |rng| {
        let n = rng.range(1, 10);
        let seqs: Vec<Vec<bool>> = (0..n)
            .map(|_| (0..rng.range(3, 20)).map(|_| rng.next() % 2 == 0).collect())
            .collect();
        let mut chain = MarkovChain2::new();
        let mut expected = 0u64;
        for seq in &seqs {
            chain.add_sequence(seq);
            expected += (seq.len() - 2) as u64;
        }
        let total: u64 = ytaudit_stats::markov::State2::ALL
            .iter()
            .map(|&s| chain.total(s))
            .sum();
        assert_eq!(total, expected);
        for state in ytaudit_stats::markov::State2::ALL {
            if chain.total(state) > 0 {
                let p = chain.p_present(state).unwrap();
                assert!((0.0..=1.0).contains(&p));
            }
        }
    });
}

/// Fold-order invariance and `merge` associativity for the streaming
/// accumulators behind `analyze --follow`.
///
/// These are plain `#[test]`s over `ytaudit_types::kit::check` cases
/// (CI rotates them with `YTAUDIT_PROP_SEED`). The contract under test
/// is the one the batch/follow equivalence suite leans on:
///
/// * count-based state (`ObservationSet`, `MarkovChain2`, every `n`,
///   `min`, `max`) is *exactly* fold-order invariant;
/// * float sums (`Moments`, `OlsAccumulator`) are invariant up to
///   reassociation error, bounded here at 1e-9 relative;
/// * `merge` is associative under the same bounds.
///
/// The sequence accumulators (`OverlapAccumulator`,
/// `PresenceAccumulator`) are deliberately *not* order-invariant — they
/// model ordered snapshot sequences — so for them the property is
/// determinism: identical input sequences produce identical state.
mod fold_invariance {
    use super::f64;
    use ytaudit_stats::descriptive::Moments;
    use ytaudit_stats::markov::{MarkovChain2, PresenceAccumulator, State2};
    use ytaudit_stats::ols::OlsAccumulator;
    use ytaudit_stats::ordinal::ObservationSet;
    use ytaudit_stats::sets::OverlapAccumulator;
    use ytaudit_types::kit::{check, Rng};

    /// Fisher–Yates.
    fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.below(i as u64 + 1) as usize);
        }
    }

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn moments_fold_order_invariance() {
        check(50, 101, |rng| {
            let values: Vec<f64> = (0..2 + rng.below(60))
                .map(|_| f64(rng, -1e3, 1e3))
                .collect();
            let mut shuffled = values.clone();
            shuffle(rng, &mut shuffled);
            let mut a = Moments::new();
            let mut b = Moments::new();
            values.iter().for_each(|&v| a.fold(v));
            shuffled.iter().for_each(|&v| b.fold(v));
            let (da, db) = (a.finish().unwrap(), b.finish().unwrap());
            assert_eq!(da.n, db.n);
            assert_eq!(da.min, db.min, "min is exact");
            assert_eq!(da.max, db.max, "max is exact");
            assert!(close(da.mean, db.mean, 1e-9), "{} vs {}", da.mean, db.mean);
            assert!(close(da.std, db.std, 1e-9), "{} vs {}", da.std, db.std);
        });
    }

    #[test]
    fn moments_merge_is_associative_and_matches_folding() {
        check(50, 102, |rng| {
            let chunks: Vec<Vec<f64>> = (0..3)
                .map(|_| {
                    (0..1 + rng.below(20))
                        .map(|_| f64(rng, -1e3, 1e3))
                        .collect()
                })
                .collect();
            let acc = |values: &[f64]| {
                let mut m = Moments::new();
                values.iter().for_each(|&v| m.fold(v));
                m
            };
            let (a, b, c) = (acc(&chunks[0]), acc(&chunks[1]), acc(&chunks[2]));
            // (a ⊕ b) ⊕ c
            let mut left = a;
            left.merge(&b);
            left.merge(&c);
            // a ⊕ (b ⊕ c)
            let mut bc = b;
            bc.merge(&c);
            let mut right = a;
            right.merge(&bc);
            // ⊕ everything at once, by folding.
            let all: Vec<f64> = chunks.concat();
            let folded = acc(&all);
            for (x, y) in [(left, right), (left, folded)] {
                let (dx, dy) = (x.finish().unwrap(), y.finish().unwrap());
                assert_eq!(dx.n, dy.n);
                assert_eq!(dx.min, dy.min);
                assert_eq!(dx.max, dy.max);
                assert!(close(dx.mean, dy.mean, 1e-9));
                assert!(close(dx.std, dy.std, 1e-9));
            }
        });
    }

    #[test]
    fn ols_accumulator_fold_order_invariance_and_merge_associativity() {
        check(25, 103, |rng| {
            let p = 2 + rng.below(3) as usize;
            let rows: Vec<(Vec<f64>, f64)> = (0..p as u64 + 4 + rng.below(30))
                .map(|i| {
                    let mut row: Vec<f64> = (0..p - 1).map(|_| f64(rng, -1e3, 1e3)).collect();
                    row.insert(0, 1.0);
                    // A deterministic, non-collinear response.
                    let y = row.iter().sum::<f64>() + i as f64 * 0.25;
                    (row, y)
                })
                .collect();
            let acc = |obs: &[(Vec<f64>, f64)]| {
                let mut a = OlsAccumulator::new(p);
                for (row, y) in obs {
                    a.fold(row, *y).unwrap();
                }
                a
            };
            let ordered = acc(&rows);
            let mut shuffled_rows = rows.clone();
            shuffle(rng, &mut shuffled_rows);
            let shuffled = acc(&shuffled_rows);
            assert_eq!(ordered.count(), shuffled.count());
            for (bo, bs) in ordered
                .solve()
                .unwrap()
                .iter()
                .zip(shuffled.solve().unwrap())
            {
                assert!(close(*bo, bs, 1e-6), "{bo} vs {bs}");
            }
            // Merge associativity over three shards.
            let third = rows.len() / 3;
            let (s1, s2, s3) = (
                acc(&rows[..third]),
                acc(&rows[third..2 * third]),
                acc(&rows[2 * third..]),
            );
            let mut left = s1.clone();
            left.merge(&s2).unwrap();
            left.merge(&s3).unwrap();
            let mut s23 = s2.clone();
            s23.merge(&s3).unwrap();
            let mut right = s1.clone();
            right.merge(&s23).unwrap();
            assert_eq!(left.count(), right.count());
            assert_eq!(left.count(), ordered.count());
            for (xl, xr) in left.xty().iter().zip(right.xty()) {
                assert!(close(*xl, *xr, 1e-9));
            }
        });
    }

    #[test]
    fn observation_set_fold_order_and_merge_are_bit_exact() {
        check(50, 104, |rng| {
            let obs: Vec<(Vec<f64>, usize)> = (0..1 + rng.below(40))
                .map(|_| {
                    // A small value pool forces repeated rows (counted, not
                    // stored) and repeated categories.
                    let row: Vec<f64> = (0..3).map(|_| rng.below(4) as f64).collect();
                    (row, rng.below(3) as usize)
                })
                .collect();
            let mut shuffled_obs = obs.clone();
            shuffle(rng, &mut shuffled_obs);
            let build = |obs: &[(Vec<f64>, usize)]| {
                let mut s = ObservationSet::new();
                for (row, category) in obs {
                    s.fold(row, *category);
                }
                s
            };
            let (ordered, shuffled) = (build(&obs), build(&shuffled_obs));
            assert_eq!(ordered, shuffled, "counted-row state is order-free");
            assert_eq!(ordered.count(), obs.len() as u64);
            // Merge = fold of the concatenation, exactly, in any grouping.
            let half = obs.len() / 2;
            let (a, b) = (build(&obs[..half]), build(&obs[half..]));
            let mut merged = a.clone();
            merged.merge(&b);
            assert_eq!(merged, ordered);
            let mut flipped = b;
            flipped.merge(&a);
            assert_eq!(flipped, ordered, "merge commutes exactly");
        });
    }

    #[test]
    fn markov_chain_fold_order_and_merge_are_exact() {
        check(50, 105, |rng| {
            let seqs: Vec<Vec<bool>> = (0..1 + rng.below(8))
                .map(|_| (0..3 + rng.below(12)).map(|_| rng.below(2) == 0).collect())
                .collect();
            let build = |seqs: &[Vec<bool>]| {
                let mut c = MarkovChain2::new();
                for seq in seqs {
                    c.add_sequence(seq);
                }
                c
            };
            let ordered = build(&seqs);
            let mut shuffled_seqs = seqs.clone();
            shuffle(rng, &mut shuffled_seqs);
            let shuffled = build(&shuffled_seqs);
            // Counts are integers: any fold order and any merge grouping
            // gives the same chain, bit for bit.
            let half = seqs.len() / 2;
            let mut merged = build(&seqs[..half]);
            merged.merge(&build(&seqs[half..]));
            for state in State2::ALL {
                for next in [true, false] {
                    assert_eq!(ordered.count(state, next), shuffled.count(state, next));
                    assert_eq!(ordered.count(state, next), merged.count(state, next));
                }
            }
        });
    }

    #[test]
    fn sequence_accumulators_are_deterministic() {
        use std::collections::HashSet;
        check(20, 106, |rng| {
            let snapshots: Vec<HashSet<u64>> = (0..3 + rng.below(8))
                .map(|_| (0..rng.below(12)).map(|_| rng.below(30)).collect())
                .collect();
            let mut overlap_a = OverlapAccumulator::new();
            let mut overlap_b = OverlapAccumulator::new();
            let mut presence_a = PresenceAccumulator::new();
            let mut presence_b = PresenceAccumulator::new();
            for set in &snapshots {
                let step_a = overlap_a.fold(set.clone());
                let step_b = overlap_b.fold(set.clone());
                assert_eq!(step_a.jaccard_prev, step_b.jaccard_prev);
                assert_eq!(step_a.jaccard_first, step_b.jaccard_first);
                presence_a.fold(set);
                presence_b.fold(set);
            }
            assert_eq!(overlap_a.folds(), snapshots.len() as u64);
            for state in State2::ALL {
                for next in [true, false] {
                    assert_eq!(
                        presence_a.chain().count(state, next),
                        presence_b.chain().count(state, next)
                    );
                }
            }
        });
    }
}
