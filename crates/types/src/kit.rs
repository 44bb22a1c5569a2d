//! The seeded test kit: one mixer, one generator, one seed rule and one
//! property loop for every seeded suite in the workspace.
//!
//! * [`mix64`] is the SplitMix64 mixer. Identifier minting and the
//!   platform's hashing run on it too, so it is production code.
//! * [`Rng`] is a SplitMix64 stream over [`mix64`] with the draws the
//!   suites share.
//! * [`prop_seed`] is the one reader of `YTAUDIT_PROP_SEED`. Unset, a
//!   suite runs on its fixed seed. Set (CI sets it to the commit SHA),
//!   its value is XORed into the fixed seed: a number as it is, any other
//!   string FNV-hashed first. Every push then explores fresh cases.
//! * [`check`] runs a property over random cases and, when one fails,
//!   prints the `YTAUDIT_PROP_SEED` value and case number that reproduce
//!   it.

/// The fixed seed [`check`] rotates.
const FIXED_SEED: u64 = 0x5EED_CAFE;

/// SplitMix64's increment, the golden-ratio "gamma".
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64: a small, high-quality bijective 64-bit mixer. Consecutive
/// inputs give uncorrelated outputs.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A SplitMix64 stream: deterministic, dependency-free, fully determined
/// by its seed.
#[derive(Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits. (Not an `Iterator`: the stream never
    /// ends, and every suite calls it `next`.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let z = mix64(self.0);
        self.0 = self.0.wrapping_add(GAMMA);
        z
    }

    /// Uniform in `0..n` (0 when `n` is 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform in `lo..hi`; `hi` must exceed `lo`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }
}

/// A suite's seed: `fixed` unless `YTAUDIT_PROP_SEED` is set. When it
/// is, the value is reported on stderr (which the test harness shows for
/// a failing test) and rotates the seed.
pub fn prop_seed(fixed: u64) -> u64 {
    let raw = raw_seed();
    let seed = seed_from(raw.as_deref(), fixed);
    if let Some(raw) = raw {
        eprintln!("YTAUDIT_PROP_SEED={raw}: seed {fixed:#x} becomes {seed:#x}");
    }
    seed
}

/// The seed rule: `fixed`, or `fixed` XOR the raw value (a number as it
/// is, any other string FNV-1a-hashed).
fn seed_from(raw: Option<&str>, fixed: u64) -> u64 {
    let Some(raw) = raw else { return fixed };
    let rotation = raw.parse().unwrap_or_else(|_| {
        raw.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    });
    rotation ^ fixed
}

/// Runs `property` on `cases` random cases drawn from one stream, seeded
/// by the [`prop_seed`] rule from one fixed seed shared by every `check`
/// suite; `salt` gives each property its own stream. A failing case
/// prints the seed variable's value and the case number to stderr as the
/// panic unwinds.
pub fn check(cases: usize, salt: u64, property: impl FnMut(&mut Rng)) {
    run(raw_seed().as_deref(), cases, salt, property);
}

/// The value of `YTAUDIT_PROP_SEED`, if set: the one place the kit reads
/// it.
fn raw_seed() -> Option<String> {
    std::env::var("YTAUDIT_PROP_SEED").ok()
}

fn run(raw: Option<&str>, cases: usize, salt: u64, mut property: impl FnMut(&mut Rng)) {
    let seed = seed_from(raw, FIXED_SEED);
    let mut rng = Rng::new(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
    for case in 0..cases {
        let _case = Case { raw, case };
        property(&mut rng);
    }
}

/// Names the seed and case of a failing property while a panic unwinds.
struct Case<'a> {
    raw: Option<&'a str>,
    case: usize,
}

impl Case<'_> {
    fn failure_line(&self) -> String {
        match self.raw {
            Some(raw) => format!(
                "property failed: YTAUDIT_PROP_SEED={raw} case {}",
                self.case
            ),
            None => format!(
                "property failed: YTAUDIT_PROP_SEED unset, case {}",
                self.case
            ),
        }
    }
}

impl Drop for Case<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("{}", self.failure_line());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const SHA: &str = "0af68e4b6150870ae55b366af04e2285f0616a8f";

    #[test]
    fn mix64_is_the_splitmix64_the_workspace_always_used() {
        // Outputs of the identifier minter's former private copy.
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(mix64(0x5EED_CAFE), 0x432B_1BED_2636_3815);
        assert_eq!(mix64(u64::MAX), 0xE4D9_7177_1B65_2C20);
    }

    #[test]
    fn the_stream_is_splitmix64() {
        let mut rng = Rng::new(7);
        assert_eq!(rng.next(), mix64(7));
        assert_eq!(rng.next(), mix64(7u64.wrapping_add(GAMMA)));
        assert_eq!(Rng::new(0).below(0), 0);
        for _ in 0..1_000 {
            assert!(rng.below(5) < 5);
            assert!((-3..4).contains(&rng.range(-3, 4)));
        }
    }

    #[test]
    fn seed_rule_keeps_fixed_unset_and_rotates_numbers_and_strings() {
        assert_eq!(seed_from(None, 0xABC), 0xABC);
        assert_eq!(seed_from(Some("5"), 0xABC), 5 ^ 0xABC);
        assert_eq!(seed_from(Some(SHA), 0xABC), 0xC864_2F44_FACE_0362 ^ 0xABC);
        assert_ne!(seed_from(Some(SHA), 0xABC), 0xABC);
        // One rotation moves two suites' fixed seeds to different seeds.
        assert_ne!(seed_from(Some(SHA), 1), seed_from(Some(SHA), 2));
        assert_ne!(seed_from(Some("5"), 1), seed_from(Some("5"), 2));
    }

    /// The first draw of a `check` run with salt 0 under `raw`.
    fn first_draw(raw: Option<&str>) -> u64 {
        let mut first = None;
        run(raw, 1, 0, |rng| first = Some(rng.next()));
        first.unwrap()
    }

    /// The loop `types::wire`'s fuzzer runs on (salt 0): a commit SHA
    /// rotates it. The fuzzer once kept its fixed seed for any value that
    /// was not a number.
    #[test]
    fn check_rotates_under_a_commit_sha() {
        let fixed = first_draw(None);
        assert_eq!(fixed, Rng::new(FIXED_SEED).next());
        assert_ne!(first_draw(Some(SHA)), fixed);
        assert_ne!(first_draw(Some("12345")), fixed);
        assert_eq!(first_draw(Some(SHA)), first_draw(Some(SHA)));
    }

    /// Runs a property that fails on its first draw divisible by 7 and
    /// returns the failing case number and draw.
    fn failing_case(raw: Option<&str>) -> (usize, u64) {
        let mut seen = (0, 0);
        let mut case = 0;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run(raw, 1_000, 3, |rng| {
                let draw = rng.next();
                seen = (case, draw);
                case += 1;
                assert!(draw % 7 != 0);
            })
        }));
        assert!(outcome.is_err(), "some draw in 1 000 is divisible by 7");
        seen
    }

    #[test]
    fn a_failure_names_the_raw_value_and_the_case_that_reproduce_it() {
        let (case, draw) = failing_case(Some(SHA));
        let line = Case {
            raw: Some(SHA),
            case,
        }
        .failure_line();
        assert_eq!(
            line,
            format!("property failed: YTAUDIT_PROP_SEED={SHA} case {case}")
        );
        // The same value runs the same cases to the same failure.
        assert_eq!(failing_case(Some(SHA)), (case, draw));
        let unset = Case { raw: None, case: 4 }.failure_line();
        assert_eq!(unset, "property failed: YTAUDIT_PROP_SEED unset, case 4");
    }
}
