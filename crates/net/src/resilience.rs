//! Client-side resilience: exponential backoff, retry policies, and a token
//! bucket rate limiter.
//!
//! The real Data API meters clients two ways — a hard daily quota and a
//! transient-error budget — so a research collector needs (a) retries that
//! only re-issue retryable failures, with jittered exponential backoff, and
//! (b) proactive request pacing. Both are implemented here as small pure
//! cores (testable without clocks) plus thin wrappers whose notion of
//! elapsed time comes from an injected
//! [`MonotonicClock`](ytaudit_platform::clock::MonotonicClock) —
//! [`RealClock`](ytaudit_platform::clock::RealClock) in production,
//! [`ManualClock`](ytaudit_platform::clock::ManualClock) in tests, so
//! deadline behaviour is exercised without real sleeps.

use std::sync::Arc;
use std::time::Duration;
use ytaudit_platform::clock::{MonotonicClock, RealClock};

/// Deterministic exponential backoff with multiplicative jitter.
#[derive(Debug, Clone)]
pub struct Backoff {
    /// Delay before the first retry.
    pub base: Duration,
    /// Multiplier applied per attempt (≥ 1.0).
    pub factor: f64,
    /// Upper bound on any single delay.
    pub max: Duration,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a value drawn
    /// from `[1 − jitter, 1]` using a per-attempt hash of `seed`.
    pub jitter: f64,
    /// Seed for deterministic jitter (useful in tests; any value works).
    pub seed: u64,
}

impl Default for Backoff {
    fn default() -> Backoff {
        Backoff {
            base: Duration::from_millis(100),
            factor: 2.0,
            max: Duration::from_secs(30),
            jitter: 0.25,
            seed: 0x5EED,
        }
    }
}

impl Backoff {
    /// The delay to sleep before retry number `attempt` (0-based: the delay
    /// after the first failure is `delay(0)`).
    pub fn delay(&self, attempt: u32) -> Duration {
        let unjittered = self.base.as_secs_f64() * self.factor.powi(attempt as i32);
        let capped = unjittered.min(self.max.as_secs_f64());
        let jitter_scale = if self.jitter > 0.0 {
            // splitmix-style hash of (seed, attempt) → [0, 1).
            let mut x = self.seed ^ (u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let unit = ((x >> 11) as f64) / ((1u64 << 53) as f64);
            1.0 - self.jitter * unit
        } else {
            1.0
        };
        Duration::from_secs_f64(capped * jitter_scale)
    }
}

/// How a retry loop ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetryOutcome<T, E> {
    /// The operation succeeded on some attempt (0-based attempt index).
    Success(T, u32),
    /// Every allowed attempt failed; the final error is returned.
    Exhausted(E, u32),
    /// A non-retryable error stopped the loop early.
    Fatal(E, u32),
}

/// A retry policy: attempt budget plus backoff schedule.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts allowed (≥ 1); 1 means "no retries".
    pub max_attempts: u32,
    /// Backoff schedule between attempts.
    pub backoff: Backoff,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            backoff: Backoff::default(),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn no_retries() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff: Backoff::default(),
        }
    }

    /// Runs `op` until success, a non-retryable error, or the attempt
    /// budget is spent. `is_retryable` classifies errors; `sleep` is
    /// injected so tests don't wait on wall clocks.
    pub fn run_with<T, E>(
        &self,
        mut op: impl FnMut(u32) -> Result<T, E>,
        is_retryable: impl Fn(&E) -> bool,
        mut sleep: impl FnMut(Duration),
    ) -> RetryOutcome<T, E> {
        let attempts = self.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Ok(value) => return RetryOutcome::Success(value, attempt),
                Err(err) if !is_retryable(&err) => return RetryOutcome::Fatal(err, attempt),
                Err(err) => {
                    if attempt + 1 >= attempts {
                        return RetryOutcome::Exhausted(err, attempt);
                    }
                    sleep(self.backoff.delay(attempt));
                    attempt += 1;
                }
            }
        }
    }

    /// [`run_with`](Self::run_with) sleeping on the real clock, flattened
    /// to a `Result`.
    pub fn run<T, E>(
        &self,
        op: impl FnMut(u32) -> Result<T, E>,
        is_retryable: impl Fn(&E) -> bool,
    ) -> Result<T, E> {
        match self.run_with(op, is_retryable, std::thread::sleep) {
            RetryOutcome::Success(value, _) => Ok(value),
            RetryOutcome::Exhausted(err, _) | RetryOutcome::Fatal(err, _) => Err(err),
        }
    }
}

/// The pure token-bucket core: time is an explicit `f64` seconds argument.
#[derive(Debug, Clone)]
pub struct BucketCore {
    capacity: f64,
    refill_per_sec: f64,
    tokens: f64,
    last_update: f64,
}

impl BucketCore {
    /// A full bucket holding `capacity` tokens refilled at
    /// `refill_per_sec`.
    pub fn new(capacity: f64, refill_per_sec: f64) -> BucketCore {
        BucketCore {
            capacity: capacity.max(0.0),
            refill_per_sec: refill_per_sec.max(0.0),
            tokens: capacity.max(0.0),
            last_update: 0.0,
        }
    }

    fn refill(&mut self, now: f64) {
        if now > self.last_update {
            self.tokens =
                (self.tokens + (now - self.last_update) * self.refill_per_sec).min(self.capacity);
            self.last_update = now;
        }
    }

    /// Attempts to take `cost` tokens at time `now`; returns `Ok(())` or
    /// the seconds to wait until enough tokens accrue.
    pub fn try_acquire(&mut self, cost: f64, now: f64) -> Result<(), f64> {
        self.refill(now);
        if self.tokens >= cost {
            self.tokens -= cost;
            Ok(())
        } else if self.refill_per_sec <= 0.0 {
            Err(f64::INFINITY)
        } else {
            Err((cost - self.tokens) / self.refill_per_sec)
        }
    }

    /// Tokens currently available at time `now`.
    pub fn available(&mut self, now: f64) -> f64 {
        self.refill(now);
        self.tokens
    }
}

/// A thread-safe token bucket over an injected monotonic clock.
pub struct TokenBucket {
    core: parking_lot::Mutex<BucketCore>,
    clock: Arc<dyn MonotonicClock>,
}

impl TokenBucket {
    /// A bucket with `capacity` tokens refilled at `refill_per_sec`,
    /// timed by the process clock.
    pub fn new(capacity: f64, refill_per_sec: f64) -> TokenBucket {
        TokenBucket::with_clock(capacity, refill_per_sec, Arc::new(RealClock::default()))
    }

    /// Same bucket with an explicit clock (tests inject `ManualClock`).
    pub fn with_clock(
        capacity: f64,
        refill_per_sec: f64,
        clock: Arc<dyn MonotonicClock>,
    ) -> TokenBucket {
        TokenBucket {
            core: parking_lot::Mutex::new(BucketCore::new(capacity, refill_per_sec)),
            clock,
        }
    }

    fn now(&self) -> f64 {
        self.clock.now().as_secs_f64()
    }

    /// Non-blocking acquire of `cost` tokens.
    pub fn try_acquire(&self, cost: f64) -> bool {
        self.core.lock().try_acquire(cost, self.now()).is_ok()
    }

    /// Blocking acquire: sleeps on the injected clock until tokens are
    /// available or `timeout` elapses. Returns whether the tokens were
    /// obtained.
    pub fn acquire(&self, cost: f64, timeout: Duration) -> bool {
        let deadline = self.clock.now() + timeout;
        loop {
            let wait = match self.core.lock().try_acquire(cost, self.now()) {
                Ok(()) => return true,
                Err(secs) => secs,
            };
            if !wait.is_finite() || self.clock.now() + Duration::from_secs_f64(wait) > deadline {
                return false;
            }
            self.clock
                .sleep(Duration::from_secs_f64(wait.clamp(0.0005, 0.05)));
        }
    }

    /// Tokens currently available.
    pub fn available(&self) -> f64 {
        self.core.lock().available(self.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let b = Backoff {
            jitter: 0.0,
            ..Backoff::default()
        };
        assert_eq!(b.delay(0), Duration::from_millis(100));
        assert_eq!(b.delay(1), Duration::from_millis(200));
        assert_eq!(b.delay(2), Duration::from_millis(400));
        assert_eq!(b.delay(20), Duration::from_secs(30)); // capped
    }

    #[test]
    fn backoff_jitter_within_bounds_and_deterministic() {
        let b = Backoff::default();
        for attempt in 0..10 {
            let d1 = b.delay(attempt);
            let d2 = b.delay(attempt);
            assert_eq!(d1, d2, "jitter must be deterministic per attempt");
            let unjittered = b.base.as_secs_f64() * b.factor.powi(attempt as i32);
            let capped = unjittered.min(b.max.as_secs_f64());
            assert!(d1.as_secs_f64() <= capped + 1e-9);
            assert!(d1.as_secs_f64() >= capped * (1.0 - b.jitter) - 1e-9);
        }
    }

    #[test]
    fn retry_succeeds_after_transient_failures() {
        let policy = RetryPolicy::default();
        let mut slept = Vec::new();
        let outcome = policy.run_with(
            |attempt| {
                if attempt < 2 {
                    Err("transient")
                } else {
                    Ok(attempt)
                }
            },
            |_| true,
            |d| slept.push(d),
        );
        assert_eq!(outcome, RetryOutcome::Success(2, 2));
        assert_eq!(slept.len(), 2);
    }

    #[test]
    fn retry_stops_on_fatal_error() {
        let policy = RetryPolicy::default();
        let outcome = policy.run_with(
            |_: u32| Err::<(), _>("quotaExceeded"),
            |e| *e != "quotaExceeded",
            |_| panic!("must not sleep on fatal errors"),
        );
        assert_eq!(outcome, RetryOutcome::Fatal("quotaExceeded", 0));
    }

    #[test]
    fn retry_exhausts_budget() {
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let mut calls = 0;
        let outcome = policy.run_with(
            |_| {
                calls += 1;
                Err::<(), _>("still broken")
            },
            |_| true,
            |_| {},
        );
        assert_eq!(outcome, RetryOutcome::Exhausted("still broken", 2));
        assert_eq!(calls, 3);
    }

    #[test]
    fn no_retries_policy_tries_once() {
        let mut calls = 0;
        let outcome = RetryPolicy::no_retries().run_with(
            |_| {
                calls += 1;
                Err::<(), _>("x")
            },
            |_| true,
            |_| {},
        );
        assert!(matches!(outcome, RetryOutcome::Exhausted("x", 0)));
        assert_eq!(calls, 1);
    }

    #[test]
    fn bucket_core_consumes_and_refills() {
        let mut core = BucketCore::new(10.0, 2.0);
        assert!(core.try_acquire(10.0, 0.0).is_ok());
        // Empty now; need 5 tokens → 2.5 s wait.
        let wait = core.try_acquire(5.0, 0.0).unwrap_err();
        assert!((wait - 2.5).abs() < 1e-9);
        // After 3 s, 6 tokens accrued.
        assert!(core.try_acquire(5.0, 3.0).is_ok());
        assert!((core.available(3.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bucket_core_never_exceeds_capacity() {
        let mut core = BucketCore::new(4.0, 100.0);
        assert!((core.available(1_000.0) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bucket_core_zero_refill_reports_infinite_wait() {
        let mut core = BucketCore::new(1.0, 0.0);
        assert!(core.try_acquire(1.0, 0.0).is_ok());
        assert_eq!(core.try_acquire(1.0, 10.0).unwrap_err(), f64::INFINITY);
    }

    #[test]
    fn token_bucket_refills_on_manual_clock() {
        let clock = ytaudit_platform::clock::ManualClock::new();
        let bucket = TokenBucket::with_clock(2.0, 1.0, Arc::new(clock.clone()));
        assert!(bucket.try_acquire(2.0));
        assert!(!bucket.try_acquire(1.0), "bucket drained");
        // One simulated second refills one token; no real sleep happens.
        clock.advance(Duration::from_secs(1));
        assert!(bucket.try_acquire(1.0));
        clock.advance(Duration::from_secs(60));
        assert!(
            (bucket.available() - 2.0).abs() < 1e-9,
            "refill caps at capacity"
        );
    }

    #[test]
    fn blocking_acquire_waits_on_the_injected_clock() {
        let clock = ytaudit_platform::clock::ManualClock::new();
        let bucket = TokenBucket::with_clock(1.0, 1.0, Arc::new(clock.clone()));
        assert!(bucket.try_acquire(1.0));
        // `acquire` sleeps on the manual clock, which advances simulated
        // time instantly, so this "one-second wait" returns immediately.
        assert!(bucket.acquire(1.0, Duration::from_secs(5)));
        assert!(
            clock.now() >= Duration::from_millis(900),
            "waited on the clock"
        );
    }

    #[test]
    fn acquire_times_out_without_real_sleeps() {
        let clock = ytaudit_platform::clock::ManualClock::new();
        let slow = TokenBucket::with_clock(1.0, 0.0, Arc::new(clock.clone()));
        assert!(slow.try_acquire(1.0));
        // Zero refill: infinite wait is reported as a timeout, not a hang.
        assert!(!slow.acquire(1.0, Duration::from_millis(10)));
        // A finite but too-long wait also times out, advancing only
        // simulated time.
        let trickle = TokenBucket::with_clock(1.0, 0.001, Arc::new(clock.clone()));
        assert!(trickle.try_acquire(1.0));
        assert!(!trickle.acquire(1.0, Duration::from_secs(1)));
    }

    #[test]
    fn token_bucket_wall_clock_smoke() {
        // The default constructor still runs on the process clock.
        let bucket = TokenBucket::new(2.0, 1000.0);
        assert!(bucket.try_acquire(1.0));
        assert!(bucket.try_acquire(1.0));
        // Refill is fast (1000/s): blocking acquire succeeds quickly.
        assert!(bucket.acquire(1.0, Duration::from_secs(1)));
    }
}
