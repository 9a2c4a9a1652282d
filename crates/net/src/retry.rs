//! Bounded exponential backoff with jitter — the client reliability
//! layer's scheduling half.

use std::hash::{Hash, Hasher};
use std::time::Duration;

use crate::error::{NetError, NetResult};

/// Retry schedule: exponentially growing, capped, jittered delays.
///
/// Jitter is deterministic per `(salt, attempt)` pair — derived by
/// hashing, not from a clock — so two clients hammering the same
/// server from the same binary still spread out (different salts),
/// while a given client's schedule is reproducible in tests.
#[derive(Debug, Clone)]
pub(crate) struct RetryPolicy {
    max_attempts: u32,
    base_delay: Duration,
    max_delay: Duration,
    /// Relative jitter amplitude in `[0, 1]`: each delay is scaled by
    /// a factor drawn from `[1 − jitter, 1 + jitter]`.
    jitter: f64,
}

impl RetryPolicy {
    /// The schedule of every remote client: 5 attempts, delays from
    /// 20 ms doubling up to 2 s, ±25 % jitter.
    pub(crate) const DEFAULT: RetryPolicy = RetryPolicy {
        max_attempts: 5,
        base_delay: Duration::from_millis(20),
        max_delay: Duration::from_secs(2),
        jitter: 0.25,
    };

    /// The backoff before retry number `attempt` (1-based: the delay
    /// after the first failure is `delay_for(1, _)`), jittered by a
    /// hash of `(salt, attempt)`.
    fn delay_for(&self, attempt: u32, salt: u64) -> Duration {
        let exponent = attempt.saturating_sub(1).min(20);
        let raw = self
            .base_delay
            .saturating_mul(1u32 << exponent)
            .min(self.max_delay);
        if self.jitter == 0.0 || raw.is_zero() {
            return raw;
        }
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        (salt, attempt).hash(&mut hasher);
        // Uniform in [0, 1) from the hash's top 53 bits.
        let unit = (hasher.finish() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let factor = 1.0 + self.jitter * (2.0 * unit - 1.0);
        raw.mul_f64(factor)
    }

    /// Runs `op` until it succeeds, fails non-transiently, or the
    /// attempt budget runs out. `op` receives the 0-based attempt
    /// index; `salt` decorrelates the jitter of concurrent callers.
    ///
    /// # Errors
    ///
    /// The operation's own error when non-transient, or
    /// [`NetError::RetriesExhausted`] wrapping the last transient
    /// error once the budget is spent.
    pub(crate) fn run<T>(
        &self,
        salt: u64,
        mut op: impl FnMut(u32) -> NetResult<T>,
    ) -> NetResult<T> {
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Ok(value) => return Ok(value),
                Err(err) if err.is_transient() && attempt + 1 < self.max_attempts => {
                    attempt += 1;
                    std::thread::sleep(self.delay_for(attempt, salt));
                }
                Err(err) if err.is_transient() => {
                    return Err(NetError::RetriesExhausted {
                        attempts: attempt + 1,
                        last: Box::new(err),
                    });
                }
                Err(err) => return Err(err),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(
        max_attempts: u32,
        base_delay: Duration,
        max_delay: Duration,
        jitter: f64,
    ) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_delay,
            max_delay,
            jitter,
        }
    }

    #[test]
    fn delays_grow_and_cap() {
        let policy = policy(
            8,
            Duration::from_millis(10),
            Duration::from_millis(100),
            0.0,
        );
        assert_eq!(policy.delay_for(1, 0), Duration::from_millis(10));
        assert_eq!(policy.delay_for(2, 0), Duration::from_millis(20));
        assert_eq!(policy.delay_for(3, 0), Duration::from_millis(40));
        assert_eq!(policy.delay_for(6, 0), Duration::from_millis(100), "capped");
    }

    #[test]
    fn jitter_stays_within_amplitude_and_varies_by_salt() {
        let policy = policy(4, Duration::from_millis(100), Duration::from_secs(1), 0.5);
        let base = Duration::from_millis(100);
        let mut distinct = std::collections::HashSet::new();
        for salt in 0..16u64 {
            let d = policy.delay_for(1, salt);
            assert!(d >= base.mul_f64(0.5) && d <= base.mul_f64(1.5), "{d:?}");
            distinct.insert(d.as_nanos());
        }
        assert!(distinct.len() > 1, "salts decorrelate");
    }

    #[test]
    fn run_retries_transient_until_success() {
        let policy = policy(5, Duration::ZERO, Duration::ZERO, 0.25);
        let mut calls = 0;
        let result = policy.run(0, |_| {
            calls += 1;
            if calls < 3 {
                Err(NetError::Disconnected)
            } else {
                Ok(42)
            }
        });
        assert_eq!(result.unwrap(), 42);
        assert_eq!(calls, 3);
    }

    #[test]
    fn run_stops_on_permanent_errors() {
        let policy = policy(5, Duration::ZERO, Duration::ZERO, 0.25);
        let mut calls = 0;
        let result: NetResult<()> = policy.run(0, |_| {
            calls += 1;
            Err(NetError::Protocol("bad".into()))
        });
        assert!(matches!(result, Err(NetError::Protocol(_))));
        assert_eq!(calls, 1);
    }

    #[test]
    fn run_exhausts_budget() {
        let policy = policy(3, Duration::ZERO, Duration::ZERO, 0.25);
        let result: NetResult<()> = policy.run(0, |_| Err(NetError::Disconnected));
        match result {
            Err(NetError::RetriesExhausted { attempts, last }) => {
                assert_eq!(attempts, 3);
                assert!(matches!(*last, NetError::Disconnected));
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }
}
