//! Retry policies: attempt caps and exponential backoff with seeded,
//! deterministic jitter.

use crate::mix;

/// When and how long to back off between fetch attempts.
///
/// All delays are pure functions of `(seed, host, attempt)`: two runs
/// with the same policy produce the same schedule host-by-host, no
/// matter how crawler workers interleave. Jitter is therefore *seeded*
/// rather than random — it still decorrelates hosts from each other
/// (which is what jitter is for) without sacrificing reproducibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per fetch, including the first (≥ 1).
    pub max_attempts: u32,
    /// Delay before the first retry, in nanoseconds.
    pub base_delay_ns: u64,
    /// Ceiling on any single delay, in nanoseconds.
    pub max_delay_ns: u64,
    /// Jitter amplitude in permille of the computed delay (0 = none,
    /// 500 = ±50%).
    pub jitter_permille: u32,
    /// Seed mixed into every jitter decision.
    pub seed: u64,
}

impl RetryPolicy {
    /// Single attempt, no retries — the historical crawler behavior.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_delay_ns: 0,
            max_delay_ns: 0,
            jitter_permille: 0,
            seed: 0,
        }
    }

    /// A sensible default schedule with `retries` extra attempts:
    /// 250 ms base delay doubling up to 8 s, ±20% jitter.
    pub fn standard(retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: retries.saturating_add(1).max(1),
            base_delay_ns: 250_000_000,
            max_delay_ns: 8_000_000_000,
            jitter_permille: 200,
            seed: 0x5EED_0BAC_C0FF,
        }
    }

    /// Returns the policy with `seed` mixed into jitter decisions.
    pub fn with_seed(mut self, seed: u64) -> RetryPolicy {
        self.seed = seed;
        self
    }

    /// Extra attempts after the first.
    pub fn retries(&self) -> u32 {
        self.max_attempts.saturating_sub(1)
    }

    /// Whether another attempt is allowed after `attempts_made` attempts.
    pub fn allows_retry(&self, attempts_made: u32) -> bool {
        attempts_made < self.max_attempts.max(1)
    }

    /// The backoff delay after `failed_attempt` (0-based: the delay
    /// between the first attempt and the second) against `host`.
    ///
    /// Exponential in the attempt index, capped at
    /// [`max_delay_ns`](RetryPolicy::max_delay_ns), then jittered by up
    /// to ±`jitter_permille`‰ using the seeded hash — deterministic for
    /// a given `(seed, host, attempt)`.
    pub fn backoff_ns(&self, host: &str, failed_attempt: u32) -> u64 {
        if self.base_delay_ns == 0 {
            return 0;
        }
        let exp = failed_attempt.min(20);
        let uncapped = self.base_delay_ns.saturating_mul(1u64 << exp);
        let capped = uncapped.min(self.max_delay_ns.max(self.base_delay_ns));
        if self.jitter_permille == 0 {
            return capped;
        }
        let amplitude = ((capped as u128 * self.jitter_permille as u128) / 1000) as u64;
        if amplitude == 0 {
            return capped;
        }
        let h = mix(self.seed ^ ((failed_attempt as u64) << 32), host);
        let offset = h % (2 * amplitude + 1);
        capped - amplitude + offset
    }

    /// Full-jitter variant of [`RetryPolicy::backoff_ns`]: the delay is
    /// drawn uniformly from `[0, capped]`, where `capped` is the same
    /// exponentially-grown, capped delay the plain schedule computes.
    ///
    /// Where `backoff_ns` clusters delays around the exponential curve
    /// (±`jitter_permille`‰), full jitter spreads simultaneous restarts
    /// across the *whole* window — the right shape for supervisor restart
    /// storms, where many instances fail at the same instant and anything
    /// correlated re-thunders the herd. Like the plain schedule it is a
    /// pure function of `(seed, host, attempt)`, so restart schedules
    /// replay identically under the virtual clock; `jitter_permille` is
    /// ignored.
    pub fn full_jitter_backoff_ns(&self, host: &str, failed_attempt: u32) -> u64 {
        if self.base_delay_ns == 0 {
            return 0;
        }
        let exp = failed_attempt.min(20);
        let uncapped = self.base_delay_ns.saturating_mul(1u64 << exp);
        let capped = uncapped.min(self.max_delay_ns.max(self.base_delay_ns));
        // Salted so the full-jitter draw never mirrors the ± schedule's.
        let h = mix(
            self.seed ^ 0x46_4A49_5454 ^ ((failed_attempt as u64) << 32),
            host,
        );
        h % (capped.saturating_add(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_policy_is_single_attempt() {
        let policy = RetryPolicy::none();
        assert_eq!(policy.max_attempts, 1);
        assert_eq!(policy.retries(), 0);
        assert!(policy.allows_retry(0));
        assert!(!policy.allows_retry(1));
        assert_eq!(policy.backoff_ns("a.example", 0), 0);
    }

    #[test]
    fn standard_counts_attempts_from_retries() {
        assert_eq!(RetryPolicy::standard(0).max_attempts, 1);
        assert_eq!(RetryPolicy::standard(3).max_attempts, 4);
        assert_eq!(RetryPolicy::standard(3).retries(), 3);
    }

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        let policy = RetryPolicy {
            jitter_permille: 0,
            ..RetryPolicy::standard(10)
        };
        let d: Vec<u64> = (0..8).map(|a| policy.backoff_ns("h.example", a)).collect();
        assert_eq!(d[0], 250_000_000);
        assert_eq!(d[1], 500_000_000);
        assert_eq!(d[2], 1_000_000_000);
        assert_eq!(d[5], 8_000_000_000, "hits the cap");
        assert_eq!(d[7], 8_000_000_000, "stays at the cap");
    }

    #[test]
    fn huge_attempt_indices_do_not_overflow() {
        let policy = RetryPolicy::standard(u32::MAX);
        assert_eq!(policy.max_attempts, u32::MAX);
        let d = policy.backoff_ns("h.example", u32::MAX - 1);
        assert!(d <= policy.max_delay_ns + policy.max_delay_ns / 5);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let policy = RetryPolicy::standard(5).with_seed(99);
        for attempt in 0..5 {
            for host in ["a.example", "b.example", "c.example"] {
                let base = RetryPolicy {
                    jitter_permille: 0,
                    ..policy
                }
                .backoff_ns(host, attempt);
                let jittered = policy.backoff_ns(host, attempt);
                let amplitude = base / 5; // 200 permille
                assert!(
                    (base - amplitude..=base + amplitude).contains(&jittered),
                    "attempt {attempt} host {host}: {jittered} outside {base}±{amplitude}"
                );
                assert_eq!(jittered, policy.backoff_ns(host, attempt), "deterministic");
            }
        }
    }

    #[test]
    fn jitter_decorrelates_hosts() {
        let policy = RetryPolicy::standard(3).with_seed(7);
        let delays: std::collections::HashSet<u64> = (0..100)
            .map(|i| policy.backoff_ns(&format!("host{i}.example"), 0))
            .collect();
        assert!(delays.len() > 50, "distinct delays: {}", delays.len());
    }

    #[test]
    fn different_seeds_move_the_jitter() {
        let a = RetryPolicy::standard(3).with_seed(1);
        let b = RetryPolicy::standard(3).with_seed(2);
        let differs =
            (0..50).any(|i| a.backoff_ns(&format!("h{i}"), 1) != b.backoff_ns(&format!("h{i}"), 1));
        assert!(differs);
    }

    #[test]
    fn full_jitter_is_bounded_by_the_capped_delay() {
        let policy = RetryPolicy::standard(10).with_seed(42);
        for attempt in 0..8 {
            let capped = RetryPolicy {
                jitter_permille: 0,
                ..policy
            }
            .backoff_ns("h.example", attempt);
            for host in ["a.example", "b.example", "c.example", "d.example"] {
                let d = policy.full_jitter_backoff_ns(host, attempt);
                assert!(d <= capped, "attempt {attempt} host {host}: {d} > {capped}");
            }
        }
    }

    #[test]
    fn full_jitter_is_deterministic_under_a_fixed_seed() {
        let policy = RetryPolicy::standard(5).with_seed(0xC0FFEE);
        let first: Vec<u64> = (0..6)
            .map(|a| policy.full_jitter_backoff_ns("watch.supervisor", a))
            .collect();
        let second: Vec<u64> = (0..6)
            .map(|a| policy.full_jitter_backoff_ns("watch.supervisor", a))
            .collect();
        assert_eq!(first, second);
    }

    #[test]
    fn full_jitter_fills_the_whole_window() {
        // Uniform-in-[0, capped] means samples land both well below half
        // the window and well above it — the ± schedule never goes below
        // capped·(1-jitter). 200 hosts give a dense enough sample.
        let policy = RetryPolicy::standard(5).with_seed(9);
        let capped = RetryPolicy {
            jitter_permille: 0,
            ..policy
        }
        .backoff_ns("x", 3);
        let samples: Vec<u64> = (0..200)
            .map(|i| policy.full_jitter_backoff_ns(&format!("host{i}.example"), 3))
            .collect();
        assert!(samples.iter().any(|&d| d < capped / 4), "low tail present");
        assert!(
            samples.iter().any(|&d| d > 3 * capped / 4),
            "high tail present"
        );
        let distinct: std::collections::HashSet<u64> = samples.iter().copied().collect();
        assert!(distinct.len() > 150, "distinct: {}", distinct.len());
    }

    #[test]
    fn full_jitter_moves_with_the_seed_and_not_the_permille() {
        let a = RetryPolicy::standard(3).with_seed(1);
        let b = RetryPolicy::standard(3).with_seed(2);
        assert!((0..50).any(|i| {
            a.full_jitter_backoff_ns(&format!("h{i}"), 1)
                != b.full_jitter_backoff_ns(&format!("h{i}"), 1)
        }));
        let no_jitter = RetryPolicy {
            jitter_permille: 0,
            ..a
        };
        for attempt in 0..4 {
            assert_eq!(
                a.full_jitter_backoff_ns("h.example", attempt),
                no_jitter.full_jitter_backoff_ns("h.example", attempt),
                "jitter_permille must not feed the full-jitter draw"
            );
        }
    }

    #[test]
    fn full_jitter_zero_base_is_immediate() {
        assert_eq!(RetryPolicy::none().full_jitter_backoff_ns("h", 0), 0);
    }

    #[test]
    fn allows_retry_respects_the_cap() {
        let policy = RetryPolicy::standard(2);
        assert!(policy.allows_retry(0));
        assert!(policy.allows_retry(2));
        assert!(!policy.allows_retry(3));
    }
}
