//! # webvuln-resilience
//!
//! The fault-tolerance substrate of the `webvuln` crawler: retry policies
//! with deterministic backoff, per-host circuit breakers, and a virtual
//! clock so backoff happens in *simulated* time.
//!
//! The paper's 201-week crawl (§4.1) survived four years of flaky
//! servers, transient refusals, and anti-bot blocks. A crawler that makes
//! exactly one attempt per domain silently converts every transient
//! hiccup into a permanently missing datapoint and biases every
//! longitudinal statistic downstream. This crate provides the pieces the
//! networking layer composes into a resilient fetch path:
//!
//! * [`RetryPolicy`] — attempt caps and exponential backoff with
//!   *seeded, deterministic* jitter: the delay before retry `n` against
//!   host `h` is a pure function of `(seed, h, n)`, so a crawl schedule
//!   never depends on thread interleaving.
//! * [`VirtualClock`] — an atomic nanosecond accumulator standing in for
//!   wall-clock sleeping. Backoff *advances* the clock instead of
//!   blocking, which keeps tests instant and makes a million-domain
//!   retry storm free.
//! * [`CircuitBreaker`] / [`HostBreakers`] — the classic
//!   closed → open → half-open state machine, per host, ticked once per
//!   crawl round, so hosts that fail week after week stop consuming
//!   retry attempts entirely.
//!
//! Like `webvuln-telemetry` and `webvuln-store`, the crate is
//! dependency-free (std only).
//!
//! ```
//! use webvuln_resilience::{RetryPolicy, VirtualClock};
//!
//! let policy = RetryPolicy {
//!     seed: 42,
//!     ..RetryPolicy::standard(3)
//! };
//! let clock = VirtualClock::new();
//! for attempt in 0..policy.retries() {
//!     clock.advance(policy.backoff_ns("flaky.example", attempt));
//! }
//! // Delays grew exponentially, in simulated time only.
//! assert!(clock.now_ns() > 0);
//! assert_eq!(clock.now_ns(), {
//!     let again = VirtualClock::new();
//!     for attempt in 0..policy.retries() {
//!         again.advance(policy.backoff_ns("flaky.example", attempt));
//!     }
//!     again.now_ns()
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breaker;
mod clock;
mod retry;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, HostBreakers};
pub use clock::VirtualClock;
pub use retry::RetryPolicy;

/// SplitMix64-style hash of `(seed, text)` — the crate's only source of
/// "randomness". Identical to the mixer used by `webvuln-net`'s fault
/// injector, duplicated here so the crate stays dependency-free.
pub(crate) fn mix(seed: u64, text: &str) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for &b in text.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
    }
    h ^= h >> 31;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 29)
}
