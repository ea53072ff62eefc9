//! Per-host circuit breakers: closed → open → half-open.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures (across rounds) before the breaker opens.
    pub failure_threshold: u32,
    /// Rounds an open breaker stays open before probing (half-open).
    pub cooldown_rounds: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_rounds: 2,
        }
    }
}

/// The breaker's position in the classic state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerState {
    /// Requests flow; failures are being counted.
    Closed,
    /// Requests are skipped until the cooldown elapses.
    Open,
    /// Cooldown over: the next request is a probe.
    HalfOpen,
}

/// One host's breaker.
///
/// Time is counted in *rounds* (crawl weeks), not wall clock: the
/// collector calls `tick` once per round, which
/// makes every transition a pure function of the host's own outcome
/// sequence — reproducible regardless of scheduling, and replayable from
/// a checkpointed store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    cooldown_left: u32,
}

impl CircuitBreaker {
    /// A closed breaker with no recorded failures.
    pub(crate) fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            cooldown_left: 0,
        }
    }

    /// Whether a request may proceed right now.
    pub(crate) fn allow(&self) -> bool {
        !matches!(self.state, BreakerState::Open)
    }

    /// Records a successful exchange: the breaker closes and the failure
    /// streak resets.
    pub(crate) fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.cooldown_left = 0;
    }

    /// Records a failed exchange. In `Closed`, the streak grows and the
    /// breaker opens at the threshold; in `HalfOpen`, the probe failed
    /// and the breaker re-opens for a full cooldown.
    pub(crate) fn record_failure(&mut self) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold.max(1) {
                    self.trip();
                }
            }
            BreakerState::HalfOpen => self.trip(),
            BreakerState::Open => {}
        }
    }

    /// Advances one round: an open breaker counts down toward half-open.
    pub(crate) fn tick(&mut self) {
        if self.state == BreakerState::Open {
            self.cooldown_left = self.cooldown_left.saturating_sub(1);
            if self.cooldown_left == 0 {
                self.state = BreakerState::HalfOpen;
            }
        }
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open;
        self.cooldown_left = self.config.cooldown_rounds.max(1);
    }
}

/// Number of independent shards the host map is split across. A fixed
/// power of two keeps the `host → shard` mapping a pure function of the
/// host name alone, so shard membership never depends on map size.
const BREAKER_SHARDS: usize = 16;

/// A lazily populated map of per-host breakers, shared by the crawler's
/// worker threads.
///
/// The map is split into 16 (`BREAKER_SHARDS`) independently locked shards
/// keyed by a hash of the host name, so parallel workers fetching
/// different hosts almost never contend on the same mutex. Each host's
/// entry is still only ever touched by the worker fetching that host
/// (the crawler hands every domain to exactly one worker per round), and
/// shard membership is a pure function of the host name — sharding
/// changes lock granularity, never any outcome.
#[derive(Debug)]
pub struct HostBreakers {
    config: BreakerConfig,
    shards: Vec<Mutex<BTreeMap<String, CircuitBreaker>>>,
}

/// The shard `host`'s breaker lives in.
fn shard_index(host: &str) -> usize {
    (crate::fault::mix(0xb4ea_4e85, host) % BREAKER_SHARDS as u64) as usize
}

impl HostBreakers {
    /// An empty registry handing out breakers configured with `config`.
    pub fn new(config: BreakerConfig) -> HostBreakers {
        HostBreakers {
            config,
            shards: (0..BREAKER_SHARDS)
                .map(|_| Mutex::new(BTreeMap::new()))
                .collect(),
        }
    }

    fn shard(&self, host: &str) -> &Mutex<BTreeMap<String, CircuitBreaker>> {
        &self.shards[shard_index(host)]
    }

    /// Whether `host` may be fetched right now. Hosts with no history
    /// are allowed (their breaker starts closed).
    pub fn allow(&self, host: &str) -> bool {
        self.shard(host)
            .lock()
            .expect("breaker shard lock")
            .get(host)
            .map(CircuitBreaker::allow)
            .unwrap_or(true)
    }

    /// Records the outcome of a completed fetch against `host`.
    pub fn record(&self, host: &str, success: bool) {
        let mut hosts = self.shard(host).lock().expect("breaker shard lock");
        let breaker = hosts
            .entry(host.to_string())
            .or_insert_with(|| CircuitBreaker::new(self.config));
        if success {
            breaker.record_success();
        } else {
            breaker.record_failure();
        }
    }

    /// Ends a crawl round: every breaker ticks once.
    pub fn tick_round(&self) {
        for shard in &self.shards {
            for breaker in shard.lock().expect("breaker shard lock").values_mut() {
                breaker.tick();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CircuitBreaker {
        /// Current state.
        fn state(&self) -> BreakerState {
            self.state
        }
    }

    impl HostBreakers {
        /// The state of `host`'s breaker (closed when never recorded).
        fn state(&self, host: &str) -> BreakerState {
            self.shard(host)
                .lock()
                .expect("breaker shard lock")
                .get(host)
                .map(CircuitBreaker::state)
                .unwrap_or(BreakerState::Closed)
        }

        /// Number of breakers currently open.
        fn open_count(&self) -> usize {
            self.shards
                .iter()
                .map(|shard| {
                    shard
                        .lock()
                        .expect("breaker shard lock")
                        .values()
                        .filter(|b| b.state() == BreakerState::Open)
                        .count()
                })
                .sum()
        }
    }

    fn config(threshold: u32, cooldown: u32) -> BreakerConfig {
        BreakerConfig {
            failure_threshold: threshold,
            cooldown_rounds: cooldown,
        }
    }

    #[test]
    fn opens_at_the_failure_threshold() {
        let mut b = CircuitBreaker::new(config(3, 2));
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow());
    }

    #[test]
    fn success_resets_the_streak() {
        let mut b = CircuitBreaker::new(config(3, 2));
        b.record_failure();
        b.record_failure();
        b.record_success();
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "streak restarted");
    }

    #[test]
    fn cooldown_leads_to_half_open_then_probe_decides() {
        let mut b = CircuitBreaker::new(config(1, 2));
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        b.tick();
        assert_eq!(b.state(), BreakerState::Open, "one round left");
        b.tick();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.allow(), "half-open admits a probe");

        // Failed probe: back to open for a full cooldown.
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        b.tick();
        b.tick();
        assert_eq!(b.state(), BreakerState::HalfOpen);

        // Successful probe: closed again.
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
    }

    #[test]
    fn zero_threshold_still_works() {
        let mut b = CircuitBreaker::new(config(0, 0));
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open, "threshold clamps to 1");
        b.tick();
        assert_eq!(b.state(), BreakerState::HalfOpen, "cooldown clamps to 1");
    }

    #[test]
    fn host_breakers_track_hosts_independently() {
        let breakers = HostBreakers::new(config(2, 1));
        for _ in 0..2 {
            breakers.record("bad.example", false);
        }
        breakers.record("good.example", true);
        assert!(!breakers.allow("bad.example"));
        assert!(breakers.allow("good.example"));
        assert!(breakers.allow("unknown.example"));
        assert_eq!(breakers.state("bad.example"), BreakerState::Open);
        assert_eq!(breakers.state("unknown.example"), BreakerState::Closed);
        assert_eq!(breakers.open_count(), 1);

        breakers.tick_round();
        assert_eq!(breakers.state("bad.example"), BreakerState::HalfOpen);
        assert_eq!(breakers.open_count(), 0);
        breakers.record("bad.example", true);
        assert_eq!(breakers.state("bad.example"), BreakerState::Closed);
    }

    #[test]
    fn sharding_keeps_every_host_visible() {
        // Many hosts, enough to land in every shard: the sharded map
        // must behave exactly like one big map.
        let breakers = HostBreakers::new(config(1, 1));
        let hosts: Vec<String> = (0..200).map(|i| format!("h{i:03}.example")).collect();
        for (i, host) in hosts.iter().enumerate() {
            breakers.record(host, i % 2 == 0);
        }
        let open = hosts.iter().filter(|h| !breakers.allow(h)).count();
        assert_eq!(open, 100, "every odd-indexed host tripped its breaker");
        assert_eq!(breakers.open_count(), 100);
        breakers.tick_round();
        assert_eq!(breakers.open_count(), 0, "tick_round reaches all shards");
        for host in &hosts {
            assert!(breakers.allow(host), "{host} admits a half-open probe");
        }
    }

    #[test]
    fn concurrent_disjoint_hosts_never_interfere() {
        use std::sync::Arc;
        let breakers = Arc::new(HostBreakers::new(config(2, 1)));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let breakers = Arc::clone(&breakers);
                scope.spawn(move || {
                    for i in 0..50 {
                        let host = format!("t{t}-h{i}.example");
                        breakers.record(&host, false);
                        breakers.record(&host, false);
                        assert_eq!(breakers.state(&host), BreakerState::Open);
                    }
                });
            }
        });
        assert_eq!(breakers.open_count(), 200);
    }

    #[test]
    fn half_open_probes_race_through_the_sharded_map() {
        use std::sync::Arc;
        // 160 hosts (~10 per shard) all tripped open and cooled to
        // half-open, then probed from 8 racing threads: even-indexed
        // hosts' probes succeed, odd-indexed fail. The outcome must be
        // exactly what a sequential replay would give.
        let breakers = Arc::new(HostBreakers::new(config(1, 2)));
        let hosts: Vec<String> = (0..160).map(|i| format!("ho{i:03}.example")).collect();
        for host in &hosts {
            breakers.record(host, false);
        }
        assert_eq!(breakers.open_count(), 160);
        breakers.tick_round();
        breakers.tick_round();
        for host in &hosts {
            assert_eq!(breakers.state(host), BreakerState::HalfOpen);
        }

        std::thread::scope(|scope| {
            for (chunk_index, chunk) in hosts.chunks(20).enumerate() {
                let breakers = Arc::clone(&breakers);
                scope.spawn(move || {
                    for (offset, host) in chunk.iter().enumerate() {
                        assert!(breakers.allow(host), "half-open admits the probe");
                        breakers.record(host, (chunk_index * 20 + offset) % 2 == 0);
                    }
                });
            }
        });

        for (i, host) in hosts.iter().enumerate() {
            let expected = if i % 2 == 0 {
                BreakerState::Closed
            } else {
                BreakerState::Open
            };
            assert_eq!(breakers.state(host), expected, "{host}");
        }
        assert_eq!(breakers.open_count(), 80);
        // A failed probe re-opens for the full cooldown: two more rounds
        // bring every failed host back to half-open.
        breakers.tick_round();
        assert_eq!(breakers.open_count(), 80, "one cooldown round left");
        breakers.tick_round();
        for (i, host) in hosts.iter().enumerate() {
            if i % 2 != 0 {
                assert_eq!(breakers.state(host), BreakerState::HalfOpen, "{host}");
            }
        }
    }

    #[test]
    fn same_shard_hosts_transition_independently_under_contention() {
        use std::sync::Arc;
        // Hosts chosen to collide in shard 0, so every thread contends on
        // a single shard mutex — which may change timing, never outcomes.
        let colliding: Vec<String> = (0u32..)
            .map(|i| format!("collide-{i}.example"))
            .filter(|h| shard_index(h) == 0)
            .take(8)
            .collect();
        assert_eq!(colliding.len(), 8);
        let breakers = Arc::new(HostBreakers::new(config(2, 1)));

        // Phase 1 (racing): trip every colliding host open. Extra
        // failures on an open breaker are no-ops, so iteration count is
        // irrelevant to the outcome.
        std::thread::scope(|scope| {
            for host in &colliding {
                let breakers = Arc::clone(&breakers);
                scope.spawn(move || {
                    for _ in 0..50 {
                        breakers.record(host, false);
                        breakers.record(host, false);
                    }
                });
            }
        });
        assert_eq!(breakers.open_count(), colliding.len());
        breakers.tick_round();
        for host in &colliding {
            assert_eq!(breakers.state(host), BreakerState::HalfOpen);
        }

        // Phase 2 (racing): every thread probes its own host; the first
        // four succeed, the rest fail their probe.
        std::thread::scope(|scope| {
            for (i, host) in colliding.iter().enumerate() {
                let breakers = Arc::clone(&breakers);
                scope.spawn(move || {
                    assert!(breakers.allow(host));
                    breakers.record(host, i < 4);
                });
            }
        });
        for (i, host) in colliding.iter().enumerate() {
            let expected = if i < 4 {
                BreakerState::Closed
            } else {
                BreakerState::Open
            };
            assert_eq!(breakers.state(host), expected, "{host}");
        }
        assert_eq!(breakers.open_count(), 4);
    }

    #[test]
    fn replaying_an_outcome_sequence_reproduces_the_state() {
        // The property the checkpoint/resume path depends on: breaker
        // state is a pure function of the per-host outcome sequence.
        let outcomes = [false, false, true, false, false, false, true];
        let run = || {
            let breakers = HostBreakers::new(BreakerConfig::default());
            for &ok in &outcomes {
                if breakers.allow("h.example") {
                    breakers.record("h.example", ok);
                }
                breakers.tick_round();
            }
            breakers.state("h.example")
        };
        assert_eq!(run(), run());
    }
}
