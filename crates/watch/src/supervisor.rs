//! The supervisor: keeps a [`Watcher`] ticking through failures.
//!
//! A failed or panicked tick drops the watcher entirely and reopens it
//! from disk — the whole point of the crash-journaled design is that a
//! reopen *is* the recovery path, so the supervisor gets to treat every
//! fault identically. Restarts back off with the seeded full-jitter
//! schedule, recorded on a [`VirtualClock`] (the supervisor never
//! sleeps simulated time for real, so a hostile run costs the same
//! wall-clock as a clean one). A real-time watchdog thread flags ticks
//! that exceed the stall budget.

use crate::error::WatchError;
use crate::watcher::{TickReport, WatchConfig, Watcher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use webvuln_resilience::{RetryPolicy, VirtualClock};
use webvuln_telemetry::Telemetry;

/// The retry identity the supervisor backs off under.
const SUPERVISOR_HOST: &str = "watch.supervisor";

/// How the supervisor paces and gives up.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Restart budget and backoff schedule. `max_attempts` bounds
    /// *consecutive* failures — any successful tick resets the count.
    pub policy: RetryPolicy,
    /// Real-time budget for a single tick before the watchdog flags a
    /// stall. Zero disables the watchdog.
    pub stall_limit: Duration,
    /// Real pause between ticks (zero for tests; a daemon wants a poll
    /// interval).
    pub tick_pause: Duration,
    /// Stop after this many successful ticks.
    pub max_ticks: usize,
}

impl SupervisorConfig {
    /// A supervisor that runs `max_ticks` ticks back-to-back with the
    /// standard restart budget (5 consecutive failures) and no watchdog.
    pub fn bounded(max_ticks: usize) -> SupervisorConfig {
        SupervisorConfig {
            policy: RetryPolicy::standard(4),
            stall_limit: Duration::ZERO,
            tick_pause: Duration::ZERO,
            max_ticks,
        }
    }

    /// Returns the config with `policy`.
    pub fn policy(mut self, policy: RetryPolicy) -> SupervisorConfig {
        self.policy = policy;
        self
    }

    /// Returns the config with a stall watchdog budget.
    pub fn stall_limit(mut self, limit: Duration) -> SupervisorConfig {
        self.stall_limit = limit;
        self
    }

    /// Returns the config with a pause between ticks.
    pub fn tick_pause(mut self, pause: Duration) -> SupervisorConfig {
        self.tick_pause = pause;
        self
    }
}

/// What a supervised run did.
#[derive(Debug, Clone, Default)]
pub struct SupervisorReport {
    /// Successful ticks completed.
    pub ticks: usize,
    /// Watcher reopens forced by a failed or panicked open/tick.
    pub restarts: usize,
    /// Ticks the watchdog flagged as exceeding the stall budget.
    pub stalls: u64,
    /// True when consecutive failures exhausted the restart budget.
    pub gave_up: bool,
    /// Total simulated backoff recorded on the virtual clock.
    pub backoff_ns: u64,
    /// The most recent failure, if any.
    pub last_error: Option<String>,
    /// Sum of every successful tick's report.
    pub totals: TickReport,
}

/// Shared state between the tick loop and the watchdog thread.
struct Heartbeat {
    /// Nanoseconds (since `base`) when the in-flight tick started, or 0
    /// when idle.
    busy_since_ns: AtomicU64,
    /// Whether the in-flight tick was already counted as stalled.
    flagged: AtomicBool,
    stalls: AtomicU64,
    stop: AtomicBool,
}

/// Runs a watcher under supervision until `max_ticks` successful ticks
/// complete or the restart budget is exhausted.
///
/// Faults — a `Result::Err` from open or tick, or a panic injected
/// through a fail-point — are caught, counted as a restart, backed off
/// with [`RetryPolicy::full_jitter_backoff_ns`] on the virtual clock,
/// and answered by reopening the watcher from disk.
pub fn supervise(
    watch_cfg: &WatchConfig,
    cfg: SupervisorConfig,
    telemetry: &Telemetry,
) -> SupervisorReport {
    let clock = VirtualClock::new();
    let registry = telemetry.registry();
    let mut report = SupervisorReport::default();
    let mut consecutive_failures: u32 = 0;

    let heartbeat = Arc::new(Heartbeat {
        busy_since_ns: AtomicU64::new(0),
        flagged: AtomicBool::new(false),
        stalls: AtomicU64::new(0),
        stop: AtomicBool::new(false),
    });
    let base = Instant::now();
    let watchdog = if cfg.stall_limit > Duration::ZERO {
        let shared = Arc::clone(&heartbeat);
        let limit = cfg.stall_limit;
        let poll = (limit / 4).max(Duration::from_millis(1));
        Some(std::thread::spawn(move || {
            while !shared.stop.load(Ordering::Relaxed) {
                std::thread::sleep(poll);
                let since = shared.busy_since_ns.load(Ordering::Relaxed);
                if since == 0 {
                    continue;
                }
                let elapsed = Instant::now().duration_since(base).as_nanos() as u64;
                let over = elapsed.saturating_sub(since) > limit.as_nanos() as u64;
                if over && !shared.flagged.swap(true, Ordering::Relaxed) {
                    shared.stalls.fetch_add(1, Ordering::Relaxed);
                }
            }
        }))
    } else {
        None
    };

    'supervise: while report.ticks < cfg.max_ticks {
        let opened = run_guarded(AssertUnwindSafe(|| {
            Watcher::open(watch_cfg.clone(), telemetry)
        }));
        let mut watcher = match opened {
            Ok(watcher) => watcher,
            Err(detail) => {
                if fail(&mut report, &mut consecutive_failures, detail, &cfg, &clock) {
                    break 'supervise;
                }
                registry.counter("watch.restarts_total").inc();
                continue 'supervise;
            }
        };
        while report.ticks < cfg.max_ticks {
            let start = Instant::now().duration_since(base).as_nanos() as u64;
            heartbeat.flagged.store(false, Ordering::Relaxed);
            heartbeat
                .busy_since_ns
                .store(start.max(1), Ordering::Relaxed);
            let ticked = run_guarded(AssertUnwindSafe(|| watcher.tick()));
            heartbeat.busy_since_ns.store(0, Ordering::Relaxed);
            match ticked {
                Ok(tick) => {
                    consecutive_failures = 0;
                    report.ticks += 1;
                    report.totals += tick;
                    if !cfg.tick_pause.is_zero() {
                        std::thread::sleep(cfg.tick_pause);
                    }
                }
                Err(detail) => {
                    if fail(&mut report, &mut consecutive_failures, detail, &cfg, &clock) {
                        break 'supervise;
                    }
                    registry.counter("watch.restarts_total").inc();
                    // Drop the faulted watcher; the reopen is the
                    // recovery path.
                    continue 'supervise;
                }
            }
        }
        break;
    }

    heartbeat.stop.store(true, Ordering::Relaxed);
    if let Some(handle) = watchdog {
        let _ = handle.join();
    }
    report.stalls = heartbeat.stalls.load(Ordering::Relaxed);
    registry.counter("watch.stalls_total").add(report.stalls);
    report.backoff_ns = clock.now_ns();
    report
}

/// Records a failure; returns true when the restart budget is spent.
fn fail(
    report: &mut SupervisorReport,
    consecutive_failures: &mut u32,
    detail: String,
    cfg: &SupervisorConfig,
    clock: &VirtualClock,
) -> bool {
    *consecutive_failures += 1;
    report.last_error = Some(detail);
    if !cfg.policy.allows_retry(*consecutive_failures) {
        report.gave_up = true;
        return true;
    }
    report.restarts += 1;
    let backoff = cfg
        .policy
        .full_jitter_backoff_ns(SUPERVISOR_HOST, *consecutive_failures - 1);
    clock.advance(backoff);
    false
}

/// Runs `f`, converting both `Err` and panic into an error string.
fn run_guarded<T>(
    f: impl FnOnce() -> Result<T, WatchError> + std::panic::UnwindSafe,
) -> Result<T, String> {
    match catch_unwind(f) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(panic_message(&payload)),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}
