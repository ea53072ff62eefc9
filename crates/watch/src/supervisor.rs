//! The supervisor: keeps a [`Watcher`] ticking through failures.
//!
//! A failed or panicked open or tick drops the watcher entirely and
//! reopens it from disk at once — the whole point of the crash-journaled
//! design is that a reopen *is* the recovery path, so the supervisor gets
//! to treat every fault identically. It forgives `restarts` consecutive
//! failures and gives up on the next one.

use crate::error::WatchError;
use crate::watcher::{TickReport, WatchConfig, Watcher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;
use webvuln_telemetry::Telemetry;

/// How the supervisor paces and gives up.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Consecutive failures answered with a reopen; the next one gives
    /// up. Any successful tick resets the count.
    pub(crate) restarts: u32,
    /// Real pause between ticks (zero for tests; a daemon wants a poll
    /// interval).
    pub(crate) tick_pause: Duration,
    /// Stop after this many successful ticks.
    pub(crate) max_ticks: usize,
}

impl SupervisorConfig {
    /// A supervisor that runs `max_ticks` ticks back-to-back and gives up
    /// on the fifth consecutive failure (4 restarts).
    pub fn bounded(max_ticks: usize) -> SupervisorConfig {
        SupervisorConfig {
            restarts: 4,
            tick_pause: Duration::ZERO,
            max_ticks,
        }
    }

    /// Returns the config with a budget of `restarts` consecutive
    /// failures before the supervisor gives up.
    pub fn restarts(mut self, restarts: u32) -> SupervisorConfig {
        self.restarts = restarts;
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
    /// True when consecutive failures exhausted the restart budget.
    pub gave_up: bool,
    /// The most recent failure, if any.
    pub last_error: Option<String>,
    /// Sum of every successful tick's report.
    pub totals: TickReport,
}

/// Runs a watcher under supervision until `max_ticks` successful ticks
/// complete or the restart budget is exhausted.
///
/// Faults — a `Result::Err` from open or tick, or a panic injected
/// through a fail-point — are caught, counted as a restart and answered
/// by reopening the watcher from disk.
pub fn supervise(
    watch_cfg: &WatchConfig,
    cfg: SupervisorConfig,
    telemetry: &Telemetry,
) -> SupervisorReport {
    let restarts_total = telemetry.registry().counter("watch.restarts_total");
    let mut report = SupervisorReport::default();
    let mut consecutive_failures = 0u32;
    while report.ticks < cfg.max_ticks {
        let opened = run_guarded(AssertUnwindSafe(|| {
            Watcher::open(watch_cfg.clone(), telemetry)
        }));
        let detail = match opened {
            Ok(mut watcher) => loop {
                if report.ticks == cfg.max_ticks {
                    return report;
                }
                match run_guarded(AssertUnwindSafe(|| watcher.tick())) {
                    Ok(tick) => {
                        consecutive_failures = 0;
                        report.ticks += 1;
                        report.totals += tick;
                        std::thread::sleep(cfg.tick_pause);
                    }
                    // Drop the faulted watcher; the reopen is the
                    // recovery path.
                    Err(detail) => break detail,
                }
            },
            Err(detail) => detail,
        };
        report.last_error = Some(detail);
        if consecutive_failures == cfg.restarts {
            report.gave_up = true;
            break;
        }
        consecutive_failures += 1;
        report.restarts += 1;
        restarts_total.inc();
    }
    report
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
