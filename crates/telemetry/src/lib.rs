//! # webvuln-telemetry
//!
//! The observability substrate of the `webvuln` pipeline. The paper's
//! crawl ran for 201 weeks over 157.2M pages; a run of that scale is only
//! debuggable with per-stage accounting — which phase burned the time,
//! which hosts faulted, how many pattern-VM steps each page cost. This
//! crate provides the primitives every other layer records into:
//!
//! * [`Counter`] / [`Gauge`] — single atomic adds, safe to hammer from
//!   every crawler worker thread.
//! * [`Histogram`] — fixed power-of-two buckets with lock-free recording
//!   and p50/p90/p99 estimation; used for per-request latency.
//! * [`Span`] — hierarchical wall-clock timers (`crawl`, `crawl/week`)
//!   that aggregate into per-phase totals on drop.
//! * [`Registry`] — names the metrics and snapshots them. Either inject
//!   one per run (isolated, exact) or use [`Registry::global`] for
//!   ambient instrumentation.
//! * [`Progress`] — an opt-in callback (e.g. [`StderrProgress`]) so a
//!   201-week crawl emits weekly progress lines instead of running dark.
//! * [`Snapshot`] — a point-in-time copy of everything, rendered as a
//!   human-readable table or machine-readable JSON.
//!
//! The crate is dependency-free (std only): the instrumentation layer
//! must never be the thing that breaks the build or perturbs the numbers
//! it measures.
//!
//! ```
//! use webvuln_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::new();
//! let fetches = telemetry.registry().counter("net.crawler.fetches_total");
//! {
//!     let _phase = telemetry.registry().span("crawl");
//!     fetches.add(3);
//! }
//! let snap = telemetry.snapshot();
//! assert_eq!(snap.counter("net.crawler.fetches_total"), Some(3));
//! assert_eq!(snap.span("crawl").unwrap().count, 1);
//! assert!(snap.to_json().contains("\"crawl\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod progress;
mod registry;
mod snapshot;
mod span;

pub use metrics::{Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};
pub use progress::{NullProgress, Progress, ProgressEvent, StderrProgress};
pub use registry::Registry;
pub use snapshot::{fmt_nanos, json_string, HistogramSnapshot, Snapshot, SpanSnapshot};
pub use span::Span;

use std::sync::Arc;

/// A cheap-to-clone handle bundling a metric [`Registry`] with an optional
/// [`Progress`] reporter — the single value the pipeline threads through
/// its stages.
///
/// [`Telemetry::new`] gives every run its own registry, so counters in one
/// study never bleed into another (important for tests and for servers
/// running many studies). [`Telemetry::global`] shares the process-wide
/// registry instead.
#[derive(Clone)]
pub struct Telemetry {
    registry: Arc<Registry>,
    progress: Arc<dyn Progress>,
}

impl Telemetry {
    /// A fresh, isolated registry with no progress reporting.
    pub fn new() -> Telemetry {
        Telemetry {
            registry: Arc::new(Registry::new()),
            progress: Arc::new(NullProgress),
        }
    }

    /// A handle onto the process-wide global registry.
    pub fn global() -> Telemetry {
        Telemetry {
            registry: Registry::global_arc(),
            progress: Arc::new(NullProgress),
        }
    }

    /// Replaces the progress reporter.
    pub fn with_progress(mut self, progress: Arc<dyn Progress>) -> Telemetry {
        self.progress = progress;
        self
    }

    /// Routes progress events to stderr — one line per event.
    pub fn with_stderr_progress(self) -> Telemetry {
        self.with_progress(Arc::new(StderrProgress))
    }

    /// The underlying registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The underlying registry as a shared handle.
    pub fn registry_arc(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Opens a top-level span; equivalent to `registry().span(name)`.
    pub fn span(&self, name: &str) -> Span<'_> {
        self.registry.span(name)
    }

    /// Emits one progress event to the configured reporter.
    pub fn emit(&self, phase: &str, current: u64, total: u64, detail: &str) {
        self.progress.on_event(&ProgressEvent {
            phase,
            current,
            total,
            detail,
        });
    }

    /// Snapshots every metric in the registry.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_isolates_registries() {
        let a = Telemetry::new();
        let b = Telemetry::new();
        a.registry().counter("x").add(5);
        assert_eq!(a.snapshot().counter("x"), Some(5));
        assert_eq!(b.snapshot().counter("x"), None);
    }

    #[test]
    fn global_handles_share_state() {
        let a = Telemetry::global();
        let b = Telemetry::global();
        let before = a.snapshot().counter("lib.test.global_shared").unwrap_or(0);
        a.registry().counter("lib.test.global_shared").add(2);
        b.registry().counter("lib.test.global_shared").add(3);
        let after = b.snapshot().counter("lib.test.global_shared").unwrap_or(0);
        assert!(after >= before + 5);
    }

    #[test]
    fn emit_reaches_custom_reporter() {
        use std::sync::atomic::{AtomicU64, Ordering};

        struct CountingReporter(AtomicU64);
        impl Progress for CountingReporter {
            fn on_event(&self, event: &ProgressEvent<'_>) {
                assert_eq!(event.phase, "crawl");
                assert_eq!(event.total, 201);
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }

        let reporter = Arc::new(CountingReporter(AtomicU64::new(0)));
        let telemetry = Telemetry::new().with_progress(Arc::<CountingReporter>::clone(&reporter));
        for week in 0..5 {
            telemetry.emit("crawl", week + 1, 201, "ok");
        }
        assert_eq!(reporter.0.load(Ordering::Relaxed), 5);
    }
}
