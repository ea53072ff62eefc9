//! # webvuln-telemetry
//!
//! The observability substrate of the `webvuln` pipeline. The paper's
//! crawl ran for 201 weeks over 157.2M pages; a run of that scale is only
//! debuggable with per-stage accounting — which phase burned the time,
//! which hosts faulted, how many pattern-VM steps each page cost. This
//! crate provides the primitives every other layer records into, behind
//! one handle, [`Telemetry`].
//!
//! Aggregates — *that* a crawl is slow or failing:
//!
//! * [`Counter`] / [`Gauge`] — single atomic adds, safe to hammer from
//!   every crawler worker thread.
//! * [`Histogram`] — fixed power-of-two buckets with lock-free recording
//!   and p50/p90/p99 estimation; used for per-request latency.
//! * [`Span`] — hierarchical wall-clock timers (`crawl`, `crawl/week`)
//!   that aggregate into per-phase totals on drop.
//! * [`Registry`] — names the metrics and snapshots them; one per
//!   [`Telemetry`], so counts in one run never bleed into another.
//! * [`Progress`] — an opt-in callback (e.g. [`StderrProgress`]) so a
//!   201-week crawl emits weekly progress lines instead of running dark.
//! * [`Snapshot`] — a point-in-time copy of everything, rendered as a
//!   human-readable table or machine-readable JSON.
//!
//! Causes ([`trace`], off unless the handle was built
//! [`with_trace`](Telemetry::with_trace)) — *which* domain, fingerprint
//! pattern, or retry storm is responsible:
//!
//! * **Causal events** carrying a task context — phase, week, task index,
//!   worker — held in a thread-local and *propagated across the
//!   parallel executor*: `webvuln-exec` captures the caller's context
//!   with [`trace::capture`] and re-installs it with [`trace::task_scope`]
//!   on whichever worker ends up running an item, so events land in
//!   the right trace regardless of scheduling.
//! * A fixed-size, lock-sharded **ring-buffer flight recorder**:
//!   [`Tracer::flight_recorder_dump`] renders the shared rings for
//!   panic/budget-exhaustion dumps.
//! * A **self-profiler**: [`trace::pattern_stats_add`] attributes regex-VM
//!   steps to individual fingerprint patterns, [`trace::domain_stat_add`]
//!   attributes retry/backoff/breaker cost to individual domains. Both
//!   aggregate with commutative adds, so totals are identical for any
//!   thread count.
//! * A **Chrome trace-event JSON exporter** ([`TraceData::to_chrome_json`],
//!   loadable in Perfetto / `chrome://tracing`) plus a "Top cost centers"
//!   text report ([`TraceData::render_top_cost_centers`]).
//!
//! One guard ties the two halves together at a phase boundary:
//! [`Telemetry::phase`] times the wall-clock span *and* stamps every
//! event emitted under it with the phase (and, after
//! [`Phase::week`], the week).
//!
//! # Determinism
//!
//! Wall-clock timestamps differ run to run and the virtual clock's
//! *intermediate* readings are interleaving-dependent, so trace events
//! carry no timestamps at all — only a deterministic `cost_ns`. The
//! exporter sorts events canonically (phase, week, task, seq, …) and
//! *synthesizes* a timeline from the costs; physical worker ids are folded
//! onto `trace::LANES` deterministic lanes. The result: the exported
//! JSON is byte-identical for any thread count. Spans, by contrast, are
//! wall time and live only in the [`Snapshot`].
//!
//! # Overhead
//!
//! The crate is dependency-free (std only): the instrumentation layer
//! must never be the thing that breaks the build or perturbs the numbers
//! it measures. Metric handles record with one atomic add. When no tracer
//! is installed anywhere in the process, every [`trace`] entry point is a
//! single relaxed atomic load (the same design as `webvuln-failpoint`);
//! scopes and events only pay for allocation and a shard lock once a
//! tracer is installed on the current causal path.
//!
//! ```
//! use webvuln_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::new();
//! let fetches = telemetry.registry().counter("net.crawler.fetches_total");
//! {
//!     let _phase = telemetry.phase("crawl").week(0);
//!     fetches.add(3);
//! }
//! let snap = telemetry.snapshot();
//! assert_eq!(snap.counter("net.crawler.fetches_total"), Some(3));
//! assert_eq!(snap.span("crawl").unwrap().count, 1);
//! assert!(snap.to_json().contains("\"crawl\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
mod metrics;
mod progress;
mod registry;
mod snapshot;
mod span;
pub mod trace;

pub use json::JsonWriter;
pub use metrics::{Counter, Gauge, Histogram};
use progress::NullProgress;
pub use progress::{Progress, ProgressEvent, StderrProgress};
pub use registry::Registry;
pub use snapshot::{HistogramSnapshot, Snapshot, SpanSnapshot};
pub use span::Span;
pub use trace::{TraceData, Tracer};

use std::sync::Arc;

/// A cheap-to-clone handle bundling a metric [`Registry`], an optional
/// [`Progress`] reporter and an optional [`Tracer`] — the single value
/// the pipeline threads through its stages.
///
/// Every handle has its own registry (and, when tracing, its own
/// tracer), so counters in one study never bleed into another —
/// important for tests and for servers running many studies. Clones
/// share both.
#[derive(Clone)]
pub struct Telemetry {
    registry: Arc<Registry>,
    progress: Arc<dyn Progress>,
    tracer: Option<Tracer>,
}

impl Telemetry {
    /// A fresh, isolated registry with no progress reporting and no
    /// tracing.
    pub fn new() -> Telemetry {
        Telemetry {
            registry: Arc::new(Registry::new()),
            progress: Arc::new(NullProgress),
            tracer: None,
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

    /// Causal tracing (default: none): the flight recorder, the
    /// exportable event log and cost attribution. The handle only owns
    /// the [`Tracer`]: whoever runs the traced region
    /// [`install`](Tracer::install)s it and collects the [`TraceData`]
    /// with [`finish`](Tracer::finish), as a study run does. Tracing
    /// never changes results — only what is observed about them.
    pub fn with_trace(mut self) -> Telemetry {
        self.tracer = Some(Tracer::new());
        self
    }

    /// The underlying registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The underlying registry as a shared handle.
    pub fn registry_arc(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// The tracer, when the handle was built
    /// [`with_trace`](Telemetry::with_trace).
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Enters pipeline phase `name` until the guard drops: its wall time
    /// is recorded as the span `name`, and every trace event emitted
    /// under it (on this thread, or on an executor worker it fans out to)
    /// carries the phase.
    pub fn phase(&self, name: &'static str) -> Phase<'_> {
        Phase {
            week: None,
            _scope: trace::phase_scope(name),
            _span: self.registry.span(name),
        }
    }

    /// Sends one progress event to the configured reporter.
    pub fn progress(&self, phase: &str, current: u64, total: u64, detail: &str) {
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

/// Guard for [`Telemetry::phase`]: one pipeline phase in progress.
// Fields drop in declaration order, and the trace scopes must unwind
// innermost first: the week scope saved the context the phase scope had
// already changed.
#[must_use = "a phase ends on drop; binding it to `_` ends it immediately"]
pub struct Phase<'t> {
    week: Option<trace::FieldScope>,
    _scope: trace::FieldScope,
    _span: Span<'t>,
}

impl Phase<'_> {
    /// Narrows the phase's trace events to snapshot `week`.
    pub fn week(mut self, week: usize) -> Self {
        self.week = Some(trace::week_scope(week as u64));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{
        capture, domain_stat_add, emit, pattern_stats_add, phase_scope, profiling, task_scope,
        week_scope, DomainStat, PatternStat, Sink, LANES, NONE,
    };

    #[test]
    fn telemetry_isolates_registries() {
        let a = Telemetry::new();
        let b = Telemetry::new();
        a.registry().counter("x").add(5);
        assert_eq!(a.snapshot().counter("x"), Some(5));
        assert_eq!(b.snapshot().counter("x"), None);
    }

    #[test]
    fn phase_times_the_span_and_stamps_trace_events() {
        let telemetry = Telemetry::new().with_trace();
        let tracer = telemetry.tracer().expect("tracing on");
        {
            let _installed = tracer.install();
            {
                let _phase = telemetry.phase("crawl").week(3);
                trace::emit("in.week", "", "", 1, trace::Sink::Export);
            }
            // Both scopes unwound, innermost first: no phase, no week.
            trace::emit("outside", "", "", 1, trace::Sink::Export);
            let _phase = telemetry.phase("join");
            trace::emit("in.phase", "", "", 1, trace::Sink::Export);
        }
        let data = tracer.finish();
        let context = |name: &str| {
            let event = data.events.iter().find(|e| e.name == name).expect(name);
            (event.phase, event.week)
        };
        assert_eq!(context("in.week"), ("crawl", 3));
        assert_eq!(context("outside"), ("", trace::NONE));
        assert_eq!(context("in.phase"), ("join", trace::NONE));
        let snap = telemetry.snapshot();
        assert_eq!(snap.span("crawl").expect("crawl span").count, 1);
        assert_eq!(snap.span("join").expect("join span").count, 1);

        // Untraced handles time the span all the same.
        let plain = Telemetry::new();
        assert!(plain.tracer().is_none());
        drop(plain.phase("crawl").week(0));
        assert_eq!(plain.snapshot().span("crawl").expect("span").count, 1);
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
            telemetry.progress("crawl", week + 1, 201, "ok");
        }
        assert_eq!(reporter.0.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn install_scopes_and_sequences() {
        let tracer = Tracer::new();
        {
            let _g = tracer.install();
            assert!(profiling());
            let _p = phase_scope("crawl");
            let _w = week_scope(3);
            emit("crawl.week", "", "domains=2", 5_000, Sink::Export);
            let parent = capture().expect("tracing on");
            {
                let _t = task_scope(Some(&parent), 7, 2);
                emit("fetch.begin", "a.example", "", 0, Sink::RingOnly);
                emit("fetch.outcome", "a.example", "200", 2_000, Sink::Export);
            }
            // Scope restored: coordinator sequence continues after task.
            emit("crawl.week.done", "", "", 1_000, Sink::Export);
        }
        let data = tracer.finish();
        // Ring-only events are not exported.
        assert_eq!(data.events.len(), 3);
        // Canonical order: task events first, then coordinator summaries
        // (task == NONE sorts last within the week).
        assert_eq!(data.events[0].name, "fetch.outcome");
        assert_eq!(data.events[0].task, 7);
        assert_eq!(data.events[0].seq, 1, "task seq counts ring-only begin");
        assert_eq!(data.events[0].worker, 1 + 7 % LANES, "lane, not worker 2");
        assert_eq!(data.events[1].name, "crawl.week");
        assert_eq!(data.events[1].week, 3);
        assert_eq!(data.events[1].task, NONE);
        assert_eq!(data.events[1].seq, 0);
        assert_eq!(data.events[2].name, "crawl.week.done");
        assert_eq!(data.events[2].seq, 1, "coordinator seq resumes");
    }

    #[test]
    fn context_propagates_across_threads() {
        let tracer = Tracer::new();
        let _g = tracer.install();
        let _p = phase_scope("fingerprint");
        let _w = week_scope(11);
        let parent = capture().expect("tracing on");
        std::thread::scope(|scope| {
            for (task, worker) in [(0u64, 1u64), (1, 0)] {
                let parent = parent.clone();
                scope.spawn(move || {
                    let _t = task_scope(Some(&parent), task, worker);
                    emit("page.analyzed", "", "", 1_000, Sink::Export);
                });
            }
        });
        let data = tracer.finish();
        assert_eq!(data.events.len(), 2);
        for ev in &data.events {
            assert_eq!(ev.phase, "fingerprint");
            assert_eq!(ev.week, 11);
        }
        assert_eq!(data.events[0].task, 0);
        assert_eq!(data.events[1].task, 1);
    }

    #[test]
    fn canonical_export_is_independent_of_interleaving() {
        let run = |order: &[usize]| {
            let tracer = Tracer::new();
            let _g = tracer.install();
            let _p = phase_scope("crawl");
            let _w = week_scope(0);
            let parent = capture().expect("on");
            for &task in order {
                let _t = task_scope(Some(&parent), task as u64, task as u64 % 3);
                emit(
                    "fetch.begin",
                    &format!("d{task}.example"),
                    "",
                    0,
                    Sink::RingOnly,
                );
                emit(
                    "fetch.outcome",
                    &format!("d{task}.example"),
                    "200",
                    1_000 * (task as u64 + 1),
                    Sink::Export,
                );
            }
            tracer.finish().to_chrome_json()
        };
        let a = run(&[0, 1, 2, 3, 4, 5]);
        let b = run(&[5, 3, 1, 4, 2, 0]);
        assert_eq!(a, b, "export must not depend on execution order");
    }

    #[test]
    fn profilers_aggregate_commutatively() {
        let tracer = Tracer::new();
        let _g = tracer.install();
        pattern_stats_add([
            (
                "jQuery/url#0",
                PatternStat {
                    evals: 2,
                    matches: 1,
                    vm_steps: 40,
                },
            ),
            (
                "Bootstrap/url#0",
                PatternStat {
                    evals: 1,
                    matches: 0,
                    vm_steps: 25,
                },
            ),
        ]);
        pattern_stats_add([(
            "jQuery/url#0",
            PatternStat {
                evals: 1,
                matches: 0,
                vm_steps: 10,
            },
        )]);
        // Zero-eval entries are skipped.
        pattern_stats_add([("Never/url#0", PatternStat::default())]);
        domain_stat_add(
            "slow.example",
            DomainStat {
                fetches: 1,
                attempts: 3,
                retries: 2,
                backoff_ns: 5_000,
                cost_ns: 8_000,
                errors: 1,
                ..DomainStat::default()
            },
        );
        domain_stat_add(
            "slow.example",
            DomainStat {
                fetches: 1,
                attempts: 1,
                cost_ns: 1_000,
                ..DomainStat::default()
            },
        );
        let data = tracer.finish();
        assert_eq!(data.patterns.len(), 2);
        let jq = &data
            .patterns
            .iter()
            .find(|(l, _)| l == "jQuery/url#0")
            .expect("jq")
            .1;
        assert_eq!((jq.evals, jq.matches, jq.vm_steps), (3, 1, 50));
        assert_eq!(data.domains.len(), 1);
        let slow = &data.domains[0].1;
        assert_eq!(slow.fetches, 2);
        assert_eq!(slow.attempts, 4);
        assert_eq!(slow.cost_ns, 9_000);
    }

    #[test]
    fn top_cost_centers_ranks_and_names() {
        let tracer = Tracer::new();
        {
            let _g = tracer.install();
            let _p = phase_scope("crawl");
            let _w = week_scope(0);
            emit("crawl.week", "", "", 1_000, Sink::Export);
            pattern_stats_add([
                (
                    "big/url#0",
                    PatternStat {
                        evals: 5,
                        matches: 2,
                        vm_steps: 900,
                    },
                ),
                (
                    "small/url#0",
                    PatternStat {
                        evals: 5,
                        matches: 2,
                        vm_steps: 10,
                    },
                ),
            ]);
            domain_stat_add(
                "slow.example",
                DomainStat {
                    fetches: 1,
                    attempts: 4,
                    retries: 3,
                    cost_ns: 9_000,
                    ..DomainStat::default()
                },
            );
            domain_stat_add(
                "fast.example",
                DomainStat {
                    fetches: 1,
                    attempts: 1,
                    cost_ns: 100,
                    ..DomainStat::default()
                },
            );
        }
        let report = tracer.finish().render_top_cost_centers(5);
        assert!(report.contains("Top cost centers"), "{report}");
        let big = report.find("big/url#0").expect("big listed");
        let small = report.find("small/url#0").expect("small listed");
        assert!(big < small, "ranked by vm_steps:\n{report}");
        let slow = report.find("slow.example").expect("slow listed");
        let fast = report.find("fast.example").expect("fast listed");
        assert!(slow < fast, "ranked by cost:\n{report}");
        assert!(report.contains("Phase timeline"), "{report}");
        assert!(report.contains("crawl"), "{report}");
    }

    #[test]
    fn chrome_json_shape() {
        let tracer = Tracer::new();
        {
            let _g = tracer.install();
            for (phase, week) in [("generate", NONE), ("crawl", 0), ("crawl", 1)] {
                let _p = phase_scope(phase);
                let _w = (week != NONE).then(|| week_scope(week));
                emit("note", "", "", 2_000, Sink::Export);
                let parent = capture().expect("on");
                let _t = task_scope(Some(&parent), 2, 0);
                emit("work", "d.example", "ok", 3_000, Sink::Export);
            }
        }
        let json = tracer.finish().to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"), "{json}");
        assert!(json.contains("\"phase:generate\""), "{json}");
        assert!(json.contains("\"phase:crawl\""), "{json}");
        assert!(json.contains("\"crawl week 0\""), "{json}");
        assert!(json.contains("\"crawl week 1\""), "{json}");
        assert!(json.contains("\"thread_name\""), "{json}");
        assert!(json.contains("\"domain\":\"d.example\""), "{json}");
        assert!(json.contains("\"worker\":3"), "task 2 -> lane 3: {json}");
        // Phase spans must not overlap: crawl starts after generate ends.
        let gen_span = json.find("\"phase:generate\"").expect("generate span");
        let crawl_span = json.find("\"phase:crawl\"").expect("crawl span");
        assert!(gen_span < crawl_span, "canonical phase order: {json}");
    }
}
