//! The causal tracer: task context propagated across the executor, the
//! ring-buffer flight recorder, the per-pattern / per-domain
//! self-profiler, and the Chrome trace-event exporter. The crate docs
//! state what each piece is for and the determinism and overhead
//! contracts they keep.
//!
//! Everything here is *ambient*: [`emit`], [`capture`], [`task_scope`],
//! [`profiling`] and the `*_stat_add` functions find
//! the [`Tracer`] through a thread-local, so the executor, the crawler,
//! the store writer and the fingerprint engine record without being
//! handed a [`Telemetry`](crate::Telemetry). The handle owns the tracer
//! ([`Telemetry::with_trace`](crate::Telemetry::with_trace)) and enters
//! phase and week scopes ([`Telemetry::phase`](crate::Telemetry::phase)).

use crate::json::JsonWriter;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// Sentinel for "no week" / "no task" in a [`TraceEvent`].
pub const NONE: u64 = u64::MAX;

/// Lock shards in the flight recorder (events shard by task index).
const SHARDS: usize = 16;

/// Events retained per flight-recorder shard.
const RING_CAPACITY: usize = 512;

/// Deterministic export lanes: tasks map to lane `task % LANES`, so the
/// exported timeline is independent of the physical thread count.
pub(crate) const LANES: u64 = 8;

/// Count of installed tracers process-wide. The disabled fast path is a
/// single relaxed load of this.
static ACTIVE: AtomicU32 = AtomicU32::new(0);

/// True when any tracer is installed anywhere in the process. A cheap
/// pre-filter only — emission still requires a tracer on the current
/// causal path (installed on this thread or propagated into it).
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// Where an event is kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// Flight recorder only — never exported. Use for high-frequency
    /// breadcrumbs (fetch begin markers).
    RingOnly,
    /// Also appended to the export log.
    Export,
}

/// One recorded event. `worker` is the physical worker at record time and
/// is excluded from canonical identity (it is normalized to a lane at
/// [`Tracer::finish`]); every other field is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Pipeline phase (`generate`/`crawl`/`fingerprint`/`store`/`join`/
    /// `analyze`, or `""` outside any phase scope).
    pub phase: &'static str,
    /// Snapshot week, or [`NONE`].
    pub(crate) week: u64,
    /// Logical task index within the phase, or [`NONE`].
    pub task: u64,
    /// Emission sequence within the enclosing scope (starts at 0).
    pub(crate) seq: u64,
    /// Physical worker at record time; lane after [`Tracer::finish`].
    pub(crate) worker: u64,
    /// Event name (`fetch.outcome`, `store.commit`, …).
    pub name: &'static str,
    /// Domain the event concerns, or `""`.
    pub(crate) domain: String,
    /// Free-form deterministic detail (status, error class, attempt …).
    pub(crate) detail: String,
    /// Deterministic cost used to lay out the exported timeline.
    pub(crate) cost_ns: u64,
    /// Destination of the event.
    pub(crate) sink: Sink,
}

/// Cost attributed to one fingerprint pattern.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PatternStat {
    /// Times the pattern was evaluated.
    pub evals: u64,
    /// Times it matched.
    pub matches: u64,
    /// Regex-VM steps spent evaluating it.
    pub vm_steps: u64,
}

impl PatternStat {
    fn absorb(&mut self, other: PatternStat) {
        self.evals += other.evals;
        self.matches += other.matches;
        self.vm_steps += other.vm_steps;
    }
}

/// Cost attributed to one domain's fetch lifecycles.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DomainStat {
    /// Fetch lifecycles recorded.
    pub fetches: u64,
    /// Connection attempts across all lifecycles.
    pub attempts: u64,
    /// Retries (attempts beyond the first).
    pub retries: u64,
    /// Virtual backoff time spent between attempts.
    pub backoff_ns: u64,
    /// Fetches skipped by an open circuit breaker.
    pub breaker_skips: u64,
    /// Injected fail-point hits observed.
    pub failpoints: u64,
    /// Lifecycles that ended in an error.
    pub errors: u64,
    /// Total deterministic cost (backoff + per-attempt nominal cost).
    pub cost_ns: u64,
}

impl DomainStat {
    fn absorb(&mut self, other: DomainStat) {
        self.fetches += other.fetches;
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.backoff_ns += other.backoff_ns;
        self.breaker_skips += other.breaker_skips;
        self.failpoints += other.failpoints;
        self.errors += other.errors;
        self.cost_ns += other.cost_ns;
    }
}

struct Shard {
    ring: Mutex<VecDeque<TraceEvent>>,
    full: Mutex<Vec<TraceEvent>>,
}

struct TracerInner {
    shards: Vec<Shard>,
    patterns: Mutex<BTreeMap<String, PatternStat>>,
    domains: Mutex<BTreeMap<String, DomainStat>>,
}

/// A tracing session: flight recorder, profilers and the full export log.
/// Clone freely — clones share storage. Create one,
/// [`install`](Tracer::install) it around the traced region, then
/// [`finish`](Tracer::finish) to collect the [`TraceData`].
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").finish_non_exhaustive()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer with empty storage.
    pub fn new() -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                shards: (0..SHARDS)
                    .map(|_| Shard {
                        ring: Mutex::new(VecDeque::with_capacity(RING_CAPACITY)),
                        full: Mutex::new(Vec::new()),
                    })
                    .collect(),
                patterns: Mutex::new(BTreeMap::new()),
                domains: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Installs this tracer into the current thread's context until the
    /// guard drops. Everything the thread does — and everything executor
    /// workers do on its behalf, via [`capture`]/[`task_scope`] — records
    /// here.
    pub fn install(&self) -> InstallGuard {
        ACTIVE.fetch_add(1, Ordering::Relaxed);
        let prev = CURRENT.with(|c| {
            c.replace(Ctx {
                tracer: Some(self.clone()),
                ..Ctx::default()
            })
        });
        InstallGuard { prev }
    }

    fn record(&self, ev: TraceEvent) {
        let shard = &self.inner.shards[(ev.task % SHARDS as u64) as usize];
        let export = ev.sink == Sink::Export;
        {
            let mut ring = shard.ring.lock().expect("trace ring");
            if ring.len() == RING_CAPACITY {
                ring.pop_front();
            }
            ring.push_back(ev.clone());
        }
        if export {
            shard.full.lock().expect("trace log").push(ev);
        }
    }

    /// Renders the shared flight-recorder rings — the last events each
    /// shard saw — for a panic or budget-exhaustion dump. Unlike the
    /// canonical export this includes physical worker ids and reflects
    /// real arrival order, so it is *not* deterministic; it exists to be
    /// read by a human next to a stack trace.
    pub fn flight_recorder_dump(&self) -> String {
        let mut out = String::from("flight recorder (most recent events per shard):\n");
        for (i, shard) in self.inner.shards.iter().enumerate() {
            let ring = shard.ring.lock().expect("trace ring");
            if ring.is_empty() {
                continue;
            }
            let _ = writeln!(out, "  shard {i:02} ({} events):", ring.len());
            for ev in ring.iter().rev().take(8) {
                let _ = writeln!(out, "    {} [worker {}]", render_tail_line(ev), ev.worker);
            }
        }
        out
    }

    /// Drains the tracer into an immutable [`TraceData`]: export-log
    /// events canonically sorted with workers normalized to lanes, plus
    /// both profiler aggregations. Call after all traced work finished.
    pub fn finish(&self) -> TraceData {
        let mut events: Vec<TraceEvent> = Vec::new();
        for shard in &self.inner.shards {
            events.append(&mut shard.full.lock().expect("trace log"));
        }
        for ev in &mut events {
            ev.worker = lane_of(ev.task);
        }
        events.sort_by(canonical_cmp);
        let patterns = self
            .inner
            .patterns
            .lock()
            .expect("pattern stats")
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        let domains = self
            .inner
            .domains
            .lock()
            .expect("domain stats")
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        TraceData {
            events,
            patterns,
            domains,
        }
    }
}

/// Restores the previous thread context (and the global enablement count)
/// when dropped.
pub struct InstallGuard {
    prev: Ctx,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let prev = std::mem::take(&mut self.prev);
        CURRENT.with(|c| *c.borrow_mut() = prev);
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The thread-local causal context.
struct Ctx {
    tracer: Option<Tracer>,
    phase: &'static str,
    week: u64,
    task: u64,
    worker: u64,
    seq: u64,
}

impl Default for Ctx {
    fn default() -> Ctx {
        Ctx {
            tracer: None,
            phase: "",
            week: NONE,
            task: NONE,
            worker: 0,
            seq: 0,
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Ctx> = RefCell::new(Ctx::default());
}

/// A captured causal context, ready to cross a thread boundary. The
/// executor captures once per `map` call and re-installs per item with
/// [`task_scope`], so an item's events carry, on any worker, the
/// phase/week of the code that submitted it.
#[derive(Clone)]
pub struct TraceCtx {
    tracer: Tracer,
    phase: &'static str,
    week: u64,
}

impl TraceCtx {
    /// See [`Tracer::flight_recorder_dump`].
    pub fn flight_recorder_dump(&self) -> String {
        self.tracer.flight_recorder_dump()
    }
}

impl std::fmt::Debug for TraceCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCtx")
            .field("phase", &self.phase)
            .field("week", &self.week)
            .finish()
    }
}

/// Captures the current thread's causal context, or `None` when tracing
/// is off on this path — in which case the subsequent [`task_scope`]
/// calls are free.
pub fn capture() -> Option<TraceCtx> {
    if !enabled() {
        return None;
    }
    CURRENT.with(|c| {
        let c = c.borrow();
        c.tracer.clone().map(|tracer| TraceCtx {
            tracer,
            phase: c.phase,
            week: c.week,
        })
    })
}

/// Installs `parent` on the current thread as task `task`, run by
/// physical worker `worker`, until the guard drops. Events emitted under
/// the guard carry the parent's phase/week, the task index, and a fresh
/// per-task sequence. A `None` parent yields a no-op guard.
pub fn task_scope(parent: Option<&TraceCtx>, task: u64, worker: u64) -> TaskScope {
    let Some(parent) = parent else {
        return TaskScope { prev: None };
    };
    let prev = CURRENT.with(|c| {
        c.replace(Ctx {
            tracer: Some(parent.tracer.clone()),
            phase: parent.phase,
            week: parent.week,
            task,
            worker,
            seq: 0,
        })
    });
    TaskScope { prev: Some(prev) }
}

/// Guard for [`task_scope`].
pub struct TaskScope {
    prev: Option<Ctx>,
}

impl Drop for TaskScope {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
}

/// Enters pipeline phase `phase` on the current thread until the guard
/// drops: week/task reset, sequence restarts. No-op when tracing is off
/// on this path.
pub fn phase_scope(phase: &'static str) -> FieldScope {
    field_scope(|c| (c.phase, c.week) = (phase, NONE))
}

/// Enters week `week` of the current phase until the guard drops:
/// task resets, sequence restarts. No-op when tracing is off.
pub fn week_scope(week: u64) -> FieldScope {
    field_scope(|c| c.week = week)
}

/// Saves the context's fields, lets `enter` change phase/week, and
/// resets task and sequence.
fn field_scope(enter: impl FnOnce(&mut Ctx)) -> FieldScope {
    if !enabled() {
        return FieldScope { prev: None };
    }
    CURRENT.with(|c| {
        let mut c = c.borrow_mut();
        if c.tracer.is_none() {
            return FieldScope { prev: None };
        }
        let prev = (c.phase, c.week, c.task, c.seq);
        enter(&mut c);
        c.task = NONE;
        c.seq = 0;
        FieldScope { prev: Some(prev) }
    })
}

/// Guard for [`phase_scope`]/[`week_scope`]; restores the saved fields.
pub struct FieldScope {
    prev: Option<(&'static str, u64, u64, u64)>,
}

impl Drop for FieldScope {
    fn drop(&mut self) {
        if let Some((phase, week, task, seq)) = self.prev.take() {
            CURRENT.with(|c| {
                let mut c = c.borrow_mut();
                c.phase = phase;
                c.week = week;
                c.task = task;
                c.seq = seq;
            });
        }
    }
}

/// Records an event in the current causal context. A single relaxed load
/// when tracing is disabled process-wide; a no-op when no tracer is on
/// this causal path.
pub fn emit(name: &'static str, domain: &str, detail: &str, cost_ns: u64, sink: Sink) {
    if !enabled() {
        return;
    }
    let (tracer, ev) = match CURRENT.with(|cell| {
        let mut c = cell.borrow_mut();
        let tracer = c.tracer.clone()?;
        let ev = TraceEvent {
            phase: c.phase,
            week: c.week,
            task: c.task,
            seq: c.seq,
            worker: c.worker,
            name,
            domain: domain.to_string(),
            detail: detail.to_string(),
            cost_ns,
            sink,
        };
        c.seq += 1;
        Some((tracer, ev))
    }) {
        Some(pair) => pair,
        None => return,
    };
    tracer.record(ev);
}

fn render_tail_line(ev: &TraceEvent) -> String {
    let mut out = String::new();
    let _ = write!(out, "[{}", if ev.phase.is_empty() { "-" } else { ev.phase });
    match ev.week {
        NONE => out.push_str(" w-"),
        w => {
            let _ = write!(out, " w{w}");
        }
    }
    match ev.task {
        NONE => out.push_str(" t-"),
        t => {
            let _ = write!(out, " t{t}");
        }
    }
    let _ = write!(out, " #{}] {}", ev.seq, ev.name);
    if !ev.domain.is_empty() {
        let _ = write!(out, " domain={}", ev.domain);
    }
    if !ev.detail.is_empty() {
        let _ = write!(out, " detail={}", ev.detail);
    }
    if ev.cost_ns > 0 {
        let _ = write!(out, " cost_ns={}", ev.cost_ns);
    }
    out
}

/// True when a tracer is on this causal path — use to gate profiling
/// instrumentation that has its own measurement cost (for example the
/// per-pattern VM-step deltas in the fingerprint engine).
pub fn profiling() -> bool {
    enabled() && CURRENT.with(|c| c.borrow().tracer.is_some())
}

fn current_tracer() -> Option<Tracer> {
    if !enabled() {
        return None;
    }
    CURRENT.with(|c| c.borrow().tracer.clone())
}

/// Adds per-pattern costs into the profiler, one shared lock hold for the
/// whole batch (callers accumulate per page/task and flush once).
pub fn pattern_stats_add<'a, I>(entries: I)
where
    I: IntoIterator<Item = (&'a str, PatternStat)>,
{
    let Some(tracer) = current_tracer() else {
        return;
    };
    let mut map = tracer.inner.patterns.lock().expect("pattern stats");
    for (label, stat) in entries {
        if stat.evals == 0 && stat.vm_steps == 0 {
            continue;
        }
        map.entry(label.to_string()).or_default().absorb(stat);
    }
}

/// Adds one domain's fetch-lifecycle cost into the profiler.
pub fn domain_stat_add(domain: &str, stat: DomainStat) {
    let Some(tracer) = current_tracer() else {
        return;
    };
    tracer
        .inner
        .domains
        .lock()
        .expect("domain stats")
        .entry(domain.to_string())
        .or_default()
        .absorb(stat);
}

/// Canonical phase order in the exported timeline.
fn phase_rank(phase: &str) -> u8 {
    match phase {
        "generate" => 0,
        "crawl" => 1,
        "fingerprint" => 2,
        "store" => 3,
        "join" => 4,
        "analyze" => 5,
        _ => 6,
    }
}

fn lane_of(task: u64) -> u64 {
    if task == NONE {
        0
    } else {
        1 + task % LANES
    }
}

fn canonical_cmp(a: &TraceEvent, b: &TraceEvent) -> std::cmp::Ordering {
    (
        phase_rank(a.phase),
        a.phase,
        a.week,
        a.task,
        a.seq,
        a.name,
        &a.domain,
        &a.detail,
        a.cost_ns,
    )
        .cmp(&(
            phase_rank(b.phase),
            b.phase,
            b.week,
            b.task,
            b.seq,
            b.name,
            &b.domain,
            &b.detail,
            b.cost_ns,
        ))
}

/// Everything a finished [`Tracer`] collected.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceData {
    /// Exportable events in canonical order, workers folded onto lanes.
    pub events: Vec<TraceEvent>,
    /// Per-pattern cost attribution, sorted by label.
    pub patterns: Vec<(String, PatternStat)>,
    /// Per-domain cost attribution, sorted by domain.
    pub domains: Vec<(String, DomainStat)>,
}

impl TraceData {
    /// Serializes the trace in Chrome trace-event JSON (the format
    /// Perfetto and `chrome://tracing` load). Timestamps are synthesized
    /// deterministically from event costs: events are laid out in
    /// canonical order on their lane, lanes are re-synchronized at every
    /// phase/week boundary, and enclosing phase and week spans are
    /// emitted on the coordinator track (tid 0) so the timeline nests.
    /// Byte-identical for any thread count.
    pub fn to_chrome_json(&self) -> String {
        let lanes = LANES as usize + 1;
        let mut cursor = vec![0u64; lanes];
        let mut placed: Vec<(usize, u64, u64)> = Vec::with_capacity(self.events.len());
        // (phase, week) -> extent; phase -> extent. Keys stay in canonical
        // order because BTreeMap sorts and ranks are prefix-compatible.
        let mut week_extents: BTreeMap<(u8, &'static str, u64), (u64, u64)> = BTreeMap::new();
        let mut phase_extents: BTreeMap<(u8, &'static str), (u64, u64)> = BTreeMap::new();
        let mut prev_group: Option<(&'static str, u64)> = None;
        for ev in &self.events {
            let group = (ev.phase, ev.week);
            if prev_group != Some(group) {
                let barrier = cursor.iter().copied().max().unwrap_or(0) + 10;
                for c in cursor.iter_mut() {
                    *c = barrier;
                }
                prev_group = Some(group);
            }
            let tid = lane_of(ev.task) as usize;
            let dur = (ev.cost_ns / 1_000).max(1);
            let ts = cursor[tid];
            cursor[tid] = ts + dur + 1;
            placed.push((tid, ts, dur));
            let end = ts + dur;
            if ev.week != NONE {
                let e = week_extents
                    .entry((phase_rank(ev.phase), ev.phase, ev.week))
                    .or_insert((ts, end));
                e.0 = e.0.min(ts);
                e.1 = e.1.max(end);
            }
            let e = phase_extents
                .entry((phase_rank(ev.phase), ev.phase))
                .or_insert((ts, end));
            e.0 = e.0.min(ts);
            e.1 = e.1.max(end);
        }

        let mut j = JsonWriter::new();
        j.begin_obj().arr("traceEvents");
        let metadata = |j: &mut JsonWriter, kind: &str, tid: usize, name: &str| {
            j.begin_obj().str("name", kind).str("ph", "M");
            j.u64("pid", 1).u64("tid", tid as u64);
            j.obj("args").str("name", name).end_obj().end_obj();
        };
        // Opens a complete ("X") event and its `args`, up to the four
        // members every span's args lead with.
        type At = (usize, u64, u64); // tid, ts, dur
        type Of<'a> = (&'a str, u64, u64, u64); // phase, week, task, worker
        let span = |j: &mut JsonWriter, name: &str, cat: &str, (tid, ts, dur): At, of: Of| {
            let (phase, week, task, worker) = of;
            j.begin_obj().str("name", name).str("cat", cat);
            j.str("ph", "X").u64("pid", 1).u64("tid", tid as u64);
            j.u64("ts", ts).u64("dur", dur).obj("args");
            j.str("phase", phase).i64("week", signed(week));
            j.i64("task", signed(task)).u64("worker", worker);
        };
        // An enclosing phase or week span on the coordinator track.
        let enclosing = |j: &mut JsonWriter, name: &str, cat: &str, phase, week, extent| {
            let (start, end): (u64, u64) = extent;
            let at = (0, start, (end - start).max(1));
            span(j, name, cat, at, (phase, week, NONE, 0));
            j.str("domain", "").str("detail", "").end_obj().end_obj();
        };

        metadata(&mut j, "process_name", 0, "webvuln study");
        metadata(&mut j, "thread_name", 0, "coordinator");
        for tid in 1..lanes {
            metadata(&mut j, "thread_name", tid, &format!("lane-{}", tid - 1));
        }
        for (&(_, phase), &extent) in &phase_extents {
            let name = format!("phase:{phase}");
            enclosing(&mut j, &name, "phase", phase, NONE, extent);
        }
        for (&(_, phase, week), &extent) in &week_extents {
            let name = format!("{phase} week {week}");
            enclosing(&mut j, &name, "week", phase, week, extent);
        }
        for (ev, &at) in self.events.iter().zip(&placed) {
            let of = (ev.phase, ev.week, ev.task, ev.worker);
            span(&mut j, ev.name, "event", at, of);
            j.u64("seq", ev.seq).str("domain", &ev.domain);
            j.str("detail", &ev.detail).u64("cost_ns", ev.cost_ns);
            j.end_obj().end_obj();
        }
        j.end_arr().str("displayTimeUnit", "ms").end_obj();
        j.finish()
    }

    /// Renders the "Top cost centers" report section: the `k` most
    /// expensive fingerprint patterns by VM steps, the `k` slowest
    /// domains by deterministic cost, and the per-phase / per-lane event
    /// timeline summary.
    pub fn render_top_cost_centers(&self, k: usize) -> String {
        let mut out = String::from("Top cost centers\n");

        let _ = writeln!(out, "  Top {k} patterns by VM steps");
        let mut patterns: Vec<&(String, PatternStat)> = self.patterns.iter().collect();
        patterns.sort_by(|a, b| (b.1.vm_steps, &a.0).cmp(&(a.1.vm_steps, &b.0)));
        if patterns.is_empty() {
            let _ = writeln!(out, "    (no pattern evaluations recorded)");
        }
        for (i, (label, s)) in patterns.iter().take(k).enumerate() {
            let _ = writeln!(
                out,
                "    {:>2}. {:<44} vm_steps={:<10} evals={:<8} matches={}",
                i + 1,
                label,
                s.vm_steps,
                s.evals,
                s.matches
            );
        }

        let _ = writeln!(out, "  Top {k} slowest domains");
        let mut domains: Vec<&(String, DomainStat)> = self.domains.iter().collect();
        domains.sort_by(|a, b| (b.1.cost_ns, &a.0).cmp(&(a.1.cost_ns, &b.0)));
        if domains.is_empty() {
            let _ = writeln!(out, "    (no fetch lifecycles recorded)");
        }
        for (i, (domain, s)) in domains.iter().take(k).enumerate() {
            let _ = writeln!(
                out,
                "    {:>2}. {:<34} cost={:<12} attempts={:<5} retries={:<5} \
                 backoff_ns={:<12} breaker_skips={} errors={}",
                i + 1,
                domain,
                s.cost_ns,
                s.attempts,
                s.retries,
                s.backoff_ns,
                s.breaker_skips,
                s.errors
            );
        }

        let _ = writeln!(out, "  Phase timeline");
        let mut phases: BTreeMap<(u8, &'static str), (u64, u64)> = BTreeMap::new();
        let mut lanes: BTreeMap<u64, u64> = BTreeMap::new();
        for ev in &self.events {
            let p = phases
                .entry((phase_rank(ev.phase), ev.phase))
                .or_insert((0, 0));
            p.0 += 1;
            p.1 += ev.cost_ns;
            *lanes.entry(ev.worker).or_insert(0) += 1;
        }
        for ((_, phase), (count, cost)) in &phases {
            let _ = writeln!(
                out,
                "    {:<12} events={:<8} cost_ns={}",
                phase, count, cost
            );
        }
        if !lanes.is_empty() {
            let _ = write!(out, "    per-lane events:");
            for (lane, count) in &lanes {
                let _ = write!(out, " lane{lane}={count}");
            }
            out.push('\n');
        }
        out
    }
}

/// `NONE` renders as `-1` in exported JSON.
fn signed(value: u64) -> i64 {
    if value == NONE {
        -1
    } else {
        value as i64
    }
}

// White-box tests of the recorder's internals; the tracer's contract
// (scoping, propagation, canonical export, profilers) is tested at the
// crate root.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_tracer_means_no_effect() {
        // Another test may have a tracer installed on *its* thread, but
        // this thread has none: every entry point is a no-op.
        emit("orphan", "x.example", "", 1, Sink::Export);
        CURRENT.with(|c| assert!(c.borrow().tracer.is_none()));
        assert!(capture().is_none());
        assert!(!profiling());
        domain_stat_add("x.example", DomainStat::default());
        pattern_stats_add([("p", PatternStat::default())]);
    }

    #[test]
    fn ring_is_bounded_and_dump_renders() {
        let tracer = Tracer::new();
        {
            let _g = tracer.install();
            let parent = capture().expect("on");
            let _t = task_scope(Some(&parent), 0, 0);
            for i in 0..(RING_CAPACITY + 100) {
                emit(
                    "tick",
                    "",
                    if i % 2 == 0 { "even" } else { "odd" },
                    1,
                    Sink::Export,
                );
            }
        }
        let ring_len = tracer.inner.shards[0].ring.lock().expect("ring").len();
        assert_eq!(ring_len, RING_CAPACITY);
        let dump = tracer.flight_recorder_dump();
        assert!(dump.contains("shard 00"), "{dump}");
        assert!(dump.contains("tick"), "{dump}");
        // The export log keeps what the ring forgot.
        assert_eq!(tracer.finish().events.len(), RING_CAPACITY + 100);
    }

    #[test]
    fn tail_lines_render_all_fields() {
        let line = render_tail_line(&TraceEvent {
            phase: "crawl",
            week: 7,
            task: 19,
            seq: 2,
            worker: 5,
            name: "fetch.retry",
            domain: "x.example".to_string(),
            detail: "attempt=2".to_string(),
            cost_ns: 1_500,
            sink: Sink::Export,
        });
        assert_eq!(
            line,
            "[crawl w7 t19 #2] fetch.retry domain=x.example detail=attempt=2 cost_ns=1500"
        );
        let bare = render_tail_line(&TraceEvent {
            phase: "",
            week: NONE,
            task: NONE,
            seq: 0,
            worker: 0,
            name: "note",
            domain: String::new(),
            detail: String::new(),
            cost_ns: 0,
            sink: Sink::RingOnly,
        });
        assert_eq!(bare, "[- w- t- #0] note");
    }
}
