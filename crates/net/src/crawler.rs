//! The weekly snapshot crawler (paper §4.1).
//!
//! Given the domain list and a [`Connect`] transport, the crawler fetches
//! each domain's landing page on a worker pool
//! ([`webvuln_exec::Executor`]) and returns per-domain [`FetchRecord`]s.
//! Results are keyed and ordered by domain so that worker scheduling
//! never changes the dataset.
//!
//! All crawl behavior — thread count, retry policy, per-host circuit
//! breakers, virtual-clock backoff, telemetry registry — composes through
//! one builder, [`CrawlOptions`]. A plain `CrawlOptions::new()` run makes
//! a single attempt per domain; adding [`retry`](CrawlOptions::retry) /
//! [`breakers`](CrawlOptions::breakers) turns on the resilient path,
//! which retries transient failures under a [`RetryPolicy`], honors
//! per-host [`HostBreakers`], and accounts its backoff against a
//! [`VirtualClock`] instead of sleeping. Every retry decision is a pure
//! function of `(policy seed, domain, attempt)`, so the resilient path is
//! exactly as deterministic as the single-attempt one.

use crate::client::fetch_attempt;
use crate::error::ErrorClass;

use crate::server::Connect;
use std::collections::BTreeMap;
use std::time::Instant;
use webvuln_exec::{charge_task, ExecStats, Executor, SuperviseConfig, TaskFailure};
use webvuln_resilience::{HostBreakers, RetryPolicy, VirtualClock};
use webvuln_telemetry::{Counter, Histogram, Registry};

/// Fail-point sites owned by this crate, for the chaos-harness catalog.
///
/// - `crawl.fetch` — probed at the top of every per-domain fetch, keyed
///   by the domain, *before* the breaker gate or any metric mutates:
///   an injected panic or error leaves no partial crawl state behind,
///   so injection is deterministic across thread counts. `Error`
///   yields a failed [`FetchRecord`], `Panic` crashes the task
///   (quarantined under supervision), `Delay(ns)` charges virtual task
///   cost toward the supervision deadline.
pub const FAILPOINTS: &[&str] = &["crawl.fetch"];

/// Outcome of fetching one domain's landing page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchRecord {
    /// The domain.
    pub domain: String,
    /// HTTP status (None when the connection failed).
    pub status: Option<u16>,
    /// Response body (empty on failure).
    pub body: String,
    /// Transport/protocol error rendered as text, if any.
    pub error: Option<String>,
    /// Classification of the final error, when there was one.
    pub error_class: Option<ErrorClass>,
    /// Fetch attempts made (1 on the single-attempt path; 0 when the
    /// domain was skipped because its circuit breaker was open).
    pub attempts: u32,
    /// True when the first attempt failed but a retry produced a usable
    /// response — the fetches a single-attempt crawler would have lost.
    pub recovered: bool,
}

impl FetchRecord {
    /// True when the fetch produced a usable page: 2xx status and a body
    /// of at least `min_bytes` (the paper prunes pages under 400 bytes as
    /// error/empty pages).
    pub fn is_usable(&self, min_bytes: usize) -> bool {
        matches!(self.status, Some(s) if (200..300).contains(&s)) && self.body.len() >= min_bytes
    }

    /// The record a quarantined task (panicked or over-deadline under
    /// supervision) leaves behind: failed, `attempts == 0`, mirroring a
    /// breaker-skipped host, with a deterministic `quarantined: …` error
    /// text.
    pub fn quarantined(domain: &str, failure: &TaskFailure) -> FetchRecord {
        FetchRecord::unfetched(domain, format!("quarantined: {}", failure.describe()))
    }

    /// A failed fetch of `domain` that never connected (`attempts == 0`).
    fn unfetched(domain: &str, error: String) -> FetchRecord {
        FetchRecord {
            domain: domain.to_string(),
            status: None,
            body: String::new(),
            error: Some(error),
            error_class: None,
            attempts: 0,
            recovered: false,
        }
    }
}

/// Per-crawl metric handles, registered once and recorded lock-free by
/// every worker thread.
struct CrawlerMetrics {
    fetches: Counter,
    errors: Counter,
    bytes: Counter,
    status_2xx: Counter,
    status_3xx: Counter,
    status_4xx: Counter,
    status_5xx: Counter,
    latency: Histogram,
}

/// What the crawl metrics count of one final record, taken before the
/// record is handed on.
struct Tally {
    status: Option<u16>,
    bytes: u64,
    /// The `net.errors_*_total` counter a failed fetch bites.
    cause: &'static str,
}

impl Tally {
    /// A task quarantined under supervision, as the failed fetch its
    /// record stands for.
    const QUARANTINED: Tally = Tally {
        status: None,
        bytes: 0,
        cause: "net.errors_quarantined_total",
    };

    fn of(record: &FetchRecord) -> Tally {
        // Each `ErrorClass` bites a distinct counter, and so do the
        // classless synthetic outcomes (injected fail-points, quarantines,
        // breaker skips): every failure mode is attributable from a
        // snapshot, not flattened into `net.fetch_errors_total`.
        let cause = match (record.error_class, record.error.as_deref()) {
            (Some(ErrorClass::Refused), _) => "net.errors_refused_total",
            (Some(ErrorClass::Timeout), _) => "net.errors_timeout_total",
            (Some(ErrorClass::Truncated), _) => "net.errors_truncated_total",
            (Some(ErrorClass::Protocol), _) => "net.errors_protocol_total",
            (Some(ErrorClass::Unreachable), _) => "net.errors_unreachable_total",
            (Some(ErrorClass::Io), _) => "net.errors_io_total",
            (None, Some(e)) if e.starts_with("injected:") => "net.errors_injected_total",
            (None, Some(e)) if e.starts_with("quarantined:") => "net.errors_quarantined_total",
            (None, Some(e)) if e.starts_with("skipped:") => "net.errors_breaker_skip_total",
            _ => "net.errors_other_total",
        };
        Tally {
            status: record.status,
            bytes: record.body.len() as u64,
            cause,
        }
    }
}

impl CrawlerMetrics {
    fn from_registry(registry: &Registry) -> CrawlerMetrics {
        CrawlerMetrics {
            fetches: registry.counter("net.fetches_total"),
            errors: registry.counter("net.fetch_errors_total"),
            bytes: registry.counter("net.bytes_total"),
            status_2xx: registry.counter("net.status_2xx_total"),
            status_3xx: registry.counter("net.status_3xx_total"),
            status_4xx: registry.counter("net.status_4xx_total"),
            status_5xx: registry.counter("net.status_5xx_total"),
            latency: registry.histogram("net.fetch_latency_ns"),
        }
    }

    fn record(&self, registry: &Registry, tally: Tally, elapsed_ns: u64) {
        self.fetches.inc();
        self.bytes.add(tally.bytes);
        self.latency.record(elapsed_ns);
        match tally.status {
            Some(s) if (200..300).contains(&s) => self.status_2xx.inc(),
            Some(s) if (300..400).contains(&s) => self.status_3xx.inc(),
            Some(s) if (400..500).contains(&s) => self.status_4xx.inc(),
            Some(_) => self.status_5xx.inc(),
            None => {
                self.errors.inc();
                // Per-cause counters, registered lazily so fault-free
                // snapshots keep their historical shape.
                registry.counter(tally.cause).inc();
            }
        }
    }
}

/// Metric handles for the resilient fetch path.
struct RetryMetrics {
    retries: Counter,
    retry_success: Counter,
    breaker_open: Counter,
    backoff_delay: Histogram,
}

impl RetryMetrics {
    fn from_registry(registry: &Registry) -> RetryMetrics {
        RetryMetrics {
            retries: registry.counter("net.retries_total"),
            retry_success: registry.counter("net.retry_success_total"),
            breaker_open: registry.counter("net.breaker_open_total"),
            backoff_delay: registry.histogram("net.backoff_delay_ns"),
        }
    }

    /// Accounts one retry: the backoff delay is computed from the policy
    /// and *recorded* by advancing the virtual clock rather than slept.
    /// Returns the delay so tracing can attribute it to the domain.
    fn note_backoff(
        &self,
        retry: &RetryPolicy,
        clock: &VirtualClock,
        domain: &str,
        failed_attempt: u32,
    ) -> u64 {
        self.retries.inc();
        let delay = retry.backoff_ns(domain, failed_attempt);
        clock.advance(delay);
        // Backoff also counts against the supervised per-task deadline:
        // virtual cost, never a sleep.
        charge_task(delay);
        self.backoff_delay.record(delay);
        delay
    }
}

/// Builder for one crawl: thread count, resilience, and telemetry compose
/// as orthogonal options, then [`run`](CrawlOptions::run) executes the
/// fetches on a worker pool and returns records in domain order.
///
/// ```no_run
/// # use webvuln_net::{CrawlOptions, VirtualNet, Request, Response, RetryPolicy};
/// # use std::sync::Arc;
/// # let net = VirtualNet::new(Arc::new(|_: &Request| Response::html("x")));
/// # let domains = vec!["a.example".to_string()];
/// let records = CrawlOptions::new()
///     .threads(8)
///     .retry(RetryPolicy::standard(2))
///     .run(&domains, &net);
/// ```
///
/// Defaults: 8 worker threads (`threads(0)` sizes the pool by
/// [`std::thread::available_parallelism`]), no retries, no breakers, a
/// private [`VirtualClock`], a private [`Registry`] nobody reads.
#[derive(Clone, Copy)]
pub struct CrawlOptions<'a> {
    threads: usize,
    retry: RetryPolicy,
    breakers: Option<&'a HostBreakers>,
    clock: Option<&'a VirtualClock>,
    registry: Option<&'a Registry>,
    supervise: Option<SuperviseConfig>,
}

impl Default for CrawlOptions<'_> {
    fn default() -> Self {
        CrawlOptions::new()
    }
}

impl<'a> CrawlOptions<'a> {
    /// Single-attempt crawl on the default 8-thread pool, its metrics
    /// going nowhere until [`registry`](CrawlOptions::registry) is set.
    pub fn new() -> CrawlOptions<'a> {
        CrawlOptions {
            threads: 8,
            retry: RetryPolicy::none(),
            breakers: None,
            clock: None,
            registry: None,
            supervise: None,
        }
    }

    /// Worker threads for the fetch pool. `0` sizes the pool by
    /// [`std::thread::available_parallelism`]. Thread count never changes
    /// the returned records — only how fast they arrive.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Retries transient failures (refused connections, timeouts,
    /// truncations, 5xx responses) under `retry`.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Skips hosts whose circuit breaker is open and records every fetch
    /// outcome against `breakers`.
    pub fn breakers(mut self, breakers: &'a HostBreakers) -> Self {
        self.breakers = Some(breakers);
        self
    }

    /// Accounts backoff delays against `clock` (simulated time) instead
    /// of a private throwaway clock.
    pub fn clock(mut self, clock: &'a VirtualClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Records `net.*` and `exec.*` metrics into `registry` instead of a
    /// private one dropped with the run.
    pub fn registry(mut self, registry: &'a Registry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Supervises every fetch task: panics and blown virtual deadlines
    /// are quarantined as [`TaskFailure`]s (surfaced by
    /// [`run_then`](CrawlOptions::run_then)) and the domain gets a
    /// deterministic failed [`FetchRecord`] instead of crashing the
    /// crawl. Quarantine counts surface as `exec.panics_total` /
    /// `exec.deadline_exceeded_total` / `exec.quarantined_total` (and
    /// `exec.stalls_total` from the watchdog).
    pub fn supervise(mut self, supervise: SuperviseConfig) -> Self {
        self.supervise = Some(supervise);
        self
    }

    /// True when any resilience feature is engaged — retry metrics are
    /// only published then, matching the historical split between the
    /// plain and resilient entry points.
    fn is_resilient(&self) -> bool {
        self.retry.retries() > 0 || self.breakers.is_some() || self.clock.is_some()
    }

    /// Fetches the landing page of every domain. Returns records in
    /// domain order — byte-identical for any thread count.
    ///
    /// Breaker-skipped domains still produce a [`FetchRecord`] (with
    /// `attempts == 0`) and still count toward `net.fetches_total` /
    /// `net.fetch_errors_total`, so coverage arithmetic stays uniform.
    /// On the resilient path `net.retries_total`,
    /// `net.retry_success_total`, `net.breaker_open_total` and the
    /// `net.backoff_delay_ns` histogram are published too. A task that
    /// [`supervise`](CrawlOptions::supervise) quarantined still yields a
    /// record — failed, with a deterministic `quarantined: …` error text
    /// and `attempts == 0` — so downstream coverage arithmetic and
    /// carry-forward treat it exactly like a host that was down that week.
    pub fn run(
        &self,
        domains: &[String],
        connector: &dyn Connect,
    ) -> BTreeMap<String, FetchRecord> {
        let (records, stats, failures) = self.run_then(domains, connector, |record| record);
        stats.record(self.registry.unwrap_or(&Registry::new()));
        let mut quarantined = failures.iter();
        let records = domains.iter().zip(records).map(|(domain, record)| {
            let record = record.unwrap_or_else(|| {
                let failure = quarantined.next().expect("a failure per empty slot");
                FetchRecord::quarantined(domain, failure)
            });
            (record.domain.clone(), record)
        });
        records.collect()
    }

    /// Fetches the landing page of every domain on the pool and hands
    /// each record to `then` in the task that fetched it, so whatever
    /// `then` keeps of a page is all that outlives the task. Returns
    /// `then`'s results in `domains` order — `None` where supervision
    /// quarantined the task, fetch or `then` alike — with the pool's
    /// statistics (not yet recorded) and the quarantined
    /// [`TaskFailure`]s in index order. The `net.*` metrics are recorded
    /// here, once per final record, a quarantined one as the failed
    /// fetch it stands for, so a task that completes but blows its
    /// deadline is not double-counted.
    pub fn run_then<R: Send>(
        &self,
        domains: &[String],
        connector: &dyn Connect,
        then: impl Fn(FetchRecord) -> R + Sync,
    ) -> (Vec<Option<R>>, ExecStats, Vec<TaskFailure>) {
        let private = Registry::new();
        let registry = self.registry.unwrap_or(&private);
        let metrics = CrawlerMetrics::from_registry(registry);
        // The plain path keeps retry counters out of the caller's
        // registry (they would all be zero); a scratch registry absorbs
        // the handles.
        let scratch;
        let retry_metrics = if self.is_resilient() {
            RetryMetrics::from_registry(registry)
        } else {
            scratch = Registry::new();
            RetryMetrics::from_registry(&scratch)
        };
        let owned_clock;
        let clock = match self.clock {
            Some(clock) => clock,
            None => {
                owned_clock = VirtualClock::new();
                &owned_clock
            }
        };
        let fetch = |domain: &String| {
            let started = Instant::now();
            let record = fetch_domain_resilient(
                connector,
                domain,
                &self.retry,
                self.breakers,
                clock,
                &retry_metrics,
            );
            let elapsed_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            (Tally::of(&record), elapsed_ns, then(record))
        };
        let executor = Executor::new(self.threads);
        let (outcomes, stats, failures) = match self.supervise {
            Some(supervise) => executor.map_supervised(domains, supervise, fetch),
            None => {
                let (outcomes, stats) = executor.map_with_stats(domains, fetch);
                (outcomes.into_iter().map(Some).collect(), stats, Vec::new())
            }
        };
        let values = outcomes.into_iter().map(|outcome| {
            let (tally, elapsed_ns, value) =
                outcome.map_or((Tally::QUARANTINED, 0, None), |(t, ns, v)| (t, ns, Some(v)));
            metrics.record(registry, tally, elapsed_ns);
            value
        });
        (values.collect(), stats, failures)
    }
}

/// Nominal deterministic cost of one connection attempt, used for trace
/// timeline layout and "slowest domain" ranking. Wall time would differ
/// run to run; a domain's *deterministic* cost is its virtual backoff
/// plus this per-attempt charge.
const ATTEMPT_COST_NS: u64 = 1_000_000;

/// The full resilient fetch: breaker gate, retry loop, outcome recording.
/// When tracing is on, the whole lifecycle — fail-point hits, breaker
/// skips, each backoff, the final outcome — is emitted as trace events
/// and attributed to the domain via [`webvuln_telemetry::trace::domain_stat_add`].
fn fetch_domain_resilient(
    connector: &dyn Connect,
    domain: &str,
    retry: &RetryPolicy,
    breakers: Option<&HostBreakers>,
    clock: &VirtualClock,
    metrics: &RetryMetrics,
) -> FetchRecord {
    // A trace detail is formatted only when a tracer may record it.
    use webvuln_telemetry::trace::{domain_stat_add, emit, enabled, DomainStat, Sink};

    // Ring-only breadcrumb before the fail-point probe: an injected
    // panic's flight-recorder tail always names the domain it hit.
    emit("fetch.begin", domain, "", 0, Sink::RingOnly);
    let mut stat = DomainStat {
        fetches: 1,
        ..DomainStat::default()
    };
    // Probed before the breaker gate or any counter mutates, so an
    // injected crash leaves no partial state and the outcome is
    // identical for every thread count.
    match webvuln_failpoint::failpoint!("crawl.fetch", domain) {
        Ok(0) => {}
        Ok(delay_ns) => {
            charge_task(delay_ns);
            stat.failpoints += 1;
            stat.cost_ns += delay_ns;
            emit("fetch.failpoint", domain, "delay", delay_ns, Sink::Export);
        }
        Err(injected) => {
            stat.failpoints += 1;
            stat.errors += 1;
            emit(
                "fetch.injected",
                domain,
                &injected.to_string(),
                0,
                Sink::Export,
            );
            domain_stat_add(domain, stat);
            return FetchRecord::unfetched(domain, format!("injected: {injected}"));
        }
    }
    if let Some(breakers) = breakers {
        if !breakers.allow(domain) {
            metrics.breaker_open.inc();
            stat.breaker_skips += 1;
            emit("fetch.breaker_open", domain, "skipped", 0, Sink::Export);
            domain_stat_add(domain, stat);
            // No breaker.record: a skipped host learns nothing; the
            // collector's round tick moves it toward half-open.
            let skipped = "skipped: circuit breaker open".to_string();
            return FetchRecord::unfetched(domain, skipped);
        }
    }

    let mut attempts = 0u32;
    let (status, body, error, error_class) = loop {
        attempts += 1;
        match fetch_attempt(connector, domain, "/", attempts - 1) {
            // 5xx responses are retryable at the HTTP level: the server
            // answered, but with a failure a later attempt may outlive.
            Ok(response) if response.status.0 >= 500 && retry.allows_retry(attempts) => {
                let delay = metrics.note_backoff(retry, clock, domain, attempts - 1);
                stat.backoff_ns += delay;
                if enabled() {
                    let detail = format!("5xx attempt={attempts}");
                    emit("fetch.retry", domain, &detail, delay, Sink::Export);
                }
            }
            Ok(response) => {
                // The decoded body is moved, not copied, when it is UTF-8.
                let body = String::from_utf8(response.body)
                    .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
                break (Some(response.status.0), body, None, None);
            }
            Err(e) if e.is_retryable() && retry.allows_retry(attempts) => {
                let delay = metrics.note_backoff(retry, clock, domain, attempts - 1);
                stat.backoff_ns += delay;
                if enabled() {
                    let detail = format!("{} attempt={attempts}", e.class());
                    emit("fetch.retry", domain, &detail, delay, Sink::Export);
                }
            }
            // Permanent failures and exhausted budgets alike count as
            // inaccessible — the paper's filter does not distinguish them.
            Err(e) => {
                let class = e.class();
                break (
                    None,
                    String::new(),
                    Some(format!("{class}: {e}")),
                    Some(class),
                );
            }
        }
    };

    let usable_outcome = error.is_none() && matches!(status, Some(s) if s < 500);
    let recovered = attempts > 1 && usable_outcome;
    if recovered {
        metrics.retry_success.inc();
    }
    if let Some(breakers) = breakers {
        // Any HTTP response (even 4xx/5xx) proves the host is alive;
        // only transport-level failures count against the breaker.
        breakers.record(domain, status.is_some());
    }
    stat.attempts += attempts as u64;
    stat.retries += attempts.saturating_sub(1) as u64;
    stat.errors += error.is_some() as u64;
    stat.cost_ns += stat.backoff_ns + attempts as u64 * ATTEMPT_COST_NS;
    if enabled() {
        let detail = match (&status, &error_class) {
            (Some(s), _) => format!("status={s} attempts={attempts} recovered={recovered}"),
            (None, Some(class)) => format!("error={class} attempts={attempts}"),
            (None, None) => format!("failed attempts={attempts}"),
        };
        emit("fetch.outcome", domain, &detail, stat.cost_ns, Sink::Export);
    }
    domain_stat_add(domain, stat);
    FetchRecord {
        domain: domain.to_string(),
        status,
        body,
        error,
        error_class,
        attempts,
        recovered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::http::{Request, Response, Status};
    use crate::virtual_net::VirtualNet;
    use std::sync::Arc;
    use webvuln_exec::FailureKind;
    use webvuln_resilience::BreakerConfig;
    use webvuln_telemetry::trace;

    fn domains(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("site{i:04}.example")).collect()
    }

    fn content_handler() -> Arc<dyn crate::server::Handler> {
        Arc::new(|req: &Request| {
            let host = req.host().unwrap_or("?").to_string();
            if host.ends_with("7.example") {
                // Simulated anti-bot block.
                Response::status(Status::FORBIDDEN)
            } else {
                Response::html(format!("<html><body>{}</body></html>", "x".repeat(500)))
            }
        })
    }

    #[test]
    fn crawl_covers_every_domain() {
        let net = VirtualNet::new(content_handler());
        let ds = domains(50);
        let got = CrawlOptions::new().threads(4).run(&ds, &net);
        assert_eq!(got.len(), 50);
        for d in &ds {
            assert!(got.contains_key(d), "{d} missing");
        }
    }

    #[test]
    fn status_codes_are_recorded() {
        let net = VirtualNet::new(content_handler());
        let ds = domains(20);
        let got = CrawlOptions::new().run(&ds, &net);
        assert_eq!(got["site0007.example"].status, Some(403));
        assert_eq!(got["site0001.example"].status, Some(200));
        assert!(got["site0001.example"].is_usable(400));
        assert!(!got["site0007.example"].is_usable(400));
        assert_eq!(got["site0001.example"].attempts, 1);
        assert!(!got["site0001.example"].recovered);
    }

    #[test]
    fn crawl_is_deterministic_across_concurrency_levels() {
        let ds = domains(64);
        let run = |workers: usize, seed: u64| {
            let net = VirtualNet::new(content_handler()).with_faults(FaultPlan::realistic(seed));
            CrawlOptions::new().threads(workers).run(&ds, &net)
        };
        let a = run(1, 99);
        let b = run(8, 99);
        assert_eq!(a, b, "results must not depend on scheduling");
        let c = run(8, 100);
        assert_ne!(a, c, "different fault seeds change outcomes");
    }

    #[test]
    fn connection_failures_become_error_records() {
        let net = VirtualNet::new(content_handler()).with_faults(FaultPlan {
            seed: 5,
            connect_fail_permille: 1000, // everything refused
            ..FaultPlan::none()
        });
        let got = CrawlOptions::new().run(&domains(10), &net);
        for (_, rec) in got {
            assert_eq!(rec.status, None);
            assert!(rec.error.is_some());
            assert_eq!(rec.error_class, Some(ErrorClass::Refused));
            assert!(!rec.is_usable(400));
        }
    }

    #[test]
    fn truncated_responses_surface_as_errors() {
        // Every host truncates, but the cut point (64..1024 bytes) only
        // bites when it falls inside the ~600-byte response — so some
        // domains fail mid-body and the rest survive intact.
        let net = VirtualNet::new(content_handler()).with_faults(FaultPlan {
            seed: 6,
            truncate_permille: 1000,
            ..FaultPlan::none()
        });
        let got = CrawlOptions::new().run(&domains(40), &net);
        let failed = got.values().filter(|r| r.error.is_some()).count();
        let succeeded = got.values().filter(|r| r.error.is_none()).count();
        assert!(failed > 0, "some responses must be cut mid-body");
        assert!(succeeded > 0, "cut points past the body leave pages intact");
        for r in got.values().filter(|r| r.error.is_some()) {
            assert_eq!(r.status, None);
            assert!(r.body.is_empty());
            assert_eq!(r.error_class, Some(ErrorClass::Truncated));
        }
    }

    #[test]
    fn single_domain_single_worker() {
        let net = VirtualNet::new(content_handler());
        let got = CrawlOptions::new()
            .threads(16)
            .run(&["one.example".to_string()], &net);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn empty_domain_list() {
        let net = VirtualNet::new(content_handler());
        let got = CrawlOptions::new().run(&[], &net);
        assert!(got.is_empty());
    }

    #[test]
    fn instrumented_crawl_accounts_every_fetch() {
        let registry = webvuln_telemetry::Registry::new();
        let net = VirtualNet::new(content_handler());
        let ds = domains(30);
        let got = CrawlOptions::new()
            .threads(4)
            .registry(&registry)
            .run(&ds, &net);
        let blocked = got.values().filter(|r| r.status == Some(403)).count();
        let bytes: u64 = got.values().map(|r| r.body.len() as u64).sum();

        let snap = registry.snapshot();
        assert_eq!(snap.counter("net.fetches_total"), Some(30));
        assert_eq!(
            snap.counter("net.status_2xx_total"),
            Some(30 - blocked as u64)
        );
        assert_eq!(snap.counter("net.status_4xx_total"), Some(blocked as u64));
        assert_eq!(snap.counter("net.bytes_total"), Some(bytes));
        assert_eq!(snap.counter("net.fetch_errors_total"), Some(0));
        let latency = snap.histogram("net.fetch_latency_ns").expect("histogram");
        assert_eq!(latency.count, 30);
        // The plain path publishes no retry counters, but the executor
        // always accounts its scheduling.
        assert_eq!(snap.counter("net.retries_total"), None);
        assert!(snap.counter("exec.tasks_total").unwrap_or(0) > 0);
        assert_eq!(snap.gauge("exec.workers"), Some(4));
        let busy = snap.histogram("exec.worker_busy_ns").expect("histogram");
        assert_eq!(busy.count, 4, "one busy sample per worker");
    }

    #[test]
    fn instrumented_crawl_counts_connection_errors() {
        let registry = webvuln_telemetry::Registry::new();
        let net = VirtualNet::new(content_handler())
            .with_fault_metrics(&registry)
            .with_faults(FaultPlan {
                seed: 5,
                connect_fail_permille: 1000,
                ..FaultPlan::none()
            });
        let got = CrawlOptions::new()
            .registry(&registry)
            .run(&domains(12), &net);
        assert_eq!(got.len(), 12);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("net.fetch_errors_total"), Some(12));
        assert_eq!(snap.counter("net.faults_refused_total"), Some(12));
        assert_eq!(snap.counter("net.status_2xx_total"), Some(0));
    }

    #[test]
    fn retries_recover_transiently_refused_hosts() {
        let registry = webvuln_telemetry::Registry::new();
        let plan = FaultPlan {
            seed: 31,
            transient_fail_permille: 1000, // every host flaps this week
            heal_after_attempts: 2,
            ..FaultPlan::none()
        };
        let ds = domains(16);

        // Single attempt: everything is lost.
        let net = VirtualNet::new(content_handler()).with_faults(plan);
        let once = CrawlOptions::new().registry(&registry).run(&ds, &net);
        assert!(once.values().all(|r| r.status.is_none()));

        // Two retries out-wait the two-attempt fault: everything heals.
        let registry = webvuln_telemetry::Registry::new();
        let net = VirtualNet::new(content_handler()).with_faults(plan);
        let clock = VirtualClock::new();
        let got = CrawlOptions::new()
            .retry(RetryPolicy::standard(2))
            .clock(&clock)
            .registry(&registry)
            .run(&ds, &net);
        let usable = got.values().filter(|r| r.is_usable(400)).count();
        let blocked = got.values().filter(|r| r.status == Some(403)).count();
        assert_eq!(usable + blocked, 16, "every host answered after retries");
        for r in got.values() {
            assert_eq!(r.attempts, 3);
            assert!(r.recovered);
            assert!(r.error.is_none());
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("net.retries_total"), Some(32), "2 × 16");
        assert_eq!(snap.counter("net.retry_success_total"), Some(16));
        assert_eq!(snap.counter("net.breaker_open_total"), Some(0));
        let delays = snap.histogram("net.backoff_delay_ns").expect("histogram");
        assert_eq!(delays.count, 32);
        assert!(clock.now_ns() > 0, "backoff advanced simulated time");
    }

    #[test]
    fn flaky_5xx_responses_are_retried_at_the_http_level() {
        let plan = FaultPlan {
            seed: 32,
            flaky_5xx_permille: 1000,
            heal_after_attempts: 1,
            ..FaultPlan::none()
        };
        let net = VirtualNet::new(content_handler()).with_faults(plan);
        let registry = webvuln_telemetry::Registry::new();
        let got = CrawlOptions::new()
            .threads(2)
            .retry(RetryPolicy::standard(1))
            .registry(&registry)
            .run(&domains(8), &net);
        for r in got.values() {
            assert_ne!(r.status, Some(503), "the 503 burst healed");
            assert_eq!(r.attempts, 2);
        }
        assert_eq!(
            registry.snapshot().counter("net.retry_success_total"),
            Some(8)
        );
    }

    #[test]
    fn permanent_failures_exhaust_the_budget_and_stay_failed() {
        let plan = FaultPlan {
            seed: 33,
            connect_fail_permille: 1000,
            ..FaultPlan::none()
        };
        let net = VirtualNet::new(content_handler()).with_faults(plan);
        let registry = webvuln_telemetry::Registry::new();
        let got = CrawlOptions::new()
            .retry(RetryPolicy::standard(3))
            .registry(&registry)
            .run(&domains(5), &net);
        for r in got.values() {
            assert_eq!(r.status, None);
            assert_eq!(r.attempts, 4, "budget exhausted");
            assert!(!r.recovered);
            assert_eq!(r.error_class, Some(ErrorClass::Refused));
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("net.retries_total"), Some(15), "3 × 5");
        assert_eq!(snap.counter("net.retry_success_total"), Some(0));
    }

    #[test]
    fn open_breakers_skip_fetches_entirely() {
        let plan = FaultPlan {
            seed: 34,
            connect_fail_permille: 1000,
            ..FaultPlan::none()
        };
        // Cooldown counts the tripping round as the first open round, so
        // a 2-round cooldown skips exactly one full crawl round.
        let breakers = HostBreakers::new(BreakerConfig {
            failure_threshold: 2,
            cooldown_rounds: 2,
        });
        let ds = domains(4);
        let registry = webvuln_telemetry::Registry::new();
        let clock = VirtualClock::new();
        let round = |registry: &webvuln_telemetry::Registry| {
            let net = VirtualNet::new(content_handler()).with_faults(plan);
            let got = CrawlOptions::new()
                .threads(1)
                .breakers(&breakers)
                .clock(&clock)
                .registry(registry)
                .run(&ds, &net);
            breakers.tick_round();
            got
        };

        round(&registry); // failure 1
        round(&registry); // failure 2: breakers open
        let skipped = round(&registry); // round 3: skipped, cooldown runs
        for r in skipped.values() {
            assert_eq!(r.attempts, 0, "breaker-skipped, no connect");
            assert!(r.error.as_deref().unwrap().contains("circuit breaker"));
        }
        assert_eq!(
            registry.snapshot().counter("net.breaker_open_total"),
            Some(4)
        );
        // After the cooldown round the breaker is half-open: probes flow.
        let probed = round(&registry);
        for r in probed.values() {
            assert_eq!(r.attempts, 1, "half-open admits a probe");
        }
    }

    #[test]
    fn resilient_crawl_is_deterministic_across_concurrency() {
        let ds = domains(48);
        let run = |workers: usize| {
            let net = VirtualNet::new(content_handler())
                .with_week(9)
                .with_faults(FaultPlan::hostile(77));
            let clock = VirtualClock::new();
            let registry = webvuln_telemetry::Registry::new();
            let got = CrawlOptions::new()
                .threads(workers)
                .retry(RetryPolicy::standard(3))
                .clock(&clock)
                .registry(&registry)
                .run(&ds, &net);
            (got, clock.now_ns())
        };
        let (a, clock_a) = run(1);
        let (b, clock_b) = run(8);
        assert_eq!(a, b, "records identical regardless of scheduling");
        assert_eq!(clock_a, clock_b, "total simulated backoff identical");
    }

    /// Serializes tests that arm the global `crawl.fetch` fail-point —
    /// a site holds one arm at a time. The keyed victims use a
    /// `quarantine-` prefix no other test's domain list contains, so
    /// concurrent unsupervised crawls can never trip an armed site.
    static CRAWL_FP_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn quarantine_domains(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("quarantine-{i:02}.example"))
            .collect()
    }

    #[test]
    fn supervised_crawl_quarantines_a_panicking_domain() {
        let _guard = CRAWL_FP_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let victim = "quarantine-05.example";
        webvuln_failpoint::arm_key("crawl.fetch", victim, webvuln_failpoint::Action::Panic);
        let ds = quarantine_domains(24);
        let run = |workers: usize| {
            let net = VirtualNet::new(content_handler()).with_week(3);
            let registry = webvuln_telemetry::Registry::new();
            let options = CrawlOptions::new()
                .threads(workers)
                .supervise(SuperviseConfig::new());
            let records = options.registry(&registry).run(&ds, &net);
            let (_, _, failures) = options.run_then(&ds, &net, drop);
            (records, failures, registry.snapshot())
        };
        let (records, failures, snapshot) = run(1);
        let (records8, failures8, _) = run(8);
        webvuln_failpoint::disarm("crawl.fetch");

        assert_eq!(records, records8, "quarantine is thread-count independent");
        assert_eq!(failures, failures8);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].kind, FailureKind::Panic);
        let bad = &records[victim];
        assert_eq!(bad.status, None);
        assert_eq!(bad.attempts, 0);
        assert!(
            bad.error
                .as_deref()
                .unwrap()
                .starts_with("quarantined: panic:"),
            "error: {:?}",
            bad.error
        );
        // Every other domain fetched normally.
        assert_eq!(records.len(), 24);
        assert!(records
            .iter()
            .filter(|(d, _)| d.as_str() != victim)
            .all(|(_, r)| r.status.is_some()));
        assert_eq!(snapshot.counter("exec.panics_total"), Some(1));
        assert_eq!(snapshot.counter("exec.quarantined_total"), Some(1));
        assert_eq!(snapshot.counter("net.fetches_total"), Some(24));
    }

    #[test]
    fn supervised_deadline_quarantines_injected_slowness() {
        let _guard = CRAWL_FP_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let victim = "quarantine-11.example";
        webvuln_failpoint::arm_key(
            "crawl.fetch",
            victim,
            webvuln_failpoint::Action::Delay(10_000_000),
        );
        let ds = quarantine_domains(16);
        let net = VirtualNet::new(content_handler());
        let options = CrawlOptions::new()
            .threads(4)
            .supervise(SuperviseConfig::new().deadline_ns(1_000_000));
        let records = options.run(&ds, &net);
        let (_, _, failures) = options.run_then(&ds, &net, drop);
        webvuln_failpoint::disarm("crawl.fetch");
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].kind, FailureKind::DeadlineExceeded);
        assert_eq!(failures[0].elapsed_ns, 10_000_000);
        assert!(records[victim]
            .error
            .as_deref()
            .unwrap()
            .contains("exceeded deadline"));
    }

    #[test]
    fn every_net_error_variant_bites_a_distinct_counter() {
        use crate::error::NetError;
        use std::io;

        // One NetError per variant (and per distinguishable Io kind);
        // each must land in its own net.errors_*_total counter, and the
        // class counters must sum to net.fetch_errors_total — no variant
        // silently drops into the aggregate.
        let variants: Vec<NetError> = vec![
            NetError::Io(io::Error::new(io::ErrorKind::ConnectionRefused, "x")),
            NetError::Io(io::Error::new(io::ErrorKind::TimedOut, "x")),
            NetError::Io(io::Error::new(io::ErrorKind::BrokenPipe, "x")),
            NetError::Malformed("header"),
            NetError::TooLarge("body"),
            NetError::UnexpectedEof,
            NetError::HostUnreachable("h.example".to_string()),
            NetError::Timeout,
        ];
        let registry = webvuln_telemetry::Registry::new();
        let metrics = CrawlerMetrics::from_registry(&registry);
        let failed = |error: Option<String>, class: Option<ErrorClass>| FetchRecord {
            domain: "d.example".to_string(),
            status: None,
            body: String::new(),
            error,
            error_class: class,
            attempts: 1,
            recovered: false,
        };
        for e in &variants {
            let class = e.class();
            metrics.record(
                &registry,
                Tally::of(&failed(Some(format!("{class}: {e}")), Some(class))),
                0,
            );
        }
        // The three classless synthetic outcomes bite distinct counters too.
        for synthetic in [
            "injected: error",
            "quarantined: panic: boom",
            "skipped: circuit breaker open",
        ] {
            let record = failed(Some(synthetic.into()), None);
            metrics.record(&registry, Tally::of(&record), 0);
        }

        let snap = registry.snapshot();
        let by_class = [
            ("net.errors_refused_total", 1),
            ("net.errors_timeout_total", 2),
            ("net.errors_io_total", 1),
            ("net.errors_protocol_total", 2),
            ("net.errors_truncated_total", 1),
            ("net.errors_unreachable_total", 1),
            ("net.errors_injected_total", 1),
            ("net.errors_quarantined_total", 1),
            ("net.errors_breaker_skip_total", 1),
        ];
        let mut accounted = 0;
        for (name, expected) in by_class {
            assert_eq!(snap.counter(name), Some(expected), "{name}");
            accounted += expected;
        }
        assert_eq!(
            snap.counter("net.fetch_errors_total"),
            Some(accounted),
            "every error is attributed exactly once"
        );
        assert_eq!(
            snap.counter("net.errors_other_total"),
            None,
            "nothing fell through"
        );
    }

    #[test]
    fn traced_crawl_attributes_cost_to_domains() {
        let tracer = trace::Tracer::new(trace::TraceMode::Full);
        {
            let _g = tracer.install();
            let _p = trace::phase_scope("crawl");
            let plan = FaultPlan {
                seed: 31,
                transient_fail_permille: 1000,
                heal_after_attempts: 2,
                ..FaultPlan::none()
            };
            let net = VirtualNet::new(content_handler()).with_faults(plan);
            let clock = VirtualClock::new();
            CrawlOptions::new()
                .threads(4)
                .retry(RetryPolicy::standard(2))
                .clock(&clock)
                .registry(&webvuln_telemetry::Registry::new())
                .run(&domains(6), &net);
        }
        let data = tracer.finish();
        // Every domain's lifecycle: 2 retries + 1 outcome exported.
        assert_eq!(data.domains.len(), 6);
        for (domain, stat) in &data.domains {
            assert_eq!(stat.fetches, 1, "{domain}");
            assert_eq!(stat.attempts, 3, "{domain}");
            assert_eq!(stat.retries, 2, "{domain}");
            assert!(stat.backoff_ns > 0, "{domain}");
            assert_eq!(
                stat.cost_ns,
                stat.backoff_ns + 3 * ATTEMPT_COST_NS,
                "{domain}"
            );
            assert_eq!(stat.errors, 0, "{domain}");
        }
        let retries = data
            .events
            .iter()
            .filter(|e| e.name == "fetch.retry")
            .count();
        let outcomes = data
            .events
            .iter()
            .filter(|e| e.name == "fetch.outcome")
            .count();
        assert_eq!(retries, 12, "2 per domain");
        assert_eq!(outcomes, 6);
        assert!(data
            .events
            .iter()
            .all(|e| e.phase == "crawl" && e.task != trace::NONE));
    }

    #[test]
    fn resilient_crawl_with_no_retries_matches_plain_crawl() {
        let ds = domains(32);
        let plan = FaultPlan::realistic(55);
        let plain = {
            let net = VirtualNet::new(content_handler()).with_faults(plan);
            CrawlOptions::new().run(&ds, &net)
        };
        let resilient = {
            let net = VirtualNet::new(content_handler()).with_faults(plan);
            CrawlOptions::new()
                .clock(&VirtualClock::new())
                .registry(&webvuln_telemetry::Registry::new())
                .run(&ds, &net)
        };
        assert_eq!(plain, resilient);
    }
}
