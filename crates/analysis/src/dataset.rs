//! Dataset collection (paper §4): crawl every weekly snapshot of the
//! (synthetic) web over the real HTTP stack, fingerprint every usable
//! landing page, and apply the inaccessible-domain filter.

use crate::filter::FilterWindow;
use crate::store_io::{
    commit_checkpoint, date_from_days, genesis_for, open_checkpoint, page_into_record,
    CheckpointOutcome, StoreError,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use webvuln_cvedb::Date;
use webvuln_exec::{ExecStats, Executor};
use webvuln_fingerprint::{Engine, PageAnalysis};
use webvuln_net::{
    page_is_error_or_empty, BreakerConfig, CrawlOptions, FaultPlan, FetchRecord, FetchSummary,
    HostBreakers, RetryPolicy, VirtualClock, VirtualNet,
};
use webvuln_store::{AnyReader, DomainRecord, PageRecord, StoreWriter, WeekData};
use webvuln_telemetry::trace::{self, Sink};
use webvuln_telemetry::{Counter, Telemetry};
use webvuln_webgen::{Ecosystem, Timeline};

/// One analysed weekly snapshot.
#[derive(Debug, Clone)]
pub struct WeekSnapshot {
    /// Snapshot index.
    pub(crate) week: usize,
    /// Snapshot date.
    pub(crate) date: Date,
    /// Fingerprinted pages of domains that served usable content this
    /// week, plus carried-forward pages for domains that were down (see
    /// [`WeekSnapshot::carried_forward`]).
    pub pages: BTreeMap<String, PageAnalysis>,
    /// Fetch summaries for every attempted domain (filter input).
    pub summaries: BTreeMap<String, FetchSummary>,
    /// Domains whose page this week is a copy of their last usable
    /// snapshot (graceful degradation: the domain stayed down all week).
    /// Their summaries still record the true failed fetch, so the
    /// inaccessibility filter is unaffected.
    pub carried_forward: BTreeSet<String>,
}

impl WeekSnapshot {
    /// Number of collected pages (Figure 2(a)'s series), including any
    /// carried-forward pages.
    pub fn collected(&self) -> usize {
        self.pages.len()
    }
}

/// What a study is about, beside its weeks: the timeline, the rank list
/// and the §4.1 verdict. The weeks themselves are in the store the run
/// committed ([`CheckpointOutcome::reader`]).
#[derive(Debug)]
pub struct Dataset {
    /// The snapshot timeline.
    pub timeline: Timeline,
    /// Alexa-style rank per domain (1-based).
    pub ranks: BTreeMap<String, usize>,
    /// Domains removed by the §4.1 inaccessibility filter.
    pub filtered_out: Vec<String>,
}

/// Collection configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectConfig {
    /// Worker threads for the crawl and fingerprint pools. `0` sizes the
    /// pools by [`std::thread::available_parallelism`]. Thread count never
    /// changes the dataset — only how fast it arrives.
    pub concurrency: usize,
    /// Connection-level fault plan for the virtual internet.
    pub faults: FaultPlan,
    /// Retry policy for each weekly fetch (default: single attempt).
    pub retry: RetryPolicy,
    /// Per-host circuit breakers across weeks (default: none).
    pub breaker: Option<BreakerConfig>,
    /// Carry a domain's last usable page forward through weeks where it
    /// stays down (default: off — missing weeks stay missing).
    pub carry_forward: bool,
    /// Supervised execution with a run-wide quarantine budget: every
    /// crawl and fingerprint task runs under `catch_unwind`, and a panic
    /// leaves its domain down that week — a failed [`FetchRecord`],
    /// eligible for carry-forward — instead of aborting the run (default:
    /// off — panics propagate). More than this many quarantined tasks
    /// fail collection with [`StoreError::FailureBudgetExceeded`].
    pub max_task_failures: Option<u64>,
    /// Shard count for the checkpoint store (default 1 — a single
    /// `.wvstore` file). With 2 or more, the checkpoint path is a
    /// directory of domain-hash shard files committed in parallel under
    /// one manifest epoch; 0 is treated as 1. No effect without a
    /// checkpoint store: a store kept in memory is one file.
    pub shards: usize,
}

impl Default for CollectConfig {
    fn default() -> Self {
        CollectConfig {
            concurrency: 8,
            faults: FaultPlan::none(),
            retry: RetryPolicy::none(),
            breaker: None,
            carry_forward: false,
            max_task_failures: None,
            shards: 1,
        }
    }
}

/// Collects the dataset: the §4 pipeline end to end — HTTP fetch
/// (through the full wire codec), the 400-byte/4xx usability rule,
/// Wappalyzer-style fingerprinting, a commit of every week to the snapshot
/// store, and the trailing-month inaccessibility filter. `telemetry`
/// records the crawl/fingerprint metrics, per-week phase spans and weekly
/// progress events.
///
/// The one collection loop: restore and replay what a resumed store
/// already holds; per remaining week collect, commit, and feed the filter
/// window; then take the §4.1 verdict, finalize the store and open it for
/// reading. Every week is committed — to the store at `store`, or to one
/// kept in memory — and dropped, so what the run holds is the weeks in
/// flight, the window and the store. A finalized store is this loop with
/// no week left to crawl.
///
/// With `resume` set and a store present, committed weeks are restored
/// from disk (after torn-tail recovery) and only the missing ones are
/// crawled; the restored crawl is byte-for-byte the crawl that produced
/// them, because collection is deterministic in the ecosystem seed. The
/// store must have been created from the same ecosystem — timeline and
/// domain list are checked against its genesis segment.
///
/// A run without a store fails only under
/// [`CollectConfig::max_task_failures`], when quarantined tasks exceed
/// the budget.
pub fn collect(
    ecosystem: &Arc<Ecosystem>,
    config: &CollectConfig,
    telemetry: &Telemetry,
    store: Option<&Path>,
    resume: bool,
) -> Result<CheckpointOutcome, StoreError> {
    let config = *config;
    let timeline = *ecosystem.timeline();
    let names = ecosystem.domain_names();
    let genesis = genesis_for(&timeline, &names);

    let (mut writer, reader) = match store {
        Some(path) => open_checkpoint(path, genesis, &config, resume, telemetry)?,
        None => (StoreWriter::in_memory(genesis)?.into(), None),
    };
    let weeks_recovered = reader.as_ref().map_or(0, AnyReader::weeks_committed);
    let stored_verdict = reader.as_ref().and_then(AnyReader::filtered_out);
    if stored_verdict.is_some() && weeks_recovered != timeline.weeks {
        return Err(StoreError::Mismatch(format!(
            "store is finalized but holds {weeks_recovered} of {} weeks",
            timeline.weeks
        )));
    }

    let mut collector = WeekCollector::new(ecosystem, config, telemetry);
    let mut window = FilterWindow::new(&names);
    let mut absorb = |week: &WeekData, note: &str| -> Result<(), StoreError> {
        let pages = week.records.iter().filter(|r| r.page.is_some()).count();
        let date = date_from_days(week.date_days)?;
        let (done, total) = (week.week as u64 + 1, timeline.weeks as u64);
        let detail = format!("{date}: {pages} pages{note}");
        telemetry.progress("crawl", done, total, &detail);
        let fetched = week.records.iter();
        window.absorb(fetched.map(|r| (r.host.as_str(), r.status, r.body_len as usize)));
        Ok(())
    };

    // Replaying the restored weeks, one decoded week in flight, puts
    // the week-to-week state — circuit breakers, carry-forward
    // baselines, the filter window — exactly where the interrupted
    // run left it, straight off the stored records.
    for week in reader.iter().flat_map(AnyReader::stream) {
        let week = week?;
        collector.replay_week(&week);
        absorb(&week, " (restored from store)")?;
    }

    // Scheduling: weeks that share no state (no circuit breakers, no
    // carry-forward, so nothing to settle) are collected a whole week
    // per pool worker, each week single-threaded so the pool is not
    // oversubscribed, and committed in order while later weeks are
    // still collected; otherwise one week at a time with the pool
    // inside the week. Either way each week is dropped once committed.
    // Same `collect_week`, same records — the fan-out is kept because
    // it measured faster (CHANGES.md), not for what it computes.
    let remaining: Vec<(usize, Date)> = timeline.iter().skip(weeks_recovered).collect();
    let mut commit = |week: &WeekData| -> Result<(), StoreError> {
        commit_checkpoint(&mut writer, week, telemetry)?;
        absorb(week, "")
    };
    let registry = telemetry.registry();
    if collector.weeks_are_independent() && config.concurrency != 1 {
        let collect = |&(week, date): &(usize, Date)| {
            let (week, mut stats) = collector.collect_week(week, date, 1, telemetry);
            // The week ran on one pool worker, whose busy time the
            // outer map counts.
            stats.worker_busy_ns.clear();
            stats.record(registry);
            week
        };
        let stats =
            Executor::new(config.concurrency).map_in_order(&remaining, collect, |week| {
                collector.check_failure_budget()?;
                commit(&week)
            })?;
        stats.record(registry);
    } else {
        for &(week, date) in &remaining {
            let (mut week, stats) =
                collector.collect_week(week, date, config.concurrency, telemetry);
            stats.record(registry);
            collector.settle_week(&mut week);
            collector.check_failure_budget()?;
            commit(&week)?;
        }
    }

    // A store that was already finalized keeps its stored verdict
    // (its weeks may have been saved post-filter).
    let filtered = match stored_verdict {
        Some(filtered) => filtered.iter().cloned().collect(),
        None => {
            let filtered = window.verdict();
            let listed: Vec<String> = filtered.iter().cloned().collect();
            writer.finalize(&listed)?;
            filtered
        }
    };
    // The resume gate's reader has served; the finished store is read
    // through the writer that finished it.
    drop(reader);
    let reader = writer.into_reader()?;
    Ok(CheckpointOutcome {
        dataset: Dataset::shell_from_reader(&reader, &filtered)?,
        reader,
    })
}

/// The per-week collector behind [`collect`].
///
/// Week-to-week state lives here: per-host circuit breakers, the virtual
/// backoff clock, and each domain's last usable fingerprint (the
/// carry-forward source). A resumed run reconstructs this state from the
/// restored store by [`replay_week`](WeekCollector::replay_week)ing
/// every recovered snapshot — breaker transitions are a pure function of
/// each host's outcome sequence, so it continues exactly where an
/// uninterrupted one would be.
pub(crate) struct WeekCollector {
    ecosystem: Arc<Ecosystem>,
    /// The domains in rank order: crawl order, which keys fetch events.
    names: Vec<String>,
    /// Positions in `names`, sorted by domain: the store's record order.
    order: Vec<usize>,
    config: CollectConfig,
    engine: Engine,
    breakers: Option<HostBreakers>,
    clock: VirtualClock,
    /// Each domain's last usable page, as stored — kept only under
    /// [`CollectConfig::carry_forward`], its one reader.
    last_usable: BTreeMap<String, PageRecord>,
    carry_forward: Counter,
    /// Tasks quarantined under supervision (crawl + fingerprint),
    /// accumulated atomically so fanned-out weeks can count through
    /// `&self`.
    task_failures: AtomicU64,
}

impl WeekCollector {
    pub(crate) fn new(
        ecosystem: &Arc<Ecosystem>,
        config: CollectConfig,
        telemetry: &Telemetry,
    ) -> WeekCollector {
        let names = ecosystem.domain_names();
        let mut order: Vec<usize> = (0..names.len()).collect();
        order.sort_by(|&a, &b| names[a].cmp(&names[b]));
        WeekCollector {
            ecosystem: Arc::clone(ecosystem),
            names,
            order,
            config,
            engine: Engine::instrumented(telemetry.registry()),
            breakers: config.breaker.map(HostBreakers::new),
            clock: VirtualClock::new(),
            last_usable: BTreeMap::new(),
            carry_forward: telemetry.registry().counter("net.carry_forward_total"),
            task_failures: AtomicU64::new(0),
        }
    }

    /// True when no week reads state an earlier week wrote (no circuit
    /// breakers, no carry-forward), so weeks may be collected in any
    /// order or at once.
    fn weeks_are_independent(&self) -> bool {
        self.breakers.is_none() && !self.config.carry_forward
    }

    /// Fails the run once quarantined tasks outnumber the budget. A no-op
    /// without [`CollectConfig::max_task_failures`] (nothing is ever
    /// quarantined).
    fn check_failure_budget(&self) -> Result<(), StoreError> {
        let Some(budget) = self.config.max_task_failures else {
            return Ok(());
        };
        let failures = self.task_failures.load(Ordering::Relaxed);
        if failures > budget {
            return Err(StoreError::FailureBudgetExceeded { failures, budget });
        }
        Ok(())
    }

    /// Crawls and fingerprints one week on `threads` workers, as the
    /// records the store commits: one pool task per domain fetches its
    /// landing page, fingerprints it when usable and keeps the store
    /// record, the body dropped in the task. Under supervision a task
    /// that panics, in the fetch or in the analysis, leaves its domain
    /// down this week. This half of a week touches no
    /// carry-forward state, so fanned-out weeks can run it at once;
    /// [`settle_week`](Self::settle_week) is the other half. Returns the
    /// pool's statistics, not yet recorded.
    pub(crate) fn collect_week(
        &self,
        week: usize,
        date: Date,
        threads: usize,
        telemetry: &Telemetry,
    ) -> (WeekData, ExecStats) {
        let key = week.to_string();
        let _ = webvuln_failpoint::hit("phase.crawl", &key);
        let _ = webvuln_failpoint::hit("phase.fingerprint", &key);
        let registry = telemetry.registry();
        let net = VirtualNet::new(Arc::new(self.ecosystem.handler(week)))
            .with_fault_metrics(registry)
            .with_week(week)
            .with_faults(self.config.faults);
        let mut options = CrawlOptions::new()
            .threads(threads)
            .retry(self.config.retry)
            .clock(&self.clock)
            .registry(registry);
        if let Some(breakers) = &self.breakers {
            options = options.breakers(breakers);
        }
        if self.config.max_task_failures.is_some() {
            options = options.supervise();
        }
        // The engine is `Sync`: every task, of every week, shares it and its memo.
        let analyze_ns = AtomicU64::new(0);
        let record = |fetched: FetchRecord| {
            let page = fetched.is_usable().then(|| {
                let started = Instant::now();
                let page = self.engine.analyze(&fetched.body, &fetched.domain);
                analyze_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                page_into_record(page)
            });
            DomainRecord {
                status: fetched.status,
                body_len: fetched.body.len() as u64,
                host: fetched.domain,
                page,
            }
        };
        let started = Instant::now();
        // Stamps every fetch event with (phase, week) and resets the task
        // field, so the week summaries emitted after the map have
        // identical canonical keys whether or not the weeks were fanned
        // out.
        let crawl = trace::phase_scope("crawl");
        let crawl_week = trace::week_scope(week as u64);
        let (mut records, stats, failures) = options.run_then(&self.names, &net, record);
        self.task_failures
            .fetch_add(failures.len() as u64, Ordering::Relaxed);
        let detail = format!("domains={} quarantined={}", records.len(), failures.len());
        let cost = self.names.len() as u64 * 1_000;
        trace::emit("crawl.week", "", &detail, cost, Sink::Export);
        drop((crawl_week, crawl)); // innermost first

        // Records in domain order, a quarantined task's as a failed fetch.
        let records: Vec<DomainRecord> = self
            .order
            .iter()
            .map(|&i| {
                records[i].take().unwrap_or_else(|| DomainRecord {
                    host: self.names[i].clone(),
                    status: None,
                    body_len: 0,
                    page: None,
                })
            })
            .collect();
        let _fingerprint = trace::phase_scope("fingerprint");
        let _fingerprint_week = trace::week_scope(week as u64);
        let usable = records.iter().filter(|r| r.page.is_some()).count();
        let (detail, cost) = (format!("usable={usable}"), usable as u64 * 1_000);
        trace::emit("fingerprint.week", "", &detail, cost, Sink::Export);
        // One map did both phases: the fingerprint phase gets the share of
        // its wall time the pages' analyses took on its workers.
        let wall_ns = started.elapsed().as_nanos() as u64;
        let fingerprint_ns = (analyze_ns.into_inner() / stats.threads as u64).min(wall_ns);
        registry.record_span("crawl", wall_ns - fingerprint_ns);
        registry.record_span("fingerprint", fingerprint_ns);
        let week = WeekData {
            week,
            date_days: i64::from(date.day_number()),
            records,
        };
        (week, stats)
    }

    /// Advances the week-to-week state past a freshly collected week, in
    /// week order: under carry-forward, remembers every usable page and
    /// gives a domain that stayed down its last usable one; then ticks
    /// the breaker round.
    pub(crate) fn settle_week(&mut self, week: &mut WeekData) {
        if self.config.carry_forward {
            for record in &mut week.records {
                if let Some(page) = &record.page {
                    self.last_usable.insert(record.host.clone(), page.clone());
                } else if page_is_error_or_empty(record.status, record.body_len as usize) {
                    // The domain stayed down: degrade gracefully by
                    // reusing its last usable fingerprint. (Carrying only
                    // error/empty weeks is what marks a page as carried
                    // when the week is read back.)
                    if let Some(prior) = self.last_usable.get(&record.host) {
                        record.page = Some(prior.clone());
                        self.carry_forward.inc();
                    }
                }
            }
        }
        if let Some(breakers) = &self.breakers {
            breakers.tick_round();
        }
    }

    /// Replays a restored week's outcomes into breaker and
    /// carry-forward state without crawling.
    ///
    /// Mirrors the live path exactly: a host is recorded only if its
    /// breaker admitted it (which, inductively, matches whether the live
    /// run fetched or skipped it), any HTTP status counts as success, and
    /// the round ticks once at the end. A page beside a failed fetch was
    /// itself carried forward, so it is not a baseline.
    fn replay_week(&mut self, week: &WeekData) {
        if let Some(breakers) = &self.breakers {
            for record in &week.records {
                if breakers.allow(&record.host) {
                    breakers.record(&record.host, record.status.is_some());
                }
            }
            breakers.tick_round();
        }
        if !self.config.carry_forward {
            return;
        }
        for record in &week.records {
            let fresh = !page_is_error_or_empty(record.status, record.body_len as usize);
            if let (true, Some(page)) = (fresh, &record.page) {
                self.last_usable.insert(record.host.clone(), page.clone());
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod testkit {
    //! Shared fixtures: small ecosystems collected once per test binary,

    //! their weeks read back from the store each run committed.

    use super::*;
    use crate::accum::{AccumCtx, Accumulate};
    use crate::filter::{apply_filter, store_filter_verdict};
    use crate::store_io::week_into_snapshot;
    use std::sync::OnceLock;
    use webvuln_cvedb::VulnDb;
    use webvuln_webgen::EcosystemConfig;

    impl Dataset {
        /// The rank of a domain (1-based), when known.
        pub(crate) fn rank(&self, domain: &str) -> Option<usize> {
            self.ranks.get(domain).copied()
        }
    }

    /// A run's [`Dataset`] with its weeks kept: every week of the store it
    /// committed as a [`WeekSnapshot`], minus the §4.1 verdict — what the
    /// one-shot reference functions read.
    pub struct Kept {
        pub dataset: Dataset,
        pub weeks: Vec<WeekSnapshot>,
    }

    impl std::ops::Deref for Kept {
        type Target = Dataset;

        fn deref(&self) -> &Dataset {
            &self.dataset
        }
    }

    impl Kept {
        /// Reads back every week `outcome` committed.
        pub fn of(outcome: CheckpointOutcome) -> Kept {
            Kept::read(&outcome.reader, outcome.dataset)
        }

        /// Reads back every week of the store at `path`.
        pub fn open(path: &std::path::Path) -> Kept {
            let reader = AnyReader::open(path).expect("open store");
            let filtered = store_filter_verdict(&reader).expect("verdict");
            let dataset = Dataset::shell_from_reader(&reader, &filtered).expect("shell");
            Kept::read(&reader, dataset)
        }

        fn read(reader: &AnyReader, dataset: Dataset) -> Kept {
            let filtered: BTreeSet<String> = dataset.filtered_out.iter().cloned().collect();
            let read = |week| {
                let mut snapshot = week_into_snapshot(week).expect("stored week converts");
                apply_filter(&mut snapshot, &filtered);
                snapshot
            };
            let weeks = reader.stream();
            Kept {
                weeks: weeks
                    .map(|week| read(week.expect("stored week decodes")))
                    .collect(),
                dataset,
            }
        }

        pub fn week_count(&self) -> usize {
            self.weeks.len()
        }

        pub fn average_collected(&self) -> f64 {
            let total: usize = self.weeks.iter().map(WeekSnapshot::collected).sum();
            total as f64 / self.weeks.len().max(1) as f64
        }

        pub fn carried_forward_total(&self) -> usize {
            self.weeks.iter().map(|w| w.carried_forward.len()).sum()
        }
    }

    /// An accumulator absorbing kept weeks one by one.
    pub trait Over: Accumulate + Default {
        fn over(data: &Kept, db: &VulnDb) -> Self {
            let ctx = AccumCtx {
                db,
                ranks: &data.ranks,
            };
            let mut accum = Self::default();
            for week in &data.weeks {
                accum.absorb(week, &ctx);
            }
            accum
        }
    }

    impl<A: Accumulate + Default> Over for A {}

    /// Collects with the store kept in memory.
    pub fn collect(ecosystem: &Arc<Ecosystem>, config: CollectConfig) -> Kept {
        let telemetry = Telemetry::new();
        let outcome = super::collect(ecosystem, &config, &telemetry, None, false);
        Kept::of(outcome.expect("plain collection is infallible"))
    }

    /// A small but fully featured dataset: 1,200 domains, 30 weeks
    /// starting Mar 2018 (covers no WordPress events — fast tests).
    pub fn small() -> &'static Kept {
        static DATA: OnceLock<Kept> = OnceLock::new();
        DATA.get_or_init(|| {
            let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
                seed: 77,
                domain_count: 1_200,
                timeline: Timeline::truncated(30),
            }));
            collect(&eco, CollectConfig::default())
        })
    }

    /// A full-length but narrow dataset: 700 domains over the whole
    /// 201-week paper timeline (covers the WordPress waves and Flash EOL).
    pub fn long() -> &'static Kept {
        static DATA: OnceLock<Kept> = OnceLock::new();
        DATA.get_or_init(|| {
            let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
                seed: 99,
                domain_count: 700,
                timeline: Timeline::paper(),
            }));
            collect(&eco, CollectConfig::default())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{self, Kept};
    use super::*;
    use webvuln_webgen::EcosystemConfig;

    #[test]
    fn collects_most_domains_each_week() {
        let data = testkit::small();
        assert_eq!(data.week_count(), 30);
        let avg = data.average_collected();
        let total = 1_200.0;
        // The paper collects ~78% of the Alexa list each week.
        assert!(
            (0.70..0.88).contains(&(avg / total)),
            "collected {avg} of {total}"
        );
    }

    #[test]
    fn filter_removes_consistently_dead_domains() {
        let data = testkit::small();
        assert!(!data.filtered_out.is_empty(), "some domains get pruned");
        // Filtered domains appear in no snapshot.
        for week in &data.weeks {
            for dropped in &data.filtered_out {
                assert!(!week.pages.contains_key(dropped));
                assert!(!week.summaries.contains_key(dropped));
            }
        }
    }

    #[test]
    fn pages_carry_fingerprints() {
        let data = testkit::small();
        let week0 = &data.weeks[0];
        let with_libs = week0
            .pages
            .values()
            .filter(|p| !p.detections.is_empty())
            .count();
        assert!(
            with_libs * 10 > week0.collected() * 6,
            "libraries are prevalent: {with_libs}/{}",
            week0.collected()
        );
    }

    #[test]
    fn collection_is_deterministic() {
        let make = || {
            let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
                seed: 5,
                domain_count: 150,
                timeline: Timeline::truncated(6),
            }));
            testkit::collect(&eco, CollectConfig::default())
        };
        let a = make();
        let b = make();
        assert_eq!(a.average_collected(), b.average_collected());
        for (wa, wb) in a.weeks.iter().zip(&b.weeks) {
            assert_eq!(wa.pages.len(), wb.pages.len());
            assert!(wa
                .pages
                .iter()
                .zip(&wb.pages)
                .all(|((da, pa), (db, pb))| da == db && pa == pb));
        }
    }

    #[test]
    fn ranks_are_exposed() {
        let data = testkit::small();
        let first = data.ranks.values().min().copied();
        assert_eq!(first, Some(1));
        let domain = data
            .ranks
            .iter()
            .find(|(_, &r)| r == 1)
            .map(|(d, _)| d.clone())
            .expect("rank 1 exists");
        assert_eq!(data.rank(&domain), Some(1));
    }

    #[test]
    fn carry_forward_reuses_the_last_usable_page() {
        let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
            seed: 61,
            domain_count: 200,
            timeline: Timeline::truncated(8),
        }));
        // A quarter of hosts flap each week; with no retries those weeks
        // are lost unless carried forward.
        let faults = FaultPlan {
            seed: 61,
            transient_fail_permille: 250,
            heal_after_attempts: 1,
            ..FaultPlan::none()
        };
        let degraded = testkit::collect(
            &eco,
            CollectConfig {
                faults,
                carry_forward: true,
                ..CollectConfig::default()
            },
        );
        let strict = testkit::collect(
            &eco,
            CollectConfig {
                faults,
                ..CollectConfig::default()
            },
        );
        assert!(degraded.carried_forward_total() > 0, "some weeks degrade");
        assert_eq!(strict.carried_forward_total(), 0);
        assert!(degraded.average_collected() > strict.average_collected());

        for (w, week) in degraded.weeks.iter().enumerate() {
            for domain in &week.carried_forward {
                // The carried page is byte-for-byte the last usable one.
                let ancestor = degraded.weeks[..w]
                    .iter()
                    .rev()
                    .find_map(|prior| {
                        (!prior.carried_forward.contains(domain))
                            .then(|| prior.pages.get(domain))
                            .flatten()
                    })
                    .expect("carried page has a usable ancestor");
                assert_eq!(&week.pages[domain], ancestor);
                // A strict run has no page for this domain-week at all.
                assert!(!strict.weeks[w].pages.contains_key(domain));
                // The summary still records the true failed fetch.
                let summary = week.summaries[domain];
                assert!(page_is_error_or_empty(summary.status, summary.body_len));
            }
        }
        // Carrying pages forward never alters the filter's input.
        assert_eq!(degraded.filtered_out, strict.filtered_out);
    }

    #[test]
    fn parallel_weeks_match_sequential_weeks() {
        // No breakers, no carry-forward: weeks are independent, so
        // threads(8) fans whole weeks out across the pool while
        // threads(1) collects them one by one. Same dataset either way,
        // even under hostile faults with retries.
        let make = |threads| {
            let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
                seed: 63,
                domain_count: 120,
                timeline: Timeline::truncated(6),
            }));
            let config = CollectConfig {
                concurrency: threads,
                faults: FaultPlan::hostile(63),
                retry: RetryPolicy::standard(2),
                ..CollectConfig::default()
            };
            testkit::collect(&eco, config)
        };
        let sequential = make(1);
        let parallel = make(8);
        assert_datasets_identical(&sequential, &parallel);
    }

    fn assert_datasets_identical(a: &Kept, b: &Kept) {
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(a.ranks, b.ranks);
        assert_eq!(a.filtered_out, b.filtered_out);
        assert_eq!(a.weeks.len(), b.weeks.len());
        for (wa, wb) in a.weeks.iter().zip(&b.weeks) {
            assert_eq!(wa.week, wb.week);
            assert_eq!(wa.date, wb.date);
            assert_eq!(wa.pages, wb.pages);
            assert_eq!(wa.summaries, wb.summaries);
            assert_eq!(wa.carried_forward, wb.carried_forward);
        }
    }

    #[test]
    fn exec_metrics_surface_through_collection() {
        let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
            seed: 64,
            domain_count: 80,
            timeline: Timeline::truncated(3),
        }));
        let telemetry = Telemetry::new();
        let config = CollectConfig {
            concurrency: 4,
            ..CollectConfig::default()
        };
        collect(&eco, &config, &telemetry, None, false).expect("plain collection");
        let snap = telemetry.snapshot();
        assert!(snap.counter("exec.tasks_total").unwrap_or(0) > 0);
        assert!(snap.histogram("exec.worker_busy_ns").is_some());
    }

    #[test]
    fn supervised_fault_free_collection_matches_unsupervised() {
        // Supervision must be a pure containment layer: with no panics
        // it changes nothing, whether the weeks run in order
        // (carry-forward) or fanned out.
        let make = |max_task_failures, carry_forward| {
            let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
                seed: 66,
                domain_count: 100,
                timeline: Timeline::truncated(4),
            }));
            testkit::collect(
                &eco,
                CollectConfig {
                    faults: FaultPlan::hostile(66),
                    retry: RetryPolicy::standard(2),
                    carry_forward,
                    max_task_failures,
                    ..CollectConfig::default()
                },
            )
        };
        assert_datasets_identical(&make(None, false), &make(Some(0), false));
        assert_datasets_identical(&make(None, true), &make(Some(0), true));
    }

    #[test]
    fn resilient_collection_is_deterministic_across_concurrency() {
        let make = |concurrency| {
            let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
                seed: 62,
                domain_count: 150,
                timeline: Timeline::truncated(6),
            }));
            testkit::collect(
                &eco,
                CollectConfig {
                    concurrency,
                    faults: FaultPlan::hostile(62),
                    retry: RetryPolicy::standard(2),
                    breaker: Some(BreakerConfig::default()),
                    carry_forward: true,
                    ..CollectConfig::default()
                },
            )
        };
        let a = make(1);
        let b = make(8);
        assert_eq!(a.filtered_out, b.filtered_out);
        for (wa, wb) in a.weeks.iter().zip(&b.weeks) {
            assert_eq!(wa.pages, wb.pages);
            assert_eq!(wa.summaries, wb.summaries);
            assert_eq!(wa.carried_forward, wb.carried_forward);
        }
    }
}
