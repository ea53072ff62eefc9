//! The study driver: one call runs §4–§8 end-to-end on a synthetic web
//! and returns every computed artifact.

use std::path::PathBuf;
use std::sync::Arc;
use webvuln_analysis::accum::{fold_store, AccumCtx, StudyAccum, StudyArtifacts};
use webvuln_analysis::dataset::{CollectConfig, Collector, Dataset};
use webvuln_analysis::flash::{FlashByTld, FlashUsage, ScriptAccessAudit};
use webvuln_analysis::landscape::{CdnBreakdown, LibraryRow, UsageTrend};
use webvuln_analysis::resources::{CollectionSeries, ResourceUsage};
use webvuln_analysis::sri::{CrossoriginCensus, GithubReport, SriAdoption};
use webvuln_analysis::store_filter_verdict;
use webvuln_analysis::store_io::StoreError;
use webvuln_analysis::updates::{RegressionEvent, UpdateDelayReport, WordPressUsage};
use webvuln_analysis::vuln::{
    CveImpact, PrevalenceSeries, RefinementSummary, VulnCountDistribution,
};
use webvuln_analysis::wordpress::WordPressCveRow;
use webvuln_cvedb::VulnDb;
use webvuln_exec::SuperviseConfig;
use webvuln_net::{BreakerConfig, FaultPlan, RetryPolicy};
use webvuln_poclab::{builtin_validations, ValidationReport};
use webvuln_store::AnyReader;
use webvuln_telemetry::trace::{self, Sink};
use webvuln_telemetry::{Snapshot, Telemetry, TraceData, Tracer};
use webvuln_webgen::{Ecosystem, EcosystemConfig, Timeline};

/// Fail-point sites owned by this crate: the three study phases that run
/// outside the weekly collection loop.
///
/// - `phase.generate` — fires before the synthetic web is generated.
/// - `phase.join` — fires before the CVE join (after collection, so the
///   store is already finalized when it crashes a checkpointed run).
/// - `phase.analyze` — fires before the table/figure build.
pub const FAILPOINTS: &[&str] = &["phase.generate", "phase.join", "phase.analyze"];

/// The full fail-point catalog: every site registered anywhere in the
/// workspace, sorted and deduplicated. The chaos harnesses enumerate
/// this to prove crash-recovery at each site; it covers the store writer
/// (single-file and sharded commit protocol, scrub), the checkpoint
/// commit loop, the exec worker loop, the per-domain fetch, the serving
/// layer, the watch daemon, and all five study phases.
///
/// Not every site fires under `Pipeline::run`: the `serve.*` sites fire
/// in a live API server (`tests/chaos_serve.rs` kills those), the
/// `watch.*` sites fire in the live-ingestion daemon
/// (`tests/chaos_watch.rs` kills those), and the sharded-store sites
/// fire only for a sharded checkpoint store
/// (`tests/chaos_failpoints.rs` runs a dedicated shard kill matrix).
/// The catalog is still the single source of truth — the chaos suites
/// assert that their covered sets union to exactly this list, so a new
/// site cannot land without a kill scenario.
pub fn failpoint_catalog() -> Vec<&'static str> {
    let mut sites: Vec<&'static str> = Vec::new();
    sites.extend_from_slice(webvuln_exec::FAILPOINTS);
    sites.extend_from_slice(webvuln_net::FAILPOINTS);
    sites.extend_from_slice(webvuln_store::FAILPOINTS);
    sites.extend_from_slice(webvuln_analysis::FAILPOINTS);
    sites.extend_from_slice(webvuln_serve::FAILPOINTS);
    sites.extend_from_slice(webvuln_watch::FAILPOINTS);
    sites.extend_from_slice(FAILPOINTS);
    sites.sort_unstable();
    sites.dedup();
    sites
}

/// Configuration of a full study run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StudyConfig {
    /// Master seed for the synthetic web.
    pub seed: u64,
    /// Alexa-style list size (the paper: 1M; simulation default scales
    /// down while preserving every distribution).
    pub domain_count: usize,
    /// Snapshot timeline (the paper: 201 weeks, Mar 2018 – Feb 2022).
    pub timeline: Timeline,
    /// Crawler worker threads.
    pub concurrency: usize,
    /// Shard count for the checkpoint store (default 1: a single store
    /// file). With `shards > 1` the checkpoint path becomes a directory
    /// of per-shard stores committed in parallel under one manifest
    /// epoch. No effect without a checkpoint store.
    pub shards: usize,
    /// Connection-level fault injection.
    pub faults: FaultPlan,
    /// Per-fetch retry budget and backoff (default: single attempt).
    pub retry: RetryPolicy,
    /// Per-host circuit breakers (default: disabled).
    pub breaker: Option<BreakerConfig>,
    /// Carry a domain's last usable snapshot through weeks it is down.
    pub carry_forward: bool,
    /// Supervised execution (default: off — a panicking task aborts the
    /// run). When set, every crawl and fingerprint task runs under panic
    /// containment and a virtual deadline; failures are quarantined as
    /// down-domains, and the run fails only once quarantined tasks
    /// exceed `supervise.max_failures` (the `--max-task-failures`
    /// budget).
    pub supervise: Option<SuperviseConfig>,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            seed: 42,
            domain_count: 3_000,
            timeline: Timeline::paper(),
            concurrency: 8,
            shards: 1,
            faults: FaultPlan::realistic(42),
            retry: RetryPolicy::none(),
            breaker: None,
            carry_forward: false,
            supervise: None,
        }
    }
}

impl StudyConfig {
    /// A reduced configuration for quick runs and tests: fewer domains,
    /// full-length timeline preserved (the temporal events matter).
    pub fn quick() -> StudyConfig {
        StudyConfig {
            domain_count: 600,
            ..StudyConfig::default()
        }
    }
}

/// Everything a study run produces.
pub struct StudyResults {
    /// The configuration used.
    pub config: StudyConfig,
    /// The study's timeline, ranks and §4.1 verdict.
    pub dataset: Dataset,
    /// The vulnerability database used for joins.
    pub db: VulnDb,
    /// Figure 2(a).
    pub collection: CollectionSeries,
    /// Figure 2(b).
    pub resources: Vec<ResourceUsage>,
    /// Table 1.
    pub table1: Vec<LibraryRow>,
    /// Figure 3.
    pub trends: Vec<UsageTrend>,
    /// Table 5.
    pub table5: Vec<CdnBreakdown>,
    /// §6.2 prevalence under CVE-claimed ranges.
    pub prevalence_claimed: PrevalenceSeries,
    /// §6.4 prevalence under True Vulnerable Versions.
    pub prevalence_tvv: PrevalenceSeries,
    /// §6.4 refinement summary (the "+2%" takeaway).
    pub refinement: RefinementSummary,
    /// Table 2 / Figures 5 & 14: per-report impact.
    pub cve_impacts: Vec<CveImpact>,
    /// Figure 12 under CVE-claimed ranges.
    pub fig12_claimed: VulnCountDistribution,
    /// Figure 12 under TVV.
    pub fig12_tvv: VulnCountDistribution,
    /// §7 delays under CVE-claimed ranges (the 531.2-day analogue).
    pub delays_claimed: UpdateDelayReport,
    /// §7 delays under TVV (the 701.2-day analogue).
    pub delays_tvv: UpdateDelayReport,
    /// Figure 9.
    pub wordpress: WordPressUsage,
    /// Table 4.
    pub table4: Vec<WordPressCveRow>,
    /// Figure 8.
    pub flash: FlashUsage,
    /// Figure 11.
    pub script_access: ScriptAccessAudit,
    /// §8 country census of post-EOL Flash.
    pub flash_by_tld: FlashByTld,
    /// §9 (future work): observed upgrade-then-rollback cycles.
    pub regressions: Vec<RegressionEvent>,
    /// Figure 10.
    pub sri: SriAdoption,
    /// §6.5 crossorigin census.
    pub crossorigin: CrossoriginCensus,
    /// Table 6.
    pub github: GithubReport,
    /// §6.4 version-validation experiment reports — a property of the
    /// built-in database, derived once per process and shared by every
    /// study in it ([`builtin_validations`]).
    pub validations: &'static [ValidationReport],
    /// Metrics and phase timings recorded during this run (see
    /// [`webvuln_telemetry`]): `net.*` crawler counters, `fp.*`
    /// fingerprint counters, and a span per pipeline phase.
    pub telemetry: Snapshot,
    /// Causal trace of the run (see [`webvuln_telemetry::trace`]):
    /// canonical event log, per-pattern VM-step attribution, and
    /// per-domain fetch lifecycles. `None` unless the injected
    /// [`telemetry`](Pipeline::telemetry) was built
    /// [`with_trace`](Telemetry::with_trace).
    pub trace: Option<TraceData>,
}

/// Builder for a full §4–§8 study run: web generation, resilience,
/// checkpointing, telemetry and threads compose as orthogonal options,
/// then [`run`](Pipeline::run) executes the pipeline end-to-end.
///
/// ```no_run
/// use webvuln_core::{Pipeline, StudyConfig};
///
/// let results = Pipeline::new(StudyConfig::quick())
///     .threads(8)
///     .run()
///     .expect("study");
/// println!("{} weeks collected", results.dataset.timeline.weeks);
/// ```
#[derive(Clone)]
pub struct Pipeline<'a> {
    config: StudyConfig,
    telemetry: Option<&'a Telemetry>,
    store: Option<PathBuf>,
    resume: bool,
}

impl From<StudyConfig> for Pipeline<'_> {
    fn from(config: StudyConfig) -> Self {
        Pipeline::new(config)
    }
}

impl Default for Pipeline<'_> {
    fn default() -> Self {
        Pipeline::new(StudyConfig::default())
    }
}

impl<'a> Pipeline<'a> {
    /// Starts a pipeline from `config`.
    pub fn new(config: StudyConfig) -> Pipeline<'a> {
        Pipeline {
            config,
            telemetry: None,
            store: None,
            resume: false,
        }
    }

    /// Master seed for the synthetic web.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Alexa-style list size.
    pub fn domains(mut self, domain_count: usize) -> Self {
        self.config.domain_count = domain_count;
        self
    }

    /// Snapshot timeline.
    pub fn timeline(mut self, timeline: Timeline) -> Self {
        self.config.timeline = timeline;
        self
    }

    /// Worker threads for the crawl and fingerprint pools. `0` sizes the
    /// pools by [`std::thread::available_parallelism`]. Thread count
    /// never changes the results — only how fast they arrive.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.concurrency = threads;
        self
    }

    /// Shard count for the [`checkpoint`](Pipeline::checkpoint) store.
    /// With more than one shard the store path is a directory of
    /// per-shard files written in parallel and published atomically by a
    /// manifest rename per week. Shard count never changes the results —
    /// only the on-disk layout and commit parallelism.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards.max(1);
        self
    }

    /// Connection-level fault injection.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.config.faults = faults;
        self
    }

    /// Per-fetch retry budget and backoff.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.config.retry = retry;
        self
    }

    /// Per-host circuit breakers.
    pub fn breaker(mut self, breaker: BreakerConfig) -> Self {
        self.config.breaker = Some(breaker);
        self
    }

    /// Carries a domain's last usable snapshot through weeks it is down.
    pub fn carry_forward(mut self, carry_forward: bool) -> Self {
        self.config.carry_forward = carry_forward;
        self
    }

    /// Runs crawl and fingerprint tasks under supervision: panicking or
    /// over-deadline tasks are quarantined as down-domains (eligible for
    /// [`carry_forward`](Pipeline::carry_forward)) instead of aborting
    /// the study.
    pub fn supervise(mut self, supervise: SuperviseConfig) -> Self {
        self.config.supervise = Some(supervise);
        self
    }

    /// Convenience for the CLI's `--max-task-failures N`: enables
    /// supervision (if not already configured) with a quarantine budget
    /// of `budget` tasks. Exceeding the budget fails the run with
    /// [`StoreError::FailureBudgetExceeded`].
    pub fn max_task_failures(mut self, budget: u64) -> Self {
        let supervise = self.config.supervise.unwrap_or_default();
        self.config.supervise = Some(supervise.max_failures(budget));
        self
    }

    /// Records metrics, per-phase spans
    /// (`generate`/`crawl`/`fingerprint`/`store`/`join`/`analyze`),
    /// progress events and — when the handle was built
    /// [`with_trace`](Telemetry::with_trace) — the causal trace through
    /// `telemetry`. Without this, telemetry goes to an untraced registry
    /// private to the run, attached to [`StudyResults::telemetry`]. A
    /// handle accounts one run: a second run through it adds to the same
    /// counters and cost attribution.
    pub fn telemetry(mut self, telemetry: &'a Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Commits every crawled week to the snapshot store at `path` as it
    /// completes, instead of to a store kept in memory.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.store = Some(path.into());
        self
    }

    /// With a [`checkpoint`](Pipeline::checkpoint) store present, restores
    /// committed weeks from disk (after torn-tail recovery) and crawls
    /// only the missing ones. Because collection is deterministic in the
    /// ecosystem seed, the resumed study's output is identical to an
    /// uninterrupted run's. The store's genesis is checked against the
    /// config; a store built from a different seed/timeline is rejected
    /// rather than silently mixed.
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Does nothing: every run commits each week to its store — the
    /// [`checkpoint`](Pipeline::checkpoint), or one kept in memory — drops
    /// it, and folds the store. Kept so that callers written when keeping
    /// the weeks was the default still build.
    pub fn streaming(self, _streaming: bool) -> Self {
        self
    }

    /// The accumulated [`StudyConfig`] (builder round-trip).
    pub fn build(&self) -> StudyConfig {
        self.config
    }

    /// Runs the full study: collection commits every week to the store,
    /// and the analysis folds what was committed on `threads` workers. A
    /// pipeline without [`checkpoint`](Pipeline::checkpoint) fails only
    /// under [`supervise`](Pipeline::supervise), when quarantined tasks
    /// exceed the failure budget.
    pub fn run(&self) -> Result<StudyResults, StoreError> {
        let private = Telemetry::new();
        let telemetry = self.telemetry.unwrap_or(&private);
        let config = self.config;
        let tracer = telemetry.tracer();
        let _trace_guard = tracer.map(Tracer::install);
        let ecosystem = {
            let _phase = telemetry.phase("generate");
            let _ = webvuln_failpoint::hit("phase.generate", "");
            let web = EcosystemConfig {
                seed: config.seed,
                domain_count: config.domain_count,
                timeline: config.timeline,
            };
            let ecosystem = Arc::new(Ecosystem::generate_on(web, config.concurrency));
            trace::emit(
                "generate.done",
                "",
                &format!(
                    "domains={} weeks={}",
                    config.domain_count, config.timeline.weeks
                ),
                config.domain_count as u64 * 1_000,
                Sink::Export,
            );
            ecosystem
        };
        telemetry.progress(
            "generate",
            1,
            1,
            &format!(
                "{} domains, {} weeks",
                config.domain_count, config.timeline.weeks
            ),
        );
        let mut collector = Collector::from_config(CollectConfig {
            concurrency: config.concurrency,
            shards: config.shards,
            faults: config.faults,
            retry: config.retry,
            breaker: config.breaker,
            carry_forward: config.carry_forward,
            supervise: config.supervise,
        })
        .telemetry(telemetry)
        .resume(self.resume);
        if let Some(path) = &self.store {
            collector = collector.checkpoint(path);
        }
        let outcome = match collector.run(&ecosystem) {
            Ok(outcome) => outcome,
            Err(err) => {
                // The run is aborting (failure budget exhausted or a
                // store error): dump the flight recorder so the final
                // moments of every in-flight task are not lost.
                if let Some(tracer) = tracer {
                    eprintln!("study aborted: {err}");
                    eprintln!("{}", tracer.flight_recorder_dump());
                }
                return Err(err);
            }
        };
        let mut results = analyze(config, &outcome.reader, telemetry)?;
        results.trace = tracer.map(Tracer::finish);
        Ok(results)
    }
}

/// Analyzes an existing snapshot store (either layout, degraded shards
/// skipped) as [`Pipeline::run`] analyzes the store it committed.
pub fn analyze_store(
    config: StudyConfig,
    store: &std::path::Path,
    telemetry: &Telemetry,
) -> Result<StudyResults, StoreError> {
    analyze(config, &AnyReader::open_degraded(store)?, telemetry)
}

/// The analysis driver: the CVE join (one fold of every committed week
/// through the study accumulator, on `config.concurrency` workers) and
/// the table/figure build, timed through `telemetry`, whose snapshot is
/// attached to the results. The store's §4.1 verdict is taken once, for
/// the fold and for the results' [`Dataset`]. Peak memory is one decoded
/// week per worker plus the accumulator state.
fn analyze(
    config: StudyConfig,
    reader: &AnyReader,
    telemetry: &Telemetry,
) -> Result<StudyResults, StoreError> {
    let (db, accum, dataset) = {
        let _phase = telemetry.phase("join");
        let _ = webvuln_failpoint::hit("phase.join", "");
        let db = VulnDb::builtin();
        let filtered = store_filter_verdict(reader)?;
        let dataset = Dataset::shell_from_reader(reader, &filtered)?;
        let ctx = AccumCtx {
            db: &db,
            ranks: &dataset.ranks,
        };
        let accum: StudyAccum = fold_store(reader, &ctx, config.concurrency, &filtered)?;
        trace::emit(
            "join.done",
            "",
            &format!("cve_impacts={}", db.records().len()),
            db.records().len() as u64 * 1_000,
            Sink::Export,
        );
        (db, accum, dataset)
    };
    let weeks = reader.weeks_committed();
    let mut results = {
        let _phase = telemetry.phase("analyze");
        let _ = webvuln_failpoint::hit("phase.analyze", "");
        let artifacts = accum.finish(&db);
        let results = build_results(config, dataset, db, artifacts);
        trace::emit(
            "analyze.done",
            "",
            &format!("weeks={weeks}"),
            weeks as u64 * 1_000,
            Sink::Export,
        );
        results
    };
    results.telemetry = telemetry.snapshot();
    Ok(results)
}

fn build_results(
    config: StudyConfig,
    dataset: Dataset,
    db: VulnDb,
    artifacts: StudyArtifacts,
) -> StudyResults {
    StudyResults {
        collection: artifacts.collection,
        resources: artifacts.resources,
        table1: artifacts.table1,
        trends: artifacts.trends,
        table5: artifacts.table5,
        prevalence_claimed: artifacts.prevalence_claimed,
        prevalence_tvv: artifacts.prevalence_tvv,
        refinement: artifacts.refinement,
        cve_impacts: artifacts.cve_impacts,
        fig12_claimed: artifacts.fig12_claimed,
        fig12_tvv: artifacts.fig12_tvv,
        delays_claimed: artifacts.delays_claimed,
        delays_tvv: artifacts.delays_tvv,
        wordpress: artifacts.wordpress,
        table4: artifacts.table4,
        flash: artifacts.flash,
        script_access: artifacts.script_access,
        flash_by_tld: artifacts.flash_by_tld,
        regressions: artifacts.regressions,
        sri: artifacts.sri,
        crossorigin: artifacts.crossorigin,
        github: artifacts.github,
        validations: builtin_validations(),
        telemetry: Snapshot::default(),
        trace: None,
        dataset,
        db,
        config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webvuln_analysis::apply_filter;
    use webvuln_analysis::store_io::week_into_snapshot;
    use webvuln_telemetry::TraceMode;

    fn temp_store(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "webvuln-study-{}-{tag}.wvstore",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Carried-forward pages the §4.1 filter kept, read from a store.
    fn carried_forward_total(store: &std::path::Path) -> usize {
        let reader = AnyReader::open(store).expect("open");
        let filtered = store_filter_verdict(&reader).expect("verdict");
        let carried = |week| {
            let mut snapshot = week_into_snapshot(week).expect("snapshot");
            apply_filter(&mut snapshot, &filtered);
            snapshot.carried_forward.len()
        };
        reader
            .stream()
            .map(|week| carried(week.expect("week")))
            .sum()
    }

    #[test]
    fn quick_study_produces_all_artifacts() {
        let results = Pipeline::new(StudyConfig::quick())
            .domains(250)
            .timeline(Timeline::truncated(10))
            .run()
            .expect("study");
        assert_eq!(results.collection.points.len(), 10);
        assert_eq!(results.resources.len(), 8);
        assert_eq!(results.table1.len(), 15);
        assert_eq!(results.trends.len(), 15);
        assert_eq!(results.table5.len(), 15);
        assert_eq!(results.cve_impacts.len(), results.db.records().len());
        assert_eq!(results.table4.len(), 10);
        assert_eq!(results.validations.len(), 27);
        assert!(results.prevalence_claimed.average > 0.0);
        assert!(results.prevalence_tvv.average >= results.prevalence_claimed.average);
        assert!(results.sri.average_unprotected_share > 0.9);

        // Telemetry: every phase timed, crawler/fingerprint counters exact.
        let snap = &results.telemetry;
        for phase in ["generate", "crawl", "fingerprint", "join", "analyze"] {
            assert!(snap.span(phase).is_some(), "phase {phase} missing");
        }
        assert_eq!(snap.span("crawl").expect("crawl").count, 10);
        assert_eq!(snap.span("fingerprint").expect("fp").count, 10);
        assert_eq!(snap.counter("net.fetches_total"), Some(250 * 10));
        assert!(snap.counter("fp.pages_total").unwrap_or(0) > 0);
        assert!(snap.counter("fp.hits_url_total").unwrap_or(0) > 0);
        assert!(snap.counter("fp.vm_steps_total").unwrap_or(0) > 0);
        assert!(snap.histogram("net.fetch_latency_ns").is_some());
    }

    #[test]
    fn resilient_study_records_retry_telemetry() {
        let seed = StudyConfig::quick().seed;
        let store = temp_store("retry");
        let results = Pipeline::new(StudyConfig::quick())
            .domains(150)
            .timeline(Timeline::truncated(6))
            .faults(FaultPlan::hostile(seed))
            // Four attempts: one more than the hostile profile's healing
            // threshold, so transient faults recover within the budget.
            .retry(RetryPolicy::standard(3))
            .breaker(BreakerConfig::default())
            .carry_forward(true)
            .checkpoint(&store)
            .run()
            .expect("study");
        let snap = &results.telemetry;
        assert!(snap.counter("net.retries_total").unwrap_or(0) > 0);
        assert!(snap.counter("net.retry_success_total").unwrap_or(0) > 0);
        assert!(snap.histogram("net.backoff_delay_ns").is_some());
        // The counter tallies live carry events; the store's weeks minus
        // the §4.1 verdict keep only those surviving the filter.
        let carried = snap.counter("net.carry_forward_total").unwrap_or(0);
        assert!(carried >= carried_forward_total(&store) as u64);
        let _ = std::fs::remove_file(&store);
    }

    #[test]
    fn injected_telemetry_reports_progress() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let events = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&events);
        let telemetry = webvuln_telemetry::Telemetry::new().with_progress(Arc::new(
            move |_event: &webvuln_telemetry::ProgressEvent<'_>| {
                seen.fetch_add(1, Ordering::Relaxed);
            },
        ));
        let results = Pipeline::new(StudyConfig::quick())
            .domains(60)
            .timeline(Timeline::truncated(3))
            .telemetry(&telemetry)
            .run()
            .expect("study");
        // One event per week plus the generate event.
        assert_eq!(events.load(Ordering::Relaxed), 3 + 1);
        assert_eq!(results.telemetry.counter("net.fetches_total"), Some(60 * 3));
    }

    #[test]
    fn builder_round_trips_every_config_field() {
        // `Pipeline::from(config).build()` must preserve every field,
        // for quick() and for a fully customised config.
        let quick = StudyConfig::quick();
        assert_eq!(Pipeline::from(quick).build(), quick);
        let custom = StudyConfig {
            seed: 7,
            domain_count: 123,
            timeline: Timeline::truncated(17),
            concurrency: 3,
            shards: 4,
            faults: FaultPlan::hostile(7),
            retry: RetryPolicy::standard(2),
            breaker: Some(BreakerConfig::default()),
            carry_forward: true,
            supervise: Some(SuperviseConfig::default().max_failures(5)),
        };
        assert_eq!(Pipeline::from(custom).build(), custom);
        // Builder setters land in the built config too.
        let built = Pipeline::new(quick)
            .seed(7)
            .domains(123)
            .timeline(Timeline::truncated(17))
            .threads(3)
            .shards(4)
            .faults(FaultPlan::hostile(7))
            .retry(RetryPolicy::standard(2))
            .breaker(BreakerConfig::default())
            .carry_forward(true)
            .max_task_failures(5)
            .build();
        assert_eq!(built, custom);
    }

    #[test]
    fn failpoint_catalog_covers_every_layer() {
        let catalog = failpoint_catalog();
        assert!(!catalog.is_empty());
        // Sorted, deduplicated, and covering the store writer, the
        // checkpoint loop, the worker loops, and all five phases.
        let mut sorted = catalog.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(catalog, sorted);
        for site in [
            "store.segment.mid_write",
            "store.footer.rewrite",
            "store.finalize",
            "store.manifest.rename",
            "store.shard.mid_write",
            "store.scrub",
            "checkpoint.commit",
            "exec.task",
            "crawl.fetch",
            "serve.accept",
            "serve.handler",
            "serve.mid_response",
            "watch.ingest",
            "watch.outbox.append",
            "watch.outbox.deliver",
            "watch.retro",
            "phase.generate",
            "phase.crawl",
            "phase.fingerprint",
            "phase.join",
            "phase.analyze",
        ] {
            assert!(catalog.contains(&site), "catalog missing {site}");
        }
        // The serve catalog is a subset — the chaos suites partition the
        // full catalog between them using that containment.
        for site in webvuln_serve::FAILPOINTS {
            assert!(catalog.contains(site), "catalog missing serve site {site}");
        }
    }

    #[test]
    fn traced_study_is_deterministic_and_attributes_costs() {
        let traced_store = temp_store("traced");
        let run = |threads| {
            let telemetry = Telemetry::new().with_trace(TraceMode::Full);
            Pipeline::new(StudyConfig::quick())
                .domains(80)
                .timeline(Timeline::truncated(4))
                .threads(threads)
                .telemetry(&telemetry)
                .checkpoint(&traced_store)
                .run()
                .expect("study")
        };
        let a = run(1);
        let b = run(2);
        let c = run(8);
        let ta = a.trace.as_ref().expect("trace");
        let tb = b.trace.as_ref().expect("trace");
        let tc = c.trace.as_ref().expect("trace");
        // The canonical trace — events, pattern attribution, domain
        // lifecycles — is identical whatever the thread count, so the
        // exported JSON is byte-identical too.
        assert_eq!(ta, tb);
        assert_eq!(tb, tc);
        assert_eq!(ta.to_chrome_json(), tc.to_chrome_json());
        // Every study phase shows up in the event log.
        for phase in ["generate", "crawl", "fingerprint", "join", "analyze"] {
            assert!(
                ta.events.iter().any(|e| e.phase == phase),
                "phase {phase} missing from trace"
            );
        }
        // Cost attribution reached both profilers.
        assert!(!ta.patterns.is_empty(), "pattern profile empty");
        assert!(!ta.domains.is_empty(), "domain profile empty");
        assert!(ta.patterns.iter().any(|(_, s)| s.vm_steps > 0));
        // Tracing is observational: the study's results are unchanged,
        // and an untraced run attaches no trace at all.
        let plain_store = temp_store("untraced");
        let plain = Pipeline::new(StudyConfig::quick())
            .domains(80)
            .timeline(Timeline::truncated(4))
            .checkpoint(&plain_store)
            .run()
            .expect("study");
        assert!(plain.trace.is_none());
        assert_eq!(plain.collection.points.len(), a.collection.points.len());
        // Every page and summary of every week is in the store's bytes.
        assert_eq!(
            std::fs::read(&plain_store).expect("untraced store"),
            std::fs::read(&traced_store).expect("traced store")
        );
        for store in [plain_store, traced_store] {
            let _ = std::fs::remove_file(store);
        }
    }
}
