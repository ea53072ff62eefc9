//! Chaos integration: the resilient crawl layer under a hostile fault
//! profile — transient connect refusals, stalls, and 5xx bursts.
//!
//! Three properties must hold at once: retries strictly widen coverage
//! over a single-attempt crawl (without ever shrinking it), the outcome
//! is byte-identical regardless of worker count, and a run killed in the
//! middle of a retry storm resumes from the snapshot store into the exact
//! same dataset as an uninterrupted run.

use std::collections::BTreeSet;
use std::sync::Arc;
use webvuln::analysis::apply_filter;
use webvuln::analysis::dataset::{CollectConfig, Collector, WeekSnapshot};
use webvuln::analysis::store_io::{week_into_snapshot, CheckpointOutcome};
use webvuln::core::{full_report, Pipeline, StudyConfig, Telemetry};
use webvuln::net::{
    BreakerConfig, CrawlOptions, FaultPlan, Request, Response, RetryPolicy, VirtualClock,
    VirtualNet,
};
use webvuln::webgen::{Ecosystem, EcosystemConfig, Timeline};

fn ecosystem(seed: u64, domains: usize, weeks: usize) -> Arc<Ecosystem> {
    Arc::new(Ecosystem::generate(EcosystemConfig {
        seed,
        domain_count: domains,
        timeline: Timeline::truncated(weeks),
    }))
}

/// The weeks a collection committed, minus its §4.1 verdict.
fn kept_weeks(outcome: CheckpointOutcome) -> Vec<WeekSnapshot> {
    let filtered: BTreeSet<String> = outcome.dataset.filtered_out.iter().cloned().collect();
    let kept = |week| {
        let mut snapshot = week_into_snapshot(week).expect("stored week converts");
        apply_filter(&mut snapshot, &filtered);
        snapshot
    };
    let weeks = outcome.reader.stream();
    weeks
        .map(|week| kept(week.expect("stored week decodes")))
        .collect()
}

fn collect(eco: &Arc<Ecosystem>, config: CollectConfig) -> CheckpointOutcome {
    Collector::from_config(config).run(eco).expect("collection")
}

fn collect_with(
    eco: &Arc<Ecosystem>,
    config: CollectConfig,
    telemetry: &Telemetry,
) -> Vec<WeekSnapshot> {
    let outcome = Collector::from_config(config).telemetry(telemetry).run(eco);
    kept_weeks(outcome.expect("collection"))
}

fn usable_pages(weeks: &[WeekSnapshot]) -> Vec<BTreeSet<String>> {
    weeks
        .iter()
        .map(|w| w.pages.keys().cloned().collect())
        .collect()
}

fn average_collected(weeks: &[WeekSnapshot]) -> f64 {
    let total: usize = weeks.iter().map(WeekSnapshot::collected).sum();
    total as f64 / weeks.len().max(1) as f64
}

#[test]
fn retries_recover_strictly_more_than_a_single_attempt() {
    let eco = ecosystem(4_242, 250, 5);
    let hostile = FaultPlan::hostile(4_242);
    let single = kept_weeks(collect(
        &eco,
        CollectConfig {
            faults: hostile,
            ..CollectConfig::default()
        },
    ));
    let retried = kept_weeks(collect(
        &eco,
        CollectConfig {
            faults: hostile,
            // One attempt past the hostile profile's healing threshold.
            retry: RetryPolicy::standard(3),
            ..CollectConfig::default()
        },
    ));
    // The first attempt of the retried crawl is the single-attempt crawl,
    // so coverage can only grow: every page the single-attempt crawl got,
    // the retried crawl got too — plus the recovered transients.
    let single_pages = usable_pages(&single);
    let retried_pages = usable_pages(&retried);
    let mut recovered = 0;
    for (week_single, week_retried) in single_pages.iter().zip(&retried_pages) {
        assert!(
            week_single.is_subset(week_retried),
            "retries must never lose a page"
        );
        recovered += week_retried.len() - week_single.len();
    }
    assert!(
        recovered > 0,
        "hostile profile with retries must recover transient failures"
    );
    assert!(average_collected(&retried) > average_collected(&single));
}

#[test]
fn chaos_crawl_is_identical_across_concurrency() {
    let eco = ecosystem(4_243, 150, 6);
    let config = |concurrency| CollectConfig {
        concurrency,
        faults: FaultPlan::hostile(4_243),
        retry: RetryPolicy::standard(2),
        breaker: Some(BreakerConfig::default()),
        carry_forward: true,
        ..CollectConfig::default()
    };
    let serial = collect(&eco, config(1));
    let parallel = collect(&eco, config(8));
    assert_eq!(serial.dataset.ranks, parallel.dataset.ranks);
    assert_eq!(serial.dataset.filtered_out, parallel.dataset.filtered_out);
    let (serial, parallel) = (kept_weeks(serial), kept_weeks(parallel));
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.summaries, b.summaries);
        assert_eq!(a.pages, b.pages);
        assert_eq!(a.carried_forward, b.carried_forward);
    }
}

#[test]
fn retry_counters_match_the_injected_plan_exactly() {
    // A plan with only transient refusals healing after 2 attempts, and a
    // 3-attempt budget: every afflicted host burns exactly 2 retries and
    // recovers, so all four counters are computable from the plan alone.
    let plan = FaultPlan {
        seed: 99,
        transient_fail_permille: 150,
        heal_after_attempts: 2,
        ..FaultPlan::none()
    };
    let week = 3;
    let names: Vec<String> = (0..400).map(|i| format!("h{i:04}.example")).collect();
    let afflicted = names
        .iter()
        .filter(|h| plan.transient_connect_fails(h, week, 0))
        .count() as u64;
    assert!(afflicted > 0, "plan must afflict someone");

    let telemetry = Telemetry::new();
    let registry = telemetry.registry();
    let handler = Arc::new(|_req: &Request| Response::html("x".repeat(600)));
    let net = VirtualNet::new(handler)
        .with_fault_metrics(registry)
        .with_week(week)
        .with_faults(plan);
    let clock = VirtualClock::new();
    let records = CrawlOptions::new()
        .threads(8)
        .retry(RetryPolicy::standard(2))
        .clock(&clock)
        .registry(registry)
        .run(&names, &net);

    let recovered = records.values().filter(|r| r.recovered).count() as u64;
    assert_eq!(recovered, afflicted);
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("net.retries_total"), Some(2 * afflicted));
    assert_eq!(snap.counter("net.retry_success_total"), Some(afflicted));
    assert_eq!(
        snap.counter("net.faults_transient_refused_total"),
        Some(2 * afflicted)
    );
    assert_eq!(snap.counter("net.breaker_open_total"), Some(0));
}

#[test]
fn carry_forward_counter_covers_the_dataset_ground_truth() {
    // Transients that never heal within the budget: afflicted hosts stay
    // down for the whole week and their last usable snapshot is carried.
    let eco = ecosystem(4_245, 200, 7);
    let telemetry = Telemetry::new();
    let weeks = collect_with(
        &eco,
        CollectConfig {
            faults: FaultPlan {
                seed: 4_245,
                transient_fail_permille: 200,
                heal_after_attempts: 9,
                ..FaultPlan::none()
            },
            retry: RetryPolicy::standard(2),
            carry_forward: true,
            ..CollectConfig::default()
        },
        &telemetry,
    );
    let carried_kept: usize = weeks.iter().map(|w| w.carried_forward.len()).sum();
    assert!(carried_kept > 0, "fixture must exercise carry-forward");
    // The counter tallies live carry events; the stored weeks minus the
    // verdict keep only those surviving the §4.1 inaccessibility filter.
    let counted = telemetry
        .snapshot()
        .counter("net.carry_forward_total")
        .unwrap_or(0);
    assert!(counted >= carried_kept as u64);
    // Carried pages are flagged, never invented: each one has a summary
    // that is an error or empty for that week.
    for week in &weeks {
        for domain in &week.carried_forward {
            assert!(week.pages.contains_key(domain));
            let summary = &week.summaries[domain];
            assert!(
                summary.status.is_none()
                    || summary.status.is_some_and(|s| (400..600).contains(&s))
                    || summary.body_len < 400,
                "{domain} carried despite a usable summary"
            );
        }
    }
}

#[test]
fn store_resumes_cleanly_mid_retry_storm() {
    let config = StudyConfig {
        seed: 4_246,
        domain_count: 80,
        timeline: Timeline::truncated(5),
        faults: FaultPlan::hostile(4_246),
        retry: RetryPolicy::standard(2),
        breaker: Some(BreakerConfig::default()),
        carry_forward: true,
        ..StudyConfig::default()
    };
    let analysis_part = |report: &str| report.split("Run telemetry").next().unwrap().to_string();
    let baseline = analysis_part(&full_report(
        &Pipeline::new(config).run().expect("baseline"),
    ));

    let store = std::env::temp_dir().join(format!(
        "webvuln-chaos-resume-{}.wvstore",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store);
    let clean = Pipeline::new(config)
        .checkpoint(&store)
        .run()
        .expect("uninterrupted checkpointed run");
    assert_eq!(baseline, analysis_part(&full_report(&clean)));
    let reference_bytes = std::fs::read(&store).expect("read reference store");

    // Kill the run mid-storm: tear the store at 60% of its length and
    // resume. Breaker and carry-forward state must be replayed from the
    // restored weeks for the continuation to match.
    let cut = reference_bytes.len() * 6 / 10;
    std::fs::write(&store, &reference_bytes[..cut]).expect("write torn store");
    let resumed = Pipeline::new(config)
        .checkpoint(&store)
        .resume(true)
        .run()
        .expect("resume after kill");
    assert_eq!(
        baseline,
        analysis_part(&full_report(&resumed)),
        "resumed chaos run must match the uninterrupted one"
    );
    let healed = std::fs::read(&store).expect("read healed store");
    assert_eq!(healed, reference_bytes, "healed store bytes must match");
    let _ = std::fs::remove_file(&store);
}

/// The tentpole determinism contract: the same study at 1, 2, and 8
/// threads produces an identical dataset, byte-identical store files,
/// and an identical analysis report — under the hostile fault profile
/// with retries, where scheduling races would show up first.
#[test]
fn study_is_byte_identical_across_threads() {
    let config = |threads| StudyConfig {
        seed: 4_247,
        domain_count: 70,
        timeline: Timeline::truncated(4),
        concurrency: threads,
        faults: FaultPlan::hostile(4_247),
        retry: RetryPolicy::standard(2),
        ..StudyConfig::default()
    };
    let analysis_part = |report: &str| report.split("Run telemetry").next().unwrap().to_string();
    let run = |threads: usize| {
        let store = std::env::temp_dir().join(format!(
            "webvuln-thread-matrix-{threads}-{}.wvstore",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&store);
        let results = Pipeline::new(config(threads))
            .checkpoint(&store)
            .run()
            .expect("study");
        let bytes = std::fs::read(&store).expect("read store");
        let _ = std::fs::remove_file(&store);
        (results, bytes)
    };
    let (one, store_one) = run(1);
    let report_one = analysis_part(&full_report(&one));
    for threads in [2, 8] {
        let (many, store_many) = run(threads);
        assert_eq!(
            store_one, store_many,
            "store bytes differ at {threads} threads"
        );
        assert_eq!(
            report_one,
            analysis_part(&full_report(&many)),
            "analysis report differs at {threads} threads"
        );
        // The store bytes above pin every week's pages, summaries and
        // carried-forward flags.
        assert_eq!(one.dataset.ranks, many.dataset.ranks);
        assert_eq!(one.dataset.filtered_out, many.dataset.filtered_out);
    }
}

/// Kill/resume under parallelism: a single-threaded checkpointed run is
/// the reference; an 8-thread run killed mid-collection (store torn at an
/// arbitrary byte) and resumed on 8 threads must heal the store to the
/// reference bytes and reproduce the reference analysis.
#[test]
fn torn_store_resumes_identically_under_parallelism() {
    let config = |threads| StudyConfig {
        seed: 4_248,
        domain_count: 60,
        timeline: Timeline::truncated(5),
        concurrency: threads,
        faults: FaultPlan::hostile(4_248),
        retry: RetryPolicy::standard(2),
        breaker: Some(BreakerConfig::default()),
        carry_forward: true,
        ..StudyConfig::default()
    };
    let analysis_part = |report: &str| report.split("Run telemetry").next().unwrap().to_string();
    let store = std::env::temp_dir().join(format!(
        "webvuln-parallel-resume-{}.wvstore",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store);

    let reference = Pipeline::new(config(1))
        .checkpoint(&store)
        .run()
        .expect("single-threaded reference");
    let reference_bytes = std::fs::read(&store).expect("read reference store");
    let baseline = analysis_part(&full_report(&reference));

    // Kill an 8-thread run mid-collection: tear at 55% of the store.
    let cut = reference_bytes.len() * 55 / 100;
    std::fs::write(&store, &reference_bytes[..cut]).expect("write torn store");
    let resumed = Pipeline::new(config(8))
        .checkpoint(&store)
        .resume(true)
        .run()
        .expect("parallel resume");
    assert_eq!(
        baseline,
        analysis_part(&full_report(&resumed)),
        "parallel resume must reproduce the single-threaded analysis"
    );
    let healed = std::fs::read(&store).expect("read healed store");
    assert_eq!(
        healed, reference_bytes,
        "parallel resume must heal the store to the single-threaded bytes"
    );
    let _ = std::fs::remove_file(&store);
}
