//! Integration tests for the telemetry layer: counters recorded by the
//! crawler and fault injector must agree exactly with what the pipeline
//! actually did, and a study run must time every phase.

use std::sync::Arc;
use webvuln::analysis::dataset::{CollectConfig, Collector};
use webvuln::core::{telemetry_json, Pipeline, StudyConfig};
use webvuln::net::{CrawlOptions, FaultPlan, VirtualNet};
use webvuln::net::{Request, Response};
use webvuln::telemetry::{Registry, Telemetry};
use webvuln::webgen::{Ecosystem, EcosystemConfig, Timeline};

fn ecosystem(domains: usize, weeks: usize) -> Arc<Ecosystem> {
    Arc::new(Ecosystem::generate(EcosystemConfig {
        seed: 4_242,
        domain_count: domains,
        timeline: Timeline::truncated(weeks),
    }))
}

#[test]
fn crawler_fetch_count_equals_dataset_page_count() {
    let domains = 90;
    let weeks = 4;
    let eco = ecosystem(domains, weeks);
    let telemetry = Telemetry::new();
    let outcome = Collector::from_config(CollectConfig::default())
        .telemetry(&telemetry)
        .run(&eco)
        .expect("collection");

    // Every domain is attempted every week, regardless of filtering.
    let snap = telemetry.snapshot();
    assert_eq!(
        snap.counter("net.fetches_total"),
        Some((domains * weeks) as u64)
    );
    // Every usable page was fingerprinted; filtering only prunes pages
    // afterwards, so the engine saw at least as many as the dataset kept.
    let filtered = &outcome.dataset.filtered_out;
    let kept = |week: webvuln::store::WeekData| {
        let pages = week.records.iter().filter(|r| r.page.is_some());
        pages.filter(|r| !filtered.contains(&r.host)).count() as u64
    };
    let kept: u64 = outcome
        .reader
        .stream()
        .map(|w| kept(w.expect("week")))
        .sum();
    let fingerprinted = snap.counter("fp.pages_total").expect("fp pages");
    assert!(
        fingerprinted >= kept,
        "fingerprinted {fingerprinted} < kept {kept}"
    );
    // The crawl and fingerprint phases were entered once per week.
    assert_eq!(snap.span("crawl").expect("crawl span").count, weeks as u64);
    assert_eq!(
        snap.span("fingerprint").expect("fingerprint span").count,
        weeks as u64
    );
}

#[test]
fn fault_counters_match_the_injected_plan() {
    let plan = FaultPlan {
        seed: 77,
        connect_fail_permille: 120,
        truncate_permille: 0,
        chunked_permille: 0,
        ..FaultPlan::none()
    };
    let names: Vec<String> = (0..400).map(|i| format!("h{i:04}.example")).collect();
    let expected_refusals = names.iter().filter(|h| plan.connect_fails(h)).count() as u64;
    assert!(expected_refusals > 0, "plan must refuse someone");

    let registry = Registry::new();
    let handler = Arc::new(|_req: &Request| Response::html("x".repeat(600)));
    let net = VirtualNet::new(handler)
        .with_fault_metrics(&registry)
        .with_faults(plan);
    let records = CrawlOptions::new().registry(&registry).run(&names, &net);

    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("net.faults_refused_total"),
        Some(expected_refusals)
    );
    assert_eq!(
        snap.counter("net.fetch_errors_total"),
        Some(expected_refusals)
    );
    assert_eq!(snap.counter("net.fetches_total"), Some(400));
    let failed = records.values().filter(|r| r.error.is_some()).count() as u64;
    assert_eq!(failed, expected_refusals);
}

#[test]
fn truncation_counter_counts_only_cuts_that_bite() {
    // A 4 KiB body: every truncation point (64..1024 bytes of wire) falls
    // inside the response, so cut hosts == truncation count exactly.
    let plan = FaultPlan {
        seed: 13,
        connect_fail_permille: 0,
        truncate_permille: 250,
        chunked_permille: 0,
        ..FaultPlan::none()
    };
    let names: Vec<String> = (0..200).map(|i| format!("t{i:04}.example")).collect();
    let expected_cuts = names
        .iter()
        .filter(|h| plan.truncate_at(h).is_some())
        .count() as u64;
    assert!(expected_cuts > 0, "plan must truncate someone");

    let registry = Registry::new();
    let handler = Arc::new(|_req: &Request| Response::html("y".repeat(4096)));
    let net = VirtualNet::new(handler)
        .with_fault_metrics(&registry)
        .with_faults(plan);
    let _ = CrawlOptions::new().registry(&registry).run(&names, &net);

    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("net.faults_truncated_total"),
        Some(expected_cuts)
    );
}

#[test]
fn quick_study_times_all_five_phases_and_renders_json() {
    let mut config = StudyConfig::quick();
    config.domain_count = 120;
    config.timeline = Timeline::truncated(5);
    let telemetry = Telemetry::new();
    let results = Pipeline::new(config)
        .telemetry(&telemetry)
        .run()
        .expect("study");

    let snap = &results.telemetry;
    for phase in ["generate", "crawl", "fingerprint", "join", "analyze"] {
        let span = snap
            .span(phase)
            .unwrap_or_else(|| panic!("{phase} missing"));
        assert!(span.count > 0, "{phase} never entered");
    }
    assert_eq!(snap.counter("net.fetches_total"), Some(120 * 5));
    assert!(snap.counter("fp.hits_url_total").unwrap_or(0) > 0);
    assert!(snap.counter("fp.vm_steps_total").unwrap_or(0) > 0);

    let json = telemetry_json(&results);
    for key in [
        "\"counters\":{",
        "\"net.fetches_total\"",
        "\"histograms\":[",
        "\"path\":\"crawl\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}
