//! Chaos integration for the causal tracer: a hostile-profile study must
//! export a byte-identical canonical trace at every thread count, and
//! every quarantined task failure must carry its flight-recorder tail.
//!
//! Tracing is pure observation — the same run untraced produces the
//! same dataset — so these tests also pin the "never changes results"
//! contract at the full-pipeline level.

use std::sync::Arc;
use webvuln::core::{full_report, Pipeline, StudyConfig};
use webvuln::exec::{Executor, SuperviseConfig};
use webvuln::net::{FaultPlan, RetryPolicy};
use webvuln::telemetry::trace::{self, Sink};
use webvuln::telemetry::{Telemetry, TraceMode, Tracer};
use webvuln::webgen::Timeline;

fn hostile_pipeline(threads: usize) -> Pipeline<'static> {
    Pipeline::new(StudyConfig::quick())
        .domains(150)
        .timeline(Timeline::truncated(4))
        .faults(FaultPlan::hostile(4_242))
        .retry(RetryPolicy::standard(2))
        .threads(threads)
}

#[test]
fn hostile_traced_study_is_byte_identical_across_thread_counts() {
    let traced = |threads: usize| {
        let telemetry = Telemetry::new().with_trace(TraceMode::Full);
        let results = hostile_pipeline(threads)
            .telemetry(&telemetry)
            .run()
            .expect("study");
        (results.trace.clone().expect("trace enabled"), results)
    };
    let (t1, r1) = traced(1);
    let (t2, _) = traced(2);
    let (t8, r8) = traced(8);

    // The canonical event sets — not just summaries — are identical, and
    // so is the exported Chrome trace, byte for byte.
    assert_eq!(t1, t2);
    assert_eq!(t1, t8);
    assert_eq!(t1.to_chrome_json(), t8.to_chrome_json());

    // The trace covers all five study phases even under hostile faults.
    for phase in ["generate", "crawl", "fingerprint", "join", "analyze"] {
        assert!(
            t1.events.iter().any(|e| e.phase == phase),
            "phase {phase} missing from trace"
        );
    }
    // Cost attribution survived the chaos: patterns charged VM steps,
    // domains charged fetch lifecycles.
    assert!(t1.patterns.iter().any(|(_, s)| s.vm_steps > 0));
    assert!(t1.domains.iter().any(|(_, s)| s.attempts > 0));
    // Hostile faults actually exercised the failure lifecycle events.
    assert!(t1.domains.iter().any(|(_, s)| s.errors > 0));

    // Observation never changes the observed: the traced datasets agree
    // with each other and the report's cost-centers section is stable.
    assert_eq!(
        r1.collection.points.len(),
        r8.collection.points.len(),
        "week counts agree"
    );
    let report = full_report(&r1);
    assert!(report.contains("Top cost centers"), "{report}");
}

#[test]
fn tracing_never_changes_the_dataset() {
    let store = |tag: &str| {
        let path = std::env::temp_dir().join(format!(
            "webvuln-trace-{tag}-{}.wvstore",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    };
    let (traced_store, untraced_store) = (store("traced"), store("untraced"));
    let telemetry = Telemetry::new().with_trace(TraceMode::Full);
    let traced = hostile_pipeline(2)
        .telemetry(&telemetry)
        .checkpoint(&traced_store)
        .run()
        .expect("traced study");
    let untraced = hostile_pipeline(2)
        .checkpoint(&untraced_store)
        .run()
        .expect("untraced study");
    assert!(untraced.trace.is_none());
    // Every week's pages and summaries are in the committed bytes.
    assert_eq!(
        std::fs::read(&traced_store).expect("traced store"),
        std::fs::read(&untraced_store).expect("untraced store"),
        "the committed weeks diverge"
    );
    assert_eq!(traced.dataset.filtered_out, untraced.dataset.filtered_out);
    for path in [traced_store, untraced_store] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn quarantined_failures_carry_flight_recorder_tails() {
    // Ring mode is the always-affordable tier: no export, but every
    // supervised quarantine still snapshots the task's last events.
    let tracer = Tracer::new(TraceMode::Ring);
    let _guard = tracer.install();
    let items: Vec<u64> = (0..64).collect();
    let executor = Arc::new(Executor::new(4));
    let (out, _stats, failures) =
        executor.map_supervised(&items, SuperviseConfig::new().max_failures(64), |n| {
            trace::emit("item.seen", "", &format!("n={n}"), 10, Sink::RingOnly);
            if n % 7 == 3 {
                panic!("injected failure on item {n}");
            }
            *n
        });
    assert!(out.iter().filter(|o| o.is_none()).count() >= 8);
    assert!(!failures.is_empty());
    for failure in &failures {
        assert!(
            !failure.trace_tail.is_empty(),
            "quarantine record for item {} lost its flight-recorder tail",
            failure.index
        );
        assert!(
            failure.trace_tail.iter().any(|l| l.contains("item.seen")),
            "tail misses the task's own events: {:?}",
            failure.trace_tail
        );
    }
}

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The canonical trace of one small hostile study, pinned byte for byte:
/// event count, length and hash of the Chrome export, hash of the
/// cost-centers report. Any change to which events a run emits, their
/// context, order or rendering moves them.
///
/// Last moved when the fingerprint gate learned every literal a pattern
/// can start with: fewer patterns run the regex VM, so only the pattern
/// table of the cost-centers report moved (its hash). It led with
/// `jQuery-UI/url#1`, 767 runs and no hit, and now leads with
/// `jQuery/url#1`, 185 runs and 67 hits as before. The domain table, the
/// 862 events and the Chrome export's length and hash are unchanged.
///
/// Before that, when a run without a store began committing its weeks to
/// one kept in memory, the study began emitting `store`-phase events (four
/// `store.commit`s and a `store.finalize`, 857 → 862 events).
#[test]
fn canonical_trace_bytes_are_pinned() {
    let telemetry = Telemetry::new().with_trace(TraceMode::Full);
    let results = Pipeline::new(StudyConfig::quick())
        .seed(42)
        .domains(120)
        .timeline(Timeline::truncated(4))
        .faults(FaultPlan::hostile(42))
        .retry(RetryPolicy::standard(2))
        .threads(2)
        .telemetry(&telemetry)
        .run()
        .expect("study");
    let trace = results.trace.expect("trace enabled");
    let chrome = trace.to_chrome_json();
    let top = trace.render_top_cost_centers(10);
    assert_eq!(
        (
            trace.events.len(),
            chrome.len(),
            fnv1a(chrome.as_bytes()),
            fnv1a(top.as_bytes())
        ),
        (
            862,
            206_378,
            2_969_348_227_762_632_320,
            2_373_184_765_310_081_314
        )
    );
}
