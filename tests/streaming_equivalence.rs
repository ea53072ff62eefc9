//! One kept form: every run commits each week to a store and folds what
//! it committed, so a run that keeps its store in memory and one that
//! checkpoints it to disk must commit the same store, week for week, and
//! render the byte-identical report, whatever the thread or shard count — even
//! under the hostile fault profile, and on both collection schedules
//! (weeks one at a time under carry-forward, fanned out without it).
//!
//! The merge-level invariants (associativity, `Default` as identity)
//! are pinned by unit tests in `webvuln_analysis::accum`; this suite
//! pins the end-to-end contract.

use std::sync::Arc;
use webvuln::analysis::dataset::{CollectConfig, Collector};
use webvuln::core::{full_report, Pipeline, StudyConfig, StudyResults};
use webvuln::net::FaultPlan;
use webvuln::webgen::{Ecosystem, EcosystemConfig, Timeline};
use webvuln::AnyReader;

fn config(carry_forward: bool) -> StudyConfig {
    StudyConfig {
        seed: 99,
        domain_count: 150,
        timeline: Timeline::truncated(8),
        faults: FaultPlan::hostile(99),
        carry_forward,
        ..StudyConfig::default()
    }
}

fn temp(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("webvuln-streameq-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&path);
    path
}

/// The report minus the run-dependent telemetry tail (wall-clock phase
/// timings differ between runs; everything above them must not).
fn report_prefix(results: &StudyResults) -> String {
    full_report(results)
        .split("Run telemetry")
        .next()
        .expect("report")
        .to_string()
}

/// The store a collection of `config` on `threads` workers keeps in
/// memory — what `Pipeline::run` without a checkpoint commits to.
fn in_memory_store(config: StudyConfig, threads: usize) -> AnyReader {
    let ecosystem = Arc::new(Ecosystem::generate(EcosystemConfig {
        seed: config.seed,
        domain_count: config.domain_count,
        timeline: config.timeline,
    }));
    let collector = Collector::from_config(CollectConfig {
        concurrency: threads,
        faults: config.faults,
        carry_forward: config.carry_forward,
        ..CollectConfig::default()
    });
    collector.run(&ecosystem).expect("collection").reader
}

/// Two stores hold the same study: genesis, §4.1 verdict and every week,
/// record for record. That a store kept in memory holds the very bytes a
/// file would is pinned in the store crate, against the memory itself.
fn assert_same_store(a: &AnyReader, b: &AnyReader, label: &str) {
    assert_eq!(a.genesis(), b.genesis(), "{label}");
    assert_eq!(a.filtered_out(), b.filtered_out(), "{label}");
    assert_eq!(a.weeks_committed(), b.weeks_committed(), "{label}");
    for week in 0..a.weeks_committed() {
        let (wa, wb) = (a.week(week), b.week(week));
        assert_eq!(wa.expect("week"), wb.expect("week"), "{label} week {week}");
    }
}

#[test]
fn streaming_report_and_store_are_byte_identical_across_threads() {
    for carry_forward in [true, false] {
        let checkpoint = temp(&format!("c{carry_forward}.wvstore"));
        let reference = Pipeline::new(config(carry_forward))
            .threads(2)
            .checkpoint(&checkpoint)
            .run()
            .expect("checkpointed");
        let reference_report = report_prefix(&reference);
        let reference_store = AnyReader::open(&checkpoint).expect("checkpoint store");
        for threads in [1, 2, 8] {
            let label = format!("carry_forward={carry_forward} threads={threads}");
            let results = Pipeline::new(config(carry_forward))
                .threads(threads)
                .run()
                .expect("store-less");
            assert_eq!(
                results.dataset.filtered_out, reference.dataset.filtered_out,
                "{label}"
            );
            assert_eq!(report_prefix(&results), reference_report, "{label}");
            let in_memory = in_memory_store(config(carry_forward), threads);
            let file = in_memory.shard_reader(0).expect("one file");
            assert_eq!((file.torn_bytes(), file.had_footer()), (0, true), "{label}");
            let reference_file = reference_store.shard_reader(0).expect("one file");
            assert_eq!(file.data_bytes(), reference_file.data_bytes(), "{label}");
            assert_same_store(&in_memory, &reference_store, &label);
        }
        let _ = std::fs::remove_file(&checkpoint);
    }
}

#[test]
fn streaming_report_is_byte_identical_across_shard_counts() {
    let reference = Pipeline::new(config(true))
        .threads(2)
        .run()
        .expect("store-less");
    let reference_report = report_prefix(&reference);
    let in_memory = in_memory_store(config(true), 2);
    for shards in [1, 4, 16] {
        let store = temp(&format!("s{shards}"));
        let results = Pipeline::new(config(true))
            .threads(8)
            .shards(shards)
            .checkpoint(&store)
            .run()
            .expect("checkpointed");
        assert_eq!(report_prefix(&results), reference_report, "shards={shards}");
        // The committed store holds the weeks the store-less run kept in
        // memory, record for record.
        let restored = AnyReader::open(&store).expect("open");
        assert_same_store(&restored, &in_memory, &format!("shards={shards}"));
        if shards == 1 {
            let _ = std::fs::remove_file(&store);
        } else {
            let _ = std::fs::remove_dir_all(&store);
        }
    }
}

/// `streaming` is kept for callers of the builder, and does nothing.
#[test]
fn streaming_is_a_no_op_without_a_store() {
    let streaming = Pipeline::new(config(true))
        .streaming(true)
        .run()
        .expect("a store-less run needs no store");
    let plain = Pipeline::new(config(true)).run().expect("store-less");
    assert_eq!(report_prefix(&streaming), report_prefix(&plain));
}
