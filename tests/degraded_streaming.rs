//! Degraded streaming: a sharded store with a quarantined shard still
//! streams and folds — the dead shard is skipped deterministically, the
//! result is identical at 1, 2, and 8 fold threads, a manual
//! [`WeekStream`] fold agrees with [`fold_study`], and the serve layer's
//! tables over the same degraded store are built from the same fold.
//!
//! This pins the degraded-continuation contract the watch daemon's
//! retro-scan and the query API both lean on: losing a shard downgrades
//! coverage, it never changes *which* answer the healthy shards give.

use webvuln::analysis::store_io::week_to_snapshot;
use webvuln::analysis::{
    apply_filter, fold_study, genesis_ranks, store_filter_verdict, AccumCtx, Accumulate, StudyAccum,
};
use webvuln::core::{Pipeline, StudyConfig};
use webvuln::cvedb::VulnDb;
use webvuln::net::FaultPlan;
use webvuln::store::{shard_file_name, AnyReader};
use webvuln::webgen::Timeline;
use webvuln::QueryService;

const SHARDS: usize = 4;
const WEEKS: usize = 6;

fn build_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "webvuln-degstream-{tag}-{}.wvshards",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    Pipeline::new(StudyConfig {
        seed: 8_200,
        domain_count: 80,
        timeline: Timeline::truncated(WEEKS),
        faults: FaultPlan::hostile(8_200),
        carry_forward: true,
        ..StudyConfig::default()
    })
    .shards(SHARDS)
    .checkpoint(&dir)
    .run()
    .expect("sharded pipeline run");
    dir
}

fn fold_fingerprint(reader: &AnyReader, db: &VulnDb, threads: usize) -> String {
    let accum = fold_study(reader, db, threads).expect("fold");
    format!("{:#?}", accum.finish(db))
}

#[test]
fn degraded_fold_and_stream_skip_the_dead_shard_deterministically() {
    let dir = build_store("fold");
    let db = VulnDb::builtin();

    // The healthy baseline, and the record count the full store holds.
    let full = AnyReader::open_degraded(&dir).expect("open full");
    assert!(!full.is_degraded());
    let full_fingerprint = fold_fingerprint(&full, &db, 2);
    let full_records: usize = full
        .stream()
        .map(|week| week.expect("full week").records.len())
        .sum();
    drop(full);

    // Quarantine one shard; the strict open refuses, the degraded open
    // serves the rest.
    std::fs::remove_file(dir.join(shard_file_name(1))).expect("quarantine shard 1");
    assert!(AnyReader::open(&dir).is_err(), "strict open must refuse");
    let reader = AnyReader::open_degraded(&dir).expect("degraded open");
    assert!(reader.is_degraded());
    assert_eq!(reader.shard_count(), SHARDS);
    assert_eq!(
        reader
            .shard_health()
            .iter()
            .filter(|h| !h.is_healthy())
            .count(),
        1
    );
    assert_eq!(reader.weeks_committed(), WEEKS, "weeks survive the loss");

    // The stream yields every week, in order, minus exactly the dead
    // shard's domains — and identically on every pass.
    let pass = |reader: &AnyReader| -> (Vec<usize>, usize) {
        let mut indices = Vec::new();
        let mut records = 0;
        for week in reader.stream() {
            let week = week.expect("degraded week");
            indices.push(week.week);
            records += week.records.len();
        }
        (indices, records)
    };
    let (indices, degraded_records) = pass(&reader);
    assert_eq!(indices, (0..WEEKS).collect::<Vec<_>>());
    assert!(
        degraded_records < full_records,
        "the dead shard's records must be gone ({degraded_records} vs {full_records})"
    );
    assert_eq!(pass(&reader), (indices, degraded_records), "second pass");

    // fold_study is thread-count invariant over the degraded store, and
    // differs from the full fold (the loss is visible, not silent).
    let degraded_fingerprint = fold_fingerprint(&reader, &db, 1);
    for threads in [2, 8] {
        assert_eq!(
            degraded_fingerprint,
            fold_fingerprint(&reader, &db, threads),
            "degraded fold diverged at {threads} threads"
        );
    }
    assert_ne!(
        degraded_fingerprint, full_fingerprint,
        "losing a shard must change the fold"
    );

    // A manual single-pass WeekStream fold — the watch daemon's
    // incremental shape — agrees with the parallel per-shard fold.
    let filtered = store_filter_verdict(&reader).expect("verdict");
    let ranks = genesis_ranks(reader.genesis());
    let ctx = AccumCtx {
        db: &db,
        ranks: &ranks,
    };
    let mut manual = StudyAccum::default();
    for week in reader.stream() {
        let mut snapshot = week_to_snapshot(&week.expect("week")).expect("snapshot");
        apply_filter(&mut snapshot, &filtered);
        manual.absorb(&snapshot, &ctx);
    }
    assert_eq!(
        format!("{:#?}", manual.finish(&db)),
        degraded_fingerprint,
        "stream fold and sharded fold disagree on the degraded store"
    );

    // The serve layer's tables over the same degraded store come from
    // the same fold — its Table 1 rows match ours exactly.
    let service = QueryService::open(&dir).expect("degraded service");
    let expected_table1 = fold_study(&reader, &db, 2)
        .expect("fold")
        .finish(&db)
        .table1;
    assert_eq!(
        format!("{:#?}", service.table1_rows()),
        format!("{:#?}", expected_table1.as_slice()),
        "serve tables diverged from the degraded fold"
    );
    assert!(service.reader().is_degraded());
    let _ = std::fs::remove_dir_all(&dir);
}
