//! The watch spool's files are store segment files: whatever week or
//! genesis a producer writes reads back equal, and a file the format
//! cannot hold is refused with an error naming it — never mis-decoded.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use webvuln::analysis::apply_filter;
use webvuln::analysis::dataset::{CollectConfig, Collector};
use webvuln::analysis::store_io::{snapshot_to_week, week_into_snapshot};
use webvuln::failpoint::check;
use webvuln::net::FaultPlan;
use webvuln::store::codec::{crc32, write_i64, write_str, write_u64};
use webvuln::store::{
    DetectionRecord, DomainRecord, FlashRecord, Genesis, PageRecord, ScriptRecord, WeekData,
    WordPressRecord,
};
use webvuln::watch::{
    read_genesis_file, read_week_file, week_file_name, write_genesis_file, write_week_file,
    WatchError, GENESIS_FILE,
};
use webvuln::webgen::{Ecosystem, EcosystemConfig, Timeline};

const HOST_CHARS: &str = "abcdefghijklmnopqrstuvwxyz0123456789-.";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("webvuln-spool-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Six weeks of 24 domains crawled under hostile faults with
/// carry-forward: dead domains, error statuses, carried pages.
fn collected_weeks() -> Vec<WeekData> {
    let ecosystem = Arc::new(Ecosystem::generate(EcosystemConfig {
        seed: 19,
        domain_count: 24,
        timeline: Timeline::truncated(6),
    }));
    let outcome = Collector::from_config(CollectConfig {
        faults: FaultPlan::hostile(19),
        carry_forward: true,
        ..CollectConfig::default()
    })
    .run(&ecosystem)
    .expect("collection");
    // The weeks minus the §4.1 verdict, as the analysis sees them.
    let filtered = outcome.dataset.filtered_out.iter().cloned().collect();
    let kept = |week| {
        let mut snapshot = week_into_snapshot(week).expect("snapshot");
        apply_filter(&mut snapshot, &filtered);
        snapshot_to_week(&snapshot)
    };
    let weeks = outcome.reader.stream();
    weeks.map(|week| kept(week.expect("week"))).collect()
}

/// The variants a synthetic crawl rarely or never produces.
fn rare_week() -> WeekData {
    let page = |page: PageRecord| Some(page);
    let records = vec![
        DomainRecord {
            host: "transport-failure.example".into(),
            status: None,
            body_len: 0,
            page: None,
        },
        DomainRecord {
            host: "wp-unknown.example".into(),
            status: Some(200),
            body_len: 812,
            page: page(PageRecord {
                wordpress: WordPressRecord::DetectedUnknownVersion,
                ..PageRecord::default()
            }),
        },
        DomainRecord {
            host: "flash.example".into(),
            status: Some(200),
            body_len: 2_048,
            page: page(PageRecord {
                flash: vec![
                    FlashRecord {
                        swf_url: "/intro.swf".into(),
                        allow_script_access: Some("always".into()),
                    },
                    FlashRecord {
                        swf_url: "/banner.swf".into(),
                        allow_script_access: None,
                    },
                ],
                resource_types: vec![0, 5, 5],
                ..PageRecord::default()
            }),
        },
        DomainRecord {
            host: "github-scripts.example".into(),
            status: Some(503),
            body_len: 64,
            page: page(PageRecord {
                detections: vec![DetectionRecord {
                    library: "jquery".into(),
                    version: None,
                    external_host: Some("w.github.io".into()),
                    integrity: true,
                    crossorigin: Some("use-credentials".into()),
                    url: "https://w.github.io/jq.js".into(),
                }],
                wordpress: WordPressRecord::Detected("5.5.1".into()),
                github_scripts: vec![ScriptRecord {
                    host: "w.github.io".into(),
                    url: "https://w.github.io/jq.js".into(),
                    integrity: true,
                    crossorigin: Some("use-credentials".into()),
                }],
                external_scripts: 3,
                external_scripts_without_integrity: 2,
                crossorigin_values: vec!["use-credentials".into(), "anonymous".into()],
                ..PageRecord::default()
            }),
        },
    ];
    WeekData {
        week: 0,
        date_days: 17_600,
        records,
    }
}

#[test]
fn week_files_read_back_what_was_written() {
    let dir = scratch("weeks");
    let mut pool = collected_weeks();
    assert!(
        pool.iter()
            .flat_map(|w| &w.records)
            .any(|r| r.page.is_none())
            && pool
                .iter()
                .flat_map(|w| &w.records)
                .any(|r| r.page.is_some()),
        "the hostile crawl must yield both dead and usable domains"
    );
    pool.push(rare_week());
    pool.push(WeekData {
        week: 0,
        date_days: 0,
        records: vec![],
    });
    check::run("spool week round trip", 96, |g| {
        let mut week = g.pick(&pool).clone();
        // Any index and date the codec can carry, dates before 1970 too.
        week.week = g.range(0..=99_999) as usize;
        week.date_days = g.range(0..=40_000) as i64 - 20_000;
        // Records of another pool week spliced in: a standalone file has
        // its own string table, so nothing it holds depends on order or
        // on what a store saw before.
        let extra = g.pick(&pool).records.clone();
        if g.bool() && !extra.is_empty() {
            let at = g.range(0..=week.records.len() as u64) as usize;
            let take = g.range(1..=extra.len() as u64) as usize;
            week.records.splice(at..at, extra[..take].iter().cloned());
        }
        let path = write_week_file(&dir, &week).expect("write week");
        assert_eq!(path, dir.join(week_file_name(week.week)));
        assert_eq!(read_week_file(&path).expect("read week"), week);
        std::fs::remove_file(&path).expect("remove week file");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn genesis_files_read_back_what_was_written() {
    let dir = scratch("genesis");
    check::run("spool genesis round trip", 96, |g| {
        let genesis = Genesis {
            start_days: g.range(0..=40_000) as i64 - 20_000,
            weeks_total: g.range(0..=100_000) as usize,
            // Ranks in any order, repeated hosts included.
            ranks: g.vec(0..=40, |g| {
                (g.string(HOST_CHARS, 0..=24), g.range(0..=u64::MAX))
            }),
        };
        let path = write_genesis_file(&dir, &genesis).expect("write genesis");
        assert_eq!(path, dir.join(GENESIS_FILE));
        assert_eq!(read_genesis_file(&path).expect("read genesis"), genesis);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// A segment envelope of `kind` around `payload`, CRC included.
fn seal(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = vec![kind];
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(&out).to_le_bytes());
    out
}

/// A well-sealed week file whose one record is a back-reference to
/// absolute offset `target`. Its one interned string is three NUL bytes
/// at offset 23 — which, read as a record body, is a valid dead domain.
fn week_file_with_backref(header: &[u8], target: u64) -> Vec<u8> {
    let mut records = Vec::new();
    write_u64(&mut records, 1); // one record:
    write_u64(&mut records, 0); // host symbol 0,
    records.push(1); // stored as a back-reference
    write_u64(&mut records, target);
    let mut payload = Vec::new();
    write_u64(&mut payload, 1); // string block of one string
    write_str(&mut payload, "\0\0\0");
    write_u64(&mut payload, 0); // week 0
    write_i64(&mut payload, 17_600);
    write_u64(&mut payload, records.len() as u64);
    payload.extend_from_slice(&records);
    write_u64(&mut payload, 1); // index of one entry, agreeing
    write_u64(&mut payload, 0);
    write_u64(&mut payload, target);
    let mut file = header.to_vec();
    file.extend(seal(1, &payload));
    file
}

/// Asserts `result` is a decode refusal that names `path`.
fn assert_refused<T: std::fmt::Debug>(result: Result<T, WatchError>, path: &Path, case: &str) {
    match result {
        Err(err @ WatchError::Corrupt { .. }) => {
            assert!(
                err.to_string().contains(&path.display().to_string()),
                "{case}: error does not name the file: {err}"
            );
        }
        other => panic!("{case}: expected a refusal naming the file, got {other:?}"),
    }
}

#[test]
fn files_a_segment_file_cannot_hold_are_refused_by_name() {
    let dir = scratch("refusals");
    let week_path = write_week_file(&dir, &rare_week()).expect("write week");
    let genesis = Genesis {
        start_days: 17_600,
        weeks_total: 4,
        ranks: vec![("a.example".into(), 1)],
    };
    let genesis_path = write_genesis_file(&dir, &genesis).expect("write genesis");
    let week_bytes = std::fs::read(&week_path).expect("read week bytes");
    let genesis_bytes = std::fs::read(&genesis_path).expect("read genesis bytes");
    let refused_week = |bytes: &[u8], case: &str| {
        std::fs::write(&week_path, bytes).expect("write case");
        assert_refused(read_week_file(&week_path), &week_path, case);
    };

    // A back-reference: into this segment's own string block (which
    // would decode as a dead domain), and to before any segment.
    let header = &week_bytes[..16];
    refused_week(
        &week_file_with_backref(header, 23),
        "backref into the prefix",
    );
    refused_week(
        &week_file_with_backref(header, 3),
        "backref into the header",
    );
    // The wrong segment kind, either way round.
    refused_week(&genesis_bytes, "genesis segment in a week file");
    std::fs::write(&genesis_path, &week_bytes).expect("write case");
    assert_refused(
        read_genesis_file(&genesis_path),
        &genesis_path,
        "week segment in a genesis file",
    );
    // Bytes after the envelope — a second segment included.
    let mut trailing = week_bytes.clone();
    trailing.push(0);
    refused_week(&trailing, "one trailing byte");
    let mut doubled = week_bytes.clone();
    doubled.extend_from_slice(&week_bytes[16..]);
    refused_week(&doubled, "a second segment");
    // A header that is not this format's: version, magic, and the
    // magic this crate's own spool format used to carry.
    let mut version = week_bytes.clone();
    version[8] = 2;
    refused_week(&version, "format version 2");
    let mut magic = week_bytes.clone();
    magic[0] ^= 0x20;
    refused_week(&magic, "bad magic");
    let mut old = b"WVWEEK01".to_vec();
    old.extend_from_slice(&week_bytes[8..]);
    refused_week(&old, "old spool format");
    refused_week(&[], "empty file");
    // And the file still reads once the real bytes are back.
    std::fs::write(&week_path, &week_bytes).expect("restore");
    assert_eq!(read_week_file(&week_path).expect("read week"), rare_week());
    let _ = std::fs::remove_dir_all(&dir);
}
