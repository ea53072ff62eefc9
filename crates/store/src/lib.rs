//! # webvuln-store
//!
//! The on-disk persistence layer of the `webvuln` pipeline: an
//! append-only, segment-per-week binary snapshot store with
//! checkpoint/resume. The paper's longitudinal dataset spans 201 weekly
//! snapshots of 72k domains; re-crawling from scratch after every
//! interruption is untenable, and the naive JSON dump re-serializes 200
//! near-identical copies of every stable page. This store fixes both:
//!
//! * **Checkpointing** — [`StoreWriter::commit_week`] appends one
//!   CRC-protected segment per crawled week, then rewrites and syncs the
//!   footer, so a killed study loses at most the week in flight. A study
//!   with no store file commits the same bytes to memory
//!   ([`StoreWriter::in_memory`]) and reads them back the same way.
//! * **Resume** — [`StoreWriter::resume`] walks the file, checks that
//!   every committed week decodes, truncates any torn tail (a mid-commit
//!   crash) and hands back a writer at the first missing week; the
//!   committed weeks themselves are read through [`AnyReader`].
//! * **Delta encoding** — record bodies are canonical byte strings;
//!   a domain whose fingerprint and fetch outcome did not change since
//!   the previous week is stored as a back-reference to that week's
//!   bytes. Across a realistic timeline most records are hits, and the
//!   file ends up a fraction of the JSON dump's size.
//! * **String interning** — hosts, library slugs, version strings, and
//!   URLs are written once, file-wide, and referenced by varint symbol.
//! * **Random access** — every week segment carries its own
//!   `(host, body offset)` index, which the reader hashes at open, so
//!   [`AnyReader::get`] reaches one `(domain, week)` record without
//!   decoding anything else. The footer is *not* that index: it lists
//!   the segments, but no reader decodes the list (every open walks the
//!   file and checks each CRC). Its rewrite is the commit's `sync_data`
//!   point, and its presence marks a file whose last commit completed.
//!
//! * **Sharding** — a store can also be a *directory*: N shard files
//!   keyed by domain hash ([`shard_of`]), written in parallel by one
//!   [`StoreWriter`] per shard on the `webvuln-exec` pool, with a
//!   manifest whose atomic rename is the group's single commit point —
//!   the same crash guarantee as the single file: a kill yields epoch E
//!   or E+1 across *all* shards, never a mix.
//! * **One reader, one writer, one scrub** — for either layout, a single
//!   file being one shard with no manifest. [`AnyReader`] opens a store,
//!   degraded reads included; [`AnyWriter`] creates, resumes, commits
//!   and finalizes one; [`scrub`] walks every CRC and can quarantine,
//!   rebuild, and roll back corrupt shards. [`StoreReader`] and
//!   [`StoreWriter`] are what one file is.
//! * **One codec** — [`codec`] publishes the primitives every other
//!   on-disk format in the workspace is built from (CRC-32, varints,
//!   the bounds-checked cursor) and the *standalone segment file*: one
//!   week or one genesis as `header ‖ segment`, which is how the watch
//!   spool ships weeks.
//! * **One durable-file primitive** — [`durable`]: every append log healed
//!   on open and every atomic replace in the workspace (the manifest, the
//!   watch outbox, journal and spool). Only the segment writer does its own.
//!
//! The crate has no third-party dependencies (std plus the workspace's
//! own fail-point/trace/exec crates) and knows nothing about the
//! analysis layer's types: it stores a plain-string record model
//! ([`DomainRecord`], [`PageRecord`]) that `webvuln-analysis` maps its
//! snapshots into and out of.
//!
//! ```
//! use webvuln_store::{AnyReader, Genesis, StoreWriter, WeekData};
//!
//! # let dir = std::env::temp_dir().join(format!("wvs-doc-{}", std::process::id()));
//! # std::fs::create_dir_all(&dir).unwrap();
//! # let path = dir.join("demo.wvstore");
//! let genesis = Genesis {
//!     start_days: 17_600,
//!     weeks_total: 1,
//!     ranks: vec![("site.example".into(), 1)],
//! };
//! let mut writer = StoreWriter::create(&path, genesis).unwrap();
//! writer
//!     .commit_week(&WeekData { week: 0, date_days: 17_600, records: vec![] })
//!     .unwrap();
//! let reader = AnyReader::open(&path).unwrap();
//! assert_eq!(reader.weeks_committed(), 1);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc32;
pub mod durable;
mod error;
mod format;
mod intern;
mod manifest;
mod reader;
mod record;
mod scrub;
mod sharded;
mod stream;
mod varint;
mod writer;

/// The workspace's one binary codec: the primitives the store's own
/// format is written in, and one segment as a standalone file. The
/// watch daemon's frame log, alert payloads and spool files are built
/// from these.
pub mod codec {
    pub use crate::crc32::crc32;
    pub use crate::format::{
        decode_genesis_file, decode_week_file, encode_genesis_file, encode_week_file, WeekFile,
    };
    pub use crate::varint::{write_i64, write_str, write_u64, Cursor};
}

pub use error::StoreError;
pub use format::{Genesis, FORMAT_VERSION};
pub use manifest::{Manifest, MANIFEST_FILE, MANIFEST_LEN, MANIFEST_MAGIC, MANIFEST_VERSION};
pub use reader::StoreReader;
pub use record::{
    DetectionRecord, DomainRecord, FlashRecord, PageRecord, ScriptRecord, Sym, WeekData,
    WordPressRecord,
};
pub use scrub::{scrub, ScrubOutcome, ScrubReport, ShardScrub, ShardStatus};
pub use sharded::{
    shard_file_name, shard_of, shard_path, split_week, AnyReader, AnyWriter, ShardHealth,
    ShardedStoreWriter, QUARANTINE_SUFFIX,
};
pub use stream::WeekStream;
pub use writer::{CommitInfo, StoreWriter, WriterStats, FAILPOINTS};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::testkit;
    use std::path::PathBuf;

    /// A scratch file that cleans up after itself.
    struct TempStore {
        path: PathBuf,
    }

    impl TempStore {
        fn new(tag: &str) -> TempStore {
            let path = std::env::temp_dir()
                .join(format!("wvstore-test-{}-{tag}.wvstore", std::process::id()));
            let _ = std::fs::remove_file(&path);
            TempStore { path }
        }
    }

    impl Drop for TempStore {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.path);
            let _ = std::fs::remove_file(scrub::quarantine_path(&self.path));
        }
    }

    fn genesis(domains: usize, weeks: usize) -> Genesis {
        Genesis {
            start_days: 17_600,
            weeks_total: weeks,
            ranks: (0..domains)
                .map(|i| (format!("site{i:03}.example"), (i + 1) as u64))
                .collect(),
        }
    }

    fn write_weeks(path: &std::path::Path, weeks: usize, domains: usize) -> StoreWriter {
        let mut writer = StoreWriter::create(path, genesis(domains, weeks)).expect("create");
        for w in 0..weeks {
            writer
                .commit_week(&testkit::week(w, domains))
                .expect("commit");
        }
        writer
    }

    #[test]
    fn write_then_read_round_trips() {
        let tmp = TempStore::new("roundtrip");
        write_weeks(&tmp.path, 4, 9);
        let reader = StoreReader::open(&tmp.path).expect("open");
        assert_eq!(reader.weeks_committed(), 4);
        assert_eq!(reader.genesis(), &genesis(9, 4));
        assert!(!reader.is_finalized());
        assert_eq!(reader.torn_bytes(), 0);
        assert!(reader.had_footer());
        for w in 0..4 {
            assert_eq!(reader.week(w).expect("week"), testkit::week(w, 9));
        }
        assert_eq!(reader.verify().expect("verify"), vec![9; 4]);
    }

    #[test]
    fn random_access_matches_sequential() {
        let tmp = TempStore::new("random");
        write_weeks(&tmp.path, 3, 8);
        let reader = StoreReader::open(&tmp.path).expect("open");
        for w in 0..3 {
            let full = reader.week(w).expect("week");
            for record in &full.records {
                assert_eq!(&reader.get(&record.host, w).expect("get"), record);
            }
        }
        assert!(matches!(
            reader.get("nope.example", 0),
            Err(StoreError::UnknownDomain(_))
        ));
        assert!(matches!(
            reader.get("site000.example", 7),
            Err(StoreError::UnknownWeek(7))
        ));
    }

    #[test]
    fn unchanged_records_become_backrefs() {
        let tmp = TempStore::new("delta");
        let mut writer = StoreWriter::create(&tmp.path, genesis(10, 3)).expect("create");
        // Identical weeks: everything after week 0 should delta-hit.
        let mut week0 = testkit::week(0, 10);
        let info0 = writer.commit_week(&week0).expect("w0");
        assert_eq!(info0.delta_hits, 0);
        week0.week = 1;
        let info1 = writer.commit_week(&week0).expect("w1");
        assert_eq!(info1.delta_hits, 10);
        assert!(info1.segment_bytes < info0.segment_bytes / 4);
        // One domain changes: exactly one miss.
        week0.week = 2;
        week0.records[4].body_len += 1;
        let info2 = writer.commit_week(&week0).expect("w2");
        assert_eq!(info2.delta_hits, 9);

        let reader = StoreReader::open(&tmp.path).expect("open");
        let (hits, total) = reader.delta_stats().expect("stats");
        assert_eq!((hits, total), (19, 30));
        // Backref chains resolve through multiple weeks.
        let w2 = reader.week(2).expect("week 2");
        assert_eq!(
            w2.records[4].body_len,
            testkit::week(0, 10).records[4].body_len + 1
        );
    }

    #[test]
    fn finalize_closes_the_store() {
        let tmp = TempStore::new("finalize");
        let mut writer = write_weeks(&tmp.path, 2, 6);
        writer
            .finalize(&["site003.example".to_string()])
            .expect("finalize");
        assert!(matches!(
            writer.commit_week(&testkit::week(2, 6)),
            Err(StoreError::AlreadyFinalized)
        ));
        assert!(matches!(
            writer.finalize(&[]),
            Err(StoreError::AlreadyFinalized)
        ));
        let reader = StoreReader::open(&tmp.path).expect("open");
        assert_eq!(
            reader.filtered_out(),
            Some(&["site003.example".to_string()][..])
        );
    }

    #[test]
    fn out_of_order_commits_are_rejected() {
        let tmp = TempStore::new("order");
        let mut writer = StoreWriter::create(&tmp.path, genesis(4, 4)).expect("create");
        let err = writer.commit_week(&testkit::week(2, 4)).expect_err("skip");
        assert!(matches!(
            err,
            StoreError::WeekOutOfOrder {
                expected: 0,
                got: 2
            }
        ));
    }

    #[test]
    fn resume_continues_the_sequence() {
        let tmp = TempStore::new("resume");
        {
            write_weeks(&tmp.path, 2, 7);
        }
        let mut writer = StoreWriter::resume(&tmp.path).expect("resume");
        assert_eq!(writer.weeks_committed(), 2);
        assert_eq!(writer.stats().torn_bytes_recovered, 0);
        // The committed weeks come back through a reader, unchanged.
        let reader = AnyReader::open(&tmp.path).expect("open resumed");
        assert_eq!(reader.weeks_committed(), 2);
        assert_eq!(reader.week(1).expect("week"), testkit::week(1, 7));
        // Delta state survives resume: an identical week 2 is all hits.
        let mut week2 = testkit::week(1, 7);
        week2.week = 2;
        let info = writer.commit_week(&week2).expect("w2");
        assert_eq!(info.delta_hits, 7);
        let reader = StoreReader::open(&tmp.path).expect("open");
        assert_eq!(reader.weeks_committed(), 3);
        assert_eq!(reader.week(2).expect("week"), week2);
    }

    /// Gives week `week`'s first record tag 7 under a recomputed CRC: the
    /// scan accepts the envelope, only the full decode notices.
    fn corrupt_first_record(bytes: &mut [u8], week: usize) {
        let scanned = format::scan(bytes).expect("scan");
        let index = format::index(&scanned.segments).expect("index");
        let (seg_index, prefix) = &index.weeks[week];
        let seg = &scanned.segments[*seg_index];
        // A record count and host symbol < 128 are one varint byte each.
        let tag = seg.payload_offset() as usize + prefix.records_pos + 2;
        assert!(bytes[tag] <= 1, "not a record tag");
        bytes[tag] = 7;
        let crc_at = (seg.offset + seg.env_len) as usize - 4;
        let crc = crc32::crc32(&bytes[seg.offset as usize..crc_at]);
        bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn resume_refuses_a_corrupt_middle_week_before_writing_a_byte() {
        let tmp = TempStore::new("resume-corrupt-middle");
        write_weeks(&tmp.path, 3, 6);
        let mut bytes = std::fs::read(&tmp.path).expect("read");
        corrupt_first_record(&mut bytes, 1);
        // A torn tail too: a resume that got as far as writing would cut it.
        bytes.extend_from_slice(&[0x5A; 29]);
        std::fs::write(&tmp.path, &bytes).expect("corrupt");

        let reader = StoreReader::open(&tmp.path).expect("the structure is intact");
        assert_eq!(reader.weeks_committed(), 3);
        assert!(reader.week(1).is_err());
        let err = StoreWriter::resume(&tmp.path).err().expect("must refuse");
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        assert_eq!(std::fs::read(&tmp.path).expect("read"), bytes);
    }

    /// A scratch directory that cleans up after itself.
    struct TempDir {
        path: PathBuf,
    }

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let path =
                std::env::temp_dir().join(format!("wvstore-test-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            TempDir { path }
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }

    fn write_sharded(dir: &std::path::Path, weeks: usize, domains: usize, shards: usize) {
        let mut writer = AnyWriter::create(dir, genesis(domains, weeks), shards)
            .expect("create sharded")
            .threads(2);
        for w in 0..weeks {
            writer
                .commit_week(&testkit::week(w, domains))
                .expect("commit");
        }
    }

    /// Every file in `dir` by name, for byte-identity comparisons.
    fn dir_bytes(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .expect("read dir")
            .map(|e| {
                let e = e.expect("entry");
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).expect("read file"),
                )
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn shard_assignment_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 4, 16] {
            let mut used = vec![false; shards];
            for i in 0..64 {
                let host = format!("site{i:03}.example");
                let shard = shard_of(&host, shards);
                assert!(shard < shards);
                assert_eq!(shard, shard_of(&host, shards), "unstable assignment");
                used[shard] = true;
            }
            if shards <= 4 {
                assert!(
                    used.iter().all(|u| *u),
                    "{shards}-way split left a shard empty"
                );
            }
        }
        assert_eq!(shard_of("anything.example", 1), 0);
    }

    /// The nesting a fold's bucket → file mapping relies on: a cut `k`
    /// times finer than the shard count refines it, never straddles it.
    #[test]
    fn a_finer_cut_nests_inside_the_shard_cut() {
        webvuln_failpoint::check::run("shard_of nests", 256, |g| {
            let host = g.unicode(0..=40);
            let k = g.range(1..=64) as usize;
            for shards in [1usize, 3, 4, 16] {
                assert_eq!(
                    shard_of(&host, shards * k) % shards,
                    shard_of(&host, shards),
                    "{host:?} at {shards} x {k}"
                );
            }
        });
    }

    #[test]
    fn sharded_store_matches_the_unsharded_view() {
        let tmp = TempDir::new("sharded-roundtrip");
        write_sharded(&tmp.path, 3, 12, 4);
        let reader = AnyReader::open(&tmp.path).expect("open");
        assert_eq!(reader.weeks_committed(), 3);
        assert_eq!(reader.shard_count(), 4);
        assert!(!reader.is_degraded());
        assert_eq!(reader.genesis(), &genesis(12, 3));
        for w in 0..3 {
            // Merged shard slices, sorted by host == the unsharded week.
            assert_eq!(reader.week(w).expect("week"), testkit::week(w, 12));
        }
        assert_eq!(reader.verify().expect("verify"), vec![12; 3]);
        // Random access routes by domain hash.
        for record in &testkit::week(1, 12).records {
            assert_eq!(&reader.get(&record.host, 1).expect("get"), record);
        }
        assert!(matches!(
            reader.get("nope.example", 0),
            Err(StoreError::UnknownDomain(_))
        ));
        assert_eq!(reader.manifest().expect("a group has a manifest").weeks, 3);
        // A single file is one healthy shard with no manifest.
        let single = TempStore::new("sharded-roundtrip-single");
        write_weeks(&single.path, 3, 12);
        let single = AnyReader::open(&single.path).expect("open single");
        assert_eq!(single.shard_count(), 1);
        assert!(single.manifest().is_none());
        assert_eq!(single.shard_health(), [ShardHealth::Healthy]);
        assert_eq!(single.shard_for("site003.example"), (0, None));
        assert_eq!(single.week(2).expect("week"), testkit::week(2, 12));
    }

    #[test]
    fn sharded_epoch_counts_every_commit() {
        let tmp = TempDir::new("sharded-epoch");
        let mut writer = AnyWriter::create(&tmp.path, genesis(6, 2), 2).expect("create");
        assert_eq!(writer.manifest().map(|m| m.epoch), Some(1));
        writer.commit_week(&testkit::week(0, 6)).expect("w0");
        writer.commit_week(&testkit::week(1, 6)).expect("w1");
        assert_eq!(writer.manifest().map(|m| m.epoch), Some(3));
        writer.finalize(&[]).expect("finalize");
        assert_eq!(writer.manifest().map(|m| m.epoch), Some(4));
        // Resume replays the same state without inventing epochs.
        drop(writer);
        let resumed = AnyWriter::resume(&tmp.path).expect("resume");
        assert_eq!(resumed.manifest().map(|m| m.epoch), Some(4));
        assert_eq!(resumed.stats().rolled_back, 0);
        assert!(resumed.is_finalized());
        let reader = AnyReader::open(&tmp.path).expect("open resumed");
        assert_eq!(reader.filtered_out(), Some(&[][..]));
    }

    #[test]
    fn sharded_resume_rolls_back_a_shard_ahead_of_the_manifest() {
        let tmp = TempDir::new("sharded-ahead");
        write_sharded(&tmp.path, 2, 10, 2);
        let before = dir_bytes(&tmp.path);
        // Simulate a crash window: shard 0 committed week 2, but the
        // manifest rename never happened.
        let mut shard0 = StoreWriter::resume(&shard_path(&tmp.path, 0)).expect("resume shard");
        shard0
            .commit_week(&WeekData {
                week: 2,
                date_days: 17_614,
                records: vec![],
            })
            .expect("unpublished commit");
        drop(shard0);
        assert_ne!(dir_bytes(&tmp.path), before, "tamper must change bytes");

        let resumed = AnyWriter::resume(&tmp.path).expect("resume group");
        assert_eq!(resumed.stats().rolled_back, 1);
        assert_eq!(resumed.weeks_committed(), 2);
        drop(resumed);
        // Rollback restores the exact pre-crash bytes, manifest included.
        assert_eq!(dir_bytes(&tmp.path), before);
        let reader = AnyReader::open(&tmp.path).expect("open rolled back");
        assert_eq!(reader.weeks_committed(), 2);
        for w in 0..2 {
            assert_eq!(reader.week(w).expect("week"), testkit::week(w, 10));
        }
    }

    #[test]
    fn a_shard_behind_the_manifest_is_refused_as_mixed_epoch() {
        let tmp = TempDir::new("sharded-behind");
        write_sharded(&tmp.path, 2, 10, 2);
        // Hand-corrupt: drop shard 1 back to one week (no crash does this).
        StoreWriter::resume(&shard_path(&tmp.path, 1))
            .expect("resume shard")
            .truncate_to_weeks(1)
            .expect("truncate");
        let err = match AnyWriter::resume(&tmp.path) {
            Err(err) => err,
            Ok(_) => panic!("mixed-epoch store must refuse to resume"),
        };
        assert!(
            matches!(
                err,
                StoreError::ShardBehind {
                    shard: 1,
                    shard_weeks: 1,
                    manifest_weeks: 2,
                }
            ),
            "{err}"
        );
        assert!(AnyReader::open(&tmp.path).is_err());
        // Degraded open still serves the healthy shard.
        let degraded = AnyReader::open_degraded(&tmp.path).expect("degraded");
        assert!(degraded.is_degraded());
        assert!(degraded.shard_health()[0].is_healthy());
        assert!(!degraded.shard_health()[1].is_healthy());
        for record in &testkit::week(0, 10).records {
            match degraded.get(&record.host, 0) {
                Ok(got) => {
                    assert_eq!(shard_of(&record.host, 2), 0);
                    assert_eq!(&got, record);
                }
                Err(StoreError::ShardUnavailable { shard: 1, .. }) => {
                    assert_eq!(shard_of(&record.host, 2), 1);
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
    }

    #[test]
    fn degraded_reader_survives_a_deleted_shard() {
        let tmp = TempDir::new("sharded-deleted");
        write_sharded(&tmp.path, 2, 12, 3);
        std::fs::remove_file(shard_path(&tmp.path, 2)).expect("delete shard");
        assert!(AnyReader::open(&tmp.path).is_err(), "strict open must fail");
        let any = AnyReader::open_degraded(&tmp.path).expect("degraded open");
        assert!(any.is_degraded());
        let health = any.shard_health();
        assert!(health[0].is_healthy() && health[1].is_healthy());
        assert!(!health[2].is_healthy());
        // The merged week only misses the dead shard's records.
        let week = any.week(0).expect("week");
        assert!(week.records.len() < 12);
        for record in &week.records {
            assert_ne!(shard_of(&record.host, 3), 2);
        }
        // verify() refuses: a degraded store is not a verified store.
        assert!(matches!(
            any.verify(),
            Err(StoreError::ShardUnavailable { shard: 2, .. })
        ));
    }

    /// A refreshed reader reads what a fresh degraded open reads, at the
    /// cost of what changed: the new weeks' prefixes, or a shard file that
    /// is not the one it read, or — the epoch gone backwards — everything.
    #[test]
    fn a_refreshed_reader_reads_as_a_fresh_open() {
        let (tmp, other) = (TempDir::new("refresh"), TempDir::new("refresh-other"));
        let (domains, shards) = (12, 3);
        let same = |any: &AnyReader| {
            let fresh = AnyReader::open_degraded(any.path()).expect("fresh open");
            assert_eq!(any.shard_health(), fresh.shard_health());
            assert_eq!(any.weeks_committed(), fresh.weeks_committed());
            assert_eq!(any.genesis(), fresh.genesis());
            for w in 0..fresh.weeks_committed() {
                assert_eq!(any.week(w).expect("week"), fresh.week(w).expect("week"));
            }
        };
        let mut writer = AnyWriter::create(&tmp.path, genesis(domains, 6), shards).expect("create");
        writer
            .commit_week(&testkit::week(0, domains))
            .expect("commit");
        let mut any = AnyReader::open_degraded(&tmp.path).expect("open");
        assert_eq!(any.weeks_indexed(), 3);
        assert!(!any.refresh().expect("refresh"), "nothing changed");
        assert_eq!(any.weeks_indexed(), 3);
        for w in 1..4 {
            writer
                .commit_week(&testkit::week(w, domains))
                .expect("commit");
        }
        assert!(!any.refresh().expect("refresh"));
        assert_eq!(any.weeks_indexed(), 3 * 4, "three weeks more, each once");
        same(&any);
        assert_eq!(
            any.get("site005.example", 3).expect("get"),
            testkit::week(3, domains).records[5]
        );

        // One shard file gone, one cut short, one another store's.
        write_sharded(&other.path, 4, domains + 1, shards);
        std::fs::remove_file(shard_path(&tmp.path, 0)).expect("remove");
        let bytes = std::fs::read(shard_path(&tmp.path, 1)).expect("read");
        std::fs::write(shard_path(&tmp.path, 1), &bytes[..bytes.len() * 2 / 3]).expect("cut");
        let foreign = std::fs::read(shard_path(&other.path, 2)).expect("read");
        std::fs::write(shard_path(&tmp.path, 2), foreign).expect("replace");
        assert!(!any.refresh().expect("refresh"));
        let health = any.shard_health();
        assert!(!health[0].is_healthy() && !health[1].is_healthy() && health[2].is_healthy());
        same(&any);

        // An older copy of the store in its place: the epoch moved back.
        drop(writer);
        std::fs::remove_dir_all(&tmp.path).expect("remove store");
        write_sharded(&tmp.path, 2, domains, shards);
        let indexed = any.weeks_indexed();
        assert!(any.refresh().expect("refresh"), "reopened whole");
        assert_eq!(any.weeks_indexed() - indexed, 3 * 2);
        same(&any);
    }

    #[test]
    fn truncate_to_weeks_rebuilds_an_identical_prefix() {
        let tmp = TempStore::new("truncate");
        write_weeks(&tmp.path, 4, 8);
        let full = std::fs::read(&tmp.path).expect("read");
        let mut writer = StoreWriter::resume(&tmp.path)
            .expect("resume")
            .truncate_to_weeks(2)
            .expect("truncate");
        assert_eq!(writer.weeks_committed(), 2);
        assert_eq!(writer.stats().rolled_back, 1);
        let reader = AnyReader::open(&tmp.path).expect("open truncated");
        assert_eq!(reader.weeks_committed(), 2);
        for w in 0..2 {
            assert_eq!(reader.week(w).expect("week"), testkit::week(w, 8));
        }
        // Replaying the dropped weeks reproduces the original bytes:
        // the interner and delta state were rebuilt correctly.
        writer.commit_week(&testkit::week(2, 8)).expect("w2");
        writer.commit_week(&testkit::week(3, 8)).expect("w3");
        drop(writer);
        assert_eq!(std::fs::read(&tmp.path).expect("read"), full);
    }

    #[test]
    fn truncate_drops_a_premature_finalize() {
        let tmp = TempStore::new("truncate-finalize");
        let mut writer = write_weeks(&tmp.path, 2, 5);
        writer
            .finalize(&["site001.example".to_string()])
            .expect("finalize");
        let resumed = writer.truncate_to_weeks(2).expect("truncate");
        assert!(!resumed.is_finalized());
        assert_eq!(resumed.weeks_committed(), 2);
        let reader = AnyReader::open(&tmp.path).expect("open truncated");
        assert_eq!(reader.filtered_out(), None);
    }

    #[test]
    fn scrub_reports_clean_stores() {
        let tmp = TempDir::new("scrub-clean");
        write_sharded(&tmp.path, 2, 10, 2);
        let report = scrub(&tmp.path, false).expect("scrub");
        assert_eq!(report.outcome, ScrubOutcome::Clean);
        assert!(report.shards.iter().all(|s| s.status == ShardStatus::Clean));
        assert_eq!(report.epoch_before, report.epoch_after);
        assert!(report.render().contains("outcome: clean"));
    }

    #[test]
    fn scrub_heals_torn_tails() {
        let tmp = TempDir::new("scrub-torn");
        write_sharded(&tmp.path, 2, 10, 2);
        let clean = dir_bytes(&tmp.path);
        // A torn half-written segment on one shard.
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(shard_path(&tmp.path, 1))
            .expect("open");
        file.write_all(&[0x77; 41]).expect("tear");
        drop(file);
        let assess = scrub(&tmp.path, false).expect("assess");
        assert_eq!(assess.outcome, ScrubOutcome::Healed);
        assert_eq!(assess.shards[1].status, ShardStatus::TornTail);
        let repair = scrub(&tmp.path, true).expect("repair");
        assert_eq!(repair.outcome, ScrubOutcome::Healed);
        assert_eq!(repair.shards[1].status, ShardStatus::Healed);
        assert_eq!(dir_bytes(&tmp.path), clean, "heal restores exact bytes");
        assert_eq!(
            scrub(&tmp.path, false).expect("rescrub").outcome,
            ScrubOutcome::Clean
        );
    }

    #[test]
    fn scrub_rolls_the_group_back_past_mid_file_corruption() {
        let tmp = TempDir::new("scrub-rollback");
        write_sharded(&tmp.path, 3, 10, 2);
        // Flip one byte inside shard 0's second week segment: the CRC
        // walk stops there, leaving a one-week valid prefix.
        let path = shard_path(&tmp.path, 0);
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("corrupt");

        let report = scrub(&tmp.path, true).expect("repair");
        assert_eq!(report.outcome, ScrubOutcome::Healed);
        assert!(report.rolled_back_to.is_some());
        let target = report.rolled_back_to.expect("rollback target");
        assert!(target < 3, "corruption must cost at least one week");
        // The rolled-back group resumes and replays the missing weeks.
        let mut writer = AnyWriter::resume(&tmp.path).expect("resume");
        assert_eq!(writer.weeks_committed(), target);
        for w in target..3 {
            writer.commit_week(&testkit::week(w, 10)).expect("replay");
        }
        let reader = AnyReader::open(&tmp.path).expect("open");
        for w in 0..3 {
            assert_eq!(reader.week(w).expect("week"), testkit::week(w, 10));
        }
    }

    #[test]
    fn scrub_rebuilds_from_a_quarantined_copy() {
        let tmp = TempDir::new("scrub-rebuild");
        write_sharded(&tmp.path, 2, 10, 2);
        let clean = dir_bytes(&tmp.path);
        // A kill between quarantine-rename and rebuild leaves the shard
        // missing with its bytes parked in the quarantined copy.
        let path = shard_path(&tmp.path, 0);
        let mut quarantined = path.as_os_str().to_os_string();
        quarantined.push(".");
        quarantined.push(QUARANTINE_SUFFIX);
        std::fs::rename(&path, &quarantined).expect("park");

        let report = scrub(&tmp.path, true).expect("repair");
        assert_eq!(report.shards[0].status, ShardStatus::Rebuilt);
        assert_eq!(report.outcome, ScrubOutcome::Healed);
        std::fs::remove_file(&quarantined).expect("discard quarantined copy");
        assert_eq!(
            dir_bytes(&tmp.path),
            clean,
            "rebuild reproduces exact bytes"
        );
    }

    #[test]
    fn scrub_quarantines_what_it_cannot_rebuild() {
        let tmp = TempDir::new("scrub-quarantine");
        write_sharded(&tmp.path, 2, 10, 2);
        // Destroy shard 1's header: no genesis, nothing to rebuild from.
        let path = shard_path(&tmp.path, 1);
        std::fs::write(&path, b"not a store at all").expect("overwrite");
        let report = scrub(&tmp.path, true).expect("repair");
        assert_eq!(report.shards[1].status, ShardStatus::Quarantined);
        assert_eq!(report.outcome, ScrubOutcome::Quarantined);
        assert!(!path.exists(), "corrupt shard set aside");
        // The store still serves degraded.
        let any = AnyReader::open_degraded(&tmp.path).expect("degraded open");
        assert!(any.is_degraded());
        assert!(any
            .week(0)
            .expect("week")
            .records
            .iter()
            .all(|r| shard_of(&r.host, 2) == 0));
    }

    #[test]
    fn scrub_handles_single_file_stores() {
        let tmp = TempStore::new("scrub-single");
        write_weeks(&tmp.path, 3, 6);
        let clean = std::fs::read(&tmp.path).expect("read");
        let report = scrub(&tmp.path, false).expect("scrub");
        assert_eq!(report.outcome, ScrubOutcome::Clean);
        assert!(!report.sharded);
        // Torn tail heals.
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&tmp.path)
            .expect("open");
        file.write_all(&[0x13; 23]).expect("tear");
        drop(file);
        let report = scrub(&tmp.path, true).expect("repair");
        assert_eq!(report.outcome, ScrubOutcome::Healed);
        assert_eq!(report.shards[0].status, ShardStatus::Healed);
        assert_eq!(
            scrub(&tmp.path, false).expect("rescrub").outcome,
            ScrubOutcome::Clean
        );
        // A week that does not decode under a valid CRC costs the file
        // what it costs a shard: that week on, rebuilt away, and nothing
        // before it; resume replays the rest.
        let mut bytes = clean.clone();
        corrupt_first_record(&mut bytes, 1);
        std::fs::write(&tmp.path, &bytes).expect("corrupt");
        let report = scrub(&tmp.path, true).expect("repair");
        assert_eq!(report.shards[0].status, ShardStatus::Rebuilt);
        assert_eq!(report.outcome, ScrubOutcome::Healed);
        assert_eq!(report.rolled_back_to, Some(1));
        let mut writer = AnyWriter::resume(&tmp.path).expect("the rebuilt prefix resumes");
        assert_eq!(writer.weeks_committed(), 1);
        for w in 1..3 {
            writer.commit_week(&testkit::week(w, 6)).expect("replay");
        }
        drop(writer);
        assert_eq!(std::fs::read(&tmp.path).expect("read"), clean);
        // The copy the rebuild set aside belongs to that study. A fresh
        // study at the same path takes it away, so a scrub after the new
        // study stopped early finds the new file, not the old copy with
        // more weeks, and leaves it as it is.
        let parked = scrub::quarantine_path(&tmp.path);
        std::fs::write(&parked, &clean).expect("a copy holding more weeks");
        let mut writer = StoreWriter::create(&tmp.path, genesis(4, 3)).expect("create");
        writer.commit_week(&testkit::week(0, 4)).expect("commit");
        drop(writer);
        assert!(!parked.exists(), "create takes the old copy away");
        let fresh = std::fs::read(&tmp.path).expect("read");
        let report = scrub(&tmp.path, true).expect("repair");
        assert_eq!(report.outcome, ScrubOutcome::Clean);
        assert_eq!(std::fs::read(&tmp.path).expect("read"), fresh);
    }

    /// Damage a scrub must repair the same way in either layout.
    #[derive(Debug, Clone, Copy)]
    enum Damage {
        /// Junk appended after the last commit.
        Torn(usize),
        /// The file cut to this many bytes.
        Cut(u64),
        /// The byte at this offset inverted.
        Flip(u64),
        /// This week's first record undecodable under a valid CRC.
        BadRecord(usize),
        /// Moved to its quarantine name, as a scrub killed mid-rebuild
        /// leaves it.
        Parked,
        /// Replaced by bytes that are no store at all.
        Overwritten,
    }

    fn inflict(path: &std::path::Path, damage: Damage) {
        let mut bytes = std::fs::read(path).expect("read");
        match damage {
            Damage::Torn(len) => bytes.resize(bytes.len() + len, 0x77),
            Damage::Cut(len) => bytes.truncate(len as usize),
            Damage::Flip(at) => bytes[at as usize] ^= 0xFF,
            Damage::BadRecord(week) => corrupt_first_record(&mut bytes, week),
            Damage::Parked => {
                let parked = scrub::quarantine_path(path);
                std::fs::rename(path, parked).expect("park");
                return;
            }
            Damage::Overwritten => bytes = b"not a store at all".to_vec(),
        }
        std::fs::write(path, bytes).expect("damage");
    }

    /// A single file is one shard with no manifest, to the one writer and
    /// the one scrub. The same weeks, with a resume anywhere, leave the
    /// file and a one-shard group's shard the same bytes; the same damage
    /// to both scrubs to the same verdict and bytes; and either one, once
    /// repaired, resumes and replays to the undamaged bytes.
    #[test]
    fn a_single_file_is_one_shard_with_no_manifest() {
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        webvuln_failpoint::check::run("a file is one shard", 64, |g| {
            let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let domains = g.range(1..=12) as usize;
            let weeks = g.range(1..=4) as usize;
            let resume_at = g.range(0..=weeks as u64) as usize;
            let finalize = g.bool();
            // Odd weeks repeat the week before, so they are back-references.
            let week = |w: usize| WeekData {
                week: w,
                ..testkit::week(w - w % 2, domains)
            };
            let finish = |writer: &mut AnyWriter| {
                for w in writer.weeks_committed()..weeks {
                    writer.commit_week(&week(w)).expect("commit");
                }
                if finalize && !writer.is_finalized() {
                    let filtered = ["site000.example".to_string()];
                    writer.finalize(&filtered).expect("finalize");
                }
            };
            let file = TempStore::new(&format!("one-shard-{case}"));
            let group = TempDir::new(&format!("one-shard-{case}"));
            let shard = shard_path(&group.path, 0);
            let study = genesis(domains, weeks);
            let single = StoreWriter::create(&file.path, study.clone()).expect("create");
            let mut writers = [
                AnyWriter::from(single),
                AnyWriter::create(&group.path, study, 1).expect("create group"),
            ];
            for w in 0..weeks {
                if w == resume_at {
                    writers = writers.map(|writer| {
                        let path = writer.path().to_path_buf();
                        drop(writer);
                        AnyWriter::resume(&path).expect("resume")
                    });
                }
                let infos: Vec<CommitInfo> = writers
                    .iter_mut()
                    .map(|writer| writer.commit_week(&week(w)).expect("commit"))
                    .collect();
                assert_eq!(
                    (infos[0].delta_hits, infos[0].segment_bytes),
                    (infos[1].delta_hits, infos[1].segment_bytes)
                );
            }
            writers.iter_mut().for_each(finish);
            assert!(writers[0].manifest().is_none());
            assert_eq!(writers[1].manifest().map(|m| m.weeks), Some(weeks as u64));
            drop(writers);
            let clean = std::fs::read(&file.path).expect("read file");
            assert_eq!(std::fs::read(&shard).expect("read shard"), clean);

            let len = clean.len() as u64;
            let damage = match g.range(0..=5) {
                0 => Damage::Torn(g.range(1..=64) as usize),
                1 => Damage::Cut(g.range(0..=len - 1)),
                2 => Damage::Flip(g.range(0..=len - 1)),
                3 => Damage::BadRecord(g.range(0..=weeks as u64 - 1) as usize),
                4 => Damage::Parked,
                _ => Damage::Overwritten,
            };
            inflict(&file.path, damage);
            inflict(&shard, damage);
            let verdict = |path: &std::path::Path| {
                let report = scrub(path, true).expect("scrub");
                let shard = &report.shards[0];
                (report.outcome, shard.status, shard.weeks)
            };
            let repaired = verdict(&file.path);
            assert_eq!(repaired, verdict(&group.path), "{damage:?}");
            assert_eq!(
                std::fs::read(&file.path).ok(),
                std::fs::read(&shard).ok(),
                "{damage:?}"
            );
            if repaired.0 != ScrubOutcome::Quarantined {
                for path in [&file.path, &group.path] {
                    finish(&mut AnyWriter::resume(path).expect("resume repaired"));
                }
                assert_eq!(std::fs::read(&file.path).expect("file"), clean);
                assert_eq!(std::fs::read(&shard).expect("shard"), clean);
            }
        });
    }

    #[test]
    fn empty_weeks_and_empty_stores_work() {
        let tmp = TempStore::new("empty");
        let mut writer = StoreWriter::create(&tmp.path, genesis(0, 1)).expect("create");
        writer
            .commit_week(&WeekData {
                week: 0,
                date_days: 17_600,
                records: vec![],
            })
            .expect("empty week");
        let reader = StoreReader::open(&tmp.path).expect("open");
        assert_eq!(reader.week(0).expect("week").records.len(), 0);
    }

    #[test]
    fn standalone_segment_files_are_store_bytes() {
        // A genesis file is the first bytes of every store created with it.
        let tmp = TempStore::new("standalone");
        let study = genesis(5, 2);
        let _writer = StoreWriter::create(&tmp.path, study.clone()).expect("create");
        let file = codec::encode_genesis_file(&study);
        assert!(std::fs::read(&tmp.path).expect("read").starts_with(&file));
        assert_eq!(codec::decode_genesis_file(&file).expect("genesis"), study);
        // A week file holds the week in full, whatever came before it.
        let empty = WeekData {
            week: 3,
            date_days: -4,
            records: vec![],
        };
        for week in [testkit::week(7, 9), empty] {
            let file = codec::encode_week_file(&week);
            assert_eq!(codec::decode_week_file(&file).expect("week"), week);
            // Each decoder refuses the other's kind.
            assert!(codec::decode_genesis_file(&file).is_err());
        }
        assert!(codec::decode_week_file(&file).is_err());
    }

    #[test]
    fn hashed_delta_state_survives_resume_byte_identically() {
        let replayed = TempStore::new("hash-replay");
        let resumed = TempStore::new("hash-resume");
        // Straight-through: 3 weeks, the middle two mostly delta hits.
        let mut weeks = Vec::new();
        for w in 0..3 {
            let mut week = testkit::week(0, 8);
            week.week = w;
            weeks.push(week);
        }
        let mut writer = StoreWriter::create(&replayed.path, genesis(8, 3)).expect("create");
        for week in &weeks {
            writer.commit_week(week).expect("commit");
        }
        // Interrupted: drop the writer after week 1, resume, commit week 2.
        let mut writer = StoreWriter::create(&resumed.path, genesis(8, 3)).expect("create");
        writer.commit_week(&weeks[0]).expect("w0");
        writer.commit_week(&weeks[1]).expect("w1");
        drop(writer);
        let mut writer = StoreWriter::resume(&resumed.path).expect("resume");
        let info = writer.commit_week(&weeks[2]).expect("w2");
        assert_eq!(info.delta_hits, 8, "rebuilt prev state still delta-hits");
        assert_eq!(
            std::fs::read(&replayed.path).expect("replayed bytes"),
            std::fs::read(&resumed.path).expect("resumed bytes"),
        );
    }

    #[test]
    fn week_stream_yields_canonical_order_for_both_layouts() {
        let single = TempStore::new("stream-single");
        write_weeks(&single.path, 3, 9);
        let sharded = TempDir::new("stream-sharded");
        let mut writer = AnyWriter::create(&sharded.path, genesis(9, 3), 4).expect("create");
        for w in 0..3 {
            writer.commit_week(&testkit::week(w, 9)).expect("commit");
        }

        for path in [&single.path, &sharded.path] {
            let reader = AnyReader::open(path).expect("open");
            let stream = reader.stream();
            assert_eq!(stream.len(), 3);
            let weeks: Vec<WeekData> = stream.collect::<Result<_, _>>().expect("stream decodes");
            for (w, week) in weeks.iter().enumerate() {
                assert_eq!(week, &testkit::week(w, 9), "layout {path:?} week {w}");
            }
        }

        // Per-shard streams cover the partition exactly.
        let reader = AnyReader::open(&sharded.path).expect("open sharded");
        let mut total = 0;
        for index in 0..4 {
            let shard = reader.shard_reader(index).expect("healthy shard");
            for week in 0..reader.weeks_committed() {
                let week = shard.week(week).expect("shard week");
                assert!(week.records.iter().all(|r| shard_of(&r.host, 4) == index));
                total += week.records.len();
            }
        }
        assert_eq!(total, 3 * 9);
    }

    #[test]
    fn week_records_decodes_exactly_the_accepted_hosts() {
        let single = TempStore::new("where-single");
        let mut writer = StoreWriter::create(&single.path, genesis(9, 3)).expect("create");
        let sharded = TempDir::new("where-sharded");
        let mut sharded_writer =
            AnyWriter::create(&sharded.path, genesis(9, 3), 4).expect("create");
        // Week 1 repeats week 0, so its records are back-references.
        for (w, source) in [(0, 0), (1, 0), (2, 2)] {
            let mut week = testkit::week(source, 9);
            week.week = w;
            writer.commit_week(&week).expect("commit");
            sharded_writer.commit_week(&week).expect("commit");
        }

        // Every file of both layouts: the borrowed records, owned, are
        // the sequential decode's.
        let single = AnyReader::open(&single.path).expect("open");
        let sharded = AnyReader::open(&sharded.path).expect("open");
        for reader in single.healthy().chain(sharded.healthy()) {
            for w in 0..3 {
                let full = reader.week(w).expect("week");
                let all = reader.week_records(w, |_| true).expect("all");
                assert_eq!(all.to_owned(), full);
                for (borrowed, owned) in all.records.iter().zip(&full.records) {
                    assert_eq!(&reader.get(borrowed.host.text, w).expect("get"), owned);
                }
                let none = reader.week_records(w, |_| false).expect("none");
                assert_eq!((none.week, none.date_days), (full.week, full.date_days));
                assert!(none.records.is_empty());
                // Hash partitions split the week and keep host order.
                let mut rejoined = Vec::new();
                for part in 0..3 {
                    let mine = |host: &str| shard_of(host, 3) == part;
                    let slice = reader.week_records(w, mine).expect("partition");
                    let expected: Vec<&DomainRecord> =
                        full.records.iter().filter(|r| mine(&r.host)).collect();
                    let slice = slice.to_owned().records;
                    assert_eq!(slice.iter().collect::<Vec<_>>(), expected);
                    rejoined.extend(slice);
                }
                rejoined.sort_by(|a, b| a.host.cmp(&b.host));
                assert_eq!(rejoined, full.records);
            }
            assert!(matches!(
                reader.week_records(3, |_| true),
                Err(StoreError::UnknownWeek(3))
            ));
        }
    }
}
