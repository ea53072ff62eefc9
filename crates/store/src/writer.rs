//! The append-only writer of one store file — a single-file store or one
//! shard of a group, which [`crate::AnyWriter`] drives — create, resume,
//! commit, finalize; or of memory, for a run that keeps no file.
//!
//! Commit discipline: each [`StoreWriter::commit_week`] appends one week
//! segment at the current data end, then rewrites the footer after it and
//! syncs. A crash mid-commit therefore tears only the tail — the segment
//! being written and/or the footer — and [`StoreWriter::resume`] recovers
//! by truncating the file back to the last intact segment.

/// Fail-point sites owned by this crate, for the chaos-harness catalog.
///
/// - `store.segment.mid_write` — fires between the two halves of a
///   segment envelope write, leaving a genuinely torn segment for
///   resume to truncate.
/// - `store.footer.rewrite` — fires before the footer is rewritten, so
///   the file ends with data the footer does not index (or no footer).
/// - `store.finalize` — fires before the finalize segment is appended.
/// - `store.shard.mid_write` — fires inside one shard's commit task on
///   the exec pool (keyed by shard index), leaving sibling shards free
///   to finish while this one dies mid-cycle.
/// - `store.manifest.rename` — fires after the new manifest is written
///   and synced but before the atomic rename that commits it, so every
///   shard holds the new week while the group still publishes the old
///   epoch.
/// - `store.scrub` — fires at the top of each shard's scrub step
///   (keyed by shard index); a kill there must leave the store exactly
///   as scrubable as before.
pub const FAILPOINTS: &[&str] = &[
    "store.segment.mid_write",
    "store.footer.rewrite",
    "store.finalize",
    "store.shard.mid_write",
    "store.manifest.rename",
    "store.scrub",
];

use crate::error::StoreError;
use crate::format::{
    self, decode_week_full, encode_footer, encode_genesis, encode_header, encode_segment,
    encode_week, kind, scan, Genesis, PrevBody, PrevWeek, SegmentMeta,
};
use crate::intern::Interner;
use crate::reader::StoreReader;
use crate::record::{DomainRecord, Sym, WeekData};
use std::borrow::Borrow;
use std::fs::{File, OpenOptions};
use std::io::{self, Cursor, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use webvuln_telemetry::trace;

/// Where a writer's bytes go: its store file, or memory for a run that
/// keeps no file ([`StoreWriter::in_memory`]).
enum Sink {
    File(File),
    Memory(Cursor<Vec<u8>>),
}

impl Sink {
    /// Writes `bytes` at byte `offset` of the store.
    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        fn write(to: &mut (impl Write + Seek), offset: u64, bytes: &[u8]) -> io::Result<()> {
            to.seek(SeekFrom::Start(offset))?;
            to.write_all(bytes)
        }
        match self {
            Sink::File(file) => write(file, offset, bytes),
            Sink::Memory(memory) => write(memory, offset, bytes),
        }
    }

    /// Cuts the store to its first `len` bytes and makes them durable.
    fn cut(&mut self, len: u64) -> io::Result<()> {
        match self {
            Sink::File(file) => file.set_len(len).and_then(|_| file.sync_data()),
            Sink::Memory(memory) => {
                memory.get_mut().truncate(len as usize);
                Ok(())
            }
        }
    }
}

/// Running totals over everything this writer has committed (including
/// segments recovered on resume).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriterStats {
    /// Week segments written by this process (excludes recovered ones).
    pub(crate) segments_written: usize,
    /// Records stored as back-references to the previous week.
    pub(crate) delta_hits: usize,
    /// Records stored with a full body.
    pub(crate) delta_misses: usize,
    /// Total body bytes before delta substitution.
    pub(crate) raw_bytes: u64,
    /// Bytes of record regions actually written.
    pub(crate) encoded_bytes: u64,
    /// Torn tail bytes truncated during resume.
    pub torn_bytes_recovered: u64,
    /// Files cut back to an earlier week by
    /// `StoreWriter::truncate_to_weeks` — for a sharded writer, the
    /// shards rolled back to the manifest's epoch (each one is a
    /// recovery event).
    pub rolled_back: usize,
}

/// What one [`StoreWriter::commit_week`] call did.
#[derive(Debug, Clone, Copy)]
pub struct CommitInfo {
    /// Records in the segment.
    pub records: usize,
    /// Records stored as back-references.
    pub delta_hits: usize,
    /// Body bytes before delta substitution.
    pub raw_bytes: u64,
    /// Record-region bytes actually written.
    pub encoded_bytes: u64,
    /// Total envelope bytes appended (segment only, not the footer).
    pub(crate) segment_bytes: u64,
}

/// Writes a snapshot store: a file, or memory.
pub struct StoreWriter {
    sink: Sink,
    /// The store file's path — for a store kept in memory, only its name.
    path: PathBuf,
    table: Interner,
    metas: Vec<SegmentMeta>,
    genesis: Genesis,
    next_week: usize,
    finalized: bool,
    data_end: u64,
    prev: PrevWeek,
    stats: WriterStats,
}

impl StoreWriter {
    /// Creates (truncating) a store at `path` and writes header + genesis.
    /// A quarantined copy an earlier scrub left beside `path` belongs to
    /// the store this one replaces, so it goes too, as a group's do in
    /// [`crate::AnyWriter::create`].
    pub fn create(path: &Path, genesis: Genesis) -> Result<StoreWriter, StoreError> {
        let _ = std::fs::remove_file(crate::scrub::quarantine_path(path));
        StoreWriter::overwrite(path, genesis)
    }

    /// [`StoreWriter::create`], keeping the quarantined copy beside
    /// `path`: scrub rebuilds the file from it.
    pub(crate) fn overwrite(path: &Path, genesis: Genesis) -> Result<StoreWriter, StoreError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| StoreError::io(path, e))?;
        StoreWriter::start(Sink::File(file), path, genesis)
    }

    /// A store kept in memory — the bytes [`StoreWriter::create`] would
    /// write to a file, for a run that keeps no file. Read it back with
    /// [`StoreWriter::into_reader`]; it never touches the filesystem.
    pub fn in_memory(genesis: Genesis) -> Result<StoreWriter, StoreError> {
        let memory = Sink::Memory(Cursor::new(Vec::new()));
        StoreWriter::start(memory, Path::new("(in memory)"), genesis)
    }

    /// Writes header + genesis to an empty `sink`.
    fn start(mut sink: Sink, path: &Path, genesis: Genesis) -> Result<StoreWriter, StoreError> {
        let mut table = Interner::new();
        let payload = encode_genesis(&genesis, &mut table);
        let envelope = encode_segment(kind::GENESIS, &payload);
        sink.write_at(0, &encode_header())
            .and_then(|_| sink.write_at(format::HEADER_LEN, &envelope))
            .map_err(|e| StoreError::io(path, e))?;
        let data_end = format::HEADER_LEN + envelope.len() as u64;
        let metas = vec![SegmentMeta {
            kind: kind::GENESIS,
            week: 0,
            offset: format::HEADER_LEN,
            env_len: envelope.len() as u64,
        }];
        let mut writer = StoreWriter {
            sink,
            path: path.to_path_buf(),
            table,
            metas,
            genesis,
            next_week: 0,
            finalized: false,
            data_end,
            prev: PrevWeek::new(),
            stats: WriterStats::default(),
        };
        writer.rewrite_footer()?;
        Ok(writer)
    }

    /// Reopens an existing store for writing: checks that every committed
    /// week decodes (strings borrowed, nothing kept), then truncates any
    /// torn tail. The delta state the next commit continues from is the
    /// last week's bodies. Committed weeks are read through
    /// [`crate::AnyReader`], never handed back from here.
    pub fn resume(path: &Path) -> Result<StoreWriter, StoreError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| StoreError::io(path, e))?;
        let scanned = scan(&std::fs::read(path).map_err(|e| StoreError::io(path, e))?)?;
        let index = format::index(&scanned.segments)?;
        let mut metas: Vec<SegmentMeta> = scanned.segments.iter().map(|s| s.meta(0)).collect();
        let mut last = Vec::new();
        for (seg_index, prefix) in &index.weeks {
            metas[*seg_index].week = prefix.week;
            last =
                decode_week_full::<Sym<'_>>(&scanned.segments, *seg_index, prefix, &index.table)?;
        }
        let prev = last
            .iter()
            .map(|d| (d.host_sym, PrevBody::of(d.body_offset, d.body)))
            .collect();

        let mut writer = StoreWriter {
            sink: Sink::File(file),
            path: path.to_path_buf(),
            table: index.table,
            metas,
            genesis: index.genesis,
            next_week: index.weeks.len(),
            finalized: index.filtered_out.is_some(),
            data_end: scanned.data_end,
            prev,
            stats: WriterStats {
                torn_bytes_recovered: scanned.torn_bytes,
                ..WriterStats::default()
            },
        };
        // Drop the torn tail (and any stale footer) and re-establish a
        // clean, indexed end of file.
        writer.rewrite_footer()?;
        Ok(writer)
    }

    /// Appends one weekly snapshot: encodes the segment, appends it,
    /// rewrites the footer, and advances the delta state. Weeks must
    /// arrive in order, starting at 0 (or at the first uncommitted week
    /// after a resume), with records sorted by host.
    pub fn commit_week(&mut self, week: &WeekData) -> Result<CommitInfo, StoreError> {
        self.commit_lent::<String, _>(week)
    }

    /// [`StoreWriter::commit_week`] over records the caller only lends,
    /// owned or as decoded.
    pub(crate) fn commit_lent<S: AsRef<str>, R: Borrow<DomainRecord<S>>>(
        &mut self,
        week: &WeekData<R>,
    ) -> Result<CommitInfo, StoreError> {
        if self.finalized {
            return Err(StoreError::AlreadyFinalized);
        }
        if week.week != self.next_week {
            return Err(StoreError::WeekOutOfOrder {
                expected: self.next_week,
                got: week.week,
            });
        }
        let records = week.records.len();
        // The writer enters the `store` scope itself: callers without a
        // `Telemetry` (the watch daemon) commit through here too, and a
        // shard's commit runs inside an executor task — the scope's task
        // reset keeps `store.commit` keyed (store, week, -, 0) whatever
        // the shard count.
        let _phase = trace::phase_scope("store");
        let _week = trace::week_scope(week.week as u64);
        let encoded = encode_week::<S, R>(week, &mut self.table, &self.prev, self.data_end);
        let envelope = encode_segment(kind::WEEK, &encoded.payload);
        self.append_segment(&envelope, kind::WEEK, week.week)?;

        self.prev = encoded.next_prev;
        self.next_week += 1;
        self.stats.segments_written += 1;
        self.stats.delta_hits += encoded.delta_hits;
        self.stats.delta_misses += records - encoded.delta_hits;
        self.stats.raw_bytes += encoded.raw_bytes;
        self.stats.encoded_bytes += encoded.encoded_bytes;
        // Synthetic cost: proportional to bytes appended, never wall time,
        // so traces stay byte-identical across runs and thread counts.
        trace::emit(
            "store.commit",
            "",
            &format!(
                "records={} delta_hits={} segment_bytes={}",
                records,
                encoded.delta_hits,
                envelope.len()
            ),
            envelope.len() as u64 * 200,
            trace::Sink::Export,
        );
        Ok(CommitInfo {
            records,
            delta_hits: encoded.delta_hits,
            raw_bytes: encoded.raw_bytes,
            encoded_bytes: encoded.encoded_bytes,
            segment_bytes: envelope.len() as u64,
        })
    }

    /// Writes the finalize segment (the inaccessibility-filter verdict)
    /// and closes the store to further commits.
    pub fn finalize(&mut self, filtered_out: &[String]) -> Result<(), StoreError> {
        if self.finalized {
            return Err(StoreError::AlreadyFinalized);
        }
        let _phase = trace::phase_scope("store");
        trace::emit(
            "store.finalize.begin",
            "",
            &format!("filtered_out={}", filtered_out.len()),
            0,
            trace::Sink::RingOnly,
        );
        let _ = webvuln_failpoint::failpoint!("store.finalize")?;
        let payload = format::encode_finalize(filtered_out, &mut self.table);
        let envelope = encode_segment(kind::FINALIZE, &payload);
        self.append_segment(&envelope, kind::FINALIZE, 0)?;
        self.finalized = true;
        trace::emit(
            "store.finalize",
            "",
            &format!("filtered_out={}", filtered_out.len()),
            envelope.len() as u64 * 200,
            trace::Sink::Export,
        );
        Ok(())
    }

    fn append_segment(
        &mut self,
        envelope: &[u8],
        seg_kind: u8,
        week: usize,
    ) -> Result<(), StoreError> {
        let offset = self.data_end;
        // The envelope is written in two halves around the mid-write
        // fail-point, so an injected crash leaves a genuinely torn
        // segment (and a stale footer) for resume to truncate.
        let (head, tail) = envelope.split_at(envelope.len() / 2);
        self.sink
            .write_at(offset, head)
            .map_err(|e| StoreError::io(&self.path, e))?;
        let _ = webvuln_failpoint::failpoint!("store.segment.mid_write")?;
        self.sink
            .write_at(offset + head.len() as u64, tail)
            .map_err(|e| StoreError::io(&self.path, e))?;
        self.data_end = offset + envelope.len() as u64;
        self.metas.push(SegmentMeta {
            kind: seg_kind,
            week,
            offset,
            env_len: envelope.len() as u64,
        });
        self.rewrite_footer()
    }

    fn rewrite_footer(&mut self) -> Result<(), StoreError> {
        let _ = webvuln_failpoint::failpoint!("store.footer.rewrite")?;
        let footer = encode_footer(&self.metas);
        self.sink
            .write_at(self.data_end, &footer)
            .and_then(|_| self.sink.cut(self.data_end + footer.len() as u64))
            .map_err(|e| StoreError::io(&self.path, e))
    }

    /// Truncates the store back to its first `weeks` committed weeks,
    /// dropping later weeks and any finalize segment, then reopens it.
    ///
    /// Consumes the writer: dropping segments invalidates the file-wide
    /// interner (their string blocks assigned symbols in writer order),
    /// so the surviving prefix is rescanned from disk to rebuild the
    /// table and delta state. The sharded store uses this to roll a
    /// shard that ran ahead of the manifest back to the committed epoch;
    /// a store kept in memory has no file to reopen and refuses.
    pub(crate) fn truncate_to_weeks(self, weeks: usize) -> Result<StoreWriter, StoreError> {
        if let Sink::Memory(_) = self.sink {
            return Err(StoreError::Mismatch(
                "cannot truncate a store kept in memory".to_string(),
            ));
        }
        if weeks > self.next_week {
            return Err(StoreError::Mismatch(format!(
                "cannot truncate to {weeks} weeks: only {} committed",
                self.next_week
            )));
        }
        let mut cut = format::HEADER_LEN;
        let mut kept = 0usize;
        for meta in &self.metas {
            match meta.kind {
                kind::GENESIS => cut = meta.offset + meta.env_len,
                kind::WEEK if kept < weeks => {
                    kept += 1;
                    cut = meta.offset + meta.env_len;
                }
                _ => break,
            }
        }
        let StoreWriter {
            mut sink,
            path,
            stats,
            ..
        } = self;
        sink.cut(cut).map_err(|e| StoreError::io(&path, e))?;
        drop(sink);
        let mut writer = StoreWriter::resume(&path)?;
        // What this writer's own resume recovered still happened.
        writer.stats.torn_bytes_recovered += stats.torn_bytes_recovered;
        writer.stats.rolled_back = stats.rolled_back + 1;
        Ok(writer)
    }

    /// Closes the writer and opens what it committed: the store file, or
    /// the bytes of a store kept [`in_memory`](Self::in_memory).
    pub fn into_reader(self) -> Result<StoreReader, StoreError> {
        match self.sink {
            Sink::File(_) => StoreReader::open(&self.path),
            Sink::Memory(memory) => StoreReader::from_bytes(&self.path, memory.get_ref()),
        }
    }

    /// The number of weeks committed so far (including recovered ones).
    pub fn weeks_committed(&self) -> usize {
        self.next_week
    }

    /// Whether the store carries a finalize segment.
    pub(crate) fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// The study metadata this store was created with.
    pub(crate) fn genesis(&self) -> &Genesis {
        &self.genesis
    }

    /// The store file path; for a store kept in memory, `(in memory)`.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Running totals for telemetry.
    pub fn stats(&self) -> WriterStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::testkit;

    /// The same commits leave a store kept in memory holding, byte for
    /// byte, the file they write — footer rewrites and cuts included.
    #[test]
    fn a_store_kept_in_memory_holds_the_file_bytes() {
        let path =
            std::env::temp_dir().join(format!("wvstore-sink-{}.wvstore", std::process::id()));
        let genesis = Genesis {
            start_days: 17_600,
            weeks_total: 4,
            ranks: vec![("site000.example".into(), 1)],
        };
        let mut file = StoreWriter::create(&path, genesis.clone()).expect("create");
        let mut memory = StoreWriter::in_memory(genesis).expect("in memory");
        let week0 = testkit::week(0, 9);
        // Week 1 repeats week 0, so it is all back-references.
        let weeks = [
            WeekData {
                week: 1,
                ..week0.clone()
            },
            testkit::week(2, 9),
            testkit::week(3, 12),
        ];
        for writer in [&mut file, &mut memory] {
            for week in std::iter::once(&week0).chain(&weeks) {
                writer.commit_week(week).expect("commit");
            }
            writer
                .finalize(&["site003.example".into()])
                .expect("finalize");
        }
        assert!(memory.stats().delta_hits >= 9, "{:?}", memory.stats());
        let Sink::Memory(bytes) = &memory.sink else {
            panic!("in_memory writes to memory");
        };
        assert_eq!(bytes.get_ref(), &std::fs::read(&path).expect("read file"));
        // A store kept in memory is never reopened from its name.
        let refused = memory.truncate_to_weeks(1).map(|_| ());
        assert!(
            matches!(refused, Err(StoreError::Mismatch(_))),
            "{refused:?}"
        );
        let _ = std::fs::remove_file(&path);
    }
}
