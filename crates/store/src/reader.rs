//! The reader of one store file (one shard): open, decode weeks, random
//! access, verify. [`crate::AnyReader`] is what consumers open.
//!
//! Opening a store scans the whole file once, verifying every segment
//! CRC and decoding only the cheap structural parts (string blocks, week
//! headers, indexes). Record bodies stay encoded until asked for — a
//! whole-week decode via [`StoreReader::week`] or a single-record lookup
//! via [`StoreReader::get`] and [`StoreReader::history`], which follow the
//! offset index carried inside each week's segment (hashed by host at
//! open) straight to the body bytes. The file's footer plays no part in
//! it; see [`crate::format`].

use crate::error::StoreError;
use crate::format::{
    decode_body_at, decode_week_full, scan, scan_from, DecodedRecord, Genesis, Index, RawSegment,
    Scan, WeekPrefix,
};
use crate::record::{DomainRecord, FromSym, Sym, WeekData};
use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Read-only access to one store file.
#[derive(Default)]
pub struct StoreReader {
    path: PathBuf,
    segments: Vec<RawSegment>,
    index: Index,
    /// Per indexed week, its index hashed by host symbol, for `get`.
    by_host: Vec<HashMap<u32, u64>>,
    data_end: u64,
    torn_bytes: u64,
    had_footer: bool,
    /// Records decoded by whole-week reads since open — a statistic.
    decoded: AtomicU64,
}

impl StoreReader {
    /// Opens `path`, validating every segment and indexing every week.
    ///
    /// A torn tail (from an interrupted commit) does not fail the open;
    /// the intact prefix is served and [`StoreReader::torn_bytes`]
    /// reports how much was dropped.
    pub fn open(path: &Path) -> Result<StoreReader, StoreError> {
        let bytes = std::fs::read(path).map_err(|e| StoreError::io(path, e))?;
        StoreReader::from_bytes(path, &bytes)
    }

    /// Opens the store `bytes` hold as if they were the file at `path`.
    pub(crate) fn from_bytes(path: &Path, bytes: &[u8]) -> Result<StoreReader, StoreError> {
        let mut reader = StoreReader {
            path: path.to_path_buf(),
            ..StoreReader::default()
        };
        reader.take(scan(bytes)?)?;
        Ok(reader)
    }

    /// Reads the bytes the file gained past the last segment read. Fails (drop
    /// the reader) if the file is gone, shorter, or lost its first or last one.
    pub(crate) fn follow(&mut self) -> Result<(), StoreError> {
        let io = |e| StoreError::io(&self.path, e);
        let mut file = std::fs::File::open(&self.path).map_err(io)?;
        let (first, last) = (&self.segments[0], &self.segments[self.segments.len() - 1]);
        let (mut head, mut tail) = ([0; 4], Vec::new());
        file.seek(SeekFrom::Start(first.offset + first.env_len - 4))
            .and_then(|_| file.read_exact(&mut head))
            .and_then(|_| file.seek(SeekFrom::Start(self.data_end - 4)))
            .and_then(|_| file.read_to_end(&mut tail))
            .map_err(io)?;
        if head != first.crc.to_le_bytes() || tail.get(..4) != Some(&last.crc.to_le_bytes()) {
            return Err(StoreError::corrupt(self.data_end, "not the file it was"));
        }
        self.take(scan_from(&tail[4..], self.data_end, Some(last.kind)))
    }

    /// Adds what a scan found past what the reader holds: the segments,
    /// their weeks indexed, hashed by host and the table's new strings
    /// made findable by value, for `get`.
    fn take(&mut self, scanned: Scan) -> Result<(), StoreError> {
        let from = self.segments.len();
        self.segments.extend(scanned.segments);
        self.index.extend(&self.segments, from)?;
        self.index.table.index_decoded();
        let fresh = self.index.weeks[self.by_host.len()..].iter();
        self.by_host
            .extend(fresh.map(|(_, prefix)| prefix.index.iter().copied().collect()));
        (self.data_end, self.torn_bytes) = (scanned.data_end, scanned.torn_bytes);
        self.had_footer = scanned.had_footer;
        Ok(())
    }

    /// The study metadata the store was created with.
    pub fn genesis(&self) -> &Genesis {
        &self.index.genesis
    }

    /// Number of committed weeks.
    pub fn weeks_committed(&self) -> usize {
        self.index.weeks.len()
    }

    /// The stored filter verdict; `Some` only when finalized.
    pub(crate) fn filtered_out(&self) -> Option<&[String]> {
        self.index.filtered_out.as_deref()
    }

    /// Whether the store was finalized.
    pub(crate) fn is_finalized(&self) -> bool {
        self.index.filtered_out.is_some()
    }

    /// Torn tail bytes dropped when the file was opened.
    pub fn torn_bytes(&self) -> u64 {
        self.torn_bytes
    }

    /// Whether the file ended with an intact footer — the mark of a
    /// commit that ran to its sync.
    pub fn had_footer(&self) -> bool {
        self.had_footer
    }

    /// The store file path.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Records this reader has decoded through [`StoreReader::week`] and
    /// [`StoreReader::week_records`] since it was opened: what a caller's
    /// walk over history cost, as a count ([`StoreReader::get`]'s point
    /// reads are not in it).
    pub(crate) fn records_decoded(&self) -> u64 {
        self.decoded.load(Ordering::Relaxed)
    }

    /// The snapshot date (days since epoch) of committed week `week`.
    pub fn week_date_days(&self, week: usize) -> Result<i64, StoreError> {
        self.entry(week).map(|(_, prefix)| prefix.date_days)
    }

    /// Fully decodes week `week`.
    pub fn week(&self, week: usize) -> Result<WeekData, StoreError> {
        let entry = self.entry(week)?;
        let decoded = self.decode_entry::<String>(entry)?;
        self.decoded
            .fetch_add(decoded.len() as u64, Ordering::Relaxed);
        Ok(WeekData {
            week,
            date_days: entry.1.date_days,
            records: decoded.into_iter().map(|d| d.record).collect(),
        })
    }

    /// Decodes only the records of week `week` whose host `keep` accepts,
    /// in host order, each straight from its indexed offset and borrowing
    /// its strings from this reader's table — what a fold over one domain
    /// partition needs, at that partition's share of the week's decode
    /// cost and with no allocation per string.
    pub fn week_records(
        &self,
        week: usize,
        keep: impl Fn(&str) -> bool,
    ) -> Result<WeekData<DomainRecord<Sym<'_>>>, StoreError> {
        let (_, prefix) = self.entry(week)?;
        let table = &self.index.table;
        let mut records = Vec::new();
        for &(sym, offset) in &prefix.index {
            let host = table
                .sym(sym)
                .ok_or_else(|| StoreError::corrupt(offset, "index host symbol unknown"))?;
            if keep(host.text) {
                records.push(decode_body_at(&self.segments, table, host, offset)?.0);
            }
        }
        self.decoded
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        Ok(WeekData {
            week,
            date_days: prefix.date_days,
            records,
        })
    }

    /// Random access: the record for `domain` in `week`, located via the
    /// week segment's offset index without decoding anything else.
    pub fn get(&self, domain: &str, week: usize) -> Result<DomainRecord, StoreError> {
        let unknown = || StoreError::UnknownDomain(domain.to_string());
        let host = self.symbol(domain).ok_or_else(unknown)?;
        let (_, record) = self.record(host, week)?.ok_or_else(unknown)?;
        Ok(record)
    }

    /// `domain`'s records over weeks `0..weeks`, tagged as shard `shard`'s.
    pub(crate) fn history_to(
        &self,
        domain: &str,
        weeks: usize,
        shard: usize,
    ) -> Result<History<'_>, StoreError> {
        let host = self
            .symbol(domain)
            .ok_or_else(|| StoreError::UnknownDomain(domain.to_string()))?;
        Ok(History {
            reader: self,
            host,
            shard,
            weeks: 0..weeks,
        })
    }

    /// `text` as this reader's string table holds it, if the file names it.
    pub fn symbol(&self, text: &str) -> Option<Sym<'_>> {
        let table = &self.index.table;
        table.lookup(text).and_then(|id| table.sym(id))
    }

    /// Every string of this reader's table, in symbol order.
    pub fn symbols(&self) -> impl Iterator<Item = Sym<'_>> {
        self.index.table.iter()
    }

    /// The date of `week` and the record `host` has in it, if any: the
    /// one decode behind [`StoreReader::get`] and [`StoreReader::history`].
    fn record<'a, S: FromSym<'a>>(
        &'a self,
        host: Sym<'a>,
        week: usize,
    ) -> Result<Option<(i64, DomainRecord<S>)>, StoreError> {
        let (_, prefix) = self.entry(week)?;
        let Some(&offset) = self.by_host[week].get(&host.id) else {
            return Ok(None);
        };
        let (record, _) = decode_body_at(&self.segments, &self.index.table, host, offset)?;
        Ok(Some((prefix.date_days, record)))
    }

    /// Exhaustively verifies the store: decodes every record of every
    /// week (resolving and cross-checking all back-references and index
    /// entries). Returns per-week record counts.
    pub fn verify(&self) -> Result<Vec<usize>, StoreError> {
        let mut counts = Vec::with_capacity(self.index.weeks.len());
        for entry in &self.index.weeks {
            counts.push(self.decode_entry::<Sym<'_>>(entry)?.len());
        }
        Ok(counts)
    }

    /// Delta statistics over the whole file: `(backref_records,
    /// total_records)`.
    pub fn delta_stats(&self) -> Result<(usize, usize), StoreError> {
        let mut hits = 0;
        let mut total = 0;
        for entry in &self.index.weeks {
            let decoded = self.decode_entry::<Sym<'_>>(entry)?;
            total += decoded.len();
            hits += decoded.iter().filter(|d| d.backref).count();
        }
        Ok((hits, total))
    }

    /// Total bytes of validated data segments (excludes header, footer,
    /// and any torn tail).
    pub fn data_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.env_len).sum()
    }

    /// The sequential, index-cross-checked walk of one week's records.
    fn decode_entry<'a, S: FromSym<'a>>(
        &'a self,
        (seg_index, prefix): &(usize, WeekPrefix),
    ) -> Result<Vec<DecodedRecord<'a, S>>, StoreError> {
        decode_week_full(&self.segments, *seg_index, prefix, &self.index.table)
    }

    fn entry(&self, week: usize) -> Result<&(usize, WeekPrefix), StoreError> {
        let entry = self.index.weeks.get(week);
        entry.ok_or(StoreError::UnknownWeek(week))
    }
}

/// One domain's records, week by week, as [`crate::AnyReader::history`]
/// reads them. Yields `(week, date_days,
/// record)` for each week that holds the domain and skips the others.
pub struct History<'a> {
    reader: &'a StoreReader,
    host: Sym<'a>,
    shard: usize,
    weeks: Range<usize>,
}

impl<'a> History<'a> {
    /// The domain as the owning file's table holds it: its symbol keys
    /// whatever a caller built over that file.
    pub fn host(&self) -> Sym<'a> {
        self.host
    }

    /// The shard that owns the domain (0 for a single file).
    pub fn shard(&self) -> usize {
        self.shard
    }
}

impl<'a> Iterator for History<'a> {
    type Item = Result<(usize, i64, DomainRecord<Sym<'a>>), StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        let (reader, host) = (self.reader, self.host);
        self.weeks.find_map(|week| match reader.record(host, week) {
            Ok(Some((date_days, record))) => Some(Ok((week, date_days, record))),
            Ok(None) => None,
            Err(e) => Some(Err(e)),
        })
    }
}
