//! The store's two layouts behind one reader and one writer: a sharded
//! directory — N shard files + one manifest, written by one
//! [`StoreWriter`] per shard on the `webvuln-exec` pool — or a single
//! file, which is one shard with no manifest.
//!
//! Domains are partitioned by a deterministic hash of the host name
//! ([`shard_of`]), so every shard file is an ordinary single-file store
//! holding its slice of the study — same format, same torn-tail healer,
//! same delta encoding. What the single-file store gets from its footer
//! rewrite, the group gets from the manifest (see [`crate::manifest`]):
//! a week is committed only once every shard has appended and synced its
//! segment *and* the manifest rename lands. Recovery therefore has two
//! layers: each shard heals its own torn tail independently, then the
//! manifest check rolls any shard that ran ahead of the committed epoch
//! back to it — so a kill at any instant yields epoch E or E+1 across
//! all shards, never a mix. A shard *behind* the manifest cannot be
//! produced by a crash (the rename only happens after every shard
//! synced); finding one means lost or hand-edited bytes, and resume
//! refuses with [`StoreError::ShardBehind`] rather than serve a
//! mixed-epoch store.
//!
//! [`AnyWriter`] writes either layout and [`AnyReader`] reads either
//! back, degraded if need be.

use crate::error::StoreError;
use crate::format::Genesis;
use crate::manifest::{self, Manifest};
use crate::reader::StoreReader;
use crate::record::{DomainRecord, WeekData};
use crate::stream::WeekStream;
use crate::writer::{CommitInfo, StoreWriter, WriterStats};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use webvuln_exec::Executor;

/// Deterministic shard assignment: FNV-1a over the host name, mod the
/// shard count. Stable across runs, platforms, and thread counts — the
/// store layout depends on it. Being `hash % n`, assignments nest:
/// `shard_of(h, n * k) % n == shard_of(h, n)`, so a finer cut of the
/// domains (the analysis fold's parts and buckets) never straddles files.
pub fn shard_of(host: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in host.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    (hash % shards as u64) as usize
}

/// File name of shard `index` inside a sharded-store directory.
pub fn shard_file_name(index: usize) -> String {
    format!("shard-{index:03}.wvstore")
}

/// Path of shard `index` inside `dir`.
pub fn shard_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(shard_file_name(index))
}

/// Suffix appended to a corrupt shard file when scrub quarantines it.
pub const QUARANTINE_SUFFIX: &str = "quarantined";

/// Splits one group week into per-shard weeks. Records arrive sorted by
/// host; a stable partition keeps every shard's slice sorted too, and
/// re-merging sorted slices by host reproduces the group order exactly.
pub fn split_week(week: &WeekData, shards: usize) -> Vec<WeekData> {
    partition_week(week, shards, DomainRecord::clone)
}

/// [`split_week`] with each record cloned, or — a commit, which only
/// reads them — lent (`|r| r`).
fn partition_week<'a, R>(
    week: &'a WeekData,
    shards: usize,
    lend: impl Fn(&'a DomainRecord) -> R,
) -> Vec<WeekData<R>> {
    let mut parts: Vec<WeekData<R>> = (0..shards)
        .map(|_| WeekData {
            week: week.week,
            date_days: week.date_days,
            records: Vec::new(),
        })
        .collect();
    for record in &week.records {
        parts[shard_of(&record.host, shards)]
            .records
            .push(lend(record));
    }
    parts
}

/// Merges per-shard week slices back into one group week, sorted by host.
fn merge_week(week: usize, date_days: i64, mut parts: Vec<WeekData>) -> WeekData {
    // One part (a single file, the last healthy shard) is already in
    // host order: hand its records back without a copy or a sort.
    let records = if parts.len() == 1 {
        parts.remove(0).records
    } else {
        let mut records: Vec<DomainRecord> = parts.into_iter().flat_map(|p| p.records).collect();
        records.sort_by(|a, b| a.host.cmp(&b.host));
        records
    };
    WeekData {
        week,
        date_days,
        records,
    }
}

/// The per-shard slice of a group genesis: same timeline, ranks filtered
/// to the shard's domains (global rank values preserved).
fn shard_genesis(group: &Genesis, shard: usize, shards: usize) -> Genesis {
    Genesis {
        start_days: group.start_days,
        weeks_total: group.weeks_total,
        ranks: group
            .ranks
            .iter()
            .filter(|(host, _)| shard_of(host, shards) == shard)
            .cloned()
            .collect(),
    }
}

/// Rebuilds the group genesis from per-shard slices (ranks re-sorted by
/// the global rank value).
fn merge_genesis(parts: &[&Genesis]) -> Result<Genesis, StoreError> {
    let first = parts.first().ok_or(StoreError::MissingGenesis)?;
    let mut ranks = Vec::new();
    for part in parts {
        if part.start_days != first.start_days || part.weeks_total != first.weeks_total {
            return Err(StoreError::Mismatch(
                "shard genesis timelines disagree".to_string(),
            ));
        }
        ranks.extend(part.ranks.iter().cloned());
    }
    ranks.sort_by_key(|(_, rank)| *rank);
    Ok(Genesis {
        start_days: first.start_days,
        weeks_total: first.weeks_total,
        ranks,
    })
}

/// One shard's slice of a week — borrowed from the group week, never
/// cloned — claimed by exactly one commit worker.
type ShardJob<'a> = Mutex<Option<(usize, &'a mut StoreWriter, WeekData<&'a DomainRecord>)>>;

/// Writes a snapshot store of either layout: a sharded directory (one
/// [`StoreWriter`] per shard plus the group manifest) or a single file,
/// which is one shard with no manifest and commits through its own
/// footer. Callers commit, finalize and read back the same way whichever
/// layout they were given.
pub struct AnyWriter {
    path: PathBuf,
    writers: Vec<StoreWriter>,
    /// The group's committed state; `None` for a single file.
    manifest: Option<Manifest>,
    genesis: Genesis,
    threads: usize,
}

/// The name [`AnyWriter`] had while it wrote only directories.
pub type ShardedStoreWriter = AnyWriter;

/// One file as the store: a shard with no manifest.
impl From<StoreWriter> for AnyWriter {
    fn from(writer: StoreWriter) -> AnyWriter {
        AnyWriter {
            path: writer.path().to_path_buf(),
            genesis: writer.genesis().clone(),
            writers: vec![writer],
            manifest: None,
            threads: 1,
        }
    }
}

impl AnyWriter {
    /// Creates (replacing any previous group) a sharded store under
    /// `dir` with `shards` shard files. A single file is
    /// [`StoreWriter::create`], converted.
    pub fn create(dir: &Path, genesis: Genesis, shards: usize) -> Result<AnyWriter, StoreError> {
        if shards == 0 {
            return Err(StoreError::Mismatch(
                "a sharded store needs at least one shard".to_string(),
            ));
        }
        fs::create_dir_all(dir).map_err(|e| StoreError::io(dir, e))?;
        // Clear leftovers from any previous layout (wider shard counts,
        // quarantined files, a stale manifest) so the directory holds
        // exactly this group.
        if let Ok(entries) = fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with("shard-") || name.starts_with("MANIFEST") {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        let mut writers = Vec::with_capacity(shards);
        for index in 0..shards {
            writers.push(StoreWriter::create(
                &shard_path(dir, index),
                shard_genesis(&genesis, index, shards),
            )?);
        }
        let manifest = Manifest {
            epoch: 1,
            shards: shards as u32,
            weeks: 0,
            finalized: false,
        };
        manifest::commit(dir, &manifest)?;
        Ok(AnyWriter {
            path: dir.to_path_buf(),
            writers,
            manifest: Some(manifest),
            genesis,
            threads: 1,
        })
    }

    /// Sets the thread count for parallel per-shard commits (the
    /// `webvuln-exec` pool). Purely a scheduling knob: store bytes are
    /// identical at any thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Reopens an existing store of either layout for writing. A file
    /// heals its torn tail ([`StoreWriter::resume`]). A directory heals
    /// each shard's, rolls any shard that ran ahead of the manifest back
    /// to the committed epoch ([`WriterStats::rolled_back`] counts them),
    /// and refuses mixed-epoch groups a crash cannot produce (a shard
    /// *behind* the manifest).
    pub fn resume(path: &Path) -> Result<AnyWriter, StoreError> {
        let Some(manifest) = manifest::of(path)? else {
            return StoreWriter::resume(path).map(AnyWriter::from);
        };
        let shards = manifest.shards as usize;
        let committed = manifest.weeks as usize;
        let mut writers = Vec::with_capacity(shards);
        for index in 0..shards {
            let shard = shard_path(path, index);
            if !shard.exists() {
                return Err(StoreError::ShardUnavailable {
                    shard: index,
                    detail: format!("shard file missing: {}", shard.display()),
                });
            }
            let mut writer = StoreWriter::resume(&shard)?;
            if writer.weeks_committed() > committed
                || (writer.is_finalized() && !manifest.finalized)
            {
                // The shard committed past the manifest before the crash;
                // the group never published that progress, so drop it.
                writer = writer.truncate_to_weeks(committed)?;
            }
            if writer.weeks_committed() < committed
                || (manifest.finalized && !writer.is_finalized())
            {
                return Err(StoreError::ShardBehind {
                    shard: index,
                    shard_weeks: writer.weeks_committed(),
                    manifest_weeks: committed,
                });
            }
            writers.push(writer);
        }
        let genesis = merge_genesis(&writers.iter().map(|w| w.genesis()).collect::<Vec<_>>())?;
        Ok(AnyWriter {
            path: path.to_path_buf(),
            writers,
            manifest: Some(manifest),
            genesis,
            threads: 1,
        })
    }

    /// Commits one week. A file appends it and rewrites its footer. A
    /// group splits it by domain hash, appends every shard's slice in
    /// parallel on the exec pool, then publishes the week with one atomic
    /// manifest rename; a kill anywhere in between leaves the manifest at
    /// the previous epoch and the partial shard progress is rolled back
    /// on resume.
    pub fn commit_week(&mut self, week: &WeekData) -> Result<CommitInfo, StoreError> {
        let Some(manifest) = self.manifest else {
            return self.writers[0].commit_week(week);
        };
        if manifest.finalized {
            return Err(StoreError::AlreadyFinalized);
        }
        let expected = manifest.weeks as usize;
        if week.week != expected {
            return Err(StoreError::WeekOutOfOrder {
                expected,
                got: week.week,
            });
        }
        let parts = partition_week(week, self.writers.len(), |record| record);
        let jobs: Vec<ShardJob<'_>> = self
            .writers
            .iter_mut()
            .zip(parts)
            .enumerate()
            .map(|(index, (writer, part))| Mutex::new(Some((index, writer, part))))
            .collect();
        let results = Executor::new(self.threads).map(&jobs, |job| {
            let (index, writer, part) = job
                .lock()
                .expect("shard job lock")
                .take()
                .expect("each shard job runs exactly once");
            let key = index.to_string();
            let _ = webvuln_failpoint::failpoint!("store.shard.mid_write", &key)?;
            writer.commit_lent(&part)
        });
        let mut info = CommitInfo {
            week: week.week,
            records: 0,
            delta_hits: 0,
            raw_bytes: 0,
            encoded_bytes: 0,
            segment_bytes: 0,
        };
        for result in results {
            let shard_info = result?;
            info.records += shard_info.records;
            info.delta_hits += shard_info.delta_hits;
            info.raw_bytes += shard_info.raw_bytes;
            info.encoded_bytes += shard_info.encoded_bytes;
            info.segment_bytes += shard_info.segment_bytes;
        }
        self.publish(Manifest {
            epoch: manifest.epoch + 1,
            weeks: manifest.weeks + 1,
            ..manifest
        })?;
        Ok(info)
    }

    /// Writes the finalize verdict to every shard (each carries the full
    /// group list, so scrub can recover it from any healthy shard), then,
    /// for a group, publishes it with one manifest rename.
    pub fn finalize(&mut self, filtered_out: &[String]) -> Result<(), StoreError> {
        if self.is_finalized() {
            return Err(StoreError::AlreadyFinalized);
        }
        for writer in &mut self.writers {
            writer.finalize(filtered_out)?;
        }
        match self.manifest {
            Some(manifest) => self.publish(Manifest {
                epoch: manifest.epoch + 1,
                finalized: true,
                ..manifest
            }),
            None => Ok(()),
        }
    }

    /// Commits `next` as the group's manifest.
    fn publish(&mut self, next: Manifest) -> Result<(), StoreError> {
        manifest::commit(&self.path, &next)?;
        self.manifest = Some(next);
        Ok(())
    }

    /// Closes the writer and opens what it committed: a file from the
    /// writer's own bytes (a store kept in memory included), a group
    /// from disk.
    pub fn into_reader(mut self) -> Result<AnyReader, StoreError> {
        match self.manifest {
            Some(_) => AnyReader::open(&self.path),
            None => self.writers.remove(0).into_reader().map(AnyReader::from),
        }
    }

    /// Weeks committed — as published by the manifest when there is one.
    pub fn weeks_committed(&self) -> usize {
        self.manifest
            .map_or_else(|| self.writers[0].weeks_committed(), |m| m.weeks as usize)
    }

    /// Whether the store carries the finalize verdict — as published by
    /// the manifest when there is one.
    pub fn is_finalized(&self) -> bool {
        self.manifest
            .map_or_else(|| self.writers[0].is_finalized(), |m| m.finalized)
    }

    /// The study metadata: a single file's own, or the merged group's.
    pub fn genesis(&self) -> &Genesis {
        &self.genesis
    }

    /// Number of shard files (1 for a single file).
    pub fn shard_count(&self) -> usize {
        self.writers.len()
    }

    /// The group manifest last committed; `None` for a single file.
    pub fn manifest(&self) -> Option<Manifest> {
        self.manifest
    }

    /// The store path (file or directory).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Aggregated writer stats across all shards.
    pub fn stats(&self) -> WriterStats {
        let mut total = WriterStats::default();
        for writer in &self.writers {
            let stats = writer.stats();
            total.segments_written += stats.segments_written;
            total.delta_hits += stats.delta_hits;
            total.delta_misses += stats.delta_misses;
            total.raw_bytes += stats.raw_bytes;
            total.encoded_bytes += stats.encoded_bytes;
            total.torn_bytes_recovered += stats.torn_bytes_recovered;
            total.rolled_back += stats.rolled_back;
        }
        total
    }
}

/// Health of one shard as seen by a (possibly degraded) reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardHealth {
    /// The shard opened and is consistent with the manifest.
    Healthy,
    /// The shard cannot be served; `detail` says why.
    Unavailable {
        /// Human-readable reason (missing file, corruption, mixed epoch).
        detail: String,
    },
}

impl ShardHealth {
    /// Whether this shard can serve queries.
    pub fn is_healthy(&self) -> bool {
        matches!(self, ShardHealth::Healthy)
    }
}

/// Read-only access to a snapshot store of either layout: a sharded
/// directory (a `MANIFEST` plus `shard-*.wvstore` files) or a single
/// `.wvstore` file, which is one healthy shard with no manifest. Group
/// weeks come back sorted by host, `(domain, week)` lookups route by
/// domain hash, and consumers — the analysis fold, the serve layer, the
/// watch daemon, the CLI — need not know which layout they were given.
#[derive(Default)]
pub struct AnyReader {
    path: PathBuf,
    manifest: Option<Manifest>,
    weeks: usize,
    finalized: bool,
    readers: Vec<Option<StoreReader>>,
    health: Vec<ShardHealth>,
    genesis: Genesis,
    indexed: u64,
}

/// One file as the store: a healthy shard with no manifest.
impl From<StoreReader> for AnyReader {
    fn from(reader: StoreReader) -> AnyReader {
        AnyReader {
            path: reader.path().to_path_buf(),
            manifest: None,
            weeks: reader.weeks_committed(),
            finalized: reader.is_finalized(),
            genesis: reader.genesis().clone(),
            indexed: reader.weeks_committed() as u64,
            readers: vec![Some(reader)],
            health: vec![ShardHealth::Healthy],
        }
    }
}

impl AnyReader {
    /// Opens `path` strictly: every shard must open and agree with the
    /// manifest, or the open fails with that shard's error.
    pub fn open(path: &Path) -> Result<AnyReader, StoreError> {
        let reader = Self::open_degraded(path)?;
        for (index, health) in reader.health.iter().enumerate() {
            if let ShardHealth::Unavailable { detail } = health {
                return Err(StoreError::ShardUnavailable {
                    shard: index,
                    detail: detail.clone(),
                });
            }
        }
        Ok(reader)
    }

    /// Opens `path` tolerantly: shards that are missing, corrupt,
    /// quarantined, or inconsistent with the manifest are marked
    /// [`ShardHealth::Unavailable`] and queries routed to them fail with
    /// [`StoreError::ShardUnavailable`]; everything else serves normally.
    /// A single file has no shard to lose and opens as [`AnyReader::open`]
    /// does.
    pub fn open_degraded(path: &Path) -> Result<AnyReader, StoreError> {
        let Some(manifest) = manifest::of(path)? else {
            return StoreReader::open(path).map(AnyReader::from);
        };
        let mut reader = AnyReader {
            path: path.to_path_buf(),
            ..AnyReader::default()
        };
        reader.catch_up(manifest)?;
        Ok(reader)
    }

    /// Reads what the store committed since: the manifest, then the bytes
    /// each shard file gained; a shard file that is missing, shorter or
    /// replaced is opened again, as by a fresh open. A single file, or a
    /// manifest whose epoch moved back or whose shard count changed,
    /// reopens the whole store, and the answer says so.
    pub fn refresh(&mut self) -> Result<bool, StoreError> {
        match (self.manifest, manifest::of(&self.path)?) {
            (Some(held), Some(now)) if now.epoch >= held.epoch && now.shards == held.shards => {
                self.catch_up(now)?;
                Ok(false)
            }
            _ => {
                let indexed = self.indexed;
                *self = AnyReader::open_degraded(&self.path)?;
                self.indexed += indexed;
                Ok(true)
            }
        }
    }

    /// Every shard of a group brought to `manifest`: a shard read before
    /// follows its file, any other is opened; either serves only if it
    /// holds every week the manifest committed. A shard *ahead* of the
    /// manifest is a crashed writer whose extra progress was never
    /// published: its committed prefix serves. A shard *behind* is a mixed
    /// epoch no crash can produce.
    fn catch_up(&mut self, manifest: Manifest) -> Result<(), StoreError> {
        let (committed, shards) = (manifest.weeks as usize, manifest.shards as usize);
        self.readers.resize_with(shards, || None);
        let mut health = Vec::with_capacity(shards);
        for (index, slot) in self.readers.iter_mut().enumerate() {
            let path = shard_path(&self.path, index);
            let mut held = slot.take();
            let before = held.as_ref().map_or(0, StoreReader::weeks_committed);
            let opened = match held.as_mut().map(StoreReader::follow) {
                Some(Ok(())) => Ok((held.expect("followed"), before)),
                _ if !path.exists() => Err(format!("shard file missing: {}", path.display())),
                _ => StoreReader::open(&path)
                    .map(|r| (r, 0))
                    .map_err(|e| e.to_string()),
            };
            let served = opened.and_then(|(reader, before)| {
                let weeks = reader.weeks_committed();
                self.indexed += (weeks - before) as u64;
                let whole = weeks >= committed && (reader.is_finalized() || !manifest.finalized);
                let behind = || {
                    format!("mixed epoch: shard has {weeks} weeks, manifest requires {committed}")
                };
                whole.then_some(reader).ok_or_else(behind)
            });
            health.push(match served {
                Ok(reader) => {
                    *slot = Some(reader);
                    ShardHealth::Healthy
                }
                Err(detail) => ShardHealth::Unavailable { detail },
            });
        }
        (self.manifest, self.health) = (Some(manifest), health);
        (self.weeks, self.finalized) = (committed, manifest.finalized);
        if self.readers.iter().all(Option::is_none) {
            let all = format!("all {shards} shards unavailable in {}", self.path.display());
            return Err(StoreError::corrupt(0, all));
        }
        let healthy: Vec<&Genesis> = self.healthy().map(StoreReader::genesis).collect();
        self.genesis = merge_genesis(&healthy)?;
        Ok(())
    }

    /// The study metadata: a single file's own, or the merge over healthy
    /// shards (degraded opens miss the unavailable shards' domains).
    pub fn genesis(&self) -> &Genesis {
        &self.genesis
    }

    /// Weeks committed — as published by the manifest when there is one.
    pub fn weeks_committed(&self) -> usize {
        self.weeks
    }

    /// Whether the store is finalized — as published by the manifest
    /// when there is one.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// The stored filter verdict from the first healthy shard (every
    /// shard carries the full group list); `Some` only when finalized.
    pub fn filtered_out(&self) -> Option<&[String]> {
        if !self.finalized {
            return None;
        }
        self.healthy().next()?.filtered_out()
    }

    /// The group manifest; `None` for a single-file store.
    pub fn manifest(&self) -> Option<Manifest> {
        self.manifest
    }

    /// Number of shards (1 for a single-file store).
    pub fn shard_count(&self) -> usize {
        self.health.len()
    }

    /// Per-shard health, indexed by shard.
    pub fn shard_health(&self) -> &[ShardHealth] {
        &self.health
    }

    /// Direct read access to one shard's file (`None` when the shard is
    /// unavailable). Streaming folds use this to decode shards in
    /// parallel, one worker per shard. A shard a crashed writer left
    /// ahead of the manifest holds weeks past
    /// [`AnyReader::weeks_committed`]; they were never published.
    pub fn shard_reader(&self, index: usize) -> Option<&StoreReader> {
        self.readers.get(index)?.as_ref()
    }

    /// Records decoded by whole-week reads of any shard since this reader
    /// was opened ([`StoreReader::records_decoded`], summed).
    pub fn records_decoded(&self) -> u64 {
        self.healthy().map(StoreReader::records_decoded).sum()
    }

    /// Week prefixes (one per shard and week) indexed since this reader
    /// was opened: by the open, then by each [`AnyReader::refresh`].
    pub fn weeks_indexed(&self) -> u64 {
        self.indexed
    }

    /// Whether any shard is unavailable (never for single files).
    pub fn is_degraded(&self) -> bool {
        self.health.iter().any(|h| !h.is_healthy())
    }

    /// The shard `domain` routes to and, if that shard is unavailable,
    /// the reason. Single-file stores always answer `(0, None)`.
    pub fn shard_for(&self, domain: &str) -> (usize, Option<String>) {
        let shard = shard_of(domain, self.health.len());
        match &self.health[shard] {
            ShardHealth::Healthy => (shard, None),
            ShardHealth::Unavailable { detail } => (shard, Some(detail.clone())),
        }
    }

    /// The store path (file or directory).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Torn tail bytes observed across healthy shards.
    pub fn torn_bytes(&self) -> u64 {
        self.healthy().map(|r| r.torn_bytes()).sum()
    }

    /// Total validated data bytes across healthy shards.
    pub fn data_bytes(&self) -> u64 {
        self.healthy().map(|r| r.data_bytes()).sum()
    }

    /// The snapshot date (days since epoch) of committed week `week`.
    pub fn week_date_days(&self, week: usize) -> Result<i64, StoreError> {
        if week >= self.weeks {
            return Err(StoreError::UnknownWeek(week));
        }
        let reader = self
            .healthy()
            .next()
            .ok_or_else(|| StoreError::corrupt(0, "no healthy shard to read the week date from"))?;
        reader.week_date_days(week)
    }

    /// Fully decodes week `week`, merged across healthy shards and
    /// sorted by host. On a degraded open the unavailable shards' records
    /// are absent.
    pub fn week(&self, week: usize) -> Result<WeekData, StoreError> {
        if week >= self.weeks {
            return Err(StoreError::UnknownWeek(week));
        }
        let parts = self.healthy().map(|shard| shard.week(week));
        let parts = parts.collect::<Result<Vec<_>, _>>()?;
        let date_days = parts
            .first()
            .ok_or_else(|| StoreError::corrupt(0, "no healthy shard holds this week"))?
            .date_days;
        if parts.iter().any(|p| p.date_days != date_days) {
            return Err(StoreError::Mismatch(format!(
                "shards disagree on the date of week {week}"
            )));
        }
        Ok(merge_week(week, date_days, parts))
    }

    /// The readers of the shards that can be served, in shard order. A
    /// fold takes its weeks from these, one shard a slice: their records
    /// borrow from each file's own string table
    /// ([`StoreReader::week_records`]), which a merged week could not.
    pub fn healthy(&self) -> impl Iterator<Item = &StoreReader> {
        self.readers.iter().flatten()
    }

    /// Streams every committed week, one decoded [`WeekData`] at a time.
    pub fn stream(&self) -> WeekStream<'_> {
        WeekStream::over(self)
    }

    /// Random access to one `(domain, week)` record, routed to the owning
    /// shard by domain hash. Routing to an unavailable shard fails with
    /// [`StoreError::ShardUnavailable`] — the caller can tell "this
    /// domain's shard is down" (retryable, serve answers 503) apart from
    /// "this domain does not exist" (404).
    pub fn get(&self, domain: &str, week: usize) -> Result<DomainRecord, StoreError> {
        if week >= self.weeks {
            return Err(StoreError::UnknownWeek(week));
        }
        let shard = shard_of(domain, self.health.len());
        match (&self.readers[shard], &self.health[shard]) {
            (Some(reader), _) => reader.get(domain, week),
            (None, ShardHealth::Unavailable { detail }) => Err(StoreError::ShardUnavailable {
                shard,
                detail: detail.clone(),
            }),
            (None, ShardHealth::Healthy) => unreachable!("healthy shards always have a reader"),
        }
    }

    /// Exhaustively verifies every healthy shard (every record of every
    /// committed week, back-references and indexes cross-checked) and
    /// fails on the first unavailable shard. Returns per-week record
    /// counts summed across shards.
    pub fn verify(&self) -> Result<Vec<usize>, StoreError> {
        let mut counts = vec![0usize; self.weeks];
        for (index, reader) in self.readers.iter().enumerate() {
            match reader {
                Some(reader) => {
                    let shard_counts = reader.verify()?;
                    for (week, count) in shard_counts.iter().take(self.weeks).enumerate() {
                        counts[week] += count;
                    }
                }
                None => {
                    if let ShardHealth::Unavailable { detail } = &self.health[index] {
                        return Err(StoreError::ShardUnavailable {
                            shard: index,
                            detail: detail.clone(),
                        });
                    }
                }
            }
        }
        Ok(counts)
    }

    /// Delta statistics summed over healthy shards: `(backref_records,
    /// total_records)`.
    pub fn delta_stats(&self) -> Result<(usize, usize), StoreError> {
        let mut hits = 0;
        let mut total = 0;
        for reader in self.healthy() {
            let (h, t) = reader.delta_stats()?;
            hits += h;
            total += t;
        }
        Ok((hits, total))
    }
}
