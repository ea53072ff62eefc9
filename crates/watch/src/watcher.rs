//! The watch loop: idempotent week ingestion, incremental live analysis
//! state, and CVE retro-scan alerting.
//!
//! One watcher owns a root directory:
//!
//! ```text
//! root/
//!   store/           sharded snapshot store (manifest-epoch commits)
//!   spool/           incoming week-NNNNN.wvweek files (+ genesis);
//!                    week files are consumed once committed
//!   deltas/          incoming *.cvedelta files
//!   outbox.wal       alert outbox journal
//!   alerts.log       delivered alerts, one line per alert
//!   deltas.applied   retro-scans completed, one file name per line
//! ```
//!
//! Every tick is crash-safe by construction: the store commit is the
//! manifest-epoch rename (a re-delivered or re-ingested week is a no-op
//! keyed on the committed week count), retro-scan completion is the
//! applied-journal append (a crash mid-scan replays the scan, and the
//! outbox dedups the replayed alerts by deterministic ID), and delivery
//! is the outbox's journaled three-sync round. The live accumulator is
//! *not* persisted — the store is its journal — and it is held as domain
//! [`Buckets`], merged only when read ([`Watcher::live`]): a cold open
//! folds every bucket from the store, and an arrival tick hands each
//! bucket its share of the one new week, which is exactly the fold's
//! per-week step (`absorb` of a [`DecodedWeek`]). The §4.1 filter rides
//! along the same way: the [`FilterWindow`] over the trailing weeks is
//! held in memory (built from the store once, on open), so an arrival
//! tick costs one week — read, commit, absorb — independent of how much
//! history the store holds. Verdict drift (domains crossing the
//! trailing-inaccessibility boundary, a weekly occurrence at scale)
//! changes the state by what changed: the buckets the flipped domains
//! fall in are remembered, and the next quiet tick folds those buckets —
//! and no other record of history — again under the new verdict, so idle
//! still means exactly cold-fold-equal.
//!
//! History is read through one reader, opened with the watcher and
//! refreshed ([`AnyReader::refresh`]) only by a settle or a delta tick. A
//! delta costs one walk ([`Buckets::rejoin`]): every bucket's exposure
//! accumulators rebuilt and the alert spans collected in one pass, the
//! touched buckets left touched for the settle.
//!
//! [`DecodedWeek`]: webvuln_analysis::store_io::DecodedWeek

use crate::alert::{Alert, Coverage};
use crate::error::WatchError;
use crate::outbox::{Outbox, OutboxRecovery};
use crate::spool::{open_week_file, read_genesis_file, scan_spool, GENESIS_FILE};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use webvuln_analysis::store_io::DecodedWeek;
use webvuln_analysis::{
    genesis_ranks, AccumCtx, Buckets, FilterWindow, PageView, StudyAccum, WeekView,
};
use webvuln_cvedb::{parse_delta, VulnDb, VulnRecord};
use webvuln_store::durable::{complete_lines, AppendLog};
use webvuln_store::{AnyReader, AnyWriter, MANIFEST_FILE};
use webvuln_telemetry::Telemetry;

/// Where a watcher lives and how wide it runs.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    root: PathBuf,
    /// Worker threads for store commits and refolds.
    pub threads: usize,
    /// Shard count used when bootstrapping a fresh store.
    pub shards: usize,
}

impl WatchConfig {
    /// A watcher rooted at `root`, single-threaded, one shard.
    pub fn new(root: impl Into<PathBuf>) -> WatchConfig {
        WatchConfig {
            root: root.into(),
            threads: 1,
            shards: 1,
        }
    }

    /// Sets the worker thread count.
    pub fn threads(mut self, threads: usize) -> WatchConfig {
        self.threads = threads.max(1);
        self
    }

    /// Sets the shard count for a bootstrapped store.
    pub fn shards(mut self, shards: usize) -> WatchConfig {
        self.shards = shards.max(1);
        self
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The sharded store directory.
    pub fn store_dir(&self) -> PathBuf {
        self.root.join("store")
    }

    /// The incoming-week spool directory.
    pub fn spool_dir(&self) -> PathBuf {
        self.root.join("spool")
    }

    /// The incoming CVE delta directory.
    pub fn deltas_dir(&self) -> PathBuf {
        self.root.join("deltas")
    }

    /// The alert outbox journal.
    pub fn outbox_wal(&self) -> PathBuf {
        self.root.join("outbox.wal")
    }

    /// The delivered-alert log.
    pub fn alert_log(&self) -> PathBuf {
        self.root.join("alerts.log")
    }

    /// The retro-scan completion journal.
    pub fn applied_journal(&self) -> PathBuf {
        self.root.join("deltas.applied")
    }
}

/// What one [`Watcher::tick`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TickReport {
    /// Spool weeks committed to the store and absorbed live.
    pub weeks_ingested: usize,
    /// Spool weeks skipped as already committed (idempotent redelivery).
    pub weeks_skipped: usize,
    /// Times the tick went back to the store's history for the live
    /// state: once for a CVE delta extending the database (every bucket's
    /// two exposure accumulators, in the retro-scan's one walk), once for
    /// §4.1 verdict drift settling on a quiet tick (the touched buckets,
    /// whole). Never on an arrival.
    pub refolds: usize,
    /// Buckets of the live state those refolds folded again.
    pub buckets_refolded: usize,
    /// Delta files whose retro-scan completed this tick.
    pub deltas_applied: usize,
    /// Alerts newly journaled into the outbox.
    pub alerts_enqueued: usize,
    /// Alerts a replayed retro-scan re-produced (dedup by ID; no-op).
    pub alerts_deduped: usize,
    /// Alert lines appended to the delivery log.
    pub alerts_delivered: usize,
    /// Owed alerts found already delivered at delivery time (crash
    /// between delivery and ack on a previous run).
    pub alerts_redelivered: usize,
}

impl TickReport {
    /// True when the tick changed nothing.
    pub fn is_idle(&self) -> bool {
        *self == TickReport::default()
    }
}

impl std::ops::AddAssign for TickReport {
    fn add_assign(&mut self, tick: TickReport) {
        // Destructured, so a field added to the report cannot be left out
        // of a sum.
        let TickReport {
            weeks_ingested,
            weeks_skipped,
            refolds,
            buckets_refolded,
            deltas_applied,
            alerts_enqueued,
            alerts_deduped,
            alerts_delivered,
            alerts_redelivered,
        } = tick;
        self.weeks_ingested += weeks_ingested;
        self.weeks_skipped += weeks_skipped;
        self.refolds += refolds;
        self.buckets_refolded += buckets_refolded;
        self.deltas_applied += deltas_applied;
        self.alerts_enqueued += alerts_enqueued;
        self.alerts_deduped += alerts_deduped;
        self.alerts_delivered += alerts_delivered;
        self.alerts_redelivered += alerts_redelivered;
    }
}

/// Per delta record: exposed domain → (first week, last week, weeks seen).
type Spans = BTreeMap<String, (u32, u32, u32)>;

/// A point-in-time summary of a watch root, readable by outside
/// observers (the serve layer's `/healthz`) without a [`Watcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WatchState {
    /// True when a store exists under the root.
    pub store_present: bool,
    /// Weeks committed to the store.
    pub weeks_committed: u64,
    /// Store manifest epoch.
    pub epoch: u64,
    /// Shard count.
    pub shards: u32,
    /// True when at least one shard is unavailable.
    pub degraded: bool,
    /// Distinct alerts ever journaled.
    pub alerts_enqueued: u64,
    /// Alerts journaled but not yet acked.
    pub alerts_pending: u64,
    /// Alert IDs in the delivery log.
    pub alerts_delivered: u64,
    /// Delta files whose retro-scan completed.
    pub deltas_applied: u64,
}

/// Reads a [`WatchState`] off disk. Missing pieces (no store yet, no
/// outbox yet) read as zeros — the daemon may not have bootstrapped.
pub fn load_watch_state(root: &Path) -> WatchState {
    let cfg = WatchConfig::new(root);
    let mut state = WatchState::default();
    if let Ok(reader) = AnyReader::open_degraded(&cfg.store_dir()) {
        state.store_present = true;
        state.weeks_committed = reader.weeks_committed() as u64;
        state.shards = reader.shard_count() as u32;
        state.degraded = reader.is_degraded();
        if let Some(manifest) = reader.manifest() {
            state.epoch = manifest.epoch;
        }
    }
    if let Ok(snapshot) = crate::outbox::OutboxSnapshot::load(&cfg.outbox_wal(), &cfg.alert_log()) {
        state.alerts_enqueued = snapshot.alerts.len() as u64;
        state.alerts_pending = snapshot.pending().len() as u64;
        state.alerts_delivered = snapshot.delivered.len() as u64;
    }
    state.deltas_applied = read_applied(&cfg.applied_journal()).len() as u64;
    state
}

/// The live-ingestion daemon state. See the module docs for the layout
/// and crash-safety story.
pub struct Watcher {
    cfg: WatchConfig,
    telemetry: Telemetry,
    writer: AnyWriter,
    db: VulnDb,
    /// The live study accumulator, a bucket per domain part.
    live: Buckets<StudyAccum>,
    filtered: BTreeSet<String>,
    /// The §4.1 window over the trailing committed weeks — the verdict
    /// is derived from this in memory, so a steady-state tick never
    /// re-reads the store.
    filter_window: FilterWindow,
    /// Buckets of `live` holding a domain whose verdict flipped since the
    /// bucket was folded — folded again on the next quiet tick.
    touched: BTreeSet<usize>,
    /// The store read back: opened once, refreshed by ticks that read history.
    reader: AnyReader,
    ranks: BTreeMap<String, usize>,
    outbox: Outbox,
    recovery: OutboxRecovery,
    /// Delta files whose records are already in `db`.
    known_deltas: BTreeSet<String>,
    /// Delta files whose retro-scan completed (journaled).
    applied_deltas: BTreeSet<String>,
    /// `deltas.applied`, held open from its first append on.
    journal: Option<AppendLog>,
}

impl Watcher {
    /// Opens (or bootstraps) the watcher at `cfg.root()`.
    ///
    /// Resumes an existing store — healing torn shard tails and rolling
    /// back uncommitted shard progress — or creates one from the spool's
    /// `genesis.wvgenesis`. The live buckets are folded cold from whatever
    /// the store holds, under the verdict of the one §4.1 window built
    /// from its trailing weeks.
    pub fn open(cfg: WatchConfig, telemetry: &Telemetry) -> Result<Watcher, WatchError> {
        std::fs::create_dir_all(cfg.root()).map_err(|e| WatchError::io(cfg.root(), e))?;
        let store_dir = cfg.store_dir();
        let writer = if store_dir.join(MANIFEST_FILE).exists() {
            AnyWriter::resume(&store_dir)?
        } else {
            let genesis_path = cfg.spool_dir().join(GENESIS_FILE);
            if !genesis_path.exists() {
                return Err(WatchError::corrupt(
                    &genesis_path,
                    "no store to resume and no genesis file to bootstrap from",
                ));
            }
            let genesis = read_genesis_file(&genesis_path)?;
            AnyWriter::create(&store_dir, genesis, cfg.shards)?
        };
        let writer = writer.threads(cfg.threads);
        let ranks = genesis_ranks(writer.genesis());

        let mut db = VulnDb::builtin();
        let mut known_deltas = BTreeSet::new();
        for (name, path) in scan_deltas(&cfg.deltas_dir())? {
            let records = parse_delta_file(&path)?;
            db.extend(records);
            known_deltas.insert(name);
        }
        let applied_deltas = read_applied(&cfg.applied_journal());

        let (outbox, recovery) = Outbox::open(&cfg.outbox_wal(), &cfg.alert_log())?;
        let reader = AnyReader::open_degraded(&store_dir)?;
        let mut watcher = Watcher {
            cfg,
            telemetry: telemetry.clone(),
            live: Buckets::new(writer.shard_count()),
            writer,
            db,
            filtered: BTreeSet::new(),
            filter_window: FilterWindow::new(),
            touched: BTreeSet::new(),
            reader,
            ranks,
            outbox,
            recovery,
            known_deltas,
            applied_deltas,
            journal: None,
        };
        watcher.count("watch.outbox_replayed_total", recovery.replayed as u64);
        watcher.count("watch.weeks_indexed_total", watcher.reader.weeks_indexed());
        watcher.fold_cold()?;
        Ok(watcher)
    }

    /// Adds `by` to the counter `name`.
    fn count(&self, name: &str, by: u64) {
        self.telemetry.registry().counter(name).add(by);
    }

    /// Folds the live buckets cold from the held reader, under the verdict
    /// of the one §4.1 window built from the store's trailing weeks.
    fn fold_cold(&mut self) -> Result<(), WatchError> {
        let decoded = self.reader.records_decoded();
        self.filter_window = FilterWindow::from_store(&self.reader)?;
        self.filtered = self.filter_window.verdict(self.ranks.keys());
        let ctx = AccumCtx::new(&self.db, &self.ranks);
        self.live = Buckets::new(self.reader.shard_count());
        let (all, threads) = (0..self.live.count(), self.cfg.threads);
        self.live
            .refold(&self.reader, all, &ctx, threads, &self.filtered)?;
        self.touched.clear();
        // The history once, for the buckets, and the window's weeks again.
        let decoded = self.reader.records_decoded() - decoded;
        self.count("watch.records_refolded_total", decoded);
        Ok(())
    }

    /// Brings the reader up to the writer's commits. A store moved back
    /// under the daemon is read again whole, the writer resumed over it
    /// and the live state folded cold.
    fn follow(&mut self) -> Result<(), WatchError> {
        let indexed = self.reader.weeks_indexed();
        let reopened = self.reader.refresh()?;
        let indexed = self.reader.weeks_indexed() - indexed;
        self.count("watch.weeks_indexed_total", indexed);
        if reopened {
            self.count("watch.reopens_total", 1);
            self.writer = AnyWriter::resume(&self.cfg.store_dir())?.threads(self.cfg.threads);
            self.ranks = genesis_ranks(self.writer.genesis());
            self.fold_cold()?;
        }
        Ok(())
    }

    /// What the outbox found when this watcher opened.
    pub fn recovery(&self) -> OutboxRecovery {
        self.recovery
    }

    /// One supervised pass: ingest newly-arrived spool weeks, apply
    /// newly-arrived CVE deltas (retro-scanning history for exposure),
    /// then deliver owed alerts.
    pub fn tick(&mut self) -> Result<TickReport, WatchError> {
        let syncs_before = self.outbox.syncs();
        let report = self.run_tick();
        // On the error path too: a failed round synced what it had framed.
        let syncs = self.outbox.syncs() - syncs_before;
        self.count("watch.outbox_syncs_total", syncs);
        report
    }

    fn run_tick(&mut self) -> Result<TickReport, WatchError> {
        self.count("watch.ticks_total", 1);
        let mut report = TickReport::default();
        self.ingest_spool(&mut report)?;
        self.apply_deltas(&mut report)?;
        let delivery = self.outbox.deliver_pending()?;
        report.alerts_delivered = delivery.delivered;
        report.alerts_redelivered = delivery.deduped;
        self.count("watch.alerts_delivered_total", delivery.delivered as u64);
        // Settle verdict drift on a quiet tick: arrival ticks stay
        // O(one week) and the catch-up refold of the touched buckets
        // lands in the poll gap that follows. A settling tick reports its
        // refold, so the daemon is never idle while the live state lags
        // the filter.
        if !self.touched.is_empty() && report.weeks_ingested == 0 {
            self.follow()?;
            self.refold(&mut report)?;
        }
        Ok(report)
    }

    fn ingest_spool(&mut self, report: &mut TickReport) -> Result<(), WatchError> {
        for (index, path) in scan_spool(&self.cfg.spool_dir())? {
            let committed = self.writer.weeks_committed();
            if index < committed {
                // Idempotent ingestion: the manifest epoch already
                // covers this week; a redelivered (or crash-orphaned)
                // file is consumed without re-committing.
                std::fs::remove_file(&path).map_err(|e| WatchError::io(&path, e))?;
                report.weeks_skipped += 1;
                self.count("watch.weeks_skipped_total", 1);
                continue;
            }
            if index > committed {
                // A gap: the missing week has not arrived yet. Weeks
                // are strictly ordered, so stop and wait.
                break;
            }
            let file = open_week_file(&path)?;
            let records = file
                .week()
                .map_err(|e| WatchError::corrupt(&path, e.to_string()))?;
            let key = index.to_string();
            let _ = webvuln_failpoint::failpoint!("watch.ingest", &key)?;
            self.writer.commit_week(&records.to_owned())?;
            // The incremental step: every bucket absorbs exactly what a
            // cold fold's per-week iteration would hand it, off the spool
            // file's own records.
            let fetched = records.records.iter();
            self.filter_window
                .absorb(fetched.map(|r| (r.host.text, r.status, r.body_len as usize)));
            let ctx = AccumCtx::new(&self.db, &self.ranks);
            self.live.absorb(&records, &self.filtered, &ctx)?;
            // Consume the spool file only after the commit: a crash
            // between the two re-skips the week above, then cleans up.
            std::fs::remove_file(&path).map_err(|e| WatchError::io(&path, e))?;
            report.weeks_ingested += 1;
            self.count("watch.weeks_ingested_total", 1);
        }
        if report.weeks_ingested > 0 {
            self.refresh_filter();
        }
        Ok(())
    }

    /// Re-derives the §4.1 filter verdict from the in-memory trailing
    /// window — the same answer [`store_filter_verdict`] would read back
    /// from the store, without touching it. A changed verdict cannot be
    /// applied retroactively to an incremental accumulator, so the
    /// buckets the flipped domains fall in are marked touched; folding
    /// them again is deferred to the next quiet tick. Domains cross the
    /// trailing-inaccessibility boundary most weeks at scale (the
    /// marginal population flaps), so paying even that inside the arrival
    /// tick would make every arrival cost a walk over history.
    ///
    /// [`store_filter_verdict`]: webvuln_analysis::store_filter_verdict
    fn refresh_filter(&mut self) {
        let fresh = self.filter_window.verdict(self.ranks.keys());
        let mut flips = 0;
        for domain in fresh.symmetric_difference(&self.filtered) {
            self.touched.insert(self.live.bucket_of(domain));
            flips += 1;
        }
        if flips > 0 {
            self.count("watch.filter_flips_total", flips);
            self.filtered = fresh;
        }
    }

    /// Folds the touched buckets of the live state again from the held
    /// reader, under the current verdict and database. The touched set is
    /// spent only once the fold has succeeded.
    fn refold(&mut self, report: &mut TickReport) -> Result<(), WatchError> {
        let ctx = AccumCtx::new(&self.db, &self.ranks);
        let (decoded, threads) = (self.reader.records_decoded(), self.cfg.threads);
        let wanted = self.touched.iter().copied();
        self.live
            .refold(&self.reader, wanted, &ctx, threads, &self.filtered)?;
        let buckets = std::mem::take(&mut self.touched).len();
        self.count_refold(buckets, report);
        let decoded = self.reader.records_decoded() - decoded;
        self.count("watch.records_refolded_total", decoded);
        Ok(())
    }

    /// Counts one refold of `buckets` buckets.
    fn count_refold(&self, buckets: usize, report: &mut TickReport) {
        report.refolds += 1;
        report.buckets_refolded += buckets;
        self.count("watch.refolds_total", 1);
        self.count("watch.buckets_refolded_total", buckets as u64);
    }

    fn apply_deltas(&mut self, report: &mut TickReport) -> Result<(), WatchError> {
        let mut db_grew = false;
        // Each new file is parsed once: its records extend the database
        // and, until its scan is journaled, drive the retro-scan.
        let mut unapplied = Vec::new();
        for (name, path) in scan_deltas(&self.cfg.deltas_dir())? {
            let applied = self.applied_deltas.contains(&name);
            if applied && self.known_deltas.contains(&name) {
                continue;
            }
            let records = parse_delta_file(&path)?;
            if self.known_deltas.insert(name.clone()) {
                db_grew |= self.db.extend(records.clone()) > 0;
            }
            if !applied {
                unapplied.push((name, records));
            }
        }
        if !db_grew && unapplied.is_empty() {
            return Ok(());
        }
        self.follow()?;
        let records: Vec<&VulnRecord> = unapplied.iter().flat_map(|(_, r)| r).collect();
        let mut spans = self.rejoin(&records, db_grew, report)?.into_iter();
        let health = self.reader.shard_health();
        let coverage = Coverage {
            shards_scanned: health.iter().filter(|h| h.is_healthy()).count() as u32,
            shards_total: health.len() as u32,
        };
        for (name, records) in unapplied {
            let _ = webvuln_failpoint::failpoint!("watch.retro", &name)?;
            let mut alerts = Vec::new();
            for (record, domains) in records.iter().zip(spans.by_ref()) {
                let (id, library) = (&record.id, record.library.slug());
                for (domain, (first, last, seen)) in domains {
                    let alert = Alert::new(id, library, &domain, first, last, seen, coverage);
                    alerts.push(alert);
                }
            }
            let (enqueued, deduped) = self.outbox.enqueue(&alerts)?;
            report.alerts_enqueued += enqueued;
            report.alerts_deduped += deduped;
            self.count("watch.alerts_enqueued_total", enqueued as u64);
            self.count("watch.alerts_deduped_total", deduped as u64);
            // Journaling completion is the commit point: a crash before
            // this line replays the scan, and the outbox dedups it.
            self.journal_applied(&name)?;
            self.applied_deltas.insert(name);
            report.deltas_applied += 1;
            self.count("watch.deltas_applied_total", 1);
        }
        Ok(())
    }

    /// A delta tick's one walk ([`Buckets::rejoin`]): the exposure
    /// accumulators rebuilt (a refold when the database grew), and per
    /// record the domains holding a detection it claims, filtered or not,
    /// read as the fold reads them (a slug this build cannot read fails it).
    fn rejoin(
        &mut self,
        records: &[&VulnRecord],
        db_grew: bool,
        report: &mut TickReport,
    ) -> Result<Vec<Spans>, WatchError> {
        let scan = |spans: &mut Vec<Spans>, week: &DecodedWeek<'_>| {
            spans.resize_with(records.len(), Spans::new);
            let wk = week.week() as u32;
            for (domain, page) in week.pages() {
                for det in page.detections() {
                    let Some(version) = det.version else { continue };
                    for (record, domains) in records.iter().zip(spans.iter_mut()) {
                        if record.library != det.library || !record.claims(version) {
                            continue;
                        }
                        match domains.get_mut(domain) {
                            Some((_, last, seen)) => {
                                (*seen, *last) = (*seen + u32::from(*last != wk), wk)
                            }
                            None => drop(domains.insert(domain.to_string(), (wk, wk, 1))),
                        }
                    }
                }
            }
        };
        let ctx = AccumCtx::new(&self.db, &self.ranks);
        let (decoded, threads) = (self.reader.records_decoded(), self.cfg.threads);
        let (reader, filtered) = (&self.reader, &self.filtered);
        let files = self.live.rejoin(reader, &ctx, threads, filtered, scan)?;
        let decoded = self.reader.records_decoded() - decoded;
        self.count("watch.records_scanned_total", decoded);
        if db_grew {
            self.count_refold(self.live.count(), report);
        }
        // A domain lives in one shard: the files' spans are disjoint.
        let mut spans = vec![Spans::new(); records.len()];
        for file in files {
            for (all, one) in spans.iter_mut().zip(file) {
                all.extend(one);
            }
        }
        Ok(spans)
    }

    /// Appends `name` to the applied journal, opened (a torn last line cut,
    /// so the name cannot land on it) on the first append: a root that
    /// never saw a delta never gets the file.
    fn journal_applied(&mut self, name: &str) -> Result<(), WatchError> {
        let journal = match self.journal.take() {
            Some(journal) => journal,
            None => AppendLog::open(&self.cfg.applied_journal(), complete_lines)?.0,
        };
        let journal = self.journal.insert(journal);
        Ok(journal.append(format!("{name}\n").as_bytes())?)
    }

    /// The live study accumulator: the buckets merged, by value. Nothing
    /// reads it per tick, so a read pays the merges and a tick pays none.
    pub fn live(&self) -> StudyAccum {
        self.live.merged()
    }

    /// The (possibly delta-extended) vulnerability database.
    pub fn db(&self) -> &VulnDb {
        &self.db
    }

    /// The store writer's committed week count.
    pub fn weeks_committed(&self) -> usize {
        self.writer.weeks_committed()
    }

    /// The store's manifest epoch.
    pub fn epoch(&self) -> u64 {
        self.writer.manifest().map_or(0, |m| m.epoch)
    }

    /// The alert outbox.
    pub fn outbox(&self) -> &Outbox {
        &self.outbox
    }

    /// This watcher's configuration.
    pub fn config(&self) -> &WatchConfig {
        &self.cfg
    }
}

/// Lists `*.cvedelta` files as `(file name, path)`, sorted by name.
pub fn scan_deltas(dir: &Path) -> Result<Vec<(String, PathBuf)>, WatchError> {
    let mut deltas = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(deltas),
        Err(e) => return Err(WatchError::io(dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| WatchError::io(dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        if name.ends_with(".cvedelta") {
            deltas.push((name, entry.path()));
        }
    }
    deltas.sort();
    Ok(deltas)
}

fn parse_delta_file(path: &Path) -> Result<Vec<VulnRecord>, WatchError> {
    let text = std::fs::read_to_string(path).map_err(|e| WatchError::io(path, e))?;
    parse_delta(&text).map_err(|e| WatchError::Delta {
        path: path.to_path_buf(),
        detail: e.to_string(),
    })
}

/// Reads the applied-delta journal; only complete (newline-terminated)
/// lines count, so a torn final append reads as not-applied and the
/// retro-scan replays (harmless under ID dedup).
fn read_applied(path: &Path) -> BTreeSet<String> {
    let raw = std::fs::read(path).unwrap_or_default();
    let clean = String::from_utf8_lossy(&raw[..complete_lines(&raw)]);
    clean.lines().map(str::to_string).collect()
}
