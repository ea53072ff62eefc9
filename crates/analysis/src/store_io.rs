//! Bridge between the analysis dataset and the `webvuln-store` binary
//! snapshot store: type conversions, [`Dataset::save_store`] /
//! [`Dataset::load_store`], streaming snapshot iteration, and the
//! checkpoint/resume collector used by `study --store`.
//!
//! The store is dependency-free and speaks a plain-string record model;
//! this module is the single place that maps [`PageAnalysis`] and friends
//! into it and back. Telemetry: every commit records into `store.*`
//! counters and the `store.commit_latency_ns` histogram.

use crate::dataset::{CollectConfig, Dataset, WeekCollector, WeekSnapshot};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use webvuln_cvedb::{Date, LibraryId};
use webvuln_fingerprint::{
    DetectedInclusion, Detection, ExternalScript, FlashDetection, PageAnalysis, ResourceType,
};
use webvuln_net::{inaccessible_domains, page_is_error_or_empty, FetchSummary};
use webvuln_store::{
    AnyReader, CommitInfo, DetectionRecord, DomainRecord, FlashRecord, Genesis, PageRecord,
    ScriptRecord, ShardedStoreWriter, StoreReader, StoreWriter, WeekData, WordPressRecord,
};

pub use webvuln_store::StoreError;
use webvuln_telemetry::{json_string, Telemetry};
use webvuln_version::Version;
use webvuln_webgen::{Ecosystem, Timeline};

// ---------------------------------------------------------------------------
// Type conversions
// ---------------------------------------------------------------------------

fn resource_type_code(rt: ResourceType) -> u8 {
    ResourceType::ALL
        .iter()
        .position(|&candidate| candidate == rt)
        .expect("every ResourceType is in ALL") as u8
}

fn resource_type_from_code(code: u8) -> Result<ResourceType, StoreError> {
    ResourceType::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| StoreError::Mismatch(format!("unknown resource-type code {code}")))
}

fn page_to_record(page: &PageAnalysis) -> PageRecord {
    PageRecord {
        detections: page
            .detections
            .iter()
            .map(|d| DetectionRecord {
                library: d.library.slug().to_string(),
                version: d.version.as_ref().map(|v| v.to_string()),
                external_host: match &d.inclusion {
                    DetectedInclusion::Internal => None,
                    DetectedInclusion::External { host } => Some(host.clone()),
                },
                integrity: d.integrity,
                crossorigin: d.crossorigin.clone(),
                url: d.url.clone(),
            })
            .collect(),
        wordpress: match &page.wordpress {
            None => WordPressRecord::Absent,
            Some(None) => WordPressRecord::DetectedUnknownVersion,
            Some(Some(version)) => WordPressRecord::Detected(version.to_string()),
        },
        flash: page
            .flash
            .iter()
            .map(|f| FlashRecord {
                swf_url: f.swf_url.clone(),
                allow_script_access: f.allow_script_access.clone(),
            })
            .collect(),
        resource_types: page
            .resource_types
            .iter()
            .copied()
            .map(resource_type_code)
            .collect(),
        github_scripts: page
            .github_scripts
            .iter()
            .map(|s| ScriptRecord {
                host: s.host.clone(),
                url: s.url.clone(),
                integrity: s.integrity,
                crossorigin: s.crossorigin.clone(),
            })
            .collect(),
        external_scripts: page.external_scripts as u64,
        external_scripts_without_integrity: page.external_scripts_without_integrity as u64,
        crossorigin_values: page.crossorigin_values.clone(),
    }
}

fn parse_version(text: &str) -> Result<Version, StoreError> {
    Version::parse(text)
        .map_err(|e| StoreError::Mismatch(format!("stored version {text:?} unparsable: {e}")))
}

fn record_into_page(record: PageRecord) -> Result<PageAnalysis, StoreError> {
    let detections = record
        .detections
        .into_iter()
        .map(|d| {
            let library = LibraryId::from_slug(&d.library).ok_or_else(|| {
                StoreError::Mismatch(format!("unknown library slug {:?}", d.library))
            })?;
            Ok(Detection {
                library,
                version: d.version.as_deref().map(parse_version).transpose()?,
                inclusion: match d.external_host {
                    None => DetectedInclusion::Internal,
                    Some(host) => DetectedInclusion::External { host },
                },
                integrity: d.integrity,
                crossorigin: d.crossorigin,
                url: d.url,
            })
        })
        .collect::<Result<Vec<_>, StoreError>>()?;
    Ok(PageAnalysis {
        detections,
        wordpress: match &record.wordpress {
            WordPressRecord::Absent => None,
            WordPressRecord::DetectedUnknownVersion => Some(None),
            WordPressRecord::Detected(version) => Some(Some(parse_version(version)?)),
        },
        flash: record
            .flash
            .into_iter()
            .map(|f| FlashDetection {
                swf_url: f.swf_url,
                allow_script_access: f.allow_script_access,
            })
            .collect(),
        resource_types: record
            .resource_types
            .iter()
            .map(|&code| resource_type_from_code(code))
            .collect::<Result<Vec<_>, StoreError>>()?,
        github_scripts: record
            .github_scripts
            .into_iter()
            .map(|s| ExternalScript {
                host: s.host,
                url: s.url,
                integrity: s.integrity,
                crossorigin: s.crossorigin,
            })
            .collect(),
        external_scripts: record.external_scripts as usize,
        external_scripts_without_integrity: record.external_scripts_without_integrity as usize,
        crossorigin_values: record.crossorigin_values,
    })
}

/// Converts one analysed snapshot into the store's record model. Records
/// come out sorted by host (the summaries map is a `BTreeMap`), as the
/// store's canonical encoding requires.
pub fn snapshot_to_week(snapshot: &WeekSnapshot) -> WeekData {
    WeekData {
        week: snapshot.week,
        date_days: i64::from(snapshot.date.day_number()),
        records: snapshot
            .summaries
            .iter()
            .map(|(host, summary)| DomainRecord {
                host: host.clone(),
                status: summary.status,
                body_len: summary.body_len as u64,
                page: snapshot.pages.get(host).map(page_to_record),
            })
            .collect(),
    }
}

/// Converts a decoded store week back into an analysed snapshot,
/// consuming it: every string the snapshot keeps is moved, not copied.
///
/// Carried-forward flags are not stored explicitly: a live crawl only
/// attaches a page to an error-or-empty fetch when carry-forward
/// degradation substituted the last usable snapshot, so the flag is
/// reconstructed from exactly that combination.
pub fn week_into_snapshot(week: WeekData) -> Result<WeekSnapshot, StoreError> {
    let date_days = i32::try_from(week.date_days)
        .map_err(|_| StoreError::Mismatch(format!("week date {} out of range", week.date_days)))?;
    // Records arrive host-sorted, so collecting the maps from vectors
    // builds them in one pass.
    let mut pages = Vec::new();
    let mut summaries = Vec::with_capacity(week.records.len());
    let mut carried_forward = BTreeSet::new();
    for record in week.records {
        let body_len = record.body_len as usize;
        if let Some(page) = record.page {
            if page_is_error_or_empty(record.status, body_len) {
                carried_forward.insert(record.host.clone());
            }
            pages.push((record.host.clone(), record_into_page(page)?));
        }
        let summary = FetchSummary {
            status: record.status,
            body_len,
        };
        summaries.push((record.host, summary));
    }
    Ok(WeekSnapshot {
        week: week.week,
        date: Date::from_day_number(date_days),
        pages: pages.into_iter().collect(),
        summaries: summaries.into_iter().collect(),
        carried_forward,
    })
}

/// [`week_into_snapshot`] for a caller that keeps the decoded week.
pub fn week_to_snapshot(week: &WeekData) -> Result<WeekSnapshot, StoreError> {
    week_into_snapshot(week.clone())
}

fn genesis_for(timeline: &Timeline, names: &[String]) -> Genesis {
    Genesis {
        start_days: i64::from(timeline.start.day_number()),
        weeks_total: timeline.weeks,
        ranks: names
            .iter()
            .enumerate()
            .map(|(i, name)| (name.clone(), (i + 1) as u64))
            .collect(),
    }
}

fn genesis_to_parts(genesis: &Genesis) -> Result<(Timeline, BTreeMap<String, usize>), StoreError> {
    let start_days = i32::try_from(genesis.start_days).map_err(|_| {
        StoreError::Mismatch(format!("start date {} out of range", genesis.start_days))
    })?;
    let timeline = Timeline {
        start: Date::from_day_number(start_days),
        weeks: genesis.weeks_total,
    };
    let ranks = genesis
        .ranks
        .iter()
        .map(|(host, rank)| (host.clone(), *rank as usize))
        .collect();
    Ok((timeline, ranks))
}

// ---------------------------------------------------------------------------
// Dataset save/load
// ---------------------------------------------------------------------------

impl Dataset {
    /// Writes the dataset to a binary snapshot store at `path` —
    /// delta-encoded, string-interned, CRC-protected; a fraction of the
    /// JSON dump's size. The inaccessibility-filter verdict is stored in
    /// the finalize segment, so [`Dataset::load_store`] round-trips
    /// exactly.
    pub fn save_store(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        let path = path.as_ref();
        let names: Vec<String> = {
            // Recover list order from ranks (rank is 1-based list position).
            let mut by_rank: Vec<(&String, usize)> =
                self.ranks.iter().map(|(n, &r)| (n, r)).collect();
            by_rank.sort_by_key(|&(_, r)| r);
            by_rank.into_iter().map(|(n, _)| n.clone()).collect()
        };
        let mut writer = StoreWriter::create(path, genesis_for(&self.timeline, &names))?;
        for snapshot in &self.weeks {
            writer.commit_week(&snapshot_to_week(snapshot))?;
        }
        writer.finalize(&self.filtered_out)?;
        Ok(())
    }

    /// Reads a dataset from a binary snapshot store.
    ///
    /// A finalized store applies its stored filter verdict; an
    /// unfinalized (checkpoint) store recomputes the §4.1 filter over
    /// whatever weeks were committed.
    pub fn load_store(path: impl AsRef<Path>) -> Result<Dataset, StoreError> {
        dataset_from_reader(&AnyReader::open(path.as_ref())?)
    }

    /// Builds a weeks-free shell from an opened store: timeline, ranks,
    /// and the §4.1 filter verdict, but no snapshots. The streaming
    /// analysis path attaches this to its results so study metadata
    /// stays available without materialising any week.
    pub fn shell_from_reader(reader: &AnyReader) -> Result<Dataset, StoreError> {
        let (timeline, ranks) = genesis_to_parts(reader.genesis())?;
        let filtered_out = crate::accum::store_filter_verdict(reader)?
            .into_iter()
            .collect();
        Ok(Dataset {
            timeline,
            ranks,
            weeks: Vec::new(),
            filtered_out,
        })
    }
}

/// Materialises a [`Dataset`] from an already-opened store of either
/// layout. This is [`Dataset::load_store`] minus the open, so callers
/// holding a degraded [`AnyReader`] (the serve layer) can build the
/// dataset from whatever weeks the healthy shards can merge.
pub fn dataset_from_reader(reader: &AnyReader) -> Result<Dataset, StoreError> {
    let (timeline, ranks) = genesis_to_parts(reader.genesis())?;
    let mut weeks = Vec::with_capacity(reader.weeks_committed());
    for week in reader.iter_weeks() {
        weeks.push(week_into_snapshot(week?)?);
    }
    let mut dataset = Dataset {
        timeline,
        ranks,
        weeks,
        filtered_out: Vec::new(),
    };
    match reader.filtered_out() {
        Some(filtered) => {
            // Finalized: the verdict is authoritative. Dropping the
            // listed domains is a no-op when the weeks were stored
            // post-filter, and completes a raw checkpoint store.
            for week in &mut dataset.weeks {
                week.pages.retain(|d, _| !filtered.contains(d));
                week.summaries.retain(|d, _| !filtered.contains(d));
                week.carried_forward.retain(|d| !filtered.contains(d));
            }
            dataset.filtered_out = filtered.to_vec();
        }
        None => dataset.apply_inaccessibility_filter(),
    }
    Ok(dataset)
}

/// Streams the snapshots of a store without materialising a [`Dataset`]:
/// each week is decoded on demand and can be dropped before the next.
pub fn stream_snapshots(
    reader: &StoreReader,
) -> impl Iterator<Item = Result<WeekSnapshot, StoreError>> + '_ {
    reader.iter_weeks().map(|week| week_into_snapshot(week?))
}

/// Streams a store straight into `out` as one `Dataset`-shaped JSON
/// document — the analogue of the paper's public data release — without
/// ever holding more than one decoded week. The emitter is write-only
/// and hand-written; `tests/golden/export.json` pins the shape:
/// `{"timeline":{"start","weeks"},"ranks":{domain:rank},"weeks":[…],
/// "filtered_out":[domain]}`, each week `{"week","date","pages":
/// {domain:page},"summaries":{domain:{"status","body_len"}},
/// "carried_forward":[domain]}`. Unit enums are their variant names,
/// `None` is `null`, and versions and dates are their `Display` strings.
///
/// An unfinalized store takes a preliminary summaries-only pass to
/// recompute the §4.1 verdict exactly as materialization would;
/// a finalized store uses its stored verdict and streams in one pass.
pub fn export_json<W: std::io::Write>(reader: &AnyReader, out: &mut W) -> std::io::Result<()> {
    let store_err = |e: StoreError| std::io::Error::other(e.to_string());
    let (timeline, ranks) = genesis_to_parts(reader.genesis()).map_err(store_err)?;
    let filtered: Vec<String> = match reader.filtered_out() {
        Some(filtered) => filtered.to_vec(),
        None => {
            let mut weekly = Vec::with_capacity(reader.weeks_committed());
            for week in reader.iter_weeks() {
                let snapshot = week_into_snapshot(week.map_err(store_err)?).map_err(store_err)?;
                weekly.push(snapshot.summaries);
            }
            inaccessible_domains(&weekly, webvuln_net::filter::FINAL_WEEKS)
                .into_iter()
                .collect()
        }
    };
    let drop: BTreeSet<&String> = filtered.iter().collect();
    let mut buf = format!(
        "{{\"timeline\":{{\"start\":\"{}\",\"weeks\":{}}},\"ranks\":",
        timeline.start, timeline.weeks
    );
    json_seq(&mut buf, "{}", &ranks, |buf, (domain, rank)| {
        json_str(buf, "", Some(domain));
        let _ = write!(buf, ":{rank}");
    });
    buf.push_str(",\"weeks\":[");
    for (index, week) in reader.iter_weeks().enumerate() {
        let mut snapshot = week_into_snapshot(week.map_err(store_err)?).map_err(store_err)?;
        snapshot.pages.retain(|domain, _| !drop.contains(domain));
        snapshot
            .summaries
            .retain(|domain, _| !drop.contains(domain));
        snapshot
            .carried_forward
            .retain(|domain| !drop.contains(domain));
        if index > 0 {
            buf.push(',');
        }
        json_snapshot(&mut buf, &snapshot);
        out.write_all(buf.as_bytes())?;
        buf.clear();
    }
    buf.push_str("],\"filtered_out\":");
    json_seq(&mut buf, "[]", &filtered, |buf, d| {
        json_str(buf, "", Some(d))
    });
    buf.push('}');
    out.write_all(buf.as_bytes())
}

/// Writes `items` between the two `brackets`, comma-separated.
fn json_seq<T>(
    buf: &mut String,
    brackets: &str,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    buf.push_str(&brackets[..1]);
    for (index, value) in items.into_iter().enumerate() {
        if index > 0 {
            buf.push(',');
        }
        item(buf, value);
    }
    buf.push_str(&brackets[1..]);
}

/// Writes `prefix` (raw JSON, usually `,"key":`) and then `value` as a
/// JSON string, or `null`.
fn json_str(buf: &mut String, prefix: &str, value: Option<&str>) {
    buf.push_str(prefix);
    match value {
        Some(value) => json_string(value, buf),
        None => buf.push_str("null"),
    }
}

/// [`json_str`] for a version, written as its `Display` string.
fn json_version(buf: &mut String, prefix: &str, version: Option<&Version>) {
    json_str(buf, prefix, version.map(Version::to_string).as_deref());
}

fn json_snapshot(buf: &mut String, snapshot: &WeekSnapshot) {
    let _ = write!(
        buf,
        "{{\"week\":{},\"date\":\"{}\",\"pages\":",
        snapshot.week, snapshot.date
    );
    json_seq(buf, "{}", &snapshot.pages, |buf, (domain, page)| {
        json_str(buf, "", Some(domain));
        buf.push(':');
        json_page(buf, page);
    });
    buf.push_str(",\"summaries\":");
    json_seq(buf, "{}", &snapshot.summaries, |buf, (domain, s)| {
        json_str(buf, "", Some(domain));
        match s.status {
            Some(status) => {
                let _ = write!(buf, ":{{\"status\":{status}");
            }
            None => buf.push_str(":{\"status\":null"),
        }
        let _ = write!(buf, ",\"body_len\":{}}}", s.body_len);
    });
    buf.push_str(",\"carried_forward\":");
    json_seq(buf, "[]", &snapshot.carried_forward, |buf, d| {
        json_str(buf, "", Some(d))
    });
    buf.push('}');
}

fn json_page(buf: &mut String, page: &PageAnalysis) {
    buf.push_str("{\"detections\":");
    json_seq(buf, "[]", &page.detections, |buf, d| {
        // `{:?}` of a unit enum variant is the variant's name.
        let _ = write!(buf, "{{\"library\":\"{:?}\"", d.library);
        json_version(buf, ",\"version\":", d.version.as_ref());
        match &d.inclusion {
            DetectedInclusion::Internal => buf.push_str(",\"inclusion\":\"Internal\""),
            DetectedInclusion::External { host } => {
                json_str(buf, ",\"inclusion\":{\"External\":{\"host\":", Some(host));
                buf.push_str("}}");
            }
        }
        let _ = write!(buf, ",\"integrity\":{}", d.integrity);
        json_str(buf, ",\"crossorigin\":", d.crossorigin.as_deref());
        json_str(buf, ",\"url\":", Some(&d.url));
        buf.push('}');
    });
    let _ = write!(
        buf,
        ",\"wordpress\":{{\"detected\":{}",
        page.wordpress.is_some()
    );
    json_version(
        buf,
        ",\"version\":",
        page.wordpress.as_ref().and_then(Option::as_ref),
    );
    buf.push_str("},\"flash\":");
    json_seq(buf, "[]", &page.flash, |buf, f| {
        json_str(buf, "{\"swf_url\":", Some(&f.swf_url));
        json_str(
            buf,
            ",\"allow_script_access\":",
            f.allow_script_access.as_deref(),
        );
        buf.push('}');
    });
    buf.push_str(",\"resource_types\":");
    json_seq(buf, "[]", &page.resource_types, |buf, rt| {
        let _ = write!(buf, "\"{rt:?}\"");
    });
    buf.push_str(",\"github_scripts\":");
    json_seq(buf, "[]", &page.github_scripts, |buf, script| {
        json_str(buf, "{\"host\":", Some(&script.host));
        json_str(buf, ",\"url\":", Some(&script.url));
        let _ = write!(buf, ",\"integrity\":{}", script.integrity);
        json_str(buf, ",\"crossorigin\":", script.crossorigin.as_deref());
        buf.push('}');
    });
    let _ = write!(
        buf,
        ",\"external_scripts\":{},\"external_scripts_without_integrity\":{},\"crossorigin_values\":",
        page.external_scripts, page.external_scripts_without_integrity
    );
    json_seq(buf, "[]", &page.crossorigin_values, |buf, v| {
        json_str(buf, "", Some(v))
    });
    buf.push('}');
}

// ---------------------------------------------------------------------------
// Checkpointed collection
// ---------------------------------------------------------------------------

/// What a [`Collector::run`](crate::dataset::Collector::run) did.
#[derive(Debug)]
pub struct CheckpointOutcome {
    /// The collected (or restored), filtered dataset.
    pub dataset: Dataset,
    /// Weeks actually crawled in this run.
    pub weeks_crawled: usize,
    /// Weeks restored from the store instead of crawled.
    pub weeks_recovered: usize,
    /// Torn tail bytes truncated during resume (0 for a clean store).
    pub torn_bytes_recovered: u64,
}

/// Collects a dataset, committing every crawled week to the snapshot
/// store at `store_path` as it completes.
#[deprecated(note = "use `Collector::from_config(config).telemetry(telemetry)\
            .checkpoint(store_path).resume(resume).run(ecosystem)`")]
pub fn collect_dataset_checkpointed(
    ecosystem: &Arc<Ecosystem>,
    config: CollectConfig,
    telemetry: &Telemetry,
    store_path: &Path,
    resume: bool,
) -> Result<CheckpointOutcome, StoreError> {
    collect_checkpointed(ecosystem, config, telemetry, store_path, resume, false)
}

/// Streaming state for the §4.1 inaccessibility filter: the candidate
/// set (every domain seen in any week's summaries) and the trailing
/// [`FINAL_WEEKS`](webvuln_net::filter::FINAL_WEEKS) summary maps.
/// [`verdict`](FilterWindow::verdict) applies exactly the
/// [`inaccessible_domains`] rule — a candidate is dropped when it is
/// error/empty (or absent) in every window week — without retaining the
/// full timeline, so a streaming collection's filter state stays
/// O(domains), not O(domains x weeks).
struct FilterWindow {
    observed: BTreeSet<String>,
    window: std::collections::VecDeque<BTreeMap<String, FetchSummary>>,
}

impl FilterWindow {
    fn new() -> FilterWindow {
        FilterWindow {
            observed: BTreeSet::new(),
            window: std::collections::VecDeque::new(),
        }
    }

    fn absorb(&mut self, summaries: &BTreeMap<String, FetchSummary>) {
        self.observed.extend(summaries.keys().cloned());
        if self.window.len() == webvuln_net::filter::FINAL_WEEKS {
            self.window.pop_front();
        }
        self.window.push_back(summaries.clone());
    }

    fn verdict(&self) -> Vec<String> {
        if self.window.is_empty() {
            return Vec::new();
        }
        self.observed
            .iter()
            .filter(|domain| {
                self.window.iter().all(|week| match week.get(*domain) {
                    None => true,
                    Some(s) => page_is_error_or_empty(s.status, s.body_len),
                })
            })
            .cloned()
            .collect()
    }
}

/// The checkpoint writer behind [`collect_checkpointed`]: a single-file
/// [`StoreWriter`] for `shards == 1`, a [`ShardedStoreWriter`] directory
/// otherwise. Selection happens once, at open; the collection loop only
/// sees the shared commit/finalize surface.
// One writer exists per collection, so the unused bytes of the smaller
// variant cost nothing worth an indirection on every commit.
#[allow(clippy::large_enum_variant)]
enum CheckpointWriter {
    Single(StoreWriter),
    Sharded(ShardedStoreWriter),
}

/// What [`CheckpointWriter::open`] restored from disk.
struct ResumedCheckpoint {
    writer: CheckpointWriter,
    weeks: Vec<WeekData>,
    filtered_out: Option<Vec<String>>,
    torn_bytes: u64,
}

impl CheckpointWriter {
    fn create(
        store_path: &Path,
        genesis: Genesis,
        config: &CollectConfig,
    ) -> Result<CheckpointWriter, StoreError> {
        if config.shards > 1 {
            let writer = ShardedStoreWriter::create(store_path, genesis, config.shards)?
                .threads(config.concurrency);
            Ok(CheckpointWriter::Sharded(writer))
        } else {
            Ok(CheckpointWriter::Single(StoreWriter::create(
                store_path, genesis,
            )?))
        }
    }

    /// Opens or creates the checkpoint store. With `resume` set and a
    /// store on disk, the layout is read back from the path (a directory
    /// is sharded, a file is not) and must agree with `config.shards`;
    /// committed weeks are restored after torn-tail recovery. A store
    /// that never got its genesis (or manifest) to disk is recreated.
    fn open(
        store_path: &Path,
        genesis: Genesis,
        config: &CollectConfig,
        resume: bool,
    ) -> Result<ResumedCheckpoint, StoreError> {
        let fresh = |writer| ResumedCheckpoint {
            writer,
            weeks: Vec::new(),
            filtered_out: None,
            torn_bytes: 0,
        };
        if !(resume && store_path.exists()) {
            return Ok(fresh(CheckpointWriter::create(
                store_path, genesis, config,
            )?));
        }
        verify_resume_store(store_path)?;
        if store_path.is_dir() {
            match ShardedStoreWriter::resume(store_path) {
                Ok(resumed) => {
                    let writer = resumed.writer.threads(config.concurrency);
                    if writer.shard_count() != config.shards {
                        return Err(StoreError::Mismatch(format!(
                            "store at {} has {} shards but the study asked for {}; \
                             rerun with --shards {} or start a fresh store",
                            store_path.display(),
                            writer.shard_count(),
                            config.shards,
                            writer.shard_count(),
                        )));
                    }
                    Ok(ResumedCheckpoint {
                        writer: CheckpointWriter::Sharded(writer),
                        weeks: resumed.weeks,
                        filtered_out: resumed.filtered_out,
                        torn_bytes: resumed.torn_bytes,
                    })
                }
                // Killed before the first manifest commit: nothing worth
                // resuming; start over.
                Err(StoreError::MissingGenesis) => Ok(fresh(CheckpointWriter::create(
                    store_path, genesis, config,
                )?)),
                Err(e) => Err(e),
            }
        } else {
            if config.shards > 1 {
                return Err(StoreError::Mismatch(format!(
                    "store at {} is a single file but the study asked for {} shards; \
                     rerun without --shards or start a fresh store",
                    store_path.display(),
                    config.shards,
                )));
            }
            match StoreWriter::resume(store_path) {
                Ok(resumed) => Ok(ResumedCheckpoint {
                    writer: CheckpointWriter::Single(resumed.writer),
                    weeks: resumed.weeks,
                    filtered_out: resumed.filtered_out,
                    torn_bytes: resumed.torn_bytes,
                }),
                // A crash before the genesis segment hit the disk leaves
                // nothing worth resuming; start over.
                Err(StoreError::MissingGenesis) => Ok(fresh(CheckpointWriter::create(
                    store_path, genesis, config,
                )?)),
                Err(e) => Err(e),
            }
        }
    }

    fn genesis(&self) -> &Genesis {
        match self {
            CheckpointWriter::Single(w) => w.genesis(),
            CheckpointWriter::Sharded(w) => w.genesis(),
        }
    }

    fn commit_week(&mut self, week: &WeekData) -> Result<CommitInfo, StoreError> {
        match self {
            CheckpointWriter::Single(w) => w.commit_week(week),
            CheckpointWriter::Sharded(w) => w.commit_week(week),
        }
    }

    fn finalize(&mut self, filtered_out: &[String]) -> Result<(), StoreError> {
        match self {
            CheckpointWriter::Single(w) => w.finalize(filtered_out),
            CheckpointWriter::Sharded(w) => w.finalize(filtered_out),
        }
    }
}

/// The `--resume` integrity gate: CRC-verifies and fully decodes every
/// committed week (the `store verify` pass) before the writer trusts the
/// file, so silent corruption in the committed region fails loudly —
/// with the store path in the error — instead of resuming from corrupt
/// snapshots. A torn tail is fine (the scan indexes only intact
/// segments; resume recovery truncates the rest), and a store that never
/// got its genesis segment is left for the caller's start-over path.
/// Sharded stores verify shard by shard through the same [`AnyReader`]
/// surface; a mixed-epoch group (a shard behind the manifest) fails
/// here, before the writer touches anything.
fn verify_resume_store(store_path: &Path) -> Result<(), StoreError> {
    let verified = AnyReader::open(store_path).and_then(|reader| reader.verify().map(|_| ()));
    match verified {
        Ok(()) | Err(StoreError::MissingGenesis) => Ok(()),
        Err(e) => Err(StoreError::Mismatch(format!(
            "{}: pre-resume verify failed ({e}); refusing to resume from \
             a corrupt store — delete it or restore a backup",
            store_path.display()
        ))),
    }
}

/// The checkpointed collection loop behind
/// [`Collector::run`](crate::dataset::Collector::run).
///
/// With `resume` set and an existing store present, committed weeks are
/// restored from disk (after torn-tail recovery) and only the missing
/// weeks are crawled; the restored crawl is byte-for-byte the crawl that
/// produced them, because collection is deterministic in the ecosystem
/// seed. The store must have been created from the same ecosystem —
/// timeline and domain list are checked against the genesis segment.
///
/// With `streaming` set, each week is dropped right after its commit:
/// only the [`FilterWindow`] (candidate domains plus the trailing-month
/// summaries) is retained, the committed bytes and filter verdict are
/// identical to a materialized run's, and the returned dataset is a
/// thin shell with no weeks.
pub(crate) fn collect_checkpointed(
    ecosystem: &Arc<Ecosystem>,
    config: CollectConfig,
    telemetry: &Telemetry,
    store_path: &Path,
    resume: bool,
    streaming: bool,
) -> Result<CheckpointOutcome, StoreError> {
    let registry = telemetry.registry();
    let names = ecosystem.domain_names();
    let timeline = *ecosystem.timeline();
    let expected = genesis_for(&timeline, &names);

    // Open or create the store, restoring any committed weeks.
    let resumed = CheckpointWriter::open(store_path, expected.clone(), &config, resume)?;
    if resumed.writer.genesis() != &expected {
        return Err(StoreError::Mismatch(
            "store was created from a different ecosystem \
             (seed, domain count, or timeline differ)"
                .to_string(),
        ));
    }
    let torn_bytes_recovered = resumed.torn_bytes;
    let finalized_filter = resumed.filtered_out;
    let mut writer = resumed.writer;
    let weeks_recovered = resumed.weeks.len();
    registry
        .counter("store.weeks_recovered_total")
        .add(weeks_recovered as u64);
    registry
        .counter("store.torn_bytes_recovered_total")
        .add(torn_bytes_recovered);
    let emit_restored = |i: usize, snapshot: &WeekSnapshot| {
        telemetry.emit(
            "crawl",
            i as u64 + 1,
            timeline.weeks as u64,
            &format!(
                "{}: {} pages (restored from store)",
                snapshot.date,
                snapshot.collected()
            ),
        );
    };

    // A finalized store is a completed run: nothing left to crawl.
    if let Some(filtered) = finalized_filter {
        if weeks_recovered != timeline.weeks {
            return Err(StoreError::Mismatch(format!(
                "store is finalized but holds {weeks_recovered} of {} weeks",
                timeline.weeks
            )));
        }
        let (timeline, ranks) = genesis_to_parts(writer.genesis())?;
        let mut weeks: Vec<WeekSnapshot> = Vec::new();
        for (i, week) in resumed.weeks.into_iter().enumerate() {
            let snapshot = week_into_snapshot(week)?;
            emit_restored(i, &snapshot);
            if !streaming {
                weeks.push(snapshot);
            }
        }
        let mut dataset = Dataset {
            timeline,
            ranks,
            weeks,
            filtered_out: Vec::new(),
        };
        for week in &mut dataset.weeks {
            week.pages.retain(|d, _| !filtered.contains(d));
            week.summaries.retain(|d, _| !filtered.contains(d));
            week.carried_forward.retain(|d| !filtered.contains(d));
        }
        dataset.filtered_out = filtered;
        return Ok(CheckpointOutcome {
            dataset,
            weeks_crawled: 0,
            weeks_recovered,
            torn_bytes_recovered,
        });
    }

    // Replay the restored weeks through the collector so week-to-week
    // state — circuit breakers, carry-forward baselines — resumes
    // exactly where the interrupted run left it. A materialized run
    // keeps every snapshot for the returned dataset; a streaming run
    // keeps only the filter window and drops each snapshot once
    // replayed.
    let mut collector = WeekCollector::new(ecosystem, config, telemetry);
    let mut snapshots: Vec<WeekSnapshot> =
        Vec::with_capacity(if streaming { 0 } else { timeline.weeks });
    let mut filter = FilterWindow::new();
    for (i, week) in resumed.weeks.into_iter().enumerate() {
        let snapshot = week_into_snapshot(week)?;
        emit_restored(i, &snapshot);
        collector.replay_week(&snapshot);
        if streaming {
            filter.absorb(&snapshot.summaries);
        } else {
            snapshots.push(snapshot);
        }
    }
    let segments = registry.counter("store.segments_total");
    let delta_hits = registry.counter("store.delta_hits_total");
    let delta_misses = registry.counter("store.delta_misses_total");
    let raw_bytes = registry.counter("store.raw_bytes_total");
    let encoded_bytes = registry.counter("store.encoded_bytes_total");
    let commit_latency = registry.histogram("store.commit_latency_ns");
    let mut weeks_crawled = 0;
    for (week, date) in timeline.iter().skip(weeks_recovered) {
        let snapshot = collector.collect_week(week, date, telemetry);
        collector.check_failure_budget()?;
        let info = {
            let _span = telemetry.span("store");
            let week_key = week.to_string();
            let _ = webvuln_failpoint::failpoint!("checkpoint.commit", &week_key)?;
            let started = std::time::Instant::now();
            let info = writer.commit_week(&snapshot_to_week(&snapshot))?;
            commit_latency.record_duration(started.elapsed());
            info
        };
        segments.add(1);
        delta_hits.add(info.delta_hits as u64);
        delta_misses.add((info.records - info.delta_hits) as u64);
        raw_bytes.add(info.raw_bytes);
        encoded_bytes.add(info.encoded_bytes);
        telemetry.emit(
            "crawl",
            week as u64 + 1,
            timeline.weeks as u64,
            &format!("{date}: {} pages", snapshot.collected()),
        );
        if streaming {
            filter.absorb(&snapshot.summaries);
        } else {
            snapshots.push(snapshot);
        }
        weeks_crawled += 1;
    }

    // All weeks present: filter, record the verdict, finalize. The
    // streaming verdict comes from the filter window (same §4.1 rule,
    // same sorted order); the snapshots vector is empty, so the dataset
    // below is the documented shell.
    let ranks = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.clone(), i + 1))
        .collect();
    let mut dataset = Dataset {
        timeline,
        ranks,
        weeks: snapshots,
        filtered_out: Vec::new(),
    };
    if streaming {
        dataset.filtered_out = filter.verdict();
    } else {
        dataset.apply_inaccessibility_filter();
    }
    writer.finalize(&dataset.filtered_out)?;
    Ok(CheckpointOutcome {
        dataset,
        weeks_crawled,
        weeks_recovered,
        torn_bytes_recovered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::testkit;
    use webvuln_net::{BreakerConfig, FaultPlan, RetryPolicy};
    use webvuln_webgen::EcosystemConfig;

    fn temp_store(tag: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "webvuln-storeio-{}-{tag}.wvstore",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn small_eco(seed: u64, domains: usize, weeks: usize) -> Arc<Ecosystem> {
        Arc::new(Ecosystem::generate(EcosystemConfig {
            seed,
            domain_count: domains,
            timeline: Timeline::truncated(weeks),
        }))
    }

    fn assert_datasets_equal(a: &Dataset, b: &Dataset) {
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(a.ranks, b.ranks);
        assert_eq!(a.filtered_out, b.filtered_out);
        assert_eq!(a.weeks.len(), b.weeks.len());
        for (wa, wb) in a.weeks.iter().zip(&b.weeks) {
            assert_eq!(wa.week, wb.week);
            assert_eq!(wa.date, wb.date);
            assert_eq!(wa.summaries, wb.summaries);
            assert_eq!(wa.pages, wb.pages);
            assert_eq!(wa.carried_forward, wb.carried_forward);
        }
    }

    #[test]
    fn store_round_trip_preserves_the_dataset() {
        let eco = small_eco(21, 120, 6);
        let original = testkit::collect(&eco, CollectConfig::default());
        let path = temp_store("roundtrip");
        original.save_store(&path).expect("save");
        let restored = Dataset::load_store(&path).expect("load");
        assert_datasets_equal(&original, &restored);
        let _ = std::fs::remove_file(&path);
    }

    fn export_to_string(path: &Path) -> String {
        let reader = AnyReader::open(path).expect("open");
        let mut out = Vec::new();
        export_json(&reader, &mut out).expect("export");
        String::from_utf8(out).expect("utf8")
    }

    #[test]
    fn json_export_matches_the_golden_file() {
        let eco = small_eco(23, 16, 3);
        let data = testkit::collect(&eco, CollectConfig::default());
        let path = temp_store("export-json");
        data.save_store(&path).expect("save");
        let exported = export_to_string(&path);
        let golden = include_str!("../tests/golden/export.json");
        if exported != golden {
            let actual = std::env::temp_dir().join("webvuln-export-actual.json");
            std::fs::write(&actual, &exported).expect("write actual");
            panic!(
                "export-json document shape changed; compare {} with tests/golden/export.json",
                actual.display()
            );
        }
        // The document covers the whole store, as `store info` counts it.
        let reader = AnyReader::open(&path).expect("open");
        assert_eq!(
            exported.matches("{\"week\":").count(),
            reader.weeks_committed()
        );
        assert_eq!(reader.genesis().ranks.len(), 16);

        // Unfinalized (checkpoint) store: the §4.1 verdict is recomputed
        // while streaming, and the bytes match the export of the same
        // store materialized (which recomputes it too) and saved finalized.
        let raw = temp_store("export-json-raw");
        let mut writer =
            StoreWriter::create(&raw, genesis_for(&data.timeline, &eco.domain_names()))
                .expect("create");
        for snapshot in &data.weeks {
            writer
                .commit_week(&snapshot_to_week(snapshot))
                .expect("commit");
        }
        drop(writer);
        let reader = AnyReader::open(&raw).expect("open raw");
        assert!(reader.filtered_out().is_none(), "store must be unfinalized");
        let finalized = temp_store("export-json-refinalized");
        Dataset::load_store(&raw)
            .expect("load raw")
            .save_store(&finalized)
            .expect("save");
        assert!(
            export_to_string(&raw) == export_to_string(&finalized),
            "streamed and materialized verdicts differ"
        );

        for path in [path, raw, finalized] {
            let _ = std::fs::remove_file(path);
        }
    }

    /// The shapes a small generated store never contains; the golden file
    /// pins the rest.
    #[test]
    fn json_export_writes_the_rare_variants() {
        let page = PageAnalysis {
            wordpress: Some(None),
            flash: vec![FlashDetection {
                swf_url: "/a \"b\".swf".to_string(),
                allow_script_access: Some("always".to_string()),
            }],
            github_scripts: vec![ExternalScript {
                host: "x.github.io".to_string(),
                url: "https://x.github.io/x.js".to_string(),
                integrity: true,
                crossorigin: None,
            }],
            ..PageAnalysis::default()
        };
        let down = FetchSummary {
            status: None,
            body_len: 0,
        };
        let snapshot = WeekSnapshot {
            week: 7,
            date: Date::new(2018, 4, 23),
            pages: BTreeMap::from([("a.com".to_string(), page)]),
            summaries: BTreeMap::from([("a.com".to_string(), down)]),
            carried_forward: BTreeSet::from(["a.com".to_string()]),
        };
        let mut out = String::new();
        json_snapshot(&mut out, &snapshot);
        assert_eq!(
            out,
            concat!(
                r#"{"week":7,"date":"2018-04-23","pages":{"a.com":{"detections":[],"#,
                r#""wordpress":{"detected":true,"version":null},"#,
                r#""flash":[{"swf_url":"/a \"b\".swf","allow_script_access":"always"}],"#,
                r#""resource_types":[],"github_scripts":[{"host":"x.github.io","#,
                r#""url":"https://x.github.io/x.js","integrity":true,"crossorigin":null}],"#,
                r#""external_scripts":0,"external_scripts_without_integrity":0,"#,
                r#""crossorigin_values":[]}},"summaries":{"a.com":{"status":null,"#,
                r#""body_len":0}},"carried_forward":["a.com"]}"#,
            )
        );
    }

    #[test]
    fn checkpointed_collection_matches_plain_collection() {
        let eco = small_eco(31, 100, 6);
        let plain = testkit::collect(&eco, CollectConfig::default());
        let path = temp_store("checkpointed");
        let outcome = collect_checkpointed(
            &eco,
            CollectConfig::default(),
            &Telemetry::new(),
            &path,
            false,
            false,
        )
        .expect("collect");
        assert_eq!(outcome.weeks_crawled, 6);
        assert_eq!(outcome.weeks_recovered, 0);
        assert_datasets_equal(&plain, &outcome.dataset);
        // The store on disk is the finalized run; loading it restores the
        // same dataset.
        let restored = Dataset::load_store(&path).expect("load");
        assert_datasets_equal(&plain, &restored);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_crawls_only_missing_weeks() {
        let eco = small_eco(31, 100, 6);
        let path = temp_store("resume");
        let telemetry = Telemetry::new();
        // Simulate a run killed after week 3: commit 4 weeks by hand.
        {
            let mut collector = WeekCollector::new(&eco, CollectConfig::default(), &telemetry);
            let timeline = *eco.timeline();
            let mut writer =
                StoreWriter::create(&path, genesis_for(&timeline, &eco.domain_names()))
                    .expect("create");
            for (week, date) in timeline.iter().take(4) {
                let snap = collector.collect_week(week, date, &telemetry);
                writer
                    .commit_week(&snapshot_to_week(&snap))
                    .expect("commit");
            }
        }
        let telemetry = Telemetry::new();
        let outcome = collect_checkpointed(
            &eco,
            CollectConfig::default(),
            &telemetry,
            &path,
            true,
            false,
        )
        .expect("resume");
        assert_eq!(outcome.weeks_recovered, 4);
        assert_eq!(outcome.weeks_crawled, 2);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("store.weeks_recovered_total"), Some(4));
        assert_eq!(snap.counter("store.segments_total"), Some(2));
        // Only the missing weeks were fetched over the network.
        assert_eq!(snap.counter("net.fetches_total"), Some(100 * 2));
        // The result is identical to an uninterrupted collection.
        let plain = testkit::collect(&eco, CollectConfig::default());
        assert_datasets_equal(&plain, &outcome.dataset);
        // A second resume finds the finalized store and crawls nothing.
        let outcome = collect_checkpointed(
            &eco,
            CollectConfig::default(),
            &Telemetry::new(),
            &path,
            true,
            false,
        )
        .expect("resume finalized");
        assert_eq!(outcome.weeks_crawled, 0);
        assert_datasets_equal(&plain, &outcome.dataset);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn carried_forward_flags_survive_the_store() {
        let eco = small_eco(61, 150, 8);
        let config = CollectConfig {
            faults: FaultPlan {
                transient_fail_permille: 200,
                heal_after_attempts: 9,
                ..FaultPlan::none()
            },
            retry: RetryPolicy::standard(2),
            carry_forward: true,
            ..CollectConfig::default()
        };
        let original = testkit::collect(&eco, config);
        assert!(
            original.carried_forward_total() > 0,
            "fixture must exercise carry-forward"
        );
        let path = temp_store("carry");
        original.save_store(&path).expect("save");
        let restored = Dataset::load_store(&path).expect("load");
        assert_datasets_equal(&original, &restored);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_matches_uninterrupted_under_faults_and_retries() {
        let eco = small_eco(62, 120, 6);
        let config = CollectConfig {
            faults: FaultPlan::hostile(62),
            retry: RetryPolicy::standard(2),
            breaker: Some(BreakerConfig::default()),
            carry_forward: true,
            ..CollectConfig::default()
        };
        let plain = testkit::collect(&eco, config);
        let path = temp_store("resilient-resume");
        let telemetry = Telemetry::new();
        // Kill after week 2: breaker and carry-forward state must be
        // replayed from the store for the resumed weeks to match.
        {
            let mut collector = WeekCollector::new(&eco, config, &telemetry);
            let timeline = *eco.timeline();
            let mut writer =
                StoreWriter::create(&path, genesis_for(&timeline, &eco.domain_names()))
                    .expect("create");
            for (week, date) in timeline.iter().take(3) {
                let snap = collector.collect_week(week, date, &telemetry);
                writer
                    .commit_week(&snapshot_to_week(&snap))
                    .expect("commit");
            }
        }
        let outcome = collect_checkpointed(&eco, config, &Telemetry::new(), &path, true, false)
            .expect("resume");
        assert_eq!(outcome.weeks_recovered, 3);
        assert_eq!(outcome.weeks_crawled, 3);
        assert_datasets_equal(&plain, &outcome.dataset);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resumed_carry_forward_run_carries_the_same_pages() {
        // The carry-forward baseline is only kept when the feature is on;
        // a resume must rebuild it from the store all the same.
        const KILLED_AFTER: usize = 3;
        let eco = small_eco(61, 200, 8);
        let config = CollectConfig {
            faults: FaultPlan {
                seed: 61,
                transient_fail_permille: 250,
                heal_after_attempts: 1,
                ..FaultPlan::none()
            },
            carry_forward: true,
            ..CollectConfig::default()
        };
        let plain = testkit::collect(&eco, config);
        let path = temp_store("carry-resume");
        let telemetry = Telemetry::new();
        {
            let mut collector = WeekCollector::new(&eco, config, &telemetry);
            let timeline = *eco.timeline();
            let mut writer =
                StoreWriter::create(&path, genesis_for(&timeline, &eco.domain_names()))
                    .expect("create");
            for (week, date) in timeline.iter().take(KILLED_AFTER) {
                let snap = collector.collect_week(week, date, &telemetry);
                writer
                    .commit_week(&snapshot_to_week(&snap))
                    .expect("commit");
            }
        }
        let outcome = collect_checkpointed(&eco, config, &Telemetry::new(), &path, true, false)
            .expect("resume");
        assert_eq!(outcome.weeks_recovered, KILLED_AFTER);
        assert_datasets_equal(&plain, &outcome.dataset);
        // Every page carried in the first crawled week was last fetched
        // before the kill, so it can only have come from the replay.
        assert!(
            !outcome.dataset.weeks[KILLED_AFTER]
                .carried_forward
                .is_empty(),
            "fixture must carry replayed pages across the resume point"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_a_mismatched_ecosystem() {
        let eco = small_eco(31, 100, 6);
        let path = temp_store("mismatch");
        collect_checkpointed(
            &eco,
            CollectConfig::default(),
            &Telemetry::new(),
            &path,
            false,
            false,
        )
        .expect("collect");
        let other = small_eco(32, 100, 6);
        let err = collect_checkpointed(
            &other,
            CollectConfig::default(),
            &Telemetry::new(),
            &path,
            true,
            false,
        )
        .expect_err("different seed must be rejected");
        assert!(matches!(err, StoreError::Mismatch(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn delta_encoding_pays_off_on_real_data() {
        let eco = small_eco(41, 150, 8);
        let path = temp_store("delta");
        let telemetry = Telemetry::new();
        collect_checkpointed(
            &eco,
            CollectConfig::default(),
            &telemetry,
            &path,
            false,
            false,
        )
        .expect("collect");
        let snap = telemetry.snapshot();
        let hits = snap.counter("store.delta_hits_total").unwrap_or(0);
        let misses = snap.counter("store.delta_misses_total").unwrap_or(0);
        // Most pages do not change in a typical week.
        assert!(
            hits > misses,
            "delta hit-rate should dominate: {hits} hits / {misses} misses"
        );
        let raw = snap.counter("store.raw_bytes_total").unwrap_or(0);
        let encoded = snap.counter("store.encoded_bytes_total").unwrap_or(0);
        assert!(encoded < raw / 2, "encoded {encoded} raw {raw}");
        assert!(snap.histogram("store.commit_latency_ns").is_some());
        let _ = std::fs::remove_file(&path);
    }

    fn temp_store_dir(tag: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "webvuln-storeio-{}-{tag}.wvshards",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        path
    }

    #[test]
    fn sharded_checkpointed_collection_matches_plain_collection() {
        let eco = small_eco(31, 100, 6);
        let plain = testkit::collect(&eco, CollectConfig::default());
        let dir = temp_store_dir("sharded");
        let config = CollectConfig {
            shards: 3,
            ..CollectConfig::default()
        };
        let outcome = collect_checkpointed(&eco, config, &Telemetry::new(), &dir, false, false)
            .expect("collect");
        assert_eq!(outcome.weeks_crawled, 6);
        assert_datasets_equal(&plain, &outcome.dataset);
        // The store on disk is a directory; loading it through the
        // layout-agnostic path restores the same dataset.
        assert!(dir.is_dir(), "sharded store must be a directory");
        let restored = Dataset::load_store(&dir).expect("load");
        assert_datasets_equal(&plain, &restored);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_resume_crawls_only_missing_weeks() {
        let eco = small_eco(31, 100, 6);
        let dir = temp_store_dir("sharded-resume");
        let config = CollectConfig {
            shards: 3,
            ..CollectConfig::default()
        };
        let telemetry = Telemetry::new();
        // Simulate a run killed after week 3: commit 4 weeks by hand.
        {
            let mut collector = WeekCollector::new(&eco, config, &telemetry);
            let timeline = *eco.timeline();
            let mut writer =
                ShardedStoreWriter::create(&dir, genesis_for(&timeline, &eco.domain_names()), 3)
                    .expect("create");
            for (week, date) in timeline.iter().take(4) {
                let snap = collector.collect_week(week, date, &telemetry);
                writer
                    .commit_week(&snapshot_to_week(&snap))
                    .expect("commit");
            }
        }
        let outcome = collect_checkpointed(&eco, config, &Telemetry::new(), &dir, true, false)
            .expect("resume");
        assert_eq!(outcome.weeks_recovered, 4);
        assert_eq!(outcome.weeks_crawled, 2);
        let plain = testkit::collect(&eco, CollectConfig::default());
        assert_datasets_equal(&plain, &outcome.dataset);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_a_shard_count_mismatch() {
        let eco = small_eco(31, 100, 4);
        let dir = temp_store_dir("shard-mismatch");
        let three = CollectConfig {
            shards: 3,
            ..CollectConfig::default()
        };
        collect_checkpointed(&eco, three, &Telemetry::new(), &dir, false, false).expect("collect");
        let two = CollectConfig {
            shards: 2,
            ..CollectConfig::default()
        };
        let err = collect_checkpointed(&eco, two, &Telemetry::new(), &dir, true, false)
            .expect_err("shard-count change must be rejected");
        assert!(matches!(err, StoreError::Mismatch(_)), "{err}");
        assert!(err.to_string().contains("3 shards"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);

        // A single-file store cannot be resumed as a sharded study.
        let path = temp_store("shard-mismatch-single");
        collect_checkpointed(
            &eco,
            CollectConfig::default(),
            &Telemetry::new(),
            &path,
            false,
            false,
        )
        .expect("collect single");
        let err = collect_checkpointed(&eco, two, &Telemetry::new(), &path, true, false)
            .expect_err("layout change must be rejected");
        assert!(matches!(err, StoreError::Mismatch(_)), "{err}");
        assert!(err.to_string().contains("single file"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn streaming_without_a_checkpoint_store_is_rejected() {
        let eco = small_eco(1, 10, 2);
        let err = crate::dataset::Collector::new()
            .streaming(true)
            .run(&eco)
            .expect_err("no store to stream through");
        assert!(matches!(err, StoreError::Mismatch(_)), "{err}");
    }

    #[test]
    fn filter_window_matches_the_batch_filter_rule() {
        // The streaming filter state (candidate set + trailing window)
        // must reproduce `inaccessible_domains` exactly, including the
        // sorted order of the verdict.
        let eco = small_eco(64, 120, 8);
        let config = CollectConfig {
            faults: FaultPlan::hostile(64),
            ..CollectConfig::default()
        };
        let telemetry = Telemetry::new();
        let mut collector = WeekCollector::new(&eco, config, &telemetry);
        let mut window = FilterWindow::new();
        let mut weekly = Vec::new();
        let timeline = *eco.timeline();
        for (week, date) in timeline.iter() {
            let snap = collector.collect_week(week, date, &telemetry);
            window.absorb(&snap.summaries);
            weekly.push(snap.summaries.clone());
        }
        let batch: Vec<String> = inaccessible_domains(&weekly, webvuln_net::filter::FINAL_WEEKS)
            .into_iter()
            .collect();
        assert_eq!(window.verdict(), batch);
        // Degenerate input: no weeks absorbed, no verdict.
        assert!(FilterWindow::new().verdict().is_empty());
    }

    #[test]
    fn streaming_collection_commits_identical_bytes_and_returns_a_shell() {
        let eco = small_eco(77, 100, 6);
        let config = CollectConfig {
            faults: FaultPlan::hostile(77),
            ..CollectConfig::default()
        };
        let batch_path = temp_store("stream-collect-batch");
        let materialized =
            collect_checkpointed(&eco, config, &Telemetry::new(), &batch_path, false, false)
                .expect("materialized");
        let stream_path = temp_store("stream-collect-stream");
        let streaming =
            collect_checkpointed(&eco, config, &Telemetry::new(), &stream_path, false, true)
                .expect("streaming");
        // Same committed bytes, same filter verdict; the streaming
        // outcome carries the documented shell (no weeks).
        assert_eq!(
            std::fs::read(&batch_path).expect("batch bytes"),
            std::fs::read(&stream_path).expect("stream bytes"),
        );
        assert_eq!(
            materialized.dataset.filtered_out,
            streaming.dataset.filtered_out
        );
        assert_eq!(materialized.dataset.timeline, streaming.dataset.timeline);
        assert_eq!(materialized.dataset.ranks, streaming.dataset.ranks);
        assert!(streaming.dataset.weeks.is_empty());
        assert_eq!(streaming.weeks_crawled, 6);
        // Loading the streaming store back materializes the batch run.
        let restored = Dataset::load_store(&stream_path).expect("load");
        assert_datasets_equal(&materialized.dataset, &restored);
        let _ = std::fs::remove_file(&batch_path);
        let _ = std::fs::remove_file(&stream_path);
    }

    #[test]
    fn sharded_streaming_collection_matches_materialized_bytes() {
        let eco = small_eco(78, 90, 5);
        let config = CollectConfig {
            shards: 3,
            ..CollectConfig::default()
        };
        let batch_dir = temp_store_dir("stream-shards-batch");
        let materialized =
            collect_checkpointed(&eco, config, &Telemetry::new(), &batch_dir, false, false)
                .expect("materialized");
        let stream_dir = temp_store_dir("stream-shards-stream");
        let streaming =
            collect_checkpointed(&eco, config, &Telemetry::new(), &stream_dir, false, true)
                .expect("streaming");
        assert!(streaming.dataset.weeks.is_empty());
        assert_eq!(
            materialized.dataset.filtered_out,
            streaming.dataset.filtered_out
        );
        for name in [
            "MANIFEST",
            "shard-000.wvstore",
            "shard-001.wvstore",
            "shard-002.wvstore",
        ] {
            assert_eq!(
                std::fs::read(batch_dir.join(name)).expect("batch shard"),
                std::fs::read(stream_dir.join(name)).expect("stream shard"),
                "{name}"
            );
        }
        let _ = std::fs::remove_dir_all(&batch_dir);
        let _ = std::fs::remove_dir_all(&stream_dir);
    }

    #[test]
    fn streaming_resume_continues_from_a_partial_store() {
        let eco = small_eco(31, 100, 6);
        let path = temp_store("stream-resume");
        let telemetry = Telemetry::new();
        // Simulate a run killed after week 3: commit 4 weeks by hand.
        {
            let mut collector = WeekCollector::new(&eco, CollectConfig::default(), &telemetry);
            let timeline = *eco.timeline();
            let mut writer =
                StoreWriter::create(&path, genesis_for(&timeline, &eco.domain_names()))
                    .expect("create");
            for (week, date) in timeline.iter().take(4) {
                let snap = collector.collect_week(week, date, &telemetry);
                writer
                    .commit_week(&snapshot_to_week(&snap))
                    .expect("commit");
            }
        }
        let outcome = collect_checkpointed(
            &eco,
            CollectConfig::default(),
            &telemetry,
            &path,
            true,
            true,
        )
        .expect("streaming resume");
        assert_eq!(outcome.weeks_recovered, 4);
        assert_eq!(outcome.weeks_crawled, 2);
        assert!(outcome.dataset.weeks.is_empty());
        // The healed store and the shell's verdict match an
        // uninterrupted materialized run.
        let plain = testkit::collect(&eco, CollectConfig::default());
        assert_eq!(outcome.dataset.filtered_out, plain.filtered_out);
        let restored = Dataset::load_store(&path).expect("load");
        assert_datasets_equal(&plain, &restored);
        // Streaming-resuming the now-finalized store crawls nothing and
        // returns the stored verdict.
        let finalized = collect_checkpointed(
            &eco,
            CollectConfig::default(),
            &Telemetry::new(),
            &path,
            true,
            true,
        )
        .expect("resume finalized");
        assert_eq!(finalized.weeks_crawled, 0);
        assert!(finalized.dataset.weeks.is_empty());
        assert_eq!(finalized.dataset.filtered_out, plain.filtered_out);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn streaming_matches_loading() {
        let eco = small_eco(21, 80, 4);
        let original = testkit::collect(&eco, CollectConfig::default());
        let path = temp_store("stream");
        original.save_store(&path).expect("save");
        let reader = StoreReader::open(&path).expect("open");
        let streamed: Vec<WeekSnapshot> = stream_snapshots(&reader)
            .collect::<Result<_, _>>()
            .expect("stream");
        assert_eq!(streamed.len(), original.weeks.len());
        for (a, b) in original.weeks.iter().zip(&streamed) {
            assert_eq!(a.summaries, b.summaries);
            assert_eq!(a.pages, b.pages);
        }
        let _ = std::fs::remove_file(&path);
    }
}
