//! Bridge between the analysis dataset and the `webvuln-store` binary
//! snapshot store: type conversions, the JSON export, and the writer
//! every [`Collector::run`](crate::dataset::Collector::run) commits
//! through — to the `study --store` path, or to memory.
//!
//! The store is dependency-free and speaks a plain-string record model;
//! this module is the single place that maps [`PageAnalysis`] and friends
//! into it and back — and, for a fold, the place that reads the records
//! *as* pages without converting them ([`DecodedWeek`]). Telemetry: every
//! commit records into `store.*` counters and the
//! `store.commit_latency_ns` histogram.

use crate::accum::genesis_ranks;
use crate::dataset::{CollectConfig, Dataset, WeekSnapshot};
use crate::filter::store_filter_verdict;
use crate::view::{DetectionView, PageView, WeekView};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use webvuln_cvedb::{Date, LibraryId};
use webvuln_fingerprint::{
    DetectedInclusion, Detection, ExternalScript, FlashDetection, PageAnalysis, ResourceType,
};
use webvuln_net::{page_is_error_or_empty, FetchSummary};
use webvuln_store::{
    AnyReader, AnyWriter, DetectionRecord, DomainRecord, FlashRecord, Genesis, PageRecord,
    ScriptRecord, StoreWriter, Sym, WeekData, WordPressRecord,
};

pub use webvuln_store::StoreError;
use webvuln_telemetry::{JsonWriter, Telemetry};
use webvuln_version::Version;
use webvuln_webgen::Timeline;

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

pub(crate) fn page_into_record(page: PageAnalysis) -> PageRecord {
    PageRecord {
        detections: page
            .detections
            .into_iter()
            .map(|d| DetectionRecord {
                library: d.library.slug().to_string(),
                version: d.version.as_ref().map(|v| v.to_string()),
                external_host: match d.inclusion {
                    DetectedInclusion::Internal => None,
                    DetectedInclusion::External { host } => Some(host),
                },
                integrity: d.integrity,
                crossorigin: d.crossorigin,
                url: d.url,
            })
            .collect(),
        wordpress: match &page.wordpress {
            None => WordPressRecord::Absent,
            Some(None) => WordPressRecord::DetectedUnknownVersion,
            Some(Some(version)) => WordPressRecord::Detected(version.to_string()),
        },
        flash: page
            .flash
            .into_iter()
            .map(|f| FlashRecord {
                swf_url: f.swf_url,
                allow_script_access: f.allow_script_access,
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
            .into_iter()
            .map(|s| ScriptRecord {
                host: s.host,
                url: s.url,
                integrity: s.integrity,
                crossorigin: s.crossorigin,
            })
            .collect(),
        external_scripts: page.external_scripts as u64,
        external_scripts_without_integrity: page.external_scripts_without_integrity as u64,
        crossorigin_values: page.crossorigin_values,
    }
}

fn parse_version(text: &str) -> Result<Version, StoreError> {
    Version::parse(text)
        .map_err(|e| StoreError::Mismatch(format!("stored version {text:?} unparsable: {e}")))
}

fn parse_library(slug: &str) -> Result<LibraryId, StoreError> {
    LibraryId::from_slug(slug)
        .ok_or_else(|| StoreError::Mismatch(format!("unknown library slug {slug:?}")))
}

pub(crate) fn date_from_days(days: i64) -> Result<Date, StoreError> {
    i32::try_from(days)
        .map(Date::from_day_number)
        .map_err(|_| StoreError::Mismatch(format!("week date {days} out of range")))
}

fn record_into_page(record: PageRecord) -> Result<PageAnalysis, StoreError> {
    let detections = record
        .detections
        .into_iter()
        .map(|d| {
            Ok(Detection {
                library: parse_library(&d.library)?,
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
    let records = snapshot
        .summaries
        .iter()
        .map(|(host, summary)| DomainRecord {
            host: host.clone(),
            status: summary.status,
            body_len: summary.body_len as u64,
            page: snapshot.pages.get(host).cloned().map(page_into_record),
        });
    WeekData {
        week: snapshot.week,
        date_days: i64::from(snapshot.date.day_number()),
        records: records.collect(),
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
    let date = date_from_days(week.date_days)?;
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
        date,
        pages: pages.into_iter().collect(),
        summaries: summaries.into_iter().collect(),
        carried_forward,
    })
}

/// [`week_into_snapshot`] for a caller that keeps the decoded week.
pub fn week_to_snapshot(week: &WeekData) -> Result<WeekSnapshot, StoreError> {
    week_into_snapshot(week.clone())
}

// ---------------------------------------------------------------------------
// Decoded records as a week view
// ---------------------------------------------------------------------------

/// What one reader's symbols mean to the analysis, learned at first
/// sight: a library slug's [`LibraryId`], a version string's parsed
/// [`Version`]. A fold slice keeps one for all its weeks, so each distinct
/// string is resolved once per slice, not once per detection per week.
/// Symbols belong to the string table that issued them: a cache must
/// never outlive its reader or serve a second one.
#[derive(Debug, Default)]
pub struct SymbolCache {
    libraries: Vec<(u32, LibraryId)>,
    /// Per symbol, one more than its version's place in `versions`;
    /// 0 = not seen as a version yet.
    version_slots: Vec<u32>,
    versions: Vec<Version>,
}

impl SymbolCache {
    /// Resolves everything `page` mentions, failing on the first library
    /// slug, version string or resource-type code this build cannot read.
    fn learn(&mut self, page: &PageRecord<Sym<'_>>) -> Result<(), StoreError> {
        for det in &page.detections {
            if !self.libraries.iter().any(|&(id, _)| id == det.library.id) {
                let library = parse_library(det.library.text)?;
                self.libraries.push((det.library.id, library));
            }
            if let Some(version) = det.version {
                self.learn_version(version)?;
            }
        }
        if let WordPressRecord::Detected(version) = page.wordpress {
            self.learn_version(version)?;
        }
        page.resource_types
            .iter()
            .try_for_each(|&code| resource_type_from_code(code).map(drop))
    }

    fn learn_version(&mut self, version: Sym<'_>) -> Result<(), StoreError> {
        let id = version.id as usize;
        if self.version_slots.len() <= id {
            self.version_slots.resize(id + 1, 0);
        }
        if self.version_slots[id] == 0 {
            self.versions.push(parse_version(version.text)?);
            self.version_slots[id] = self.versions.len() as u32;
        }
        Ok(())
    }

    fn library(&self, sym: Sym<'_>) -> LibraryId {
        let known = self.libraries.iter().find(|&&(id, _)| id == sym.id);
        known.expect("learned before the view was built").1
    }

    fn version(&self, sym: Sym<'_>) -> &Version {
        &self.versions[self.version_slots[sym.id as usize] as usize - 1]
    }
}

/// A page of a [`DecodedWeek`]: the decoded record where it lies, read
/// through its reader's [`SymbolCache`].
pub struct DecodedPage<'a> {
    page: &'a PageRecord<Sym<'a>>,
    symbols: &'a SymbolCache,
}

impl PageView for DecodedPage<'_> {
    fn detections(&self) -> impl Iterator<Item = DetectionView<'_>> {
        self.page.detections.iter().map(|det| DetectionView {
            library: self.symbols.library(det.library),
            version: det.version.map(|version| self.symbols.version(version)),
            external_host: det.external_host.map(|host| host.text),
        })
    }

    fn wordpress(&self) -> Option<Option<&Version>> {
        match self.page.wordpress {
            WordPressRecord::Absent => None,
            WordPressRecord::DetectedUnknownVersion => Some(None),
            WordPressRecord::Detected(version) => Some(Some(self.symbols.version(version))),
        }
    }

    fn flash(&self) -> Option<Option<&str>> {
        let stated = || {
            let values = self.page.flash.iter().map(|f| f.allow_script_access);
            values.flatten().next().map(|value| value.text)
        };
        (!self.page.flash.is_empty()).then(stated)
    }

    fn uses_resource(&self, class: usize) -> bool {
        self.page.resource_types.contains(&(class as u8))
    }

    fn external_scripts(&self) -> (usize, usize) {
        (
            self.page.external_scripts as usize,
            self.page.external_scripts_without_integrity as usize,
        )
    }

    fn crossorigin_values(&self) -> impl Iterator<Item = &str> {
        self.page.crossorigin_values.iter().map(|value| value.text)
    }

    fn github_scripts(&self) -> impl Iterator<Item = (&str, bool)> {
        let scripts = self.page.github_scripts.iter();
        scripts.map(|script| (script.host.text, script.integrity))
    }
}

/// One decoded store week as the accumulators read it — the records a
/// reader's [`week_records`](webvuln_store::StoreReader::week_records)
/// borrowed from its file, with the §4.1 filter applied as a skip. What
/// [`week_into_snapshot`] + [`apply_filter`](crate::filter::apply_filter)
/// would hand an accumulator, without building, filtering or freeing a
/// [`WeekSnapshot`].
pub struct DecodedWeek<'a> {
    week: usize,
    date: Date,
    carried: usize,
    pages: Vec<(&'a str, DecodedPage<'a>)>,
}

impl<'a> DecodedWeek<'a> {
    /// Views `week` minus the `filtered` domains, cut into `parts`
    /// domain-disjoint views, teaching `symbols` (the cache of the reader
    /// that decoded `week`) whatever the week mentions for the first time:
    /// a record goes to the view `part_of` names for its host, or nowhere
    /// on `None`. Every part gets a view, pages or not — accumulators
    /// merge only when they have absorbed the same weeks.
    pub fn partition(
        week: &'a WeekData<DomainRecord<Sym<'a>>>,
        filtered: &BTreeSet<String>,
        symbols: &'a mut SymbolCache,
        parts: usize,
        part_of: impl Fn(&str) -> Option<usize>,
    ) -> Result<Vec<DecodedWeek<'a>>, StoreError> {
        let date = date_from_days(week.date_days)?;
        let room = week.records.len() / parts + 1;
        let mut kept: Vec<_> = (0..parts).map(|_| (0, Vec::with_capacity(room))).collect();
        for record in &week.records {
            let Some(page) = &record.page else { continue };
            if filtered.contains(record.host.text) {
                continue;
            }
            let Some(part) = part_of(record.host.text) else {
                continue;
            };
            symbols.learn(page)?;
            let (carried, pages) = &mut kept[part];
            // See `week_into_snapshot`: a page beside a failed fetch was
            // carried forward.
            if page_is_error_or_empty(record.status, record.body_len as usize) {
                *carried += 1;
            }
            pages.push((record.host.text, page));
        }
        let symbols = &*symbols;
        let view = |(carried, pages): (usize, Vec<(&'a str, &'a PageRecord<Sym<'a>>)>)| {
            let pages = pages
                .into_iter()
                .map(|(host, page)| (host, DecodedPage { page, symbols }));
            DecodedWeek {
                week: week.week,
                date,
                carried,
                pages: pages.collect(),
            }
        };
        Ok(kept.into_iter().map(view).collect())
    }
}

impl<'a> WeekView for DecodedWeek<'a> {
    type Page = DecodedPage<'a>;

    fn week(&self) -> usize {
        self.week
    }

    fn date(&self) -> Date {
        self.date
    }

    fn collected(&self) -> usize {
        self.pages.len()
    }

    fn carried(&self) -> usize {
        self.carried
    }

    fn pages(&self) -> impl Iterator<Item = (&str, &DecodedPage<'a>)> {
        self.pages.iter().map(|(domain, page)| (*domain, page))
    }
}

pub(crate) fn genesis_for(timeline: &Timeline, names: &[String]) -> Genesis {
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
    Ok((timeline, genesis_ranks(genesis)))
}

impl Dataset {
    /// The dataset of an opened store: its timeline and ranks, and
    /// `filtered` — the store's §4.1 verdict ([`store_filter_verdict`]),
    /// which the caller's fold needs too.
    pub fn shell_from_reader(
        reader: &AnyReader,
        filtered: &BTreeSet<String>,
    ) -> Result<Dataset, StoreError> {
        let (timeline, ranks) = genesis_to_parts(reader.genesis())?;
        Ok(Dataset {
            timeline,
            ranks,
            filtered_out: filtered.iter().cloned().collect(),
        })
    }
}

/// Streams a store straight into `out` as one JSON document — the
/// analogue of the paper's public data release — without ever holding
/// more than one decoded week, written from the decoded records with the
/// §4.1 verdict's domains skipped. `tests/golden/export.json` pins the
/// shape:
/// `{"timeline":{"start","weeks"},"ranks":{domain:rank},"weeks":[…],
/// "filtered_out":[domain]}`, each week `{"week","date","pages":
/// {domain:page},"summaries":{domain:{"status","body_len"}},
/// "carried_forward":[domain]}`. Unit enums are their variant names,
/// `None` is `null`, and versions and dates are their `Display` strings.
///
/// An unfinalized store first reads its trailing weeks for the §4.1
/// verdict, as a fold does; a finalized store uses its stored verdict and
/// streams in one pass.
pub fn export_json<W: std::io::Write>(reader: &AnyReader, out: &mut W) -> std::io::Result<()> {
    let store_err = |e: StoreError| std::io::Error::other(e.to_string());
    let (timeline, ranks) = genesis_to_parts(reader.genesis()).map_err(store_err)?;
    let filtered = store_filter_verdict(reader).map_err(store_err)?;
    let mut j = JsonWriter::new();
    j.begin_obj().obj("timeline");
    j.str("start", &timeline.start.to_string());
    j.u64("weeks", timeline.weeks as u64).end_obj().obj("ranks");
    for (domain, rank) in &ranks {
        j.u64(domain, *rank as u64);
    }
    j.end_obj().arr("weeks");
    for week in reader.stream() {
        write_week(&mut j, &week.map_err(store_err)?, &filtered).map_err(store_err)?;
        j.write_to(out)?;
    }
    j.end_arr().strs("filtered_out", &filtered).end_obj();
    j.write_to(out)
}

/// Writes one stored week, skipping the `filtered` domains. A page beside
/// a failed fetch was carried forward (see [`week_into_snapshot`]).
fn write_week(
    j: &mut JsonWriter,
    week: &WeekData,
    filtered: &BTreeSet<String>,
) -> Result<(), StoreError> {
    let records: Vec<&DomainRecord> = week
        .records
        .iter()
        .filter(|record| !filtered.contains(&record.host))
        .collect();
    j.begin_obj().u64("week", week.week as u64);
    j.str("date", &date_from_days(week.date_days)?.to_string());
    j.obj("pages");
    for record in &records {
        if let Some(page) = &record.page {
            write_page(j.obj(&record.host), page)?;
        }
    }
    j.end_obj().obj("summaries");
    for record in &records {
        j.obj(&record.host)
            .opt_i64("status", record.status.map(i64::from));
        j.u64("body_len", record.body_len).end_obj();
    }
    let carried = records.iter().filter(|record| {
        let failed = page_is_error_or_empty(record.status, record.body_len as usize);
        record.page.is_some() && failed
    });
    j.end_obj()
        .strs("carried_forward", carried.map(|record| &record.host));
    j.end_obj();
    Ok(())
}

/// Writes the members of a page into the object the caller opened, and
/// closes it.
fn write_page(j: &mut JsonWriter, page: &PageRecord) -> Result<(), StoreError> {
    j.arr("detections");
    for d in &page.detections {
        // `{:?}` of a unit enum variant is the variant's name.
        let library = format!("{:?}", parse_library(&d.library)?);
        j.begin_obj().str("library", &library);
        j.opt_str("version", d.version.as_deref());
        match &d.external_host {
            None => j.str("inclusion", "Internal"),
            Some(host) => {
                j.obj("inclusion").obj("External");
                j.str("host", host).end_obj().end_obj()
            }
        };
        j.bool("integrity", d.integrity);
        j.opt_str("crossorigin", d.crossorigin.as_deref());
        j.str("url", &d.url).end_obj();
    }
    let (detected, version) = match &page.wordpress {
        WordPressRecord::Absent => (false, None),
        WordPressRecord::DetectedUnknownVersion => (true, None),
        WordPressRecord::Detected(version) => (true, Some(version.as_str())),
    };
    j.end_arr().obj("wordpress");
    j.bool("detected", detected).opt_str("version", version);
    j.end_obj().arr("flash");
    for f in &page.flash {
        j.begin_obj().str("swf_url", &f.swf_url);
        j.opt_str("allow_script_access", f.allow_script_access.as_deref());
        j.end_obj();
    }
    let resource_types = page
        .resource_types
        .iter()
        .map(|&code| resource_type_from_code(code).map(|rt| format!("{rt:?}")));
    let resource_types = resource_types.collect::<Result<Vec<_>, _>>()?;
    j.end_arr().strs("resource_types", resource_types);
    j.arr("github_scripts");
    for script in &page.github_scripts {
        j.begin_obj().str("host", &script.host);
        j.str("url", &script.url)
            .bool("integrity", script.integrity);
        j.opt_str("crossorigin", script.crossorigin.as_deref());
        j.end_obj();
    }
    j.end_arr().u64("external_scripts", page.external_scripts);
    let bare = page.external_scripts_without_integrity;
    j.u64("external_scripts_without_integrity", bare);
    j.strs("crossorigin_values", &page.crossorigin_values);
    j.end_obj();
    Ok(())
}

// ---------------------------------------------------------------------------
// Checkpointed collection
// ---------------------------------------------------------------------------

/// What a [`Collector::run`](crate::dataset::Collector::run) did.
pub struct CheckpointOutcome {
    /// The run's timeline, ranks and §4.1 verdict.
    pub dataset: Dataset,
    /// The finalized store the run committed every week to — its
    /// checkpoint, or the store it kept in memory — open for reading.
    pub reader: AnyReader,
    /// Weeks actually crawled in this run.
    pub weeks_crawled: usize,
    /// Weeks restored from the store instead of crawled.
    pub weeks_recovered: usize,
    /// Torn tail bytes truncated during resume (0 for a clean store).
    pub torn_bytes_recovered: u64,
}

/// Opens or creates the checkpoint store a
/// [`Collector::run`](crate::dataset::Collector::run) commits to: one
/// file for `shards == 1`, a sharded directory otherwise. With `resume`
/// set and a store on disk, the store first passes
/// [`verify_resume_store`], its shard count must agree with
/// `config.shards` and it must have been created from `genesis` — all
/// checked on the gate's reader, before the writer reopens the store
/// (either layout) and heals its tail. The reader comes back beside the
/// writer: it is where the committed weeks are read from. A store that
/// never got its genesis (or manifest) to disk is recreated.
pub(crate) fn open_checkpoint(
    store_path: &Path,
    genesis: Genesis,
    config: &CollectConfig,
    resume: bool,
    telemetry: &Telemetry,
) -> Result<(AnyWriter, Option<AnyReader>), StoreError> {
    let reader = if resume && store_path.exists() {
        verify_resume_store(store_path)?
    } else {
        None
    };
    if let Some(reader) = &reader {
        let shards = reader.shard_count();
        if shards != config.shards.max(1) {
            let holds = match reader.manifest() {
                Some(_) => format!("{shards} shards"),
                None => "a single file".to_string(),
            };
            return Err(StoreError::Mismatch(format!(
                "store at {} holds {holds} but the study asked for {} shards; \
                 rerun with --shards {shards} or start a fresh store",
                store_path.display(),
                config.shards,
            )));
        }
        if reader.genesis() != &genesis {
            return Err(StoreError::Mismatch(
                "store was created from a different ecosystem \
                 (seed, domain count, or timeline differ)"
                    .to_string(),
            ));
        }
    }
    let writer = match &reader {
        Some(_) => AnyWriter::resume(store_path)?,
        None if config.shards > 1 => AnyWriter::create(store_path, genesis, config.shards)?,
        None => StoreWriter::create(store_path, genesis)?.into(),
    };
    let writer = writer.threads(config.concurrency);
    let registry = telemetry.registry();
    registry
        .counter("store.weeks_recovered_total")
        .add(reader.as_ref().map_or(0, AnyReader::weeks_committed) as u64);
    registry
        .counter("store.torn_bytes_recovered_total")
        .add(writer.stats().torn_bytes_recovered);
    Ok((writer, reader))
}

/// Commits one collected week, accounting it to the `store.*` counters,
/// the `store.commit_latency_ns` histogram and the `store` phase span.
pub(crate) fn commit_checkpoint(
    writer: &mut AnyWriter,
    week: &WeekData,
    telemetry: &Telemetry,
) -> Result<(), StoreError> {
    let registry = telemetry.registry();
    let info = {
        let _phase = telemetry.phase("store").week(week.week);
        let week_key = week.week.to_string();
        let _ = webvuln_failpoint::failpoint!("checkpoint.commit", &week_key)?;
        let started = std::time::Instant::now();
        let info = writer.commit_week(week)?;
        registry
            .histogram("store.commit_latency_ns")
            .record_duration(started.elapsed());
        info
    };
    registry.counter("store.segments_total").add(1);
    registry
        .counter("store.delta_hits_total")
        .add(info.delta_hits as u64);
    registry
        .counter("store.delta_misses_total")
        .add((info.records - info.delta_hits) as u64);
    registry
        .counter("store.raw_bytes_total")
        .add(info.raw_bytes);
    registry
        .counter("store.encoded_bytes_total")
        .add(info.encoded_bytes);
    Ok(())
}

/// The `--resume` integrity gate: CRC-verifies and fully decodes every
/// committed week (the `store verify` pass) before the writer trusts the
/// file, so silent corruption in the committed region fails loudly —
/// with the store path in the error — instead of resuming from corrupt
/// snapshots. A torn tail is fine (the scan indexes only intact
/// segments; resume recovery truncates the rest), and a store that never
/// got its genesis segment is `None`, left for the caller's start-over
/// path. Sharded stores verify shard by shard through the same
/// [`AnyReader`] surface; a mixed-epoch group (a shard behind the
/// manifest) fails here, before the writer touches anything. The reader
/// that passed holds the intact, manifest-published prefix in memory, so
/// it stays good while the writer heals the tail or rolls a shard back.
fn verify_resume_store(store_path: &Path) -> Result<Option<AnyReader>, StoreError> {
    let verified = AnyReader::open(store_path).and_then(|reader| {
        reader.verify()?;
        Ok(reader)
    });
    match verified {
        Ok(reader) => Ok(Some(reader)),
        Err(StoreError::MissingGenesis) => Ok(None),
        Err(e) => Err(StoreError::Mismatch(format!(
            "{}: pre-resume verify failed ({e}); refusing to resume from \
             a corrupt store — delete it or restore a backup",
            store_path.display()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::testkit::{self, Kept};
    use crate::dataset::{Collector, WeekCollector};
    use std::sync::Arc;
    use webvuln_net::{BreakerConfig, FaultPlan, RetryPolicy};
    use webvuln_webgen::{Ecosystem, EcosystemConfig};

    /// A checkpointed [`Collector::run`], spelled positionally.
    fn collect_checkpointed(
        eco: &Arc<Ecosystem>,
        config: CollectConfig,
        telemetry: &Telemetry,
        store_path: &Path,
        resume: bool,
    ) -> Result<CheckpointOutcome, StoreError> {
        Collector::from_config(config)
            .telemetry(telemetry)
            .checkpoint(store_path)
            .resume(resume)
            .run(eco)
    }

    /// Leaves the store a run killed after `weeks` commits would: those
    /// weeks on disk, no finalize.
    fn commit_first_weeks(
        eco: &Arc<Ecosystem>,
        config: CollectConfig,
        telemetry: &Telemetry,
        store_path: &Path,
        weeks: usize,
    ) {
        let mut collector = WeekCollector::new(eco, config, telemetry);
        let timeline = *eco.timeline();
        let genesis = genesis_for(&timeline, &eco.domain_names());
        let (mut writer, _) =
            open_checkpoint(store_path, genesis, &config, false, telemetry).expect("create");
        for (week, date) in timeline.iter().take(weeks) {
            let (mut week, _) = collector.collect_week(week, date, config.concurrency, telemetry);
            collector.settle_week(&mut week);
            commit_checkpoint(&mut writer, &week, telemetry).expect("commit");
        }
    }

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

    /// Two stores hold the same study: genesis, §4.1 verdict and every
    /// week, record for record. (That a store kept in memory holds the
    /// bytes a file would is the store crate's to pin.)
    fn assert_same_store(a: &AnyReader, b: &AnyReader) {
        assert_eq!(a.genesis(), b.genesis());
        assert_eq!(a.filtered_out(), b.filtered_out());
        assert_eq!(a.weeks_committed(), b.weeks_committed());
        for week in 0..a.weeks_committed() {
            assert_eq!(a.week(week).expect("week"), b.week(week).expect("week"));
        }
    }

    fn assert_datasets_equal(a: &Kept, b: &Kept) {
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

    /// A store kept in memory, written out as a file and opened again,
    /// reads back the dataset the run collected.
    #[test]
    fn store_round_trip_preserves_the_dataset() {
        let eco = small_eco(21, 120, 6);
        let outcome = Collector::new().run(&eco).expect("collect");
        let path = temp_store("roundtrip");
        let mut writer =
            StoreWriter::create(&path, outcome.reader.genesis().clone()).expect("create");
        for week in outcome.reader.stream() {
            writer.commit_week(&week.expect("decode")).expect("commit");
        }
        let filtered = outcome.reader.filtered_out().expect("finalized");
        writer.finalize(filtered).expect("finalize");
        let restored = Kept::open(&path);
        assert_same_store(&outcome.reader, &AnyReader::open(&path).expect("open"));
        assert_datasets_equal(&Kept::of(outcome), &restored);
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
        let path = temp_store("export-json");
        let outcome = collect_checkpointed(
            &eco,
            CollectConfig::default(),
            &Telemetry::new(),
            &path,
            false,
        )
        .expect("collect");
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

        // Unfinalized store: the §4.1 verdict is recomputed while
        // streaming, and the bytes match the export of the finalized
        // store, whose verdict was stored.
        let raw = temp_store("export-json-raw");
        let mut writer = StoreWriter::create(&raw, reader.genesis().clone()).expect("create");
        for week in outcome.reader.stream() {
            writer.commit_week(&week.expect("decode")).expect("commit");
        }
        drop(writer);
        let raw_reader = AnyReader::open(&raw).expect("open raw");
        assert!(
            raw_reader.filtered_out().is_none(),
            "store must be unfinalized"
        );
        assert!(
            export_to_string(&raw) == exported,
            "recomputed and stored verdicts differ"
        );

        for path in [path, raw] {
            let _ = std::fs::remove_file(path);
        }
    }

    /// The shapes a small generated store never contains; the golden file
    /// pins the rest. A filtered domain is skipped whole.
    #[test]
    fn json_export_writes_the_rare_variants() {
        let page = PageRecord {
            wordpress: WordPressRecord::DetectedUnknownVersion,
            flash: vec![FlashRecord {
                swf_url: "/a \"b\".swf".to_string(),
                allow_script_access: Some("always".to_string()),
            }],
            github_scripts: vec![ScriptRecord {
                host: "x.github.io".to_string(),
                url: "https://x.github.io/x.js".to_string(),
                integrity: true,
                crossorigin: None,
            }],
            ..PageRecord::default()
        };
        let record = |host: &str, status, page| DomainRecord {
            host: host.to_string(),
            status,
            body_len: 0,
            page: Some(page),
        };
        let week = WeekData {
            week: 7,
            date_days: i64::from(Date::new(2018, 4, 23).day_number()),
            records: vec![
                record("a.com", None, page),
                record("b.com", Some(200), PageRecord::default()),
            ],
        };
        let mut out = JsonWriter::new();
        let filtered = BTreeSet::from(["b.com".to_string()]);
        write_week(&mut out, &week, &filtered).expect("write");
        assert_eq!(
            out.finish(),
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
        let plain = Collector::new().run(&eco).expect("collect in memory");
        let path = temp_store("checkpointed");
        let outcome = collect_checkpointed(
            &eco,
            CollectConfig::default(),
            &Telemetry::new(),
            &path,
            false,
        )
        .expect("collect");
        assert_eq!(outcome.weeks_crawled, 6);
        assert_eq!(outcome.weeks_recovered, 0);
        // The store kept in memory holds what the checkpoint file holds.
        assert_same_store(&plain.reader, &AnyReader::open(&path).expect("open"));
        let plain = Kept::of(plain);
        assert_datasets_equal(&plain, &Kept::of(outcome));
        // The store on disk is the finalized run; reading it restores the
        // same dataset.
        assert_datasets_equal(&plain, &Kept::open(&path));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_crawls_only_missing_weeks() {
        let eco = small_eco(31, 100, 6);
        let path = temp_store("resume");
        let telemetry = Telemetry::new();
        // Simulate a run killed after week 3: commit 4 weeks by hand.
        commit_first_weeks(&eco, CollectConfig::default(), &telemetry, &path, 4);
        let telemetry = Telemetry::new();
        let outcome = collect_checkpointed(&eco, CollectConfig::default(), &telemetry, &path, true)
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
        assert_datasets_equal(&plain, &Kept::of(outcome));
        // A second resume finds the finalized store and crawls nothing.
        let outcome = collect_checkpointed(
            &eco,
            CollectConfig::default(),
            &Telemetry::new(),
            &path,
            true,
        )
        .expect("resume finalized");
        assert_eq!(outcome.weeks_crawled, 0);
        assert_datasets_equal(&plain, &Kept::of(outcome));
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
        collect_checkpointed(&eco, config, &Telemetry::new(), &path, false).expect("collect");
        assert_datasets_equal(&original, &Kept::open(&path));
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
        commit_first_weeks(&eco, config, &telemetry, &path, 3);
        let outcome =
            collect_checkpointed(&eco, config, &Telemetry::new(), &path, true).expect("resume");
        assert_eq!(outcome.weeks_recovered, 3);
        assert_eq!(outcome.weeks_crawled, 3);
        assert_datasets_equal(&plain, &Kept::of(outcome));
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
        commit_first_weeks(&eco, config, &telemetry, &path, KILLED_AFTER);
        let outcome =
            collect_checkpointed(&eco, config, &Telemetry::new(), &path, true).expect("resume");
        assert_eq!(outcome.weeks_recovered, KILLED_AFTER);
        let resumed = Kept::of(outcome);
        assert_datasets_equal(&plain, &resumed);
        // Every page carried in the first crawled week was last fetched
        // before the kill, so it can only have come from the replay.
        assert!(
            !resumed.weeks[KILLED_AFTER].carried_forward.is_empty(),
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
        )
        .expect("collect");
        let before = tear(&path);
        let other = small_eco(32, 100, 6);
        let err = collect_checkpointed(
            &other,
            CollectConfig::default(),
            &Telemetry::new(),
            &path,
            true,
        )
        .err()
        .expect("different seed must be rejected");
        assert!(matches!(err, StoreError::Mismatch(_)), "{err}");
        assert!(
            std::fs::read(&path).expect("read") == before,
            "a refusal healed"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn delta_encoding_pays_off_on_real_data() {
        let eco = small_eco(41, 150, 8);
        let path = temp_store("delta");
        let telemetry = Telemetry::new();
        collect_checkpointed(&eco, CollectConfig::default(), &telemetry, &path, false)
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
        let outcome =
            collect_checkpointed(&eco, config, &Telemetry::new(), &dir, false).expect("collect");
        assert_eq!(outcome.weeks_crawled, 6);
        assert_eq!(outcome.reader.shard_count(), 3);
        assert_datasets_equal(&plain, &Kept::of(outcome));
        // The store on disk is a directory; reading it through the
        // layout-agnostic path restores the same dataset.
        assert!(dir.is_dir(), "sharded store must be a directory");
        assert_datasets_equal(&plain, &Kept::open(&dir));
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
        commit_first_weeks(&eco, config, &telemetry, &dir, 4);
        let outcome =
            collect_checkpointed(&eco, config, &Telemetry::new(), &dir, true).expect("resume");
        assert_eq!(outcome.weeks_recovered, 4);
        assert_eq!(outcome.weeks_crawled, 2);
        let plain = testkit::collect(&eco, CollectConfig::default());
        assert_datasets_equal(&plain, &Kept::of(outcome));
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
        collect_checkpointed(&eco, three, &Telemetry::new(), &dir, false).expect("collect");
        // A torn tail a refused resume must leave where it is: the refusal
        // comes before the writer heals anything.
        let torn = dir.join(webvuln_store::shard_file_name(0));
        let before = tear(&torn);
        let two = CollectConfig {
            shards: 2,
            ..CollectConfig::default()
        };
        let err = collect_checkpointed(&eco, two, &Telemetry::new(), &dir, true)
            .err()
            .expect("shard-count change must be rejected");
        assert!(matches!(err, StoreError::Mismatch(_)), "{err}");
        assert!(err.to_string().contains("3 shards"), "{err}");
        assert!(
            std::fs::read(&torn).expect("read") == before,
            "a refusal healed"
        );
        let _ = std::fs::remove_dir_all(&dir);

        // A single-file store cannot be resumed as a sharded study.
        let path = temp_store("shard-mismatch-single");
        collect_checkpointed(
            &eco,
            CollectConfig::default(),
            &Telemetry::new(),
            &path,
            false,
        )
        .expect("collect single");
        let before = tear(&path);
        let err = collect_checkpointed(&eco, two, &Telemetry::new(), &path, true)
            .err()
            .expect("layout change must be rejected");
        assert!(matches!(err, StoreError::Mismatch(_)), "{err}");
        assert!(err.to_string().contains("single file"), "{err}");
        assert!(
            std::fs::read(&path).expect("read") == before,
            "a refusal healed"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// Appends a torn half-segment to the store file at `path`; returns
    /// the bytes it then holds.
    fn tear(path: &Path) -> Vec<u8> {
        let mut bytes = std::fs::read(path).expect("read");
        bytes.extend_from_slice(&[0x77; 41]);
        std::fs::write(path, &bytes).expect("tear");
        bytes
    }

    /// A run with no checkpoint path keeps its store in memory: finalized,
    /// every week committed, its §4.1 verdict stored, and no file written.
    #[test]
    fn a_run_without_a_checkpoint_commits_to_memory() {
        let eco = small_eco(1, 10, 2);
        let outcome = Collector::new().run(&eco).expect("collect");
        let reader = &outcome.reader;
        assert_eq!((reader.weeks_committed(), reader.shard_count()), (2, 1));
        assert_eq!(
            reader.filtered_out(),
            Some(&outcome.dataset.filtered_out[..])
        );
        assert_eq!(reader.path(), Path::new("(in memory)"));
    }

    #[test]
    fn streaming_collection_commits_identical_bytes_and_returns_a_shell() {
        let eco = small_eco(77, 100, 6);
        let config = CollectConfig {
            faults: FaultPlan::hostile(77),
            ..CollectConfig::default()
        };
        let in_memory = Collector::from_config(config).run(&eco).expect("in memory");
        let path = temp_store("stream-collect");
        let checkpointed =
            collect_checkpointed(&eco, config, &Telemetry::new(), &path, false).expect("file");
        // Same committed weeks, same filter verdict, same shell.
        assert_same_store(&in_memory.reader, &checkpointed.reader);
        assert_eq!(
            in_memory.dataset.filtered_out,
            checkpointed.dataset.filtered_out
        );
        assert_eq!(in_memory.dataset.timeline, checkpointed.dataset.timeline);
        assert_eq!(in_memory.dataset.ranks, checkpointed.dataset.ranks);
        assert_eq!(checkpointed.weeks_crawled, 6);
        // Reading the checkpoint back gives the run's weeks.
        assert_datasets_equal(&Kept::of(in_memory), &Kept::open(&path));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sharded_streaming_collection_matches_materialized_bytes() {
        let eco = small_eco(78, 90, 5);
        let config = |concurrency| CollectConfig {
            concurrency,
            shards: 3,
            ..CollectConfig::default()
        };
        let one_dir = temp_store_dir("stream-shards-1");
        let one = collect_checkpointed(&eco, config(1), &Telemetry::new(), &one_dir, false)
            .expect("one thread");
        let eight_dir = temp_store_dir("stream-shards-8");
        let eight = collect_checkpointed(&eco, config(8), &Telemetry::new(), &eight_dir, false)
            .expect("eight threads");
        assert_eq!(one.dataset.filtered_out, eight.dataset.filtered_out);
        for name in [
            "MANIFEST",
            "shard-000.wvstore",
            "shard-001.wvstore",
            "shard-002.wvstore",
        ] {
            assert_eq!(
                std::fs::read(one_dir.join(name)).expect("one-thread shard"),
                std::fs::read(eight_dir.join(name)).expect("eight-thread shard"),
                "{name}"
            );
        }
        // The shards hold the weeks of a run that kept its store in memory.
        let in_memory = testkit::collect(&eco, CollectConfig::default());
        assert_datasets_equal(&in_memory, &Kept::of(one));
        let _ = std::fs::remove_dir_all(&one_dir);
        let _ = std::fs::remove_dir_all(&eight_dir);
    }

    #[test]
    fn streaming_resume_continues_from_a_partial_store() {
        let eco = small_eco(31, 100, 6);
        let path = temp_store("stream-resume");
        let telemetry = Telemetry::new();
        // Simulate a run killed after week 3: commit 4 weeks by hand.
        commit_first_weeks(&eco, CollectConfig::default(), &telemetry, &path, 4);
        let outcome = collect_checkpointed(&eco, CollectConfig::default(), &telemetry, &path, true)
            .expect("resume");
        assert_eq!(outcome.weeks_recovered, 4);
        assert_eq!(outcome.weeks_crawled, 2);
        assert_eq!(outcome.reader.weeks_committed(), 6);
        // The healed store and the shell's verdict match an
        // uninterrupted run.
        let plain = testkit::collect(&eco, CollectConfig::default());
        assert_eq!(outcome.dataset.filtered_out, plain.filtered_out);
        assert_datasets_equal(&plain, &Kept::open(&path));
        // Resuming the now-finalized store crawls nothing and returns the
        // stored verdict.
        let finalized = collect_checkpointed(
            &eco,
            CollectConfig::default(),
            &Telemetry::new(),
            &path,
            true,
        )
        .expect("resume finalized");
        assert_eq!(finalized.weeks_crawled, 0);
        assert_eq!(finalized.reader.weeks_committed(), 6);
        assert_eq!(finalized.dataset.filtered_out, plain.filtered_out);
        let _ = std::fs::remove_file(&path);
    }
}
