#![cfg(test)]
//! The slow oracle for the rewritten accumulators: the `absorb_week`
//! bodies of [`LandscapeAccum`], [`CveExposureAccum`] and
//! [`UpdateBehaviorAccum`] as they stood before the verdict index and the
//! per-domain state — `records × page.library()` scans, one range
//! evaluation per question, a `(String, usize)` map key per domain ×
//! record × basis — kept verbatim, and a property that generated week
//! sequences give identical [`StudyAccum::finish`] artifacts either way —
//! and a third way: the same weeks written unfiltered to a store and
//! folded back as borrowed [`DecodedWeek`] views, the filter a skip.

use super::*;
use crate::dataset::WeekSnapshot;
use crate::filter::apply_filter;
use crate::store_io::snapshot_to_week;
use webvuln_fingerprint::{DetectedInclusion, Detection, PageAnalysis};
use webvuln_net::FetchSummary;
use webvuln_store::{AnyWriter, StoreWriter};

impl LandscapeAccum {
    /// Folds one week in.
    pub(super) fn oracle_absorb_week(&mut self, snapshot: &WeekSnapshot) {
        if self.libs.is_empty() {
            self.libs
                .resize_with(LibraryId::ALL.len(), LibraryState::default);
        }
        let mut week = LandscapeWeek {
            date: Some(snapshot.date),
            collected: snapshot.pages.len(),
            carried: snapshot.carried_forward.len(),
            users: vec![0; LibraryId::ALL.len()],
        };
        for page in snapshot.pages.values() {
            for (index, &library) in LibraryId::ALL.iter().enumerate() {
                let Some(det) = page.library(library) else {
                    continue;
                };
                week.users[index] += 1;
                let lib = &mut self.libs[index];
                match &det.inclusion {
                    DetectedInclusion::Internal => lib.internal += 1,
                    DetectedInclusion::External { host } => {
                        lib.external += 1;
                        if is_cdn_host(host) {
                            lib.external_cdn += 1;
                        }
                        *lib.host_counts.entry(host.clone()).or_default() += 1;
                        lib.host_total += 1;
                    }
                }
                if let Some(version) = &det.version {
                    count_version(&mut lib.version_counts, version, 1);
                    lib.users_with_version += 1;
                }
            }
        }
        self.weeks.push(week);
    }
}

impl CveExposureAccum {
    /// Folds one week in.
    pub(super) fn oracle_absorb_week(&mut self, snapshot: &WeekSnapshot, db: &VulnDb) {
        let records = db.records();
        let mut week = ExposureWeek {
            date: Some(snapshot.date),
            collected: snapshot.pages.len(),
            per_record: vec![(0, 0, 0); records.len()],
            ..ExposureWeek::default()
        };
        for (domain, page) in &snapshot.pages {
            let mut any_claimed = false;
            let mut any_tvv = false;
            let mut count_claimed = 0u64;
            let mut count_tvv = 0u64;
            for det in &page.detections {
                let Some(version) = &det.version else {
                    continue;
                };
                if db.is_vulnerable_known_by(det.library, version, Basis::CveClaimed, snapshot.date)
                {
                    any_claimed = true;
                }
                if db.is_vulnerable_known_by(
                    det.library,
                    version,
                    Basis::TrueVulnerable,
                    snapshot.date,
                ) {
                    any_tvv = true;
                }
                count_claimed +=
                    db.vuln_count_known_by(det.library, version, Basis::CveClaimed, snapshot.date)
                        as u64;
                count_tvv += db.vuln_count_known_by(
                    det.library,
                    version,
                    Basis::TrueVulnerable,
                    snapshot.date,
                ) as u64;
            }
            if any_claimed {
                week.vulnerable_claimed += 1;
            }
            if any_tvv {
                week.vulnerable_tvv += 1;
            }
            let site = self.per_site.entry(domain.clone()).or_default();
            site.claimed += count_claimed;
            site.tvv += count_tvv;
            site.weeks += 1;
            for (index, record) in records.iter().enumerate() {
                let Some(det) = page.library(record.library) else {
                    continue;
                };
                let cell = &mut week.per_record[index];
                cell.0 += 1;
                let Some(version) = &det.version else {
                    continue;
                };
                if record.claims(version) {
                    cell.1 += 1;
                }
                if record.truly_affects(version) {
                    cell.2 += 1;
                }
            }
        }
        self.weeks.push(week);
    }
}

/// [`UpdateBehaviorAccum`] with its cross-week state keyed the old way.
#[derive(Debug, Default)]
struct BehaviorOracle {
    weeks: Vec<BehaviorWeek>,
    armed_claimed: BTreeMap<(String, usize), Version>,
    armed_tvv: BTreeMap<(String, usize), Version>,
    events_claimed: Vec<(usize, String, UpdateEvent)>,
    events_tvv: Vec<(usize, String, UpdateEvent)>,
    last_versions: BTreeMap<(String, LibraryId), Version>,
    regressions: Vec<(usize, String, RegressionEvent)>,
    final_wordpress: Option<(usize, Vec<Version>)>,
}

impl BehaviorOracle {
    /// Folds one week in.
    fn absorb_week(&mut self, snapshot: &WeekSnapshot, db: &VulnDb) {
        let patched: Vec<(usize, &webvuln_cvedb::VulnRecord)> = db
            .records()
            .iter()
            .enumerate()
            .filter(|(_, r)| r.patched_date.is_some())
            .collect();
        let mut wordpress = 0usize;
        let mut wp_versions = Vec::new();
        for (domain, page) in &snapshot.pages {
            if page.wordpress.is_some() {
                wordpress += 1;
            }
            if let Some(Some(version)) = &page.wordpress {
                wp_versions.push(version.clone());
            }
            // Security updates (§7), both bases in one pass.
            for &(idx, record) in &patched {
                let Some(det) = page.library(record.library) else {
                    continue;
                };
                let Some(version) = &det.version else {
                    continue;
                };
                let patched_date = record.patched_date.expect("filtered");
                for (armed, events, affected) in [
                    (
                        &mut self.armed_claimed,
                        &mut self.events_claimed,
                        record.claims(version),
                    ),
                    (
                        &mut self.armed_tvv,
                        &mut self.events_tvv,
                        record.truly_affects(version),
                    ),
                ] {
                    let key = (domain.clone(), idx);
                    if affected {
                        armed.insert(key, version.clone());
                    } else if let Some(from_version) = armed.remove(&key) {
                        if version > &from_version && snapshot.date >= patched_date {
                            events.push((
                                snapshot.week,
                                domain.clone(),
                                UpdateEvent {
                                    domain: domain.clone(),
                                    vuln_id: record.id.clone(),
                                    from_version,
                                    to_version: version.clone(),
                                    observed: snapshot.date,
                                    delay_days: snapshot.date.days_since(patched_date),
                                    wordpress: page.wordpress.is_some(),
                                },
                            ));
                        }
                    }
                }
            }
            // Version regressions (§9).
            for det in &page.detections {
                let Some(version) = &det.version else {
                    continue;
                };
                let key = (domain.clone(), det.library);
                if let Some(prev) = self.last_versions.get(&key) {
                    if version < prev {
                        self.regressions.push((
                            snapshot.week,
                            domain.clone(),
                            RegressionEvent {
                                domain: domain.clone(),
                                library: det.library,
                                from_version: prev.clone(),
                                to_version: version.clone(),
                                observed: snapshot.date,
                                back_into_vulnerable: db.is_vulnerable_known_by(
                                    det.library,
                                    version,
                                    Basis::CveClaimed,
                                    snapshot.date,
                                ),
                            },
                        ));
                    }
                }
                self.last_versions.insert(key, version.clone());
            }
        }
        match &mut self.final_wordpress {
            Some((week, versions)) if *week == snapshot.week => versions.extend(wp_versions),
            Some((week, _)) if *week > snapshot.week => {}
            slot => *slot = Some((snapshot.week, wp_versions)),
        }
        self.weeks.push(BehaviorWeek {
            date: Some(snapshot.date),
            collected: snapshot.pages.len(),
            wordpress,
        });
    }

    /// The accumulator `finish` reads: events and weekly counts move
    /// over; the armed and last-seen maps only ever fed those.
    fn into_accum(self) -> UpdateBehaviorAccum {
        UpdateBehaviorAccum {
            weeks: self.weeks,
            domains: BTreeMap::new(),
            events_claimed: self.events_claimed,
            events_tvv: self.events_tvv,
            regressions: self.regressions,
            final_wordpress: self.final_wordpress,
        }
    }
}

/// [`StudyAccum`] with the three rewritten accumulators absorbing the
/// old way; the other three are shared.
#[derive(Debug, Default)]
struct StudyOracle {
    landscape: LandscapeAccum,
    exposure: CveExposureAccum,
    behavior: BehaviorOracle,
    collection: CollectionAccum,
    flash: FlashAccum,
    sri: SriAccum,
}

impl StudyOracle {
    fn absorb(&mut self, snapshot: &WeekSnapshot, ctx: &AccumCtx<'_>) {
        self.landscape.oracle_absorb_week(snapshot);
        self.exposure.oracle_absorb_week(snapshot, ctx.db);
        self.behavior.absorb_week(snapshot, ctx.db);
        self.collection.absorb(snapshot, ctx);
        self.flash.absorb(snapshot, ctx);
        self.sri.absorb(snapshot, ctx);
    }

    fn into_accum(self) -> StudyAccum {
        StudyAccum {
            landscape: self.landscape,
            exposure: self.exposure,
            behavior: self.behavior.into_accum(),
            collection: self.collection,
            flash: self.flash,
            sri: self.sri,
        }
    }
}

// ---------------------------------------------------------------------------
// Generated week sequences
// ---------------------------------------------------------------------------

use webvuln_cvedb::AttackType;
use webvuln_failpoint::check::{self, Gen};
use webvuln_fingerprint::{ExternalScript, FlashDetection};
use webvuln_version::{Interval, IntervalSet};

/// Libraries the generator deploys: six with records, two without.
const LIBRARIES: [LibraryId; 8] = [
    LibraryId::JQuery,
    LibraryId::Bootstrap,
    LibraryId::JQueryMigrate,
    LibraryId::JQueryUi,
    LibraryId::MomentJs,
    LibraryId::Prototype,
    LibraryId::Modernizr,
    LibraryId::SwfObject,
];

const HOSTS: [&str; 3] = ["code.jquery.com", "cdnjs.cloudflare.com", "static.example"];

fn day(g: &mut Gen) -> Date {
    // 2014-01-01 … late 2022: before, between and after every
    // disclosure and patch date in the corpus.
    Date::from_day_number(16_071 + g.range(0..=3_200) as i32)
}

/// What the generators draw from.
pub(super) struct Corpus<'a> {
    pub(super) db: &'a VulnDb,
    pub(super) wordpress: &'a [webvuln_cvedb::Release],
    /// Whether releases may be spelled with a trailing zero more or less
    /// (equal, printed differently).
    pub(super) respell: bool,
}

/// A version for `library`: usually a catalog release, sometimes a
/// respelled one, sometimes one no catalog holds, sometimes none at all.
fn version(g: &mut Gen, corpus: &Corpus<'_>, library: LibraryId) -> Option<Version> {
    let releases = &corpus.db.catalog(library).releases;
    // Half of a respelling case's draws come from the newest few releases,
    // so that both spellings of one version — and of the newest observed,
    // which Table 1 prints — meet in one case, on either side of a merge.
    let pool = if corpus.respell && g.bool() {
        &releases[releases.len().saturating_sub(3)..]
    } else {
        &releases[..]
    };
    let release = g.pick(pool).version.clone();
    match g.range(0..=9) {
        0 | 1 => None,
        2 => Some(Version::parse("9.9.9-beta").expect("valid version")),
        3..=5 if corpus.respell => {
            let text = release.to_string();
            let respelled = match text.strip_suffix(".0") {
                Some(shorter) => shorter.to_string(),
                None => format!("{text}.0"),
            };
            Some(Version::parse(&respelled).expect("valid version"))
        }
        _ => Some(release),
    }
}

fn detection(g: &mut Gen, corpus: &Corpus<'_>) -> Detection {
    let library = *g.pick(&LIBRARIES);
    Detection {
        library,
        version: version(g, corpus, library),
        inclusion: if g.bool() {
            DetectedInclusion::Internal
        } else {
            DetectedInclusion::External {
                host: g.pick(&HOSTS).to_string(),
            }
        },
        integrity: g.bool(),
        crossorigin: None,
        url: String::new(),
    }
}

fn page(g: &mut Gen, corpus: &Corpus<'_>) -> PageAnalysis {
    PageAnalysis {
        // Repeats of one library on a page are wanted: only the first
        // counts for the per-library views, every one for the others.
        detections: g.vec(0..=4, |g| detection(g, corpus)),
        wordpress: match g.range(0..=4) {
            0 => Some(None),
            1 => Some(Some(g.pick(corpus.wordpress).version.clone())),
            _ => None,
        },
        flash: g.vec(0..=1, |g| FlashDetection {
            swf_url: "/movie.swf".to_string(),
            allow_script_access: match g.range(0..=2) {
                0 => None,
                1 => Some("always".to_string()),
                _ => Some("samedomain".to_string()),
            },
        }),
        resource_types: ResourceType::ALL.into_iter().filter(|_| g.bool()).collect(),
        github_scripts: g.vec(0..=1, |g| ExternalScript {
            host: "user.github.io".to_string(),
            url: "https://user.github.io/lib.js".to_string(),
            integrity: g.bool(),
            crossorigin: None,
        }),
        external_scripts: g.range(0..=3) as usize,
        external_scripts_without_integrity: g.range(0..=1) as usize,
        crossorigin_values: g.vec(0..=2, |g| {
            g.pick(&["anonymous", "use-credentials", ""]).to_string()
        }),
    }
}

/// Week sequences in which domains appear and vanish, pages are carried
/// forward, and a domain's libraries persist while their versions rise,
/// fall, disappear and return. The fetch summaries are what a crawl
/// would have recorded beside such pages — a usable fetch beside a fresh
/// page, a failed one beside a carried page, a failed one or none at all
/// beside no page — so the weeks survive a store.
pub(super) fn weeks(g: &mut Gen, corpus: &Corpus<'_>, domains: &[String]) -> Vec<WeekSnapshot> {
    let mut date = day(g);
    let mut last: BTreeMap<&String, PageAnalysis> = BTreeMap::new();
    let mut week = 0;
    let (up, down) = ((Some(200), 5_000), (None, 0));
    let summary = |(status, body_len)| FetchSummary { status, body_len };
    g.vec(1..=10, |g| {
        let mut pages = BTreeMap::new();
        let mut summaries = BTreeMap::new();
        let mut carried_forward = BTreeSet::new();
        for domain in domains {
            let fresh = match (g.range(0..=9), last.get(domain)) {
                (0, _) => continue,
                (1, _) => {
                    summaries.insert(domain.clone(), summary(down));
                    continue;
                }
                (2, Some(prior)) => {
                    pages.insert(domain.clone(), prior.clone());
                    summaries.insert(domain.clone(), summary(down));
                    carried_forward.insert(domain.clone());
                    continue;
                }
                (3..=6, Some(prior)) => {
                    let mut evolved = prior.clone();
                    for det in &mut evolved.detections {
                        if g.bool() {
                            det.version = version(g, corpus, det.library);
                        }
                    }
                    evolved
                }
                _ => page(g, corpus),
            };
            last.insert(domain, fresh.clone());
            pages.insert(domain.clone(), fresh);
            summaries.insert(domain.clone(), summary(up));
        }
        let snapshot = WeekSnapshot {
            week,
            date,
            pages,
            summaries,
            carried_forward,
        };
        week += 1;
        date = date.add_days(g.range(7..=150) as i32);
        snapshot
    })
}

/// A CVE delta as the watch daemon would apply it; IDs repeat on
/// purpose (re-applied records must stay no-ops).
pub(super) fn delta(g: &mut Gen, db: &VulnDb) -> Vec<VulnRecord> {
    g.vec(0..=3, |g| {
        let library = *g.pick(&LIBRARIES);
        let releases = &db.catalog(library).releases;
        let fixed_in = g.pick(releases).version.clone();
        let patched = g.bool();
        VulnRecord {
            id: format!("CVE-2099-{:04}", g.range(0..=2)),
            has_cve_id: true,
            library,
            claimed: IntervalSet::from_interval(Interval::below(fixed_in.clone())),
            tvv: g.bool().then(|| {
                IntervalSet::from_interval(Interval::at_most(g.pick(releases).version.clone()))
            }),
            patched_version: patched.then_some(fixed_in),
            disclosed: day(g),
            patched_date: patched.then(|| day(g)),
            attack: AttackType::Xss,
            has_poc: false,
        }
    })
}

/// `weeks`, unfiltered, written to a store of a drawn layout (one file or
/// 2–3 shards, each with a symbol table of its own) and folded back on
/// 1–3 threads as borrowed views that skip `filtered`.
fn fold_through_a_store(
    g: &mut Gen,
    weeks: &[WeekSnapshot],
    ctx: &AccumCtx<'_>,
    filtered: &BTreeSet<String>,
) -> StudyAccum {
    static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("accum-oracle-{}-{case}", std::process::id()));
    let mut ranks: Vec<(String, u64)> = ctx
        .ranks
        .iter()
        .map(|(d, &r)| (d.clone(), r as u64))
        .collect();
    ranks.sort_by_key(|&(_, rank)| rank);
    let genesis = Genesis {
        start_days: i64::from(weeks[0].date.day_number()),
        weeks_total: weeks.len(),
        ranks,
    };
    let mut writer = match g.range(1..=3) as usize {
        1 => StoreWriter::create(&path, genesis).expect("create").into(),
        shards => AnyWriter::create(&path, genesis, shards).expect("create"),
    };
    for week in weeks.iter().map(snapshot_to_week) {
        writer.commit_week(&week).expect("commit");
    }
    let reader = AnyReader::open(&path).expect("open");
    let folded = fold_store(&reader, ctx, g.range(1..=3) as usize, filtered).expect("fold");
    let _ = std::fs::remove_dir_all(&path).or_else(|_| std::fs::remove_file(&path));
    folded
}

/// Everything an accumulator's readers can see: the finished artifacts,
/// and the per-week landscape the serve layer answers from (the one place
/// the carried-forward count shows).
pub(super) fn dump(accum: &StudyAccum, db: &VulnDb) -> String {
    let weekly: Vec<_> = (0..accum.landscape.week_count())
        .map(|week| accum.landscape.week(week))
        .collect();
    format!("{:#?}\n{weekly:#?}", accum.finish(db))
}

/// `assert_eq!` on two artifact dumps that reports the first differing
/// line rather than both dumps whole.
pub(super) fn assert_same(actual: &str, expected: &str, what: &str) {
    if actual == expected {
        return;
    }
    let line = actual
        .lines()
        .zip(expected.lines())
        .position(|(a, e)| a != e)
        .unwrap_or(0);
    let around = |text: &str| {
        text.lines()
            .skip(line.saturating_sub(12))
            .take(16)
            .collect::<Vec<_>>()
            .join("\n")
    };
    panic!(
        "{what}: artifacts differ from the oracle's at line {line}\n--- got\n{}\n--- expected\n{}",
        around(actual),
        around(expected)
    );
}

#[test]
fn rewritten_accumulators_agree_with_the_oracle() {
    let wordpress = webvuln_cvedb::wordpress_catalog();
    check::run("accumulators agree with the oracle", 192, |g| {
        let mut db = VulnDb::builtin();
        let extra = delta(g, &db);
        db.extend(extra);
        let domains: Vec<String> = (0..g.range(1..=12))
            .map(|i| format!("site{i:02}.{}", ["com", "cn", "org"][i as usize % 3]))
            .collect();
        let ranks: BTreeMap<String, usize> = domains
            .iter()
            .enumerate()
            .map(|(i, domain)| (domain.clone(), i + 1))
            .collect();
        let ctx = AccumCtx {
            db: &db,
            ranks: &ranks,
        };
        let corpus = Corpus {
            db: &db,
            wordpress: &wordpress,
            respell: g.bool(),
        };
        // What the accumulators are shown is the weeks minus a drawn §4.1
        // verdict: dropped from the snapshots, skipped by the store views.
        let raw = weeks(g, &corpus, &domains);
        let filtered: BTreeSet<String> = domains
            .iter()
            .filter(|_| g.range(0..=3) == 0)
            .cloned()
            .collect();
        let mut weeks = raw.clone();
        weeks
            .iter_mut()
            .for_each(|week| apply_filter(week, &filtered));

        let mut oracle = StudyOracle::default();
        let mut whole = StudyAccum::default();
        for week in &weeks {
            oracle.absorb(week, &ctx);
            whole.absorb(week, &ctx);
        }
        let expected = dump(&oracle.into_accum(), &db);
        assert_same(&dump(&whole, &db), &expected, "whole");
        let stored = fold_through_a_store(g, &raw, &ctx, &filtered);
        assert_same(&dump(&stored, &db), &expected, "stored");

        // Random domain partitions absorb the first weeks and are merged
        // in a random order; the merged accumulator absorbs the rest
        // whole, as the watch daemon's does after a cold sharded fold.
        let parts = g.range(1..=4) as usize;
        let part_of: BTreeMap<&String, usize> = domains
            .iter()
            .map(|domain| (domain, g.range(0..=parts as u64 - 1) as usize))
            .collect();
        let (partitioned, rest) = weeks.split_at(g.range(0..=weeks.len() as u64) as usize);
        let mut partials: Vec<StudyAccum> = (0..parts)
            .map(|part| {
                let mut accum = StudyAccum::default();
                for week in partitioned {
                    let mut slice = week.clone();
                    slice.pages.retain(|domain, _| part_of[domain] == part);
                    slice
                        .carried_forward
                        .retain(|domain| part_of[domain] == part);
                    accum.absorb(&slice, &ctx);
                }
                accum
            })
            .collect();
        let mut merged = StudyAccum::default();
        while !partials.is_empty() {
            let next = g.range(0..=partials.len() as u64 - 1) as usize;
            merged.merge(partials.swap_remove(next));
        }
        for week in rest {
            merged.absorb(week, &ctx);
        }
        assert_same(&dump(&merged, &db), &expected, "merged");
    });
}
