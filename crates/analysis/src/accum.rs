//! Mergeable streaming accumulators — the paper-scale analysis core.
//!
//! Every figure and table the study produces folds over the dataset one
//! week at a time. This module reifies those folds as accumulators with
//! two operations:
//!
//! * `absorb(week, ctx)` — fold one [`WeekView`] in (weeks must arrive in
//!   ascending order for the cross-week trackers to arm correctly);
//! * `merge(other)` — combine two accumulators built over **disjoint
//!   domain partitions** of the same week sequence.
//!
//! `merge` is associative with [`Default`] as identity, so a store can
//! be folded as domain-disjoint slices on the exec pool (a shard each, or
//! a hash partition of a single file each), and the finished artifacts
//! are byte-identical to one sequential fold: all floating-point
//! aggregation happens in `finish` from merged integer state, in
//! canonical (week, domain) order, never during absorb or merge.
//!
//! The CVE join itself — which records apply to a detected `(library,
//! version)` — is answered by [`VulnDb::verdict`] from the verdict index
//! the database builds once; absorbing asks it once per detection.
//!
//! [`fold_store`] is the entry point: it drives any [`AnyReader`] through
//! an accumulator without building a [`WeekSnapshot`](crate::WeekSnapshot)
//! — each worker absorbs its weeks as [`DecodedWeek`] views over the
//! reader's own records — so peak memory is one borrowed week per worker
//! plus the accumulator.

use crate::filter::store_filter_verdict;
use crate::flash::{flash_eol, tier_cutoff, FlashByTld, FlashUsage, ScriptAccessAudit};
use crate::landscape::{is_cdn_host, CdnBreakdown, LibraryRow, UsageTrend};
use crate::resources::{CollectionSeries, ResourceUsage};
use crate::sri::{CrossoriginCensus, GithubReport, SriAdoption};
use crate::stats::{mean, median, Cdf};
use crate::store_io::{DecodedWeek, SymbolCache};
use crate::updates::{RegressionEvent, UpdateDelayReport, UpdateEvent, WordPressUsage};
use crate::view::{DetectionView, PageView, WeekView};
use crate::vuln::{CveImpact, PrevalenceSeries, RefinementSummary, VulnCountDistribution};
use crate::wordpress::WordPressCveRow;
use std::collections::{BTreeMap, BTreeSet};
use webvuln_cvedb::{Basis, Date, LibraryId, Verdict, VulnDb, VulnRecord};
use webvuln_exec::Executor;
use webvuln_fingerprint::ResourceType;
use webvuln_store::{
    shard_of, AnyReader, DomainRecord, Genesis, StoreError, StoreReader, Sym, WeekData,
};
use webvuln_version::Version;

// ---------------------------------------------------------------------------
// Context and trait
// ---------------------------------------------------------------------------

/// Read-only context an accumulator needs while absorbing: the CVE
/// database and the rank list (for tier cutoffs and rank lookups).
pub struct AccumCtx<'a> {
    /// The vulnerability database.
    pub db: &'a VulnDb,
    /// Domain → 1-based rank, for the whole study population.
    pub ranks: &'a BTreeMap<String, usize>,
}

/// A mergeable fold over weeks.
///
/// Implementations must satisfy, for domain-disjoint partitions absorbed
/// over the same weeks in order: `merge` is associative, commutative up
/// to the deterministic finish, and `Default` is its identity.
pub trait Accumulate: Sized + Send {
    /// Folds one week in. Weeks must be absorbed in ascending order.
    fn absorb<W: WeekView>(&mut self, week: &W, ctx: &AccumCtx<'_>);
    /// Combines a partition's state into `self`.
    fn merge(&mut self, other: Self);
}

/// Merges two per-week vectors pointwise with `combine`; either side may
/// be empty (the identity accumulator has absorbed no weeks).
fn zip_merge<T>(weeks: &mut Vec<T>, other: Vec<T>, mut combine: impl FnMut(&mut T, T)) {
    if weeks.is_empty() {
        *weeks = other;
        return;
    }
    if other.is_empty() {
        return;
    }
    assert_eq!(
        weeks.len(),
        other.len(),
        "merged accumulators must cover the same weeks"
    );
    for (into, from) in weeks.iter_mut().zip(other) {
        combine(into, from);
    }
}

fn add_counts<K: Ord>(into: &mut BTreeMap<K, usize>, from: BTreeMap<K, usize>) {
    for (key, count) in from {
        *into.entry(key).or_default() += count;
    }
}

/// `*counts.entry(key.to_string()).or_default() += 1`, allocating the key
/// only the first time it is seen.
fn bump(counts: &mut BTreeMap<String, usize>, key: &str) {
    match counts.get_mut(key) {
        Some(count) => *count += 1,
        None => {
            counts.insert(key.to_string(), 1);
        }
    }
}

/// Adds `count` sightings of `version`. `Version`'s `Ord` makes `2.2` and
/// `2.2.0` one key, so which *spelling* the key keeps — the one Table 1
/// prints — is decided by a rule that ignores arrival order (fewest
/// components, then the shorter, then the lesser pre-release tag):
/// absorbing or merging mixed spellings in any order keeps the same one.
fn count_version(counts: &mut BTreeMap<Version, usize>, version: &Version, count: usize) {
    fn spelling(v: &Version) -> (usize, Option<usize>, Option<&str>) {
        (v.parts().len(), v.pre().map(str::len), v.pre())
    }
    let respelled = match counts.range_mut(version..=version).next() {
        Some((kept, total)) => {
            *total += count;
            spelling(version) < spelling(kept)
        }
        None => {
            counts.insert(version.clone(), count);
            false
        }
    };
    if respelled {
        let total = counts.remove(version).expect("counted above");
        counts.insert(version.clone(), total);
    }
}

/// Runs `update` on `domain`'s entry, creating it on first sight: one
/// lookup and no key clone for a domain already tracked.
fn with_domain<V: Default>(
    map: &mut BTreeMap<String, V>,
    domain: &str,
    update: impl FnOnce(&mut V),
) {
    match map.get_mut(domain) {
        Some(state) => update(state),
        None => update(map.entry(domain.to_string()).or_default()),
    }
}

/// The page's first detection of each library, indexed by
/// [`LibraryId::index`] — every `page.library(..)` answer in one pass.
fn first_detections(page: &impl PageView) -> [Option<DetectionView<'_>>; LibraryId::ALL.len()] {
    let mut first = [None; LibraryId::ALL.len()];
    for det in page.detections() {
        first[det.library.index()].get_or_insert(det);
    }
    first
}

/// Sorts partition-tagged events back into the sequential scan order:
/// week ascending, then domain ascending. Within one (week, domain) all
/// events come from a single partition in absorb order, so the stable
/// sort reproduces one sequential fold exactly.
fn sequential_order<E>(events: &mut [(usize, String, E)]) {
    events.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
}

// ---------------------------------------------------------------------------
// Landscape (§6.1): Table 1, Figure 3, Table 5
// ---------------------------------------------------------------------------

#[derive(Debug, Default, Clone)]
struct LandscapeWeek {
    date: Option<Date>,
    collected: usize,
    carried: usize,
    /// Per-library user counts, indexed like `LibraryId::ALL`.
    users: Vec<usize>,
}

/// One week's landscape summary (the `/week/{w}/landscape` payload).
#[derive(Debug, Clone)]
pub struct WeekLandscape {
    /// Snapshot date.
    pub date: Date,
    /// Pages collected that week (post-filter).
    pub collected: usize,
    /// Pages carried forward from the previous snapshot.
    pub carried_forward: usize,
    /// Per-library user counts, indexed like `LibraryId::ALL`.
    pub users: Vec<usize>,
}

#[derive(Debug, Default, Clone)]
struct LibraryState {
    internal: usize,
    external: usize,
    external_cdn: usize,
    version_counts: BTreeMap<Version, usize>,
    users_with_version: usize,
    host_counts: BTreeMap<String, usize>,
    host_total: usize,
}

/// The §6.1 landscape: Table 1, Figure 3's usage trends and Table 5.
#[derive(Debug, Default, Clone)]
pub struct LandscapeAccum {
    weeks: Vec<LandscapeWeek>,
    libs: Vec<LibraryState>,
}

impl LandscapeAccum {
    /// Table 1 rows, ordered by usage share descending.
    pub fn table1(&self, db: &VulnDb) -> Vec<LibraryRow> {
        let mut rows: Vec<LibraryRow> = LibraryId::ALL
            .iter()
            .enumerate()
            .map(|(index, &library)| {
                let lib = self.libs.get(index).cloned().unwrap_or_default();
                let mut weekly_sites = Vec::new();
                let mut weekly_share = Vec::new();
                for week in &self.weeks {
                    let users = week.users[index];
                    weekly_sites.push(users as f64);
                    weekly_share.push(users as f64 / week.collected.max(1) as f64);
                }
                let inclusions = (lib.internal + lib.external).max(1);
                let dominant = lib
                    .version_counts
                    .iter()
                    .max_by_key(|(_, &count)| count)
                    .map(|(version, &count)| {
                        (
                            version.clone(),
                            count as f64 / lib.users_with_version.max(1) as f64,
                        )
                    });
                let latest_observed = lib.version_counts.keys().max().cloned();
                LibraryRow {
                    library,
                    average_sites: mean(&weekly_sites),
                    usage_share: mean(&weekly_share),
                    internal_share: lib.internal as f64 / inclusions as f64,
                    external_share: lib.external as f64 / inclusions as f64,
                    cdn_share: lib.external_cdn as f64 / lib.external.max(1) as f64,
                    versions_found: lib.version_counts.len(),
                    versions_total: db.catalog(library).len(),
                    dominant,
                    latest_observed,
                    vuln_reports: db.vuln_report_count(library),
                }
            })
            .collect();
        rows.sort_by(|a, b| b.usage_share.partial_cmp(&a.usage_share).expect("no NaNs"));
        rows
    }

    /// Figure 3's per-library usage-share series.
    pub fn trends(&self) -> Vec<UsageTrend> {
        LibraryId::ALL
            .iter()
            .enumerate()
            .map(|(index, &library)| UsageTrend {
                library,
                points: self
                    .weeks
                    .iter()
                    .map(|week| {
                        (
                            week.date.expect("absorbed week has a date"),
                            week.users[index] as f64 / week.collected.max(1) as f64,
                        )
                    })
                    .collect(),
            })
            .collect()
    }

    /// Table 5: top external hosts per library.
    pub fn table5(&self, top: usize) -> Vec<CdnBreakdown> {
        LibraryId::ALL
            .iter()
            .enumerate()
            .map(|(index, &library)| {
                let lib = self.libs.get(index).cloned().unwrap_or_default();
                let mut hosts: Vec<(String, f64)> = lib
                    .host_counts
                    .into_iter()
                    .map(|(h, c)| (h, c as f64 / lib.host_total.max(1) as f64))
                    .collect();
                hosts.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaNs"));
                hosts.truncate(top);
                CdnBreakdown { library, hosts }
            })
            .collect()
    }

    /// Number of absorbed weeks.
    pub fn week_count(&self) -> usize {
        self.weeks.len()
    }

    /// The landscape summary for one week, if absorbed.
    pub fn week(&self, index: usize) -> Option<WeekLandscape> {
        self.weeks.get(index).map(|week| WeekLandscape {
            date: week.date.expect("absorbed week has a date"),
            collected: week.collected,
            carried_forward: week.carried,
            users: week.users.clone(),
        })
    }
}

impl Accumulate for LandscapeAccum {
    fn absorb<W: WeekView>(&mut self, snapshot: &W, _ctx: &AccumCtx<'_>) {
        if self.libs.is_empty() {
            self.libs
                .resize_with(LibraryId::ALL.len(), LibraryState::default);
        }
        let mut week = LandscapeWeek {
            date: Some(snapshot.date()),
            collected: snapshot.collected(),
            carried: snapshot.carried(),
            users: vec![0; LibraryId::ALL.len()],
        };
        for (_, page) in snapshot.pages() {
            for (index, det) in first_detections(page).into_iter().enumerate() {
                let Some(det) = det else {
                    continue;
                };
                week.users[index] += 1;
                let lib = &mut self.libs[index];
                match det.external_host {
                    None => lib.internal += 1,
                    Some(host) => {
                        lib.external += 1;
                        if is_cdn_host(host) {
                            lib.external_cdn += 1;
                        }
                        bump(&mut lib.host_counts, host);
                        lib.host_total += 1;
                    }
                }
                if let Some(version) = det.version {
                    count_version(&mut lib.version_counts, version, 1);
                    lib.users_with_version += 1;
                }
            }
        }
        self.weeks.push(week);
    }

    fn merge(&mut self, other: LandscapeAccum) {
        zip_merge(&mut self.weeks, other.weeks, |into, from| {
            into.collected += from.collected;
            into.carried += from.carried;
            for (u, v) in into.users.iter_mut().zip(from.users) {
                *u += v;
            }
        });
        if self.libs.is_empty() {
            self.libs = other.libs;
            return;
        }
        if other.libs.is_empty() {
            return;
        }
        for (into, from) in self.libs.iter_mut().zip(other.libs) {
            into.internal += from.internal;
            into.external += from.external;
            into.external_cdn += from.external_cdn;
            into.users_with_version += from.users_with_version;
            into.host_total += from.host_total;
            for (version, count) in &from.version_counts {
                count_version(&mut into.version_counts, version, *count);
            }
            add_counts(&mut into.host_counts, from.host_counts);
        }
    }
}

// ---------------------------------------------------------------------------
// CVE exposure (§6.2/§6.4): prevalence, Table 2 impacts, Figure 12
// ---------------------------------------------------------------------------

#[derive(Debug, Default, Clone)]
struct ExposureWeek {
    date: Option<Date>,
    collected: usize,
    vulnerable_claimed: usize,
    vulnerable_tvv: usize,
    /// Per-record `(users, claimed, truly)`, indexed like `db.records()`.
    per_record: Vec<(usize, usize, usize)>,
}

#[derive(Debug, Default, Clone, Copy)]
struct SiteVulnSums {
    claimed: u64,
    tvv: u64,
    weeks: u64,
}

/// CVE exposure: §6.2 prevalence, per-CVE impact (Table 2, Figures 5/14),
/// Figure 12's distribution and the §6.4 refinement summary.
#[derive(Debug, Default, Clone)]
pub struct CveExposureAccum {
    weeks: Vec<ExposureWeek>,
    per_site: BTreeMap<String, SiteVulnSums>,
}

impl CveExposureAccum {
    /// §6.2's weekly prevalence series under one basis.
    pub fn prevalence(&self, basis: Basis) -> PrevalenceSeries {
        let points: Vec<(Date, f64)> = self
            .weeks
            .iter()
            .map(|week| {
                let vulnerable = match basis {
                    Basis::CveClaimed => week.vulnerable_claimed,
                    Basis::TrueVulnerable => week.vulnerable_tvv,
                };
                (
                    week.date.expect("absorbed week has a date"),
                    vulnerable as f64 / week.collected.max(1) as f64,
                )
            })
            .collect();
        let average = mean(&points.iter().map(|&(_, f)| f).collect::<Vec<_>>());
        PrevalenceSeries {
            basis,
            points,
            average,
        }
    }

    /// §6.4's claimed-vs-TVV comparison.
    pub fn refinement(&self) -> RefinementSummary {
        let claimed = self.prevalence(Basis::CveClaimed);
        let tvv = self.prevalence(Basis::TrueVulnerable);
        let gap = claimed
            .points
            .iter()
            .zip(&tvv.points)
            .map(|(&(d, c), &(_, t))| (d, t - c))
            .collect();
        RefinementSummary {
            claimed_average: claimed.average,
            true_average: tvv.average,
            gap,
        }
    }

    /// Per-CVE impact series for every record in the database.
    pub fn cve_impacts(&self, db: &VulnDb) -> Vec<CveImpact> {
        db.records()
            .iter()
            .enumerate()
            .map(|(index, record)| {
                let mut claimed_sites = Vec::new();
                let mut true_sites = Vec::new();
                let mut shares = Vec::new();
                for week in &self.weeks {
                    let (users, claimed, truly) =
                        week.per_record.get(index).copied().unwrap_or((0, 0, 0));
                    let date = week.date.expect("absorbed week has a date");
                    claimed_sites.push((date, claimed));
                    true_sites.push((date, truly));
                    shares.push(if users == 0 {
                        0.0
                    } else {
                        claimed as f64 / users as f64
                    });
                }
                CveImpact {
                    id: record.id.clone(),
                    claimed_average: mean(
                        &claimed_sites
                            .iter()
                            .map(|&(_, c)| c as f64)
                            .collect::<Vec<_>>(),
                    ),
                    true_average: mean(
                        &true_sites
                            .iter()
                            .map(|&(_, c)| c as f64)
                            .collect::<Vec<_>>(),
                    ),
                    claimed_share_of_users: mean(&shares),
                    claimed_sites,
                    true_sites,
                }
            })
            .collect()
    }

    /// Figure 12's per-website vulnerability-count distribution.
    pub fn distribution(&self, basis: Basis) -> VulnCountDistribution {
        let averages: Vec<f64> = self
            .per_site
            .values()
            .map(|site| {
                let sum = match basis {
                    Basis::CveClaimed => site.claimed,
                    Basis::TrueVulnerable => site.tvv,
                };
                sum as f64 / site.weeks.max(1) as f64
            })
            .collect();
        VulnCountDistribution {
            basis,
            cdf: Cdf::of(&averages),
            mean: mean(&averages),
            median: median(&averages),
        }
    }
}

impl Accumulate for CveExposureAccum {
    fn absorb<W: WeekView>(&mut self, snapshot: &W, ctx: &AccumCtx<'_>) {
        let db = ctx.db;
        let date = snapshot.date();
        let mut week = ExposureWeek {
            date: Some(date),
            collected: snapshot.collected(),
            per_record: vec![(0, 0, 0); db.records().len()],
            ..ExposureWeek::default()
        };
        for (domain, page) in snapshot.pages() {
            // One verdict per detection; each library's first detection
            // keeps its own for the per-record cells below.
            let mut first: [Option<Option<Verdict<'_>>>; LibraryId::ALL.len()] =
                [None; LibraryId::ALL.len()];
            let mut count_claimed = 0u64;
            let mut count_tvv = 0u64;
            for det in page.detections() {
                let verdict = det.version.map(|version| db.verdict(det.library, version));
                if let Some(verdict) = &verdict {
                    count_claimed += verdict.count_known_by(Basis::CveClaimed, date) as u64;
                    count_tvv += verdict.count_known_by(Basis::TrueVulnerable, date) as u64;
                }
                first[det.library.index()].get_or_insert(verdict);
            }
            if count_claimed > 0 {
                week.vulnerable_claimed += 1;
            }
            if count_tvv > 0 {
                week.vulnerable_tvv += 1;
            }
            with_domain(&mut self.per_site, domain, |site| {
                site.claimed += count_claimed;
                site.tvv += count_tvv;
                site.weeks += 1;
            });
            for (library, verdict) in LibraryId::ALL.into_iter().zip(first) {
                let Some(verdict) = verdict else {
                    continue;
                };
                for (pos, &index) in db.record_indices(library).iter().enumerate() {
                    let cell = &mut week.per_record[index];
                    cell.0 += 1;
                    let Some(verdict) = &verdict else {
                        continue;
                    };
                    if verdict.applies(pos, Basis::CveClaimed) {
                        cell.1 += 1;
                    }
                    if verdict.applies(pos, Basis::TrueVulnerable) {
                        cell.2 += 1;
                    }
                }
            }
        }
        self.weeks.push(week);
    }

    fn merge(&mut self, other: CveExposureAccum) {
        zip_merge(&mut self.weeks, other.weeks, |into, from| {
            into.collected += from.collected;
            into.vulnerable_claimed += from.vulnerable_claimed;
            into.vulnerable_tvv += from.vulnerable_tvv;
            for (u, v) in into.per_record.iter_mut().zip(from.per_record) {
                u.0 += v.0;
                u.1 += v.1;
                u.2 += v.2;
            }
        });
        for (domain, from) in other.per_site {
            let site = self.per_site.entry(domain).or_default();
            site.claimed += from.claimed;
            site.tvv += from.tvv;
            site.weeks += from.weeks;
        }
    }
}

// ---------------------------------------------------------------------------
// Update behavior (§7/§9): delays, regressions, WordPress
// ---------------------------------------------------------------------------

#[derive(Debug, Default, Clone)]
struct BehaviorWeek {
    date: Option<Date>,
    collected: usize,
    wordpress: usize,
}

/// What the cross-week trackers remember about one domain. A site runs
/// a handful of libraries, so each list stays a few entries long.
#[derive(Debug, Default, Clone)]
struct DomainTrack {
    /// Per patched record (by index in `db.records()`), the vulnerable
    /// version last seen under the CVE-claimed ranges.
    armed_claimed: Vec<(usize, Version)>,
    /// The same under the True Vulnerable Versions.
    armed_tvv: Vec<(usize, Version)>,
    /// The version each library was last seen at.
    last_versions: Vec<(LibraryId, Version)>,
}

/// Update behavior: §7 update delays, §9 regressions, Figure 9's
/// WordPress usage and Table 4.
#[derive(Debug, Default, Clone)]
pub struct UpdateBehaviorAccum {
    weeks: Vec<BehaviorWeek>,
    domains: BTreeMap<String, DomainTrack>,
    events_claimed: Vec<(usize, String, UpdateEvent)>,
    events_tvv: Vec<(usize, String, UpdateEvent)>,
    regressions: Vec<(usize, String, RegressionEvent)>,
    /// WordPress core versions at the newest absorbed week.
    final_wordpress: Option<(usize, Vec<Version>)>,
}

impl UpdateBehaviorAccum {
    /// §7's update-delay report under one basis.
    pub fn delays(&self, basis: Basis) -> UpdateDelayReport {
        let mut tagged: Vec<(usize, String, UpdateEvent)> = match basis {
            Basis::CveClaimed => self.events_claimed.clone(),
            Basis::TrueVulnerable => self.events_tvv.clone(),
        };
        sequential_order(&mut tagged);
        let events: Vec<UpdateEvent> = tagged.into_iter().map(|(_, _, e)| e).collect();
        let delays: Vec<f64> = events.iter().map(|e| e.delay_days as f64).collect();
        let websites = events
            .iter()
            .map(|e| &e.domain)
            .collect::<BTreeSet<_>>()
            .len();
        let wp = events.iter().filter(|e| e.wordpress).count();
        let mut grouped: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for e in &events {
            grouped
                .entry(e.vuln_id.as_str())
                .or_default()
                .push(e.delay_days as f64);
        }
        let per_vuln: Vec<(String, f64, usize)> = grouped
            .into_iter()
            .map(|(id, d)| (id.to_string(), mean(&d), d.len()))
            .collect();
        let macro_mean_delay_days = mean(&per_vuln.iter().map(|&(_, m, _)| m).collect::<Vec<_>>());
        UpdateDelayReport {
            basis,
            mean_delay_days: mean(&delays),
            per_vuln,
            macro_mean_delay_days,
            websites,
            wordpress_share: wp as f64 / events.len().max(1) as f64,
            events,
        }
    }

    /// §9's version-downgrade events, in sequential scan order.
    pub fn regression_events(&self) -> Vec<RegressionEvent> {
        let mut tagged = self.regressions.clone();
        sequential_order(&mut tagged);
        tagged.into_iter().map(|(_, _, e)| e).collect()
    }

    /// Figure 9: WordPress usage over time.
    pub fn wordpress_usage(&self) -> WordPressUsage {
        let points: Vec<(Date, usize, usize)> = self
            .weeks
            .iter()
            .map(|week| {
                (
                    week.date.expect("absorbed week has a date"),
                    week.collected,
                    week.wordpress,
                )
            })
            .collect();
        let shares: Vec<f64> = points
            .iter()
            .map(|&(_, total, wp)| wp as f64 / total.max(1) as f64)
            .collect();
        WordPressUsage {
            points,
            average_share: mean(&shares),
        }
    }

    /// Table 4: WordPress CVE census at the final snapshot.
    pub fn table4(&self, db: &VulnDb) -> Vec<WordPressCveRow> {
        let versions: &[Version] = self
            .final_wordpress
            .as_ref()
            .map(|(_, v)| v.as_slice())
            .unwrap_or_default();
        db.wordpress_cves()
            .iter()
            .map(|cve| {
                let affected = versions.iter().filter(|v| cve.affected.contains(v)).count();
                WordPressCveRow {
                    cve: cve.clone(),
                    affected_sites: affected,
                    affected_share: affected as f64 / versions.len().max(1) as f64,
                }
            })
            .collect()
    }
}

impl Accumulate for UpdateBehaviorAccum {
    fn absorb<W: WeekView>(&mut self, snapshot: &W, ctx: &AccumCtx<'_>) {
        let db = ctx.db;
        let (this_week, date) = (snapshot.week(), snapshot.date());
        // Patched records in corpus order, each with its position among
        // its library's records (the verdict's bit) and its patch date.
        let patched: Vec<(usize, &VulnRecord, usize, Date)> = db
            .records()
            .iter()
            .enumerate()
            .filter_map(|(idx, record)| {
                let pos = db
                    .record_indices(record.library)
                    .iter()
                    .position(|&i| i == idx)
                    .expect("every record is indexed under its library");
                Some((idx, record, pos, record.patched_date?))
            })
            .collect();
        let mut wordpress = 0usize;
        let mut wp_versions = Vec::new();
        for (domain, page) in snapshot.pages() {
            let on_wordpress = page.wordpress();
            if on_wordpress.is_some() {
                wordpress += 1;
            }
            if let Some(Some(version)) = on_wordpress {
                wp_versions.push(version.clone());
            }
            // Both trackers below only ever look at versioned detections.
            if page.detections().all(|det| det.version.is_none()) {
                continue;
            }
            let first = first_detections(page);
            let (events_claimed, events_tvv) = (&mut self.events_claimed, &mut self.events_tvv);
            let regressions = &mut self.regressions;
            with_domain(&mut self.domains, domain, |track| {
                // Security updates (§7), both bases in one pass.
                let mut verdicts: [Option<Verdict<'_>>; LibraryId::ALL.len()] =
                    [None; LibraryId::ALL.len()];
                for &(idx, record, pos, patched_date) in &patched {
                    let library = record.library.index();
                    let Some(version) = first[library].and_then(|det| det.version) else {
                        continue;
                    };
                    let verdict = *verdicts[library]
                        .get_or_insert_with(|| db.verdict(record.library, version));
                    for (armed, events, basis) in [
                        (
                            &mut track.armed_claimed,
                            &mut *events_claimed,
                            Basis::CveClaimed,
                        ),
                        (
                            &mut track.armed_tvv,
                            &mut *events_tvv,
                            Basis::TrueVulnerable,
                        ),
                    ] {
                        let slot = armed.iter().position(|&(armed_idx, _)| armed_idx == idx);
                        if verdict.applies(pos, basis) {
                            match slot {
                                Some(slot) => armed[slot].1.clone_from(version),
                                None => armed.push((idx, version.clone())),
                            }
                        } else if let Some(slot) = slot {
                            let (_, from_version) = armed.swap_remove(slot);
                            if version > &from_version && date >= patched_date {
                                events.push((
                                    this_week,
                                    domain.to_string(),
                                    UpdateEvent {
                                        domain: domain.to_string(),
                                        vuln_id: record.id.clone(),
                                        from_version,
                                        to_version: version.clone(),
                                        observed: date,
                                        delay_days: date.days_since(patched_date),
                                        wordpress: on_wordpress.is_some(),
                                    },
                                ));
                            }
                        }
                    }
                }
                // Version regressions (§9).
                for det in page.detections() {
                    let Some(version) = det.version else {
                        continue;
                    };
                    let last = track
                        .last_versions
                        .iter_mut()
                        .find(|(library, _)| *library == det.library);
                    let Some((_, prev)) = last else {
                        track.last_versions.push((det.library, version.clone()));
                        continue;
                    };
                    if version < prev {
                        regressions.push((
                            this_week,
                            domain.to_string(),
                            RegressionEvent {
                                domain: domain.to_string(),
                                library: det.library,
                                from_version: prev.clone(),
                                to_version: version.clone(),
                                observed: date,
                                back_into_vulnerable: db.is_vulnerable_known_by(
                                    det.library,
                                    version,
                                    Basis::CveClaimed,
                                    date,
                                ),
                            },
                        ));
                    }
                    prev.clone_from(version);
                }
            });
        }
        match &mut self.final_wordpress {
            Some((week, versions)) if *week == this_week => versions.extend(wp_versions),
            Some((week, _)) if *week > this_week => {}
            slot => *slot = Some((this_week, wp_versions)),
        }
        self.weeks.push(BehaviorWeek {
            date: Some(date),
            collected: snapshot.collected(),
            wordpress,
        });
    }

    fn merge(&mut self, mut other: UpdateBehaviorAccum) {
        zip_merge(&mut self.weeks, other.weeks, |into, from| {
            into.collected += from.collected;
            into.wordpress += from.wordpress;
        });
        self.domains.append(&mut other.domains);
        self.events_claimed.extend(other.events_claimed);
        self.events_tvv.extend(other.events_tvv);
        self.regressions.extend(other.regressions);
        match (&mut self.final_wordpress, other.final_wordpress) {
            (Some((week, versions)), Some((other_week, other_versions))) => {
                if other_week == *week {
                    versions.extend(other_versions);
                } else if other_week > *week {
                    self.final_wordpress = Some((other_week, other_versions));
                }
            }
            (slot @ None, Some(from)) => *slot = Some(from),
            (_, None) => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Collection (§5/Figure 2): collected series and resource classes
// ---------------------------------------------------------------------------

#[derive(Debug, Default, Clone)]
struct CollectionWeek {
    date: Option<Date>,
    collected: usize,
    /// Per-resource-class user counts, indexed like `ResourceType::ALL`.
    using: Vec<usize>,
}

/// Figure 2: the collected-pages series and resource-class usage.
#[derive(Debug, Default, Clone)]
pub struct CollectionAccum {
    weeks: Vec<CollectionWeek>,
}

impl CollectionAccum {
    /// Figure 2(a): pages collected per week.
    pub fn collection(&self) -> CollectionSeries {
        let points: Vec<(Date, usize)> = self
            .weeks
            .iter()
            .map(|week| (week.date.expect("absorbed week has a date"), week.collected))
            .collect();
        let average = mean(&points.iter().map(|&(_, c)| c as f64).collect::<Vec<_>>());
        CollectionSeries { points, average }
    }

    /// Figure 2(b): usage series per resource class, ordered by share.
    pub fn resources(&self) -> Vec<ResourceUsage> {
        let mut out: Vec<ResourceUsage> = ResourceType::ALL
            .iter()
            .enumerate()
            .map(|(index, &resource)| {
                let weekly_share: Vec<(Date, f64)> = self
                    .weeks
                    .iter()
                    .map(|week| {
                        (
                            week.date.expect("absorbed week has a date"),
                            week.using[index] as f64 / week.collected.max(1) as f64,
                        )
                    })
                    .collect();
                let average_share = mean(&weekly_share.iter().map(|&(_, s)| s).collect::<Vec<_>>());
                ResourceUsage {
                    resource,
                    weekly_share,
                    average_share,
                }
            })
            .collect();
        out.sort_by(|a, b| {
            b.average_share
                .partial_cmp(&a.average_share)
                .expect("no NaNs")
        });
        out
    }
}

impl Accumulate for CollectionAccum {
    fn absorb<W: WeekView>(&mut self, snapshot: &W, _ctx: &AccumCtx<'_>) {
        let mut week = CollectionWeek {
            date: Some(snapshot.date()),
            collected: snapshot.collected(),
            using: vec![0; ResourceType::ALL.len()],
        };
        for (_, page) in snapshot.pages() {
            for (class, users) in week.using.iter_mut().enumerate() {
                if page.uses_resource(class) {
                    *users += 1;
                }
            }
        }
        self.weeks.push(week);
    }

    fn merge(&mut self, other: CollectionAccum) {
        zip_merge(&mut self.weeks, other.weeks, |into, from| {
            into.collected += from.collected;
            for (u, v) in into.using.iter_mut().zip(from.using) {
                *u += v;
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Flash (§8): Figures 8/11, TLD census
// ---------------------------------------------------------------------------

#[derive(Debug, Default, Clone)]
struct FlashWeek {
    date: Option<Date>,
    flash: usize,
    top10k: usize,
    top1k: usize,
    with_param: usize,
    always: usize,
}

#[derive(Debug, Default, Clone)]
struct FlashFinalWeek {
    week: usize,
    tld_counts: BTreeMap<String, usize>,
    cn_flash: usize,
    flash_total: usize,
    cn_all: usize,
    all: usize,
}

/// §8 Flash: Figure 8's usage, Figure 11's `AllowScriptAccess` audit and
/// the post-EOL TLD census.
#[derive(Debug, Default, Clone)]
pub struct FlashAccum {
    weeks: Vec<FlashWeek>,
    last: Option<FlashFinalWeek>,
}

impl FlashAccum {
    /// Figure 8: Flash usage by rank tier.
    pub fn usage(&self) -> FlashUsage {
        let points: Vec<(Date, usize, usize, usize)> = self
            .weeks
            .iter()
            .map(|week| {
                (
                    week.date.expect("absorbed week has a date"),
                    week.flash,
                    week.top10k,
                    week.top1k,
                )
            })
            .collect();
        let average = mean(
            &points
                .iter()
                .map(|&(_, a, _, _)| a as f64)
                .collect::<Vec<_>>(),
        );
        let eol = flash_eol();
        let after: Vec<f64> = points
            .iter()
            .filter(|&&(d, ..)| d >= eol)
            .map(|&(_, a, _, _)| a as f64)
            .collect();
        FlashUsage {
            points,
            average,
            average_after_eol: mean(&after),
        }
    }

    /// Figure 11: the `AllowScriptAccess` audit.
    pub fn script_access(&self) -> ScriptAccessAudit {
        let points: Vec<(Date, usize, usize, usize)> = self
            .weeks
            .iter()
            .map(|week| {
                (
                    week.date.expect("absorbed week has a date"),
                    week.flash,
                    week.with_param,
                    week.always,
                )
            })
            .collect();
        let share = |slice: &[(Date, usize, usize, usize)]| {
            let shares: Vec<f64> = slice
                .iter()
                .filter(|&&(_, flash, ..)| flash > 0)
                .map(|&(_, flash, _, always)| always as f64 / flash as f64)
                .collect();
            mean(&shares)
        };
        let quarter = (points.len() / 4).max(1);
        ScriptAccessAudit {
            average_always_share: share(&points),
            early_always_share: share(&points[..quarter.min(points.len())]),
            late_always_share: share(&points[points.len().saturating_sub(quarter)..]),
            points,
        }
    }

    /// The post-EOL TLD census from the final snapshot.
    pub fn by_tld(&self) -> FlashByTld {
        let last = self.last.clone().unwrap_or_default();
        let mut counts: Vec<(String, usize)> = last.tld_counts.into_iter().collect();
        counts.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        FlashByTld {
            counts,
            cn_share: last.cn_flash as f64 / last.flash_total.max(1) as f64,
            cn_base_rate: last.cn_all as f64 / last.all.max(1) as f64,
        }
    }
}

impl Accumulate for FlashAccum {
    fn absorb<W: WeekView>(&mut self, snapshot: &W, ctx: &AccumCtx<'_>) {
        let ranks = ctx.ranks;
        let population = ranks.len().max(1);
        let tier_10k = tier_cutoff(population, 10_000);
        let tier_1k = tier_cutoff(population, 1_000);
        let mut week = FlashWeek {
            date: Some(snapshot.date()),
            ..FlashWeek::default()
        };
        let mut finale = FlashFinalWeek {
            week: snapshot.week(),
            ..FlashFinalWeek::default()
        };
        for (domain, page) in snapshot.pages() {
            let tld = domain.rsplit('.').next().unwrap_or("");
            finale.all += 1;
            if tld == "cn" {
                finale.cn_all += 1;
            }
            let Some(param) = page.flash() else {
                continue;
            };
            week.flash += 1;
            finale.flash_total += 1;
            if tld == "cn" {
                finale.cn_flash += 1;
            }
            *finale.tld_counts.entry(tld.to_string()).or_default() += 1;
            if let Some(rank) = ranks.get(domain).copied() {
                if rank <= tier_10k {
                    week.top10k += 1;
                }
                if rank <= tier_1k {
                    week.top1k += 1;
                }
            }
            if let Some(value) = param {
                week.with_param += 1;
                if value == "always" {
                    week.always += 1;
                }
            }
        }
        self.weeks.push(week);
        match &mut self.last {
            Some(last) if last.week == finale.week => {
                last.flash_total += finale.flash_total;
                last.cn_flash += finale.cn_flash;
                last.cn_all += finale.cn_all;
                last.all += finale.all;
                add_counts(&mut last.tld_counts, finale.tld_counts);
            }
            Some(last) if last.week > finale.week => {}
            slot => *slot = Some(finale),
        }
    }

    fn merge(&mut self, other: FlashAccum) {
        zip_merge(&mut self.weeks, other.weeks, |into, from| {
            into.flash += from.flash;
            into.top10k += from.top10k;
            into.top1k += from.top1k;
            into.with_param += from.with_param;
            into.always += from.always;
        });
        match (&mut self.last, other.last) {
            (Some(last), Some(from)) => {
                if from.week == last.week {
                    last.flash_total += from.flash_total;
                    last.cn_flash += from.cn_flash;
                    last.cn_all += from.cn_all;
                    last.all += from.all;
                    add_counts(&mut last.tld_counts, from.tld_counts);
                } else if from.week > last.week {
                    self.last = Some(from);
                }
            }
            (slot @ None, Some(from)) => *slot = Some(from),
            (_, None) => {}
        }
    }
}

// ---------------------------------------------------------------------------
// SRI / crossorigin / GitHub (§6.5)
// ---------------------------------------------------------------------------

#[derive(Debug, Default, Clone)]
struct SriWeek {
    date: Option<Date>,
    with_external: usize,
    unprotected: usize,
    github_sites: usize,
}

/// §6.5: Figure 10's SRI adoption, the `crossorigin` census and Table 6.
#[derive(Debug, Default, Clone)]
pub struct SriAccum {
    weeks: Vec<SriWeek>,
    anonymous: usize,
    credentials: usize,
    crossorigin_total: usize,
    host_counts: BTreeMap<String, usize>,
    inclusions: usize,
    with_sri: usize,
    top_tier: BTreeMap<String, usize>,
}

impl SriAccum {
    /// Figure 10: SRI adoption over time.
    pub fn adoption(&self) -> SriAdoption {
        let points: Vec<(Date, usize, usize)> = self
            .weeks
            .iter()
            .map(|week| {
                (
                    week.date.expect("absorbed week has a date"),
                    week.with_external,
                    week.unprotected,
                )
            })
            .collect();
        let shares: Vec<f64> = points
            .iter()
            .filter(|&&(_, ext, _)| ext > 0)
            .map(|&(_, ext, un)| un as f64 / ext as f64)
            .collect();
        SriAdoption {
            points,
            average_unprotected_share: mean(&shares),
        }
    }

    /// §6.5's `crossorigin` value census.
    pub fn crossorigin(&self) -> CrossoriginCensus {
        CrossoriginCensus {
            anonymous_share: self.anonymous as f64 / self.crossorigin_total.max(1) as f64,
            use_credentials_share: self.credentials as f64 / self.crossorigin_total.max(1) as f64,
            total: self.crossorigin_total,
        }
    }

    /// Table 6: GitHub-hosted inclusions.
    pub fn github(&self) -> GithubReport {
        let weekly_counts: Vec<f64> = self
            .weeks
            .iter()
            .map(|week| week.github_sites as f64)
            .collect();
        let mut hosts: Vec<(String, usize)> = self.host_counts.clone().into_iter().collect();
        hosts.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        let mut top_tier_sites: Vec<(String, usize)> = self.top_tier.clone().into_iter().collect();
        top_tier_sites.sort_by_key(|&(_, rank)| rank);
        GithubReport {
            average_sites: mean(&weekly_counts),
            hosts,
            sri_share: self.with_sri as f64 / self.inclusions.max(1) as f64,
            top_tier_sites,
        }
    }
}

impl Accumulate for SriAccum {
    fn absorb<W: WeekView>(&mut self, snapshot: &W, ctx: &AccumCtx<'_>) {
        let ranks = ctx.ranks;
        let population = ranks.len().max(1);
        let tier = (population / 100).max(1); // scaled "top-10K of 1M"
        let mut week = SriWeek {
            date: Some(snapshot.date()),
            ..SriWeek::default()
        };
        for (domain, page) in snapshot.pages() {
            let (external, unprotected) = page.external_scripts();
            if external > 0 {
                week.with_external += 1;
                if unprotected > 0 {
                    week.unprotected += 1;
                }
            }
            for value in page.crossorigin_values() {
                self.crossorigin_total += 1;
                match value {
                    "anonymous" => self.anonymous += 1,
                    "use-credentials" => self.credentials += 1,
                    _ => {}
                }
            }
            let mut github = page.github_scripts().peekable();
            if github.peek().is_none() {
                continue;
            }
            week.github_sites += 1;
            for (host, integrity) in github {
                bump(&mut self.host_counts, host);
                self.inclusions += 1;
                if integrity {
                    self.with_sri += 1;
                }
            }
            if let Some(rank) = ranks.get(domain).copied() {
                if rank <= tier {
                    self.top_tier.insert(domain.to_string(), rank);
                }
            }
        }
        self.weeks.push(week);
    }

    fn merge(&mut self, other: SriAccum) {
        zip_merge(&mut self.weeks, other.weeks, |into, from| {
            into.with_external += from.with_external;
            into.unprotected += from.unprotected;
            into.github_sites += from.github_sites;
        });
        self.anonymous += other.anonymous;
        self.credentials += other.credentials;
        self.crossorigin_total += other.crossorigin_total;
        self.inclusions += other.inclusions;
        self.with_sri += other.with_sri;
        add_counts(&mut self.host_counts, other.host_counts);
        self.top_tier.extend(other.top_tier);
    }
}

// ---------------------------------------------------------------------------
// The whole study
// ---------------------------------------------------------------------------

/// Every analysis artifact the study report consumes, as produced by
/// [`StudyAccum::finish`]. Field-for-field the analysis slice of
/// `StudyResults`.
#[derive(Debug)]
pub struct StudyArtifacts {
    /// Figure 2(a).
    pub collection: CollectionSeries,
    /// Figure 2(b).
    pub resources: Vec<ResourceUsage>,
    /// Table 1.
    pub table1: Vec<LibraryRow>,
    /// Figure 3.
    pub trends: Vec<UsageTrend>,
    /// Table 5 (top-3 hosts).
    pub table5: Vec<CdnBreakdown>,
    /// §6.2 prevalence, CVE-claimed basis.
    pub prevalence_claimed: PrevalenceSeries,
    /// §6.2 prevalence, TVV basis.
    pub prevalence_tvv: PrevalenceSeries,
    /// §6.4 comparison.
    pub refinement: RefinementSummary,
    /// Table 2 / Figures 5 and 14.
    pub cve_impacts: Vec<CveImpact>,
    /// Figure 12, CVE-claimed basis.
    pub fig12_claimed: VulnCountDistribution,
    /// Figure 12, TVV basis.
    pub fig12_tvv: VulnCountDistribution,
    /// §7 delays, CVE-claimed basis.
    pub delays_claimed: UpdateDelayReport,
    /// §7 delays, TVV basis.
    pub delays_tvv: UpdateDelayReport,
    /// Figure 9.
    pub wordpress: WordPressUsage,
    /// Table 4.
    pub table4: Vec<WordPressCveRow>,
    /// Figure 8.
    pub flash: FlashUsage,
    /// Figure 11.
    pub script_access: ScriptAccessAudit,
    /// §8 TLD census.
    pub flash_by_tld: FlashByTld,
    /// §9 downgrades.
    pub regressions: Vec<RegressionEvent>,
    /// Figure 10.
    pub sri: SriAdoption,
    /// §6.5 census.
    pub crossorigin: CrossoriginCensus,
    /// Table 6.
    pub github: GithubReport,
}

/// The combined accumulator: one absorb pass feeds every artifact.
#[derive(Debug, Default, Clone)]
pub struct StudyAccum {
    /// Landscape (§6.1).
    pub landscape: LandscapeAccum,
    /// CVE exposure (§6.2/§6.4).
    pub exposure: CveExposureAccum,
    /// Update behavior (§7/§9).
    pub behavior: UpdateBehaviorAccum,
    /// Collection (§5).
    pub collection: CollectionAccum,
    /// Flash (§8).
    pub flash: FlashAccum,
    /// SRI and externals (§6.5).
    pub sri: SriAccum,
}

impl StudyAccum {
    /// Produces every analysis artifact from the accumulated state.
    pub fn finish(&self, db: &VulnDb) -> StudyArtifacts {
        StudyArtifacts {
            collection: self.collection.collection(),
            resources: self.collection.resources(),
            table1: self.landscape.table1(db),
            trends: self.landscape.trends(),
            table5: self.landscape.table5(3),
            prevalence_claimed: self.exposure.prevalence(Basis::CveClaimed),
            prevalence_tvv: self.exposure.prevalence(Basis::TrueVulnerable),
            refinement: self.exposure.refinement(),
            cve_impacts: self.exposure.cve_impacts(db),
            fig12_claimed: self.exposure.distribution(Basis::CveClaimed),
            fig12_tvv: self.exposure.distribution(Basis::TrueVulnerable),
            delays_claimed: self.behavior.delays(Basis::CveClaimed),
            delays_tvv: self.behavior.delays(Basis::TrueVulnerable),
            wordpress: self.behavior.wordpress_usage(),
            table4: self.behavior.table4(db),
            flash: self.flash.usage(),
            script_access: self.flash.script_access(),
            flash_by_tld: self.flash.by_tld(),
            regressions: self.behavior.regression_events(),
            sri: self.sri.adoption(),
            crossorigin: self.sri.crossorigin(),
            github: self.sri.github(),
        }
    }
}

impl Accumulate for StudyAccum {
    fn absorb<W: WeekView>(&mut self, week: &W, ctx: &AccumCtx<'_>) {
        self.landscape.absorb(week, ctx);
        self.exposure.absorb(week, ctx);
        self.behavior.absorb(week, ctx);
        self.collection.absorb(week, ctx);
        self.flash.absorb(week, ctx);
        self.sri.absorb(week, ctx);
    }

    fn merge(&mut self, other: StudyAccum) {
        self.landscape.merge(other.landscape);
        self.exposure.merge(other.exposure);
        self.behavior.merge(other.behavior);
        self.collection.merge(other.collection);
        self.flash.merge(other.flash);
        self.sri.merge(other.sri);
    }
}

// ---------------------------------------------------------------------------
// Streaming folds over a store
// ---------------------------------------------------------------------------

/// Rebuilds the rank map a fold needs from a store's genesis block.
pub fn genesis_ranks(genesis: &Genesis) -> BTreeMap<String, usize> {
    genesis
        .ranks
        .iter()
        .map(|(host, rank)| (host.clone(), *rank as usize))
        .collect()
}

/// Folds a store through an accumulator, dropping the domains of the §4.1
/// verdict `filtered`. Peak memory is the accumulator plus one borrowed
/// week per worker, whatever the week count.
///
/// The store is cut into domain-disjoint parts (see `fold_parts`), every
/// part folded by the one loop (`fold_group`), the parts merged in
/// order; the artifacts are byte-identical whatever the cut:
///
/// * sharded store — a part per shard (shards partition domains), on up
///   to `threads` workers; unhealthy shards of a degraded reader
///   contribute the identity;
/// * single-file store — a part per worker, at most one per core: each
///   worker decodes, from the per-week offset index, only the records
///   [`shard_of`] assigns it. Nothing decoded ever changes threads: a
///   week handed to another thread costs more in cache misses on both
///   sides than the hand-off overlaps (measured: a decode-ahead pipeline
///   and a per-week barrier both ran no faster than one thread).
pub fn fold_store<A>(
    reader: &AnyReader,
    ctx: &AccumCtx<'_>,
    threads: usize,
    filtered: &BTreeSet<String>,
) -> Result<A, StoreError>
where
    A: Accumulate + Default + Send,
{
    let cut = match reader.shard_count() {
        1 => workers(threads),
        shards => shards,
    };
    let folded = fold_parts(reader, cut, 0..cut, threads, filtered, ctx)?;
    let parts = folded.into_iter().filter_map(|(_, part)| part);
    Ok(parts.reduce(merge_pair).unwrap_or_default())
}

/// Convenience: folds the full study accumulator over a store using the
/// genesis rank list for context and the store's own §4.1 verdict.
pub fn fold_study(
    reader: &AnyReader,
    db: &VulnDb,
    threads: usize,
) -> Result<StudyAccum, StoreError> {
    let ranks = genesis_ranks(reader.genesis());
    let ctx = AccumCtx { db, ranks: &ranks };
    fold_store(reader, &ctx, threads, &store_filter_verdict(reader)?)
}

fn merge_pair<A: Accumulate>(mut into: A, from: A) -> A {
    into.merge(from);
    into
}

/// Workers worth starting for `threads`: more than there are cores only
/// adds threads that take turns.
fn workers(threads: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    threads.clamp(1, cores)
}

/// Folds the `wanted` parts of a store cut `cut` ways: part `p` is the
/// domains with `shard_of(host, cut) == p`. `cut` is a multiple of the
/// shard count, so part `p` lies wholly in file `p % shards`
/// ([`shard_of`] nests) and folding it reads that file alone. Returns
/// `(part, accumulator)` in part order, `None` where a degraded reader
/// lacks the part's file.
///
/// A file's wanted parts fold as one group — one decode per week, one
/// [`SymbolCache`] — split only as far as it takes to give every worker
/// a group.
fn fold_parts<A>(
    reader: &AnyReader,
    cut: usize,
    wanted: impl IntoIterator<Item = usize>,
    threads: usize,
    filtered: &BTreeSet<String>,
    ctx: &AccumCtx<'_>,
) -> Result<Vec<(usize, Option<A>)>, StoreError>
where
    A: Accumulate + Default + Send,
{
    let shards = reader.shard_count();
    assert_eq!(cut % shards, 0, "a cut must nest inside the shards");
    let weeks = reader.weeks_committed();
    let mut by_file = vec![Vec::new(); shards];
    for part in wanted {
        by_file[part % shards].push(part);
    }
    let files = by_file.iter().filter(|parts| !parts.is_empty()).count();
    let split = workers(threads).div_ceil(files.max(1));
    let groups: Vec<(usize, &[usize])> = by_file
        .iter()
        .enumerate()
        .flat_map(|(file, parts)| {
            let size = parts.len().div_ceil(split).max(1);
            parts.chunks(size).map(move |group| (file, group))
        })
        .collect();
    let executor = Executor::new(threads.clamp(1, groups.len().max(1)));
    let fold = |&(file, group): &(usize, &[usize])| -> Result<Vec<Option<A>>, StoreError> {
        let Some(file) = reader.shard_reader(file) else {
            return Ok(group.iter().map(|_| None).collect());
        };
        let whole_file = group.len() == cut / shards;
        let accums = fold_group(file, weeks, cut, group, whole_file, filtered, ctx)?;
        Ok(accums.into_iter().map(Some).collect())
    };
    let folded = executor.map(&groups, fold);
    let mut parts = Vec::new();
    for ((_, group), accums) in groups.iter().zip(folded) {
        parts.extend(group.iter().copied().zip(accums?));
    }
    parts.sort_by_key(|&(part, _)| part);
    Ok(parts)
}

/// The fold loop: the first `weeks` weeks of `file`, the records whose
/// host falls in one of `parts` (ascending part numbers of a `cut`-way
/// cut; all of the file's when `whole_file`), each week decoded as
/// borrowed records and absorbed in place, part by part, on the one
/// worker that decoded it. A host a foreign writer filed under the wrong
/// shard belongs to no part of this file and is not folded.
fn fold_group<A: Accumulate + Default>(
    file: &StoreReader,
    weeks: usize,
    cut: usize,
    parts: &[usize],
    whole_file: bool,
    filtered: &BTreeSet<String>,
    ctx: &AccumCtx<'_>,
) -> Result<Vec<A>, StoreError> {
    let part_of = |host: &str| parts.binary_search(&shard_of(host, cut)).ok();
    let keep = |host: &str| whole_file || part_of(host).is_some();
    // A lone part's kept records are all its own: no second hash.
    let place = |host: &str| match parts {
        [_] => Some(0),
        _ => part_of(host),
    };
    let mut accums: Vec<A> = parts.iter().map(|_| A::default()).collect();
    let mut symbols = SymbolCache::default();
    for week in 0..weeks {
        let records = file.week_records(week, keep)?;
        let views = DecodedWeek::partition(&records, filtered, &mut symbols, parts.len(), place)?;
        for (accum, view) in accums.iter_mut().zip(&views) {
            accum.absorb(view, ctx);
        }
    }
    Ok(accums)
}

/// Buckets a [`Buckets`] state keeps per shard of its store. A constant:
/// at 16, the flips of a quiet week (about 1 % of the domains) leave most
/// buckets alone, and a week's per-bucket rows stay small beside the
/// per-domain state.
pub const BUCKETS_PER_SHARD: usize = 16;

/// An accumulator held as its parts, so that it can change by what
/// changed: the domains are cut `shards` × [`BUCKETS_PER_SHARD`] ways (the
/// finest cut `fold_parts` nests inside the store's files), every bucket
/// absorbs every arriving week's share, and when the §4.1 verdict moves
/// only the buckets the moved domains fall in are folded again, each from
/// its one file. Read it merged: [`Buckets::merged`] is what
/// [`fold_store`] returns over the same store under the same verdict.
#[derive(Debug)]
pub struct Buckets<A> {
    /// `None`: the bucket's file was unreadable when the bucket was last
    /// folded. It holds nothing and absorbs nothing until a refold finds
    /// the file again — what a degraded cold fold makes of that shard.
    parts: Vec<Option<A>>,
}

impl<A: Accumulate + Default + Clone> Buckets<A> {
    /// The state over an empty store of `shards` files.
    pub fn new(shards: usize) -> Buckets<A> {
        Buckets {
            parts: vec![Some(A::default()); shards.max(1) * BUCKETS_PER_SHARD],
        }
    }

    /// The state over `reader`'s committed weeks, minus `filtered`.
    pub fn fold(
        reader: &AnyReader,
        ctx: &AccumCtx<'_>,
        threads: usize,
        filtered: &BTreeSet<String>,
    ) -> Result<Buckets<A>, StoreError> {
        let mut buckets = Buckets::new(reader.shard_count());
        buckets.refold(reader, 0..buckets.count(), ctx, threads, filtered)?;
        Ok(buckets)
    }

    /// Number of buckets.
    pub fn count(&self) -> usize {
        self.parts.len()
    }

    /// The bucket `host` falls in.
    pub fn bucket_of(&self, host: &str) -> usize {
        shard_of(host, self.parts.len())
    }

    /// Absorbs the next week — `week` as its own file (a spool file, with
    /// a string table of its own) decoded it — cut by bucket: every bucket
    /// its share, pages or not. Nothing is absorbed when the week cannot
    /// be read.
    pub fn absorb(
        &mut self,
        week: &WeekData<DomainRecord<Sym<'_>>>,
        filtered: &BTreeSet<String>,
        ctx: &AccumCtx<'_>,
    ) -> Result<(), StoreError> {
        let cut = self.parts.len();
        let place = |host: &str| Some(shard_of(host, cut));
        let mut symbols = SymbolCache::default();
        let views = DecodedWeek::partition(week, filtered, &mut symbols, cut, place)?;
        for (bucket, view) in self.parts.iter_mut().zip(&views) {
            if let Some(accum) = bucket {
                accum.absorb(view, ctx);
            }
        }
        Ok(())
    }

    /// Folds the `wanted` buckets again from `reader` (the store every
    /// absorbed week was committed to), minus `filtered`, decoding only
    /// the records that fall in them.
    pub fn refold(
        &mut self,
        reader: &AnyReader,
        wanted: impl IntoIterator<Item = usize>,
        ctx: &AccumCtx<'_>,
        threads: usize,
        filtered: &BTreeSet<String>,
    ) -> Result<(), StoreError> {
        let cut = self.parts.len();
        let nests = reader.shard_count() * BUCKETS_PER_SHARD == cut;
        assert!(nests, "not the store this state was cut for");
        let folded = fold_parts(reader, cut, wanted, threads, filtered, ctx)?;
        for (bucket, accum) in folded {
            self.parts[bucket] = accum;
        }
        Ok(())
    }

    /// The whole accumulator: the buckets merged in order.
    pub fn merged(&self) -> A {
        let parts = self.parts.iter().flatten().cloned();
        parts.reduce(merge_pair).unwrap_or_default()
    }
}

mod bucket_property;
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::testkit::{self, Kept, Over};
    use crate::store_io::snapshot_to_week;
    use webvuln_store::{AnyWriter, StoreWriter};

    fn artifacts_debug(accum: &StudyAccum, db: &VulnDb) -> String {
        format!("{:#?}", accum.finish(db))
    }

    fn genesis_of(data: &Kept) -> Genesis {
        let mut by_rank: Vec<(&String, usize)> = data
            .ranks
            .iter()
            .map(|(name, &rank)| (name, rank))
            .collect();
        by_rank.sort_by_key(|&(_, rank)| rank);
        Genesis {
            start_days: i64::from(data.timeline.start.day_number()),
            weeks_total: data.timeline.weeks,
            ranks: by_rank
                .into_iter()
                .map(|(name, rank)| (name.clone(), rank as u64))
                .collect(),
        }
    }

    /// Commits `data` through `writer`, either layout, and finalizes it.
    fn write_store(data: &Kept, mut writer: AnyWriter) {
        for week in &data.weeks {
            writer.commit_week(&snapshot_to_week(week)).expect("commit");
        }
        writer.finalize(&data.filtered_out).expect("finalize");
    }

    #[test]
    fn accumulated_artifacts_match_free_functions() {
        let data = testkit::small();
        let db = VulnDb::builtin();
        let accum = StudyAccum::over(data, &db);
        let artifacts = accum.finish(&db);
        assert_eq!(
            format!("{:?}", artifacts.table1),
            format!("{:?}", crate::landscape::table1(data, &db))
        );
        assert_eq!(
            format!("{:?}", artifacts.trends),
            format!("{:?}", crate::landscape::usage_trends(data))
        );
        assert_eq!(
            format!("{:?}", artifacts.collection),
            format!("{:?}", crate::resources::collection_series(data))
        );
        let impacts: Vec<CveImpact> = db
            .records()
            .iter()
            .filter_map(|r| crate::vuln::cve_impact(data, &db, &r.id))
            .collect();
        assert_eq!(
            format!("{:?}", artifacts.cve_impacts),
            format!("{:?}", impacts)
        );
        assert_eq!(
            format!("{:?}", artifacts.resources),
            format!("{:?}", crate::resources::resource_usage(data))
        );
        assert_eq!(
            format!("{:?}", artifacts.refinement),
            format!("{:?}", crate::vuln::refinement_summary(data, &db))
        );
        assert_eq!(
            format!("{:?}", artifacts.crossorigin),
            format!("{:?}", crate::sri::crossorigin_census(data))
        );
        assert_eq!(
            format!("{:?}", artifacts.prevalence_tvv),
            format!(
                "{:?}",
                crate::vuln::prevalence(data, &db, Basis::TrueVulnerable)
            )
        );
        assert_eq!(
            format!("{:?}", artifacts.fig12_claimed),
            format!(
                "{:?}",
                crate::vuln::vuln_count_distribution(data, &db, Basis::CveClaimed)
            )
        );
        assert_eq!(
            format!("{:?}", artifacts.delays_tvv),
            format!(
                "{:?}",
                crate::updates::update_delays(data, &db, Basis::TrueVulnerable)
            )
        );
        assert_eq!(
            format!("{:?}", artifacts.table5),
            format!("{:?}", crate::landscape::table5(data, 3))
        );
        assert_eq!(
            format!("{:?}", artifacts.prevalence_claimed),
            format!(
                "{:?}",
                crate::vuln::prevalence(data, &db, Basis::CveClaimed)
            )
        );
        assert_eq!(
            format!("{:?}", artifacts.fig12_tvv),
            format!(
                "{:?}",
                crate::vuln::vuln_count_distribution(data, &db, Basis::TrueVulnerable)
            )
        );
        assert_eq!(
            format!("{:?}", artifacts.delays_claimed),
            format!(
                "{:?}",
                crate::updates::update_delays(data, &db, Basis::CveClaimed)
            )
        );
        assert_eq!(
            format!("{:?}", artifacts.regressions),
            format!("{:?}", crate::updates::regressions(data, &db))
        );
        assert_eq!(
            format!("{:?}", artifacts.table4),
            format!("{:?}", crate::wordpress::table4(data, &db))
        );
        assert_eq!(
            format!("{:?}", artifacts.flash),
            format!("{:?}", crate::flash::flash_usage(data))
        );
        assert_eq!(
            format!("{:?}", artifacts.flash_by_tld),
            format!("{:?}", crate::flash::flash_by_tld(data))
        );
        assert_eq!(
            format!("{:?}", artifacts.script_access),
            format!("{:?}", crate::flash::script_access_audit(data))
        );
        assert_eq!(
            format!("{:?}", artifacts.sri),
            format!("{:?}", crate::sri::sri_adoption(data))
        );
        assert_eq!(
            format!("{:?}", artifacts.github),
            format!("{:?}", crate::sri::github_report(data))
        );
        assert_eq!(
            format!("{:?}", artifacts.wordpress),
            format!("{:?}", crate::updates::wordpress_usage(data))
        );
    }

    #[test]
    fn merge_with_identity_is_noop() {
        let data = testkit::small();
        let db = VulnDb::builtin();
        let reference = artifacts_debug(&StudyAccum::over(data, &db), &db);

        let mut left = StudyAccum::over(data, &db);
        left.merge(StudyAccum::default());
        assert_eq!(artifacts_debug(&left, &db), reference);

        let mut right = StudyAccum::default();
        right.merge(StudyAccum::over(data, &db));
        assert_eq!(artifacts_debug(&right, &db), reference);
    }

    #[test]
    fn merge_is_associative_over_domain_partitions() {
        let data = testkit::small();
        let db = VulnDb::builtin();
        let ctx = AccumCtx {
            db: &db,
            ranks: &data.ranks,
        };
        let reference = artifacts_debug(&StudyAccum::over(data, &db), &db);

        // Three domain partitions, each absorbing every week.
        let parts: Vec<StudyAccum> = (0..3)
            .map(|part| {
                let mut accum = StudyAccum::default();
                for week in &data.weeks {
                    let mut slice = week.clone();
                    slice.pages.retain(|domain, _| shard_of(domain, 3) == part);
                    slice
                        .carried_forward
                        .retain(|domain| shard_of(domain, 3) == part);
                    accum.absorb(&slice, &ctx);
                }
                accum
            })
            .collect();

        let [a, b, c]: [StudyAccum; 3] = parts.try_into().expect("three parts");
        let rebuild = |order: &str| -> String {
            let parts: Vec<StudyAccum> = (0..3)
                .map(|part| {
                    let mut accum = StudyAccum::default();
                    for week in &data.weeks {
                        let mut slice = week.clone();
                        slice.pages.retain(|domain, _| shard_of(domain, 3) == part);
                        slice
                            .carried_forward
                            .retain(|domain| shard_of(domain, 3) == part);
                        accum.absorb(&slice, &ctx);
                    }
                    accum
                })
                .collect();
            let mut iter = parts.into_iter();
            let (x, y, z) = (
                iter.next().expect("x"),
                iter.next().expect("y"),
                iter.next().expect("z"),
            );
            match order {
                "left" => {
                    let mut xy = x;
                    xy.merge(y);
                    xy.merge(z);
                    artifacts_debug(&xy, &db)
                }
                _ => {
                    let mut yz = y;
                    yz.merge(z);
                    let mut x = x;
                    x.merge(yz);
                    artifacts_debug(&x, &db)
                }
            }
        };
        assert_eq!(rebuild("left"), reference, "(a·b)·c");
        assert_eq!(rebuild("right"), reference, "a·(b·c)");
        // And the directly-built partitions merge to the same state.
        let mut direct = a;
        direct.merge(b);
        direct.merge(c);
        assert_eq!(artifacts_debug(&direct, &db), reference);
    }

    #[test]
    fn fold_store_matches_materialized_at_all_plans() {
        let data = testkit::small();
        let db = VulnDb::builtin();
        let reference = artifacts_debug(&StudyAccum::over(data, &db), &db);

        let dir = std::env::temp_dir().join(format!("accum-fold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");

        let single = dir.join("study.wvstore");
        let writer = StoreWriter::create(&single, genesis_of(data)).expect("create");
        write_store(data, writer.into());
        let mut stores = vec![single];
        for shards in [1, 4, 16] {
            let sharded_dir = dir.join(format!("sharded-{shards}"));
            let writer = AnyWriter::create(&sharded_dir, genesis_of(data), shards).expect("create");
            write_store(data, writer);
            stores.push(sharded_dir);
        }
        for store in &stores {
            let reader = AnyReader::open(store).expect("open");
            for threads in [1, 2, 8] {
                let accum = fold_study(&reader, &db, threads).expect("fold");
                assert_eq!(
                    artifacts_debug(&accum, &db),
                    reference,
                    "{store:?} fold, {threads} threads"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stored_version_that_does_not_parse_fails_the_fold_by_name() {
        use webvuln_store::{DetectionRecord, DomainRecord, PageRecord, WeekData};
        let path = std::env::temp_dir().join(format!("accum-badver-{}", std::process::id()));
        let record = |host: &str, version: &str| DomainRecord {
            host: host.to_string(),
            status: Some(200),
            body_len: 5_000,
            page: Some(PageRecord {
                detections: vec![DetectionRecord {
                    library: "jquery".to_string(),
                    version: Some(version.to_string()),
                    external_host: None,
                    integrity: false,
                    crossorigin: None,
                    url: String::new(),
                }],
                ..PageRecord::default()
            }),
        };
        let genesis = Genesis {
            start_days: 17_600,
            weeks_total: 2,
            ranks: vec![("a.com".to_string(), 1), ("b.com".to_string(), 2)],
        };
        let mut writer = StoreWriter::create(&path, genesis).expect("create");
        // The string is first seen in week 1, on one domain of two.
        for (week, b_version) in [(0, "3.5.1"), (1, "three.five")] {
            let records = vec![record("a.com", "1.12.4"), record("b.com", b_version)];
            let date_days = 17_600 + 7 * week as i64;
            let week = WeekData {
                week,
                date_days,
                records,
            };
            writer.commit_week(&week).expect("commit");
        }
        drop(writer);
        let reader = AnyReader::open(&path).expect("open");
        for threads in [1, 2] {
            match fold_study(&reader, &VulnDb::builtin(), threads) {
                Err(StoreError::Mismatch(detail)) => {
                    assert!(detail.contains("\"three.five\""), "{detail}")
                }
                other => panic!("{threads} threads: expected a mismatch, got {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fold_recomputes_filter_on_unfinalized_store() {
        let data = testkit::small();
        let db = VulnDb::builtin();
        let reference = artifacts_debug(&StudyAccum::over(data, &db), &db);

        let dir = std::env::temp_dir().join(format!("accum-unfin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("open.wvstore");
        {
            let mut writer = StoreWriter::create(&path, genesis_of(data)).expect("create");
            for week in &data.weeks {
                writer.commit_week(&snapshot_to_week(week)).expect("commit");
            }
            // No finalize: the fold must recompute the §4.1 verdict.
        }
        let reader = AnyReader::open(&path).expect("open");
        assert!(reader.filtered_out().is_none());
        let accum = fold_study(&reader, &db, 1).expect("fold");
        assert_eq!(artifacts_debug(&accum, &db), reference);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
