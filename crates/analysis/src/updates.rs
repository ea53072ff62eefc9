//! §7 — updates of vulnerable JavaScript libraries: per-version usage
//! trends (Figures 6, 7(a)), WordPress attribution (Figures 7(b), 9), and
//! the window-of-vulnerability / update-delay estimator (the paper's
//! headline 531.2 days, and 701.2 days under True Vulnerable Versions).

use webvuln_cvedb::{Basis, Date, LibraryId};
use webvuln_version::Version;
#[cfg(test)]
use {
    crate::dataset::testkit::Kept, crate::stats::mean, std::collections::BTreeMap,
    webvuln_cvedb::VulnDb,
};

/// Weekly site counts for one specific library version.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct VersionSeries {
    /// The version tracked.
    pub version: Version,
    /// `(date, sites running it)` per week.
    pub points: Vec<(Date, usize)>,
}

#[cfg(test)]
impl VersionSeries {
    /// Count at the snapshot covering `date` (nearest on/after).
    pub fn at(&self, date: Date) -> usize {
        self.points
            .iter()
            .find(|&&(d, _)| d >= date)
            .map_or(0, |&(_, c)| c)
    }
}

/// Builds per-version usage series for `library` (Figures 6 and 7(a)).
/// When `versions` is empty, the most popular versions are picked
/// automatically (up to `auto_top`).
/// Test-only: what the Figure 6 and 7(a) assertions read.
#[cfg(test)]
pub(crate) fn version_series(
    data: &Kept,
    library: LibraryId,
    versions: &[Version],
    auto_top: usize,
) -> Vec<VersionSeries> {
    let chosen: Vec<Version> = if versions.is_empty() {
        let mut totals: BTreeMap<Version, usize> = BTreeMap::new();
        for week in &data.weeks {
            for page in week.pages.values() {
                if let Some(det) = page.library(library) {
                    if let Some(v) = &det.version {
                        *totals.entry(v.clone()).or_default() += 1;
                    }
                }
            }
        }
        let mut ranked: Vec<(Version, usize)> = totals.into_iter().collect();
        ranked.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        ranked.into_iter().take(auto_top).map(|(v, _)| v).collect()
    } else {
        versions.to_vec()
    };

    chosen
        .into_iter()
        .map(|version| {
            let points = data
                .weeks
                .iter()
                .map(|week| {
                    let count = week
                        .pages
                        .values()
                        .filter(|page| {
                            page.library(library)
                                .and_then(|d| d.version.as_ref())
                                .is_some_and(|v| *v == version)
                        })
                        .count();
                    (week.date, count)
                })
                .collect();
            VersionSeries { version, points }
        })
        .collect()
}

/// Like [`version_series`], restricted to sites detected as WordPress —
/// Figure 7(b)'s attribution evidence.
#[cfg(test)]
pub(crate) fn version_series_wordpress(
    data: &Kept,
    library: LibraryId,
    versions: &[Version],
) -> Vec<VersionSeries> {
    versions
        .iter()
        .map(|version| {
            let points = data
                .weeks
                .iter()
                .map(|week| {
                    let count = week
                        .pages
                        .values()
                        .filter(|page| page.wordpress.is_some())
                        .filter(|page| {
                            page.library(library)
                                .and_then(|d| d.version.as_ref())
                                .is_some_and(|v| v == version)
                        })
                        .count();
                    (week.date, count)
                })
                .collect();
            VersionSeries {
                version: version.clone(),
                points,
            }
        })
        .collect()
}

/// Figure 9: WordPress usage over time.
#[derive(Debug, Clone, PartialEq)]
pub struct WordPressUsage {
    /// `(date, collected sites, WordPress sites)` per week.
    pub points: Vec<(Date, usize, usize)>,
    /// Average WordPress share of collected sites.
    pub average_share: f64,
}

/// Builds Figure 9.
/// Test-only: the one-shot reference [`crate::accum::UpdateBehaviorAccum`] is pinned against.
#[cfg(test)]
pub(crate) fn wordpress_usage(data: &Kept) -> WordPressUsage {
    let points: Vec<(Date, usize, usize)> = data
        .weeks
        .iter()
        .map(|week| {
            let wp = week
                .pages
                .values()
                .filter(|p| p.wordpress.is_some())
                .count();
            (week.date, week.collected(), wp)
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

/// One observed security update: a site leaving a vulnerability's
/// affected range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateEvent {
    /// The site.
    pub domain: String,
    /// The vulnerability left behind.
    pub vuln_id: String,
    /// Version the site ran while vulnerable (last seen).
    pub from_version: Version,
    /// Version that took it out of the affected range.
    pub to_version: Version,
    /// Snapshot date of the update.
    pub observed: Date,
    /// Days between the patch release and the observed update.
    pub delay_days: i32,
    /// Whether the site was WordPress at update time (attribution).
    pub wordpress: bool,
}

/// §7's aggregate: the window of vulnerability.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateDelayReport {
    /// Basis used for "affected".
    pub basis: Basis,
    /// Every observed update of a vulnerable deployment.
    pub events: Vec<UpdateEvent>,
    /// Mean delay over all events (micro average).
    pub mean_delay_days: f64,
    /// Mean delay per vulnerability: `(id, mean days, events)`.
    pub per_vuln: Vec<(String, f64, usize)>,
    /// Mean of the per-vulnerability means (macro average — the paper's
    /// 531.2-day CVE-basis / 701.2-day TVV-basis framing, which weights
    /// each vulnerability equally instead of each update event).
    pub macro_mean_delay_days: f64,
    /// Number of distinct websites that performed such an update.
    pub websites: usize,
    /// Share of update events attributable to WordPress sites.
    pub wordpress_share: f64,
}

/// Measures update delays: for every `(site, vulnerability)` pair, the
/// days between the patch release and the first snapshot where the site
/// runs a version outside the affected range (having been inside it on
/// the previous snapshot), counting only post-patch updates.
/// Test-only: the one-shot reference [`crate::accum::UpdateBehaviorAccum`] is pinned against.
#[cfg(test)]
pub(crate) fn update_delays(data: &Kept, db: &VulnDb, basis: Basis) -> UpdateDelayReport {
    let mut events = Vec::new();
    // Track, per (domain, record), the last affected version seen.
    let mut armed: BTreeMap<(String, usize), Version> = BTreeMap::new();
    let records: Vec<_> = db
        .records()
        .iter()
        .enumerate()
        .filter(|(_, r)| r.patched_date.is_some())
        .collect();

    for week in &data.weeks {
        for (domain, page) in &week.pages {
            for &(idx, record) in &records {
                let Some(det) = page.library(record.library) else {
                    continue;
                };
                let Some(version) = &det.version else {
                    continue;
                };
                let affected = match basis {
                    Basis::CveClaimed => record.claims(version),
                    Basis::TrueVulnerable => record.truly_affects(version),
                };
                let key = (domain.clone(), idx);
                if affected {
                    armed.insert(key, version.clone());
                } else if let Some(from_version) = armed.remove(&key) {
                    // Left the affected range: a security update, provided
                    // it moved forward and happened after the patch.
                    let patched_date = record.patched_date.expect("filtered");
                    if version > &from_version && week.date >= patched_date {
                        events.push(UpdateEvent {
                            domain: domain.clone(),
                            vuln_id: record.id.clone(),
                            from_version,
                            to_version: version.clone(),
                            observed: week.date,
                            delay_days: week.date.days_since(patched_date),
                            wordpress: page.wordpress.is_some(),
                        });
                    }
                }
            }
        }
    }

    let delays: Vec<f64> = events.iter().map(|e| e.delay_days as f64).collect();
    let websites = events
        .iter()
        .map(|e| &e.domain)
        .collect::<std::collections::BTreeSet<_>>()
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

/// §9 (future work): a regression — a site observed moving *down* a
/// library's version order, typically right after an upgrade broke it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegressionEvent {
    /// The site.
    pub domain: String,
    /// The library rolled back.
    pub library: LibraryId,
    /// Version before the rollback.
    pub from_version: Version,
    /// Version rolled back to.
    pub to_version: Version,
    /// Snapshot date of the rollback.
    pub observed: Date,
    /// True when the rollback re-entered a known-vulnerable range
    /// (CVE-claimed basis, reports disclosed by the rollback date).
    pub back_into_vulnerable: bool,
}

/// Scans the dataset for version downgrades (the paper's §9 future-work
/// question: do sites update and then regress for compatibility?).
/// Test-only: the one-shot reference [`crate::accum::UpdateBehaviorAccum`] is pinned against.
#[cfg(test)]
pub(crate) fn regressions(data: &Kept, db: &VulnDb) -> Vec<RegressionEvent> {
    let mut last: BTreeMap<(String, LibraryId), Version> = BTreeMap::new();
    let mut out = Vec::new();
    for week in &data.weeks {
        for (domain, page) in &week.pages {
            for det in &page.detections {
                let Some(version) = &det.version else {
                    continue;
                };
                let key = (domain.clone(), det.library);
                if let Some(prev) = last.get(&key) {
                    if version < prev {
                        out.push(RegressionEvent {
                            domain: domain.clone(),
                            library: det.library,
                            from_version: prev.clone(),
                            to_version: version.clone(),
                            observed: week.date,
                            back_into_vulnerable: db.is_vulnerable_known_by(
                                det.library,
                                version,
                                Basis::CveClaimed,
                                week.date,
                            ),
                        });
                    }
                }
                last.insert(key, version.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::UpdateBehaviorAccum;
    use crate::dataset::testkit::{self, Over};

    fn v(s: &str) -> Version {
        Version::parse(s).expect("version")
    }

    #[test]
    fn fig7a_wordpress_wave_shows_in_version_series() {
        let data = testkit::long();
        let series = version_series(
            data,
            LibraryId::JQuery,
            &[v("1.12.4"), v("3.5.1"), v("3.6.0")],
            0,
        );
        let s1124 = &series[0];
        let s351 = &series[1];
        let s360 = &series[2];
        // Before the Dec 2020 wave.
        let before = Date::new(2020, 11, 1);
        // After the wave settles.
        let after = Date::new(2021, 2, 15);
        assert!(
            s351.at(after) > s351.at(before) + 5,
            "3.5.1 jumps: {} -> {}",
            s351.at(before),
            s351.at(after)
        );
        assert!(
            s1124.at(after) < s1124.at(before),
            "1.12.4 drops: {} -> {}",
            s1124.at(before),
            s1124.at(after)
        );
        // Aug 2021: 3.6.0 wave.
        let late = Date::new(2021, 12, 1);
        assert!(
            s360.at(late) > s360.at(after),
            "3.6.0 rises later: {} -> {}",
            s360.at(after),
            s360.at(late)
        );
    }

    #[test]
    fn fig7b_wave_is_wordpress_driven() {
        let data = testkit::long();
        let all = version_series(data, LibraryId::JQuery, &[v("3.5.1")], 0);
        let wp = version_series_wordpress(data, LibraryId::JQuery, &[v("3.5.1")]);
        let after = Date::new(2021, 2, 15);
        let total_jump = all[0].at(after);
        let wp_jump = wp[0].at(after);
        assert!(
            wp_jump * 10 >= total_jump * 7,
            "WordPress dominates the 3.5.1 population: {wp_jump}/{total_jump}"
        );
    }

    #[test]
    fn fig9_wordpress_share() {
        let data = testkit::small();
        let usage = UpdateBehaviorAccum::over(data, &VulnDb::builtin()).wordpress_usage();
        assert!(
            (0.20..0.34).contains(&usage.average_share),
            "WordPress {:.3} ≈ 26.9%",
            usage.average_share
        );
        assert_eq!(usage.points.len(), data.week_count());
    }

    #[test]
    fn auto_top_versions_include_dominant() {
        let data = testkit::small();
        let series = version_series(data, LibraryId::JQuery, &[], 5);
        assert_eq!(series.len(), 5);
        assert!(
            series.iter().any(|s| s.version == v("1.12.4")),
            "dominant version among the top-5"
        );
    }

    #[test]
    fn update_delays_are_positive_and_tvv_is_slower() {
        let data = testkit::long();
        let db = VulnDb::builtin();
        let behavior = UpdateBehaviorAccum::over(data, &db);
        let claimed = behavior.delays(Basis::CveClaimed);
        assert!(
            !claimed.events.is_empty(),
            "some updates observed over four years"
        );
        assert!(claimed.mean_delay_days > 0.0);
        for e in &claimed.events {
            assert!(e.delay_days >= 0);
            assert!(e.to_version > e.from_version);
        }
        let tvv = behavior.delays(Basis::TrueVulnerable);
        // §7: understated CVEs make the true window longer — moving to
        // 3.5.1 clears the claimed ranges but not CVE-2020-7656's true
        // range, which only 3.6.0 (Aug 2021 wave) escapes.
        assert!(
            tvv.mean_delay_days > claimed.mean_delay_days,
            "TVV {:.1} > claimed {:.1}",
            tvv.mean_delay_days,
            claimed.mean_delay_days
        );
    }

    #[test]
    fn regressions_exist_and_mostly_reenter_vulnerable_ranges() {
        let data = testkit::long();
        let db = VulnDb::builtin();
        let events = UpdateBehaviorAccum::over(data, &db).regression_events();
        assert!(
            !events.is_empty(),
            "some upgrade-then-rollback cycles over four years"
        );
        for e in &events {
            assert!(e.to_version < e.from_version);
        }
        // Some rollbacks land back on claimed-vulnerable versions — the
        // §9 concern. (Not a majority: libraries without CVEs — Modernizr,
        // JS-Cookie, … — regress too.)
        let back_vuln = events.iter().filter(|e| e.back_into_vulnerable).count();
        assert!(
            back_vuln > 0,
            "at least one of {} rollbacks re-enters a vulnerable range",
            events.len()
        );
    }

    #[test]
    fn update_delay_magnitude_matches_paper_scale() {
        let data = testkit::long();
        let db = VulnDb::builtin();
        let report = UpdateBehaviorAccum::over(data, &db).delays(Basis::CveClaimed);
        // Paper: 531.2 days on average. Our synthetic dynamics should land
        // in the same "takes the better part of a year or more" regime.
        assert!(
            (150.0..900.0).contains(&report.mean_delay_days),
            "mean delay {:.1} days",
            report.mean_delay_days
        );
        // WordPress is the main contributor to observed updates.
        assert!(
            report.wordpress_share > 0.4,
            "WordPress share {:.2}",
            report.wordpress_share
        );
    }
}
