//! §6.1 landscape of JavaScript library usage: Table 1 (usage, inclusion
//! types, versions, vulnerabilities), Figure 3 (usage trends) and Table 5
//! (top CDNs per library).

use webvuln_cvedb::{Date, LibraryId};
use webvuln_version::Version;

/// One Table 1 row.
#[derive(Debug, Clone)]
pub struct LibraryRow {
    /// The library.
    pub library: LibraryId,
    /// Average number of sites using it per week.
    pub average_sites: f64,
    /// Average share of collected sites.
    pub usage_share: f64,
    /// Internal-inclusion share among its users.
    pub internal_share: f64,
    /// External-inclusion share among its users.
    pub external_share: f64,
    /// CDN share among external inclusions.
    pub cdn_share: f64,
    /// Distinct versions observed in the dataset ("Found").
    pub versions_found: usize,
    /// Total released versions ("Total", from the catalog).
    pub versions_total: usize,
    /// Most common version and its share among the library's users.
    pub dominant: Option<(Version, f64)>,
    /// Newest version observed in the dataset.
    pub latest_observed: Option<Version>,
    /// Vulnerability reports during the study (Table 1 "# Vul.").
    pub vuln_reports: usize,
}

/// CDN hosts known to the analysis (used to split "CDN" from other
/// external origins, mirroring the paper's manual host classification).
pub(crate) fn is_cdn_host(host: &str) -> bool {
    const CDNS: &[&str] = &[
        "ajax.googleapis.com",
        "code.jquery.com",
        "cdnjs.cloudflare.com",
        "cdn.jsdelivr.net",
        "maxcdn.bootstrapcdn.com",
        "stackpath.bootstrapcdn.com",
        "c0.wp.com",
        "s0.wp.com",
        "unpkg.com",
        "cdn.shopify.com",
        "secureservercdn.net",
        "polyfill.io",
        "cdn.polyfill.io",
        "widget.trustpilot.com",
        "momentjs.com",
        "requirejs.org",
        "static.parastorage.com",
        "strato-editor.com",
        "cdn.prestosports.com",
    ];
    CDNS.contains(&host)
}

/// Figure 3: weekly usage share series for one library.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageTrend {
    /// The library.
    pub library: LibraryId,
    /// `(date, share of collected sites)` per week.
    pub points: Vec<(Date, f64)>,
}

impl UsageTrend {
    /// Share at the first snapshot.
    pub fn first(&self) -> f64 {
        self.points.first().map_or(0.0, |&(_, s)| s)
    }

    /// Share at the last snapshot.
    pub fn last(&self) -> f64 {
        self.points.last().map_or(0.0, |&(_, s)| s)
    }
}

/// Table 5: external-host breakdown for one library.
#[derive(Debug, Clone, PartialEq)]
pub struct CdnBreakdown {
    /// The library.
    pub library: LibraryId,
    /// `(host, share of the library's external inclusions)`, descending.
    pub hosts: Vec<(String, f64)>,
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The one-shot builders over a whole kept dataset that the
    //! accumulators are pinned against.

    use super::*;
    use {
        crate::dataset::testkit::Kept, crate::stats::mean, std::collections::BTreeMap,
        webvuln_cvedb::VulnDb, webvuln_fingerprint::DetectedInclusion,
    };

    /// Builds Table 1 for the top-15 libraries, ordered by usage.
    /// Test-only: the one-shot reference [`crate::accum::LandscapeAccum`] is pinned against.
    pub(crate) fn table1(data: &Kept, db: &VulnDb) -> Vec<LibraryRow> {
        let mut rows: Vec<LibraryRow> = LibraryId::ALL
            .iter()
            .map(|&library| library_row(data, db, library))
            .collect();
        rows.sort_by(|a, b| b.usage_share.partial_cmp(&a.usage_share).expect("no NaNs"));
        rows
    }

    fn library_row(data: &Kept, db: &VulnDb, library: LibraryId) -> LibraryRow {
        let mut weekly_share = Vec::new();
        let mut weekly_sites = Vec::new();
        let mut internal = 0usize;
        let mut external = 0usize;
        let mut external_cdn = 0usize;
        let mut version_counts: BTreeMap<Version, usize> = BTreeMap::new();
        let mut users_with_version = 0usize;

        for week in &data.weeks {
            let total = week.collected().max(1);
            let mut users = 0usize;
            for page in week.pages.values() {
                let Some(det) = page.library(library) else {
                    continue;
                };
                users += 1;
                match &det.inclusion {
                    DetectedInclusion::Internal => internal += 1,
                    DetectedInclusion::External { host } => {
                        external += 1;
                        if is_cdn_host(host) {
                            external_cdn += 1;
                        }
                    }
                }
                if let Some(version) = &det.version {
                    *version_counts.entry(version.clone()).or_default() += 1;
                    users_with_version += 1;
                }
            }
            weekly_sites.push(users as f64);
            weekly_share.push(users as f64 / total as f64);
        }

        let inclusions = (internal + external).max(1);
        let dominant =
            version_counts
                .iter()
                .max_by_key(|(_, &count)| count)
                .map(|(version, &count)| {
                    (
                        version.clone(),
                        count as f64 / users_with_version.max(1) as f64,
                    )
                });
        let latest_observed = version_counts.keys().max().cloned();

        LibraryRow {
            library,
            average_sites: mean(&weekly_sites),
            usage_share: mean(&weekly_share),
            internal_share: internal as f64 / inclusions as f64,
            external_share: external as f64 / inclusions as f64,
            cdn_share: external_cdn as f64 / external.max(1) as f64,
            versions_found: version_counts.len(),
            versions_total: db.catalog(library).len(),
            dominant,
            latest_observed,
            vuln_reports: db.vuln_report_count(library),
        }
    }

    /// Builds Figure 3's series for every library.
    /// Test-only: the one-shot reference [`crate::accum::LandscapeAccum`] is pinned against.
    pub(crate) fn usage_trends(data: &Kept) -> Vec<UsageTrend> {
        LibraryId::ALL
            .iter()
            .map(|&library| UsageTrend {
                library,
                points: data
                    .weeks
                    .iter()
                    .map(|week| {
                        let total = week.collected().max(1);
                        let users = week
                            .pages
                            .values()
                            .filter(|p| p.library(library).is_some())
                            .count();
                        (week.date, users as f64 / total as f64)
                    })
                    .collect(),
            })
            .collect()
    }

    /// Builds Table 5: top external hosts per library.
    /// Test-only: the one-shot reference [`crate::accum::LandscapeAccum`] is pinned against.
    pub(crate) fn table5(data: &Kept, top: usize) -> Vec<CdnBreakdown> {
        LibraryId::ALL
            .iter()
            .map(|&library| {
                let mut counts: BTreeMap<String, usize> = BTreeMap::new();
                let mut total = 0usize;
                for week in &data.weeks {
                    for page in week.pages.values() {
                        if let Some(det) = page.library(library) {
                            if let DetectedInclusion::External { host } = &det.inclusion {
                                *counts.entry(host.clone()).or_default() += 1;
                                total += 1;
                            }
                        }
                    }
                }
                let mut hosts: Vec<(String, f64)> = counts
                    .into_iter()
                    .map(|(h, c)| (h, c as f64 / total.max(1) as f64))
                    .collect();
                hosts.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaNs"));
                hosts.truncate(top);
                CdnBreakdown { library, hosts }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::LandscapeAccum;
    use crate::dataset::testkit::{self, Over};
    use webvuln_cvedb::VulnDb;

    #[test]
    fn table1_order_and_shares_match_paper() {
        let data = testkit::small();
        let db = VulnDb::builtin();
        let rows = LandscapeAccum::over(data, &VulnDb::builtin()).table1(&db);
        assert_eq!(rows.len(), 15);
        assert_eq!(rows[0].library, LibraryId::JQuery, "jQuery is #1");
        let jq = &rows[0];
        assert!(
            (0.56..0.72).contains(&jq.usage_share),
            "jQuery {:.3} ≈ 64.0%",
            jq.usage_share
        );
        let bootstrap = rows
            .iter()
            .find(|r| r.library == LibraryId::Bootstrap)
            .expect("present");
        assert!(
            (0.16..0.27).contains(&bootstrap.usage_share),
            "Bootstrap {:.3} ≈ 21.5%",
            bootstrap.usage_share
        );
        let migrate = rows
            .iter()
            .find(|r| r.library == LibraryId::JQueryMigrate)
            .expect("present");
        assert!(
            (0.15..0.26).contains(&migrate.usage_share),
            "Migrate {:.3} ≈ 20.8%",
            migrate.usage_share
        );
    }

    #[test]
    fn jquery_dominant_version_is_1_12_4() {
        let data = testkit::small();
        let db = VulnDb::builtin();
        let rows = LandscapeAccum::over(data, &VulnDb::builtin()).table1(&db);
        let jq = &rows[0];
        let (dominant, share) = jq.dominant.clone().expect("jQuery has versions");
        assert_eq!(dominant.to_string(), "1.12.4");
        assert!(
            (0.25..0.55).contains(&share),
            "1.12.4 dominates with {share:.3}"
        );
    }

    #[test]
    fn inclusion_splits_track_table1() {
        let data = testkit::small();
        let db = VulnDb::builtin();
        let rows = LandscapeAccum::over(data, &VulnDb::builtin()).table1(&db);
        let jq = &rows[0];
        // Table 1: jQuery 59.2% internal / 40.8% external, 96.1% CDN.
        // WordPress's bundled (internal) copies push our split higher.
        assert!(
            (0.50..0.80).contains(&jq.internal_share),
            "internal {:.3}",
            jq.internal_share
        );
        assert!(
            (0.88..1.0).contains(&jq.cdn_share),
            "jQuery external is overwhelmingly CDN: {:.3}",
            jq.cdn_share
        );
        assert!((jq.internal_share + jq.external_share - 1.0).abs() < 1e-9);
    }

    #[test]
    fn vuln_report_counts_come_from_db() {
        let data = testkit::small();
        let db = VulnDb::builtin();
        let rows = LandscapeAccum::over(data, &VulnDb::builtin()).table1(&db);
        let by = |lib: LibraryId| {
            rows.iter()
                .find(|r| r.library == lib)
                .expect("present")
                .vuln_reports
        };
        assert_eq!(by(LibraryId::JQuery), 8);
        assert_eq!(by(LibraryId::Bootstrap), 7);
        assert_eq!(by(LibraryId::Modernizr), 0);
    }

    #[test]
    fn versions_found_do_not_exceed_catalog() {
        let data = testkit::small();
        let db = VulnDb::builtin();
        for row in LandscapeAccum::over(data, &VulnDb::builtin()).table1(&db) {
            assert!(
                row.versions_found <= row.versions_total,
                "{}: {} > {}",
                row.library,
                row.versions_found,
                row.versions_total
            );
        }
    }

    #[test]
    fn trends_have_full_length() {
        let data = testkit::small();
        let trends = LandscapeAccum::over(data, &VulnDb::builtin()).trends();
        assert_eq!(trends.len(), 15);
        for t in &trends {
            assert_eq!(t.points.len(), data.week_count());
        }
    }

    #[test]
    fn table5_jquery_top_host_is_google() {
        let data = testkit::small();
        let cdns = LandscapeAccum::over(data, &VulnDb::builtin()).table5(3);
        let jq = cdns
            .iter()
            .find(|c| c.library == LibraryId::JQuery)
            .expect("present");
        assert!(!jq.hosts.is_empty());
        assert_eq!(jq.hosts[0].0, "ajax.googleapis.com", "{:?}", jq.hosts);
        assert!(jq.hosts.len() <= 3);
        // Shares descend.
        for w in jq.hosts.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
