//! §6.2 / §6.4 vulnerability measurements: prevalence of vulnerable
//! websites (under CVE-claimed ranges and under True Vulnerable
//! Versions), per-CVE affected-website series (Table 2, Figures 5/14),
//! and the per-website vulnerability-count CDF (Figure 12).

use crate::stats::Cdf;
use webvuln_cvedb::{Basis, Date};
#[cfg(test)]
use {
    crate::dataset::testkit::Kept,
    crate::stats::{mean, median},
    std::collections::BTreeMap,
    webvuln_cvedb::VulnDb,
};

/// Weekly prevalence of vulnerable websites under one basis.
#[derive(Debug, Clone, PartialEq)]
pub struct PrevalenceSeries {
    /// Which version information was trusted.
    pub basis: Basis,
    /// `(date, fraction of collected sites with ≥1 vulnerability)`.
    pub points: Vec<(Date, f64)>,
    /// Average fraction across the study.
    pub average: f64,
}

/// Computes §6.2's headline series: the share of websites carrying at
/// least one vulnerable library. A site counts as vulnerable in week `w`
/// only through reports already *disclosed* by `w` — what a developer
/// consulting the CVE database that week could know. (Retroactive
/// constant-range counting is what [`CveImpact`] holds instead.)
/// Test-only: the one-shot reference [`crate::accum::CveExposureAccum`] is pinned against.
#[cfg(test)]
pub(crate) fn prevalence(data: &Kept, db: &VulnDb, basis: Basis) -> PrevalenceSeries {
    let points: Vec<(Date, f64)> = data
        .weeks
        .iter()
        .map(|week| {
            let total = week.collected().max(1);
            let vulnerable = week
                .pages
                .values()
                .filter(|page| {
                    page.detections.iter().any(|det| {
                        det.version.as_ref().is_some_and(|v| {
                            db.is_vulnerable_known_by(det.library, v, basis, week.date)
                        })
                    })
                })
                .count();
            (week.date, vulnerable as f64 / total as f64)
        })
        .collect();
    let average = mean(&points.iter().map(|&(_, f)| f).collect::<Vec<_>>());
    PrevalenceSeries {
        basis,
        points,
        average,
    }
}

/// Table 2 / Figure 5: affected-website counts for one vulnerability.
#[derive(Debug, Clone, PartialEq)]
pub struct CveImpact {
    /// Report id.
    pub id: String,
    /// Weekly counts of sites on versions the CVE claims vulnerable.
    pub claimed_sites: Vec<(Date, usize)>,
    /// Weekly counts of sites on truly-vulnerable versions.
    pub true_sites: Vec<(Date, usize)>,
    /// Average site count under the claimed range.
    pub claimed_average: f64,
    /// Average site count under TVV.
    pub true_average: f64,
    /// Average share of the library's users on claimed-vulnerable versions.
    pub claimed_share_of_users: f64,
}

/// Builds per-CVE impact series (Figures 5 and 14; Table 2's website
/// columns).
/// Test-only: the one-shot reference [`crate::accum::CveExposureAccum`] is pinned against.
#[cfg(test)]
pub(crate) fn cve_impact(data: &Kept, db: &VulnDb, id: &str) -> Option<CveImpact> {
    let record = db.record(id)?;
    let mut claimed_sites = Vec::new();
    let mut true_sites = Vec::new();
    let mut shares = Vec::new();
    for week in &data.weeks {
        let mut claimed = 0usize;
        let mut truly = 0usize;
        let mut users = 0usize;
        for page in week.pages.values() {
            let Some(det) = page.library(record.library) else {
                continue;
            };
            users += 1;
            let Some(version) = &det.version else {
                continue;
            };
            if record.claims(version) {
                claimed += 1;
            }
            if record.truly_affects(version) {
                truly += 1;
            }
        }
        claimed_sites.push((week.date, claimed));
        true_sites.push((week.date, truly));
        shares.push(if users == 0 {
            0.0
        } else {
            claimed as f64 / users as f64
        });
    }
    Some(CveImpact {
        id: id.to_string(),
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
    })
}

/// Figure 12: the distribution of per-website vulnerability counts.
#[derive(Debug, Clone, PartialEq)]
pub struct VulnCountDistribution {
    /// Basis used.
    pub basis: Basis,
    /// Empirical CDF over websites of their across-weeks average count.
    pub cdf: Cdf,
    /// Mean of the per-website averages.
    pub mean: f64,
    /// Median of the per-website averages.
    pub median: f64,
}

/// Builds Figure 12 under one basis: for every website, the average
/// number of vulnerabilities it carries across the weeks it was observed.
/// Test-only: the one-shot reference [`crate::accum::CveExposureAccum`] is pinned against.
#[cfg(test)]
pub(crate) fn vuln_count_distribution(
    data: &Kept,
    db: &VulnDb,
    basis: Basis,
) -> VulnCountDistribution {
    let mut per_site: BTreeMap<&String, (u64, u64)> = BTreeMap::new(); // (sum, weeks)
    for week in &data.weeks {
        for (domain, page) in &week.pages {
            let count: u64 = page
                .detections
                .iter()
                .filter_map(|det| det.version.as_ref().map(|v| (det.library, v)))
                .map(|(lib, v)| db.vuln_count_known_by(lib, v, basis, week.date) as u64)
                .sum();
            let entry = per_site.entry(domain).or_default();
            entry.0 += count;
            entry.1 += 1;
        }
    }
    let averages: Vec<f64> = per_site
        .values()
        .map(|&(sum, weeks)| sum as f64 / weeks.max(1) as f64)
        .collect();
    VulnCountDistribution {
        basis,
        cdf: Cdf::of(&averages),
        mean: mean(&averages),
        median: median(&averages),
    }
}

/// §6.4's refined-vulnerable-websites summary: sites affected only when
/// the corrected (TVV) information is used.
#[derive(Debug, Clone, PartialEq)]
pub struct RefinementSummary {
    /// Average prevalence under CVE-claimed ranges.
    pub claimed_average: f64,
    /// Average prevalence under TVV.
    pub true_average: f64,
    /// Weekly gap series `(date, tvv_fraction - claimed_fraction)`.
    pub gap: Vec<(Date, f64)>,
}

/// Compares the two bases (the "+2%" takeaway, and its growth over time).
/// Test-only: the one-shot reference [`crate::accum::CveExposureAccum`] is pinned against.
#[cfg(test)]
pub(crate) fn refinement_summary(data: &Kept, db: &VulnDb) -> RefinementSummary {
    let claimed = prevalence(data, db, Basis::CveClaimed);
    let tvv = prevalence(data, db, Basis::TrueVulnerable);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::CveExposureAccum;
    use crate::dataset::testkit::{self, Over};

    /// One report's impact series, as the accumulator computes it.
    fn impact_of(data: &Kept, db: &VulnDb, id: &str) -> Option<CveImpact> {
        CveExposureAccum::over(data, db)
            .cve_impacts(db)
            .into_iter()
            .find(|impact| impact.id == id)
    }

    #[test]
    fn prevalence_matches_headline_shape() {
        let data = testkit::small();
        let db = VulnDb::builtin();
        let claimed = CveExposureAccum::over(data, &db).prevalence(Basis::CveClaimed);
        // Early-study snapshots (2018): most jQuery versions in the wild
        // are claimed-vulnerable, so prevalence sits well above the
        // paper's four-year average of 41.2% (which is pulled down by the
        // post-2020 patched era). What matters here: the majority of the
        // web is vulnerable, but not all of it.
        assert!(
            (0.40..0.85).contains(&claimed.average),
            "claimed prevalence {:.3}",
            claimed.average
        );
        let tvv = CveExposureAccum::over(data, &db).prevalence(Basis::TrueVulnerable);
        assert!(
            tvv.average >= claimed.average,
            "TVV ≥ claimed: {:.3} vs {:.3}",
            tvv.average,
            claimed.average
        );
    }

    #[test]
    fn cve_2020_7656_has_larger_true_impact() {
        let data = testkit::small();
        let db = VulnDb::builtin();
        let impact = impact_of(data, &db, "CVE-2020-7656").expect("impact");
        // Fig 5(a): the true range (< 3.6.0) covers far more sites than
        // the claimed range (< 1.9.0).
        assert!(
            impact.true_average > impact.claimed_average * 2.0,
            "claimed {:.1} vs true {:.1}",
            impact.claimed_average,
            impact.true_average
        );
    }

    #[test]
    fn cve_2020_11022_is_overstated_in_impact() {
        let data = testkit::small();
        let db = VulnDb::builtin();
        let impact = impact_of(data, &db, "CVE-2020-11022").expect("impact");
        // Fig 5(c): fewer sites are truly vulnerable than claimed.
        assert!(impact.true_average < impact.claimed_average);
        assert!(impact.true_average > 0.0);
    }

    #[test]
    fn big_jquery_cves_cover_most_jquery_users() {
        let data = testkit::small();
        let db = VulnDb::builtin();
        // Table 2: CVE-2020-11023 affects ~56% of jQuery sites (the 2018
        // share is higher since 3.5+ doesn't exist yet).
        let impact = impact_of(data, &db, "CVE-2020-11023").expect("impact");
        assert!(
            impact.claimed_share_of_users > 0.5,
            "share {:.3}",
            impact.claimed_share_of_users
        );
    }

    #[test]
    fn unknown_cve_yields_none() {
        let data = testkit::small();
        let db = VulnDb::builtin();
        assert!(impact_of(data, &db, "CVE-1999-0001").is_none());
    }

    #[test]
    fn fig12_tvv_counts_dominate_claimed() {
        let data = testkit::small();
        let db = VulnDb::builtin();
        let exposure = CveExposureAccum::over(data, &db);
        let claimed = exposure.distribution(Basis::CveClaimed);
        let tvv = exposure.distribution(Basis::TrueVulnerable);
        assert!(tvv.mean >= claimed.mean, "{} vs {}", tvv.mean, claimed.mean);
        assert!(claimed.mean > 0.0);
        // CDF sanity: at the max the CDF reaches 1.
        let max = claimed
            .cdf
            .points
            .last()
            .map(|&(x, _)| x)
            .expect("non-empty");
        assert!((claimed.cdf.at(max) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn refinement_gap_favours_tvv_on_average() {
        let data = testkit::small();
        let db = VulnDb::builtin();
        let summary = CveExposureAccum::over(data, &db).refinement();
        // §6.4: the corrected information uncovers more vulnerable sites
        // on average (+2% in the paper; +0.1% in its 2018 slice, which is
        // the era this fixture covers). Individual weeks may dip slightly
        // negative where overstated CVEs dominate.
        assert!(
            summary.true_average >= summary.claimed_average - 0.01,
            "tvv {:.4} vs claimed {:.4}",
            summary.true_average,
            summary.claimed_average
        );
        for &(_, gap) in &summary.gap {
            assert!(gap.abs() <= 0.5, "gap magnitude sane");
        }
    }
}
