//! §6.5 — potential security threats of untrusted external libraries:
//! Subresource Integrity adoption (Figure 10), `crossorigin` hygiene, and
//! GitHub-hosted inclusions (Table 6).

use webvuln_cvedb::Date;

/// Figure 10: SRI adoption over time.
#[derive(Debug, Clone, PartialEq)]
pub struct SriAdoption {
    /// `(date, sites with externals, sites with ≥1 unprotected external)`.
    pub points: Vec<(Date, usize, usize)>,
    /// Average share of external-using sites with an unprotected script
    /// (the paper: 99.7%).
    pub average_unprotected_share: f64,
}

/// §6.5's `crossorigin` value census among integrity-carrying scripts.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossoriginCensus {
    /// Share using `anonymous` (the best practice; paper: 97.1%).
    pub anonymous_share: f64,
    /// Share using `use-credentials` (credential-leak risk; paper: 1.9%).
    pub use_credentials_share: f64,
    /// Total values observed.
    pub total: usize,
}

/// Table 6: GitHub-hosted library inclusions.
#[derive(Debug, Clone, PartialEq)]
pub struct GithubReport {
    /// Average sites per week loading a script from a GitHub host
    /// (paper: 1,670 of 782,300).
    pub average_sites: f64,
    /// Distinct repository hosts observed.
    pub hosts: Vec<(String, usize)>,
    /// Share of GitHub-hosted inclusions protected by `integrity`
    /// (paper: 0.6%).
    pub sri_share: f64,
    /// Sites in the top rank tier (scaled "top-10K") using GitHub-hosted
    /// scripts, with their ranks.
    pub top_tier_sites: Vec<(String, usize)>,
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The one-shot builders over a whole kept dataset that the
    //! accumulators are pinned against.

    use super::*;
    use {crate::dataset::testkit::Kept, crate::stats::mean, std::collections::BTreeMap};

    /// Builds Figure 10.
    /// Test-only: the one-shot reference [`crate::accum::SriAccum`] is pinned against.
    pub(crate) fn sri_adoption(data: &Kept) -> SriAdoption {
        let points: Vec<(Date, usize, usize)> = data
            .weeks
            .iter()
            .map(|week| {
                let mut with_external = 0usize;
                let mut unprotected = 0usize;
                for page in week.pages.values() {
                    if page.external_scripts == 0 {
                        continue;
                    }
                    with_external += 1;
                    if page.external_scripts_without_integrity > 0 {
                        unprotected += 1;
                    }
                }
                (week.date, with_external, unprotected)
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

    /// Builds the census across all weeks.
    /// Test-only: the one-shot reference [`crate::accum::SriAccum`] is pinned against.
    pub(crate) fn crossorigin_census(data: &Kept) -> CrossoriginCensus {
        let mut anonymous = 0usize;
        let mut credentials = 0usize;
        let mut total = 0usize;
        for week in &data.weeks {
            for page in week.pages.values() {
                for value in &page.crossorigin_values {
                    total += 1;
                    match value.as_str() {
                        "anonymous" => anonymous += 1,
                        "use-credentials" => credentials += 1,
                        _ => {}
                    }
                }
            }
        }
        CrossoriginCensus {
            anonymous_share: anonymous as f64 / total.max(1) as f64,
            use_credentials_share: credentials as f64 / total.max(1) as f64,
            total,
        }
    }

    /// Builds Table 6.
    /// Test-only: the one-shot reference [`crate::accum::SriAccum`] is pinned against.
    pub(crate) fn github_report(data: &Kept) -> GithubReport {
        let mut weekly_counts = Vec::new();
        let mut host_counts: BTreeMap<String, usize> = BTreeMap::new();
        let mut with_sri = 0usize;
        let mut inclusions = 0usize;
        let mut top_tier: BTreeMap<String, usize> = BTreeMap::new();
        let population = data.ranks.len().max(1);
        let tier = (population / 100).max(1); // scaled "top-10K of 1M"

        for week in &data.weeks {
            let mut this_week = 0usize;
            for (domain, page) in &week.pages {
                if page.github_scripts.is_empty() {
                    continue;
                }
                this_week += 1;
                for script in &page.github_scripts {
                    *host_counts.entry(script.host.clone()).or_default() += 1;
                    inclusions += 1;
                    if script.integrity {
                        with_sri += 1;
                    }
                }
                if let Some(rank) = data.rank(domain) {
                    if rank <= tier {
                        top_tier.insert(domain.clone(), rank);
                    }
                }
            }
            weekly_counts.push(this_week as f64);
        }
        let mut hosts: Vec<(String, usize)> = host_counts.into_iter().collect();
        hosts.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        let mut top_tier_sites: Vec<(String, usize)> = top_tier.into_iter().collect();
        top_tier_sites.sort_by_key(|&(_, rank)| rank);
        GithubReport {
            average_sites: mean(&weekly_counts),
            hosts,
            sri_share: with_sri as f64 / inclusions.max(1) as f64,
            top_tier_sites,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::accum::SriAccum;
    use crate::dataset::testkit::{self, Over};
    use webvuln_cvedb::VulnDb;

    #[test]
    fn fig10_unprotected_externals_dominate() {
        let data = testkit::small();
        let adoption = SriAccum::over(data, &VulnDb::builtin()).adoption();
        // Paper: 99.7% of sites have at least one unprotected external.
        assert!(
            adoption.average_unprotected_share > 0.95,
            "unprotected {:.4}",
            adoption.average_unprotected_share
        );
        for &(_, ext, un) in &adoption.points {
            assert!(un <= ext);
        }
    }

    #[test]
    fn crossorigin_census_prefers_anonymous() {
        let data = testkit::small();
        let census = SriAccum::over(data, &VulnDb::builtin()).crossorigin();
        if census.total > 10 {
            assert!(
                census.anonymous_share > 0.8,
                "anonymous {:.3}",
                census.anonymous_share
            );
            assert!(census.use_credentials_share < 0.2);
        }
    }

    #[test]
    fn github_hosting_is_rare_and_mostly_unprotected() {
        let data = testkit::small();
        let report = SriAccum::over(data, &VulnDb::builtin()).github();
        let avg_share = report.average_sites / data.average_collected();
        // Paper: ~0.21% of sites (1,670 / 782,300).
        assert!(
            (0.0..0.02).contains(&avg_share),
            "github share {:.5}",
            avg_share
        );
        assert!(report.sri_share < 0.3, "sri {:.3}", report.sri_share);
        // Hosts, when present, are github.io/github.com domains.
        for (host, _) in &report.hosts {
            assert!(
                host.ends_with(".github.io") || host.ends_with(".github.com"),
                "{host}"
            );
        }
    }
}
