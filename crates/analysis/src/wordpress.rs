//! Table 4 / Appendix: WordPress core versions in the wild and the sites
//! affected by its ten highlighted CVEs.

use webvuln_cvedb::WordPressCve;

/// One Table 4 output row.
#[derive(Debug, Clone)]
pub struct WordPressCveRow {
    /// The CVE.
    pub cve: WordPressCve,
    /// Sites whose observed core version falls in the affected range, at
    /// the final snapshot.
    pub affected_sites: usize,
    /// Share of version-identified WordPress sites affected.
    pub affected_share: f64,
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The one-shot builders over a whole kept dataset that the
    //! accumulators are pinned against.

    use super::*;
    use {
        crate::dataset::testkit::Kept, std::collections::BTreeMap, webvuln_cvedb::VulnDb,
        webvuln_version::Version,
    };

    /// Builds Table 4 from the final snapshot (the paper reports a census).
    /// Test-only: the one-shot reference [`crate::accum::UpdateBehaviorAccum`] is pinned against.
    pub(crate) fn table4(data: &Kept, db: &VulnDb) -> Vec<WordPressCveRow> {
        let last = data.weeks.last();
        let versions: Vec<Version> = last
            .map(|week| {
                week.pages
                    .values()
                    .filter_map(|p| p.wordpress.clone().flatten())
                    .collect()
            })
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

    /// Distribution of observed WordPress core versions at one week.
    pub(crate) fn version_census(data: &Kept, week: usize) -> BTreeMap<Version, usize> {
        let mut out = BTreeMap::new();
        if let Some(snapshot) = data.weeks.get(week) {
            for page in snapshot.pages.values() {
                if let Some(Some(version)) = &page.wordpress {
                    *out.entry(version.clone()).or_default() += 1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::*;
    use crate::accum::UpdateBehaviorAccum;
    use crate::dataset::testkit::{self, Over};
    use webvuln_cvedb::VulnDb;
    use webvuln_version::Version;

    #[test]
    fn recent_cves_affect_more_sites_than_ancient_ones() {
        let data = testkit::long();
        let db = VulnDb::builtin();
        let rows = UpdateBehaviorAccum::over(data, &db).table4(&db);
        assert_eq!(rows.len(), 10);
        // Paper: ~97.7% of WP sites are affected by the most recent CVEs
        // (they cover broad version ranges up to 5.8.3), while the most
        // severe old CVEs affect ~0.36% (ancient cores only).
        let recent: f64 = rows
            .iter()
            .filter(|r| r.cve.recent)
            .map(|r| r.affected_share)
            .sum::<f64>()
            / 5.0;
        let old: f64 = rows
            .iter()
            .filter(|r| !r.cve.recent)
            .map(|r| r.affected_share)
            .sum::<f64>()
            / 5.0;
        assert!(recent > 0.3, "recent CVEs hit broadly: {recent:.3}");
        assert!(old < 0.10, "ancient CVEs barely hit: {old:.3}");
        assert!(recent > old * 3.0);
    }

    #[test]
    fn version_census_moves_forward_over_time() {
        let data = testkit::long();
        let early = version_census(data, 0);
        let late = version_census(data, data.week_count() - 1);
        assert!(!early.is_empty());
        assert!(!late.is_empty());
        let max_early = early.keys().max().expect("non-empty").clone();
        let max_late = late.keys().max().expect("non-empty").clone();
        assert!(
            max_late > max_early,
            "cores advance: {max_early} -> {max_late}"
        );
        // The Dec 2020 auto-update cohort runs ≥ 5.6 by the end.
        let v56 = Version::parse("5.6").expect("version");
        let on_modern: usize = late
            .iter()
            .filter(|(v, _)| **v >= v56)
            .map(|(_, c)| c)
            .sum();
        let total: usize = late.values().sum();
        assert!(
            on_modern * 2 > total,
            "most WP sites are ≥ 5.6 by 2022: {on_modern}/{total}"
        );
    }
}
