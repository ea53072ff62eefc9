//! §5 / Figure 2: collected-website series and resource-type usage.

use webvuln_cvedb::Date;
use webvuln_fingerprint::ResourceType;

/// Figure 2(a): pages collected per week.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectionSeries {
    /// `(date, collected pages)` per week.
    pub points: Vec<(Date, usize)>,
    /// Average per week.
    pub average: f64,
}

/// Figure 2(b): one usage series per resource class.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceUsage {
    /// Resource class.
    pub resource: ResourceType,
    /// Weekly share of collected sites using it.
    pub weekly_share: Vec<(Date, f64)>,
    /// Average share across the study.
    pub average_share: f64,
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The one-shot builders over a whole kept dataset that the
    //! accumulators are pinned against.

    use super::*;
    use {crate::dataset::testkit::Kept, crate::stats::mean};

    /// Builds Figure 2(a).
    /// Test-only: the one-shot reference [`crate::accum::CollectionAccum`] is pinned against.
    pub(crate) fn collection_series(data: &Kept) -> CollectionSeries {
        let points: Vec<(Date, usize)> =
            data.weeks.iter().map(|w| (w.date, w.collected())).collect();
        let average = mean(&points.iter().map(|&(_, c)| c as f64).collect::<Vec<_>>());
        CollectionSeries { points, average }
    }

    /// Builds Figure 2(b) for all eight classes, ordered by average share.
    /// Test-only: the one-shot reference [`crate::accum::CollectionAccum`] is pinned against.
    pub(crate) fn resource_usage(data: &Kept) -> Vec<ResourceUsage> {
        let mut out: Vec<ResourceUsage> = ResourceType::ALL
            .iter()
            .map(|&resource| {
                let weekly_share: Vec<(Date, f64)> = data
                    .weeks
                    .iter()
                    .map(|w| {
                        let total = w.collected().max(1);
                        let using = w
                            .pages
                            .values()
                            .filter(|p| p.resource_types.contains(&resource))
                            .count();
                        (w.date, using as f64 / total as f64)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::CollectionAccum;
    use crate::dataset::testkit::{self, Over};
    use webvuln_cvedb::VulnDb;

    #[test]
    fn collection_series_is_stable() {
        let data = testkit::small();
        let series = CollectionAccum::over(data, &VulnDb::builtin()).collection();
        assert_eq!(series.points.len(), 30);
        // The collected count stays within a narrow band week to week
        // (Fig 2a is flat apart from noise).
        let min = series
            .points
            .iter()
            .map(|&(_, c)| c)
            .min()
            .expect("nonempty");
        let max = series
            .points
            .iter()
            .map(|&(_, c)| c)
            .max()
            .expect("nonempty");
        assert!(
            (max - min) as f64 / series.average < 0.2,
            "min {min} max {max} avg {}",
            series.average
        );
    }

    #[test]
    fn resource_ordering_matches_fig2b() {
        let data = testkit::small();
        let usage = CollectionAccum::over(data, &VulnDb::builtin()).resources();
        let share = |t: ResourceType| {
            usage
                .iter()
                .find(|u| u.resource == t)
                .expect("present")
                .average_share
        };
        // The paper's ordering: JavaScript > CSS > Favicon >
        // imported-HTML > XML > the tail.
        assert!(share(ResourceType::JavaScript) > share(ResourceType::Css));
        assert!(share(ResourceType::Css) > share(ResourceType::Favicon));
        assert!(share(ResourceType::Favicon) > share(ResourceType::ImportedHtml));
        assert!(share(ResourceType::ImportedHtml) > share(ResourceType::Xml));
        assert!(share(ResourceType::Xml) > share(ResourceType::Svg));
        // And the headline numbers land near the paper's.
        let js = share(ResourceType::JavaScript);
        assert!((0.90..0.99).contains(&js), "JavaScript {js} ≈ 94.7%");
        let css = share(ResourceType::Css);
        assert!((0.83..0.93).contains(&css), "CSS {css} ≈ 88.4%");
        let fav = share(ResourceType::Favicon);
        assert!((0.48..0.62).contains(&fav), "Favicon {fav} ≈ 55.0%");
        let flash = share(ResourceType::Flash);
        assert!((0.001..0.03).contains(&flash), "Flash {flash} ≈ 0.7%");
    }
}
