//! What an accumulator reads of a week, whoever holds it.
//!
//! [`Accumulate::absorb`](crate::accum::Accumulate::absorb) takes a
//! [`WeekView`]: the week index and date, the collected and
//! carried-forward counts, and the pages in host order — all *after* the
//! §4.1 filter, so no accumulator ever sees a filtered-out domain. Every
//! fold reads a [`DecodedWeek`](crate::store_io::DecodedWeek): the records
//! a store reader decoded, borrowed in place, the filter a skip. A
//! [`WeekSnapshot`] — one crawled week before its commit, its filter
//! applied by dropping the pages — is a view too, for the reference folds
//! the tests and the benchmark probe run.

use crate::dataset::WeekSnapshot;
use webvuln_cvedb::{Date, LibraryId};
use webvuln_fingerprint::{DetectedInclusion, PageAnalysis, ResourceType};
use webvuln_version::Version;

/// One detected library deployment, as the accumulators read it.
#[derive(Debug, Clone, Copy)]
pub struct DetectionView<'a> {
    /// The library.
    pub library: LibraryId,
    /// The extracted version, when observable.
    pub version: Option<&'a Version>,
    /// Serving host of a cross-origin inclusion; `None` = same-origin.
    pub external_host: Option<&'a str>,
}

/// One fingerprinted page.
pub trait PageView {
    /// Detected library deployments, in detection order.
    fn detections(&self) -> impl Iterator<Item = DetectionView<'_>>;
    /// WordPress: `Some(version)`; `Some(None)` = detected, no version.
    fn wordpress(&self) -> Option<Option<&Version>>;
    /// `None` without Flash; otherwise the first `AllowScriptAccess`
    /// value any of the page's embeds states.
    fn flash(&self) -> Option<Option<&str>>;
    /// Whether the page uses resource class `ResourceType::ALL[class]`.
    fn uses_resource(&self, class: usize) -> bool;
    /// External scripts on the page: `(all, lacking integrity)`.
    fn external_scripts(&self) -> (usize, usize);
    /// `crossorigin` values seen on integrity-carrying scripts.
    fn crossorigin_values(&self) -> impl Iterator<Item = &str>;
    /// GitHub-hosted external scripts: `(host, carries integrity)`.
    fn github_scripts(&self) -> impl Iterator<Item = (&str, bool)>;
}

/// One week of pages, filter applied.
pub trait WeekView {
    /// How this view holds a page.
    type Page: PageView;
    /// Snapshot index.
    fn week(&self) -> usize;
    /// Snapshot date.
    fn date(&self) -> Date;
    /// Pages collected this week, carried-forward ones included.
    fn collected(&self) -> usize;
    /// Pages that are a copy of the domain's last usable snapshot.
    fn carried(&self) -> usize;
    /// `(domain, page)` in host order.
    fn pages(&self) -> impl Iterator<Item = (&str, &Self::Page)>;
}

impl PageView for PageAnalysis {
    fn detections(&self) -> impl Iterator<Item = DetectionView<'_>> {
        self.detections.iter().map(|det| DetectionView {
            library: det.library,
            version: det.version.as_ref(),
            external_host: match &det.inclusion {
                DetectedInclusion::Internal => None,
                DetectedInclusion::External { host } => Some(host),
            },
        })
    }

    fn wordpress(&self) -> Option<Option<&Version>> {
        self.wordpress.as_ref().map(Option::as_ref)
    }

    fn flash(&self) -> Option<Option<&str>> {
        let stated = || {
            self.flash
                .iter()
                .find_map(|f| f.allow_script_access.as_deref())
        };
        (!self.flash.is_empty()).then(stated)
    }

    fn uses_resource(&self, class: usize) -> bool {
        self.resource_types.contains(&ResourceType::ALL[class])
    }

    fn external_scripts(&self) -> (usize, usize) {
        (
            self.external_scripts,
            self.external_scripts_without_integrity,
        )
    }

    fn crossorigin_values(&self) -> impl Iterator<Item = &str> {
        self.crossorigin_values.iter().map(String::as_str)
    }

    fn github_scripts(&self) -> impl Iterator<Item = (&str, bool)> {
        self.github_scripts
            .iter()
            .map(|script| (script.host.as_str(), script.integrity))
    }
}

impl WeekView for WeekSnapshot {
    type Page = PageAnalysis;

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
        self.carried_forward.len()
    }

    fn pages(&self) -> impl Iterator<Item = (&str, &PageAnalysis)> {
        self.pages
            .iter()
            .map(|(domain, page)| (domain.as_str(), page))
    }
}
