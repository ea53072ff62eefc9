//! The inaccessible-domain filter (paper §4.1).
//!
//! "We filter out the domains responding with error pages (e.g., with
//! '4xx' error status code) or empty pages (less than 400 bytes) for the
//! four consecutive weeks in the last month of our data collection
//! period." This module implements exactly that rule over per-week fetch
//! summaries.

use std::collections::{BTreeMap, BTreeSet};

/// The paper's byte threshold below which a page is error/empty.
pub const EMPTY_PAGE_THRESHOLD: usize = 400;

/// The paper's window: four consecutive weeks at the end of the study.
pub const FINAL_WEEKS: usize = 4;

/// True when a single fetch outcome counts as error/empty under the
/// paper's rule: unreachable, non-2xx status, or a sub-threshold body.
pub fn page_is_error_or_empty(status: Option<u16>, body_len: usize) -> bool {
    match status {
        None => true,
        Some(s) if (400..600).contains(&s) => true,
        Some(_) => body_len < EMPTY_PAGE_THRESHOLD,
    }
}

/// Per-domain, per-week summary used by the filter (a slimmed-down
/// [`FetchRecord`](crate::FetchRecord)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchSummary {
    /// HTTP status, `None` for transport failures.
    pub status: Option<u16>,
    /// Response body size in bytes.
    pub body_len: usize,
}

/// Applies the paper's rule: a domain is inaccessible when it is
/// error/empty in **each** of the last `final_weeks` snapshots. Domains
/// absent from a snapshot count as error for that week.
///
/// Returns the set of domains to remove from the whole dataset.
pub fn inaccessible_domains(
    weekly: &[BTreeMap<String, FetchSummary>],
    final_weeks: usize,
) -> BTreeSet<String> {
    if weekly.is_empty() || final_weeks == 0 {
        return BTreeSet::new();
    }
    let window = &weekly[weekly.len().saturating_sub(final_weeks)..];
    // Candidate domains: anything seen anywhere in the dataset.
    let mut all: BTreeSet<&String> = BTreeSet::new();
    for week in weekly {
        all.extend(week.keys());
    }
    all.into_iter()
        .filter(|domain| {
            window.iter().all(|week| match week.get(*domain) {
                None => true,
                Some(s) => page_is_error_or_empty(s.status, s.body_len),
            })
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok() -> FetchSummary {
        FetchSummary {
            status: Some(200),
            body_len: 5000,
        }
    }

    fn err4xx() -> FetchSummary {
        FetchSummary {
            status: Some(404),
            body_len: 5000,
        }
    }

    fn tiny() -> FetchSummary {
        FetchSummary {
            status: Some(200),
            body_len: 120,
        }
    }

    fn dead() -> FetchSummary {
        FetchSummary {
            status: None,
            body_len: 0,
        }
    }

    fn weeks(rows: Vec<Vec<(&str, FetchSummary)>>) -> Vec<BTreeMap<String, FetchSummary>> {
        rows.into_iter()
            .map(|row| row.into_iter().map(|(d, s)| (d.to_string(), s)).collect())
            .collect()
    }

    #[test]
    fn page_rule_matches_paper() {
        assert!(page_is_error_or_empty(None, 0));
        assert!(
            page_is_error_or_empty(Some(404), 10_000),
            "4xx even with content"
        );
        assert!(page_is_error_or_empty(Some(503), 10_000));
        assert!(page_is_error_or_empty(Some(200), 399), "below 400 bytes");
        assert!(
            !page_is_error_or_empty(Some(200), 400),
            "threshold is inclusive-ok"
        );
        assert!(!page_is_error_or_empty(Some(200), 50_000));
    }

    #[test]
    fn domain_failing_all_final_weeks_is_dropped() {
        let data = weeks(vec![
            vec![("good.com", ok()), ("bad.com", ok())],
            vec![("good.com", ok()), ("bad.com", err4xx())],
            vec![("good.com", ok()), ("bad.com", dead())],
            vec![("good.com", ok()), ("bad.com", tiny())],
            vec![("good.com", ok()), ("bad.com", err4xx())],
        ]);
        let dropped = inaccessible_domains(&data, 4);
        assert!(dropped.contains("bad.com"));
        assert!(!dropped.contains("good.com"));
    }

    #[test]
    fn one_good_week_in_window_saves_the_domain() {
        let data = weeks(vec![
            vec![("flaky.com", err4xx())],
            vec![("flaky.com", err4xx())],
            vec![("flaky.com", ok())], // recovers inside the window
            vec![("flaky.com", err4xx())],
            vec![("flaky.com", err4xx())],
        ]);
        let dropped = inaccessible_domains(&data, 4);
        assert!(!dropped.contains("flaky.com"));
    }

    #[test]
    fn early_failures_outside_window_are_forgiven() {
        let data = weeks(vec![
            vec![("recovered.com", dead())],
            vec![("recovered.com", dead())],
            vec![("recovered.com", ok())],
            vec![("recovered.com", ok())],
            vec![("recovered.com", ok())],
            vec![("recovered.com", ok())],
        ]);
        assert!(inaccessible_domains(&data, 4).is_empty());
    }

    #[test]
    fn missing_domain_counts_as_error_week() {
        let data = weeks(vec![
            vec![("gone.com", ok()), ("stays.com", ok())],
            vec![("stays.com", ok())],
            vec![("stays.com", ok())],
            vec![("stays.com", ok())],
            vec![("stays.com", ok())],
        ]);
        let dropped = inaccessible_domains(&data, 4);
        assert!(dropped.contains("gone.com"));
        assert!(!dropped.contains("stays.com"));
    }

    #[test]
    fn degenerate_inputs() {
        assert!(inaccessible_domains(&[], 4).is_empty());
        let one = weeks(vec![vec![("a.com", err4xx())]]);
        // Window larger than dataset: uses what exists.
        assert!(inaccessible_domains(&one, 4).contains("a.com"));
        assert!(inaccessible_domains(&one, 0).is_empty());
    }
}
