//! The §4.1 inaccessibility filter as the pipeline runs it: one trailing
//! window fed a week at a time, one verdict, one way to drop the verdict's
//! domains from a snapshot. Collection, [`store_filter_verdict`] (and
//! through it `export_json` and every fold) and the watch daemon all hold
//! a [`FilterWindow`]; the batch rule in
//! [`webvuln_net::filter::inaccessible_domains`] stays as the paper's
//! wording and as the window's differential oracle.

use crate::dataset::WeekSnapshot;
use std::collections::{BTreeSet, VecDeque};
use webvuln_net::filter::{page_is_error_or_empty, FINAL_WEEKS};
use webvuln_store::{AnyReader, StoreError};

/// The trailing [`FINAL_WEEKS`] weeks of the §4.1 filter: per week, the
/// set of domains that answered with a usable page ("alive").
///
/// A domain is filtered out when it is alive in **none** of the window's
/// weeks — error/empty or absent in each, as
/// [`inaccessible_domains`](webvuln_net::filter::inaccessible_domains)
/// puts it. The candidates are the study's **rank list**, handed to
/// [`verdict`](FilterWindow::verdict), not the domains observed so far:
/// a consumer that rebuilds the window from a store's last four weeks
/// (a fold, the watch daemon) cannot know what earlier weeks observed,
/// and a crawl fetches every ranked domain every week, so the two agree
/// on every collected dataset. They differ only for a ranked domain with
/// no fetch summary in any week — dropped here, not a candidate under the
/// batch rule — which has no page anywhere, so no analysis can tell.
#[derive(Debug, Default)]
pub struct FilterWindow {
    alive: VecDeque<BTreeSet<String>>,
}

impl FilterWindow {
    /// An empty window: no week absorbed, nothing filtered.
    pub fn new() -> FilterWindow {
        FilterWindow::default()
    }

    /// The window over a store's trailing committed weeks, read off the
    /// decoded records of every healthy shard.
    pub fn from_store(reader: &AnyReader) -> Result<FilterWindow, StoreError> {
        let weeks = reader.weeks_committed();
        let mut window = FilterWindow::new();
        for week in weeks - FINAL_WEEKS.min(weeks)..weeks {
            let shards = reader
                .healthy()
                .map(|shard| shard.week_records(week, |_| true));
            let shards = shards.collect::<Result<Vec<_>, _>>()?;
            let records = shards.iter().flat_map(|shard| &shard.records);
            window.absorb(records.map(|record| {
                let body_len = record.body_len as usize;
                (record.host.text, record.status, body_len)
            }));
        }
        Ok(window)
    }

    /// Slides the window over the next week's fetch outcomes:
    /// `(domain, status, body length)` of every attempted domain.
    pub fn absorb<'a>(&mut self, fetched: impl IntoIterator<Item = (&'a str, Option<u16>, usize)>) {
        if self.alive.len() == FINAL_WEEKS {
            self.alive.pop_front();
        }
        let alive = fetched
            .into_iter()
            .filter(|&(_, status, body_len)| !page_is_error_or_empty(status, body_len));
        self.alive
            .push_back(alive.map(|(domain, ..)| domain.to_string()).collect());
    }

    /// The domains of `ranked` to filter out, given the weeks absorbed so
    /// far. Before the first week there is no evidence and no verdict.
    pub fn verdict<'a>(&self, ranked: impl IntoIterator<Item = &'a String>) -> BTreeSet<String> {
        if self.alive.is_empty() {
            return BTreeSet::new();
        }
        ranked
            .into_iter()
            .filter(|domain| !self.alive.iter().any(|week| week.contains(*domain)))
            .cloned()
            .collect()
    }
}

/// The §4.1 filter verdict for a store: the stored set when finalized,
/// otherwise the [`FilterWindow`] verdict over its trailing weeks and its
/// genesis rank list.
pub fn store_filter_verdict(reader: &AnyReader) -> Result<BTreeSet<String>, StoreError> {
    if let Some(filtered) = reader.filtered_out() {
        return Ok(filtered.iter().cloned().collect());
    }
    let ranked = reader.genesis().ranks.iter().map(|(host, _)| host);
    Ok(FilterWindow::from_store(reader)?.verdict(ranked))
}

/// Drops filtered-out domains from a snapshot — pages, fetch summaries
/// and carried-forward flags — so an accumulator absorbing the snapshot
/// sees exactly what a store fold, which skips them in its
/// [`DecodedWeek`](crate::store_io::DecodedWeek) view instead, would.
pub fn apply_filter(snapshot: &mut WeekSnapshot, filtered: &BTreeSet<String>) {
    snapshot
        .pages
        .retain(|domain, _| !filtered.contains(domain));
    snapshot
        .summaries
        .retain(|domain, _| !filtered.contains(domain));
    snapshot
        .carried_forward
        .retain(|domain| !filtered.contains(domain));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use webvuln_failpoint::check::{self, Gen};
    use webvuln_net::filter::{inaccessible_domains, FetchSummary};

    fn absorb(window: &mut FilterWindow, week: &BTreeMap<String, FetchSummary>) {
        window.absorb(week.iter().map(|(d, s)| (d.as_str(), s.status, s.body_len)));
    }

    fn summary(g: &mut Gen) -> FetchSummary {
        let (status, body_len) = match g.range(0..=5) {
            0 => (None, 0),
            1 => (Some(404), 5_000),
            2 => (Some(503), 5_000),
            3 => (Some(200), g.range(0..=399) as usize),
            _ => (Some(200), g.range(400..=9_000) as usize),
        };
        FetchSummary { status, body_len }
    }

    /// The window against the batch rule after every absorbed week, on
    /// week sequences where domains vanish from the summaries and return,
    /// answer 4xx/5xx, serve sub-400-byte bodies and fail in transport —
    /// from zero weeks up past [`FINAL_WEEKS`]. The batch rule's
    /// candidates are the domains observed so far; the window's are the
    /// rank list, so the ranked-but-never-observed are added to the
    /// expectation (see the literal case below).
    #[test]
    fn filter_window_matches_the_batch_filter_rule() {
        check::run("filter window matches the batch rule", 256, |g| {
            let ranked: Vec<String> = (0..g.range(1..=10)).map(|i| format!("d{i}.com")).collect();
            let mut window = FilterWindow::new();
            let mut weekly: Vec<BTreeMap<String, FetchSummary>> = Vec::new();
            assert!(window.verdict(&ranked).is_empty(), "zero weeks");
            for _ in 0..g.range(0..=FINAL_WEEKS as u64 + 4) {
                let mut week = BTreeMap::new();
                for domain in &ranked {
                    if g.range(0..=3) > 0 {
                        week.insert(domain.clone(), summary(g));
                    }
                }
                absorb(&mut window, &week);
                weekly.push(week);
                let mut expected = inaccessible_domains(&weekly, FINAL_WEEKS);
                expected.extend(
                    ranked
                        .iter()
                        .filter(|domain| !weekly.iter().any(|week| week.contains_key(*domain)))
                        .cloned(),
                );
                assert_eq!(
                    window.verdict(&ranked),
                    expected,
                    "after week {}",
                    weekly.len()
                );
            }
        });
    }

    /// The one place the window's former copies disagreed: a ranked domain
    /// with no summary in any week. The rank list makes it a candidate
    /// (and drops it); the observed-domains rule never sees it.
    #[test]
    fn a_ranked_domain_never_fetched_is_filtered_out() {
        let ok = FetchSummary {
            status: Some(200),
            body_len: 5_000,
        };
        let ranked = ["seen.com".to_string(), "never.com".to_string()];
        let week = BTreeMap::from([("seen.com".to_string(), ok)]);
        let mut window = FilterWindow::new();
        absorb(&mut window, &week);
        assert_eq!(
            window.verdict(&ranked),
            BTreeSet::from(["never.com".to_string()])
        );
        assert!(inaccessible_domains(&[week], FINAL_WEEKS).is_empty());
    }
}
