//! The §4.1 inaccessibility filter as the pipeline runs it: one trailing
//! window fed a week at a time, one verdict, one way to drop the verdict's
//! domains from a snapshot. Collection, [`store_filter_verdict`] (and
//! through it `export_json` and every fold) and the watch daemon all hold
//! a [`FilterWindow`]; the batch rule in
//! [`webvuln_net::filter::inaccessible_domains`] stays as the paper's
//! wording and as the window's differential oracle.

use crate::dataset::WeekSnapshot;
use std::collections::{BTreeSet, HashMap, VecDeque};
use webvuln_net::filter::{page_is_error_or_empty, FINAL_WEEKS};
use webvuln_store::{AnyReader, StoreError};

/// The trailing [`FINAL_WEEKS`] weeks of the §4.1 filter: per week, the
/// candidates that answered with a usable page ("alive").
///
/// A candidate is filtered out when it is alive in **none** of the
/// window's weeks — error/empty or absent in each, as
/// [`inaccessible_domains`](webvuln_net::filter::inaccessible_domains)
/// puts it. The candidates are the study's **rank list**, handed to
/// [`FilterWindow::new`], not the domains observed so far: a consumer that
/// rebuilds the window from a store's last four weeks (a fold, the watch
/// daemon) cannot know what earlier weeks observed, and a crawl fetches
/// every ranked domain every week, so the two agree on every collected
/// dataset. They differ only for a ranked domain with no fetch summary in
/// any week — dropped here, not a candidate under the batch rule — which
/// has no page anywhere, so no analysis can tell.
#[derive(Debug, Default)]
pub struct FilterWindow {
    /// Each candidate's slot in `ranked`.
    slots: HashMap<String, usize>,
    /// Per slot: the candidate, and how many of the window's weeks it was
    /// alive in.
    ranked: Vec<(String, usize)>,
    /// Per window week, the slots of the candidates alive in it.
    alive: VecDeque<Vec<usize>>,
}

impl FilterWindow {
    /// An empty window over the candidates `ranked`: no week absorbed,
    /// nothing filtered.
    pub fn new<'a>(ranked: impl IntoIterator<Item = &'a String>) -> FilterWindow {
        let mut window = FilterWindow::default();
        for domain in ranked {
            if !window.slots.contains_key(domain) {
                window.slots.insert(domain.clone(), window.ranked.len());
                window.ranked.push((domain.clone(), 0));
            }
        }
        window
    }

    /// The window over a store's trailing committed weeks and its genesis
    /// rank list, read off the decoded records of every healthy shard.
    pub fn from_store(reader: &AnyReader) -> Result<FilterWindow, StoreError> {
        let weeks = reader.weeks_committed();
        let mut window = FilterWindow::new(reader.genesis().ranks.iter().map(|(host, _)| host));
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
    /// `(domain, status, body length)` of every attempted domain. Returns
    /// the candidates whose verdict the slide flipped, either way: on the
    /// first week every candidate not alive in it, after that those alive
    /// in the new week and in no other, or in the dropped week alone.
    pub fn absorb<'a>(
        &mut self,
        fetched: impl IntoIterator<Item = (&'a str, Option<u16>, usize)>,
    ) -> Vec<&str> {
        let first = self.alive.is_empty();
        let (mut week, mut flips) = (Vec::new(), Vec::new());
        // Arrivals count before departures: a candidate alive in both the
        // new and the dropped week never reaches zero, so never flips.
        for (domain, status, body_len) in fetched {
            let Some(&slot) = self.slots.get(domain) else {
                continue;
            };
            if page_is_error_or_empty(status, body_len) {
                continue;
            }
            let alive = &mut self.ranked[slot].1;
            if *alive == 0 && !first {
                flips.push(slot);
            }
            *alive += 1;
            week.push(slot);
        }
        self.alive.push_back(week);
        if self.alive.len() > FINAL_WEEKS {
            for slot in self.alive.pop_front().expect("a week past the window") {
                let alive = &mut self.ranked[slot].1;
                *alive -= 1;
                if *alive == 0 {
                    flips.push(slot);
                }
            }
        }
        if first {
            flips = (0..self.ranked.len())
                .filter(|&slot| self.ranked[slot].1 == 0)
                .collect();
        }
        flips
            .into_iter()
            .map(|slot| self.ranked[slot].0.as_str())
            .collect()
    }

    /// The candidates to filter out, given the weeks absorbed so far.
    /// Before the first week there is no evidence and no verdict.
    pub fn verdict(&self) -> BTreeSet<String> {
        if self.alive.is_empty() {
            return BTreeSet::new();
        }
        let dead = self.ranked.iter().filter(|(_, alive)| *alive == 0);
        dead.map(|(domain, _)| domain.clone()).collect()
    }
}

/// The §4.1 filter verdict for a store: the stored set when finalized,
/// otherwise the [`FilterWindow`] verdict over its trailing weeks and its
/// genesis rank list.
pub fn store_filter_verdict(reader: &AnyReader) -> Result<BTreeSet<String>, StoreError> {
    if let Some(filtered) = reader.filtered_out() {
        return Ok(filtered.iter().cloned().collect());
    }
    Ok(FilterWindow::from_store(reader)?.verdict())
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

    fn absorb(window: &mut FilterWindow, week: &BTreeMap<String, FetchSummary>) -> Vec<String> {
        let fetched = week.iter().map(|(d, s)| (d.as_str(), s.status, s.body_len));
        window
            .absorb(fetched)
            .into_iter()
            .map(str::to_string)
            .collect()
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
    /// expectation (see the literal case below). Each slide reports
    /// exactly the candidates whose verdict it flipped, each once; an
    /// unranked domain is never one.
    #[test]
    fn filter_window_matches_the_batch_filter_rule() {
        check::run("filter window matches the batch rule", 256, |g| {
            let ranked: Vec<String> = (0..g.range(1..=10)).map(|i| format!("d{i}.com")).collect();
            let mut window = FilterWindow::new(&ranked);
            let mut weekly: Vec<BTreeMap<String, FetchSummary>> = Vec::new();
            let mut previous = window.verdict();
            assert!(previous.is_empty(), "zero weeks");
            for _ in 0..g.range(0..=FINAL_WEEKS as u64 + 4) {
                let mut week = BTreeMap::new();
                for domain in &ranked {
                    if g.range(0..=3) > 0 {
                        week.insert(domain.clone(), summary(g));
                    }
                }
                if g.bool() {
                    week.insert("unranked.com".to_string(), summary(g));
                }
                let mut flips = absorb(&mut window, &week);
                week.remove("unranked.com");
                weekly.push(week);
                let verdict = window.verdict();
                flips.sort();
                let expected: Vec<String> =
                    verdict.symmetric_difference(&previous).cloned().collect();
                assert_eq!(flips, expected, "flips after week {}", weekly.len());
                previous = verdict;
                let mut expected = inaccessible_domains(&weekly, FINAL_WEEKS);
                expected.extend(
                    ranked
                        .iter()
                        .filter(|domain| !weekly.iter().any(|week| week.contains_key(*domain)))
                        .cloned(),
                );
                assert_eq!(previous, expected, "after week {}", weekly.len());
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
        let mut window = FilterWindow::new(&ranked);
        assert_eq!(absorb(&mut window, &week), ["never.com"]);
        assert_eq!(window.verdict(), BTreeSet::from(["never.com".to_string()]));
        assert!(inaccessible_domains(&[week], FINAL_WEEKS).is_empty());
    }
}
