//! The study timeline: weekly snapshots from March 2018 to February 2022.
//!
//! The paper collected 207 weekly snapshots and pruned 6 for network
//! issues, analysing 201. The simulator models the 201 analysed weeks
//! directly (pruned weeks never reach the analysis anyway).

use webvuln_cvedb::Date;

/// Weekly snapshot timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeline {
    /// Date of week 0's snapshot.
    pub start: Date,
    /// Number of weekly snapshots.
    pub weeks: usize,
}

impl Timeline {
    /// The paper's timeline: 201 weeks starting Monday, March 5, 2018.
    pub fn paper() -> Timeline {
        Timeline {
            start: Date::new(2018, 3, 5),
            weeks: 201,
        }
    }

    /// A shortened timeline with the same start (for fast tests). The
    /// weekly cadence is preserved; only the horizon shrinks.
    pub fn truncated(weeks: usize) -> Timeline {
        Timeline {
            start: Date::new(2018, 3, 5),
            weeks,
        }
    }

    /// Snapshot date of week `w`.
    pub fn date_of(&self, week: usize) -> Date {
        self.start.add_days(7 * week as i32)
    }

    /// The last snapshot's date.
    pub fn end(&self) -> Date {
        self.date_of(self.weeks.saturating_sub(1))
    }

    /// The snapshot week covering `date`: the first week whose snapshot
    /// date is on or after `date`. Returns `None` when `date` falls after
    /// the last snapshot.
    pub fn week_of(&self, date: Date) -> Option<usize> {
        if date <= self.start {
            return Some(0);
        }
        let days = date.days_since(self.start);
        let week = (days as usize).div_ceil(7);
        if week < self.weeks {
            Some(week)
        } else {
            None
        }
    }

    /// Iterator over `(week, date)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Date)> + '_ {
        (0..self.weeks).map(move |w| (w, self.date_of(w)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_timeline_spans_to_early_2022() {
        let t = Timeline::paper();
        assert_eq!(t.date_of(0), Date::new(2018, 3, 5));
        let end = t.end();
        assert_eq!(end.year(), 2022);
        assert_eq!(end.month(), 1, "201 weeks lands in late Jan 2022");
    }

    #[test]
    fn week_of_round_trips() {
        let t = Timeline::paper();
        for w in [0, 1, 57, 200] {
            assert_eq!(t.week_of(t.date_of(w)), Some(w));
        }
        // Mid-week dates round up to the next snapshot.
        assert_eq!(t.week_of(t.date_of(5).add_days(3)), Some(6));
        assert_eq!(t.week_of(Date::new(2010, 1, 1)), Some(0));
        assert!(t.week_of(Date::new(2030, 1, 1)).is_none());
    }

    #[test]
    fn key_event_dates_are_inside_the_window() {
        let t = Timeline::paper();
        // jQuery 3.5.0 release, WP 5.5 / 5.6, Flash EOL all fall inside.
        for date in [
            Date::new(2020, 4, 10),
            Date::new(2020, 8, 11),
            Date::new(2020, 12, 8),
            Date::new(2021, 1, 1),
            Date::new(2021, 3, 2),
        ] {
            assert!(t.week_of(date).is_some(), "{date}");
        }
    }

    #[test]
    fn iter_yields_every_week() {
        let t = Timeline::truncated(10);
        let all: Vec<_> = t.iter().collect();
        assert_eq!(all.len(), 10);
        assert_eq!(all[9].1, t.end());
    }
}
