//! WordPress core vulnerability data (paper Table 4 and Appendix).
//!
//! WordPress is not a client-side library, but it is the single biggest
//! actor in the study: 26.9% of websites run it, its 5.5/5.6 releases cause
//! the jQuery-Migrate usage dip, and its auto-update feature drives the
//! Dec 2020 / Aug 2021 jQuery mass-updates (§7). Table 4 lists the five
//! most recent and five most severe of its 6,155 disclosed CVEs.

use crate::date::Date;
use webvuln_version::{Interval, IntervalSet, Version};

/// One WordPress CVE (Table 4 row).
#[derive(Debug, Clone)]
pub struct WordPressCve {
    /// CVE identifier.
    pub id: String,
    /// Disclosure date.
    pub disclosed: Date,
    /// Affected core versions.
    pub affected: IntervalSet,
    /// First fixed version.
    pub patched_version: Version,
    /// Release date of the fix.
    pub patched_date: Date,
    /// True for the "most recent" half of Table 4, false for "most severe".
    pub recent: bool,
}

fn v(s: &str) -> Version {
    Version::parse(s).unwrap_or_else(|e| panic!("wp cve version {s}: {e}"))
}

fn d(s: &str) -> Date {
    Date::parse(s).unwrap_or_else(|e| panic!("wp cve date {s}: {e}"))
}

/// The ten Table 4 CVEs.
pub fn wordpress_cves() -> Vec<WordPressCve> {
    let range = |lo: &str, hi: &str| IntervalSet::from_interval(Interval::half_open(v(lo), v(hi)));
    let below = |hi: &str| IntervalSet::from_interval(Interval::below(v(hi)));
    vec![
        WordPressCve {
            id: "CVE-2022-21664".into(),
            disclosed: d("01/06/2022"),
            affected: range("4.1.34", "5.8.3"),
            patched_version: v("5.8.3"),
            patched_date: d("01/06/2022"),
            recent: true,
        },
        WordPressCve {
            id: "CVE-2022-21663".into(),
            disclosed: d("01/06/2022"),
            affected: range("3.7.37", "5.8.3"),
            patched_version: v("5.8.3"),
            patched_date: d("01/06/2022"),
            recent: true,
        },
        WordPressCve {
            id: "CVE-2022-21662".into(),
            disclosed: d("01/06/2022"),
            affected: range("3.7.37", "5.8.3"),
            patched_version: v("5.8.3"),
            patched_date: d("01/06/2022"),
            recent: true,
        },
        WordPressCve {
            id: "CVE-2022-21661".into(),
            disclosed: d("01/06/2022"),
            affected: range("3.7.37", "5.8.3"),
            patched_version: v("5.8.3"),
            patched_date: d("01/06/2022"),
            recent: true,
        },
        WordPressCve {
            id: "CVE-2021-44223".into(),
            disclosed: d("11/25/2021"),
            affected: below("5.8"),
            patched_version: v("5.8"),
            patched_date: d("07/20/2021"),
            recent: true,
        },
        WordPressCve {
            id: "CVE-2012-2400".into(),
            disclosed: d("04/21/2012"),
            affected: below("3.3.2"),
            patched_version: v("3.3.2"),
            patched_date: d("04/20/2012"),
            recent: false,
        },
        WordPressCve {
            id: "CVE-2012-2399".into(),
            disclosed: d("04/21/2012"),
            affected: below("3.5.2"),
            patched_version: v("3.5.2"),
            // The fix shipped more than a year after disclosure (paper
            // footnote *).
            patched_date: d("06/21/2013"),
            recent: false,
        },
        WordPressCve {
            id: "CVE-2011-3125".into(),
            disclosed: d("08/10/2011"),
            affected: below("3.1.3"),
            patched_version: v("3.1.3"),
            patched_date: d("05/25/2011"),
            recent: false,
        },
        WordPressCve {
            id: "CVE-2011-3122".into(),
            disclosed: d("08/10/2011"),
            affected: below("3.1.3"),
            patched_version: v("3.1.3"),
            patched_date: d("05/25/2011"),
            recent: false,
        },
        WordPressCve {
            id: "CVE-2009-2853".into(),
            disclosed: d("08/18/2009"),
            affected: below("2.8.3"),
            patched_version: v("2.8.3"),
            patched_date: d("08/03/2009"),
            recent: false,
        },
    ]
}

/// The WordPress event timeline the study attributes update waves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordPressEvents {
    /// WordPress 5.5 disables jQuery-Migrate by default (usage dip starts).
    pub wp55_migrate_disabled: Date,
    /// WordPress 5.6 re-bundles jQuery-Migrate and ships jQuery 3.5.1;
    /// auto-update pushes both (the Dec 2020 jump in Fig 7).
    pub wp56_jquery_351: Date,
    /// WordPress 5.8's bundled jQuery moves to 3.6.0 (the Aug 2021 jump).
    pub wp_jquery_360: Date,
}

impl WordPressEvents {
    /// The paper's dates.
    pub fn paper() -> Self {
        WordPressEvents {
            wp55_migrate_disabled: Date::new(2020, 8, 11),
            wp56_jquery_351: Date::new(2020, 12, 8),
            // WP 5.8 shipped 2021-07-20; the visible jump in Fig 7 starts
            // Aug 2021 as auto-updates roll out.
            wp_jquery_360: Date::new(2021, 8, 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_has_ten_rows_split_five_five() {
        let cves = wordpress_cves();
        assert_eq!(cves.len(), 10);
        assert_eq!(cves.iter().filter(|c| c.recent).count(), 5);
        assert_eq!(cves.iter().filter(|c| !c.recent).count(), 5);
    }

    #[test]
    fn recent_cves_affect_recent_versions() {
        let cves = wordpress_cves();
        let v58 = Version::parse("5.8").expect("version");
        let recent_affecting = cves
            .iter()
            .filter(|c| c.recent && c.affected.contains(&v58))
            .count();
        // The four 2022 CVEs affect 5.8 (< 5.8.3); CVE-2021-44223 doesn't.
        assert_eq!(recent_affecting, 4);
        let old = Version::parse("2.8.2").expect("version");
        assert!(cves.iter().any(|c| !c.recent && c.affected.contains(&old)));
    }

    #[test]
    fn events_are_ordered() {
        let e = WordPressEvents::paper();
        assert!(e.wp55_migrate_disabled < e.wp56_jquery_351);
        assert!(e.wp56_jquery_351 < e.wp_jquery_360);
    }

    #[test]
    fn one_cve_was_disclosed_before_patch_existed() {
        // CVE-2012-2399: disclosed 2012, patched 2013.
        let c = wordpress_cves()
            .into_iter()
            .find(|c| c.id == "CVE-2012-2399")
            .expect("present");
        assert!(c.patched_date > c.disclosed);
    }
}
