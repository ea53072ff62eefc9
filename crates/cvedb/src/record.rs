//! The vulnerability corpus of the study: the 28 publicly-reported
//! vulnerabilities of the top-15 libraries (paper Table 2), each carrying
//! both the range the CVE report *claims* is affected and — where the
//! paper's PoC experiment re-measured it — the True Vulnerable Versions.

use crate::date::Date;
use crate::library::LibraryId;
use std::fmt;
use webvuln_version::{Interval, IntervalSet, Version};

/// Attack class of a vulnerability (paper §6.2 taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackType {
    /// Cross-site scripting (20 of the 27 CVEs).
    Xss,
    /// Prototype pollution.
    PrototypePollution,
    /// Arbitrary code injection.
    ArbitraryCodeInjection,
    /// Resource exhaustion.
    ResourceExhaustion,
    /// Regular-expression denial of service.
    RegexDos,
    /// Missing authorization.
    MissingAuthorization,
}

impl fmt::Display for AttackType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AttackType::Xss => "XSS",
            AttackType::PrototypePollution => "Prototype Pollution",
            AttackType::ArbitraryCodeInjection => "Arbitrary Code Injection",
            AttackType::ResourceExhaustion => "Resource Exhaustion",
            AttackType::RegexDos => "ReDOS",
            AttackType::MissingAuthorization => "Missing Authorization",
        })
    }
}

/// How a CVE's claimed range relates to the measured True Vulnerable
/// Versions (paper §6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Accuracy {
    /// Claimed range matches the measured range (or was not re-measured).
    Accurate,
    /// More versions are vulnerable than the CVE claims — developers on the
    /// extra versions believe they are safe.
    Understated,
    /// Fewer versions are vulnerable than the CVE claims — developers are
    /// pushed into unnecessary updates.
    Overstated,
    /// Both at once (the claimed and measured ranges each contain versions
    /// the other lacks).
    Mixed,
}

impl fmt::Display for Accuracy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Accuracy::Accurate => "accurate",
            Accuracy::Understated => "understated",
            Accuracy::Overstated => "overstated",
            Accuracy::Mixed => "mixed",
        })
    }
}

/// Classifies `claimed` against the measured set `tvv`.
pub fn classify(claimed: &IntervalSet, tvv: &IntervalSet) -> Accuracy {
    let hidden = tvv.subtract(claimed); // vulnerable but not reported
    let excess = claimed.subtract(tvv); // reported but not vulnerable
    match (hidden.is_empty(), excess.is_empty()) {
        (true, true) => Accuracy::Accurate,
        (false, true) => Accuracy::Understated,
        (true, false) => Accuracy::Overstated,
        (false, false) => Accuracy::Mixed,
    }
}

/// One vulnerability report.
#[derive(Debug, Clone)]
pub struct VulnRecord {
    /// CVE identifier, or an advisory tag when no CVE was assigned (the
    /// jQuery-Migrate XSS is tracked only by Snyk/GitHub).
    pub id: String,
    /// True when the record has a real CVE ID.
    pub has_cve_id: bool,
    /// Affected library.
    pub library: LibraryId,
    /// Version range the report claims is vulnerable.
    pub claimed: IntervalSet,
    /// True Vulnerable Versions measured by the PoC experiment; `None`
    /// when the claim was not re-measured (assumed accurate).
    pub tvv: Option<IntervalSet>,
    /// First version carrying the fix; `None` when no fix was released.
    pub patched_version: Option<Version>,
    /// Public disclosure date.
    pub disclosed: Date,
    /// Release date of the patched version (`None` when unpatched).
    pub patched_date: Option<Date>,
    /// Attack class.
    pub attack: AttackType,
    /// Whether the paper found working PoC code for this report.
    pub has_poc: bool,
}

impl VulnRecord {
    /// The range to treat as vulnerable: TVV when measured, claim otherwise.
    pub fn effective_range(&self) -> &IntervalSet {
        self.tvv.as_ref().unwrap_or(&self.claimed)
    }

    /// Does the *claimed* range cover `version`?
    pub fn claims(&self, version: &Version) -> bool {
        self.claimed.contains(version)
    }

    /// Is `version` truly vulnerable (per TVV, falling back to the claim)?
    pub fn truly_affects(&self, version: &Version) -> bool {
        self.effective_range().contains(version)
    }

    /// Accuracy classification of the claimed range (strict set algebra
    /// over the whole version space; ranges differing on both sides are
    /// [`Accuracy::Mixed`]).
    pub fn accuracy(&self) -> Accuracy {
        match &self.tvv {
            None => Accuracy::Accurate,
            Some(tvv) => classify(&self.claimed, tvv),
        }
    }

    /// The paper's coarser labelling: any hidden-vulnerable versions make a
    /// report *understated* (the security-relevant direction dominates),
    /// even when the claimed range also contains non-vulnerable versions.
    /// This reproduces Table 2's filled/empty circle assignment.
    pub fn paper_accuracy(&self) -> Accuracy {
        match self.accuracy() {
            Accuracy::Mixed => Accuracy::Understated,
            other => other,
        }
    }
}

fn v(s: &str) -> Version {
    Version::parse(s).unwrap_or_else(|e| panic!("builtin version {s}: {e}"))
}

fn d(s: &str) -> Date {
    Date::parse(s).unwrap_or_else(|e| panic!("builtin date {s}: {e}"))
}

fn below(s: &str) -> IntervalSet {
    IntervalSet::from_interval(Interval::below(v(s)))
}

fn range(lo: &str, hi: &str) -> IntervalSet {
    IntervalSet::from_interval(Interval::half_open(v(lo), v(hi)))
}

fn at_most(s: &str) -> IntervalSet {
    IntervalSet::from_interval(Interval::at_most(v(s)))
}

#[allow(clippy::too_many_arguments)]
fn rec(
    id: &str,
    library: LibraryId,
    claimed: IntervalSet,
    tvv: Option<IntervalSet>,
    patched_version: Option<&str>,
    disclosed: &str,
    patched_date: Option<&str>,
    attack: AttackType,
    has_poc: bool,
) -> VulnRecord {
    VulnRecord {
        id: id.to_string(),
        has_cve_id: id.starts_with("CVE-"),
        library,
        claimed,
        tvv,
        patched_version: patched_version.map(v),
        disclosed: d(disclosed),
        patched_date: patched_date.map(d),
        attack,
        has_poc,
    }
}

/// Builds the study's 28-report corpus (paper Table 2).
///
/// Ranges use the table's notation: `x ∼ y` rows are `[x, y)` when the CVE
/// text says "before y" (the jQuery/Bootstrap XSS family) — the paper's
/// Figure 4 lower lines confirm the half-open reading.
pub fn builtin_records() -> Vec<VulnRecord> {
    use AttackType::*;
    use LibraryId::*;
    vec![
        // ---- jQuery (8 CVEs) -------------------------------------------
        rec(
            "CVE-2020-7656",
            JQuery,
            below("1.9.0"),
            Some(below("3.6.0")), // understated: paper re-measured <3.6.0
            Some("1.9.0"),
            "05/19/2020",
            Some("01/15/2013"),
            Xss,
            true,
        ),
        rec(
            "CVE-2020-11023",
            JQuery,
            range("1.0.3", "3.5.0"),
            Some(range("1.4.0", "3.5.0")), // overstated
            Some("3.5.0"),
            "04/10/2020",
            Some("04/10/2020"),
            Xss,
            false,
        ),
        rec(
            "CVE-2020-11022",
            JQuery,
            range("1.2", "3.5.0"),
            Some(range("1.12.0", "3.5.0")), // overstated
            Some("3.5.0"),
            "04/29/2020",
            Some("04/10/2020"),
            Xss,
            false,
        ),
        rec(
            "CVE-2019-11358",
            JQuery,
            below("3.4.0"),
            None,
            Some("3.4.0"),
            "03/26/2019",
            Some("04/10/2019"),
            PrototypePollution,
            false,
        ),
        rec(
            "CVE-2015-9251",
            JQuery,
            range("1.12.0", "3.0.0"),
            None,
            Some("3.0.0"),
            "06/26/2015",
            Some("06/09/2016"),
            Xss,
            false,
        ),
        rec(
            "CVE-2014-6071",
            JQuery,
            range("1.4.2", "1.6.2"),
            Some(range("1.5.0", "2.2.4")), // understated
            Some("1.6.2"),
            "09/01/2014",
            Some("06/30/2011"),
            Xss,
            true,
        ),
        rec(
            "CVE-2012-6708",
            JQuery,
            below("1.9.1"),
            Some(below("1.9.0")), // overstated
            Some("1.9.1"),
            "06/19/2012",
            Some("02/04/2013"),
            Xss,
            false,
        ),
        rec(
            "CVE-2011-4969",
            JQuery,
            below("1.6.3"),
            None,
            Some("1.6.3"),
            "06/05/2011",
            Some("09/01/2011"),
            Xss,
            false,
        ),
        // ---- Bootstrap (7 CVEs) ----------------------------------------
        rec(
            "CVE-2019-8331",
            Bootstrap,
            // "< 3.4.1, < 4.3.1": each major branch below its fix.
            below("3.4.1").union(&range("4.0.0", "4.3.1")),
            None,
            Some("4.3.1"),
            "02/11/2019",
            Some("02/13/2019"),
            Xss,
            false,
        ),
        rec(
            "CVE-2018-20676",
            Bootstrap,
            below("3.4.0"),
            Some(range("3.2.0", "3.4.0")), // overstated
            Some("3.4.0"),
            "08/13/2018",
            Some("12/13/2018"),
            Xss,
            false,
        ),
        rec(
            "CVE-2018-20677",
            Bootstrap,
            below("3.4.0"),
            Some(range("3.2.0", "3.4.0")), // overstated
            Some("3.4.0"),
            "01/09/2019",
            Some("12/13/2018"),
            Xss,
            true,
        ),
        rec(
            "CVE-2018-14042",
            Bootstrap,
            below("4.1.2"),
            Some(range("2.3.0", "4.1.2")), // overstated
            Some("4.1.2"),
            "05/29/2018",
            Some("07/12/2018"),
            Xss,
            false,
        ),
        rec(
            "CVE-2018-14041",
            Bootstrap,
            below("4.1.2"),
            None,
            Some("4.1.2"),
            "05/29/2018",
            Some("07/12/2018"),
            Xss,
            false,
        ),
        rec(
            "CVE-2018-14040",
            Bootstrap,
            below("4.1.2"),
            Some(range("2.3.0", "4.1.2")), // overstated
            Some("4.1.2"),
            "05/29/2018",
            Some("07/12/2018"),
            Xss,
            true,
        ),
        rec(
            "CVE-2016-10735",
            Bootstrap,
            below("3.4.0"),
            Some(range("2.1.0", "3.4.0")), // overstated
            Some("3.4.0"),
            "06/27/2016",
            Some("12/13/2018"),
            Xss,
            true,
        ),
        // ---- jQuery-Migrate (advisory, no CVE assigned) ----------------
        rec(
            "SNYK-JQUERY-MIGRATE-XSS",
            JQueryMigrate,
            below("1.2.1"),
            Some(range("1.0.0", "3.0.0")), // understated
            Some("1.2.1"),
            "04/18/2013",
            Some("09/16/2007"), // as printed in the paper's Table 2
            Xss,
            true,
        ),
        // ---- jQuery-UI (6 CVEs) ----------------------------------------
        rec(
            "CVE-2010-5312",
            JQueryUi,
            below("1.10.0"),
            None,
            Some("1.10.0"),
            "09/02/2010",
            Some("01/17/2013"),
            Xss,
            false,
        ),
        rec(
            "CVE-2012-6662",
            JQueryUi,
            below("1.10.0"),
            None,
            Some("1.10.0"),
            "11/26/2012",
            Some("01/17/2013"),
            Xss,
            false,
        ),
        rec(
            "CVE-2016-7103",
            JQueryUi,
            below("1.12.0"),
            Some(range("1.10.0", "1.13.0")), // understated (and partly over)
            Some("1.12.0"),
            "07/21/2016",
            Some("07/08/2016"),
            Xss,
            true,
        ),
        rec(
            "CVE-2021-41182",
            JQueryUi,
            below("1.13.0"),
            None,
            Some("1.13.0"),
            "10/27/2021",
            Some("10/07/2021"),
            Xss,
            false,
        ),
        rec(
            "CVE-2021-41183",
            JQueryUi,
            below("1.13.0"),
            None,
            Some("1.13.0"),
            "10/27/2021",
            Some("10/07/2021"),
            Xss,
            false,
        ),
        rec(
            "CVE-2021-41184",
            JQueryUi,
            below("1.13.0"),
            None,
            Some("1.13.0"),
            "10/27/2021",
            Some("10/07/2021"),
            Xss,
            false,
        ),
        // ---- Underscore -------------------------------------------------
        rec(
            "CVE-2021-23358",
            Underscore,
            range("1.3.2", "1.12.1"),
            None,
            Some("1.12.1"),
            "03/02/2021",
            Some("03/19/2021"),
            ArbitraryCodeInjection,
            false,
        ),
        // ---- Moment.js (2 CVEs) -----------------------------------------
        rec(
            "CVE-2017-18214",
            MomentJs,
            below("2.19.3"),
            None,
            Some("2.19.3"),
            "09/05/2017",
            Some("11/29/2017"),
            ResourceExhaustion,
            false,
        ),
        rec(
            "CVE-2016-4055",
            MomentJs,
            below("2.11.2"),
            Some(range("2.8.1", "2.15.2")), // mixed: both sides incorrect
            Some("2.11.2"),
            "01/26/2016",
            Some("2/7/2016"),
            ResourceExhaustion,
            false,
        ),
        // ---- Prototype (2 CVEs) -----------------------------------------
        rec(
            "CVE-2020-27511",
            Prototype,
            at_most("1.7.3"),
            Some(IntervalSet::all()), // understated: all versions affected
            None,                     // never patched
            "06/21/2021",
            None,
            RegexDos,
            false,
        ),
        rec(
            "CVE-2020-7993",
            Prototype,
            below("1.6.0.1"),
            None, // affected version no longer available to test
            None,
            "02/03/2020",
            None,
            MissingAuthorization,
            false,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_size_matches_paper() {
        // Table 1's per-library "# Vul." column sums to 27 reports
        // (8+7+1+6+1+2+2); one of them (jQuery-Migrate) has no CVE ID.
        // The paper's prose says "27 CVE reports" and Table 2's caption
        // says 28 — we follow the per-library counts, which both tables
        // agree on. See EXPERIMENTS.md for the discrepancy note.
        let records = builtin_records();
        assert_eq!(records.len(), 27);
        let cves = records.iter().filter(|r| r.has_cve_id).count();
        assert_eq!(cves, 26);
        let xss = records
            .iter()
            .filter(|r| r.attack == AttackType::Xss)
            .count();
        assert_eq!(
            xss, 21,
            "paper: most vulnerabilities (20 CVEs + advisory) are XSS"
        );
    }

    #[test]
    fn accuracy_classification_matches_paper() {
        let records = builtin_records();
        let strict = |acc: Accuracy| records.iter().filter(|r| r.accuracy() == acc).count();
        // Strict set algebra: reports whose claimed and measured ranges
        // each contain versions the other lacks are Mixed (the paper's
        // Figures 4/13 show both red and blue stripes for exactly these).
        assert_eq!(strict(Accuracy::Understated), 2, "7656, 27511");
        assert_eq!(strict(Accuracy::Overstated), 8, "8 purely-overstated CVEs");
        assert_eq!(strict(Accuracy::Mixed), 4, "6071, migrate, 7103, 4055");

        // The paper's labelling folds Mixed into Understated.
        let paper = |acc: Accuracy| records.iter().filter(|r| r.paper_accuracy() == acc).count();
        assert_eq!(paper(Accuracy::Overstated), 8, "paper: 8 overstated");
        // Paper text says 5 understated among 13 incorrect CVE reports;
        // our corpus flags 6 (the paper's own Fig 13(a) marks Moment
        // CVE-2016-4055 as incorrect but its Table 2 circle count omits
        // it — see EXPERIMENTS.md).
        assert_eq!(paper(Accuracy::Understated), 6);
        let incorrect = records
            .iter()
            .filter(|r| r.accuracy() != Accuracy::Accurate)
            .count();
        assert_eq!(incorrect, 14, "13 CVEs + the no-CVE migrate advisory");
    }

    #[test]
    fn cve_2020_7656_is_understated() {
        let records = builtin_records();
        let r = records
            .iter()
            .find(|r| r.id == "CVE-2020-7656")
            .expect("present");
        assert_eq!(r.accuracy(), Accuracy::Understated);
        // The paper's examples: 1.10.1, microsoft's 3.5.1, docusign's 2.2.3
        // are truly vulnerable but outside the claimed range.
        for ver in ["1.10.1", "3.5.1", "2.2.3"] {
            let version = Version::parse(ver).expect("version");
            assert!(!r.claims(&version), "{ver} not claimed");
            assert!(r.truly_affects(&version), "{ver} truly vulnerable");
        }
        assert!(r.claims(&Version::parse("1.8.3").expect("version")));
    }

    #[test]
    fn cve_2020_11022_is_overstated() {
        let records = builtin_records();
        let r = records
            .iter()
            .find(|r| r.id == "CVE-2020-11022")
            .expect("present");
        assert_eq!(r.accuracy(), Accuracy::Overstated);
        // 1.4.2 is claimed vulnerable but the experiment cleared it.
        let version = Version::parse("1.4.2").expect("version");
        assert!(r.claims(&version));
        assert!(!r.truly_affects(&version));
    }

    #[test]
    fn prototype_redos_affects_everything_and_is_unpatched() {
        let records = builtin_records();
        let r = records
            .iter()
            .find(|r| r.id == "CVE-2020-27511")
            .expect("present");
        assert!(r.patched_version.is_none());
        assert!(r.patched_date.is_none());
        assert!(r.truly_affects(&Version::parse("1.7.3").expect("version")));
        assert!(r.truly_affects(&Version::parse("0.1").expect("version")));
        assert_eq!(r.accuracy(), Accuracy::Understated);
    }

    #[test]
    fn bootstrap_branch_union_range() {
        let records = builtin_records();
        let r = records
            .iter()
            .find(|r| r.id == "CVE-2019-8331")
            .expect("present");
        let check = |s: &str| r.claims(&Version::parse(s).expect("version"));
        assert!(check("3.3.7"));
        assert!(!check("3.4.1"));
        assert!(!check("3.9")); // gap between branches
        assert!(check("4.1.2"));
        assert!(!check("4.3.1"));
    }

    #[test]
    fn seven_pocs_exist() {
        let with_poc = builtin_records().iter().filter(|r| r.has_poc).count();
        // Paper: "we find and utilize the existing seven PoC codes".
        assert_eq!(with_poc, 7);
    }

    #[test]
    fn classify_is_symmetric_in_the_right_way() {
        let a = below("2.0");
        let b = below("3.0");
        assert_eq!(classify(&a, &b), Accuracy::Understated);
        assert_eq!(classify(&b, &a), Accuracy::Overstated);
        assert_eq!(classify(&a, &a), Accuracy::Accurate);
        let c = range("1.0", "2.5");
        assert_eq!(classify(&a, &c), Accuracy::Mixed);
    }

    #[test]
    fn effective_range_prefers_tvv() {
        let records = builtin_records();
        for r in &records {
            match &r.tvv {
                Some(tvv) => assert_eq!(r.effective_range(), tvv),
                None => assert_eq!(r.effective_range(), &r.claimed),
            }
        }
    }
}
