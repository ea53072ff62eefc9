//! One vulnerability report: the range its CVE *claims* is affected and —
//! where the paper's PoC experiment re-measured it — the True Vulnerable
//! Versions. The study's corpus (paper Table 2) is the delta document
//! `table2.cvedelta`, which [`VulnDb::builtin`](crate::VulnDb::builtin)
//! reads.

use crate::date::Date;
use crate::library::LibraryId;
use std::fmt;
use webvuln_version::{IntervalSet, Version};

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
pub(crate) fn classify(claimed: &IntervalSet, tvv: &IntervalSet) -> Accuracy {
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
    pub(crate) fn effective_range(&self) -> &IntervalSet {
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
    pub(crate) fn accuracy(&self) -> Accuracy {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::VulnDb;

    #[test]
    fn corpus_size_matches_paper() {
        // Table 1's per-library "# Vul." column sums to 27 reports
        // (8+7+1+6+1+2+2); one of them (jQuery-Migrate) has no CVE ID.
        // The paper's prose says "27 CVE reports" and Table 2's caption
        // says 28 — we follow the per-library counts, which both tables
        // agree on. See EXPERIMENTS.md for the discrepancy note.
        let db = VulnDb::builtin();
        let records = db.records();
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
        let db = VulnDb::builtin();
        let records = db.records();
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
        let db = VulnDb::builtin();
        let records = db.records();
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
        let db = VulnDb::builtin();
        let records = db.records();
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
        let db = VulnDb::builtin();
        let records = db.records();
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
        let db = VulnDb::builtin();
        let records = db.records();
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
        let with_poc = VulnDb::builtin()
            .records()
            .iter()
            .filter(|r| r.has_poc)
            .count();
        // Paper: "we find and utilize the existing seven PoC codes".
        assert_eq!(with_poc, 7);
    }

    #[test]
    fn classify_is_symmetric_in_the_right_way() {
        let set = |s: &str| IntervalSet::parse(s).expect("valid range");
        let a = set("< 2.0");
        let b = set("< 3.0");
        assert_eq!(classify(&a, &b), Accuracy::Understated);
        assert_eq!(classify(&b, &a), Accuracy::Overstated);
        assert_eq!(classify(&a, &a), Accuracy::Accurate);
        let c = set(">= 1.0, < 2.5");
        assert_eq!(classify(&a, &c), Accuracy::Mixed);
    }

    #[test]
    fn effective_range_prefers_tvv() {
        let db = VulnDb::builtin();
        let records = db.records();
        for r in records {
            match &r.tvv {
                Some(tvv) => assert_eq!(r.effective_range(), tvv),
                None => assert_eq!(r.effective_range(), &r.claimed),
            }
        }
    }
}
