//! The Version Validation Experiment (paper §6.4): sweep every released
//! version of each library through its PoC, derive the True Vulnerable
//! Versions, and classify the CVE report's claimed range.
//!
//! For jQuery alone the paper built 85 environments (v1.0.0 – v3.7.0);
//! here an "environment" is one instantiation of the version-modelled
//! library, and the sweep covers each library's full release catalog.

use crate::poc::{poc_corpus, PocExploit, PocResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use webvuln_cvedb::{Accuracy, LibraryId, VulnDb, VulnRecord};
use webvuln_version::Version;

/// Result of validating one report across all released versions.
#[derive(Debug, PartialEq, Eq)]
pub struct ValidationReport {
    /// Report id.
    pub id: String,
    /// Library swept.
    pub library: LibraryId,
    /// Per-version PoC outcomes, ascending by version.
    pub per_version: Vec<(Version, PocResult)>,
    /// Versions the experiment proved vulnerable.
    pub vulnerable: Vec<Version>,
    /// Vulnerable versions the CVE fails to claim (hidden from readers).
    pub understated: Vec<Version>,
    /// Claimed versions the experiment proved safe (ill-advised updates).
    pub overstated: Vec<Version>,
    /// Classification over the release catalog.
    pub accuracy: Accuracy,
    /// True when the PoC could not run at all (unavailable builds).
    pub(crate) unavailable: bool,
}

impl ValidationReport {
    /// Number of environments (versions) swept.
    pub fn environments(&self) -> usize {
        self.per_version.len()
    }
}

/// The lab: the PoC corpus plus the vulnerability database.
pub struct Lab {
    db: VulnDb,
    corpus: Vec<Box<dyn PocExploit>>,
}

impl Lab {
    /// Sets the lab up with the built-in corpus.
    pub fn new() -> Lab {
        Lab {
            db: VulnDb::builtin(),
            corpus: poc_corpus(),
        }
    }

    /// Access to the vulnerability database.
    pub fn db(&self) -> &VulnDb {
        &self.db
    }

    /// The PoC for a report id.
    pub(crate) fn poc(&self, id: &str) -> Option<&dyn PocExploit> {
        self.corpus
            .iter()
            .find(|p| p.id() == id)
            .map(|b| b.as_ref())
    }

    /// Validates one report: sweeps the library's release catalog.
    pub fn validate(&self, id: &str) -> Option<ValidationReport> {
        let record = self.db.record(id)?;
        let poc = self.poc(id)?;
        Some(self.run_sweep(record, poc))
    }

    /// Validates the whole corpus: a real sweep, every call.
    pub fn validate_all(&self) -> Vec<ValidationReport> {
        SWEEPS.fetch_add(1, Ordering::Relaxed);
        self.db
            .records()
            .iter()
            .filter_map(|record| self.poc(&record.id).map(|poc| self.run_sweep(record, poc)))
            .collect()
    }

    fn run_sweep(&self, record: &VulnRecord, poc: &dyn PocExploit) -> ValidationReport {
        let catalog = self.db.catalog(record.library);
        let mut per_version = Vec::with_capacity(catalog.len());
        let mut vulnerable = Vec::new();
        let mut understated = Vec::new();
        let mut overstated = Vec::new();
        let mut unavailable = false;
        for release in &catalog.releases {
            let outcome = poc.attempt(&release.version);
            match outcome {
                PocResult::Exploited => {
                    vulnerable.push(release.version.clone());
                    if !record.claims(&release.version) {
                        understated.push(release.version.clone());
                    }
                }
                PocResult::Safe => {
                    if record.claims(&release.version) {
                        overstated.push(release.version.clone());
                    }
                }
                PocResult::Unavailable => unavailable = true,
            }
            per_version.push((release.version.clone(), outcome));
        }
        let accuracy = match (understated.is_empty(), overstated.is_empty()) {
            _ if unavailable => Accuracy::Accurate, // nothing measurable
            (true, true) => Accuracy::Accurate,
            (false, true) => Accuracy::Understated,
            (true, false) => Accuracy::Overstated,
            (false, false) => Accuracy::Mixed,
        };
        ValidationReport {
            id: record.id.clone(),
            library: record.library,
            per_version,
            vulnerable,
            understated,
            overstated,
            accuracy,
            unavailable,
        }
    }
}

impl Default for Lab {
    fn default() -> Self {
        Lab::new()
    }
}

static SWEEPS: AtomicU64 = AtomicU64::new(0);

/// Whole-corpus sweeps ([`Lab::validate_all`]) this process has run.
pub fn sweeps_run() -> u64 {
    SWEEPS.load(Ordering::Relaxed)
}

/// The §6.4 reports over the built-in database × PoC corpus. They are a
/// property of that database, not of any study of it, so the first caller
/// in the process sweeps and every later one shares the result.
pub fn builtin_validations() -> &'static [ValidationReport] {
    static REPORTS: OnceLock<Vec<ValidationReport>> = OnceLock::new();
    REPORTS.get_or_init(|| Lab::new().validate_all())
}

#[cfg(test)]
mod tests {
    use super::*;
    use webvuln_cvedb::Basis;

    #[test]
    fn sweeps_cover_full_catalogs() {
        let lab = Lab::new();
        let report = lab.validate("CVE-2020-7656").expect("report");
        assert_eq!(
            report.environments(),
            lab.db().catalog(LibraryId::JQuery).len(),
            "one environment per released jQuery version"
        );
    }

    /// The central §6.4 consistency check: the measured per-version
    /// outcomes must coincide with the TVV ranges embedded in the
    /// database for every released version of every library.
    #[test]
    fn poc_outcomes_agree_with_tvv_ranges() {
        let lab = Lab::new();
        for report in lab.validate_all() {
            if report.unavailable {
                continue;
            }
            let record = lab.db().record(&report.id).expect("record");
            for (version, outcome) in &report.per_version {
                let expected = record.truly_affects(version);
                assert_eq!(
                    *outcome == crate::poc::PocResult::Exploited,
                    expected,
                    "{} @ {version}: PoC vs TVV disagree",
                    report.id
                );
            }
        }
    }

    #[test]
    fn accuracy_classification_over_catalog() {
        let lab = Lab::new();
        let acc = |id: &str| lab.validate(id).expect(id).accuracy;
        // Understated: more versions vulnerable than claimed.
        assert_eq!(acc("CVE-2020-7656"), Accuracy::Understated);
        assert_eq!(acc("SNYK-JQUERY-MIGRATE-XSS"), Accuracy::Understated);
        assert_eq!(
            acc("CVE-2020-27511"),
            Accuracy::Accurate,
            "over the released catalog, ≤1.7.3 covers everything"
        );
        // Overstated: claimed but not vulnerable.
        assert_eq!(acc("CVE-2020-11022"), Accuracy::Overstated);
        assert_eq!(acc("CVE-2020-11023"), Accuracy::Overstated);
        assert_eq!(acc("CVE-2012-6708"), Accuracy::Overstated);
        assert_eq!(acc("CVE-2018-20676"), Accuracy::Overstated);
        // Mixed: both directions wrong.
        assert_eq!(acc("CVE-2014-6071"), Accuracy::Mixed);
        assert_eq!(acc("CVE-2016-7103"), Accuracy::Mixed);
        assert_eq!(acc("CVE-2016-4055"), Accuracy::Mixed);
        // Correct reports stay correct.
        assert_eq!(acc("CVE-2019-11358"), Accuracy::Accurate);
        assert_eq!(acc("CVE-2019-8331"), Accuracy::Accurate);
    }

    #[test]
    fn incorrect_report_count_matches_paper_scale() {
        // Paper: 13 of 27 CVE reports state incorrect versions. Over the
        // released catalogs (not the abstract version space) our sweep
        // finds the same 13 incorrect reports: CVE-2020-27511's "≤ 1.7.3"
        // happens to cover every *released* Prototype build, so the sweep
        // cannot flag it; the no-CVE Migrate advisory is also incorrect.
        let lab = Lab::new();
        let reports = lab.validate_all();
        let incorrect: Vec<&ValidationReport> = reports
            .iter()
            .filter(|r| r.accuracy != Accuracy::Accurate)
            .collect();
        assert_eq!(incorrect.len(), 13);
        let with_cve = incorrect
            .iter()
            .filter(|r| r.id.starts_with("CVE-"))
            .count();
        assert_eq!(with_cve, 12);
    }

    #[test]
    fn understated_versions_include_papers_examples() {
        let lab = Lab::new();
        let report = lab.validate("CVE-2020-7656").expect("report");
        let has = |s: &str| {
            report
                .understated
                .contains(&Version::parse(s).expect("version"))
        };
        // The paper names 1.10.1 and microsoft.com's 3.5.1 / docusign's 2.2.3.
        assert!(has("1.10.1"));
        assert!(has("3.5.1"));
        assert!(has("2.2.3"));
        assert!(!has("3.6.0"), "3.6.0 is fixed");
        assert!(!has("1.8.3"), "1.8.3 is claimed, not hidden");
    }

    #[test]
    fn db_and_lab_agree_on_microsofts_version() {
        // Cross-check the two faces of the system: the CVE-claimed basis
        // clears jQuery 3.5.1 while the lab proves it exploitable.
        let lab = Lab::new();
        let v351 = Version::parse("3.5.1").expect("version");
        assert!(!lab
            .db()
            .is_vulnerable(LibraryId::JQuery, &v351, Basis::CveClaimed));
        let poc = lab.poc("CVE-2020-7656").expect("poc");
        assert_eq!(poc.attempt(&v351), crate::poc::PocResult::Exploited);
    }
}
