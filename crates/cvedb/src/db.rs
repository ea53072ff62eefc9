//! [`VulnDb`]: the query facade over the embedded vulnerability corpus and
//! library release catalogs.
//!
//! This plays the role of the paper's manual cross-referencing of NVD,
//! MITRE, cvedetails.com and Snyk (§4.3): given a detected
//! `(library, version)`, which vulnerabilities apply — by the CVE-claimed
//! ranges, and by the True Vulnerable Versions?

use crate::date::Date;
use crate::library::{catalog, Catalog, LibraryId};
use crate::record::{builtin_records, VulnRecord};
use crate::wordpress::{wordpress_cves, WordPressCve};
use webvuln_version::Version;

/// Which version information to trust when matching vulnerabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Basis {
    /// The ranges published in CVE reports (what a developer reading the
    /// CVE database believes).
    CveClaimed,
    /// The True Vulnerable Versions from the PoC experiment.
    TrueVulnerable,
}

/// Records per library the verdict index holds: one mask bit each.
const MASK_BITS: usize = u64::BITS as usize;

/// The records of one library that apply to one version, under each
/// basis: bit `i` is the library's `i`-th record in corpus order.
#[derive(Debug, Clone, Copy, Default)]
struct Masks {
    claimed: u64,
    tvv: u64,
}

impl Masks {
    fn of(self, basis: Basis) -> u64 {
        match basis {
            Basis::CveClaimed => self.claimed,
            Basis::TrueVulnerable => self.tvv,
        }
    }

    fn evaluate(records: &[VulnRecord], indices: &[usize], version: &Version) -> Masks {
        let mut masks = Masks::default();
        for (pos, &index) in indices.iter().enumerate() {
            if records[index].claims(version) {
                masks.claimed |= 1 << pos;
            }
            if records[index].truly_affects(version) {
                masks.tvv |= 1 << pos;
            }
        }
        masks
    }
}

/// One library's slice of the corpus and its verdict index.
#[derive(Debug, Default)]
struct LibraryIndex {
    /// Indices into `VulnDb::records`, in corpus order.
    records: Vec<usize>,
    /// Every catalog release, ascending by [`release_key`], with the
    /// records that apply to it. Empty when the library has more than
    /// [`MASK_BITS`] records; its verdicts then evaluate the ranges.
    releases: Vec<(u64, Masks)>,
}

impl LibraryIndex {
    fn rebuild(&mut self, records: &[VulnRecord], catalog: &Catalog) {
        self.releases.clear();
        if self.records.len() > MASK_BITS {
            return;
        }
        self.releases
            .extend(catalog.releases.iter().filter_map(|release| {
                let masks = Masks::evaluate(records, &self.records, &release.version);
                Some((release_key(&release.version)?, masks))
            }));
        self.releases.sort_unstable_by_key(|&(key, _)| key);
    }
}

/// A plain release version — up to four components below 2^16, no
/// pre-release tag — as one integer that orders and compares the way the
/// version does (`1.9` and `1.9.0` share a key). Anything else has none
/// and is never found in the index.
fn release_key(version: &Version) -> Option<u64> {
    if version.is_prerelease() {
        return None;
    }
    let parts = version.parts();
    let (head, tail) = parts.split_at(parts.len().min(4));
    if tail.iter().any(|&part| part != 0) {
        return None;
    }
    let key = head.iter().try_fold(0u64, |key, &part| {
        u16::try_from(part)
            .ok()
            .map(|part| key << 16 | u64::from(part))
    })?;
    Some(key << (16 * (4 - head.len())))
}

/// Which of a library's records apply to one `(library, version)` — the
/// join the whole study repeats per page-week, answered from the verdict
/// index. Positions count the library's records in
/// [`VulnDb::record_indices`] order.
#[derive(Debug, Clone, Copy)]
pub struct Verdict<'a> {
    records: &'a [VulnRecord],
    indices: &'a [usize],
    source: Source<'a>,
}

#[derive(Debug, Clone, Copy)]
enum Source<'a> {
    Masks(Masks),
    /// A library wider than the masks: evaluate each record's range.
    Ranges(&'a Version),
}

impl Verdict<'_> {
    /// Does the library's `pos`-th record apply under `basis`?
    pub fn applies(&self, pos: usize, basis: Basis) -> bool {
        match self.source {
            Source::Masks(masks) => masks.of(basis) >> pos & 1 == 1,
            Source::Ranges(version) => {
                let record = &self.records[self.indices[pos]];
                match basis {
                    Basis::CveClaimed => record.claims(version),
                    Basis::TrueVulnerable => record.truly_affects(version),
                }
            }
        }
    }

    /// Count of reports that apply under `basis`.
    pub fn count(&self, basis: Basis) -> usize {
        match self.source {
            Source::Masks(masks) => masks.of(basis).count_ones() as usize,
            Source::Ranges(_) => (0..self.indices.len())
                .filter(|&pos| self.applies(pos, basis))
                .count(),
        }
    }

    /// Count of applying reports already disclosed by `known_by`.
    pub fn count_known_by(&self, basis: Basis, known_by: Date) -> usize {
        (0..self.indices.len())
            .filter(|&pos| self.applies(pos, basis))
            .filter(|&pos| self.records[self.indices[pos]].disclosed <= known_by)
            .count()
    }
}

/// The embedded vulnerability database.
///
/// Immutable between [`extend`](VulnDb::extend) calls and `Sync`: every
/// `(library, version)` query reads the per-library verdict index built
/// here, so folds share one database across threads without a lock or a
/// cache to invalidate.
#[derive(Debug)]
pub struct VulnDb {
    records: Vec<VulnRecord>,
    /// Indexed by [`LibraryId::index`].
    libraries: Vec<LibraryIndex>,
    /// Indexed by [`LibraryId::index`].
    catalogs: Vec<Catalog>,
    wordpress: Vec<WordPressCve>,
}

impl VulnDb {
    /// Builds the database from the built-in corpus.
    pub fn builtin() -> VulnDb {
        let mut db = VulnDb {
            records: Vec::new(),
            libraries: LibraryId::ALL
                .iter()
                .map(|_| LibraryIndex::default())
                .collect(),
            catalogs: LibraryId::ALL.into_iter().map(catalog).collect(),
            wordpress: wordpress_cves(),
        };
        db.extend(builtin_records());
        db
    }

    /// Extends the database with delta records (see [`crate::delta`]),
    /// rebuilding the verdict index of every library that gained one.
    /// Records whose ID is already present are skipped — re-applying a
    /// delta file after a crash or redelivery is a no-op. Returns the
    /// number of records actually added.
    pub fn extend(&mut self, records: impl IntoIterator<Item = VulnRecord>) -> usize {
        let mut grown = [false; LibraryId::ALL.len()];
        let mut added = 0;
        for record in records {
            if self.records.iter().any(|r| r.id == record.id) {
                continue;
            }
            let library = record.library.index();
            self.libraries[library].records.push(self.records.len());
            grown[library] = true;
            self.records.push(record);
            added += 1;
        }
        for (library, _) in grown.iter().enumerate().filter(|(_, &grew)| grew) {
            self.libraries[library].rebuild(&self.records, &self.catalogs[library]);
        }
        added
    }

    /// All vulnerability records.
    pub fn records(&self) -> &[VulnRecord] {
        &self.records
    }

    /// Looks a record up by its identifier.
    pub fn record(&self, id: &str) -> Option<&VulnRecord> {
        self.records.iter().find(|r| r.id == id)
    }

    /// Positions in [`VulnDb::records`] of the records affecting
    /// `library` (any version), in corpus order.
    pub fn record_indices(&self, library: LibraryId) -> &[usize] {
        &self.libraries[library.index()].records
    }

    /// Records affecting `library` (any version).
    pub fn records_for(&self, library: LibraryId) -> impl Iterator<Item = &VulnRecord> {
        self.record_indices(library)
            .iter()
            .map(move |&i| &self.records[i])
    }

    /// Which of `library`'s records apply to `version`: a binary search
    /// of the verdict index for a catalog release, one evaluation of the
    /// library's ranges for any other version.
    pub fn verdict<'a>(&'a self, library: LibraryId, version: &'a Version) -> Verdict<'a> {
        let index = &self.libraries[library.index()];
        let source = if index.records.len() > MASK_BITS {
            Source::Ranges(version)
        } else {
            Source::Masks(
                release_key(version)
                    .and_then(|key| {
                        let found = index.releases.binary_search_by_key(&key, |&(k, _)| k);
                        Some(index.releases[found.ok()?].1)
                    })
                    .unwrap_or_else(|| Masks::evaluate(&self.records, &index.records, version)),
            )
        };
        Verdict {
            records: &self.records,
            indices: &index.records,
            source,
        }
    }

    /// Vulnerabilities that apply to `(library, version)` under `basis`.
    pub fn affecting(
        &self,
        library: LibraryId,
        version: &Version,
        basis: Basis,
    ) -> Vec<&VulnRecord> {
        let verdict = self.verdict(library, version);
        self.records_for(library)
            .enumerate()
            .filter(|&(pos, _)| verdict.applies(pos, basis))
            .map(|(_, record)| record)
            .collect()
    }

    /// Count of vulnerabilities applying to `(library, version)`.
    pub fn vuln_count(&self, library: LibraryId, version: &Version, basis: Basis) -> usize {
        self.verdict(library, version).count(basis)
    }

    /// True when any record applies under `basis`.
    pub fn is_vulnerable(&self, library: LibraryId, version: &Version, basis: Basis) -> bool {
        self.vuln_count(library, version, basis) > 0
    }

    /// Like [`VulnDb::is_vulnerable`], but only counting reports already
    /// disclosed by `known_by` — what a developer consulting the CVE
    /// database on that date could have known. The paper's weekly
    /// prevalence series (§6.2) is computed this way.
    pub fn is_vulnerable_known_by(
        &self,
        library: LibraryId,
        version: &Version,
        basis: Basis,
        known_by: Date,
    ) -> bool {
        self.vuln_count_known_by(library, version, basis, known_by) > 0
    }

    /// Count of reports disclosed by `known_by` that apply to
    /// `(library, version)` under `basis`.
    pub fn vuln_count_known_by(
        &self,
        library: LibraryId,
        version: &Version,
        basis: Basis,
        known_by: Date,
    ) -> usize {
        self.verdict(library, version)
            .count_known_by(basis, known_by)
    }

    /// The release catalog of `library`.
    pub fn catalog(&self, library: LibraryId) -> &Catalog {
        &self.catalogs[library.index()]
    }

    /// WordPress core CVEs (Table 4).
    pub fn wordpress_cves(&self) -> &[WordPressCve] {
        &self.wordpress
    }

    /// Number of vulnerabilities reported per library during the study
    /// window, matching Table 1's "# Vul." column (the count of records
    /// in the corpus for that library).
    pub fn vuln_report_count(&self, library: LibraryId) -> usize {
        self.record_indices(library).len()
    }
}

impl Default for VulnDb {
    fn default() -> Self {
        VulnDb::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Version {
        Version::parse(s).expect("valid version")
    }

    /// What every query must answer: a plain filter over `records_for`.
    fn direct<'a>(
        db: &'a VulnDb,
        library: LibraryId,
        version: &Version,
        basis: Basis,
        known_by: Option<Date>,
    ) -> Vec<&'a str> {
        db.records_for(library)
            .filter(|r| known_by.is_none_or(|date| r.disclosed <= date))
            .filter(|r| match basis {
                Basis::CveClaimed => r.claims(version),
                Basis::TrueVulnerable => r.truly_affects(version),
            })
            .map(|r| r.id.as_str())
            .collect()
    }

    /// Checks every query of `db` for `(library, version)` against
    /// [`direct`], at dates on, before and far from each disclosure.
    fn assert_queries_agree(db: &VulnDb, library: LibraryId, version: &Version) {
        let mut dates = vec![Date::from_day_number(0), Date::from_day_number(40_000)];
        for record in db.records_for(library) {
            dates.extend([record.disclosed.add_days(-1), record.disclosed]);
        }
        for basis in [Basis::CveClaimed, Basis::TrueVulnerable] {
            let expected = direct(db, library, version, basis, None);
            let affecting: Vec<&str> = db
                .affecting(library, version, basis)
                .iter()
                .map(|r| r.id.as_str())
                .collect();
            assert_eq!(affecting, expected, "{library} {version} {basis:?}");
            assert_eq!(db.vuln_count(library, version, basis), expected.len());
            assert_eq!(
                db.is_vulnerable(library, version, basis),
                !expected.is_empty()
            );
            for &date in &dates {
                let expected = direct(db, library, version, basis, Some(date));
                assert_eq!(
                    db.vuln_count_known_by(library, version, basis, date),
                    expected.len(),
                    "{library} {version} {basis:?} known by {date}"
                );
                assert_eq!(
                    db.is_vulnerable_known_by(library, version, basis, date),
                    !expected.is_empty(),
                    "{library} {version} {basis:?} known by {date}"
                );
            }
        }
    }

    fn assert_all_queries_agree(db: &VulnDb) {
        for library in LibraryId::ALL {
            for release in &db.catalog(library).releases {
                assert_queries_agree(db, library, &release.version);
            }
            // Outside every catalog: the ranges are evaluated instead.
            for outside in ["9.9.9-beta", "0.0.1", "1.0.0-rc.1", "3.5"] {
                assert_queries_agree(db, library, &v(outside));
            }
        }
    }

    /// A delta record for `library` claiming everything below `below`.
    fn delta_record(id: &str, library: LibraryId, below: &str, disclosed: &str) -> VulnRecord {
        use webvuln_version::{Interval, IntervalSet};
        VulnRecord {
            id: id.to_string(),
            has_cve_id: true,
            library,
            claimed: IntervalSet::from_interval(Interval::below(v(below))),
            tvv: Some(IntervalSet::from_interval(Interval::at_most(v(below)))),
            patched_version: None,
            disclosed: Date::parse(disclosed).expect("valid date"),
            patched_date: None,
            attack: crate::record::AttackType::Xss,
            has_poc: false,
        }
    }

    #[test]
    fn release_keys_order_and_compare_like_versions() {
        assert_eq!(release_key(&v("1.9")), release_key(&v("1.9.0.0.0")));
        assert_eq!(release_key(&v("1.6.0.1")), Some(0x0001_0006_0000_0001));
        for unkeyed in ["1.0.0-rc.1", "1.0b2", "1.2.3.4.5", "70000.1"] {
            assert_eq!(release_key(&v(unkeyed)), None, "{unkeyed}");
        }
        for library in LibraryId::ALL {
            let releases = &catalog(library).releases;
            for (a, b) in releases.iter().zip(&releases[1..]) {
                let (ka, kb) = (release_key(&a.version), release_key(&b.version));
                assert!(ka.is_some() && kb.is_some(), "{library}");
                assert_eq!(ka.cmp(&kb), a.version.cmp(&b.version), "{library}");
            }
        }
    }

    #[test]
    fn verdict_index_agrees_with_a_direct_filter() {
        let db = VulnDb::builtin();
        for library in LibraryId::ALL {
            // Built for every library with a record, one entry a release.
            let indexed = db.libraries[library.index()].releases.len();
            let expected = match db.vuln_report_count(library) {
                0 => 0,
                _ => db.catalog(library).len(),
            };
            assert_eq!(indexed, expected, "{library}");
        }
        assert_all_queries_agree(&db);
    }

    #[test]
    fn extend_reindexes_and_stays_idempotent() {
        let mut db = VulnDb::builtin();
        let latest = db.catalog(LibraryId::JQuery).latest().version.clone();
        assert!(!db.is_vulnerable(LibraryId::JQuery, &latest, Basis::CveClaimed));

        // The watch daemon's delta path: extend, then query.
        let delta = || {
            vec![
                delta_record("CVE-2099-0001", LibraryId::JQuery, "9.0.0", "2022-04-10"),
                delta_record("CVE-2099-0002", LibraryId::Modernizr, "3.0.0", "2021-01-01"),
            ]
        };
        assert_eq!(db.extend(delta()), 2);
        let ids: Vec<&str> = db
            .affecting(LibraryId::JQuery, &latest, Basis::CveClaimed)
            .iter()
            .map(|r| r.id.as_str())
            .collect();
        assert_eq!(ids, ["CVE-2099-0001"]);
        let before = Date::parse("2022-04-09").expect("valid date");
        assert!(!db.is_vulnerable_known_by(LibraryId::JQuery, &latest, Basis::CveClaimed, before));
        assert_eq!(db.vuln_report_count(LibraryId::Modernizr), 1);
        assert_all_queries_agree(&db);

        // Re-applying the same IDs changes nothing.
        let records = db.records().len();
        assert_eq!(db.extend(delta()), 0);
        assert_eq!(db.records().len(), records);
        assert_eq!(
            db.vuln_count(LibraryId::JQuery, &latest, Basis::CveClaimed),
            1
        );
        assert_all_queries_agree(&db);
    }

    #[test]
    fn a_library_wider_than_the_masks_evaluates_ranges() {
        let mut db = VulnDb::builtin();
        let releases: Vec<String> = db
            .catalog(LibraryId::Bootstrap)
            .releases
            .iter()
            .map(|r| r.version.to_string())
            .collect();
        // Push Bootstrap past one mask bit per record; vary the ranges
        // and dates so positions past 64 matter.
        let flood = (0..MASK_BITS + 6).map(|i| {
            delta_record(
                &format!("CVE-2098-{i:04}"),
                LibraryId::Bootstrap,
                &releases[i % releases.len()],
                if i % 2 == 0 {
                    "2019-06-01"
                } else {
                    "2021-06-01"
                },
            )
        });
        assert_eq!(db.extend(flood), MASK_BITS + 6);
        assert!(db.vuln_report_count(LibraryId::Bootstrap) > MASK_BITS);
        let wide = &db.libraries[LibraryId::Bootstrap.index()];
        assert!(wide.releases.is_empty(), "too wide to index");
        assert!(matches!(
            db.verdict(LibraryId::Bootstrap, &v("3.3.7")).source,
            Source::Ranges(_)
        ));
        assert!(
            db.vuln_count(LibraryId::Bootstrap, &v("2.0.0"), Basis::CveClaimed) > MASK_BITS / 2
        );
        assert_all_queries_agree(&db);
    }

    #[test]
    fn table1_vuln_counts() {
        let db = VulnDb::builtin();
        // Table 1 "# Vul." column. jQuery-Migrate's advisory has no CVE ID
        // but the paper counts it (Table 1 lists 1 for jQuery-Migrate).
        assert_eq!(db.vuln_report_count(LibraryId::JQuery), 8);
        assert_eq!(db.vuln_report_count(LibraryId::Bootstrap), 7);
        assert_eq!(db.vuln_report_count(LibraryId::JQueryMigrate), 1);
        assert_eq!(db.vuln_report_count(LibraryId::JQueryUi), 6);
        assert_eq!(db.vuln_report_count(LibraryId::Modernizr), 0);
        assert_eq!(db.vuln_report_count(LibraryId::JsCookie), 0);
        assert_eq!(db.vuln_report_count(LibraryId::Underscore), 1);
        assert_eq!(db.vuln_report_count(LibraryId::MomentJs), 2);
        assert_eq!(db.vuln_report_count(LibraryId::Prototype), 2);
        assert_eq!(db.vuln_report_count(LibraryId::SwfObject), 0);
    }

    #[test]
    fn dominant_jquery_version_has_four_claimed_vulns() {
        // §6.3: v1.12.4 carries CVE-2020-11023, CVE-2020-11022,
        // CVE-2015-9251 and CVE-2019-11358.
        let db = VulnDb::builtin();
        let found = db.affecting(LibraryId::JQuery, &v("1.12.4"), Basis::CveClaimed);
        let ids: Vec<_> = found.iter().map(|r| r.id.as_str()).collect();
        assert!(ids.contains(&"CVE-2020-11023"));
        assert!(ids.contains(&"CVE-2020-11022"));
        assert!(ids.contains(&"CVE-2015-9251"));
        assert!(ids.contains(&"CVE-2019-11358"));
        assert_eq!(ids.len(), 4, "{ids:?}");
    }

    #[test]
    fn microsofts_jquery_351_vulnerable_only_under_tvv() {
        let db = VulnDb::builtin();
        let ver = v("3.5.1");
        assert!(!db.is_vulnerable(LibraryId::JQuery, &ver, Basis::CveClaimed));
        assert!(db.is_vulnerable(LibraryId::JQuery, &ver, Basis::TrueVulnerable));
        let tvv = db.affecting(LibraryId::JQuery, &ver, Basis::TrueVulnerable);
        assert_eq!(tvv.len(), 1);
        assert_eq!(tvv[0].id, "CVE-2020-7656");
    }

    #[test]
    fn latest_jquery_is_clean_under_both_bases() {
        let db = VulnDb::builtin();
        let ver = v("3.6.0");
        assert!(!db.is_vulnerable(LibraryId::JQuery, &ver, Basis::CveClaimed));
        assert!(!db.is_vulnerable(LibraryId::JQuery, &ver, Basis::TrueVulnerable));
    }

    #[test]
    fn every_prototype_version_is_vulnerable() {
        let db = VulnDb::builtin();
        for release in &db.catalog(LibraryId::Prototype).releases {
            assert!(
                db.is_vulnerable(
                    LibraryId::Prototype,
                    &release.version,
                    Basis::TrueVulnerable
                ),
                "{} should be vulnerable (CVE-2020-27511 affects all)",
                release.version
            );
        }
    }

    #[test]
    fn record_lookup_by_id() {
        let db = VulnDb::builtin();
        assert!(db.record("CVE-2020-11022").is_some());
        assert!(db.record("CVE-1999-0000").is_none());
    }

    #[test]
    fn catalogs_are_reachable_for_all_libraries() {
        let db = VulnDb::builtin();
        for lib in LibraryId::ALL {
            assert!(!db.catalog(lib).is_empty(), "{lib}");
        }
    }
}
