//! CVE delta files: how new vulnerability reports reach a running
//! system without a rebuild.
//!
//! A delta file is a plain-text record batch — the operational analogue
//! of the paper's manual NVD/Snyk cross-referencing arriving one advisory
//! at a time. The watch daemon tails a directory of these; each new file
//! extends the in-memory [`VulnDb`](crate::VulnDb) and triggers a
//! retro-scan of the snapshot history.
//!
//! Format: `key: value` lines, one record per stanza, stanzas separated
//! by blank lines, `#` comments ignored:
//!
//! ```text
//! # webvuln cve delta v1
//! id: CVE-2099-0001
//! library: jquery
//! claimed: < 3.5.0
//! tvv: <= 3.5.1
//! attack: xss
//! disclosed: 2022-04-10
//! patched-version: 3.5.0
//! patched-date: 2022-04-10
//! poc: yes
//! ```
//!
//! `id`, `library`, `claimed`, `attack`, and `disclosed` are required;
//! the rest are optional. A range is what an
//! [`IntervalSet`](webvuln_version::IntervalSet) prints: comparator
//! conjunctions joined by ` or ` (`< 3.4.1 or >= 4.0.0, < 4.3.1`). Parsing
//! is strict: an unknown or repeated key, library, or attack slug fails
//! the whole file (a half-applied delta is worse than a rejected one).
//! The study's own corpus is such a file, `table2.cvedelta`.

use crate::date::Date;
use crate::library::LibraryId;
use crate::record::{AttackType, VulnRecord};
use std::fmt;
use webvuln_version::{IntervalSet, Version};

/// A delta file failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaError {
    /// 1-based line number of the offending line (0 for end-of-file
    /// problems such as a stanza missing required keys).
    pub line: usize,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.detail)
    }
}

impl std::error::Error for DeltaError {}

fn err(line: usize, detail: impl Into<String>) -> DeltaError {
    DeltaError {
        line,
        detail: detail.into(),
    }
}

/// The attack-type slugs delta files use.
pub(crate) fn attack_from_slug(slug: &str) -> Option<AttackType> {
    Some(match slug {
        "xss" => AttackType::Xss,
        "prototype-pollution" => AttackType::PrototypePollution,
        "arbitrary-code-injection" => AttackType::ArbitraryCodeInjection,
        "resource-exhaustion" => AttackType::ResourceExhaustion,
        "regex-dos" => AttackType::RegexDos,
        "missing-authorization" => AttackType::MissingAuthorization,
        _ => return None,
    })
}

#[derive(Default)]
struct Stanza {
    start_line: usize,
    id: Option<String>,
    library: Option<LibraryId>,
    claimed: Option<IntervalSet>,
    tvv: Option<IntervalSet>,
    attack: Option<AttackType>,
    disclosed: Option<Date>,
    patched_version: Option<Version>,
    patched_date: Option<Date>,
    poc: Option<bool>,
    any: bool,
}

/// Fills one key's slot of a stanza; a key given twice fails the file.
fn fill<T>(slot: &mut Option<T>, value: T, line: usize, key: &str) -> Result<(), DeltaError> {
    match slot.replace(value) {
        Some(_) => Err(err(line, format!("repeated key {key:?}"))),
        None => Ok(()),
    }
}

impl Stanza {
    fn finish(self) -> Result<VulnRecord, DeltaError> {
        let line = self.start_line;
        let id = self.id.ok_or_else(|| err(line, "missing key: id"))?;
        let library = self
            .library
            .ok_or_else(|| err(line, "missing key: library"))?;
        let claimed = self
            .claimed
            .ok_or_else(|| err(line, "missing key: claimed"))?;
        let attack = self
            .attack
            .ok_or_else(|| err(line, "missing key: attack"))?;
        let disclosed = self
            .disclosed
            .ok_or_else(|| err(line, "missing key: disclosed"))?;
        let has_cve_id = id.starts_with("CVE-");
        Ok(VulnRecord {
            id,
            has_cve_id,
            library,
            claimed,
            tvv: self.tvv,
            patched_version: self.patched_version,
            disclosed,
            patched_date: self.patched_date,
            attack,
            has_poc: self.poc.unwrap_or(false),
        })
    }
}

/// Parses a delta file into vulnerability records.
pub fn parse_delta(text: &str) -> Result<Vec<VulnRecord>, DeltaError> {
    let mut records = Vec::new();
    let mut stanza = Stanza::default();
    for (index, raw) in text.lines().enumerate() {
        let lineno = index + 1;
        let line = raw.trim();
        if line.starts_with('#') {
            continue;
        }
        if line.is_empty() {
            if stanza.any {
                records.push(std::mem::take(&mut stanza).finish()?);
            }
            continue;
        }
        let (key, value) = line
            .split_once(':')
            .ok_or_else(|| err(lineno, format!("expected `key: value`, got {line:?}")))?;
        let key = key.trim();
        let value = value.trim();
        if !stanza.any {
            stanza.any = true;
            stanza.start_line = lineno;
        }
        match key {
            "id" => fill(&mut stanza.id, value.to_string(), lineno, key)?,
            "library" => {
                let library = LibraryId::from_slug(value)
                    .ok_or_else(|| err(lineno, format!("unknown library {value:?}")))?;
                fill(&mut stanza.library, library, lineno, key)?
            }
            "claimed" | "tvv" => {
                let range = IntervalSet::parse(value)
                    .map_err(|e| err(lineno, format!("{key} range {value:?}: {e}")))?;
                let slot = match key {
                    "claimed" => &mut stanza.claimed,
                    _ => &mut stanza.tvv,
                };
                fill(slot, range, lineno, key)?
            }
            "attack" => {
                let attack = attack_from_slug(value)
                    .ok_or_else(|| err(lineno, format!("unknown attack {value:?}")))?;
                fill(&mut stanza.attack, attack, lineno, key)?
            }
            "disclosed" => {
                let date =
                    Date::parse(value).map_err(|e| err(lineno, format!("disclosed: {e}")))?;
                fill(&mut stanza.disclosed, date, lineno, key)?
            }
            "patched-version" => {
                let version = Version::parse(value)
                    .map_err(|e| err(lineno, format!("patched-version: {e}")))?;
                fill(&mut stanza.patched_version, version, lineno, key)?
            }
            "patched-date" => {
                let date =
                    Date::parse(value).map_err(|e| err(lineno, format!("patched-date: {e}")))?;
                fill(&mut stanza.patched_date, date, lineno, key)?
            }
            "poc" => {
                let poc = match value {
                    "yes" | "true" => true,
                    "no" | "false" => false,
                    _ => return Err(err(lineno, format!("poc must be yes/no, got {value:?}"))),
                };
                fill(&mut stanza.poc, poc, lineno, key)?
            }
            _ => return Err(err(lineno, format!("unknown key {key:?}"))),
        }
    }
    if stanza.any {
        records.push(stanza.finish()?);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{Basis, VulnDb};

    const SAMPLE: &str = "\
# webvuln cve delta v1
id: CVE-2099-0001
library: jquery
claimed: < 3.5.0
tvv: <= 3.5.1
attack: xss
disclosed: 2022-04-10
patched-version: 3.5.0
patched-date: 2022-04-10
poc: yes

id: SNYK-JS-UNDERSCORE-2
library: underscore
claimed: >= 1.3.2, < 1.12.1
attack: arbitrary-code-injection
disclosed: 2021-03-29
";

    #[test]
    fn sample_delta_parses() {
        let records = parse_delta(SAMPLE).expect("parse");
        assert_eq!(records.len(), 2);
        let r = &records[0];
        assert_eq!(r.id, "CVE-2099-0001");
        assert!(r.has_cve_id);
        assert_eq!(r.library, LibraryId::JQuery);
        assert_eq!(r.attack, AttackType::Xss);
        assert!(r.has_poc);
        let v = |s: &str| Version::parse(s).unwrap();
        assert!(r.claims(&v("3.4.1")));
        assert!(!r.claims(&v("3.5.0")));
        assert!(r.truly_affects(&v("3.5.1")), "tvv widens the range");
        let s = &records[1];
        assert!(!s.has_cve_id);
        assert!(!s.has_poc);
        assert_eq!(s.tvv, None);
        assert!(s.claims(&v("1.9.1")));
        assert!(!s.claims(&v("1.12.1")));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad_key = "id: X\nlibrary: jquery\nclaimed: < 1.0.0\nattack: xss\ndisclosed: 2020-01-01\nshrug: nope\n";
        let e = parse_delta(bad_key).unwrap_err();
        assert_eq!(e.line, 6);
        assert!(e.detail.contains("unknown key"), "{e}");

        let bad_lib = "id: X\nlibrary: leftpad\n";
        let e = parse_delta(bad_lib).unwrap_err();
        assert_eq!(e.line, 2);

        let missing = "id: X\nlibrary: jquery\n";
        let e = parse_delta(missing).unwrap_err();
        assert!(e.detail.contains("missing key"), "{e}");

        let bad_attack = "id: X\nattack: phrenology\n";
        assert!(parse_delta(bad_attack).is_err());

        let bad_range =
            "id: X\nlibrary: jquery\nclaimed: banana\nattack: xss\ndisclosed: 2020-01-01\n";
        let e = parse_delta(bad_range).unwrap_err();
        assert!(e.detail.contains("claimed range"), "{e}");

        let repeated = "id: X\nlibrary: jquery\nclaimed: < 3.0.0\nclaimed: < 9.0.0\n";
        let e = parse_delta(repeated).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.detail.contains("repeated key \"claimed\""), "{e}");
    }

    #[test]
    fn a_range_reads_every_or_branch() {
        let branches = "id: X\nlibrary: bootstrap\nclaimed: < 3.4.1 or >= 4.0.0, < 4.3.1\n\
                        attack: xss\ndisclosed: 2019-02-11\n";
        let r = &parse_delta(branches).expect("parse")[0];
        let v = |s: &str| Version::parse(s).unwrap();
        assert!(r.claims(&v("3.3.7")) && r.claims(&v("4.1.2")));
        assert!(!r.claims(&v("3.9")) && !r.claims(&v("4.3.1")));
        assert_eq!(r.claimed.to_string(), "< 3.4.1 or >= 4.0.0, < 4.3.1");
    }

    #[test]
    fn empty_and_comment_only_files_parse_to_nothing() {
        assert!(parse_delta("").unwrap().is_empty());
        assert!(parse_delta("# nothing\n\n# here\n").unwrap().is_empty());
    }

    #[test]
    fn extended_db_answers_queries_with_delta_records() {
        let mut db = VulnDb::builtin();
        let before = db.records().len();
        let records = parse_delta(SAMPLE).unwrap();
        assert_eq!(db.extend(records.clone()), 2);
        assert_eq!(db.records().len(), before + 2);
        // Re-applying the same delta is a no-op (idempotent redelivery).
        assert_eq!(db.extend(records), 0);
        assert_eq!(db.records().len(), before + 2);
        // The index answers for the new record.
        assert!(db.record("CVE-2099-0001").is_some());
        let v = Version::parse("3.4.1").unwrap();
        assert!(db
            .affecting(LibraryId::JQuery, &v, Basis::CveClaimed)
            .iter()
            .any(|r| r.id == "CVE-2099-0001"));
    }
}
