//! # webvuln-cvedb
//!
//! The embedded vulnerability database of the `webvuln` workspace — the
//! stand-in for the paper's manual cross-referencing of NVD, CVE MITRE,
//! cvedetails.com and the Snyk vulnerability DB (§4.3).
//!
//! What lives here:
//!
//! * [`Date`] — day-precision calendar arithmetic for the 2018–2022 study
//!   window and the §7 update-delay analysis.
//! * [`LibraryId`] + release [`Catalog`]s — the top-15 libraries of Table 1
//!   with their published versions and release dates (boundary versions
//!   carry real dates).
//! * [`VulnRecord`] — the 28-report corpus of Table 2, each with the
//!   CVE-claimed range *and* the paper's measured True Vulnerable Versions,
//!   plus the [`Accuracy`] classification (understated / overstated /
//!   mixed) computed by interval algebra.
//! * [`WordPressCve`] (Table 4), WordPress event dates, and the Table 3
//!   browser/Flash-support survey.
//! * [`VulnDb`] — the query facade: which vulnerabilities affect
//!   `(library, version)` under the claimed ranges vs. under TVV.
//!
//! ```
//! use webvuln_cvedb::{Basis, LibraryId, VulnDb};
//! use webvuln_version::Version;
//!
//! let db = VulnDb::builtin();
//! let dominant = Version::parse("1.12.4").unwrap();
//! // The dominant jQuery version carries four known vulnerabilities.
//! assert_eq!(db.vuln_count(LibraryId::JQuery, &dominant, Basis::CveClaimed), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod browsers;
mod date;
mod db;
pub mod delta;
mod library;
mod record;
mod wordpress;

pub use browsers::{browser_flash_support, BrowserSupport};
pub use date::{Date, ParseDateError};
pub use db::{Basis, Verdict, VulnDb};
pub use delta::{parse_delta, DeltaError};
pub use library::{catalog, wordpress_catalog, Catalog, LibraryId, Release};
pub use record::{builtin_records, classify, Accuracy, AttackType, VulnRecord};
pub use wordpress::{wordpress_cves, WordPressCve, WordPressEvents};
