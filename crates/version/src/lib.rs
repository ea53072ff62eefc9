//! # webvuln-version
//!
//! Version handling for the `webvuln` workspace: parsing the loose version
//! strings found in client-side JavaScript library URLs, ordering them,
//! evaluating CVE-style requirements against them, and doing set algebra
//! over version ranges.
//!
//! The interval algebra is what powers the paper's §6.4 CVE-accuracy
//! analysis: given the range a CVE *claims* is vulnerable and the range the
//! PoC lab *measured* as vulnerable (the True Vulnerable Versions), the
//! understated slice is `TVV \ CVE` and the overstated slice is
//! `CVE \ TVV`.
//!
//! ```
//! use webvuln_version::{Version, VersionReq};
//!
//! // CVE-2020-7656 claims "< 1.9.0"; the paper's experiment shows "< 3.6.0".
//! let claimed = VersionReq::parse("< 1.9.0").unwrap().to_interval_set();
//! let measured = VersionReq::parse("< 3.6.0").unwrap().to_interval_set();
//!
//! let understated = measured.subtract(&claimed);
//! assert!(understated.contains(&Version::parse("1.10.1").unwrap()));
//! assert!(understated.contains(&Version::parse("3.5.1").unwrap())); // microsoft.com
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod interval;
mod req;
mod version;

pub use interval::{Interval, IntervalSet};
pub use req::{ParseReqError, VersionReq};
pub use version::{ParseVersionError, Version};
