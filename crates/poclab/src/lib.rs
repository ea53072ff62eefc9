//! # webvuln-poclab
//!
//! The Version Validation Experiment of the paper's §6.4, as a library.
//!
//! The paper manually re-ran proof-of-concept exploits against every
//! released version of the studied libraries (85 jQuery environments
//! alone) to measure which versions are *truly* vulnerable, discovering
//! that 13 of 27 CVE reports state incorrect ranges. This crate rebuilds
//! that experiment mechanically:
//!
//! * [`sandbox`] — a miniature DOM/JS environment that observes script
//!   execution, fired event handlers, and prototype pollution;
//! * [`jquery`] / [`libs`] — version-parameterized re-implementations of
//!   the vulnerable code paths (quickExpr eras, `htmlPrefilter`
//!   expansion, Bootstrap's sanitizer, Underscore's template compiler, …);
//! * [`backtrack`] — a deliberately naive backtracking regex engine whose
//!   step counter makes the ReDoS CVEs observable;
//! * [`poc_corpus`] — one PoC per report (the seven found in the wild are
//!   flagged, matching the paper);
//! * [`Lab`] — sweeps each library's release catalog through its PoC and
//!   classifies every report as accurate / understated / overstated;
//!   [`builtin_validations`] is that sweep taken once per process.
//!
//! ```
//! use webvuln_poclab::Lab;
//! use webvuln_cvedb::Accuracy;
//!
//! let lab = Lab::new();
//! let report = lab.validate("CVE-2020-7656").unwrap();
//! // The CVE claims "< 1.9.0"; the sweep shows every build below 3.6.0
//! // executes the PoC.
//! assert_eq!(report.accuracy, Accuracy::Understated);
//! assert!(report.understated.iter().any(|v| v.to_string() == "3.5.1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backtrack;
pub mod jquery;
pub mod lab;
pub mod libs;
pub mod poc;
pub mod sandbox;

pub use backtrack::{BtOutcome, BtRegex};
pub use lab::{builtin_validations, sweeps_run, Lab, ValidationReport};
pub use poc::{poc_corpus, PocExploit, PocResult};
pub use sandbox::{JsRealm, JsValue, Sandbox};
