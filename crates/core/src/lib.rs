//! # webvuln-core
//!
//! Orchestration of the whole reproduction: configure a synthetic web,
//! run the §4 collection pipeline, compute every §5–§8 artifact, and
//! render the paper-shaped report.
//!
//! ```no_run
//! use webvuln_core::{full_report, Pipeline, StudyConfig};
//!
//! let results = Pipeline::new(StudyConfig::quick())
//!     .threads(8)
//!     .run()
//!     .expect("study");
//! println!("{}", full_report(&results));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod report;
pub(crate) mod study;

pub use report::{full_report, series_to_csv, telemetry_json};
pub use study::{
    analyze_store, failpoint_catalog, Pipeline, StudyConfig, StudyResults, FAILPOINTS,
};
pub use webvuln_telemetry::{Snapshot, StderrProgress, Telemetry, TraceData};
