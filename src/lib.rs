//! # webvuln
//!
//! A longitudinal measurement toolkit for vulnerable client-side web
//! resources — a from-scratch Rust reproduction of *"A Longitudinal Study
//! of Vulnerable Client-side Resources and Web Developers' Updating
//! Behaviors"* (IMC '23).
//!
//! This facade re-exports the workspace crates:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`pattern`] | `webvuln-pattern` | linear-time regex engine |
//! | [`version`] | `webvuln-version` | version parsing + interval algebra |
//! | [`html`] | `webvuln-html` | pull tokenizer, one-pass extractor, DOM |
//! | [`cvedb`] | `webvuln-cvedb` | embedded CVE corpus + release catalogs |
//! | [`webgen`] | `webvuln-webgen` | synthetic web ecosystem |
//! | [`net`] | `webvuln-net` | HTTP/1.1 stack + crawler, retries, circuit breakers |
//! | [`exec`] | `webvuln-exec` | parallel-map executor, supervised tasks |
//! | [`failpoint`] | `webvuln-failpoint` | deterministic fail-point injection |
//! | [`fingerprint`] | `webvuln-fingerprint` | Wappalyzer-equivalent |
//! | [`poclab`] | `webvuln-poclab` | version-validation experiment |
//! | [`analysis`] | `webvuln-analysis` | tables & figures |
//! | [`serve`] | `webvuln-serve` | multi-threaded query API over the store |
//! | [`watch`] | `webvuln-watch` | live-ingestion daemon + retro-scan alerting |
//! | [`store`] | `webvuln-store` | binary snapshot store (checkpoint/resume) |
//! | [`telemetry`] | `webvuln-telemetry` | metrics, spans, progress, causal tracing + flight recorder |
//! | [`core`] | `webvuln-core` | study orchestration + reports |
//!
//! ## Quickstart
//!
//! ```no_run
//! use webvuln::core::{full_report, Pipeline, StudyConfig};
//!
//! let results = Pipeline::new(StudyConfig::quick())
//!     .threads(8)
//!     .run()
//!     .expect("study");
//! println!("{}", full_report(&results));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use webvuln_analysis as analysis;
pub use webvuln_core as core;
pub use webvuln_cvedb as cvedb;
pub use webvuln_exec as exec;
pub use webvuln_failpoint as failpoint;
pub use webvuln_fingerprint as fingerprint;
pub use webvuln_html as html;
pub use webvuln_net as net;
pub use webvuln_pattern as pattern;
pub use webvuln_poclab as poclab;
pub use webvuln_serve as serve;
pub use webvuln_store as store;
pub use webvuln_telemetry as telemetry;
pub use webvuln_version as version;
pub use webvuln_watch as watch;
pub use webvuln_webgen as webgen;

// The serving stack's front door, re-exported flat: open a store, build
// the service, start the server — without spelling the module paths.
pub use webvuln_serve::{ApiHandler, ApiServer, QueryService, ServeConfig};
// The store's front door: one opener for both layouts plus a streaming
// iterator over committed weeks, so consumers need not know whether a
// path is a single file or a shard directory.
pub use webvuln_store::{AnyReader, WeekStream};
// The live-ingestion front door: point a watcher (or a whole supervised
// daemon) at a watch root without spelling the module paths.
pub use webvuln_watch::{supervise, SupervisorConfig, WatchConfig, Watcher};
