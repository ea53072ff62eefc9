//! # webvuln-analysis
//!
//! The longitudinal analysis engine: collects the weekly-snapshot dataset
//! through the full crawl→fingerprint pipeline (§4) and computes every
//! table and figure of the paper's evaluation (§5–§8). See DESIGN.md's
//! experiment index for the artifact-to-function mapping.
//!
//! * [`dataset`] — §4 collection: weekly crawls over the virtual internet
//!   and usability filtering, in one loop ([`Collector::run`]).
//! * [`filter`] — the §4.1 trailing-month inaccessibility rule as one
//!   incremental [`FilterWindow`].
//! * [`resources`] — Figure 2 (collection series, resource classes).
//! * [`landscape`] — Table 1, Figure 3, Table 5 (library usage landscape).
//! * [`vuln`] — §6.2/§6.4: prevalence, per-CVE impact (Table 2, Figures
//!   5/14), the Figure 12 CDF, claimed-vs-TVV refinement.
//! * [`updates`] — §7: WordPress attribution (Figure 9), the update-delay
//!   estimator; its tests pin the version trends of Figures 6/7.
//! * [`flash`] — §8: Figure 8 decay, Figure 11 `AllowScriptAccess`.
//! * [`sri`] — §6.5: Figure 10 SRI adoption, `crossorigin` census,
//!   Table 6 GitHub-hosted inclusions.
//! * [`wordpress`] — Table 4 WordPress CVE census.
//! * [`store_io`] — the bridge to `webvuln-store`: the writer every
//!   collection commits through (to a file or to memory), the JSON export.
//! * [`accum`] — the mergeable streaming accumulators behind every
//!   artifact above, and [`accum::fold_store`], the one way they read a
//!   store.
//! * [`view`] — what an accumulator reads of a week: a store's decoded
//!   records in place, or a [`WeekSnapshot`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Fail-point sites owned by this crate, for the chaos-harness catalog.
///
/// - `phase.crawl`, then `phase.fingerprint` — fire at the top of each
///   week's collection, the one pool map that crawls and fingerprints it
///   (key: the week number).
/// - `checkpoint.commit` — fires just before a crawled week is committed
///   to the snapshot store (key: the week number).
pub const FAILPOINTS: &[&str] = &["checkpoint.commit", "phase.crawl", "phase.fingerprint"];

pub mod accum;
pub mod dataset;
pub mod filter;
pub mod flash;
pub mod landscape;
pub mod resources;
pub mod sri;
pub mod stats;
pub mod store_io;
pub mod updates;
pub mod view;
pub mod vuln;
pub mod wordpress;

pub use accum::{
    fold_store, fold_study, genesis_ranks, AccumCtx, Accumulate, Buckets, StudyAccum,
    StudyArtifacts,
};
pub use dataset::{CollectConfig, Collector, Dataset, WeekSnapshot};
pub use filter::{apply_filter, store_filter_verdict, FilterWindow};
pub use store_io::CheckpointOutcome;
pub use view::{DetectionView, PageView, WeekView};
