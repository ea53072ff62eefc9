//! # webvuln-webgen
//!
//! The synthetic web ecosystem — the data substitution that replaces the
//! paper's 157.2M crawled pages (see DESIGN.md §2).
//!
//! An [`Ecosystem`] is an Alexa-style ranked list of domains generated
//! deterministically from a seed. Each domain carries a technology profile
//! (WordPress, the top-15 libraries with versions and inclusion types,
//! SRI/CORS hygiene, Flash) and a small set of life events (organic
//! updates, WordPress auto-update waves, library adoption/abandonment,
//! Flash removal, domain death). Resolving a `(domain, week)` pair yields
//! the exact HTML the crawler downloads that week.
//!
//! The marginal distributions come straight from the paper's tables
//! (`shares`); the temporal events come from its findings (WordPress
//! 5.5/5.6, the Dec 2020 and Aug 2021 jQuery waves, Flash end-of-life).
//!
//! ```
//! use std::sync::Arc;
//! use webvuln_webgen::{Ecosystem, EcosystemConfig, Timeline};
//!
//! let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
//!     seed: 7,
//!     domain_count: 200,
//!     timeline: Timeline::truncated(8),
//! }));
//! let names = eco.domain_names();
//! assert_eq!(names.len(), 200);
//! // The same (domain, week) always renders the same page.
//! assert_eq!(eco.page(&names[0], 3), eco.page(&names[0], 3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod domain;
pub(crate) mod ecosystem;
pub(crate) mod render;
pub(crate) mod rng;
pub(crate) mod shares;
pub(crate) mod timeline;

pub use domain::{
    Deployed, Deployment, DomainModel, DomainState, FlashState, GithubScript, Inclusion,
    ResourceFlags,
};
pub use ecosystem::{Ecosystem, EcosystemConfig, PageOutcome, WeekHandler};
pub use render::script_url;
pub use timeline::Timeline;
