//! # webvuln-serve
//!
//! The delivery layer of the study: a multi-threaded HTTP/1.1 query API
//! over one finalized (or still-growing) snapshot store — the ROADMAP's
//! "serve the answers, don't just compute them once" subsystem.
//!
//! Layering, bottom-up:
//!
//! * [`json`] — minimal JSON emission (the workspace's core layers stay
//!   free of external crates, so bodies are hand-written, deterministic
//!   text).
//! * [`ShardedLru`] — the seeded, shard-locked response cache for hot
//!   tables.
//! * [`Route`] / [`route`] — the request router and structured
//!   [`ApiError`] responses (404/400/405/503).
//! * [`QueryService`] — evaluates routes against a read-only
//!   [`AnyReader`](webvuln_store::AnyReader) (per-domain random
//!   access) plus the precomputed `webvuln-analysis` tables, so served
//!   bodies agree with the batch reports by construction.
//! * [`ApiHandler`] — an instrumented `webvuln-net`
//!   [`Handler`](webvuln_net::Handler): router →
//!   fail-points → cache → service, with panic quarantine (`serve.*`
//!   telemetry names the counters, gauges and latency histograms).
//! * [`ApiServer`] — the pooled TCP front end: a non-blocking accept
//!   loop with an admission limit feeding a bounded queue drained by
//!   `webvuln-exec` workers, and graceful connection drain on shutdown.
//!
//! ## Endpoints
//!
//! | Route | Answer |
//! |---|---|
//! | `/healthz` | liveness + store shape |
//! | `/domain/{d}/history` | the domain's weekly records (status, detections) |
//! | `/library/{lib}/prevalence` | Table 1 row + Figure 3 usage series |
//! | `/week/{w}/landscape` | per-library users/share in one week |
//! | `/cve/{id}/exposure` | Table 2 / Figure 5 series + exposure window |
//!
//! ```no_run
//! use std::sync::Arc;
//! use webvuln_serve::{ApiServer, QueryService, ServeConfig};
//! use webvuln_telemetry::Registry;
//!
//! let service = Arc::new(QueryService::open(std::path::Path::new("study.wvstore")).unwrap());
//! let registry = Registry::new();
//! let mut server = ApiServer::serve(service, ServeConfig::default(), &registry).unwrap();
//! println!("serving http://{}", server.addr());
//! # server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod json;
mod router;
mod server;
mod service;

pub use cache::ShardedLru;
pub use router::{route, ApiError, Route};
pub use server::{ApiHandler, ApiServer, ServeConfig, FAILPOINTS};
pub use service::QueryService;
