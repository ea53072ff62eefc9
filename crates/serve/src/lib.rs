//! # webvuln-serve
//!
//! The delivery layer of the study: a multi-threaded HTTP/1.1 query API
//! over one finalized (or still-growing) snapshot store — the ROADMAP's
//! "serve the answers, don't just compute them once" subsystem.
//!
//! Layering, bottom-up:
//!
//! * `ShardedLru` — the seeded, shard-locked response cache for hot
//!   tables, keyed by a route's canonical path.
//! * [`Route`] / [`route`] — the request router and structured
//!   [`ApiError`] responses (404/400/405/503).
//! * [`QueryService`] — evaluates routes against a read-only
//!   [`AnyReader`](webvuln_store::AnyReader) (per-domain random
//!   access) plus the precomputed `webvuln-analysis` tables, so served
//!   bodies agree with the batch reports by construction. Bodies are
//!   written with the workspace's one
//!   [`JsonWriter`](webvuln_telemetry::JsonWriter).
//! * [`ApiHandler`] — an instrumented `webvuln-net`
//!   [`Handler`](webvuln_net::Handler): router →
//!   fail-points → cache → service, with panic quarantine (`serve.*`
//!   telemetry names the counters, gauges and latency histograms).
//! * [`ApiServer`] — `webvuln-net`'s [`Server`](webvuln_net::Server)
//!   started over an [`ApiHandler`]: the accept loop with its admission
//!   limit, the worker pool and the graceful drain are the same code the
//!   crawler's TCP test server runs.
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

pub(crate) mod cache;
mod router;
mod server;
mod service;

pub use router::{route, ApiError, Route};
pub use server::{ApiHandler, ApiServer, FAILPOINTS};
pub use service::QueryService;
pub use webvuln_net::ServeConfig;
