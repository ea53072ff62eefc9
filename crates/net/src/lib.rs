//! # webvuln-net
//!
//! The networking substrate of the `webvuln` measurement pipeline: an
//! HTTP/1.1 implementation written from scratch, pluggable transports, a
//! fault injector, and the weekly snapshot crawler — the Rust counterpart
//! of the paper's Go `net/http` crawler (§4.1).
//!
//! Layering, bottom-up:
//!
//! * [`ByteStream`] — blocking byte transport. Implemented by
//!   `std::net::TcpStream`, by [`mem_pipe`] (in-memory duplex for tests),
//!   and by the thread-free loopback streams of [`VirtualNet`].
//! * [`codec`] — HTTP/1.1 wire format: content-length, chunked and
//!   EOF-delimited bodies, size limits against hostile peers.
//! * [`Server`] / [`serve_stream`] — the workspace's one HTTP server:
//!   accept loop, pooled workers, and the per-connection loop with
//!   keep-alive and pipelining. The query API is a [`Handler`] on it.
//! * [`Connect`] — how the client reaches a named host. [`TcpConnector`]
//!   dials real sockets; [`VirtualNet`] loops back into a [`Handler`]
//!   in-process (every request still round-trips through the full codec).
//! * [`FaultPlan`] — deterministic per-host connection failures and
//!   truncations, in the spirit of smoltcp's example fault injection,
//!   plus *transient* faults (refusals, stalls, 5xx bursts) that heal
//!   after a few attempts.
//! * [`CrawlOptions`] — the builder for the parallel crawler:
//!   threads, retry policy, per-host circuit breakers, simulated-time
//!   backoff and telemetry compose as orthogonal options, producing
//!   per-domain [`FetchRecord`]s with scheduling-independent results.
//! * [`filter`] — the paper's inaccessible-domain rule (4xx / <400 bytes
//!   for the four consecutive final weeks).
//!
//! ```
//! use std::sync::Arc;
//! use webvuln_net::{CrawlOptions, Request, Response, VirtualNet};
//!
//! let net = VirtualNet::new(Arc::new(|req: &Request| {
//!     Response::html(format!("<html>hello {}</html>", req.host().unwrap_or("?")))
//! }));
//! let domains = vec!["a.example".to_string(), "b.example".to_string()];
//! let snapshot = CrawlOptions::new().threads(2).run(&domains, &net);
//! assert_eq!(snapshot["a.example"].status, Some(200));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod codec;
mod crawler;
mod error;
mod fault;
pub mod filter;
mod http;
mod server;
mod transport;
mod virtual_net;

pub use client::{fetch, fetch_attempt, MAX_REDIRECTS};
pub use crawler::{CrawlOptions, FetchRecord, FAILPOINTS};
pub use error::{ErrorClass, NetError, Result};
pub use fault::{mix, FaultPlan};
pub use filter::{
    inaccessible_domains, page_is_error_or_empty, FetchSummary, EMPTY_PAGE_THRESHOLD,
};
pub use http::{Headers, Method, Request, Response, Status};
pub use server::{serve_stream, Connect, Handler, ServeConfig, Server, TcpConnector};
pub use transport::{mem_pipe, ByteStream, MemStream};
pub use virtual_net::VirtualNet;
pub use webvuln_exec::{ExecStats, Executor, FailureKind, SuperviseConfig, TaskFailure};
pub use webvuln_resilience::{
    BreakerConfig, BreakerState, CircuitBreaker, HostBreakers, RetryPolicy, VirtualClock,
};
