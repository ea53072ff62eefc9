//! The query API on `webvuln-net`'s server: [`ApiHandler`], an
//! instrumented [`Handler`] (router → fail-point → cache →
//! [`QueryService`], with panic quarantine and the `serve.*` request
//! metrics), and [`ApiServer`], which starts a [`Server`] over it. The
//! accept loop, the pool and the per-connection loop are `webvuln-net`'s;
//! what this crate tells them is the JSON shape of the `400` and
//! over-capacity `503` bodies and the route label of each request.

use crate::cache::ShardedLru;
use crate::router::{route, ApiError, Route};
use crate::service::QueryService;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use webvuln_net::{Handler, NetError, Request, Response, ServeConfig, Server, Status};
use webvuln_telemetry::{Counter, Histogram, Registry};

/// Fail-point sites of the serving path. The first two fire in
/// `webvuln-net`'s server loop, which every [`ApiServer`] runs on.
///
/// * `serve.accept` — keyed by peer address, checked for every accepted
///   connection; an injected error or panic costs that connection only,
///   exactly like a failed `accept`.
/// * `serve.mid_response` — keyed by route label, checked after a
///   response is encoded; `Error` writes half the bytes and kills the
///   connection (the client sees a torn response, the listener lives).
/// * `serve.handler` — keyed by route label, checked before evaluating a
///   request; `Error` answers `503`, `Panic` exercises the quarantine.
pub const FAILPOINTS: &[&str] = &["serve.accept", "serve.handler", "serve.mid_response"];

/// Registered `serve.*` request metrics (the connection-level ones are
/// the server loop's).
struct Metrics {
    requests: Counter,
    resp_2xx: Counter,
    resp_4xx: Counter,
    resp_5xx: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    handler_panics: Counter,
    /// One histogram per [`Route::LABELS`] entry, then `error`'s.
    latency: Vec<Histogram>,
}

impl Metrics {
    fn new(registry: &Registry) -> Metrics {
        let labels = Route::LABELS.iter().chain(&["error"]);
        Metrics {
            requests: registry.counter("serve.requests_total"),
            resp_2xx: registry.counter("serve.responses_2xx_total"),
            resp_4xx: registry.counter("serve.responses_4xx_total"),
            resp_5xx: registry.counter("serve.responses_5xx_total"),
            cache_hits: registry.counter("serve.cache_hits_total"),
            cache_misses: registry.counter("serve.cache_misses_total"),
            handler_panics: registry.counter("serve.handler_panics_total"),
            latency: labels
                .map(|l| registry.histogram(&format!("serve.latency_ns.{l}")))
                .collect(),
        }
    }

    /// The histogram of `route`'s label; of `error` for a request that
    /// did not route.
    fn latency_for(&self, route: Option<&Route>) -> &Histogram {
        &self.latency[route.map_or(Route::LABELS.len(), Route::index)]
    }

    fn count_response(&self, status: Status) {
        if status.is_success() {
            self.resp_2xx.inc();
        } else if status.is_client_error() || status.0 == 405 {
            self.resp_4xx.inc();
        } else {
            self.resp_5xx.inc();
        }
    }
}

/// The instrumented request handler: router → fail-points → cache →
/// [`QueryService`], with panic quarantine. A plain [`Handler`], so it
/// also runs under `VirtualNet` in tests.
pub struct ApiHandler {
    service: Arc<QueryService>,
    cache: ShardedLru<Arc<Response>>,
    metrics: Metrics,
}

impl ApiHandler {
    /// Builds a handler over `service` with a fresh cache.
    pub fn new(
        service: Arc<QueryService>,
        config: &ServeConfig,
        registry: &Registry,
    ) -> ApiHandler {
        ApiHandler {
            service,
            cache: ShardedLru::new(config.cache_capacity, 8, config.seed),
            metrics: Metrics::new(registry),
        }
    }

    fn dispatch(&self, parsed: Result<Route, ApiError>) -> Response {
        let parsed = match parsed {
            Ok(r) => r,
            Err(e) => return e.to_response(),
        };
        // Injected handler fault: `Error` → 503, `Delay` → a genuinely
        // slow handler, `Panic` → quarantined by the caller like a real bug.
        match webvuln_failpoint::check("serve.handler", parsed.label()) {
            Ok(0) => {}
            Ok(ns) => std::thread::sleep(Duration::from_nanos(ns)),
            Err(_) => {
                return ApiError::Unavailable("injected handler fault".to_string()).to_response()
            }
        }
        // Keyed by the route's canonical path, not the request's spelling
        // of it: `//week/03/landscape/` must not take a second entry.
        let key = parsed.cacheable().then(|| parsed.path());
        if let Some(key) = &key {
            if let Some(cached) = self.cache.get(key) {
                self.metrics.cache_hits.inc();
                return (*cached).clone();
            }
            self.metrics.cache_misses.inc();
        }
        let requests_total = self.metrics.requests.get();
        match self.service.evaluate(&parsed, requests_total) {
            Ok(body) => {
                let response = Response::new(Status::OK, "application/json", body);
                if let Some(key) = key {
                    self.cache.insert(key, Arc::new(response.clone()));
                }
                response
            }
            Err(e) => e.to_response(),
        }
    }
}

impl Handler for ApiHandler {
    fn handle(&self, req: &Request) -> Response {
        self.handle_labelled(req).1
    }

    fn handle_labelled(&self, req: &Request) -> (&'static str, Response) {
        let start = Instant::now();
        self.metrics.requests.inc();
        let parsed = route(req);
        let label = parsed.as_ref().map_or("error", Route::label);
        let latency = self.metrics.latency_for(parsed.as_ref().ok());
        let response = match catch_unwind(AssertUnwindSafe(|| self.dispatch(parsed))) {
            Ok(response) => response,
            Err(_) => {
                // Quarantine: the panic is contained to this request.
                self.metrics.handler_panics.inc();
                ApiError::Unavailable("handler panicked".to_string()).to_response()
            }
        };
        self.metrics.count_response(response.status);
        latency.record_duration(start.elapsed());
        (label, response)
    }

    fn bad_request(&self) -> Response {
        // Bytes that do not parse still count as a request.
        self.metrics.requests.inc();
        let response = ApiError::BadRequest("unparseable request".to_string()).to_response();
        self.metrics.count_response(response.status);
        response
    }

    fn overloaded(&self) -> Response {
        ApiError::Unavailable("connection limit reached".to_string()).to_response()
    }
}

/// A running query API: `webvuln-net`'s [`Server`] over an
/// [`ApiHandler`]. [`shutdown`](ApiServer::shutdown) drains gracefully.
pub struct ApiServer(Server);

impl ApiServer {
    /// Opens `service` behind a fresh [`ApiHandler`] and starts serving it
    /// on `127.0.0.1:{config.port}`.
    pub fn serve(
        service: Arc<QueryService>,
        config: ServeConfig,
        registry: &Registry,
    ) -> Result<ApiServer, NetError> {
        let handler = Arc::new(ApiHandler::new(service, &config, registry));
        Server::start(handler, config, registry).map(ApiServer)
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// Graceful drain: stop accepting, let in-flight exchanges finish,
    /// join the server's threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.0.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::route;

    #[test]
    fn metrics_fall_back_to_error_label() {
        let registry = Registry::new();
        let metrics = Metrics::new(&registry);
        metrics.latency_for(Some(&Route::Healthz)).record(10);
        metrics.latency_for(None).record(20);
        let snap = registry.snapshot();
        assert_eq!(snap.histogram("serve.latency_ns.healthz").unwrap().count, 1);
        assert_eq!(snap.histogram("serve.latency_ns.error").unwrap().count, 1);
    }

    #[test]
    fn response_classes_split_2xx_4xx_5xx() {
        let registry = Registry::new();
        let metrics = Metrics::new(&registry);
        metrics.count_response(Status::OK);
        metrics.count_response(Status::NOT_FOUND);
        metrics.count_response(Status(405));
        metrics.count_response(Status::SERVICE_UNAVAILABLE);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.responses_2xx_total"), Some(1));
        assert_eq!(snap.counter("serve.responses_4xx_total"), Some(2));
        assert_eq!(snap.counter("serve.responses_5xx_total"), Some(1));
    }

    #[test]
    fn route_labels_cover_every_endpoint() {
        let registry = Registry::new();
        let metrics = Metrics::new(&registry);
        let mut slots = std::collections::BTreeSet::new();
        for (target, label) in [
            ("/healthz", "healthz"),
            ("/domain/x/history", "domain_history"),
            ("/library/jquery/prevalence", "library_prevalence"),
            ("/week/0/landscape", "week_landscape"),
            ("/cve/CVE-2020-11022/exposure", "cve_exposure"),
            ("/alerts", "alerts"),
        ] {
            let r = route(&Request::get("t", target)).expect("route");
            assert_eq!(r.label(), label);
            // The route's histogram is the one registered under its label.
            metrics.latency_for(Some(&r)).record(1);
            let name = format!("serve.latency_ns.{label}");
            let recorded = registry.snapshot().histogram(&name).map(|h| h.count);
            assert_eq!(recorded, Some(1), "{name}");
            slots.insert(r.index());
        }
        // One variant per table entry; `error` keeps the slot after them.
        assert_eq!(slots.len(), Route::LABELS.len());
        assert_eq!(metrics.latency.len(), Route::LABELS.len() + 1);
    }
}
