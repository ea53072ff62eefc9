//! Chaos tests for the query API server: every `serve.*` fail-point is
//! armed against a live server and the listener must survive — a fault
//! costs at most the one request or connection it hits, never the
//! process, and the `serve.*` counters account for every request.
//!
//! The serving layer keeps its own fail-point catalog
//! ([`webvuln::serve::FAILPOINTS`]) because its sites fire in a live
//! server rather than under `Pipeline::run`; this harness enumerates
//! that catalog and fails loudly when a site gains no scenario here.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use webvuln::analysis::Collector;
use webvuln::failpoint::{arm, arm_key, arm_nth, reset, Action};
use webvuln::net::{fetch, Status, TcpConnector};
use webvuln::telemetry::Registry;
use webvuln::webgen::{Ecosystem, EcosystemConfig, Timeline};
use webvuln::{ApiServer, QueryService, ServeConfig};

/// Serializes every test in this binary: the fail-point registry is
/// process-global and a site holds one arm at a time.
static FP_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FP_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn temp_store(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "webvuln-serve-chaos-{tag}-{}.wvstore",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn start(tag: &str, config: ServeConfig) -> (ApiServer, Registry) {
    let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
        seed: 77,
        domain_count: 40,
        timeline: Timeline::truncated(3),
    }));
    let path = temp_store(tag);
    Collector::new()
        .threads(2)
        .checkpoint(&path)
        .run(&eco)
        .expect("collect");
    let svc = Arc::new(QueryService::open(&path).expect("open"));
    let registry = Registry::new();
    let server = ApiServer::serve(svc, config, &registry).expect("bind");
    (server, registry)
}

fn get(server: &ApiServer, target: &str) -> Result<(Status, String), webvuln::net::NetError> {
    let connector = TcpConnector::fixed(server.addr());
    fetch(&connector, "chaos.test", target).map(|r| (r.status, r.body_text()))
}

/// Every catalogued site must have a scenario in this file. A new
/// `serve.*` fail-point fails here until it gains chaos coverage.
#[test]
fn every_serve_failpoint_has_a_scenario() {
    let covered = ["serve.accept", "serve.handler", "serve.mid_response"];
    for site in webvuln::serve::FAILPOINTS {
        assert!(
            covered.contains(site),
            "fail-point {site:?} has no chaos scenario in tests/chaos_serve.rs"
        );
    }
    assert_eq!(webvuln::serve::FAILPOINTS.len(), covered.len());
}

#[test]
fn handler_panic_is_quarantined_to_one_request() {
    let _g = lock();
    reset();
    let (server, registry) = start("panic", ServeConfig::default());

    arm_key("serve.handler", "library_prevalence", Action::Panic);
    let (status, body) = get(&server, "/library/jquery/prevalence").expect("fetch");
    assert_eq!(status, Status::SERVICE_UNAVAILABLE, "{body}");
    assert!(body.contains("handler panicked"), "{body}");

    // The listener and the worker pool survived: the same route answers
    // normally once the fault is gone, on a brand-new connection.
    reset();
    let (status, body) = get(&server, "/library/jquery/prevalence").expect("fetch");
    assert_eq!(status, Status::OK, "{body}");

    let snap = registry.snapshot();
    assert_eq!(snap.counter("serve.handler_panics_total"), Some(1));
    // Both requests — the panicked one included — are accounted for.
    assert_eq!(snap.counter("serve.requests_total"), Some(2));
    let answered = snap.counter("serve.responses_2xx_total").unwrap_or(0)
        + snap.counter("serve.responses_4xx_total").unwrap_or(0)
        + snap.counter("serve.responses_5xx_total").unwrap_or(0);
    assert_eq!(answered, 2);
}

#[test]
fn handler_error_injection_maps_to_503() {
    let _g = lock();
    reset();
    let (server, registry) = start("inject", ServeConfig::default());

    arm_key("serve.handler", "healthz", Action::Error);
    let (status, body) = get(&server, "/healthz").expect("fetch");
    assert_eq!(status, Status::SERVICE_UNAVAILABLE, "{body}");
    assert!(body.starts_with("{\"error\":"), "{body}");

    reset();
    let (status, _) = get(&server, "/healthz").expect("fetch");
    assert_eq!(status, Status::OK);
    assert_eq!(
        registry.snapshot().counter("serve.responses_5xx_total"),
        Some(1)
    );
}

#[test]
fn handler_delay_slows_but_answers() {
    let _g = lock();
    reset();
    let (server, _registry) = start("delay", ServeConfig::default());

    arm_key("serve.handler", "healthz", Action::Delay(50_000_000));
    let started = std::time::Instant::now();
    let (status, _) = get(&server, "/healthz").expect("fetch");
    assert_eq!(status, Status::OK);
    assert!(
        started.elapsed() >= Duration::from_millis(40),
        "injected delay was not slept: {:?}",
        started.elapsed()
    );
    reset();
}

#[test]
fn accept_fault_drops_one_connection_not_the_listener() {
    let _g = lock();
    reset();
    let (server, registry) = start("accept", ServeConfig::default());

    // The first connection is killed before it reaches the pool; the
    // client sees a peer close with no response.
    arm_nth("serve.accept", 1, Action::Panic);
    let first = get(&server, "/healthz");
    assert!(first.is_err(), "dropped connection produced {first:?}");

    // The very next connection is served normally.
    let (status, _) = get(&server, "/healthz").expect("fetch");
    assert_eq!(status, Status::OK);
    reset();

    let snap = registry.snapshot();
    assert_eq!(snap.counter("serve.accept_faults_total"), Some(1));
    assert_eq!(snap.counter("serve.connections_total"), Some(2));
    // The dropped connection never became a request.
    assert_eq!(snap.counter("serve.requests_total"), Some(1));
}

#[test]
fn consecutive_accept_errors_do_not_end_the_accept_loop() {
    let _g = lock();
    reset();
    let (server, registry) = start("accept-errors", ServeConfig::default());

    // The fail-point's `Error` action takes the branch a failed `accept`
    // (ECONNABORTED, EMFILE) takes: that connection is lost.
    const FAULTS: u64 = 5;
    arm("serve.accept", Action::Error);
    for _ in 0..FAULTS {
        let dropped = get(&server, "/healthz");
        assert!(dropped.is_err(), "failed accept produced {dropped:?}");
    }
    reset();

    // The listener is still there once accepts succeed again.
    let (status, _) = get(&server, "/healthz").expect("fetch after accept errors");
    assert_eq!(status, Status::OK);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("serve.accept_faults_total"), Some(FAULTS));
    assert_eq!(snap.counter("serve.requests_total"), Some(1));
}

#[test]
fn mid_response_kill_tears_the_body_but_not_the_server() {
    let _g = lock();
    reset();
    let (server, registry) = start("midkill", ServeConfig::default());

    arm_key("serve.mid_response", "week_landscape", Action::Error);
    // The response is cut after half its bytes: the fetch either fails
    // to parse or returns a truncated body — never a clean success.
    let torn = get(&server, "/week/1/landscape");
    match torn {
        Err(_) => {}
        Ok((_, body)) => assert!(
            !body.ends_with('}'),
            "kill site did not tear the body: {body}"
        ),
    }
    reset();

    // The server survives and the same route answers completely.
    let (status, body) = get(&server, "/week/1/landscape").expect("fetch");
    assert_eq!(status, Status::OK);
    assert!(body.ends_with('}'), "{body}");

    let snap = registry.snapshot();
    assert_eq!(snap.counter("serve.killed_mid_response_total"), Some(1));
    // Both requests were handled and classified before the wire kill.
    assert_eq!(snap.counter("serve.requests_total"), Some(2));
    assert_eq!(snap.counter("serve.responses_2xx_total"), Some(2));
}

#[test]
fn slow_client_times_out_without_blocking_the_pool() {
    let _g = lock();
    reset();
    let config = ServeConfig {
        threads: 1, // a single worker: a stuck slow client would block everyone
        idle_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let (server, registry) = start("slow", config);

    // A client that sends half a request line and stalls.
    let mut slow = TcpStream::connect(server.addr()).expect("connect");
    slow.write_all(b"GET /healthz HT").expect("partial write");

    // Wait out the idle timeout, then prove the single worker is free
    // again by completing a normal request.
    std::thread::sleep(Duration::from_millis(600));
    let (status, _) = get(&server, "/healthz").expect("fetch after slow client");
    assert_eq!(status, Status::OK);

    // The stalled connection was closed by the server (EOF / reset).
    slow.set_read_timeout(Some(Duration::from_secs(2))).ok();
    let mut rest = Vec::new();
    let _ = slow.read_to_end(&mut rest);

    let snap = registry.snapshot();
    assert_eq!(snap.counter("serve.connections_total"), Some(2));
    assert_eq!(snap.counter("serve.requests_total"), Some(1));
}

#[test]
fn connection_limit_rejects_with_503() {
    let _g = lock();
    reset();
    let config = ServeConfig {
        threads: 1,
        max_connections: 1,
        idle_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    };
    let (server, registry) = start("limit", config);

    // Park one connection to fill the admission limit.
    let parked = TcpStream::connect(server.addr()).expect("connect");
    std::thread::sleep(Duration::from_millis(100));

    // The next connection is answered with a structured 503.
    let over = get(&server, "/healthz");
    // Depending on timing the rejection can race the read; a closed
    // connection (`Err`) is also an acceptable refusal.
    if let Ok((status, body)) = over {
        assert_eq!(status, Status::SERVICE_UNAVAILABLE, "{body}");
        assert!(body.contains("connection limit"), "{body}");
    }
    drop(parked);

    assert!(
        registry
            .snapshot()
            .counter("serve.rejected_connections_total")
            .unwrap_or(0)
            >= 1
    );
}
