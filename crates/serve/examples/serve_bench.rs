//! Measures query-server throughput and tail latency against a loaded
//! multi-week store, at 1, 2 and 8 pool threads.
//!
//! Two workloads, mirroring `BENCH_exec.json`'s use of simulated cost on
//! a small CI host:
//!
//! * **scaling** — every request pays a 2 ms injected backend delay
//!   (`serve.handler` armed with `Action::Delay`, which the server
//!   sleeps). Throughput is then bounded by `threads / 2ms`, so the
//!   1→2→8 points isolate how well the pool overlaps request handling.
//! * **cache_hot** — no injected delay; every request after warmup is a
//!   response-cache hit. Reports the raw hit path's RPS and p50/p99.
//!
//! Run: `cargo run --example serve_bench`.
//! Output is the `BENCH_serve.json` document on stdout.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use webvuln_analysis::Collector;
use webvuln_failpoint::{arm, reset, Action};
use webvuln_net::codec::{encode_request, MessageReader};
use webvuln_net::Request;
use webvuln_serve::{ApiServer, QueryService, ServeConfig};
use webvuln_telemetry::Registry;
use webvuln_webgen::{Ecosystem, EcosystemConfig, Timeline};

const DOMAINS: usize = 80;
const WEEKS: usize = 6;
const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 150;
const WARMUP_PER_CLIENT: usize = 10;
const BACKEND_DELAY_NS: u64 = 2_000_000;

/// The cacheable targets the clients rotate over.
fn targets() -> Vec<String> {
    let mut t = vec!["/library/jquery/prevalence".to_string()];
    for w in 0..WEEKS {
        t.push(format!("/week/{w}/landscape"));
    }
    t.push("/cve/CVE-2020-11022/exposure".to_string());
    t
}

struct Run {
    rps: f64,
    p50_us: f64,
    p99_us: f64,
    cache_hit_rate: f64,
}

/// One keep-alive client: `n` sequential requests over one connection,
/// returning per-request latencies in nanoseconds.
fn client(addr: std::net::SocketAddr, targets: &[String], offset: usize, n: usize) -> Vec<u64> {
    let conn = TcpStream::connect(addr).expect("connect");
    let mut write = conn.try_clone().expect("clone");
    let mut reader = MessageReader::new(conn);
    let mut latencies = Vec::with_capacity(n);
    let mut wire = Vec::new();
    for i in 0..n {
        let target = &targets[(offset + i) % targets.len()];
        wire.clear();
        encode_request(&Request::get("bench", target), &mut wire);
        let started = Instant::now();
        write.write_all(&wire).expect("send");
        let resp = reader.read_response(false).expect("response");
        latencies.push(started.elapsed().as_nanos() as u64);
        assert_eq!(resp.status.0, 200, "{target}");
    }
    latencies
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx] as f64 / 1_000.0
}

/// Starts a server at `threads`, drives it with `CLIENTS` keep-alive
/// clients, and reports throughput over the timed (post-warmup) window.
fn run(service: &Arc<QueryService>, threads: usize, delayed: bool) -> Run {
    reset();
    if delayed {
        arm("serve.handler", Action::Delay(BACKEND_DELAY_NS));
    }
    let registry = Registry::new();
    let config = ServeConfig {
        threads,
        max_connections: CLIENTS * 2,
        cache_capacity: 64,
        idle_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    let mut server = ApiServer::serve(Arc::clone(service), config, &registry).expect("bind");
    let addr = server.addr();
    let targets = Arc::new(targets());

    // Warmup: populate the response cache and settle the pool.
    let warm: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let targets = Arc::clone(&targets);
            std::thread::spawn(move || client(addr, &targets, c, WARMUP_PER_CLIENT))
        })
        .collect();
    for t in warm {
        t.join().expect("warmup client");
    }
    let hits_before = registry
        .snapshot()
        .counter("serve.cache_hits_total")
        .unwrap_or(0);
    let reqs_before = registry
        .snapshot()
        .counter("serve.requests_total")
        .unwrap_or(0);

    let started = Instant::now();
    let timed: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let targets = Arc::clone(&targets);
            std::thread::spawn(move || client(addr, &targets, c * 3, REQUESTS_PER_CLIENT))
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::new();
    for t in timed {
        latencies.extend(t.join().expect("timed client"));
    }
    let elapsed = started.elapsed().as_secs_f64();
    let snap = registry.snapshot();
    let hits = snap.counter("serve.cache_hits_total").unwrap_or(0) - hits_before;
    let reqs = snap.counter("serve.requests_total").unwrap_or(0) - reqs_before;
    server.shutdown();
    reset();

    latencies.sort_unstable();
    Run {
        rps: latencies.len() as f64 / elapsed,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        cache_hit_rate: hits as f64 / reqs.max(1) as f64,
    }
}

fn main() {
    let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
        seed: 99,
        domain_count: DOMAINS,
        timeline: Timeline::truncated(WEEKS),
    }));
    let path = std::env::temp_dir().join(format!(
        "webvuln-serve-bench-{}.wvstore",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    eprintln!("building {DOMAINS}-domain x {WEEKS}-week store...");
    Collector::new()
        .threads(2)
        .checkpoint(&path)
        .run(&eco)
        .expect("collect");
    let service = Arc::new(QueryService::open(&path).expect("open"));

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"serve_scaling\",\n");
    out.push_str(&format!(
        "  \"workload\": \"{DOMAINS}-domain x {WEEKS}-week store, {CLIENTS} keep-alive clients x {REQUESTS_PER_CLIENT} requests, 2ms simulated backend delay per request\",\n"
    ));
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str("  \"points\": [\n");
    let base = run(&service, 1, true);
    let mut first = true;
    for (threads, r) in [
        (1, base.rps),
        (2, run(&service, 2, true).rps),
        (8, run(&service, 8, true).rps),
    ] {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "    {{ \"threads\": {threads}, \"rps\": {:.1}, \"speedup\": {:.2} }}",
            r,
            r / base.rps
        ));
    }
    out.push_str("\n  ],\n");
    let hot = run(&service, 8, false);
    out.push_str(&format!(
        "  \"cache_hot\": {{ \"threads\": 8, \"rps\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"cache_hit_rate\": {:.3} }}\n",
        hot.rps, hot.p50_us, hot.p99_us, hot.cache_hit_rate
    ));
    out.push_str("}\n");
    print!("{out}");
    let _ = std::fs::remove_file(&path);
}
