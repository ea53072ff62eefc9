//! End-to-end tests for `webvuln-serve`: a real `ApiServer` on a
//! loopback socket, queried over TCP, answering from a real snapshot
//! store — and every table endpoint cross-checked against the batch
//! `webvuln-analysis` computation for the same store.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use webvuln::analysis::accum::fold_study;
use webvuln::analysis::Collector;
use webvuln::cvedb::{Basis, LibraryId, VulnDb};
use webvuln::net::codec::{encode_request, MessageReader};
use webvuln::net::{fetch, Request, Status, TcpConnector};
use webvuln::serve::ApiError;
use webvuln::store::{shard_path, split_week, AnyWriter, StoreError, StoreWriter};
use webvuln::telemetry::{JsonWriter, Registry};
use webvuln::version::Version;
use webvuln::webgen::{Ecosystem, EcosystemConfig, Timeline};
use webvuln::AnyReader;
use webvuln::{ApiServer, QueryService, ServeConfig};

const DOMAINS: usize = 40;
const WEEKS: usize = 3;

fn temp_store(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "webvuln-serve-api-{tag}-{}.wvstore",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Builds a small finalized store and opens a query service over it.
fn service(tag: &str) -> (Arc<QueryService>, PathBuf) {
    let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
        seed: 77,
        domain_count: DOMAINS,
        timeline: Timeline::truncated(WEEKS),
    }));
    let path = temp_store(tag);
    Collector::new()
        .threads(2)
        .checkpoint(&path)
        .run(&eco)
        .expect("collect");
    (Arc::new(QueryService::open(&path).expect("open")), path)
}

fn start(tag: &str, threads: usize) -> (ApiServer, Arc<QueryService>, Registry, PathBuf) {
    let (svc, path) = service(tag);
    let registry = Registry::new();
    let config = ServeConfig {
        threads,
        ..ServeConfig::default()
    };
    let server = ApiServer::serve(Arc::clone(&svc), config, &registry).expect("bind");
    (server, svc, registry, path)
}

fn get(server: &ApiServer, target: &str) -> (Status, String) {
    let connector = TcpConnector::fixed(server.addr());
    let resp = fetch(&connector, "serve.test", target).expect("fetch");
    (resp.status, resp.body_text())
}

#[test]
fn table_endpoints_match_batch_analysis() {
    let (server, svc, _registry, path) = start("batch", 2);
    let db = VulnDb::builtin();
    // The independent batch computation: stream the same store through
    // the mergeable accumulators, never materializing a dataset.
    let reader = AnyReader::open(&path).expect("open store");
    let accum = fold_study(&reader, &db, 2).expect("fold store");

    // /library/{lib}/prevalence against the Table 1 row.
    let rows = accum.landscape.table1(&db);
    let jq = rows
        .iter()
        .find(|r| r.library.slug() == "jquery")
        .expect("jquery row");
    let (status, body) = get(&server, "/library/jquery/prevalence");
    assert_eq!(status, Status::OK);
    for fragment in [
        format!("\"average_sites\":{}", jq.average_sites),
        format!("\"usage_share\":{}", jq.usage_share),
        format!("\"versions_found\":{}", jq.versions_found),
        format!("\"vuln_reports\":{}", jq.vuln_reports),
    ] {
        assert!(body.contains(&fragment), "{fragment} not in {body}");
    }

    // /week/{w}/landscape shares against the usage-trend points.
    let trends = accum.landscape.trends();
    let (status, body) = get(&server, "/week/1/landscape");
    assert_eq!(status, Status::OK);
    for trend in &trends {
        let (_, share) = trend.points[1];
        if share > 0.0 {
            let fragment = format!("\"library\":\"{}\",\"users\":", trend.library.slug());
            assert!(body.contains(&fragment), "{fragment} not in {body}");
            assert!(
                body.contains(&format!("\"share\":{share}")),
                "share {share} for {} not in {body}",
                trend.library.slug()
            );
        }
    }

    // /cve/{id}/exposure against the batch CVE-impact figure.
    let impacts = accum.exposure.cve_impacts(&db);
    let impact = impacts
        .iter()
        .find(|impact| impact.id == "CVE-2020-11022")
        .expect("impact");
    let (status, body) = get(&server, "/cve/CVE-2020-11022/exposure");
    assert_eq!(status, Status::OK);
    assert!(
        body.contains(&format!("\"claimed_average\":{}", impact.claimed_average)),
        "{body}"
    );
    assert!(
        body.contains(&format!("\"true_average\":{}", impact.true_average)),
        "{body}"
    );

    // /domain/{d}/history against random-access store reads.
    let domain = svc.reader().genesis().ranks[0].0.clone();
    let (status, body) = get(&server, &format!("/domain/{domain}/history"));
    assert_eq!(status, Status::OK);
    for week in 0..svc.reader().weeks_committed() {
        let record = svc.reader().get(&domain, week).expect("get");
        assert!(
            body.contains(&format!("\"body_len\":{}", record.body_len)),
            "week {week} body_len missing from {body}"
        );
    }
}

#[test]
fn errors_are_structured_json() {
    let (server, _svc, _registry, _path) = start("errors", 1);
    for (target, want) in [
        ("/domain/no-such.example/history", Status::NOT_FOUND),
        ("/library/left-pad/prevalence", Status::NOT_FOUND),
        ("/week/999/landscape", Status::NOT_FOUND),
        ("/week/banana/landscape", Status::BAD_REQUEST),
        ("/cve/CVE-1999-0000/exposure", Status::NOT_FOUND),
        ("/completely/unknown", Status::NOT_FOUND),
    ] {
        let (status, body) = get(&server, target);
        assert_eq!(status, want, "{target} → {body}");
        assert!(body.starts_with("{\"error\":"), "{target} → {body}");
        assert!(body.contains("\"detail\":"), "{target} → {body}");
    }

    // Non-GET methods are refused with 405 and a structured body.
    let mut req = Request::get("serve.test", "/healthz");
    req.method = webvuln::net::Method::Post;
    let mut wire = Vec::new();
    encode_request(&req, &mut wire);
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    conn.write_all(&wire).expect("send");
    let mut reader = MessageReader::new(conn);
    let resp = reader.read_response(false).expect("response");
    assert_eq!(resp.status, Status(405), "{}", resp.body_text());
    assert!(resp.body_text().starts_with("{\"error\":"));
}

#[test]
fn healthz_reports_request_count() {
    let (server, _svc, _registry, _path) = start("healthz", 1);
    let (status, body) = get(&server, "/healthz");
    assert_eq!(status, Status::OK);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(
        body.contains(&format!("\"weeks_committed\":{WEEKS}")),
        "{body}"
    );
    let (_, body) = get(&server, "/healthz");
    assert!(body.contains("\"requests_total\":2"), "{body}");
}

#[test]
fn cache_hits_serve_identical_bodies() {
    let (server, _svc, registry, _path) = start("cache", 2);
    let (_, first) = get(&server, "/week/0/landscape");
    let (_, second) = get(&server, "/week/0/landscape");
    assert_eq!(first, second);
    let snap = registry.snapshot();
    assert!(
        snap.counter("serve.cache_hits_total").unwrap_or(0) >= 1,
        "no cache hit recorded"
    );
}

#[test]
fn every_spelling_of_a_path_shares_one_cache_entry() {
    // The cache is keyed by the parsed route, so a client cannot evict
    // the hot set by respelling one URL.
    let (server, _svc, registry, _path) = start("spellings", 2);
    let bodies: Vec<String> = [
        "/week/2/landscape",
        "/week/2/landscape/",
        "//week/2/landscape",
        "/week/02/landscape",
    ]
    .iter()
    .map(|target| {
        let (status, body) = get(&server, target);
        assert_eq!(status, Status::OK, "{target}");
        body
    })
    .collect();
    assert!(bodies.iter().all(|body| body == &bodies[0]));
    let snap = registry.snapshot();
    assert_eq!(snap.counter("serve.cache_misses_total"), Some(1));
    assert_eq!(snap.counter("serve.cache_hits_total"), Some(3));
}

#[test]
fn concurrent_clients_all_get_answers() {
    let (server, _svc, registry, _path) = start("concurrent", 4);
    let addr = server.addr();
    let mut threads = Vec::new();
    for client in 0..4 {
        threads.push(std::thread::spawn(move || {
            let connector = TcpConnector::fixed(addr);
            for i in 0..5 {
                let target = if (client + i) % 2 == 0 {
                    "/healthz".to_string()
                } else {
                    format!("/week/{}/landscape", i % WEEKS)
                };
                let resp = fetch(&connector, "serve.test", &target).expect("fetch");
                assert_eq!(resp.status, Status::OK, "{target}");
            }
        }));
    }
    for t in threads {
        t.join().expect("client thread");
    }
    let snap = registry.snapshot();
    let total = snap.counter("serve.requests_total").unwrap_or(0);
    let answered = snap.counter("serve.responses_2xx_total").unwrap_or(0)
        + snap.counter("serve.responses_4xx_total").unwrap_or(0)
        + snap.counter("serve.responses_5xx_total").unwrap_or(0);
    assert_eq!(total, 20);
    assert_eq!(answered, total, "every request must be accounted for");
}

#[test]
fn keep_alive_pipelines_requests_on_one_connection() {
    let (server, _svc, _registry, _path) = start("pipeline", 2);
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    let mut wire = Vec::new();
    for _ in 0..3 {
        encode_request(&Request::get("serve.test", "/healthz"), &mut wire);
    }
    conn.write_all(&wire).expect("send");
    let mut reader = MessageReader::new(conn.try_clone().expect("clone"));
    for i in 0..3 {
        let resp = reader.read_response(false).expect("response");
        assert_eq!(resp.status, Status::OK, "response {i}");
        assert!(resp.body_text().contains("\"status\":\"ok\""));
    }
}

#[test]
fn shutdown_drains_and_unbinds() {
    let (mut server, _svc, registry, _path) = start("drain", 2);
    let addr = server.addr();
    let (status, _) = get(&server, "/healthz");
    assert_eq!(status, Status::OK);

    let started = std::time::Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(3),
        "drain took {:?}",
        started.elapsed()
    );
    // The port no longer accepts new connections.
    let refused = TcpStream::connect_timeout(&addr, std::time::Duration::from_millis(500));
    assert!(refused.is_err(), "socket still accepting after shutdown");
    // Everything that was accepted was answered.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("serve.requests_total"), Some(1));
    assert_eq!(snap.counter("serve.responses_2xx_total"), Some(1));
}

/// `/domain/{d}/history` as it was composed before it was one read: a
/// scan of the rank list and the §4.1 list, then one owned
/// `AnyReader::get` per week, with the claimed reports counted from a
/// parsed `Version`. The served body must equal it byte for byte.
fn history_oracle(reader: &AnyReader, db: &VulnDb, domain: &str) -> Result<String, ApiError> {
    if let (shard, Some(detail)) = reader.shard_for(domain) {
        return Err(ApiError::Unavailable(format!(
            "shard {shard} unavailable: {detail}"
        )));
    }
    let genesis = reader.genesis();
    let rank = genesis
        .ranks
        .iter()
        .find(|(d, _)| d == domain)
        .map(|&(_, r)| r)
        .ok_or_else(|| ApiError::NotFound(format!("unknown domain '{domain}'")))?;
    let filtered_out = reader
        .filtered_out()
        .is_some_and(|f| f.iter().any(|d| d == domain));
    let mut j = JsonWriter::new();
    j.begin_obj().str("domain", domain).u64("rank", rank);
    j.bool("filtered_out", filtered_out);
    j.arr("weeks");
    for week in 0..reader.weeks_committed() {
        let record = match reader.get(domain, week) {
            Ok(r) => r,
            Err(StoreError::UnknownDomain(_)) => continue,
            Err(e) => return Err(ApiError::Unavailable(format!("store read failed: {e}"))),
        };
        j.begin_obj().u64("week", week as u64);
        j.i64("date_days", reader.week_date_days(week).expect("week date"));
        j.opt_i64("status", record.status.map(i64::from));
        j.u64("body_len", record.body_len);
        j.bool("page", record.page.is_some());
        j.arr("detections");
        for det in record.page.iter().flat_map(|page| &page.detections) {
            let vulns_claimed = LibraryId::from_slug(&det.library)
                .zip(det.version.as_ref().and_then(|v| Version::parse(v).ok()))
                .map_or(0, |(lib, ver)| db.vuln_count(lib, &ver, Basis::CveClaimed));
            j.begin_obj().str("library", &det.library);
            j.opt_str("version", det.version.as_deref());
            j.opt_str("external_host", det.external_host.as_deref());
            j.bool("integrity", det.integrity);
            j.u64("vulns_claimed", vulns_claimed as u64).end_obj();
        }
        j.end_arr().end_obj();
    }
    j.end_arr().end_obj();
    Ok(j.finish())
}

/// The weeks a history body lists, in order.
fn weeks_listed(body: &str) -> Vec<usize> {
    body.split("{\"week\":")
        .skip(1)
        .map(|rest| {
            rest[..rest.find(',').expect("week member")]
                .parse()
                .expect("week")
        })
        .collect()
}

/// Every domain's history, in a single file, in four shards with one
/// deleted and in four shards with one a week ahead of its manifest,
/// equals the per-week composition byte for byte; no unpublished week is
/// served and a dead shard's domains answer 503.
#[test]
fn history_is_one_read_that_equals_per_week_point_reads() {
    const DOMAINS: usize = 200;
    const WEEKS: usize = 12;
    const AHEAD: usize = 2;
    let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
        seed: 41,
        domain_count: DOMAINS,
        timeline: Timeline::truncated(WEEKS),
    }));
    let root = std::env::temp_dir().join(format!("webvuln-serve-history-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("mkdir");
    let (single, dead, ahead) = (
        root.join("single.wvstore"),
        root.join("dead"),
        root.join("ahead"),
    );
    let collect = |path: &PathBuf, shards: usize| {
        let run = Collector::new().threads(2).shards(shards);
        run.checkpoint(path).run(&eco).expect("collect");
    };
    collect(&single, 1);
    collect(&dead, 4);
    std::fs::remove_file(shard_path(&dead, 1)).expect("delete shard 1");
    // Four shards whose manifest published 11 weeks, and shard AHEAD
    // holding week 11 too: a writer that crashed before its rename.
    let source = AnyReader::open(&single).expect("open single");
    let mut writer = AnyWriter::create(&ahead, source.genesis().clone(), 4).expect("create");
    for week in 0..WEEKS - 1 {
        writer
            .commit_week(&source.week(week).expect("week"))
            .expect("commit");
    }
    drop(writer);
    let last = split_week(&source.week(WEEKS - 1).expect("last week"), 4);
    let mut shard = StoreWriter::resume(&shard_path(&ahead, AHEAD)).expect("resume shard");
    shard.commit_week(&last[AHEAD]).expect("unpublished commit");
    drop(shard);

    let db = VulnDb::builtin();
    let mut domains: Vec<&str> = source
        .genesis()
        .ranks
        .iter()
        .map(|(d, _)| d.as_str())
        .collect();
    // Unknown, and a string the store holds that names no domain: 404s.
    domains.extend(["no-such.example", "jquery"]);
    for (form, path) in [
        ("single file", &single),
        ("dead shard", &dead),
        ("shard ahead", &ahead),
    ] {
        let svc = QueryService::open(path).expect("open service");
        let reader = svc.reader();
        let (mut served, mut refused, mut filtered, mut unpublished) = (0, 0, 0, 0);
        for domain in &domains {
            let body = svc.domain_history(domain);
            assert_eq!(
                body,
                history_oracle(reader, &db, domain),
                "{form}: {domain}"
            );
            match body {
                Ok(body) => {
                    served += 1;
                    filtered += usize::from(body.contains("\"filtered_out\":true"));
                    let weeks = weeks_listed(&body);
                    assert!(
                        weeks.iter().all(|&w| w < reader.weeks_committed()),
                        "{form}: {body}"
                    );
                    let owner = reader.shard_for(domain).0;
                    let held = reader.shard_reader(owner).expect("healthy owner");
                    unpublished += usize::from(
                        held.get(domain, WEEKS - 1).is_ok() && reader.weeks_committed() < WEEKS,
                    );
                }
                Err(ApiError::Unavailable(detail)) => {
                    assert!(
                        detail.starts_with("shard 1 unavailable"),
                        "{form}: {detail}"
                    );
                    refused += 1;
                }
                Err(_) => {}
            }
        }
        match form {
            "single file" => assert!(served == DOMAINS && filtered > 0, "{served} {filtered}"),
            "dead shard" => assert!(served > 0 && refused > 0 && served + refused == DOMAINS),
            _ => assert!(
                served == DOMAINS && unpublished > 0,
                "{served} {unpublished}"
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
