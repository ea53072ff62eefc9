//! Live crawl over real TCP: serve one snapshot week of the synthetic web
//! from a local HTTP server and crawl it through actual sockets — proving
//! the stack speaks real HTTP/1.1, not just the in-memory transport.
//!
//! ```sh
//! cargo run --release --example live_crawl
//! ```

use std::sync::Arc;
use webvuln::cvedb::{Basis, VulnDb};
use webvuln::fingerprint::Engine;
use webvuln::net::{CrawlOptions, ServeConfig, Server, TcpConnector};
use webvuln::telemetry::Registry;
use webvuln::webgen::{Ecosystem, EcosystemConfig, Timeline};

fn main() {
    // A snapshot week in late 2020 (after the jQuery 3.5 patches).
    let week = 140;
    let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
        seed: 7,
        domain_count: 400,
        timeline: Timeline::paper(),
    }));

    // One pool worker per crawl thread, so no fetch waits in the queue.
    let threads = 16;
    let handler = Arc::new(eco.handler(week));
    let mut server = Server::start(handler, ServeConfig::for_crawl(threads), &Registry::new())
        .expect("bind local server");
    println!("serving snapshot week {week} on http://{}", server.addr());

    // The fixed connector plays DNS: every synthetic host resolves to the
    // local server, which routes on the Host header.
    let connector = TcpConnector::fixed(server.addr());
    let names = eco.domain_names();
    let started = std::time::Instant::now();
    let snapshot = CrawlOptions::new().threads(threads).run(&names, &connector);
    let elapsed = started.elapsed();

    let usable = snapshot.values().filter(|r| r.is_usable(400)).count();
    println!(
        "crawled {} domains over TCP in {elapsed:.2?}: {usable} usable pages",
        names.len()
    );

    // Fingerprint and count vulnerable sites in this one snapshot.
    let engine = Engine::new();
    let db = VulnDb::builtin();
    let mut vulnerable = 0usize;
    let mut jquery_versions = std::collections::BTreeMap::<String, usize>::new();
    for record in snapshot.values().filter(|r| r.is_usable(400)) {
        let analysis = engine.analyze(&record.body, &record.domain);
        let vuln = analysis.detections.iter().any(|d| {
            d.version
                .as_ref()
                .is_some_and(|v| db.is_vulnerable(d.library, v, Basis::CveClaimed))
        });
        if vuln {
            vulnerable += 1;
        }
        if let Some(det) = analysis.library(webvuln::cvedb::LibraryId::JQuery) {
            if let Some(v) = &det.version {
                *jquery_versions.entry(v.to_string()).or_default() += 1;
            }
        }
    }
    println!(
        "vulnerable sites this week: {vulnerable} / {usable} ({:.1}%)",
        100.0 * vulnerable as f64 / usable.max(1) as f64
    );
    let mut top: Vec<_> = jquery_versions.into_iter().collect();
    top.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    println!("top jQuery versions in the wild:");
    for (version, count) in top.into_iter().take(5) {
        println!("  v{version:<8} {count} sites");
    }

    server.shutdown();
}
