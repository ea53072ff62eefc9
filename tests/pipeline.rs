//! Cross-crate integration: the full §4 pipeline over both transports.
//!
//! The same snapshot week crawled through the in-process virtual internet
//! and through real TCP sockets must yield byte-identical pages and
//! identical fingerprints — the property that makes the fast simulation
//! path a valid stand-in for the socket path.

use std::collections::BTreeSet;
use std::sync::Arc;
use webvuln::analysis::apply_filter;
use webvuln::analysis::dataset::{CollectConfig, Collector, WeekSnapshot};
use webvuln::analysis::store_io::{week_into_snapshot, CheckpointOutcome};
use webvuln::fingerprint::Engine;
use webvuln::net::{CrawlOptions, FaultPlan, ServeConfig, Server, TcpConnector, VirtualNet};
use webvuln::telemetry::Registry;
use webvuln::webgen::{Ecosystem, EcosystemConfig, PageOutcome, Timeline};

fn collect(eco: &Arc<Ecosystem>, config: CollectConfig) -> CheckpointOutcome {
    Collector::from_config(config).run(eco).expect("collection")
}

/// The weeks a collection committed, minus its §4.1 verdict.
fn kept_weeks(outcome: &CheckpointOutcome) -> Vec<WeekSnapshot> {
    let filtered: BTreeSet<String> = outcome.dataset.filtered_out.iter().cloned().collect();
    let kept = |week| {
        let mut snapshot = week_into_snapshot(week).expect("stored week converts");
        apply_filter(&mut snapshot, &filtered);
        snapshot
    };
    let weeks = outcome.reader.stream();
    weeks
        .map(|week| kept(week.expect("stored week decodes")))
        .collect()
}

fn average_collected(weeks: &[WeekSnapshot]) -> f64 {
    let total: usize = weeks.iter().map(WeekSnapshot::collected).sum();
    total as f64 / weeks.len().max(1) as f64
}

fn ecosystem(domains: usize, weeks: usize) -> Arc<Ecosystem> {
    Arc::new(Ecosystem::generate(EcosystemConfig {
        seed: 31_337,
        domain_count: domains,
        timeline: Timeline::truncated(weeks),
    }))
}

#[test]
fn tcp_and_virtual_transports_agree() {
    let eco = ecosystem(120, 2);
    let week = 1;
    let names = eco.domain_names();

    let virtual_net = VirtualNet::new(Arc::new(eco.handler(week)));
    let via_memory = CrawlOptions::new().threads(4).run(&names, &virtual_net);

    // The server is sized from the crawl's width, so no crawl — narrower
    // than, as wide as, or wider than the default pool — is ever refused.
    for threads in [1, 8, 16] {
        let registry = Registry::new();
        let handler = Arc::new(eco.handler(week));
        let mut server =
            Server::start(handler, ServeConfig::for_crawl(threads), &registry).expect("bind");
        let connector = TcpConnector::fixed(server.addr());
        let via_tcp = CrawlOptions::new().threads(threads).run(&names, &connector);
        server.shutdown();

        assert_eq!(via_memory.len(), via_tcp.len());
        for (domain, mem_record) in &via_memory {
            let tcp_record = &via_tcp[domain];
            assert_eq!(
                mem_record.status, tcp_record.status,
                "{domain} at {threads}"
            );
            assert_eq!(mem_record.body, tcp_record.body, "{domain} at {threads}");
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.rejected_connections_total"), Some(0));
        assert_eq!(snap.counter("serve.accept_faults_total"), Some(0));
    }
}

#[test]
fn fingerprints_survive_the_wire() {
    // Ground truth -> render -> HTTP (chunked sometimes) -> parse ->
    // fingerprint must agree with fingerprinting the rendered page
    // directly.
    let eco = ecosystem(200, 1);
    let names = eco.domain_names();
    let net = VirtualNet::new(Arc::new(eco.handler(0))).with_faults(FaultPlan {
        seed: 1,
        connect_fail_permille: 0,
        truncate_permille: 0,
        chunked_permille: 1000, // force the chunked encoder everywhere
        ..FaultPlan::none()
    });
    let snapshot = CrawlOptions::new().threads(4).run(&names, &net);
    let engine = Engine::new();
    let mut compared = 0;
    for (domain, record) in &snapshot {
        let PageOutcome::Page(direct_html) = eco.page(domain, 0) else {
            continue;
        };
        assert_eq!(record.body, direct_html, "{domain}: chunked round trip");
        let direct = engine.analyze(&direct_html, domain);
        let wired = engine.analyze(&record.body, domain);
        assert_eq!(direct, wired, "{domain}");
        compared += 1;
    }
    assert!(compared > 100, "enough pages compared: {compared}");
}

#[test]
fn faults_shrink_but_do_not_corrupt_the_dataset() {
    let eco = ecosystem(300, 6);
    let clean = kept_weeks(&collect(&eco, CollectConfig::default()));
    let faulty = kept_weeks(&collect(
        &eco,
        CollectConfig {
            concurrency: 4,
            faults: FaultPlan {
                seed: 5,
                connect_fail_permille: 100, // 10% of hosts refuse
                truncate_permille: 0,
                chunked_permille: 200,
                ..FaultPlan::none()
            },
            ..CollectConfig::default()
        },
    ));
    assert!(average_collected(&faulty) < average_collected(&clean));
    // Pages that did arrive are identical to the clean crawl's.
    for (week_clean, week_faulty) in clean.iter().zip(&faulty) {
        for (domain, page) in &week_faulty.pages {
            let clean_page = week_clean
                .pages
                .get(domain)
                .unwrap_or_else(|| panic!("{domain} present in clean crawl"));
            assert_eq!(page, clean_page, "{domain}");
        }
    }
}

#[test]
fn dataset_scales_linearly_in_shape() {
    // Shares must be scale-invariant: doubling the population leaves the
    // landscape percentages roughly unchanged.
    use webvuln::analysis::accum::{fold_store, AccumCtx, LandscapeAccum};
    use webvuln::cvedb::{LibraryId, VulnDb};
    let db = VulnDb::builtin();
    let small = collect(&ecosystem(400, 3), CollectConfig::default());
    let large = collect(
        &Arc::new(Ecosystem::generate(EcosystemConfig {
            seed: 31_337,
            domain_count: 1_200,
            timeline: Timeline::truncated(3),
        })),
        CollectConfig::default(),
    );
    let share = |outcome: &CheckpointOutcome, lib| {
        let dataset = &outcome.dataset;
        let ctx = AccumCtx {
            db: &db,
            ranks: &dataset.ranks,
        };
        let filtered = dataset.filtered_out.iter().cloned().collect();
        fold_store::<LandscapeAccum>(&outcome.reader, &ctx, 2, &filtered)
            .expect("fold")
            .table1(&db)
            .into_iter()
            .find(|r| r.library == lib)
            .expect("present")
            .usage_share
    };
    for lib in [
        LibraryId::JQuery,
        LibraryId::Bootstrap,
        LibraryId::JQueryMigrate,
    ] {
        let s = share(&small, lib);
        let l = share(&large, lib);
        assert!(
            (s - l).abs() < 0.08,
            "{lib}: {s:.3} (400 domains) vs {l:.3} (1200 domains)"
        );
    }
}
