//! Ground-truth round trip: every page the synthetic web renders must be
//! fingerprinted back to exactly the deployments the generator planted
//! (modulo deliberately hidden versions). This is the contract that makes
//! measured table/figure reproductions meaningful.

use webvuln_fingerprint::{DetectedInclusion, Engine, ResourceType};
use webvuln_webgen::{Ecosystem, EcosystemConfig, Inclusion, PageOutcome, Timeline};

fn ecosystem(domains: usize, weeks: usize) -> Ecosystem {
    Ecosystem::generate(EcosystemConfig {
        seed: 20_240_601,
        domain_count: domains,
        timeline: Timeline::truncated(weeks),
    })
}

#[test]
fn every_planted_deployment_is_recovered() {
    let eco = ecosystem(400, 4);
    let engine = Engine::new();
    let mut pages = 0;
    let mut checked = 0;
    for model in eco.models() {
        for week in [0usize, 3] {
            let PageOutcome::Page(html) = eco.page(&model.name, week) else {
                continue;
            };
            pages += 1;
            let truth = model.state_at(week);
            let analysis = engine.analyze(&html, &model.name);
            for deployed in &truth.deployments {
                let dep = deployed.deployment;
                let det = analysis
                    .library(dep.library)
                    .unwrap_or_else(|| panic!("{}: {} missing", model.name, dep.library));
                checked += 1;
                if dep.version_visible {
                    let got = det.version.as_ref().unwrap_or_else(|| {
                        panic!("{}: {} version missing", model.name, dep.library)
                    });
                    assert_eq!(
                        got, deployed.version,
                        "{}: {} version mismatch",
                        model.name, dep.library
                    );
                } else {
                    assert_eq!(
                        det.version, None,
                        "{}: {} version should be hidden",
                        model.name, dep.library
                    );
                }
                // Inclusion type must round-trip.
                match (&dep.inclusion, &det.inclusion) {
                    (Inclusion::Internal, DetectedInclusion::Internal) => {}
                    (Inclusion::External { host, .. }, DetectedInclusion::External { host: h }) => {
                        // Hidden-version externals fall back to the site's
                        // static subdomain; host equality only holds for
                        // visible ones.
                        if dep.version_visible {
                            assert_eq!(host, h, "{}: {}", model.name, dep.library);
                        }
                    }
                    (a, b) => panic!("{}: {} inclusion {a:?} vs {b:?}", model.name, dep.library),
                }
                assert_eq!(det.integrity, dep.integrity, "{}", model.name);
            }
            // No phantom detections: everything found was planted.
            for det in &analysis.detections {
                assert!(
                    truth
                        .deployments
                        .iter()
                        .any(|d| d.deployment.library == det.library),
                    "{}: phantom {}",
                    model.name,
                    det.library
                );
            }
        }
    }
    assert!(pages > 300, "enough pages exercised: {pages}");
    assert!(checked > 400, "enough deployments checked: {checked}");
}

#[test]
fn wordpress_and_flash_round_trip() {
    let eco = ecosystem(2_000, 2);
    let engine = Engine::new();
    let mut wp_seen = 0;
    let mut flash_seen = 0;
    for model in eco.models() {
        let PageOutcome::Page(html) = eco.page(&model.name, 1) else {
            continue;
        };
        let truth = model.state_at(1);
        let analysis = engine.analyze(&html, &model.name);
        match (truth.wordpress, &analysis.wordpress) {
            (Some(v), Some(Some(got))) => {
                assert_eq!(got, v, "{}", model.name);
                wp_seen += 1;
            }
            (Some(_), other) => panic!("{}: WordPress missed ({other:?})", model.name),
            (None, Some(Some(_))) => panic!("{}: phantom WordPress", model.name),
            _ => {}
        }
        match (&truth.flash, analysis.flash.first()) {
            (Some(f), Some(det)) => {
                assert_eq!(det.swf_url, f.swf_url);
                assert_eq!(det.allow_script_access, f.allow_script_access);
                flash_seen += 1;
            }
            (Some(_), None) => panic!("{}: flash missed", model.name),
            (None, Some(_)) => panic!("{}: phantom flash", model.name),
            _ => {}
        }
    }
    assert!(wp_seen > 200, "WordPress sites observed: {wp_seen}");
    assert!(flash_seen > 3, "flash sites observed: {flash_seen}");
}

#[test]
fn resource_flags_round_trip() {
    let eco = ecosystem(500, 1);
    let engine = Engine::new();
    for model in eco.models() {
        let PageOutcome::Page(html) = eco.page(&model.name, 0) else {
            continue;
        };
        let truth = model.state_at(0);
        let analysis = engine.analyze(&html, &model.name);
        let has = |t: ResourceType| analysis.resource_types.contains(&t);
        assert_eq!(
            has(ResourceType::Css),
            truth.resources.css,
            "{}",
            model.name
        );
        assert_eq!(
            has(ResourceType::Favicon),
            truth.resources.favicon,
            "{}",
            model.name
        );
        assert_eq!(
            has(ResourceType::ImportedHtml),
            truth.resources.imported_html,
            "{}",
            model.name
        );
        assert_eq!(
            has(ResourceType::Svg),
            truth.resources.svg,
            "{}",
            model.name
        );
        assert_eq!(
            has(ResourceType::Axd),
            truth.resources.axd,
            "{}",
            model.name
        );
        assert_eq!(
            has(ResourceType::Flash),
            truth.flash.is_some(),
            "{}",
            model.name
        );
        // JavaScript: scripts are always present in practice (inline
        // bootstrap script renders when the JS flag is set; libraries and
        // AXD also imply scripts).
        if truth.resources.javascript || !truth.deployments.is_empty() {
            assert!(has(ResourceType::JavaScript), "{}", model.name);
        }
    }
}

#[test]
fn github_scripts_round_trip() {
    let eco = ecosystem(30_000, 1);
    let engine = Engine::new();
    let mut gh = 0;
    for model in eco.models() {
        let PageOutcome::Page(html) = eco.page(&model.name, 0) else {
            continue;
        };
        let truth = model.state_at(0);
        let analysis = engine.analyze(&html, &model.name);
        match (&truth.github_script, analysis.github_scripts.first()) {
            (Some(t), Some(d)) => {
                assert!(d.url.contains(&t.url_path), "{}", model.name);
                assert_eq!(d.integrity, t.integrity);
                gh += 1;
            }
            (Some(_), None) => panic!("{}: github script missed", model.name),
            _ => {}
        }
    }
    assert!(gh > 10, "github-hosted sites observed: {gh}");
}
