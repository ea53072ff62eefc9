//! The reproduction contract: one medium study run must reproduce the
//! paper's qualitative findings end-to-end. Each assertion is tagged with
//! the paper section it checks.

use std::sync::OnceLock;
use webvuln::analysis::CollectConfig;
use webvuln::core::{Pipeline, StudyConfig, StudyResults};
use webvuln::cvedb::{Accuracy, Date, LibraryId};
use webvuln::net::FaultPlan;
use webvuln::webgen::Timeline;

fn study() -> &'static StudyResults {
    static RESULTS: OnceLock<StudyResults> = OnceLock::new();
    RESULTS.get_or_init(|| {
        Pipeline::new(StudyConfig {
            seed: 7_777,
            domain_count: 900,
            timeline: Timeline::paper(),
            collect: CollectConfig {
                concurrency: 8,
                faults: FaultPlan::realistic(7_777),
                ..StudyConfig::default().collect
            },
        })
        .run()
        .expect("study")
    })
}

#[test]
fn s4_collection_is_stable_at_alexa_scale_ratio() {
    // §4.1: ~782,300 of 1M collected every week (≈78%).
    let r = study();
    let ratio = r.collection.average / r.config.domain_count as f64;
    assert!((0.68..0.88).contains(&ratio), "collected ratio {ratio:.3}");
}

#[test]
fn s5_resource_ranking_matches_fig2b() {
    use webvuln::fingerprint::ResourceType;
    let r = study();
    let share = |t: ResourceType| {
        r.resources
            .iter()
            .find(|u| u.resource == t)
            .expect("present")
            .average_share
    };
    assert!(share(ResourceType::JavaScript) > 0.90, "94.7% in the paper");
    assert!(share(ResourceType::Css) > 0.80, "88.4%");
    assert!(share(ResourceType::JavaScript) > share(ResourceType::Css));
    assert!(share(ResourceType::Css) > share(ResourceType::Favicon));
    assert!(share(ResourceType::Flash) < 0.03, "0.7%");
}

#[test]
fn s61_jquery_dominates_and_declines() {
    let r = study();
    assert_eq!(r.table1[0].library, LibraryId::JQuery);
    assert!((0.55..0.72).contains(&r.table1[0].usage_share), "≈64%");
    let jq_trend = r
        .trends
        .iter()
        .find(|t| t.library == LibraryId::JQuery)
        .expect("present");
    // Fig 3(a): 67.2% -> 63.1% — declining but still dominant.
    assert!(
        jq_trend.last() < jq_trend.first(),
        "{:.3} -> {:.3}",
        jq_trend.first(),
        jq_trend.last()
    );
    assert!(jq_trend.last() > 0.5);
}

#[test]
fn s61_migrate_dip_and_recovery() {
    // Fig 3(a) red box: Migrate drops ~10% Aug–Dec 2020, then recovers.
    let r = study();
    let migrate = r
        .trends
        .iter()
        .find(|t| t.library == LibraryId::JQueryMigrate)
        .expect("present");
    // The lowest weekly share between two dates.
    let min_between = |from: Date, to: Date| {
        migrate
            .points
            .iter()
            .filter(|(d, _)| *d >= from && *d <= to)
            .map(|&(_, s)| s)
            .fold(f64::INFINITY, f64::min)
    };
    let before = min_between(Date::new(2020, 6, 1), Date::new(2020, 7, 31));
    let dip = min_between(Date::new(2020, 10, 1), Date::new(2020, 12, 7));
    let after = min_between(Date::new(2021, 3, 1), Date::new(2021, 5, 1));
    assert!(dip < before * 0.92, "dip: {before:.3} -> {dip:.3}");
    assert!(after > dip, "recovery: {dip:.3} -> {after:.3}");
}

#[test]
fn s62_prevalence_is_massive_and_tvv_is_larger() {
    let r = study();
    // §6.2: 41.2% average; our synthetic web skews more vulnerable (no
    // sites outside the top-15 library world), so assert the regime.
    assert!(
        (0.35..0.80).contains(&r.prevalence_claimed.average),
        "claimed {:.3}",
        r.prevalence_claimed.average
    );
    // §6.4: corrected info uncovers more (paper +2%).
    assert!(r.prevalence_tvv.average > r.prevalence_claimed.average);
    // The gap widens once the WordPress wave parks sites on jQuery 3.5.1:
    // claimed-clean (all <3.5.0 CVEs escaped) yet truly vulnerable
    // (CVE-2020-7656's TVV reaches 3.6.0). Compare the pre-patch era with
    // the between-waves window (Dec 2020 – Jul 2021).
    let window_avg = |from: Date, to: Date| {
        let vals: Vec<f64> = r
            .refinement
            .gap
            .iter()
            .filter(|&&(d, _)| d >= from && d <= to)
            .map(|&(_, g)| g)
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let before = window_avg(Date::new(2019, 6, 1), Date::new(2020, 3, 31));
    let between_waves = window_avg(Date::new(2021, 1, 15), Date::new(2021, 7, 31));
    assert!(
        between_waves > before,
        "gap widens with the 3.5.1 cohort: {before:.4} -> {between_waves:.4}"
    );
}

#[test]
fn s63_dominant_versions_are_outdated_and_vulnerable() {
    use webvuln::cvedb::Basis;
    let r = study();
    let jq = &r.table1[0];
    let (dominant, _) = jq.dominant.clone().expect("jQuery versions observed");
    assert_eq!(dominant.to_string(), "1.12.4", "§6.3's headline");
    assert_eq!(
        r.db.vuln_count(LibraryId::JQuery, &dominant, Basis::CveClaimed),
        4,
        "v1.12.4 carries four reported vulnerabilities"
    );
    // Discontinued projects remain in use (§6.3).
    let swf = r
        .table1
        .iter()
        .find(|row| row.library == LibraryId::SwfObject)
        .expect("present");
    assert!(swf.usage_share > 0.0, "SWFObject still in use");
}

#[test]
fn s64_validation_finds_13_incorrect_reports() {
    let r = study();
    let incorrect = r
        .validations
        .iter()
        .filter(|v| v.accuracy != Accuracy::Accurate)
        .count();
    assert_eq!(incorrect, 13, "paper: 13 incorrect reports");
    let understated_exists = r
        .validations
        .iter()
        .any(|v| v.id == "CVE-2020-7656" && v.accuracy == Accuracy::Understated);
    assert!(understated_exists);
}

#[test]
fn s64_high_profile_sites_run_understated_versions() {
    // microsoft.example (rank 46) and docusign.example (rank 1693) are
    // reproduced when the population is large enough; at 900 domains only
    // microsoft.example exists.
    let r = study();
    let found = r
        .dataset
        .ranks
        .iter()
        .any(|(d, &rank)| d == "microsoft.example" && rank == 46);
    assert!(found, "case-study domain present at the paper's rank");
}

#[test]
fn s65_sri_is_barely_used() {
    let r = study();
    assert!(
        r.sri.average_unprotected_share > 0.97,
        "paper: 99.7%; got {:.4}",
        r.sri.average_unprotected_share
    );
    if r.crossorigin.total > 50 {
        assert!(
            r.crossorigin.anonymous_share > 0.85,
            "paper: 97.1% anonymous; got {:.3}",
            r.crossorigin.anonymous_share
        );
    }
}

#[test]
fn s7_updates_are_slow_and_wordpress_driven() {
    let r = study();
    let claimed = &r.delays_claimed;
    assert!(!claimed.events.is_empty());
    // Paper: 531.2 days — over a year of exposure.
    assert!(
        claimed.mean_delay_days > 200.0,
        "mean delay {:.1}",
        claimed.mean_delay_days
    );
    // §7: the TVV window is longer (+191 days in the paper).
    assert!(r.delays_tvv.mean_delay_days > claimed.mean_delay_days);
    // WordPress is the main update contributor.
    assert!(
        claimed.wordpress_share > 0.4,
        "wp share {:.2}",
        claimed.wordpress_share
    );
}

#[test]
fn s8_flash_decays_but_survives_eol() {
    let r = study();
    let first = r.flash.points.first().expect("non-empty").1;
    let last = r.flash.points.last().expect("non-empty").1;
    assert!(first > 0);
    assert!((last as f64) < first as f64 * 0.75, "{first} -> {last}");
    assert!(r.flash.average_after_eol >= 1.0, "zombie flash persists");
}

#[test]
fn s9_wordpress_share_matches() {
    let r = study();
    assert!(
        (0.21..0.33).contains(&r.wordpress.average_share),
        "paper: 26.9%; got {:.3}",
        r.wordpress.average_share
    );
}
