//! Property-based tests for the fingerprint engine: it must never panic
//! on arbitrary input, and its detections must be internally consistent.

use webvuln_cvedb::LibraryId;
use webvuln_failpoint::check::{self, PRINTABLE};
use webvuln_fingerprint::{DetectedInclusion, Engine};

fn jquery_tag(version: &str) -> String {
    format!(
        "<script src=\"https://ajax.googleapis.com/ajax/libs/jquery/{version}/jquery.min.js\"></script>"
    )
}

/// Arbitrary tag soup never panics the engine and produces consistent
/// accounting.
#[test]
fn engine_never_panics_and_accounts_consistently() {
    let charset = format!("{PRINTABLE}\n");
    let engine = Engine::new();
    check::run("engine_never_panics_and_accounts_consistently", 256, |g| {
        let html = g.string(&charset, 0..=500);
        let domain = format!(
            "{}.{}",
            g.string("abcdefghijklmnopqrstuvwxyz", 1..=10),
            g.pick(&["com", "org", "example"])
        );
        let analysis = engine.analyze(&html, &domain);
        assert!(analysis.external_scripts_without_integrity <= analysis.external_scripts);
        // At most one detection per library.
        let mut seen = std::collections::BTreeSet::new();
        for det in &analysis.detections {
            assert!(seen.insert(det.library), "duplicate {}", det.library);
        }
        // External detections never name the page's own host.
        for det in &analysis.detections {
            if let DetectedInclusion::External { host } = &det.inclusion {
                assert!(!host.eq_ignore_ascii_case(&domain));
            }
        }
    });
}

/// A synthetic script tag with a known URL shape is always detected
/// with the exact version, whatever complete markup surrounds it.
/// (An *unterminated* tag right before it would swallow the script
/// element as attributes — in a real browser too — so the noise is
/// built from complete fragments.)
#[test]
fn jquery_detection_is_noise_immune() {
    let engine = Engine::new();
    check::run("jquery_detection_is_noise_immune", 256, |g| {
        let prefix = g
            .vec(0..=5, |g| {
                *g.pick(&[
                    "<div class=\"x\">",
                    "</div>",
                    "text ",
                    "<p>para</p>",
                    "<br>",
                    "<!-- comment -->",
                    "<span>s</span>",
                ])
            })
            .concat();
        let suffix = g.string("abcdefghijklmnopqrstuvwxyz ", 0..=60);
        let version = format!("{}.{}.{}", g.range(1..=3), g.range(0..=12), g.range(0..=4));
        let html = format!("{prefix}{}{suffix}", jquery_tag(&version));
        let analysis = engine.analyze(&html, "noise.example");
        let det = analysis
            .library(LibraryId::JQuery)
            .expect("jquery detected");
        assert_eq!(det.version.as_ref().map(ToString::to_string), Some(version));
    });
}

/// The case that restricted the noise above to complete fragments: an
/// unterminated `<a` swallows the following script tag as attributes,
/// so nothing is detected — and nothing panics.
#[test]
fn unterminated_tag_before_the_script_swallows_it() {
    let html = format!("<a{}", jquery_tag("1.0.0"));
    let analysis = Engine::new().analyze(&html, "noise.example");
    assert!(analysis.library(LibraryId::JQuery).is_none());
}

/// URL-only and full engines agree on URL-based detections.
#[test]
fn url_only_is_a_subset_of_full() {
    check::run("url_only_is_a_subset_of_full", 256, |g| {
        let lib_html = *g.pick(&[
            r#"<script src="/assets/js/jquery-1.12.4.min.js"></script>"#,
            r#"<script src="https://cdnjs.cloudflare.com/ajax/libs/moment.js/2.18.1/moment.min.js"></script>"#,
            r#"<script>/*! jQuery v3.5.1 */ x();</script>"#,
            r#"<script>// Underscore.js 1.8.3</script>"#,
        ]);
        let full = Engine::new().analyze(lib_html, "x.example");
        let url_only = Engine::url_only().analyze(lib_html, "x.example");
        for det in &url_only.detections {
            assert!(
                full.detections.iter().any(|d| d.library == det.library),
                "url-only found something full missed"
            );
        }
        assert!(url_only.detections.len() <= full.detections.len());
    });
}
