//! Property-based tests for the fingerprint engine: it must never panic
//! on arbitrary input, and its detections must be internally consistent.

use webvuln_cvedb::LibraryId;
use webvuln_exec::Executor;
use webvuln_failpoint::check::{self, Gen, PRINTABLE};
use webvuln_fingerprint::{
    fingerprints, wordpress_fingerprint, DetectedInclusion, Detection, Engine, ExternalScript,
    Fingerprint, FlashDetection, PageAnalysis, ResourceType, WordPressFingerprint,
};
use webvuln_html::{extract, url_host, Document};
use webvuln_pattern::Captures;
use webvuln_version::Version;
use webvuln_webgen::{Ecosystem, EcosystemConfig, PageOutcome, Timeline};

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

/// The engine as it was before the literal gate: every pattern of every
/// library runs over every script, in declaration order, and resource
/// classes are read off a lower-cased copy of each URL.
struct Reference {
    db: Vec<Fingerprint>,
    wordpress: WordPressFingerprint,
}

fn version(caps: &Captures<'_>) -> Option<Version> {
    caps.get(1)
        .filter(|s| !s.is_empty())
        .and_then(|s| Version::parse(s).ok())
}

impl Reference {
    fn new() -> Reference {
        Reference {
            db: fingerprints(),
            wordpress: wordpress_fingerprint(),
        }
    }

    /// The first URL pattern, in declaration order, that matches `url`.
    fn detect(&self, url: &str) -> Option<(LibraryId, Option<Version>)> {
        for fp in &self.db {
            for pattern in &fp.url_patterns {
                if let Some(caps) = pattern.captures(url) {
                    return Some((fp.library, version(&caps)));
                }
            }
        }
        None
    }

    /// Every library one of whose banner patterns matches `text`.
    fn detect_inline(&self, text: &str) -> Vec<(LibraryId, Option<Version>)> {
        let first_match = |fp: &Fingerprint| {
            let caps = fp.inline_patterns.iter().find_map(|p| p.captures(text))?;
            Some((fp.library, version(&caps)))
        };
        self.db.iter().filter_map(first_match).collect()
    }

    fn analyze(&self, html: &str, domain: &str, use_inline: bool) -> PageAnalysis {
        let resources = extract(&Document::parse(html));
        let mut out = PageAnalysis::default();
        let mut found: Vec<Detection> = Vec::new();
        let mut wp_path_hit = false;
        let mut types = Vec::new();
        if !resources.scripts.is_empty() {
            types.push(ResourceType::JavaScript);
        }
        for script in &resources.scripts {
            let Some(src) = &script.src else {
                if use_inline && !script.inline.is_empty() {
                    for (library, version) in self.detect_inline(&script.inline) {
                        found.push(Detection {
                            library,
                            version,
                            inclusion: DetectedInclusion::Internal,
                            integrity: false,
                            crossorigin: None,
                            url: String::new(),
                        });
                    }
                }
                continue;
            };
            let host = url_host(src).filter(|h| !h.eq_ignore_ascii_case(domain));
            if let Some(host) = host {
                out.external_scripts += 1;
                if script.integrity.is_none() {
                    out.external_scripts_without_integrity += 1;
                } else if let Some(co) = &script.crossorigin {
                    out.crossorigin_values.push(co.to_ascii_lowercase());
                }
                if host.ends_with(".github.io") || host.ends_with(".github.com") {
                    out.github_scripts.push(ExternalScript {
                        host: host.to_string(),
                        url: src.to_string(),
                        integrity: script.integrity.is_some(),
                        crossorigin: script.crossorigin.as_deref().map(str::to_string),
                    });
                }
            }
            if let Some((library, version)) = self.detect(src) {
                found.push(Detection {
                    library,
                    version,
                    inclusion: host.map_or(DetectedInclusion::Internal, |h| {
                        DetectedInclusion::External {
                            host: h.to_string(),
                        }
                    }),
                    integrity: script.integrity.is_some(),
                    crossorigin: script.crossorigin.as_deref().map(str::to_string),
                    url: src.to_string(),
                });
            }
            wp_path_hit |= self.wordpress.path.is_match(src);
            classify_url(src, &mut types);
        }
        // One detection per library: the first, or the first versioned one.
        for det in found {
            match out.detections.iter_mut().find(|d| d.library == det.library) {
                Some(kept) if kept.version.is_none() && det.version.is_some() => *kept = det,
                Some(_) => {}
                None => out.detections.push(det),
            }
        }
        for link in &resources.links {
            wp_path_hit |= self.wordpress.path.is_match(&link.href);
            match &*link.rel {
                "stylesheet" if !link.href.contains(".php") => types.push(ResourceType::Css),
                "icon" | "shortcut icon" | "apple-touch-icon" => types.push(ResourceType::Favicon),
                "alternate" if link.href.contains(".xml") || link.href.contains("rss") => {
                    types.push(ResourceType::Xml);
                }
                _ => {}
            }
            classify_url(&link.href, &mut types);
        }
        for generator in &resources.generators {
            if let Some(caps) = self.wordpress.generator.captures(generator) {
                out.wordpress = Some(version(&caps));
            }
        }
        if out.wordpress.is_none() && wp_path_hit {
            out.wordpress = Some(None);
        }
        for img in &resources.images {
            classify_url(img, &mut types);
        }
        for flash in &resources.flash {
            types.push(ResourceType::Flash);
            out.flash.push(FlashDetection {
                swf_url: flash.swf_url.to_string(),
                allow_script_access: flash.allow_script_access.as_deref().map(str::to_string),
            });
        }
        types.sort();
        types.dedup();
        out.resource_types = types;
        out
    }
}

/// Resource classes of one URL, the way the engine read them before it
/// stopped copying the URL.
fn classify_url(url: &str, types: &mut Vec<ResourceType>) {
    let path = url
        .split(['?', '#'])
        .next()
        .unwrap_or(url)
        .to_ascii_lowercase();
    for (class, present) in [
        (ResourceType::ImportedHtml, path.contains(".php")),
        (ResourceType::Xml, path.ends_with(".xml")),
        (ResourceType::Svg, path.ends_with(".svg")),
        (
            ResourceType::Axd,
            path.ends_with(".axd") || url.contains(".axd?"),
        ),
        (ResourceType::Css, path.ends_with(".css")),
        (ResourceType::Favicon, path.ends_with(".ico")),
    ] {
        if present {
            types.push(class);
        }
    }
}

/// URLs built to sit on the gate's edges: a literal cut by a `/`, upper
/// case hosts and paths, `%`-escapes, multi-byte characters touching a
/// literal, the empty string, and URLs that are nothing but a literal.
const ADVERSARIAL_URLS: &[&str] = &[
    "",
    "/",
    "jquery",
    "/wp-",
    "bootstrap",
    "jquery-migrate",
    "/jquery-ui/",
    "/jque/ry-1.12.4.min.js",
    "/jquery-mig/rate.min.js",
    "/wp-/content/themes/a.css",
    "/wp-cont/ent/x.js",
    "HTTPS://CDN.EXAMPLE/AJAX/LIBS/JQUERY/3.5.1/JQUERY.MIN.JS",
    "https://CDN.Example/Bootstrap/4.3.1/JS/BOOTSTRAP.BUNDLE.MIN.JS",
    "/WP-CONTENT/PLUGINS/X/MODERNIZR-2.8.3.JS",
    "/js/jquery%2D3.5.1.min.js",
    "/jquery-ui%2F1.12.1/jquery-ui.js",
    "/npm/%6Aquery@3.5.1/dist/jquery.js",
    "/éjquery-3.5.1.min.jsé",
    "/jquery-üi/1.12.1/jquery-ui.min.js",
    "/日本/moment.js/2.18.1/moment.min.js😀",
    "/ünderscore-1.8.3.js",
    "/libs/isotope\u{0131}/3.0.6/isotope.pkgd.min.js",
    "//cdn.example/v3/polyfill.min.js?version=3.52.1",
    "/v3/polyfill.min.js",
    "/loader.PHP?x=.css",
    "/feed.XML#top",
    "/WebResource.AXD?d=1",
    "/logo.SvG",
];

const URL_PARTS: &[&str] = &[
    "jquery",
    "JQUERY",
    "-migrate",
    "-ui",
    ".cookie",
    "js.cookie",
    "bootstrap",
    ".bundle",
    "twitter-bootstrap",
    "modernizr",
    "-custom",
    "underscore",
    "isotope",
    ".pkgd",
    "popper",
    "moment",
    "-with-locales",
    "require",
    "swfobject",
    "prototype",
    "polyfill",
    ".io",
    "/v3/",
    "/wp-content/",
    "/wp-includes/",
    "/ui/",
    "/",
    "/",
    "@",
    "-",
    ".",
    "1.12.4",
    "3.5.1",
    "2",
    ".min",
    ".slim",
    ".js",
    ".JS",
    "?ver=",
    "?version=",
    "%2F",
    "é",
    "😀",
    ".php",
    ".css",
    ".axd?",
    ".svg",
    ".xml",
    "rss",
    ".ico",
    "#frag",
    "https://cdn.example",
    "//static.gate.example",
    "https://user.github.io",
];

const BANNERS: &[&str] = &[
    "/*! jQuery v3.5.1 | (c) */",
    "/*! JQUERY MIGRATE V1.4.1 */",
    "/*! jQuery UI - v1.12.1 */ jQuery UI 1.12.1",
    "/* Bootstrap v4.3.1 */ /* jQuery JavaScript Library v1.12.4 */",
    "// Underscore.js 1.8.3",
    "//! moment.js\n//! version : 2.18.1",
    "Modernizr 2.8.3 éjQuery vé RequireJS",
    "var x = 'SWFObject v2.2'; Isotope PACKAGED v3.0.6",
    "Prototype JavaScript framework, version 1.7.3",
    "jQuery v",
    "no banner here",
];

/// A page whose URLs and inline scripts are drawn from the lists above.
fn gate_page(g: &mut Gen) -> String {
    let url = |g: &mut Gen| {
        if g.bool() {
            g.pick(ADVERSARIAL_URLS).to_string()
        } else {
            g.vec(1..=8, |g| *g.pick(URL_PARTS)).concat()
        }
    };
    let tags = g.vec(1..=6, |g| match g.range(0..=5) {
        0..=2 => {
            let sri = *g.pick(&["", " integrity=\"sha384-x\" crossorigin=\"Anonymous\""]);
            format!("<script src=\"{}\"{sri}></script>", url(g))
        }
        3 => format!("<script>{}</script>", g.pick(BANNERS)),
        4 => format!(
            "<link rel=\"{}\" href=\"{}\">",
            g.pick(&["stylesheet", "icon", "alternate", "preload"]),
            url(g)
        ),
        _ => format!(
            "<meta name=\"generator\" content=\"{}\"><img src=\"{}\">",
            g.pick(&["WordPress 5.6", "wordpress", "Joomla 3", "WordPress"]),
            url(g)
        ),
    });
    tags.concat()
}

/// The gate changes which patterns run, never what a page analyses to.
#[test]
fn gated_engine_equals_the_ungated_reference() {
    let reference = Reference::new();
    let (full, url_only) = (Engine::new(), Engine::url_only());
    let domain = "gate.example";
    let agree = |html: &str, domain: &str| {
        let analysis = full.analyze(html, domain);
        assert_eq!(analysis, reference.analyze(html, domain, true), "{html}");
        let without_inline = url_only.analyze(html, domain);
        assert_eq!(
            without_inline,
            reference.analyze(html, domain, false),
            "{html}"
        );
        for det in &without_inline.detections {
            assert!(analysis.library(det.library).is_some(), "{html}");
        }
        analysis
    };

    // Every rendered page of a small synthetic web.
    let eco = Ecosystem::generate(EcosystemConfig {
        seed: 77,
        domain_count: 150,
        timeline: Timeline::truncated(4),
    });
    let mut pages = Vec::new();
    for model in eco.models() {
        for week in [0, 3] {
            if let PageOutcome::Page(html) = eco.page(&model.name, week) {
                agree(&html, &model.name);
                pages.push((model.name.clone(), html));
            }
        }
    }
    assert!(pages.len() > 150, "enough pages rendered: {}", pages.len());

    for url in ADVERSARIAL_URLS {
        let html =
            format!("<script src=\"{url}\"></script><link rel=\"stylesheet\" href=\"{url}\">");
        agree(&html, domain);
        pages.push((domain.to_string(), html));
    }
    check::run("gated_engine_equals_the_ungated_reference", 512, |g| {
        agree(&gate_page(g), domain);
    });

    let refs: Vec<(&str, &str)> = pages
        .iter()
        .map(|(domain, html)| (domain.as_str(), html.as_str()))
        .collect();
    let sequential: Vec<PageAnalysis> = refs.iter().map(|&(d, h)| full.analyze(h, d)).collect();
    for threads in [1, 2, 8] {
        let batch = Executor::new(threads).map(&refs, |&(d, h)| full.analyze(h, d));
        assert_eq!(batch, sequential, "threads={threads}");
    }
}
