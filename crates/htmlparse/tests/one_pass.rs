//! The one-pass extractor against its oracle: `extract_resources(html)`
//! must equal `extract(&Document::parse(html))` — the same tokens read
//! through the tree builder — and the fingerprint engine must analyse the
//! two alike, over every page of a small synthetic web, generated tag
//! soup, and the inputs earlier bugs were found with.

use webvuln_failpoint::check::{self, Gen};
use webvuln_fingerprint::Engine;
use webvuln_html::{extract, extract_resources, Document};
use webvuln_webgen::{Ecosystem, EcosystemConfig, PageOutcome, Timeline};

/// Asserts that both ways of reading `html` agree, resources and analyses.
fn agree(engines: &[Engine; 2], html: &str, domain: &str) {
    let tree = extract(&Document::parse(html));
    assert_eq!(extract_resources(html), tree, "{html:?}");
    for engine in engines {
        assert_eq!(
            engine.analyze(html, domain),
            engine.analyze_resources(&tree, domain),
            "{html:?}"
        );
    }
}

fn engines() -> [Engine; 2] {
    [Engine::new(), Engine::url_only()]
}

#[test]
fn one_pass_equals_the_tree_on_every_webgen_page() {
    let engines = engines();
    let eco = Ecosystem::generate(EcosystemConfig {
        seed: 28,
        domain_count: 120,
        timeline: Timeline::truncated(4),
    });
    let mut pages = 0;
    for model in eco.models() {
        for week in 0..4 {
            if let PageOutcome::Page(html) = eco.page(&model.name, week) {
                agree(&engines, &html, &model.name);
                pages += 1;
            }
        }
    }
    assert!(pages > 300, "enough pages rendered: {pages}");
}

/// Tag names the extractor reads, in both cases, and names it must not
/// mistake for them.
const NAMES: &[&str] = &[
    "script", "SCRIPT", "object", "Object", "param", "embed", "meta", "link", "img", "title",
    "style", "div", "p", "br", "script-x", "objects",
];

const ATTRS: &[&str] = &[
    "src",
    "SRC",
    "data",
    "href",
    "rel",
    "name",
    "value",
    "content",
    "integrity",
    "crossorigin",
    "allowscriptaccess",
    "AllowScriptAccess",
    "class",
];

/// Values that steer the extractor (movie and policy names, generator,
/// link rels), URLs with multibyte characters where `.swf` would be, and
/// entities where a decoded value differs from its source.
const VALUES: &[&str] = &[
    "a.swf",
    "日ab",
    "日.swf",
    "m.SWF?x=1",
    "é.swf#日",
    "movie",
    "Movie",
    "src",
    "allowScriptAccess",
    "ALWAYS",
    "never",
    "generator",
    "WordPress 5.6",
    "stylesheet",
    "Icon",
    "/wp-content/a.css",
    "https://cdn.example/jquery-1.12.4.min.js",
    "/a.js?x=1&amp;y=2",
    "b&#x2E;swf",
    "&lt;&#26085;&gt;",
    "sha384-x",
    "anonymous",
    "",
];

/// Markup openers and closers, entities and multibyte text.
const SOUP: &[&str] = &[
    "<",
    "</",
    "<!--",
    "-->",
    "&",
    "&amp;",
    "&#",
    "/>",
    ">",
    "=",
    "\"",
    "'",
    "<?x>",
    "</ >",
    "<!DOCTYPE html>",
    "日本",
    "é😀",
    " ",
    "\n",
    "text",
    "/*! jQuery v3.5.1 */",
];

fn value(g: &mut Gen) -> String {
    match g.range(0..=3) {
        0 => format!("{}{}", g.unicode(0..=6), g.pick(&["", ".swf", "ab"])),
        _ => g.pick(VALUES).to_string(),
    }
}

fn start_tag(g: &mut Gen) -> String {
    let name = *g.pick(NAMES);
    let attrs = g
        .vec(0..=4, |g| {
            let attr = *g.pick(ATTRS);
            match g.range(0..=3) {
                0 => format!(" {attr}"),
                1 => format!(" {attr}={}", value(g).replace([' ', '>'], "")),
                2 => format!(" {attr}=\"{}\"", value(g)),
                _ => format!(" {attr}='{}'", value(g)),
            }
        })
        .concat();
    format!("<{name}{attrs}{}>", g.pick(&["", "/", " /"]))
}

/// An `<object>` holding `<param>`s, `<embed>`s and objects of its own,
/// closed or left open.
fn flash(g: &mut Gen, depth: u32) -> String {
    let data = match g.range(0..=2) {
        0 => String::new(),
        _ => format!(" data=\"{}\"", value(g)),
    };
    let children = g
        .vec(0..=4, |g| match g.range(0..=3) {
            0 => format!(
                "<param name=\"{}\" value=\"{}\">",
                g.pick(&["movie", "src", "AllowScriptAccess", "quality"]),
                value(g)
            ),
            1 => format!(
                "<embed src=\"{}\" allowscriptaccess=\"{}\">",
                value(g),
                g.pick(&["always", "NEVER", "sameDomain"])
            ),
            2 if depth > 0 => flash(g, depth - 1),
            _ => g.pick(SOUP).to_string(),
        })
        .concat();
    let close = *g.pick(&["</object>", "</object>", ""]);
    format!("<object{data}>{children}{close}")
}

/// Tag soup: mostly tags the extractor reads, with stray markup,
/// multibyte text, nested Flash objects, and now and then nesting that
/// reaches the depth cap.
fn soup(g: &mut Gen) -> String {
    g.vec(0..=40, |g| match g.range(0..=19) {
        0..=6 => start_tag(g),
        7..=9 => format!("</{}>", g.pick(NAMES)),
        10..=13 => g.pick(SOUP).to_string(),
        14..=15 => g.unicode(0..=12),
        16..=18 => flash(g, 2),
        _ => g
            .pick(&["<div>", "<object>", "<b>"])
            .repeat(g.range(250..=260) as usize),
    })
    .concat()
}

#[test]
fn one_pass_equals_the_tree_on_tag_soup() {
    let engines = engines();
    check::run("one_pass_equals_the_tree_on_tag_soup", 1024, |g| {
        agree(&engines, &soup(g), "soup.example");
    });
}

/// Inputs earlier bugs were found or pinned with: an unterminated tag
/// that swallows the script after it, multibyte characters after markup
/// openers, Flash URLs whose last four bytes start inside a character,
/// and the two shapes whose resources once outgrew the page.
#[test]
fn one_pass_equals_the_tree_on_recorded_inputs() {
    let engines = engines();
    let jquery = r#"<script src="https://ajax.googleapis.com/ajax/libs/jquery/1.0.0/jquery.min.js"></script>"#;
    let recorded = [
        format!("<a{jquery}"),
        "&\u{1e130}ወa𐖔".to_string(),
        "<?۞𞺫ힰ>".to_string(),
        r#"<embed src="日ab">"#.to_string(),
        r#"<object data="日ab"></object>"#.to_string(),
        r#"<object><param name="movie" value="日ab"></object>"#.to_string(),
        format!("{}{}", "<script></script-x>".repeat(16), "t".repeat(512)),
        format!(
            "{}<param name=movie value={}.swf>",
            "<object>".repeat(16),
            "v".repeat(512)
        ),
    ];
    for html in &recorded {
        agree(&engines, html, "noise.example");
    }
}
