//! Rendering a [`DomainState`] into the landing-page HTML the crawler
//! downloads.
//!
//! URL shapes follow what the fingerprinting stage (and real Wappalyzer)
//! keys on: version-in-filename for self-hosted files, version-in-path for
//! CDNs, `?ver=` query strings for WordPress, `<meta generator>` for the
//! CMS, and `<object>/<embed>` markup for Flash. Deployments flagged
//! `version_visible = false` render without any version marker — the
//! fingerprint sees the library but not the version, reproducing the
//! "Found < Total" gap of Table 1.

use crate::domain::{Deployed, DomainState, FlashState, GithubScript, Inclusion};
use crate::rng::hash_str;
use std::fmt::Write;
use webvuln_cvedb::LibraryId;
use webvuln_version::Version;

/// Renders the landing page for `domain` at snapshot `week`, into one
/// buffer sized for it up front.
pub(crate) fn render_page(domain: &str, week: usize, state: &DomainState<'_>) -> String {
    let mut html = String::with_capacity(page_capacity(domain, state));
    html.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n");
    html.push_str("<meta charset=\"utf-8\">\n");
    if let Some(wp) = state.wordpress {
        let _ = writeln!(html, "<meta name=\"generator\" content=\"WordPress {wp}\">");
    }
    push_all(&mut html, &["<title>", domain, "</title>\n"]);
    if state.resources.css {
        html.push_str("<link rel=\"stylesheet\" href=\"/assets/style.css");
        if let Some(wp) = state.wordpress {
            let _ = write!(html, "?ver={wp}");
        }
        html.push_str("\">\n");
    }
    if state.resources.favicon {
        html.push_str("<link rel=\"icon\" href=\"/favicon.ico\">\n");
    }
    if state.resources.xml {
        html.push_str("<link rel=\"alternate\" type=\"application/rss+xml\" href=\"https://");
        push_all(&mut html, &[domain, "/feed.xml\">\n"]);
    }
    if state.resources.imported_html {
        html.push_str("<link rel=\"stylesheet\" href=\"/theme/compiled.css.php\">\n");
        html.push_str("<script src=\"/inc/loader.js.php\"></script>\n");
    }
    for dep in &state.deployments {
        if dep.deployment.inlined {
            push_inline_script(&mut html, dep);
        } else {
            push_script_tag(&mut html, domain, dep);
        }
        html.push('\n');
    }
    for extra in state.extra_scripts {
        let (host, path) = (&extra.host, &extra.path);
        push_all(
            &mut html,
            &["<script src=\"https://", host, path, "\" async></script>\n"],
        );
    }
    if let Some(gh) = state.github_script {
        push_github_tag(&mut html, gh);
        html.push('\n');
    }
    html.push_str("</head>\n<body>\n");
    push_all(&mut html, &["<h1>Welcome to ", domain, "</h1>\n"]);
    // Filler so real pages clear the 400-byte empty-page threshold.
    for i in ["0", "1", "2"] {
        push_all(&mut html, &["<p>Section ", i, ": weekly edition "]);
        let _ = write!(html, "{week}");
        html.push_str(
            ". Lorem ipsum dolor sit amet, consectetur adipiscing elit, sed do eiusmod tempor \
             incididunt ut labore et dolore magna aliqua.</p>\n",
        );
    }
    if state.resources.svg {
        html.push_str("<img src=\"/img/logo.svg\" alt=\"logo\">\n");
    }
    if state.resources.axd {
        html.push_str("<script src=\"/WebResource.axd?d=aGVsbG8\"></script>\n");
    }
    if let Some(flash) = state.flash {
        push_flash_markup(&mut html, flash);
    }
    if state.resources.javascript {
        html.push_str("<script>document.addEventListener('DOMContentLoaded',function(){var x=1;});</script>\n");
    }
    html.push_str("</body>\n</html>\n");
    html
}

/// Appends `parts` to `out`, with none of `write!`'s formatting machinery.
fn push_all(out: &mut String, parts: &[&str]) {
    parts.iter().for_each(|part| out.push_str(part));
}

/// Bytes enough for the page [`render_page`] writes for `state`: the
/// fixed markup, plus a bound on each part that varies.
fn page_capacity(domain: &str, state: &DomainState<'_>) -> usize {
    let extra = state.extra_scripts.iter();
    let extra: usize = extra.map(|e| 48 + e.host.len() + e.path.len()).sum();
    let github = state.github_script.map_or(0, |gh| 96 + gh.url_path.len());
    let flash = state.flash.map_or(0, |f| 384 + 2 * f.swf_url.len());
    1024 + 4 * domain.len()
        + state.deployments.len() * (224 + domain.len())
        + extra
        + github
        + flash
}

/// The small page anti-bot blockers answer with (paper §4.1: "Not allowed
/// to access", served with a 200 status).
pub(crate) fn antibot_page() -> String {
    "<html><body>Not allowed to access.</body></html>".to_string()
}

/// File name stem of a library (what appears in URLs).
fn file_stem(lib: LibraryId) -> &'static str {
    // Matches the real projects' distributed file names.
    match lib {
        LibraryId::JQuery => "jquery",
        LibraryId::Bootstrap => "bootstrap",
        LibraryId::JQueryMigrate => "jquery-migrate",
        LibraryId::JQueryUi => "jquery-ui",
        LibraryId::Modernizr => "modernizr",
        LibraryId::JsCookie => "js.cookie",
        LibraryId::Underscore => "underscore",
        LibraryId::Isotope => "isotope.pkgd",
        LibraryId::Popper => "popper",
        LibraryId::MomentJs => "moment",
        LibraryId::RequireJs => "require",
        LibraryId::SwfObject => "swfobject",
        LibraryId::Prototype => "prototype",
        LibraryId::JQueryCookie => "jquery.cookie",
        LibraryId::PolyfillIo => "polyfill",
    }
}

/// cdnjs (and jsdelivr) directory names differ from file stems.
fn cdn_dir(lib: LibraryId) -> &'static str {
    match lib {
        LibraryId::JQuery => "jquery",
        LibraryId::Bootstrap => "twitter-bootstrap",
        LibraryId::JQueryMigrate => "jquery-migrate",
        LibraryId::JQueryUi => "jqueryui",
        LibraryId::Modernizr => "modernizr",
        LibraryId::JsCookie => "js-cookie",
        LibraryId::Underscore => "underscore.js",
        LibraryId::Isotope => "jquery.isotope",
        LibraryId::Popper => "popper.js",
        LibraryId::MomentJs => "moment.js",
        LibraryId::RequireJs => "require.js",
        LibraryId::SwfObject => "swfobject",
        LibraryId::Prototype => "prototype",
        LibraryId::JQueryCookie => "jquery-cookie",
        LibraryId::PolyfillIo => "polyfill",
    }
}

/// Builds the `src` URL for a deployment.
pub fn script_url(domain: &str, dep: &Deployed<'_>) -> String {
    let mut url = String::new();
    push_script_url(&mut url, domain, dep);
    url
}

/// Appends the `src` URL of a deployment to `out`.
fn push_script_url(out: &mut String, domain: &str, dep: &Deployed<'_>) {
    let (stem, version) = (file_stem(dep.deployment.library), dep.version);
    let library = dep.deployment.library;
    let visible = dep.deployment.version_visible;
    let host = match &dep.deployment.inclusion {
        Inclusion::Internal => {
            if dep.deployment.via_wordpress {
                // WordPress ships versions in the query string.
                out.push_str(match library {
                    LibraryId::JQueryMigrate => "/wp-includes/js/jquery/jquery-migrate.min.js",
                    _ => "/wp-includes/js/jquery/jquery.min.js",
                });
                if visible {
                    let _ = write!(out, "?ver={version}");
                }
            } else if visible {
                let _ = write!(out, "/assets/js/{stem}-{version}.min.js");
            } else {
                let _ = write!(out, "/assets/js/{stem}.min.js");
            }
            return;
        }
        Inclusion::External { host, .. } => host.as_str(),
    };
    let start = out.len();
    push_all(out, &["https://", host]);
    let path = out.len();
    let _ = match host {
        "ajax.googleapis.com" => {
            let dir = match library {
                LibraryId::JQueryUi => "jqueryui",
                other => file_stem(other),
            };
            write!(out, "/ajax/libs/{dir}/{version}/{stem}.min.js")
        }
        "code.jquery.com" => match library {
            LibraryId::JQueryUi => write!(out, "/ui/{version}/jquery-ui.min.js"),
            _ => write!(out, "/{stem}-{version}.min.js"),
        },
        "maxcdn.bootstrapcdn.com" | "stackpath.bootstrapcdn.com" => {
            write!(out, "/bootstrap/{version}/js/bootstrap.min.js")
        }
        "c0.wp.com" => write!(out, "/p/{}/{version}/{stem}.min.js", cdn_dir(library)),
        "polyfill.io" | "cdn.polyfill.io" => write!(out, "/v{version}/polyfill.min.js"),
        "cdnjs.cloudflare.com" => {
            write!(
                out,
                "/ajax/libs/{}/{version}/{stem}.min.js",
                cdn_dir(library)
            )
        }
        "cdn.jsdelivr.net" => {
            write!(
                out,
                "/npm/{}@{version}/dist/{stem}.min.js",
                cdn_dir(library)
            )
        }
        _ if visible => write!(out, "/libs/{stem}/{version}/{stem}.min.js"),
        _ => write!(out, "/libs/{stem}/{stem}.min.js"),
    };
    // A hidden version on a versioned-path CDN makes no sense; hide by
    // switching to an unversioned self-path instead.
    if !visible && out[path..].contains(&version.to_string()) {
        out.truncate(start);
        push_all(out, &["https://static.", domain, "/js/", stem, ".min.js"]);
    }
}

/// Appends the banner comment a library's distributed file starts with,
/// when the project ships one (what the fingerprint engine's inline
/// patterns key on); `false`, with nothing appended, for projects without
/// a recognisable banner.
pub(crate) fn push_inline_banner(out: &mut String, library: LibraryId, version: &Version) -> bool {
    let _ = match library {
        LibraryId::JQuery => write!(out, "/*! jQuery v{version} | (c) OpenJS Foundation */"),
        LibraryId::JQueryMigrate => write!(out, "/*! jQuery Migrate v{version} */"),
        LibraryId::JQueryUi => write!(out, "/*! jQuery UI v{version} */"),
        LibraryId::Bootstrap => {
            write!(
                out,
                "/*! Bootstrap v{version} (https://getbootstrap.com) */"
            )
        }
        LibraryId::Modernizr => write!(out, "/*! Modernizr v{version} (Custom Build) */"),
        LibraryId::Underscore => write!(out, "// Underscore.js {version}"),
        LibraryId::Isotope => write!(out, "/*! Isotope PACKAGED v{version} */"),
        LibraryId::MomentJs => write!(out, "//! moment.js\n//! version : {version}"),
        LibraryId::RequireJs => write!(out, "/** vim: et:ts=4 RequireJS {version} */"),
        LibraryId::SwfObject => write!(out, "/*! SWFObject v{version} */"),
        LibraryId::Prototype => {
            write!(
                out,
                "/*  Prototype JavaScript framework, version {version} */"
            )
        }
        _ => return false,
    };
    true
}

/// Whether [`push_inline_banner`] writes a banner for `library`.
pub(crate) fn has_inline_banner(library: LibraryId) -> bool {
    let version = Version::parse("1.0").expect("static version");
    push_inline_banner(&mut String::new(), library, &version)
}

/// An inlined library: its banner comment plus a minified-looking stub.
fn push_inline_script(out: &mut String, dep: &Deployed<'_>) {
    out.push_str("<script>");
    let library = dep.deployment.library;
    let banner = push_inline_banner(out, library, dep.version);
    assert!(banner, "inlined deployments require a banner");
    out.push_str("\n!function(g){g.__");
    out.extend(library.slug().chars().map(|c| match c {
        '.' | '-' => '_',
        c => c,
    }));
    out.push_str("_loaded=true}(window);</script>");
}

fn push_script_tag(out: &mut String, domain: &str, dep: &Deployed<'_>) {
    out.push_str("<script src=\"");
    let url = out.len();
    push_script_url(out, domain, dep);
    out.push('"');
    if dep.deployment.integrity {
        let (url, domain) = (hash_str(&out[url..out.len() - 1]), hash_str(domain));
        let _ = write!(out, " integrity=\"sha384-{url:016x}{domain:016x}\"");
    }
    match dep.deployment.crossorigin.as_deref() {
        Some("") => out.push_str(" crossorigin"),
        Some(co) => {
            push_all(out, &[" crossorigin=\"", co, "\""]);
        }
        None => {}
    }
    out.push_str("></script>");
}

fn push_github_tag(out: &mut String, gh: &GithubScript) {
    push_all(out, &["<script src=\"https://", &gh.url_path, "\""]);
    if gh.integrity {
        let _ = write!(out, " integrity=\"sha384-{:032x}\"", hash_str(&gh.url_path));
    }
    out.push_str("></script>");
}

fn push_flash_markup(out: &mut String, flash: &FlashState) {
    let swf = &flash.swf_url;
    out.push_str(
        "<object classid=\"clsid:D27CDB6E-AE6D-11cf-96B8-444553540000\" width=\"550\" \
         height=\"400\">\n",
    );
    let _ = writeln!(out, "  <param name=\"movie\" value=\"{swf}\">");
    if let Some(v) = &flash.allow_script_access {
        let _ = writeln!(out, "  <param name=\"AllowScriptAccess\" value=\"{v}\">");
    }
    let _ = write!(
        out,
        "  <embed src=\"{swf}\" type=\"application/x-shockwave-flash\""
    );
    if let Some(v) = &flash.allow_script_access {
        let _ = write!(out, " allowscriptaccess=\"{v}\"");
    }
    out.push_str(">\n</object>\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{Deployment, ResourceFlags};
    use webvuln_cvedb::LibraryId;
    use webvuln_version::Version;

    fn dep(lib: LibraryId, version: &str) -> Deployment {
        Deployment {
            library: lib,
            version: Version::parse(version).expect("version"),
            inclusion: Inclusion::Internal,
            integrity: false,
            crossorigin: None,
            via_wordpress: false,
            version_visible: true,
            inlined: false,
        }
    }

    fn at(d: &Deployment) -> Deployed<'_> {
        Deployed {
            deployment: d,
            version: &d.version,
        }
    }

    fn base_state() -> DomainState<'static> {
        DomainState {
            online: true,
            antibot: false,
            deployments: vec![],
            wordpress: None,
            flash: None,
            github_script: None,
            extra_scripts: &[],
            resources: ResourceFlags {
                javascript: true,
                css: true,
                favicon: true,
                imported_html: false,
                xml: false,
                svg: false,
                axd: false,
            },
        }
    }

    #[test]
    fn internal_url_carries_version() {
        let d = dep(LibraryId::JQuery, "1.12.4");
        assert_eq!(
            script_url("a.com", &at(&d)),
            "/assets/js/jquery-1.12.4.min.js"
        );
    }

    #[test]
    fn wordpress_url_uses_query_version() {
        let mut d = dep(LibraryId::JQuery, "3.5.1");
        d.via_wordpress = true;
        assert_eq!(
            script_url("a.com", &at(&d)),
            "/wp-includes/js/jquery/jquery.min.js?ver=3.5.1"
        );
    }

    #[test]
    fn cdn_urls_follow_host_conventions() {
        let mut d = dep(LibraryId::JQuery, "3.5.1");
        d.inclusion = Inclusion::External {
            host: "ajax.googleapis.com".into(),
            cdn: true,
        };
        assert_eq!(
            script_url("a.com", &at(&d)),
            "https://ajax.googleapis.com/ajax/libs/jquery/3.5.1/jquery.min.js"
        );
        let mut d = dep(LibraryId::Bootstrap, "3.3.7");
        d.inclusion = Inclusion::External {
            host: "maxcdn.bootstrapcdn.com".into(),
            cdn: true,
        };
        assert_eq!(
            script_url("a.com", &at(&d)),
            "https://maxcdn.bootstrapcdn.com/bootstrap/3.3.7/js/bootstrap.min.js"
        );
        let mut d = dep(LibraryId::MomentJs, "2.18.1");
        d.inclusion = Inclusion::External {
            host: "cdnjs.cloudflare.com".into(),
            cdn: true,
        };
        assert_eq!(
            script_url("a.com", &at(&d)),
            "https://cdnjs.cloudflare.com/ajax/libs/moment.js/2.18.1/moment.min.js"
        );
    }

    #[test]
    fn hidden_version_is_really_hidden() {
        let mut d = dep(LibraryId::JQuery, "1.12.4");
        d.version_visible = false;
        assert!(!script_url("a.com", &at(&d)).contains("1.12.4"));
        d.inclusion = Inclusion::External {
            host: "ajax.googleapis.com".into(),
            cdn: true,
        };
        let url = script_url("a.com", &at(&d));
        assert!(!url.contains("1.12.4"), "{url}");
    }

    #[test]
    fn page_contains_core_structure_and_clears_threshold() {
        let mut state = base_state();
        let d = dep(LibraryId::JQuery, "1.12.4");
        state.deployments.push(at(&d));
        let page = render_page("news1.example", 10, &state);
        assert!(page.len() >= 400, "{} bytes", page.len());
        assert!(page.contains("<!DOCTYPE html>"));
        assert!(page.contains("jquery-1.12.4.min.js"));
        assert!(page.contains("style.css"));
        assert!(page.contains("favicon.ico"));
    }

    #[test]
    fn wordpress_page_has_generator_meta() {
        let mut state = base_state();
        let wp = Version::parse("5.6").expect("version");
        state.wordpress = Some(&wp);
        let page = render_page("wp.example", 0, &state);
        assert!(page.contains("content=\"WordPress 5.6\""));
        assert!(page.contains("style.css?ver=5.6"));
    }

    #[test]
    fn flash_markup_includes_script_access() {
        let mut state = base_state();
        let flash = FlashState {
            swf_url: "/media/banner.swf".into(),
            allow_script_access: Some("always".into()),
        };
        state.flash = Some(&flash);
        let page = render_page("f.example", 0, &state);
        assert!(page.contains("banner.swf"));
        assert!(page.contains("AllowScriptAccess"));
        assert!(page.contains("value=\"always\""));
        assert!(page.contains("<embed"));
    }

    #[test]
    fn sri_attributes_render() {
        let mut state = base_state();
        let mut d = dep(LibraryId::Bootstrap, "4.3.1");
        d.inclusion = Inclusion::External {
            host: "stackpath.bootstrapcdn.com".into(),
            cdn: true,
        };
        d.integrity = true;
        d.crossorigin = Some("anonymous".into());
        state.deployments.push(at(&d));
        let page = render_page("s.example", 0, &state);
        assert!(page.contains("integrity=\"sha384-"));
        assert!(page.contains("crossorigin=\"anonymous\""));
    }

    #[test]
    fn github_script_renders() {
        let mut state = base_state();
        let gh = GithubScript {
            url_path: "malsup.github.com/jquery.form.js".into(),
            integrity: false,
        };
        state.github_script = Some(&gh);
        let page = render_page("g.example", 0, &state);
        assert!(page.contains("https://malsup.github.com/jquery.form.js"));
    }

    #[test]
    fn antibot_page_is_under_threshold() {
        assert!(antibot_page().len() < 400);
        assert!(antibot_page().contains("Not allowed"));
    }

    #[test]
    fn inlined_library_renders_banner_not_url() {
        let mut state = base_state();
        let mut d = dep(LibraryId::JQuery, "1.12.4");
        d.inlined = true;
        state.deployments.push(at(&d));
        let page = render_page("i.example", 0, &state);
        assert!(page.contains("/*! jQuery v1.12.4"), "{page}");
        assert!(!page.contains("jquery-1.12.4.min.js"));
    }

    #[test]
    fn banner_coverage_matches_flag() {
        let v = Version::parse("2.0").expect("version");
        for lib in LibraryId::ALL {
            let mut banner = String::new();
            assert_eq!(
                push_inline_banner(&mut banner, lib, &v),
                has_inline_banner(lib),
                "{lib}"
            );
            assert_eq!(banner.is_empty(), !has_inline_banner(lib), "{lib}");
        }
        assert!(has_inline_banner(LibraryId::JQuery));
        assert!(!has_inline_banner(LibraryId::JsCookie));
    }

    #[test]
    fn rendering_is_deterministic() {
        let mut state = base_state();
        let d = dep(LibraryId::Underscore, "1.8.3");
        state.deployments.push(at(&d));
        assert_eq!(
            render_page("d.example", 3, &state),
            render_page("d.example", 3, &state)
        );
        assert_ne!(
            render_page("d.example", 3, &state),
            render_page("d.example", 4, &state),
            "week is visible in content"
        );
    }
}
