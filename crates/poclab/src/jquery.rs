//! Version-parameterized model of the jQuery code paths the study's CVEs
//! hinge on.
//!
//! Each method re-implements, in Rust, the observable behaviour of the
//! corresponding jQuery internals *as they changed across releases*: the
//! `rquickExpr` HTML-vs-selector decision, the `htmlPrefilter`
//! self-closing-tag expansion, `.load()` script evaluation, cross-domain
//! script auto-execution, and `$.extend(true, …)` deep merge. PoCs drive
//! these models exactly the way the paper's PoC pages drive real jQuery
//! builds, and exploit success is judged by the sandbox, not by a table.

use crate::sandbox::{JsRealm, JsValue, Sandbox};
use crate::{in_range, v};
use std::collections::BTreeMap;
use webvuln_html::Document;
use webvuln_pattern::Pattern;
use webvuln_version::Version;

/// One jQuery "build" at a specific version.
pub(crate) struct JQuery {
    version: Version,
}

impl JQuery {
    /// Instantiates the model for `version`.
    pub(crate) fn at(version: &Version) -> JQuery {
        JQuery {
            version: version.clone(),
        }
    }

    /// `jQuery(input)`: does this build treat `input` as HTML?
    ///
    /// Three `quickExpr` eras:
    /// * `< 1.6.3` — `^[^<]*(<(?:.|\n)+>)[^>]*$`: anything containing a tag
    ///   counts as HTML, including `#<img …>` from `location.hash`
    ///   (CVE-2011-4969).
    /// * `1.6.3 – 1.9.0` — the prefix may no longer contain `#`, closing
    ///   the hash vector but still accepting `text<img …>` smuggling
    ///   (CVE-2012-6708's true range, `< 1.9.0`).
    /// * `≥ 1.9.0` — HTML must start with `<`.
    pub(crate) fn interprets_as_html(&self, input: &str) -> bool {
        if self.version >= v("1.9.0") {
            let strict = Pattern::new(r"^\s*(<(?:.|\n)+>)[^>]*$").expect("static pattern");
            strict.is_match(input)
        } else if self.version >= v("1.6.3") {
            let hashless = Pattern::new(r"^[^#<]*(<(?:.|\n)+>)[^>]*$").expect("static pattern");
            hashless.is_match(input)
        } else {
            let legacy = Pattern::new(r"^[^<]*(<(?:.|\n)+>)[^>]*$").expect("static pattern");
            legacy.is_match(input)
        }
    }

    /// `jQuery.htmlPrefilter`: before 3.5.0 it expanded XHTML-style
    /// self-closing tags (`<style/>` → `<style></style>`), mutating markup
    /// in a way that lets payloads escape raw-text contexts
    /// (CVE-2020-11022 / CVE-2020-11023). 3.5.0 made it the identity.
    pub(crate) fn html_prefilter(&self, html: &str) -> String {
        if self.version >= v("3.5.0") {
            return html.to_string();
        }
        expand_self_closing(html)
    }

    /// Whether the `.html()` / manipulation path routes through the buggy
    /// prefilter at all (the CVE-2020-11022 precondition; the rewritten
    /// `rxhtmlTag` shipped with 1.12.0).
    pub(crate) fn html_method_uses_prefilter(&self) -> bool {
        in_range(&self.version, "1.12.0", "3.5.0")
    }

    /// Whether `jQuery.parseHTML`-style fragment building (the
    /// CVE-2020-11023 `<option>` path) routes through the buggy prefilter
    /// (present since 1.4.0).
    pub(crate) fn fragment_uses_prefilter(&self) -> bool {
        in_range(&self.version, "1.4.0", "3.5.0")
    }

    /// `$(el).html(untrusted)`: prefilters (by version), parses, inserts
    /// into the sandbox, and lets broken-image handlers fire.
    pub(crate) fn html_method(&self, sandbox: &mut Sandbox, html: &str) {
        let markup = if self.html_method_uses_prefilter() {
            self.html_prefilter(html)
        } else if self.version >= v("3.5.0") {
            html.to_string()
        } else {
            // Pre-1.12 builds used an innerHTML fast path without the
            // rewriting regex for this sink.
            html.to_string()
        };
        sandbox.insert_and_fire(&markup);
    }

    /// Fragment building with `<option>` content (CVE-2020-11023 path).
    pub(crate) fn build_fragment(&self, sandbox: &mut Sandbox, html: &str) {
        let markup = if self.fragment_uses_prefilter() {
            self.html_prefilter(html)
        } else {
            html.to_string()
        };
        sandbox.insert_and_fire(&markup);
    }

    /// `$(sel).load(url)` with a response body: before 3.6.0, scripts in
    /// the response are evaluated when no selector suffix is given
    /// (CVE-2020-7656's true reach — the paper's re-implemented PoC).
    pub(crate) fn load(&self, sandbox: &mut Sandbox, response_html: &str) {
        let doc = Document::parse(response_html);
        if self.version < v("3.6.0") {
            sandbox.insert_markup(&doc); // evaluates <script> bodies
        }
        sandbox.fire_error_events(&doc);
    }

    /// `jQuery(input)` end-to-end: selector → inert; HTML → DOM insertion
    /// with handlers firing.
    pub(crate) fn construct(&self, sandbox: &mut Sandbox, input: &str) {
        if self.interprets_as_html(input) {
            // Strip the non-HTML prefix like jQuery's fragment builder.
            let at = input.find('<').unwrap_or(0);
            sandbox.insert_and_fire(&input[at..]);
        }
    }

    /// The `<option>` runtime creation path of CVE-2014-6071: between
    /// 1.5.0 and 2.2.4 the select-wrapper fragment path attached
    /// attacker-controlled attributes live.
    pub(crate) fn create_option_element(&self, sandbox: &mut Sandbox, option_markup: &str) {
        let vulnerable = in_range(&self.version, "1.5.0", "2.2.4");
        if vulnerable {
            sandbox.insert_and_fire(option_markup);
        } else {
            sandbox.insert_and_fire(&crate::sandbox::escape_html(option_markup));
        }
    }

    /// Cross-domain `$.ajax` auto-executing `text/javascript` responses
    /// (CVE-2015-9251's range as reported: 1.12.0 ≤ v < 3.0.0).
    pub(crate) fn ajax_cross_domain(&self, sandbox: &mut Sandbox, content_type: &str, body: &str) {
        let auto_executes = in_range(&self.version, "1.12.0", "3.0.0");
        if auto_executes && content_type.eq_ignore_ascii_case("text/javascript") {
            sandbox.eval_script(body);
        }
    }

    /// `$.extend(true, target, source)`: before 3.4.0 a `__proto__` key in
    /// `source` merges into `Object.prototype` (CVE-2019-11358).
    pub(crate) fn extend_deep(
        &self,
        realm: &mut JsRealm,
        target: &mut BTreeMap<String, JsValue>,
        source: &BTreeMap<String, JsValue>,
    ) {
        for (key, value) in source {
            if key == "__proto__" {
                if self.version < v("3.4.0") {
                    if let JsValue::Object(proto_fields) = value {
                        for (k, val) in proto_fields {
                            realm.object_prototype.insert(k.clone(), val.clone());
                        }
                    }
                }
                // ≥ 3.4.0: jQuery skips the key entirely.
                continue;
            }
            match (target.get_mut(key), value) {
                (Some(JsValue::Object(dst)), JsValue::Object(src)) => {
                    let mut nested = std::mem::take(dst);
                    self.extend_deep(realm, &mut nested, src);
                    target.insert(key.clone(), JsValue::Object(nested));
                }
                _ => {
                    target.insert(key.clone(), value.clone());
                }
            }
        }
    }

    /// `location.hash`-based construction guard (CVE-2011-4969): before
    /// 1.6.3, `$(location.hash)` parsed the fragment as HTML.
    pub(crate) fn construct_from_location_hash(&self, sandbox: &mut Sandbox, hash: &str) {
        if self.version < v("1.6.3") {
            // Pre-1.6.3 quickExpr accepted `#<tag>` as HTML.
            let at = hash.find('<').unwrap_or(0);
            if hash.contains('<') {
                sandbox.insert_and_fire(&hash[at..]);
            }
        } else {
            self.construct(sandbox, hash);
        }
    }
}

/// Expands XHTML self-closing tags of non-void elements — the behaviour of
/// jQuery's pre-3.5.0 `rxhtmlTag` replace.
fn expand_self_closing(html: &str) -> String {
    let tag = Pattern::new(r"<([a-zA-Z][\w:-]*)((?:[^>])*?)/>").expect("static pattern");
    let mut out = String::with_capacity(html.len());
    let mut last = 0;
    for caps in tag.captures_iter(html) {
        let m = caps.get_match();
        let name = caps.get(1).unwrap_or("");
        if is_void_element(name) {
            continue; // keep void elements as-is
        }
        out.push_str(&html[last..m.start()]);
        let attrs = caps.get(2).unwrap_or("");
        out.push_str(&format!("<{name}{attrs}></{name}>"));
        last = m.end();
    }
    out.push_str(&html[last..]);
    out
}

fn is_void_element(name: &str) -> bool {
    matches!(
        name.to_ascii_lowercase().as_str(),
        "area"
            | "base"
            | "br"
            | "col"
            | "embed"
            | "hr"
            | "img"
            | "input"
            | "link"
            | "meta"
            | "param"
            | "source"
            | "track"
            | "wbr"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jq(ver: &str) -> JQuery {
        JQuery::at(&v(ver))
    }

    #[test]
    fn rquickexpr_era_split() {
        // Hash smuggling (`#<img …>`) — fixed in 1.6.3.
        let hash = "#<img src=x onerror=alert(1)>";
        assert!(jq("1.6.2").interprets_as_html(hash));
        assert!(!jq("1.6.3").interprets_as_html(hash));
        assert!(!jq("1.8.3").interprets_as_html(hash));
        // Plain-prefix smuggling (`x<img …>`) — fixed in 1.9.0.
        let prefix = "x<img src=x onerror=alert(1)>";
        assert!(jq("1.6.2").interprets_as_html(prefix));
        assert!(jq("1.8.3").interprets_as_html(prefix));
        assert!(!jq("1.9.0").interprets_as_html(prefix));
        assert!(!jq("3.5.1").interprets_as_html(prefix));
        // Plain HTML is HTML everywhere.
        assert!(jq("1.6.2").interprets_as_html("<p>x</p>"));
        assert!(jq("3.5.1").interprets_as_html("<p>x</p>"));
        // Plain selectors are never HTML.
        assert!(!jq("1.6.2").interprets_as_html("#main"));
        assert!(!jq("3.5.1").interprets_as_html(".cls > li"));
    }

    #[test]
    fn prefilter_expands_only_before_350() {
        let payload = "<style><style/><img src=x onerror=alert(1)>";
        let expanded = jq("1.12.4").html_prefilter(payload);
        assert!(expanded.contains("<style></style>"), "{expanded}");
        let untouched = jq("3.5.0").html_prefilter(payload);
        assert_eq!(untouched, payload);
        // Void elements are never expanded.
        let br = jq("1.12.4").html_prefilter("a<br/>b");
        assert_eq!(br, "a<br/>b");
    }

    #[test]
    fn mutation_xss_fires_only_in_vulnerable_builds() {
        let payload = "<style><style/><img src=x onerror=alert(1)></style>";
        let mut sb = Sandbox::new();
        jq("1.12.4").html_method(&mut sb, payload);
        assert!(sb.exploited(), "1.12.4 is vulnerable to CVE-2020-11022");

        let mut sb = Sandbox::new();
        jq("3.5.0").html_method(&mut sb, payload);
        assert!(!sb.exploited(), "3.5.0 carries the fix");

        let mut sb = Sandbox::new();
        jq("1.4.2").html_method(&mut sb, payload);
        assert!(
            !sb.exploited(),
            "pre-1.12 html() path is not affected (TVV)"
        );
    }

    #[test]
    fn load_evaluates_scripts_until_360() {
        let response = "<div>ok</div><script>alert('CVE-2020-7656')</script>";
        for ver in ["1.8.3", "1.12.4", "2.2.3", "3.5.1"] {
            let mut sb = Sandbox::new();
            jq(ver).load(&mut sb, response);
            assert!(sb.exploited(), "{ver} executes load() scripts");
        }
        let mut sb = Sandbox::new();
        jq("3.6.0").load(&mut sb, response);
        assert!(!sb.exploited(), "3.6.0 stops evaluating");
    }

    #[test]
    fn proto_pollution_blocked_from_340() {
        let mut source = BTreeMap::new();
        let mut proto = BTreeMap::new();
        proto.insert("isAdmin".to_string(), JsValue::Bool(true));
        source.insert("__proto__".to_string(), JsValue::Object(proto));

        let mut realm = JsRealm::new();
        let mut target = BTreeMap::new();
        jq("3.3.1").extend_deep(&mut realm, &mut target, &source);
        assert!(realm.is_polluted("isAdmin"), "3.3.1 pollutes");

        let mut realm = JsRealm::new();
        let mut target = BTreeMap::new();
        jq("3.4.0").extend_deep(&mut realm, &mut target, &source);
        assert!(!realm.is_polluted("isAdmin"), "3.4.0 skips __proto__");
        assert!(!target.contains_key("__proto__"));
    }

    #[test]
    fn extend_deep_still_merges_normal_keys() {
        let mut source = BTreeMap::new();
        source.insert("a".to_string(), JsValue::Bool(false));
        let mut nested = BTreeMap::new();
        nested.insert("inner".to_string(), JsValue::Bool(false));
        source.insert("obj".to_string(), JsValue::Object(nested));

        let mut realm = JsRealm::new();
        let mut target = BTreeMap::new();
        let mut existing = BTreeMap::new();
        existing.insert("keep".to_string(), JsValue::Bool(true));
        target.insert("obj".to_string(), JsValue::Object(existing));
        jq("3.4.0").extend_deep(&mut realm, &mut target, &source);
        assert_eq!(target.get("a"), Some(&JsValue::Bool(false)));
        match target.get("obj") {
            Some(JsValue::Object(o)) => {
                assert_eq!(o.get("keep"), Some(&JsValue::Bool(true)));
                assert_eq!(o.get("inner"), Some(&JsValue::Bool(false)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn option_runtime_range() {
        let payload = r#"<option value="x" onmouseover="alert('CVE-2014-6071')">x</option>"#;
        for (ver, hit) in [
            ("1.4.2", false),
            ("1.5.0", true),
            ("2.2.3", true),
            ("2.2.4", false),
        ] {
            let mut sb = Sandbox::new();
            jq(ver).create_option_element(&mut sb, payload);
            assert_eq!(sb.exploited(), hit, "{ver}");
        }
    }

    #[test]
    fn cross_domain_autoexec_range() {
        for (ver, hit) in [
            ("1.11.3", false),
            ("1.12.0", true),
            ("2.2.4", true),
            ("3.0.0", false),
        ] {
            let mut sb = Sandbox::new();
            jq(ver).ajax_cross_domain(&mut sb, "text/javascript", "alert('CVE-2015-9251')");
            assert_eq!(sb.exploited(), hit, "{ver}");
        }
        // Non-script content types never execute.
        let mut sb = Sandbox::new();
        jq("1.12.4").ajax_cross_domain(&mut sb, "text/plain", "alert(1)");
        assert!(!sb.exploited());
    }

    #[test]
    fn hash_construction_range() {
        let hash = "#<img src=x onerror=alert('CVE-2011-4969')>";
        let mut sb = Sandbox::new();
        jq("1.6.2").construct_from_location_hash(&mut sb, hash);
        assert!(sb.exploited());
        let mut sb = Sandbox::new();
        jq("1.9.1").construct_from_location_hash(&mut sb, hash);
        assert!(!sb.exploited());
    }
}
