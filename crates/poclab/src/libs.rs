//! Version-parameterized models of the non-jQuery libraries in the CVE
//! corpus: Bootstrap, jQuery-UI, jQuery-Migrate, Underscore, Moment.js and
//! Prototype.
//!
//! As with [`crate::jquery`], each model re-implements the observable
//! behaviour of the vulnerable code path per release era; PoCs judge
//! exploitability through the sandbox (or, for the denial-of-service
//! CVEs, through the step counter of the backtracking matcher).

use crate::sandbox::{escape_html, serialize, Sandbox};
use crate::{in_range, v};
use webvuln_html::{Document, Element, Node};
use webvuln_pattern::{Backtracker, BtOutcome, Pattern};
use webvuln_version::Version;

// ---------------------------------------------------------------------
// Bootstrap
// ---------------------------------------------------------------------

/// One Bootstrap build.
pub(crate) struct Bootstrap {
    version: Version,
}

impl Bootstrap {
    /// Instantiates the model.
    pub(crate) fn at(version: &Version) -> Bootstrap {
        Bootstrap {
            version: version.clone(),
        }
    }

    /// Whether this build ships the 3.4.1/4.3.1 template sanitizer
    /// (CVE-2019-8331's fix).
    pub(crate) fn has_sanitizer(&self) -> bool {
        (self.version >= v("3.4.1") && self.version < v("4.0.0")) || self.version >= v("4.3.1")
    }

    /// Tooltip/popover rendering with an attacker-supplied template
    /// (CVE-2019-8331): sanitized builds strip scripts and event-handler
    /// attributes using a real allow-list walk over the parsed DOM.
    pub(crate) fn render_tooltip_template(&self, sandbox: &mut Sandbox, template: &str) {
        if self.has_sanitizer() {
            let doc = Document::parse(template);
            let clean = sanitize(&doc);
            sandbox.insert_and_fire(&clean);
        } else {
            sandbox.insert_and_fire(template);
        }
    }

    /// Collapse `data-parent` selector injection (CVE-2018-20676/20677):
    /// the affected code shipped with 3.2.0 and was fixed in 3.4.0 — the
    /// CVE's claimed `< 3.4.0` overstates the early 3.x line.
    pub(crate) fn collapse_data_parent(&self, sandbox: &mut Sandbox, selector: &str) {
        if in_range(&self.version, "3.2.0", "3.4.0") {
            // Vulnerable builds pass the selector into $() unescaped.
            if selector.contains('<') {
                let at = selector.find('<').expect("checked");
                sandbox.insert_and_fire(&selector[at..]);
            }
        }
    }

    /// Tooltip `data-container`/`data-target` injection
    /// (CVE-2018-14040/14042): present from 2.3.0, fixed in 4.1.2.
    pub(crate) fn data_target_selector(&self, sandbox: &mut Sandbox, selector: &str) {
        if in_range(&self.version, "2.3.0", "4.1.2") && selector.contains('<') {
            let at = selector.find('<').expect("checked");
            sandbox.insert_and_fire(&selector[at..]);
        }
    }

    /// Tooltip `data-viewport` injection (CVE-2018-14041): claimed
    /// `< 4.1.2`, not re-measured by the paper.
    pub(crate) fn data_viewport_selector(&self, sandbox: &mut Sandbox, selector: &str) {
        if self.version < v("4.1.2") && selector.contains('<') {
            let at = selector.find('<').expect("checked");
            sandbox.insert_and_fire(&selector[at..]);
        }
    }

    /// Affix/ScrollSpy `data-target` (CVE-2016-10735): the affected
    /// attribute handling shipped with 2.1.0, fixed in 3.4.0.
    pub(crate) fn affix_data_target(&self, sandbox: &mut Sandbox, selector: &str) {
        if in_range(&self.version, "2.1.0", "3.4.0") && selector.contains('<') {
            let at = selector.find('<').expect("checked");
            sandbox.insert_and_fire(&selector[at..]);
        }
    }
}

/// Bootstrap's 3.4.1+ sanitizer: allow-list of elements, strip `on*`
/// attributes, `javascript:` URLs and `<script>` elements.
fn sanitize(doc: &Document) -> String {
    fn clean_element(e: &Element, out: &mut Vec<Node>) {
        if e.name == "script" {
            return; // dropped entirely
        }
        let attrs: Vec<(String, String)> = e
            .attrs
            .iter()
            .filter(|(k, val)| {
                if k.starts_with("on") {
                    return false;
                }
                let url_attr = k == "href" || k == "src";
                let js_url = val
                    .trim_start()
                    .to_ascii_lowercase()
                    .starts_with("javascript:");
                !(url_attr && js_url)
            })
            .cloned()
            .collect();
        let mut children = Vec::new();
        for child in &e.children {
            clean_node(child, &mut children);
        }
        out.push(Node::Element(Element {
            name: e.name.clone(),
            attrs,
            children,
        }));
    }
    fn clean_node(node: &Node, out: &mut Vec<Node>) {
        match node {
            Node::Element(e) => clean_element(e, out),
            other => out.push(other.clone()),
        }
    }
    let mut children = Vec::new();
    for node in &doc.children {
        clean_node(node, &mut children);
    }
    serialize(&Document { children })
}

// ---------------------------------------------------------------------
// jQuery-UI
// ---------------------------------------------------------------------

/// One jQuery-UI build.
pub(crate) struct JQueryUi {
    version: Version,
}

impl JQueryUi {
    /// Instantiates the model.
    pub(crate) fn at(version: &Version) -> JQueryUi {
        JQueryUi {
            version: version.clone(),
        }
    }

    /// Dialog `closeText` sink (CVE-2016-7103). The paper's experiment
    /// shows the *true* range is `[1.10.0, 1.13.0)` — both earlier and
    /// later builds escape the text; the CVE claims `< 1.12.0`.
    pub(crate) fn dialog_close_text(&self, sandbox: &mut Sandbox, close_text: &str) {
        if in_range(&self.version, "1.10.0", "1.13.0") {
            sandbox.insert_and_fire(close_text);
        } else {
            sandbox.insert_and_fire(&escape_html(close_text));
        }
    }

    /// Dialog `title` sink (CVE-2010-5312 / CVE-2012-6662): `< 1.10.0`.
    pub(crate) fn dialog_title(&self, sandbox: &mut Sandbox, title: &str) {
        if self.version < v("1.10.0") {
            sandbox.insert_and_fire(title);
        } else {
            sandbox.insert_and_fire(&escape_html(title));
        }
    }

    /// `*-of`-option sinks (CVE-2021-41182/41183/41184): `< 1.13.0`.
    pub(crate) fn position_of_option(&self, sandbox: &mut Sandbox, value: &str) {
        if self.version < v("1.13.0") {
            if value.contains('<') {
                let at = value.find('<').expect("checked");
                sandbox.insert_and_fire(&value[at..]);
            }
        } else {
            sandbox.insert_and_fire(&escape_html(value));
        }
    }
}

// ---------------------------------------------------------------------
// jQuery-Migrate
// ---------------------------------------------------------------------

/// One jQuery-Migrate build (paired with a modern jQuery core).
pub(crate) struct JQueryMigrate {
    version: Version,
}

impl JQueryMigrate {
    /// Instantiates the model.
    pub(crate) fn at(version: &Version) -> JQueryMigrate {
        JQueryMigrate {
            version: version.clone(),
        }
    }

    /// Migrate re-enables the legacy "HTML anywhere in the string" jQuery
    /// construction semantics. The advisory claims only `< 1.2.1`, but the
    /// paper measured the relaxation in every 1.x/2.x build (fixed in the
    /// 3.0.0 rewrite): `[1.0.0, 3.0.0)`.
    pub(crate) fn construct_with_migrate(&self, sandbox: &mut Sandbox, input: &str) {
        let relaxed = in_range(&self.version, "1.0.0", "3.0.0");
        if relaxed {
            let legacy = Pattern::new(r"^[^<]*(<(?:.|\n)+>)[^>]*$").expect("static pattern");
            if legacy.is_match(input) {
                let at = input.find('<').unwrap_or(0);
                sandbox.insert_and_fire(&input[at..]);
            }
        }
        // ≥ 3.0.0: the relaxation is gone; the core's strict rules apply
        // (modelled as inert here since the PoC input is selector-shaped).
    }
}

// ---------------------------------------------------------------------
// Underscore
// ---------------------------------------------------------------------

/// One Underscore build.
pub(crate) struct Underscore {
    version: Version,
}

impl Underscore {
    /// Instantiates the model.
    pub(crate) fn at(version: &Version) -> Underscore {
        Underscore {
            version: version.clone(),
        }
    }

    /// `_.template(text, {variable: …})` (CVE-2021-23358): the `variable`
    /// setting is spliced into the compiled function source. Before
    /// 1.12.1 it is not validated, so `obj=alert(1)` escapes the `with`
    /// scope. The setting itself appeared in 1.3.2.
    pub(crate) fn template(
        &self,
        sandbox: &mut Sandbox,
        text: &str,
        variable: &str,
    ) -> Result<String, String> {
        let has_setting = self.version >= v("1.3.2");
        if !has_setting {
            return Ok(format!("with(obj||{{}}){{ render({text:?}) }}"));
        }
        let validated = self.version >= v("1.12.1");
        if validated {
            let ident = Pattern::new(r"^[a-zA-Z_$][0-9a-zA-Z_$]*$").expect("static pattern");
            if !ident.is_match(variable) {
                return Err(format!("variable is not a bare identifier: {variable:?}"));
            }
        }
        let source = format!("with({variable}||{{}}){{ render({text:?}) }}");
        // Compiling the template "runs" the injected source fragment.
        if variable.contains("alert(") {
            sandbox.eval_script(&source);
        }
        Ok(source)
    }
}

// ---------------------------------------------------------------------
// Moment.js — denial of service via backtracking regexes
// ---------------------------------------------------------------------

/// Step budget that separates linear parses from catastrophic ones.
pub(crate) const REDOS_BUDGET: u64 = 200_000;

/// One Moment.js build.
pub(crate) struct Moment {
    version: Version,
}

impl Moment {
    /// Instantiates the model.
    pub(crate) fn at(version: &Version) -> Moment {
        Moment {
            version: version.clone(),
        }
    }

    /// Duration parsing (CVE-2016-4055). The vulnerable `aspNetRegex`
    /// lineage shipped in 2.8.1 and was rewritten in 2.15.2 (the CVE
    /// claims `< 2.11.2` — both understated and overstated). Vulnerable
    /// builds run a catastrophic pattern in a backtracking engine; fixed
    /// builds run an equivalent linear scan.
    pub(crate) fn parse_duration(&self, input: &str) -> (BtOutcome, u64) {
        if in_range(&self.version, "2.8.1", "2.15.2") {
            redos(r"^(?:\d+)*(?:[.,]\d+)?:$", input)
        } else {
            linear_scan(input)
        }
    }

    /// RFC-2822 date parsing (CVE-2017-18214): vulnerable before 2.19.3.
    pub(crate) fn parse_rfc2822(&self, input: &str) -> (BtOutcome, u64) {
        if self.version < v("2.19.3") {
            redos(r"^(?:\s*[A-Za-z]+)+,$", input)
        } else {
            linear_scan(input)
        }
    }
}

// ---------------------------------------------------------------------
// Prototype
// ---------------------------------------------------------------------

/// One Prototype build.
pub(crate) struct Prototype {
    version: Version,
}

impl Prototype {
    /// Instantiates the model.
    pub(crate) fn at(version: &Version) -> Prototype {
        Prototype {
            version: version.clone(),
        }
    }

    /// `stripTags`/`unescapeHTML` (CVE-2020-27511): every released build
    /// carries the catastrophic regex — the project never merged the fix
    /// (the pull request has been pending since 2021).
    pub(crate) fn strip_tags(&self, input: &str) -> (BtOutcome, u64) {
        let _ = &self.version; // all versions share the vulnerable path
        redos(r"^<(?:.+)+>$", input)
    }
}

/// Runs a vulnerable build's regex over `input`, within [`REDOS_BUDGET`] steps.
fn redos(pattern: &str, input: &str) -> (BtOutcome, u64) {
    let regex = Backtracker::new(pattern, false).expect("static pattern");
    let (outcome, steps, _) = regex.search(input, REDOS_BUDGET);
    (outcome, steps)
}

/// A linear-time stand-in for patched parsers: cost proportional to input.
fn linear_scan(input: &str) -> (BtOutcome, u64) {
    let steps = input.len() as u64 + 1;
    let matched = input.ends_with(':') || input.ends_with(',');
    (
        if matched {
            BtOutcome::Matched
        } else {
            BtOutcome::NotMatched
        },
        steps,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const XSS: &str = "<img src=x onerror=alert('poclab')>";

    #[test]
    fn bootstrap_sanitizer_gates_tooltip_xss() {
        let template = format!("<div class=\"tooltip\">{XSS}<script>alert('s')</script></div>");
        for (ver, hit) in [
            ("3.3.7", true),
            ("3.4.0", true),
            ("3.4.1", false),
            ("4.3.0", true),
            ("4.3.1", false),
            ("5.1.3", false),
        ] {
            let mut sb = Sandbox::new();
            Bootstrap::at(&v(ver)).render_tooltip_template(&mut sb, &template);
            assert_eq!(sb.exploited(), hit, "{ver}");
        }
    }

    #[test]
    fn bootstrap_collapse_range_matches_tvv() {
        let payload = format!("#target{XSS}");
        for (ver, hit) in [
            ("3.1.1", false),
            ("3.2.0", true),
            ("3.3.7", true),
            ("3.4.0", false),
        ] {
            let mut sb = Sandbox::new();
            Bootstrap::at(&v(ver)).collapse_data_parent(&mut sb, &payload);
            assert_eq!(sb.exploited(), hit, "{ver}");
        }
    }

    #[test]
    fn bootstrap_data_target_range_matches_tvv() {
        let payload = format!("body{XSS}");
        for (ver, hit) in [
            ("2.2.2", false),
            ("2.3.0", true),
            ("4.1.1", true),
            ("4.1.2", false),
        ] {
            let mut sb = Sandbox::new();
            Bootstrap::at(&v(ver)).data_target_selector(&mut sb, &payload);
            assert_eq!(sb.exploited(), hit, "{ver}");
        }
    }

    #[test]
    fn jqueryui_close_text_matches_tvv() {
        for (ver, hit) in [
            ("1.9.2", false), // TVV: pre-1.10 escapes
            ("1.10.0", true),
            ("1.11.4", true),
            ("1.12.0", true), // claimed-fixed but truly vulnerable
            ("1.12.1", true),
            ("1.13.0", false),
        ] {
            let mut sb = Sandbox::new();
            JQueryUi::at(&v(ver)).dialog_close_text(&mut sb, XSS);
            assert_eq!(sb.exploited(), hit, "{ver}");
        }
    }

    #[test]
    fn jqueryui_title_and_position() {
        let mut sb = Sandbox::new();
        JQueryUi::at(&v("1.9.2")).dialog_title(&mut sb, XSS);
        assert!(sb.exploited());
        let mut sb = Sandbox::new();
        JQueryUi::at(&v("1.10.0")).dialog_title(&mut sb, XSS);
        assert!(!sb.exploited());

        let mut sb = Sandbox::new();
        JQueryUi::at(&v("1.12.1")).position_of_option(&mut sb, &format!("#el{XSS}"));
        assert!(sb.exploited());
        let mut sb = Sandbox::new();
        JQueryUi::at(&v("1.13.0")).position_of_option(&mut sb, &format!("#el{XSS}"));
        assert!(!sb.exploited());
    }

    #[test]
    fn migrate_relaxation_range() {
        let payload = "#sel<img src=x onerror=alert('migrate')>";
        for (ver, hit) in [
            ("1.0.0", true),
            ("1.2.1", true),
            ("1.4.1", true),
            ("3.0.0", false),
            ("3.3.2", false),
        ] {
            let mut sb = Sandbox::new();
            JQueryMigrate::at(&v(ver)).construct_with_migrate(&mut sb, payload);
            assert_eq!(sb.exploited(), hit, "{ver}");
        }
    }

    #[test]
    fn underscore_template_injection_range() {
        let inject = "obj=alert('CVE-2021-23358')";
        for (ver, hit) in [("1.3.1", false), ("1.3.2", true), ("1.12.0", true)] {
            let mut sb = Sandbox::new();
            let _ = Underscore::at(&v(ver)).template(&mut sb, "<%= x %>", inject);
            assert_eq!(sb.exploited(), hit, "{ver}");
        }
        // 1.12.1 rejects the malicious setting outright.
        let mut sb = Sandbox::new();
        let res = Underscore::at(&v("1.12.1")).template(&mut sb, "<%= x %>", inject);
        assert!(res.is_err());
        assert!(!sb.exploited());
        // And accepts a legitimate identifier.
        let ok = Underscore::at(&v("1.12.1")).template(&mut sb, "<%= x %>", "data");
        assert!(ok.is_ok());
    }

    #[test]
    fn moment_duration_redos_range() {
        let evil = format!("{}!", "1".repeat(40));
        for (ver, dos) in [
            ("2.5.1", false),
            ("2.8.1", true),
            ("2.11.2", true),
            ("2.15.2", false),
            ("2.19.3", false),
        ] {
            let (outcome, steps) = Moment::at(&v(ver)).parse_duration(&evil);
            assert_eq!(
                outcome == BtOutcome::BudgetExhausted,
                dos,
                "{ver}: {outcome:?} in {steps} steps"
            );
        }
    }

    #[test]
    fn moment_rfc2822_redos_range() {
        // A single long letter run gives the nested quantifier its
        // exponential split space.
        let evil = format!("{}!", "a".repeat(30));
        let (outcome, _) = Moment::at(&v("2.18.1")).parse_rfc2822(&evil);
        assert_eq!(outcome, BtOutcome::BudgetExhausted);
        let (outcome, steps) = Moment::at(&v("2.19.3")).parse_rfc2822(&evil);
        assert_ne!(outcome, BtOutcome::BudgetExhausted);
        assert!(steps < 1000);
    }

    #[test]
    fn prototype_striptags_always_explodes() {
        let evil = format!("<{}", "x".repeat(30));
        for ver in ["1.5.1", "1.6.1", "1.7.1", "1.7.3"] {
            let (outcome, _) = Prototype::at(&v(ver)).strip_tags(&evil);
            assert_eq!(outcome, BtOutcome::BudgetExhausted, "{ver}");
        }
        // Benign input completes quickly.
        let (outcome, steps) = Prototype::at(&v("1.7.3")).strip_tags("<b>$");
        assert_ne!(outcome, BtOutcome::BudgetExhausted);
        assert!(steps < 10_000);
    }
}
