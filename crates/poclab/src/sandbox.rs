//! The controlled experiment environment: a miniature DOM sandbox that
//! observes script execution, plus a tiny JavaScript object model for
//! prototype-pollution experiments.
//!
//! The paper set up 85 browser environments, one per jQuery version, and
//! watched whether each PoC fired (`alert(...)`). The sandbox plays the
//! browser's role: PoCs hand it markup produced by the version-modelled
//! library code, it walks the real DOM (parsed by `webvuln-html`), and
//! records which scripts and event handlers would run.

use std::collections::BTreeMap;
use webvuln_html::{Document, Element, Node};
use webvuln_pattern::Pattern;

/// Execution observations for one PoC run.
#[derive(Debug, Default)]
pub(crate) struct Sandbox {
    /// Script bodies that were evaluated.
    pub(crate) executed: Vec<String>,
    /// Arguments of observed `alert(...)` calls — the exploit beacon.
    pub(crate) alerts: Vec<String>,
}

impl Sandbox {
    /// A fresh environment.
    pub(crate) fn new() -> Sandbox {
        Sandbox::default()
    }

    /// Evaluates a script body: records it and extracts `alert()` beacons.
    pub(crate) fn eval_script(&mut self, source: &str) {
        static ALERT: std::sync::OnceLock<Pattern> = std::sync::OnceLock::new();
        let alert = ALERT
            .get_or_init(|| Pattern::new(r#"alert\(\s*['"]?([^'")]*)"#).expect("static pattern"));
        if let Some(caps) = alert.captures(source) {
            self.alerts.push(caps.get(1).unwrap_or("").to_string());
        }
        self.executed.push(source.to_string());
    }

    /// Inserts parsed markup into the document: `<script>` elements are
    /// evaluated (matching `domManip`/`globalEval` semantics), but event
    /// handlers do **not** fire — that needs [`Sandbox::fire_error_events`].
    pub(crate) fn insert_markup(&mut self, doc: &Document) {
        for element in doc.elements() {
            if element.name == "script" {
                let body = element.text_content();
                if !body.trim().is_empty() {
                    self.eval_script(&body);
                }
            }
        }
    }

    /// Models the browser firing `onerror` for broken images and `on*`
    /// mouse handlers the PoC can trigger: any element carrying an
    /// event-handler attribute executes it.
    pub(crate) fn fire_error_events(&mut self, doc: &Document) {
        for element in doc.elements() {
            for (name, value) in &element.attrs {
                if name.starts_with("on") && !value.trim().is_empty() {
                    self.eval_script(value);
                }
            }
        }
    }

    /// Convenience: insert markup and fire events, as a DOM insertion of
    /// attacker-controlled HTML would end up doing.
    pub(crate) fn insert_and_fire(&mut self, html: &str) {
        let doc = Document::parse(html);
        self.insert_markup(&doc);
        self.fire_error_events(&doc);
    }

    /// True when any alert beacon fired — the exploit succeeded.
    pub(crate) fn exploited(&self) -> bool {
        !self.alerts.is_empty()
    }
}

/// HTML-escapes text (what a safe sink does with untrusted input).
pub(crate) fn escape_html(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            c => out.push(c),
        }
    }
    out
}

/// Serializes a parsed DOM back to markup (used by sanitizer models).
pub(crate) fn serialize(doc: &Document) -> String {
    let mut out = String::new();
    for node in &doc.children {
        serialize_node(node, &mut out);
    }
    out
}

fn serialize_node(node: &Node, out: &mut String) {
    match node {
        Node::Text(t) => out.push_str(t),
        Node::Comment(c) => {
            out.push_str("<!--");
            out.push_str(c);
            out.push_str("-->");
        }
        Node::Element(e) => serialize_element(e, out),
    }
}

fn serialize_element(e: &Element, out: &mut String) {
    out.push('<');
    out.push_str(&e.name);
    for (k, v) in &e.attrs {
        out.push(' ');
        out.push_str(k);
        if !v.is_empty() {
            out.push_str("=\"");
            out.push_str(&escape_html(v));
            out.push('"');
        }
    }
    out.push('>');
    for child in &e.children {
        serialize_node(child, out);
    }
    out.push_str("</");
    out.push_str(&e.name);
    out.push('>');
}

/// A JavaScript value in the miniature object model.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JsValue {
    /// Boolean.
    Bool(bool),
    /// Nested object (own properties only).
    Object(BTreeMap<String, JsValue>),
}

/// A JavaScript realm: `Object.prototype` shared by every plain object —
/// the thing prototype pollution corrupts.
#[derive(Debug, Default)]
pub(crate) struct JsRealm {
    /// Properties on `Object.prototype`.
    pub(crate) object_prototype: BTreeMap<String, JsValue>,
}

impl JsRealm {
    /// A clean realm.
    pub(crate) fn new() -> JsRealm {
        JsRealm::default()
    }

    /// True when the prototype carries `key` — pollution detector.
    pub(crate) fn is_polluted(&self, key: &str) -> bool {
        self.object_prototype.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alert_beacons_are_captured() {
        let mut sb = Sandbox::new();
        sb.eval_script("alert('xss-1'); doOtherThings();");
        sb.eval_script("console.log('quiet')");
        assert_eq!(sb.alerts, vec!["xss-1"]);
        assert_eq!(sb.executed.len(), 2);
        assert!(sb.exploited());
    }

    #[test]
    fn inserted_scripts_execute_but_handlers_wait() {
        let mut sb = Sandbox::new();
        let doc = Document::parse(
            r#"<div><script>alert("from-script")</script><img src=x onerror="alert('handler')"></div>"#,
        );
        sb.insert_markup(&doc);
        assert_eq!(sb.alerts, vec!["from-script"]);
        sb.fire_error_events(&doc);
        assert_eq!(sb.alerts, vec!["from-script", "handler"]);
    }

    #[test]
    fn raw_text_keeps_markup_inert() {
        // Markup trapped inside <style> raw text must not execute.
        let mut sb = Sandbox::new();
        sb.insert_and_fire("<style><img src=x onerror=alert(1)></style>");
        assert!(!sb.exploited());
    }

    #[test]
    fn escape_html_neutralizes_sinks() {
        let escaped = escape_html("<img src=x onerror=alert(1)>");
        let mut sb = Sandbox::new();
        sb.insert_and_fire(&escaped);
        assert!(!sb.exploited());
        assert!(escaped.contains("&lt;img"));
    }

    #[test]
    fn serialize_round_trips_structure() {
        let doc = Document::parse(r#"<div class="a"><b>hi</b> there</div>"#);
        let s = serialize(&doc);
        assert!(s.contains("<div class=\"a\">"));
        assert!(s.contains("<b>hi</b>"));
        assert!(s.contains("there"));
    }
}
