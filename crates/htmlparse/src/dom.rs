//! Tree construction: turns the token stream into a lightweight DOM.
//!
//! The tree builder is intentionally simple — enough structure for resource
//! extraction (`<script>` inside `<head>`, `<param>` inside `<object>`, …)
//! with browser-like recovery for mismatched end tags. It does not
//! implement the full WHATWG insertion modes. Its rules live in
//! [`OpenElements`], which the one-pass extractor keeps too, so both read
//! the same structure out of the same tokens.

use crate::tokenizer::{decode_entities, Token, Tokenizer};

/// A parsed HTML document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Top-level nodes in document order.
    pub children: Vec<Node>,
}

/// A DOM node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// An element with attributes and children.
    Element(Element),
    /// A text node.
    Text(String),
    /// A comment node.
    Comment(String),
}

/// An element node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    /// Lower-cased tag name.
    pub name: String,
    /// Attributes in document order (names lower-cased).
    pub attrs: Vec<(String, String)>,
    /// Child nodes.
    pub children: Vec<Node>,
}

impl Element {
    /// The value of attribute `name` (case-insensitive), if present.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// True when attribute `name` is present (even if valueless).
    pub fn has_attr(&self, name: &str) -> bool {
        self.attrs.iter().any(|(k, _)| k.eq_ignore_ascii_case(name))
    }

    /// Concatenated text of all descendant text nodes.
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        collect_text(&self.children, &mut out);
        out
    }

    /// Depth-first iterator over descendant elements (excluding `self`).
    pub fn descendants(&self) -> Descendants<'_> {
        Descendants {
            stack: self.children.iter().rev().collect(),
        }
    }
}

fn collect_text(children: &[Node], out: &mut String) {
    for child in children {
        match child {
            Node::Text(t) => out.push_str(t),
            Node::Element(e) => collect_text(&e.children, out),
            Node::Comment(_) => {}
        }
    }
}

/// Maximum element nesting depth. Start tags beyond this depth are
/// flattened (treated as childless) so that adversarially deep documents
/// cannot exhaust the stack via recursive traversal or drop.
const MAX_DEPTH: usize = 256;

/// Void elements never take children (their end tags are ignored).
fn is_void(name: &str) -> bool {
    [
        "area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param",
        "source", "track", "wbr",
    ]
    .iter()
    .any(|void| void.eq_ignore_ascii_case(name))
}

/// What the open-element stack needs of an element.
pub(crate) trait Named {
    /// The tag name, in any case.
    fn name(&self) -> &str;
}

impl Named for Element {
    fn name(&self) -> &str {
        &self.name
    }
}

/// The elements open at a point of the token stream, innermost last, and
/// the rules by which start and end tags change them.
pub(crate) struct OpenElements<E> {
    open: Vec<E>,
}

impl<E: Named> OpenElements<E> {
    pub(crate) fn new() -> Self {
        // Pages nest a few dozen deep: one allocation, not a doubling series.
        OpenElements {
            open: Vec::with_capacity(32),
        }
    }

    /// Whether a start tag named `name` opens an element that takes
    /// children. Void elements and `/>` tags never do, nor does a tag that
    /// would nest deeper than [`MAX_DEPTH`]: it stands alone, and what
    /// follows goes to the element around it.
    pub(crate) fn takes_children(&self, name: &str, self_closing: bool) -> bool {
        !self_closing && !is_void(name) && self.open.len() < MAX_DEPTH
    }

    pub(crate) fn push(&mut self, element: E) {
        self.open.push(element);
    }

    pub(crate) fn innermost_mut(&mut self) -> Option<&mut E> {
        self.open.last_mut()
    }

    /// How many elements an end tag named `name` closes: the innermost open
    /// element of that name and everything opened after it. None when no
    /// such element is open (browser behaviour for stray end tags).
    pub(crate) fn closed_by(&self, name: &str) -> usize {
        self.open
            .iter()
            .rposition(|e| e.name().eq_ignore_ascii_case(name))
            .map_or(0, |at| self.open.len() - at)
    }

    /// Closes the innermost open element.
    pub(crate) fn pop(&mut self) -> Option<E> {
        self.open.pop()
    }
}

impl Document {
    /// Parses an HTML document. Never fails; malformed markup degrades to
    /// a best-effort tree.
    pub fn parse(html: &str) -> Document {
        let mut builder = Builder {
            open: OpenElements::new(),
            root: Vec::new(),
        };
        for token in Tokenizer::new(html) {
            builder.feed(token);
        }
        Document {
            children: builder.finish(),
        }
    }

    /// Depth-first iterator over all elements in the document.
    pub fn elements(&self) -> Descendants<'_> {
        Descendants {
            stack: self.children.iter().rev().collect(),
        }
    }

    /// All elements with the given (case-insensitive) tag name.
    pub fn elements_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.elements()
            .filter(move |e| e.name.eq_ignore_ascii_case(name))
    }

    /// Concatenated text of the whole document.
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        collect_text(&self.children, &mut out);
        out
    }
}

/// Depth-first element iterator; see [`Document::elements`].
pub struct Descendants<'a> {
    stack: Vec<&'a Node>,
}

impl<'a> Iterator for Descendants<'a> {
    type Item = &'a Element;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(node) = self.stack.pop() {
            if let Node::Element(e) = node {
                for child in e.children.iter().rev() {
                    self.stack.push(child);
                }
                return Some(e);
            }
        }
        None
    }
}

struct Builder {
    open: OpenElements<Element>,
    /// The top-level nodes.
    root: Vec<Node>,
}

impl Builder {
    fn feed(&mut self, token: Token<'_>) {
        match token {
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => {
                let element = Element {
                    name: name.to_ascii_lowercase(),
                    attrs: attrs
                        .iter()
                        .map(|(k, v)| (k.to_ascii_lowercase(), decode_entities(v).into_owned()))
                        .collect(),
                    children: Vec::new(),
                };
                if self.open.takes_children(name, self_closing) {
                    self.open.push(element);
                } else {
                    self.append(Node::Element(element));
                }
            }
            Token::EndTag { name } => {
                for _ in 0..self.open.closed_by(name) {
                    self.close_innermost();
                }
            }
            Token::Text(t) => self.append(Node::Text(t.into_owned())),
            Token::Comment(c) => self.append(Node::Comment(c.to_string())),
            Token::Doctype(_) => {}
        }
    }

    fn append(&mut self, node: Node) {
        match self.open.innermost_mut() {
            Some(parent) => parent.children.push(node),
            None => self.root.push(node),
        }
    }

    fn close_innermost(&mut self) {
        let done = self.open.pop().expect("an element is open");
        self.append(Node::Element(done));
    }

    fn finish(mut self) -> Vec<Node> {
        while self.open.innermost_mut().is_some() {
            self.close_innermost();
        }
        self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_tree() {
        let doc = Document::parse("<div><p>a</p><p>b</p></div>");
        let div = doc.elements_named("div").next().expect("div");
        assert_eq!(div.children.len(), 2);
        assert_eq!(div.text_content(), "ab");
    }

    #[test]
    fn void_elements_take_no_children() {
        let doc = Document::parse("<meta charset=\"utf-8\"><p>x</p>");
        let names: Vec<_> = doc.elements().map(|e| e.name.clone()).collect();
        assert_eq!(names, vec!["meta", "p"]);
        let meta = doc.elements_named("meta").next().expect("meta");
        assert!(meta.children.is_empty());
    }

    #[test]
    fn mismatched_end_tags_recover() {
        // </b> closes nothing that's open at that level in a browser-ish way.
        let doc = Document::parse("<div><span>x</div></span>");
        let div = doc.elements_named("div").next().expect("div");
        assert_eq!(div.text_content(), "x");
        // stray </span> after </div> is dropped
        assert_eq!(doc.elements().count(), 2);
    }

    #[test]
    fn unclosed_elements_are_closed_at_eof() {
        let doc = Document::parse("<html><body><p>dangling");
        assert_eq!(doc.text_content(), "dangling");
        assert_eq!(doc.elements().count(), 3);
    }

    #[test]
    fn attr_lookup_is_case_insensitive() {
        let doc = Document::parse(r#"<script SRC="x.js" InTeGrItY="sha384-abc">"#);
        let s = doc.elements_named("script").next().expect("script");
        assert_eq!(s.attr("src"), Some("x.js"));
        assert_eq!(s.attr("integrity"), Some("sha384-abc"));
        assert!(s.has_attr("SRC"));
        assert_eq!(s.attr("missing"), None);
    }

    #[test]
    fn script_text_is_preserved() {
        let doc = Document::parse("<script>/*! jQuery v3.5.1 */ var x = 1 < 2;</script>");
        let s = doc.elements_named("script").next().expect("script");
        assert!(s.text_content().contains("jQuery v3.5.1"));
        assert!(s.text_content().contains("1 < 2"));
    }

    #[test]
    fn object_param_structure_for_flash() {
        let html = r#"
            <object classid="clsid:D27CDB6E" width="550">
              <param name="movie" value="banner.swf">
              <param name="AllowScriptAccess" value="always">
              <embed src="banner.swf" allowscriptaccess="always">
            </object>"#;
        let doc = Document::parse(html);
        let object = doc.elements_named("object").next().expect("object");
        let params: Vec<_> = object.descendants().filter(|e| e.name == "param").collect();
        assert_eq!(params.len(), 2);
        assert_eq!(params[1].attr("value"), Some("always"));
        let embed = object
            .descendants()
            .find(|e| e.name == "embed")
            .expect("embed");
        assert_eq!(embed.attr("allowscriptaccess"), Some("always"));
    }

    #[test]
    fn deeply_nested_does_not_overflow() {
        // An adversarial page with 100k unclosed <div>s must neither crash
        // the builder nor blow the stack when the tree is dropped. Depth is
        // capped at MAX_DEPTH; the rest are flattened as siblings.
        let depth = 100_000;
        let mut html = String::new();
        for _ in 0..depth {
            html.push_str("<div>");
        }
        html.push('x');
        let doc = Document::parse(&html);
        assert_eq!(doc.elements().count(), depth);
        assert_eq!(doc.text_content(), "x");
    }

    #[test]
    fn realistic_landing_page() {
        let html = r#"<!DOCTYPE html>
<html lang="en">
<head>
  <meta charset="utf-8">
  <meta name="generator" content="WordPress 5.6">
  <link rel="stylesheet" href="/wp-content/themes/x/style.css?ver=5.6">
  <link rel="icon" href="/favicon.ico">
  <script src="https://ajax.googleapis.com/ajax/libs/jquery/1.12.4/jquery.min.js"></script>
  <script src="/wp-includes/js/jquery/jquery-migrate.min.js?ver=1.4.1"></script>
</head>
<body>
  <h1>Hello</h1>
  <script>var inline = true;</script>
</body>
</html>"#;
        let doc = Document::parse(html);
        let scripts: Vec<_> = doc.elements_named("script").collect();
        assert_eq!(scripts.len(), 3);
        assert!(scripts[0]
            .attr("src")
            .expect("src")
            .contains("jquery/1.12.4"));
        let metas: Vec<_> = doc.elements_named("meta").collect();
        assert_eq!(metas[1].attr("content"), Some("WordPress 5.6"));
        let links: Vec<_> = doc.elements_named("link").collect();
        assert_eq!(links.len(), 2);
    }
}
