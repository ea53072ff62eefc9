//! Extraction of resource references from a page.
//!
//! This is the bridge between HTML and the fingerprinting stage: it
//! pulls out everything the paper's pipeline cares about — external and
//! inline scripts (with their SRI/CORS attributes), stylesheet and icon
//! links, `<object>`/`<embed>` Flash content with its
//! `AllowScriptAccess` parameter, and generator `<meta>` tags.
//!
//! Two ways in, one answer. [`extract_resources`] reads the tokens once
//! and keeps no tree, borrowing from the page wherever it can; it is what
//! the fingerprint engine runs. [`extract`] walks a parsed [`Document`]
//! and is the oracle the one pass is tested against.

use crate::dom::{Document, Element, Named, Node, OpenElements};
use crate::tokenizer::{decode_entities, Attributes, Token, Tokenizer};
use std::borrow::Cow;

/// A `<script>` reference found in a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptRef<'a> {
    /// `src` attribute; `None` for inline scripts.
    pub src: Option<Cow<'a, str>>,
    /// Inline source text (empty for external scripts).
    pub inline: Cow<'a, str>,
    /// `integrity` attribute (Subresource Integrity hash).
    pub integrity: Option<Cow<'a, str>>,
    /// `crossorigin` attribute value; empty string for a bare attribute.
    pub crossorigin: Option<Cow<'a, str>>,
}

impl ScriptRef<'_> {
    /// True when the script is loaded from another origin than `host`.
    ///
    /// Protocol-relative (`//cdn…`) and absolute (`https://…`) URLs that
    /// name a different host are external; everything else (relative paths,
    /// same-host absolute URLs) is internal.
    pub fn is_external_to(&self, host: &str) -> bool {
        match &self.src {
            None => false,
            Some(src) => match url_host(src) {
                Some(h) => !h.eq_ignore_ascii_case(host),
                None => false,
            },
        }
    }
}

/// A `<link>` reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkRef<'a> {
    /// `rel` attribute, lower-cased.
    pub rel: Cow<'a, str>,
    /// `href` attribute.
    pub href: Cow<'a, str>,
    /// `integrity` attribute.
    pub integrity: Option<Cow<'a, str>>,
}

/// Flash content (`<object>` / `<embed>`), with script-access policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlashRef<'a> {
    /// URL of the `.swf` resource.
    pub swf_url: Cow<'a, str>,
    /// Value of `AllowScriptAccess` (param or attribute), lower-cased;
    /// `None` when unspecified (browsers default to `samedomain`).
    pub allow_script_access: Option<Cow<'a, str>>,
}

/// Everything extracted from one landing page. Values borrow from the
/// page when [`extract_resources`] read them and it needed no change;
/// [`extract`] owns them all.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageResources<'a> {
    /// All scripts in document order.
    pub scripts: Vec<ScriptRef<'a>>,
    /// All links in document order.
    pub links: Vec<LinkRef<'a>>,
    /// Flash objects/embeds.
    pub flash: Vec<FlashRef<'a>>,
    /// `<meta name="generator" content="…">` values.
    pub generators: Vec<Cow<'a, str>>,
    /// Comment nodes (library banners often live in comments).
    pub comments: Vec<Cow<'a, str>>,
    /// `<img src>` URLs (SVG usage classification).
    pub images: Vec<Cow<'a, str>>,
}

fn owned(value: &str) -> Cow<'static, str> {
    Cow::Owned(value.to_string())
}

fn lowercase(value: Cow<'_, str>) -> Cow<'_, str> {
    if value.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(value.to_ascii_lowercase())
    } else {
        value
    }
}

/// Extracts [`PageResources`] from a document.
///
/// A `<param>` or `<embed>` counts toward its nearest `<object>` only.
pub fn extract(doc: &Document) -> PageResources<'static> {
    let mut out = PageResources::default();
    let attr = |element: &Element, name: &str| element.attr(name).map(owned);
    for element in doc.elements() {
        match element.name.as_str() {
            "script" => out.scripts.push(ScriptRef {
                src: attr(element, "src"),
                inline: Cow::Owned(element.text_content()),
                integrity: attr(element, "integrity"),
                crossorigin: attr(element, "crossorigin"),
            }),
            "link" => {
                if let Some(href) = attr(element, "href") {
                    out.links.push(LinkRef {
                        rel: Cow::Owned(element.attr("rel").unwrap_or("").to_ascii_lowercase()),
                        href,
                        integrity: attr(element, "integrity"),
                    });
                }
            }
            "object" => {
                if let Some(flash) = extract_object_flash(element) {
                    out.flash.push(flash);
                }
            }
            "embed" => {
                if let Some(src) = element.attr("src") {
                    if is_swf_url(src) {
                        out.flash.push(FlashRef {
                            swf_url: owned(src),
                            allow_script_access: element
                                .attr("allowscriptaccess")
                                .map(|a| Cow::Owned(a.to_ascii_lowercase())),
                        });
                    }
                }
            }
            "img" => {
                if let Some(src) = attr(element, "src") {
                    out.images.push(src);
                }
            }
            "meta" => {
                let is_generator = element
                    .attr("name")
                    .is_some_and(|n| n.eq_ignore_ascii_case("generator"));
                if is_generator {
                    if let Some(content) = attr(element, "content") {
                        out.generators.push(content);
                    }
                }
            }
            _ => {}
        }
    }
    collect_comments(&doc.children, &mut out.comments);
    out
}

fn collect_comments(nodes: &[Node], out: &mut Vec<Cow<'static, str>>) {
    for node in nodes {
        match node {
            Node::Comment(c) => out.push(owned(c)),
            Node::Element(e) => collect_comments(&e.children, out),
            Node::Text(_) => {}
        }
    }
}

/// The elements under `object` that belong to it: its descendants, less
/// those inside a nested `<object>`, which belong to that one.
fn own_descendants<'e>(object: &'e Element, out: &mut Vec<&'e Element>) {
    for child in &object.children {
        if let Node::Element(e) = child {
            out.push(e);
            if e.name != "object" {
                own_descendants(e, out);
            }
        }
    }
}

fn extract_object_flash(object: &Element) -> Option<FlashRef<'static>> {
    let mut own = Vec::new();
    own_descendants(object, &mut own);
    // The movie URL may be in `data` or in a `<param name="movie">`.
    let mut swf_url = object
        .attr("data")
        .filter(|u| is_swf_url(u))
        .map(str::to_string);
    let mut allow = None;
    for param in own.iter().filter(|e| e.name == "param") {
        let name = param.attr("name").unwrap_or("").to_ascii_lowercase();
        let value = param.attr("value").unwrap_or("");
        match name.as_str() {
            "movie" | "src" if swf_url.is_none() && is_swf_url(value) => {
                swf_url = Some(value.to_string());
            }
            "allowscriptaccess" => allow = Some(value.to_ascii_lowercase()),
            _ => {}
        }
    }
    // Nested <embed> may carry the policy when the object doesn't.
    if allow.is_none() {
        if let Some(embed) = own.iter().find(|e| e.name == "embed") {
            allow = embed.attr("allowscriptaccess").map(str::to_ascii_lowercase);
        }
    }
    swf_url.map(|swf_url| FlashRef {
        swf_url: Cow::Owned(swf_url),
        allow_script_access: allow.map(Cow::Owned),
    })
}

/// Extracts [`PageResources`] from `html` in one pass over its tokens,
/// building no tree: the same resources as `extract(&Document::parse(html))`,
/// borrowed from `html` wherever no entity needed decoding and no case
/// folding.
///
/// It keeps the tree builder's open-element stack, with its rules, so a
/// script's inline text, the elements flattened beyond the depth cap and
/// each `<param>`'s `<object>` come out as the tree would have them.
/// Each `<object>` reserves its place in `flash` at its start tag and
/// fills it when it closes.
pub fn extract_resources(html: &str) -> PageResources<'_> {
    let mut pass = OnePass {
        out: PageResources::default(),
        open: OpenElements::new(),
        objects: Vec::new(),
        inline_of: None,
    };
    for token in Tokenizer::new(html) {
        pass.feed(token);
    }
    pass.finish()
}

/// An element [`extract_resources`] holds open: its name, and whether it
/// is an `<object>` (whose Flash is on [`OnePass::objects`]).
struct Open<'a> {
    name: &'a str,
    object: bool,
}

impl Named for Open<'_> {
    fn name(&self) -> &str {
        self.name
    }
}

/// An open `<object>`: its reserved index in `flash`, and what its `data`
/// attribute, its `<param>`s and its first `<embed>` said so far.
struct PendingObject<'a> {
    slot: usize,
    swf_url: Option<Cow<'a, str>>,
    allow: Option<Cow<'a, str>>,
    /// The first `<embed>`'s `allowscriptaccess`, once one was seen.
    embed_allow: Option<Option<Cow<'a, str>>>,
}

struct OnePass<'a> {
    out: PageResources<'a>,
    open: OpenElements<Open<'a>>,
    /// The open `<object>`s, innermost last.
    objects: Vec<PendingObject<'a>>,
    /// The script just opened: a text token next is its inline text.
    inline_of: Option<usize>,
}

/// The first value of each of `names` among `attrs` (names compared
/// ASCII-case-insensitively), entity-decoded.
fn attr_values<'a, const N: usize>(
    attrs: Attributes<'a>,
    names: [&str; N],
) -> [Option<Cow<'a, str>>; N] {
    let mut values = [(); N].map(|()| None);
    for (name, value) in attrs.iter() {
        if let Some(i) = names.iter().position(|n| n.eq_ignore_ascii_case(name)) {
            values[i].get_or_insert_with(|| decode_entities(value));
        }
    }
    values
}

impl<'a> OnePass<'a> {
    fn feed(&mut self, token: Token<'a>) {
        let inline_of = self.inline_of.take();
        match token {
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => {
                let opens = self.open.takes_children(name, self_closing);
                self.start_tag(name, attrs, opens);
                if opens {
                    let object = name.eq_ignore_ascii_case("object");
                    self.open.push(Open { name, object });
                }
            }
            Token::EndTag { name } => {
                for _ in 0..self.open.closed_by(name) {
                    self.close_innermost();
                }
            }
            Token::Text(text) => {
                if let Some(script) = inline_of {
                    self.out.scripts[script].inline = text;
                }
            }
            Token::Comment(comment) => self.out.comments.push(Cow::Borrowed(comment)),
            Token::Doctype(_) => {}
        }
    }

    fn start_tag(&mut self, name: &'a str, attrs: Attributes<'a>, opens: bool) {
        let out = &mut self.out;
        let is = |tag: &str| name.eq_ignore_ascii_case(tag);
        if is("script") {
            let [src, integrity, crossorigin] =
                attr_values(attrs, ["src", "integrity", "crossorigin"]);
            out.scripts.push(ScriptRef {
                src,
                inline: Cow::Borrowed(""),
                integrity,
                crossorigin,
            });
            self.inline_of = opens.then(|| out.scripts.len() - 1);
        } else if is("link") {
            let [href, rel, integrity] = attr_values(attrs, ["href", "rel", "integrity"]);
            if let Some(href) = href {
                out.links.push(LinkRef {
                    rel: lowercase(rel.unwrap_or_default()),
                    href,
                    integrity,
                });
            }
        } else if is("img") {
            let [src] = attr_values(attrs, ["src"]);
            out.images.extend(src);
        } else if is("meta") {
            let [meta_name, content] = attr_values(attrs, ["name", "content"]);
            if meta_name.is_some_and(|n| n.eq_ignore_ascii_case("generator")) {
                out.generators.extend(content);
            }
        } else if is("embed") {
            let [src, allow] = attr_values(attrs, ["src", "allowscriptaccess"]);
            let allow = allow.map(lowercase);
            if let Some(src) = src.filter(|src| is_swf_url(src)) {
                out.flash.push(FlashRef {
                    swf_url: src,
                    allow_script_access: allow.clone(),
                });
            }
            if let Some(object) = self.objects.last_mut() {
                object.embed_allow.get_or_insert(allow);
            }
        } else if is("param") {
            let Some(object) = self.objects.last_mut() else {
                return;
            };
            let [param, value] = attr_values(attrs, ["name", "value"]);
            let (param, value) = (param.unwrap_or_default(), value.unwrap_or_default());
            if param.eq_ignore_ascii_case("movie") || param.eq_ignore_ascii_case("src") {
                if object.swf_url.is_none() && is_swf_url(&value) {
                    object.swf_url = Some(value);
                }
            } else if param.eq_ignore_ascii_case("allowscriptaccess") {
                object.allow = Some(lowercase(value));
            }
        } else if is("object") {
            let [data] = attr_values(attrs, ["data"]);
            let object = PendingObject {
                slot: out.flash.len(),
                swf_url: data.filter(|data| is_swf_url(data)),
                allow: None,
                embed_allow: None,
            };
            out.flash.push(FlashRef {
                swf_url: Cow::Borrowed(""),
                allow_script_access: None,
            });
            if opens {
                self.objects.push(object);
            } else {
                self.finish_object(object);
            }
        }
    }

    fn close_innermost(&mut self) {
        let closed = self.open.pop().expect("an element is open");
        if closed.object {
            let object = self.objects.pop().expect("an object is open");
            self.finish_object(object);
        }
    }

    fn finish_object(&mut self, object: PendingObject<'a>) {
        if let Some(swf_url) = object.swf_url {
            self.out.flash[object.slot] = FlashRef {
                swf_url,
                allow_script_access: object.allow.or(object.embed_allow.flatten()),
            };
        }
    }

    fn finish(mut self) -> PageResources<'a> {
        while self.open.innermost_mut().is_some() {
            self.close_innermost();
        }
        // Objects that named no movie leave an empty reservation.
        self.out.flash.retain(|flash| !flash.swf_url.is_empty());
        self.out
    }
}

/// True when `url` points at a Flash movie.
pub fn is_swf_url(url: &str) -> bool {
    // Bytes, not chars: the suffix may start inside a multibyte character.
    let path = url.split(['?', '#']).next().unwrap_or(url).as_bytes();
    path.len() >= 4 && path[path.len() - 4..].eq_ignore_ascii_case(b".swf")
}

/// Extracts the host from an absolute or protocol-relative URL.
///
/// Returns `None` for relative URLs (which are same-origin by definition).
pub fn url_host(url: &str) -> Option<&str> {
    let rest = url
        .strip_prefix("https://")
        .or_else(|| url.strip_prefix("http://"))
        .or_else(|| url.strip_prefix("//"))?;
    let end = rest.find(['/', '?', '#']).unwrap_or(rest.len());
    let host_port = &rest[..end];
    let host = host_port.split('@').next_back().unwrap_or(host_port);
    let host = host.split(':').next().unwrap_or(host);
    if host.is_empty() {
        None
    } else {
        Some(host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one pass's resources for `html`, after checking them against
    /// the tree's.
    fn both(html: &str) -> PageResources<'_> {
        let res = extract_resources(html);
        assert_eq!(res, extract(&Document::parse(html)), "{html}");
        res
    }

    #[test]
    fn extracts_scripts_with_sri() {
        let res = both(
            r#"<script src="https://cdn.example/a.js"
                       integrity="sha384-xyz" crossorigin="anonymous"></script>
               <script>inline()</script>"#,
        );
        assert_eq!(res.scripts.len(), 2);
        assert_eq!(res.scripts[0].integrity.as_deref(), Some("sha384-xyz"));
        assert_eq!(res.scripts[0].crossorigin.as_deref(), Some("anonymous"));
        assert!(res.scripts[1].src.is_none());
        assert_eq!(res.scripts[1].inline, "inline()");
    }

    #[test]
    fn externality_detection() {
        let s = |src: &'static str| ScriptRef {
            src: Some(src.into()),
            inline: "".into(),
            integrity: None,
            crossorigin: None,
        };
        assert!(s("https://cdn.example/a.js").is_external_to("example.com"));
        assert!(!s("https://example.com/a.js").is_external_to("example.com"));
        assert!(!s("/local/a.js").is_external_to("example.com"));
        assert!(!s("a.js").is_external_to("example.com"));
        assert!(s("//ajax.googleapis.com/x.js").is_external_to("example.com"));
    }

    #[test]
    fn url_host_shapes() {
        assert_eq!(url_host("https://a.example.com/x"), Some("a.example.com"));
        assert_eq!(url_host("http://h:8080/x"), Some("h"));
        assert_eq!(url_host("//cdn.example"), Some("cdn.example"));
        assert_eq!(url_host("/relative"), None);
        assert_eq!(url_host("relative.js"), None);
        assert_eq!(url_host("https://"), None);
        assert_eq!(url_host("https://user@h/x"), Some("h"));
    }

    #[test]
    fn extracts_flash_from_object_and_embed() {
        let res = both(
            r#"<object data="m.swf"><param name="allowScriptAccess" value="ALWAYS"></object>
               <embed src="n.swf">
               <embed src="video.mp4">"#,
        );
        assert_eq!(res.flash.len(), 2);
        assert_eq!(res.flash[0].swf_url, "m.swf");
        assert_eq!(res.flash[0].allow_script_access.as_deref(), Some("always"));
        assert_eq!(res.flash[1].swf_url, "n.swf");
        assert_eq!(res.flash[1].allow_script_access, None);
    }

    #[test]
    fn object_with_param_movie() {
        let res = both(
            r#"<object classid="clsid:D27CDB6E"><param name="movie" value="banner.swf?x=1"></object>"#,
        );
        assert_eq!(res.flash.len(), 1);
        assert_eq!(res.flash[0].swf_url, "banner.swf?x=1");
    }

    #[test]
    fn swf_url_detection() {
        assert!(is_swf_url("a.swf"));
        assert!(is_swf_url("a.SWF?q=1"));
        assert!(is_swf_url("/path/m.swf#frag"));
        assert!(!is_swf_url("a.js"));
        assert!(!is_swf_url("swf"));
        // The last four bytes start inside a character.
        assert!(!is_swf_url("日ab"));
        assert!(is_swf_url("日.swf"));
    }

    #[test]
    fn params_and_embeds_count_toward_their_nearest_object() {
        let res = both(
            r#"<object data="outer.swf"><param name="allowScriptAccess" value="never">
                 <object><param name="movie" value="inner.swf"><embed allowscriptaccess="Always">
                 </object><embed allowscriptaccess="sameDomain"></object>"#,
        );
        let flash: Vec<_> = res
            .flash
            .iter()
            .map(|f| (&*f.swf_url, f.allow_script_access.as_deref()))
            .collect();
        assert_eq!(
            flash,
            [("outer.swf", Some("never")), ("inner.swf", Some("always"))]
        );
        // Nested deep, one movie value is one Flash reference, not one per
        // enclosing object.
        let value = "v".repeat(1000) + ".swf";
        let html = format!("{}<param name=movie value={value}>", "<object>".repeat(64));
        assert_eq!(both(&html).flash.len(), 1);
    }

    #[test]
    fn a_closer_a_tag_name_continues_keeps_the_script_open() {
        // `</script-x>` is script text, so the text after it is one
        // script's, not every unclosed script's.
        let html = format!("{}{}", "<script></script-x>".repeat(8), "t".repeat(1000));
        let res = both(&html);
        assert_eq!(res.scripts.len(), 1);
        assert_eq!(res.scripts[0].inline.len(), html.len() - "<script>".len());
    }

    #[test]
    fn elements_beyond_the_depth_cap_stand_alone() {
        let html = format!("{}<script>banner()</script>", "<div>".repeat(300));
        let res = both(&html);
        assert_eq!(res.scripts[0].inline, "");
        let html = format!("{}<script>banner()</script>", "<div>".repeat(255));
        assert_eq!(both(&html).scripts[0].inline, "banner()");
    }

    #[test]
    fn one_pass_borrows_what_needs_no_change() {
        let html = r#"<script src="/a.js?x=1&amp;y=2"></script><script>core()</script>
            <link rel="Stylesheet" href="/s.css"><!-- c -->"#;
        let res = both(html);
        let borrowed = |v: &Cow<'_, str>| matches!(v, Cow::Borrowed(_));
        assert_eq!(res.scripts[0].src.as_deref(), Some("/a.js?x=1&y=2"));
        assert!(!borrowed(res.scripts[0].src.as_ref().expect("src")));
        assert!(borrowed(&res.scripts[1].inline));
        assert!(borrowed(&res.links[0].href) && !borrowed(&res.links[0].rel));
        assert!(borrowed(&res.comments[0]));
    }

    #[test]
    fn extracts_generator_and_comments() {
        let res = both(
            r#"<meta name="Generator" content="WordPress 5.6">
               <!-- served by cache node 3 -->"#,
        );
        assert_eq!(res.generators, vec!["WordPress 5.6"]);
        assert_eq!(res.comments, vec![" served by cache node 3 "]);
    }

    #[test]
    fn images_are_collected() {
        let res = both(r#"<img src="/logo.svg" alt="x"><img alt="no-src">"#);
        assert_eq!(res.images, vec!["/logo.svg"]);
    }

    #[test]
    fn links_require_href() {
        let res = both(r#"<link rel="stylesheet"><link rel="icon" href="/f.ico">"#);
        assert_eq!(res.links.len(), 1);
        assert_eq!(res.links[0].rel, "icon");
    }
}
