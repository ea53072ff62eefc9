//! A forgiving HTML tokenizer.
//!
//! The crawler only ever sees *landing pages in the wild*: truncated
//! documents, unquoted attributes, stray `<`, mismatched tags, upper-case
//! tag soup. The tokenizer therefore never fails — every input produces a
//! token stream — and follows the WHATWG error-recovery spirit without
//! implementing the full spec (which fingerprinting does not need).
//!
//! It is a pull iterator ([`Tokenizer`]) over tokens that borrow the
//! input: tag names, attribute sources, comments and raw text are slices
//! of it, and text is copied only when it holds an entity to decode. Tag
//! and attribute names keep the case they were written in; compare them
//! ASCII-case-insensitively.
//!
//! `<script>` and `<style>` switch the tokenizer into raw-text mode: their
//! content is emitted as a single [`Token::Text`] without interpreting `<`.

use std::borrow::Cow;

/// A lexical token of an HTML document, borrowed from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// `<name attr="value" …>`; `self_closing` reflects a trailing `/`.
    StartTag {
        /// Tag name as written.
        name: &'a str,
        /// The attributes, read on demand.
        attrs: Attributes<'a>,
        /// Whether the tag ended with `/>`.
        self_closing: bool,
    },
    /// `</name>`.
    EndTag {
        /// Tag name as written.
        name: &'a str,
    },
    /// Character data (entity-decoded outside raw-text elements).
    Text(Cow<'a, str>),
    /// `<!-- … -->`.
    Comment(&'a str),
    /// `<!DOCTYPE …>` (content kept verbatim).
    Doctype(&'a str),
}

/// A start tag's attributes: the tag's source after its name, parsed
/// again each time they are read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attributes<'a> {
    src: &'a str,
}

impl<'a> Attributes<'a> {
    /// `(name, value)` pairs in document order, both as written: names
    /// keep their case and values are not entity-decoded (read one with
    /// [`decode_entities`]). A valueless attribute has the value `""`.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, &'a str)> {
        let mut scan = AttrScan {
            s: self.src,
            p: 0,
            self_closing: false,
        };
        std::iter::from_fn(move || scan.next_attr())
    }
}

/// Tokenizes `input` into a sequence of [`Token`]s. Never fails.
pub fn tokenize(input: &str) -> Vec<Token<'_>> {
    Tokenizer::new(input).collect()
}

/// Elements whose content is raw text (no markup interpretation).
fn is_raw_text_element(name: &str) -> bool {
    ["script", "style", "textarea", "title", "xmp"]
        .iter()
        .any(|raw| raw.eq_ignore_ascii_case(name))
}

/// A byte that continues a tag name.
fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'-' || b == b':'
}

/// Length of the tag name `s` starts with.
fn name_len(s: &str) -> usize {
    s.bytes().position(|b| !is_name_byte(b)).unwrap_or(s.len())
}

fn skip_whitespace(s: &str, p: usize) -> usize {
    p + s[p..]
        .find(|c: char| !c.is_whitespace())
        .unwrap_or(s.len() - p)
}

/// The pull tokenizer: yields the [`Token`]s of `input` in order.
pub struct Tokenizer<'a> {
    input: &'a str,
    pos: usize,
    /// The raw-text element whose content comes next.
    raw: Option<&'a str>,
    /// A token read while looking for the end of a text run.
    pending: Option<Token<'a>>,
}

impl<'a> Tokenizer<'a> {
    /// A tokenizer at the start of `input`.
    pub fn new(input: &'a str) -> Tokenizer<'a> {
        Tokenizer {
            input,
            pos: 0,
            raw: None,
            pending: None,
        }
    }

    /// Whether the `<` at `at` opens markup; any other `<` is text.
    fn is_markup(&self, at: usize) -> bool {
        let b = self.input.as_bytes();
        b[at] == b'<'
            && b.get(at + 1)
                .is_some_and(|&c| matches!(c, b'!' | b'?' | b'/') || c.is_ascii_alphabetic())
    }

    /// Where the text starting at `from` ends: the next markup, or the end.
    fn text_end(&self, from: usize) -> usize {
        let mut at = from;
        while let Some(rel) = self.input[at..].find('<') {
            if self.is_markup(at + rel) {
                return at + rel;
            }
            at += rel + 1;
        }
        self.input.len()
    }

    fn text(&mut self) -> Token<'a> {
        let start = self.pos;
        self.pos = self.text_end(start);
        let mut text = decode_entities(&self.input[start..self.pos]);
        // Markup that makes no token (`</>`, `<?…>`, a declaration that is
        // not a doctype) does not end the text: the run after it belongs
        // to the same token.
        while self.pos < self.input.len() {
            if let Some(token) = self.markup() {
                self.pending = Some(token);
                break;
            }
            let from = self.pos;
            self.pos = self.text_end(from);
            if from < self.pos {
                text.to_mut()
                    .push_str(&decode_entities(&self.input[from..self.pos]));
            }
        }
        Token::Text(text)
    }

    /// Consumes the markup at `self.pos` (a `<` that opens markup); `None`
    /// when it makes no token.
    fn markup(&mut self) -> Option<Token<'a>> {
        let rest = &self.input[self.pos..];
        if rest.starts_with("<!--") {
            Some(self.comment())
        } else if matches!(rest.as_bytes()[1], b'!' | b'?') {
            self.declaration()
        } else if rest.as_bytes()[1] == b'/' {
            self.end_tag()
        } else {
            Some(self.start_tag())
        }
    }

    fn comment(&mut self) -> Token<'a> {
        let body_start = self.pos + 4;
        let body = &self.input[body_start..];
        match body.find("-->") {
            Some(rel) => {
                self.pos = body_start + rel + 3;
                Token::Comment(&body[..rel])
            }
            None => {
                // Unterminated comment swallows the rest of the document.
                self.pos = self.input.len();
                Token::Comment(body)
            }
        }
    }

    fn declaration(&mut self) -> Option<Token<'a>> {
        // `<!DOCTYPE …>`, `<![CDATA[…]]>`, `<?xml …?>` — find closing '>'.
        let start = self.pos;
        let Some(rel) = self.input[start..].find('>') else {
            self.pos = self.input.len();
            return None;
        };
        self.pos = start + rel + 1;
        let inner = &self.input[start + 2..start + rel];
        let is_doctype = inner
            .get(..7)
            .is_some_and(|p| p.eq_ignore_ascii_case("DOCTYPE"));
        is_doctype.then(|| Token::Doctype(inner[7..].trim()))
    }

    fn end_tag(&mut self) -> Option<Token<'a>> {
        let name_start = self.pos + 2;
        let name_end = name_start + name_len(&self.input[name_start..]);
        // Skip to '>' (tolerating junk inside the end tag).
        self.pos = match self.input[name_end..].find('>') {
            Some(rel) => name_end + rel + 1,
            None => self.input.len(),
        };
        let name = &self.input[name_start..name_end];
        (!name.is_empty()).then_some(Token::EndTag { name })
    }

    fn start_tag(&mut self) -> Token<'a> {
        let name_start = self.pos + 1;
        let name_end = name_start + name_len(&self.input[name_start..]);
        let mut scan = AttrScan {
            s: self.input,
            p: name_end,
            self_closing: false,
        };
        while scan.next_attr().is_some() {}
        self.pos = scan.p.min(self.input.len());
        let name = &self.input[name_start..name_end];
        if is_raw_text_element(name) && !scan.self_closing {
            self.raw = Some(name);
        }
        Token::StartTag {
            name,
            attrs: Attributes {
                src: &self.input[name_end..self.pos],
            },
            self_closing: scan.self_closing,
        }
    }

    /// The content of raw-text element `name`, up to its closer or the end
    /// of the input. Raw text is *not* entity-decoded (matches browser
    /// behaviour).
    fn raw_text(&mut self, name: &str) -> Option<Token<'a>> {
        let hay = &self.input[self.pos..];
        let end = closer(hay, name).unwrap_or(hay.len());
        self.pos += end;
        (end > 0).then(|| Token::Text(Cow::Borrowed(&hay[..end])))
    }
}

impl<'a> Iterator for Tokenizer<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        if let Some(token) = self.pending.take() {
            return Some(token);
        }
        if let Some(name) = self.raw.take() {
            if let Some(text) = self.raw_text(name) {
                return Some(text);
            }
        }
        while self.pos < self.input.len() {
            if !self.is_markup(self.pos) {
                return Some(self.text());
            }
            if let Some(token) = self.markup() {
                return Some(token);
            }
        }
        None
    }
}

/// Where raw text of element `name` ends in `hay`: at the first `</name`
/// (ASCII case-insensitive) followed by a byte that cannot continue a tag
/// name, so that the end tag read there is `name` itself.
fn closer(hay: &str, name: &str) -> Option<usize> {
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(rel) = hay[from..].find("</") {
        let at = from + rel;
        let after = at + 2 + name.len();
        let named = bytes
            .get(at + 2..after)
            .is_some_and(|n| n.eq_ignore_ascii_case(name.as_bytes()));
        if named && !bytes.get(after).is_some_and(|&b| is_name_byte(b)) {
            return Some(at);
        }
        from = at + 2;
    }
    None
}

/// Reads a start tag's attributes from byte `p` of `s` (just past the tag
/// name) to the tag's end. The tokenizer runs it once to find where the
/// tag ends; [`Attributes::iter`] runs it again over the same bytes.
struct AttrScan<'a> {
    s: &'a str,
    p: usize,
    self_closing: bool,
}

impl<'a> AttrScan<'a> {
    /// The next `(name, raw value)`, or `None` at the tag's end with `p`
    /// just past it.
    fn next_attr(&mut self) -> Option<(&'a str, &'a str)> {
        let s = self.s;
        loop {
            self.p = skip_whitespace(s, self.p);
            let b = *s.as_bytes().get(self.p)?;
            if b == b'>' {
                self.p += 1;
                return None;
            }
            if b == b'/' {
                // `/>` or stray slash.
                if s.as_bytes().get(self.p + 1) == Some(&b'>') {
                    self.self_closing = true;
                    self.p += 2;
                    return None;
                }
                self.p += 1;
                continue;
            }
            let start = self.p;
            self.p += s[start..]
                .find(|c: char| c.is_whitespace() || c == '=' || c == '>' || c == '/')
                .unwrap_or(s.len() - start);
            let name = &s[start..self.p];
            if name.is_empty() {
                // Defensive: avoid an infinite loop on weird bytes.
                self.p += s[self.p..].chars().next().map_or(1, char::len_utf8);
                continue;
            }
            // Optional value.
            let q = skip_whitespace(s, self.p);
            if s.as_bytes().get(q) != Some(&b'=') {
                return Some((name, ""));
            }
            let (value, next) = attr_value(s, skip_whitespace(s, q + 1));
            self.p = next;
            return Some((name, value));
        }
    }
}

/// The raw attribute value at byte `at` of `s`, and the byte after it.
fn attr_value(s: &str, at: usize) -> (&str, usize) {
    match s.as_bytes().get(at) {
        Some(&q @ (b'"' | b'\'')) => {
            let start = at + 1;
            match s[start..].find(q as char) {
                Some(rel) => (&s[start..start + rel], start + rel + 1),
                None => (&s[start..], s.len()),
            }
        }
        Some(_) => {
            let end = s[at..]
                .find(|c: char| c.is_whitespace() || c == '>')
                .map_or(s.len(), |r| at + r);
            (&s[at..end], end)
        }
        None => ("", s.len()),
    }
}

/// Decodes the five standard named entities plus `&nbsp;` and numeric
/// references; borrows `s` when it holds no `&`.
pub fn decode_entities(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        // Entity names are short; a ';' further than 12 bytes away means
        // this '&' is literal. (Byte-indexed find avoids slicing at a
        // non-char-boundary in multibyte text.)
        let Some(semi) = rest.find(';').filter(|&i| i <= 12) else {
            out.push('&');
            rest = &rest[1..];
            continue;
        };
        let entity = &rest[1..semi];
        let decoded = match entity {
            "amp" => Some('&'),
            "lt" => Some('<'),
            "gt" => Some('>'),
            "quot" => Some('"'),
            "apos" => Some('\''),
            "nbsp" => Some('\u{A0}'),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                u32::from_str_radix(&entity[2..], 16)
                    .ok()
                    .and_then(char::from_u32)
            }
            _ if entity.starts_with('#') => {
                entity[1..].parse::<u32>().ok().and_then(char::from_u32)
            }
            _ => None,
        };
        match decoded {
            Some(c) => {
                out.push(c);
                rest = &rest[semi + 1..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start<'a>(token: &Token<'a>) -> (&'a str, Vec<(&'a str, &'a str)>, bool) {
        match token {
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => (name, attrs.iter().collect(), *self_closing),
            other => panic!("not a start tag: {other:?}"),
        }
    }

    fn text(s: &str) -> Token<'_> {
        Token::Text(Cow::Borrowed(s))
    }

    #[test]
    fn tokenizes_simple_document() {
        let toks = tokenize("<html><body>hi</body></html>");
        assert_eq!(toks.len(), 5);
        assert_eq!(start(&toks[0]), ("html", vec![], false));
        assert_eq!(start(&toks[1]), ("body", vec![], false));
        assert_eq!(
            toks[2..],
            [
                text("hi"),
                Token::EndTag { name: "body" },
                Token::EndTag { name: "html" },
            ]
        );
    }

    #[test]
    fn parses_attributes_in_all_quote_styles() {
        let toks = tokenize(r#"<script src="a.js" type='text/javascript' async data-x=5>"#);
        assert_eq!(
            start(&toks[0]),
            (
                "script",
                vec![
                    ("src", "a.js"),
                    ("type", "text/javascript"),
                    ("async", ""),
                    ("data-x", "5"),
                ],
                false
            )
        );
    }

    #[test]
    fn script_content_is_raw_text() {
        let toks = tokenize("<script>if (a < b) { x(\"</div>\"); }</script>after");
        assert_eq!(toks.len(), 4);
        assert_eq!(toks[1], text("if (a < b) { x(\"</div>\"); }"));
        assert_eq!(toks[2], Token::EndTag { name: "script" });
        assert_eq!(toks[3], text("after"));
        // Borrowed from the input: no copy was made.
        assert!(matches!(&toks[1], Token::Text(Cow::Borrowed(_))));
    }

    #[test]
    fn script_closer_embedded_in_string_wins_like_browsers() {
        // Browsers end script content at the first `</script` that a tag
        // name cannot continue; so do we.
        let toks = tokenize("<script>var s = '</scriptx'; done</script>");
        assert_eq!(toks[1], text("var s = '</scriptx'; done"));
        // `-` and `:` continue a tag name too: `</script-x>` is script text.
        let toks = tokenize("<script></script-x><script:y>x</SCRIPT >z");
        assert_eq!(toks[1], text("</script-x><script:y>x"));
        assert_eq!(toks[2], Token::EndTag { name: "SCRIPT" });
        assert_eq!(toks[3], text("z"));
    }

    #[test]
    fn self_closing_script_does_not_swallow_document() {
        let toks = tokenize("<script src=\"a.js\"/><p>hi</p>");
        assert!(start(&toks[0]).2);
        assert_eq!(start(&toks[1]).0, "p");
    }

    #[test]
    fn comments_and_doctype() {
        let toks = tokenize("<!DOCTYPE html><!-- hello --><p>x</p>");
        assert_eq!(toks[0], Token::Doctype("html"));
        assert_eq!(toks[1], Token::Comment(" hello "));
    }

    #[test]
    fn unterminated_structures_do_not_panic() {
        for input in [
            "<script>never closed",
            "<!-- never closed",
            "<p attr=\"unclosed",
            "</",
            "<",
            "<p",
            "<p a=",
            "<!DOCTYPE html",
        ] {
            let _ = tokenize(input); // must not panic
        }
    }

    #[test]
    fn lone_angle_bracket_is_text() {
        let toks = tokenize("a < b");
        assert_eq!(toks, vec![text("a < b")]);
    }

    #[test]
    fn markup_without_a_token_does_not_split_text() {
        let toks = tokenize("a</ >b<?xml?>c&amp;<!x>");
        assert_eq!(toks, vec![Token::Text("abc&".into())]);
    }

    #[test]
    fn uppercase_tags_are_lowercased() {
        // Tokens keep the names' case and compare them case-insensitively;
        // the tree lower-cases them. Values keep theirs.
        let html = "<DIV CLASS=\"X\"></DIV>";
        let toks = tokenize(html);
        assert_eq!(start(&toks[0]), ("DIV", vec![("CLASS", "X")], false));
        let doc = crate::Document::parse(html);
        let div = doc.elements().next().expect("div");
        assert_eq!(
            (div.name.as_str(), &div.attrs[..]),
            ("div", &[("class".into(), "X".into())][..])
        );
        assert!(is_raw_text_element("SCRIPT"));
    }

    #[test]
    fn entity_decoding() {
        assert_eq!(decode_entities("a &amp; b"), "a & b");
        assert_eq!(decode_entities("&lt;p&gt;"), "<p>");
        assert_eq!(decode_entities("&#65;&#x42;"), "AB");
        assert_eq!(decode_entities("&unknown; &"), "&unknown; &");
        assert!(matches!(
            decode_entities("no entities"),
            Cow::Borrowed("no entities")
        ));
    }

    #[test]
    fn attribute_values_are_entity_decoded() {
        let toks = tokenize(r#"<a href="?a=1&amp;b=2">"#);
        let (_, attrs, _) = start(&toks[0]);
        assert_eq!(attrs[0].1, "?a=1&amp;b=2");
        assert_eq!(decode_entities(attrs[0].1), "?a=1&b=2");
    }

    #[test]
    fn flash_embed_markup() {
        let html =
            r#"<object data="movie.swf"><param name="AllowScriptAccess" value="always"/></object>"#;
        let toks = tokenize(html);
        assert_eq!(start(&toks[0]).0, "object");
        assert_eq!(
            start(&toks[1]),
            (
                "param",
                vec![("name", "AllowScriptAccess"), ("value", "always")],
                true
            )
        );
    }
}
