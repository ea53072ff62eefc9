#![cfg(test)]
//! The char-level tokenizer the byte-level one replaced, kept as its
//! oracle: every whitespace test decodes a character, a start tag's
//! attributes are found again each time they are read, and a property
//! checks that the two yield the same tokens, attribute for attribute,
//! on generated tag soup.

use super::decode_entities;
use std::borrow::Cow;
use webvuln_failpoint::check::{self, Gen};

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

/// A token as both tokenizers can state it: a start tag with its
/// source, its attributes as read and whether it closed itself.
#[derive(Debug, PartialEq, Eq)]
enum Seen<'a> {
    Start(&'a str, &'a str, Vec<(&'a str, &'a str)>, bool),
    End(&'a str),
    Text(Cow<'a, str>),
    Comment(&'a str),
    Doctype(&'a str),
}

fn oracle(input: &str) -> Vec<Seen<'_>> {
    Tokenizer::new(input)
        .map(|token| match token {
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => Seen::Start(name, attrs.src, attrs.iter().collect(), self_closing),
            Token::EndTag { name } => Seen::End(name),
            Token::Text(text) => Seen::Text(text),
            Token::Comment(text) => Seen::Comment(text),
            Token::Doctype(text) => Seen::Doctype(text),
        })
        .collect()
}

fn bytewise(input: &str) -> Vec<Seen<'_>> {
    super::Tokenizer::new(input)
        .map(|token| match token {
            super::Token::StartTag {
                name,
                attrs,
                self_closing,
            } => Seen::Start(name, attrs.src, attrs.iter().collect(), self_closing),
            super::Token::EndTag { name } => Seen::End(name),
            super::Token::Text(text) => Seen::Text(text),
            super::Token::Comment(text) => Seen::Comment(text),
            super::Token::Doctype(text) => Seen::Doctype(text),
        })
        .collect()
}

/// Whitespace as `char::is_whitespace` has it, ASCII and not, and the
/// characters around it that are not.
const SPACES: &[&str] = &[
    " ", "\t", "\n", "\r", "\u{b}", "\u{c}", "\u{85}", "\u{a0}", "\u{2028}", "\u{3000}", "",
    "\u{1c}", "\u{1f}", "\u{a1}", "\u{2027}",
];

const NAMES: &[&str] = &[
    "script", "SCRIPT", "style", "title", "p", "a", "object", "script-x", "scriptx", "名前", "é",
    "x:y", "img",
];

const ATTR_NAMES: &[&str] = &[
    "src", "SRC", "data-x", "名", "é=", "a\u{a0}b", "/", "//", "'", "\"",
];

/// A value, quoted or not, closed or not, holding what ends a tag or an
/// unquoted value.
fn value(g: &mut Gen) -> String {
    let body = g
        .vec(0..=4, |g| {
            g.pick(&[
                "a",
                ">",
                "/>",
                "'",
                "\"",
                "=",
                "日本",
                "\u{a0}",
                " ",
                "&amp;",
                "</script>",
            ])
            .to_string()
        })
        .concat();
    let quote = *g.pick(&["\"", "'", ""]);
    let close = if g.bool() { quote } else { "" };
    format!("{quote}{body}{close}")
}

fn attribute(g: &mut Gen) -> String {
    let name = *g.pick(ATTR_NAMES);
    let space = |g: &mut Gen| g.vec(0..=2, |g| g.pick(SPACES).to_string()).concat();
    let (before, around) = (space(g), [space(g), space(g)]);
    if g.bool() {
        format!("{before}{name}")
    } else {
        format!("{before}{name}{}={}{}", around[0], around[1], value(g))
    }
}

/// One piece of tag soup: a start or end tag, a comment, a declaration
/// or text, each possibly cut short.
fn piece(g: &mut Gen) -> String {
    match g.range(0..=6) {
        0 | 1 => {
            let attrs = g.vec(0..=4, attribute).concat();
            let end = *g.pick(&[">", "/>", " />", "", "\u{3000}>"]);
            format!("<{}{attrs}{end}", g.pick(NAMES))
        }
        2 => format!(
            "</{}{}",
            g.pick(NAMES),
            g.pick(&[">", " x>", "", "\u{85}>"])
        ),
        3 => format!(
            "<!--{}{}",
            g.unicode(0..=6),
            g.pick(&["-->", "", "--", "->"])
        ),
        4 => g
            .pick(&[
                "<!DOCTYPE html>",
                "<!doctype\u{a0}x>",
                "<!x",
                "<?xml 日?>",
                "<?",
                "<![CDATA[",
                "</>",
            ])
            .to_string(),
        _ => format!(
            "{}{}",
            g.pick(&[
                "",
                "&amp;",
                "&#x41;",
                "&",
                "<",
                "< b",
                "a<1",
                "</script-x>",
                "</SCRIPT >"
            ]),
            g.unicode(0..=8)
        ),
    }
}

fn soup(g: &mut Gen) -> String {
    g.vec(0..=12, piece).concat()
}

#[test]
fn the_byte_scan_yields_the_char_scans_tokens() {
    check::run("the_byte_scan_yields_the_char_scans_tokens", 4_096, |g| {
        let input = soup(g);
        assert_eq!(bytewise(&input), oracle(&input), "{input:?}");
    });
}

#[test]
fn ascii_whitespace_is_chars_whitespace() {
    for b in 0..0x80u8 {
        let input = format!("<p a{}b>", b as char);
        assert_eq!(bytewise(&input), oracle(&input), "{b:#04x}");
    }
}

#[test]
fn tags_with_more_attributes_than_spans_held_read_alike() {
    for n in [7, 8, 9, 40] {
        let attrs: String = (0..n).map(|i| format!(" a{i}='{i}>'")).collect();
        let input = format!("<p{attrs}>x<p{attrs} b={}>", "v".repeat(70_000));
        assert_eq!(bytewise(&input), oracle(&input), "{n} attributes");
    }
}
