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
//!
//! It scans bytes: markup and entities are found eight bytes a step, and a
//! character is decoded only where a non-ASCII byte might start
//! whitespace. A start tag keeps the spans of the attributes its scan met
//! on the way to its end, so reading them scans nothing again. The
//! char-level tokenizer this replaced is kept, in tests, as its oracle.

use std::borrow::Cow;

/// A lexical token of an HTML document, borrowed from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// `<name attr="value" …>`; `self_closing` reflects a trailing `/`.
    StartTag {
        /// Tag name as written.
        name: &'a str,
        /// The attributes, as the tag's scan found them.
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

/// Attributes whose spans a start tag keeps; a tag with more, or longer
/// than a `u16` can index, is scanned again when they are read.
const HELD: usize = 8;

/// A start tag's attributes: the tag's source after its name, and where
/// in it the scan that found the tag's end met each attribute's name and
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attributes<'a> {
    src: &'a str,
    /// `[name start, name end, value start, value end]` in `src`.
    spans: [[u16; 4]; HELD],
    /// How many of `spans` are set; `None` when they do not cover the tag.
    held: Option<u8>,
}

impl<'a> Attributes<'a> {
    /// `(name, value)` pairs in document order, both as written: names
    /// keep their case and values are not entity-decoded (read one with
    /// `decode_entities`). A valueless attribute has the value `""`.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, &'a str)> {
        let (src, spans) = (self.src, self.spans);
        let mut held = self.held.map(|n| spans.into_iter().take(n.into()));
        let mut scan = AttrScan::new(src, 0);
        std::iter::from_fn(move || match &mut held {
            Some(spans) => spans.next().map(|[a, b, c, d]| {
                let at = |from: u16, to: u16| &src[from.into()..to.into()];
                (at(a, b), at(c, d))
            }),
            None => scan.next_attr(),
        })
    }
}

/// Tokenizes `input` into a sequence of [`Token`]s. Never fails.
pub fn tokenize(input: &str) -> Vec<Token<'_>> {
    // About one token per sixteen bytes of a landing page.
    let mut tokens = Vec::with_capacity(input.len() / 16 + 1);
    tokens.extend(Tokenizer::new(input));
    tokens
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

/// The first byte of `hay` that is `a` or `b`, eight bytes a step.
fn find_either(hay: &[u8], a: u8, b: u8) -> Option<usize> {
    const LOW: u64 = 0x0101_0101_0101_0101;
    // The lowest zero byte of `x` sets its high bit here.
    let zero = |x: u64| x.wrapping_sub(LOW) & !x & (LOW << 7);
    let mut words = hay.chunks_exact(8);
    for (i, word) in (&mut words).enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("8 bytes"));
        let found = zero(x ^ (LOW * u64::from(a))) | zero(x ^ (LOW * u64::from(b)));
        if found != 0 {
            return Some(i * 8 + found.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder().iter().position(|&c| c == a || c == b);
    tail.map(|i| hay.len() / 8 * 8 + i)
}

/// The length of the whitespace character ([`char::is_whitespace`]) at
/// byte `p` of `s`, or 0. An ASCII byte is read as it is; a character is
/// decoded only when its first byte is not ASCII.
fn space_at(s: &str, p: usize) -> usize {
    match s.as_bytes().get(p) {
        Some(b'\t'..=b'\r' | b' ') => 1,
        Some(0x80..=0xFF) => s[p..]
            .chars()
            .next()
            .filter(|c| c.is_whitespace())
            .map_or(0, char::len_utf8),
        _ => 0,
    }
}

fn skip_whitespace(s: &str, mut p: usize) -> usize {
    loop {
        match space_at(s, p) {
            0 => return p,
            n => p += n,
        }
    }
}

/// Where the run of `s` from byte `p` ends: at whitespace, at a byte
/// `stop` accepts, or at the end.
fn run_end(s: &str, mut p: usize, stop: impl Fn(u8) -> bool) -> usize {
    while let Some(&b) = s.as_bytes().get(p) {
        if stop(b) || space_at(s, p) > 0 {
            break;
        }
        // A character's length is the count of its first byte's high ones.
        p += (b.leading_ones() as usize).max(1);
    }
    p
}

/// The pull tokenizer: yields the [`Token`]s of `input` in order.
pub struct Tokenizer<'a> {
    input: &'a str,
    pos: usize,
    /// The raw-text element whose content comes next.
    raw: Option<&'a str>,
}

impl<'a> Tokenizer<'a> {
    /// A tokenizer at the start of `input`.
    pub fn new(input: &'a str) -> Tokenizer<'a> {
        Tokenizer {
            input,
            pos: 0,
            raw: None,
        }
    }

    /// Whether the `<` at `at` opens markup; any other `<` is text.
    fn is_markup(&self, at: usize) -> bool {
        let b = self.input.as_bytes();
        b[at] == b'<'
            && b.get(at + 1)
                .is_some_and(|&c| matches!(c, b'!' | b'?' | b'/') || c.is_ascii_alphabetic())
    }

    /// Where the text starting at `from` ends (the next markup, or the
    /// end), entity-decoded: one scan finds both `<` and `&`.
    fn text_run(&mut self, from: usize) -> Cow<'a, str> {
        let (bytes, mut at, mut amp) = (self.input.as_bytes(), from, false);
        self.pos = loop {
            let Some(rel) = find_either(&bytes[at..], b'<', b'&') else {
                break bytes.len();
            };
            at += rel;
            if bytes[at] == b'<' && self.is_markup(at) {
                break at;
            }
            amp |= bytes[at] == b'&';
            at += 1;
        };
        let run = &self.input[from..self.pos];
        if amp {
            decode_entities(run)
        } else {
            Cow::Borrowed(run)
        }
    }

    fn text(&mut self) -> Token<'a> {
        let mut text = self.text_run(self.pos);
        // Markup that makes no token (`</>`, `<?…>`, a declaration that is
        // not a doctype) does not end the text: the run after it belongs
        // to the same token.
        while self.pos < self.input.len() && !self.makes_token() {
            let _ = self.markup();
            let more = self.text_run(self.pos);
            text.to_mut().push_str(&more);
        }
        Token::Text(text)
    }

    /// Whether the markup at `self.pos` makes a token, read without
    /// consuming it.
    fn makes_token(&self) -> bool {
        let rest = &self.input.as_bytes()[self.pos..];
        match rest[1] {
            b'!' if rest.starts_with(b"<!--") => true,
            b'!' => {
                let doctype = rest
                    .get(2..9)
                    .is_some_and(|p| p.eq_ignore_ascii_case(b"DOCTYPE"));
                doctype && rest.contains(&b'>')
            }
            b'/' => rest.get(2).is_some_and(|&b| is_name_byte(b)),
            b => b != b'?',
        }
    }

    /// Consumes the markup at `self.pos` (a `<` that opens markup); `None`
    /// when it makes no token.
    fn markup(&mut self) -> Option<Token<'a>> {
        let rest = &self.input.as_bytes()[self.pos..];
        if rest.starts_with(b"<!--") {
            Some(self.comment())
        } else if matches!(rest[1], b'!' | b'?') {
            self.declaration()
        } else if rest[1] == b'/' {
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

    /// The byte after the next `>` from `from`, or the end of the input.
    fn past_gt(&self, from: usize) -> Option<usize> {
        find_either(&self.input.as_bytes()[from..], b'>', b'>').map(|rel| from + rel + 1)
    }

    fn declaration(&mut self) -> Option<Token<'a>> {
        // `<!DOCTYPE …>`, `<![CDATA[…]]>`, `<?xml …?>` — find closing '>'.
        let start = self.pos;
        let Some(end) = self.past_gt(start) else {
            self.pos = self.input.len();
            return None;
        };
        self.pos = end;
        let inner = &self.input[start + 2..end - 1];
        let is_doctype = inner
            .as_bytes()
            .get(..7)
            .is_some_and(|p| p.eq_ignore_ascii_case(b"DOCTYPE"));
        is_doctype.then(|| Token::Doctype(inner[7..].trim()))
    }

    fn end_tag(&mut self) -> Option<Token<'a>> {
        let name_start = self.pos + 2;
        let name_end = name_start + name_len(&self.input[name_start..]);
        // Skip to '>' (tolerating junk inside the end tag).
        self.pos = self.past_gt(name_end).unwrap_or(self.input.len());
        let name = &self.input[name_start..name_end];
        (!name.is_empty()).then_some(Token::EndTag { name })
    }

    fn start_tag(&mut self) -> Token<'a> {
        let name_start = self.pos + 1;
        let name_end = name_start + name_len(&self.input[name_start..]);
        let mut scan = AttrScan::new(self.input, name_end);
        let mut spans = [[0; 4]; HELD];
        let mut held = Some(0u8);
        while let Some(attr) = scan.next_attr() {
            let at = |part: &str| part.as_ptr() as usize - self.input.as_ptr() as usize - name_end;
            let [a, b] = [attr.0, attr.1].map(|part| [at(part), at(part) + part.len()]);
            let span = [a[0], a[1], b[0], b[1]].map(u16::try_from);
            held = match (held, span) {
                (Some(n), [Ok(a), Ok(b), Ok(c), Ok(d)]) if usize::from(n) < HELD => {
                    spans[usize::from(n)] = [a, b, c, d];
                    Some(n + 1)
                }
                _ => None,
            };
        }
        self.pos = scan.p.min(self.input.len());
        let name = &self.input[name_start..name_end];
        if is_raw_text_element(name) && !scan.self_closing {
            self.raw = Some(name);
        }
        Token::StartTag {
            name,
            attrs: Attributes {
                src: &self.input[name_end..self.pos],
                spans,
                held,
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
    let mut at = 0;
    while let Some(rel) = find_either(&bytes[at..], b'<', b'<') {
        at += rel;
        let after = at + 2 + name.len();
        let named = bytes.get(at + 1) == Some(&b'/')
            && bytes
                .get(at + 2..after)
                .is_some_and(|n| n.eq_ignore_ascii_case(name.as_bytes()));
        if named && !bytes.get(after).is_some_and(|&b| is_name_byte(b)) {
            return Some(at);
        }
        at += 1;
    }
    None
}

/// Reads a start tag's attributes from byte `p` of `s` (just past the tag
/// name) to the tag's end. The tokenizer runs it once, to find where the
/// tag ends, and keeps the spans it met; [`Attributes::iter`] runs it
/// again only over a tag whose spans were not all kept.
struct AttrScan<'a> {
    s: &'a str,
    p: usize,
    self_closing: bool,
}

impl<'a> AttrScan<'a> {
    fn new(s: &'a str, p: usize) -> AttrScan<'a> {
        AttrScan {
            s,
            p,
            self_closing: false,
        }
    }

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
            self.p = run_end(s, start, |b| matches!(b, b'=' | b'>' | b'/'));
            let name = &s[start..self.p];
            if name.is_empty() {
                // Defensive: avoid an infinite loop on weird bytes.
                self.p += s[self.p..].chars().next().map_or(1, char::len_utf8);
                continue;
            }
            // Optional value.
            let q = skip_whitespace(s, self.p);
            if s.as_bytes().get(q) != Some(&b'=') {
                return Some((name, &s[self.p..self.p]));
            }
            let (value, next) = attr_value(s, skip_whitespace(s, q + 1));
            self.p = next;
            return Some((name, value));
        }
    }
}

/// The raw attribute value at byte `at` of `s`, and the byte after it.
/// Every value, even an empty one, is a slice of `s`.
fn attr_value(s: &str, at: usize) -> (&str, usize) {
    match s.as_bytes().get(at) {
        Some(&q @ (b'"' | b'\'')) => {
            let start = at + 1;
            match find_either(&s.as_bytes()[start..], q, q) {
                Some(rel) => (&s[start..start + rel], start + rel + 1),
                None => (&s[start..], s.len()),
            }
        }
        Some(_) => {
            let end = run_end(s, at, |b| b == b'>');
            (&s[at..end], end)
        }
        None => (&s[s.len()..], s.len()),
    }
}

/// Decodes the five standard named entities plus `&nbsp;` and numeric
/// references; borrows `s` when it holds no `&`.
pub(crate) fn decode_entities(s: &str) -> Cow<'_, str> {
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

#[cfg(test)]
mod oracle;
