//! Property-based tests: the parser must never panic and must uphold basic
//! structural invariants on arbitrary byte soup and on well-formed trees.

use webvuln_failpoint::check::{self, Gen, PRINTABLE};
use webvuln_html::{extract, Document, Token};

/// Generates a well-formed HTML fragment along with the number of
/// elements and the concatenated text it contains.
fn well_formed(g: &mut Gen, depth: u32) -> (String, usize, String) {
    if depth == 0 || g.bool() {
        let text = g.string("abcdefghijklmnopqrstuvwxyz ", 0..=8);
        return (text.clone(), 0, text);
    }
    let tag = *g.pick(&["div", "p", "span", "b"]);
    let mut html = format!("<{tag}>");
    let mut count = 1usize;
    let mut text = String::new();
    for (h, c, t) in g.vec(0..=2, |g| well_formed(g, depth - 1)) {
        html.push_str(&h);
        count += c;
        text.push_str(&t);
    }
    html.push_str(&format!("</{tag}>"));
    (html, count, text)
}

/// The two inputs a property-testing crate once shrank a tokenizer panic
/// to (multi-byte characters right after `&` and inside `<?…>`).
#[test]
fn multibyte_after_markup_openers_does_not_panic() {
    for input in ["&\u{1e130}ወa𐖔", "<?۞𞺫ힰ>"] {
        let doc = Document::parse(input);
        let _ = extract(&doc);
        let _ = doc.text_content();
    }
}

/// Arbitrary printable soup never panics the tokenizer or tree builder,
/// and extraction always succeeds.
#[test]
fn never_panics_on_soup() {
    // Printable ASCII plus newline, with the markup characters weighted up.
    let charset = format!("{PRINTABLE}\n<>\"'/=!-");
    check::run("never_panics_on_soup", 256, |g| {
        let input = g.string(&charset, 0..=300);
        let doc = Document::parse(&input);
        let _ = extract(&doc);
        let _ = doc.text_content();
        let _ = doc.elements().count();
    });
}

/// Arbitrary unicode never panics either.
#[test]
fn never_panics_on_unicode() {
    check::run("never_panics_on_unicode", 256, |g| {
        // Markup openers spliced between unicode runs, so multi-byte
        // characters land right after `<`, `&`, `<?` and inside tags.
        let input = g
            .vec(0..=8, |g| {
                format!(
                    "{}{}",
                    g.pick(&["", "<", "</", "<?", "<!--", "&", "&#", "=\"", ">"]),
                    g.unicode(0..=25)
                )
            })
            .concat();
        let doc = Document::parse(&input);
        let _ = extract(&doc);
    });
}

/// On well-formed input, element count and text content are exact.
#[test]
fn well_formed_round_trip() {
    check::run("well_formed_round_trip", 256, |g| {
        let (html, count, text) = well_formed(g, 3);
        let doc = Document::parse(&html);
        assert_eq!(doc.elements().count(), count);
        assert_eq!(doc.text_content(), text);
    });
}

/// Start/end tag tokens balance on well-formed input.
#[test]
fn tokens_balance_on_well_formed() {
    check::run("tokens_balance_on_well_formed", 256, |g| {
        let (html, _, _) = well_formed(g, 3);
        let mut depth = 0i64;
        for token in webvuln_html::tokenize(&html) {
            match token {
                Token::StartTag {
                    self_closing: false,
                    ..
                } => depth += 1,
                Token::EndTag { .. } => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
    });
}

/// Attribute values written with double quotes round-trip through the
/// parser (modulo entity decoding, which the generator avoids).
#[test]
fn attribute_value_round_trip() {
    const VALUE: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ./:_-";
    check::run("attribute_value_round_trip", 256, |g| {
        let value = g.string(VALUE, 0..=24);
        let html = format!(r#"<script src="{value}"></script>"#);
        let doc = Document::parse(&html);
        let script = doc.elements().next().expect("script present");
        assert_eq!(script.attr("src").unwrap_or(""), value.as_str());
    });
}
