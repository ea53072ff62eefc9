//! The workspace's one JSON emitter.
//!
//! No crate here depends on a serializer, so every JSON document — metric
//! snapshots, Chrome traces, the store export, every `serve` body — is
//! written through [`JsonWriter`]: one growing buffer, commas placed by
//! the writer, strings escaped in one place. Output is
//! byte-deterministic: members appear in call order, numbers use Rust's
//! shortest-round-trip `Display` (valid JSON for every finite value), and
//! a non-finite float is `null`, so a document can never contain `NaN`.

use std::fmt::Write as _;

/// Whether JSON needs byte `b` escaped inside a string: a quote, a
/// backslash, or a control character.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Appends `s` to `out` as a JSON string literal (quoted, escaped).
fn json_string(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
    // Most strings need nothing escaped: one scan that does not branch
    // per byte, then one copy.
    if !s.bytes().fold(false, |any, b| any | needs_escape(b)) {
        out.push_str(s);
        out.push('"');
        return;
    }
    // Everything that needs escaping is one ASCII byte, so the clean runs
    // between escapes are copied as slices.
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

/// Appends `v` in decimal, digit for digit what `Display` writes, without
/// going through `core::fmt`.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

/// Streaming JSON writer. Values are written in document order and the
/// writer supplies the commas: [`begin_obj`](JsonWriter::begin_obj) opens
/// the root object or an array element, every other method writes one
/// named member of the open object.
///
/// ```
/// let mut j = webvuln_telemetry::JsonWriter::new();
/// j.begin_obj().u64("week", 3).strs("libraries", ["jquery", "d3"]);
/// j.end_obj();
/// assert_eq!(j.finish(), r#"{"week":3,"libraries":["jquery","d3"]}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next value at this nesting level needs a `,` first.
    comma: bool,
}

// The member writers are `#[inline]`: a body is written from other crates,
// one call per member, and across a crate a call is not inlined otherwise.
impl JsonWriter {
    /// Starts an empty document.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// Starts an empty document in a buffer of `bytes`, for a writer that
    /// knows about how long its document will be.
    pub fn with_capacity(bytes: usize) -> JsonWriter {
        JsonWriter {
            out: String::with_capacity(bytes),
            comma: false,
        }
    }

    /// Positions the buffer for one more value.
    #[inline]
    fn value(&mut self) -> &mut String {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        &mut self.out
    }

    /// Writes a member's name and positions the buffer for its value.
    #[inline]
    fn member(&mut self, k: &str) -> &mut String {
        json_string(k, self.value());
        self.out.push(':');
        &mut self.out
    }

    /// Writes a bracket: a value follows a closing one with a comma, an
    /// opening one without.
    #[inline]
    fn bracket(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.comma = matches!(bracket, '}' | ']');
        self
    }

    /// Opens an object that is the document or an array element.
    #[inline]
    pub fn begin_obj(&mut self) -> &mut Self {
        self.value();
        self.bracket('{')
    }

    /// Opens the object member `k`.
    #[inline]
    pub fn obj(&mut self, k: &str) -> &mut Self {
        self.member(k);
        self.bracket('{')
    }

    /// Opens the array member `k`.
    #[inline]
    pub fn arr(&mut self, k: &str) -> &mut Self {
        self.member(k);
        self.bracket('[')
    }

    /// Closes the innermost object.
    #[inline]
    pub fn end_obj(&mut self) -> &mut Self {
        self.bracket('}')
    }

    /// Closes the innermost array.
    #[inline]
    pub fn end_arr(&mut self) -> &mut Self {
        self.bracket(']')
    }

    /// Writes an array-of-strings member.
    pub fn strs<S: AsRef<str>>(&mut self, k: &str, vs: impl IntoIterator<Item = S>) -> &mut Self {
        self.arr(k);
        for v in vs {
            json_string(v.as_ref(), self.value());
        }
        self.end_arr()
    }

    /// Writes a string member.
    #[inline]
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        json_string(v, self.member(k));
        self
    }

    /// Writes a string-or-`null` member.
    #[inline]
    pub fn opt_str(&mut self, k: &str, v: Option<&str>) -> &mut Self {
        match v {
            Some(v) => self.str(k, v),
            None => self.null(k),
        }
    }

    /// Writes an unsigned integer member.
    #[inline]
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        push_u64(self.member(k), v);
        self
    }

    /// Writes a signed integer member.
    #[inline]
    pub fn i64(&mut self, k: &str, v: i64) -> &mut Self {
        let out = self.member(k);
        if v < 0 {
            out.push('-');
        }
        push_u64(out, v.unsigned_abs());
        self
    }

    /// Writes a signed-integer-or-`null` member.
    #[inline]
    pub fn opt_i64(&mut self, k: &str, v: Option<i64>) -> &mut Self {
        match v {
            Some(v) => self.i64(k, v),
            None => self.null(k),
        }
    }

    /// Writes a float member: shortest-round-trip decimal, or `null` when
    /// the value is not finite.
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        if !v.is_finite() {
            return self.null(k);
        }
        let _ = write!(self.member(k), "{v}");
        self
    }

    /// Writes a boolean member.
    #[inline]
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.member(k).push_str(if v { "true" } else { "false" });
        self
    }

    #[inline]
    fn null(&mut self, k: &str) -> &mut Self {
        self.member(k).push_str("null");
        self
    }

    /// Writes what has been emitted so far to `sink` and forgets it, so a
    /// document larger than memory streams out piece by piece.
    pub fn write_to<W: std::io::Write>(&mut self, sink: &mut W) -> std::io::Result<()> {
        sink.write_all(self.out.as_bytes())?;
        self.out.clear();
        Ok(())
    }

    /// Returns the document text.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use webvuln_failpoint::check::{self, Gen};

    /// The escaper before its fast path, kept as the oracle.
    fn json_string_oracle(s: &str, out: &mut String) {
        out.push('"');
        let mut clean = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            out.push_str(&s[clean..i]);
            if escape.is_empty() {
                let _ = write!(out, "\\u{b:04x}");
            } else {
                out.push_str(escape);
            }
            clean = i + 1;
        }
        out.push_str(&s[clean..]);
        out.push('"');
    }

    /// A string mixing what the escaper treats differently: every control
    /// byte, quote, backslash, DEL, printable ASCII and non-ASCII text.
    fn awkward_string(g: &mut Gen) -> String {
        let pieces = g.vec(0..=24, |g| match g.range(0..=3) {
            0 => char::from(g.range(0..=0x1f) as u8).to_string(),
            1 => g
                .pick(&["\"", "\\", "\u{7f}", "é", "\u{2028}", "😀"])
                .to_string(),
            2 => g.string(check::PRINTABLE, 0..=8),
            _ => g.unicode(0..=4),
        });
        pieces.concat()
    }

    #[test]
    fn fast_paths_equal_the_formatting_oracles() {
        check::run("json fast paths equal the formatting oracles", 512, |g| {
            let s = awkward_string(g);
            let (mut fast, mut slow) = (String::from("x"), String::from("x"));
            json_string(&s, &mut fast);
            json_string_oracle(&s, &mut slow);
            assert_eq!(fast, slow, "escaping {s:?}");
            let (u, i) = (g.range(0..=u64::MAX), g.range(0..=u64::MAX) as i64);
            let mut j = JsonWriter::new();
            j.begin_obj().u64("u", u).i64("i", i).end_obj();
            assert_eq!(j.finish(), format!("{{\"u\":{u},\"i\":{i}}}"));
        });
    }

    #[test]
    fn integer_extremes_print_as_display_does() {
        let mut j = JsonWriter::with_capacity(8);
        j.begin_obj().u64("zero", 0).u64("max", u64::MAX);
        j.i64("izero", 0)
            .i64("min", i64::MIN)
            .i64("imax", i64::MAX)
            .i64("neg", -1);
        j.end_obj();
        let want = format!(
            "{{\"zero\":{},\"max\":{},\"izero\":{},\"min\":{},\"imax\":{},\"neg\":{}}}",
            0u64,
            u64::MAX,
            0i64,
            i64::MIN,
            i64::MAX,
            -1i64
        );
        assert_eq!(j.finish(), want);
    }

    #[test]
    fn escapes_control_and_quote_characters() {
        let mut out = String::new();
        json_string("a\"b\\c\nd\u{1}é\t", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001é\\t\"");
    }

    #[test]
    fn object_fields_keep_insertion_order() {
        let mut j = JsonWriter::new();
        j.begin_obj().str("na\"me", "jquery").u64("weeks", 12);
        j.f64("share", 0.5).i64("delta", -3).bool("ok", true);
        j.opt_str("missing", None).opt_i64("since", None).end_obj();
        assert_eq!(
            j.finish(),
            r#"{"na\"me":"jquery","weeks":12,"share":0.5,"delta":-3,"ok":true,"missing":null,"since":null}"#
        );
    }

    #[test]
    fn arrays_nest_inside_objects() {
        let mut j = JsonWriter::new();
        j.begin_obj().arr("points");
        for week in 0..2 {
            j.begin_obj().u64("week", week).end_obj();
        }
        j.end_arr().obj("none").end_obj().strs("names", ["a", "b"]);
        j.strs("nobody", [""; 0]).end_obj();
        assert_eq!(
            j.finish(),
            r#"{"points":[{"week":0},{"week":1}],"none":{},"names":["a","b"],"nobody":[]}"#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut j = JsonWriter::new();
        j.begin_obj().f64("nan", f64::NAN).f64("inf", f64::INFINITY);
        j.f64("finite", 1.25).end_obj();
        assert_eq!(j.finish(), r#"{"nan":null,"inf":null,"finite":1.25}"#);
    }

    #[test]
    fn a_flushed_document_keeps_its_commas() {
        let mut j = JsonWriter::new();
        let mut sink = Vec::new();
        j.begin_obj().arr("weeks");
        for week in 0..3 {
            j.begin_obj().u64("week", week).end_obj();
            j.write_to(&mut sink).expect("write");
        }
        j.end_arr().end_obj().write_to(&mut sink).expect("write");
        assert_eq!(sink, br#"{"weeks":[{"week":0},{"week":1},{"week":2}]}"#);
    }
}
