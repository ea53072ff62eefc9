//! Minimal JSON emission for API responses.
//!
//! The workspace keeps its core layers free of external crates, so
//! responses are written with a small escaping builder instead of a
//! serializer framework (`webvuln-telemetry`'s snapshot export hand-writes
//! JSON the same way). Numbers use Rust's shortest-round-trip `Display`,
//! which is valid JSON for every finite value; non-finite floats become
//! `null` so a body can never contain `NaN`.

/// Appends `s` to `out` as a JSON string literal (with the quotes).
pub fn write_escaped(out: &mut String, s: &str) {
    webvuln_telemetry::json_string(s, out);
}

/// The JSON token for a float: shortest-round-trip decimal, or `null`
/// when the value is not finite.
pub fn f64_token(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Builder for a JSON object. Field order is insertion order, so bodies
/// are byte-deterministic.
#[derive(Debug)]
pub struct Obj {
    buf: String,
    first: bool,
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Obj {
        Obj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        write_escaped(&mut self.buf, k);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn str(mut self, k: &str, v: &str) -> Obj {
        self.key(k);
        write_escaped(&mut self.buf, v);
        self
    }

    /// Adds a string-or-null field.
    pub fn opt_str(self, k: &str, v: Option<&str>) -> Obj {
        match v {
            Some(v) => self.str(k, v),
            None => self.raw(k, "null"),
        }
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Obj {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Adds a signed integer field.
    pub fn i64(mut self, k: &str, v: i64) -> Obj {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Adds a float field (`null` when not finite).
    pub fn f64(mut self, k: &str, v: f64) -> Obj {
        self.key(k);
        self.buf.push_str(&f64_token(v));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Obj {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a pre-serialized JSON value (an [`Obj`] or [`Arr`] body).
    pub fn raw(mut self, k: &str, v: &str) -> Obj {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Closes the object and returns its text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for Obj {
    fn default() -> Self {
        Obj::new()
    }
}

/// Builder for a JSON array of pre-serialized elements.
#[derive(Debug)]
pub struct Arr {
    buf: String,
    first: bool,
}

impl Arr {
    /// Starts an empty array.
    pub fn new() -> Arr {
        Arr {
            buf: String::from("["),
            first: true,
        }
    }

    /// Appends a pre-serialized JSON value.
    pub fn push_raw(&mut self, v: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push_str(v);
    }

    /// Appends a string element.
    pub fn push_str(&mut self, v: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        write_escaped(&mut self.buf, v);
    }

    /// Closes the array and returns its text.
    pub fn finish(mut self) -> String {
        self.buf.push(']');
        self.buf
    }
}

impl Default for Arr {
    fn default() -> Self {
        Arr::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_and_quote_characters() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn object_fields_keep_insertion_order() {
        let body = Obj::new()
            .str("name", "jquery")
            .u64("weeks", 12)
            .f64("share", 0.5)
            .bool("ok", true)
            .opt_str("missing", None)
            .finish();
        assert_eq!(
            body,
            r#"{"name":"jquery","weeks":12,"share":0.5,"ok":true,"missing":null}"#
        );
    }

    #[test]
    fn arrays_nest_inside_objects() {
        let mut points = Arr::new();
        points.push_raw(&Obj::new().u64("week", 0).finish());
        points.push_raw(&Obj::new().u64("week", 1).finish());
        let body = Obj::new().raw("points", &points.finish()).finish();
        assert_eq!(body, r#"{"points":[{"week":0},{"week":1}]}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(f64_token(f64::NAN), "null");
        assert_eq!(f64_token(f64::INFINITY), "null");
        assert_eq!(f64_token(1.25), "1.25");
    }
}
