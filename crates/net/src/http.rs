//! Core HTTP/1.1 message types: methods, status codes, headers, requests
//! and responses.
//!
//! These are plain owned data structures; all wire-format concerns live in
//! [`crate::codec`].

use std::borrow::Cow;
use std::fmt;

/// An HTTP request method. The crawler only issues `GET`/`HEAD`, but the
/// server side accepts the full common set so it can reject the rest
/// gracefully.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// `GET`
    Get,
    /// `HEAD`
    Head,
    /// `POST`
    Post,
    /// `PUT`
    Put,
    /// `DELETE`
    Delete,
    /// `OPTIONS`
    Options,
}

impl Method {
    /// Parses a method token.
    pub(crate) fn parse(s: &str) -> Option<Method> {
        Some(match s {
            "GET" => Method::Get,
            "HEAD" => Method::Head,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            "OPTIONS" => Method::Options,
            _ => return None,
        })
    }

    /// The canonical token.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Head => "HEAD",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Options => "OPTIONS",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An HTTP status code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Status(pub u16);

impl Status {
    /// 200 OK.
    pub const OK: Status = Status(200);
    /// 400 Bad Request.
    pub const BAD_REQUEST: Status = Status(400);
    /// 403 Forbidden — the anti-crawler blocks the paper observed.
    pub const FORBIDDEN: Status = Status(403);
    /// 404 Not Found.
    pub const NOT_FOUND: Status = Status(404);
    /// 503 Service Unavailable.
    pub const SERVICE_UNAVAILABLE: Status = Status(503);

    /// 2xx?
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.0)
    }

    /// 3xx?
    pub(crate) fn is_redirect(&self) -> bool {
        (300..400).contains(&self.0)
    }

    /// 4xx — the paper's inaccessible-domain filter keys on these.
    pub fn is_client_error(&self) -> bool {
        (400..500).contains(&self.0)
    }

    /// Canonical reason phrase.
    pub(crate) fn reason(&self) -> &'static str {
        match self.0 {
            200 => "OK",
            204 => "No Content",
            301 => "Moved Permanently",
            302 => "Found",
            304 => "Not Modified",
            400 => "Bad Request",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.0, self.reason())
    }
}

/// A header name or value: a standard one is borrowed from the binary,
/// any other is owned.
pub(crate) type Field = Cow<'static, str>;

/// The header names and values (and the root target) this stack writes
/// itself, so that neither building nor decoding its own messages
/// allocates for them.
#[rustfmt::skip]
const STANDARD: [&str; 14] = [
    "Host", "User-Agent", "Accept", "Content-Type", "Content-Length", "Transfer-Encoding",
    "Connection", "Location", "text/html; charset=utf-8", "text/html", "webvuln-crawler/0.1",
    "chunked", "close", "/",
];

/// The fields the crawler's `GET` carries after `Host`.
pub(crate) const GET_FIELDS: [(&str, &str); 2] = [
    ("User-Agent", "webvuln-crawler/0.1"),
    ("Accept", "text/html"),
];

/// `text` as a [`Field`]: borrowed when it is one of the [`STANDARD`]
/// strings byte for byte, else an owned copy.
pub(crate) fn field(text: &str) -> Field {
    match STANDARD.iter().find(|s| **s == text) {
        Some(s) => Cow::Borrowed(s),
        None => Cow::Owned(text.to_string()),
    }
}

/// An ordered multi-map of header fields with case-insensitive names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    fields: Vec<(Field, Field)>,
}

impl Headers {
    /// An empty header map.
    pub fn new() -> Headers {
        Headers::default()
    }

    /// Appends a field (duplicates allowed, per HTTP semantics).
    pub fn insert(&mut self, name: impl Into<Field>, value: impl Into<Field>) {
        self.fields.push((name.into(), value.into()));
    }

    /// First value of `name`, case-insensitive.
    pub(crate) fn get(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_ref())
    }

    /// Replaces every occurrence of `name` with a single field.
    pub(crate) fn set(&mut self, name: &'static str, value: impl Into<Field>) {
        self.fields.retain(|(k, _)| !k.eq_ignore_ascii_case(name));
        self.fields.push((Cow::Borrowed(name), value.into()));
    }

    /// All fields in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.fields.iter().map(|(k, v)| (k.as_ref(), v.as_ref()))
    }

    /// `Content-Length` parsed as usize, if present and well-formed.
    pub(crate) fn content_length(&self) -> Option<usize> {
        self.get("content-length")?.trim().parse().ok()
    }

    /// True when `Transfer-Encoding` ends with `chunked`.
    pub(crate) fn is_chunked(&self) -> bool {
        self.get("transfer-encoding")
            .map(|v| {
                v.split(',')
                    .next_back()
                    .map(|t| t.trim().eq_ignore_ascii_case("chunked"))
                    .unwrap_or(false)
            })
            .unwrap_or(false)
    }

    /// True when the peer asked to close the connection.
    pub(crate) fn wants_close(&self) -> bool {
        self.get("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false)
    }
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Request target (origin-form path, e.g. `/index.html`); the root
    /// path is borrowed.
    pub target: Field,
    /// Header fields.
    pub headers: Headers,
    /// Body bytes (empty for GET).
    pub body: Vec<u8>,
}

impl Request {
    /// Builds a minimal `GET` request for `target` against `host`.
    pub fn get(host: &str, target: &str) -> Request {
        let mut headers = Headers::new();
        headers.insert("Host", host.to_string());
        for (name, value) in GET_FIELDS {
            headers.insert(name, value);
        }
        Request {
            method: Method::Get,
            target: field(target),
            headers,
            body: Vec::new(),
        }
    }

    /// The `Host` header, if present.
    pub fn host(&self) -> Option<&str> {
        self.headers.get("host")
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: Status,
    /// Header fields.
    pub(crate) headers: Headers,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// Builds a response with a body and content type.
    pub fn new(status: Status, content_type: &str, body: impl Into<Vec<u8>>) -> Response {
        let body = body.into();
        let mut headers = Headers::new();
        headers.insert("Content-Type", field(content_type));
        headers.insert("Content-Length", body.len().to_string());
        Response {
            status,
            headers,
            body,
        }
    }

    /// A 200 HTML page.
    pub fn html(body: impl Into<Vec<u8>>) -> Response {
        Response::new(Status::OK, "text/html; charset=utf-8", body)
    }

    /// An empty response with the given status.
    pub fn status(status: Status) -> Response {
        Response::new(status, "text/html; charset=utf-8", Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Headers {
        /// Number of fields.
        fn len(&self) -> usize {
            self.fields.len()
        }
    }

    #[test]
    fn status_classes() {
        assert!(Status::OK.is_success());
        assert!(Status(301).is_redirect());
        assert!(Status::FORBIDDEN.is_client_error());
        assert!(!Status::OK.is_client_error());
    }

    #[test]
    fn headers_are_case_insensitive() {
        let mut h = Headers::new();
        h.insert("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
        assert_eq!(h.get("x-missing"), None);
    }

    #[test]
    fn headers_set_replaces_all() {
        let mut h = Headers::new();
        h.insert("X-A", "1");
        h.insert("x-a", "2");
        h.set("X-A", "3");
        assert_eq!(h.len(), 1);
        assert_eq!(h.get("x-a"), Some("3"));
    }

    #[test]
    fn content_length_and_chunked() {
        let mut h = Headers::new();
        h.insert("Content-Length", " 42 ");
        assert_eq!(h.content_length(), Some(42));
        let mut h = Headers::new();
        h.insert("Transfer-Encoding", "gzip, chunked");
        assert!(h.is_chunked());
        let mut h = Headers::new();
        h.insert("Transfer-Encoding", "gzip");
        assert!(!h.is_chunked());
    }

    #[test]
    fn request_builder_sets_host() {
        let req = Request::get("example.com", "/");
        assert_eq!(req.host(), Some("example.com"));
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.target, "/");
    }

    #[test]
    fn response_builders() {
        let r = Response::html("<html></html>");
        assert_eq!(r.status, Status::OK);
        assert_eq!(r.headers.content_length(), Some(13));
        assert_eq!(String::from_utf8_lossy(&r.body), "<html></html>");
        let e = Response::status(Status::FORBIDDEN);
        assert_eq!(e.status.0, 403);
        assert!(e.body.is_empty());
    }

    #[test]
    fn method_round_trip() {
        for m in [
            Method::Get,
            Method::Head,
            Method::Post,
            Method::Put,
            Method::Delete,
            Method::Options,
        ] {
            assert_eq!(Method::parse(m.as_str()), Some(m));
        }
        assert_eq!(Method::parse("BREW"), None);
    }
}
