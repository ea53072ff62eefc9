//! Property-based tests for the HTTP codec: arbitrary messages must
//! round-trip through the wire format under both framings, and the parser
//! must never panic on arbitrary bytes.

use std::io::Cursor;
use webvuln_failpoint::check::{self, Gen, PRINTABLE};
use webvuln_net::codec::{encode_request, encode_response, MessageReader};
use webvuln_net::{Headers, Method, Request, Response, Status};

const ALPHA: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
const NAME_TAIL: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-";
const TARGET_TAIL: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789/_.-";

/// A header name that is not one of the reserved framing headers.
fn arb_header_name(g: &mut Gen) -> String {
    loop {
        let name = format!("{}{}", g.string(ALPHA, 1..=1), g.string(NAME_TAIL, 0..=20));
        if !["content-length", "transfer-encoding", "connection"]
            .contains(&name.to_ascii_lowercase().as_str())
        {
            return name;
        }
    }
}

/// Header values: printable ASCII without CR/LF; trimmed by the parser.
fn arb_header_value(g: &mut Gen) -> String {
    g.string(PRINTABLE, 0..=30).trim().to_string()
}

fn arb_request(g: &mut Gen) -> Request {
    let method = *g.pick(&[Method::Get, Method::Head, Method::Post, Method::Put]);
    let target = format!("/{}", g.string(TARGET_TAIL, 0..=30));
    let mut headers = Headers::new();
    headers.insert("Host", "prop.example");
    for (name, value) in g.vec(0..=5, |g| (arb_header_name(g), arb_header_value(g))) {
        headers.insert(name, value);
    }
    let body = g.bytes(0..=199);
    let body = if method == Method::Get {
        Vec::new()
    } else {
        body
    };
    Request {
        method,
        target,
        headers,
        body,
    }
}

fn arb_response(g: &mut Gen) -> Response {
    let code = *g.pick(&[200u16, 204, 301, 403, 404, 500, 503]);
    let body = g.bytes(0..=499);
    let body = if code == 204 { Vec::new() } else { body };
    Response::new(Status(code), "text/html", body)
}

/// Encodes `req`, decodes it, and checks nothing was lost.
fn assert_request_round_trips(req: &Request) {
    let mut wire = Vec::new();
    encode_request(req, &mut wire);
    let back = MessageReader::new(Cursor::new(wire))
        .read_request()
        .expect("parses");
    assert_eq!(back.method, req.method);
    assert_eq!(back.target, req.target);
    assert_eq!(back.body, req.body);
    // Headers round-trip in order (duplicates included); names keep
    // their case, values come back trimmed.
    let sent: Vec<(String, String)> = req
        .headers
        .iter()
        .map(|(k, v)| (k.to_string(), v.trim().to_string()))
        .collect();
    let got: Vec<(String, String)> = back
        .headers
        .iter()
        .filter(|(k, _)| !k.eq_ignore_ascii_case("content-length"))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    assert_eq!(got, sent);
}

/// Requests round-trip exactly.
#[test]
fn request_round_trip() {
    check::run("request_round_trip", 256, |g| {
        assert_request_round_trips(&arb_request(g));
    });
}

/// A repeated header name — once empty, once not — keeps both fields in
/// order (the case a property-testing crate once shrank a failure to).
#[test]
fn duplicate_header_with_an_empty_value_round_trips() {
    let mut headers = Headers::new();
    for (name, value) in [("Host", "prop.example"), ("g", ""), ("g", "a")] {
        headers.insert(name, value);
    }
    assert_request_round_trips(&Request {
        method: Method::Get,
        target: "/".to_string(),
        headers,
        body: Vec::new(),
    });
}

/// Responses round-trip under content-length framing.
#[test]
fn response_round_trip_plain() {
    check::run("response_round_trip_plain", 256, |g| {
        let resp = arb_response(g);
        let mut wire = Vec::new();
        encode_response(&resp, false, &mut wire);
        let back = MessageReader::new(Cursor::new(wire))
            .read_response(false)
            .expect("parses");
        assert_eq!(back.status, resp.status);
        assert_eq!(back.body, resp.body);
    });
}

/// Responses round-trip under chunked framing.
#[test]
fn response_round_trip_chunked() {
    check::run("response_round_trip_chunked", 256, |g| {
        let resp = arb_response(g);
        let mut wire = Vec::new();
        encode_response(&resp, true, &mut wire);
        let back = MessageReader::new(Cursor::new(wire))
            .read_response(false)
            .expect("parses");
        assert_eq!(back.status, resp.status);
        assert_eq!(back.body, resp.body);
    });
}

/// Arbitrary bytes never panic the parser — every outcome is a clean
/// Ok or Err.
#[test]
fn parser_never_panics() {
    check::run("parser_never_panics", 256, |g| {
        let bytes = g.bytes(0..=399);
        let _ = MessageReader::new(Cursor::new(bytes.clone())).read_request();
        let _ = MessageReader::new(Cursor::new(bytes)).read_response(false);
    });
}

/// Truncating a valid message at any point yields an error or a
/// shorter EOF-delimited body — never a panic, never a phantom body
/// longer than the original.
#[test]
fn truncation_is_graceful() {
    check::run("truncation_is_graceful", 256, |g| {
        let resp = arb_response(g);
        let mut wire = Vec::new();
        encode_response(&resp, false, &mut wire);
        let cut = (g.range(0..=599) as usize).min(wire.len());
        let truncated = wire[..cut].to_vec();
        if let Ok(parsed) = MessageReader::new(Cursor::new(truncated)).read_response(false) {
            assert!(parsed.body.len() <= resp.body.len());
        }
    });
}
