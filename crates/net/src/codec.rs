//! HTTP/1.1 wire format: encoding and incremental parsing.
//!
//! The parser reads from any [`std::io::Read`] through an internal buffer
//! and supports the three body framings of RFC 9112: `Content-Length`,
//! `Transfer-Encoding: chunked`, and (for responses only) read-to-EOF.
//! Hard limits keep a hostile peer from ballooning memory: 64 KiB of
//! headers, 8 MiB of body.

use crate::error::{NetError, Result};
use crate::http::{field, Headers, Method, Request, Response, Status};
use std::io::{self, Read, Write};
use std::ops::Range;

/// Maximum size of a request/status line plus all header fields.
pub const MAX_HEAD: usize = 64 * 1024;
/// Maximum body size the parser will buffer.
pub const MAX_BODY: usize = 8 * 1024 * 1024;

/// Serializes a request in origin-form.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    out.reserve(48 + req.target.len() + fields_len(&req.headers) + req.body.len());
    out.extend_from_slice(req.method.as_str().as_bytes());
    out.push(b' ');
    out.extend_from_slice(req.target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\n");
    encode_headers(&req.headers, req.body.len(), !req.body.is_empty(), out);
    out.extend_from_slice(&req.body);
}

/// Serializes a response. When `chunked` is set the body is written as a
/// single chunk plus terminator (exercising the decoder's chunked path).
pub fn encode_response(resp: &Response, chunked: bool, out: &mut Vec<u8>) {
    // Head, framing and body in one allocation whatever the page size;
    // `write!` formats numbers straight into it.
    out.reserve(64 + fields_len(&resp.headers) + resp.body.len());
    let (code, reason) = (resp.status.0, resp.status.reason());
    let _ = write!(out, "HTTP/1.1 {code} {reason}\r\n");
    if !chunked {
        encode_headers(&resp.headers, resp.body.len(), true, out);
        out.extend_from_slice(&resp.body);
        return;
    }
    let framing = ["content-length", "transfer-encoding"];
    let framing = |name: &str| framing.iter().any(|f| name.eq_ignore_ascii_case(f));
    for (name, value) in resp.headers.iter().filter(|(name, _)| !framing(name)) {
        push_field(name, value, out);
    }
    out.extend_from_slice(b"Transfer-Encoding: chunked\r\n\r\n");
    if !resp.body.is_empty() {
        let _ = write!(out, "{:x}\r\n", resp.body.len());
        out.extend_from_slice(&resp.body);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
}

/// Bytes of `headers` on the wire, for sizing the buffer up front.
fn fields_len(headers: &Headers) -> usize {
    headers.iter().map(|(k, v)| k.len() + v.len() + 4).sum()
}

fn push_field(name: &str, value: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(b": ");
    out.extend_from_slice(value.as_bytes());
    out.extend_from_slice(b"\r\n");
}

fn encode_headers(headers: &Headers, body_len: usize, ensure_length: bool, out: &mut Vec<u8>) {
    let mut has_length = false;
    for (name, value) in headers.iter() {
        has_length |= name.eq_ignore_ascii_case("content-length");
        push_field(name, value, out);
    }
    if ensure_length && !has_length && !headers.is_chunked() {
        let _ = write!(out, "Content-Length: {body_len}\r\n");
    }
    out.extend_from_slice(b"\r\n");
}

/// Incremental HTTP/1.1 message reader over any byte stream.
pub struct MessageReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// Consumed prefix of `buf`.
    pos: usize,
    /// True once the underlying stream reported EOF.
    eof: bool,
    /// Set by [`into_response`](Self::into_response): no message follows
    /// this one, so its body may leave in `buf`.
    last: bool,
}

impl<R: Read> MessageReader<R> {
    /// Wraps a stream. The buffer grows with what is read, so a small
    /// message costs a small buffer.
    pub fn new(inner: R) -> Self {
        MessageReader {
            inner,
            buf: Vec::new(),
            pos: 0,
            eof: false,
            last: false,
        }
    }

    /// Consumes the reader, returning the stream.
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// The stream, for writing the answer to what was just read. Reading
    /// from it directly would bypass the reader's buffer.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Reads one request (server side).
    pub fn read_request(&mut self) -> Result<Request> {
        let head = self.read_until(b"\r\n\r\n", "header block")?;
        let (line, headers) = parse_head(&self.buf[head])?;
        let mut parts = line.split(' ');
        let method = parts
            .next()
            .and_then(Method::parse)
            .ok_or(NetError::Malformed("request method"))?;
        let target = parts
            .next()
            .ok_or(NetError::Malformed("request target"))?
            .to_string();
        let version = parts.next().ok_or(NetError::Malformed("http version"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(NetError::Malformed("http version"));
        }
        let body = self.read_body(&headers, /*allow_eof_body=*/ false)?;
        Ok(Request {
            method,
            target,
            headers,
            body,
        })
    }

    /// Reads one response (client side). `head_request` suppresses body
    /// reading for responses to `HEAD`.
    pub fn read_response(&mut self, head_request: bool) -> Result<Response> {
        let head = self.read_until(b"\r\n\r\n", "header block")?;
        let (line, headers) = parse_head(&self.buf[head])?;
        let mut parts = line.splitn(3, ' ');
        let version = parts.next().ok_or(NetError::Malformed("status line"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(NetError::Malformed("http version"));
        }
        let code: u16 = parts
            .next()
            .ok_or(NetError::Malformed("status code"))?
            .parse()
            .map_err(|_| NetError::Malformed("status code"))?;
        let status = Status(code);
        let body = if head_request || code == 204 || code == 304 || (100..200).contains(&code) {
            Vec::new()
        } else {
            self.read_body(&headers, /*allow_eof_body=*/ true)?
        };
        Ok(Response {
            status,
            headers,
            body,
        })
    }

    /// [`read_response`](Self::read_response) for the last response on
    /// the connection, consuming the reader: a body that ends its buffer
    /// is handed over in it instead of copied.
    pub fn into_response(mut self, head_request: bool) -> Result<Response> {
        self.last = true;
        self.read_response(head_request)
    }

    /// True when the next read would hit a cleanly-closed stream.
    pub fn at_eof(&mut self) -> bool {
        if self.pos < self.buf.len() {
            return false;
        }
        if self.eof {
            return true;
        }
        // Peek by attempting a fill.
        match self.fill() {
            Ok(0) => true,
            _ => self.pos >= self.buf.len() && self.eof,
        }
    }

    fn fill(&mut self) -> Result<usize> {
        // Compact the consumed prefix: always when fully drained, and
        // whenever it exceeds 16 KiB — otherwise a long keep-alive
        // connection's buffer grows with the total bytes ever received.
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 16 * 1024 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let mut chunk = [0u8; 8 * 1024];
        let n = self.inner.read(&mut chunk)?;
        if n == 0 {
            self.eof = true;
        } else {
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok(n)
    }

    /// Reads through `terminator` and returns where the bytes before it
    /// lie in the buffer; at most [`MAX_HEAD`] of them (`what` names the
    /// limit that was hit).
    fn read_until(&mut self, terminator: &[u8], what: &'static str) -> Result<Range<usize>> {
        loop {
            if let Some(end) = find_subsequence(&self.buf[self.pos..], terminator) {
                let found = self.pos..self.pos + end;
                self.pos = found.end + terminator.len();
                return Ok(found);
            }
            if self.buf.len() - self.pos > MAX_HEAD {
                return Err(NetError::TooLarge(what));
            }
            if self.eof {
                return Err(NetError::UnexpectedEof);
            }
            self.fill()?;
        }
    }

    fn read_body(&mut self, headers: &Headers, allow_eof_body: bool) -> Result<Vec<u8>> {
        if headers.is_chunked() {
            return self.read_chunked();
        }
        if let Some(len) = headers.content_length() {
            if len > MAX_BODY {
                return Err(NetError::TooLarge("body"));
            }
            self.buffer(len)?;
            return Ok(self.take(len));
        }
        if allow_eof_body {
            // Response without framing: body runs to connection close.
            while !self.eof {
                if self.buf.len() - self.pos > MAX_BODY {
                    return Err(NetError::TooLarge("body"));
                }
                self.fill()?;
            }
            return Ok(self.take(self.buf.len() - self.pos));
        }
        Ok(Vec::new())
    }

    /// Reads until `len` unconsumed bytes are buffered.
    fn buffer(&mut self, len: usize) -> Result<()> {
        while self.buf.len() - self.pos < len {
            if self.eof {
                return Err(NetError::UnexpectedEof);
            }
            self.fill()?;
        }
        Ok(())
    }

    /// Consumes the next `len` buffered bytes. The last message's body,
    /// when it ends the buffer, is the buffer itself (the consumed head
    /// shifted out), so it costs no copy.
    fn take(&mut self, len: usize) -> Vec<u8> {
        let start = self.pos;
        self.pos += len;
        if !self.last || self.pos < self.buf.len() {
            return self.buf[start..self.pos].to_vec();
        }
        self.buf.drain(..start);
        std::mem::take(&mut self.buf)
    }

    fn read_chunked(&mut self) -> Result<Vec<u8>> {
        let mut body = Vec::new();
        loop {
            let line = self.read_until(b"\r\n", "line")?;
            let size = self.buf[line].split(|&b| b == b';').next().unwrap_or(&[]);
            let size = std::str::from_utf8(size)
                .ok()
                .and_then(|size| usize::from_str_radix(size.trim(), 16).ok())
                .ok_or(NetError::Malformed("chunk size"))?;
            if size > MAX_BODY - body.len() {
                return Err(NetError::TooLarge("chunked body"));
            }
            if size == 0 {
                // Trailer section: read lines until the blank one.
                while !self.read_until(b"\r\n", "line")?.is_empty() {}
                return Ok(body);
            }
            self.buffer(size + 2)?;
            body.extend_from_slice(&self.buf[self.pos..self.pos + size]);
            self.pos += size + 2;
            if &self.buf[self.pos - 2..self.pos] != b"\r\n" {
                return Err(NetError::Malformed("chunk terminator"));
            }
        }
    }
}

impl MessageReader<io::Empty> {
    /// A reader over bytes handed to it by [`feed`](Self::feed), with no
    /// stream behind them: a message not yet complete reads as
    /// [`NetError::UnexpectedEof`], and reads on once more is fed.
    pub(crate) fn fed() -> Self {
        MessageReader {
            eof: true,
            ..MessageReader::new(io::empty())
        }
    }

    /// Appends `bytes` to what is left to read.
    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }
}

/// Splits a head block into its first line and parsed header fields.
fn parse_head(head: &[u8]) -> Result<(&str, Headers)> {
    let text = std::str::from_utf8(head).map_err(|_| NetError::Malformed("non-utf8 head"))?;
    let mut lines = text.split("\r\n");
    let first = lines.next().ok_or(NetError::Malformed("empty head"))?;
    let mut headers = Headers::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(NetError::Malformed("header field"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(NetError::Malformed("header name"));
        }
        headers.insert(field(name), field(value.trim()));
    }
    Ok((first, headers))
}

fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse_response_bytes(bytes: &[u8]) -> Result<Response> {
        MessageReader::new(Cursor::new(bytes.to_vec())).read_response(false)
    }

    #[test]
    fn request_round_trip() {
        let req = Request::get("example.com", "/index.html");
        let mut wire = Vec::new();
        encode_request(&req, &mut wire);
        let text = String::from_utf8(wire.clone()).expect("ascii");
        assert!(text.starts_with("GET /index.html HTTP/1.1\r\n"));
        assert!(text.contains("Host: example.com\r\n"));
        let back = MessageReader::new(Cursor::new(wire))
            .read_request()
            .expect("parse");
        assert_eq!(back, req);
    }

    #[test]
    fn response_round_trip_content_length() {
        let resp = Response::html("<html>hello</html>");
        let mut wire = Vec::new();
        encode_response(&resp, false, &mut wire);
        let back = parse_response_bytes(&wire).expect("parse");
        assert_eq!(back.status, Status::OK);
        assert_eq!(back.body, resp.body);
    }

    #[test]
    fn response_round_trip_chunked() {
        let resp = Response::html("chunky body content");
        let mut wire = Vec::new();
        encode_response(&resp, true, &mut wire);
        let text = String::from_utf8(wire.clone()).expect("ascii");
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert!(!text.to_lowercase().contains("content-length"));
        let back = parse_response_bytes(&wire).expect("parse");
        assert_eq!(back.body, resp.body);
    }

    #[test]
    fn multi_chunk_body_decodes() {
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                     4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n";
        let back = parse_response_bytes(wire).expect("parse");
        assert_eq!(back.body, b"Wikipedia");
    }

    #[test]
    fn chunked_with_extensions_and_trailers() {
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                     5;ext=1\r\nhello\r\n0\r\nX-Trailer: v\r\n\r\n";
        let back = parse_response_bytes(wire).expect("parse");
        assert_eq!(back.body, b"hello");
    }

    #[test]
    fn eof_delimited_response_body() {
        let wire = b"HTTP/1.1 200 OK\r\n\r\nbody until close";
        let back = parse_response_bytes(wire).expect("parse");
        assert_eq!(back.body, b"body until close");
    }

    #[test]
    fn head_response_has_no_body() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n";
        let back = MessageReader::new(Cursor::new(wire.to_vec()))
            .read_response(true)
            .expect("parse");
        assert!(back.body.is_empty());
    }

    #[test]
    fn status_204_has_no_body() {
        let wire = b"HTTP/1.1 204 No Content\r\n\r\n";
        let back = parse_response_bytes(wire).expect("parse");
        assert_eq!(back.status, Status::NO_CONTENT);
        assert!(back.body.is_empty());
    }

    #[test]
    fn truncated_body_is_unexpected_eof() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\nshort";
        match parse_response_bytes(wire) {
            Err(NetError::UnexpectedEof) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for wire in [
            &b"BREW / HTTP/1.1\r\n\r\n"[..],
            &b"GET /\r\n\r\n"[..],
            &b"GET / SPDY/4\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nBad Header Name: x\r\n\r\n"[..],
        ] {
            let r = MessageReader::new(Cursor::new(wire.to_vec())).read_request();
            assert!(r.is_err(), "{:?}", String::from_utf8_lossy(wire));
        }
        assert!(parse_response_bytes(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
    }

    #[test]
    fn header_block_limit_is_enforced() {
        let mut wire = b"HTTP/1.1 200 OK\r\n".to_vec();
        for i in 0..10_000 {
            wire.extend_from_slice(format!("X-Filler-{i}: {}\r\n", "y".repeat(64)).as_bytes());
        }
        wire.extend_from_slice(b"\r\n");
        match parse_response_bytes(&wire) {
            Err(NetError::TooLarge(_)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_declared_body_is_rejected() {
        let wire = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        match parse_response_bytes(wire.as_bytes()) {
            Err(NetError::TooLarge(_)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pipelined_requests_parse_sequentially() {
        let mut wire = Vec::new();
        encode_request(&Request::get("a.com", "/1"), &mut wire);
        encode_request(&Request::get("b.com", "/2"), &mut wire);
        let mut reader = MessageReader::new(Cursor::new(wire));
        let r1 = reader.read_request().expect("first");
        let r2 = reader.read_request().expect("second");
        assert_eq!(r1.target, "/1");
        assert_eq!(r2.target, "/2");
        assert!(reader.at_eof());
    }

    #[test]
    fn request_with_body_round_trips() {
        let mut req = Request::get("example.com", "/submit");
        req.method = Method::Post;
        req.body = b"a=1&b=2".to_vec();
        let mut wire = Vec::new();
        encode_request(&req, &mut wire);
        let back = MessageReader::new(Cursor::new(wire))
            .read_request()
            .expect("parse");
        assert_eq!(back.body, b"a=1&b=2");
    }
}
