//! The HTTP client used by the crawler: one-shot fetches with redirect
//! following, generic over the [`Connect`] transport.

use crate::codec::{encode_get, MessageReader};
use crate::error::{NetError, Result};
use crate::http::Response;
use crate::server::Connect;
use std::borrow::Cow;

/// Maximum redirect hops before giving up (the paper's crawler fetches
/// landing pages; deep redirect chains are treated as inaccessible).
pub(crate) const MAX_REDIRECTS: usize = 5;

/// Fetches `http(s)://host{target}` through `connector`, following up
/// to `MAX_REDIRECTS` 3xx hops (both same-host path redirects and
/// absolute-URL host changes).
pub fn fetch(connector: &dyn Connect, host: &str, target: &str) -> Result<Response> {
    fetch_attempt(connector, host, target, 0)
}

/// [`fetch`] as the `attempt`-th try (0-based) of a retry loop: every
/// connection it opens is that attempt's, which is what a transport
/// with faults that heal after a few attempts keys on.
pub(crate) fn fetch_attempt(
    connector: &dyn Connect,
    host: &str,
    target: &str,
    attempt: u32,
) -> Result<Response> {
    let (mut host, mut target) = (Cow::Borrowed(host), Cow::Borrowed(target));
    for _hop in 0..=MAX_REDIRECTS {
        // One request/response exchange on a fresh connection.
        let mut stream = connector.connect(&host, attempt)?;
        let mut wire = Vec::new();
        encode_get(&host, &target, &mut wire);
        stream.write_all(&wire).map_err(NetError::from)?;
        stream.flush().map_err(NetError::from)?;
        let response = MessageReader::new(stream).into_response(false)?;
        if !response.status.is_redirect() {
            return Ok(response);
        }
        let Some(location) = response.headers.get("location") else {
            return Ok(response); // 3xx without Location: surface as-is
        };
        match parse_location(location, &host) {
            Some((next_host, next_target)) => {
                (host, target) = (Cow::Owned(next_host), Cow::Owned(next_target));
            }
            None => return Ok(response),
        }
    }
    Err(NetError::Malformed("redirect loop"))
}

/// Splits a `Location` header into `(host, target)` relative to the
/// current host. Returns `None` for unsupported schemes.
fn parse_location(location: &str, current_host: &str) -> Option<(String, String)> {
    let after_scheme = location
        .strip_prefix("https://")
        .or_else(|| location.strip_prefix("http://"));
    if let Some(rest) = after_scheme {
        let (host, path) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        if host.is_empty() {
            return None;
        }
        return Some((host.to_string(), path.to_string()));
    }
    if let Some(rest) = location.strip_prefix("//") {
        let (host, path) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        return Some((host.to_string(), path.to_string()));
    }
    if location.starts_with('/') {
        return Some((current_host.to_string(), location.to_string()));
    }
    // Relative path without leading slash: resolve against root.
    Some((current_host.to_string(), format!("/{location}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Request, Response, Status};
    use crate::virtual_net::VirtualNet;
    use std::sync::Arc;

    #[test]
    fn follows_same_host_redirect() {
        let net = VirtualNet::new(Arc::new(|req: &Request| {
            if req.target == "/" {
                let mut r = Response::status(Status(301));
                r.headers.insert("Location", "/home");
                r
            } else {
                Response::html(format!("at {}", req.target))
            }
        }));
        let resp = fetch(&net, "r.example", "/").expect("fetch");
        assert_eq!(String::from_utf8_lossy(&resp.body), "at /home");
    }

    #[test]
    fn follows_cross_host_redirect() {
        let net = VirtualNet::new(Arc::new(|req: &Request| match req.host() {
            Some("old.example") => {
                let mut r = Response::status(Status(302));
                r.headers.insert("Location", "https://new.example/landed");
                r
            }
            _ => Response::html(format!(
                "welcome to {} {}",
                req.host().unwrap_or("?"),
                req.target
            )),
        }));
        let resp = fetch(&net, "old.example", "/").expect("fetch");
        assert_eq!(
            String::from_utf8_lossy(&resp.body),
            "welcome to new.example /landed"
        );
    }

    #[test]
    fn redirect_loop_errors_out() {
        let net = VirtualNet::new(Arc::new(|_req: &Request| {
            let mut r = Response::status(Status(302));
            r.headers.insert("Location", "/again");
            r
        }));
        assert!(fetch(&net, "loop.example", "/").is_err());
    }

    #[test]
    fn redirect_without_location_is_returned() {
        let net = VirtualNet::new(Arc::new(|_req: &Request| Response::status(Status(302))));
        let resp = fetch(&net, "bare.example", "/").expect("fetch");
        assert_eq!(resp.status, Status(302));
    }

    #[test]
    fn parse_location_shapes() {
        let p = |l: &str| parse_location(l, "cur.example");
        assert_eq!(
            p("https://a.example/x"),
            Some(("a.example".into(), "/x".into()))
        );
        assert_eq!(
            p("http://a.example"),
            Some(("a.example".into(), "/".into()))
        );
        assert_eq!(p("//b.example/y"), Some(("b.example".into(), "/y".into())));
        assert_eq!(p("/path"), Some(("cur.example".into(), "/path".into())));
        assert_eq!(p("page"), Some(("cur.example".into(), "/page".into())));
        assert_eq!(p("https://"), None);
    }
}
