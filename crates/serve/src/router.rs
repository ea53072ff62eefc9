//! Request routing: target paths to typed routes, API errors to
//! structured JSON responses.

use webvuln_net::{Method, Request, Response, Status};
use webvuln_telemetry::JsonWriter;

/// A parsed API route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// `GET /healthz` — liveness and store summary.
    Healthz,
    /// `GET /domain/{d}/history` — one domain's weekly records.
    DomainHistory(String),
    /// `GET /library/{lib}/prevalence` — one library's usage series.
    LibraryPrevalence(String),
    /// `GET /week/{w}/landscape` — the library landscape of one week.
    WeekLandscape(usize),
    /// `GET /cve/{id}/exposure` — affected-site series for one report.
    CveExposure(String),
    /// `GET /alerts` — the watch daemon's exposure-alert outbox.
    Alerts,
}

impl Route {
    /// Every route's label, in variant order — the one table of them:
    /// [`Route::label`] indexes it and the server registers a latency
    /// histogram per entry.
    pub(crate) const LABELS: [&'static str; 6] = [
        "healthz",
        "domain_history",
        "library_prevalence",
        "week_landscape",
        "cve_exposure",
        "alerts",
    ];

    /// This route's place in [`Route::LABELS`].
    pub(crate) fn index(&self) -> usize {
        match self {
            Route::Healthz => 0,
            Route::DomainHistory(_) => 1,
            Route::LibraryPrevalence(_) => 2,
            Route::WeekLandscape(_) => 3,
            Route::CveExposure(_) => 4,
            Route::Alerts => 5,
        }
    }

    /// Short label used in metric names and fail-point keys.
    pub(crate) fn label(&self) -> &'static str {
        Route::LABELS[self.index()]
    }

    /// The route's canonical path — what [`route`] parses back to this
    /// route, however the request spelled it — and so the cache key.
    pub(crate) fn path(&self) -> String {
        match self {
            Route::Healthz => "/healthz".to_string(),
            Route::DomainHistory(d) => format!("/domain/{d}/history"),
            Route::LibraryPrevalence(lib) => format!("/library/{lib}/prevalence"),
            Route::WeekLandscape(w) => format!("/week/{w}/landscape"),
            Route::CveExposure(id) => format!("/cve/{id}/exposure"),
            Route::Alerts => "/alerts".to_string(),
        }
    }

    /// Whether responses for this route may be served from the LRU cache.
    /// `/healthz` reports live counters and `/alerts` reads the watch
    /// daemon's outbox files, so neither is ever cached.
    pub(crate) fn cacheable(&self) -> bool {
        !matches!(self, Route::Healthz | Route::Alerts)
    }
}

/// A structured API failure, carried until the edge renders it as JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// The path or the named entity does not exist → 404.
    NotFound(String),
    /// The request is malformed (bad method, non-numeric week…) → 400/405.
    BadRequest(String),
    /// The server cannot answer right now (injected fault, drain) → 503.
    Unavailable(String),
}

impl ApiError {
    /// The HTTP status this error maps to.
    pub(crate) fn status(&self) -> Status {
        match self {
            ApiError::NotFound(_) => Status::NOT_FOUND,
            ApiError::BadRequest(d) if d.starts_with("method ") => Status(405),
            ApiError::BadRequest(_) => Status::BAD_REQUEST,
            ApiError::Unavailable(_) => Status::SERVICE_UNAVAILABLE,
        }
    }

    /// Renders the error as a JSON response.
    pub(crate) fn to_response(&self) -> Response {
        let (kind, detail) = match self {
            ApiError::NotFound(d) => ("not found", d),
            ApiError::BadRequest(d) => ("bad request", d),
            ApiError::Unavailable(d) => ("unavailable", d),
        };
        let mut j = JsonWriter::new();
        j.begin_obj().str("error", kind);
        j.str("detail", detail).end_obj();
        Response::new(self.status(), "application/json", j.finish())
    }
}

/// Parses a request line into a [`Route`].
///
/// Only `GET` is served; a query string is ignored; unknown paths are
/// 404 and a non-numeric `{w}` is 400.
pub fn route(req: &Request) -> Result<Route, ApiError> {
    if req.method != Method::Get {
        return Err(ApiError::BadRequest(format!(
            "method {} not allowed (only GET)",
            req.method
        )));
    }
    let path = req.target.split('?').next().unwrap_or("");
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["healthz"] => Ok(Route::Healthz),
        ["domain", d, "history"] => Ok(Route::DomainHistory((*d).to_string())),
        ["library", lib, "prevalence"] => Ok(Route::LibraryPrevalence((*lib).to_string())),
        ["week", w, "landscape"] => w
            .parse::<usize>()
            .map(Route::WeekLandscape)
            .map_err(|_| ApiError::BadRequest(format!("week index '{w}' is not a number"))),
        ["cve", id, "exposure"] => Ok(Route::CveExposure((*id).to_string())),
        ["alerts"] => Ok(Route::Alerts),
        _ => Err(ApiError::NotFound(format!("no route for '{path}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(target: &str) -> Request {
        Request::get("api.local", target)
    }

    #[test]
    fn routes_every_endpoint() {
        assert_eq!(route(&get("/healthz")), Ok(Route::Healthz));
        assert_eq!(
            route(&get("/domain/site-7.example/history")),
            Ok(Route::DomainHistory("site-7.example".into()))
        );
        assert_eq!(
            route(&get("/library/jquery/prevalence")),
            Ok(Route::LibraryPrevalence("jquery".into()))
        );
        assert_eq!(
            route(&get("/week/12/landscape")),
            Ok(Route::WeekLandscape(12))
        );
        assert_eq!(
            route(&get("/cve/CVE-2020-11022/exposure")),
            Ok(Route::CveExposure("CVE-2020-11022".into()))
        );
        assert_eq!(route(&get("/alerts")), Ok(Route::Alerts));
        assert!(!Route::Alerts.cacheable());
    }

    #[test]
    fn query_strings_and_trailing_slashes_are_tolerated() {
        assert_eq!(route(&get("/healthz?verbose=1")), Ok(Route::Healthz));
        assert_eq!(
            route(&get("/week/3/landscape/")),
            Ok(Route::WeekLandscape(3))
        );
    }

    #[test]
    fn every_spelling_of_a_route_has_one_canonical_path() {
        for (spelling, canonical) in [
            ("/week/3/landscape", "/week/3/landscape"),
            ("/week/3/landscape/", "/week/3/landscape"),
            ("//week/3/landscape", "/week/3/landscape"),
            ("/week/03/landscape?x=1", "/week/3/landscape"),
            ("/domain/a.example/history", "/domain/a.example/history"),
            ("/library/jquery//prevalence", "/library/jquery/prevalence"),
            (
                "/cve/CVE-2020-11022/exposure",
                "/cve/CVE-2020-11022/exposure",
            ),
            ("/healthz/", "/healthz"),
            ("/alerts", "/alerts"),
        ] {
            let parsed = route(&get(spelling)).expect("route");
            assert_eq!(parsed.path(), canonical, "{spelling}");
            assert_eq!(route(&get(canonical)), Ok(parsed), "{spelling}");
        }
    }

    #[test]
    fn unknown_paths_are_404_and_bad_weeks_400() {
        assert!(matches!(route(&get("/nope")), Err(ApiError::NotFound(_))));
        assert!(matches!(
            route(&get("/week/twelve/landscape")),
            Err(ApiError::BadRequest(_))
        ));
    }

    #[test]
    fn non_get_is_405() {
        let mut req = get("/healthz");
        req.method = Method::Post;
        let err = route(&req).unwrap_err();
        assert_eq!(err.status(), Status(405));
        let resp = err.to_response();
        assert!(String::from_utf8_lossy(&resp.body).contains("\"error\":\"bad request\""));
    }

    #[test]
    fn error_responses_are_structured_json() {
        let resp = ApiError::NotFound("unknown domain 'x'".into()).to_response();
        assert_eq!(resp.status, Status::NOT_FOUND);
        assert_eq!(
            String::from_utf8_lossy(&resp.body),
            r#"{"error":"not found","detail":"unknown domain 'x'"}"#
        );
    }
}
