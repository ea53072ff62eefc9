//! The query evaluator: opens one snapshot store read-only and answers
//! every API route from it.
//!
//! Two data paths back the endpoints, mirroring how the batch pipeline
//! consumes a store:
//!
//! * `/domain/{d}/history` is one [`AnyReader::history`] read: the
//!   domain's symbol looked up once in its shard, then each published
//!   week's record decoded from the per-week offset index with its strings
//!   borrowed — no full decode, no per-request scan. Its rank, §4.1
//!   verdict and claimed-report counts come from [`ShardSymbols`], tables
//!   built at open and keyed by that shard's symbols.
//! * The table endpoints (`/library`, `/week`, `/cve`) answer from the
//!   same mergeable accumulators the batch reports use
//!   ([`webvuln_analysis::accum`]), folded once over the store at open
//!   one borrowed week at a time — so a served body is *definitionally* consistent with the batch tables
//!   for the same store, and startup memory stays flat in the number
//!   of weeks.

use crate::router::{ApiError, Route};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use webvuln_analysis::accum::{fold_store, genesis_ranks, AccumCtx, LandscapeAccum, StudyAccum};
use webvuln_analysis::landscape::{LibraryRow, UsageTrend};
use webvuln_analysis::store_filter_verdict;
use webvuln_analysis::vuln::CveImpact;
use webvuln_cvedb::{Basis, LibraryId, VulnDb};
use webvuln_store::{AnyReader, ShardHealth, StoreError, StoreReader, Sym};
use webvuln_telemetry::JsonWriter;
use webvuln_version::Version;

/// A history body's bytes per week, rounded up from the ~200 of a seed-42
/// study's average: the body's buffer is sized so that most never grow.
const HISTORY_BYTES_PER_WEEK: usize = 256;

/// A read-only query service over one snapshot store — single-file or
/// sharded, healthy or degraded.
pub struct QueryService {
    reader: AnyReader,
    db: VulnDb,
    rows: Vec<LibraryRow>,
    trends: Vec<UsageTrend>,
    landscape: LandscapeAccum,
    impacts: Vec<CveImpact>,
    watch_root: Option<PathBuf>,
    /// How many domains the §4.1 verdict the tables were folded under
    /// drops.
    filtered_out: usize,
    /// Per shard, what a history reads off its symbols; empty for a shard
    /// that is unavailable.
    symbols: Vec<ShardSymbols>,
}

/// A genesis domain's rank and whether the §4.1 filter dropped it.
#[derive(Debug, Clone, Copy)]
struct Host {
    rank: u64,
    filtered_out: bool,
}

/// What a history answer needs to know about one shard's strings, built
/// at open and looked up by the symbols its records carry, so that no
/// request scans the domain list or parses a version.
#[derive(Default)]
struct ShardSymbols {
    /// Indexed by host symbol: the genesis domain with that symbol. The
    /// genesis interns its hosts first, so this holds one slot per domain
    /// of the shard, 2 000 of 16 B for a 2 000-domain file. A domain of
    /// another shard has no slot.
    hosts: Vec<Option<Host>>,
    /// `(library symbol, version symbol)` → the reports that claim that
    /// version of that library, for every pair of the shard's strings
    /// that names a library and a version with at least one: 351 entries
    /// for the single-file 2 000 × 12 store of seed 42.
    claimed: HashMap<(u32, u32), u64>,
}

impl ShardSymbols {
    /// The tables of `shard`, which opened healthy, given the store's §4.1
    /// verdict.
    fn build(shard: &StoreReader, filtered_out: &BTreeSet<String>, db: &VulnDb) -> ShardSymbols {
        let mut symbols = ShardSymbols::default();
        for (domain, rank) in &shard.genesis().ranks {
            let Some(host) = shard.symbol(domain) else {
                continue;
            };
            let slot = host.id as usize;
            if symbols.hosts.len() <= slot {
                symbols.hosts.resize(slot + 1, None);
            }
            symbols.hosts[slot].get_or_insert(Host {
                rank: *rank,
                filtered_out: false,
            });
        }
        for domain in filtered_out {
            let slot = shard.symbol(domain).map(|host| host.id as usize);
            if let Some(Some(host)) = slot.and_then(|slot| symbols.hosts.get_mut(slot)) {
                host.filtered_out = true;
            }
        }
        let (mut libraries, mut versions) = (Vec::new(), Vec::new());
        for sym in shard.symbols() {
            if let Some(library) = LibraryId::from_slug(sym.text) {
                libraries.push((sym.id, library));
            }
            if let Ok(version) = Version::parse(sym.text) {
                versions.push((sym.id, version));
            }
        }
        for &(library_sym, library) in &libraries {
            for (version_sym, version) in &versions {
                let count = db.vuln_count(library, version, Basis::CveClaimed);
                if count > 0 {
                    symbols
                        .claimed
                        .insert((library_sym, *version_sym), count as u64);
                }
            }
        }
        symbols
    }

    /// How many disclosed reports claim this detection's exact version —
    /// the per-record flavor of the §6.2 prevalence computation.
    fn vulns_claimed(&self, library: Sym<'_>, version: Option<Sym<'_>>) -> u64 {
        version
            .and_then(|version| self.claimed.get(&(library.id, version.id)))
            .map_or(0, |&count| count)
    }
}

impl QueryService {
    /// Opens `path` and folds the store through the study accumulators,
    /// precomputing the hot analysis tables. The store's §4.1 verdict is
    /// taken once ([`store_filter_verdict`]: the stored one, or on an
    /// unfinalized store the trailing window's) and is the one the
    /// tables, every history and `/healthz` answer under.
    ///
    /// A sharded store opens in degraded mode when shards are missing or
    /// quarantined: the healthy shards keep serving, the analysis tables
    /// are computed over them alone, `/healthz` reports the outage per
    /// shard, and queries routed to a dead shard answer 503 with the
    /// shard detail rather than failing the whole server at startup.
    pub fn open(path: &Path) -> Result<QueryService, StoreError> {
        let reader = AnyReader::open_degraded(path)?;
        let db = VulnDb::builtin();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let filtered_out = store_filter_verdict(&reader)?;
        let ranks = genesis_ranks(reader.genesis());
        let ctx = AccumCtx {
            db: &db,
            ranks: &ranks,
        };
        let accum: StudyAccum = fold_store(&reader, &ctx, threads, &filtered_out)?;
        let rows = accum.landscape.table1(&db);
        let trends = accum.landscape.trends();
        let impacts = accum.exposure.cve_impacts(&db);
        let symbols = (0..reader.shard_count())
            .map(|shard| match reader.shard_reader(shard) {
                Some(shard) => ShardSymbols::build(shard, &filtered_out, &db),
                None => ShardSymbols::default(),
            })
            .collect();
        Ok(QueryService {
            reader,
            db,
            rows,
            trends,
            landscape: accum.landscape,
            impacts,
            watch_root: None,
            filtered_out: filtered_out.len(),
            symbols,
        })
    }

    /// Attaches a watch daemon root: `/alerts` serves its outbox and
    /// `/healthz` reports its ingestion state. The service only *reads*
    /// the watch files (through the daemon-safe snapshot loader), so it
    /// can run alongside a live daemon.
    pub fn with_watch_root(mut self, root: impl Into<PathBuf>) -> QueryService {
        self.watch_root = Some(root.into());
        self
    }

    /// The underlying store reader (tests inspect it).
    pub fn reader(&self) -> &AnyReader {
        &self.reader
    }

    /// The precomputed Table 1 rows the table endpoints answer from.
    pub fn table1_rows(&self) -> &[LibraryRow] {
        &self.rows
    }

    /// Evaluates a route to a JSON body. `requests_total` feeds the
    /// healthz report (the service itself holds no mutable state).
    pub fn evaluate(&self, route: &Route, requests_total: u64) -> Result<String, ApiError> {
        match route {
            Route::Healthz => Ok(self.healthz(requests_total)),
            Route::DomainHistory(d) => self.domain_history(d),
            Route::LibraryPrevalence(lib) => self.library_prevalence(lib),
            Route::WeekLandscape(w) => self.week_landscape(*w),
            Route::CveExposure(id) => self.cve_exposure(id),
            Route::Alerts => self.alerts(),
        }
    }

    /// `GET /healthz`. A degraded store reports `"status":"degraded"`
    /// and lists every shard with its health, so an operator (or the
    /// smoke test) can see exactly which shard is out and why.
    pub fn healthz(&self, requests_total: u64) -> String {
        let genesis = self.reader.genesis();
        let degraded = self.reader.is_degraded();
        let mut j = JsonWriter::new();
        j.begin_obj();
        j.str("status", if degraded { "degraded" } else { "ok" });
        j.u64("weeks_committed", self.reader.weeks_committed() as u64);
        j.u64("weeks_total", genesis.weeks_total as u64);
        j.u64("domains", genesis.ranks.len() as u64);
        j.bool("finalized", self.reader.is_finalized());
        j.u64("filtered_out", self.filtered_out as u64);
        j.bool("degraded", degraded);
        j.u64("shard_count", self.reader.shard_count() as u64);
        j.arr("shards");
        for (index, health) in self.reader.shard_health().iter().enumerate() {
            j.begin_obj().u64("shard", index as u64);
            match health {
                ShardHealth::Healthy => j.str("status", "healthy"),
                ShardHealth::Unavailable { detail } => {
                    j.str("status", "unavailable").str("detail", detail)
                }
            };
            j.end_obj();
        }
        j.end_arr();
        if let Some(root) = &self.watch_root {
            let state = webvuln_watch::load_watch_state(root);
            j.obj("watch");
            j.bool("store_present", state.store_present);
            j.u64("weeks_committed", state.weeks_committed);
            j.u64("epoch", state.epoch);
            j.u64("shards", state.shards as u64);
            j.bool("degraded", state.degraded);
            j.u64("alerts_enqueued", state.alerts_enqueued);
            j.u64("alerts_pending", state.alerts_pending);
            j.u64("alerts_delivered", state.alerts_delivered);
            j.u64("deltas_applied", state.deltas_applied);
            j.end_obj();
        }
        j.u64("requests_total", requests_total).end_obj();
        j.finish()
    }

    /// `GET /alerts`: the watch daemon's outbox, read through the
    /// daemon-safe snapshot loader (no healing writes). 404 when the
    /// server was started without a watch root.
    pub(crate) fn alerts(&self) -> Result<String, ApiError> {
        let root = self.watch_root.as_deref().ok_or_else(|| {
            ApiError::NotFound("live alerting not enabled (no watch root)".to_string())
        })?;
        let cfg = webvuln_watch::WatchConfig::new(root);
        let snapshot = webvuln_watch::OutboxSnapshot::load(&cfg.outbox_wal(), &cfg.alert_log())
            .map_err(|e| ApiError::Unavailable(format!("outbox read failed: {e}")))?;
        let mut j = JsonWriter::new();
        j.begin_obj().u64("total", snapshot.alerts.len() as u64);
        j.u64("pending", snapshot.pending().len() as u64);
        j.u64("delivered", snapshot.delivered.len() as u64);
        j.arr("alerts");
        for alert in &snapshot.alerts {
            j.begin_obj().str("id", &format!("{:016x}", alert.id));
            j.str("cve", &alert.cve_id);
            j.str("library", &alert.library);
            j.str("domain", &alert.domain);
            j.u64("first_week", alert.first_week as u64);
            j.u64("last_week", alert.last_week as u64);
            j.u64("weeks_exposed", alert.weeks_exposed as u64);
            j.u64("coverage_scanned", alert.coverage.shards_scanned as u64);
            j.u64("coverage_total", alert.coverage.shards_total as u64);
            j.bool("full_coverage", alert.coverage.is_full());
            j.bool("delivered", snapshot.delivered.contains(&alert.id));
            j.bool("acked", snapshot.acked.contains(&alert.id));
            j.end_obj();
        }
        j.end_arr().end_obj();
        Ok(j.finish())
    }

    /// `GET /domain/{d}/history`: every committed week's record for one
    /// domain, read in one pass over its shard's offset index.
    pub fn domain_history(&self, domain: &str) -> Result<String, ApiError> {
        let unknown = || ApiError::NotFound(format!("unknown domain '{domain}'"));
        let read_failed = |e| ApiError::Unavailable(format!("store read failed: {e}"));
        let history = match self.reader.history(domain) {
            Ok(history) => history,
            // A domain living on a dead shard is a 503 with the shard
            // detail (the data exists but cannot be served right now),
            // not a 404.
            Err(StoreError::ShardUnavailable { shard, detail }) => {
                return Err(ApiError::Unavailable(format!(
                    "shard {shard} unavailable: {detail}"
                )))
            }
            Err(StoreError::UnknownDomain(_)) => return Err(unknown()),
            Err(e) => return Err(read_failed(e)),
        };
        let symbols = &self.symbols[history.shard()];
        let host = symbols.hosts.get(history.host().id as usize);
        let host = host.copied().flatten().ok_or_else(unknown)?;
        let mut j =
            JsonWriter::with_capacity(HISTORY_BYTES_PER_WEEK * self.reader.weeks_committed());
        j.begin_obj().str("domain", domain).u64("rank", host.rank);
        j.bool("filtered_out", host.filtered_out);
        j.arr("weeks");
        for week in history {
            let (week, date_days, record) = week.map_err(read_failed)?;
            j.begin_obj().u64("week", week as u64);
            j.i64("date_days", date_days);
            j.opt_i64("status", record.status.map(i64::from));
            j.u64("body_len", record.body_len);
            j.bool("page", record.page.is_some());
            j.arr("detections");
            for det in record.page.iter().flat_map(|page| &page.detections) {
                j.begin_obj().str("library", det.library.text);
                j.opt_str("version", det.version.map(|v| v.text));
                j.opt_str("external_host", det.external_host.map(|h| h.text));
                j.bool("integrity", det.integrity);
                let claimed = symbols.vulns_claimed(det.library, det.version);
                j.u64("vulns_claimed", claimed).end_obj();
            }
            j.end_arr().end_obj();
        }
        j.end_arr().end_obj();
        Ok(j.finish())
    }

    /// `GET /library/{lib}/prevalence`: the library's Table 1 row plus
    /// its Figure 3 weekly usage-share series.
    pub(crate) fn library_prevalence(&self, slug: &str) -> Result<String, ApiError> {
        let library = LibraryId::from_slug(slug)
            .ok_or_else(|| ApiError::NotFound(format!("unknown library '{slug}'")))?;
        let row = self
            .rows
            .iter()
            .find(|r| r.library == library)
            .ok_or_else(|| ApiError::Unavailable("table1 row missing".to_string()))?;
        let trend = self
            .trends
            .iter()
            .find(|t| t.library == library)
            .ok_or_else(|| ApiError::Unavailable("usage trend missing".to_string()))?;
        let mut j = JsonWriter::new();
        j.begin_obj().str("library", slug);
        j.str("name", library.name());
        j.f64("average_sites", row.average_sites);
        j.f64("usage_share", row.usage_share);
        j.f64("internal_share", row.internal_share);
        j.f64("external_share", row.external_share);
        j.f64("cdn_share", row.cdn_share);
        j.u64("versions_found", row.versions_found as u64);
        j.u64("versions_total", row.versions_total as u64);
        j.u64("vuln_reports", row.vuln_reports as u64);
        j.f64("first_share", trend.first());
        j.f64("last_share", trend.last());
        j.arr("points");
        for &(date, share) in &trend.points {
            j.begin_obj().i64("date_days", date.day_number() as i64);
            j.f64("share", share).end_obj();
        }
        j.end_arr().end_obj();
        Ok(j.finish())
    }

    /// `GET /week/{w}/landscape`: per-library users and share for one
    /// week, consistent with the Figure 3 series at that index.
    pub(crate) fn week_landscape(&self, week: usize) -> Result<String, ApiError> {
        let snapshot = self.landscape.week(week).ok_or_else(|| {
            ApiError::NotFound(format!(
                "week {week} out of range (store holds {})",
                self.landscape.week_count()
            ))
        })?;
        let total = snapshot.collected.max(1);
        let fresh = snapshot.collected - snapshot.carried_forward;
        let mut j = JsonWriter::new();
        j.begin_obj().u64("week", week as u64);
        j.i64("date_days", snapshot.date.day_number() as i64);
        j.u64("collected", snapshot.collected as u64);
        j.u64("fresh", fresh as u64);
        j.u64("carried_forward", snapshot.carried_forward as u64);
        j.arr("libraries");
        for (index, &library) in LibraryId::ALL.iter().enumerate() {
            let users = snapshot.users[index];
            j.begin_obj().str("library", library.slug());
            j.u64("users", users as u64);
            j.f64("share", users as f64 / total as f64).end_obj();
        }
        j.end_arr().end_obj();
        Ok(j.finish())
    }

    /// `GET /cve/{id}/exposure`: the report's Table 2 / Figure 5 series
    /// plus its exposure window under True Vulnerable Versions.
    pub(crate) fn cve_exposure(&self, id: &str) -> Result<String, ApiError> {
        let impact: &CveImpact = self
            .impacts
            .iter()
            .find(|impact| impact.id == id)
            .ok_or_else(|| ApiError::NotFound(format!("unknown report '{id}'")))?;
        let library = self
            .db
            .record(id)
            .map(|r| r.library.slug())
            .unwrap_or("unknown");
        // The exposure window under True Vulnerable Versions.
        let points = || impact.claimed_sites.iter().zip(&impact.true_sites);
        let exposed = || {
            points()
                .filter(|(_, &(_, truly))| truly > 0)
                .map(|(&(date, _), _)| date.day_number() as i64)
        };
        let mut j = JsonWriter::new();
        j.begin_obj().str("id", id).str("library", library);
        j.f64("claimed_average", impact.claimed_average);
        j.f64("true_average", impact.true_average);
        j.f64("claimed_share_of_users", impact.claimed_share_of_users);
        j.u64("weeks_exposed", exposed().count() as u64);
        j.opt_i64("first_exposed_days", exposed().next());
        j.opt_i64("last_exposed_days", exposed().next_back());
        j.arr("points");
        for (&(date, claimed), &(_, truly)) in points() {
            j.begin_obj().i64("date_days", date.day_number() as i64);
            j.u64("claimed", claimed as u64);
            j.u64("true", truly as u64).end_obj();
        }
        j.end_arr().end_obj();
        Ok(j.finish())
    }
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("store", &self.reader.path())
            .field("weeks", &self.reader.weeks_committed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::route;
    use std::sync::Arc;
    use webvuln_analysis::dataset::{collect, CollectConfig};
    use webvuln_net::Request;
    use webvuln_webgen::{Ecosystem, EcosystemConfig, Timeline};

    fn temp_store(tag: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "webvuln-serve-svc-{tag}-{}.wvstore",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Collects `eco` on two threads into a store of `shards` shards at
    /// `path`.
    fn collect_into(eco: &Arc<Ecosystem>, path: &Path, shards: usize) {
        let config = CollectConfig {
            concurrency: 2,
            shards,
            ..CollectConfig::default()
        };
        let telemetry = webvuln_telemetry::Telemetry::new();
        collect(eco, &config, &telemetry, Some(path), false).expect("collect");
    }

    fn service(tag: &str) -> QueryService {
        let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
            seed: 77,
            domain_count: 40,
            timeline: Timeline::truncated(3),
        }));
        let path = temp_store(tag);
        collect_into(&eco, &path, 1);
        QueryService::open(&path).expect("open")
    }

    #[test]
    fn degraded_sharded_store_serves_healthy_shards() {
        let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
            seed: 77,
            domain_count: 40,
            timeline: Timeline::truncated(3),
        }));
        let single = temp_store("degraded-single");
        collect_into(&eco, &single, 1);
        let baseline = QueryService::open(&single).expect("open single");
        let dir = std::env::temp_dir().join(format!(
            "webvuln-serve-svc-degraded-{}.wvshards",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        collect_into(&eco, &dir, 3);
        std::fs::remove_file(dir.join(webvuln_store::shard_file_name(1))).expect("delete shard");

        // The server still comes up, reports the outage, and serves
        // every healthy shard byte-for-byte like the unsharded store.
        let svc = QueryService::open(&dir).expect("degraded open");
        let body = svc.healthz(0);
        assert!(body.contains("\"status\":\"degraded\""), "{body}");
        assert!(body.contains("\"degraded\":true"), "{body}");
        assert!(body.contains("\"shard\":1"), "{body}");
        assert!(body.contains("\"status\":\"unavailable\""), "{body}");
        let (mut healthy, mut dead) = (0, 0);
        for (domain, _) in &baseline.reader().genesis().ranks {
            let (shard, detail) = svc.reader().shard_for(domain);
            if shard == 1 {
                assert!(detail.is_some());
                match svc.domain_history(domain) {
                    Err(ApiError::Unavailable(detail)) => {
                        assert!(detail.contains("shard 1"), "{detail}")
                    }
                    other => panic!("dead shard must answer 503, got {other:?}"),
                }
                dead += 1;
            } else {
                assert_eq!(
                    svc.domain_history(domain).expect("healthy history"),
                    baseline.domain_history(domain).expect("baseline history"),
                    "healthy-shard answer diverged for {domain}"
                );
                healthy += 1;
            }
        }
        assert!(healthy > 0, "no healthy-shard domains exercised");
        assert!(dead > 0, "no dead-shard domains exercised");
        let _ = std::fs::remove_file(&single);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn healthz_reports_store_shape() {
        let svc = service("healthz");
        let body = svc.healthz(3);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"weeks_committed\":3"), "{body}");
        assert!(body.contains("\"domains\":40"), "{body}");
        assert!(body.contains("\"requests_total\":3"), "{body}");
    }

    #[test]
    fn every_route_evaluates_against_a_real_store() {
        let svc = service("routes");
        let domain = svc.reader().genesis().ranks[0].0.clone();
        for target in [
            "/healthz".to_string(),
            format!("/domain/{domain}/history"),
            "/library/jquery/prevalence".to_string(),
            "/week/1/landscape".to_string(),
        ] {
            let r = route(&Request::get("t", &target)).expect("route");
            let body = svc.evaluate(&r, 0).expect("evaluate");
            assert!(body.starts_with('{'), "{target} → {body}");
        }
    }

    #[test]
    fn unknown_entities_are_not_found() {
        let svc = service("missing");
        assert!(matches!(
            svc.domain_history("no-such.example"),
            Err(ApiError::NotFound(_))
        ));
        assert!(matches!(
            svc.library_prevalence("left-pad"),
            Err(ApiError::NotFound(_))
        ));
        assert!(matches!(
            svc.week_landscape(999),
            Err(ApiError::NotFound(_))
        ));
        assert!(matches!(
            svc.cve_exposure("CVE-1999-0000"),
            Err(ApiError::NotFound(_))
        ));
    }

    #[test]
    fn alerts_endpoint_serves_the_watch_outbox() {
        use webvuln_watch::{Alert, Coverage, Outbox, WatchConfig};
        let root = std::env::temp_dir().join(format!(
            "webvuln-serve-alerts-{}.wvwatch",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("mkdir");
        let cfg = WatchConfig::new(&root);
        {
            let (mut outbox, _) = Outbox::open(&cfg.outbox_wal(), &cfg.alert_log()).expect("open");
            let coverage = Coverage {
                shards_scanned: 1,
                shards_total: 2,
            };
            let a = Alert::new(
                "CVE-2099-0001",
                "jquery",
                "site-1.example",
                0,
                2,
                3,
                coverage,
            );
            let b = Alert::new(
                "CVE-2099-0001",
                "jquery",
                "site-2.example",
                1,
                2,
                2,
                coverage,
            );
            outbox.enqueue(&[a]).expect("enqueue");
            outbox.deliver_pending().expect("deliver");
            outbox.enqueue(&[b]).expect("enqueue");
        }

        // Without a watch root the endpoint is a 404.
        let plain = service("alerts-plain");
        assert!(matches!(plain.alerts(), Err(ApiError::NotFound(_))));

        let svc = service("alerts").with_watch_root(&root);
        let body = svc.alerts().expect("alerts");
        assert!(body.contains("\"total\":2"), "{body}");
        assert!(body.contains("\"pending\":1"), "{body}");
        assert!(body.contains("\"delivered\":1"), "{body}");
        assert!(body.contains("\"cve\":\"CVE-2099-0001\""), "{body}");
        assert!(body.contains("\"domain\":\"site-1.example\""), "{body}");
        assert!(body.contains("\"coverage_scanned\":1"), "{body}");
        assert!(body.contains("\"full_coverage\":false"), "{body}");
        // healthz gains the watch section.
        let health = svc.healthz(0);
        assert!(health.contains("\"watch\":{"), "{health}");
        assert!(health.contains("\"alerts_pending\":1"), "{health}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn history_matches_random_access_reads() {
        let svc = service("history");
        let domain = svc.reader().genesis().ranks[2].0.clone();
        let body = svc.domain_history(&domain).expect("history");
        for week in 0..svc.reader().weeks_committed() {
            let record = svc.reader().get(&domain, week).expect("get");
            assert!(
                body.contains(&format!("\"body_len\":{}", record.body_len)),
                "week {week} body_len missing from {body}"
            );
        }
    }
}
