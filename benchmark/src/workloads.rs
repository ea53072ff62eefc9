//! The four workloads: what each sets up, what it times, and which
//! outputs it checks. Every pool runs on [`THREADS`] threads and the
//! load generator on [`CLIENTS`] connections whatever the host; nothing
//! on a timed path sleeps or injects delay.

use crate::reference::{factor, slice_ms, HostSpeed};
use crate::spans::Recorder;
use crate::sys::{cpu_seconds, fnv1a, median, ms_since, path_bytes, peak_rss_mb, percentile, Outcome, Rng, Zipf};
use std::collections::BTreeSet;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;
use webvuln::analysis::fold_study;
use webvuln::core::{analyze_store, full_report, Pipeline, StudyConfig};
use webvuln::cvedb::{parse_delta, LibraryId, VulnDb};
use webvuln::net::codec::{encode_request, MessageReader};
use webvuln::net::{FaultPlan, Request};
use webvuln::serve::route;
use webvuln::telemetry::{Registry, Snapshot, Telemetry};
use webvuln::version::Version;
use webvuln::watch::{week_file_name, write_genesis_file, write_week_file, Alert, GENESIS_FILE};
use webvuln::webgen::Timeline;
use webvuln::{AnyReader, ApiServer, QueryService, ServeConfig, WatchConfig, Watcher};

pub const THREADS: usize = 2;
pub const CLIENTS: usize = 2;
pub const WATCH_SHARDS: usize = 4;
pub const SERVE_CACHE: usize = 256;
/// One response body in this many is compared with a direct evaluation.
const SERVE_SAMPLE_EVERY: usize = 500;
/// Share of requests that ask for a domain history (the rest rotate over
/// the aggregate targets, which fit the response cache).
const SERVE_HISTORY_SHARE: f64 = 0.7;

/// Claims every jquery version the corpus can hold, so the retro-scan is
/// sure to find exposure and drive the alert outbox.
pub const DELTA: &str = "\
# webvuln cve delta v1
id: CVE-2099-9999
library: jquery
claimed: < 9.0.0
attack: xss
disclosed: 2022-01-01
";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StudyFresh,
    RefoldLong,
    WatchLive,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StudyFresh,
        Workload::RefoldLong,
        Workload::WatchLive,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StudyFresh => "study_fresh",
            Workload::RefoldLong => "refold_long",
            Workload::WatchLive => "watch_live",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub domains: usize,
    pub weeks: usize,
}

impl Size {
    pub fn domain_weeks(self) -> u64 {
        (self.domains * self.weeks) as u64
    }
}

/// Input sizes and repetition counts for one scale of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub study: Size,
    pub refold: Size,
    pub watch: Size,
    pub serve: Size,
    pub probe: Size,
    /// Requests per latency window, over all connections.
    pub serve_window: usize,
    pub serve_warmup: usize,
    pub serve_min_windows: usize,
    /// Requests the per-layer serve probe sends.
    pub probe_requests: usize,
    pub setup_reps: usize,
    pub min_units: usize,
}

impl Plan {
    /// Sizes chosen so that one set-up takes about two seconds and a
    /// fifteen-second run holds several units of every workload.
    pub fn full() -> Plan {
        Plan {
            study: Size { domains: 2_000, weeks: 12 },
            refold: Size { domains: 1_000, weeks: 40 },
            watch: Size { domains: 1_500, weeks: 12 },
            serve: Size { domains: 2_000, weeks: 12 },
            probe: Size { domains: 1_500, weeks: 8 },
            serve_window: 20_000,
            serve_warmup: 2_000,
            serve_min_windows: 5,
            probe_requests: 6_000,
            setup_reps: 3,
            min_units: 3,
        }
    }

    pub fn smoke() -> Plan {
        Plan {
            study: Size { domains: 600, weeks: 6 },
            refold: Size { domains: 400, weeks: 8 },
            watch: Size { domains: 400, weeks: 6 },
            serve: Size { domains: 300, weeks: 4 },
            probe: Size { domains: 300, weeks: 5 },
            serve_window: 800,
            serve_warmup: 200,
            serve_min_windows: 5,
            probe_requests: 1_000,
            setup_reps: 1,
            min_units: 1,
        }
    }
}

/// What one child process works from.
pub struct Ctx {
    pub plan: Plan,
    pub seed: u64,
    pub seconds: f64,
    /// This run's private directory under `benchmark/target/work/`.
    pub work: PathBuf,
}

impl Ctx {
    /// What set-up built for the run to read.
    pub fn data(&self) -> PathBuf {
        self.work.join("data")
    }

    /// Scratch space of the timed section.
    pub fn scratch(&self) -> PathBuf {
        self.work.join("run")
    }
}

/// The study pipeline every workload starts from: the CLI's default
/// fault plan, or the hostile carry-forward recipe the watch corpus uses.
pub fn pipeline<'a>(seed: u64, size: Size, hostile: bool) -> Pipeline<'a> {
    let base = Pipeline::new(StudyConfig::default())
        .seed(seed)
        .domains(size.domains)
        .timeline(Timeline::truncated(size.weeks))
        .threads(THREADS)
        .shards(1);
    if hostile {
        base.faults(FaultPlan::hostile(seed)).carry_forward(true)
    } else {
        base.faults(FaultPlan::realistic(seed))
    }
}

/// The report without its "Run telemetry" tail, which holds timings and
/// so differs between two runs over the same inputs.
pub fn report_body(report: &str) -> &str {
    report.split("Run telemetry").next().unwrap_or(report)
}

fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create work directory");
}

/// Builds what the workload's run reads, under `ctx.data()`, and reports
/// how long that took as `setup_s`.
pub fn setup(ctx: &Ctx, workload: Workload) -> Outcome {
    let data = ctx.data();
    fresh_dir(&data);
    // Set-up time is reported at reference speed too: slices before and
    // after the build bracket it.
    let mut host = HostSpeed::default();
    let before = host.sample(THREADS, 3);
    let start = Instant::now();
    match workload {
        // The reference run: the store and report every timed run over
        // the same seed must reproduce.
        Workload::StudyFresh => {
            let store = data.join("expected.wvstore");
            let results = pipeline(ctx.seed, ctx.plan.study, false)
                .checkpoint(&store)
                .streaming(true)
                .run()
                .expect("reference study");
            std::fs::write(
                data.join("expected.report"),
                report_body(&full_report(&results)),
            )
            .expect("write reference report");
        }
        Workload::RefoldLong | Workload::ServeMixed => {
            let size = if workload == Workload::RefoldLong {
                ctx.plan.refold
            } else {
                ctx.plan.serve
            };
            pipeline(ctx.seed, size, false)
                .checkpoint(data.join("store.wvstore"))
                .streaming(true)
                .run()
                .expect("store-building study");
        }
        // One hostile-fault study split back into genesis and per-week
        // spool files, staged for the run to deliver one at a time.
        Workload::WatchLive => {
            let corpus = data.join("corpus.wvstore");
            pipeline(ctx.seed, ctx.plan.watch, true)
                .checkpoint(&corpus)
                .streaming(true)
                .run()
                .expect("corpus study");
            let reader = AnyReader::open(&corpus).expect("open corpus store");
            let stage = data.join("stage");
            fresh_dir(&stage);
            write_genesis_file(&stage, reader.genesis()).expect("stage genesis");
            for week in 0..reader.weeks_committed() {
                let week = reader.week(week).expect("corpus week");
                write_week_file(&stage, &week).expect("stage week");
            }
            drop(reader);
            let _ = std::fs::remove_file(&corpus);
        }
    }
    let setup_s = start.elapsed().as_secs_f64();
    let after = host.sample(THREADS, 3);
    let mut outcome = Outcome::default();
    outcome.metric("setup_s", "s", setup_s * factor(before, after));
    outcome
}

/// What one timed section measured. Times and CPU are at reference
/// speed (see `reference.rs`) unless named raw.
pub struct Timed {
    /// Wall time of each unit of work (study, fold, watch cycle, request
    /// window), in ms.
    pub unit_ms: Vec<f64>,
    /// The same as measured, for the log line.
    pub raw_unit_ms: Vec<f64>,
    /// Latency of each operation a user waits for (study, fold, arrival
    /// tick, request), in ms.
    pub op_ms: Vec<f64>,
    pub op_tail_ms: f64,
    /// Domain-weeks processed, or requests answered.
    pub items: u64,
    /// Units that run side by side (the load generator's connections).
    pub lanes: usize,
    pub cpu_s: f64,
    /// Reference slices timed between the units (see `reference.rs`).
    pub host: HostSpeed,
    /// Peak resident set when the timed section ended, before any output
    /// check allocated.
    pub peak_rss_mb: f64,
    pub store_bytes: u64,
    pub store_domain_weeks: u64,
    /// Extra per-layer readings a traced run picks up on the way.
    pub extra: Vec<(&'static str, &'static str, f64)>,
    /// Spans of the load generator's own threads, on the caller's clock.
    pub client_recorders: Vec<Recorder>,
    pub outcome: Outcome,
}

impl Timed {
    fn new() -> Timed {
        Timed {
            unit_ms: Vec::new(),
            raw_unit_ms: Vec::new(),
            op_ms: Vec::new(),
            op_tail_ms: 0.0,
            items: 0,
            lanes: 1,
            cpu_s: 0.0,
            host: HostSpeed::default(),
            peak_rss_mb: 0.0,
            store_bytes: 0,
            store_domain_weeks: 1,
            extra: Vec::new(),
            client_recorders: Vec::new(),
            outcome: Outcome::default(),
        }
    }

    /// Books one unit of work: its time and CPU as measured between two
    /// reference samples, and the factor those samples give.
    fn push_unit(&mut self, raw_ms: f64, cpu_s: f64, factor: f64) {
        self.raw_unit_ms.push(raw_ms);
        self.unit_ms.push(raw_ms * factor);
        self.cpu_s += cpu_s * factor;
    }

    /// The end-to-end metrics, by the names `BENCHMARK.json` declares.
    pub fn end_to_end(&self) -> Outcome {
        let mut out = Outcome::default();
        let items = self.items.max(1) as f64;
        // Items of the median unit over its time, not the total over the
        // total: one stalled unit then moves the reading by one rank.
        let per_unit = items / self.unit_ms.len().max(1) as f64;
        out.metric(
            "items_per_s",
            "1/s",
            per_unit * self.lanes as f64 / (median(&self.unit_ms) / 1e3).max(1e-9),
        );
        out.metric("op_p50_ms", "ms", median(&self.op_ms));
        out.metric("op_tail_ms", "ms", self.op_tail_ms);
        out.metric("cpu_us_per_item", "us", self.cpu_s * 1e6 / items);
        out.metric("peak_rss_mb", "MB", self.peak_rss_mb);
        out.metric(
            "store_bytes_per_domain_week",
            "B",
            self.store_bytes as f64 / self.store_domain_weeks.max(1) as f64,
        );
        out
    }
}

pub fn run_timed(ctx: &Ctx, workload: Workload, seconds: f64, rec: &mut Recorder) -> Timed {
    fresh_dir(&ctx.scratch());
    match workload {
        Workload::StudyFresh => study_fresh(ctx, seconds, rec),
        Workload::RefoldLong => refold_long(ctx, seconds, rec),
        Workload::WatchLive => watch_live(ctx, seconds, rec),
        Workload::ServeMixed => serve_mixed(ctx, seconds, rec),
    }
}

/// Lays the program's own phase totals out as child spans of the call
/// that produced them.
fn phase_spans(rec: &mut Recorder, start_ns: u64, snapshot: &Snapshot) {
    let mut cursor = start_ns;
    for span in &snapshot.spans {
        let name = match span.path.as_str() {
            "generate" => "core.phase_generate",
            "crawl" => "core.phase_crawl",
            "fingerprint" => "core.phase_fingerprint",
            "store" => "core.phase_store",
            "join" => "core.phase_join",
            "analyze" => "core.phase_analyze",
            _ => continue,
        };
        let dur = span.total.as_nanos() as u64;
        rec.aggregate(name, cursor, dur);
        cursor += dur;
    }
}

/// Whether the loop over units goes on: at least `min_units`, then until
/// `seconds` have passed.
fn more(started: Instant, seconds: f64, units: usize, min_units: usize) -> bool {
    units < min_units || started.elapsed().as_secs_f64() < seconds
}

/// `study_fresh`: the paper's own job, end to end — generate, crawl,
/// tokenise, fingerprint, commit, fold, report — once per unit.
fn study_fresh(ctx: &Ctx, seconds: f64, rec: &mut Recorder) -> Timed {
    let size = ctx.plan.study;
    let store = ctx.scratch().join("study.wvstore");
    let expected_report =
        std::fs::read_to_string(ctx.data().join("expected.report")).expect("reference report");
    let mut timed = Timed::new();
    let mut quarantined = 0;
    let mut reports_differing = 0;
    let mut last = None;
    let started = Instant::now();
    let mut before = timed.host.sample(THREADS, 2);
    while more(started, seconds, timed.unit_ms.len(), ctx.plan.min_units) {
        let _ = std::fs::remove_file(&store);
        let telemetry = Telemetry::new();
        let cpu0 = cpu_seconds();
        let unit_start = Instant::now();
        let unit = rec.begin("study_fresh.unit");
        let mut study = pipeline(ctx.seed, size, false)
            .checkpoint(&store)
            .streaming(true);
        if rec.enabled() {
            study = study.telemetry(&telemetry);
        }
        let call = rec.begin("core.pipeline_run");
        let call_ns = rec.now_ns();
        let results = study.run().expect("study run");
        phase_spans(rec, call_ns, &results.telemetry);
        rec.end(call);
        let report = rec.span("core.full_report", |_| full_report(&results));
        rec.end(unit);
        let (raw_ms, cpu_s) = (ms_since(unit_start), cpu_seconds() - cpu0);
        let after = timed.host.sample(THREADS, 2);
        timed.push_unit(raw_ms, cpu_s, factor(before, after));
        before = after;
        quarantined += results.telemetry.counter("exec.quarantined_total").unwrap_or(0);
        if report_body(&report) != expected_report {
            reports_differing += 1;
        }
        // Only what the checks below read, so that the next unit's peak
        // memory does not hold this unit's results.
        last = Some((results.prevalence_claimed.average, results.prevalence_tvv.average, report));
    }
    timed.peak_rss_mb = peak_rss_mb();
    timed.items = timed.unit_ms.len() as u64 * size.domain_weeks();
    timed.op_ms = timed.unit_ms.clone();
    timed.op_tail_ms = percentile(&timed.op_ms, 0.9);
    timed.store_bytes = path_bytes(&store);
    timed.store_domain_weeks = size.domain_weeks();

    let out = &mut timed.outcome;
    out.attempted = timed.items;
    out.failed = quarantined;
    if quarantined > 0 {
        out.failures.push(format!("{quarantined} tasks quarantined"));
    }
    let (claimed, tvv, report) = last.expect("at least one unit ran");
    out.check("study.report_matches_reference", reports_differing == 0, || {
        format!("{reports_differing} unit reports differ from the set-up run's")
    });
    let reader = AnyReader::open(&store).expect("open the store just written");
    out.check(
        "study.week_count",
        reader.weeks_committed() == size.weeks,
        || format!("{} weeks committed, expected {}", reader.weeks_committed(), size.weeks),
    );
    let verified = reader.verify();
    out.check("study.store_verify", verified.is_ok(), || format!("{verified:?}"));
    let same_bytes = std::fs::read(&store).ok() == std::fs::read(ctx.data().join("expected.wvstore")).ok();
    out.check("study.store_matches_reference", same_bytes, || {
        "store bytes differ from the set-up run's".to_string()
    });
    let config = pipeline(ctx.seed, size, false).build();
    let refolded = analyze_store(config, &store, &Telemetry::new()).expect("re-analyse the store");
    out.check(
        "study.report_matches_refold",
        report_body(&full_report(&refolded)) == report_body(&report),
        || "the pipeline's report differs from analyze_store over its store".to_string(),
    );
    // The paper's direction: validated ranges expose more sites than the
    // claimed ones (43.2 % against 41.2 %).
    out.check("study.claimed_le_tvv", claimed <= tvv, || {
        format!("claimed prevalence {claimed} > validated {tvv}")
    });
    timed
}

/// `refold_long`: re-analyse a finalized store — sequential decode and
/// the accumulators do all the work, fingerprinting none.
fn refold_long(ctx: &Ctx, seconds: f64, rec: &mut Recorder) -> Timed {
    let size = ctx.plan.refold;
    let store = ctx.data().join("store.wvstore");
    let config = pipeline(ctx.seed, size, false).build();
    let mut timed = Timed::new();
    let mut first_body: Option<String> = None;
    let mut bodies_differing = 0;
    let started = Instant::now();
    let mut before = timed.host.sample(THREADS, 1);
    while more(started, seconds, timed.unit_ms.len(), ctx.plan.min_units) {
        let telemetry = Telemetry::new();
        let cpu0 = cpu_seconds();
        let unit_start = Instant::now();
        let unit = rec.begin("refold_long.unit");
        let call = rec.begin("core.analyze_store");
        let call_ns = rec.now_ns();
        let results = analyze_store(config, &store, &telemetry).expect("refold");
        phase_spans(rec, call_ns, &results.telemetry);
        rec.end(call);
        let report = rec.span("core.full_report", |_| full_report(&results));
        rec.end(unit);
        let (raw_ms, cpu_s) = (ms_since(unit_start), cpu_seconds() - cpu0);
        let after = timed.host.sample(THREADS, 1);
        timed.push_unit(raw_ms, cpu_s, factor(before, after));
        before = after;
        match &first_body {
            Some(body) if body != report_body(&report) => bodies_differing += 1,
            Some(_) => {}
            None => first_body = Some(report_body(&report).to_string()),
        }
    }
    timed.peak_rss_mb = peak_rss_mb();
    timed.items = timed.unit_ms.len() as u64 * size.domain_weeks();
    timed.op_ms = timed.unit_ms.clone();
    timed.op_tail_ms = percentile(&timed.op_ms, 0.9);
    timed.store_bytes = path_bytes(&store);
    timed.store_domain_weeks = size.domain_weeks();
    timed.outcome.attempted = timed.items;
    timed.outcome.check("refold.folds_identical", bodies_differing == 0, || {
        format!("{bodies_differing} folds rendered different bytes")
    });
    timed
}

/// `watch_live`: the store used the other way — one daemon ingesting a
/// week per arrival tick through the sharded writer, settling on the
/// quiet tick after it, then retro-scanning history when a CVE delta
/// lands and draining the alert outbox.
fn watch_live(ctx: &Ctx, seconds: f64, rec: &mut Recorder) -> Timed {
    let size = ctx.plan.watch;
    let stage = ctx.data().join("stage");
    let root = ctx.scratch().join("root");
    let mut timed = Timed::new();
    let mut ticks = 0u64;
    let mut bad_ticks = 0u64;
    let mut settle_ms = Vec::new();
    let mut retro_ms = Vec::new();
    let mut settle_refolds = 0;
    let mut last: Option<(Watcher, bool, usize)> = None;
    let mut arrival_ms = Vec::new();
    let started = Instant::now();
    let mut before = timed.host.sample(THREADS, 2);
    while more(started, seconds, timed.unit_ms.len(), ctx.plan.min_units) {
        drop(last.take());
        let _ = std::fs::remove_dir_all(&root);
        let telemetry = Telemetry::new();
        let cpu0 = cpu_seconds();
        let unit_start = Instant::now();
        let unit = rec.begin("watch_live.cycle");
        let spool = root.join("spool");
        std::fs::create_dir_all(&spool).expect("create spool");
        std::fs::copy(stage.join(GENESIS_FILE), spool.join(GENESIS_FILE)).expect("deliver genesis");
        let config = WatchConfig::new(&root).threads(THREADS).shards(WATCH_SHARDS);
        let mut watcher = rec
            .span("watch.open", |_| Watcher::open(config, &telemetry))
            .expect("open watcher");
        for week in 0..size.weeks {
            let name = week_file_name(week);
            rec.span("harness.deliver_week", |_| {
                std::fs::copy(stage.join(&name), spool.join(&name)).expect("deliver week")
            });
            let tick_start = Instant::now();
            let report = rec.span("watch.tick_arrival", |_| watcher.tick());
            arrival_ms.push(ms_since(tick_start));
            ticks += 1;
            if !matches!(report, Ok(r) if r.weeks_ingested == 1 && r.refolds == 0) {
                bad_ticks += 1;
            }
            let tick_start = Instant::now();
            let report = rec.span("watch.tick_settle", |_| watcher.tick());
            settle_ms.push(ms_since(tick_start));
            ticks += 1;
            match report {
                Ok(r) => settle_refolds += r.refolds,
                Err(_) => bad_ticks += 1,
            }
        }
        let deltas = root.join("deltas");
        std::fs::create_dir_all(&deltas).expect("create deltas");
        std::fs::write(deltas.join("bench.cvedelta"), DELTA).expect("land delta");
        let tick_start = Instant::now();
        let report = rec.span("watch.tick_retro", |_| watcher.tick());
        retro_ms.push(ms_since(tick_start));
        ticks += 1;
        let mut delivered = 0;
        match report {
            Ok(r) if r.deltas_applied == 1 && r.alerts_enqueued > 0 => delivered += r.alerts_delivered,
            _ => bad_ticks += 1,
        }
        // Tick until the daemon has nothing left to do.
        let mut idle = false;
        for _ in 0..8 {
            let report = rec.span("watch.tick_drain", |_| watcher.tick());
            ticks += 1;
            match report {
                Ok(r) if r.is_idle() => {
                    idle = true;
                    break;
                }
                Ok(r) => delivered += r.alerts_delivered,
                Err(_) => bad_ticks += 1,
            }
        }
        rec.end(unit);
        let (raw_ms, cpu_s) = (ms_since(unit_start), cpu_seconds() - cpu0);
        let after = timed.host.sample(THREADS, 2);
        let speed = factor(before, after);
        timed.push_unit(raw_ms, cpu_s, speed);
        before = after;
        // This cycle's arrival ticks, at the speed the cycle ran at.
        let done = timed.op_ms.len();
        timed.op_ms.extend(arrival_ms[done..].iter().map(|ms| ms * speed));
        last = Some((watcher, idle, delivered));
    }
    timed.peak_rss_mb = peak_rss_mb();
    timed.items = timed.unit_ms.len() as u64 * size.domain_weeks();
    timed.op_tail_ms = percentile(&timed.op_ms, 0.9);
    timed.store_bytes = path_bytes(&root.join("store"));
    timed.store_domain_weeks = size.domain_weeks();
    let cycles = timed.unit_ms.len().max(1) as f64;
    timed.extra = vec![
        ("watch.tick_arrival_ms", "ms", median(&arrival_ms)),
        ("watch.tick_settle_ms", "ms", median(&settle_ms)),
        ("watch.settle_refolds", "count", settle_refolds as f64 / cycles),
        ("watch.retro_scan_ms", "ms", median(&retro_ms)),
        ("watch.alerts_delivered", "count", last.as_ref().map_or(0, |l| l.2) as f64),
    ];

    let out = &mut timed.outcome;
    out.attempted = ticks;
    out.failed = bad_ticks;
    if bad_ticks > 0 {
        out.failures.push(format!("{bad_ticks} ticks failed or did the wrong work"));
    }
    let (watcher, idle, delivered) = last.expect("at least one cycle ran");
    out.check("watch.idle", idle, || "the daemon never went idle".to_string());
    out.check(
        "watch.weeks_committed",
        watcher.weeks_committed() == size.weeks,
        || format!("{} weeks committed, expected {}", watcher.weeks_committed(), size.weeks),
    );
    let reader = AnyReader::open_degraded(&root.join("store")).expect("open the live store");
    let cold = fold_study(&reader, watcher.db(), THREADS).expect("cold fold");
    out.check(
        "watch.live_equals_cold_fold",
        format!("{:?}", watcher.live().finish(watcher.db()))
            == format!("{:?}", cold.finish(watcher.db())),
        || "the live accumulator's artifacts differ from a cold fold's".to_string(),
    );
    let expected = exposed_domains(&reader);
    let log = std::fs::read_to_string(root.join("alerts.log")).unwrap_or_default();
    let ids: Vec<u64> = log.lines().filter_map(Alert::log_line_id).collect();
    let unique: BTreeSet<u64> = ids.iter().copied().collect();
    out.check(
        "watch.alerts_exactly_once",
        ids.len() == log.lines().count() && unique.len() == ids.len() && ids.len() == expected && delivered == expected,
        || {
            format!(
                "{} log lines, {} ids, {} unique, {delivered} delivered, {expected} domains exposed in the store",
                log.lines().count(),
                ids.len(),
                unique.len()
            )
        },
    );
    timed
}

/// Domains with at least one stored detection [`DELTA`] claims: what the
/// retro-scan must alert on, counted here without the daemon.
fn exposed_domains(reader: &AnyReader) -> usize {
    let records = parse_delta(DELTA).expect("the benchmark's delta parses");
    let mut exposed = BTreeSet::new();
    for week in reader.stream() {
        for domain in week.expect("decode week").records {
            let Some(page) = &domain.page else { continue };
            let hit = page.detections.iter().any(|det| {
                let version = det.version.as_deref().and_then(|v| Version::parse(v).ok());
                let library = LibraryId::from_slug(&det.library);
                records.iter().any(|record| {
                    Some(record.library) == library && version.as_ref().is_some_and(|v| record.claims(v))
                })
            });
            if hit {
                exposed.insert(domain.host);
            }
        }
    }
    exposed.len()
}

/// The request targets of the serving workload: one history per domain
/// in rank order, then the aggregate targets that fit the cache.
pub struct ServeTargets {
    pub paths: Vec<String>,
    pub wires: Vec<Vec<u8>>,
    pub histories: usize,
}

impl ServeTargets {
    pub fn new(service: &QueryService) -> ServeTargets {
        let reader = service.reader();
        let mut ranked: Vec<(u64, &str)> = reader
            .genesis()
            .ranks
            .iter()
            .map(|(domain, rank)| (*rank, domain.as_str()))
            .collect();
        ranked.sort_unstable();
        let mut paths: Vec<String> = ranked
            .iter()
            .map(|(_, domain)| format!("/domain/{domain}/history"))
            .collect();
        let histories = paths.len();
        for week in 0..reader.weeks_committed().min(16) {
            paths.push(format!("/week/{week}/landscape"));
        }
        for library in LibraryId::ALL.iter().take(8) {
            paths.push(format!("/library/{}/prevalence", library.slug()));
        }
        for record in VulnDb::builtin().records().iter().take(4) {
            paths.push(format!("/cve/{}/exposure", record.id));
        }
        let wires = paths
            .iter()
            .map(|path| {
                let mut wire = Vec::new();
                encode_request(&Request::get("bench", path), &mut wire);
                wire
            })
            .collect();
        ServeTargets {
            paths,
            wires,
            histories,
        }
    }
}

/// One connection's window of requests, reduced when it ends so that
/// the log's size does not depend on how many requests the run fits.
struct WindowStats {
    wall_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    /// Median latency of the history requests (mostly cache misses) and
    /// of the aggregate ones (cache hits), in ms.
    history_p50_ms: f64,
    aggregate_p50_ms: f64,
}

/// What one load-generator connection saw.
struct ClientLog {
    windows: Vec<WindowStats>,
    /// One reference slice before each window and one after the last.
    slice_ms: Vec<f64>,
    /// Process CPU seconds over each window (read by connection 0 only).
    cpu_s: Vec<f64>,
    /// `(target, hash of the body)` of one response in
    /// [`SERVE_SAMPLE_EVERY`].
    samples: Vec<(usize, u64)>,
    bytes: u64,
    non_200: u64,
    recorder: Recorder,
}

/// What the load generator's connections share.
struct ServeLoad<'a> {
    addr: std::net::SocketAddr,
    targets: &'a ServeTargets,
    zipf: &'a Zipf,
    warmup: usize,
    per_window: usize,
    min_windows: usize,
    seconds: f64,
    /// Connections and the starting thread meet here once all are warm.
    start: Barrier,
    /// Connections meet here before and after every window, so that the
    /// reference slices between windows never overlap one and every
    /// connection runs the same number of windows.
    step: Barrier,
    stop: AtomicBool,
}

/// One keep-alive connection, closed loop: the next request goes out
/// only when the previous reply is in.
fn serve_client(load: &ServeLoad<'_>, lane: usize, seed: u64, recorder: Recorder) -> ClientLog {
    let targets = load.targets;
    let conn = TcpStream::connect(load.addr).expect("connect to the API server");
    conn.set_nodelay(true).expect("set nodelay");
    let mut write = conn.try_clone().expect("clone connection");
    let mut reader = MessageReader::new(conn);
    let mut rng = Rng::new(seed);
    let aggregates = targets.paths.len() - targets.histories;
    let mut rotation = rng.below(aggregates);
    let mut pick = |rng: &mut Rng| {
        if rng.unit() < SERVE_HISTORY_SHARE {
            load.zipf.sample(rng)
        } else {
            rotation = (rotation + 1) % aggregates;
            targets.histories + rotation
        }
    };
    let mut log = ClientLog {
        windows: Vec::new(),
        slice_ms: Vec::new(),
        cpu_s: Vec::new(),
        samples: Vec::new(),
        bytes: 0,
        non_200: 0,
        recorder,
    };
    for _ in 0..load.warmup {
        let target = pick(&mut rng);
        write.write_all(&targets.wires[target]).expect("send");
        reader.read_response(false).expect("warm-up response");
    }
    load.start.wait();
    let started = Instant::now();
    let mut sent = 0usize;
    let (mut history_ms, mut aggregate_ms) = (Vec::new(), Vec::new());
    loop {
        log.slice_ms.push(slice_ms(lane as u64));
        // Connection 0 decides for all, so every connection runs the
        // same number of windows and none waits alone at the barrier.
        if lane == 0 {
            let go_on = more(started, load.seconds, log.windows.len(), load.min_windows);
            load.stop.store(!go_on, Ordering::SeqCst);
        }
        load.step.wait();
        if load.stop.load(Ordering::SeqCst) {
            break;
        }
        let cpu0 = if lane == 0 { cpu_seconds() } else { 0.0 };
        let window_start = Instant::now();
        let window_span = log.recorder.begin("serve_mixed.window");
        history_ms.clear();
        aggregate_ms.clear();
        for _ in 0..load.per_window {
            let target = pick(&mut rng);
            let span = log.recorder.begin("serve.request");
            let sent_at = Instant::now();
            write.write_all(&targets.wires[target]).expect("send");
            let response = reader.read_response(false).expect("response");
            let ms = ms_since(sent_at);
            if target < targets.histories {
                history_ms.push(ms);
            } else {
                aggregate_ms.push(ms);
            }
            log.recorder.end(span);
            if response.status.0 != 200 {
                log.non_200 += 1;
            }
            log.bytes += response.body.len() as u64;
            sent += 1;
            if sent % SERVE_SAMPLE_EVERY == 0 {
                log.samples.push((target, fnv1a(&response.body)));
            }
        }
        log.recorder.end(window_span);
        let wall_ms = ms_since(window_start);
        let all_ms: Vec<f64> = history_ms.iter().chain(&aggregate_ms).copied().collect();
        log.windows.push(WindowStats {
            wall_ms,
            p50_ms: median(&all_ms),
            p99_ms: percentile(&all_ms, 0.99),
            history_p50_ms: median(&history_ms),
            aggregate_p50_ms: median(&aggregate_ms),
        });
        load.step.wait();
        if lane == 0 {
            log.cpu_s.push(cpu_seconds() - cpu0);
        }
    }
    log
}

/// `serve_mixed`: the store used a third way — point reads behind the
/// HTTP API. Histories follow Zipf(1.0) over every domain, a working set
/// far larger than the response cache; the aggregate targets fit it.
fn serve_mixed(ctx: &Ctx, seconds: f64, rec: &mut Recorder) -> Timed {
    let size = ctx.plan.serve;
    let store = ctx.data().join("store.wvstore");
    let mut timed = Timed::new();
    let open_start = Instant::now();
    let service = Arc::new(rec.span("serve.open", |_| QueryService::open(&store)).expect("open service"));
    let open_ms = ms_since(open_start);
    let registry = Registry::new();
    let config = ServeConfig {
        threads: THREADS,
        cache_capacity: SERVE_CACHE,
        max_connections: CLIENTS * 2,
        seed: ctx.seed,
        ..ServeConfig::default()
    };
    let mut server = ApiServer::serve(Arc::clone(&service), config, &registry).expect("bind API server");
    let targets = ServeTargets::new(&service);
    let zipf = Zipf::new(targets.histories);
    let load = ServeLoad {
        addr: server.addr(),
        targets: &targets,
        zipf: &zipf,
        warmup: ctx.plan.serve_warmup / CLIENTS,
        per_window: ctx.plan.serve_window / CLIENTS,
        min_windows: ctx.plan.serve_min_windows,
        seconds,
        start: Barrier::new(CLIENTS + 1),
        step: Barrier::new(CLIENTS),
        stop: AtomicBool::new(false),
    };
    let (origin, enabled) = (rec.origin(), rec.enabled());
    let (logs, peak_mb, warm): (Vec<ClientLog>, f64, Snapshot) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|lane| {
                let load = &load;
                let recorder = Recorder::new(enabled, origin, lane as u32 + 1);
                let seed = ctx.seed ^ (lane as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
                scope.spawn(move || serve_client(load, lane, seed, recorder))
            })
            .collect();
        // The timed section starts once every connection is warm.
        load.start.wait();
        let warm = registry.snapshot();
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread"))
            .collect();
        (logs, peak_rss_mb(), warm)
    });
    let served = registry.snapshot();
    server.shutdown();

    // Every connection ran the same windows, with a reference slice on
    // each side of each: window k is adjusted by slices k and k + 1.
    let windows = logs[0].windows.len();
    let boundary = |k: usize| logs.iter().map(|log| log.slice_ms[k]).sum::<f64>() / CLIENTS as f64;
    let mut window_p99 = Vec::new();
    for k in 0..windows {
        let speed = factor(boundary(k), boundary(k + 1));
        for log in &logs {
            let window = &log.windows[k];
            timed.push_unit(window.wall_ms, log.cpu_s.get(k).copied().unwrap_or(0.0), speed);
            timed.op_ms.push(window.p50_ms * speed);
            window_p99.push(window.p99_ms * speed);
        }
    }
    let all = || logs.iter().flat_map(|log| &log.windows);
    timed.op_tail_ms = median(&window_p99);
    timed.items = (timed.unit_ms.len() * load.per_window) as u64;
    timed.lanes = CLIENTS;
    timed.host.slice_ms = logs.iter().flat_map(|log| log.slice_ms.iter().copied()).collect();
    timed.peak_rss_mb = peak_mb;
    timed.store_bytes = path_bytes(&store);
    timed.store_domain_weeks = size.domain_weeks();

    let counter = |snap: &Snapshot, name: &str| snap.counter(name).unwrap_or(0) as f64;
    let hits = counter(&served, "serve.cache_hits_total") - counter(&warm, "serve.cache_hits_total");
    let misses = counter(&served, "serve.cache_misses_total") - counter(&warm, "serve.cache_misses_total");
    let history_us: Vec<f64> = all().map(|w| w.history_p50_ms * 1e3).collect();
    let aggregate_us: Vec<f64> = all().map(|w| w.aggregate_p50_ms * 1e3).collect();
    let bytes: u64 = logs.iter().map(|log| log.bytes).sum();
    timed.extra = vec![
        ("serve.open_ms", "ms", open_ms),
        ("serve.cache_hit_ratio", "ratio", hits / (hits + misses).max(1.0)),
        ("serve.miss_latency_p50_us", "us", median(&history_us)),
        ("serve.hit_latency_p50_us", "us", median(&aggregate_us)),
        ("serve.response_bytes_mean", "B", bytes as f64 / timed.items.max(1) as f64),
    ];

    let out = &mut timed.outcome;
    out.attempted = timed.items;
    out.failed = logs.iter().map(|log| log.non_200).sum();
    if out.failed > 0 {
        out.failures.push(format!("{} responses were not 200", out.failed));
    }
    for log in &logs {
        for (target, served) in &log.samples {
            let path = &targets.paths[*target];
            let direct = route(&Request::get("bench", path)).ok().and_then(|r| service.evaluate(&r, 0).ok());
            out.check(
                "serve.body_matches_direct_evaluation",
                direct.map(|body| fnv1a(body.as_bytes())) == Some(*served),
                || format!("served body for {path} differs from QueryService::evaluate"),
            );
        }
    }
    timed.client_recorders = logs.into_iter().map(|log| log.recorder).collect();
    timed
}
