//! Measures the live-ingestion daemon's steady-state economics: what a
//! single [`Watcher::tick`] costs as the committed history grows, versus
//! what a full cold refold ([`fold_study`] over the whole store) costs
//! at the same point — the comparison that justifies maintaining the
//! live accumulator incrementally instead of refolding per arrival.
//!
//! Measurements, swept over 1k/10k domains × 4/8/16/32 weeks of
//! history (the corpus is one real pipeline run split into per-week
//! spool files, replayed one week per arrival tick, with a quiet tick
//! between arrivals — the daemon's real poll cadence):
//!
//! - **arrival**: wall-clock of the tick that ingests one new spool
//!   week — read + commit + live absorb. Flat in history length by
//!   design (it touches one week), where the refold grows linearly.
//! - **settle**: the quiet tick after each arrival, where §4.1 verdict
//!   drift (if any) is repaid with one catch-up refold. Reported with
//!   the fraction of arrivals that drifted, so the deferred-refold
//!   policy's real cost is visible, not hidden.
//! - **retro**: latency of the tick that lands a CVE delta batch —
//!   database extension, full-history retro-scan, alert enqueue and
//!   delivery. Linear in history, the price of scanning back in time.
//! - **degraded retro**: the same retro-scan with one store shard
//!   deleted out from under the daemon — completes with reduced
//!   coverage instead of failing, annotated on every alert line.
//!
//! The gate asserted here (and in `--smoke` CI mode): at 32 weeks of
//! history the arrival tick is at least 5x cheaper than a full refold
//! of the same store. Output is the `BENCH_watch.json` document on
//! stdout.
//!
//! Run: `cargo run --release --example watch_bench` (`--smoke` runs the
//! 1k-domain gate points only).

use std::path::{Path, PathBuf};
use std::time::Instant;
use webvuln::analysis::fold_study;
use webvuln::core::{Pipeline, StudyConfig};
use webvuln::net::FaultPlan;
use webvuln::store::{shard_file_name, AnyReader, Genesis, WeekData};
use webvuln::telemetry::Telemetry;
use webvuln::watch::{write_genesis_file, write_week_file, WatchConfig, Watcher};
use webvuln::webgen::Timeline;

const SEED: u64 = 911;
const THREADS: usize = 2;
const SHARDS: usize = 4;
const DOMAIN_POINTS: [usize; 2] = [1_000, 10_000];
const WEEK_POINTS: [usize; 4] = [4, 8, 16, 32];
const SMOKE_DOMAINS: usize = 1_000;
/// The gated history span: tick-vs-refold is asserted at this depth.
const GATE_WEEKS: usize = 32;
/// A refold must cost at least this many incremental ticks.
const GATE_FACTOR: f64 = 5.0;

/// The retro-scan driver: claims every jquery version the corpus can
/// contain, so the scan is guaranteed matches (and thus alert traffic).
const DELTA: &str = "\
# webvuln cve delta v1
id: CVE-2099-9999
library: jquery
claimed: < 9.0.0
attack: xss
disclosed: 2022-01-01
";

/// A second batch for the degraded point — a new file with a new id,
/// so it retro-scans independently of the first.
const DELTA_DEGRADED: &str = "\
# webvuln cve delta v1
id: SNYK-TEST-0001
library: underscore
claimed: < 9.0.0
attack: arbitrary-code-injection
disclosed: 2021-06-01
";

/// One hostile-fault pipeline run at the widest span, split back into
/// genesis + per-week payloads; shorter histories replay a prefix.
struct Corpus {
    genesis: Genesis,
    weeks: Vec<WeekData>,
}

fn build_corpus(domains: usize) -> Corpus {
    let store = std::env::temp_dir().join(format!(
        "webvuln-watchbench-corpus-{domains}-{}.wvstore",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store);
    Pipeline::new(StudyConfig {
        seed: SEED,
        domain_count: domains,
        timeline: Timeline::truncated(GATE_WEEKS),
        faults: FaultPlan::hostile(SEED),
        carry_forward: true,
        ..StudyConfig::default()
    })
    .checkpoint(&store)
    .streaming(true)
    .run()
    .expect("corpus pipeline run");
    let reader = AnyReader::open(&store).expect("open corpus store");
    let genesis = reader.genesis().clone();
    let weeks = (0..reader.weeks_committed())
        .map(|w| reader.week(w).expect("corpus week"))
        .collect();
    let _ = std::fs::remove_file(&store);
    Corpus { genesis, weeks }
}

struct Point {
    domains: usize,
    weeks: usize,
    first_tick_ms: f64,
    last_tick_ms: f64,
    mean_tick_ms: f64,
    mean_settle_ms: f64,
    settle_refolds: usize,
    refold_ms: f64,
    refold_over_tick: f64,
    retro_ms: f64,
    alerts: usize,
}

struct DegradedPoint {
    domains: usize,
    weeks: usize,
    retro_ms: f64,
    alerts: usize,
    coverage: String,
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1e6
}

fn land_delta(root: &Path, name: &str, body: &str) {
    let deltas = root.join("deltas");
    std::fs::create_dir_all(&deltas).expect("create deltas dir");
    std::fs::write(deltas.join(name), body).expect("write delta");
}

/// Replays `weeks` corpus weeks one tick at a time, then times a cold
/// refold and the retro-scan tick. Returns the point and the live
/// watcher + root for follow-on (degraded) measurements.
fn measure(corpus: &Corpus, domains: usize, weeks: usize) -> (Point, Watcher, PathBuf) {
    let root = std::env::temp_dir().join(format!(
        "webvuln-watchbench-{domains}-{weeks}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let spool = root.join("spool");
    std::fs::create_dir_all(&spool).expect("create spool");
    write_genesis_file(&spool, &corpus.genesis).expect("write genesis");

    let telemetry = Telemetry::new();
    let cfg = WatchConfig::new(&root).threads(THREADS).shards(SHARDS);
    let mut watcher = Watcher::open(cfg, &telemetry).expect("open watcher");

    // One arriving week per tick, with a quiet tick between arrivals:
    // the daemon's steady-state shape. The quiet tick settles verdict
    // drift, so each arrival absorbs under a current filter.
    let mut tick_ms = Vec::with_capacity(weeks);
    let mut settle_ms = Vec::with_capacity(weeks);
    let mut settle_refolds = 0;
    for week in &corpus.weeks[..weeks] {
        write_week_file(&spool, week).expect("spool week");
        let start = Instant::now();
        let report = watcher.tick().expect("arrival tick");
        tick_ms.push(ms(start));
        assert_eq!(report.weeks_ingested, 1, "each arrival ingests one week");
        assert_eq!(report.refolds, 0, "arrival ticks must not refold");
        let start = Instant::now();
        let report = watcher.tick().expect("settle tick");
        settle_ms.push(ms(start));
        settle_refolds += report.refolds;
    }
    assert_eq!(watcher.weeks_committed(), weeks);

    // The alternative the incremental absorb replaces: refold the whole
    // committed history from the store.
    let start = Instant::now();
    let reader = AnyReader::open_degraded(&root.join("store")).expect("open store");
    let cold = fold_study(&reader, watcher.db(), THREADS).expect("cold refold");
    let refold_ms = ms(start);
    drop(cold);
    drop(reader);

    // Retro-scan: land the delta batch and time the tick that applies
    // it — scan every committed week, enqueue and deliver the alerts.
    land_delta(&root, "2026-08-batch.cvedelta", DELTA);
    let start = Instant::now();
    let report = watcher.tick().expect("retro tick");
    let retro_ms = ms(start);
    assert_eq!(report.deltas_applied, 1, "the delta batch must apply");
    assert!(
        report.alerts_enqueued > 0,
        "the retro-scan must find exposure"
    );
    assert_eq!(report.alerts_delivered, report.alerts_enqueued);

    let last_tick_ms = *tick_ms.last().expect("at least one tick");
    let point = Point {
        domains,
        weeks,
        first_tick_ms: tick_ms[0],
        last_tick_ms,
        mean_tick_ms: tick_ms.iter().sum::<f64>() / tick_ms.len() as f64,
        mean_settle_ms: settle_ms.iter().sum::<f64>() / settle_ms.len() as f64,
        settle_refolds,
        refold_ms,
        refold_over_tick: refold_ms / last_tick_ms,
        retro_ms,
        alerts: report.alerts_enqueued,
    };
    (point, watcher, root)
}

/// Deletes one shard under the live watcher, lands a fresh delta batch,
/// and times the degraded retro-scan — it must complete and annotate.
fn measure_degraded(watcher: &mut Watcher, root: &Path, point: &Point) -> DegradedPoint {
    std::fs::remove_file(root.join("store").join(shard_file_name(1))).expect("quarantine shard 1");
    land_delta(root, "2026-09-batch.cvedelta", DELTA_DEGRADED);
    let start = Instant::now();
    let report = watcher.tick().expect("degraded retro tick");
    let retro_ms = ms(start);
    assert_eq!(
        report.deltas_applied, 1,
        "degraded retro-scan must complete"
    );
    let log = std::fs::read_to_string(root.join("alerts.log")).expect("alert log");
    let coverage = log
        .lines()
        .rev()
        .find_map(|line| line.split(" coverage ").nth(1))
        .unwrap_or("?/?")
        .to_string();
    assert_eq!(
        coverage,
        format!("{}/{SHARDS}", SHARDS - 1),
        "alerts must carry the reduced coverage"
    );
    DegradedPoint {
        domains: point.domains,
        weeks: point.weeks,
        retro_ms,
        alerts: report.alerts_enqueued,
        coverage,
    }
}

fn assert_gate(point: &Point) {
    assert!(
        point.refold_over_tick >= GATE_FACTOR,
        "incremental gate: at {} domains x {} weeks a refold ({:.1} ms) is only \
         {:.1}x an incremental tick ({:.1} ms); need >= {GATE_FACTOR}x",
        point.domains,
        point.weeks,
        point.refold_ms,
        point.refold_over_tick,
        point.last_tick_ms,
    );
}

/// CI smoke: the 1k-domain gate points only, no sweep, no JSON.
fn run_smoke() {
    let corpus = build_corpus(SMOKE_DOMAINS);
    let (wide, mut watcher, root) = measure(&corpus, SMOKE_DOMAINS, GATE_WEEKS);
    assert_gate(&wide);
    let degraded = measure_degraded(&mut watcher, &root, &wide);
    println!(
        "watch smoke PASS: {} domains x {} weeks: arrival tick {:.1} ms, refold {:.1} ms \
         ({:.1}x, gate {GATE_FACTOR}x); {} settle refolds, mean settle {:.1} ms; \
         retro {:.1} ms ({} alerts); degraded retro {:.1} ms coverage {}",
        wide.domains,
        wide.weeks,
        wide.last_tick_ms,
        wide.refold_ms,
        wide.refold_over_tick,
        wide.settle_refolds,
        wide.mean_settle_ms,
        wide.retro_ms,
        wide.alerts,
        degraded.retro_ms,
        degraded.coverage,
    );
    drop(watcher);
    let _ = std::fs::remove_dir_all(&root);
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        run_smoke();
        return;
    }

    let mut points: Vec<Point> = Vec::new();
    let mut degraded: Option<DegradedPoint> = None;
    for domains in DOMAIN_POINTS {
        let corpus = build_corpus(domains);
        for weeks in WEEK_POINTS {
            let (point, mut watcher, root) = measure(&corpus, domains, weeks);
            // The degraded point rides on the deepest configuration.
            if domains == DOMAIN_POINTS[DOMAIN_POINTS.len() - 1] && weeks == GATE_WEEKS {
                degraded = Some(measure_degraded(&mut watcher, &root, &point));
            }
            if weeks == GATE_WEEKS {
                assert_gate(&point);
            }
            drop(watcher);
            let _ = std::fs::remove_dir_all(&root);
            points.push(point);
        }
    }
    let degraded = degraded.expect("degraded point");

    println!("{{");
    println!("  \"bench\": \"watch_live_ingest\",");
    println!(
        "  \"workload\": \"one spool week per tick through the sharded writer \
         ({SHARDS} shards, {THREADS} ingest threads), live accumulator absorb, \
         CVE-delta retro-scan with exactly-once alert delivery\","
    );
    println!(
        "  \"host_cpus\": {},",
        std::thread::available_parallelism().expect("cpus")
    );
    println!("  \"ingest_points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        println!(
            "    {{ \"domains\": {}, \"weeks\": {}, \"first_tick_ms\": {:.2}, \
             \"last_tick_ms\": {:.2}, \"mean_tick_ms\": {:.2}, \"mean_settle_ms\": {:.2}, \
             \"settle_refolds\": {}, \"refold_ms\": {:.2}, \
             \"refold_over_tick\": {:.1} }}{comma}",
            p.domains,
            p.weeks,
            p.first_tick_ms,
            p.last_tick_ms,
            p.mean_tick_ms,
            p.mean_settle_ms,
            p.settle_refolds,
            p.refold_ms,
            p.refold_over_tick
        );
    }
    println!("  ],");
    println!("  \"retro_points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        println!(
            "    {{ \"domains\": {}, \"weeks\": {}, \"retro_ms\": {:.2}, \
             \"alerts\": {} }}{comma}",
            p.domains, p.weeks, p.retro_ms, p.alerts
        );
    }
    println!("  ],");
    println!(
        "  \"degraded_retro\": {{ \"domains\": {}, \"weeks\": {}, \"retro_ms\": {:.2}, \
         \"alerts\": {}, \"coverage\": \"{}\" }},",
        degraded.domains, degraded.weeks, degraded.retro_ms, degraded.alerts, degraded.coverage
    );
    let gates: Vec<&Point> = points.iter().filter(|p| p.weeks == GATE_WEEKS).collect();
    println!(
        "  \"incremental_gate\": {{ \"weeks\": {GATE_WEEKS}, \"min_refold_over_tick\": \
         {GATE_FACTOR}, \"measured\": ["
    );
    for (i, p) in gates.iter().enumerate() {
        let comma = if i + 1 < gates.len() { "," } else { "" };
        println!(
            "    {{ \"domains\": {}, \"refold_over_tick\": {:.1} }}{comma}",
            p.domains, p.refold_over_tick
        );
    }
    println!("  ] }}");
    println!("}}");
}
