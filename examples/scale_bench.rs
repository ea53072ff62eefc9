//! Measures end-to-end pipeline throughput and peak memory at paper
//! scale: the collect→analyze→report path run against a checkpoint
//! store, swept along three axes —
//!
//! - **shards**: 10k domains × 4 weeks committed to 1/4/16 shards
//!   (one store writer per shard on the exec pool);
//! - **domains**: 1k/10k/100k domains, streaming vs materialized —
//!   both axes carry O(domains) state (the ecosystem, one in-flight
//!   week, the per-site accumulator maps), so this sweep reports the
//!   absolute cost of scale rather than gating on it;
//! - **weeks**: 10k domains × 4/16/32 weeks, streaming vs
//!   materialized. This is the longitudinal axis the paper scales on
//!   (201 weekly snapshots), and the one the streaming redesign makes
//!   flat: peak RSS holds one in-flight week plus the accumulators,
//!   independent of how many weeks the study spans.
//!
//! The flat-RSS gate asserted here: streaming peak RSS at 16 weeks is
//! within 1.25× of 4 weeks (4× the data; ~1.07× measured), and the
//! streaming path keeps undercutting the materialized one out to the
//! widest span (32 weeks: ~0.2× of materialized, which grows ~4.4×).
//! The residual streaming growth along the week axis is the committed
//! store file the fold streams back, not retained snapshots.
//!
//! Each configuration runs in a child process (re-exec of this binary)
//! because peak RSS — `VmHWM` in `/proc/self/status` — is a per-process
//! high-water mark: measuring several configurations in one process
//! would report the maximum of them all for each.
//!
//! Run: `cargo run --release --example scale_bench`. Output is the
//! `BENCH_scale.json` document on stdout; the
//! `domains_per_sec` figure counts domain-week snapshots collected,
//! committed, and analyzed per wall-clock second. `--smoke` runs the
//! CI-sized subset (10k domains, 4 vs 16 weeks) and asserts the gate.

use std::time::Instant;
use webvuln::core::{Pipeline, StudyConfig};
use webvuln::webgen::Timeline;

const SEED: u64 = 907;
const THREADS: usize = 8;
const SHARD_POINTS: [usize; 3] = [1, 4, 16];
const DOMAIN_POINTS: [usize; 3] = [1_000, 10_000, 100_000];
const WEEK_POINTS: [usize; 3] = [4, 16, 32];
const BASE_DOMAINS: usize = 10_000;
const BASE_WEEKS: usize = 4;
/// The gated span: streaming RSS at this many weeks vs `BASE_WEEKS`.
const GATE_WEEKS: usize = 16;
/// Streaming peak RSS may grow at most this much across the gated span.
const FLAT_RSS_LIMIT: f64 = 1.25;

/// Peak resident set size of this process so far, in kilobytes, from
/// `/proc/self/status` (Linux only; 0 where the file is absent).
fn peak_rss_kb() -> u64 {
    let status = match std::fs::read_to_string("/proc/self/status") {
        Ok(s) => s,
        Err(_) => return 0,
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// Child mode: one configuration, machine-readable result on stdout.
fn run_one(
    shards: usize,
    domains: usize,
    weeks: usize,
    streaming: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!(
        "webvuln-scale-{shards}-{domains}-{weeks}-{streaming}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&dir);

    let config = StudyConfig {
        seed: SEED,
        domain_count: domains,
        timeline: Timeline::truncated(weeks),
        concurrency: THREADS,
        ..StudyConfig::default()
    };
    let start = Instant::now();
    let results = Pipeline::new(config)
        .shards(shards)
        .checkpoint(&dir)
        .streaming(streaming)
        .run()?;
    let elapsed = start.elapsed();

    assert_eq!(results.collection.points.len(), weeks);
    let store_bytes: u64 = if dir.is_dir() {
        std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len())
            .sum()
    } else {
        std::fs::metadata(&dir)?.len()
    };
    println!(
        "shards={shards} domains={domains} weeks={weeks} streaming={} \
         elapsed_ns={} peak_rss_kb={} store_bytes={store_bytes}",
        streaming as u8,
        elapsed.as_nanos(),
        peak_rss_kb()
    );
    if dir.is_dir() {
        std::fs::remove_dir_all(&dir)?;
    } else {
        std::fs::remove_file(&dir)?;
    }
    Ok(())
}

/// Parses one `key=value` field out of a child's report line.
fn field(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("child line missing {key}: {line}"))
}

struct Point {
    shards: usize,
    domains: usize,
    weeks: usize,
    streaming: bool,
    domains_per_sec: f64,
    peak_rss_mb: f64,
    store_bytes: u64,
}

/// Runs one configuration in a child process and parses its report.
fn measure(
    shards: usize,
    domains: usize,
    weeks: usize,
    streaming: bool,
) -> Result<Point, Box<dyn std::error::Error>> {
    let exe = std::env::current_exe()?;
    let out = std::process::Command::new(&exe)
        .args([
            "--one",
            &shards.to_string(),
            &domains.to_string(),
            &weeks.to_string(),
            if streaming { "stream" } else { "batch" },
        ])
        .output()?;
    if !out.status.success() {
        return Err(format!(
            "child for shards={shards} domains={domains} weeks={weeks} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        )
        .into());
    }
    let line = String::from_utf8(out.stdout)?;
    let elapsed_ns = field(&line, "elapsed_ns");
    let snapshots = (domains * weeks) as f64;
    Ok(Point {
        shards,
        domains,
        weeks,
        streaming,
        domains_per_sec: snapshots / (elapsed_ns as f64 / 1e9),
        peak_rss_mb: field(&line, "peak_rss_kb") as f64 / 1024.0,
        store_bytes: field(&line, "store_bytes"),
    })
}

fn mode(p: &Point) -> &'static str {
    if p.streaming {
        "streaming"
    } else {
        "materialized"
    }
}

/// The flat-RSS gate: streaming RSS is flat along the week axis and
/// strictly below the materialized path. Returns the growth ratio.
fn assert_flat_rss(stream_base: &Point, stream_peak: &Point, batch_peak: &Point) -> f64 {
    let ratio = stream_peak.peak_rss_mb / stream_base.peak_rss_mb;
    assert!(
        ratio <= FLAT_RSS_LIMIT,
        "flat-RSS gate: streaming {} weeks used {:.1} MB, {:.2}x the {:.1} MB \
         at {} weeks (limit {FLAT_RSS_LIMIT}x)",
        stream_peak.weeks,
        stream_peak.peak_rss_mb,
        ratio,
        stream_base.peak_rss_mb,
        stream_base.weeks,
    );
    assert!(
        stream_peak.peak_rss_mb < 0.75 * batch_peak.peak_rss_mb,
        "streaming at {} weeks ({:.1} MB) should undercut materialized ({:.1} MB)",
        stream_peak.weeks,
        stream_peak.peak_rss_mb,
        batch_peak.peak_rss_mb,
    );
    ratio
}

/// CI smoke: just the gated points, no sweeps.
fn run_smoke() -> Result<(), Box<dyn std::error::Error>> {
    let base = measure(1, BASE_DOMAINS, BASE_WEEKS, true)?;
    let wide = measure(1, BASE_DOMAINS, GATE_WEEKS, true)?;
    let batch = measure(1, BASE_DOMAINS, GATE_WEEKS, false)?;
    let ratio = assert_flat_rss(&base, &wide, &batch);
    println!(
        "scale smoke PASS: streaming {}x{} weeks {:.1} MB -> {}x{} weeks {:.1} MB \
         ({ratio:.2}x, limit {FLAT_RSS_LIMIT}x); materialized at {} weeks {:.1} MB",
        BASE_DOMAINS,
        BASE_WEEKS,
        base.peak_rss_mb,
        BASE_DOMAINS,
        wide.weeks,
        wide.peak_rss_mb,
        batch.weeks,
        batch.peak_rss_mb,
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 6 && args[1] == "--one" {
        return run_one(
            args[2].parse()?,
            args[3].parse()?,
            args[4].parse()?,
            args[5] == "stream",
        );
    }
    if args.len() == 2 && args[1] == "--smoke" {
        return run_smoke();
    }

    let mut shard_points = Vec::new();
    for shards in SHARD_POINTS {
        shard_points.push(measure(shards, BASE_DOMAINS, BASE_WEEKS, true)?);
    }
    let mut domain_points = Vec::new();
    for domains in DOMAIN_POINTS {
        for streaming in [true, false] {
            domain_points.push(measure(1, domains, BASE_WEEKS, streaming)?);
        }
    }
    let mut week_points = Vec::new();
    for weeks in WEEK_POINTS {
        for streaming in [true, false] {
            week_points.push(measure(1, BASE_DOMAINS, weeks, streaming)?);
        }
    }

    let stream_week = |weeks: usize| {
        week_points
            .iter()
            .find(|p| p.weeks == weeks && p.streaming)
            .expect("week point")
    };
    let batch_week = |weeks: usize| {
        week_points
            .iter()
            .find(|p| p.weeks == weeks && !p.streaming)
            .expect("week point")
    };
    let ratio = assert_flat_rss(
        stream_week(BASE_WEEKS),
        stream_week(GATE_WEEKS),
        batch_week(GATE_WEEKS),
    );
    // At the widest span the streaming path must keep undercutting the
    // materialized one (measured ~0.2×; the fold does stream back a 4.5×
    // larger store file, so the flat gate itself stays on the 4× span).
    let last = WEEK_POINTS[WEEK_POINTS.len() - 1];
    assert!(
        stream_week(last).peak_rss_mb < 0.75 * batch_week(last).peak_rss_mb,
        "streaming at {last} weeks ({:.1} MB) should undercut materialized ({:.1} MB)",
        stream_week(last).peak_rss_mb,
        batch_week(last).peak_rss_mb,
    );

    let base = shard_points[0].domains_per_sec;
    println!("{{");
    println!("  \"bench\": \"pipeline_scale\",");
    println!(
        "  \"workload\": \"checkpointed collect+analyze pipeline, {THREADS} worker \
         threads, one store writer per shard\",",
    );
    println!(
        "  \"host_cpus\": {},",
        std::thread::available_parallelism()?
    );
    println!("  \"shard_points\": [");
    for (i, p) in shard_points.iter().enumerate() {
        let comma = if i + 1 < shard_points.len() { "," } else { "" };
        println!(
            "    {{ \"shards\": {}, \"domains\": {}, \"weeks\": {}, \
             \"domains_per_sec\": {:.1}, \"speedup\": {:.2}, \"peak_rss_mb\": {:.1}, \
             \"store_bytes\": {} }}{comma}",
            p.shards,
            p.domains,
            p.weeks,
            p.domains_per_sec,
            p.domains_per_sec / base,
            p.peak_rss_mb,
            p.store_bytes
        );
    }
    println!("  ],");
    for (name, points) in [
        ("domain_points", &domain_points),
        ("week_points", &week_points),
    ] {
        println!("  \"{name}\": [");
        for (i, p) in points.iter().enumerate() {
            let comma = if i + 1 < points.len() { "," } else { "" };
            println!(
                "    {{ \"domains\": {}, \"weeks\": {}, \"mode\": \"{}\", \
                 \"domains_per_sec\": {:.1}, \"peak_rss_mb\": {:.1}, \
                 \"store_bytes\": {} }}{comma}",
                p.domains,
                p.weeks,
                mode(p),
                p.domains_per_sec,
                p.peak_rss_mb,
                p.store_bytes
            );
        }
        println!("  ],");
    }
    println!(
        "  \"flat_rss_gate\": {{ \"axis\": \"weeks\", \"domains\": {BASE_DOMAINS}, \
         \"base_weeks\": {BASE_WEEKS}, \"peak_weeks\": {GATE_WEEKS}, \
         \"rss_growth\": {ratio:.2}, \"limit\": {FLAT_RSS_LIMIT} }}"
    );
    println!("}}");
    Ok(())
}
