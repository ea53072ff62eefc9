//! The `webvuln` command-line interface.
//!
//! ```text
//! webvuln study   [--domains N] [--weeks N] [--seed N] [--threads N] [--csv DIR]
//!                 [--retries N] [--fault-profile none|realistic|hostile]
//!                 [--carry-forward] [--store PATH [--resume] [--shards N]]
//!                 [--progress] [--max-task-failures N] [--telemetry [FILE]]
//!                 [--trace FILE]
//! webvuln validate [REPORT_ID]
//! webvuln crawl   [--domains N] [--week N] [--retries N] [--threads N]
//!                 [--fault-profile none|realistic|hostile] [--tcp] [--telemetry]
//! webvuln inspect <FILE.html> [--domain HOST]
//! webvuln store   info|verify|export-json|scrub <PATH> [--repair]
//! webvuln serve   --store PATH [--threads N] [--port P] [--cache N]
//!                 [--max-conns N] [--requests N] [--watch DIR]
//! webvuln watch   ROOT [--ticks N] [--threads N] [--shards N]
//!                 [--pause-ms N] [--stall-ms N] [--restarts N] [--telemetry]
//! ```

use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use webvuln::core::{
    full_report, series_to_csv, telemetry_json, Pipeline, StudyConfig, Telemetry, TraceMode,
};
use webvuln::cvedb::{Accuracy, Basis, VulnDb};
use webvuln::fingerprint::Engine;
use webvuln::net::{
    BreakerConfig, CrawlOptions, FaultPlan, RetryPolicy, ServeConfig, Server, TcpConnector,
    VirtualClock, VirtualNet,
};
use webvuln::poclab::Lab;
use webvuln::webgen::{Ecosystem, EcosystemConfig, Timeline};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    match command {
        "study" => cmd_study(&args[1..]),
        "validate" => cmd_validate(&args[1..]),
        "crawl" => cmd_crawl(&args[1..]),
        "inspect" => cmd_inspect(&args[1..]),
        "store" => cmd_store(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "watch" => cmd_watch(&args[1..]),
        "help" | "--help" | "-h" => print_help(),
        other => {
            eprintln!("unknown command: {other}\n");
            print_help();
            std::process::exit(2);
        }
    }
}

fn print_help() {
    println!(
        "webvuln — longitudinal measurement toolkit for vulnerable client-side resources

USAGE:
  webvuln study    [--domains N] [--weeks N] [--seed N] [--threads N] [--csv DIR]
                   [--retries N] [--fault-profile none|realistic|hostile]
                   [--carry-forward] [--store PATH [--resume] [--shards N]]
                   [--progress] [--max-task-failures N] [--telemetry [FILE]]
                   [--trace FILE]
                   run the full study and print every table/figure
  webvuln validate [REPORT_ID]
                   run the §6.4 version-validation experiment
  webvuln crawl    [--domains N] [--week N] [--retries N] [--threads N]
                   [--fault-profile none|realistic|hostile] [--tcp] [--telemetry]
                   crawl one snapshot week and summarize detections
  webvuln inspect  FILE.html [--domain HOST]
                   fingerprint a single HTML file and list vulnerabilities
  webvuln store    info PATH         describe a snapshot store
                   verify PATH       exhaustively decode + CRC-check a store
                   export-json PATH [OUT.json]
                                     convert a finalized store to Dataset JSON
                   scrub PATH [--repair]
                                     full CRC walk of every shard; with
                                     --repair, heal torn tails, rebuild
                                     corrupt shards from their quarantined
                                     copies, and roll the group back to the
                                     last consistent epoch. Exit codes:
                                     0 clean, 3 healed, 4 quarantined
  webvuln serve    --store PATH [--threads N] [--port P] [--cache N]
                   [--max-conns N] [--requests N] [--watch DIR]
                   serve JSON queries over a snapshot store:
                     GET /healthz
                     GET /domain/HOST/history
                     GET /library/SLUG/prevalence
                     GET /week/W/landscape
                     GET /cve/ID/exposure
                     GET /alerts          (with --watch DIR)
                   --port 0 picks a free port (printed on stdout);
                   --requests N drains gracefully after N requests
                   (0 = run until killed) and prints serve.* metrics;
                   --watch DIR attaches a watch root: /alerts serves its
                   outbox and /healthz reports its ingestion state
  webvuln watch    ROOT [--ticks N] [--threads N] [--shards N]
                   [--pause-ms N] [--stall-ms N] [--restarts N] [--telemetry]
                   run the supervised live-ingestion daemon over ROOT:
                   commits spool weeks (ROOT/spool/week-NNNNN.wvweek)
                   into ROOT/store through the sharded writer, absorbs
                   each week into the live accumulators incrementally,
                   retro-scans history when a CVE delta lands in
                   ROOT/deltas/*.cvedelta, and delivers per-domain
                   exposure alerts to ROOT/alerts.log through the
                   crash-journaled outbox (ROOT/outbox.wal). A crash at
                   any point is recovered on restart with no lost and no
                   duplicated alerts. --ticks N stops after N ticks
                   (0 = run until killed); --restarts N is the budget of
                   consecutive faults before giving up

FLAGS:
  --threads N        worker threads for the crawl and fingerprint pools
                     (0 = one per CPU core); results are byte-identical
                     for every thread count
  --retries N        retry failed fetches up to N times with exponential
                     backoff and per-host circuit breakers
  --fault-profile P  injected network faults: none, realistic (default),
                     or hostile (transient refusals, stalls, 5xx bursts)
  --carry-forward    when a domain stays down for a whole week, reuse its
                     last usable snapshot (flagged carried_forward)
  --progress         report per-week progress on stderr
  --store PATH       commit each crawled week to a binary snapshot store
                     file (without it the store is kept in memory)
  --resume           with --store: restore committed weeks instead of
                     recrawling them (tolerates a torn tail after a crash)
  --shards N         with --store: split the store into N shard files
                     keyed by domain hash, committed in parallel and
                     published atomically per week by a manifest rename;
                     results are byte-identical for every shard count
  --max-task-failures N
                     run crawl/fingerprint tasks under supervision: a
                     panicking or over-deadline task quarantines its
                     domain instead of aborting; the study fails only
                     after more than N tasks have been quarantined
  --telemetry [FILE] print the metrics snapshot as JSON on stderr, or
                     write it to FILE when one is given
  --trace FILE       record a causal trace of the run and write it to
                     FILE as Chrome trace-event JSON (load in Perfetto
                     or chrome://tracing); appends a \"Top cost centers\"
                     section to the report. The trace is canonical:
                     byte-identical for every --threads value"
    );
}

/// The value of `--name` as a `T`, `None` when the flag is absent. A flag
/// with no value — last on the line, or followed by another `--flag` — or
/// with a value `T` cannot parse exits with status 2, naming the flag.
fn flag<T: FromStr>(args: &[String], name: &str) -> Option<T> {
    parse_flag(args, name).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    })
}

fn parse_flag<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = args.get(i + 1).filter(|v| !v.starts_with("--"));
    let value = value.ok_or_else(|| format!("{name} needs a value"))?;
    let invalid = |_| format!("{name}: invalid number {value:?}");
    value.parse().map(Some).map_err(invalid)
}

/// `--telemetry` takes an optional FILE operand: `None` = flag absent,
/// `Some(None)` = print to stderr, `Some(Some(path))` = write to `path`.
fn telemetry_flag(args: &[String]) -> Option<Option<String>> {
    let i = args.iter().position(|a| a == "--telemetry")?;
    Some(args.get(i + 1).filter(|v| !v.starts_with("--")).cloned())
}

/// Resolves `--fault-profile` (default `realistic`) against `seed`.
fn fault_profile_flag(args: &[String], seed: u64) -> FaultPlan {
    match flag::<String>(args, "--fault-profile")
        .as_deref()
        .unwrap_or("realistic")
    {
        "none" => FaultPlan::none(),
        "realistic" => FaultPlan::realistic(seed),
        "hostile" => FaultPlan::hostile(seed),
        other => {
            eprintln!("unknown fault profile: {other} (use none|realistic|hostile)");
            std::process::exit(2);
        }
    }
}

fn cmd_study(args: &[String]) {
    let domains = flag(args, "--domains").unwrap_or(2_000);
    let weeks = flag(args, "--weeks").unwrap_or(201);
    let seed = flag(args, "--seed").unwrap_or(42);
    let retries = flag(args, "--retries").unwrap_or(0);
    let threads = flag(args, "--threads").unwrap_or(StudyConfig::default().concurrency);
    let config = StudyConfig {
        seed,
        domain_count: domains,
        timeline: Timeline::truncated(weeks),
        concurrency: threads,
        faults: fault_profile_flag(args, seed),
        retry: if retries > 0 {
            RetryPolicy::standard(retries)
        } else {
            RetryPolicy::none()
        },
        breaker: (retries > 0).then(BreakerConfig::default),
        carry_forward: args.iter().any(|a| a == "--carry-forward"),
        ..StudyConfig::default()
    };
    let mut telemetry = Telemetry::new();
    if args.iter().any(|a| a == "--progress") {
        telemetry = telemetry.with_stderr_progress();
    }
    let trace_out: Option<String> = flag(args, "--trace");
    if trace_out.is_some() {
        telemetry = telemetry.with_trace(TraceMode::Full);
    }
    eprintln!("study: {domains} domains x {weeks} weeks (seed {seed})");
    let mut pipeline = Pipeline::new(config).telemetry(&telemetry);
    if let Some(budget) = flag(args, "--max-task-failures") {
        pipeline = pipeline.max_task_failures(budget);
    }
    let store: Option<PathBuf> = flag(args, "--store");
    if let Some(path) = &store {
        pipeline = pipeline
            .checkpoint(path)
            .resume(args.iter().any(|a| a == "--resume"))
            .shards(flag(args, "--shards").unwrap_or(1));
    }
    let results = match pipeline.run() {
        Ok(results) => {
            if let Some(path) = &store {
                eprintln!("snapshot store committed to {}", path.display());
            }
            results
        }
        Err(e) => {
            eprintln!("snapshot store error: {e}");
            std::process::exit(1);
        }
    };
    {
        let snap = &results.telemetry;
        let counter = |name: &str| snap.counter(name).unwrap_or(0);
        eprintln!(
            "crawl resilience: {} retries, {} recovered after retry, \
             {} breaker-skipped, {} carried forward",
            counter("net.retries_total"),
            counter("net.retry_success_total"),
            counter("net.breaker_open_total"),
            counter("net.carry_forward_total"),
        );
    }
    if let (Some(path), Some(trace)) = (&trace_out, &results.trace) {
        match std::fs::write(path, trace.to_chrome_json()) {
            Ok(()) => eprintln!("trace written to {path} (open in Perfetto or chrome://tracing)"),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
    if let Some(dest) = telemetry_flag(args) {
        let json = telemetry_json(&results);
        match dest {
            Some(path) => match std::fs::write(&path, &json) {
                Ok(()) => eprintln!("telemetry written to {path}"),
                Err(e) => eprintln!("cannot write {path}: {e}"),
            },
            None => eprintln!("{json}"),
        }
    }
    // Write artifacts before printing: a closed stdout (e.g. `| head`)
    // must not abort the CSV export.
    if let Some(dir) = flag::<PathBuf>(args, "--csv") {
        if std::fs::create_dir_all(&dir).is_ok() {
            let _ = std::fs::write(
                dir.join("fig2a_collection.csv"),
                series_to_csv(
                    "collected",
                    results.collection.points.iter().map(|&(d, c)| (d, c)),
                ),
            );
            let _ = std::fs::write(
                dir.join("fig9_wordpress.csv"),
                series_to_csv(
                    "wordpress",
                    results.wordpress.points.iter().map(|&(d, _, w)| (d, w)),
                ),
            );
            eprintln!("CSV series written to {}", dir.display());
        }
    }
    println!("{}", full_report(&results));
}

fn cmd_validate(args: &[String]) {
    let lab = Lab::new();
    match args.first() {
        Some(id) if !id.starts_with("--") => match lab.validate(id) {
            Some(report) => {
                println!(
                    "{}: swept {} environments; {} vulnerable; accuracy: {}",
                    report.id,
                    report.environments(),
                    report.vulnerable.len(),
                    report.accuracy
                );
                if !report.understated.is_empty() {
                    println!(
                        "  understated versions: {}",
                        report
                            .understated
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                }
                if !report.overstated.is_empty() {
                    println!(
                        "  overstated versions: {}",
                        report
                            .overstated
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                }
            }
            None => {
                eprintln!("unknown report id: {id}");
                std::process::exit(1);
            }
        },
        _ => {
            let reports = lab.validate_all();
            let incorrect = reports
                .iter()
                .filter(|r| r.accuracy != Accuracy::Accurate)
                .count();
            for report in &reports {
                println!(
                    "{:<26} {:<14} {:>3} envs  {}",
                    report.id,
                    report.library.name(),
                    report.environments(),
                    report.accuracy
                );
            }
            println!(
                "\n{incorrect} of {} reports state incorrect versions",
                reports.len()
            );
        }
    }
}

fn cmd_crawl(args: &[String]) {
    let domains = flag(args, "--domains").unwrap_or(500);
    let week = flag(args, "--week").unwrap_or(100);
    let retries = flag(args, "--retries").unwrap_or(0);
    let use_tcp = args.iter().any(|a| a == "--tcp");
    let telemetry = Telemetry::new();
    let registry = telemetry.registry();
    let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
        seed: 42,
        domain_count: domains,
        timeline: Timeline::paper(),
    }));
    let names = eco.domain_names();
    let snapshot = if use_tcp {
        let threads = flag(args, "--threads").unwrap_or(16);
        // One pool worker per crawl thread, so no fetch waits in the queue.
        let config = ServeConfig::for_crawl(threads);
        let mut server =
            Server::start(Arc::new(eco.handler(week)), config, registry).expect("bind");
        eprintln!("crawling over TCP via {}", server.addr());
        let got = CrawlOptions::new()
            .threads(threads)
            .registry(registry)
            .run(&names, &TcpConnector::fixed(server.addr()));
        server.shutdown();
        got
    } else {
        let threads = flag(args, "--threads").unwrap_or(8);
        let net = VirtualNet::new(Arc::new(eco.handler(week)))
            .with_fault_metrics(registry)
            .with_week(week)
            .with_faults(fault_profile_flag(args, 42));
        let clock = VirtualClock::new();
        CrawlOptions::new()
            .threads(threads)
            .retry(RetryPolicy::standard(retries))
            .clock(&clock)
            .registry(registry)
            .run(&names, &net)
    };
    let recovered = snapshot.values().filter(|r| r.recovered).count();
    if recovered > 0 {
        eprintln!("{recovered} domains recovered after retry");
    }
    if telemetry_flag(args).is_some() {
        eprint!("{}", telemetry.snapshot().render());
    }
    let engine = Engine::new();
    let db = VulnDb::builtin();
    let usable: Vec<_> = snapshot.values().filter(|r| r.is_usable(400)).collect();
    let mut vulnerable = 0;
    for record in &usable {
        let analysis = engine.analyze(&record.body, &record.domain);
        if analysis.detections.iter().any(|d| {
            d.version
                .as_ref()
                .is_some_and(|v| db.is_vulnerable(d.library, v, Basis::CveClaimed))
        }) {
            vulnerable += 1;
        }
    }
    println!(
        "week {week}: {} domains attempted, {} usable, {} vulnerable ({:.1}%)",
        names.len(),
        usable.len(),
        vulnerable,
        100.0 * vulnerable as f64 / usable.len().max(1) as f64
    );
}

fn cmd_store(args: &[String]) {
    let usage = || -> ! {
        eprintln!("usage: webvuln store info|verify|export-json|scrub PATH [OUT.json] [--repair]");
        std::process::exit(2);
    };
    let action = args.first().map(String::as_str).unwrap_or_else(|| usage());
    let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
        usage()
    };
    let open = || {
        webvuln::store::AnyReader::open(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("cannot open {path}: {e}");
            std::process::exit(1);
        })
    };
    match action {
        "info" => {
            // Info opens tolerantly: a degraded store (a quarantined or
            // missing shard) is exactly when an operator needs this
            // output, so report per-shard health instead of refusing.
            let reader = webvuln::store::AnyReader::open_degraded(std::path::Path::new(path))
                .unwrap_or_else(|e| {
                    eprintln!("cannot open {path}: {e}");
                    std::process::exit(1);
                });
            let genesis = reader.genesis();
            println!("store:      {path}");
            println!("format:     version {}", webvuln::store::FORMAT_VERSION);
            if reader.shard_count() > 1 {
                println!("shards:     {}", reader.shard_count());
            }
            if let Some(manifest) = reader.manifest() {
                println!("epoch:      {}", manifest.epoch);
            }
            println!("domains:    {}", genesis.ranks.len());
            println!(
                "weeks:      {} committed of {} planned",
                reader.weeks_committed(),
                genesis.weeks_total
            );
            println!(
                "finalized:  {}",
                if reader.is_finalized() { "yes" } else { "no" }
            );
            if let Some(filtered) = reader.filtered_out() {
                println!(
                    "filtered:   {} domains removed by the §4.1 rule",
                    filtered.len()
                );
            }
            match reader.delta_stats() {
                Ok((hits, total)) => println!(
                    "records:    {total} total, {hits} stored as back-references ({:.1}%)",
                    100.0 * hits as f64 / total.max(1) as f64
                ),
                Err(e) if reader.is_degraded() => {
                    println!("records:    unavailable (degraded store: {e})")
                }
                Err(e) => {
                    eprintln!("cannot decode {path}: {e}");
                    std::process::exit(1);
                }
            }
            println!("data bytes: {}", reader.data_bytes());
            if reader.torn_bytes() > 0 {
                println!("torn tail:  {} bytes (recoverable)", reader.torn_bytes());
            }
            // Per-shard breakdown: week/record counts for the healthy
            // shards, the quarantine reason for the rest.
            if reader.manifest().is_some() {
                for index in 0..reader.shard_count() {
                    match reader.shard_reader(index) {
                        Some(shard) => {
                            let records = shard
                                .delta_stats()
                                .map(|(_, total)| total.to_string())
                                .unwrap_or_else(|_| "?".into());
                            println!(
                                "  shard {index}: healthy, {} weeks, {records} records, {} bytes",
                                shard.weeks_committed(),
                                shard.data_bytes()
                            );
                        }
                        None => {
                            let detail = match &reader.shard_health()[index] {
                                webvuln::store::ShardHealth::Unavailable { detail } => {
                                    detail.clone()
                                }
                                webvuln::store::ShardHealth::Healthy => "unknown".into(),
                            };
                            println!("  shard {index}: UNAVAILABLE ({detail})");
                        }
                    }
                }
            }
        }
        "verify" => {
            let reader = open();
            match reader.verify() {
                Ok(counts) => {
                    for (week, records) in counts.iter().enumerate() {
                        let date = reader
                            .week_date_days(week)
                            .map(|d| format!("day {d}"))
                            .unwrap_or_else(|_| "?".into());
                        println!("week {week:>3} ({date}): {records} records ok");
                    }
                    println!(
                        "{}: {} weeks verified, every CRC and back-reference intact",
                        path,
                        counts.len()
                    );
                }
                Err(e) => {
                    eprintln!("{path}: verification FAILED: {e}");
                    std::process::exit(1);
                }
            }
        }
        "export-json" => {
            // Streams record-by-record: peak memory is one decoded week,
            // not the whole dataset, so a paper-scale store exports flat.
            use std::io::Write;
            let reader = open();
            match args.get(2).filter(|a| !a.starts_with("--")) {
                Some(out) => {
                    let result = std::fs::File::create(out)
                        .map(std::io::BufWriter::new)
                        .and_then(|mut file| {
                            webvuln::analysis::store_io::export_json(&reader, &mut file)?;
                            file.flush()
                        });
                    match result {
                        Ok(()) => eprintln!("dataset written to {out}"),
                        Err(e) => {
                            eprintln!("cannot write dataset: {e}");
                            std::process::exit(1);
                        }
                    }
                }
                None => {
                    let stdout = std::io::stdout();
                    let mut lock = std::io::BufWriter::new(stdout.lock());
                    let result = webvuln::analysis::store_io::export_json(&reader, &mut lock)
                        .and_then(|()| {
                            lock.write_all(b"\n")?;
                            lock.flush()
                        });
                    if let Err(e) = result {
                        eprintln!("cannot export {path}: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
        "scrub" => {
            let repair = args.iter().any(|a| a == "--repair");
            let report =
                webvuln::store::scrub(std::path::Path::new(path), repair).unwrap_or_else(|e| {
                    eprintln!("cannot scrub {path}: {e}");
                    std::process::exit(1);
                });
            print!("{}", report.render());
            std::process::exit(match report.outcome {
                webvuln::store::ScrubOutcome::Clean => 0,
                webvuln::store::ScrubOutcome::Healed => 3,
                webvuln::store::ScrubOutcome::Quarantined => 4,
            });
        }
        _ => usage(),
    }
}

fn cmd_serve(args: &[String]) {
    let store: String = match flag(args, "--store") {
        Some(p) => p,
        None => {
            eprintln!("serve: --store FILE is required");
            std::process::exit(2);
        }
    };
    let config = webvuln::ServeConfig {
        threads: flag(args, "--threads").unwrap_or(4),
        port: flag(args, "--port").unwrap_or(0),
        cache_capacity: flag(args, "--cache").unwrap_or(256),
        max_connections: flag(args, "--max-conns").unwrap_or(64),
        ..webvuln::ServeConfig::default()
    };
    let request_budget: u64 = flag(args, "--requests").unwrap_or(0);

    let watch_root: Option<String> = flag(args, "--watch");
    let service = match webvuln::QueryService::open(std::path::Path::new(&store)) {
        Ok(s) => match &watch_root {
            Some(root) => Arc::new(s.with_watch_root(root)),
            None => Arc::new(s),
        },
        Err(e) => {
            eprintln!("serve: cannot open {store}: {e}");
            std::process::exit(1);
        }
    };
    if let Some(root) = &watch_root {
        eprintln!("serve: live alerting enabled from watch root {root}");
    }
    eprintln!(
        "serve: {} weeks committed, {} domains, {} worker threads",
        service.reader().weeks_committed(),
        service.reader().genesis().ranks.len(),
        config.threads
    );
    if service.reader().is_degraded() {
        for (index, health) in service.reader().shard_health().iter().enumerate() {
            if let webvuln::store::ShardHealth::Unavailable { detail } = health {
                eprintln!("serve: WARNING: shard {index} unavailable: {detail}");
            }
        }
        eprintln!(
            "serve: store is degraded — healthy shards keep serving; \
             routed queries to dead shards answer 503"
        );
    }

    let registry = webvuln::telemetry::Registry::new();
    let mut server = match webvuln::ApiServer::serve(service, config, &registry) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot bind: {e}");
            std::process::exit(1);
        }
    };
    // The smoke harness scrapes this line for the chosen port.
    println!("listening on {}", server.addr());

    // Run until the request budget is spent (`--requests 0` = forever);
    // then drain in-flight connections and report the serve.* counters.
    loop {
        std::thread::sleep(std::time::Duration::from_millis(200));
        if request_budget > 0 {
            let served = registry
                .snapshot()
                .counter("serve.requests_total")
                .unwrap_or(0);
            if served >= request_budget {
                break;
            }
        }
    }
    server.shutdown();
    let snap = registry.snapshot();
    for key in [
        "serve.requests_total",
        "serve.responses_2xx_total",
        "serve.responses_4xx_total",
        "serve.responses_5xx_total",
        "serve.cache_hits_total",
        "serve.cache_misses_total",
        "serve.connections_total",
    ] {
        eprintln!("{key} = {}", snap.counter(key).unwrap_or(0));
    }
}

fn cmd_watch(args: &[String]) {
    let Some(root) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!(
            "usage: webvuln watch ROOT [--ticks N] [--threads N] [--shards N] \
             [--pause-ms N] [--stall-ms N] [--restarts N] [--telemetry]"
        );
        std::process::exit(2);
    };
    let watch_cfg = webvuln::WatchConfig::new(root)
        .threads(flag(args, "--threads").unwrap_or(2))
        .shards(flag(args, "--shards").unwrap_or(4));
    // --ticks 0 means run until killed; the supervisor itself has no
    // notion of "forever", so model it as a practically-infinite budget.
    let ticks = match flag(args, "--ticks").unwrap_or(0) {
        0 => usize::MAX,
        n => n,
    };
    let restarts = flag(args, "--restarts").unwrap_or(4);
    let mut sup_cfg = webvuln::SupervisorConfig::bounded(ticks)
        .policy(webvuln::resilience::RetryPolicy::standard(restarts))
        .tick_pause(std::time::Duration::from_millis(
            flag(args, "--pause-ms").unwrap_or(200),
        ));
    if let Some(stall_ms) = flag(args, "--stall-ms") {
        sup_cfg = sup_cfg.stall_limit(std::time::Duration::from_millis(stall_ms));
    }

    let telemetry = webvuln::telemetry::Telemetry::new();
    let report = webvuln::watch::supervise(&watch_cfg, sup_cfg, &telemetry);

    println!("watch root: {root}");
    println!(
        "ticks:      {} ({} weeks ingested, {} skipped, {} refolds of {} buckets)",
        report.ticks,
        report.totals.weeks_ingested,
        report.totals.weeks_skipped,
        report.totals.refolds,
        report.totals.buckets_refolded
    );
    println!(
        "deltas:     {} applied ({} alerts enqueued, {} deduped)",
        report.totals.deltas_applied, report.totals.alerts_enqueued, report.totals.alerts_deduped
    );
    println!(
        "delivered:  {} alerts ({} redelivered after replay)",
        report.totals.alerts_delivered, report.totals.alerts_redelivered
    );
    println!(
        "faults:     {} restarts, {} stalls flagged, {} ns virtual backoff",
        report.restarts, report.stalls, report.backoff_ns
    );
    if let Some(err) = &report.last_error {
        eprintln!("last error: {err}");
    }
    if telemetry_flag(args).is_some() {
        let snap = telemetry.registry_arc().snapshot();
        for (key, value) in &snap.counters {
            if key.starts_with("watch.") {
                eprintln!("{key} = {value}");
            }
        }
    }
    if report.gave_up {
        eprintln!("watch: restart budget exhausted; giving up");
        std::process::exit(1);
    }
}

fn cmd_inspect(args: &[String]) {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: webvuln inspect FILE.html [--domain HOST]");
        std::process::exit(2);
    };
    let domain: String = flag(args, "--domain").unwrap_or_else(|| "example.com".to_string());
    let html = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let engine = Engine::new();
    let db = VulnDb::builtin();
    let analysis = engine.analyze(&html, &domain);
    if analysis.detections.is_empty() {
        println!("no known libraries detected");
    }
    for det in &analysis.detections {
        let version = det
            .version
            .as_ref()
            .map(ToString::to_string)
            .unwrap_or_else(|| "unknown version".into());
        println!("{} {version} ({:?})", det.library.name(), det.inclusion);
        if let Some(v) = &det.version {
            for basis in [Basis::CveClaimed, Basis::TrueVulnerable] {
                for record in db.affecting(det.library, v, basis) {
                    let tag = match basis {
                        Basis::CveClaimed => "claimed",
                        Basis::TrueVulnerable => "true",
                    };
                    println!("  [{tag}] {} ({})", record.id, record.attack);
                }
            }
        }
    }
    if let Some(wp) = &analysis.wordpress {
        println!(
            "WordPress: {}",
            wp.as_ref()
                .map(ToString::to_string)
                .unwrap_or_else(|| "version unknown".into())
        );
    }
    for flash in &analysis.flash {
        println!(
            "Flash: {} (AllowScriptAccess: {})",
            flash.swf_url,
            flash.allow_script_access.as_deref().unwrap_or("unset")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::parse_flag;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn numeric_flags_parse_or_name_themselves() {
        let line = args("--domains 300 --port 8080");
        assert_eq!(parse_flag::<usize>(&line, "--domains"), Ok(Some(300)));
        assert_eq!(parse_flag::<u16>(&line, "--port"), Ok(Some(8080)));
        assert_eq!(parse_flag::<usize>(&line, "--weeks"), Ok(None));
        for (line, name) in [
            ("--domains 2k", "--domains"),
            ("--shards four", "--shards"),
            ("--max-task-failures x", "--max-task-failures"),
            ("--port 70000", "--port"),
            ("--seed -5", "--seed"),
        ] {
            let err = parse_flag::<u16>(&args(line), name).expect_err(line);
            assert!(err.starts_with(name), "{line}: {err}");
        }
    }

    #[test]
    fn a_flag_never_takes_the_next_flag_as_its_value() {
        let line = args("study --store --resume");
        assert_eq!(
            parse_flag::<String>(&line, "--store"),
            Err("--store needs a value".to_string())
        );
        let line = args("study --threads");
        assert_eq!(
            parse_flag::<usize>(&line, "--threads"),
            Err("--threads needs a value".to_string())
        );
        let line = args("study --store s.wvstore --resume");
        assert_eq!(
            parse_flag::<String>(&line, "--store"),
            Ok(Some("s.wvstore".to_string()))
        );
    }
}
