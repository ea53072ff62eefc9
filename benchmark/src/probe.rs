//! The per-layer probe of a traced run: one small seeded corpus pushed
//! by hand through each layer's public functions, in pipeline order, so
//! that every layer has a time and a count of its own. It runs the same
//! way whatever the workload, so one metric name means one measurement.
//!
//! The stages mirror the pipeline: a small study (phase totals, executor
//! counters), a staged replay of one sampled week on one thread (webgen
//! → net → htmlparse → pattern/fingerprint → cvedb), the store both
//! ways, the accumulators, the query service and the watch daemon.

use crate::spans::Recorder;
use crate::sys::{median, ms_since, Outcome, Rng};
use crate::workloads::{
    pipeline, run_timed, setup, Ctx, Plan, ServeTargets, Size, Workload, DELTA, THREADS, WATCH_SHARDS,
};
use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;
use webvuln::analysis::store_io::week_to_snapshot;
use webvuln::analysis::{fold_study, genesis_ranks, AccumCtx, Accumulate, StudyAccum};
use webvuln::core::full_report;
use webvuln::cvedb::{parse_delta, Basis, VulnDb};
use webvuln::fingerprint::Engine;
use webvuln::html::{extract, tokenize, Document};
use webvuln::net::codec::{encode_response, MessageReader};
use webvuln::net::{fetch, CrawlOptions, FaultPlan, Handler, Request, RetryPolicy, VirtualClock, VirtualNet};
use webvuln::pattern::thread_vm_steps;
use webvuln::poclab::Lab;
use webvuln::serve::route;
use webvuln::store::{split_week, ShardedStoreWriter, StoreWriter, WeekData};
use webvuln::telemetry::{Registry, Telemetry};
use webvuln::watch::{read_week_file, week_file_name};
use webvuln::webgen::{Ecosystem, EcosystemConfig, PageOutcome, Timeline};
use webvuln::{AnyReader, QueryService, WatchConfig, Watcher};

/// Passes over the sampled pages per timing; the median pass is kept.
const PASSES: usize = 3;

/// Times `pass` [`PASSES`] times and returns the median in nanoseconds.
fn median_ns(mut pass: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

fn probe_ctx(ctx: &Ctx, dir: &str) -> Ctx {
    let size = ctx.plan.probe;
    Ctx {
        plan: Plan {
            study: size,
            refold: size,
            watch: size,
            serve: size,
            serve_window: ctx.plan.probe_requests / ctx.plan.serve_min_windows,
            serve_warmup: ctx.plan.probe_requests / 10,
            setup_reps: 1,
            min_units: 1,
            ..ctx.plan
        },
        seed: ctx.seed,
        seconds: 0.0,
        work: ctx.work.join(dir),
    }
}

/// Runs every stage and returns the per-layer metrics.
pub fn run(ctx: &Ctx, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let pctx = probe_ctx(ctx, "probe");
    std::fs::create_dir_all(pctx.data()).expect("create probe directory");
    let store = pctx.data().join("store.wvstore");
    rec.span("probe.study", |_| study_stage(&pctx, &store, &mut out));
    rec.span("probe.replay", |rec| replay_stage(&pctx, rec, &mut out));
    let reader = AnyReader::open(&store).expect("open probe store");
    let weeks: Vec<WeekData> = reader
        .stream()
        .collect::<Result<_, _>>()
        .expect("decode probe store");
    rec.span("probe.store", |_| store_stage(&pctx, &store, &weeks, &mut out));
    rec.span("probe.analysis", |_| analysis_stage(&reader, &weeks, &mut out));
    drop(reader);
    rec.span("probe.serve", |rec| serve_stage(&pctx, &store, rec, &mut out));
    rec.span("probe.watch", |rec| watch_stage(&probe_ctx(ctx, "probe-watch"), rec, &mut out));
    let start = Instant::now();
    black_box(Lab::new().validate_all());
    out.metric("poclab.sweep_ms", "ms", ms_since(start));
    out
}

/// A small study with an injected telemetry handle: the program's own
/// phase totals and executor counters, reconciled against its wall time.
fn study_stage(pctx: &Ctx, store: &std::path::Path, out: &mut Outcome) {
    let telemetry = Telemetry::new();
    let start = Instant::now();
    let results = pipeline(pctx.seed, pctx.plan.probe, false)
        .checkpoint(store)
        .streaming(true)
        .telemetry(&telemetry)
        .run()
        .expect("probe study");
    let wall_ms = ms_since(start);
    let snap = &results.telemetry;
    let mut attributed = 0.0;
    for phase in ["generate", "crawl", "fingerprint", "store", "join", "analyze"] {
        let ms = snap.span(phase).map_or(0.0, |s| s.total.as_secs_f64() * 1e3);
        attributed += ms;
        out.metric(&format!("core.phase_{phase}_ms"), "ms", ms);
    }
    // What no phase span covers: builder set-up, the store re-open, the
    // filter verdict, result assembly. A layer that moves work out of its
    // span shows up here, not as a gain.
    out.metric("core.unattributed_share", "ratio", 1.0 - attributed / wall_ms);
    let start = Instant::now();
    black_box(full_report(&results));
    out.metric("core.report_render_ms", "ms", ms_since(start));
    out.metric("exec.steals", "count", snap.counter("exec.steals_total").unwrap_or(0) as f64);
    let busy_ns = snap.histogram("exec.worker_busy_ns").map_or(0, |h| h.sum) as f64;
    out.metric("exec.worker_busy_share", "ratio", busy_ns / (THREADS as f64 * wall_ms * 1e6));
}

/// One sampled week, every domain, one thread, layer by layer.
fn replay_stage(pctx: &Ctx, rec: &mut Recorder, out: &mut Outcome) {
    let Size { domains, weeks } = pctx.plan.probe;
    let week = weeks / 2;
    let start = Instant::now();
    let eco = Arc::new(rec.span("webgen.generate", |_| {
        Ecosystem::generate(EcosystemConfig {
            seed: pctx.seed,
            domain_count: domains,
            timeline: Timeline::truncated(weeks),
        })
    }));
    out.metric("webgen.generate_ms", "ms", ms_since(start));
    let names = eco.domain_names();
    let n = names.len().max(1) as f64;

    // webgen: what the synthetic web serves for each domain this week.
    let mut pages: Vec<(usize, String)> = Vec::new();
    let render_ns = rec.span("webgen.render", |_| {
        median_ns(|| {
            pages.clear();
            for (i, host) in names.iter().enumerate() {
                if let PageOutcome::Page(html) = eco.page(host, week) {
                    pages.push((i, html));
                }
            }
        })
    });
    let page_count = pages.len().max(1) as f64;
    out.metric("webgen.render_ns_per_page", "ns", render_ns / n);
    let page_bytes: usize = pages.iter().map(|(_, html)| html.len()).sum();
    out.metric("webgen.page_bytes_mean", "B", page_bytes as f64 / page_count);

    // net: the codec alone, then a whole fetch through the loopback
    // transport, then the week's crawl on the pool under both fault plans.
    let handler = Arc::new(eco.handler(week));
    let responses: Vec<_> = names.iter().map(|host| handler.handle(&Request::get(host, "/"))).collect();
    let mut wires: Vec<Vec<u8>> = Vec::new();
    let encode_ns = rec.span("net.encode", |_| {
        median_ns(|| {
            wires.clear();
            for response in &responses {
                let mut wire = Vec::new();
                encode_response(response, false, &mut wire);
                wires.push(wire);
            }
        })
    });
    out.metric("net.encode_ns_per_response", "ns", encode_ns / n);
    let decode_ns = rec.span("net.decode", |_| {
        median_ns(|| {
            for wire in &wires {
                black_box(MessageReader::new(Cursor::new(wire.as_slice())).read_response(false).expect("decode"));
            }
        })
    });
    out.metric("net.decode_ns_per_response", "ns", decode_ns / n);
    let plain = VirtualNet::new(handler.clone());
    let fetch_ns = rec.span("net.fetch", |_| {
        median_ns(|| {
            for host in &names {
                black_box(fetch(&plain, host, "/").ok());
            }
        })
    });
    out.metric("net.fetch_ns_per_page", "ns", fetch_ns / n);
    let crawl = |faults: FaultPlan, retry: RetryPolicy| {
        let registry = Registry::new();
        let clock = VirtualClock::new();
        let net = VirtualNet::new(handler.clone()).with_week(week).with_faults(faults);
        let start = Instant::now();
        let records = CrawlOptions::new()
            .threads(THREADS)
            .retry(retry)
            .clock(&clock)
            .registry(&registry)
            .run(&names, &net);
        let ms = ms_since(start);
        let retries = registry.snapshot().counter("net.retries_total").unwrap_or(0);
        (ms, retries as f64 / records.len().max(1) as f64)
    };
    let (crawl_ms, _) = rec.span("net.crawl_week", |_| crawl(FaultPlan::realistic(pctx.seed), RetryPolicy::none()));
    out.metric("net.crawl_week_ms", "ms", crawl_ms);
    let (hostile_ms, retries) = rec.span("net.crawl_week_hostile", |_| {
        crawl(FaultPlan::hostile(pctx.seed), RetryPolicy::standard(3))
    });
    out.metric("net.crawl_week_hostile_ms", "ms", hostile_ms);
    out.metric("net.retries_per_fetch", "ratio", retries);

    // htmlparse: tokens, then the resources the fingerprinter reads.
    let mut tokens = 0usize;
    let tokenize_ns = rec.span("htmlparse.tokenize", |_| {
        median_ns(|| {
            tokens = pages.iter().map(|(_, html)| tokenize(html).len()).sum();
        })
    });
    out.metric("htmlparse.tokenize_ns_per_page", "ns", tokenize_ns / page_count);
    out.metric("htmlparse.tokens_per_page", "count", tokens as f64 / page_count);
    let mut resources = Vec::new();
    let extract_ns = rec.span("htmlparse.extract", |_| {
        median_ns(|| {
            resources.clear();
            for (_, html) in &pages {
                resources.push(extract(&Document::parse(html)));
            }
        })
    });
    out.metric("htmlparse.extract_ns_per_page", "ns", extract_ns / page_count);

    // pattern + fingerprint: the regex VM's exact step count, the
    // engine's time with and without parsing, and its wasted-work ratio.
    let start = Instant::now();
    let registry = Registry::new();
    let engine = Engine::instrumented(&registry);
    out.metric("pattern.compile_ms", "ms", ms_since(start));
    let steps_before = thread_vm_steps();
    let mut analyses = Vec::new();
    for (i, html) in &pages {
        analyses.push(engine.analyze(html, &names[*i]));
    }
    out.metric(
        "pattern.vm_steps_per_page",
        "count",
        thread_vm_steps().wrapping_sub(steps_before) as f64 / page_count,
    );
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let tried = counter("fp.patterns_evaluated_total");
    let matched = counter("fp.hits_url_total") + counter("fp.hits_inline_total") + counter("fp.hits_meta_total");
    out.metric("fingerprint.patterns_tried_per_page", "count", tried / page_count);
    out.metric("fingerprint.hit_ratio", "ratio", matched / tried.max(1.0));
    let detections: usize = analyses.iter().map(|a| a.detections.len()).sum();
    out.metric("fingerprint.detections_per_page", "count", detections as f64 / page_count);
    let plain_engine = Engine::new();
    let analyze_ns = rec.span("fingerprint.analyze", |_| {
        median_ns(|| {
            for (i, html) in &pages {
                black_box(plain_engine.analyze(html, &names[*i]));
            }
        })
    });
    out.metric("fingerprint.analyze_ns_per_page", "ns", analyze_ns / page_count);
    let resources_ns = rec.span("fingerprint.analyze_resources", |_| {
        median_ns(|| {
            for ((i, _), parsed) in pages.iter().zip(&resources) {
                black_box(plain_engine.analyze_resources(parsed, &names[*i]));
            }
        })
    });
    out.metric("fingerprint.analyze_resources_ns_per_page", "ns", resources_ns / page_count);

    // cvedb: the claimed and validated joins for every versioned
    // detection, and parsing one delta batch.
    let db = VulnDb::builtin();
    let versioned: Vec<_> = analyses
        .iter()
        .flat_map(|a| &a.detections)
        .filter_map(|d| d.version.as_ref().map(|v| (d.library, v)))
        .collect();
    let join_ns = rec.span("cvedb.join", |_| {
        median_ns(|| {
            for &(library, version) in &versioned {
                black_box(db.vuln_count(library, version, Basis::CveClaimed));
                black_box(db.vuln_count(library, version, Basis::TrueVulnerable));
            }
        })
    });
    out.metric("cvedb.join_ns_per_detection", "ns", join_ns / versioned.len().max(1) as f64);
    let parse_ns = median_ns(|| {
        for _ in 0..100 {
            black_box(parse_delta(DELTA).expect("delta parses"));
        }
    });
    out.metric("cvedb.delta_parse_us", "us", parse_ns / 100.0 / 1e3);
}

/// The store both ways: weeks committed through the single-file and the
/// sharded writer, then read back sequentially and by point look-up.
fn store_stage(pctx: &Ctx, store: &std::path::Path, weeks: &[WeekData], out: &mut Outcome) {
    let genesis = AnyReader::open(store).expect("open probe store").genesis().clone();
    let single = pctx.data().join("rewrite.wvstore");
    let mut writer = StoreWriter::create(&single, genesis.clone()).expect("create store");
    let mut commit_ms = Vec::new();
    let (mut encoded, mut records) = (0u64, 0usize);
    for week in weeks {
        let start = Instant::now();
        let info = writer.commit_week(week).expect("commit week");
        commit_ms.push(ms_since(start));
        encoded += info.encoded_bytes;
        records += info.records;
    }
    out.metric("store.commit_week_ms", "ms", median(&commit_ms));
    out.metric("store.encoded_bytes_per_record", "B", encoded as f64 / records.max(1) as f64);
    let start = Instant::now();
    writer.finalize(&[]).expect("finalize store");
    out.metric("store.finalize_ms", "ms", ms_since(start));
    drop(writer);

    let sharded_dir = pctx.data().join("rewrite-sharded");
    let mut sharded = ShardedStoreWriter::create(&sharded_dir, genesis, WATCH_SHARDS)
        .expect("create sharded store")
        .threads(THREADS);
    let mut sharded_ms = Vec::new();
    for week in weeks {
        let start = Instant::now();
        sharded.commit_week(week).expect("commit sharded week");
        sharded_ms.push(ms_since(start));
    }
    out.metric("store.commit_week_sharded_ms", "ms", median(&sharded_ms));
    drop(sharded);

    let open_ms: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(AnyReader::open(&single).expect("open store"));
            ms_since(start)
        })
        .collect();
    out.metric("store.open_ms", "ms", median(&open_ms));
    let reader = AnyReader::open(&single).expect("open store");
    let mut decode_ms = Vec::new();
    let mut stream = reader.stream();
    loop {
        let start = Instant::now();
        let Some(week) = stream.next() else { break };
        black_box(week.expect("decode week"));
        decode_ms.push(ms_since(start));
    }
    out.metric("store.week_decode_ms", "ms", median(&decode_ms));
    let hosts: Vec<&str> = weeks[0].records.iter().map(|r| r.host.as_str()).collect();
    let mut rng = Rng::new(pctx.seed);
    let gets = 2_000;
    let start = Instant::now();
    for _ in 0..gets {
        let host = hosts[rng.below(hosts.len())];
        black_box(reader.get(host, rng.below(weeks.len())).expect("point read"));
    }
    out.metric("store.get_us", "us", ms_since(start) * 1e3 / gets as f64);
    let start = Instant::now();
    reader.verify().expect("verify store");
    out.metric("store.verify_ms", "ms", ms_since(start));
}

/// The accumulators: absorb per week, merge of two domain partitions,
/// finish, and what a second fold thread buys.
fn analysis_stage(reader: &AnyReader, weeks: &[WeekData], out: &mut Outcome) {
    let db = VulnDb::builtin();
    let ranks = genesis_ranks(reader.genesis());
    let actx = AccumCtx { db: &db, ranks: &ranks };
    let mut accum = StudyAccum::default();
    let mut absorb_ms = Vec::new();
    for week in weeks {
        let snapshot = week_to_snapshot(week).expect("snapshot");
        let start = Instant::now();
        accum.absorb(&snapshot, &actx);
        absorb_ms.push(ms_since(start));
    }
    out.metric("analysis.absorb_week_ms", "ms", median(&absorb_ms));
    let start = Instant::now();
    black_box(accum.finish(&db));
    out.metric("analysis.finish_ms", "ms", ms_since(start));

    let mut halves = [StudyAccum::default(), StudyAccum::default()];
    for week in weeks {
        for (half, part) in halves.iter_mut().zip(split_week(week, 2)) {
            half.absorb(&week_to_snapshot(&part).expect("snapshot"), &actx);
        }
    }
    let [mut left, right] = halves;
    let start = Instant::now();
    left.merge(right);
    out.metric("analysis.merge_us", "us", ms_since(start) * 1e3);

    let fold_ms = |threads: usize| {
        let times: Vec<f64> = (0..PASSES)
            .map(|_| {
                let start = Instant::now();
                black_box(fold_study(reader, &db, threads).expect("fold"));
                ms_since(start)
            })
            .collect();
        median(&times)
    };
    out.metric("analysis.fold_speedup_2t", "ratio", fold_ms(1) / fold_ms(THREADS));
}

/// The query service called directly, then behind its server at probe
/// size, where the client-side split by target kind is read.
fn serve_stage(pctx: &Ctx, store: &std::path::Path, rec: &mut Recorder, out: &mut Outcome) {
    let service = QueryService::open(store).expect("open service");
    let targets = ServeTargets::new(&service);
    let evaluate_us = |range: std::ops::Range<usize>| {
        let start = Instant::now();
        for path in &targets.paths[range.clone()] {
            let parsed = route(&Request::get("bench", path)).expect("route");
            black_box(service.evaluate(&parsed, 0).expect("evaluate"));
        }
        ms_since(start) * 1e3 / range.len().max(1) as f64
    };
    out.metric("serve.evaluate_history_us", "us", evaluate_us(0..targets.histories));
    out.metric(
        "serve.evaluate_aggregate_us",
        "us",
        evaluate_us(targets.histories..targets.paths.len()),
    );
    drop(service);
    let timed = run_timed(pctx, Workload::ServeMixed, 0.0, rec);
    for (name, unit, value) in timed.extra {
        out.metric(name, unit, value);
    }
    out.absorb(timed.outcome);
}

/// The watch daemon at probe size, plus what the cycle does not time on
/// its own: a cold open over committed history, one spool read, and a
/// tick that finds nothing to do.
fn watch_stage(pctx: &Ctx, rec: &mut Recorder, out: &mut Outcome) {
    setup(pctx, Workload::WatchLive);
    let spool_ms: Vec<f64> = (0..pctx.plan.probe.weeks)
        .map(|week| {
            let path = pctx.data().join("stage").join(week_file_name(week));
            let start = Instant::now();
            black_box(read_week_file(&path).expect("read spool week"));
            ms_since(start)
        })
        .collect();
    out.metric("watch.spool_read_ms", "ms", median(&spool_ms));
    let timed = run_timed(pctx, Workload::WatchLive, 0.0, rec);
    for (name, unit, value) in timed.extra {
        out.metric(name, unit, value);
    }
    out.absorb(timed.outcome);
    // The cycle left its root behind: reopen it cold, as a restart would.
    let telemetry = Telemetry::new();
    let config = WatchConfig::new(pctx.scratch().join("root")).threads(THREADS).shards(WATCH_SHARDS);
    let start = Instant::now();
    let mut watcher = Watcher::open(config, &telemetry).expect("reopen watcher");
    out.metric("watch.open_cold_ms", "ms", ms_since(start));
    let idle_us: Vec<f64> = (0..20)
        .map(|_| {
            let start = Instant::now();
            black_box(watcher.tick().expect("idle tick"));
            ms_since(start) * 1e3
        })
        .collect();
    out.metric("watch.tick_idle_us", "us", median(&idle_us));
}
