//! The `webvuln` command-line interface: seven commands, each with one
//! table of its flags and operands. The table parses the command line,
//! refuses (exit 2, naming the culprit) an unlisted flag, a missing or
//! ill-typed value and an extra operand, and renders `webvuln help`.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;
use webvuln::core::{
    full_report, series_to_csv, telemetry_json, Pipeline, StudyConfig, StudyResults, Telemetry,
    TraceMode,
};
use webvuln::cvedb::{Accuracy, Basis, LibraryId, VulnDb};
use webvuln::fingerprint::Engine;
use webvuln::net::{
    BreakerConfig, CrawlOptions, FaultPlan, RetryPolicy, ServeConfig, Server, TcpConnector,
    VirtualClock, VirtualNet,
};
use webvuln::poclab::{Lab, PocResult, ValidationReport};
use webvuln::store::{AnyReader, ScrubOutcome, ShardHealth};
use webvuln::webgen::{Ecosystem, EcosystemConfig, Timeline};

/// Standard output for every command. A reader that goes away (`| head`)
/// ends the process quietly with status 0, where `println!` would panic.
struct Out;

impl Write for Out {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        io::stdout().write(buf).map_err(closed)
    }

    fn flush(&mut self) -> io::Result<()> {
        io::stdout().flush().map_err(closed)
    }
}

fn closed(error: io::Error) -> io::Error {
    if error.kind() == io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    error
}

/// `println!` through [`Out`].
macro_rules! out {
    ($($arg:tt)*) => {
        writeln!(Out, $($arg)*).unwrap_or_else(|e| die(format!("cannot write to stdout: {e}")))
    };
}

/// What an entry of a command's table takes.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// `--flag`, present or not.
    Switch,
    /// `--flag N`, a whole number.
    Number,
    /// `--flag VALUE`, the text naming the value in help.
    Value(&'static str),
    /// `--flag [VALUE]`: the value may be left out.
    MaybeValue(&'static str),
    /// A positional operand that must be given.
    Operand,
    /// A positional operand that may be left out; it follows every
    /// `Operand` of its table.
    Optional,
}
use Kind::*;

/// One entry of a command's table: its name, what it takes, its help.
type Entry = (&'static str, Kind, &'static str);

/// A command: its name, what it does, its table and its body. A body's
/// `Err` is a usage error, reported with the command's help and exit 2.
struct Command {
    name: &'static str,
    about: &'static str,
    table: &'static [Entry],
    run: fn(&Args) -> Result<(), String>,
}

// One line per entry: a table reads as the help it renders.
#[rustfmt::skip]
const COMMANDS: [Command; 7] = [
    Command {
        name: "study",
        about: "run the full study and print every table and figure of the paper",
        table: &[
            ("--domains", Number, "domains in the synthetic web (default 2000)"),
            ("--weeks", Number, "weekly snapshots from the paper's first (default 201)"),
            ("--seed", Number, "seed of the web and its faults (default 42)"),
            ("--threads", Number, "workers, 0 = one per core (default 8)"),
            ("--csv", Value("DIR"), "write every figure series as a CSV file into DIR"),
            ("--retries", Number, "retry a failed fetch N times (backoff, breakers)"),
            ("--fault-profile", Value("P"), "faults: none, realistic (default) or hostile"),
            ("--carry-forward", Switch, "reuse a down domain's last usable page"),
            ("--store", Value("PATH"), "commit the weeks to a store file (in memory without)"),
            ("--resume", Switch, "with --store: restore committed weeks, crawl the rest"),
            ("--shards", Number, "with --store: split it into N shards (same results)"),
            ("--progress", Switch, "report per-week progress on stderr"),
            ("--max-task-failures", Number, "quarantine a failed task's domain, up to N"),
            ("--telemetry", MaybeValue("FILE"), "metrics as JSON on stderr, or into FILE"),
            ("--trace", Value("FILE"), "write a Chrome trace of the run (Perfetto) to FILE"),
        ],
        run: cmd_study,
    },
    Command {
        name: "validate",
        about: "run the §6.4 version-validation experiment: every report's PoC\n\
                against every released version of its library",
        table: &[("REPORT_ID", Optional, "sweep this report only, e.g. CVE-2020-7656")],
        run: cmd_validate,
    },
    Command {
        name: "crawl",
        about: "crawl one snapshot week and summarize detections",
        table: &[
            ("--domains", Number, "domains in the synthetic web (default 500)"),
            ("--week", Number, "the snapshot week (default 100)"),
            ("--retries", Number, "retry a failed fetch N times, with backoff"),
            ("--threads", Number, "crawl workers (default 8, with --tcp 16)"),
            ("--fault-profile", Value("P"), "faults: none, realistic (default) or hostile"),
            ("--tcp", Switch, "crawl over real sockets from a local server, no faults"),
            ("--telemetry", Switch, "print the metrics snapshot on stderr"),
        ],
        run: cmd_crawl,
    },
    Command {
        name: "inspect",
        about: "fingerprint one HTML file and list its vulnerabilities",
        table: &[
            ("FILE.html", Operand, "the page to fingerprint"),
            ("--domain", Value("HOST"), "the page's host (default example.com)"),
        ],
        run: cmd_inspect,
    },
    Command {
        name: "store",
        about: "info: describe a snapshot store; verify: decode and CRC-check\n\
                every week; export-json: a finalized store as Dataset JSON;\n\
                scrub: CRC-walk every shard, exit 0 clean, 3 healed, 4 quarantined",
        table: &[
            ("ACTION", Operand, "info, verify, export-json or scrub"),
            ("PATH", Operand, "a store file or shard directory"),
            ("OUT.json", Optional, "export-json: write here, not to stdout"),
            ("--repair", Switch, "scrub: heal torn tails, rebuild corrupt shards from\n\
                                  their quarantined copies, roll back to the last\n\
                                  consistent epoch"),
        ],
        run: cmd_store,
    },
    Command {
        name: "serve",
        about: "serve JSON queries over a snapshot store: GET /healthz,\n\
                /domain/HOST/history, /library/SLUG/prevalence, /week/W/landscape,\n\
                /cve/ID/exposure, /alerts (with --watch)",
        table: &[
            ("--store", Value("PATH"), "the store to serve (required)"),
            ("--threads", Number, "worker threads (default 4)"),
            ("--port", Number, "0 picks a free port, printed on stdout (default 0)"),
            ("--cache", Number, "cached responses (default 256)"),
            ("--max-conns", Number, "connections admitted at once (default 64)"),
            ("--requests", Number, "drain after N requests, print serve.* (0 = never)"),
            ("--watch", Value("DIR"), "attach a watch root: /alerts, /healthz's watch block"),
        ],
        run: cmd_serve,
    },
    Command {
        name: "watch",
        about: "run the supervised live-ingestion daemon: commit ROOT/spool weeks\n\
                into ROOT/store, absorb them, retro-scan on a ROOT/deltas/*.cvedelta,\n\
                deliver alerts to ROOT/alerts.log exactly once, crash or not",
        table: &[
            ("ROOT", Operand, "the watch root"),
            ("--ticks", Number, "stop after N ticks (default 0 = run until killed)"),
            ("--threads", Number, "worker threads (default 2)"),
            ("--shards", Number, "shards of ROOT/store (default 4)"),
            ("--pause-ms", Number, "pause between ticks (default 200)"),
            ("--stall-ms", Number, "flag a tick running longer than N ms as stalled"),
            ("--restarts", Number, "consecutive faults before giving up (default 4)"),
            ("--telemetry", Switch, "print the watch.* counters on stderr"),
        ],
        run: cmd_watch,
    },
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let name = argv.first().map_or("help", String::as_str);
    if matches!(name, "help" | "--help" | "-h") {
        out!("{}", help().trim_end());
        return;
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        eprintln!("unknown command: {name}\n\n{}", help());
        std::process::exit(2);
    };
    if let Err(message) = Args::parse(command.table, &argv[1..]).and_then(|a| (command.run)(&a)) {
        eprintln!("webvuln {name}: {message}\n\n{}", command.help());
        std::process::exit(2);
    }
}

fn help() -> String {
    let mut text = String::from(
        "webvuln — longitudinal measurement toolkit for vulnerable client-side resources\n\
         \n\
         Results are deterministic in the seed and byte-identical at any --threads.\n",
    );
    for command in &COMMANDS {
        text.push('\n');
        text.push_str(&command.help());
    }
    text
}

impl Command {
    /// The usage line, the about text, then one line per table entry.
    fn help(&self) -> String {
        let mut text = format!("webvuln {}", self.name);
        for &(name, kind, _) in self.table {
            match kind {
                Operand => text += &format!(" {name}"),
                Optional => text += &format!(" [{name}]"),
                _ => {}
            }
        }
        text += &format!("\n    {}\n", self.about.replace('\n', "\n    "));
        for &(name, kind, help) in self.table {
            let left = match kind {
                Number => format!("{name} N"),
                Value(value) => format!("{name} {value}"),
                MaybeValue(value) => format!("{name} [{value}]"),
                Switch | Operand | Optional => name.to_string(),
            };
            let help = help.replace('\n', &format!("\n{:25}", ""));
            text += &format!("  {left:<23}{help}\n");
        }
        text
    }
}

/// A command line checked against its command's table.
struct Args {
    table: &'static [Entry],
    /// The flags given, in order, each with its value if it took one.
    flags: Vec<(&'static str, Option<String>)>,
    operands: Vec<String>,
}

impl Args {
    fn parse(table: &'static [Entry], argv: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut operands = Vec::new();
        let mut argv = argv.iter().peekable();
        while let Some(arg) = argv.next() {
            if !arg.starts_with("--") {
                operands.push(arg.clone());
                continue;
            }
            let Some(&(name, kind, _)) = table.iter().find(|entry| entry.0 == arg) else {
                return Err(format!("unknown flag {arg}"));
            };
            // A value never starts with `--`: that is the next flag.
            let value = match kind {
                Switch => None,
                _ => argv.next_if(|v| !v.starts_with("--")).cloned(),
            };
            match (kind, &value) {
                (Number | Value(_), None) => return Err(format!("{name} needs a value")),
                (Number, Some(v)) if v.parse::<u64>().is_err() => return Err(invalid(name, v)),
                _ => flags.push((name, value)),
            }
        }
        let wanted = table.iter().filter(|e| matches!(e.1, Operand | Optional));
        if let Some(extra) = operands.get(wanted.clone().count()) {
            return Err(format!("unexpected operand {extra:?}"));
        }
        if let Some(missing) = wanted.filter(|e| e.1 == Operand).nth(operands.len()) {
            return Err(format!("missing {}", missing.0));
        }
        Ok(Args {
            table,
            flags,
            operands,
        })
    }

    /// Flag `name` as given: `None` when absent, `Some(None)` when given
    /// without a value.
    fn flag(&self, name: &str) -> Option<Option<&str>> {
        debug_assert!(self.table.iter().any(|e| e.0 == name), "{name}: no entry");
        let given = self.flags.iter().find(|(flag, _)| *flag == name);
        given.map(|(_, value)| value.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flag(name).is_some()
    }

    /// The value of flag `name` as a `T`, `None` when absent.
    fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flag(name).flatten() {
            Some(value) => value.parse().map(Some).map_err(|_| invalid(name, value)),
            None => Ok(None),
        }
    }

    /// The `index`th operand given, in table order.
    fn operand(&self, index: usize) -> Option<&str> {
        self.operands.get(index).map(String::as_str)
    }
}

fn invalid(name: &str, value: &str) -> String {
    format!("{name}: invalid number {value:?}")
}

/// Reports a runtime failure on stderr and exits with status 1.
fn die(message: impl Display) -> ! {
    eprintln!("{message}");
    std::process::exit(1);
}

/// Resolves `--fault-profile` (default `realistic`) against `seed`.
fn fault_profile(args: &Args, seed: u64) -> Result<FaultPlan, String> {
    let profile = args.flag("--fault-profile").flatten();
    match profile.unwrap_or("realistic") {
        "none" => Ok(FaultPlan::none()),
        "realistic" => Ok(FaultPlan::realistic(seed)),
        "hostile" => Ok(FaultPlan::hostile(seed)),
        other => Err(format!("unknown fault profile {other}")),
    }
}

fn cmd_study(args: &Args) -> Result<(), String> {
    let domains = args.get("--domains")?.unwrap_or(2_000);
    let weeks = args.get("--weeks")?.unwrap_or(201);
    let seed = args.get("--seed")?.unwrap_or(42);
    let retries = args.get("--retries")?.unwrap_or(0);
    let store: Option<PathBuf> = args.get("--store")?;
    let needs_store = ["--resume", "--shards"].into_iter().find(|f| args.has(f));
    if let (None, Some(flag)) = (&store, needs_store) {
        return Err(format!("{flag} needs --store PATH"));
    }
    let csv: Option<PathBuf> = args.get("--csv")?;
    let trace_out: Option<String> = args.get("--trace")?;
    let defaults = StudyConfig::default();
    let config = StudyConfig {
        seed,
        domain_count: domains,
        timeline: Timeline::truncated(weeks),
        concurrency: args.get("--threads")?.unwrap_or(defaults.concurrency),
        faults: fault_profile(args, seed)?,
        retry: if retries > 0 {
            RetryPolicy::standard(retries)
        } else {
            RetryPolicy::none()
        },
        breaker: (retries > 0).then(BreakerConfig::default),
        carry_forward: args.has("--carry-forward"),
        ..defaults
    };
    let mut telemetry = Telemetry::new();
    if args.has("--progress") {
        telemetry = telemetry.with_stderr_progress();
    }
    if trace_out.is_some() {
        telemetry = telemetry.with_trace(TraceMode::Full);
    }
    eprintln!("study: {domains} domains x {weeks} weeks (seed {seed})");
    let mut pipeline = Pipeline::new(config).telemetry(&telemetry);
    if let Some(budget) = args.get("--max-task-failures")? {
        pipeline = pipeline.max_task_failures(budget);
    }
    if let Some(path) = &store {
        pipeline = pipeline
            .checkpoint(path)
            .resume(args.has("--resume"))
            .shards(args.get("--shards")?.unwrap_or(1));
    }
    let results = pipeline
        .run()
        .unwrap_or_else(|e| die(format!("snapshot store error: {e}")));
    if let Some(path) = &store {
        eprintln!("snapshot store committed to {}", path.display());
    }
    let counter = |name: &str| results.telemetry.counter(name).unwrap_or(0);
    eprintln!(
        "crawl resilience: {} retries, {} recovered after retry, \
         {} breaker-skipped, {} carried forward",
        counter("net.retries_total"),
        counter("net.retry_success_total"),
        counter("net.breaker_open_total"),
        counter("net.carry_forward_total"),
    );
    if let (Some(path), Some(trace)) = (&trace_out, &results.trace) {
        save(Path::new(path), trace.to_chrome_json(), "trace");
    }
    match args.flag("--telemetry") {
        Some(Some(path)) => save(Path::new(path), telemetry_json(&results), "telemetry"),
        Some(None) => eprintln!("{}", telemetry_json(&results)),
        None => {}
    }
    // Artifacts go out before the report: a reader that stops early
    // (`| head`) ends the process at the report.
    if let Some(dir) = csv {
        match write_figures(&dir, &results) {
            Ok(()) => eprintln!("CSV series written to {}", dir.display()),
            Err(e) => eprintln!("cannot write CSV series to {}: {e}", dir.display()),
        }
    }
    out!("{}", full_report(&results));
    Ok(())
}

/// Writes `bytes` to `path`, saying on stderr whether it could.
fn save(path: &Path, bytes: impl AsRef<[u8]>, what: &str) {
    match std::fs::write(path, bytes) {
        Ok(()) => eprintln!("{what} written to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// Writes every figure's series into `dir`, one CSV file each.
fn write_figures(dir: &Path, r: &StudyResults) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let w = |name: &str, csv: String| std::fs::write(dir.join(format!("{name}.csv")), csv);
    let collected = r.collection.points.iter().copied();
    w("fig2a_collection", series_to_csv("collected", collected))?;
    for usage in &r.resources {
        let name = format!("fig2b_{}", usage.resource.name().to_lowercase());
        w(
            &name,
            series_to_csv("share", usage.weekly_share.iter().copied()),
        )?;
    }
    for trend in &r.trends {
        let name = format!("fig3_{}", trend.library.slug().replace('.', "_"));
        w(&name, series_to_csv("share", trend.points.iter().copied()))?;
    }
    let wp = r.wordpress.points.iter().map(|&(d, _, wp)| (d, wp));
    w("fig9_wordpress", series_to_csv("wordpress_sites", wp))?;
    let flash = r.flash.points.iter().map(|&(d, all, _, _)| (d, all));
    w("fig8_flash", series_to_csv("flash_sites", flash))?;
    let unprotected = r.sri.points.iter().map(|&(d, _, un)| (d, un));
    w("fig10_sri", series_to_csv("unprotected_sites", unprotected))?;
    let always = r.script_access.points.iter().map(|&(d, _, _, a)| (d, a));
    w("fig11_scriptaccess", series_to_csv("always_sites", always))?;
    // Figure 5-style per-CVE impact series for the three showcased CVEs.
    for id in ["CVE-2020-7656", "CVE-2014-6071", "CVE-2020-11022"] {
        if let Some(impact) = r.cve_impacts.iter().find(|i| i.id == id) {
            let id = id.to_lowercase();
            let claimed = series_to_csv("sites", impact.claimed_sites.iter().copied());
            w(&format!("fig5_{id}_claimed"), claimed)?;
            w(
                &format!("fig5_{id}_true"),
                series_to_csv("sites", impact.true_sites.iter().copied()),
            )?;
        }
    }
    // Figure 12 CDFs.
    for (name, dist) in [("claimed", &r.fig12_claimed), ("tvv", &r.fig12_tvv)] {
        let rows = dist.cdf.points.iter().map(|&(x, f)| format!("{x},{f}\n"));
        let csv = std::iter::once("vulns,cdf\n".to_string()).chain(rows);
        w(&format!("fig12_{name}"), csv.collect())?;
    }
    Ok(())
}

/// Figure 4's stripe for `report`: one cell per released version.
fn stripe(lab: &Lab, report: &ValidationReport) -> String {
    let record = lab.db().record(&report.id).expect("a swept id");
    let cell = |(version, outcome): &(_, PocResult)| match (outcome, record.claims(version)) {
        (PocResult::Exploited, true) => '#',
        (PocResult::Exploited, false) => 'U',
        (PocResult::Safe, true) => 'O',
        (PocResult::Safe, false) => '.',
        (PocResult::Unavailable, _) => '?',
    };
    report.per_version.iter().map(cell).collect()
}

fn cmd_validate(args: &Args) -> Result<(), String> {
    let lab = Lab::new();
    let one = args.operand(0);
    let reports = match one {
        Some(id) => vec![lab.validate(id).ok_or(format!("unknown report id {id}"))?],
        None => lab.validate_all(),
    };
    for report in &reports {
        out!(
            "{:<26} {:<14} {:>3} envs  {}",
            report.id,
            report.library.name(),
            report.environments(),
            report.accuracy
        );
        out!("  {}", stripe(&lab, report));
        if one.is_some() {
            let lists = [
                ("understated", &report.understated),
                ("overstated", &report.overstated),
            ];
            for (label, versions) in lists.into_iter().filter(|(_, v)| !v.is_empty()) {
                let versions: Vec<_> = versions.iter().map(ToString::to_string).collect();
                out!("  {label} versions: {}", versions.join(", "));
            }
        }
    }
    out!("legend: # vulnerable as disclosed  U understated  O overstated  . safe  ? unavailable");
    if one.is_none() {
        let incorrect = reports
            .iter()
            .filter(|r| r.accuracy != Accuracy::Accurate)
            .count();
        let total = reports.len();
        out!("\n{incorrect} of {total} reports state incorrect versions");
    }
    Ok(())
}

fn cmd_crawl(args: &Args) -> Result<(), String> {
    let domains = args.get("--domains")?.unwrap_or(500);
    let week = args.get("--week")?.unwrap_or(100);
    let tcp = args.has("--tcp");
    if tcp && args.has("--fault-profile") {
        return Err("--fault-profile injects faults in memory only, not with --tcp".into());
    }
    let threads = args.get("--threads")?.unwrap_or(if tcp { 16 } else { 8 });
    let faults = fault_profile(args, 42)?;
    let clock = VirtualClock::new();
    let telemetry = Telemetry::new();
    let registry = telemetry.registry();
    let crawl = CrawlOptions::new()
        .threads(threads)
        .retry(RetryPolicy::standard(args.get("--retries")?.unwrap_or(0)))
        .clock(&clock)
        .registry(registry);
    let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
        seed: 42,
        domain_count: domains,
        timeline: Timeline::paper(),
    }));
    let names = eco.domain_names();
    let handler = Arc::new(eco.handler(week));
    let snapshot = if tcp {
        // One pool worker per crawl thread, so no fetch waits in the queue.
        let mut server = Server::start(handler, ServeConfig::for_crawl(threads), registry)
            .unwrap_or_else(|e| die(format!("crawl: cannot bind: {e}")));
        eprintln!("crawling over TCP via {}", server.addr());
        let got = crawl.run(&names, &TcpConnector::fixed(server.addr()));
        server.shutdown();
        got
    } else {
        let net = VirtualNet::new(handler)
            .with_fault_metrics(registry)
            .with_week(week)
            .with_faults(faults);
        crawl.run(&names, &net)
    };
    let recovered = snapshot.values().filter(|r| r.recovered).count();
    if recovered > 0 {
        eprintln!("{recovered} domains recovered after retry");
    }
    if args.has("--telemetry") {
        eprint!("{}", telemetry.snapshot().render());
    }
    let engine = Engine::new();
    let db = VulnDb::builtin();
    let usable: Vec<_> = snapshot.values().filter(|r| r.is_usable(400)).collect();
    let mut vulnerable = 0;
    let mut jquery = BTreeMap::<String, usize>::new();
    for record in &usable {
        let analysis = engine.analyze(&record.body, &record.domain);
        if analysis.detections.iter().any(|d| {
            d.version
                .as_ref()
                .is_some_and(|v| db.is_vulnerable(d.library, v, Basis::CveClaimed))
        }) {
            vulnerable += 1;
        }
        let detection = analysis.library(LibraryId::JQuery);
        if let Some(version) = detection.and_then(|d| d.version.as_ref()) {
            *jquery.entry(version.to_string()).or_default() += 1;
        }
    }
    out!(
        "week {week}: {} domains attempted, {} usable, {} vulnerable ({:.1}%)",
        names.len(),
        usable.len(),
        vulnerable,
        100.0 * vulnerable as f64 / usable.len().max(1) as f64
    );
    let mut top: Vec<_> = jquery.into_iter().collect();
    top.sort_by_key(|&(_, count)| Reverse(count));
    out!("top jQuery versions:");
    for (version, count) in top.into_iter().take(5) {
        out!("  v{version:<8} {count} sites");
    }
    Ok(())
}

fn cmd_store(args: &Args) -> Result<(), String> {
    let action = args.operand(0).unwrap_or_default();
    let path = args.operand(1).unwrap_or_default();
    let open = || AnyReader::open(Path::new(path)).unwrap_or_else(|e| die(cannot_open(path, e)));
    match action {
        "info" => {
            // Info opens tolerantly: a degraded store (a quarantined or
            // missing shard) is exactly when an operator needs this
            // output, so report per-shard health instead of refusing.
            let reader = AnyReader::open_degraded(Path::new(path))
                .unwrap_or_else(|e| die(cannot_open(path, e)));
            let genesis = reader.genesis();
            out!("store:      {path}");
            out!("format:     version {}", webvuln::store::FORMAT_VERSION);
            if reader.shard_count() > 1 {
                out!("shards:     {}", reader.shard_count());
            }
            if let Some(manifest) = reader.manifest() {
                out!("epoch:      {}", manifest.epoch);
            }
            out!("domains:    {}", genesis.ranks.len());
            let (committed, planned) = (reader.weeks_committed(), genesis.weeks_total);
            out!("weeks:      {committed} committed of {planned} planned");
            let finalized = if reader.is_finalized() { "yes" } else { "no" };
            out!("finalized:  {finalized}");
            if let Some(filtered) = reader.filtered_out().map(|f| f.len()) {
                out!("filtered:   {filtered} domains removed by the §4.1 rule");
            }
            match reader.delta_stats() {
                Ok((hits, total)) => out!(
                    "records:    {total} total, {hits} stored as back-references ({:.1}%)",
                    100.0 * hits as f64 / total.max(1) as f64
                ),
                Err(e) if reader.is_degraded() => {
                    out!("records:    unavailable (degraded store: {e})")
                }
                Err(e) => die(format!("cannot decode {path}: {e}")),
            }
            out!("data bytes: {}", reader.data_bytes());
            if reader.torn_bytes() > 0 {
                out!("torn tail:  {} bytes (recoverable)", reader.torn_bytes());
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
                            out!(
                                "  shard {index}: healthy, {} weeks, {records} records, {} bytes",
                                shard.weeks_committed(),
                                shard.data_bytes()
                            );
                        }
                        None => {
                            let detail = match &reader.shard_health()[index] {
                                ShardHealth::Unavailable { detail } => detail.as_str(),
                                ShardHealth::Healthy => "unknown",
                            };
                            out!("  shard {index}: UNAVAILABLE ({detail})");
                        }
                    }
                }
            }
        }
        "verify" => {
            let reader = open();
            let counts = reader
                .verify()
                .unwrap_or_else(|e| die(format!("{path}: verification FAILED: {e}")));
            for (week, records) in counts.iter().enumerate() {
                let date = reader
                    .week_date_days(week)
                    .map(|d| format!("day {d}"))
                    .unwrap_or_else(|_| "?".into());
                out!("week {week:>3} ({date}): {records} records ok");
            }
            let weeks = counts.len();
            out!("{path}: {weeks} weeks verified, every CRC and back-reference intact");
        }
        "export-json" => {
            // Streams record-by-record: peak memory is one decoded week,
            // not the whole dataset, so a paper-scale store exports flat.
            let reader = open();
            let export = |sink: &mut dyn Write| {
                let mut sink = io::BufWriter::new(sink);
                webvuln::analysis::store_io::export_json(&reader, &mut sink)?;
                sink.flush()
            };
            match args.operand(2) {
                Some(out) => {
                    std::fs::File::create(out)
                        .and_then(|mut file| export(&mut file))
                        .unwrap_or_else(|e| die(format!("cannot write dataset: {e}")));
                    eprintln!("dataset written to {out}");
                }
                None => export(&mut Out)
                    .and_then(|()| writeln!(Out))
                    .unwrap_or_else(|e| die(format!("cannot export {path}: {e}"))),
            }
        }
        "scrub" => {
            let report = webvuln::store::scrub(Path::new(path), args.has("--repair"))
                .unwrap_or_else(|e| die(format!("cannot scrub {path}: {e}")));
            write!(Out, "{}", report.render())
                .unwrap_or_else(|e| die(format!("cannot write to stdout: {e}")));
            std::process::exit(match report.outcome {
                ScrubOutcome::Clean => 0,
                ScrubOutcome::Healed => 3,
                ScrubOutcome::Quarantined => 4,
            });
        }
        other => return Err(format!("unknown action {other}")),
    }
    Ok(())
}

fn cannot_open(path: &str, error: impl Display) -> String {
    format!("cannot open {path}: {error}")
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let store: String = args.get("--store")?.ok_or("--store PATH is required")?;
    let config = webvuln::ServeConfig {
        threads: args.get("--threads")?.unwrap_or(4),
        port: args.get("--port")?.unwrap_or(0),
        cache_capacity: args.get("--cache")?.unwrap_or(256),
        max_connections: args.get("--max-conns")?.unwrap_or(64),
        ..webvuln::ServeConfig::default()
    };
    let request_budget: u64 = args.get("--requests")?.unwrap_or(0);
    let watch_root: Option<String> = args.get("--watch")?;
    let service = webvuln::QueryService::open(Path::new(&store))
        .unwrap_or_else(|e| die(format!("serve: {}", cannot_open(&store, e))));
    let service = Arc::new(match &watch_root {
        Some(root) => service.with_watch_root(root),
        None => service,
    });
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
            if let ShardHealth::Unavailable { detail } = health {
                eprintln!("serve: WARNING: shard {index} unavailable: {detail}");
            }
        }
        eprintln!(
            "serve: store is degraded — healthy shards keep serving; \
             routed queries to dead shards answer 503"
        );
    }

    let registry = webvuln::telemetry::Registry::new();
    let mut server = webvuln::ApiServer::serve(service, config, &registry)
        .unwrap_or_else(|e| die(format!("serve: cannot bind: {e}")));
    // The smoke harness scrapes this line for the chosen port.
    out!("listening on {}", server.addr());

    // Run until the request budget is spent (`--requests 0` = forever);
    // then drain in-flight connections and report the serve.* counters.
    let served = || registry.snapshot().counter("serve.requests_total");
    while request_budget == 0 || served().unwrap_or(0) < request_budget {
        std::thread::sleep(std::time::Duration::from_millis(200));
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
    Ok(())
}

fn cmd_watch(args: &Args) -> Result<(), String> {
    let root = args.operand(0).unwrap_or_default();
    let watch_cfg = webvuln::WatchConfig::new(root)
        .threads(args.get("--threads")?.unwrap_or(2))
        .shards(args.get("--shards")?.unwrap_or(4));
    // --ticks 0 means run until killed; the supervisor itself has no
    // notion of "forever", so model it as a practically-infinite budget.
    let ticks = match args.get("--ticks")?.unwrap_or(0) {
        0 => usize::MAX,
        n => n,
    };
    let restarts = args.get("--restarts")?.unwrap_or(4);
    let pause_ms = args.get("--pause-ms")?.unwrap_or(200);
    let mut sup_cfg = webvuln::SupervisorConfig::bounded(ticks)
        .policy(webvuln::resilience::RetryPolicy::standard(restarts))
        .tick_pause(std::time::Duration::from_millis(pause_ms));
    if let Some(stall_ms) = args.get("--stall-ms")? {
        sup_cfg = sup_cfg.stall_limit(std::time::Duration::from_millis(stall_ms));
    }

    let telemetry = webvuln::telemetry::Telemetry::new();
    let report = webvuln::watch::supervise(&watch_cfg, sup_cfg, &telemetry);

    let totals = &report.totals;
    out!("watch root: {root}");
    out!(
        "ticks:      {} ({} weeks ingested, {} skipped, {} refolds of {} buckets)",
        report.ticks,
        totals.weeks_ingested,
        totals.weeks_skipped,
        totals.refolds,
        totals.buckets_refolded
    );
    out!(
        "deltas:     {} applied ({} alerts enqueued, {} deduped)",
        totals.deltas_applied,
        totals.alerts_enqueued,
        totals.alerts_deduped
    );
    out!(
        "delivered:  {} alerts ({} redelivered after replay)",
        totals.alerts_delivered,
        totals.alerts_redelivered
    );
    out!(
        "faults:     {} restarts, {} stalls flagged, {} ns virtual backoff",
        report.restarts,
        report.stalls,
        report.backoff_ns
    );
    if let Some(err) = &report.last_error {
        eprintln!("last error: {err}");
    }
    if args.has("--telemetry") {
        let snap = telemetry.registry_arc().snapshot();
        for (key, value) in &snap.counters {
            if key.starts_with("watch.") {
                eprintln!("{key} = {value}");
            }
        }
    }
    if report.gave_up {
        die("watch: restart budget exhausted; giving up");
    }
    Ok(())
}

fn cmd_inspect(args: &Args) -> Result<(), String> {
    let path = args.operand(0).unwrap_or_default();
    let domain = args.flag("--domain").flatten().unwrap_or("example.com");
    let html =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(format!("cannot read {path}: {e}")));
    let engine = Engine::new();
    let db = VulnDb::builtin();
    let analysis = engine.analyze(&html, domain);
    if analysis.detections.is_empty() {
        out!("no known libraries detected");
    }
    for det in &analysis.detections {
        let version = det
            .version
            .as_ref()
            .map(ToString::to_string)
            .unwrap_or_else(|| "unknown version".into());
        out!("{} {version} ({:?})", det.library.name(), det.inclusion);
        if let Some(v) = &det.version {
            for (basis, tag) in [
                (Basis::CveClaimed, "claimed"),
                (Basis::TrueVulnerable, "true"),
            ] {
                for record in db.affecting(det.library, v, basis) {
                    out!("  [{tag}] {} ({})", record.id, record.attack);
                }
            }
        }
    }
    if let Some(wp) = &analysis.wordpress {
        let version = wp
            .as_ref()
            .map_or("version unknown".into(), ToString::to_string);
        out!("WordPress: {version}");
    }
    for flash in &analysis.flash {
        out!(
            "Flash: {} (AllowScriptAccess: {})",
            flash.swf_url,
            flash.allow_script_access.as_deref().unwrap_or("unset")
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    fn table(command: &str) -> &'static [Entry] {
        COMMANDS.iter().find(|c| c.name == command).unwrap().table
    }

    fn entries() -> impl Iterator<Item = (&'static Command, &'static Entry)> {
        COMMANDS
            .iter()
            .flat_map(|c| c.table.iter().map(move |e| (c, e)))
    }

    #[test]
    fn numeric_flags_parse_or_name_themselves() {
        let line = Args::parse(table("serve"), &args("--port 8080 --threads 3")).unwrap();
        assert_eq!(line.get::<u16>("--port"), Ok(Some(8080)));
        assert_eq!(line.get::<usize>("--threads"), Ok(Some(3)));
        assert_eq!(line.get::<usize>("--cache"), Ok(None));
        let line = Args::parse(table("serve"), &args("--port 70000")).unwrap();
        assert_eq!(line.get::<u16>("--port"), Err(invalid("--port", "70000")));
        for (command, &(name, _, _)) in entries().filter(|(_, e)| e.1 == Number) {
            for bad in ["2k", "four", "-5", "x"] {
                let line = format!("{name} {bad}");
                let err = Args::parse(command.table, &args(&line)).err();
                assert_eq!(err, Some(invalid(name, bad)), "{} {line}", command.name);
            }
        }
    }

    #[test]
    fn a_flag_never_takes_the_next_flag_as_its_value() {
        let valued = entries().filter(|(_, e)| matches!(e.1, Number | Value(_)));
        for (command, &(name, _, _)) in valued {
            for line in [name.to_string(), format!("{name} --progress")] {
                let err = Args::parse(command.table, &args(&line)).err();
                assert_eq!(
                    err,
                    Some(format!("{name} needs a value")),
                    "{}",
                    command.name
                );
            }
        }
        let line = Args::parse(table("study"), &args("--telemetry --progress")).unwrap();
        assert_eq!(line.flag("--telemetry"), Some(None));
        assert!(line.has("--progress"));
        let line = Args::parse(table("study"), &args("--store s.wvstore --resume")).unwrap();
        assert_eq!(line.flag("--store"), Some(Some("s.wvstore")));
        assert!(line.has("--resume"));
    }

    #[test]
    fn an_unlisted_flag_or_an_extra_operand_is_refused() {
        for command in &COMMANDS {
            let err = Args::parse(command.table, &args("--domian 40")).err();
            assert_eq!(
                err.as_deref(),
                Some("unknown flag --domian"),
                "{}",
                command.name
            );
            let operands = command
                .table
                .iter()
                .filter(|e| matches!(e.1, Operand | Optional));
            let line = vec!["x".to_string(); operands.count() + 1];
            let err = Args::parse(command.table, &line).err();
            assert_eq!(
                err.as_deref(),
                Some("unexpected operand \"x\""),
                "{}",
                command.name
            );
        }
        let err = Args::parse(table("inspect"), &args("--domain a.example")).err();
        assert_eq!(err.as_deref(), Some("missing FILE.html"));
    }

    #[test]
    fn help_names_every_table_entry() {
        let help = help();
        for (command, &(name, _, _)) in entries() {
            let section = command.help();
            assert!(help.contains(&section), "{}", command.name);
            let mut lines = section.lines().map(|l| l.split_whitespace().next());
            assert!(
                lines.any(|entry| entry == Some(name)),
                "{} {name}",
                command.name
            );
        }
        let flags = entries().filter(|(_, e)| !matches!(e.1, Operand | Optional));
        assert_eq!(flags.count(), 38, "every command x flag entry");
    }
}
