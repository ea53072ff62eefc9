//! `wvbench` — the webvuln benchmark harness.
//!
//! ```text
//! wvbench [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--scale full|smoke]
//! ```
//!
//! Runs one workload (or, without `--workload`, all four) and prints the
//! result as the last line of standard output: one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
//! the metrics are the end-to-end ones, with `--trace 1` the per-layer
//! ones; `BENCHMARK.json` at the repository root declares both sets.
//!
//! The harness calls the program only through the `webvuln` facade and
//! times each layer's public functions from outside. Each workload runs
//! as re-executed children of this binary — set-up children, then one
//! run child — so the run child's peak memory and CPU time belong to the
//! timed section alone.

#![deny(deprecated)]
#![forbid(unsafe_code)]

mod probe;
mod reference;
mod spans;
mod sys;
mod workloads;

use spans::Recorder;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use sys::{json_string, median, Outcome};
use workloads::{Ctx, Plan, Workload};

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Where build outputs, work directories and trace files live.
    target: PathBuf,
    /// `setup` or `run` in a child process; the driver otherwise.
    child: Option<String>,
    work: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: wvbench [--workload study_fresh|refold_long|watch_live|serve_mixed] \
         [--seed N] [--seconds S] [--trace [0|1]] [--scale full|smoke]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        smoke: false,
        target: PathBuf::from("benchmark/target"),
        child: None,
        work: PathBuf::new(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        let mut takes_value = true;
        match (args[i].as_str(), value) {
            ("--workload", Some(v)) => opts.workload = Some(Workload::parse(v).unwrap_or_else(|| usage())),
            ("--seed", Some(v)) => opts.seed = v.parse().unwrap_or_else(|_| usage()),
            ("--seconds", Some(v)) => opts.seconds = v.parse().unwrap_or_else(|_| usage()),
            ("--trace", Some("0")) => opts.trace = false,
            ("--trace", Some("1")) => opts.trace = true,
            ("--trace", _) => {
                opts.trace = true;
                takes_value = false;
            }
            ("--scale", Some("full")) => opts.smoke = false,
            ("--scale", Some("smoke")) => opts.smoke = true,
            ("--target", Some(v)) => opts.target = PathBuf::from(v),
            ("--child", Some(v)) => opts.child = Some(v.to_string()),
            ("--work", Some(v)) => opts.work = PathBuf::from(v),
            _ => usage(),
        }
        i += if takes_value { 2 } else { 1 };
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        usage();
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_args();
    let plan = if opts.smoke { Plan::smoke() } else { Plan::full() };
    if let Some(child) = &opts.child {
        let workload = opts.workload.unwrap_or_else(|| usage());
        let ctx = Ctx {
            plan,
            seed: opts.seed,
            seconds: opts.seconds,
            work: opts.work.clone(),
        };
        let (outcome, file) = match child.as_str() {
            "setup" => (workloads::setup(&ctx, workload), "setup.result"),
            "run" => (run_child(&ctx, workload, &opts), "run.result"),
            _ => usage(),
        };
        outcome.save(&opts.work.join(file)).expect("write result file");
        return ExitCode::SUCCESS;
    }

    // run.sh says how it built this binary and from which commit.
    let env = |name: &str| json_string(&std::env::var(name).unwrap_or_else(|_| "unknown".into()));
    println!(
        "{{\"host\": {{\"nproc\": {}, \"build\": {}, \"rustc\": {}, \"commit\": {}}}}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env("WVBENCH_BUILD"),
        env("WVBENCH_RUSTC"),
        env("WVBENCH_COMMIT"),
    );
    let mut all_correct = true;
    let mut results = Vec::new();
    for workload in Workload::ALL {
        if opts.workload.is_some_and(|w| w != workload) {
            continue;
        }
        let outcome = match drive(&opts, &plan, workload) {
            Ok(outcome) => outcome,
            Err(err) => {
                eprintln!("wvbench: {}: {err}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        for failure in &outcome.failures {
            eprintln!("wvbench: {}: FAILED {failure}", workload.name());
        }
        all_correct &= outcome.failed == 0;
        results.push((workload, outcome));
    }
    match (&opts.workload, results.as_slice()) {
        (Some(_), [(_, outcome)]) => println!("{}", outcome.to_json()),
        _ => {
            let parts: Vec<String> = results
                .iter()
                .map(|(w, o)| format!("{}: {}", json_string(w.name()), o.to_json()))
                .collect();
            println!("{{\"workloads\": {{{}}}}}", parts.join(", "));
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload's children and merges what they report. The work
/// directory is private to this process and removed on success.
fn drive(opts: &Options, plan: &Plan, workload: Workload) -> Result<Outcome, String> {
    let work = opts
        .target
        .join("work")
        .join(format!("{}-{}", workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let child = |kind: &str| -> Result<Outcome, String> {
        let status = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
            .args(["--child", kind, "--workload", workload.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .args(["--scale", if opts.smoke { "smoke" } else { "full" }])
            .arg("--target")
            .arg(&opts.target)
            .arg("--work")
            .arg(&work)
            .status()
            .map_err(|e| format!("spawn {kind} child: {e}"))?;
        if !status.success() {
            return Err(format!("{kind} child ended with {status}"));
        }
        Outcome::load(&work.join(format!("{kind}.result"))).map_err(|e| format!("{kind} result: {e}"))
    };
    // Set-up runs several times and the median is reported, so that one
    // slow start does not read as a set-up regression.
    let mut setup_s = Vec::new();
    for _ in 0..plan.setup_reps {
        setup_s.push(child("setup")?.metrics["setup_s"].value);
    }
    let mut outcome = child("run")?;
    if !opts.trace {
        outcome.metric("setup_s", "s", median(&setup_s));
    }
    if outcome.failed == 0 {
        let _ = std::fs::remove_dir_all(&work);
    } else {
        eprintln!("wvbench: work directory kept at {}", work.display());
    }
    Ok(outcome)
}

/// The run child: the timed section with tracing off; or, for a traced
/// run, the timed section twice (off, then on, to read the overhead),
/// the trace file, and the per-layer probe.
fn run_child(ctx: &Ctx, workload: Workload, opts: &Options) -> Outcome {
    if !opts.trace {
        let mut off = Recorder::new(false, Instant::now(), 0);
        let timed = workloads::run_timed(ctx, workload, ctx.seconds, &mut off);
        eprintln!(
            "wvbench: {}: {} units of work, {} items; unit ms as measured: min {:.3} median {:.3} \
             max {:.3}; at reference speed: median {:.3} (reference slice median {:.3} ms, nominal {})",
            workload.name(),
            timed.unit_ms.len(),
            timed.items,
            sys::percentile(&timed.raw_unit_ms, 0.0),
            median(&timed.raw_unit_ms),
            sys::percentile(&timed.raw_unit_ms, 1.0),
            median(&timed.unit_ms),
            timed.host.median_slice_ms(),
            reference::NOMINAL_SLICE_MS,
        );
        let mut outcome = timed.end_to_end();
        outcome.absorb(timed.outcome);
        return outcome;
    }
    let half = ctx.seconds / 2.0;
    let mut off = Recorder::new(false, Instant::now(), 0);
    let plain = workloads::run_timed(ctx, workload, half, &mut off);
    let mut rec = Recorder::new(true, Instant::now(), 0);
    let traced = workloads::run_timed(ctx, workload, half, &mut rec);
    let (plain_ms, traced_ms) = (median(&plain.unit_ms), median(&traced.unit_ms));
    let mut outcome = probe::run(ctx, &mut rec);
    // The per-layer numbers are as measured; this says how fast the host
    // was while they were.
    let mut slices = plain.host.slice_ms.clone();
    slices.extend(&traced.host.slice_ms);
    outcome.metric("host.reference_slice_ms", "ms", median(&slices));
    // How far the per-layer numbers can be trusted: what the spans and
    // the injected telemetry handle cost the workload itself.
    outcome.metric("trace.overhead_share", "ratio", (traced_ms - plain_ms) / plain_ms);
    outcome.absorb(plain.outcome);
    outcome.absorb(traced.outcome);
    let mut recorders = vec![rec];
    recorders.extend(traced.client_recorders);
    let path = opts.target.join(format!("trace-{}.json", workload.name()));
    spans::write_chrome_trace(&path, workload.name(), ctx.seed, &recorders).expect("write trace file");
    eprintln!("wvbench: trace written to {}", path.display());
    outcome
}
