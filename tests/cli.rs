//! The `webvuln` binary driven as a user drives it: each command's flag
//! table refuses what it does not list, names what is wrong with exit 2,
//! and a reader that closes stdout early never turns into a panic.

use std::process::{Command, Output, Stdio};

/// Every command with every entry of its table, flags and operands.
const TABLES: [(&str, &str); 7] = [
    (
        "study",
        "--domains --weeks --seed --threads --csv --retries --fault-profile --carry-forward \
         --store --resume --shards --progress --max-task-failures --telemetry --trace",
    ),
    ("validate", "REPORT_ID"),
    (
        "crawl",
        "--domains --week --retries --threads --fault-profile --tcp --telemetry",
    ),
    ("inspect", "FILE.html --domain"),
    ("store", "ACTION PATH OUT.json --repair"),
    (
        "serve",
        "--store --threads --port --cache --max-conns --requests --watch",
    ),
    (
        "watch",
        "ROOT --ticks --threads --shards --pause-ms --restarts --telemetry",
    ),
];

fn webvuln(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_webvuln"))
        .args(args)
        .output()
        .expect("run webvuln")
}

/// Asserts a usage error: exit 2, with `needle` on stderr.
fn refused(args: &[&str], needle: &str) {
    let out = webvuln(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(needle),
        "{args:?} must name {needle}: {stderr}"
    );
}

#[test]
fn an_unlisted_flag_or_an_extra_operand_exits_2_naming_it() {
    refused(
        &["validate", "CVE-2020-7656", "CVE-2020-11022"],
        "CVE-2020-11022",
    );
    refused(&["study", "--domian", "40"], "--domian");
    refused(
        &["crawl", "--tcp", "--week", "3", "--retry", "2"],
        "--retry",
    );
    refused(&["study", "--domains", "2k"], "--domains");
    refused(&["serve", "--store", "s", "--port", "70000"], "--port");
    refused(&["study", "--store", "--resume"], "--store needs a value");
    refused(&["watch", "ROOT", "--stall-ms", "5"], "--stall-ms");
}

#[test]
fn a_flag_that_cannot_apply_exits_2_naming_what_it_needs() {
    refused(&["study", "--domains", "10", "--resume"], "--store");
    refused(&["study", "--domains", "10", "--shards", "4"], "--store");
    refused(
        &["crawl", "--tcp", "--fault-profile", "none"],
        "--fault-profile",
    );
}

#[test]
fn a_week_outside_the_paper_timeline_exits_2_naming_the_range() {
    refused(
        &["crawl", "--week", "201"],
        "--week: 201 is outside the paper's timeline, 0 to 200",
    );
    refused(&["crawl", "--week", "500", "--tcp"], "0 to 200");
    refused(
        &["study", "--weeks", "202"],
        "--weeks: 202 is outside the paper's timeline, 1 to 201",
    );
    refused(
        &["study", "--weeks", "0"],
        "--weeks: 0 is outside the paper's timeline, 1 to 201",
    );
    let out = webvuln(&["crawl", "--domains", "3", "--week", "200"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn a_run_over_no_domains_exits_2_naming_the_range() {
    refused(
        &["study", "--domains", "0"],
        "--domains: 0 is out of range, 1 or more",
    );
    refused(
        &["crawl", "--domains", "0"],
        "--domains: 0 is out of range, 1 or more",
    );
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    for args in [
        &["study", "--domains", "40", "--weeks", "2"][..],
        &["validate"],
        &["help"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_webvuln"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn webvuln");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for webvuln");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn help_names_every_entry_of_every_table() {
    let out = webvuln(&["help"]);
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).expect("utf-8 help");
    // A section opens with `webvuln COMMAND ...`; an entry line is two
    // spaces, the entry (with its value), two or more spaces, its help.
    let mut sections: Vec<(&str, Vec<&str>)> = Vec::new();
    for line in help.lines() {
        let usage = line.strip_prefix("webvuln ");
        if let Some(usage) = usage.filter(|u| u.starts_with(char::is_alphabetic)) {
            let command = usage.split_whitespace().next().unwrap_or_default();
            sections.push((command, Vec::new()));
        } else if let (Some(entry), Some((_, entries))) =
            (line.strip_prefix("  "), sections.last_mut())
        {
            if entry.starts_with(' ') {
                continue; // a help text's continuation line
            }
            let columns = entry.split("  ").filter(|c| !c.trim().is_empty()).count();
            assert_eq!(columns, 2, "entry without help: {line:?}");
            entries.push(entry.split_whitespace().next().unwrap_or_default());
        }
    }
    let tables = TABLES.map(|(command, entries)| (command, entries.split_whitespace()));
    let want: Vec<(&str, Vec<&str>)> = tables
        .clone()
        .into_iter()
        .map(|(command, entries)| (command, entries.collect()))
        .collect();
    assert_eq!(sections, want);
    let flags = want.iter().flat_map(|(_, entries)| entries);
    assert_eq!(
        flags.filter(|e| e.starts_with("--")).count(),
        37,
        "command x flag entries"
    );

    // Each flag help lists is one its command parses: followed by an
    // unlisted flag, only the unlisted one (or a missing value) is named.
    for (command, entries) in tables {
        for flag in entries.filter(|e| e.starts_with("--")) {
            let out = webvuln(&[command, flag, "--no-such-flag"]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{command} {flag}: {stderr}");
            let named = stderr.contains("unknown flag --no-such-flag")
                || stderr.contains(&format!("{flag} needs a value"));
            assert!(named, "{command} {flag}: {stderr}");
        }
    }
}

/// `watch` over a sharded store the CLI built: three supervised ticks
/// apply the landed CVE delta in one walk, settle nothing (a finished
/// study's verdict never moves) and say so in the summary, refolds by the
/// domains they read again.
#[test]
fn watch_summarizes_its_ticks_by_the_domains_it_refolded() {
    let root = std::env::temp_dir().join(format!("webvuln-cli-watch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = root.join("store");
    let store = store.to_str().expect("utf-8 path");
    let built = webvuln(&[
        "study",
        "--domains",
        "60",
        "--weeks",
        "3",
        "--store",
        store,
        "--shards",
        "4",
    ]);
    assert!(built.status.success(), "{built:?}");
    std::fs::create_dir_all(root.join("deltas")).expect("create deltas");
    let delta = "# webvuln cve delta v1\nid: CVE-2099-9999\nlibrary: jquery\n\
                 claimed: < 9.0.0\nattack: xss\ndisclosed: 2022-01-01\n";
    std::fs::write(root.join("deltas/batch.cvedelta"), delta).expect("land delta");
    let out = webvuln(&[
        "watch",
        root.to_str().expect("utf-8 path"),
        "--ticks",
        "3",
        "--pause-ms",
        "0",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.contains(&"ticks:      3 (0 weeks ingested, 0 skipped, 0 refolds of 0 domains)"),
        "{stdout}"
    );
    assert!(
        lines
            .iter()
            .any(|line| line.starts_with("deltas:     1 applied")),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&root);
}
