//! Text rendering of the study's tables and figure summaries — what the
//! examples and the bench harness print, row-for-row shaped like the
//! paper's artifacts.

use crate::study::StudyResults;
use std::fmt::Write as _;
use webvuln_analysis::stats::pct;
use webvuln_cvedb::{browser_flash_support, Accuracy};

/// Renders Table 1 (top-15 library usage/inclusion/version/vulns).
pub fn render_table1(results: &StudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1 — Top 15 JavaScript library usage, inclusion type, version, vulnerabilities"
    );
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>7} {:>7} {:>7} {:>6}/{:<6} {:>18} {:>9} {:>6}",
        "Library",
        "AvgSites",
        "Usage",
        "Int.",
        "CDN",
        "Found",
        "Total",
        "Dominant",
        "Latest",
        "#Vul."
    );
    for row in &results.table1 {
        let dominant = row
            .dominant
            .as_ref()
            .map(|(v, share)| format!("v{v} ({})", pct(*share)))
            .unwrap_or_else(|| "-".to_string());
        let latest = row
            .latest_observed
            .as_ref()
            .map(|v| format!("v{v}"))
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "{:<16} {:>10.0} {:>7} {:>7} {:>7} {:>6}/{:<6} {:>18} {:>9} {:>6}",
            row.library.name(),
            row.average_sites,
            pct(row.usage_share),
            pct(row.internal_share),
            pct(row.cdn_share),
            row.versions_found,
            row.versions_total,
            dominant,
            latest,
            row.vuln_reports,
        );
    }
    out
}

/// Renders Table 2 (per-vulnerability impact, CVE vs TVV, accuracy).
pub fn render_table2(results: &StudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2 — Vulnerabilities of the top libraries: claimed vs true impact"
    );
    let _ = writeln!(
        out,
        "{:<26} {:<15} {:>12} {:>12} {:>12}",
        "Report", "Library", "Claimed", "TrueVuln", "Accuracy"
    );
    for impact in &results.cve_impacts {
        let record = results.db.record(&impact.id).expect("impact from db");
        let _ = writeln!(
            out,
            "{:<26} {:<15} {:>12.1} {:>12.1} {:>12}",
            impact.id,
            record.library.name(),
            impact.claimed_average,
            impact.true_average,
            record.paper_accuracy().to_string(),
        );
    }
    out
}

/// Renders Table 3 (browser Flash support — the paper's manual survey).
pub fn render_table3() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3 — Top 10 desktop browsers: market share and Flash support"
    );
    let _ = writeln!(out, "{:<16} {:>8} {:>7}", "Browser", "Share", "Flash");
    for row in browser_flash_support() {
        let _ = writeln!(
            out,
            "{:<16} {:>7.2}% {:>7}",
            row.name,
            row.market_share,
            if row.flash_support { "Y" } else { "N" }
        );
    }
    out
}

/// Renders Table 4 (WordPress CVEs and affected sites).
pub fn render_table4(results: &StudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 4 — WordPress CVEs (5 most recent, 5 most severe)"
    );
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>10} {:>10} {:>10}",
        "CVE", "Disclosed", "Patched", "#Sites", "Share"
    );
    for row in &results.table4 {
        let _ = writeln!(
            out,
            "{:<18} {:>12} {:>10} {:>10} {:>10}",
            row.cve.id,
            row.cve.disclosed.to_string(),
            row.cve.patched_version.to_string(),
            row.affected_sites,
            pct(row.affected_share),
        );
    }
    out
}

/// Renders Table 5 (top CDNs per library).
pub fn render_table5(results: &StudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 5 — Top 3 CDNs per JavaScript library");
    for breakdown in &results.table5 {
        let _ = write!(out, "{:<16}", breakdown.library.name());
        for (host, share) in &breakdown.hosts {
            let _ = write!(out, " {host} ({})", pct(*share));
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders Table 6 (GitHub-hosted inclusions).
pub fn render_table6(results: &StudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 6 — Libraries loaded directly from GitHub hosts");
    let _ = writeln!(
        out,
        "average sites/week: {:.1}; integrity-protected inclusions: {}",
        results.github.average_sites,
        pct(results.github.sri_share)
    );
    for (host, count) in results.github.hosts.iter().take(10) {
        let _ = writeln!(out, "  {host:<42} {count:>8} inclusions");
    }
    for (domain, rank) in results.github.top_tier_sites.iter().take(10) {
        let _ = writeln!(out, "  top-tier user: {domain} (rank {rank})");
    }
    out
}

/// Renders the §6.4 version-validation summary (Figures 4/13 in text).
pub fn render_validation(results: &StudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "§6.4 — Version Validation Experiment");
    let mut incorrect = 0;
    for report in results.validations {
        if report.accuracy == Accuracy::Accurate {
            continue;
        }
        incorrect += 1;
        let _ = writeln!(
            out,
            "{:<26} {:<12} swept {:>3} versions: {:>3} vulnerable, {:>3} understated, {:>3} overstated -> {}",
            report.id,
            report.library.name(),
            report.environments(),
            report.vulnerable.len(),
            report.understated.len(),
            report.overstated.len(),
            report.accuracy,
        );
    }
    let _ = writeln!(
        out,
        "incorrect reports: {incorrect} of {}",
        results.validations.len()
    );
    out
}

/// Renders the headline findings (§6.2, §6.4, §7, §8 takeaways).
pub fn render_headlines(results: &StudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Headline findings");
    let _ = writeln!(
        out,
        "  collected pages/week (avg):          {:.0}",
        results.collection.average
    );
    let _ = writeln!(
        out,
        "  vulnerable sites (CVE ranges, avg):  {}",
        pct(results.prevalence_claimed.average)
    );
    let _ = writeln!(
        out,
        "  vulnerable sites (TVV, avg):         {}",
        pct(results.prevalence_tvv.average)
    );
    let _ = writeln!(
        out,
        "  vulns per site (CVE mean/median):    {:.2} / {:.2}",
        results.fig12_claimed.mean, results.fig12_claimed.median
    );
    let _ = writeln!(
        out,
        "  vulns per site (TVV mean/median):    {:.2} / {:.2}",
        results.fig12_tvv.mean, results.fig12_tvv.median
    );
    let _ = writeln!(
        out,
        "  update delay (CVE ranges):           {:.1} days (macro {:.1}) over {} sites",
        results.delays_claimed.mean_delay_days,
        results.delays_claimed.macro_mean_delay_days,
        results.delays_claimed.websites
    );
    let _ = writeln!(
        out,
        "  update delay (TVV):                  {:.1} days (macro {:.1}) over {} sites",
        results.delays_tvv.mean_delay_days,
        results.delays_tvv.macro_mean_delay_days,
        results.delays_tvv.websites
    );
    let _ = writeln!(
        out,
        "  WordPress share of update events:    {}",
        pct(results.delays_claimed.wordpress_share)
    );
    let _ = writeln!(
        out,
        "  WordPress usage (avg):               {}",
        pct(results.wordpress.average_share)
    );
    let _ = writeln!(
        out,
        "  Flash sites avg / after EOL:         {:.0} / {:.0}",
        results.flash.average, results.flash.average_after_eol
    );
    let _ = writeln!(
        out,
        "  sites with unprotected externals:    {}",
        pct(results.sri.average_unprotected_share)
    );
    let _ = writeln!(
        out,
        "  crossorigin anonymous / credentials: {} / {}",
        pct(results.crossorigin.anonymous_share),
        pct(results.crossorigin.use_credentials_share)
    );
    let back_vuln = results
        .regressions
        .iter()
        .filter(|r| r.back_into_vulnerable)
        .count();
    let _ = writeln!(
        out,
        "  update regressions observed:         {} ({} back into vulnerable ranges)",
        results.regressions.len(),
        back_vuln
    );
    let _ = writeln!(
        out,
        "  post-EOL Flash: .cn share vs base:   {} vs {}",
        pct(results.flash_by_tld.cn_share),
        pct(results.flash_by_tld.cn_base_rate)
    );
    out
}

/// Renders the run's telemetry snapshot: the phase-timing table followed
/// by crawler and fingerprint counters. Empty snapshots render a stub so
/// the report shape stays stable.
pub fn render_telemetry(results: &StudyResults) -> String {
    let body = results.telemetry.render();
    if body.is_empty() {
        return "Run telemetry — none recorded\n".to_string();
    }
    format!("Run telemetry\n{body}")
}

/// The run's telemetry snapshot as machine-readable JSON (stable key
/// order, durations in integer nanoseconds).
pub fn telemetry_json(results: &StudyResults) -> String {
    results.telemetry.to_json()
}

/// Renders the crawl-resilience summary: how many fetches were retried,
/// how many recovered, how many were skipped by an open circuit breaker,
/// and how many weekly snapshots were carried forward for downed domains.
pub fn render_resilience(results: &StudyResults) -> String {
    let snap = &results.telemetry;
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(out, "Crawl resilience");
    let _ = writeln!(
        out,
        "  retries attempted:          {}",
        counter("net.retries_total")
    );
    let _ = writeln!(
        out,
        "  recovered after retry:      {}",
        counter("net.retry_success_total")
    );
    let _ = writeln!(
        out,
        "  breaker-skipped fetches:    {}",
        counter("net.breaker_open_total")
    );
    let _ = writeln!(
        out,
        "  carried-forward snapshots:  {}",
        counter("net.carry_forward_total")
    );
    out
}

/// Renders the failure-containment summary: how many supervised tasks
/// panicked, how many blew their virtual deadline, the total quarantined
/// (each one degraded to a down-domain instead of aborting the run), and
/// how many wall-clock stalls the watchdog flagged.
pub fn render_containment(results: &StudyResults) -> String {
    let snap = &results.telemetry;
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(out, "Failure containment");
    let _ = writeln!(
        out,
        "  panicking tasks:            {}",
        counter("exec.panics_total")
    );
    let _ = writeln!(
        out,
        "  deadline-exceeded tasks:    {}",
        counter("exec.deadline_exceeded_total")
    );
    let _ = writeln!(
        out,
        "  quarantined (total):        {}",
        counter("exec.quarantined_total")
    );
    let _ = writeln!(
        out,
        "  watchdog-flagged stalls:    {}",
        counter("exec.stalls_total")
    );
    out
}

/// Renders the parallel-execution summary: pool size, executor tasks and
/// per-worker busy time from the `exec.*` metrics the executor records.
pub fn render_parallelism(results: &StudyResults) -> String {
    let snap = &results.telemetry;
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(out, "Parallel execution");
    let _ = writeln!(
        out,
        "  worker pool size:           {}",
        snap.gauge("exec.workers").unwrap_or(0)
    );
    let _ = writeln!(
        out,
        "  executor tasks:             {}",
        counter("exec.tasks_total")
    );
    if let Some(busy) = snap.histogram("exec.worker_busy_ns") {
        let _ = writeln!(
            out,
            "  worker busy time:           {} samples, mean {}ns, max {}ns",
            busy.count, busy.mean, busy.max
        );
    }
    out
}

/// Renders the "Top cost centers" section from a run's trace: the
/// top-K fingerprint patterns by VM steps, the top-K slowest domains,
/// and the per-phase timeline. Empty when the run was not traced.
pub fn render_cost_centers(results: &StudyResults) -> String {
    match &results.trace {
        Some(trace) => trace.render_top_cost_centers(10),
        None => String::new(),
    }
}

/// The complete text report.
pub fn full_report(results: &StudyResults) -> String {
    let mut out = String::new();
    out.push_str(&render_headlines(results));
    out.push('\n');
    out.push_str(&render_table1(results));
    out.push('\n');
    out.push_str(&render_table2(results));
    out.push('\n');
    out.push_str(&render_validation(results));
    out.push('\n');
    out.push_str(&render_table3());
    out.push('\n');
    out.push_str(&render_table4(results));
    out.push('\n');
    out.push_str(&render_table5(results));
    out.push('\n');
    out.push_str(&render_table6(results));
    out.push('\n');
    out.push_str(&render_telemetry(results));
    out.push('\n');
    out.push_str(&render_resilience(results));
    out.push('\n');
    out.push_str(&render_containment(results));
    out.push('\n');
    out.push_str(&render_parallelism(results));
    // Appended last, and only for traced runs, so untraced reports keep
    // their historical shape byte-for-byte.
    let cost_centers = render_cost_centers(results);
    if !cost_centers.is_empty() {
        out.push('\n');
        out.push_str(&cost_centers);
    }
    out
}

/// Serializes a `(date, value)` series to CSV.
pub fn series_to_csv<V: std::fmt::Display>(
    name: &str,
    points: impl IntoIterator<Item = (webvuln_cvedb::Date, V)>,
) -> String {
    let mut out = format!("date,{name}\n");
    for (date, value) in points {
        let _ = writeln!(out, "{date},{value}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{Pipeline, StudyConfig};
    use std::sync::OnceLock;
    use webvuln_webgen::Timeline;

    fn results() -> &'static StudyResults {
        static RESULTS: OnceLock<StudyResults> = OnceLock::new();
        RESULTS.get_or_init(|| {
            Pipeline::new(StudyConfig::quick())
                .domains(300)
                .timeline(Timeline::truncated(12))
                .run()
                .expect("study")
        })
    }

    #[test]
    fn tables_render_without_panicking_and_contain_keys() {
        let r = results();
        let t1 = render_table1(r);
        assert!(t1.contains("jQuery"));
        assert!(t1.contains("Bootstrap"));
        let t2 = render_table2(r);
        assert!(t2.contains("CVE-2020-7656"));
        assert!(t2.contains("understated"));
        let t3 = render_table3();
        assert!(t3.contains("360 Browser"));
        let t4 = render_table4(r);
        assert!(t4.contains("CVE-2022-21661"));
        let t5 = render_table5(r);
        assert!(t5.contains("ajax.googleapis.com"));
        let t6 = render_table6(r);
        assert!(t6.contains("average sites/week"));
    }

    #[test]
    fn validation_report_counts_incorrect() {
        let r = results();
        let v = render_validation(r);
        assert!(v.contains("incorrect reports: 13 of 27"), "{v}");
    }

    #[test]
    fn full_report_assembles() {
        let r = results();
        let report = full_report(r);
        assert!(report.len() > 2_000);
        assert!(report.contains("Headline findings"));
        assert!(report.contains("Table 6"));
        assert!(report.contains("Run telemetry"));
        assert!(report.contains("Crawl resilience"));
        assert!(report.contains("Failure containment"));
        assert!(report.contains("Parallel execution"));
        // The containment section sits after the telemetry block, so
        // report prefixes split at "Run telemetry" stay comparable
        // across runs whose only difference is quarantine counts.
        assert!(
            report.find("Run telemetry").unwrap() < report.find("Failure containment").unwrap()
        );
    }

    #[test]
    fn containment_summary_renders_counters() {
        let r = results();
        let text = render_containment(r);
        assert!(text.contains("panicking tasks"), "{text}");
        assert!(text.contains("quarantined (total):        0"), "{text}");
    }

    #[test]
    fn resilience_summary_renders_counters() {
        let r = results();
        let text = render_resilience(r);
        assert!(text.contains("retries attempted"), "{text}");
        assert!(text.contains("carried-forward snapshots"), "{text}");
    }

    #[test]
    fn telemetry_renders_text_and_json() {
        let r = results();
        let text = render_telemetry(r);
        assert!(text.contains("Phase timings"), "{text}");
        assert!(text.contains("crawl"), "{text}");
        assert!(text.contains("net.fetches_total"), "{text}");

        let json = telemetry_json(r);
        assert!(json.contains("\"net.fetches_total\""), "{json}");
        assert!(json.contains("\"path\":\"generate\""), "{json}");
        assert!(json.contains("\"spans\":["), "{json}");
    }

    #[test]
    fn traced_report_appends_cost_centers() {
        let telemetry =
            webvuln_telemetry::Telemetry::new().with_trace(webvuln_telemetry::TraceMode::Full);
        let traced = Pipeline::new(StudyConfig::quick())
            .domains(60)
            .timeline(Timeline::truncated(3))
            .telemetry(&telemetry)
            .run()
            .expect("study");
        let report = full_report(&traced);
        assert!(report.contains("Top cost centers"), "{report}");
        assert!(report.contains("patterns by VM steps"), "{report}");
        assert!(report.contains("slowest domains"), "{report}");
        // The section comes after everything else.
        assert!(
            report.find("Parallel execution").unwrap() < report.find("Top cost centers").unwrap()
        );
        // Untraced reports keep their historical shape: no section.
        assert!(!full_report(results()).contains("Top cost centers"));
        assert!(render_cost_centers(results()).is_empty());
    }

    #[test]
    fn csv_serialization() {
        let r = results();
        let csv = series_to_csv(
            "collected",
            r.collection.points.iter().map(|&(d, c)| (d, c)),
        );
        assert!(csv.starts_with("date,collected\n"));
        assert_eq!(csv.lines().count(), r.collection.points.len() + 1);
    }
}
