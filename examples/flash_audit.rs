//! §8 standalone: the Adobe Flash end-of-life audit.
//!
//! ```sh
//! cargo run --release --example flash_audit -- [domains]
//! ```
//!
//! Tracks Flash usage across the four-year timeline, the post-EOL zombie
//! population, the `AllowScriptAccess` hygiene trend, and the browser
//! ecosystem that keeps Flash alive (Table 3).

use std::sync::Arc;
use webvuln::analysis::accum::{fold_store, AccumCtx, FlashAccum};
use webvuln::analysis::dataset::Collector;
use webvuln::analysis::flash::flash_eol;
use webvuln::core::render_table3;
use webvuln::cvedb::VulnDb;
use webvuln::webgen::{Ecosystem, EcosystemConfig, Timeline};

fn main() {
    let domains: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4_000);
    eprintln!("collecting {domains} domains x 201 weeks …");
    let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
        seed: 1_337,
        domain_count: domains,
        timeline: Timeline::paper(),
    }));
    let outcome = Collector::new().run(&eco).expect("collection");
    let db = VulnDb::builtin();
    let ctx = AccumCtx {
        db: &db,
        ranks: &outcome.dataset.ranks,
    };
    let filtered = outcome.dataset.filtered_out.iter().cloned().collect();
    let flash: FlashAccum = fold_store(&outcome.reader, &ctx, 8, &filtered).expect("fold");
    let usage = flash.usage();
    println!("Figure 8 — Flash usage over the study");
    let eol = flash_eol();
    for (i, &(date, all, top10k, top1k)) in usage.points.iter().enumerate() {
        if i % 13 == 0 {
            let marker = if date >= eol { " (post-EOL)" } else { "" };
            println!("  {date}: {all:>5} sites (top-tiers: {top10k} / {top1k}){marker}");
        }
    }
    println!(
        "  average {:.0} sites; after EOL {:.0} sites still serve Flash\n",
        usage.average, usage.average_after_eol
    );

    let audit = flash.script_access();
    println!("Figure 11 — AllowScriptAccess audit");
    println!(
        "  insecure 'always' share: {:.1}% early -> {:.1}% late (avg {:.1}%)",
        100.0 * audit.early_always_share,
        100.0 * audit.late_always_share,
        100.0 * audit.average_always_share
    );
    println!();
    println!("{}", render_table3());
    println!("paper: ~3,553 sites still used Flash after EOL; 'always' grew ~21% -> ~30%");
}
