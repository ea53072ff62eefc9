//! §8 — insecure Adobe Flash: usage decay across rank tiers (Figure 8),
//! the `AllowScriptAccess` audit (Figure 11), and the post-EOL census.

use webvuln_cvedb::Date;
#[cfg(test)]
use {crate::dataset::testkit::Kept, crate::stats::mean};

/// Flash's end-of-life date (Adobe, Jan 1 2021).
pub fn flash_eol() -> Date {
    Date::new(2021, 1, 1)
}

/// Figure 8: weekly Flash usage, overall and for top-rank tiers.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashUsage {
    /// `(date, all sites with Flash, top-10K sites, top-1K sites)`.
    pub points: Vec<(Date, usize, usize, usize)>,
    /// Average sites with Flash across the study.
    pub average: f64,
    /// Average sites with Flash after EOL.
    pub average_after_eol: f64,
}

/// Builds Figure 8. Rank tiers scale with the dataset: "top-10K" and
/// "top-1K" become the top 1% and top 0.1% of the simulated list when it
/// is smaller than the real Alexa 1M.
/// Test-only: the one-shot reference [`crate::accum::FlashAccum`] is pinned against.
#[cfg(test)]
pub(crate) fn flash_usage(data: &Kept) -> FlashUsage {
    let population = data.ranks.len().max(1);
    let tier_10k = tier_cutoff(population, 10_000);
    let tier_1k = tier_cutoff(population, 1_000);
    let points: Vec<(Date, usize, usize, usize)> = data
        .weeks
        .iter()
        .map(|week| {
            let mut all = 0usize;
            let mut top10k = 0usize;
            let mut top1k = 0usize;
            for (domain, page) in &week.pages {
                if page.flash.is_empty() {
                    continue;
                }
                all += 1;
                if let Some(rank) = data.rank(domain) {
                    if rank <= tier_10k {
                        top10k += 1;
                    }
                    if rank <= tier_1k {
                        top1k += 1;
                    }
                }
            }
            (week.date, all, top10k, top1k)
        })
        .collect();
    let average = mean(
        &points
            .iter()
            .map(|&(_, a, _, _)| a as f64)
            .collect::<Vec<_>>(),
    );
    let eol = flash_eol();
    let after: Vec<f64> = points
        .iter()
        .filter(|&&(d, ..)| d >= eol)
        .map(|&(_, a, _, _)| a as f64)
        .collect();
    FlashUsage {
        points,
        average,
        average_after_eol: mean(&after),
    }
}

/// Maps a real-web tier (e.g. top-10K of 1M) onto the simulated list.
pub(crate) fn tier_cutoff(population: usize, real_tier: usize) -> usize {
    if population >= 1_000_000 {
        real_tier
    } else {
        // Preserve the tier's *fraction* of the list.
        (population * real_tier / 1_000_000).max(1)
    }
}

/// §8's country breakdown: which TLDs keep Flash after end-of-life.
/// (The paper's top-10K census found 4 of 13 post-EOL Flash sites were
/// Chinese, sustained by the 360-Browser/flash.cn ecosystem.)
#[derive(Debug, Clone, PartialEq)]
pub struct FlashByTld {
    /// `(tld, sites with Flash at the final snapshot)`, descending.
    pub counts: Vec<(String, usize)>,
    /// Share of post-EOL Flash sites under `.cn`.
    pub cn_share: f64,
    /// Share of *all* sites under `.cn` (the base rate, for contrast).
    pub cn_base_rate: f64,
}

/// Builds the post-EOL Flash TLD census from the final snapshot.
/// Test-only: the one-shot reference [`crate::accum::FlashAccum`] is pinned against.
#[cfg(test)]
pub(crate) fn flash_by_tld(data: &Kept) -> FlashByTld {
    let mut counts: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    let mut cn_flash = 0usize;
    let mut flash_total = 0usize;
    let mut cn_all = 0usize;
    let mut all = 0usize;
    if let Some(week) = data.weeks.last() {
        for (domain, page) in &week.pages {
            let tld = domain.rsplit('.').next().unwrap_or("").to_string();
            all += 1;
            if tld == "cn" {
                cn_all += 1;
            }
            if page.flash.is_empty() {
                continue;
            }
            flash_total += 1;
            if tld == "cn" {
                cn_flash += 1;
            }
            *counts.entry(tld).or_default() += 1;
        }
    }
    let mut counts: Vec<(String, usize)> = counts.into_iter().collect();
    counts.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    FlashByTld {
        counts,
        cn_share: cn_flash as f64 / flash_total.max(1) as f64,
        cn_base_rate: cn_all as f64 / all.max(1) as f64,
    }
}

/// Figure 11: the `AllowScriptAccess` audit.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptAccessAudit {
    /// `(date, flash sites, sites setting the parameter, sites with "always")`.
    pub points: Vec<(Date, usize, usize, usize)>,
    /// Average share of Flash sites using the insecure `always` option.
    pub average_always_share: f64,
    /// `always` share in the first quarter of the study.
    pub early_always_share: f64,
    /// `always` share in the last quarter of the study.
    pub late_always_share: f64,
}

/// Builds Figure 11.
/// Test-only: the one-shot reference [`crate::accum::FlashAccum`] is pinned against.
#[cfg(test)]
pub(crate) fn script_access_audit(data: &Kept) -> ScriptAccessAudit {
    let points: Vec<(Date, usize, usize, usize)> = data
        .weeks
        .iter()
        .map(|week| {
            let mut flash = 0usize;
            let mut with_param = 0usize;
            let mut always = 0usize;
            for page in week.pages.values() {
                if page.flash.is_empty() {
                    continue;
                }
                flash += 1;
                let param = page
                    .flash
                    .iter()
                    .find_map(|f| f.allow_script_access.as_deref());
                if let Some(value) = param {
                    with_param += 1;
                    if value == "always" {
                        always += 1;
                    }
                }
            }
            (week.date, flash, with_param, always)
        })
        .collect();
    let share = |slice: &[(Date, usize, usize, usize)]| {
        let shares: Vec<f64> = slice
            .iter()
            .filter(|&&(_, flash, ..)| flash > 0)
            .map(|&(_, flash, _, always)| always as f64 / flash as f64)
            .collect();
        mean(&shares)
    };
    let quarter = (points.len() / 4).max(1);
    ScriptAccessAudit {
        average_always_share: share(&points),
        early_always_share: share(&points[..quarter]),
        late_always_share: share(&points[points.len() - quarter..]),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::FlashAccum;
    use crate::dataset::testkit::{self, Over};
    use webvuln_cvedb::VulnDb;

    #[test]
    fn flash_eol_constant_is_correct() {
        assert_eq!(flash_eol(), Date::new(2021, 1, 1));
        assert_eq!(flash_eol().day_number(), 18_628);
    }

    #[test]
    fn fig8_flash_decays_but_survives_eol() {
        let data = testkit::long();
        let usage = FlashAccum::over(data, &VulnDb::builtin()).usage();
        let first = usage.points.first().expect("non-empty").1;
        let last = usage.points.last().expect("non-empty").1;
        assert!(first > 0, "flash exists at the start");
        assert!(
            (last as f64) < first as f64 * 0.7,
            "decay: {first} -> {last}"
        );
        assert!(
            usage.average_after_eol > 0.0,
            "zombie flash persists after EOL (paper: 3,553 sites)"
        );
    }

    #[test]
    fn fig11_audit_is_structurally_sound() {
        let data = testkit::long();
        let audit = FlashAccum::over(data, &VulnDb::builtin()).script_access();
        assert_eq!(audit.points.len(), data.week_count());
        for &(_, flash, with_param, always) in &audit.points {
            assert!(always <= with_param, "always ⊆ param setters");
            assert!(with_param <= flash, "param setters ⊆ flash sites");
        }
        // The rising-`always`-share dynamic itself is asserted on a 30k
        // population in webvuln-webgen (always_share_rises_among_survivors);
        // this 700-domain dataset has too few param-bearing Flash sites
        // for a stable share estimate, so only bounds are checked here.
        assert!((0.0..=1.0).contains(&audit.average_always_share));
        assert!(audit.early_always_share >= 0.0);
        assert!(audit.late_always_share >= 0.0);
    }

    #[test]
    fn cn_sites_overrepresented_in_post_eol_flash() {
        let data = testkit::long();
        let census = FlashAccum::over(data, &VulnDb::builtin()).by_tld();
        // The .cn multiplier in the model (3x presence, 0.4x removal)
        // must surface as over-representation relative to the base rate —
        // §8's "why do Chinese websites still use Flash" finding.
        if census.counts.iter().map(|&(_, c)| c).sum::<usize>() >= 5 {
            assert!(
                census.cn_share > census.cn_base_rate,
                "cn flash share {:.3} vs base rate {:.3}",
                census.cn_share,
                census.cn_base_rate
            );
        }
        for w in census.counts.windows(2) {
            assert!(w[0].1 >= w[1].1, "descending");
        }
    }

    #[test]
    fn tier_counts_are_monotone() {
        let data = testkit::long();
        let usage = FlashAccum::over(data, &VulnDb::builtin()).usage();
        for &(_, all, top10k, top1k) in &usage.points {
            assert!(top1k <= top10k);
            assert!(top10k <= all);
        }
    }
}
