//! Desktop browser market share and Flash support (paper Table 3).
//!
//! The paper manually tested the top-10 desktop browsers on macOS 12.4 and
//! Windows 10 (May 26, 2023): every browser had removed Flash except
//! Qihoo's 360 Browser, whose Extreme edition still bundles a Flash player
//! and steers users to `www.flash.cn` — the ecosystem that keeps Chinese
//! websites on Flash after end-of-life (§8).

/// One Table 3 row.
#[derive(Debug, Clone, PartialEq)]
pub struct BrowserSupport {
    /// Browser name.
    pub name: &'static str,
    /// Worldwide desktop market share, percent (Apr 2022 – Apr 2023).
    pub market_share: f64,
    /// Whether the browser still plays Flash content.
    pub flash_support: bool,
}

/// The paper's Table 3, in market-share order.
pub fn browser_flash_support() -> Vec<BrowserSupport> {
    let row = |name, market_share, flash_support| BrowserSupport {
        name,
        market_share,
        flash_support,
    };
    vec![
        row("Chrome", 66.45, false),
        row("Edge", 10.8, false),
        row("Safari", 9.59, false),
        row("Firefox", 7.16, false),
        row("Opera", 3.09, false),
        row("IE", 0.81, false),
        row("360 Browser", 0.66, true),
        row("Yandex Browser", 0.39, false),
        row("QQ Browser", 0.20, false),
        row("Edge Legacy", 0.16, false),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_one_browser_still_supports_flash() {
        let rows = browser_flash_support();
        assert_eq!(rows.len(), 10);
        let supporting: Vec<_> = rows.iter().filter(|r| r.flash_support).collect();
        assert_eq!(supporting.len(), 1);
        assert_eq!(supporting[0].name, "360 Browser");
    }

    #[test]
    fn rows_are_in_market_share_order() {
        let rows = browser_flash_support();
        for w in rows.windows(2) {
            assert!(w[0].market_share >= w[1].market_share);
        }
    }
}
