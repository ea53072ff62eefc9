//! Distribution targets for the synthetic ecosystem.
//!
//! Every number here is lifted from the paper (Tables 1, 5, 6; Figures 2,
//! 3, 8–11; §5–§8) and expressed in permille so the generator's Bernoulli
//! draws hit the published marginals in expectation. The *dynamics*
//! (updates, WordPress waves, Flash decay) live in the domain model; this
//! module is the static target book.

use webvuln_cvedb::LibraryId;

/// Behavioural model for one library.
#[derive(Debug, Clone)]
pub(crate) struct LibraryModel {
    /// Which library.
    pub(crate) library: LibraryId,
    /// Target share of (non-WordPress-forced) websites using it, ‰.
    pub(crate) usage_permille: u32,
    /// Internal (self-hosted) inclusion share among its users, ‰
    /// (Table 1 "Avg. Int.").
    pub(crate) internal_permille: u32,
    /// CDN share among external inclusions, ‰ (Table 1 "Avg. CDN").
    pub(crate) cdn_of_external_permille: u32,
    /// CDN host weights (Table 5 top-3 plus a generic tail).
    pub(crate) cdn_hosts: &'static [(&'static str, u32)],
    /// Initial version distribution at study start (weights).
    pub(crate) initial_versions: &'static [(&'static str, u32)],
}

/// jQuery's initial version mix: 1.12.4 dominant, long 1.x tail, a
/// meaningful 3.x head (the latest branch in March 2018 was 3.3.1).
static JQUERY_VERSIONS: &[(&str, u32)] = &[
    ("1.12.4", 215),
    ("1.11.3", 45),
    ("1.11.1", 35),
    ("1.11.0", 25),
    ("1.10.2", 40),
    ("1.9.1", 35),
    ("1.8.3", 45),
    ("1.8.2", 15),
    ("1.7.2", 30),
    ("1.7.1", 25),
    ("1.7", 10),
    ("1.6.2", 10),
    ("1.5.2", 5),
    ("1.4.2", 15),
    ("1.12.0", 10),
    ("1.12.1", 8),
    ("2.2.4", 50),
    ("2.2.3", 12),
    ("2.1.4", 35),
    ("2.1.1", 10),
    ("2.0.3", 10),
    ("3.0.0", 15),
    ("3.1.1", 35),
    ("3.2.1", 80),
    ("3.3.1", 90),
];

static BOOTSTRAP_VERSIONS: &[(&str, u32)] = &[
    ("3.3.7", 360),
    ("3.3.6", 80),
    ("3.3.5", 60),
    ("3.3.4", 30),
    ("3.3.2", 25),
    ("3.2.0", 50),
    ("3.1.1", 45),
    ("3.0.3", 25),
    ("2.3.2", 60),
    ("2.3.1", 20),
    ("2.2.2", 15),
    ("4.0.0", 230),
];

static MIGRATE_VERSIONS: &[(&str, u32)] = &[
    ("1.4.1", 550),
    ("1.4.0", 80),
    ("1.2.1", 120),
    ("1.1.1", 40),
    ("1.0.0", 30),
    ("3.0.0", 130),
    ("3.0.1", 50),
];

static JQUERY_UI_VERSIONS: &[(&str, u32)] = &[
    ("1.12.1", 240),
    ("1.12.0", 60),
    ("1.11.4", 170),
    ("1.11.3", 60),
    ("1.11.2", 40),
    ("1.10.4", 130),
    ("1.10.3", 90),
    ("1.10.2", 40),
    ("1.9.2", 60),
    ("1.8.24", 50),
    ("1.8.16", 40),
    ("1.7.2", 20),
];

static MODERNIZR_VERSIONS: &[(&str, u32)] = &[
    ("2.6.2", 280),
    ("2.8.3", 230),
    ("2.7.0", 90),
    ("2.5.3", 60),
    ("2.0.0", 30),
    ("3.0.0", 70),
    ("3.3.1", 90),
    ("3.5.0", 100),
    ("3.6.0", 50),
];

static JS_COOKIE_VERSIONS: &[(&str, u32)] = &[
    ("2.1.4", 780),
    ("2.1.3", 60),
    ("2.1.2", 40),
    ("2.1.0", 30),
    ("2.0.0", 20),
    ("2.2.0", 70),
];

static UNDERSCORE_VERSIONS: &[(&str, u32)] = &[
    ("1.8.3", 420),
    ("1.8.2", 60),
    ("1.7.0", 100),
    ("1.6.0", 90),
    ("1.5.2", 70),
    ("1.4.4", 90),
    ("1.3.2", 80),
    ("1.0.0", 30),
];

static ISOTOPE_VERSIONS: &[(&str, u32)] = &[
    ("3.0.4", 300),
    ("3.0.3", 80),
    ("3.0.2", 60),
    ("3.0.1", 50),
    ("3.0.0", 60),
    ("2.2.2", 150),
    ("2.1.0", 80),
    ("2.0.0", 70),
    ("1.5.26", 60),
    ("3.0.5", 90),
];

// Popper's paper-dominant 1.14.3 shipped May 2018, two months into the
// study; sites reach it through the update model rather than the initial
// mix.
static POPPER_VERSIONS: &[(&str, u32)] = &[("1.12.9", 820), ("1.0.0", 180)];

static MOMENT_VERSIONS: &[(&str, u32)] = &[
    ("2.18.1", 180),
    ("2.17.1", 90),
    ("2.15.2", 60),
    ("2.13.0", 60),
    ("2.11.2", 50),
    ("2.11.0", 30),
    ("2.10.6", 70),
    ("2.9.0", 50),
    ("2.8.4", 40),
    ("2.8.1", 40),
    ("2.5.1", 30),
    ("2.0.0", 20),
    ("2.19.3", 90),
    ("2.20.1", 120),
];

// RequireJS 2.3.6 (the paper-dominant version) shipped Aug 2018; sites
// reach it via the update model.
static REQUIREJS_VERSIONS: &[(&str, u32)] = &[
    ("2.3.5", 330),
    ("2.3.4", 140),
    ("2.3.2", 100),
    ("2.2.0", 120),
    ("2.1.22", 170),
    ("2.1.0", 95),
    ("2.0.0", 45),
];

static SWFOBJECT_VERSIONS: &[(&str, u32)] = &[("2.2", 700), ("2.1", 200), ("2.0", 100)];

static PROTOTYPE_VERSIONS: &[(&str, u32)] = &[
    ("1.7.1", 430),
    ("1.7.0", 120),
    ("1.7.2", 90),
    ("1.7.3", 80),
    ("1.6.1", 150),
    ("1.6.0.3", 60),
    ("1.6.0.1", 40),
    ("1.5.1", 30),
];

static JQUERY_COOKIE_VERSIONS: &[(&str, u32)] = &[
    ("1.4.1", 640),
    ("1.4.0", 120),
    ("1.3.1", 110),
    ("1.3.0", 60),
    ("1.2", 40),
    ("1.1", 30),
];

// Polyfill.io v3 launched Feb 2019; the dominant-v3 state of Table 1 is
// reached through updates.
static POLYFILL_VERSIONS: &[(&str, u32)] = &[("2", 830), ("1", 170)];

/// Generic CDN tail used when a library's Table 5 row doesn't cover the
/// draw.
const GENERIC_TAIL: (&str, u32) = ("cdn.jsdelivr.net", 100);

static JQUERY_CDNS: &[(&str, u32)] = &[
    ("ajax.googleapis.com", 600),
    ("code.jquery.com", 230),
    ("cdnjs.cloudflare.com", 160),
    GENERIC_TAIL,
];

static MIGRATE_CDNS: &[(&str, u32)] = &[
    ("c0.wp.com", 760),
    ("cdnjs.cloudflare.com", 160),
    ("secureservercdn.net", 80),
    GENERIC_TAIL,
];

static BOOTSTRAP_CDNS: &[(&str, u32)] = &[
    ("maxcdn.bootstrapcdn.com", 630),
    ("widget.trustpilot.com", 190),
    ("stackpath.bootstrapcdn.com", 180),
    GENERIC_TAIL,
];

static JQUERY_UI_CDNS: &[(&str, u32)] = &[
    ("ajax.googleapis.com", 590),
    ("code.jquery.com", 360),
    ("cdnjs.cloudflare.com", 50),
    GENERIC_TAIL,
];

static MODERNIZR_CDNS: &[(&str, u32)] = &[
    ("cdnjs.cloudflare.com", 590),
    ("cdn.shopify.com", 390),
    ("cdn.prestosports.com", 20),
    GENERIC_TAIL,
];

static JS_COOKIE_CDNS: &[(&str, u32)] = &[
    ("cdn.jsdelivr.net", 470),
    ("c0.wp.com", 270),
    ("cdnjs.cloudflare.com", 260),
];

static UNDERSCORE_CDNS: &[(&str, u32)] = &[
    ("c0.wp.com", 580),
    ("cdnjs.cloudflare.com", 380),
    ("secureservercdn.net", 40),
    GENERIC_TAIL,
];

static ISOTOPE_CDNS: &[(&str, u32)] = &[
    ("secureservercdn.net", 530),
    ("cdn.shopify.com", 340),
    ("cdn.jsdelivr.net", 130),
];

static POPPER_CDNS: &[(&str, u32)] = &[
    ("cdnjs.cloudflare.com", 870),
    ("cdn.jsdelivr.net", 100),
    ("unpkg.com", 30),
];

static MOMENT_CDNS: &[(&str, u32)] = &[
    ("cdnjs.cloudflare.com", 870),
    ("cdn.jsdelivr.net", 100),
    ("momentjs.com", 30),
];

static REQUIREJS_CDNS: &[(&str, u32)] = &[
    ("cdnjs.cloudflare.com", 700),
    ("cdn.jsdelivr.net", 200),
    ("requirejs.org", 100),
];

static SWFOBJECT_CDNS: &[(&str, u32)] = &[
    ("ajax.googleapis.com", 890),
    ("cdnjs.cloudflare.com", 60),
    ("s0.wp.com", 50),
];

static PROTOTYPE_CDNS: &[(&str, u32)] = &[
    ("ajax.googleapis.com", 820),
    ("strato-editor.com", 110),
    ("cdnjs.cloudflare.com", 70),
];

static JQUERY_COOKIE_CDNS: &[(&str, u32)] = &[
    ("cdnjs.cloudflare.com", 870),
    ("cdn.shopify.com", 120),
    ("c0.wp.com", 10),
];

static POLYFILL_CDNS: &[(&str, u32)] = &[
    ("polyfill.io", 560),
    ("cdn.polyfill.io", 390),
    ("static.parastorage.com", 50),
];

/// Usage shares below are the *organic* (non-WordPress) adoption targets.
/// WordPress forces jQuery and usually jQuery-Migrate onto its 26.9% of
/// sites, so the organic jQuery share is chosen such that the combined
/// average lands on Table 1's 64.0% (and 20.8% for Migrate).
pub(crate) fn library_models() -> Vec<LibraryModel> {
    use LibraryId::*;
    let m = |library,
             usage_permille,
             internal_permille,
             cdn_of_external_permille,
             cdn_hosts,
             initial_versions| LibraryModel {
        library,
        usage_permille,
        internal_permille,
        cdn_of_external_permille,
        cdn_hosts,
        initial_versions,
    };
    vec![
        // 26.9% of sites are WordPress and all carry jQuery; organic
        // adoption of ~50.8% among the remaining 73.1% gives ~64% overall.
        m(JQuery, 508, 592, 961, JQUERY_CDNS, JQUERY_VERSIONS),
        m(Bootstrap, 215, 716, 707, BOOTSTRAP_CDNS, BOOTSTRAP_VERSIONS),
        // Organic Migrate (outside WordPress's bundled copy): ~2%.
        m(JQueryMigrate, 20, 884, 426, MIGRATE_CDNS, MIGRATE_VERSIONS),
        m(JQueryUi, 122, 497, 919, JQUERY_UI_CDNS, JQUERY_UI_VERSIONS),
        m(Modernizr, 95, 781, 682, MODERNIZR_CDNS, MODERNIZR_VERSIONS),
        m(JsCookie, 33, 805, 865, JS_COOKIE_CDNS, JS_COOKIE_VERSIONS),
        m(
            Underscore,
            25,
            832,
            497,
            UNDERSCORE_CDNS,
            UNDERSCORE_VERSIONS,
        ),
        m(Isotope, 18, 908, 246, ISOTOPE_CDNS, ISOTOPE_VERSIONS),
        m(Popper, 17, 469, 920, POPPER_CDNS, POPPER_VERSIONS),
        m(MomentJs, 16, 704, 716, MOMENT_CDNS, MOMENT_VERSIONS),
        m(RequireJs, 16, 648, 281, REQUIREJS_CDNS, REQUIREJS_VERSIONS),
        m(SwfObject, 13, 742, 633, SWFOBJECT_CDNS, SWFOBJECT_VERSIONS),
        m(Prototype, 10, 812, 579, PROTOTYPE_CDNS, PROTOTYPE_VERSIONS),
        m(
            JQueryCookie,
            10,
            633,
            865,
            JQUERY_COOKIE_CDNS,
            JQUERY_COOKIE_VERSIONS,
        ),
        m(PolyfillIo, 9, 145, 378, POLYFILL_CDNS, POLYFILL_VERSIONS),
    ]
}

/// Share of WordPress sites (Figure 9: 26.9%).
pub(crate) const WORDPRESS_PERMILLE: u32 = 269;

/// Resource-type usage targets (Figure 2(b)), ‰ of collected sites.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResourceTargets {
    /// Sites with any JavaScript (94.7%).
    pub(crate) javascript: u32,
    /// CSS (88.4%).
    pub(crate) css: u32,
    /// Favicon (55.0%).
    pub(crate) favicon: u32,
    /// Imported HTML — `.php` generated resources (31.8%).
    pub(crate) imported_html: u32,
    /// XML (25.6%).
    pub(crate) xml: u32,
    /// SVG (≈1.5%).
    pub(crate) svg: u32,
    /// AXD (≈0.5%).
    pub(crate) axd: u32,
}

impl ResourceTargets {
    /// The paper's Figure 2(b) values.
    pub(crate) fn paper() -> ResourceTargets {
        ResourceTargets {
            javascript: 947,
            css: 884,
            favicon: 550,
            imported_html: 318,
            xml: 256,
            svg: 15,
            axd: 5,
        }
    }
}

/// GitHub-hosted library sources (Table 6): weight-ordered repositories.
pub(crate) static GITHUB_HOSTS: &[(&str, u32)] = &[
    ("partnercoll.github.io/actualize.js", 113),
    (
        "blueimp.github.io/jQuery-File-Upload/js/vendor/jquery.ui.widget.js",
        90,
    ),
    ("malsup.github.com/jquery.form.js", 80),
    ("afarkas.github.io/lazysizes/lazysizes.min.js", 75),
    ("hammerjs.github.io/dist/hammer.min.js", 60),
    ("kodir2.github.io/actualize.js", 55),
    (
        "gitcdn.github.io/bootstrap-toggle/js/bootstrap-toggle.min.js",
        50,
    ),
    (
        "owlcarousel2.github.io/OwlCarousel2/dist/owl.carousel.js",
        50,
    ),
    ("weblion777.github.io/hdvb.js", 45),
    ("radioafricagroup.github.io/js/cookiestrip.min.js", 40),
    ("kenwheeler.github.io/slick/slick.js", 40),
    (
        "malihu.github.io/custom-scrollbar/jquery.mCustomScrollbar.concat.min.js",
        35,
    ),
    ("klevron.github.io/threejs/OrbitControls.js", 30),
    (
        "jonathantneal.github.io/svg4everybody/svg4everybody.min.js",
        30,
    ),
    (
        "hayageek.github.io/jQuery-Upload-File/jquery.uploadfile.min.js",
        25,
    ),
];

/// Share of sites loading a library from a GitHub host (§6.5: an average
/// of 1,670 of 782,300 collected sites ≈ 2.1‰).
pub(crate) const GITHUB_HOSTED_PERMILLE: u32 = 2;

/// Of GitHub-hosted inclusions, the share carrying `integrity` (0.6%).
pub(crate) const GITHUB_SRI_PERMILLE: u32 = 6;

/// Probability that an external library deployment carries `integrity`
/// under the site-wide policy draw (Figure 10's protected minority).
pub(crate) const FULL_SRI_PERMILLE: u32 = 6;

/// Probability that an external library deployment carries `integrity`
/// opportunistically (copied from a Bootstrap-style snippet).
pub(crate) const PARTIAL_SRI_PERMILLE: u32 = 90;

/// Generic third-party scripts (analytics, tag managers, social SDKs).
/// Practically never carry `integrity`, which is why Figure 10's
/// "no unprotected external" population stays at 0.3% even on sites that
/// protect their libraries.
pub(crate) static EXTRA_SCRIPT_HOSTS: &[(&str, &str, u32)] = &[
    ("www.google-analytics.com", "/analytics.js", 380),
    ("www.googletagmanager.com", "/gtm.js?id=GTM-XYZ", 250),
    ("connect.facebook.net", "/en_US/fbevents.js", 140),
    ("static.doubleclick.net", "/instream/ad_status.js", 90),
    ("cdn.ampproject.org", "/v0.js", 70),
    ("platform.twitter.com", "/widgets.js", 70),
];

/// Share of sites embedding at least one generic third-party script.
pub(crate) const EXTRA_SCRIPT_PERMILLE: u32 = 700;

/// `crossorigin` values among scripts that carry `integrity` (§6.5:
/// 97.1% anonymous, 1.9% use-credentials, remainder absent).
pub(crate) static CROSSORIGIN_WEIGHTS: &[(&str, u32)] =
    &[("anonymous", 971), ("use-credentials", 19), ("", 10)];

#[cfg(test)]
mod tests {
    use super::*;
    use webvuln_cvedb::{catalog, Date};
    use webvuln_version::Version;

    #[test]
    fn models_cover_all_fifteen_libraries() {
        let models = library_models();
        assert_eq!(models.len(), 15);
        for lib in LibraryId::ALL {
            assert!(models.iter().any(|m| m.library == lib), "{lib}");
        }
    }

    #[test]
    fn initial_versions_exist_in_catalogs_and_predate_study() {
        let start = Date::new(2018, 3, 5);
        for model in library_models() {
            let cat = catalog(model.library);
            for (v, w) in model.initial_versions {
                assert!(*w > 0, "{}: zero weight {v}", model.library);
                let version =
                    Version::parse(v).unwrap_or_else(|e| panic!("{}: {e}", model.library));
                let release = cat.releases.iter().find(|r| r.version == version);
                let date = release
                    .unwrap_or_else(|| panic!("{} {v} missing from catalog", model.library))
                    .date;
                assert!(
                    date <= start,
                    "{} {v} released {date}, after study start",
                    model.library
                );
            }
        }
    }

    #[test]
    fn combined_jquery_share_targets_table1() {
        // organic + WordPress-forced = 0.508 * 0.731 + 0.269 ≈ 0.640.
        let models = library_models();
        let jq = models
            .iter()
            .find(|m| m.library == LibraryId::JQuery)
            .expect("jQuery model");
        let combined = jq.usage_permille as f64 / 1000.0 * (1.0 - 0.269) + 0.269;
        assert!((0.63..0.65).contains(&combined), "{combined}");
    }

    #[test]
    fn version_weights_are_plausible_distributions() {
        for model in library_models() {
            let total: u32 = model.initial_versions.iter().map(|(_, w)| w).sum();
            assert!((900..=1100).contains(&total), "{}: {total}", model.library);
        }
    }

    #[test]
    fn cdn_hosts_are_nonempty_with_positive_weights() {
        for model in library_models() {
            assert!(!model.cdn_hosts.is_empty(), "{}", model.library);
            assert!(model.cdn_hosts.iter().all(|(h, w)| !h.is_empty() && *w > 0));
        }
    }

    #[test]
    fn crossorigin_weights_follow_paper() {
        let total: u32 = CROSSORIGIN_WEIGHTS.iter().map(|(_, w)| w).sum();
        assert_eq!(total, 1000);
        assert_eq!(CROSSORIGIN_WEIGHTS[0].0, "anonymous");
    }
}
