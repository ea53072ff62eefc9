//! Per-domain models: profile generation and weekly state resolution.
//!
//! A [`DomainModel`] is generated once from `(seed, rank)` and captures the
//! site's whole four-year life as a small set of *events* (updates,
//! adoptions, removals, WordPress upgrades, death). Resolving the state at
//! a week replays events up to that week — O(#events), so crawling 201
//! snapshots never re-simulates anything.
//!
//! The dynamics encode the paper's documented mechanics:
//!
//! * most sites never update; a minority update slowly (§7's 531-day
//!   window of vulnerability emerges from this),
//! * WordPress auto-update waves move bundled jQuery to 3.5.1 in Dec 2020
//!   and 3.6.0 in Aug 2021, and toggle jQuery-Migrate off (WP 5.5, Aug
//!   2020) and back on (WP 5.6, Dec 2020) — Figures 3 and 7,
//! * Flash decays with a post-EOL floor, slower on `.cn` sites (§8),
//! * discontinued jQuery-Cookie slowly migrates to JS-Cookie (§6.3).

use crate::rng::{stream, Pcg32};
use crate::shares::{
    library_models, LibraryModel, ResourceTargets, CROSSORIGIN_WEIGHTS, EXTRA_SCRIPT_HOSTS,
    EXTRA_SCRIPT_PERMILLE, FULL_SRI_PERMILLE, GITHUB_HOSTED_PERMILLE, GITHUB_HOSTS,
    GITHUB_SRI_PERMILLE, PARTIAL_SRI_PERMILLE, WORDPRESS_PERMILLE,
};
use crate::timeline::Timeline;
use webvuln_cvedb::{catalog, Date, LibraryId};
use webvuln_version::Version;

/// How a library file is included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inclusion {
    /// Served from the site's own origin.
    Internal,
    /// Served from another origin.
    External {
        /// Serving host.
        host: String,
        /// True when the host is a public CDN (vs. a private origin).
        cdn: bool,
    },
}

/// One library deployed on a site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deployment {
    /// Which library.
    pub library: LibraryId,
    /// Deployed version.
    pub(crate) version: Version,
    /// Inclusion type.
    pub inclusion: Inclusion,
    /// Whether the `<script>` tag carries an `integrity` hash.
    pub integrity: bool,
    /// `crossorigin` attribute value (`Some("")` = bare attribute).
    pub(crate) crossorigin: Option<String>,
    /// Rendered WordPress-style (`/wp-includes/... ?ver=x.y.z`).
    pub(crate) via_wordpress: bool,
    /// Whether the version is observable (URL or banner). A few percent
    /// of deployments hide it, matching Wappalyzer's blind spots.
    pub version_visible: bool,
    /// The library is pasted into the page as an inline `<script>` (with
    /// its banner comment) instead of referenced by URL.
    pub(crate) inlined: bool,
}

/// Flash presence on a site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlashState {
    /// URL of the movie.
    pub swf_url: String,
    /// `AllowScriptAccess` value, when the site sets the parameter.
    pub allow_script_access: Option<String>,
}

/// Static resource-type flags of a site (Figure 2(b) inputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceFlags {
    /// Any JavaScript at all.
    pub javascript: bool,
    /// A stylesheet link.
    pub css: bool,
    /// A favicon link.
    pub favicon: bool,
    /// A `.php`-generated resource.
    pub imported_html: bool,
    /// An XML resource (RSS etc.).
    pub(crate) xml: bool,
    /// An SVG image.
    pub svg: bool,
    /// An `.axd` resource.
    pub axd: bool,
}

/// A generic third-party script (analytics, tag manager, social SDK).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ExtraScript {
    /// Serving host.
    pub(crate) host: String,
    /// Path (may include a query string).
    pub(crate) path: String,
}

/// An extra (non-top-15) script pulled from a GitHub-hosted repository
/// (§6.5 / Table 6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GithubScript {
    /// `host/path` of the script.
    pub url_path: String,
    /// Whether it carries `integrity`.
    pub integrity: bool,
}

/// A deployment as it stands in one week: as it was planted, at the
/// version its updates have reached by then.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deployed<'m> {
    /// The deployment as planted; its own `version` is the planted one.
    pub deployment: &'m Deployment,
    /// The version deployed this week.
    pub version: &'m Version,
}

/// The resolved state of a domain at one snapshot week, borrowed from
/// its [`DomainModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainState<'m> {
    /// False when the domain is dead/unreachable this week.
    pub(crate) online: bool,
    /// True when the site answers with an anti-bot block page.
    pub(crate) antibot: bool,
    /// Library deployments.
    pub deployments: Vec<Deployed<'m>>,
    /// WordPress core version when the site runs WordPress.
    pub wordpress: Option<&'m Version>,
    /// Flash content, if any.
    pub flash: Option<&'m FlashState>,
    /// GitHub-hosted extra script, if any.
    pub github_script: Option<&'m GithubScript>,
    /// Generic third-party scripts (never SRI-protected).
    pub(crate) extra_scripts: &'m [ExtraScript],
    /// Resource-type flags.
    pub resources: ResourceFlags,
}

/// A change in a domain's life.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    /// Replace `library`'s version.
    SetVersion(LibraryId, Version),
    /// Remove `library`.
    Remove(LibraryId),
    /// Add a deployment.
    Add(Deployment),
    /// Change the WordPress core version.
    WordPress(Version),
    /// Remove Flash content.
    FlashRemoved,
}

/// A generated domain.
#[derive(Debug, Clone)]
pub struct DomainModel {
    /// Host name.
    pub name: String,
    /// Alexa-style rank (1-based).
    pub(crate) rank: usize,
    resources: ResourceFlags,
    base_deployments: Vec<Deployment>,
    base_wordpress: Option<Version>,
    base_flash: Option<FlashState>,
    github_script: Option<GithubScript>,
    extra_scripts: Vec<ExtraScript>,
    events: Vec<(usize, Event)>,
    dead_from_start: bool,
    death_week: Option<usize>,
    unstable: bool,
    antibot_from: Option<usize>,
    /// Seed for the per-week stability stream.
    seed: u64,
}

/// Late-trend adjustments, ‰ of the whole population over the study:
/// `(droppers, late_adopters)` per library — encodes Figure 3's declining
/// and rising curves.
fn trend(lib: LibraryId) -> (u32, u32) {
    use LibraryId::*;
    match lib {
        JQuery => (70, 0), // 67.2% → 63.1% of sites
        Bootstrap => (40, 20),
        JQueryMigrate => (0, 0), // WordPress dominates its dynamics
        JQueryUi => (120, 0),
        Modernizr => (150, 0),
        JsCookie => (0, 12), // rising (Fig 3b)
        Underscore => (0, 6),
        Isotope => (80, 0),
        Popper => (0, 8),
        MomentJs => (60, 0),
        RequireJs => (60, 0),
        SwfObject => (150, 0),
        Prototype => (100, 0),
        JQueryCookie => (0, 0), // migration handled explicitly
        PolyfillIo => (0, 7),
    }
}

/// Updater behaviour classes: `(weight, mean weeks between updates,
/// crosses major versions)`. Most of the web never updates; slow updaters
/// stay within their major version — §6.3's compatibility wall — while
/// the active minority tracks the latest release outright.
const UPDATER_CLASSES: &[(u32, Option<(f64, bool)>)] = &[
    (550, None),                 // never
    (300, Some((170.0, false))), // slow: ~3.3 years, same-major only
    (150, Some((55.0, true))),   // active: ~1 year, crosses majors
];

const TLDS: &[(&str, u32)] = &[
    ("com", 520),
    ("org", 90),
    ("net", 80),
    ("ru", 60),
    ("de", 50),
    ("cn", 45),
    ("jp", 40),
    ("io", 35),
    ("co.uk", 30),
    ("fr", 25),
    ("br", 25),
];

const NAME_PARTS: &[&str] = &[
    "news", "shop", "blog", "tech", "media", "cloud", "data", "game", "home", "life", "web",
    "star", "east", "blue", "fast", "soft", "live", "play", "gold", "city", "open", "plus", "line",
    "link", "zone", "base", "mart", "port", "cast", "wave",
];

impl DomainModel {
    /// Generates the model for `(seed, rank)` on `timeline` with
    /// `domain_count` total domains (for rank-relative probabilities).
    pub(crate) fn generate(
        seed: u64,
        rank: usize,
        domain_count: usize,
        timeline: &Timeline,
    ) -> DomainModel {
        let name = domain_name(seed, rank);
        Generator {
            seed,
            rank,
            domain_count,
            timeline: *timeline,
            name: name.clone(),
            models: library_models(),
        }
        .build()
    }

    /// Resolves the state at `week`: the planted deployments with the
    /// events up to `week` replayed over them, copying none of them.
    pub fn state_at(&self, week: usize) -> DomainState<'_> {
        let online = self.online_at(week);
        let antibot = self.antibot_from.is_some_and(|w| week >= w);
        let deployed = |deployment| Deployed {
            deployment,
            version: &deployment.version,
        };
        let mut deployments: Vec<Deployed<'_>> =
            self.base_deployments.iter().map(deployed).collect();
        let mut wordpress = self.base_wordpress.as_ref();
        let mut flash = self.base_flash.as_ref();
        for (event_week, event) in &self.events {
            if *event_week > week {
                break;
            }
            match event {
                Event::SetVersion(lib, version) => {
                    for d in deployments
                        .iter_mut()
                        .filter(|d| d.deployment.library == *lib)
                    {
                        d.version = version;
                    }
                }
                Event::Remove(lib) => deployments.retain(|d| d.deployment.library != *lib),
                Event::Add(dep) => {
                    if !deployments
                        .iter()
                        .any(|d| d.deployment.library == dep.library)
                    {
                        deployments.push(deployed(dep));
                    }
                }
                Event::WordPress(v) => wordpress = Some(v),
                Event::FlashRemoved => flash = None,
            }
        }
        DomainState {
            online,
            antibot,
            deployments,
            wordpress,
            flash,
            github_script: self.github_script.as_ref(),
            extra_scripts: &self.extra_scripts,
            resources: self.resources,
        }
    }

    /// Whether the domain answers at all in `week`.
    pub(crate) fn online_at(&self, week: usize) -> bool {
        if self.dead_from_start {
            return false;
        }
        if self.death_week.is_some_and(|w| week >= w) {
            return false;
        }
        if self.unstable {
            // Independent coin per (domain, week).
            let mut r = stream(self.seed, &self.name, &format!("online:{week}"));
            return r.permille(500);
        }
        true
    }
}

fn domain_name(seed: u64, rank: usize) -> String {
    let mut r = stream(seed, &format!("rank:{rank}"), "name");
    let a = NAME_PARTS[r.below(NAME_PARTS.len() as u32) as usize];
    let b = NAME_PARTS[r.below(NAME_PARTS.len() as u32) as usize];
    let tld_idx = r.pick_weighted_index(&TLDS.iter().map(|(_, w)| *w).collect::<Vec<_>>());
    // Case-study domains at the paper's ranks (§6.4): real high-profile
    // sites shown to run understated-vulnerable versions.
    match rank {
        46 => "microsoft.example".to_string(),
        111 => "onlinesbi.example".to_string(),
        1693 => "docusign.example".to_string(),
        _ => format!("{a}{b}{rank}.{}", TLDS[tld_idx].0),
    }
}

struct Generator {
    seed: u64,
    rank: usize,
    domain_count: usize,
    timeline: Timeline,
    name: String,
    models: Vec<LibraryModel>,
}

impl Generator {
    fn rng(&self, purpose: &str) -> Pcg32 {
        stream(self.seed, &self.name, purpose)
    }

    fn rank_frac(&self) -> f64 {
        self.rank as f64 / self.domain_count.max(1) as f64
    }

    fn build(self) -> DomainModel {
        let weeks = self.timeline.weeks;
        let mut fate = self.rng("fate");

        // Accessibility model: ~22% of the list is not collectible each
        // week (Fig 2a: 782,300 of 1M). Low-ranked sites are flakier.
        let dead_permille = (130.0 + 110.0 * self.rank_frac()) as u32;
        let dead_from_start = fate.permille(dead_permille);
        let death_week = if !dead_from_start && fate.permille(40) {
            Some(fate.below(weeks.max(1) as u32) as usize)
        } else {
            None
        };
        let unstable = !dead_from_start && fate.permille(60);
        let antibot_from = if !dead_from_start && fate.permille(12) {
            Some(fate.below(weeks.max(1) as u32) as usize)
        } else {
            None
        };

        let resources = self.resource_flags();
        let mut events: Vec<(usize, Event)> = Vec::new();
        let mut deployments: Vec<Deployment> = Vec::new();

        // WordPress trajectory first: it decides jQuery/Migrate handling.
        let mut wp = self.rng("wordpress");
        let is_wordpress = wp.permille(WORDPRESS_PERMILLE);
        let mut base_wordpress = None;
        if is_wordpress {
            base_wordpress = Some(self.wordpress_setup(&mut wp, &mut deployments, &mut events));
        }

        // Organic library adoption.
        for model in &self.models {
            if is_wordpress && matches!(model.library, LibraryId::JQuery | LibraryId::JQueryMigrate)
            {
                continue; // WordPress bundles these
            }
            self.maybe_adopt(model, &mut deployments, &mut events);
        }

        // jQuery-Cookie → JS-Cookie migration (§6.3: ~39% migrated).
        if let Some(_jqc) = deployments
            .iter()
            .find(|d| d.library == LibraryId::JQueryCookie)
        {
            let mut r = self.rng("jqc-migration");
            if r.permille(430) {
                let week = r.below(weeks.max(1) as u32) as usize;
                events.push((week, Event::Remove(LibraryId::JQueryCookie)));
                let model = self
                    .models
                    .iter()
                    .find(|m| m.library == LibraryId::JsCookie)
                    .expect("JS-Cookie model exists");
                let version = self.version_at_adoption(model, week, &mut r);
                let dep = self.make_deployment(model, version, &mut r);
                events.push((week, Event::Add(dep)));
            }
        }

        // Flash.
        let mut flash_rng = self.rng("flash");
        let base_flash = self.flash_setup(&mut flash_rng, &mut events, &mut deployments);

        // GitHub-hosted extra script (§6.5).
        let mut gh = self.rng("github");
        let github_script = if gh.permille(GITHUB_HOSTED_PERMILLE) {
            let weights: Vec<u32> = GITHUB_HOSTS.iter().map(|(_, w)| *w).collect();
            let pick = gh.pick_weighted_index(&weights);
            Some(GithubScript {
                url_path: GITHUB_HOSTS[pick].0.to_string(),
                integrity: gh.permille(GITHUB_SRI_PERMILLE),
            })
        } else {
            None
        };

        // Generic third-party scripts: most sites run analytics/tags.
        let mut extra = self.rng("extra-scripts");
        let mut extra_scripts = Vec::new();
        if resources.javascript && extra.permille(EXTRA_SCRIPT_PERMILLE) {
            let count = 1 + extra.below(3) as usize;
            let weights: Vec<u32> = EXTRA_SCRIPT_HOSTS.iter().map(|&(_, _, w)| w).collect();
            for _ in 0..count {
                let pick = extra.pick_weighted_index(&weights);
                let (host, path, _) = EXTRA_SCRIPT_HOSTS[pick];
                let script = ExtraScript {
                    host: host.to_string(),
                    path: path.to_string(),
                };
                if !extra_scripts.contains(&script) {
                    extra_scripts.push(script);
                }
            }
        }

        events.sort_by_key(|(w, _)| *w);
        let mut model = DomainModel {
            name: self.name.clone(),
            rank: self.rank,
            resources,
            base_deployments: deployments,
            base_wordpress,
            base_flash,
            github_script,
            extra_scripts,
            events,
            dead_from_start,
            death_week,
            unstable,
            antibot_from,
            seed: self.seed,
        };
        self.apply_case_study_overrides(&mut model);
        model
    }

    /// The paper's §6.4 high-profile examples, pinned at their real ranks:
    /// microsoft.com (46) and onlinesbi.com (111) ran jQuery 3.5.1 —
    /// claimed-clean but truly vulnerable under CVE-2020-7656's TVV —
    /// and docusign.com (1693) sat on the understated 2.2.3 throughout.
    fn apply_case_study_overrides(&self, model: &mut DomainModel) {
        let is_case_study = matches!(self.rank, 46 | 111 | 1693);
        if !is_case_study || self.rank > self.domain_count {
            return;
        }
        // High-profile sites are always reachable and crawlable.
        model.dead_from_start = false;
        model.death_week = None;
        model.unstable = false;
        model.antibot_from = None;
        model.resources.javascript = true;
        model.resources.css = true;
        // Drop any randomly-scheduled jQuery dynamics; the trajectory is
        // pinned below.
        model.base_wordpress = None;
        model
            .base_deployments
            .retain(|d| d.library != LibraryId::JQuery);
        model.events.retain(|(_, e)| {
            !matches!(
                e,
                Event::SetVersion(LibraryId::JQuery, _)
                    | Event::Remove(LibraryId::JQuery)
                    | Event::WordPress(_)
            )
        });
        let jq = |ver: &str| Deployment {
            library: LibraryId::JQuery,
            version: Version::parse(ver).expect("case-study version"),
            inclusion: Inclusion::Internal,
            integrity: false,
            crossorigin: None,
            via_wordpress: false,
            version_visible: true,
            inlined: false,
        };
        match self.rank {
            46 | 111 => {
                // 3.4.1 until jQuery 3.5.1's release, then 3.5.1 — never
                // reaching 3.6.0 within the study (the paper observed
                // 3.5.1 as of its analysis).
                model.base_deployments.push(jq("3.4.1"));
                if let Some(week) = self.timeline.week_of(Date::new(2020, 5, 18)) {
                    model.events.push((
                        week,
                        Event::SetVersion(
                            LibraryId::JQuery,
                            Version::parse("3.5.1").expect("case-study version"),
                        ),
                    ));
                }
            }
            _ => {
                // docusign.example: jQuery 2.2.3 for the whole study.
                model.base_deployments.push(jq("2.2.3"));
            }
        }
        model.events.sort_by_key(|(w, _)| *w);
    }

    fn resource_flags(&self) -> ResourceFlags {
        let t = ResourceTargets::paper();
        let mut r = self.rng("resources");
        ResourceFlags {
            javascript: r.permille(t.javascript),
            css: r.permille(t.css),
            favicon: r.permille(t.favicon),
            imported_html: r.permille(t.imported_html),
            xml: r.permille(t.xml),
            svg: r.permille(t.svg),
            axd: r.permille(t.axd),
        }
    }

    /// Version available from `model`'s initial mix, or — when adopting
    /// mid-study — the latest release at the adoption date.
    fn version_at_adoption(&self, model: &LibraryModel, week: usize, r: &mut Pcg32) -> Version {
        if week == 0 {
            let weights: Vec<u32> = model.initial_versions.iter().map(|(_, w)| *w).collect();
            let pick = r.pick_weighted_index(&weights);
            Version::parse(model.initial_versions[pick].0).expect("share versions parse")
        } else {
            let date = self.timeline.date_of(week);
            catalog(model.library)
                .latest_at(date)
                .map(|rel| rel.version.clone())
                .unwrap_or_else(|| {
                    Version::parse(model.initial_versions[0].0).expect("share versions parse")
                })
        }
    }

    fn make_deployment(&self, model: &LibraryModel, version: Version, r: &mut Pcg32) -> Deployment {
        let internal = r.permille(model.internal_permille);
        let inclusion = if internal {
            Inclusion::Internal
        } else if r.permille(model.cdn_of_external_permille) {
            let weights: Vec<u32> = model.cdn_hosts.iter().map(|(_, w)| *w).collect();
            let pick = r.pick_weighted_index(&weights);
            Inclusion::External {
                host: model.cdn_hosts[pick].0.to_string(),
                cdn: true,
            }
        } else {
            Inclusion::External {
                host: format!("static.{}", self.name),
                cdn: false,
            }
        };
        // SRI: site-level trait sampled per deployment stream for
        // simplicity; full-SRI sites mark everything, partial mark some.
        let external = matches!(inclusion, Inclusion::External { .. });
        let integrity = external
            && (r.permille(FULL_SRI_PERMILLE)
                || (r.permille(PARTIAL_SRI_PERMILLE) && r.permille(500)));
        let crossorigin = if integrity {
            let weights: Vec<u32> = CROSSORIGIN_WEIGHTS.iter().map(|(_, w)| *w).collect();
            let pick = r.pick_weighted_index(&weights);
            match CROSSORIGIN_WEIGHTS[pick].0 {
                "" => None,
                v => Some(v.to_string()),
            }
        } else {
            None
        };
        // Some self-hosting sites paste the library straight into the
        // page; the banner comment is then the only version marker.
        let inlined = matches!(inclusion, Inclusion::Internal)
            && crate::render::has_inline_banner(model.library)
            && r.permille(60);
        let visible_draw = r.permille(960);
        Deployment {
            library: model.library,
            version,
            inclusion,
            integrity,
            crossorigin,
            via_wordpress: false,
            // Inlined copies always show their banner version.
            version_visible: inlined || visible_draw,
            inlined,
        }
    }

    fn maybe_adopt(
        &self,
        model: &LibraryModel,
        deployments: &mut Vec<Deployment>,
        events: &mut Vec<(usize, Event)>,
    ) {
        let mut r = self.rng(&format!("lib:{}", model.library.slug()));
        let weeks = self.timeline.weeks;
        let (drop_permille, late_permille) = trend(model.library);
        if r.permille(model.usage_permille) {
            let version = self.version_at_adoption(model, 0, &mut r);
            let initial = version.clone();
            deployments.push(self.make_deployment(model, version, &mut r));
            // Declining libraries: some users drop the library mid-study.
            if r.permille(drop_permille) {
                let week = r.below(weeks.max(1) as u32) as usize;
                events.push((week, Event::Remove(model.library)));
            } else {
                self.schedule_updates(model.library, &initial, &mut r, events);
            }
        } else if r.permille(late_permille) {
            // Rising libraries: non-users adopting mid-study.
            let week = 1 + r.below(weeks.saturating_sub(1).max(1) as u32) as usize;
            let version = self.version_at_adoption(model, week, &mut r);
            let dep = self.make_deployment(model, version, &mut r);
            events.push((week, Event::Add(dep)));
        }
    }

    /// Draws the updater class and schedules organic update events, each
    /// jumping to the newest release available at that date.
    fn schedule_updates(
        &self,
        lib: LibraryId,
        initial: &Version,
        r: &mut Pcg32,
        events: &mut Vec<(usize, Event)>,
    ) {
        let weights: Vec<u32> = UPDATER_CLASSES.iter().map(|(w, _)| *w).collect();
        let class = UPDATER_CLASSES[r.pick_weighted_index(&weights)].1;
        let Some((mean_weeks, crosses_major)) = class else {
            return; // never updates
        };
        let cat = catalog(lib);
        let mut week = 0usize;
        let major = initial.major();
        let mut current = initial.clone();
        loop {
            week += r.geometric_weeks(mean_weeks);
            if week >= self.timeline.weeks {
                return;
            }
            let date = self.timeline.date_of(week);
            let target = if crosses_major {
                cat.latest_at(date)
            } else {
                cat.latest_at_in_major(date, major)
            };
            if let Some(rel) = target {
                let upgraded = rel.version.clone();
                events.push((week, Event::SetVersion(lib, upgraded.clone())));
                // §9 future work: some updates regress — compatibility
                // breakage pushes the site back to its previous version a
                // few weeks later (and it stays there).
                if upgraded > current && r.permille(80) {
                    let back = week + 2 + r.below(8) as usize;
                    if back < self.timeline.weeks {
                        events.push((back, Event::SetVersion(lib, current.clone())));
                        return;
                    }
                }
                current = upgraded;
            }
        }
    }

    /// WordPress: bundled jQuery (+usually Migrate), core version
    /// trajectory, and the auto-update waves of Figures 3 and 7.
    fn wordpress_setup(
        &self,
        r: &mut Pcg32,
        deployments: &mut Vec<Deployment>,
        events: &mut Vec<(usize, Event)>,
    ) -> Version {
        let v = |s: &str| Version::parse(s).expect("wp versions parse");
        let weeks = self.timeline.weeks;
        // Initial core version.
        let initial_weights = [
            ("4.9", 400u32),
            ("5.0", 220),
            ("4.5", 160),
            ("4.0", 140),
            ("3.7", 80),
        ];
        let pick = r.pick_weighted_index(&initial_weights.map(|(_, w)| w));
        let base_wp = v(initial_weights[pick].0);

        // Bundled jQuery (internal, wp-style): 1.12.4 since WP 4.5; older
        // cores still serve 1.11/1.10 builds.
        let jq_weights = [
            ("1.12.4", 700u32),
            ("1.11.3", 140),
            ("1.11.1", 90),
            ("1.10.2", 70),
        ];
        let jq_pick = r.pick_weighted_index(&jq_weights.map(|(_, w)| w));
        let jq_version = v(jq_weights[jq_pick].0);
        deployments.push(Deployment {
            library: LibraryId::JQuery,
            version: jq_version,
            inclusion: Inclusion::Internal,
            integrity: false,
            crossorigin: None,
            via_wordpress: true,
            version_visible: true,
            inlined: false,
        });
        let has_migrate = r.permille(700);
        if has_migrate {
            let external = r.permille(116); // Table 1: Migrate is 88.4% internal
            deployments.push(Deployment {
                library: LibraryId::JQueryMigrate,
                version: v("1.4.1"),
                inclusion: if external {
                    Inclusion::External {
                        host: "c0.wp.com".to_string(),
                        cdn: true,
                    }
                } else {
                    Inclusion::Internal
                },
                integrity: false,
                crossorigin: None,
                via_wordpress: true,
                version_visible: true,
                inlined: false,
            });
        }

        let auto_update = r.permille(750);
        if auto_update {
            let events_cfg = webvuln_cvedb::WordPressEvents::paper();
            let takes_major = r.permille(700);
            // WP 5.5 (Aug 2020): jQuery-Migrate disabled by default.
            let w55 = self.timeline.week_of(events_cfg.wp55_migrate_disabled);
            if let Some(w55) = w55 {
                if takes_major {
                    let at = (w55 + r.below(5) as usize).min(weeks.saturating_sub(1));
                    events.push((at, Event::WordPress(v("5.5"))));
                    if has_migrate {
                        events.push((at, Event::Remove(LibraryId::JQueryMigrate)));
                    }
                }
            }
            // WP 5.6 (Dec 2020): Migrate re-bundled, jQuery → 3.5.1.
            if let Some(w56) = self.timeline.week_of(events_cfg.wp56_jquery_351) {
                let takes_56 = takes_major || r.permille(350);
                if takes_56 {
                    let at = (w56 + r.below(4) as usize).min(weeks.saturating_sub(1));
                    events.push((at, Event::WordPress(v("5.6"))));
                    events.push((at, Event::SetVersion(LibraryId::JQuery, v("3.5.1"))));
                    if has_migrate {
                        events.push((
                            at,
                            Event::Add(Deployment {
                                library: LibraryId::JQueryMigrate,
                                version: v("3.3.2"),
                                inclusion: Inclusion::Internal,
                                integrity: false,
                                crossorigin: None,
                                via_wordpress: true,
                                version_visible: true,
                                inlined: false,
                            }),
                        ));
                    }
                    // WP jQuery 3.6.0 wave (Aug 2021).
                    if let Some(w36) = self.timeline.week_of(events_cfg.wp_jquery_360) {
                        if r.permille(800) {
                            let at = (w36 + r.below(9) as usize).min(weeks.saturating_sub(1));
                            events.push((at, Event::WordPress(v("5.8"))));
                            events.push((at, Event::SetVersion(LibraryId::JQuery, v("3.6.0"))));
                        }
                    }
                }
            }
        } else {
            // Manual upgraders: rare core bumps; bundled jQuery moves to
            // 3.5.1 only if they cross 5.6.
            let mut week = 0usize;
            let mut crossed_56 = false;
            let wp_cat = webvuln_cvedb::wordpress_catalog();
            loop {
                week += r.geometric_weeks(130.0);
                if week >= weeks {
                    break;
                }
                let date = self.timeline.date_of(week);
                let Some(latest) = wp_cat.iter().rfind(|rel| rel.date <= date) else {
                    continue;
                };
                events.push((week, Event::WordPress(latest.version.clone())));
                if !crossed_56 && latest.version >= v("5.6") {
                    crossed_56 = true;
                    events.push((week, Event::SetVersion(LibraryId::JQuery, v("3.5.1"))));
                }
            }
        }
        base_wp
    }

    /// Flash: rank- and TLD-dependent presence with decaying survival.
    fn flash_setup(
        &self,
        r: &mut Pcg32,
        events: &mut Vec<(usize, Event)>,
        deployments: &mut Vec<Deployment>,
    ) -> Option<FlashState> {
        let is_cn = self.name.ends_with(".cn");
        let mut presence = (4.0 + 16.0 * self.rank_frac()) as u32;
        if is_cn {
            presence *= 3;
        }
        if !r.permille(presence) {
            return None;
        }
        let has_param = r.permille(400);
        let allow = if has_param {
            if r.permille(250) {
                Some("always".to_string())
            } else if r.permille(800) {
                Some("samedomain".to_string())
            } else {
                Some("never".to_string())
            }
        } else {
            None
        };
        // Survival: weekly removal hazard, halved after Flash EOL (the
        // remaining sites are unmaintained), halved again for `always`
        // sites and for .cn sites (the 360-browser ecosystem, §8).
        let eol_week = self
            .timeline
            .week_of(Date::new(2021, 1, 1))
            .unwrap_or(self.timeline.weeks);
        let mut hazard_scale = 1.0;
        if allow.as_deref() == Some("always") {
            hazard_scale *= 0.5;
        }
        if is_cn {
            hazard_scale *= 0.4;
        }
        // Two-phase survival draw: the pre-EOL hazard applies until the
        // end-of-life week; sites surviving to EOL are mostly unmaintained
        // and decay at the lower post-EOL hazard from there.
        let pre_mean = f64::max(1000.0 / (7.5 * hazard_scale), 2.0);
        let post_mean = f64::max(1000.0 / (2.5 * hazard_scale), 2.0);
        let first_draw = r.geometric_weeks(pre_mean);
        let removal_week = if first_draw < eol_week {
            Some(first_draw)
        } else {
            Some(eol_week + r.geometric_weeks(post_mean))
        }
        .filter(|&w| w < self.timeline.weeks);
        if let Some(w) = removal_week {
            events.push((w, Event::FlashRemoved));
        }
        // Flash sites often still carry the SWFObject embedder.
        if r.permille(300)
            && !deployments
                .iter()
                .any(|d| d.library == LibraryId::SwfObject)
        {
            let model = self
                .models
                .iter()
                .find(|m| m.library == LibraryId::SwfObject)
                .expect("SWFObject model exists");
            let dep = self.make_deployment(model, Version::parse("2.2").expect("2.2"), r);
            deployments.push(dep);
        }
        Some(FlashState {
            swf_url: if r.permille(800) {
                "/media/banner.swf".to_string()
            } else {
                format!("https://static.{}/intro.swf", self.name)
            },
            allow_script_access: allow,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_tl() -> Timeline {
        Timeline::paper()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = DomainModel::generate(1, 17, 1000, &paper_tl());
        let b = DomainModel::generate(1, 17, 1000, &paper_tl());
        assert_eq!(a.name, b.name);
        assert_eq!(a.state_at(0), b.state_at(0));
        assert_eq!(a.state_at(100), b.state_at(100));
    }

    #[test]
    fn different_seeds_make_different_webs() {
        let n = 500;
        let diff = (0..n)
            .filter(|&r| {
                let a = DomainModel::generate(1, r, n, &paper_tl());
                let b = DomainModel::generate(2, r, n, &paper_tl());
                a.state_at(0) != b.state_at(0)
            })
            .count();
        assert!(diff > n / 4, "{diff} of {n} differ");
    }

    #[test]
    fn population_shares_hit_paper_targets() {
        let n = 4_000usize;
        let tl = paper_tl();
        let models: Vec<DomainModel> = (1..=n)
            .map(|r| DomainModel::generate(7, r, n, &tl))
            .collect();
        let online: Vec<&DomainModel> = models.iter().filter(|m| m.online_at(0)).collect();
        let frac = |pred: &dyn Fn(&DomainState) -> bool| {
            let hits = online.iter().filter(|m| pred(&m.state_at(0))).count();
            hits as f64 / online.len() as f64
        };
        let jquery = frac(&|s| {
            s.deployments
                .iter()
                .any(|d| d.deployment.library == LibraryId::JQuery)
        });
        assert!((0.58..0.70).contains(&jquery), "jQuery {jquery}");
        let wp = frac(&|s| s.wordpress.is_some());
        assert!((0.22..0.32).contains(&wp), "WordPress {wp}");
        let bootstrap = frac(&|s| {
            s.deployments
                .iter()
                .any(|d| d.deployment.library == LibraryId::Bootstrap)
        });
        assert!((0.17..0.27).contains(&bootstrap), "Bootstrap {bootstrap}");
        let collected = online.len() as f64 / n as f64;
        assert!((0.72..0.85).contains(&collected), "collected {collected}");
    }

    #[test]
    fn wordpress_wave_moves_jquery_to_351_and_360() {
        let n = 3_000usize;
        let tl = paper_tl();
        let w_pre = tl.week_of(Date::new(2020, 11, 1)).expect("in range");
        let w_post = tl.week_of(Date::new(2021, 3, 1)).expect("in range");
        let w_late = tl.week_of(Date::new(2021, 12, 20)).expect("in range");
        let v351 = Version::parse("3.5.1").expect("version");
        let v360 = Version::parse("3.6.0").expect("version");
        let mut pre = 0;
        let mut post = 0;
        let mut late360 = 0;
        let mut wp_total = 0;
        for rank in 1..=n {
            let m = DomainModel::generate(11, rank, n, &tl);
            let s0 = m.state_at(w_pre);
            if s0.wordpress.is_none() {
                continue;
            }
            wp_total += 1;
            let count_at = |week: usize, v: &Version| {
                m.state_at(week)
                    .deployments
                    .iter()
                    .any(|d| d.deployment.library == LibraryId::JQuery && d.version == v)
            };
            pre += count_at(w_pre, &v351) as usize;
            post += count_at(w_post, &v351) as usize;
            late360 += count_at(w_late, &v360) as usize;
        }
        assert!(wp_total > 500, "enough WordPress sites: {wp_total}");
        assert!(
            post > pre + wp_total / 4,
            "Dec 2020 wave: pre={pre} post={post} of {wp_total}"
        );
        assert!(
            late360 > wp_total / 4,
            "Aug 2021 wave: {late360} of {wp_total}"
        );
    }

    #[test]
    fn migrate_dips_then_recovers() {
        let n = 3_000usize;
        let tl = paper_tl();
        let count_migrate = |week: usize| {
            (1..=n)
                .filter(|&rank| {
                    let m = DomainModel::generate(13, rank, n, &tl);
                    m.online_at(week)
                        && m.state_at(week)
                            .deployments
                            .iter()
                            .any(|d| d.deployment.library == LibraryId::JQueryMigrate)
                })
                .count()
        };
        let before = count_migrate(tl.week_of(Date::new(2020, 7, 1)).expect("ok"));
        let during = count_migrate(tl.week_of(Date::new(2020, 11, 15)).expect("ok"));
        let after = count_migrate(tl.week_of(Date::new(2021, 3, 1)).expect("ok"));
        assert!(
            during < before * 9 / 10,
            "dip: before={before} during={during}"
        );
        assert!(after > during, "recovery: during={during} after={after}");
    }

    #[test]
    fn flash_decays_over_the_study() {
        let n = 6_000usize;
        let tl = paper_tl();
        let models: Vec<DomainModel> = (1..=n)
            .map(|r| DomainModel::generate(17, r, n, &tl))
            .collect();
        let flash_at = |week: usize| {
            models
                .iter()
                .filter(|m| m.state_at(week).flash.is_some())
                .count()
        };
        let start = flash_at(0);
        let end = flash_at(tl.weeks - 1);
        assert!(start > 20, "some flash at start: {start}");
        assert!(
            (end as f64) < start as f64 * 0.65,
            "decay: {start} -> {end}"
        );
        assert!(end > 0, "a tail of zombie flash survives");
    }

    #[test]
    fn always_share_rises_among_survivors() {
        let n = 30_000usize;
        let tl = paper_tl();
        let models: Vec<DomainModel> = (1..=n)
            .map(|r| DomainModel::generate(19, r, n, &tl))
            .collect();
        let always_share = |week: usize| {
            let (mut always, mut with_flash) = (0usize, 0usize);
            for m in &models {
                if let Some(f) = m.state_at(week).flash {
                    with_flash += 1;
                    if f.allow_script_access.as_deref() == Some("always") {
                        always += 1;
                    }
                }
            }
            always as f64 / with_flash.max(1) as f64
        };
        let early = always_share(0);
        let late = always_share(tl.weeks - 1);
        assert!(late > early, "always share rises: {early:.3} -> {late:.3}");
    }

    #[test]
    fn case_study_domains_exist() {
        let tl = paper_tl();
        let m = DomainModel::generate(1, 46, 10_000, &tl);
        assert_eq!(m.name, "microsoft.example");
        assert_eq!(
            DomainModel::generate(9, 1693, 10_000, &tl).name,
            "docusign.example"
        );
    }

    #[test]
    fn case_study_trajectories_match_the_paper() {
        let tl = paper_tl();
        let jq_at = |m: &DomainModel, week: usize| {
            m.state_at(week)
                .deployments
                .iter()
                .find(|d| d.deployment.library == LibraryId::JQuery)
                .map(|d| d.version.to_string())
                .expect("jQuery present")
        };
        for (seed, rank) in [(1u64, 46usize), (77, 46), (5, 111)] {
            let m = DomainModel::generate(seed, rank, 10_000, &tl);
            let before = tl.week_of(Date::new(2020, 4, 1)).expect("in range");
            let after = tl.week_of(Date::new(2020, 7, 1)).expect("in range");
            assert_eq!(jq_at(&m, before), "3.4.1", "seed {seed} rank {rank}");
            assert_eq!(jq_at(&m, after), "3.5.1", "seed {seed} rank {rank}");
            assert_eq!(jq_at(&m, tl.weeks - 1), "3.5.1", "never reaches 3.6.0");
            for week in [0, 100, 200] {
                assert!(m.online_at(week), "case-study sites stay reachable");
            }
        }
        let docusign = DomainModel::generate(3, 1693, 10_000, &tl);
        assert_eq!(jq_at(&docusign, 0), "2.2.3");
        assert_eq!(jq_at(&docusign, tl.weeks - 1), "2.2.3");
    }

    #[test]
    fn dead_domains_stay_dead() {
        let tl = paper_tl();
        let n = 2_000;
        let dead: Vec<DomainModel> = (1..=n)
            .map(|r| DomainModel::generate(23, r, n, &tl))
            .filter(|m| !m.online_at(0) && !m.unstable)
            .collect();
        assert!(!dead.is_empty());
        for m in dead.iter().take(50) {
            if m.dead_from_start {
                for w in [0, 50, 200] {
                    assert!(!m.online_at(w), "{} week {w}", m.name);
                }
            }
        }
    }

    #[test]
    fn states_are_monotone_in_event_replay() {
        // Replaying to a later week never loses base resources flags, and
        // deployments stay version-resolvable.
        let tl = paper_tl();
        for rank in 1..100 {
            let m = DomainModel::generate(29, rank, 100, &tl);
            let s_early = m.state_at(0);
            let s_late = m.state_at(tl.weeks - 1);
            assert_eq!(s_early.resources, s_late.resources);
        }
    }
}
