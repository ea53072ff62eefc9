//! The analysis engine: parses a landing page and reports every
//! recognised client-side resource with its version — the pipeline stage
//! the paper delegates to Wappalyzer (§4.2).

use crate::patterns::{fingerprints, wordpress_fingerprint, Fingerprint, WordPressFingerprint};
use webvuln_cvedb::LibraryId;
use webvuln_html::{extract_resources, url_host, PageResources, ScriptRef};
use webvuln_pattern::{thread_vm_steps, Captures, Pattern};
use webvuln_telemetry::{trace, Counter, Registry};
use webvuln_version::Version;

/// Broad resource classes counted in Figure 2(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResourceType {
    /// Any JavaScript (inline or external).
    JavaScript,
    /// Stylesheets.
    Css,
    /// Favicons.
    Favicon,
    /// `.php`-generated resources.
    ImportedHtml,
    /// XML resources (feeds etc.).
    Xml,
    /// SVG images.
    Svg,
    /// Adobe Flash content.
    Flash,
    /// ASP.NET `.axd` handlers.
    Axd,
}

impl ResourceType {
    /// All classes in Figure 2(b) order.
    pub const ALL: [ResourceType; 8] = [
        ResourceType::JavaScript,
        ResourceType::Css,
        ResourceType::Favicon,
        ResourceType::ImportedHtml,
        ResourceType::Xml,
        ResourceType::Svg,
        ResourceType::Flash,
        ResourceType::Axd,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ResourceType::JavaScript => "JavaScript",
            ResourceType::Css => "CSS",
            ResourceType::Favicon => "Favicon",
            ResourceType::ImportedHtml => "imported-HTML",
            ResourceType::Xml => "XML",
            ResourceType::Svg => "SVG",
            ResourceType::Flash => "Flash",
            ResourceType::Axd => "AXD",
        }
    }
}

/// How a detected library is included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectedInclusion {
    /// Same-origin (or inline).
    Internal,
    /// Cross-origin, with the serving host.
    External {
        /// Serving host name.
        host: String,
    },
}

/// One detected library deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    /// The library.
    pub library: LibraryId,
    /// Extracted version, when observable.
    pub version: Option<Version>,
    /// Inclusion type.
    pub inclusion: DetectedInclusion,
    /// Whether the tag carried `integrity`.
    pub integrity: bool,
    /// The `crossorigin` attribute value, if present.
    pub crossorigin: Option<String>,
    /// The URL the detection came from (empty for inline detections).
    pub url: String,
}

/// Flash-specific findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlashDetection {
    /// `.swf` URL.
    pub swf_url: String,
    /// Lower-cased `AllowScriptAccess` value, if specified.
    pub allow_script_access: Option<String>,
}

/// An external script that is not one of the known libraries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExternalScript {
    /// Serving host.
    pub host: String,
    /// Full URL.
    pub url: String,
    /// Whether the tag carried `integrity`.
    pub integrity: bool,
    /// `crossorigin` value, if present.
    pub crossorigin: Option<String>,
}

/// Everything the engine extracts from one page.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageAnalysis {
    /// Detected library deployments.
    pub detections: Vec<Detection>,
    /// WordPress: `Some(version)`; `Some(None)` = detected, no version.
    pub wordpress: Option<Option<Version>>,
    /// Flash findings.
    pub flash: Vec<FlashDetection>,
    /// Resource classes present.
    pub resource_types: Vec<ResourceType>,
    /// External scripts from `github.io`/`github.com` hosts (§6.5).
    pub github_scripts: Vec<ExternalScript>,
    /// Count of external scripts on the page.
    pub external_scripts: usize,
    /// Count of external scripts lacking `integrity` (Figure 10).
    pub external_scripts_without_integrity: usize,
    /// `crossorigin` values seen on integrity-carrying scripts (§6.5).
    pub crossorigin_values: Vec<String>,
}

impl PageAnalysis {
    /// The detections for one library.
    pub fn library(&self, lib: LibraryId) -> Option<&Detection> {
        self.detections.iter().find(|d| d.library == lib)
    }

    /// True when the page includes `lib` at any version.
    pub fn has_library(&self, lib: LibraryId) -> bool {
        self.library(lib).is_some()
    }

    /// True when any library at all was recognised.
    pub fn has_any_library(&self) -> bool {
        !self.detections.is_empty()
    }
}

/// Counter handles for the `fp.*` metrics an instrumented engine records.
#[derive(Clone)]
struct EngineMetrics {
    pages: Counter,
    patterns_evaluated: Counter,
    vm_steps: Counter,
    hits_url: Counter,
    hits_inline: Counter,
    hits_meta: Counter,
    misses: Counter,
}

impl EngineMetrics {
    fn from_registry(registry: &Registry) -> EngineMetrics {
        EngineMetrics {
            pages: registry.counter("fp.pages_total"),
            patterns_evaluated: registry.counter("fp.patterns_evaluated_total"),
            vm_steps: registry.counter("fp.vm_steps_total"),
            hits_url: registry.counter("fp.hits_url_total"),
            hits_inline: registry.counter("fp.hits_inline_total"),
            hits_meta: registry.counter("fp.hits_meta_total"),
            misses: registry.counter("fp.misses_total"),
        }
    }
}

/// Per-page running totals, flushed into the counters once per page so the
/// match loops touch plain integers, not atomics.
#[derive(Default)]
struct Tally {
    patterns: u64,
    hits_url: u64,
    hits_inline: u64,
    hits_meta: u64,
    misses: u64,
}

/// Stable labels and flat offsets for every compiled pattern, so the
/// self-profiler can attribute VM steps to individual patterns
/// (`jQuery/url#0`, `WordPress/generator`, …) without allocating on the
/// match path, and the literal gate in the same numbering. Built once
/// per [`Engine`].
struct PatternIndex {
    /// One label per pattern, flat.
    labels: Vec<String>,
    /// `url_base[i]` = index in `labels` of `db[i].url_patterns[0]`.
    url_base: Vec<usize>,
    /// `inline_base[i]` = index in `labels` of `db[i].inline_patterns[0]`.
    inline_base: Vec<usize>,
    /// Index of the WordPress generator-meta pattern.
    generator: usize,
    /// Index of the WordPress path pattern.
    path: usize,
    /// Over every pattern: one scan per text, before its patterns run.
    gate: LiteralGate,
}

impl PatternIndex {
    fn build(db: &[Fingerprint], wordpress: &WordPressFingerprint) -> PatternIndex {
        let mut labels = Vec::new();
        let mut url_base = Vec::with_capacity(db.len());
        let mut inline_base = Vec::with_capacity(db.len());
        let mut gate = LiteralGate::new();
        for fp in db {
            url_base.push(labels.len());
            for (i, pattern) in fp.url_patterns.iter().enumerate() {
                gate.add(labels.len(), pattern);
                labels.push(format!("{}/url#{i}", fp.library.name()));
            }
            inline_base.push(labels.len());
            for (i, pattern) in fp.inline_patterns.iter().enumerate() {
                gate.add(labels.len(), pattern);
                labels.push(format!("{}/inline#{i}", fp.library.name()));
            }
        }
        let generator = labels.len();
        gate.add(generator, &wordpress.generator);
        labels.push("WordPress/generator".to_string());
        let path = labels.len();
        gate.add(path, &wordpress.path);
        labels.push("WordPress/path".to_string());
        PatternIndex {
            labels,
            url_base,
            inline_base,
            generator,
            path,
            gate,
        }
    }
}

/// A set of flat pattern indices (the [`PatternIndex`] numbering).
struct Candidates(Vec<u64>);

impl Candidates {
    fn with_capacity(patterns: usize) -> Candidates {
        Candidates(vec![0; patterns.div_ceil(64)])
    }

    fn insert(&mut self, pattern: usize) {
        self.0[pattern / 64] |= 1 << (pattern % 64);
    }

    fn contains(&self, pattern: usize) -> bool {
        self.0[pattern / 64] & (1 << (pattern % 64)) != 0
    }
}

/// Decides in one pass over a text which of a group of patterns can match
/// it at all: every match of a pattern begins with one of its literals
/// ([`Pattern::literal_prefixes`]), so a pattern none of whose literals
/// occurs in the text cannot match. The literals, lower-cased, form one
/// trie, walked from every byte of the text; only the patterns it reaches
/// then run the regex VM. Literals are compared ASCII-case-insensitively,
/// which for a case-sensitive pattern merely lets a few more through.
struct LiteralGate {
    /// `edges[n]`: trie node `n`'s `(lower-cased byte, child)` edges. Node
    /// 0 is the root, no one's child, so a child of 0 means none.
    edges: Vec<Vec<(u8, u32)>>,
    /// The root's edges again, as a table indexed by byte in either case.
    root: Box<[u32; 256]>,
    /// `ends[n]`: the patterns one of whose literals ends at node `n`.
    ends: Vec<Vec<usize>>,
    /// Patterns without a literal: candidates for every text.
    always: Vec<usize>,
}

impl LiteralGate {
    fn new() -> LiteralGate {
        LiteralGate {
            edges: vec![Vec::new()],
            root: Box::new([0; 256]),
            ends: vec![Vec::new()],
            always: Vec::new(),
        }
    }

    /// The child of `node` along the lower-cased `byte`, 0 for none.
    fn child(&self, node: u32, byte: u8) -> u32 {
        if node == 0 {
            return self.root[byte as usize];
        }
        let edges = &self.edges[node as usize];
        edges.iter().find(|e| e.0 == byte).map_or(0, |e| e.1)
    }

    /// Puts `pattern`, flat index `slot`, behind this gate.
    fn add(&mut self, slot: usize, pattern: &Pattern) {
        let literals = pattern.literal_prefixes();
        if literals.is_empty() {
            self.always.push(slot);
        }
        for literal in literals {
            let mut node = 0;
            for byte in literal.bytes().map(|b| b.to_ascii_lowercase()) {
                let mut child = self.child(node, byte);
                if child == 0 {
                    child = self.ends.len() as u32;
                    self.edges.push(Vec::new());
                    self.ends.push(Vec::new());
                    self.edges[node as usize].push((byte, child));
                    if node == 0 {
                        self.root[byte as usize] = child;
                        self.root[byte.to_ascii_uppercase() as usize] = child;
                    }
                }
                node = child;
            }
            self.ends[node as usize].push(slot);
        }
    }

    /// Replaces `out` with the patterns of this gate that can match `text`.
    fn scan(&self, text: &str, out: &mut Candidates) {
        out.0.fill(0);
        for &index in &self.always {
            out.insert(index);
        }
        let text = text.as_bytes();
        for at in 0..text.len() {
            let mut node = self.root[text[at] as usize];
            let mut rest = text[at + 1..].iter();
            while node != 0 {
                for &index in &self.ends[node as usize] {
                    out.insert(index);
                }
                node = rest
                    .next()
                    .map_or(0, |&b| self.child(node, b.to_ascii_lowercase()));
            }
        }
    }
}

/// What `analyze_resources` carries from pattern to pattern on one page.
struct PageState {
    tally: Tally,
    /// Per-page profiler scratch: one [`trace::PatternStat`] slot per
    /// pattern in the [`PatternIndex`], accumulated with plain integer adds
    /// and flushed into the tracer once per page. `None` when tracing is
    /// off — the match loops then pay nothing.
    prof: Option<Vec<trace::PatternStat>>,
    /// The patterns the latest gate scan let through.
    candidates: Candidates,
}

impl PageState {
    /// Runs `pattern` (flat index `slot`) over `text` and counts the
    /// evaluation, unless the gate has ruled the pattern out; charges its
    /// VM steps and its hit or miss to `slot` when profiling.
    fn captures<'t>(
        &mut self,
        slot: usize,
        pattern: &Pattern,
        text: &'t str,
    ) -> Option<Captures<'t>> {
        if !self.candidates.contains(slot) {
            return None;
        }
        self.tally.patterns += 1;
        let Some(stats) = &mut self.prof else {
            return pattern.captures(text);
        };
        let before = thread_vm_steps();
        let caps = pattern.captures(text);
        let stat = &mut stats[slot];
        stat.vm_steps += thread_vm_steps().wrapping_sub(before);
        stat.evals += 1;
        stat.matches += caps.is_some() as u64;
        caps
    }
}

/// The fingerprint engine. Compile once, analyze many pages; `Engine` is
/// immutable and `Sync`, so workers can share one instance.
pub struct Engine {
    db: Vec<Fingerprint>,
    wordpress: WordPressFingerprint,
    use_inline: bool,
    metrics: Option<EngineMetrics>,
    index: PatternIndex,
}

impl Engine {
    /// Compiles the built-in fingerprint database.
    pub fn new() -> Engine {
        let db = fingerprints();
        let wordpress = wordpress_fingerprint();
        let index = PatternIndex::build(&db, &wordpress);
        Engine {
            db,
            wordpress,
            use_inline: true,
            metrics: None,
            index,
        }
    }

    /// An engine that only matches script URLs, ignoring inline banners —
    /// the DESIGN.md "fingerprint source" ablation. Internally-hosted
    /// renamed files whose version only shows in a banner go undetected.
    pub fn url_only() -> Engine {
        Engine {
            use_inline: false,
            ..Engine::new()
        }
    }

    /// An engine that records `fp.*` metrics into `registry`: pages
    /// analyzed, patterns evaluated, regex-VM steps, and hit/miss counts
    /// per detection source (URL / inline banner / generator meta).
    pub fn instrumented(registry: &Registry) -> Engine {
        Engine {
            metrics: Some(EngineMetrics::from_registry(registry)),
            ..Engine::new()
        }
    }

    /// Analyzes a landing page fetched from `domain`: its resources are
    /// read in one pass over its tokens, with no tree.
    pub fn analyze(&self, html: &str, domain: &str) -> PageAnalysis {
        self.analyze_resources(&extract_resources(html), domain)
    }

    /// Analyzes already-extracted page resources.
    pub fn analyze_resources(&self, resources: &PageResources<'_>, domain: &str) -> PageAnalysis {
        let steps_before = thread_vm_steps();
        let mut page = PageState {
            tally: Tally::default(),
            // One profiler check per page: when a tracer is on this causal
            // path, every pattern evaluation below is individually timed in
            // VM steps and flushed to the tracer once, at the end.
            prof: trace::profiling()
                .then(|| vec![trace::PatternStat::default(); self.index.labels.len()]),
            candidates: Candidates::with_capacity(self.index.labels.len()),
        };
        let mut out = PageAnalysis::default();
        let mut wp_version: Option<Option<Version>> = None;
        let mut wp_path_hit = false;

        let (path_slot, path) = (self.index.path, &self.wordpress.path);
        for script in &resources.scripts {
            match &script.src {
                Some(src) => {
                    self.index.gate.scan(src, &mut page.candidates);
                    self.match_script_url(script, src, domain, &mut out, &mut page);
                    wp_path_hit |= page.captures(path_slot, path, src).is_some();
                }
                None => self.match_inline(&script.inline, &mut out, &mut page),
            }
        }
        for link in &resources.links {
            self.index.gate.scan(&link.href, &mut page.candidates);
            wp_path_hit |= page.captures(path_slot, path, &link.href).is_some();
        }
        let (generator_slot, generator) = (self.index.generator, &self.wordpress.generator);
        for content in &resources.generators {
            self.index.gate.scan(content, &mut page.candidates);
            if let Some(caps) = page.captures(generator_slot, generator, content) {
                wp_version = Some(version(&caps));
                page.tally.hits_meta += 1;
            }
        }
        if wp_version.is_none() && wp_path_hit {
            wp_version = Some(None);
        }
        out.wordpress = wp_version;

        for flash in &resources.flash {
            out.flash.push(FlashDetection {
                swf_url: flash.swf_url.to_string(),
                allow_script_access: flash.allow_script_access.as_deref().map(str::to_string),
            });
        }

        out.resource_types = self.classify_resources(resources);

        if let Some(metrics) = &self.metrics {
            metrics.pages.inc();
            metrics.patterns_evaluated.add(page.tally.patterns);
            metrics
                .vm_steps
                .add(thread_vm_steps().wrapping_sub(steps_before));
            metrics.hits_url.add(page.tally.hits_url);
            metrics.hits_inline.add(page.tally.hits_inline);
            metrics.hits_meta.add(page.tally.hits_meta);
            metrics.misses.add(page.tally.misses);
        }
        if let Some(stats) = page.prof {
            // One tracer lock for the whole page; zero-eval slots are
            // skipped inside.
            trace::pattern_stats_add(self.index.labels.iter().map(String::as_str).zip(stats));
        }
        out
    }

    fn match_script_url(
        &self,
        script: &ScriptRef<'_>,
        src: &str,
        domain: &str,
        out: &mut PageAnalysis,
        page: &mut PageState,
    ) {
        let external_host = url_host(src)
            .filter(|h| !h.eq_ignore_ascii_case(domain))
            .map(str::to_string);
        if let Some(host) = &external_host {
            out.external_scripts += 1;
            if script.integrity.is_none() {
                out.external_scripts_without_integrity += 1;
            } else if let Some(co) = &script.crossorigin {
                out.crossorigin_values.push(co.to_ascii_lowercase());
            }
            if host.ends_with(".github.io") || host.ends_with(".github.com") {
                out.github_scripts.push(ExternalScript {
                    host: host.clone(),
                    url: src.to_string(),
                    integrity: script.integrity.is_some(),
                    crossorigin: script.crossorigin.as_deref().map(str::to_string),
                });
            }
        }
        for (fi, fp) in self.db.iter().enumerate() {
            for (pi, pat) in fp.url_patterns.iter().enumerate() {
                if let Some(caps) = page.captures(self.index.url_base[fi] + pi, pat, src) {
                    let inclusion = match &external_host {
                        Some(host) => DetectedInclusion::External { host: host.clone() },
                        None => DetectedInclusion::Internal,
                    };
                    push_detection(
                        out,
                        Detection {
                            library: fp.library,
                            version: version(&caps),
                            inclusion,
                            integrity: script.integrity.is_some(),
                            crossorigin: script.crossorigin.as_deref().map(str::to_string),
                            url: src.to_string(),
                        },
                    );
                    page.tally.hits_url += 1;
                    return; // first matching library wins for this script
                }
            }
        }
        page.tally.misses += 1;
    }

    fn match_inline(&self, text: &str, out: &mut PageAnalysis, page: &mut PageState) {
        if !self.use_inline || text.is_empty() {
            return;
        }
        self.index.gate.scan(text, &mut page.candidates);
        for (fi, fp) in self.db.iter().enumerate() {
            for (pi, pat) in fp.inline_patterns.iter().enumerate() {
                if let Some(caps) = page.captures(self.index.inline_base[fi] + pi, pat, text) {
                    push_detection(
                        out,
                        Detection {
                            library: fp.library,
                            version: version(&caps),
                            inclusion: DetectedInclusion::Internal,
                            integrity: false,
                            crossorigin: None,
                            url: String::new(),
                        },
                    );
                    page.tally.hits_inline += 1;
                    break;
                }
            }
        }
    }

    fn classify_resources(&self, resources: &PageResources<'_>) -> Vec<ResourceType> {
        let mut found = Vec::new();
        let mut add = |t: ResourceType| {
            if !found.contains(&t) {
                found.push(t);
            }
        };
        if !resources.scripts.is_empty() {
            add(ResourceType::JavaScript);
        }
        for script in &resources.scripts {
            if let Some(src) = &script.src {
                classify_url(src, &mut add);
            }
        }
        for link in &resources.links {
            match &*link.rel {
                // The paper classifies `.php`-generated stylesheets as
                // imported-HTML, not CSS (§5 footnote 7).
                "stylesheet" if !link.href.contains(".php") => add(ResourceType::Css),
                "icon" | "shortcut icon" | "apple-touch-icon" => add(ResourceType::Favicon),
                "alternate" if (link.href.contains(".xml") || link.href.contains("rss")) => {
                    add(ResourceType::Xml);
                }
                _ => {}
            }
            classify_url(&link.href, &mut add);
        }
        for img in &resources.images {
            classify_url(img, &mut add);
        }
        if !resources.flash.is_empty() {
            add(ResourceType::Flash);
        }
        found.sort();
        found
    }
}

fn classify_url(url: &str, add: &mut dyn FnMut(ResourceType)) {
    let path = url.split(['?', '#']).next().unwrap_or(url).as_bytes();
    let ends_with = |ext: &[u8]| {
        path.len() >= ext.len() && path[path.len() - ext.len()..].eq_ignore_ascii_case(ext)
    };
    if path.windows(4).any(|w| w.eq_ignore_ascii_case(b".php")) {
        add(ResourceType::ImportedHtml);
    }
    if ends_with(b".xml") {
        add(ResourceType::Xml);
    }
    if ends_with(b".svg") {
        add(ResourceType::Svg);
    }
    if ends_with(b".axd") || url.contains(".axd?") {
        add(ResourceType::Axd);
    }
    if ends_with(b".css") {
        add(ResourceType::Css);
    }
    if ends_with(b".ico") {
        add(ResourceType::Favicon);
    }
}

/// The version capture group 1 holds, if it holds one.
fn version(caps: &Captures<'_>) -> Option<Version> {
    caps.get(1)
        .filter(|s| !s.is_empty())
        .and_then(|s| Version::parse(s).ok())
}

/// Keeps at most one detection per library, preferring versioned ones.
fn push_detection(out: &mut PageAnalysis, det: Detection) {
    match out.detections.iter_mut().find(|d| d.library == det.library) {
        Some(existing) => {
            if existing.version.is_none() && det.version.is_some() {
                *existing = det;
            }
        }
        None => out.detections.push(det),
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new()
    }

    #[test]
    fn detects_versioned_cdn_jquery() {
        let html = r#"<script src="https://ajax.googleapis.com/ajax/libs/jquery/1.12.4/jquery.min.js"></script>"#;
        let a = engine().analyze(html, "site.example");
        assert_eq!(a.detections.len(), 1);
        let d = &a.detections[0];
        assert_eq!(d.library, LibraryId::JQuery);
        assert_eq!(d.version, Some(Version::parse("1.12.4").expect("version")));
        assert_eq!(
            d.inclusion,
            DetectedInclusion::External {
                host: "ajax.googleapis.com".into()
            }
        );
    }

    #[test]
    fn batch_analysis_matches_sequential_for_any_thread_count() {
        let pages: Vec<(String, String)> = (0..60)
            .map(|i| {
                (
                    format!("site{i:03}.example"),
                    format!(
                        r#"<script src="https://ajax.googleapis.com/ajax/libs/jquery/1.{}.0/jquery.min.js"></script>"#,
                        i % 12
                    ),
                )
            })
            .collect();
        let refs: Vec<(&str, &str)> = pages
            .iter()
            .map(|(d, h)| (d.as_str(), h.as_str()))
            .collect();
        let engine = engine();
        let sequential: Vec<PageAnalysis> = refs
            .iter()
            .map(|&(domain, html)| engine.analyze(html, domain))
            .collect();
        for threads in [1, 2, 8] {
            let batch = webvuln_exec::Executor::new(threads)
                .map(&refs, |&(domain, html)| engine.analyze(html, domain));
            assert_eq!(batch, sequential, "threads={threads}");
        }
    }

    #[test]
    fn detects_internal_without_host() {
        let html = r#"<script src="/assets/js/bootstrap-3.3.7.min.js"></script>"#;
        let a = engine().analyze(html, "site.example");
        let d = a.library(LibraryId::Bootstrap).expect("bootstrap");
        assert_eq!(d.inclusion, DetectedInclusion::Internal);
        assert_eq!(
            d.version.as_ref().map(ToString::to_string),
            Some("3.3.7".into())
        );
    }

    #[test]
    fn library_without_version_is_detected_versionless() {
        let html = r#"<script src="/js/jquery.min.js"></script>"#;
        let a = engine().analyze(html, "site.example");
        let d = a.library(LibraryId::JQuery).expect("jquery");
        assert_eq!(d.version, None);
    }

    #[test]
    fn wordpress_meta_and_query_version() {
        let html = r#"
            <meta name="generator" content="WordPress 5.6">
            <script src="/wp-includes/js/jquery/jquery.min.js?ver=3.5.1"></script>
            <script src="/wp-includes/js/jquery/jquery-migrate.min.js?ver=3.3.2"></script>
        "#;
        let a = engine().analyze(html, "wp.example");
        assert_eq!(
            a.wordpress,
            Some(Some(Version::parse("5.6").expect("version")))
        );
        assert_eq!(
            a.library(LibraryId::JQuery).expect("jq").version,
            Some(Version::parse("3.5.1").expect("version"))
        );
        assert_eq!(
            a.library(LibraryId::JQueryMigrate)
                .expect("migrate")
                .version,
            Some(Version::parse("3.3.2").expect("version"))
        );
    }

    #[test]
    fn wordpress_detected_from_paths_alone() {
        let html = r#"<link rel="stylesheet" href="/wp-content/themes/a/style.css">"#;
        let a = engine().analyze(html, "wp.example");
        assert_eq!(a.wordpress, Some(None));
    }

    #[test]
    fn migrate_and_ui_not_confused_with_jquery() {
        let html = r#"
            <script src="/wp-includes/js/jquery/jquery-migrate.min.js?ver=1.4.1"></script>
            <script src="https://code.jquery.com/ui/1.12.1/jquery-ui.min.js"></script>
        "#;
        let a = engine().analyze(html, "x.example");
        assert!(a.has_library(LibraryId::JQueryMigrate));
        assert!(a.has_library(LibraryId::JQueryUi));
        assert!(!a.has_library(LibraryId::JQuery));
    }

    #[test]
    fn inline_banner_detection() {
        let html = "<script>/*! jQuery v3.5.1 | (c) OpenJS */ core();</script>";
        let a = engine().analyze(html, "x.example");
        let d = a.library(LibraryId::JQuery).expect("jquery");
        assert_eq!(
            d.version.as_ref().map(ToString::to_string),
            Some("3.5.1".into())
        );
        assert_eq!(d.inclusion, DetectedInclusion::Internal);
    }

    #[test]
    fn flash_detection_with_script_access() {
        let html = r#"
            <object data="banner.swf">
              <param name="AllowScriptAccess" value="always">
            </object>"#;
        let a = engine().analyze(html, "f.example");
        assert_eq!(a.flash.len(), 1);
        assert_eq!(a.flash[0].allow_script_access.as_deref(), Some("always"));
        assert!(a.resource_types.contains(&ResourceType::Flash));
    }

    #[test]
    fn flash_urls_ending_inside_a_character_do_not_panic() {
        for html in [
            r#"<embed src="日ab">"#,
            r#"<object data="日ab"></object>"#,
            r#"<object><param name="movie" value="日ab"></object>"#,
        ] {
            let a = engine().analyze(html, "f.example");
            assert!(a.flash.is_empty(), "{html}");
        }
    }

    #[test]
    fn sri_accounting() {
        let html = r#"
            <script src="https://cdn.a.example/x.js" integrity="sha384-aaa" crossorigin="anonymous"></script>
            <script src="https://cdn.b.example/y.js"></script>
            <script src="/local.js"></script>
        "#;
        let a = engine().analyze(html, "s.example");
        assert_eq!(a.external_scripts, 2);
        assert_eq!(a.external_scripts_without_integrity, 1);
        assert_eq!(a.crossorigin_values, vec!["anonymous"]);
    }

    #[test]
    fn github_hosted_scripts_are_collected() {
        let html = r#"<script src="https://blueimp.github.io/jQuery-File-Upload/js/vendor/jquery.ui.widget.js"></script>"#;
        let a = engine().analyze(html, "g.example");
        assert_eq!(a.github_scripts.len(), 1);
        assert_eq!(a.github_scripts[0].host, "blueimp.github.io");
        assert!(!a.github_scripts[0].integrity);
    }

    #[test]
    fn resource_classification() {
        let html = r#"
            <link rel="stylesheet" href="/style.css">
            <link rel="icon" href="/favicon.ico">
            <link rel="alternate" type="application/rss+xml" href="/feed.xml">
            <script src="/inc/loader.js.php"></script>
            <img src="/logo.svg">
            <script src="/WebResource.axd?d=x"></script>
        "#;
        let a = engine().analyze(html, "r.example");
        for t in [
            ResourceType::JavaScript,
            ResourceType::Css,
            ResourceType::Favicon,
            ResourceType::Xml,
            ResourceType::ImportedHtml,
            ResourceType::Axd,
            ResourceType::Svg,
        ] {
            assert!(
                a.resource_types.contains(&t),
                "{t:?} in {:?}",
                a.resource_types
            );
        }
    }

    #[test]
    fn one_detection_per_library_prefers_versioned() {
        let html = r#"
            <script src="/js/jquery.min.js"></script>
            <script src="/js/jquery-1.12.4.min.js"></script>
        "#;
        let a = engine().analyze(html, "x.example");
        assert_eq!(a.detections.len(), 1);
        assert!(a.detections[0].version.is_some());
    }

    #[test]
    fn empty_page_yields_empty_analysis() {
        let a = engine().analyze("", "x.example");
        assert!(a.detections.is_empty());
        assert!(a.wordpress.is_none());
        assert!(a.resource_types.is_empty());
    }

    #[test]
    fn literal_gate_lets_through_exactly_the_possible_patterns() {
        let sources = [
            "jquery",
            r"/wp-(?:a|b)",
            r"\w+",
            "^jquery",
            "Mixed-Case",
            "JQ(?:uery-|x)",
        ];
        let patterns: Vec<Pattern> = sources.iter().map(|s| Pattern::new(s).unwrap()).collect();
        let mut gate = LiteralGate::new();
        // Flat indices need not be dense or start at zero.
        for (slot, pattern) in (60..).step_by(2).zip(&patterns) {
            gate.add(slot, pattern);
        }
        let mut candidates = Candidates::with_capacity(72);
        let mut let_through = |text: &str| {
            gate.scan(text, &mut candidates);
            (0..72)
                .filter(|&i| candidates.contains(i))
                .collect::<Vec<_>>()
        };
        // No literal (`\w+`, a class too wide to spell out) or anchored
        // (`^jquery`): always candidates.
        assert_eq!(let_through(""), [64, 66]);
        assert_eq!(let_through("jquer/wp"), [64, 66]);
        // A literal that is the whole text, in any case, and one cut short:
        // `/wp-` is neither of `/wp-a` and `/wp-b`.
        assert_eq!(let_through("JQuery"), [60, 64, 66]);
        assert_eq!(let_through("x/WP-"), [64, 66]);
        assert_eq!(let_through("x/WP-B"), [62, 64, 66]);
        assert_eq!(let_through("éjqueryé/wp"), [60, 64, 66]);
        assert_eq!(let_through("mixed-case /wp-a"), [62, 64, 66, 68]);
        // Literals sharing a path through the trie: `jquery` ends inside
        // `jquery-`, and `jqx` branches off it.
        assert_eq!(let_through("a jquery-"), [60, 64, 66, 70]);
        assert_eq!(let_through("jqX"), [64, 66, 70]);
        // Each scan starts from nothing.
        assert_eq!(let_through("-"), [64, 66]);
    }

    /// The backtracker is every built-in pattern's oracle over the texts
    /// of a rendered web: the VM reports the captures it reports, and a
    /// pattern it matches starts that match with one of its literal
    /// prefixes and gets through the gate.
    #[test]
    fn builtin_patterns_agree_with_the_backtracker_over_a_rendered_web() {
        use std::collections::BTreeSet;
        use webvuln_pattern::{Backtracker, BtOutcome};
        use webvuln_webgen::{Ecosystem, EcosystemConfig, PageOutcome, Timeline};

        let eco = Ecosystem::generate(EcosystemConfig {
            seed: 42,
            domain_count: 3000,
            timeline: Timeline::paper(),
        });
        let mut texts = BTreeSet::new();
        for model in eco.models() {
            for week in (0..201).step_by(20) {
                let PageOutcome::Page(html) = eco.page(&model.name, week) else {
                    continue;
                };
                let page = extract_resources(&html);
                for script in &page.scripts {
                    texts.insert(script.src.as_ref().unwrap_or(&script.inline).to_string());
                }
                texts.extend(page.links.iter().map(|link| link.href.to_string()));
                texts.extend(page.generators.iter().map(|content| content.to_string()));
            }
        }

        let engine = Engine::new();
        // In `PatternIndex` order, so that a pattern's slot is its index.
        let patterns: Vec<&Pattern> = engine
            .db
            .iter()
            .flat_map(|fp| fp.url_patterns.iter().chain(&fp.inline_patterns))
            .chain([&engine.wordpress.generator, &engine.wordpress.path])
            .collect();
        assert_eq!(patterns.len(), engine.index.labels.len());
        // Every built-in pattern is compiled case-insensitively.
        let oracles: Vec<Backtracker> = patterns
            .iter()
            .map(|p| Backtracker::new(p.as_str(), true).expect("built-in pattern parses"))
            .collect();
        let mut candidates = Candidates::with_capacity(patterns.len());
        let mut matches = 0;
        for text in &texts {
            engine.index.gate.scan(text, &mut candidates);
            for (slot, (pattern, oracle)) in patterns.iter().zip(&oracles).enumerate() {
                let (outcome, _, expected) = oracle.search(text, 1_000_000);
                assert_ne!(outcome, BtOutcome::BudgetExhausted, "{pattern} on {text:?}");
                assert_eq!(pattern.captures(text), expected, "{pattern} on {text:?}");
                let Some(caps) = expected else { continue };
                matches += 1;
                let rest = text[caps.get_match().start()..].to_ascii_lowercase();
                let literals = pattern.literal_prefixes();
                assert!(
                    literals.is_empty() || literals.iter().any(|l| rest.starts_with(l.as_str())),
                    "{pattern} matches {text:?} at none of {literals:?}"
                );
                assert!(
                    candidates.contains(slot),
                    "the gate drops {pattern} on {text:?}"
                );
            }
        }
        println!("{} texts, {matches} matches", texts.len());
        assert!(
            texts.len() > 1000 && matches > 1000,
            "{} texts, {matches} matches",
            texts.len()
        );
    }

    #[test]
    fn profiler_attributes_vm_steps_to_individual_patterns() {
        let tracer = trace::Tracer::new(trace::TraceMode::Ring);
        let html = r#"
            <meta name="generator" content="WordPress 5.6">
            <script src="https://ajax.googleapis.com/ajax/libs/jquery/1.12.4/jquery.min.js"></script>
            <script src="/js/unknown-widget.js"></script>
        "#;
        let e = engine();
        let baseline = e.analyze(html, "site.example");
        {
            let _g = tracer.install();
            let profiled = e.analyze(html, "site.example");
            assert_eq!(profiled, baseline, "profiling never changes results");
        }
        let data = tracer.finish();
        assert!(!data.patterns.is_empty());
        // Attribution is per-pattern, not per-library: exactly one of the
        // jQuery url patterns matched the CDN script; its siblings were
        // evaluated (and charged VM steps) without matching.
        let jq: Vec<_> = data
            .patterns
            .iter()
            .filter(|(label, _)| label.starts_with("jQuery/url#"))
            .collect();
        assert!(!jq.is_empty(), "jQuery url patterns were evaluated");
        let hit = jq
            .iter()
            .find(|(_, s)| s.matches >= 1)
            .expect("the CDN script matched one jQuery url pattern");
        assert!(hit.1.evals >= 1);
        assert!(hit.1.vm_steps > 0, "VM steps attributed to the pattern");
        assert!(
            jq.iter().any(|(_, s)| s.evals >= 1 && s.matches == 0),
            "sibling patterns carry their own (missed) evaluations"
        );
        let wp = data
            .patterns
            .iter()
            .find(|(label, _)| label == "WordPress/generator")
            .map(|(_, s)| *s)
            .expect("generator evaluated");
        assert_eq!(wp.matches, 1);
        // An evaluation is a run of the regex VM. The gate lets a pattern
        // run only on a URL one of its literal prefixes occurs in. On the
        // CDN script `jquery[.-]` (literals `jquery.`, `jquery-`) ran and
        // missed, then `/jquery/(\d…` (`/jquery/0`…`/jquery/9`) hit. The
        // `/(?:a|b)@` patterns (`/jqueryui@`, `/jquery-ui@`, …) ran on
        // neither script, nothing ran on the unknown one, and each run is
        // individually attributed, never lumped.
        let evals = |label: &str| {
            let stat = data.patterns.iter().find(|(l, _)| l == label);
            stat.map_or(0, |(_, s)| s.evals)
        };
        assert_eq!(evals("jQuery-Migrate/url#0"), 0);
        assert_eq!(evals("jQuery-UI/url#1"), 0);
        assert_eq!(evals("Bootstrap/url#0"), 0);
        assert_eq!(evals("jQuery/url#1"), 1);
        assert_eq!(evals("jQuery/url#2"), 1);
        assert_eq!(evals("WordPress/path"), 0);
        let total_evals: u64 = data.patterns.iter().map(|(_, s)| s.evals).sum();
        assert_eq!(
            total_evals, 3,
            "2 on the CDN script, 0 on the unknown one, 1 on the meta"
        );
        // Without a tracer the profiler adds nothing.
        let again = e.analyze(html, "site.example");
        assert_eq!(again, baseline);
    }

    #[test]
    fn instrumented_engine_records_hits_per_source() {
        let registry = Registry::new();
        let e = Engine::instrumented(&registry);
        let html = r#"
            <meta name="generator" content="WordPress 5.6">
            <script src="https://ajax.googleapis.com/ajax/libs/jquery/1.12.4/jquery.min.js"></script>
            <script>/*! jQuery v3.5.1 */ core();</script>
            <script src="/js/unknown-widget.js"></script>
        "#;
        let a = e.analyze(html, "site.example");
        assert!(a.has_library(LibraryId::JQuery));

        let snap = registry.snapshot();
        assert_eq!(snap.counter("fp.pages_total"), Some(1));
        assert_eq!(snap.counter("fp.hits_url_total"), Some(1));
        assert_eq!(snap.counter("fp.hits_inline_total"), Some(1));
        assert_eq!(snap.counter("fp.hits_meta_total"), Some(1));
        assert_eq!(snap.counter("fp.misses_total"), Some(1));
        // VM runs: 2 on the CDN URL (`jquery[.-]` misses, `/jquery/(\d…`
        // hits), 1 on the banner, none on the unknown script (no literal
        // of any pattern occurs in it), 1 on the generator: 2 + 1 + 0 + 1.
        assert_eq!(snap.counter("fp.patterns_evaluated_total"), Some(4));
        assert!(snap.counter("fp.vm_steps_total").unwrap_or(0) > 0);

        // The default engine records nothing.
        let before = registry.snapshot();
        let _ = engine().analyze(html, "site.example");
        assert_eq!(registry.snapshot(), before);
    }
}
