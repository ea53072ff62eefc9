//! The analysis engine: parses a landing page and reports every
//! recognised client-side resource with its version — the pipeline stage
//! the paper delegates to Wappalyzer (§4.2).

use crate::patterns::{fingerprints, wordpress_fingerprint, Fingerprint, WordPressFingerprint};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};
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
    memo_hits: Counter,
    memo_misses: Counter,
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
            memo_hits: registry.counter("fp.memo_hits_total"),
            memo_misses: registry.counter("fp.memo_misses_total"),
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
    memo_hits: u64,
    memo_misses: u64,
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
    /// VM steps and its hit or miss to `slot` when profiling. Inlined, so
    /// that a ruled-out pattern costs the gate's bit test and no call.
    #[inline(always)]
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

/// Which of a page's texts a [`Verdict`] is on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Script,
    Inline,
    Href,
    Generator,
}

/// What one text yields on any page: the half of `analyze_resources` that
/// reads the text alone, and so the half the engine's memo keeps.
/// A version is kept as its [`Span`] in the text and parsed per page, so
/// a miss parses it once, as a hit does.
struct Verdict {
    /// A script URL's first library (`db` index) with a matching pattern.
    url: Option<(usize, Span)>,
    /// A script URL's host, as [`url_host`] reads it.
    host: Span,
    /// A URL's resource classes, as [`classify_url`] reads them.
    classes: u8,
    /// An inline text's libraries with a matching banner.
    inline: Vec<(usize, Span)>,
    /// WordPress, as the path pattern (a URL) or the generator pattern (a
    /// meta) finds it.
    wordpress: Option<Span>,
}

/// Where a part of a verdict's text lies in it, if anywhere.
type Span = Option<Range<usize>>;

/// The memo's shards, each shard's bounds (verdicts and text bytes; a
/// shard at either is cleared), and the doorkeeper's slots.
const MEMO_SHARDS: usize = 16;
const SHARD_ENTRIES: usize = 256;
const SHARD_KEY_BYTES: usize = 32 << 10;
const SEEN_SLOTS: usize = 1 << 14;

/// One shard of the engine's memo of verdicts on texts seen before.
#[derive(Default)]
struct Shard {
    /// Keyed by [`text_hash`]; the kind and the text confirm a hit.
    entries: HashMap<u64, (Kind, Box<str>, Verdict), BuildHasherDefault<Passthrough>>,
    key_bytes: usize,
}

/// The memo's keys are hashes already, and are used as they are. Texts
/// crafted to collide cost at most a probe of one bounded shard.
#[derive(Default)]
struct Passthrough(u64);

impl Hasher for Passthrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = bytes.iter().fold(self.0, |h, &b| h << 8 | u64::from(b));
    }
}

impl Shard {
    fn get(&self, hash: u64, kind: Kind, text: &str) -> Option<&Verdict> {
        let (k, key, verdict) = self.entries.get(&hash)?;
        (*k == kind && **key == *text).then_some(verdict)
    }

    fn put(&mut self, hash: u64, kind: Kind, text: &str, verdict: Verdict) {
        if self.entries.len() >= SHARD_ENTRIES || self.key_bytes + text.len() > SHARD_KEY_BYTES {
            self.entries.clear();
            self.key_bytes = 0;
        }
        if text.len() <= SHARD_KEY_BYTES {
            self.key_bytes += text.len();
            if let Some((_, old, _)) = self.entries.insert(hash, (kind, text.into(), verdict)) {
                self.key_bytes -= old.len();
            }
        }
    }
}

/// One hash of `text` and its kind, eight bytes a step.
fn text_hash(kind: Kind, text: &str) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut words = text.as_bytes().chunks_exact(8);
    let mut h = (kind as u64 + 1).wrapping_mul(K) ^ text.len() as u64;
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
        h = (h ^ word).wrapping_mul(K).rotate_left(29);
    }
    let tail = words.remainder().iter();
    h = (h ^ tail.fold(0, |t, &b| t << 8 | u64::from(b))).wrapping_mul(K);
    h ^ h >> 29
}

/// The fingerprint engine. Compile once, analyze many pages; `Engine` is
/// `Sync`, so workers share one instance, and with it one memo.
pub struct Engine {
    db: Vec<Fingerprint>,
    wordpress: WordPressFingerprint,
    use_inline: bool,
    metrics: Option<EngineMetrics>,
    index: PatternIndex,
    /// Picked by [`text_hash`], by bits the shards' maps do not read.
    memo: Box<[Mutex<Shard>]>,
    /// The memo's doorkeeper: per pair of slots, the hashes of the last two
    /// texts first seen there (`Relaxed`: it publishes nothing; a lost
    /// update costs a miss). A text is copied into the memo on its second
    /// sighting, and one seen once costs a hash and a miss, with no lock.
    seen: Box<[AtomicU64]>,
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
            memo: (0..MEMO_SHARDS).map(|_| Mutex::default()).collect(),
            seen: (0..SEEN_SLOTS).map(|_| AtomicU64::new(0)).collect(),
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
    /// analyzed, patterns evaluated, regex-VM steps, memo hits and misses,
    /// and hit/miss counts per detection source (URL / inline / meta).
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
            // VM steps and flushed to the tracer once, at the end, and the
            // memo is bypassed so that every text runs its patterns.
            prof: trace::profiling()
                .then(|| vec![trace::PatternStat::default(); self.index.labels.len()]),
            // Sized by the first text the memo cannot answer.
            candidates: Candidates(Vec::new()),
        };
        let mut out = PageAnalysis::default();
        let mut wp_version: Option<Option<Version>> = None;
        let (mut wp_path_hit, mut classes) = (false, 0);

        for script in &resources.scripts {
            match &script.src {
                Some(src) => self.verdict(Kind::Script, src, &mut page, |v, tally| {
                    wp_path_hit |= v.wordpress.is_some();
                    classes |= v.classes;
                    self.script_url(script, src, domain, v, &mut out, tally);
                }),
                None if self.use_inline && !script.inline.is_empty() => {
                    self.verdict(Kind::Inline, &script.inline, &mut page, |v, tally| {
                        for (fi, span) in &v.inline {
                            let detection = Detection {
                                library: self.db[*fi].library,
                                version: version(&script.inline, span),
                                inclusion: DetectedInclusion::Internal,
                                integrity: false,
                                crossorigin: None,
                                url: String::new(),
                            };
                            push_detection(&mut out, detection);
                            tally.hits_inline += 1;
                        }
                    });
                }
                None => {}
            }
        }
        for link in &resources.links {
            self.verdict(Kind::Href, &link.href, &mut page, |v, _| {
                wp_path_hit |= v.wordpress.is_some();
                classes |= v.classes;
            });
        }
        for content in &resources.generators {
            self.verdict(Kind::Generator, content, &mut page, |v, tally| {
                if let Some(span) = &v.wordpress {
                    wp_version = Some(version(content, span));
                    tally.hits_meta += 1;
                }
            });
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

        out.resource_types = classify_resources(resources, classes);

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
            metrics.memo_hits.add(page.tally.memo_hits);
            metrics.memo_misses.add(page.tally.memo_misses);
        }
        if let Some(stats) = page.prof {
            // One tracer lock for the whole page; zero-eval slots are
            // skipped inside.
            trace::pattern_stats_add(self.index.labels.iter().map(String::as_str).zip(stats));
        }
        out
    }

    /// Hands `apply` the [`Verdict`] on `text`: the memo's, when it holds
    /// one and no profiler is on; else one the patterns reach, which the
    /// memo keeps when the doorkeeper has seen `text` before. A text
    /// seen once takes no lock, and none is held while a pattern runs.
    fn verdict(
        &self,
        kind: Kind,
        text: &str,
        page: &mut PageState,
        apply: impl FnOnce(&Verdict, &mut Tally),
    ) {
        if page.prof.is_some() {
            let verdict = self.judge(kind, text, page);
            return apply(&verdict, &mut page.tally);
        }
        let hash = text_hash(kind, text);
        let seen = &self.seen[(hash as usize % SEEN_SLOTS) & !1..][..2];
        let second = seen.iter().any(|slot| slot.load(Relaxed) == hash);
        if second {
            if let Some(verdict) = self.shard(hash).get(hash, kind, text) {
                page.tally.memo_hits += 1;
                return apply(verdict, &mut page.tally);
            }
        } else {
            seen[1].store(seen[0].load(Relaxed), Relaxed);
            seen[0].store(hash, Relaxed);
        }
        page.tally.memo_misses += 1;
        let verdict = self.judge(kind, text, page);
        apply(&verdict, &mut page.tally);
        if second {
            self.shard(hash).put(hash, kind, text, verdict);
        }
    }

    /// The memo shard for `hash`. One a panicking holder poisoned is used
    /// as it stands: holders read, or update it in steps that each leave
    /// it valid.
    fn shard(&self, hash: u64) -> MutexGuard<'_, Shard> {
        let shard = &self.memo[(hash >> 32) as usize % MEMO_SHARDS];
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs the patterns for a text of `kind` that the gate lets through.
    /// Out of line: one copy serves every `verdict` instance.
    #[inline(never)]
    fn judge(&self, kind: Kind, text: &str, page: &mut PageState) -> Verdict {
        if page.candidates.0.is_empty() {
            page.candidates = Candidates::with_capacity(self.index.labels.len());
        }
        self.index.gate.scan(text, &mut page.candidates);
        let index = &self.index;
        let mut found = self.db.iter().enumerate().filter_map(|(fi, fp)| {
            let (base, patterns) = match kind {
                Kind::Inline => (index.inline_base[fi], &fp.inline_patterns),
                _ => (index.url_base[fi], &fp.url_patterns),
            };
            let mut runs = patterns.iter().enumerate();
            let caps = runs.find_map(|(pi, pat)| page.captures(base + pi, pat, text))?;
            Some((fi, caps.range(1)))
        });
        let (url, inline) = match kind {
            Kind::Script => (found.next(), Vec::new()),
            Kind::Inline => (None, found.collect()),
            Kind::Href | Kind::Generator => (None, Vec::new()),
        };
        let wordpress = match kind {
            Kind::Inline => None,
            Kind::Generator => page
                .captures(index.generator, &self.wordpress.generator, text)
                .map(|caps| caps.range(1)),
            Kind::Script | Kind::Href => page
                .captures(index.path, &self.wordpress.path, text)
                .map(|_| None),
        };
        let span = |part: &str| part.as_ptr() as usize - text.as_ptr() as usize;
        let host = match kind {
            Kind::Script => url_host(text).map(|host| span(host)..span(host) + host.len()),
            _ => None,
        };
        let classes = match kind {
            Kind::Script | Kind::Href => classify_url(text),
            Kind::Inline | Kind::Generator => 0,
        };
        Verdict {
            url,
            host,
            classes,
            inline,
            wordpress,
        }
    }

    /// The per-page half of a script URL: its host against the page's
    /// domain, SRI and `crossorigin`, and the detection its verdict names.
    fn script_url(
        &self,
        script: &ScriptRef<'_>,
        src: &str,
        domain: &str,
        verdict: &Verdict,
        out: &mut PageAnalysis,
        tally: &mut Tally,
    ) {
        let external_host = verdict.host.clone().map(|host| &src[host]);
        let external_host = external_host
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
        let Some((fi, span)) = &verdict.url else {
            tally.misses += 1;
            return;
        };
        let inclusion = match external_host {
            Some(host) => DetectedInclusion::External { host },
            None => DetectedInclusion::Internal,
        };
        let detection = Detection {
            library: self.db[*fi].library,
            version: version(src, span),
            inclusion,
            integrity: script.integrity.is_some(),
            crossorigin: script.crossorigin.as_deref().map(str::to_string),
            url: src.to_string(),
        };
        push_detection(out, detection);
        tally.hits_url += 1;
    }
}

/// The resource classes of a page whose script and link URLs have the
/// classes `urls` (a [`classify_url`] set).
fn classify_resources(resources: &PageResources<'_>, urls: u8) -> Vec<ResourceType> {
    let mut found = urls;
    let mut add = |t: ResourceType| found |= 1 << t as u8;
    if !resources.scripts.is_empty() {
        add(ResourceType::JavaScript);
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
    }
    for img in &resources.images {
        found |= classify_url(img);
    }
    if !resources.flash.is_empty() {
        found |= 1 << ResourceType::Flash as u8;
    }
    ResourceType::ALL
        .into_iter()
        .filter(|&t| found & 1 << t as u8 != 0)
        .collect()
}

/// The resource classes `url` names, one bit per [`ResourceType`].
fn classify_url(url: &str) -> u8 {
    let mut found = 0;
    let mut add = |t: ResourceType| found |= 1 << t as u8;
    let path = url.split(['?', '#']).next().unwrap_or(url).as_bytes();
    let ends_with = |ext: &[u8]| {
        path.len() >= ext.len() && path[path.len() - ext.len()..].eq_ignore_ascii_case(ext)
    };
    let axd_query = |(at, _)| at >= 4 && url.as_bytes()[at - 4..at].eq_ignore_ascii_case(b".axd");
    if path.windows(4).any(|w| w.eq_ignore_ascii_case(b".php")) {
        add(ResourceType::ImportedHtml);
    }
    if ends_with(b".xml") {
        add(ResourceType::Xml);
    }
    if ends_with(b".svg") {
        add(ResourceType::Svg);
    }
    if ends_with(b".axd") || url.match_indices('?').any(axd_query) {
        add(ResourceType::Axd);
    }
    if ends_with(b".css") {
        add(ResourceType::Css);
    }
    if ends_with(b".ico") {
        add(ResourceType::Favicon);
    }
    found
}

/// The version `span` of `text` holds, if it holds one.
fn version(text: &str, span: &Span) -> Option<Version> {
    let text = Some(&text[span.clone()?]).filter(|s| !s.is_empty());
    text.and_then(|s| Version::parse(s).ok())
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
        assert!(a.library(LibraryId::JQueryMigrate).is_some());
        assert!(a.library(LibraryId::JQueryUi).is_some());
        assert!(a.library(LibraryId::JQuery).is_none());
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
            <script src="HTTPS://cdn.c.example/z.js" integrity="sha384-c" crossorigin="USE-CREDENTIALS"></script>
            <script src="//[::1]:8080/x.js"></script>
            <script src="https://S.EXAMPLE/own.js"></script>
            <script src="HTTPS://CODE.jquery.com/jquery-3.5.1.min.js"></script>
        "#;
        let a = engine().analyze(html, "s.example");
        assert_eq!(a.external_scripts, 5);
        assert_eq!(a.external_scripts_without_integrity, 3);
        assert_eq!(a.crossorigin_values, vec!["anonymous", "use-credentials"]);
        let host = "CODE.jquery.com".to_string();
        let jquery = a.library(LibraryId::JQuery).expect("jquery");
        assert_eq!(jquery.inclusion, DetectedInclusion::External { host });
    }

    #[test]
    fn url_classes_ignore_case() {
        let classes = |url: &str| {
            let found = classify_url(url);
            let all = ResourceType::ALL.into_iter();
            all.filter(|&t| found & 1 << t as u8 != 0)
                .collect::<Vec<_>>()
        };
        use ResourceType::{Axd, ImportedHtml};
        assert_eq!(classes("/h.php?r=/Web.AXD?d=1"), [ImportedHtml, Axd]);
        assert_eq!(classes("/h.php?r=/Web.axd?d=1"), [ImportedHtml, Axd]);
        assert_eq!(classes("/A.PHP#x.AXD"), [ImportedHtml]);
        assert_eq!(classes("/WebResource.AXD"), [Axd]);
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
        let tracer = trace::Tracer::new();
        let html = r#"
            <meta name="generator" content="WordPress 5.6">
            <script src="https://ajax.googleapis.com/ajax/libs/jquery/1.12.4/jquery.min.js"></script>
            <script src="/js/unknown-widget.js"></script>
        "#;
        let e = engine();
        let baseline = e.analyze(html, "site.example");
        // A text seen twice is in the memo, which a profiled page bypasses.
        assert_eq!(e.analyze(html, "site.example"), baseline);
        assert_eq!(memo_footprint(&e).0, 3);
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
        assert!(a.library(LibraryId::JQuery).is_some());

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
        assert_eq!(snap.counter("fp.memo_misses_total"), Some(4));
        assert_eq!(snap.counter("fp.memo_hits_total"), Some(0));

        // The second sighting of each text runs its patterns again and
        // fills the memo; the third is answered from it, with no VM run.
        for _ in 0..2 {
            assert_eq!(e.analyze(html, "site.example"), a);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("fp.patterns_evaluated_total"), Some(8));
        assert_eq!(snap.counter("fp.memo_misses_total"), Some(8));
        assert_eq!(snap.counter("fp.memo_hits_total"), Some(4));
        assert_eq!(snap.counter("fp.hits_url_total"), Some(3));

        // The default engine records nothing.
        let before = registry.snapshot();
        let _ = engine().analyze(html, "site.example");
        assert_eq!(registry.snapshot(), before);
    }

    /// The memo's entries and key bytes, after checking every shard holds
    /// its bounds and counts its key bytes right.
    fn memo_footprint(engine: &Engine) -> (usize, usize) {
        let mut total = (0, 0);
        for shard in engine.memo.iter() {
            let shard = shard.lock().expect("memo shard");
            let bytes: usize = shard.entries.values().map(|(_, key, _)| key.len()).sum();
            assert_eq!(shard.key_bytes, bytes);
            assert!(shard.entries.len() <= SHARD_ENTRIES && bytes <= SHARD_KEY_BYTES);
            total = (total.0 + shard.entries.len(), total.1 + bytes);
        }
        total
    }

    /// `resources` with every script URL, inline text, href and generator
    /// made unique by `n`, none of them changing what a pattern reads.
    fn made_distinct<'a>(resources: &PageResources<'a>, n: usize) -> PageResources<'a> {
        let mut out = resources.clone();
        for script in &mut out.scripts {
            match &mut script.src {
                Some(src) => *src = format!("{src}#u{n}").into(),
                None if !script.inline.is_empty() => {
                    script.inline = format!("/*u{n}*/{}", script.inline).into();
                }
                None => {}
            }
        }
        for link in &mut out.links {
            link.href = format!("{}#u{n}", link.href).into();
        }
        for content in &mut out.generators {
            *content = format!("{content} u{n}").into();
        }
        out
    }

    /// A memo answer is the answer the patterns give: on every usable page
    /// of a 2 000-domain web at weeks 0, 10, …, 200, and on the same pages
    /// with every text made distinct, the engine agrees with itself under a
    /// tracer (which bypasses the memo), and the memo keeps its bounds.
    #[test]
    fn memo_answers_equal_the_patterns_answers() {
        use webvuln_webgen::{Ecosystem, EcosystemConfig, PageOutcome, Timeline};

        let eco = Ecosystem::generate(EcosystemConfig {
            seed: 42,
            domain_count: 2000,
            timeline: Timeline::paper(),
        });
        let registry = Registry::new();
        let engine = Engine::instrumented(&registry);
        let tracer = trace::Tracer::new();
        let (mut pages, mut peak) = (0, (0, 0));
        for week in (0..201).step_by(10) {
            for model in eco.models() {
                let PageOutcome::Page(html) = eco.page(&model.name, week) else {
                    continue;
                };
                let resources = extract_resources(&html);
                for page in [made_distinct(&resources, pages), resources] {
                    let memo = engine.analyze_resources(&page, &model.name);
                    let _traced = tracer.install();
                    let patterns = engine.analyze_resources(&page, &model.name);
                    assert_eq!(memo, patterns, "{} at week {week}", model.name);
                }
                let (entries, bytes) = memo_footprint(&engine);
                peak = (peak.0.max(entries), peak.1.max(bytes));
                pages += 1;
            }
        }
        let snap = registry.snapshot();
        let count = |name| snap.counter(name).unwrap_or(0);
        let (hits, misses) = (count("fp.memo_hits_total"), count("fp.memo_misses_total"));
        println!(
            "{pages} pages: {hits} memo hits, {misses} misses; peak {} entries, {} key bytes",
            peak.0, peak.1
        );
        assert!(pages > 30_000, "{pages} usable pages");
        // Half the look-ups are of distinct texts, which never hit; nearly
        // all of the web's own texts have been seen before.
        let web_lookups = (hits + misses) / 2;
        assert!(hits * 10 > web_lookups * 9, "{hits} hits, {misses} misses");
    }

    #[test]
    fn a_poisoned_memo_shard_is_recovered() {
        let e = engine();
        let html = r#"<script src="/js/jquery-1.12.4.min.js"></script>"#;
        let first = e.analyze(html, "x.example");
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _held: Vec<_> = e.memo.iter().map(|shard| shard.lock()).collect();
                panic!("poisons every memo shard");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(e.memo.iter().all(Mutex::is_poisoned));
        for _ in 0..3 {
            assert_eq!(e.analyze(html, "x.example"), first);
        }
        let shards = e
            .memo
            .iter()
            .map(|shard| shard.lock().unwrap_or_else(PoisonError::into_inner));
        assert_eq!(shards.map(|shard| shard.entries.len()).sum::<usize>(), 1);
    }
}
