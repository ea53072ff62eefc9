//! # webvuln-pattern
//!
//! A small, dependency-free regular-expression engine built for the
//! `webvuln` fingerprinting pipeline (the Wappalyzer-equivalent of the
//! IMC '23 study this workspace reproduces).
//!
//! Design goals, in order:
//!
//! 1. **Never blow up on page content.** Fingerprint patterns run against
//!    millions of attacker-controlled HTML documents, so matching uses a
//!    Pike VM (breadth-first NFA simulation) with strict
//!    `O(pattern × haystack)` worst-case time — catastrophic backtracking is
//!    impossible by construction.
//! 2. **Capture groups.** Version extraction (`jquery-([\d.]+)\.js`) is the
//!    whole point.
//! 3. **A practical subset of PCRE.** Literals, classes, quantifiers
//!    (greedy + lazy), alternation, groups, anchors, common escapes. No
//!    backreferences, no lookaround — fingerprints don't need them and both
//!    would break the linear-time guarantee.
//!
//! ## Example
//!
//! ```
//! use webvuln_pattern::Pattern;
//!
//! let p = Pattern::new(r"jquery[.-]([\d.]+?)(?:\.min)?\.js").unwrap();
//! let caps = p.captures("/static/jquery-1.12.4.min.js").unwrap();
//! assert_eq!(caps.get(1), Some("1.12.4"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod compile;
mod parser;
mod vm;

pub use ast::ClassSet;
pub use vm::thread_vm_steps;

use std::fmt;

/// Errors produced while compiling a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The pattern's syntax is invalid.
    Parse {
        /// Human-readable description.
        message: String,
        /// Character offset where the error was detected.
        position: usize,
    },
    /// The compiled program would exceed internal size limits.
    ProgramTooLarge,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { message, position } => {
                write!(f, "pattern parse error at {position}: {message}")
            }
            Error::ProgramTooLarge => write!(f, "compiled pattern program too large"),
        }
    }
}

impl std::error::Error for Error {}

/// A compiled pattern, ready for repeated matching.
///
/// `Pattern` is immutable and cheap to share across threads (`Send + Sync`).
#[derive(Debug, Clone)]
pub struct Pattern {
    source: String,
    prog: compile::Program,
}

impl Pattern {
    /// Compiles a case-sensitive pattern.
    pub fn new(pattern: &str) -> Result<Self, Error> {
        Self::with_case_insensitive(pattern, false)
    }

    /// Compiles a case-insensitive (ASCII folding) pattern.
    pub fn new_ci(pattern: &str) -> Result<Self, Error> {
        Self::with_case_insensitive(pattern, true)
    }

    fn with_case_insensitive(pattern: &str, ci: bool) -> Result<Self, Error> {
        let (ast, groups) = parser::parse(pattern)?;
        let prog = compile::compile(&ast, groups, ci)?;
        Ok(Pattern {
            source: pattern.to_string(),
            prog,
        })
    }

    /// The pattern source string this `Pattern` was compiled from.
    pub fn as_str(&self) -> &str {
        &self.source
    }

    /// Number of capturing groups (excluding the implicit whole-match group).
    pub fn group_count(&self) -> u32 {
        self.prog.group_count
    }

    /// Literals one of which every match begins with (lower-cased for a
    /// case-insensitive pattern), none beginning with another; empty when
    /// the pattern has none or is anchored with `^`. A text none of them
    /// occurs in — compared ASCII-case-insensitively when the pattern is —
    /// cannot match, which lets a caller with many patterns rule most out
    /// in one pass.
    pub fn literal_prefixes(&self) -> &[String] {
        &self.prog.literal_prefixes
    }

    /// The longest common prefix of [`Pattern::literal_prefixes`]: a
    /// literal every match begins with, `""` when there is none.
    pub fn literal_prefix(&self) -> &str {
        &self.prog.literal_prefix
    }

    /// Returns true if the pattern matches anywhere in `text`.
    pub fn is_match(&self, text: &str) -> bool {
        self.find(text).is_some()
    }

    /// Finds the leftmost match in `text`.
    pub fn find<'t>(&self, text: &'t str) -> Option<Match<'t>> {
        self.find_at(text, 0)
    }

    /// Finds the leftmost match in `text` starting at byte offset `start`.
    ///
    /// `start` must lie on a character boundary.
    pub fn find_at<'t>(&self, text: &'t str, start: usize) -> Option<Match<'t>> {
        let slots = vm::exec(&self.prog, text, start)?;
        Some(Match {
            text,
            start: slots[0].expect("group 0 start"),
            end: slots[1].expect("group 0 end"),
        })
    }

    /// Finds the leftmost match and returns all capture groups.
    pub fn captures<'t>(&self, text: &'t str) -> Option<Captures<'t>> {
        self.captures_at(text, 0)
    }

    /// Like [`Pattern::captures`], starting the search at byte offset `start`.
    pub fn captures_at<'t>(&self, text: &'t str, start: usize) -> Option<Captures<'t>> {
        let slots = vm::exec(&self.prog, text, start)?;
        Some(Captures { text, slots })
    }

    /// Iterates over all non-overlapping matches in `text`.
    pub fn find_iter<'p, 't>(&'p self, text: &'t str) -> FindIter<'p, 't> {
        FindIter {
            pattern: self,
            text,
            next_start: 0,
            done: false,
        }
    }

    /// Replaces every non-overlapping match with `replacement`.
    ///
    /// `$1`..`$9` in the replacement refer to capture groups, `$0` to the
    /// whole match; `$$` is a literal `$`.
    pub fn replace_all(&self, text: &str, replacement: &str) -> String {
        let mut out = String::with_capacity(text.len());
        let mut last = 0;
        for caps in self.captures_iter(text) {
            let m = caps.get_match();
            out.push_str(&text[last..m.start()]);
            expand_replacement(replacement, &caps, &mut out);
            last = m.end();
        }
        out.push_str(&text[last..]);
        out
    }

    /// Iterates over the captures of all non-overlapping matches.
    pub fn captures_iter<'p, 't>(&'p self, text: &'t str) -> CapturesIter<'p, 't> {
        CapturesIter {
            pattern: self,
            text,
            next_start: 0,
            done: false,
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.source)
    }
}

/// A single match: a located substring of the haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match<'t> {
    text: &'t str,
    start: usize,
    end: usize,
}

impl<'t> Match<'t> {
    /// Byte offset of the match start.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Byte offset one past the match end.
    pub fn end(&self) -> usize {
        self.end
    }

    /// The matched substring.
    pub fn as_str(&self) -> &'t str {
        &self.text[self.start..self.end]
    }

    /// The match as a byte range.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// Capture groups of a single match.
#[derive(Debug, Clone)]
pub struct Captures<'t> {
    text: &'t str,
    slots: vm::Slots,
}

impl<'t> Captures<'t> {
    /// The text of capture group `i` (0 = whole match), or `None` when the
    /// group did not participate in the match.
    pub fn get(&self, i: usize) -> Option<&'t str> {
        let (s, e) = (*self.slots.get(2 * i)?, *self.slots.get(2 * i + 1)?);
        Some(&self.text[s?..e?])
    }

    /// The whole match as a [`Match`].
    pub fn get_match(&self) -> Match<'t> {
        Match {
            text: self.text,
            start: self.slots[0].expect("group 0 start"),
            end: self.slots[1].expect("group 0 end"),
        }
    }

    /// Number of groups (including group 0).
    pub fn len(&self) -> usize {
        self.slots.len() / 2
    }

    /// True when there are no groups at all (never the case in practice).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Iterator over non-overlapping matches; see [`Pattern::find_iter`].
pub struct FindIter<'p, 't> {
    pattern: &'p Pattern,
    text: &'t str,
    next_start: usize,
    done: bool,
}

impl<'t> Iterator for FindIter<'_, 't> {
    type Item = Match<'t>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let m = self.pattern.find_at(self.text, self.next_start)?;
        advance_after(&m, self.text, &mut self.next_start, &mut self.done);
        Some(m)
    }
}

/// Iterator over the captures of non-overlapping matches.
pub struct CapturesIter<'p, 't> {
    pattern: &'p Pattern,
    text: &'t str,
    next_start: usize,
    done: bool,
}

impl<'t> Iterator for CapturesIter<'_, 't> {
    type Item = Captures<'t>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let caps = self.pattern.captures_at(self.text, self.next_start)?;
        let m = caps.get_match();
        advance_after(&m, self.text, &mut self.next_start, &mut self.done);
        Some(caps)
    }
}

/// Moves the scan position past `m`, stepping one char forward on empty
/// matches so iteration always terminates.
fn advance_after(m: &Match<'_>, text: &str, next_start: &mut usize, done: &mut bool) {
    if m.end() == m.start() {
        match text[m.end()..].chars().next() {
            Some(c) => *next_start = m.end() + c.len_utf8(),
            None => *done = true,
        }
    } else {
        *next_start = m.end();
    }
    if *next_start > text.len() {
        *done = true;
    }
}

fn expand_replacement(replacement: &str, caps: &Captures<'_>, out: &mut String) {
    let mut chars = replacement.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '$' {
            out.push(c);
            continue;
        }
        match chars.peek() {
            Some('$') => {
                out.push('$');
                chars.next();
            }
            Some(d) if d.is_ascii_digit() => {
                let idx = d.to_digit(10).expect("digit") as usize;
                chars.next();
                if let Some(text) = caps.get(idx) {
                    out.push_str(text);
                }
            }
            _ => out.push('$'),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_extraction_end_to_end() {
        let p = Pattern::new(r"jquery(?:\.ui)?[/-]([\d.]+)").unwrap();
        let caps = p
            .captures("https://ajax.googleapis.com/ajax/libs/jquery/3.5.1/jquery.min.js")
            .unwrap();
        assert_eq!(caps.get(1), Some("3.5.1"));
    }

    #[test]
    fn case_insensitive_matching() {
        let p = Pattern::new_ci("wordpress").unwrap();
        assert!(p.is_match("<meta name=\"generator\" content=\"WordPress 5.8\">"));
        assert!(!Pattern::new("wordpress").unwrap().is_match("WordPress"));
    }

    #[test]
    fn find_iter_non_overlapping() {
        let p = Pattern::new(r"\d+").unwrap();
        let all: Vec<_> = p
            .find_iter("v1.2 and v3.44")
            .map(|m| m.as_str().to_string())
            .collect();
        assert_eq!(all, vec!["1", "2", "3", "44"]);
    }

    #[test]
    fn find_iter_with_empty_matches_terminates() {
        let p = Pattern::new("a*").unwrap();
        let all: Vec<_> = p
            .find_iter("baab")
            .map(|m| m.as_str().to_string())
            .collect();
        // Empty at 0, "aa" at 1, empty at 3 (before 'b') and at 4 (end) —
        // the same sequence the `regex` crate produces.
        assert_eq!(all, vec!["", "aa", "", ""]);
    }

    #[test]
    fn replace_all_with_group_refs() {
        let p = Pattern::new(r"(\d+)\.(\d+)").unwrap();
        assert_eq!(p.replace_all("1.2 and 3.4", "$2.$1"), "2.1 and 4.3");
        assert_eq!(p.replace_all("1.2", "$$$0"), "$1.2");
    }

    #[test]
    fn optional_group_yields_none() {
        let p = Pattern::new(r"a(b)?c").unwrap();
        let caps = p.captures("ac").unwrap();
        assert_eq!(caps.get(1), None);
        let caps = p.captures("abc").unwrap();
        assert_eq!(caps.get(1), Some("b"));
    }

    #[test]
    fn out_of_range_group_is_none() {
        let p = Pattern::new("a").unwrap();
        let caps = p.captures("a").unwrap();
        assert_eq!(caps.get(5), None);
        assert_eq!(caps.len(), 1);
    }

    #[test]
    fn display_round_trips_source() {
        let p = Pattern::new(r"\d+").unwrap();
        assert_eq!(p.to_string(), r"\d+");
        assert_eq!(p.as_str(), r"\d+");
    }

    #[test]
    fn prefilter_agrees_with_vm_on_ci() {
        let p = Pattern::new_ci(r"Bootstrap[ /]v?([\d.]+)").unwrap();
        let caps = p
            .captures("  * bootstrap v4.3.1 (https://getbootstrap.com)")
            .unwrap();
        assert_eq!(caps.get(1), Some("4.3.1"));
    }

    #[test]
    fn realistic_fingerprints_compile() {
        // The actual shapes used by webvuln-fingerprint must all compile.
        for pat in [
            r"jquery[.-]([\d.]+(?:[a-z][\w.]*)?)(?:\.min|\.slim)?\.js",
            r"/jquery/([\d.]+)/",
            r"jQuery (?:JavaScript Library )?v([\d.]+)",
            r"bootstrap(?:\.bundle)?(?:[.-]([\d.]+))?(?:\.min)?\.(?:js|css)",
            r"<meta[^>]+generator[^>]+WordPress ?([\d.]*)",
            r"\.swf(?:\?|$|\x22)",
            r"modernizr[.-]([\d.]+)",
        ] {
            Pattern::new_ci(pat).unwrap_or_else(|e| panic!("{pat}: {e}"));
        }
    }
}
