//! Property-based tests for the pattern engine.
//!
//! These pit the engine against a simple reference model on restricted
//! pattern families where the expected behaviour is computable by
//! construction, and against the backtracker on random patterns.

use webvuln_failpoint::check::{self, Gen, PRINTABLE};
use webvuln_pattern::{Backtracker, BtOutcome, Captures, Pattern};

/// Escapes a character so it matches literally.
fn escape_char(c: char, out: &mut String) {
    if "\\.^$|?*+()[]{}/".contains(c) {
        out.push('\\');
    }
    out.push(c);
}

fn escape(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        escape_char(c, &mut out);
    }
    out
}

/// A pattern built by escaping a literal string matches exactly where
/// `str::find` says it should.
#[test]
fn literal_pattern_agrees_with_str_find() {
    check::run("literal_pattern_agrees_with_str_find", 256, |g| {
        let needle = g.string(PRINTABLE, 1..=8);
        let haystack = g.string(PRINTABLE, 0..=64);
        let p = Pattern::new(&escape(&needle)).expect("escaped literal compiles");
        let expected = haystack.find(&needle);
        let actual = p.find(&haystack).map(|m| m.start());
        assert_eq!(actual, expected);
    });
}

/// `\d+` finds the same digit runs a hand-rolled scanner finds.
#[test]
fn digit_runs_match_scanner() {
    check::run("digit_runs_match_scanner", 256, |g| {
        let haystack = g.string("abcdefghijklmnopqrstuvwxyz0123456789.", 0..=64);
        let p = Pattern::new(r"\d+").expect("compiles");
        let engine: Vec<(usize, usize)> = p
            .find_iter(&haystack)
            .map(|m| (m.start(), m.end()))
            .collect();

        let mut scanner = Vec::new();
        let bytes = haystack.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i].is_ascii_digit() {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                scanner.push((start, i));
            } else {
                i += 1;
            }
        }
        assert_eq!(engine, scanner);
    });
}

/// The match reported by `find` really is a match: re-running the
/// pattern anchored on the reported substring succeeds.
#[test]
fn reported_match_is_self_consistent() {
    check::run("reported_match_is_self_consistent", 256, |g| {
        let haystack = g.string("abcdefghijklmnopqrstuvwxyz0123456789 ./<>=\"-", 0..=80);
        let p = Pattern::new(r"[a-z]+-[0-9]+(?:\.[0-9]+)*").expect("compiles");
        if let Some(m) = p.find(&haystack) {
            let sub = m.as_str();
            let anchored = Pattern::new(&format!("^(?:{})$", r"[a-z]+-[0-9]+(?:\.[0-9]+)*"))
                .expect("compiles");
            assert!(
                anchored.is_match(sub),
                "substring {sub:?} should match anchored"
            );
        }
    });
}

/// Case-insensitive matching equals matching the lower-cased haystack.
#[test]
fn ci_equals_lowercased_match() {
    check::run("ci_equals_lowercased_match", 256, |g| {
        // A needle in some casing (or none) between two alphanumeric runs,
        // so both outcomes occur.
        const ALNUM: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 ";
        let haystack = format!(
            "{}{}{}",
            g.string(ALNUM, 0..=32),
            g.pick(&["", "jquery", "JQuery", "JQUERY", "jquer"]),
            g.string(ALNUM, 0..=32),
        );
        let ci = Pattern::new_ci("jquery").expect("compiles");
        let cs = Pattern::new("jquery").expect("compiles");
        assert_eq!(
            ci.is_match(&haystack),
            cs.is_match(&haystack.to_ascii_lowercase())
        );
    });
}

/// replace_all with an empty replacement deletes every match and leaves
/// a string the pattern no longer matches (for non-empty-match patterns).
#[test]
fn replace_all_removes_all_matches() {
    check::run("replace_all_removes_all_matches", 256, |g| {
        let haystack = g.string("abc0123", 0..=64);
        let p = Pattern::new(r"[0-9]+").expect("compiles");
        let replaced = p.replace_all(&haystack, "");
        assert!(!p.is_match(&replaced), "digits remain in {replaced:?}");
    });
}

/// A random pattern over a few letters and symbols: literals, `.`, small
/// classes, two-way alternations, captures, and greedy or lazy `?`, `*`,
/// `+`, `{m,n}`.
fn small_pattern(g: &mut Gen, depth: u32) -> String {
    let mut out = String::new();
    for _ in 0..g.range(1..=3) {
        let atom = match g.range(0..=if depth == 0 { 1 } else { 3 }) {
            0 => g
                .pick(&["a", "b", "B", "c", "-", r"\.", "ab", "Ca"])
                .to_string(),
            1 => g
                .pick(&["[ab]", "[a-c]", "[B.]", r"\d", "[^a]", "[^c]", "."])
                .to_string(),
            2 => format!(
                "(?:{}|{})",
                small_pattern(g, depth - 1),
                small_pattern(g, depth - 1)
            ),
            _ => format!("({})", small_pattern(g, depth - 1)),
        };
        out.push_str(&atom);
        out.push_str(g.pick::<&str>(&["", "", "?", "*", "+", "{1,2}", "{0,2}", "{2}"]));
        if g.range(0..=3) == 0 {
            out.push('?');
        }
    }
    out
}

/// The longest prefix, in whole characters, that every literal shares.
fn common_prefix(literals: &[String]) -> String {
    let mut common: Vec<char> = literals.first().map_or(Vec::new(), |l| l.chars().collect());
    for lit in literals {
        let shared = common
            .iter()
            .zip(lit.chars())
            .take_while(|(a, b)| **a == *b)
            .count();
        common.truncate(shared);
    }
    common.into_iter().collect()
}

/// Every match starts with one of `literal_prefixes()` (case-folded), and
/// `literal_prefix()` is their longest common prefix. Where a match can
/// start is read off the same pattern anchored with `^`, which the VM runs
/// without a literal, at every offset.
#[test]
fn every_match_starts_with_a_literal_prefix() {
    check::run("every_match_starts_with_a_literal_prefix", 2048, |g| {
        let source = small_pattern(g, 2);
        let ci = g.bool();
        let compile = |s: &str| {
            let p = if ci {
                Pattern::new_ci(s)
            } else {
                Pattern::new(s)
            };
            p.unwrap_or_else(|e| panic!("{s:?}: {e}"))
        };
        let pattern = compile(&source);
        let at_start = compile(&format!("^(?:{source})"));
        let literals = pattern.literal_prefixes();
        assert_eq!(
            pattern.literal_prefix(),
            common_prefix(literals),
            "{source:?}"
        );
        let hay = g.string("abcABC-.01", 0..=24);
        let starts: Vec<usize> = (0..=hay.len())
            .filter(|&at| at_start.is_match(&hay[at..]))
            .collect();
        let found = pattern.find(&hay).map(|m| m.start());
        assert_eq!(found, starts.first().copied(), "{source:?} in {hay:?}");
        for at in starts {
            let rest = hay[at..].to_ascii_lowercase();
            assert!(
                literals.is_empty()
                    || literals
                        .iter()
                        .any(|lit| rest.starts_with(&lit.to_ascii_lowercase())),
                "{source:?} (ci {ci}) matches {hay:?} at {at}, not at any of {literals:?}"
            );
        }
    });
}

/// The backtracker is the VM's oracle: wherever it finishes within budget,
/// the two report the same captures, group by group. Each pattern is also
/// tried anchored at the start, and at both ends.
#[test]
fn vm_captures_equal_the_backtracker() {
    check::run("vm_captures_equal_the_backtracker", 10_000, |g| {
        let drawn = small_pattern(g, 2);
        let source = match g.range(0..=2) {
            0 => drawn,
            1 => format!("^(?:{drawn})"),
            _ => format!("^(?:{drawn})$"),
        };
        let ci = g.bool();
        let vm = if ci {
            Pattern::new_ci(&source)
        } else {
            Pattern::new(&source)
        };
        let vm = vm.expect("pattern compiles");
        let bt = Backtracker::new(&source, ci).expect("pattern parses");
        let hay = g.string("abcABC-.01\n", 0..=24);
        let (outcome, _, expected) = bt.search(&hay, 100_000);
        if outcome == BtOutcome::BudgetExhausted {
            return;
        }
        assert_eq!(
            vm.captures(&hay),
            expected,
            "{source:?} (ci {ci}) in {hay:?}"
        );
    });
}

/// Every non-overlapping match in order, found by the backtracker: from
/// the end of each match, or one character past an empty one, on, through
/// [`Backtracker::search_at`]. `None` when a search runs out of budget.
fn backtracker_matches<'t>(bt: &Backtracker, text: &'t str) -> Option<Vec<Captures<'t>>> {
    let (mut found, mut at) = (Vec::new(), 0);
    while at <= text.len() {
        let (outcome, _, caps) = bt.search_at(text, at, 100_000);
        match (outcome, caps) {
            (BtOutcome::BudgetExhausted, _) => return None,
            (_, None) => break,
            (_, Some(caps)) => {
                let m = caps.get_match();
                let step = text[m.end()..].chars().next().map_or(1, char::len_utf8);
                at = if m.end() > m.start() {
                    m.end()
                } else {
                    m.end() + step
                };
                found.push(caps);
            }
        }
    }
    Some(found)
}

/// `replacement` with `$0`..`$9` read from `caps` (empty for a group that
/// took no part) and `$$` as `$`; any other `$` stays.
fn expand(replacement: &str, caps: &Captures<'_>) -> String {
    let (mut out, mut rest) = (String::new(), replacement);
    while let Some(at) = rest.find('$') {
        out.push_str(&rest[..at]);
        rest = &rest[at + 1..];
        match rest.chars().next() {
            Some('$') => out.push('$'),
            Some(d @ '0'..='9') => out.push_str(caps.get(d as usize - '0' as usize).unwrap_or("")),
            _ => {
                out.push('$');
                continue;
            }
        }
        rest = &rest[1..];
    }
    out + rest
}

/// The backtracker is the oracle of iteration too: `captures_iter`,
/// `find_iter` and `replace_all` equal the same walk built on
/// `Backtracker::search_at`, wherever every search finishes within budget.
#[test]
fn iteration_equals_the_backtracker() {
    check::run("iteration_equals_the_backtracker", 4096, |g| {
        let drawn = small_pattern(g, 2);
        let source = match g.range(0..=3) {
            0 => format!("^(?:{drawn})"),
            1 => format!("(?:{drawn})$"),
            _ => drawn,
        };
        let ci = g.bool();
        let vm = if ci {
            Pattern::new_ci(&source)
        } else {
            Pattern::new(&source)
        };
        let vm = vm.expect("pattern compiles");
        let bt = Backtracker::new(&source, ci).expect("pattern parses");
        let hay = g.string("abcABC-.01\n", 0..=24);
        let Some(expected) = backtracker_matches(&bt, &hay) else {
            return;
        };
        let at = format!("{source:?} (ci {ci}) in {hay:?}");
        assert_eq!(vm.captures_iter(&hay).collect::<Vec<_>>(), expected, "{at}");
        let ranges = expected.iter().map(|caps| caps.get_match().range());
        let found = vm.find_iter(&hay).map(|m| m.range());
        assert_eq!(
            found.collect::<Vec<_>>(),
            ranges.collect::<Vec<_>>(),
            "{at}"
        );
        let replacement = *g.pick(&["", "<$0>", "[$1]", "$$", "x$2$", "$9-$1"]);
        let mut replaced = String::new();
        let mut last = 0;
        for caps in &expected {
            let m = caps.get_match();
            replaced.push_str(&hay[last..m.start()]);
            replaced.push_str(&expand(replacement, caps));
            last = m.end();
        }
        replaced.push_str(&hay[last..]);
        assert_eq!(
            vm.replace_all(&hay, replacement),
            replaced,
            "{at} by {replacement:?}"
        );
    });
}

/// Iteration never yields overlapping or out-of-order matches.
#[test]
fn find_iter_is_ordered_and_disjoint() {
    check::run("find_iter_is_ordered_and_disjoint", 256, |g| {
        let haystack = g.string("ab", 0..=64);
        let p = Pattern::new("ab?").expect("compiles");
        let mut prev_end = 0;
        for m in p.find_iter(&haystack) {
            assert!(m.start() >= prev_end);
            assert!(m.end() >= m.start());
            prev_end = m.end().max(prev_end.max(m.start()));
        }
    });
}
