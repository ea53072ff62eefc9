//! A step-counted backtracking matcher over the AST the Pike VM is
//! compiled from.
//!
//! Real JavaScript engines execute regular expressions by backtracking,
//! which is what makes ReDoS (CVE-2020-27511 in Prototype, the Moment.js
//! resource-exhaustion CVEs) possible. The VM cannot exhibit the blow-up,
//! so the PoC lab runs this matcher instead: it counts every step it takes,
//! and a PoC declares denial-of-service when the step budget is exhausted.
//! Tests run it as the VM's oracle: wherever it finishes within budget,
//! the VM must report the same captures.
//!
//! It takes all the syntax [`crate::parser`] accepts and searches like
//! [`Pattern::captures`](crate::Pattern::captures): leftmost-first and
//! unanchored, greedy or lazy per quantifier, optionally folding ASCII
//! case. An iteration of an unbounded loop (`*`, and `+` or `{m,}` past
//! their minimum) that consumes nothing fails, as in JavaScript; the first
//! `min` iterations, and the optional ones of `{m,n}`, may be empty.

use crate::ast::{Ast, ClassSet, Repeat};
use crate::vm::char_at;
use crate::{parser, Captures, Error};

/// Result of a bounded backtracking search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BtOutcome {
    /// Matched within the budget.
    Matched,
    /// Proven non-matching within the budget.
    NotMatched,
    /// Step budget exhausted — the catastrophic-backtracking signal.
    BudgetExhausted,
}

/// The most stack a search may take, in bytes: a match attempt nests a few
/// calls deeper per character, and a spawned thread has 2 MiB.
const MAX_STACK: usize = 1 << 20;

/// Steps between two looks at the stack.
const STACK_CHECK_STEPS: u64 = 64;

/// A parsed pattern, run by backtracking.
#[derive(Debug, Clone)]
pub struct Backtracker {
    ast: Ast,
    slot_count: usize,
    case_insensitive: bool,
}

impl Backtracker {
    /// Parses `pattern`, to match with ASCII case folded or not.
    pub fn new(pattern: &str, case_insensitive: bool) -> Result<Self, Error> {
        let (ast, groups) = parser::parse(pattern)?;
        Ok(Backtracker {
            ast,
            slot_count: 2 * (groups as usize + 1),
            case_insensitive,
        })
    }

    /// Searches `text` for its leftmost-first match in at most `budget`
    /// steps. Returns the outcome, the steps taken, and on a match its
    /// capture groups.
    pub fn search<'t>(&self, text: &'t str, budget: u64) -> (BtOutcome, u64, Option<Captures<'t>>) {
        self.search_at(text, 0, budget)
    }

    /// Like [`Backtracker::search`], trying matches from byte offset
    /// `start` on, as `Pattern::captures_at`
    /// does. `start` must lie on a character boundary.
    pub fn search_at<'t>(
        &self,
        text: &'t str,
        start: usize,
        budget: u64,
    ) -> (BtOutcome, u64, Option<Captures<'t>>) {
        let mut run = Run {
            text,
            ci: self.case_insensitive,
            slots: vec![None; self.slot_count],
            steps: 0,
            budget,
            check_at: 0,
            stack_base: stack_address(),
        };
        for at in (start..=text.len()).filter(|&at| text.is_char_boundary(at)) {
            run.slots[0] = Some(at);
            let matched = run.node(&self.ast, at, &Next::Done);
            // A step refused anywhere leaves the result unproven.
            if run.steps >= run.budget {
                return (BtOutcome::BudgetExhausted, run.budget, None);
            }
            if matched {
                let slots = run.slots;
                let caps = Captures { text, slots };
                return (BtOutcome::Matched, run.steps, Some(caps));
            }
        }
        (BtOutcome::NotMatched, run.steps, None)
    }
}

/// What is left to match once a node has matched, linked through stack frames.
enum Next<'a> {
    /// The whole pattern has matched.
    Done,
    /// The rest of a concatenation.
    Seq(&'a [Ast], &'a Next<'a>),
    /// The end of a capture group, recorded in slot `.0`.
    Close(usize, &'a Next<'a>),
    /// The end of iteration `done` (from 0) of a repeat that began at `from`.
    Iter {
        repeat: &'a Repeat,
        done: u32,
        from: usize,
        next: &'a Next<'a>,
    },
}

/// One search: the capture slots of the path being tried, and its steps.
struct Run<'t> {
    text: &'t str,
    ci: bool,
    slots: Vec<Option<usize>>,
    steps: u64,
    budget: u64,
    /// The step at which [`Run::check`] runs next.
    check_at: u64,
    /// [`stack_address`] where the search began.
    stack_base: usize,
}

impl Run<'_> {
    /// Matches `ast` at `pos`, then `k`; true when the whole pattern
    /// matched, with `slots` holding that match's captures.
    fn node(&mut self, ast: &Ast, pos: usize, k: &Next<'_>) -> bool {
        if !self.tick() {
            return false;
        }
        let ch = || char_at(self.text, pos);
        match ast {
            Ast::Empty => self.next(k, pos),
            Ast::Literal(c) => match ch() {
                Some(h) if h == *c || (self.ci && h.eq_ignore_ascii_case(c)) => {
                    self.next(k, pos + h.len_utf8())
                }
                _ => false,
            },
            Ast::Class(set) => match ch() {
                Some(h) if in_class(set, h, self.ci) => self.next(k, pos + h.len_utf8()),
                _ => false,
            },
            Ast::Dot => match ch() {
                Some(h) if h != '\n' => self.next(k, pos + h.len_utf8()),
                _ => false,
            },
            Ast::StartAnchor => pos == 0 && self.next(k, pos),
            Ast::EndAnchor => pos == self.text.len() && self.next(k, pos),
            Ast::Concat(items) => self.seq(items, pos, k),
            Ast::Alternate(branches) => branches.iter().any(|b| self.node(b, pos, k)),
            Ast::Group(group) => match group.index {
                None => self.node(&group.node, pos, k),
                Some(i) => {
                    let open = 2 * i as usize;
                    let close = Next::Close(open + 1, k);
                    self.save(open, pos, |run| run.node(&group.node, pos, &close))
                }
            },
            Ast::Repeat(repeat) => self.repeat(repeat, 0, pos, k),
        }
    }

    /// Continues with `k` at `pos`.
    fn next(&mut self, k: &Next<'_>, pos: usize) -> bool {
        if !self.tick() {
            return false;
        }
        match *k {
            Next::Done => {
                self.slots[1] = Some(pos);
                true
            }
            Next::Seq(items, k) => self.seq(items, pos, k),
            Next::Close(slot, k) => self.save(slot, pos, |run| run.next(k, pos)),
            Next::Iter {
                repeat,
                done,
                from,
                next,
            } => {
                // An unbounded loop's iteration past its minimum must consume.
                if pos == from && done >= repeat.min && repeat.max.is_none() {
                    return false;
                }
                self.repeat(repeat, done + 1, pos, next)
            }
        }
    }

    /// Matches `items` one after another at `pos`, then `k`.
    #[inline(always)]
    fn seq(&mut self, items: &[Ast], pos: usize, k: &Next<'_>) -> bool {
        match items {
            [first, rest @ ..] => self.node(first, pos, &Next::Seq(rest, k)),
            [] => self.next(k, pos),
        }
    }

    /// Matches iterations `done..` of `repeat` at `pos`, then `k`.
    #[inline(always)]
    fn repeat(&mut self, repeat: &Repeat, done: u32, pos: usize, k: &Next<'_>) -> bool {
        if !self.tick() {
            return false;
        }
        let again = Next::Iter {
            repeat,
            done,
            from: pos,
            next: k,
        };
        match repeat.greedy {
            _ if done < repeat.min => self.node(&repeat.node, pos, &again),
            _ if repeat.max == Some(done) => self.next(k, pos),
            true => self.node(&repeat.node, pos, &again) || self.next(k, pos),
            false => self.next(k, pos) || self.node(&repeat.node, pos, &again),
        }
    }

    /// Takes a step; false once the budget is spent.
    #[inline(always)]
    fn tick(&mut self) -> bool {
        self.steps += 1;
        self.steps < self.check_at || self.check()
    }

    /// The budget, and the stack: a step nests a bounded number of calls,
    /// so looking every [`STACK_CHECK_STEPS`] steps keeps a search near
    /// [`MAX_STACK`]. Past it, the budget is spent.
    #[cold]
    #[inline(never)]
    fn check(&mut self) -> bool {
        if stack_address().abs_diff(self.stack_base) > MAX_STACK {
            self.budget = self.steps;
        }
        self.check_at = self.budget.min(self.steps + STACK_CHECK_STEPS);
        self.steps < self.budget
    }

    /// Records `pos` in `slot` while `rest` runs, and keeps it only when
    /// `rest` matched.
    fn save(&mut self, slot: usize, pos: usize, rest: impl FnOnce(&mut Self) -> bool) -> bool {
        let outer = self.slots[slot].replace(pos);
        rest(self) || {
            self.slots[slot] = outer;
            false
        }
    }
}

/// The address of a local of the calling frame: how deep the stack is.
#[inline(always)]
fn stack_address() -> usize {
    let local = 0u8;
    std::ptr::addr_of!(local) as usize
}

/// Whether `c` is in `set`, folding ASCII case when `ci`. The VM folds the
/// class instead; this asks the class as written about both cases of `c`.
fn in_class(set: &ClassSet, c: char, ci: bool) -> bool {
    let inside = |c: char| set.ranges.iter().any(|&(lo, hi)| lo <= c && c <= hi);
    let hit =
        inside(c) || (ci && (inside(c.to_ascii_lowercase()) || inside(c.to_ascii_uppercase())));
    hit != set.negated
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUDGET: u64 = 1_000_000;

    /// The text of each group of the match, `None` for no match.
    fn groups(bt: Backtracker, input: &str) -> Option<Vec<Option<&str>>> {
        let (outcome, _, caps) = bt.search(input, BUDGET);
        assert_ne!(outcome, BtOutcome::BudgetExhausted, "{bt:?} on {input:?}");
        let caps = caps?;
        Some((0..caps.len()).map(|i| caps.get(i)).collect())
    }

    fn find<'t>(pattern: &str, input: &'t str) -> Option<Vec<Option<&'t str>>> {
        groups(
            Backtracker::new(pattern, false).expect("pattern parses"),
            input,
        )
    }

    fn whole<'t>(pattern: &str, input: &'t str) -> Option<&'t str> {
        find(pattern, input).map(|g| g[0].expect("group 0"))
    }

    #[test]
    fn basic_matching_works() {
        let matched = |p: &str, input: &str| find(p, input).is_some();
        assert!(matched("^abc", "abc"));
        assert!(matched("^abc", "abcd"), "anchored at start only");
        assert!(!matched("^abc", "abd"));
        assert!(matched("abc", "xabc"), "unanchored without ^");
        assert!(matched("^a+b", "aaab"));
        assert!(matched("^a*b", "b"));
        assert!(matched("^(a|b)+c", "abbac"));
        assert!(matched("^[a-z]+\\d$", "abc7"));
        assert!(!matched("^[a-z]+\\d$", "abc77x"));
        assert!(matched("^a?b", "b"));
        assert!(matched("^<[^>]+>", "<div>"));
    }

    #[test]
    fn syntax_the_lab_parser_lacked() {
        assert_eq!(whole("a+?", "aaa"), Some("a"), "lazy");
        assert_eq!(whole("a{2,3}", "aaaa"), Some("aaa"));
        assert_eq!(whole("a{2,3}", "a"), None);
        // A zero-width iteration still counts toward the minimum.
        assert_eq!(find("(a?){2}", ""), Some(vec![Some(""), Some("")]));
        assert_eq!(
            find("(?:a|(b))c", "bc"),
            Some(vec![Some("bc"), Some("b")]),
            "a non-capturing group takes no slot"
        );
        assert_eq!(whole(r"\D+", "12ab3"), Some("ab"));
        assert_eq!(whole(r"[\d.]+", "v1.12.4;"), Some("1.12.4"));
        let ci = Backtracker::new("jquery[^a]", true).expect("pattern parses");
        assert_eq!(groups(ci, "JQueryA jQuery-"), Some(vec![Some("jQuery-")]));
        assert_eq!(
            whole("a.c", "a\nc abc"),
            Some("abc"),
            "`.` stops at a line feed"
        );
    }

    #[test]
    fn classic_redos_pattern_explodes() {
        // (a+)+$ against aⁿb — the canonical catastrophic case.
        let re = Backtracker::new("^(a+)+$", false).expect("pattern parses");
        let evil = format!("{}b", "a".repeat(28));
        let (outcome, steps, _) = re.search(&evil, 300_000);
        assert_eq!(outcome, BtOutcome::BudgetExhausted, "{steps} steps");
    }

    #[test]
    fn same_pattern_is_fast_on_benign_input() {
        let re = Backtracker::new("^(a+)+$", false).expect("pattern parses");
        let benign = "a".repeat(28);
        let (outcome, steps, _) = re.search(&benign, 300_000);
        assert_eq!(outcome, BtOutcome::Matched);
        assert!(steps < 10_000, "{steps}");
    }

    #[test]
    fn steps_grow_superlinearly_on_evil_input() {
        let re = Backtracker::new("^(a+)+$", false).expect("pattern parses");
        let steps_at = |n: usize| {
            let evil = format!("{}b", "a".repeat(n));
            re.search(&evil, u64::MAX >> 1).1
        };
        let (s10, s20) = (steps_at(10), steps_at(20));
        // Exponential: doubling the input should far more than double steps.
        assert!(s20 > s10 * 50, "{s10} -> {s20}");
    }

    #[test]
    fn budget_zero_is_exhausted_immediately() {
        let re = Backtracker::new("a", false).expect("pattern parses");
        assert_eq!(re.search("a", 1).0, BtOutcome::BudgetExhausted);
    }

    #[test]
    fn a_match_deeper_than_the_stack_allows_spends_the_budget() {
        let re = Backtracker::new("^a*$", false).expect("pattern parses");
        let long = "a".repeat(MAX_STACK);
        assert_eq!(re.search(&long, u64::MAX).0, BtOutcome::BudgetExhausted);
    }
}
