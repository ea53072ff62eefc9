//! Cross-validation of the lab's step-counted backtracker against the
//! workspace's linear-time Pike VM: both run the AST of one parser, and
//! the two independently-written matchers must agree on every input.

use webvuln_failpoint::check::{self, Gen};
use webvuln_pattern::{Backtracker, BtOutcome, Pattern};

/// Generates patterns from literals, classes, groups, alternation and
/// quantifiers — shallow enough that the backtracker terminates fast.
fn arb_pattern(g: &mut Gen) -> String {
    fn seq(g: &mut Gen) -> String {
        g.vec(1..=3, |g| {
            // literal, any, class, negated class, perl class
            let atom = *g.pick(&["a", "b", "c", ".", "[ab]", "[^c]", "\\d"]);
            let quantifier = *g.pick(&["", "*", "+", "?"]);
            format!("{atom}{quantifier}")
        })
        .concat()
    }
    // Optional alternation of two sequences, wrapped in a group.
    let a = seq(g);
    if g.bool() {
        format!("({a}|{})", seq(g))
    } else {
        a
    }
}

/// Whether the backtracker matches `source` in `input`, or `None` when it
/// runs out of budget.
fn backtracker_matches(source: &str, input: &str) -> Option<bool> {
    let bt = Backtracker::new(source, false).expect("pattern parses");
    match bt.search(input, 2_000_000) {
        (BtOutcome::BudgetExhausted, _, _) => None,
        (outcome, _, _) => Some(outcome == BtOutcome::Matched),
    }
}

/// Anchored-at-start match decisions agree between the two engines.
#[test]
fn backtracker_agrees_with_pike_vm() {
    check::run("backtracker_agrees_with_pike_vm", 256, |g| {
        let pattern = arb_pattern(g);
        let input = g.string("abcd012", 0..=10);
        // The lab's ReDoS patterns are start-anchored and let the match
        // end anywhere: `^(?:…)` in both engines.
        let source = format!("^(?:{pattern})");
        let pike = Pattern::new(&source).expect("pattern compiles");
        let Some(bt) = backtracker_matches(&source, &input) else {
            return;
        };
        assert_eq!(
            bt,
            pike.is_match(&input),
            "pattern {pattern:?} on {input:?}"
        );
    });
}

/// With the `$` anchor appended, full-string decisions also agree.
#[test]
fn anchored_full_match_agrees() {
    check::run("anchored_full_match_agrees", 256, |g| {
        let pattern = arb_pattern(g);
        let input = g.string("abcd", 0..=8);
        let source = format!("^(?:{pattern})$");
        let pike = Pattern::new(&source).expect("pattern compiles");
        let Some(bt) = backtracker_matches(&source, &input) else {
            return;
        };
        assert_eq!(
            bt,
            pike.is_match(&input),
            "pattern {pattern:?} on {input:?}"
        );
    });
}
