//! Cross-validation of the lab's naive backtracking matcher against the
//! workspace's linear-time Pike VM: on the syntax subset both support,
//! the two independently-written engines must agree on every input.

use webvuln_failpoint::check::{self, Gen};
use webvuln_pattern::Pattern;
use webvuln_poclab::{BtOutcome, BtRegex};

/// Generates patterns in the shared subset: literals, classes, groups,
/// alternation and quantifiers — shallow enough that the backtracker
/// terminates fast.
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

/// Anchored-at-start match decisions agree between the two engines.
#[test]
fn backtracker_agrees_with_pike_vm() {
    check::run("backtracker_agrees_with_pike_vm", 256, |g| {
        let pattern = arb_pattern(g);
        let input = g.string("abcd012", 0..=10);
        let bt = BtRegex::new(&pattern);
        // The backtracker is start-anchored and allows the match to end
        // anywhere; mirror that with a `^(?:…)` prefix for the Pike VM.
        let pike = Pattern::new(&format!("^(?:{pattern})")).expect("subset compiles");

        let (bt_outcome, _steps) = bt.run(&input, 2_000_000);
        if bt_outcome == BtOutcome::BudgetExhausted {
            return;
        }
        assert_eq!(
            bt_outcome == BtOutcome::Matched,
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
        let bt = BtRegex::new(&format!("{pattern}$"));
        let pike = Pattern::new(&format!("^(?:{pattern})$")).expect("subset compiles");
        let (bt_outcome, _steps) = bt.run(&input, 2_000_000);
        if bt_outcome == BtOutcome::BudgetExhausted {
            return;
        }
        assert_eq!(
            bt_outcome == BtOutcome::Matched,
            pike.is_match(&input),
            "pattern {pattern:?} on {input:?}"
        );
    });
}
