//! Property-based tests for version ordering and interval-set algebra.

use webvuln_failpoint::check::{self, Gen};
use webvuln_version::{Interval, IntervalSet, Version, VersionReq};

/// An arbitrary (small) version.
fn arb_version(g: &mut Gen) -> Version {
    let mut part = || g.range(0..=7) as u32;
    Version::new(&[part(), part(), part()])
}

/// An interval set built from random half-open ranges.
fn arb_set(g: &mut Gen) -> IntervalSet {
    let pairs = g.vec(0..=4, |g| (arb_version(g), arb_version(g)));
    IntervalSet::from_intervals(pairs.into_iter().map(|(a, b)| {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        Interval::half_open(lo, hi)
    }))
}

/// Version ordering is total and consistent with equality.
#[test]
fn ordering_is_total() {
    check::run("ordering_is_total", 256, |g| {
        use std::cmp::Ordering::*;
        let (a, b) = (arb_version(g), arb_version(g));
        match a.cmp(&b) {
            Less => assert!(b > a),
            Greater => assert!(b < a),
            Equal => assert_eq!(&a, &b),
        }
    });
}

/// Ordering compares positionally with missing components read as
/// zero, whatever the two lengths, and only then looks at pre-releases.
#[test]
fn ordering_pads_missing_components() {
    check::run("ordering_pads_missing_components", 512, |g| {
        let arb = |g: &mut Gen| {
            let parts = g.vec(1..=5, |g| g.range(0..=2) as u32);
            let pre = *g.pick(&["", "", "-rc.1", "-rc.2", "-beta"]);
            let text: Vec<String> = parts.iter().map(u32::to_string).collect();
            let version = Version::parse(&format!("{}{pre}", text.join("."))).expect("valid");
            (parts, pre, version)
        };
        let (a_parts, a_pre, a) = arb(g);
        let (b_parts, b_pre, b) = arb(g);
        let padded = |parts: &[u32]| {
            let mut padded = parts.to_vec();
            padded.resize(5, 0);
            padded
        };
        let expected = padded(&a_parts).cmp(&padded(&b_parts)).then_with(|| {
            // Same numbers: a bare `0` carrying each tag orders the same way.
            let tagged = |pre: &str| Version::parse(&format!("0{pre}")).expect("valid");
            tagged(a_pre).cmp(&tagged(b_pre))
        });
        assert_eq!(a.cmp(&b), expected, "{a} vs {b}");
        assert_eq!(b.cmp(&a), expected.reverse(), "{b} vs {a}");
    });
}

/// Parsing a displayed version yields an equal version.
#[test]
fn display_parse_round_trip() {
    check::run("display_parse_round_trip", 256, |g| {
        let v = arb_version(g);
        let s = v.to_string();
        let back = Version::parse(&s).expect("displayed versions parse");
        assert_eq!(v, back);
    });
}

/// De Morgan over interval sets: ¬(A ∪ B) = ¬A ∩ ¬B, checked pointwise.
#[test]
fn de_morgan_pointwise() {
    check::run("de_morgan_pointwise", 256, |g| {
        let (a, b, probe) = (arb_set(g), arb_set(g), arb_version(g));
        let lhs = a.union(&b).complement();
        let rhs = a.complement().intersect(&b.complement());
        assert_eq!(lhs.contains(&probe), rhs.contains(&probe));
    });
}

/// Subtraction semantics: x ∈ A \ B ⇔ x ∈ A ∧ x ∉ B.
#[test]
fn subtract_pointwise() {
    check::run("subtract_pointwise", 256, |g| {
        let (a, b, probe) = (arb_set(g), arb_set(g), arb_version(g));
        let diff = a.subtract(&b);
        assert_eq!(
            diff.contains(&probe),
            a.contains(&probe) && !b.contains(&probe)
        );
    });
}

/// Union semantics, pointwise.
#[test]
fn union_pointwise() {
    check::run("union_pointwise", 256, |g| {
        let (a, b, probe) = (arb_set(g), arb_set(g), arb_version(g));
        assert_eq!(
            a.union(&b).contains(&probe),
            a.contains(&probe) || b.contains(&probe)
        );
    });
}

/// Double complement is identity.
#[test]
fn double_complement() {
    check::run("double_complement", 256, |g| {
        let (a, probe) = (arb_set(g), arb_version(g));
        assert_eq!(
            a.complement().complement().contains(&probe),
            a.contains(&probe)
        );
    });
}

/// Canonical invariant: interval sets never hold empty or overlapping
/// intervals after construction.
#[test]
fn canonical_form() {
    check::run("canonical_form", 256, |g| {
        let a = arb_set(g);
        for iv in a.intervals() {
            assert!(!iv.is_empty());
        }
        for w in a.intervals().windows(2) {
            // Strictly disjoint and ordered: the intersection must be empty.
            assert!(w[0].intersect(&w[1]).is_empty());
        }
    });
}

/// A requirement built from any single comparator string agrees with
/// its interval-set form on arbitrary probes.
#[test]
fn req_matches_interval_set() {
    check::run("req_matches_interval_set", 256, |g| {
        let op = *g.pick(&["<", "<=", ">", ">=", "="]);
        let (v, probe) = (arb_version(g), arb_version(g));
        let spec = format!("{op} {v}");
        let req = VersionReq::parse(&spec).expect("valid requirement");
        assert_eq!(req.matches(&probe), req.to_interval_set().contains(&probe));
    });
}

/// One non-empty piece of every shape a set can hold: unbounded below or
/// above, both bounds of either kind, a single point, or everything.
fn arb_piece(g: &mut Gen) -> IntervalSet {
    let one = |iv: Interval| IntervalSet::from_interval(iv);
    let (a, b) = (arb_version(g), arb_version(g));
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    match g.range(0..=7) {
        0 => one(Interval::below(hi)),
        1 => one(Interval::at_most(hi)),
        2 => one(Interval::below(lo)).complement(),
        3 => one(Interval::at_most(lo)).complement(),
        4 if lo < hi => one(Interval::half_open(lo, hi)),
        5 if lo < hi => one(Interval::at_most(hi)).subtract(&one(Interval::at_most(lo))),
        7 => IntervalSet::all(),
        _ => one(Interval::at_most(lo.clone())).subtract(&one(Interval::below(lo))),
    }
}

/// `IntervalSet::parse` inverts `Display` on every non-empty set: the
/// ` or ` branches, unbounded sides and single points all come back.
#[test]
fn interval_set_display_parse_round_trip() {
    check::run("interval_set_display_parse_round_trip", 1024, |g| {
        let pieces = g.vec(1..=4, arb_piece);
        let set = pieces
            .iter()
            .fold(IntervalSet::default(), |acc, p| acc.union(p));
        assert!(!set.is_empty());
        let text = set.to_string();
        let back = IntervalSet::parse(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
        assert_eq!(back, set, "{text}");
    });
}
