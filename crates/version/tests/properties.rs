//! Property-based tests for version ordering and interval-set algebra.

use webvuln_failpoint::check::{self, Gen};
use webvuln_version::{Interval, IntervalSet, Version, VersionReq};

/// An arbitrary (small) version.
fn arb_version(g: &mut Gen) -> Version {
    let mut part = || g.range(0..=7) as u32;
    Version::semver(part(), part(), part())
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
