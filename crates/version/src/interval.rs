//! Intervals and interval sets over the [`Version`] order.
//!
//! The paper's §6.4 analysis compares the version range a CVE *claims* is
//! vulnerable against the range a PoC experiment shows is *actually*
//! vulnerable (the "True Vulnerable Versions"). Classifying a CVE as
//! understated/overstated and counting affected websites is set algebra
//! over version ranges — implemented here as sorted, disjoint interval
//! sets with union, intersection and difference.

use crate::version::Version;
use std::cmp::Ordering;
use std::fmt;

/// One endpoint of an interval.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Bound {
    /// No constraint at this end.
    Unbounded,
    /// Endpoint included in the interval.
    Inclusive(Version),
    /// Endpoint excluded from the interval.
    Exclusive(Version),
}

impl Bound {
    fn version(&self) -> Option<&Version> {
        match self {
            Bound::Unbounded => None,
            Bound::Inclusive(v) | Bound::Exclusive(v) => Some(v),
        }
    }
}

/// Compares two *lower* bounds: which one starts earlier.
fn cmp_lower(a: &Bound, b: &Bound) -> Ordering {
    match (a, b) {
        (Bound::Unbounded, Bound::Unbounded) => Ordering::Equal,
        (Bound::Unbounded, _) => Ordering::Less,
        (_, Bound::Unbounded) => Ordering::Greater,
        _ => {
            let (va, vb) = (a.version().expect("bounded"), b.version().expect("bounded"));
            va.cmp(vb).then_with(|| match (a, b) {
                (Bound::Inclusive(_), Bound::Exclusive(_)) => Ordering::Less,
                (Bound::Exclusive(_), Bound::Inclusive(_)) => Ordering::Greater,
                _ => Ordering::Equal,
            })
        }
    }
}

/// Compares two *upper* bounds: which one ends earlier.
fn cmp_upper(a: &Bound, b: &Bound) -> Ordering {
    match (a, b) {
        (Bound::Unbounded, Bound::Unbounded) => Ordering::Equal,
        (Bound::Unbounded, _) => Ordering::Greater,
        (_, Bound::Unbounded) => Ordering::Less,
        _ => {
            let (va, vb) = (a.version().expect("bounded"), b.version().expect("bounded"));
            va.cmp(vb).then_with(|| match (a, b) {
                (Bound::Exclusive(_), Bound::Inclusive(_)) => Ordering::Less,
                (Bound::Inclusive(_), Bound::Exclusive(_)) => Ordering::Greater,
                _ => Ordering::Equal,
            })
        }
    }
}

/// A contiguous, possibly unbounded range of versions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Lower endpoint.
    pub lo: Bound,
    /// Upper endpoint.
    pub hi: Bound,
}

impl Interval {
    /// Builds an interval from explicit bounds.
    pub fn new(lo: Bound, hi: Bound) -> Self {
        Interval { lo, hi }
    }

    /// The full space: every version.
    pub fn all() -> Self {
        Interval::new(Bound::Unbounded, Bound::Unbounded)
    }

    /// `< v`.
    pub fn below(v: Version) -> Self {
        Interval::new(Bound::Unbounded, Bound::Exclusive(v))
    }

    /// `<= v`.
    pub fn at_most(v: Version) -> Self {
        Interval::new(Bound::Unbounded, Bound::Inclusive(v))
    }

    /// `>= v`.
    pub fn at_least(v: Version) -> Self {
        Interval::new(Bound::Inclusive(v), Bound::Unbounded)
    }

    /// `> v`.
    pub fn above(v: Version) -> Self {
        Interval::new(Bound::Exclusive(v), Bound::Unbounded)
    }

    /// `[lo, hi)` — the paper's usual "x.y ∼ z.w (excluding z.w)" shape.
    pub fn half_open(lo: Version, hi: Version) -> Self {
        Interval::new(Bound::Inclusive(lo), Bound::Exclusive(hi))
    }

    /// `[lo, hi]`.
    pub fn closed(lo: Version, hi: Version) -> Self {
        Interval::new(Bound::Inclusive(lo), Bound::Inclusive(hi))
    }

    /// Exactly one version.
    pub fn exact(v: Version) -> Self {
        Interval::new(Bound::Inclusive(v.clone()), Bound::Inclusive(v))
    }

    /// True when no version can satisfy both bounds.
    pub fn is_empty(&self) -> bool {
        match (self.lo.version(), self.hi.version()) {
            (Some(lo), Some(hi)) => match lo.cmp(hi) {
                Ordering::Greater => true,
                Ordering::Equal => {
                    !(matches!(self.lo, Bound::Inclusive(_))
                        && matches!(self.hi, Bound::Inclusive(_)))
                }
                Ordering::Less => false,
            },
            _ => false,
        }
    }

    /// Membership test.
    pub fn contains(&self, v: &Version) -> bool {
        let lo_ok = match &self.lo {
            Bound::Unbounded => true,
            Bound::Inclusive(l) => v >= l,
            Bound::Exclusive(l) => v > l,
        };
        let hi_ok = match &self.hi {
            Bound::Unbounded => true,
            Bound::Inclusive(h) => v <= h,
            Bound::Exclusive(h) => v < h,
        };
        lo_ok && hi_ok
    }

    /// Intersection of two intervals (may be empty).
    pub fn intersect(&self, other: &Interval) -> Interval {
        let lo = if cmp_lower(&self.lo, &other.lo) == Ordering::Greater {
            self.lo.clone()
        } else {
            other.lo.clone()
        };
        let hi = if cmp_upper(&self.hi, &other.hi) == Ordering::Less {
            self.hi.clone()
        } else {
            other.hi.clone()
        };
        Interval::new(lo, hi)
    }

    /// True when the union of `self` and `other` is contiguous (they
    /// overlap, or they touch at a point covered by at least one side).
    fn merges_with(&self, other: &Interval) -> bool {
        // Order so that self starts first.
        let (first, second) = if cmp_lower(&self.lo, &other.lo) != Ordering::Greater {
            (self, other)
        } else {
            (other, self)
        };
        match (&first.hi, &second.lo) {
            (Bound::Unbounded, _) | (_, Bound::Unbounded) => true,
            (hi, lo) => {
                let (vh, vl) = (
                    hi.version().expect("bounded"),
                    lo.version().expect("bounded"),
                );
                match vh.cmp(vl) {
                    Ordering::Greater => true,
                    Ordering::Less => false,
                    Ordering::Equal => {
                        // Touching: covered unless both endpoints exclusive.
                        matches!(hi, Bound::Inclusive(_)) || matches!(lo, Bound::Inclusive(_))
                    }
                }
            }
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.lo, &self.hi) {
            (Bound::Unbounded, Bound::Unbounded) => write!(f, "all versions"),
            (Bound::Unbounded, Bound::Exclusive(v)) => write!(f, "< {v}"),
            (Bound::Unbounded, Bound::Inclusive(v)) => write!(f, "<= {v}"),
            (Bound::Exclusive(v), Bound::Unbounded) => write!(f, "> {v}"),
            (Bound::Inclusive(v), Bound::Unbounded) => write!(f, ">= {v}"),
            (Bound::Inclusive(a), Bound::Inclusive(b)) if a == b => write!(f, "= {a}"),
            (lo, hi) => {
                match lo {
                    Bound::Inclusive(v) => write!(f, ">= {v}")?,
                    Bound::Exclusive(v) => write!(f, "> {v}")?,
                    Bound::Unbounded => unreachable!(),
                }
                f.write_str(", ")?;
                match hi {
                    Bound::Inclusive(v) => write!(f, "<= {v}"),
                    Bound::Exclusive(v) => write!(f, "< {v}"),
                    Bound::Unbounded => unreachable!(),
                }
            }
        }
    }
}

/// A set of versions represented as sorted, disjoint, non-empty intervals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IntervalSet {
    intervals: Vec<Interval>,
}

impl IntervalSet {
    /// The empty set.
    pub fn empty() -> Self {
        IntervalSet::default()
    }

    /// The full space.
    pub fn all() -> Self {
        IntervalSet {
            intervals: vec![Interval::all()],
        }
    }

    /// Builds a set from arbitrary intervals (they may overlap; empties are
    /// dropped).
    pub fn from_intervals(intervals: impl IntoIterator<Item = Interval>) -> Self {
        let mut iv: Vec<Interval> = intervals.into_iter().filter(|i| !i.is_empty()).collect();
        iv.sort_by(|a, b| cmp_lower(&a.lo, &b.lo).then_with(|| cmp_upper(&a.hi, &b.hi)));
        let mut out: Vec<Interval> = Vec::with_capacity(iv.len());
        for next in iv {
            match out.last_mut() {
                Some(last) if last.merges_with(&next) => {
                    if cmp_upper(&next.hi, &last.hi) == Ordering::Greater {
                        last.hi = next.hi;
                    }
                }
                _ => out.push(next),
            }
        }
        IntervalSet { intervals: out }
    }

    /// The set containing a single interval.
    pub fn from_interval(interval: Interval) -> Self {
        Self::from_intervals([interval])
    }

    /// The disjoint intervals, sorted ascending.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// True for the empty set.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, v: &Version) -> bool {
        self.intervals.iter().any(|i| i.contains(v))
    }

    /// Set union.
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        IntervalSet::from_intervals(self.intervals.iter().chain(other.intervals.iter()).cloned())
    }

    /// Set intersection.
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        for a in &self.intervals {
            for b in &other.intervals {
                let x = a.intersect(b);
                if !x.is_empty() {
                    out.push(x);
                }
            }
        }
        IntervalSet::from_intervals(out)
    }

    /// Set complement (relative to the full version space).
    pub fn complement(&self) -> IntervalSet {
        let mut out = Vec::new();
        let mut lo = Bound::Unbounded;
        for iv in &self.intervals {
            let hi = match &iv.lo {
                Bound::Unbounded => {
                    // Set starts at -inf; no gap before it.
                    lo = flip_upper_to_lower(&iv.hi);
                    continue;
                }
                Bound::Inclusive(v) => Bound::Exclusive(v.clone()),
                Bound::Exclusive(v) => Bound::Inclusive(v.clone()),
            };
            let gap = Interval::new(lo.clone(), hi);
            if !gap.is_empty() {
                out.push(gap);
            }
            lo = flip_upper_to_lower(&iv.hi);
        }
        // Emit the final gap unless the set is unbounded above.
        let unbounded_above = self
            .intervals
            .last()
            .is_some_and(|i| matches!(i.hi, Bound::Unbounded));
        if !unbounded_above {
            out.push(Interval::new(lo, Bound::Unbounded));
        }
        IntervalSet::from_intervals(out)
    }

    /// Set difference: versions in `self` but not in `other`.
    pub fn subtract(&self, other: &IntervalSet) -> IntervalSet {
        self.intersect(&other.complement())
    }

    /// True when every version in `self` is also in `other`.
    pub fn is_subset_of(&self, other: &IntervalSet) -> bool {
        self.subtract(other).is_empty()
    }
}

/// Converts an interval's *upper* bound into the lower bound of the gap
/// that follows it.
fn flip_upper_to_lower(hi: &Bound) -> Bound {
    match hi {
        Bound::Unbounded => Bound::Unbounded, // no gap will follow
        Bound::Inclusive(v) => Bound::Exclusive(v.clone()),
        Bound::Exclusive(v) => Bound::Inclusive(v.clone()),
    }
}

impl fmt::Display for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.intervals.is_empty() {
            return write!(f, "(empty)");
        }
        for (i, iv) in self.intervals.iter().enumerate() {
            if i > 0 {
                f.write_str(" or ")?;
            }
            write!(f, "{iv}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Version {
        Version::parse(s).expect("valid version")
    }

    #[test]
    fn interval_contains() {
        let iv = Interval::half_open(v("1.2"), v("3.5.0"));
        assert!(iv.contains(&v("1.2")));
        assert!(iv.contains(&v("2.0")));
        assert!(iv.contains(&v("3.4.9")));
        assert!(!iv.contains(&v("3.5.0")));
        assert!(!iv.contains(&v("1.1")));
    }

    #[test]
    fn empty_detection() {
        assert!(Interval::half_open(v("2.0"), v("1.0")).is_empty());
        assert!(Interval::half_open(v("1.0"), v("1.0")).is_empty());
        assert!(!Interval::closed(v("1.0"), v("1.0")).is_empty());
        assert!(!Interval::all().is_empty());
    }

    #[test]
    fn from_intervals_merges() {
        let set = IntervalSet::from_intervals([
            Interval::half_open(v("1.0"), v("2.0")),
            Interval::half_open(v("1.5"), v("3.0")),
            Interval::half_open(v("4.0"), v("5.0")),
        ]);
        assert_eq!(set.intervals().len(), 2);
        assert!(set.contains(&v("2.5")));
        assert!(!set.contains(&v("3.5")));
        assert!(set.contains(&v("4.5")));
    }

    #[test]
    fn touching_intervals_merge_when_covered() {
        // [1,2) ∪ [2,3) = [1,3)
        let set = IntervalSet::from_intervals([
            Interval::half_open(v("1"), v("2")),
            Interval::half_open(v("2"), v("3")),
        ]);
        assert_eq!(set.intervals().len(), 1);
        assert!(set.contains(&v("2")));

        // [1,2) ∪ (2,3) leaves 2 uncovered
        let set = IntervalSet::from_intervals([
            Interval::half_open(v("1"), v("2")),
            Interval::new(Bound::Exclusive(v("2")), Bound::Exclusive(v("3"))),
        ]);
        assert_eq!(set.intervals().len(), 2);
        assert!(!set.contains(&v("2")));
    }

    #[test]
    fn complement_round_trips() {
        let set = IntervalSet::from_intervals([
            Interval::half_open(v("1.0"), v("2.0")),
            Interval::at_least(v("3.0")),
        ]);
        let comp = set.complement();
        assert!(comp.contains(&v("0.5")));
        assert!(!comp.contains(&v("1.5")));
        assert!(comp.contains(&v("2.5")));
        assert!(!comp.contains(&v("3.5")));
        assert_eq!(comp.complement(), set);
        assert!(IntervalSet::all().complement().is_empty());
        assert_eq!(IntervalSet::empty().complement(), IntervalSet::all());
    }

    #[test]
    fn subtraction() {
        // The CVE-2020-7656 shape: TVV < 3.6.0 minus CVE < 1.9.0 gives the
        // undisclosed-vulnerable slice [1.9.0, 3.6.0).
        let tvv = IntervalSet::from_interval(Interval::below(v("3.6.0")));
        let cve = IntervalSet::from_interval(Interval::below(v("1.9.0")));
        let hidden = tvv.subtract(&cve);
        assert_eq!(hidden.intervals().len(), 1);
        assert!(hidden.contains(&v("1.10.1")), "paper's example version");
        assert!(hidden.contains(&v("3.5.1")), "microsoft.com's version");
        assert!(!hidden.contains(&v("1.8.3")));
        assert!(!hidden.contains(&v("3.6.0")));
    }

    #[test]
    fn intersect_and_subset() {
        let a = IntervalSet::from_interval(Interval::half_open(v("1.2"), v("3.5")));
        let b = IntervalSet::from_interval(Interval::half_open(v("1.12"), v("3.5")));
        assert!(b.is_subset_of(&a));
        assert!(!a.is_subset_of(&b));
        let x = a.intersect(&b);
        assert_eq!(x, b);
    }

    #[test]
    fn display_shapes() {
        assert_eq!(Interval::below(v("1.9.0")).to_string(), "< 1.9.0");
        assert_eq!(
            Interval::half_open(v("1.2"), v("3.5.0")).to_string(),
            ">= 1.2, < 3.5.0"
        );
        assert_eq!(Interval::exact(v("2.2")).to_string(), "= 2.2");
        assert_eq!(Interval::all().to_string(), "all versions");
        assert_eq!(IntervalSet::empty().to_string(), "(empty)");
    }

    #[test]
    fn exclusive_touch_in_intersect() {
        let a = IntervalSet::from_interval(Interval::at_most(v("2.0")));
        let b = IntervalSet::from_interval(Interval::at_least(v("2.0")));
        let x = a.intersect(&b);
        assert!(x.contains(&v("2.0")));
        assert_eq!(x.intervals().len(), 1);
    }
}
