//! [`VersionReq`]: textual version requirements as they appear in CVE
//! reports ("< 1.9.0", ">= 1.2 and < 3.5.0", "all versions"), parsed into
//! comparators and convertible to [`IntervalSet`]s.

use crate::interval::{Interval, IntervalSet};
use crate::version::{ParseVersionError, Version};
use std::fmt;
use std::str::FromStr;

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Op {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Eq => "=",
        })
    }
}

/// A single comparison against a version.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Comparator {
    /// The operator.
    pub(crate) op: Op,
    /// The right-hand side.
    pub(crate) version: Version,
}

impl Comparator {
    /// Evaluates the comparison for `v`.
    pub(crate) fn matches(&self, v: &Version) -> bool {
        match self.op {
            Op::Lt => v < &self.version,
            Op::Le => v <= &self.version,
            Op::Gt => v > &self.version,
            Op::Ge => v >= &self.version,
            Op::Eq => v == &self.version,
        }
    }

    /// The half-space this comparator describes.
    pub(crate) fn to_interval(&self) -> Interval {
        match self.op {
            Op::Lt => Interval::below(self.version.clone()),
            Op::Le => Interval::at_most(self.version.clone()),
            Op::Gt => Interval::above(self.version.clone()),
            Op::Ge => Interval::at_least(self.version.clone()),
            Op::Eq => Interval::exact(self.version.clone()),
        }
    }
}

impl fmt::Display for Comparator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.op, self.version)
    }
}

/// A conjunction of comparators, or the universal requirement.
///
/// Examples of accepted syntax (matching the phrasing of CVE reports and
/// the paper's Table 2):
///
/// * `< 1.9.0`
/// * `>= 1.4.2, < 1.6.2` (comma conjunction)
/// * `>= 1.0.3 and < 3.5.0` (`and` conjunction)
/// * `1.0.3 ~ 3.5.0` (inclusive-start, **inclusive**-end tilde range)
/// * `= 2.2` or bare `2.2` (exact)
/// * `*`, `all`, `all versions` (everything)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionReq {
    comparators: Vec<Comparator>,
}

/// Error parsing a [`VersionReq`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseReqError {
    /// An individual version failed to parse.
    Version(ParseVersionError),
    /// The requirement's structure is invalid.
    Syntax(String),
}

impl fmt::Display for ParseReqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseReqError::Version(e) => write!(f, "{e}"),
            ParseReqError::Syntax(s) => write!(f, "invalid requirement: {s}"),
        }
    }
}

impl std::error::Error for ParseReqError {}

impl From<ParseVersionError> for ParseReqError {
    fn from(e: ParseVersionError) -> Self {
        ParseReqError::Version(e)
    }
}

impl VersionReq {
    /// The requirement matching every version.
    pub(crate) fn any() -> Self {
        VersionReq {
            comparators: Vec::new(),
        }
    }

    /// Parses a requirement string; see the type docs for accepted syntax.
    pub fn parse(input: &str) -> Result<Self, ParseReqError> {
        let s = input.trim();
        if s.is_empty() {
            return Err(ParseReqError::Syntax("empty requirement".into()));
        }
        let lower = s.to_ascii_lowercase();
        if s == "*" || lower == "all" || lower == "all versions" || lower == "any" {
            return Ok(VersionReq::any());
        }
        // Tilde range: "1.0.3 ~ 3.5.0" (both endpoints inclusive, the
        // notation used in the paper's Table 2).
        if let Some((lo, hi)) = s.split_once('~') {
            let lo = Version::parse(lo.trim())?;
            let hi = Version::parse(hi.trim())?;
            return Ok(VersionReq {
                comparators: vec![
                    Comparator {
                        op: Op::Ge,
                        version: lo,
                    },
                    Comparator {
                        op: Op::Le,
                        version: hi,
                    },
                ],
            });
        }
        let mut comparators = Vec::new();
        for clause in split_conjunction(s) {
            let clause = clause.trim();
            if clause.is_empty() {
                return Err(ParseReqError::Syntax("empty clause".into()));
            }
            comparators.push(parse_comparator(clause)?);
        }
        // One bound a side, or a lone `=`: a second bound on one side
        // would silently drop the branch it was meant to add.
        let (mut lower, mut upper, mut eq) = (0, 0, 0);
        for c in &comparators {
            match c.op {
                Op::Gt | Op::Ge => lower += 1,
                Op::Lt | Op::Le => upper += 1,
                Op::Eq => eq += 1,
            }
        }
        if lower > 1 || upper > 1 || (eq > 0 && comparators.len() > 1) {
            return Err(ParseReqError::Syntax(format!(
                "{s:?} bounds one side twice or puts `=` beside another comparator; \
                 join alternatives with ` or ` (`< 3.4.1 or >= 4.0.0, < 4.3.1`)"
            )));
        }
        Ok(VersionReq { comparators })
    }

    /// Evaluates the requirement.
    pub fn matches(&self, v: &Version) -> bool {
        self.comparators.iter().all(|c| c.matches(v))
    }

    /// Converts to an interval set (a single interval, since requirements
    /// are conjunctions; empty conjunction yields the full space).
    pub fn to_interval_set(&self) -> IntervalSet {
        let mut acc = Interval::all();
        for c in &self.comparators {
            acc = acc.intersect(&c.to_interval());
        }
        IntervalSet::from_interval(acc)
    }
}

impl FromStr for VersionReq {
    type Err = ParseReqError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        VersionReq::parse(s)
    }
}

impl fmt::Display for VersionReq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.comparators.is_empty() {
            return f.write_str("all versions");
        }
        for (i, c) in self.comparators.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

fn split_conjunction(s: &str) -> Vec<&str> {
    // Split on commas and the word "and" (with surrounding whitespace).
    let mut out = Vec::new();
    for part in s.split(',') {
        let mut rest = part;
        while let Some(idx) = find_word(rest, "and") {
            out.push(&rest[..idx]);
            rest = &rest[idx + 3..];
        }
        out.push(rest);
    }
    out
}

/// Finds `word` in `s` at word boundaries (surrounded by whitespace or
/// string edges).
fn find_word(s: &str, word: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut from = 0;
    while let Some(rel) = s[from..].find(word) {
        let idx = from + rel;
        let before_ok = idx == 0 || bytes[idx - 1].is_ascii_whitespace();
        let after = idx + word.len();
        let after_ok = after == s.len() || bytes[after].is_ascii_whitespace();
        if before_ok && after_ok {
            return Some(idx);
        }
        from = idx + word.len();
    }
    None
}

fn parse_comparator(clause: &str) -> Result<Comparator, ParseReqError> {
    let (op, rest) = if let Some(r) = clause.strip_prefix("<=") {
        (Op::Le, r)
    } else if let Some(r) = clause.strip_prefix(">=") {
        (Op::Ge, r)
    } else if let Some(r) = clause.strip_prefix("==") {
        (Op::Eq, r)
    } else if let Some(r) = clause.strip_prefix('<') {
        (Op::Lt, r)
    } else if let Some(r) = clause.strip_prefix('>') {
        (Op::Gt, r)
    } else if let Some(r) = clause.strip_prefix('=') {
        (Op::Eq, r)
    } else {
        (Op::Eq, clause)
    };
    Ok(Comparator {
        op,
        version: Version::parse(rest.trim())?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Version {
        Version::parse(s).expect("valid version")
    }

    fn req(s: &str) -> VersionReq {
        VersionReq::parse(s).unwrap_or_else(|e| panic!("{s:?}: {e}"))
    }

    #[test]
    fn parses_cve_shapes() {
        assert!(req("< 1.9.0").matches(&v("1.8.3")));
        assert!(!req("< 1.9.0").matches(&v("1.9.0")));
        assert!(req(">= 1.2, < 3.5.0").matches(&v("2.2.4")));
        assert!(req(">= 1.4.2 and < 1.6.2").matches(&v("1.5.0")));
        assert!(!req(">= 1.4.2 and < 1.6.2").matches(&v("1.6.2")));
        assert!(
            req("1.0.3 ~ 3.5.0").matches(&v("3.5.0")),
            "tilde end is inclusive"
        );
        assert!(req("= 2.2").matches(&v("2.2")));
        assert!(req("2.2").matches(&v("2.2.0")));
        assert!(req("<= 1.7.3").matches(&v("1.7.3")));
        assert!(req("all versions").matches(&v("0.0.1")));
        assert!(req("*").matches(&v("99")));
    }

    #[test]
    fn rejects_garbage() {
        assert!(VersionReq::parse("").is_err());
        assert!(VersionReq::parse("< ").is_err());
        assert!(VersionReq::parse("~").is_err());
        assert!(VersionReq::parse("< x.y").is_err());
        assert!(VersionReq::parse(">= 1.0 and").is_err());
    }

    #[test]
    fn refuses_a_second_bound_on_one_side() {
        for spec in [
            "< 3.4.1, < 4.3.1",
            "<= 2.0 and < 3.0",
            ">= 1.0, > 1.5",
            "= 2.2, < 3.0",
            "= 1.0 and = 1.0",
        ] {
            let e = VersionReq::parse(spec).expect_err(spec);
            assert!(matches!(e, ParseReqError::Syntax(_)), "{spec}: {e}");
            assert!(e.to_string().contains(" or "), "{spec}: {e}");
        }
        assert!(
            VersionReq::parse("> 3.0 and < 2.0").is_ok(),
            "one bound a side"
        );
    }

    #[test]
    fn interval_set_agrees_with_matches() {
        for spec in ["< 1.9.0", ">= 1.2, < 3.5.0", "1.0.3 ~ 3.5.0", "= 2.2", "*"] {
            let r = req(spec);
            let set = r.to_interval_set();
            for probe in ["0.1", "1.2", "1.9.0", "2.2", "3.5.0", "3.5.1", "99"] {
                let pv = v(probe);
                assert_eq!(
                    r.matches(&pv),
                    set.contains(&pv),
                    "spec {spec} probe {probe}"
                );
            }
        }
    }

    #[test]
    fn contradiction_yields_empty_set() {
        let r = req("> 3.0 and < 2.0");
        assert!(r.to_interval_set().is_empty());
        assert!(!r.matches(&v("2.5")));
    }

    #[test]
    fn display_round_trip_semantics() {
        for spec in ["< 1.9.0", ">= 1.2, < 3.5.0", "= 2.2"] {
            let r = req(spec);
            let reparsed = req(&r.to_string());
            assert_eq!(r, reparsed, "{spec}");
        }
        assert_eq!(VersionReq::any().to_string(), "all versions");
    }

    #[test]
    fn word_and_is_not_split_inside_tokens() {
        // "android" contains "and" but not at word boundaries; the clause
        // fails version parsing rather than being mis-split.
        assert!(VersionReq::parse("android").is_err());
    }
}
