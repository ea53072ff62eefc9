//! Abstract syntax tree for the pattern language.
//!
//! The AST is produced by [`crate::parser`] and run by [`crate::compile`]'s
//! VM and by [`crate::backtrack`]. It is deliberately small: fingerprint
//! patterns and the lab's ReDoS patterns use literals, classes,
//! quantifiers, alternation, groups and anchors — nothing more exotic.

/// A single node of the parsed pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Ast {
    /// Matches the empty string.
    Empty,
    /// A single literal character.
    Literal(char),
    /// A character class such as `[a-z0-9.]` or the perl classes `\d`, `\w`.
    Class(ClassSet),
    /// `.` — any character except a line feed.
    Dot,
    /// `^` — start-of-text assertion.
    StartAnchor,
    /// `$` — end-of-text assertion.
    EndAnchor,
    /// A sequence of sub-expressions matched one after another.
    Concat(Vec<Ast>),
    /// Ordered alternation (`a|b|c`); earlier branches are preferred.
    Alternate(Vec<Ast>),
    /// A repetition such as `a*`, `a+?`, `a{2,5}`.
    Repeat(Box<Repeat>),
    /// A group. Capturing groups carry their 1-based capture index.
    Group(Box<Group>),
}

/// Repetition of a sub-expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Repeat {
    /// The repeated sub-expression.
    pub(crate) node: Ast,
    /// Minimum number of repetitions.
    pub(crate) min: u32,
    /// Maximum number of repetitions; `None` means unbounded.
    pub(crate) max: Option<u32>,
    /// Greedy repetitions prefer more matches; lazy (`*?`) prefer fewer.
    pub(crate) greedy: bool,
}

/// A parenthesised group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Group {
    /// `Some(i)` for capturing group number `i` (1-based); `None` for `(?:…)`.
    pub(crate) index: Option<u32>,
    /// The grouped sub-expression.
    pub(crate) node: Ast,
}

/// A set of character ranges, optionally negated.
///
/// Ranges are kept sorted and non-overlapping by [`ClassSet::canonicalize`],
/// which makes membership a binary search and equality structural.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct ClassSet {
    /// Inclusive character ranges.
    pub(crate) ranges: Vec<(char, char)>,
    /// When set, the class matches characters *not* in `ranges`.
    pub(crate) negated: bool,
}

impl ClassSet {
    /// An empty, non-negated class (matches nothing).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds a single character to the set.
    pub(crate) fn push_char(&mut self, c: char) {
        self.ranges.push((c, c));
    }

    /// Adds an inclusive range to the set.
    pub(crate) fn push_range(&mut self, lo: char, hi: char) {
        debug_assert!(lo <= hi);
        self.ranges.push((lo, hi));
    }

    /// Extends the set with all ranges of another set (ignores its negation).
    pub(crate) fn push_set(&mut self, other: &ClassSet) {
        self.ranges.extend_from_slice(&other.ranges);
    }

    /// Sorts and merges overlapping/adjacent ranges.
    pub(crate) fn canonicalize(&mut self) {
        self.ranges.sort_unstable();
        let mut merged: Vec<(char, char)> = Vec::with_capacity(self.ranges.len());
        for &(lo, hi) in &self.ranges {
            match merged.last_mut() {
                Some((_, prev_hi)) if lo as u32 <= *prev_hi as u32 + 1 => {
                    if hi > *prev_hi {
                        *prev_hi = hi;
                    }
                }
                _ => merged.push((lo, hi)),
            }
        }
        self.ranges = merged;
    }

    /// Membership test honouring negation.
    pub(crate) fn matches(&self, c: char) -> bool {
        let inside = self
            .ranges
            .binary_search_by(|&(lo, hi)| {
                if c < lo {
                    std::cmp::Ordering::Greater
                } else if c > hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok();
        inside != self.negated
    }

    /// Builds the perl class `\d`.
    pub(crate) fn digits() -> Self {
        ClassSet {
            ranges: vec![('0', '9')],
            negated: false,
        }
    }

    /// Builds the perl class `\w` (`[0-9A-Za-z_]`).
    pub(crate) fn word() -> Self {
        ClassSet {
            ranges: vec![('0', '9'), ('A', 'Z'), ('_', '_'), ('a', 'z')],
            negated: false,
        }
    }

    /// Builds the perl class `\s` (ASCII whitespace).
    pub(crate) fn space() -> Self {
        ClassSet {
            ranges: vec![
                ('\t', '\r'), // \t \n \x0B \x0C \r
                (' ', ' '),
            ],
            negated: false,
        }
    }

    /// Returns a negated copy of this class.
    pub(crate) fn negate(mut self) -> Self {
        self.negated = !self.negated;
        self
    }

    /// Case-folds the class for case-insensitive matching by adding, for
    /// every ASCII letter range, the range in the opposite case.
    pub(crate) fn ascii_fold(&mut self) {
        let mut extra = Vec::new();
        for &(lo, hi) in &self.ranges {
            // Fold the portion overlapping 'a'..='z' to upper case.
            let (flo, fhi) = (lo.max('a'), hi.min('z'));
            if flo <= fhi {
                extra.push((
                    ((flo as u8) - b'a' + b'A') as char,
                    ((fhi as u8) - b'a' + b'A') as char,
                ));
            }
            // Fold the portion overlapping 'A'..='Z' to lower case.
            let (flo, fhi) = (lo.max('A'), hi.min('Z'));
            if flo <= fhi {
                extra.push((
                    ((flo as u8) - b'A' + b'a') as char,
                    ((fhi as u8) - b'A' + b'a') as char,
                ));
            }
        }
        self.ranges.extend(extra);
        self.canonicalize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalize_merges_overlaps() {
        let mut cls = ClassSet::new();
        cls.push_range('a', 'f');
        cls.push_range('d', 'k');
        cls.push_char('m');
        cls.push_char('l'); // adjacent to 'k' and 'm'
        cls.canonicalize();
        assert_eq!(cls.ranges, vec![('a', 'm')]);
    }

    #[test]
    fn membership_and_negation() {
        let mut cls = ClassSet::new();
        cls.push_range('0', '9');
        cls.canonicalize();
        assert!(cls.matches('5'));
        assert!(!cls.matches('a'));
        let neg = cls.negate();
        assert!(!neg.matches('5'));
        assert!(neg.matches('a'));
    }

    #[test]
    fn ascii_fold_adds_opposite_case() {
        let mut cls = ClassSet::new();
        cls.push_range('a', 'c');
        cls.push_range('X', 'Z');
        cls.ascii_fold();
        assert!(cls.matches('A'));
        assert!(cls.matches('b'));
        assert!(cls.matches('y'));
        assert!(cls.matches('Z'));
        assert!(!cls.matches('d'));
    }

    #[test]
    fn perl_classes() {
        assert!(ClassSet::digits().matches('7'));
        assert!(!ClassSet::digits().matches('x'));
        assert!(ClassSet::word().matches('_'));
        assert!(ClassSet::space().matches('\n'));
        assert!(!ClassSet::space().matches('x'));
    }
}
