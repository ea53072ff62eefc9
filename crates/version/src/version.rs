//! The [`Version`] type: parsing and total ordering for the version strings
//! seen in client-side JavaScript library URLs.
//!
//! JavaScript library projects nominally use Semantic Versioning
//! (`MAJOR.MINOR.PATCH`), but what actually appears in the wild is looser:
//! `2.2` (two components), `3` (one), `1.6.0.1` (four — Prototype), `2.1.0-beta.1`
//! (pre-release tags), and a leading `v` in file names. This type accepts
//! all of those and orders them the way the paper's analysis needs:
//! numeric components compared positionally with missing components treated
//! as zero, and pre-releases ordered before the corresponding release.

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// A parsed library version.
///
/// Equality, ordering and hashing all treat trailing zero components as
/// absent (`1.9 == 1.9.0`), while [`fmt::Display`] preserves the components
/// as written so that version strings round-trip.
#[derive(Debug, Eq)]
pub struct Version {
    /// Numeric components, most significant first. Never empty.
    parts: Vec<u32>,
    /// Pre-release identifier (the part after `-`), if any.
    pre: Option<String>,
}

impl Clone for Version {
    fn clone(&self) -> Self {
        Version {
            parts: self.parts.clone(),
            pre: self.pre.clone(),
        }
    }

    /// Overwrites `self` reusing its buffers — per-domain trackers store
    /// "the version seen this week" over last week's without allocating.
    fn clone_from(&mut self, source: &Self) {
        self.parts.clone_from(&source.parts);
        self.pre.clone_from(&source.pre);
    }
}

impl PartialEq for Version {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl std::hash::Hash for Version {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let trimmed = {
            let mut end = self.parts.len();
            while end > 1 && self.parts[end - 1] == 0 {
                end -= 1;
            }
            &self.parts[..end]
        };
        trimmed.hash(state);
        // Pre-release segments hash the way they compare: numeric
        // segments by value (`rc.2` == `rc.02`), others by text.
        if let Some(pre) = &self.pre {
            for segment in pre.split('.') {
                match segment.parse::<u64>() {
                    Ok(n) => n.hash(state),
                    Err(_) => segment.hash(state),
                }
            }
        }
    }
}

/// Error parsing a version string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVersionError {
    input: String,
    reason: &'static str,
}

impl fmt::Display for ParseVersionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid version {:?}: {}", self.input, self.reason)
    }
}

impl std::error::Error for ParseVersionError {}

impl Version {
    /// Builds a version from explicit numeric components.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn new(parts: &[u32]) -> Self {
        assert!(!parts.is_empty(), "a version needs at least one component");
        Version {
            parts: parts.to_vec(),
            pre: None,
        }
    }

    /// Parses a version string.
    ///
    /// Accepts an optional leading `v`, one to six dot-separated numeric
    /// components, and an optional pre-release suffix introduced by `-`
    /// (e.g. `1.0.0-rc.1`) or by a letter glued to the last component
    /// (e.g. `1.0b2`, seen in very old jQuery releases).
    pub fn parse(input: &str) -> Result<Self, ParseVersionError> {
        let err = |reason| ParseVersionError {
            input: input.to_string(),
            reason,
        };
        let s = input.trim();
        let s = s
            .strip_prefix('v')
            .or_else(|| s.strip_prefix('V'))
            .unwrap_or(s);
        if s.is_empty() {
            return Err(err("empty"));
        }
        // Split off an explicit pre-release suffix.
        let (num_part, mut pre) = match s.split_once('-') {
            Some((n, p)) if !p.is_empty() => (n, Some(p.to_string())),
            Some(_) => return Err(err("trailing '-'")),
            None => (s, None),
        };
        let mut parts = Vec::with_capacity(4);
        for (i, comp) in num_part.split('.').enumerate() {
            if i >= 6 {
                return Err(err("too many components"));
            }
            if comp.is_empty() {
                return Err(err("empty component"));
            }
            // Allow a glued alpha suffix on the last component: "0b2" etc.
            let digits_end = comp
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(comp.len());
            if digits_end == 0 {
                return Err(err("component does not start with a digit"));
            }
            let n: u32 = comp[..digits_end]
                .parse()
                .map_err(|_| err("component out of range"))?;
            parts.push(n);
            if digits_end < comp.len() {
                if pre.is_some() {
                    return Err(err("two pre-release markers"));
                }
                pre = Some(comp[digits_end..].to_string());
                // A glued suffix must be on the final component.
                if num_part.split('.').count() != i + 1 {
                    return Err(err("alpha suffix before last component"));
                }
                break;
            }
        }
        if parts.is_empty() {
            return Err(err("no numeric components"));
        }
        Ok(Version { parts, pre })
    }

    /// The numeric components.
    pub fn parts(&self) -> &[u32] {
        &self.parts
    }

    /// Major (first) component.
    pub fn major(&self) -> u32 {
        self.parts[0]
    }

    /// The pre-release identifier, if any.
    pub fn pre(&self) -> Option<&str> {
        self.pre.as_deref()
    }

    /// True when this is a pre-release (`-beta`, `rc1`, …).
    pub fn is_prerelease(&self) -> bool {
        self.pre.is_some()
    }
}

impl FromStr for Version {
    type Err = ParseVersionError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Version::parse(s)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.parts.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{p}")?;
        }
        if let Some(pre) = &self.pre {
            // Round-trip glued suffixes without the dash; dashed otherwise.
            if pre.chars().next().is_some_and(|c| c.is_ascii_alphabetic())
                && !pre.contains('.')
                && pre.len() <= 3
            {
                write!(f, "{pre}")?;
            } else {
                write!(f, "-{pre}")?;
            }
        }
        Ok(())
    }
}

impl Ord for Version {
    fn cmp(&self, other: &Self) -> Ordering {
        // Positional over the shared prefix; past it, the longer side
        // wins exactly when it has a non-zero component left.
        let shared = self.parts.len().min(other.parts.len());
        let (ours, our_rest) = self.parts.split_at(shared);
        let (theirs, their_rest) = other.parts.split_at(shared);
        match ours.cmp(theirs) {
            Ordering::Equal => {}
            non_eq => return non_eq,
        }
        if our_rest.iter().any(|&part| part != 0) {
            return Ordering::Greater;
        }
        if their_rest.iter().any(|&part| part != 0) {
            return Ordering::Less;
        }
        match (&self.pre, &other.pre) {
            (None, None) => Ordering::Equal,
            (Some(_), None) => Ordering::Less, // pre-release sorts first
            (None, Some(_)) => Ordering::Greater,
            (Some(a), Some(b)) => cmp_prerelease(a, b),
        }
    }
}

impl PartialOrd for Version {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Compares pre-release identifiers semver-style: dot-separated fields,
/// numeric fields compare numerically and sort before alphanumeric ones.
fn cmp_prerelease(a: &str, b: &str) -> Ordering {
    let mut xs = a.split('.');
    let mut ys = b.split('.');
    loop {
        match (xs.next(), ys.next()) {
            (None, None) => return Ordering::Equal,
            (None, Some(_)) => return Ordering::Less,
            (Some(_), None) => return Ordering::Greater,
            (Some(x), Some(y)) => {
                let ord = match (x.parse::<u64>(), y.parse::<u64>()) {
                    (Ok(nx), Ok(ny)) => nx.cmp(&ny),
                    (Ok(_), Err(_)) => Ordering::Less,
                    (Err(_), Ok(_)) => Ordering::Greater,
                    (Err(_), Err(_)) => x.cmp(y),
                };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Version {
        Version::parse(s).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn parses_common_shapes() {
        assert_eq!(v("1.12.4").parts(), &[1, 12, 4]);
        assert_eq!(v("2.2").parts(), &[2, 2]);
        assert_eq!(v("3").parts(), &[3]);
        assert_eq!(v("1.6.0.1").parts(), &[1, 6, 0, 1]);
        assert_eq!(v("v3.5.1").parts(), &[3, 5, 1]);
    }

    #[test]
    fn parses_prereleases() {
        assert_eq!(v("2.1.0-beta.1").pre(), Some("beta.1"));
        assert_eq!(v("1.0b2").pre(), Some("b2"));
        assert_eq!(v("1.0rc1").pre(), Some("rc1"));
        assert!(v("1.0").pre().is_none());
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "v",
            "a.b.c",
            "1..2",
            "1.2.3.4.5.6.7",
            ".",
            "-rc",
            "1.2-",
        ] {
            assert!(Version::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn ordering_pads_missing_components() {
        assert_eq!(v("1.9"), v("1.9.0"));
        assert!(v("1.9") < v("1.9.1"));
        assert!(v("1.12.4") < v("1.13"));
        assert!(v("2") > v("1.99.99"));
        assert!(v("1.6.0.1") > v("1.6"));
        assert!(v("1.6.0.1") < v("1.6.1"));
    }

    #[test]
    fn prerelease_sorts_before_release() {
        assert!(v("3.0.0-rc1") < v("3.0.0"));
        assert!(v("3.0.0-alpha") < v("3.0.0-beta"));
        assert!(v("3.0.0-rc.1") < v("3.0.0-rc.2"));
        assert!(
            v("3.0.0-rc.2") < v("3.0.0-rc.10"),
            "numeric fields compare numerically"
        );
        assert!(v("1.0b1") < v("1.0"));
        assert!(v("3.0.0") < v("3.0.1-rc1"));
    }

    #[test]
    fn display_round_trips() {
        for s in ["1.12.4", "2.2", "3", "1.6.0.1", "2.1.0-beta.1", "1.0b2"] {
            assert_eq!(v(s).to_string(), s, "round trip {s}");
        }
        assert_eq!(v("v3.5.1").to_string(), "3.5.1");
    }

    #[test]
    fn paper_version_facts_hold() {
        // Orderings the paper's analysis depends on.
        assert!(
            v("1.12.4") < v("3.5.0"),
            "dominant jQuery is older than patch"
        );
        assert!(v("2.2.3") < v("3.6.0"), "docusign's jQuery in TVV range");
        assert!(v("3.5.1") < v("3.6.0"), "microsoft's jQuery in TVV range");
        assert!(v("1.4.1") < v("3.3.2"), "jQuery-Migrate dominant vs latest");
    }

    #[test]
    fn clone_from_overwrites_every_field() {
        let mut slot = v("1.2.3-beta.1");
        slot.clone_from(&v("3.5"));
        assert_eq!(slot.to_string(), "3.5");
        assert_eq!(slot.pre(), None);
        slot.clone_from(&v("1.0.0.1-rc.2"));
        assert_eq!(slot.to_string(), "1.0.0.1-rc.2");
    }

    #[test]
    fn hash_matches_numeric_prerelease_equality() {
        use std::collections::HashSet;
        // rc.2 and rc.02 compare equal (numeric segments), so they must
        // hash identically.
        assert_eq!(v("1.0-rc.2"), v("1.0-rc.02"));
        let mut set = HashSet::new();
        assert!(set.insert(v("1.0-rc.2")));
        assert!(!set.insert(v("1.0-rc.02")));
    }

    #[test]
    fn eq_and_hash_ignore_trailing_zeros() {
        use std::collections::HashSet;
        assert_eq!(v("1.9"), v("1.9.0"));
        assert_ne!(v("1.9"), v("1.9.1"));
        let mut set = HashSet::new();
        assert!(set.insert(v("1.9")));
        assert!(!set.insert(v("1.9.0")), "1.9.0 hashes like 1.9");
        assert!(set.insert(v("1.9.1")));
        assert!(set.insert(v("1.9.0-rc1")), "pre-release is distinct");
    }
}
