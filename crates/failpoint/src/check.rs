//! Seeded generate-and-shrink property checking — the workspace's
//! dependency-free stand-in for a property-testing crate, in the same
//! SplitMix64 style as the fail-point registry.
//!
//! A property is a closure over a [`Gen`]; it fails by panicking (plain
//! `assert!`). [`run`] executes it for a fixed number of cases, each with
//! its own seed derived from the property name and a *size* (0–100) that
//! grows with the case index and scales every length the case draws.
//! On the first failure the same seed is re-run at smaller sizes, and
//! the smallest failing `(seed, size)` is reported together with every
//! value the case drew. Nothing reads the clock or the environment: a
//! property fails the same way on every run.

use std::fmt::Debug;
use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every printable ASCII character, space through `~`.
pub const PRINTABLE: &str = " !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ\
                             [\\]^_`abcdefghijklmnopqrstuvwxyz{|}~";

/// Largest size: lengths are drawn from their full range.
const MAX_SIZE: u64 = 100;

/// A deterministic source of test values.
pub struct Gen {
    state: u64,
    size: u64,
    drawn: Vec<String>,
}

impl Gen {
    fn new(seed: u64, size: u64) -> Gen {
        Gen {
            state: seed,
            size,
            drawn: Vec::new(),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`, unlogged.
    fn between(&mut self, lo: u64, hi: u64) -> u64 {
        match (hi - lo).checked_add(1) {
            Some(span) => lo + self.next() % span,
            None => self.next(),
        }
    }

    /// A length from `len`, its upper end scaled down by the case size.
    fn len(&mut self, len: RangeInclusive<usize>) -> usize {
        let (lo, hi) = (*len.start() as u64, *len.end() as u64);
        self.between(lo, lo + (hi - lo) * self.size / MAX_SIZE) as usize
    }

    fn log<T: Debug>(&mut self, value: T) -> T {
        self.drawn.push(format!("{value:?}"));
        value
    }

    /// A uniform integer in `range` (not scaled by size).
    pub fn range(&mut self, range: RangeInclusive<u64>) -> u64 {
        let value = self.between(*range.start(), *range.end());
        self.log(value)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        let value = self.next() & 1 == 1;
        self.log(value)
    }

    /// One element of `items`, which must not be empty.
    pub fn pick<'a, T: Debug>(&mut self, items: &'a [T]) -> &'a T {
        let index = self.between(0, items.len() as u64 - 1) as usize;
        self.log(&items[index])
    }

    /// Arbitrary bytes.
    pub fn bytes(&mut self, len: RangeInclusive<usize>) -> Vec<u8> {
        let n = self.len(len);
        let value = (0..n).map(|_| self.next() as u8).collect();
        self.log(value)
    }

    /// A string of characters drawn from `charset`.
    pub fn string(&mut self, charset: &str, len: RangeInclusive<usize>) -> String {
        let chars: Vec<char> = charset.chars().collect();
        let n = self.len(len);
        let value = (0..n)
            .map(|_| chars[self.between(0, chars.len() as u64 - 1) as usize])
            .collect();
        self.log(value)
    }

    /// A string of arbitrary non-control Unicode scalar values: half
    /// printable ASCII, the rest spread over the BMP and astral planes.
    pub fn unicode(&mut self, len: RangeInclusive<usize>) -> String {
        let n = self.len(len);
        let value = (0..n)
            .map(|_| {
                let code = match self.next() % 4 {
                    0 | 1 => self.between(0x20, 0x7e),
                    2 => self.between(0xa0, 0xffff),
                    _ => self.between(0x1_0000, 0x10_ffff),
                };
                // Only a surrogate code point has no `char`.
                char::from_u32(code as u32).unwrap_or('\u{fffd}')
            })
            .collect();
        self.log(value)
    }

    /// A vector of `len` elements, each drawn by `element`.
    pub fn vec<T>(
        &mut self,
        len: RangeInclusive<usize>,
        mut element: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.len(len);
        (0..n).map(|_| element(self)).collect()
    }
}

/// Runs one case; on failure returns the drawn values and panic message.
fn run_case(seed: u64, size: u64, property: &impl Fn(&mut Gen)) -> Option<(Vec<String>, String)> {
    let mut gen = Gen::new(seed, size);
    let payload = catch_unwind(AssertUnwindSafe(|| property(&mut gen))).err()?;
    let message = match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(message) => (*message).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    };
    Some((gen.drawn, message))
}

/// Checks `property` on `cases` generated cases and panics on the first
/// one that fails, after shrinking it to the smallest failing size.
///
/// # Panics
///
/// When the property panics for some case; the message names the
/// property, the smallest failing `(seed, size)`, and the drawn values.
pub fn run(name: &str, cases: u32, property: impl Fn(&mut Gen)) {
    for case in 0..cases {
        let seed = super::mix(u64::from(case), name);
        let size = u64::from(case + 1) * MAX_SIZE / u64::from(cases);
        let Some(mut failure) = run_case(seed, size, &property) else {
            continue;
        };
        let mut smallest = size;
        for smaller in 0..size {
            if let Some(found) = run_case(seed, smaller, &property) {
                (smallest, failure) = (smaller, found);
                break;
            }
        }
        let (drawn, message) = failure;
        panic!(
            "property '{name}' failed (case {case} of {cases}) at seed {seed:#018x}, \
             size {smallest}\n  drew: {}\n  {message}",
            drawn.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failure_of(name: &str, cases: u32, property: impl Fn(&mut Gen)) -> String {
        let payload = catch_unwind(AssertUnwindSafe(|| run(name, cases, property)))
            .expect_err("property must fail");
        *payload.downcast::<String>().expect("string payload")
    }

    #[test]
    fn draws_are_deterministic_and_in_range() {
        let draw = |seed| {
            let mut g = Gen::new(seed, MAX_SIZE);
            let n = g.range(3..=9);
            assert!((3..=9).contains(&n));
            assert_eq!(g.range(5..=5), 5);
            let _ = g.range(0..=u64::MAX);
            let s = g.string("ab", 2..=6);
            assert!((2..=6).contains(&s.len()) && s.chars().all(|c| "ab".contains(c)));
            let u = g.unicode(0..=40);
            assert!(u.chars().count() <= 40 && !u.chars().any(char::is_control));
            let v = g.vec(1..=4, |g| *g.pick(&[10u8, 20, 30]));
            assert!(!v.is_empty() && v.iter().all(|x| x % 10 == 0));
            (n, g.bool(), g.bytes(0..=16), s, u, v)
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7).2, draw(8).2);
    }

    #[test]
    fn size_scales_lengths() {
        let mut tiny = Gen::new(1, 0);
        assert_eq!(tiny.bytes(2..=64).len(), 2);
        assert!(tiny.vec(0..=9, |g| g.bool()).is_empty());
        let longest = (0..64)
            .map(|seed| Gen::new(seed, MAX_SIZE).bytes(0..=64).len())
            .max();
        assert!(longest > Some(48), "full size reaches the top: {longest:?}");
    }

    #[test]
    fn passing_property_runs_every_case() {
        let count = std::sync::atomic::AtomicU32::new(0);
        run("counts", 256, |g| {
            let _ = g.bool();
            count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(count.into_inner(), 256);
    }

    #[test]
    fn failure_is_shrunk_and_reports_the_drawn_values() {
        let property = |g: &mut Gen| {
            let s = g.string("x", 0..=50);
            assert!(s.len() < 3, "too long: {}", s.len());
        };
        let message = failure_of("shrinks", 256, property);
        assert!(message.contains("property 'shrinks' failed"), "{message}");
        // The first failing case drew a longer string; re-running its
        // seed at smaller sizes ends at the shortest draw that still fails.
        assert!(message.contains("drew: \"xxx\""), "{message}");
        assert!(message.contains("too long: 3"), "{message}");
        assert_eq!(message, failure_of("shrinks", 256, property));
    }
}
