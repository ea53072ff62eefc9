//! Deterministic random streams.
//!
//! Every stochastic choice in the simulator draws from a [`Pcg32`] stream
//! derived from `(seed, domain, purpose)`. Streams are independent of
//! iteration order and thread scheduling, so the same seed always produces
//! the same web — the property the crawler's determinism tests rely on.

/// A PCG-XSH-RR 32-bit generator (O'Neill 2014).
#[derive(Debug, Clone)]
pub(crate) struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6_364_136_223_846_793_005;

impl Pcg32 {
    /// Creates a generator from a seed and stream selector.
    pub(crate) fn new(seed: u64, stream: u64) -> Pcg32 {
        let mut rng = Pcg32 {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Next 32 random bits.
    pub(crate) fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Uniform draw in `[0, n)`. Returns 0 when `n == 0`.
    pub(crate) fn below(&mut self, n: u32) -> u32 {
        if n == 0 {
            return 0;
        }
        // Lemire's nearly-divisionless method with rejection.
        loop {
            let x = self.next_u32() as u64;
            let m = x * n as u64;
            let low = m as u32;
            if low >= n {
                return (m >> 32) as u32;
            }
            // Rejection zone: recompute threshold only when needed.
            let threshold = n.wrapping_neg() % n;
            if low >= threshold {
                return (m >> 32) as u32;
            }
        }
    }

    /// Bernoulli draw with probability `p`/1000.
    pub(crate) fn permille(&mut self, p: u32) -> bool {
        self.below(1000) < p
    }

    /// Uniform float in `[0, 1)`.
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u32() as f64) / (u32::MAX as f64 + 1.0)
    }

    /// Index into a weighted list; weights of zero are never picked.
    ///
    /// # Panics
    ///
    /// Panics when all weights are zero or the list is empty.
    pub(crate) fn pick_weighted_index(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        assert!(total > 0, "weighted pick over empty distribution");
        let mut ticket = (self.unit() * total as f64) as u64;
        if ticket >= total {
            ticket = total - 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let w = w as u64;
            if ticket < w {
                return i;
            }
            ticket -= w;
        }
        weights.len() - 1
    }

    /// Geometric draw: number of weeks until an event with per-week
    /// probability `1/mean_weeks` fires. Returns at least 1.
    pub(crate) fn geometric_weeks(&mut self, mean_weeks: f64) -> usize {
        if mean_weeks <= 1.0 {
            return 1;
        }
        let p = 1.0 / mean_weeks;
        let u = self.unit().max(f64::MIN_POSITIVE);
        let weeks = (u.ln() / (1.0 - p).ln()).ceil();
        (weeks as usize).max(1)
    }
}

/// SplitMix64 step, used to derive stream selectors from strings.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a string into a stream selector.
pub(crate) fn hash_str(text: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in text.as_bytes() {
        h ^= b as u64;
        h = splitmix(h);
    }
    h
}

/// Derives an independent stream for `(seed, domain, purpose)`.
pub(crate) fn stream(seed: u64, domain: &str, purpose: &str) -> Pcg32 {
    let sel = splitmix(hash_str(domain) ^ splitmix(hash_str(purpose)));
    Pcg32::new(splitmix(seed) ^ sel, sel | 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_stream() {
        let mut a = stream(1, "site.example", "profile");
        let mut b = stream(1, "site.example", "profile");
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn streams_differ_by_every_key_component() {
        let base: Vec<u32> = {
            let mut r = stream(1, "a.example", "x");
            (0..8).map(|_| r.next_u32()).collect()
        };
        for (seed, dom, purpose) in [
            (2, "a.example", "x"),
            (1, "b.example", "x"),
            (1, "a.example", "y"),
        ] {
            let mut r = stream(seed, dom, purpose);
            let got: Vec<u32> = (0..8).map(|_| r.next_u32()).collect();
            assert_ne!(base, got, "{seed} {dom} {purpose}");
        }
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = Pcg32::new(7, 3);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            let x = r.below(10);
            counts[x as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "{counts:?}");
        }
        assert_eq!(r.below(0), 0);
        assert_eq!(r.below(1), 0);
    }

    #[test]
    fn permille_rates() {
        let mut r = Pcg32::new(9, 1);
        let hits = (0..100_000).filter(|_| r.permille(250)).count();
        assert!((24_000..26_000).contains(&hits), "{hits}");
        assert!(!(0..1000).any(|_| r.permille(0)));
        assert!((0..1000).all(|_| r.permille(1000)));
    }

    #[test]
    fn weighted_pick_respects_weights() {
        let mut r = Pcg32::new(11, 5);
        let weights = [700u32, 200, 100, 0];
        let mut counts = [0u32; 4];
        for _ in 0..100_000 {
            counts[r.pick_weighted_index(&weights)] += 1;
        }
        assert!((67_000..73_000).contains(&counts[0]), "{counts:?}");
        assert!((18_000..22_000).contains(&counts[1]), "{counts:?}");
        assert!((8_500..11_500).contains(&counts[2]), "{counts:?}");
        assert_eq!(counts[3], 0, "zero weight never picked");
    }

    #[test]
    fn geometric_mean_is_close() {
        let mut r = Pcg32::new(13, 9);
        let n = 50_000;
        let total: usize = (0..n).map(|_| r.geometric_weeks(26.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((24.0..28.0).contains(&mean), "{mean}");
        assert_eq!(r.geometric_weeks(0.5), 1);
    }

    #[test]
    fn unit_is_in_range() {
        let mut r = Pcg32::new(17, 21);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
