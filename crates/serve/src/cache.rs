//! A seeded, shard-locked LRU cache for hot response bodies.
//!
//! The cache is split into independently locked shards so concurrent
//! workers rarely contend; a key's shard is chosen by a SplitMix64-seeded
//! hash, making the shard layout deterministic for a given seed (tests
//! can pin it) while still spreading adversarial key sets. Each shard
//! evicts its least-recently-used entry when full, found as the first of
//! its keys ordered by last use, so a hit and a miss cost O(log n) in the
//! shard's size however large the cache is.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// SplitMix64 finalizer — the workspace's standard bit mixer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Entry<V> {
    value: V,
    last_used: u64,
}

struct Shard<V> {
    map: HashMap<String, Entry<V>>,
    /// Every key of `map` by the tick it was last used at: the first is
    /// the least recently used.
    recency: BTreeMap<u64, String>,
    tick: u64,
}

impl<V> Shard<V> {
    /// Advances the shard's clock and returns the new tick.
    fn tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Moves the entry for `key` to `tick` in the recency order.
    fn touch(&mut self, key: &str, tick: u64) -> Option<&mut Entry<V>> {
        let entry = self.map.get_mut(key)?;
        let owned = self.recency.remove(&entry.last_used);
        self.recency
            .insert(tick, owned.expect("every entry has a recency slot"));
        entry.last_used = tick;
        Some(entry)
    }
}

/// A sharded LRU keyed by `String`. Values are cloned out on hit, so
/// callers typically store `Arc`s.
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    per_shard_cap: usize,
    seed: u64,
}

impl<V: Clone> ShardedLru<V> {
    /// A cache holding at most `capacity` entries across `shards` shards
    /// (both floored to 1). `seed` fixes the key→shard mapping.
    pub fn new(capacity: usize, shards: usize, seed: u64) -> ShardedLru<V> {
        let shards = shards.max(1);
        let per_shard_cap = capacity.max(1).div_ceil(shards);
        ShardedLru {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        recency: BTreeMap::new(),
                        tick: 0,
                    })
                })
                .collect(),
            per_shard_cap,
            seed,
        }
    }

    /// The shard index for `key` (deterministic per seed).
    pub fn shard_of(&self, key: &str) -> usize {
        let mut h = self.seed ^ 0x51_7c_c1_b7_27_22_0a_95;
        for chunk in key.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h = mix(h ^ u64::from_le_bytes(word));
        }
        (h % self.shards.len() as u64) as usize
    }

    fn shard(&self, key: &str) -> std::sync::MutexGuard<'_, Shard<V>> {
        let idx = self.shard_of(key);
        self.shards[idx].lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Looks up `key`, refreshing its recency on hit.
    pub fn get(&self, key: &str) -> Option<V> {
        let mut shard = self.shard(key);
        let tick = shard.tick();
        shard.touch(key, tick).map(|entry| entry.value.clone())
    }

    /// Inserts `key`, evicting the shard's least-recently-used entry if
    /// the shard is at capacity.
    pub fn insert(&self, key: String, value: V) {
        let mut shard = self.shard(&key);
        let tick = shard.tick();
        if let Some(entry) = shard.touch(&key, tick) {
            entry.value = value;
            return;
        }
        if shard.map.len() >= self.per_shard_cap {
            if let Some((_, victim)) = shard.recency.pop_first() {
                shard.map.remove(&victim);
            }
        }
        shard.recency.insert(tick, key.clone());
        shard.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).map.len())
            .sum()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The eviction before the recency order, kept as the oracle: one
    /// shard whose insert scans every entry for the oldest.
    struct ScanShard {
        map: HashMap<String, (u32, u64)>,
        tick: u64,
        cap: usize,
    }

    impl ScanShard {
        fn get(&mut self, key: &str) -> Option<u32> {
            self.tick += 1;
            let entry = self.map.get_mut(key)?;
            entry.1 = self.tick;
            Some(entry.0)
        }

        fn insert(&mut self, key: String, value: u32) {
            self.tick += 1;
            if !self.map.contains_key(&key) && self.map.len() >= self.cap {
                if let Some(victim) = self
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.1)
                    .map(|(k, _)| k.clone())
                {
                    self.map.remove(&victim);
                }
            }
            self.map.insert(key, (value, self.tick));
        }
    }

    #[test]
    fn recency_order_evicts_what_the_scan_evicted() {
        webvuln_failpoint::check::run("lru recency order equals the scan", 256, |g| {
            let (capacity, shards) = (g.range(1..=24) as usize, g.range(1..=4) as usize);
            let cache: ShardedLru<u32> = ShardedLru::new(capacity, shards, g.range(0..=9));
            let mut oracle: Vec<ScanShard> = (0..shards)
                .map(|_| ScanShard {
                    map: HashMap::new(),
                    tick: 0,
                    cap: cache.per_shard_cap,
                })
                .collect();
            let keys = g.range(1..=48);
            for step in 0..g.range(0..=400) as u32 {
                let key = format!("/domain/site-{}.example/history", g.range(0..=keys));
                let index = cache.shard_of(&key);
                if g.bool() {
                    assert_eq!(cache.get(&key), oracle[index].get(&key), "get {key}");
                } else {
                    cache.insert(key.clone(), step);
                    oracle[index].insert(key, step);
                }
                let shard = cache.shards[index].lock().expect("shard");
                let held: Vec<&String> = shard.recency.values().collect();
                let mut want: Vec<(&u64, &String)> =
                    oracle[index].map.iter().map(|(k, e)| (&e.1, k)).collect();
                want.sort();
                assert_eq!(held.len(), shard.map.len(), "recency and map disagree");
                let want: Vec<&String> = want.into_iter().map(|(_, k)| k).collect();
                assert_eq!(held, want, "entries differ after step {step}");
            }
        });
    }

    #[test]
    fn hit_returns_inserted_value() {
        let cache: ShardedLru<u32> = ShardedLru::new(8, 2, 7);
        assert_eq!(cache.get("a"), None);
        cache.insert("a".into(), 1);
        assert_eq!(cache.get("a"), Some(1));
    }

    #[test]
    fn evicts_least_recently_used_within_a_shard() {
        // One shard makes the LRU order globally observable.
        let cache: ShardedLru<u32> = ShardedLru::new(2, 1, 0);
        cache.insert("a".into(), 1);
        cache.insert("b".into(), 2);
        assert_eq!(cache.get("a"), Some(1)); // refresh "a": "b" is now LRU
        cache.insert("c".into(), 3);
        assert_eq!(cache.get("b"), None, "LRU entry evicted");
        assert_eq!(cache.get("a"), Some(1));
        assert_eq!(cache.get("c"), Some(3));
    }

    #[test]
    fn capacity_bounds_hold_across_shards() {
        let cache: ShardedLru<u32> = ShardedLru::new(16, 4, 3);
        for i in 0..200 {
            cache.insert(format!("key-{i}"), i);
        }
        // Each of the 4 shards holds at most ceil(16/4) = 4 entries.
        assert!(cache.len() <= 16, "len {} exceeds capacity", cache.len());
    }

    #[test]
    fn shard_mapping_is_seed_deterministic() {
        let a: ShardedLru<u8> = ShardedLru::new(8, 4, 123);
        let b: ShardedLru<u8> = ShardedLru::new(8, 4, 123);
        let c: ShardedLru<u8> = ShardedLru::new(8, 4, 456);
        let keys = ["/domain/d1/history", "/week/3/landscape", "/healthz"];
        for k in keys {
            assert_eq!(a.shard_of(k), b.shard_of(k));
        }
        // A different seed must move at least one key (these seeds do).
        assert!(keys.iter().any(|k| a.shard_of(k) != c.shard_of(k)));
    }

    #[test]
    fn concurrent_mixed_load_stays_consistent() {
        let cache: std::sync::Arc<ShardedLru<usize>> =
            std::sync::Arc::new(ShardedLru::new(32, 8, 9));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..500 {
                        let key = format!("k{}", (t * 31 + i) % 40);
                        if let Some(v) = cache.get(&key) {
                            assert_eq!(v, (t * 31 + i) % 40 + 1, "value corrupted");
                        }
                        cache.insert(key, (t * 31 + i) % 40 + 1);
                    }
                });
            }
        });
        assert!(cache.len() <= 32);
    }
}
