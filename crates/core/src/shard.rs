//! Sharded concurrent caches for the estimation engine.
//!
//! The engine is shared read-mostly across every worker of its thread
//! pool, and its memoization used to sit behind four global
//! `Mutex<HashMap>`s — so parallel scoring serialized on cache lookups,
//! and every *hit* still paid a `String` clone to build the lookup key.
//! These caches fix both: keys are hashed to one of `N_SHARDS`
//! independently locked shards (uncontended in the common case), and
//! lookups borrow `&str` — an allocation happens only on insert.
//!
//! Cached values are pure functions of their keys, so a race between two
//! workers computing the same key is wasted work, never a wrong answer;
//! last-insert-wins is benign because both inserts carry the same value.

use std::collections::HashMap;
use std::sync::Mutex;

use nexus_table::Fnv64;

/// Number of independently locked shards (power of two).
const N_SHARDS: usize = 16;

/// FNV-1a shard index for a string key.
#[inline]
fn shard_of(key: &str) -> usize {
    let mut h = Fnv64::new();
    h.write(key.as_bytes());
    h.finish() as usize & (N_SHARDS - 1)
}

/// A sharded cache keyed by `(name, weighted?)`.
///
/// The boolean dimension is inlined as a two-slot array per name, so both
/// variants of a candidate share one map entry and one key allocation.
#[derive(Debug)]
pub struct NameCache<V> {
    shards: Vec<Mutex<HashMap<String, [Option<V>; 2]>>>,
}

impl<V: Copy> NameCache<V> {
    /// An empty cache.
    pub fn new() -> Self {
        NameCache {
            shards: (0..N_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// Looks up `(name, weighted)` without allocating.
    pub fn get(&self, name: &str, weighted: bool) -> Option<V> {
        self.shards[shard_of(name)]
            .lock()
            .expect("cache shard")
            .get(name)
            .and_then(|slots| slots[weighted as usize])
    }

    /// Inserts a value, cloning `name` only when it is new to its shard.
    pub fn insert(&self, name: &str, weighted: bool, value: V) {
        let mut shard = self.shards[shard_of(name)].lock().expect("cache shard");
        if let Some(slots) = shard.get_mut(name) {
            slots[weighted as usize] = Some(value);
        } else {
            let mut slots = [None, None];
            slots[weighted as usize] = Some(value);
            shard.insert(name.to_string(), slots);
        }
    }
}

impl<V: Copy> Default for NameCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// A sharded cache keyed by an ordered pair of names, stored as nested
/// maps so lookups borrow both `&str`s. Callers canonicalize the pair
/// order; sharding is by the first name.
#[derive(Debug)]
pub struct PairCache<V> {
    shards: Vec<Mutex<HashMap<String, HashMap<String, V>>>>,
}

impl<V: Clone> PairCache<V> {
    /// An empty cache.
    pub fn new() -> Self {
        PairCache {
            shards: (0..N_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// Looks up `(a, b)` without allocating.
    pub fn get(&self, a: &str, b: &str) -> Option<V> {
        self.shards[shard_of(a)]
            .lock()
            .expect("cache shard")
            .get(a)
            .and_then(|inner| inner.get(b))
            .cloned()
    }

    /// Inserts a value, cloning the names only as needed.
    pub fn insert(&self, a: &str, b: &str, value: V) {
        let mut shard = self.shards[shard_of(a)].lock().expect("cache shard");
        let inner = match shard.get_mut(a) {
            Some(inner) => inner,
            None => shard.entry(a.to_string()).or_default(),
        };
        if let Some(slot) = inner.get_mut(b) {
            *slot = value;
        } else {
            inner.insert(b.to_string(), value);
        }
    }
}

impl<V: Clone> Default for PairCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_cache_roundtrip_both_slots() {
        let cache: NameCache<f64> = NameCache::new();
        assert_eq!(cache.get("a", false), None);
        cache.insert("a", false, 1.5);
        cache.insert("a", true, 2.5);
        assert_eq!(cache.get("a", false), Some(1.5));
        assert_eq!(cache.get("a", true), Some(2.5));
        assert_eq!(cache.get("b", false), None);
    }

    #[test]
    fn pair_cache_roundtrip() {
        let cache: PairCache<u32> = PairCache::new();
        assert_eq!(cache.get("x", "y"), None);
        cache.insert("x", "y", 7);
        cache.insert("x", "z", 8);
        assert_eq!(cache.get("x", "y"), Some(7));
        assert_eq!(cache.get("x", "z"), Some(8));
        assert_eq!(cache.get("y", "x"), None);
    }

    #[test]
    fn many_keys_spread_over_shards() {
        let cache: NameCache<usize> = NameCache::new();
        for i in 0..200 {
            cache.insert(&format!("key{i}"), i % 2 == 0, i);
        }
        for i in 0..200 {
            assert_eq!(cache.get(&format!("key{i}"), i % 2 == 0), Some(i));
        }
    }
}
