//! A fixed-capacity LRU map with index-linked recency order.
//!
//! Each [`ServeClient`](crate::ServeClient) owns one [`LruCache`] outright
//! and only its own thread touches it, so no locking is needed.  The recency
//! list is threaded through a slab of entries by index (no pointers, no
//! unsafe); every operation is `O(1)` plus one hash lookup.

use std::collections::HashMap;
use std::hash::Hash;

/// Sentinel index marking the end of the recency list.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Entry<K, V> {
    key: K,
    value: V,
    /// Index of the next-more-recent entry (`NIL` for the head).
    prev: usize,
    /// Index of the next-less-recent entry (`NIL` for the tail).
    next: usize,
}

/// A least-recently-used cache holding at most `capacity` entries.
///
/// A capacity of `0` disables the cache entirely: [`LruCache::get`] always
/// misses and [`LruCache::insert`] is a no-op, so callers can keep one code
/// path for the cached and uncached configurations.
///
/// ```
/// use dsketch_serve::cache::LruCache;
///
/// let mut cache = LruCache::new(2);
/// cache.insert("a", 1);
/// cache.insert("b", 2);
/// assert_eq!(cache.get(&"a"), Some(&1)); // "a" is now most recent
/// cache.insert("c", 3);                  // evicts "b", the LRU entry
/// assert_eq!(cache.get(&"b"), None);
/// assert_eq!(cache.len(), 2);
/// ```
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    entries: Vec<Entry<K, V>>,
    /// Most recently used entry, `NIL` when empty.
    head: usize,
    /// Least recently used entry, `NIL` when empty.
    tail: usize,
}

impl<K: Hash + Eq + Clone, V> LruCache<K, V> {
    /// An empty cache that will hold at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            entries: Vec::with_capacity(capacity.min(1 << 20)),
            head: NIL,
            tail: NIL,
        }
    }

    /// Maximum number of entries the cache will hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        Some(&self.entries[idx].value)
    }

    /// Insert or update `key`, marking it most recently used and evicting
    /// the least recently used entry if the cache is full.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.entries[idx].value = value;
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        let idx = if self.map.len() == self.capacity {
            // Reuse the evicted tail slot.
            let idx = self.tail;
            self.unlink(idx);
            self.map.remove(&self.entries[idx].key);
            self.entries[idx].key = key.clone();
            self.entries[idx].value = value;
            idx
        } else {
            self.entries.push(Entry {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.entries.len() - 1
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    /// Detach entry `idx` from the recency list.
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.entries[idx].prev, self.entries[idx].next);
        if prev == NIL {
            if self.head == idx {
                self.head = next;
            }
        } else {
            self.entries[prev].next = next;
        }
        if next == NIL {
            if self.tail == idx {
                self.tail = prev;
            }
        } else {
            self.entries[next].prev = prev;
        }
        self.entries[idx].prev = NIL;
        self.entries[idx].next = NIL;
    }

    /// Attach entry `idx` at the most-recent end.
    fn push_front(&mut self, idx: usize) {
        self.entries[idx].prev = NIL;
        self.entries[idx].next = self.head;
        if self.head != NIL {
            self.entries[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walk the recency list front to back, checking both link directions.
    fn order<K: Hash + Eq + Clone + std::fmt::Debug, V>(cache: &LruCache<K, V>) -> Vec<K> {
        let mut keys = Vec::new();
        let mut idx = cache.head;
        let mut prev = NIL;
        while idx != NIL {
            assert_eq!(cache.entries[idx].prev, prev);
            keys.push(cache.entries[idx].key.clone());
            prev = idx;
            idx = cache.entries[idx].next;
        }
        assert_eq!(cache.tail, prev);
        assert_eq!(keys.len(), cache.len());
        keys
    }

    #[test]
    fn hit_miss_and_eviction() {
        let mut cache = LruCache::new(3);
        assert!(cache.is_empty());
        for i in 0..3 {
            cache.insert(i, i * 10);
        }
        assert_eq!(order(&cache), vec![2, 1, 0]);
        assert_eq!(cache.get(&0), Some(&0));
        assert_eq!(order(&cache), vec![0, 2, 1]);
        cache.insert(3, 30); // evicts 1, the LRU
        assert_eq!(cache.get(&1), None);
        assert_eq!(order(&cache), vec![3, 0, 2]);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.capacity(), 3);
    }

    #[test]
    fn reinsert_updates_value_and_recency() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        cache.insert("a", 9);
        assert_eq!(order(&cache), vec!["a", "b"]);
        cache.insert("c", 3); // evicts "b": "a" was refreshed
        assert_eq!(cache.get(&"b"), None);
        assert_eq!(cache.get(&"a"), Some(&9));
        assert_eq!(cache.get(&"c"), Some(&3));
    }

    #[test]
    fn capacity_one_always_keeps_latest() {
        let mut cache = LruCache::new(1);
        for i in 0..10 {
            cache.insert(i, i);
            assert_eq!(cache.len(), 1);
            assert_eq!(cache.get(&i), Some(&i));
        }
        assert_eq!(cache.get(&8), None);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = LruCache::new(0);
        cache.insert(1, 1);
        assert!(cache.is_empty());
        assert_eq!(cache.get(&1), None);
    }

    #[test]
    fn eviction_reuses_slots() {
        let mut cache = LruCache::new(4);
        for i in 0..1000 {
            cache.insert(i, i);
        }
        assert_eq!(cache.entries.len(), 4, "slab never outgrows capacity");
        assert_eq!(order(&cache), vec![999, 998, 997, 996]);
    }
}
