//! The LRU memo behind every warm-path cache: a pool's per-`p` flats and
//! summaries ([`TracePool`](crate::pool::TracePool)) and a registered
//! pool's `/simulate` responses (the shard's `PoolRegistry`).

use std::sync::{Arc, OnceLock};

/// One memoized value, built at most once. The slot is created under the
/// memo's lock but filled outside it, so a long build blocks only the
/// callers waiting for that same key.
pub(crate) type Slot<V> = Arc<OnceLock<Arc<V>>>;

/// LRU-evicting memo of `key → Arc<V>`. Recency is a monotonic counter
/// stamped on access; lookup and eviction scan the entries — a memo holds
/// at most a handful of them (one per distinct thread count, or one per
/// memoized response), so a scan beats the bookkeeping of a hash map or a
/// linked structure.
pub(crate) struct Memo<K, V> {
    entries: Vec<(K, Slot<V>, u64)>,
    clock: u64,
    capacity: Option<usize>,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo {
            entries: Vec::new(),
            clock: 0,
            capacity: None,
        }
    }
}

impl<K: PartialEq, V> Memo<K, V> {
    /// An empty memo holding at most `capacity` entries.
    pub(crate) fn bounded(capacity: usize) -> Self {
        Memo {
            capacity: Some(capacity),
            ..Memo::default()
        }
    }

    /// The slot for `key`, created (evicting the least recently used
    /// beyond the capacity) if absent, and stamped as most recently used.
    pub(crate) fn slot(&mut self, key: K) -> Slot<V> {
        self.clock += 1;
        let clock = self.clock;
        if let Some((_, slot, stamp)) = self.entries.iter_mut().find(|(k, ..)| *k == key) {
            *stamp = clock;
            return Arc::clone(slot);
        }
        if let Some(cap) = self.capacity {
            self.evict_to(cap.max(1) - 1);
        }
        let slot = Slot::default();
        self.entries.push((key, Arc::clone(&slot), clock));
        slot
    }

    /// The value for `key` if it is already built, stamped as most
    /// recently used. Never builds and never waits for a build in progress.
    pub(crate) fn get(&mut self, key: &K) -> Option<Arc<V>> {
        self.clock += 1;
        let (_, slot, stamp) = self.entries.iter_mut().find(|(k, ..)| k == key)?;
        let value = slot.get().cloned()?;
        *stamp = self.clock;
        Some(value)
    }

    /// Sets the capacity and evicts down to it immediately.
    pub(crate) fn set_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity;
        if let Some(cap) = capacity {
            self.evict_to(cap.max(1));
        }
    }

    /// Drops least-recently-used entries until at most `len` remain.
    fn evict_to(&mut self, len: usize) {
        while self.entries.len() > len {
            let oldest = (0..self.entries.len())
                .min_by_key(|&i| self.entries[i].2)
                .expect("non-empty memo has an oldest entry");
            self.entries.swap_remove(oldest);
        }
    }

    /// Number of entries retained.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Drops every entry.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}
