//! A shared LRU cache of raw SSTable blocks.
//!
//! LevelDB ships an 8 MB block cache by default; this is the equivalent.
//! A block is cached as the bytes read from disk (entries plus restart
//! trailer, without the CRC) and only after its checksum and structure were
//! verified, so a hit skips the `pread`, the CRC and the validation walk and
//! readers search the bytes in place. Each block is charged at its length.
//! Keys are
//! `(table instance id, block offset)` — table ids are unique per opened
//! reader, so stale entries of deleted files can never be observed and age
//! out via LRU.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// A verified data block as stored on disk: prefix-compressed entries
/// followed by the restart trailer.
pub type RawBlock = Arc<[u8]>;

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Lookups that found the block.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Blocks evicted to stay under the byte budget.
    pub evictions: u64,
    /// Current resident block bytes.
    pub resident_bytes: u64,
}

struct CacheInner {
    map: HashMap<(u64, u64), (RawBlock, usize, u64)>,
    /// LRU order: access tick → key.
    order: BTreeMap<u64, (u64, u64)>,
    bytes: usize,
    tick: u64,
}

/// A byte-bounded LRU of raw blocks, shared by all tables of one
/// database.
pub struct BlockCache {
    inner: Mutex<CacheInner>,
    capacity_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("BlockCache")
            .field("blocks", &inner.map.len())
            .field("bytes", &inner.bytes)
            .field("capacity", &self.capacity_bytes)
            .finish()
    }
}

impl BlockCache {
    /// A cache bounded to `capacity_bytes` of block bytes.
    pub fn new(capacity_bytes: usize) -> Arc<BlockCache> {
        Arc::new(BlockCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                order: BTreeMap::new(),
                bytes: 0,
                tick: 0,
            }),
            capacity_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// Look up a block, refreshing its LRU position.
    pub fn get(&self, table_id: u64, offset: u64) -> Option<RawBlock> {
        let mut inner = self.inner.lock();
        let key = (table_id, offset);
        if let Some((block, _, old_tick)) =
            inner.map.get(&key).map(|(b, s, t)| (Arc::clone(b), *s, *t))
        {
            inner.order.remove(&old_tick);
            inner.tick += 1;
            let tick = inner.tick;
            inner.order.insert(tick, key);
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.2 = tick;
            }
            self.hits.fetch_add(1, Ordering::Relaxed);
            Some(block)
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Insert a verified block, evicting LRU entries past the budget.
    pub fn insert(&self, table_id: u64, offset: u64, block: RawBlock) {
        let size = block.len();
        if size > self.capacity_bytes {
            return; // larger than the whole cache: skip
        }
        let mut inner = self.inner.lock();
        let key = (table_id, offset);
        if let Some((_, old_size, old_tick)) = inner.map.remove(&key) {
            inner.order.remove(&old_tick);
            inner.bytes -= old_size;
        }
        while inner.bytes + size > self.capacity_bytes {
            let Some((&victim_tick, &victim_key)) = inner.order.iter().next() else {
                break;
            };
            inner.order.remove(&victim_tick);
            if let Some((_, victim_size, _)) = inner.map.remove(&victim_key) {
                inner.bytes -= victim_size;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.order.insert(tick, key);
        inner.map.insert(key, (block, size, tick));
        inner.bytes += size;
    }

    /// Drop every cached block of `table_id` (called when a table file is
    /// deleted, to free memory promptly).
    pub fn evict_table(&self, table_id: u64) {
        let mut inner = self.inner.lock();
        let victims: Vec<((u64, u64), u64, usize)> = inner
            .map
            .iter()
            .filter(|((t, _), _)| *t == table_id)
            .map(|(k, (_, s, tick))| (*k, *tick, *s))
            .collect();
        for (key, tick, size) in victims {
            inner.map.remove(&key);
            inner.order.remove(&tick);
            inner.bytes -= size;
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BlockCacheStats {
        let inner = self.inner.lock();
        BlockCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: inner.bytes as u64,
        }
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(len: usize) -> RawBlock {
        vec![0u8; len].into()
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = BlockCache::new(1 << 20);
        assert!(cache.get(1, 0).is_none());
        cache.insert(1, 0, block(128));
        assert!(cache.get(1, 0).is_some());
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn lru_evicts_oldest_first() {
        // Room for exactly three 600-byte blocks.
        let cache = BlockCache::new(1800);
        cache.insert(1, 0, block(600));
        cache.insert(1, 1, block(600));
        cache.insert(1, 2, block(600));
        // Touch block 0 so block 1 is the LRU.
        cache.get(1, 0);
        cache.insert(1, 3, block(600));
        assert!(cache.get(1, 0).is_some(), "recently used survives");
        assert!(cache.get(1, 1).is_none(), "LRU evicted");
        assert!(cache.stats().evictions >= 1);
    }

    #[test]
    fn oversized_blocks_are_skipped() {
        let cache = BlockCache::new(128);
        cache.insert(1, 0, block(129));
        assert!(cache.is_empty());
    }

    #[test]
    fn reinsert_replaces_without_leaking_bytes() {
        let cache = BlockCache::new(1 << 20);
        cache.insert(1, 0, block(600));
        let before = cache.stats().resident_bytes;
        cache.insert(1, 0, block(600));
        assert_eq!(cache.stats().resident_bytes, before, "no double counting");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evict_table_clears_only_that_table() {
        let cache = BlockCache::new(1 << 20);
        cache.insert(1, 0, block(64));
        cache.insert(1, 1, block(64));
        cache.insert(2, 0, block(64));
        cache.evict_table(1);
        assert!(cache.get(1, 0).is_none());
        assert!(cache.get(2, 0).is_some());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn resident_bytes_tracks_content() {
        let cache = BlockCache::new(1 << 20);
        assert_eq!(cache.stats().resident_bytes, 0);
        cache.insert(1, 0, block(600));
        assert_eq!(cache.stats().resident_bytes, 600, "charged at its length");
        cache.evict_table(1);
        assert_eq!(cache.stats().resident_bytes, 0);
    }
}
