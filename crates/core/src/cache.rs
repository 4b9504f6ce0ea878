//! The consistent result cache for deterministic read-only methods.
//!
//! §4.2.2: "storage nodes merely record the output of a function, a hash of
//! its input, and its read set in the form \[of\] keys and value hashes.
//! Nodes then only re-execute such functions if the input or reads have
//! changed." Because the cache lives inside the storage node, it always has
//! access to the newest committed state, which is what makes it
//! *consistent* — the disaggregated baseline cannot have this property.
//!
//! Two invalidation mechanisms cooperate:
//! * **eager**: commits report their written keys; entries whose read set
//!   contains such a key are dropped immediately;
//! * **lazy**: on a hit, the entry's read set is re-validated against
//!   current value hashes (defense in depth — e.g. after a migration
//!   import that bypassed the commit path).
//!
//! Beside the results sits the node's **type memo**: object id → type
//! name, consulted before storage by every invocation's resolve step. A
//! meta key is written at create and never again, so the memo is dropped
//! by the same two calls that invalidate results: [`invalidate_keys`]
//! when a written key is an object's meta key, [`invalidate_object`] when
//! the object is deleted, moved or replaced. It stores names, not types,
//! so a redeployed module takes effect on the next invocation.
//!
//! [`invalidate_keys`]: ConsistentCache::invalidate_keys
//! [`invalidate_object`]: ConsistentCache::invalidate_object

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock};

use lambda_vm::VmValue;

use crate::buffer::value_hash;
use crate::keys;
use crate::object::ObjectId;

/// Cache lookup/maintenance statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Valid hits served.
    pub hits: u64,
    /// Misses (absent entries).
    pub misses: u64,
    /// Entries dropped by eager invalidation.
    pub invalidations: u64,
    /// Hits rejected by lazy validation.
    pub stale_hits: u64,
    /// Entries evicted by capacity.
    pub evictions: u64,
}

/// A recorded read set: each key the cached execution read, paired with
/// the hash of the value it observed.
pub type ReadSet = Vec<(Vec<u8>, u64)>;

/// Key of a cache entry: object, method, and a hash of the arguments.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct EntryKey {
    object: ObjectId,
    method: String,
    args_hash: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    result: VmValue,
    read_set: ReadSet,
    /// Insertion stamp matching this entry's ticket in the eviction queue.
    /// A replace keeps the stamp (and the FIFO position); an entry that was
    /// invalidated and later re-inserted gets a fresh stamp, so the old
    /// queue ticket no longer matches and cannot evict the live entry.
    seq: u64,
}

/// Hash the argument list of an invocation.
pub fn args_hash(args: &[VmValue]) -> u64 {
    let mut bytes = Vec::new();
    for a in args {
        bytes.extend_from_slice(&a.encode());
    }
    value_hash(Some(&bytes))
}

#[derive(Default)]
struct CacheInner {
    entries: HashMap<EntryKey, Entry>,
    /// Reverse index: storage key → cache entries reading it.
    by_key: HashMap<Vec<u8>, HashSet<EntryKey>>,
    /// FIFO order for capacity eviction; tickets are `(key, seq)` and only
    /// count while the stamp still matches the live entry.
    order: VecDeque<(EntryKey, u64)>,
    next_seq: u64,
}

/// A miss in the type memo: the generation a name read from storage after
/// it is recorded under ([`ConsistentCache::record_type`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TypeMiss(u64);

/// Object id → type name, one entry per object resolved on this node.
#[derive(Default)]
struct TypeMemo {
    /// Bumped by every drop, so a name read from storage across one is
    /// never recorded: the read may predate the write that dropped it.
    generation: u64,
    names: HashMap<Vec<u8>, String>,
}

impl TypeMemo {
    fn forget(&mut self, id: &[u8]) {
        self.generation += 1;
        self.names.remove(id);
    }
}

/// The consistent function-result cache of one storage node.
pub struct ConsistentCache {
    inner: Mutex<CacheInner>,
    /// Never gated by `capacity`: a capacity-0 engine still memoises types.
    types: RwLock<TypeMemo>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    stale_hits: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for ConsistentCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConsistentCache")
            .field("len", &self.inner.lock().entries.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl ConsistentCache {
    /// A cache bounded to `capacity` entries. Capacity 0 is a fully
    /// disabled cache: lookups miss for free, inserts are dropped, and no
    /// statistics accumulate.
    pub fn new(capacity: usize) -> ConsistentCache {
        ConsistentCache {
            inner: Mutex::new(CacheInner::default()),
            types: RwLock::default(),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            stale_hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up a cached result.
    ///
    /// Entries are trusted as-is: every commit path (invocation commits,
    /// replication applies, migrations, deletions) eagerly invalidates
    /// overlapping entries, so a resident entry is valid by construction —
    /// this is what makes a hit O(1) instead of re-reading the read set.
    /// [`lookup_validated`](Self::lookup_validated) re-checks the read set
    /// anyway, for callers that bypass the commit paths.
    pub fn lookup(&self, object: &ObjectId, method: &str, args: &[VmValue]) -> Option<VmValue> {
        self.lookup_with_read_set(object, method, args).map(|(v, _)| v)
    }

    /// Like [`lookup`](Self::lookup), but also returns the entry's recorded
    /// read set — the server uses this to hand read sets to client-edge
    /// caches without re-executing the method.
    pub fn lookup_with_read_set(
        &self,
        object: &ObjectId,
        method: &str,
        args: &[VmValue],
    ) -> Option<(VmValue, ReadSet)> {
        if self.capacity == 0 {
            return None;
        }
        let key = EntryKey {
            object: object.clone(),
            method: method.to_string(),
            args_hash: args_hash(args),
        };
        let entry = {
            let inner = self.inner.lock();
            inner.entries.get(&key).cloned()
        };
        match entry {
            Some(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some((entry.result, entry.read_set))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Like [`lookup`](Self::lookup), but re-validates the entry's read set
    /// with `current_hash` (a callback returning the hash of the *current*
    /// committed value of a key). Defence in depth for embedders whose
    /// write paths do not invalidate eagerly.
    pub fn lookup_validated(
        &self,
        object: &ObjectId,
        method: &str,
        args: &[VmValue],
        mut current_hash: impl FnMut(&[u8]) -> u64,
    ) -> Option<VmValue> {
        if self.capacity == 0 {
            return None;
        }
        let key = EntryKey {
            object: object.clone(),
            method: method.to_string(),
            args_hash: args_hash(args),
        };
        let entry = {
            let inner = self.inner.lock();
            inner.entries.get(&key).cloned()
        };
        let Some(entry) = entry else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        for (k, recorded) in &entry.read_set {
            if current_hash(k) != *recorded {
                self.stale_hits.fetch_add(1, Ordering::Relaxed);
                self.remove(&key);
                return None;
            }
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(entry.result)
    }

    /// Record a result with its read set.
    pub fn insert(
        &self,
        object: &ObjectId,
        method: &str,
        args: &[VmValue],
        result: VmValue,
        read_set: ReadSet,
    ) {
        if self.capacity == 0 {
            return;
        }
        let key = EntryKey {
            object: object.clone(),
            method: method.to_string(),
            args_hash: args_hash(args),
        };
        let mut inner = self.inner.lock();
        // Drain queue tickets whose entries were invalidated (or replaced
        // under a newer stamp) out-of-band; they are not live and must not
        // linger (unbounded growth) nor count toward anything.
        while inner
            .order
            .front()
            .is_some_and(|(k, s)| inner.entries.get(k).map(|e| e.seq) != Some(*s))
        {
            inner.order.pop_front();
        }
        // A replace: detach the old version's read set from the reverse
        // index first, so a key only the old version read no longer
        // invalidates the new entry.
        let replacing = inner.entries.remove(&key);
        if let Some(old) = &replacing {
            for (k, _) in &old.read_set {
                if let Some(set) = inner.by_key.get_mut(k) {
                    set.remove(&key);
                    if set.is_empty() {
                        inner.by_key.remove(k);
                    }
                }
            }
        }
        // Capacity eviction (FIFO) — only when the insert actually grows
        // the map; replacing in place never needs a victim. Tickets with a
        // mismatched stamp are stale duplicates (their entry was
        // invalidated and re-inserted since) and are skipped, not counted:
        // honoring them would evict the *live* re-inserted entry early.
        if replacing.is_none() {
            while inner.entries.len() >= self.capacity {
                let Some((victim, stamp)) = inner.order.pop_front() else {
                    break;
                };
                if inner.entries.get(&victim).is_some_and(|e| e.seq == stamp) {
                    if let Some(old) = inner.entries.remove(&victim) {
                        for (k, _) in &old.read_set {
                            if let Some(set) = inner.by_key.get_mut(k) {
                                set.remove(&victim);
                                if set.is_empty() {
                                    inner.by_key.remove(k);
                                }
                            }
                        }
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        for (k, _) in &read_set {
            inner.by_key.entry(k.clone()).or_default().insert(key.clone());
        }
        // A replace keeps the old stamp and queue position; a fresh insert
        // takes a new stamp and joins the queue tail.
        let seq = match &replacing {
            Some(old) => old.seq,
            None => {
                inner.next_seq += 1;
                inner.next_seq
            }
        };
        inner.entries.insert(key.clone(), Entry { result, read_set, seq });
        if replacing.is_none() {
            inner.order.push_back((key, seq));
        }
    }

    /// Eagerly invalidate every entry whose read set touches any of
    /// `written_keys` (called on each commit), and the memoised type of
    /// every object whose meta key is among them.
    pub fn invalidate_keys<'a>(&self, written_keys: impl IntoIterator<Item = &'a [u8]>) {
        let mut inner = self.inner.lock();
        let mut victims: HashSet<EntryKey> = HashSet::new();
        for k in written_keys {
            if let Some(owner) = keys::meta_owner(k) {
                self.types.write().forget(owner);
            }
            if let Some(set) = inner.by_key.remove(k) {
                victims.extend(set);
            }
        }
        for victim in victims {
            if let Some(old) = inner.entries.remove(&victim) {
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                for (k, _) in &old.read_set {
                    if let Some(set) = inner.by_key.get_mut(k) {
                        set.remove(&victim);
                        if set.is_empty() {
                            inner.by_key.remove(k);
                        }
                    }
                }
            }
        }
    }

    /// Drop every entry of `object`, and its memoised type
    /// (migration/deletion).
    pub fn invalidate_object(&self, object: &ObjectId) {
        let mut inner = self.inner.lock();
        self.types.write().forget(object.as_bytes());
        let victims: Vec<EntryKey> =
            inner.entries.keys().filter(|k| &k.object == object).cloned().collect();
        for victim in victims {
            if let Some(old) = inner.entries.remove(&victim) {
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                for (k, _) in &old.read_set {
                    if let Some(set) = inner.by_key.get_mut(k) {
                        set.remove(&victim);
                        if set.is_empty() {
                            inner.by_key.remove(k);
                        }
                    }
                }
            }
        }
    }

    /// The memoised type name of `object`, or the miss to record a name
    /// read from storage under.
    pub(crate) fn type_of(&self, object: &ObjectId) -> Result<String, TypeMiss> {
        let memo = self.types.read();
        memo.names.get(object.as_bytes()).cloned().ok_or(TypeMiss(memo.generation))
    }

    /// Record `name`, read from storage after `miss`, unless the memo was
    /// dropped for any object since.
    pub(crate) fn record_type(&self, object: &ObjectId, name: &str, miss: TypeMiss) {
        let mut memo = self.types.write();
        if memo.generation == miss.0 {
            memo.names.insert(object.0.clone(), name.to_string());
        }
    }

    fn remove(&self, key: &EntryKey) {
        let mut inner = self.inner.lock();
        if let Some(old) = inner.entries.remove(key) {
            for (k, _) in &old.read_set {
                if let Some(set) = inner.by_key.get_mut(k) {
                    set.remove(key);
                    if set.is_empty() {
                        inner.by_key.remove(k);
                    }
                }
            }
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Length of the FIFO eviction queue, including any stale keys not yet
    /// drained (test visibility only).
    #[cfg(test)]
    fn order_len(&self) -> usize {
        self.inner.lock().order.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            stale_hits: self.stale_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid() -> ObjectId {
        ObjectId::from("user/1")
    }

    fn read_set(pairs: &[(&[u8], Option<&[u8]>)]) -> ReadSet {
        pairs.iter().map(|(k, v)| (k.to_vec(), value_hash(*v))).collect()
    }

    #[test]
    fn hit_after_insert() {
        let cache = ConsistentCache::new(16);
        let rs = read_set(&[(b"k1", Some(b"v1"))]);
        cache.insert(&oid(), "get", &[], VmValue::Int(7), rs);
        let hit = cache.lookup_validated(&oid(), "get", &[], |_| value_hash(Some(b"v1")));
        assert_eq!(hit, Some(VmValue::Int(7)));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn miss_on_absent_or_different_args() {
        let cache = ConsistentCache::new(16);
        cache.insert(&oid(), "get", &[VmValue::Int(1)], VmValue::Unit, vec![]);
        assert!(cache.lookup(&oid(), "get", &[VmValue::Int(2)]).is_none());
        assert!(cache.lookup(&oid(), "other", &[VmValue::Int(1)]).is_none());
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn lazy_validation_rejects_changed_reads() {
        let cache = ConsistentCache::new(16);
        let rs = read_set(&[(b"k1", Some(b"old"))]);
        cache.insert(&oid(), "get", &[], VmValue::Int(1), rs);
        // Value changed underneath.
        let hit = cache.lookup_validated(&oid(), "get", &[], |_| value_hash(Some(b"new")));
        assert_eq!(hit, None);
        assert_eq!(cache.stats().stale_hits, 1);
        assert!(cache.is_empty(), "stale entry dropped");
    }

    #[test]
    fn eager_invalidation_on_written_key() {
        let cache = ConsistentCache::new(16);
        cache.insert(&oid(), "a", &[], VmValue::Int(1), read_set(&[(b"k1", None)]));
        cache.insert(&oid(), "b", &[], VmValue::Int(2), read_set(&[(b"k2", None)]));
        cache.invalidate_keys([&b"k1"[..]]);
        assert!(cache.lookup(&oid(), "a", &[]).is_none());
        assert_eq!(
            cache.lookup(&oid(), "b", &[]),
            Some(VmValue::Int(2)),
            "unrelated entry survives"
        );
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn invalidate_object_drops_all_its_entries() {
        let cache = ConsistentCache::new(16);
        let other = ObjectId::from("user/2");
        cache.insert(&oid(), "a", &[], VmValue::Int(1), vec![]);
        cache.insert(&oid(), "b", &[], VmValue::Int(2), vec![]);
        cache.insert(&other, "a", &[], VmValue::Int(3), vec![]);
        cache.invalidate_object(&oid());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&other, "a", &[]), Some(VmValue::Int(3)));
    }

    #[test]
    fn capacity_eviction_fifo() {
        let cache = ConsistentCache::new(2);
        cache.insert(&oid(), "m1", &[], VmValue::Int(1), vec![]);
        cache.insert(&oid(), "m2", &[], VmValue::Int(2), vec![]);
        cache.insert(&oid(), "m3", &[], VmValue::Int(3), vec![]);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&oid(), "m1", &[]).is_none(), "oldest evicted");
        assert!(cache.lookup(&oid(), "m3", &[]).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn replace_detaches_the_old_read_set() {
        let cache = ConsistentCache::new(16);
        cache.insert(&oid(), "get", &[], VmValue::Int(1), read_set(&[(b"k_old", None)]));
        // Re-execution of the same method now reads a different key.
        cache.insert(&oid(), "get", &[], VmValue::Int(2), read_set(&[(b"k_new", None)]));
        // A write to the key only the *old* version read must not drop the
        // new entry (the stale reverse-index link used to leak here).
        cache.invalidate_keys([&b"k_old"[..]]);
        assert_eq!(cache.lookup(&oid(), "get", &[]), Some(VmValue::Int(2)));
        assert_eq!(cache.stats().invalidations, 0);
        // The new read set is indexed: writing k_new drops the entry.
        cache.invalidate_keys([&b"k_new"[..]]);
        assert!(cache.lookup(&oid(), "get", &[]).is_none());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn replace_at_capacity_does_not_evict() {
        let cache = ConsistentCache::new(2);
        cache.insert(&oid(), "m1", &[], VmValue::Int(1), vec![]);
        cache.insert(&oid(), "m2", &[], VmValue::Int(2), vec![]);
        // Replacing m2 does not grow the map, so m1 must survive.
        cache.insert(&oid(), "m2", &[], VmValue::Int(22), vec![]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(&oid(), "m1", &[]), Some(VmValue::Int(1)));
        assert_eq!(cache.lookup(&oid(), "m2", &[]), Some(VmValue::Int(22)));
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn invalidated_entries_do_not_linger_in_the_eviction_queue() {
        let cache = ConsistentCache::new(16);
        for m in ["a", "b", "c"] {
            cache.insert(&oid(), m, &[], VmValue::Int(1), read_set(&[(b"k", None)]));
        }
        cache.invalidate_keys([&b"k"[..]]);
        assert!(cache.is_empty());
        // The next insert drains the stale queue front instead of letting
        // it grow without bound across invalidation churn.
        cache.insert(&oid(), "d", &[], VmValue::Int(2), vec![]);
        assert_eq!(cache.order_len(), 1);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn args_hash_is_order_sensitive() {
        let a = [VmValue::Int(1), VmValue::Int(2)];
        let b = [VmValue::Int(2), VmValue::Int(1)];
        assert_ne!(args_hash(&a), args_hash(&b));
        assert_eq!(args_hash(&a), args_hash(&a.clone()));
    }

    #[test]
    fn capacity_zero_is_a_disabled_cache() {
        let cache = ConsistentCache::new(0);
        cache.insert(&oid(), "get", &[], VmValue::Int(1), read_set(&[(b"k", None)]));
        assert!(cache.lookup(&oid(), "get", &[]).is_none());
        assert!(cache.lookup_validated(&oid(), "get", &[], |_| 0).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.order_len(), 0, "no insert bookkeeping when disabled");
        cache.invalidate_keys([&b"k"[..]]);
        cache.invalidate_object(&oid());
        assert_eq!(cache.stats(), CacheStats::default(), "stats stay zero when disabled");
    }

    #[test]
    fn reinserted_entry_is_not_evicted_by_its_stale_queue_ticket() {
        let cache = ConsistentCache::new(2);
        cache.insert(&oid(), "a", &[], VmValue::Int(1), read_set(&[(b"k", None)]));
        cache.insert(&oid(), "b", &[], VmValue::Int(2), vec![]);
        // Invalidate "a", then re-insert it: the queue now holds a stale
        // ticket for "a" in front of the live one.
        cache.invalidate_keys([&b"k"[..]]);
        cache.insert(&oid(), "a", &[], VmValue::Int(11), vec![]);
        // Filling the cache must evict the true FIFO victim ("b"), not
        // honor the stale front ticket and evict the re-inserted "a".
        cache.insert(&oid(), "c", &[], VmValue::Int(3), vec![]);
        assert_eq!(cache.lookup(&oid(), "a", &[]), Some(VmValue::Int(11)), "live entry survives");
        assert!(cache.lookup(&oid(), "b", &[]).is_none(), "true oldest evicted");
        assert_eq!(cache.lookup(&oid(), "c", &[]), Some(VmValue::Int(3)));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn lookup_with_read_set_returns_the_recorded_reads() {
        let cache = ConsistentCache::new(4);
        let rs = read_set(&[(b"k1", Some(b"v1"))]);
        cache.insert(&oid(), "get", &[], VmValue::Int(9), rs.clone());
        let (v, got) = cache.lookup_with_read_set(&oid(), "get", &[]).unwrap();
        assert_eq!(v, VmValue::Int(9));
        assert_eq!(got, rs);
    }

    fn memo(cache: &ConsistentCache, id: &ObjectId, name: &str) {
        let miss = cache.type_of(id).expect_err("not memoised yet");
        cache.record_type(id, name, miss);
    }

    #[test]
    fn a_type_read_across_an_invalidation_is_not_recorded() {
        let cache = ConsistentCache::new(16);
        let miss = cache.type_of(&oid()).unwrap_err();
        // The object is deleted between the storage read and the record.
        cache.invalidate_keys([keys::meta_key(&oid()).as_slice()]);
        cache.record_type(&oid(), "User", miss);
        assert!(cache.type_of(&oid()).is_err(), "a read from before the delete stays out");
        memo(&cache, &oid(), "User");
        assert_eq!(cache.type_of(&oid()), Ok("User".to_string()));
    }

    #[test]
    fn the_type_memo_is_dropped_with_its_object_at_any_capacity() {
        for capacity in [0, 16] {
            let cache = ConsistentCache::new(capacity);
            let (one, ten) = (oid(), ObjectId::from("user/10"));
            memo(&cache, &one, "User");
            memo(&cache, &ten, "User");
            let (field_m, version) = (keys::field_key(&one, b"m"), keys::version_key(&one));
            cache.invalidate_keys([field_m.as_slice(), version.as_slice()]);
            assert_eq!(cache.type_of(&one), Ok("User".to_string()), "only a meta key drops it");
            cache.invalidate_keys([keys::meta_key(&one).as_slice()]);
            assert!(cache.type_of(&one).is_err());
            assert_eq!(cache.type_of(&ten), Ok("User".to_string()), "user/10 is not user/1");
            cache.invalidate_object(&ten);
            assert!(cache.type_of(&ten).is_err());
        }
    }

    #[test]
    fn empty_read_set_entries_never_go_stale() {
        let cache = ConsistentCache::new(4);
        cache.insert(&oid(), "constant", &[], VmValue::Int(42), vec![]);
        for _ in 0..3 {
            assert_eq!(cache.lookup(&oid(), "constant", &[]), Some(VmValue::Int(42)));
        }
    }
}
