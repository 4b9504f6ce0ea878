//! Per-invocation write buffer with read-set tracking.
//!
//! Invocation linearizability (§3.1) requires that "data accesses and
//! modifications within a single function invocation are atomic" and that
//! "partial writes of one invocation are not visible to other function
//! invocations". The buffer delivers both: every write lands here first and
//! only reaches the store as one atomic [`WriteBatch`] at commit. Reads see
//! the buffer first (read-your-writes), then the underlying snapshot.
//!
//! The buffer also records the invocation's **read set** as
//! `(key, value-hash)` pairs — exactly the structure §4.2.2 prescribes for
//! the consistent result cache.

use std::collections::BTreeMap;

use lambda_kv::WriteBatch;

use crate::cache::ReadSet;

/// Stable hash of a possibly-absent value. Absence hashes differently from
/// every present value.
pub fn value_hash(v: Option<&[u8]>) -> u64 {
    match v {
        None => 0x5afe_0000_dead_0000,
        Some(bytes) => {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            // Length is mixed in so empty-value != absent and to harden
            // against concatenation ambiguity.
            for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        }
    }
}

/// A buffered pending state for one invocation.
#[derive(Debug, Default)]
pub struct WriteBuffer {
    /// Pending writes: `Some` = put, `None` = delete.
    pending: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    /// Keys read from the *underlying* store (not buffer hits), with the
    /// hash of the observed value.
    reads: BTreeMap<Vec<u8>, u64>,
    /// Whether read tracking is enabled (only cacheable invocations pay).
    track_reads: bool,
}

impl WriteBuffer {
    /// New buffer; `track_reads` enables read-set recording.
    pub fn new(track_reads: bool) -> WriteBuffer {
        WriteBuffer { pending: BTreeMap::new(), reads: BTreeMap::new(), track_reads }
    }

    /// Look up `key` in the buffer only. `Some(Some(v))` = pending put,
    /// `Some(None)` = pending delete, `None` = not buffered.
    pub fn get(&self, key: &[u8]) -> Option<Option<Vec<u8>>> {
        self.pending.get(key).cloned()
    }

    /// Record a put.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) {
        self.pending.insert(key, Some(value));
    }

    /// Record a delete.
    pub fn delete(&mut self, key: Vec<u8>) {
        self.pending.insert(key, None);
    }

    /// Record that `key` was read from the underlying store and observed
    /// with `value`.
    pub fn note_read(&mut self, key: &[u8], value: Option<&[u8]>) {
        if self.track_reads && !self.pending.contains_key(key) {
            self.reads.entry(key.to_vec()).or_insert_with(|| value_hash(value));
        }
    }

    /// Number of pending writes.
    pub fn write_count(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is buffered.
    pub fn is_clean(&self) -> bool {
        self.pending.is_empty()
    }

    /// The recorded read set.
    pub fn read_set(&self) -> ReadSet {
        self.reads.iter().map(|(k, h)| (k.clone(), *h)).collect()
    }

    /// Keys with pending writes (for cache invalidation).
    pub fn written_keys(&self) -> Vec<Vec<u8>> {
        self.pending.keys().cloned().collect()
    }

    /// Drain the pending writes into an atomic batch, leaving the buffer
    /// clean (read tracking is preserved across nested-call commits).
    pub fn take_batch(&mut self) -> WriteBatch {
        let mut batch = WriteBatch::new();
        for (key, op) in std::mem::take(&mut self.pending) {
            match op {
                Some(value) => {
                    batch.put(key, value);
                }
                None => {
                    batch.delete(key);
                }
            }
        }
        batch
    }

    /// Discard everything (abort path).
    pub fn discard(&mut self) {
        self.pending.clear();
        self.reads.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_hash_distinguishes_cases() {
        assert_ne!(value_hash(None), value_hash(Some(b"")));
        assert_ne!(value_hash(Some(b"a")), value_hash(Some(b"b")));
        assert_eq!(value_hash(Some(b"same")), value_hash(Some(b"same")));
        // Length mixing: ("ab","c") vs ("a","bc") style collisions.
        assert_ne!(value_hash(Some(b"ab")), value_hash(Some(b"a\x00b")));
    }

    #[test]
    fn read_your_writes() {
        let mut b = WriteBuffer::new(false);
        assert_eq!(b.get(b"k"), None);
        b.put(b"k".to_vec(), b"v".to_vec());
        assert_eq!(b.get(b"k"), Some(Some(b"v".to_vec())));
        b.delete(b"k".to_vec());
        assert_eq!(b.get(b"k"), Some(None));
    }

    #[test]
    fn take_batch_contains_all_ops_and_clears() {
        let mut b = WriteBuffer::new(false);
        b.put(b"a".to_vec(), b"1".to_vec());
        b.put(b"b".to_vec(), b"2".to_vec());
        b.delete(b"c".to_vec());
        assert_eq!(b.write_count(), 3);
        let batch = b.take_batch();
        assert_eq!(batch.len(), 3);
        assert!(b.is_clean());
    }

    #[test]
    fn last_write_wins_within_buffer() {
        let mut b = WriteBuffer::new(false);
        b.put(b"k".to_vec(), b"v1".to_vec());
        b.put(b"k".to_vec(), b"v2".to_vec());
        let batch = b.take_batch();
        assert_eq!(batch.len(), 1, "coalesced");
    }

    #[test]
    fn read_tracking_only_when_enabled() {
        let mut off = WriteBuffer::new(false);
        off.note_read(b"k", Some(b"v"));
        assert!(off.read_set().is_empty());

        let mut on = WriteBuffer::new(true);
        on.note_read(b"k", Some(b"v"));
        assert_eq!(on.read_set().len(), 1);
        assert_eq!(on.read_set()[0].1, value_hash(Some(b"v")));
    }

    #[test]
    fn first_read_wins_in_read_set() {
        let mut b = WriteBuffer::new(true);
        b.note_read(b"k", Some(b"v1"));
        b.note_read(b"k", Some(b"v2"));
        assert_eq!(b.read_set()[0].1, value_hash(Some(b"v1")));
    }

    #[test]
    fn buffered_writes_are_not_recorded_as_reads() {
        let mut b = WriteBuffer::new(true);
        b.put(b"k".to_vec(), b"v".to_vec());
        b.note_read(b"k", Some(b"v"));
        assert!(b.read_set().is_empty(), "own writes are not external reads");
    }

    #[test]
    fn discard_clears_everything() {
        let mut b = WriteBuffer::new(true);
        b.put(b"k".to_vec(), b"v".to_vec());
        b.note_read(b"r", None);
        b.discard();
        assert!(b.is_clean());
        assert!(b.read_set().is_empty());
    }

    #[test]
    fn written_keys_lists_pending() {
        let mut b = WriteBuffer::new(false);
        b.put(b"b".to_vec(), b"1".to_vec());
        b.delete(b"a".to_vec());
        assert_eq!(b.written_keys(), vec![b"a".to_vec(), b"b".to_vec()]);
    }
}
