//! Core value types: user keys, sequence numbers and the internal-key
//! encoding that gives the LSM its MVCC ordering.

use std::cmp::Ordering;
use std::fmt;

/// A user-visible key. Keys are arbitrary byte strings ordered
/// lexicographically.
pub type Key = Vec<u8>;

/// A user-visible value.
pub type Value = Vec<u8>;

/// Monotonically increasing sequence number assigned to every mutation.
/// Snapshots are simply sequence numbers: a read at snapshot `s` observes
/// the newest entry for each key with `seq <= s`.
pub type SeqNo = u64;

/// The largest encodable sequence number (56 bits, LevelDB-compatible:
/// the low byte of the packed tag holds the [`ValueKind`]).
pub const MAX_SEQNO: SeqNo = (1 << 56) - 1;

/// Maximum key length accepted by the engine.
pub const MAX_KEY_LEN: usize = 16 << 10;

/// What a log/table entry represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum ValueKind {
    /// A tombstone marking the key as deleted.
    Deletion = 0,
    /// A regular value.
    Put = 1,
}

impl ValueKind {
    /// Decode from the low byte of a packed tag.
    ///
    /// # Errors
    /// Returns `None` for unknown discriminants (treated as corruption by
    /// callers).
    pub fn from_u8(v: u8) -> Option<ValueKind> {
        match v {
            0 => Some(ValueKind::Deletion),
            1 => Some(ValueKind::Put),
            _ => None,
        }
    }
}

/// Pack a sequence number and kind into the 8-byte trailer used by internal
/// keys.
pub fn pack_tag(seq: SeqNo, kind: ValueKind) -> u64 {
    debug_assert!(seq <= MAX_SEQNO);
    (seq << 8) | kind as u64
}

/// Split a packed tag into `(seq, kind)`.
pub fn unpack_tag(tag: u64) -> (SeqNo, Option<ValueKind>) {
    (tag >> 8, ValueKind::from_u8((tag & 0xff) as u8))
}

/// An internal key: user key plus `(seq, kind)` tag.
///
/// Ordering: user key ascending, then sequence number **descending** (newest
/// first), then kind descending. This is what lets point lookups and merging
/// iterators find the newest visible version of a key first.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InternalKey {
    /// The user key bytes.
    pub user: Key,
    /// Sequence number of the mutation.
    pub seq: SeqNo,
    /// Entry kind.
    pub kind: ValueKind,
}

impl InternalKey {
    /// Create an internal key.
    pub fn new(user: impl Into<Key>, seq: SeqNo, kind: ValueKind) -> Self {
        InternalKey { user: user.into(), seq, kind }
    }

    /// The smallest internal key that sorts at-or-after every entry for
    /// `user` visible at snapshot `seq` — i.e. the seek target for a lookup.
    pub fn seek(user: impl Into<Key>, seq: SeqNo) -> Self {
        InternalKey { user: user.into(), seq, kind: ValueKind::Put }
    }

    /// Serialize as `user ++ 8-byte big-endian packed tag` with the tag
    /// complemented so that byte-wise comparison of encodings matches
    /// [`Ord`] on the struct. Used inside SSTable blocks.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.user.len() + 8);
        out.extend_from_slice(&self.user);
        let tag = pack_tag(self.seq, self.kind);
        // Complement => larger seq encodes as smaller bytes => newest first.
        out.extend_from_slice(&(!tag).to_be_bytes());
        out
    }

    /// Inverse of [`encode`](Self::encode).
    ///
    /// # Errors
    /// Returns `None` when the buffer is too short or the kind byte is
    /// invalid.
    pub fn decode(buf: &[u8]) -> Option<InternalKey> {
        let (user, seq, kind) = split_encoded(buf)?;
        Some(InternalKey { user: user.to_vec(), seq, kind })
    }
}

impl Ord for InternalKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.user
            .cmp(&other.user)
            .then_with(|| other.seq.cmp(&self.seq))
            .then_with(|| (other.kind as u8).cmp(&(self.kind as u8)))
    }
}

impl PartialOrd for InternalKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for InternalKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{}:{}",
            String::from_utf8_lossy(&self.user),
            self.seq,
            match self.kind {
                ValueKind::Put => "put",
                ValueKind::Deletion => "del",
            }
        )
    }
}

/// Compare two *encoded* internal keys (as produced by
/// [`InternalKey::encode`]) with the same ordering as [`InternalKey`]'s
/// [`Ord`]: user key ascending, then sequence descending.
///
/// Plain byte-wise comparison of encodings is **not** equivalent when one
/// user key is a prefix of another (the complemented tag bytes of the
/// shorter key would compare against user-key bytes of the longer one), so
/// every consumer of encoded keys must use this function.
pub fn cmp_encoded(a: &[u8], b: &[u8]) -> Ordering {
    debug_assert!(a.len() >= 8 && b.len() >= 8);
    let (ua, ta) = a.split_at(a.len() - 8);
    let (ub, tb) = b.split_at(b.len() - 8);
    // Tags are complemented big-endian, so byte order == (seq desc, kind desc).
    ua.cmp(ub).then_with(|| ta.cmp(tb))
}

/// Split an encoded internal key into `(user key, seq, kind)` without
/// copying; `None` exactly when [`InternalKey::decode`] fails.
pub(crate) fn split_encoded(buf: &[u8]) -> Option<(&[u8], SeqNo, ValueKind)> {
    let split = buf.len().checked_sub(8)?;
    let (user, tagb) = buf.split_at(split);
    let (seq, kind) = unpack_tag(!u64::from_be_bytes(tagb.try_into().ok()?));
    Some((user, seq, kind?))
}

/// Encode a `u32` as a LEB128-style varint (used in block formats).
pub fn put_varint32(out: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Encode a `u64` varint.
pub fn put_varint64(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Decode a `u32` varint, returning `(value, bytes_consumed)`.
pub fn get_varint32(buf: &[u8]) -> Option<(u32, usize)> {
    let (v, n) = get_varint64(buf)?;
    if v > u32::MAX as u64 {
        return None;
    }
    Some((v as u32, n))
}

/// Decode a `u64` varint, returning `(value, bytes_consumed)`.
pub fn get_varint64(buf: &[u8]) -> Option<(u64, usize)> {
    let mut result: u64 = 0;
    let mut shift = 0;
    for (i, &b) in buf.iter().enumerate() {
        if shift >= 64 {
            return None;
        }
        result |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some((result, i + 1));
        }
        shift += 7;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internal_key_orders_user_asc_seq_desc() {
        let a1 = InternalKey::new(*b"a", 1, ValueKind::Put);
        let a9 = InternalKey::new(*b"a", 9, ValueKind::Put);
        let b1 = InternalKey::new(*b"b", 1, ValueKind::Put);
        assert!(a9 < a1, "newer version sorts first");
        assert!(a1 < b1, "user key dominates");
        assert!(a9 < b1);
    }

    #[test]
    fn deletion_sorts_after_put_at_same_seq() {
        let put = InternalKey::new(*b"k", 5, ValueKind::Put);
        let del = InternalKey::new(*b"k", 5, ValueKind::Deletion);
        assert!(put < del);
    }

    #[test]
    fn encoding_preserves_order() {
        let keys = vec![
            InternalKey::new(*b"", 0, ValueKind::Deletion),
            InternalKey::new(*b"a", 100, ValueKind::Put),
            InternalKey::new(*b"a", 3, ValueKind::Deletion),
            InternalKey::new(*b"a", 3, ValueKind::Put),
            InternalKey::new(*b"ab", 7, ValueKind::Put),
            InternalKey::new(*b"b", MAX_SEQNO, ValueKind::Put),
        ];
        let mut sorted = keys.clone();
        sorted.sort();
        let mut encoded: Vec<Vec<u8>> = keys.iter().map(|k| k.encode()).collect();
        encoded.sort_by(|a, b| cmp_encoded(a, b));
        let decoded: Vec<InternalKey> =
            encoded.iter().map(|e| InternalKey::decode(e).unwrap()).collect();
        assert_eq!(decoded, sorted);
    }

    #[test]
    fn encode_decode_round_trip() {
        let k = InternalKey::new(*b"hello/world", 123_456, ValueKind::Deletion);
        assert_eq!(InternalKey::decode(&k.encode()).unwrap(), k);
    }

    #[test]
    fn decode_rejects_short_and_garbage() {
        assert!(InternalKey::decode(&[1, 2, 3]).is_none());
        // kind byte of 0x07 is invalid; tag is complemented in the encoding.
        let mut buf = b"key".to_vec();
        buf.extend_from_slice(&(!(7u64)).to_be_bytes());
        assert!(InternalKey::decode(&buf).is_none());
    }

    #[test]
    fn varint_round_trips() {
        let values: Vec<u64> = vec![0, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        for v in values {
            let mut buf = Vec::new();
            put_varint64(&mut buf, v);
            let (decoded, used) = get_varint64(&buf).unwrap();
            assert_eq!(decoded, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn varint32_rejects_overflow() {
        let mut buf = Vec::new();
        put_varint64(&mut buf, u64::MAX);
        assert!(get_varint32(&buf).is_none());
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut buf = Vec::new();
        put_varint64(&mut buf, 1 << 40);
        buf.pop();
        assert!(get_varint64(&buf).is_none());
    }

    #[test]
    fn pack_unpack_tag() {
        let tag = pack_tag(42, ValueKind::Deletion);
        assert_eq!(unpack_tag(tag), (42, Some(ValueKind::Deletion)));
        assert_eq!(unpack_tag(pack_tag(MAX_SEQNO, ValueKind::Put)).0, MAX_SEQNO);
    }
}
