//! Key layout: how objects map onto the flat key-value store.
//!
//! Every object owns a dedicated key prefix, which is what makes objects
//! **microshards** (§4.2): the prefix range is self-contained, so an object
//! can be exported, migrated and deleted without touching any other
//! object's data.
//!
//! ```text
//! o <id-len:u16-be> <id> m            → object meta (type name)
//! o <id-len:u16-be> <id> v            → commit version (u64 LE)
//! o <id-len:u16-be> <id> d <inv:u64-be> → dedup record (version ‖ result)
//! o <id-len:u16-be> <id> f <field>    → scalar field value
//! o <id-len:u16-be> <id> n <field>    → collection length (u64 LE)
//! o <id-len:u16-be> <id> c <field> \0 <index:u64-be> → collection entry
//! ```
//!
//! The id is length-prefixed (not delimited) so ids may contain any byte
//! and no object's prefix can be a prefix of another object's.

use crate::object::ObjectId;

/// Key-space tag for object data.
const TAG: u8 = b'o';

fn object_prefix_into(id: &ObjectId, out: &mut Vec<u8>) {
    out.push(TAG);
    let len = id.0.len();
    assert!(len <= u16::MAX as usize, "object id too long");
    out.extend_from_slice(&(len as u16).to_be_bytes());
    out.extend_from_slice(&id.0);
}

/// The prefix owning every key of `id`.
pub fn object_prefix(id: &ObjectId) -> Vec<u8> {
    let mut out = Vec::with_capacity(id.0.len() + 3);
    object_prefix_into(id, &mut out);
    out
}

/// Meta key: stores the object's type name.
pub fn meta_key(id: &ObjectId) -> Vec<u8> {
    let mut out = object_prefix(id);
    out.push(b'm');
    out
}

/// Version key: bumped on every committed mutating invocation.
pub fn version_key(id: &ObjectId) -> Vec<u8> {
    let mut out = object_prefix(id);
    out.push(b'v');
    out
}

/// Dedup record key for one remembered invocation id. Living inside the
/// object's prefix means the record rides the same write batch, the same
/// replication stream and the same migration snapshot as the data it
/// protects — failover to a backup preserves exactly-once for free.
pub fn dedup_key(id: &ObjectId, invocation_id: u64) -> Vec<u8> {
    let mut out = object_prefix(id);
    out.push(b'd');
    out.extend_from_slice(&invocation_id.to_be_bytes());
    out
}

/// The prefix under which all of `id`'s dedup records live.
pub fn dedup_prefix(id: &ObjectId) -> Vec<u8> {
    let mut out = object_prefix(id);
    out.push(b'd');
    out
}

/// Scalar field key.
pub fn field_key(id: &ObjectId, field: &[u8]) -> Vec<u8> {
    let mut out = object_prefix(id);
    out.push(b'f');
    out.extend_from_slice(field);
    out
}

/// Collection length counter key.
pub fn counter_key(id: &ObjectId, field: &[u8]) -> Vec<u8> {
    let mut out = object_prefix(id);
    out.push(b'n');
    out.extend_from_slice(field);
    out
}

/// Collection entry key for `index`.
pub fn entry_key(id: &ObjectId, field: &[u8], index: u64) -> Vec<u8> {
    let mut out = object_prefix(id);
    out.push(b'c');
    out.extend_from_slice(field);
    out.push(0);
    out.extend_from_slice(&index.to_be_bytes());
    out
}

/// Split a full key back into `(object id, suffix)`; `None` for keys
/// outside the object keyspace. Used by migration import/export.
pub fn split_key(key: &[u8]) -> Option<(ObjectId, Vec<u8>)> {
    if key.first() != Some(&TAG) || key.len() < 3 {
        return None;
    }
    let len = u16::from_be_bytes([key[1], key[2]]) as usize;
    let id_end = 3 + len;
    if key.len() < id_end {
        return None;
    }
    Some((ObjectId(key[3..id_end].to_vec()), key[id_end..].to_vec()))
}

/// The id bytes of the object whose meta key `key` is; `None` for any
/// other key. Reads the layout in place, without allocating: every commit
/// on every replica asks this of each key it wrote.
pub fn meta_owner(key: &[u8]) -> Option<&[u8]> {
    let [TAG, hi, lo, rest @ ..] = key else { return None };
    let (id, suffix) = rest.split_at_checked(u16::from_be_bytes([*hi, *lo]) as usize)?;
    (suffix == b"m").then_some(id)
}

/// Rebuild a full key from an object id and a suffix produced by
/// [`split_key`].
pub fn join_key(id: &ObjectId, suffix: &[u8]) -> Vec<u8> {
    let mut out = object_prefix(id);
    out.extend_from_slice(suffix);
    out
}

/// Encode a collection counter value.
pub fn encode_counter(v: u64) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

/// Decode a collection counter value (0 when absent/malformed).
pub fn decode_counter(v: Option<&[u8]>) -> u64 {
    v.and_then(|b| b.try_into().ok()).map(u64::from_le_bytes).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(s: &str) -> ObjectId {
        ObjectId::from(s)
    }

    #[test]
    fn prefixes_are_disjoint_for_prefix_ids() {
        // "user/1" vs "user/10": with naive separators these collide.
        let p1 = object_prefix(&id("user/1"));
        let p2 = object_prefix(&id("user/10"));
        assert!(!p2.starts_with(&p1), "length prefix must prevent nesting");
    }

    #[test]
    fn all_keys_share_the_object_prefix() {
        let oid = id("user/alice");
        let prefix = object_prefix(&oid);
        for key in [
            meta_key(&oid),
            version_key(&oid),
            field_key(&oid, b"name"),
            counter_key(&oid, b"timeline"),
            entry_key(&oid, b"timeline", 7),
            dedup_key(&oid, 42),
        ] {
            assert!(key.starts_with(&prefix));
        }
    }

    #[test]
    fn dedup_keys_sort_by_invocation_id_under_their_prefix() {
        let oid = id("u");
        let prefix = dedup_prefix(&oid);
        let k1 = dedup_key(&oid, 1);
        let k2 = dedup_key(&oid, 2);
        let k300 = dedup_key(&oid, 300);
        assert!(k1.starts_with(&prefix) && k300.starts_with(&prefix));
        assert!(k1 < k2 && k2 < k300, "big-endian id keeps numeric order");
        // Dedup records never collide with fields or collections.
        assert_ne!(dedup_key(&oid, 0x66_00_00_00_00_00_00_00), field_key(&oid, b"x"));
    }

    #[test]
    fn split_join_round_trip() {
        let oid = id("user/bob");
        for key in [meta_key(&oid), field_key(&oid, b"name"), entry_key(&oid, b"tl", 123)] {
            let (got_id, suffix) = split_key(&key).unwrap();
            assert_eq!(got_id, oid);
            assert_eq!(join_key(&got_id, &suffix), key);
        }
    }

    #[test]
    fn meta_owner_recognises_only_meta_keys() {
        let (u1, u10) = (id("user/1"), id("user/10"));
        let cases: [(Vec<u8>, Option<&[u8]>); 9] = [
            (meta_key(&u1), Some(b"user/1")),
            (meta_key(&u10), Some(b"user/10")),
            // A field literally named "m": its suffix is "fm".
            (field_key(&u1, b"m"), None),
            (counter_key(&u1, b"m"), None),
            // An entry key whose index ends in the byte `m`.
            (entry_key(&u1, b"tl", u64::from(b'm')), None),
            (version_key(&u1), None),
            // Non-object keys, and a prefix too short for its length.
            (b"xm".to_vec(), None),
            (b"m".to_vec(), None),
            (object_prefix(&u10)[..5].to_vec(), None),
        ];
        for (key, want) in cases {
            assert_eq!(meta_owner(&key), want, "{key:?}");
        }
    }

    #[test]
    fn split_rejects_foreign_keys() {
        assert!(split_key(b"x-something").is_none());
        assert!(split_key(b"o").is_none());
        // Truncated id.
        let mut k = object_prefix(&id("abcdef"));
        k.truncate(5);
        assert!(split_key(&k).is_none());
    }

    #[test]
    fn entry_keys_sort_by_index() {
        let oid = id("u");
        let k1 = entry_key(&oid, b"tl", 1);
        let k2 = entry_key(&oid, b"tl", 2);
        let k10 = entry_key(&oid, b"tl", 10);
        assert!(k1 < k2);
        assert!(k2 < k10, "big-endian index keeps numeric order");
    }

    #[test]
    fn field_namespaces_do_not_collide() {
        let oid = id("u");
        // A scalar field named "x" vs a collection named "x".
        assert_ne!(field_key(&oid, b"x"), counter_key(&oid, b"x"));
        assert_ne!(field_key(&oid, b"x"), entry_key(&oid, b"x", 0));
    }

    #[test]
    fn counter_codec() {
        assert_eq!(decode_counter(Some(&encode_counter(42))), 42);
        assert_eq!(decode_counter(None), 0);
        assert_eq!(decode_counter(Some(b"bad")), 0);
    }

    #[test]
    fn binary_ids_are_safe() {
        let oid = ObjectId::new(vec![0x00, 0xff, b'o', 0x00]);
        let key = field_key(&oid, b"f");
        let (got, _) = split_key(&key).unwrap();
        assert_eq!(got, oid);
    }
}
