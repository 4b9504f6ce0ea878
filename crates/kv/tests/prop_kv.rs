//! Property-based tests: the storage engine behaves exactly like a
//! `BTreeMap` model under arbitrary operation sequences, including across
//! flushes, compactions and crash-free reopens.

use std::collections::BTreeMap;

use proptest::prelude::*;

use lambda_kv::{Db, Options, WriteBatch};

#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Batch(Vec<(Vec<u8>, Option<Vec<u8>>)>),
    Flush,
    Compact,
    Reopen,
}

/// The key space: small, to generate overwrites and deletes of live keys,
/// with chains of keys that are prefixes of one another (`p`, `p/`, `p/a`,
/// ...), the case where byte order of encoded internal keys is not key
/// order.
fn all_keys() -> Vec<Vec<u8>> {
    let mut keys: Vec<Vec<u8>> = (0u8..20).map(|i| format!("key-{i:02}").into_bytes()).collect();
    for chain in [&b"p/a/b"[..], b"p/b", b"q\0\0", b"key-1\xff"] {
        keys.extend((1..=chain.len()).map(|n| chain[..n].to_vec()));
    }
    keys.sort();
    keys.dedup();
    keys
}

/// Prefixes for bounded scans: inside, between and around the key space.
const SCAN_PREFIXES: &[&[u8]] = &[
    b"",
    b"a",
    b"key-0",
    b"key-1",
    b"key-1\xff",
    b"key-19",
    b"p",
    b"p/",
    b"p/a",
    b"q",
    b"q\0",
    b"z",
];

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    let keys = all_keys();
    (0..keys.len()).prop_map(move |i| keys[i].clone())
}

fn value_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..64)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (key_strategy(), value_strategy()).prop_map(|(k, v)| Op::Put(k, v)),
        2 => key_strategy().prop_map(Op::Delete),
        2 => proptest::collection::vec(
            (key_strategy(), proptest::option::of(value_strategy())),
            1..5
        )
        .prop_map(Op::Batch),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
        1 => Just(Op::Reopen),
    ]
}

fn check_against_model(db: &Db, model: &BTreeMap<Vec<u8>, Vec<u8>>) {
    // Point reads.
    for key in all_keys() {
        assert_eq!(db.get(&key).unwrap(), model.get(&key).cloned(), "get {key:?}");
    }
    // Full scan.
    let scanned: Vec<(Vec<u8>, Vec<u8>)> = db.iter().collect();
    let expected: Vec<(Vec<u8>, Vec<u8>)> =
        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(scanned, expected, "iteration mismatch");
    // Bounded scans.
    for prefix in SCAN_PREFIXES {
        let scanned: Vec<(Vec<u8>, Vec<u8>)> = db.scan_prefix(prefix).collect();
        let expected: Vec<(Vec<u8>, Vec<u8>)> = model
            .range(prefix.to_vec()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        assert_eq!(scanned, expected, "scan_prefix {prefix:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn db_matches_btreemap_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        static DIR_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = DIR_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("lambda-kv-prop-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut db = Db::open(&dir, Options::small_for_tests()).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Put(k, v) => {
                    db.put(k.clone(), v.clone()).unwrap();
                    model.insert(k, v);
                }
                Op::Delete(k) => {
                    db.delete(k.clone()).unwrap();
                    model.remove(&k);
                }
                Op::Batch(entries) => {
                    let mut batch = WriteBatch::new();
                    for (k, v) in &entries {
                        match v {
                            Some(v) => {
                                batch.put(k.clone(), v.clone());
                            }
                            None => {
                                batch.delete(k.clone());
                            }
                        }
                    }
                    db.write(batch).unwrap();
                    for (k, v) in entries {
                        match v {
                            Some(v) => {
                                model.insert(k, v);
                            }
                            None => {
                                model.remove(&k);
                            }
                        }
                    }
                }
                Op::Flush => db.flush().unwrap(),
                Op::Compact => db.compact_all().unwrap(),
                Op::Reopen => {
                    drop(db);
                    db = Db::open(&dir, Options::small_for_tests()).unwrap();
                }
            }
            check_against_model(&db, &model);
        }
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshots_are_stable_under_later_writes(
        initial in proptest::collection::btree_map(key_strategy(), value_strategy(), 1..10),
        later in proptest::collection::vec((key_strategy(), value_strategy()), 1..20),
    ) {
        static DIR_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = DIR_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("lambda-kv-prop-snap-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();

        for (k, v) in &initial {
            db.put(k.clone(), v.clone()).unwrap();
        }
        let snapshot = db.snapshot();
        for (k, v) in &later {
            db.put(k.clone(), v.clone()).unwrap();
        }
        db.flush().unwrap();
        // The snapshot still sees exactly the initial state.
        for (k, v) in &initial {
            prop_assert_eq!(snapshot.get(k).unwrap(), Some(v.clone()));
        }
        for (k, _) in &later {
            if !initial.contains_key(k) {
                prop_assert_eq!(snapshot.get(k).unwrap(), None);
            }
        }
        drop(snapshot);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_encoding_round_trips(
        entries in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..32), proptest::option::of(value_strategy())),
            0..10
        ),
        seq in any::<u32>(),
    ) {
        let mut batch = WriteBatch::new();
        for (k, v) in &entries {
            match v {
                Some(v) => { batch.put(k.clone(), v.clone()); }
                None => { batch.delete(k.clone()); }
            }
        }
        let encoded = batch.encode(seq as u64);
        let (got_seq, decoded) = WriteBatch::decode(&encoded).unwrap();
        prop_assert_eq!(got_seq, seq as u64);
        prop_assert_eq!(decoded, batch);
    }
}
