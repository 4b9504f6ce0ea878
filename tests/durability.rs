//! Cross-crate integration: durability and restart behaviour of the full
//! stack — committed invocations survive an engine restart (WAL replay in
//! the storage engine underneath the object layer).

use std::sync::Arc;

use lambdaobjects::kv::{Db, Options};
use lambdaobjects::objects::{Engine, EngineConfig, ObjectId, TypeRegistry};
use lambdaobjects::retwis::{account_id, user_type, USER_TYPE};
use lambdaobjects::vm::VmValue;

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lambdaobjects-dur-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engine_at(dir: &std::path::Path) -> Arc<Engine> {
    let db = Db::open(dir, Options::small_for_tests()).unwrap();
    let types = Arc::new(TypeRegistry::new());
    types.register(user_type());
    Engine::new(db, types, EngineConfig::default())
}

#[test]
fn committed_invocations_survive_restart() {
    let dir = fresh_dir("restart");
    let alice = ObjectId::new(account_id(0));
    let bob = ObjectId::new(account_id(1));
    {
        let engine = engine_at(&dir);
        engine.create_object(USER_TYPE, &alice, &[("name", b"alice")]).unwrap();
        engine.create_object(USER_TYPE, &bob, &[("name", b"bob")]).unwrap();
        engine.invoke(&alice, "follow", vec![VmValue::Bytes(bob.0.clone())]).unwrap();
        for i in 0..20 {
            engine.invoke(&alice, "create_post", vec![VmValue::str(format!("post {i}"))]).unwrap();
        }
        // No clean shutdown: the engine (and its Db) is simply dropped,
        // leaving recovery to the WAL.
    }
    {
        let engine = engine_at(&dir);
        assert!(engine.object_exists(&alice));
        assert_eq!(
            engine.invoke(&alice, "get_name", vec![]).unwrap(),
            VmValue::Bytes(b"alice".to_vec())
        );
        let tl = engine.invoke(&bob, "get_timeline", vec![VmValue::Int(100)]).unwrap();
        assert_eq!(tl.as_list().unwrap().len(), 20, "all fanned-out posts survive");
        // Versions survive too, so migration cut-overs stay correct.
        assert_eq!(engine.object_version(&alice), 21, "follow + 20 posts");
        // And the engine keeps working.
        engine.invoke(&alice, "create_post", vec![VmValue::str("after restart")]).unwrap();
        let tl = engine.invoke(&bob, "get_timeline", vec![VmValue::Int(100)]).unwrap();
        assert_eq!(tl.as_list().unwrap().len(), 21);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn group_committed_batches_recover_in_queue_order() {
    // Concurrent writers go through the WAL group-commit queue: a leader
    // appends every queued batch and issues one fsync for the group. A
    // crash (drop without clean shutdown) must replay those batches in
    // exactly the seqno order the leader assigned — last-writer-wins per
    // key and a gapless sequence counter.
    use lambdaobjects::kv::{Db, Options, WriteBatch};

    const THREADS: usize = 8;
    const BATCHES: usize = 50;

    let dir = fresh_dir("group-commit");
    let (pre_crash_seq, pre_crash_groups) = {
        let db = Arc::new(
            Db::open(&dir, Options { sync_wal: true, ..Options::small_for_tests() }).unwrap(),
        );
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    for i in 0..BATCHES {
                        let mut batch = WriteBatch::new();
                        // Overwritten key: recovery must keep the LAST value.
                        batch.put(format!("latest/{t}").into_bytes(), vec![i as u8]);
                        // Unique key: recovery must keep EVERY batch.
                        batch.put(format!("all/{t}/{i}").into_bytes(), b"x".to_vec());
                        db.write(batch).unwrap();
                    }
                });
            }
        });
        let stats = db.stats();
        (db.last_sequence(), stats.commit_groups)
        // No clean shutdown: the Db is dropped here, leaving recovery
        // entirely to the WAL.
    };
    assert_eq!(
        pre_crash_seq,
        (THREADS * BATCHES * 2) as u64,
        "group commit assigns gapless seqnos in queue order"
    );
    assert!(pre_crash_groups > 0, "writes went through the commit queue");

    let db = Db::open(&dir, Options::small_for_tests()).unwrap();
    assert_eq!(
        db.last_sequence(),
        pre_crash_seq,
        "WAL replay reproduces the exact pre-crash sequence number"
    );
    for t in 0..THREADS {
        assert_eq!(
            db.get(format!("latest/{t}").as_bytes()).unwrap().as_deref(),
            Some(&[(BATCHES - 1) as u8][..]),
            "replay applies thread {t}'s batches in commit order"
        );
        for i in 0..BATCHES {
            assert!(
                db.get(format!("all/{t}/{i}").as_bytes()).unwrap().is_some(),
                "batch {i} of thread {t} lost in replay"
            );
        }
    }
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn migration_snapshot_survives_transport_and_restart() {
    let src_dir = fresh_dir("mig-src");
    let dst_dir = fresh_dir("mig-dst");
    let id = ObjectId::new(account_id(7));
    let snapshot = {
        let engine = engine_at(&src_dir);
        engine.create_object(USER_TYPE, &id, &[("name", b"mover")]).unwrap();
        for i in 0..5 {
            engine.invoke(&id, "create_post", vec![VmValue::str(format!("p{i}"))]).unwrap();
        }
        // The live migration's sequence: export, install at the
        // destination, purge at the source.
        let snapshot = engine.export_object(&id).unwrap();
        engine.purge_object(&id).unwrap();
        snapshot
    };
    // Ship it over the wire format (as the migration RPC does).
    let bytes = lambdaobjects::net::wire::to_bytes(&snapshot).unwrap();
    let shipped: lambdaobjects::objects::ObjectSnapshot =
        lambdaobjects::net::wire::from_bytes(&bytes).unwrap();
    {
        let engine = engine_at(&dst_dir);
        engine.install_object_replacing(&shipped).unwrap();
        let tl = engine.invoke(&id, "get_timeline", vec![VmValue::Int(10)]).unwrap();
        assert_eq!(tl.as_list().unwrap().len(), 5);
    }
    // Restart the destination: the imported object is durable there.
    {
        let engine = engine_at(&dst_dir);
        let tl = engine.invoke(&id, "get_timeline", vec![VmValue::Int(10)]).unwrap();
        assert_eq!(tl.as_list().unwrap().len(), 5);
    }
    // The source no longer has it, even after restart.
    {
        let engine = engine_at(&src_dir);
        assert!(!engine.object_exists(&id));
    }
    std::fs::remove_dir_all(&src_dir).ok();
    std::fs::remove_dir_all(&dst_dir).ok();
}
