//! Microshard migration: exporting, installing and purging whole objects.
//!
//! §4.2: "objects are microshards. Because their content is self-contained,
//! they can be migrated by themselves without causing disruption to
//! computation involving other objects." An export takes the object's
//! exclusive lock (so no mutating invocation is in flight) and snapshots its
//! whole key prefix; an install replaces whatever copy the destination holds
//! with it in one atomic batch; a purge is the install of an empty snapshot.
//! A move is export → install at the destination → purge at the source.

use serde::{Deserialize, Serialize};

use lambda_kv::WriteBatch;

use crate::engine::Engine;
use crate::error::{InvokeError, Result};
use crate::keys;
use crate::object::ObjectId;

/// A self-contained copy of one object.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectSnapshot {
    /// The object id.
    pub id: ObjectId,
    /// `(key suffix, value)` pairs relative to the object prefix.
    pub entries: Vec<(Vec<u8>, Vec<u8>)>,
}

impl ObjectSnapshot {
    /// Total payload bytes (for transfer-cost accounting).
    pub fn payload_bytes(&self) -> usize {
        self.entries.iter().map(|(k, v)| k.len() + v.len()).sum()
    }
}

impl Engine {
    /// Export `id` as a consistent snapshot. Taken under the object's
    /// exclusive lock, so it reflects a committed prefix of invocations.
    ///
    /// # Errors
    /// [`InvokeError::UnknownObject`] when absent; storage failures.
    pub fn export_object(&self, id: &ObjectId) -> Result<ObjectSnapshot> {
        self.export_object_with(id, ObjectSnapshot::clone)
    }

    /// Export `id` and, while still holding its exclusive lock, hand the
    /// snapshot to `f`. State transfer uses this to enqueue the snapshot
    /// onto a sync stream *before* any later commit to the same object can
    /// run — so per-object snapshot/forward order in the stream matches
    /// commit order.
    ///
    /// # Errors
    /// Same as [`export_object`](Engine::export_object).
    pub fn export_object_with<T>(
        &self,
        id: &ObjectId,
        f: impl FnOnce(&ObjectSnapshot) -> T,
    ) -> Result<T> {
        let _guard = self.scheduler().acquire_exclusive(id);
        if !self.object_exists(id) {
            return Err(InvokeError::UnknownObject(id.to_string()));
        }
        let prefix = keys::object_prefix(id);
        let mut entries = Vec::new();
        for (key, value) in self.db().scan_prefix(&prefix) {
            let (owner, suffix) = keys::split_key(&key)
                .ok_or_else(|| InvokeError::Storage("malformed object key".into()))?;
            debug_assert_eq!(&owner, id);
            entries.push((suffix, value));
        }
        Ok(f(&ObjectSnapshot { id: id.clone(), entries }))
    }

    /// Install a snapshot, replacing any existing copy of the object in one
    /// atomic batch: the receiving half of a migration or of shard state
    /// transfer, where a stale local copy (crash-restart rejoin) must be
    /// superseded rather than refused.
    ///
    /// # Errors
    /// Storage failures.
    pub fn install_object_replacing(&self, snapshot: &ObjectSnapshot) -> Result<()> {
        let _guard = self.scheduler().acquire_exclusive(&snapshot.id);
        let prefix = keys::object_prefix(&snapshot.id);
        let mut batch = WriteBatch::new();
        for (key, _) in self.db().scan_prefix(&prefix) {
            batch.delete(key);
        }
        for (suffix, value) in &snapshot.entries {
            batch.put(keys::join_key(&snapshot.id, suffix), value.clone());
        }
        self.db().write(batch)?;
        // Any cached results for a previous tenant of this id are invalid.
        self.cache().invalidate_object(&snapshot.id);
        self.forget_dedup_window(&snapshot.id);
        Ok(())
    }

    /// Delete every local key of `id` — the install of an empty snapshot.
    /// Used when a migration's source drops its copy, and when a syncing
    /// backup wipes stale shard residue before state transfer.
    ///
    /// # Errors
    /// Storage failures. Purging an absent object is a no-op.
    pub fn purge_object(&self, id: &ObjectId) -> Result<()> {
        self.install_object_replacing(&ObjectSnapshot { id: id.clone(), entries: Vec::new() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::object::{FieldDef, FieldKind, ObjectType, TypeRegistry};
    use lambda_kv::{Db, Options};
    use lambda_vm::{assemble, VmValue};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn new_engine() -> (Arc<Engine>, std::path::PathBuf) {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("lambda-migrate-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        let types = Arc::new(TypeRegistry::new());
        let module = assemble(
            r#"
            fn add_post(1) {
                push.s "timeline"
                load 0
                host.push
                ret
            }
            fn read(1) ro det {
                push.s "timeline"
                load 0
                push.i 1
                host.scan
                ret
            }
            "#,
        )
        .unwrap();
        types.register(
            ObjectType::from_module(
                "User",
                vec![FieldDef { name: "timeline".into(), kind: FieldKind::Collection }],
                module,
            )
            .unwrap(),
        );
        (Engine::new(db, types, EngineConfig::default()), dir)
    }

    fn oid(s: &str) -> ObjectId {
        ObjectId::from(s)
    }

    #[test]
    fn export_import_round_trip_between_engines() {
        let (src, d1) = new_engine();
        let (dst, d2) = new_engine();
        let id = oid("user/alice");
        src.create_object("User", &id, &[]).unwrap();
        for i in 0..10 {
            src.invoke(&id, "add_post", vec![VmValue::str(format!("post-{i}"))]).unwrap();
        }
        let snapshot = src.export_object(&id).unwrap();
        assert!(snapshot.payload_bytes() > 0);
        dst.install_object_replacing(&snapshot).unwrap();
        // Full behaviour carried over: newest-first scan works on dst.
        let v = dst.invoke(&id, "read", vec![VmValue::Int(10)]).unwrap();
        match v {
            VmValue::List(items) => {
                assert_eq!(items.len(), 10);
                assert_eq!(items[0], VmValue::str("post-9"));
            }
            other => panic!("expected list, got {other}"),
        }
        // Version metadata preserved.
        assert_eq!(dst.object_version(&id), src.object_version(&id));
        std::fs::remove_dir_all(d1).ok();
        std::fs::remove_dir_all(d2).ok();
    }

    #[test]
    fn export_missing_object_fails() {
        let (engine, dir) = new_engine();
        assert!(matches!(engine.export_object(&oid("ghost")), Err(InvokeError::UnknownObject(_))));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn install_replacing_supersedes_stale_copy() {
        let (src, d1) = new_engine();
        let (dst, d2) = new_engine();
        let id = oid("user/a");
        // A stale copy on dst (as after a crash-restart rejoin)...
        dst.create_object("User", &id, &[]).unwrap();
        dst.invoke(&id, "add_post", vec![VmValue::str("stale")]).unwrap();
        // ...must be replaced wholesale by the fresh snapshot.
        src.create_object("User", &id, &[]).unwrap();
        src.invoke(&id, "add_post", vec![VmValue::str("fresh")]).unwrap();
        let snap = src.export_object(&id).unwrap();
        dst.install_object_replacing(&snap).unwrap();
        let v = dst.invoke(&id, "read", vec![VmValue::Int(10)]).unwrap();
        match v {
            VmValue::List(items) => assert_eq!(items, vec![VmValue::str("fresh")]),
            other => panic!("expected list, got {other}"),
        }
        assert_eq!(dst.object_version(&id), src.object_version(&id));
        std::fs::remove_dir_all(d1).ok();
        std::fs::remove_dir_all(d2).ok();
    }

    #[test]
    fn export_with_runs_under_the_lock_and_purge_clears() {
        let (engine, dir) = new_engine();
        let id = oid("user/a");
        engine.create_object("User", &id, &[]).unwrap();
        engine.invoke(&id, "add_post", vec![VmValue::str("p")]).unwrap();
        let n = engine.export_object_with(&id, |snap| snap.entries.len()).unwrap();
        assert!(n >= 3);
        let snap = engine.export_object(&id).unwrap();
        assert_eq!(snap.entries.len(), n, "meta + entry + counter + version");
        engine.purge_object(&id).unwrap();
        assert!(!engine.object_exists(&id));
        // Purging an absent object is a no-op, not an error.
        engine.purge_object(&id).unwrap();
        assert!(matches!(
            engine.export_object_with(&id, |_| ()),
            Err(InvokeError::UnknownObject(_))
        ));
        // The purged copy can be installed again (a migration "bounce").
        engine.install_object_replacing(&snap).unwrap();
        let read = engine.invoke(&id, "read", vec![VmValue::Int(1)]).unwrap();
        assert_eq!(read, VmValue::List(vec![VmValue::str("p")]));
        std::fs::remove_dir_all(dir).ok();
    }
}
