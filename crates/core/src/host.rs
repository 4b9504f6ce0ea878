//! [`ObjectHost`]: the capability interface handed to an executing method.
//!
//! Scopes every storage operation to the current object's key prefix (the
//! LambdaObjects rule that "an object's functions can only modify data
//! associated with the object itself", §1) and routes reads through the
//! invocation's write buffer. A cross-object invocation is not a host
//! call: the body stops at it, and the engine answers it — committing the
//! buffered writes first, per §3.1 ([`ObjectHost::boundary`]).

use lambda_kv::{Db, WriteBatch};
use lambda_vm::{Host, HostError, VmValue};

use crate::buffer::WriteBuffer;
use crate::keys;
use crate::object::ObjectId;
use crate::scheduler::ObjectGuard;

/// The caller's side of a nested call's §3.1 boundary: the writes made
/// before the call and the object lock they were made under.
pub(crate) struct Boundary {
    /// The calling object.
    pub(crate) source: ObjectId,
    /// The pre-call write set (may be empty).
    pub(crate) batch: WriteBatch,
    /// Every key `batch` writes.
    pub(crate) written_keys: Vec<Vec<u8>>,
    /// The caller's lock; released once `batch` has committed.
    pub(crate) guard: Option<ObjectGuard>,
}

/// The [`Host`] implementation for one executing invocation. It owns its
/// handles, so it travels with a body suspended at a nested call.
pub struct ObjectHost {
    db: Db,
    /// The invocation reads at this sequence (advanced by nested commits).
    snapshot_seq: u64,
    object: ObjectId,
    /// Pending writes + read set.
    pub buffer: WriteBuffer,
    read_only: bool,
    /// The object lock held for this invocation; released across nested
    /// calls and re-acquired afterwards (§3.1 boundary semantics) — or, when
    /// a client-facing body resumes before its scatter's acks, kept through
    /// the call and held until that scatter's wave has its outcome.
    pub guard: Option<ObjectGuard>,
    /// Collected log lines (surfaced in invocation reports).
    pub logs: Vec<String>,
}

impl std::fmt::Debug for ObjectHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectHost")
            .field("object", &self.object)
            .field("read_only", &self.read_only)
            .field("snapshot_seq", &self.snapshot_seq)
            .finish()
    }
}

impl ObjectHost {
    /// Create a host for an invocation of `object`.
    pub fn new(
        db: Db,
        object: ObjectId,
        snapshot_seq: u64,
        read_only: bool,
        track_reads: bool,
        guard: Option<ObjectGuard>,
    ) -> ObjectHost {
        ObjectHost {
            db,
            snapshot_seq,
            object,
            buffer: WriteBuffer::new(track_reads),
            read_only,
            guard,
            logs: Vec::new(),
        }
    }

    /// Buffer-then-store read of a fully-qualified key.
    fn read_key(&mut self, full_key: &[u8]) -> Result<Option<Vec<u8>>, HostError> {
        if let Some(buffered) = self.buffer.get(full_key) {
            return Ok(buffered);
        }
        let value = self
            .db
            .get_at(full_key, self.snapshot_seq)
            .map_err(|e| HostError::Storage(e.to_string()))?;
        self.buffer.note_read(full_key, value.as_deref());
        Ok(value)
    }

    fn ensure_writable(&self) -> Result<(), HostError> {
        if self.read_only {
            Err(HostError::ReadOnlyViolation)
        } else {
            Ok(())
        }
    }

    /// A nested call's answer when it needs no engine: refused in a
    /// read-only context (defense in depth — the validator rejects nested
    /// calls in read-only bytecode), and an empty target list at once.
    pub(crate) fn answer_at_once(
        &self,
        targets: &[Vec<u8>],
    ) -> Option<Result<Vec<VmValue>, HostError>> {
        if let Err(e) = self.ensure_writable() {
            return Some(Err(e));
        }
        targets.is_empty().then(|| Ok(Vec::new()))
    }

    /// The §3.1 boundary of a nested call: the writes so far and our
    /// object lock go to the engine, which commits the writes and releases
    /// the lock once they are acked — so the nested calls (and everyone
    /// else) can make progress even through follower cycles or
    /// self-invocations.
    pub(crate) fn boundary(&mut self) -> Boundary {
        Boundary {
            source: self.object.clone(),
            written_keys: self.buffer.written_keys(),
            batch: self.buffer.take_batch(),
            guard: self.guard.take(),
        }
    }

    /// Resume after a nested call as a fresh invocation: `guard` held —
    /// re-acquired, or never released when the body ran on ahead of the
    /// acks — and the snapshot advanced to see everything committed in the
    /// meantime.
    pub(crate) fn resume_with(&mut self, guard: Option<ObjectGuard>) {
        self.guard = guard;
        self.snapshot_seq = self.db.last_sequence();
    }

    fn collection_len(&mut self, field: &[u8]) -> Result<u64, HostError> {
        let ckey = keys::counter_key(&self.object, field);
        Ok(keys::decode_counter(self.read_key(&ckey)?.as_deref()))
    }
}

impl Host for ObjectHost {
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, HostError> {
        let full = keys::field_key(&self.object, key);
        self.read_key(&full)
    }

    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), HostError> {
        self.ensure_writable()?;
        let full = keys::field_key(&self.object, key);
        self.buffer.put(full, value.to_vec());
        Ok(())
    }

    fn delete(&mut self, key: &[u8]) -> Result<(), HostError> {
        self.ensure_writable()?;
        let full = keys::field_key(&self.object, key);
        self.buffer.delete(full);
        Ok(())
    }

    fn push(&mut self, field: &[u8], value: &[u8]) -> Result<(), HostError> {
        self.ensure_writable()?;
        let len = self.collection_len(field)?;
        self.buffer.put(keys::entry_key(&self.object, field, len), value.to_vec());
        self.buffer.put(keys::counter_key(&self.object, field), keys::encode_counter(len + 1));
        Ok(())
    }

    fn scan(
        &mut self,
        field: &[u8],
        limit: usize,
        newest_first: bool,
    ) -> Result<Vec<Vec<u8>>, HostError> {
        let len = self.collection_len(field)?;
        let take = (limit as u64).min(len);
        let mut out = Vec::with_capacity(take as usize);
        if newest_first {
            for i in (len - take..len).rev() {
                if let Some(v) = self.read_key(&keys::entry_key(&self.object, field, i))? {
                    out.push(v);
                }
            }
        } else {
            for i in 0..take {
                if let Some(v) = self.read_key(&keys::entry_key(&self.object, field, i))? {
                    out.push(v);
                }
            }
        }
        Ok(out)
    }

    fn count(&mut self, field: &[u8]) -> Result<u64, HostError> {
        self.collection_len(field)
    }

    fn self_id(&self) -> Vec<u8> {
        self.object.0.clone()
    }

    fn now_millis(&mut self) -> i64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as i64)
            .unwrap_or(0)
    }

    fn log(&mut self, msg: &str) {
        self.logs.push(msg.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_kv::Options;
    use std::path::PathBuf;

    fn tmpdb(name: &str) -> (Db, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("lambda-objhost-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (Db::open(&dir, Options::small_for_tests()).unwrap(), dir)
    }

    fn oid() -> ObjectId {
        ObjectId::from("user/1")
    }

    #[test]
    fn get_put_round_trip_through_buffer() {
        let (db, dir) = tmpdb("rt");
        let mut host = ObjectHost::new(db.clone(), oid(), db.last_sequence(), false, false, None);
        assert_eq!(host.get(b"name").unwrap(), None);
        host.put(b"name", b"ada").unwrap();
        assert_eq!(host.get(b"name").unwrap(), Some(b"ada".to_vec()), "read-your-writes");
        // Nothing visible in the store until commit.
        assert_eq!(db.get(&keys::field_key(&oid(), b"name")).unwrap(), None);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn keys_are_scoped_to_the_object() {
        let (db, dir) = tmpdb("scope");
        // Pre-populate another object's field.
        db.put(keys::field_key(&ObjectId::from("user/2"), b"name"), b"other".to_vec()).unwrap();
        let mut host = ObjectHost::new(db.clone(), oid(), db.last_sequence(), false, false, None);
        assert_eq!(host.get(b"name").unwrap(), None, "cannot see other objects");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn read_only_host_rejects_mutations() {
        let (db, dir) = tmpdb("ro");
        let mut host = ObjectHost::new(db.clone(), oid(), db.last_sequence(), true, false, None);
        assert_eq!(host.put(b"k", b"v"), Err(HostError::ReadOnlyViolation));
        assert_eq!(host.delete(b"k"), Err(HostError::ReadOnlyViolation));
        assert_eq!(host.push(b"f", b"v"), Err(HostError::ReadOnlyViolation));
        assert!(host.invoke(b"o", "m", vec![]).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn push_and_scan_orders() {
        let (db, dir) = tmpdb("coll");
        let mut host = ObjectHost::new(db.clone(), oid(), db.last_sequence(), false, false, None);
        for i in 0..5 {
            host.push(b"tl", format!("p{i}").as_bytes()).unwrap();
        }
        assert_eq!(host.count(b"tl").unwrap(), 5);
        assert_eq!(
            host.scan(b"tl", 2, true).unwrap(),
            vec![b"p4".to_vec(), b"p3".to_vec()],
            "newest first"
        );
        assert_eq!(
            host.scan(b"tl", 2, false).unwrap(),
            vec![b"p0".to_vec(), b"p1".to_vec()],
            "oldest first"
        );
        assert_eq!(host.scan(b"tl", 100, true).unwrap().len(), 5, "limit capped at len");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn collections_mix_committed_and_buffered() {
        let (db, dir) = tmpdb("mix");
        // Commit two entries directly.
        db.put(keys::entry_key(&oid(), b"tl", 0), b"c0".to_vec()).unwrap();
        db.put(keys::entry_key(&oid(), b"tl", 1), b"c1".to_vec()).unwrap();
        db.put(keys::counter_key(&oid(), b"tl"), keys::encode_counter(2)).unwrap();
        let mut host = ObjectHost::new(db.clone(), oid(), db.last_sequence(), false, false, None);
        host.push(b"tl", b"b2").unwrap();
        assert_eq!(host.count(b"tl").unwrap(), 3);
        assert_eq!(
            host.scan(b"tl", 3, true).unwrap(),
            vec![b"b2".to_vec(), b"c1".to_vec(), b"c0".to_vec()]
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn snapshot_isolation_from_concurrent_commits() {
        let (db, dir) = tmpdb("snap");
        db.put(keys::field_key(&oid(), b"k"), b"old".to_vec()).unwrap();
        let seq = db.last_sequence();
        let mut host = ObjectHost::new(db.clone(), oid(), seq, false, false, None);
        // Another commit lands after the host's snapshot.
        db.put(keys::field_key(&oid(), b"k"), b"new".to_vec()).unwrap();
        assert_eq!(host.get(b"k").unwrap(), Some(b"old".to_vec()));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn read_set_tracks_reads_and_skips_own_writes() {
        let (db, dir) = tmpdb("reads");
        let mut host = ObjectHost::new(db.clone(), oid(), db.last_sequence(), true, true, None);
        host.get(b"name").unwrap();
        host.count(b"tl").unwrap();
        let rs = host.buffer.read_set();
        assert_eq!(rs.len(), 2, "field read + counter read");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn invoke_without_engine_fails_cleanly() {
        let (db, dir) = tmpdb("noeng");
        let mut host = ObjectHost::new(db.clone(), oid(), db.last_sequence(), false, false, None);
        // A host answers no nested call itself: the body stops at it, and
        // the engine answers it (`Engine::nest`).
        assert_eq!(host.invoke(b"user/2", "m", vec![]), Err(HostError::Unsupported("invoke")));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn self_id_and_logging() {
        let (db, dir) = tmpdb("misc");
        let mut host = ObjectHost::new(db.clone(), oid(), db.last_sequence(), false, false, None);
        assert_eq!(host.self_id(), b"user/1".to_vec());
        host.log("hello");
        assert_eq!(host.logs, vec!["hello".to_string()]);
        assert!(host.now_millis() > 0);
        std::fs::remove_dir_all(dir).ok();
    }
}
