//! [`ObjectHost`]: the capability interface handed to an executing method.
//!
//! Scopes every storage operation to the current object's key prefix (the
//! LambdaObjects rule that "an object's functions can only modify data
//! associated with the object itself", §1), routes reads through the
//! invocation's write buffer, and forwards cross-object invocations to the
//! engine — which commits the buffered writes first, per §3.1.

use lambda_kv::{Db, WriteBatch};
use lambda_telemetry::InvocationContext;
use lambda_vm::{Host, HostError, VmValue};

use crate::buffer::WriteBuffer;
use crate::keys;
use crate::object::ObjectId;
use crate::scheduler::ObjectGuard;

/// The caller's side of a nested call's §3.1 boundary, handed to
/// [`NestedInvoker::invoke_nested_many`]: the writes made before the call
/// and the object lock they were made under.
pub struct Boundary {
    /// The calling object.
    pub source: ObjectId,
    /// The pre-call write set (may be empty).
    pub batch: WriteBatch,
    /// Every key `batch` writes.
    pub written_keys: Vec<Vec<u8>>,
    /// The caller's lock; released once `batch` has committed.
    pub guard: Option<ObjectGuard>,
}

/// The engine-side services a nested cross-object invocation needs.
///
/// Per §3.1 of the paper, the parts of an invocation before and after a
/// nested call are **two separate invocations**: the caller's writes commit
/// at the boundary, its object lock is *released* while the nested call
/// runs (which is what makes cyclic fan-outs — mutual followers, a user
/// following themselves — deadlock-free), and execution resumes as a fresh
/// invocation under a re-acquired lock at a new snapshot. Every nested call
/// is a scatter: a single `host.invoke` is a scatter of one target.
pub trait NestedInvoker: Sync {
    /// Commit `boundary` and run one nested invocation of `method(args)`
    /// per target as a single scatter, then park until the commit and
    /// every branch have answered; one result per target, in target order.
    /// The caller's lock travels in `boundary` and is released once its
    /// writes are committed, before or together with the branches'. Each
    /// branch is an invocation of its own: own lock, own atomic commit,
    /// own abort. `ctx` is the caller's context: the branches inherit the
    /// trace identity and the *remaining* deadline budget.
    ///
    /// # Errors
    /// The boundary commit's storage/replication failure, as
    /// [`HostError::Storage`].
    fn invoke_nested_many(
        &self,
        ctx: &InvocationContext,
        boundary: Boundary,
        targets: &[ObjectId],
        method: &str,
        args: &[VmValue],
        depth: usize,
    ) -> Result<Vec<Result<VmValue, HostError>>, HostError>;

    /// Re-acquire `object`'s exclusive lock for the caller's resumption,
    /// and report the snapshot sequence the resumed invocation reads at.
    fn reacquire(&self, object: &ObjectId) -> (ObjectGuard, u64);
}

/// The [`Host`] implementation for one executing invocation.
pub struct ObjectHost<'a> {
    db: &'a Db,
    /// The invocation reads at this sequence (advanced by nested commits).
    snapshot_seq: u64,
    object: ObjectId,
    /// Pending writes + read set.
    pub buffer: WriteBuffer,
    read_only: bool,
    nested: Option<&'a dyn NestedInvoker>,
    /// Nesting depth of this invocation (0 = client-facing).
    depth: usize,
    /// The object lock held for this invocation; released across nested
    /// calls and re-acquired afterwards (§3.1 boundary semantics).
    pub guard: Option<ObjectGuard>,
    /// Collected log lines (surfaced in invocation reports).
    pub logs: Vec<String>,
    /// Number of nested invocations performed.
    pub nested_calls: u64,
    /// The invocation's context (trace identity + deadline); inherited by
    /// nested calls. Defaults to an unbounded background context.
    pub ctx: InvocationContext,
}

impl std::fmt::Debug for ObjectHost<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectHost")
            .field("object", &self.object)
            .field("read_only", &self.read_only)
            .field("snapshot_seq", &self.snapshot_seq)
            .finish()
    }
}

impl<'a> ObjectHost<'a> {
    /// Create a host for an invocation of `object`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        db: &'a Db,
        object: ObjectId,
        snapshot_seq: u64,
        read_only: bool,
        track_reads: bool,
        nested: Option<&'a dyn NestedInvoker>,
        depth: usize,
        guard: Option<ObjectGuard>,
    ) -> ObjectHost<'a> {
        ObjectHost {
            db,
            snapshot_seq,
            object,
            buffer: WriteBuffer::new(track_reads),
            read_only,
            nested,
            depth,
            guard,
            logs: Vec::new(),
            nested_calls: 0,
            ctx: InvocationContext::background(),
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

    /// The §3.1 nested-call boundary around one scatter of `method(args)`
    /// to `targets`: the writes so far and our object lock go to the
    /// engine, which commits the writes and releases the lock once they are
    /// acked — so the nested calls (and everyone else) can make progress
    /// even through follower cycles or self-invocations; afterwards we
    /// resume as a fresh invocation — lock re-acquired, snapshot advanced
    /// to see everything committed in the meantime.
    fn scatter(
        &mut self,
        targets: &[ObjectId],
        method: &str,
        args: &[VmValue],
    ) -> Result<Vec<VmValue>, HostError> {
        self.ensure_writable()?;
        let Some(nested) = self.nested else {
            // A transaction's calls run without one: the call would escape
            // the transaction's lock set.
            return Err(HostError::InvokeFailed(
                "nested invocations are not available here; inside a transaction, \
                 list the call in the transaction instead"
                    .into(),
            ));
        };
        self.nested_calls += targets.len() as u64;
        let boundary = Boundary {
            source: self.object.clone(),
            written_keys: self.buffer.written_keys(),
            batch: self.buffer.take_batch(),
            guard: self.guard.take(),
        };
        let had_guard = boundary.guard.is_some();
        let out =
            nested.invoke_nested_many(&self.ctx, boundary, targets, method, args, self.depth + 1);
        // Resumed even when the boundary failed: the body may go on.
        if had_guard {
            let (guard, seq) = nested.reacquire(&self.object);
            self.guard = Some(guard);
            self.snapshot_seq = seq;
        }
        out?.into_iter().collect()
    }

    fn collection_len(&mut self, field: &[u8]) -> Result<u64, HostError> {
        let ckey = keys::counter_key(&self.object, field);
        Ok(keys::decode_counter(self.read_key(&ckey)?.as_deref()))
    }
}

impl Host for ObjectHost<'_> {
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

    fn invoke(
        &mut self,
        object: &[u8],
        method: &str,
        args: Vec<VmValue>,
    ) -> Result<VmValue, HostError> {
        let mut results = self.scatter(&[ObjectId::new(object.to_vec())], method, &args)?;
        Ok(results.pop().expect("a scatter answers once per target"))
    }

    fn invoke_many(
        &mut self,
        targets: Vec<Vec<u8>>,
        method: &str,
        args: Vec<VmValue>,
    ) -> Result<Vec<VmValue>, HostError> {
        if targets.is_empty() {
            self.ensure_writable()?;
            return Ok(Vec::new());
        }
        // One boundary for the whole scatter — "updating many follower
        // timelines at once is done quickly by running the store_post
        // calls in parallel" (§3.2).
        let targets: Vec<ObjectId> = targets.into_iter().map(ObjectId::new).collect();
        self.scatter(&targets, method, &args)
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
        let mut host = ObjectHost::new(&db, oid(), db.last_sequence(), false, false, None, 0, None);
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
        let mut host = ObjectHost::new(&db, oid(), db.last_sequence(), false, false, None, 0, None);
        assert_eq!(host.get(b"name").unwrap(), None, "cannot see other objects");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn read_only_host_rejects_mutations() {
        let (db, dir) = tmpdb("ro");
        let mut host = ObjectHost::new(&db, oid(), db.last_sequence(), true, false, None, 0, None);
        assert_eq!(host.put(b"k", b"v"), Err(HostError::ReadOnlyViolation));
        assert_eq!(host.delete(b"k"), Err(HostError::ReadOnlyViolation));
        assert_eq!(host.push(b"f", b"v"), Err(HostError::ReadOnlyViolation));
        assert!(host.invoke(b"o", "m", vec![]).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn push_and_scan_orders() {
        let (db, dir) = tmpdb("coll");
        let mut host = ObjectHost::new(&db, oid(), db.last_sequence(), false, false, None, 0, None);
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
        let mut host = ObjectHost::new(&db, oid(), db.last_sequence(), false, false, None, 0, None);
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
        let mut host = ObjectHost::new(&db, oid(), seq, false, false, None, 0, None);
        // Another commit lands after the host's snapshot.
        db.put(keys::field_key(&oid(), b"k"), b"new".to_vec()).unwrap();
        assert_eq!(host.get(b"k").unwrap(), Some(b"old".to_vec()));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn read_set_tracks_reads_and_skips_own_writes() {
        let (db, dir) = tmpdb("reads");
        let mut host = ObjectHost::new(&db, oid(), db.last_sequence(), true, true, None, 0, None);
        host.get(b"name").unwrap();
        host.count(b"tl").unwrap();
        let rs = host.buffer.read_set();
        assert_eq!(rs.len(), 2, "field read + counter read");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn invoke_without_engine_fails_cleanly() {
        let (db, dir) = tmpdb("noeng");
        let mut host = ObjectHost::new(&db, oid(), db.last_sequence(), false, false, None, 0, None);
        assert!(matches!(host.invoke(b"user/2", "m", vec![]), Err(HostError::InvokeFailed(_))));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn self_id_and_logging() {
        let (db, dir) = tmpdb("misc");
        let mut host = ObjectHost::new(&db, oid(), db.last_sequence(), false, false, None, 0, None);
        assert_eq!(host.self_id(), b"user/1".to_vec());
        host.log("hello");
        assert_eq!(host.logs, vec!["hello".to_string()]);
        assert!(host.now_millis() > 0);
        std::fs::remove_dir_all(dir).ok();
    }
}
