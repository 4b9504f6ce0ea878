//! The raw storage API of the §5 baseline: the disaggregated compute layer
//! "uses our prototype as its storage layer", one network round-trip per
//! call (§4.1). Raw writes get the same primary-backup durability as engine
//! commits, through the same commit gate; what the baseline lacks is
//! invocation-level consistency — atomicity, isolation, per-object
//! scheduling — not storage replication.
//!
//! The collection calls run on an unguarded [`ObjectHost`] at the latest
//! sequence: the same implementation of push, scan and count an invocation
//! uses, so the layout has one definition.

use lambda_objects::{keys, write_set_ops, InvocationContext, InvokeError, ObjectHost, ObjectId};
use lambda_vm::Host;

use crate::aggregated::NodeInner;
use crate::proto::StoreResponse;

type Reply = Result<StoreResponse, InvokeError>;

impl NodeInner {
    pub(crate) fn raw_get(&self, key: &[u8]) -> Reply {
        Ok(StoreResponse::MaybeBytes(self.engine.db().get(key)?))
    }

    pub(crate) fn raw_put(&self, ctx: &InvocationContext, key: Vec<u8>, value: Vec<u8>) -> Reply {
        self.engine.db().put(key.clone(), value.clone())?;
        self.replicate_raw(ctx, vec![(key, Some(value))])
    }

    pub(crate) fn raw_delete(&self, ctx: &InvocationContext, key: Vec<u8>) -> Reply {
        self.engine.db().delete(key.clone())?;
        self.replicate_raw(ctx, vec![(key, None)])
    }

    /// Append to an object collection: a single round-trip
    /// read-modify-write of the length counter, with no object lock — two
    /// concurrent pushes may take the same slot, as in any storage layer
    /// without invocation-level isolation.
    pub(crate) fn raw_push(
        &self,
        ctx: &InvocationContext,
        object: Vec<u8>,
        field: &[u8],
        value: Vec<u8>,
    ) -> Reply {
        let mut host = self.raw_host(object);
        host.push(field, &value)?;
        let batch = host.buffer.take_batch();
        let ops = write_set_ops(&batch);
        self.engine.db().write(batch)?;
        self.replicate_raw(ctx, ops)
    }

    pub(crate) fn raw_scan(
        &self,
        object: Vec<u8>,
        field: &[u8],
        limit: u64,
        newest_first: bool,
    ) -> Reply {
        let limit = usize::try_from(limit).unwrap_or(usize::MAX);
        Ok(StoreResponse::Rows(self.raw_host(object).scan(field, limit, newest_first)?))
    }

    pub(crate) fn raw_count(&self, object: Vec<u8>, field: &[u8]) -> Reply {
        Ok(StoreResponse::Count(self.raw_host(object).count(field)?))
    }

    /// A host for `object` that reads the latest committed state and holds
    /// no lock.
    fn raw_host(&self, object: Vec<u8>) -> ObjectHost<'_> {
        let db = self.engine.db();
        ObjectHost::new(db, ObjectId::new(object), db.last_sequence(), false, false, None, 0, None)
    }

    /// `ops` are applied locally: drop the cached results and memoised
    /// types they make stale, as a commit does, then replicate them
    /// synchronously as the commit of the object their first key belongs to.
    fn replicate_raw(
        &self,
        ctx: &InvocationContext,
        ops: Vec<(Vec<u8>, Option<Vec<u8>>)>,
    ) -> Reply {
        self.engine.cache().invalidate_keys(ops.iter().map(|(key, _)| key.as_slice()));
        if let Some((oid, _)) = ops.first().and_then(|(key, _)| keys::split_key(key)) {
            self.commit_raw(ctx, oid, ops).map_err(lambda_objects::error::decode_hook_error)?;
        }
        Ok(StoreResponse::Ok)
    }
}
