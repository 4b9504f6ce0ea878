//! The raw storage API of the §5 baseline: the disaggregated compute layer
//! "uses our prototype as its storage layer", one network round-trip per
//! call (§4.1). Raw writes get the same primary-backup durability as engine
//! commits, through the same commit gate; what the baseline lacks is
//! invocation-level consistency — atomicity, isolation, per-object
//! scheduling — not storage replication.

use lambda_kv::WriteBatch;
use lambda_objects::{keys, InvocationContext, InvokeError, ObjectId};

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
    /// read-modify-write of the length counter, mirroring what the
    /// aggregated host does locally.
    pub(crate) fn raw_push(
        &self,
        ctx: &InvocationContext,
        object: Vec<u8>,
        field: &[u8],
        value: Vec<u8>,
    ) -> Reply {
        let oid = ObjectId::new(object);
        let ckey = keys::counter_key(&oid, field);
        let len = self.collection_len(&ckey)?;
        let ekey = keys::entry_key(&oid, field, len);
        let counter = keys::encode_counter(len + 1);
        let mut batch = WriteBatch::new();
        batch.put(ekey.clone(), value.clone());
        batch.put(ckey.clone(), counter.clone());
        self.engine.db().write(batch)?;
        self.replicate_raw(ctx, vec![(ekey, Some(value)), (ckey, Some(counter))])
    }

    pub(crate) fn raw_scan(
        &self,
        object: Vec<u8>,
        field: &[u8],
        limit: u64,
        newest_first: bool,
    ) -> Reply {
        let oid = ObjectId::new(object);
        let len = self.collection_len(&keys::counter_key(&oid, field))?;
        let take = limit.min(len);
        let mut rows = Vec::with_capacity(take as usize);
        let indices: Vec<u64> =
            if newest_first { ((len - take)..len).rev().collect() } else { (0..take).collect() };
        for i in indices {
            if let Some(v) = self.engine.db().get(&keys::entry_key(&oid, field, i))? {
                rows.push(v);
            }
        }
        Ok(StoreResponse::Rows(rows))
    }

    pub(crate) fn raw_count(&self, object: Vec<u8>, field: &[u8]) -> Reply {
        let oid = ObjectId::new(object);
        Ok(StoreResponse::Count(self.collection_len(&keys::counter_key(&oid, field))?))
    }

    fn collection_len(&self, counter_key: &[u8]) -> Result<u64, InvokeError> {
        Ok(keys::decode_counter(self.engine.db().get(counter_key)?.as_deref()))
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
