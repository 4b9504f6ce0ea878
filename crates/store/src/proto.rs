//! Wire protocol of LambdaStore nodes (and of the disaggregated baseline's
//! storage layer).

use serde::{Deserialize, Serialize};

use lambda_coordinator::{Epoch, ShardId};
use lambda_net::wire::{self, RequestHeader, WireError, HEADER_VERSION};
use lambda_net::RpcError;
use lambda_objects::{
    decode_error, encode_error, migration::ObjectSnapshot, FieldDef, InvocationContext,
    InvokeError, TxCall, WriteSetOps,
};
use lambda_vm::{Module, VmValue};

/// Serialize `req` behind the versioned request envelope carrying `ctx`:
/// trace id, remaining deadline budget, and origin travel out-of-band
/// ahead of the body, so the context reaches every hop without touching
/// the request enum itself.
///
/// # Errors
/// Body serialization failures.
pub fn encode_request(ctx: &InvocationContext, req: &StoreRequest) -> Result<Vec<u8>, WireError> {
    let header = RequestHeader {
        version: HEADER_VERSION,
        trace_id: ctx.trace_id,
        budget_nanos: ctx.budget_nanos(),
        origin: ctx.origin.to_wire(),
        invocation_id: ctx.invocation_id,
        attempt: ctx.attempt,
    };
    let body = wire::to_bytes(req)?;
    Ok(header.encode_with_body(&body))
}

/// Parse a request frame into the sender's context and the request. The
/// deadline is re-derived from the carried budget (`deadline = now +
/// budget`).
///
/// # Errors
/// Frames without the envelope, truncated envelopes and malformed bodies.
pub fn decode_request(bytes: &[u8]) -> Result<(InvocationContext, StoreRequest), WireError> {
    let (h, body) = wire::split_header(bytes)?;
    let mut ctx = InvocationContext::from_wire(h.trace_id, h.budget_nanos, h.origin);
    ctx.invocation_id = h.invocation_id;
    ctx.attempt = h.attempt;
    Ok((ctx, wire::from_bytes(body)?))
}

/// Turn what an RPC returned into the peer's typed answer: a reply body
/// decodes as a [`StoreResponse`], a handler error as the [`InvokeError`]
/// it encodes, and a transport failure (timeout, unreachable, shutdown)
/// as [`InvokeError::Nested`].
///
/// # Errors
/// The peer's error, or `Nested` for transport failures and garbled bodies.
pub fn decode_reply(reply: Result<Vec<u8>, RpcError>) -> Result<StoreResponse, InvokeError> {
    match reply {
        Ok(bytes) => {
            wire::from_bytes(&bytes).map_err(|e| InvokeError::Nested(format!("bad response: {e}")))
        }
        Err(RpcError::Remote(msg)) => Err(decode_error(&msg)),
        Err(other) => Err(InvokeError::Nested(other.to_string())),
    }
}

/// The serving end's inverse of [`decode_reply`]: a handler outcome as the
/// RPC layer carries it.
///
/// # Errors
/// The handler's error, encoded for transport (or a serialization failure).
pub fn encode_reply(reply: Result<StoreResponse, InvokeError>) -> Result<Vec<u8>, String> {
    let resp = reply.map_err(|e| encode_error(&e))?;
    wire::to_bytes(&resp).map_err(|e| e.to_string())
}

/// The reply-shape accessors: each turns the response into the payload of
/// the one variant its request calls for; any other variant is the same
/// [`InvokeError::Nested`] error.
macro_rules! reply_shapes {
    ($($(#[$doc:meta])* $name:ident -> $out:ty: $variant:pat => $value:expr;)*) => {
        impl StoreResponse {
            $(
                $(#[$doc])*
                ///
                /// # Errors
                /// `Nested` when the peer answered with any other variant.
                pub fn $name(self) -> Result<$out, InvokeError> {
                    match self {
                        $variant => Ok($value),
                        other => Err(InvokeError::Nested(format!("bad reply {other:?}"))),
                    }
                }
            )*
        }
    };
}

reply_shapes! {
    /// The generic success ack.
    into_ok -> (): StoreResponse::Ok => ();
    /// An invocation result (without a read set).
    into_value -> VmValue: StoreResponse::Value(v) => v;
    /// A raw read result.
    into_maybe_bytes -> Option<Vec<u8>>: StoreResponse::MaybeBytes(v) => v;
    /// Raw scan rows.
    into_rows -> Vec<Vec<u8>>: StoreResponse::Rows(rows) => rows;
    /// A raw collection length.
    into_count -> u64: StoreResponse::Count(n) => n;
    /// Transaction results, one per call.
    into_values -> Vec<VmValue>: StoreResponse::Values(vs) => vs;
    /// Object ids (`ListObjects`).
    into_objects -> Vec<Vec<u8>>: StoreResponse::Objects(ids) => ids;
}

/// Requests understood by storage nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StoreRequest {
    /// Invoke a method on an object (aggregated architecture: executes at
    /// the storage node). `read_only` is the client's routing hint: it
    /// allows execution at a backup; the node re-verifies against the
    /// method's declared metadata.
    Invoke {
        /// Target object id.
        object: Vec<u8>,
        /// Method name.
        method: String,
        /// Arguments.
        args: Vec<VmValue>,
        /// Routing hint from the client.
        read_only: bool,
        /// Set for node-to-node nested invocations: allows calling
        /// non-public methods (a production system would authenticate the
        /// sender; nodes are trusted here).
        internal: bool,
        /// Ignored: the node answers [`StoreResponse::Value`] either way
        /// and keeps read sets to itself (results are cached on the node
        /// only, §4.2.2). Kept because the benchmark builds this variant by
        /// struct literal.
        collect_read_set: bool,
    },
    /// Instantiate an object.
    CreateObject {
        /// Type name (must be deployed).
        type_name: String,
        /// New object id.
        object: Vec<u8>,
        /// Initial scalar fields.
        fields: Vec<(String, Vec<u8>)>,
    },
    /// Remove an object.
    DeleteObject {
        /// Object id.
        object: Vec<u8>,
    },
    /// Deploy a bytecode object type (the serverless "upload functions"
    /// step).
    DeployType {
        /// Type name.
        name: String,
        /// Field schema.
        fields: Vec<FieldDef>,
        /// Validated module.
        module: Module,
    },
    /// Primary→backup replication of one or more committed write sets (a
    /// window coalesced by the primary's per-shard replication batcher, or
    /// a single set). The backup applies them atomically and in order.
    ReplicateBatch {
        /// Shard the objects belong to.
        shard: ShardId,
        /// The primary's configuration epoch (fencing; the whole window
        /// carries one epoch — the batcher never coalesces write sets
        /// across a reconfiguration).
        epoch: Epoch,
        /// `(object, ops)` per committed write set, in commit order.
        /// `(key, Some(value))` puts / `(key, None)` deletes.
        entries: Vec<(Vec<u8>, WriteSetOps)>,
        /// Piggybacked read-lease grant: the backup may serve reads for
        /// this shard at this epoch for `lease_nanos` from receipt. Zero
        /// grants nothing (the primary withholds leases while its own
        /// coordinator contact is stale).
        lease_nanos: u64,
    },
    /// Coordinator-owned migration: install (or replace) a snapshot shipped
    /// by the source shard's migration runner. It overwrites any earlier
    /// copy of the object, so the warm pass, the final fenced pass, and any
    /// post-crash resume are all idempotent.
    MigrateInstall {
        /// The snapshot (dedup records ride along inside the key prefix).
        snapshot: ObjectSnapshot,
        /// The destination shard (this node must be its primary); the
        /// install is replicated to that shard's backups.
        shard: ShardId,
    },
    /// Raw storage API used by the disaggregated baseline's compute layer;
    /// each call is exactly one network round-trip (§4.1).
    RawGet {
        /// Full storage key.
        key: Vec<u8>,
    },
    /// Raw put (see [`StoreRequest::RawGet`]).
    RawPut {
        /// Full storage key.
        key: Vec<u8>,
        /// Value.
        value: Vec<u8>,
    },
    /// Raw delete.
    RawDelete {
        /// Full storage key.
        key: Vec<u8>,
    },
    /// Append to an object collection (single round-trip read-modify-write
    /// of the length counter, mirroring what the aggregated host does
    /// locally).
    RawPush {
        /// Object id.
        object: Vec<u8>,
        /// Collection field.
        field: Vec<u8>,
        /// Entry payload.
        value: Vec<u8>,
    },
    /// Scan an object collection.
    RawScan {
        /// Object id.
        object: Vec<u8>,
        /// Collection field.
        field: Vec<u8>,
        /// Maximum entries.
        limit: u64,
        /// Newest entries first.
        newest_first: bool,
    },
    /// Collection length.
    RawCount {
        /// Object id.
        object: Vec<u8>,
        /// Collection field.
        field: Vec<u8>,
    },
    /// Enumerate the objects stored on this node (admin/rebalancing).
    ListObjects,
    /// Execute a serializable multi-call transaction (the paper's §3.1 /
    /// §7 future-work extension). All objects must be served by this node
    /// as primary; cross-shard transactions are rejected.
    Transact {
        /// The calls, executed in order under strict 2PL.
        calls: Vec<TxCall>,
    },
    /// Repair: install a batch of state-transfer items on a syncing
    /// backup, in stream order.
    InstallShardChunk {
        /// Shard under transfer.
        shard: ShardId,
        /// The sending primary's epoch (fencing).
        epoch: Epoch,
        /// Items, applied strictly in order.
        items: Vec<SyncItem>,
    },
    /// Primary→backup standalone read-lease renewal, sent from the
    /// primary's heartbeat loop so leases stay fresh on write-idle shards
    /// (replication traffic piggybacks grants on busy ones). Oneway.
    RenewLease {
        /// Shard the lease covers.
        shard: ShardId,
        /// The granting primary's configuration epoch; the lease is only
        /// good for reads at this epoch.
        epoch: Epoch,
        /// Lease duration from receipt.
        lease_nanos: u64,
    },
}

/// One item of a shard state-transfer stream (primary → syncing backup).
/// Stream order is commit order per object: the primary enqueues snapshots
/// and forwarded commits while holding each object's exclusive lock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SyncItem {
    /// Stream start: the receiver wipes any stale residue of the shard
    /// (a crash-restart rejoin may hold superseded objects).
    Begin,
    /// A consistent snapshot of one object.
    Object(ObjectSnapshot),
    /// A write set committed at the primary during the transfer, forwarded
    /// so the syncing backup converges without blocking the hot path.
    Forward {
        /// Object whose data changed.
        object: Vec<u8>,
        /// `(key, Some(value))` puts / `(key, None)` deletes.
        ops: WriteSetOps,
    },
}

/// Per-node counters, as the nodes' in-process `stats()` report them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NodeStatsWire {
    /// Requests handled.
    pub requests: u64,
    /// Invocations executed here.
    pub invocations: u64,
    /// Results served from the consistent cache.
    pub cache_hits: u64,
    /// Replication messages applied (backup role).
    pub replications_applied: u64,
    /// Redelivered mutations answered from the dedup window without
    /// re-executing.
    pub duplicates_suppressed: u64,
    /// Nanoseconds spent actually executing requests (utilization).
    pub busy_nanos: u64,
    /// Nanoseconds since the node started.
    pub uptime_nanos: u64,
    /// Requests admitted but not yet picked up by a worker (instantaneous
    /// run-queue depth at the time of the stats read).
    pub run_queue_depth: u64,
    /// Requests admitted and not yet replied to — queued, executing, or
    /// parked as deferred replies (instantaneous).
    pub inflight: u64,
    /// Requests refused by admission control since the node started.
    pub shed: u64,
    /// Read-only invocations served here under a follower read lease.
    pub follower_reads: u64,
    /// Reads refused because the node's lease was missing, expired, or
    /// epoch-stale (each bounces the client back to the primary).
    pub lease_rejections: u64,
    /// Disk-corruption reports proposed to the coordinator (one per shard
    /// this node was configured in when an unrecoverable kv corruption
    /// surfaced).
    pub corruption_reports: u64,
    /// Promotion re-syncs completed: ring replays of recent committed
    /// write sets to the surviving backups after this node took over a
    /// shard's primary role.
    pub promotion_resyncs: u64,
}

impl NodeStatsWire {
    /// Fraction of wall-clock time spent serving requests.
    pub fn utilization(&self) -> f64 {
        if self.uptime_nanos == 0 {
            0.0
        } else {
            self.busy_nanos as f64 / self.uptime_nanos as f64
        }
    }
}

/// Responses from storage nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StoreResponse {
    /// Invocation result.
    Value(VmValue),
    /// Generic success.
    Ok,
    /// Raw read result.
    MaybeBytes(Option<Vec<u8>>),
    /// Raw scan rows.
    Rows(Vec<Vec<u8>>),
    /// Raw count.
    Count(u64),
    /// Transaction results, one per call.
    Values(Vec<VmValue>),
    /// Object ids (ListObjects).
    Objects(Vec<Vec<u8>>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_net::wire;
    use lambda_objects::{FieldKind, ObjectId};

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            StoreRequest::Invoke {
                object: b"user/1".to_vec(),
                method: "create_post".into(),
                args: vec![VmValue::str("hi"), VmValue::Int(3)],
                read_only: false,
                internal: false,
                collect_read_set: false,
            },
            StoreRequest::Invoke {
                object: b"user/1".to_vec(),
                method: "get_timeline".into(),
                args: vec![VmValue::Int(10)],
                read_only: true,
                internal: false,
                collect_read_set: true,
            },
            StoreRequest::CreateObject {
                type_name: "User".into(),
                object: b"user/1".to_vec(),
                fields: vec![("name".into(), b"ada".to_vec())],
            },
            StoreRequest::DeleteObject { object: b"user/1".to_vec() },
            StoreRequest::DeployType {
                name: "User".into(),
                fields: vec![FieldDef { name: "tl".into(), kind: FieldKind::Collection }],
                module: Module::default(),
            },
            StoreRequest::ReplicateBatch {
                shard: 3,
                epoch: 7,
                entries: vec![
                    (
                        b"user/1".to_vec(),
                        vec![(b"k".to_vec(), Some(b"v".to_vec())), (b"d".to_vec(), None)],
                    ),
                    (b"user/2".to_vec(), vec![(b"x".to_vec(), Some(b"y".to_vec()))]),
                ],
                lease_nanos: 0,
            },
            StoreRequest::RenewLease { shard: 3, epoch: 7, lease_nanos: 400_000_000 },
            StoreRequest::MigrateInstall {
                snapshot: ObjectSnapshot {
                    id: ObjectId::from("user/2"),
                    entries: vec![(b"m".to_vec(), b"User".to_vec())],
                },
                shard: 4,
            },
            StoreRequest::RawGet { key: b"k".to_vec() },
            StoreRequest::RawPut { key: b"k".to_vec(), value: b"v".to_vec() },
            StoreRequest::RawDelete { key: b"k".to_vec() },
            StoreRequest::RawPush {
                object: b"u".to_vec(),
                field: b"tl".to_vec(),
                value: b"p".to_vec(),
            },
            StoreRequest::RawScan {
                object: b"u".to_vec(),
                field: b"tl".to_vec(),
                limit: 10,
                newest_first: true,
            },
            StoreRequest::RawCount { object: b"u".to_vec(), field: b"tl".to_vec() },
            StoreRequest::ListObjects,
            StoreRequest::Transact {
                calls: vec![TxCall::new(
                    lambda_objects::ObjectId::from("acct/a"),
                    "add",
                    vec![VmValue::Int(4)],
                )],
            },
            StoreRequest::InstallShardChunk {
                shard: 1,
                epoch: 4,
                items: vec![
                    SyncItem::Begin,
                    SyncItem::Object(ObjectSnapshot {
                        id: ObjectId::from("user/1"),
                        entries: vec![(b"m".to_vec(), b"User".to_vec())],
                    }),
                    SyncItem::Forward {
                        object: b"user/1".to_vec(),
                        ops: vec![(b"k".to_vec(), Some(b"v".to_vec())), (b"d".to_vec(), None)],
                    },
                ],
            },
        ];
        for r in reqs {
            let bytes = wire::to_bytes(&r).unwrap();
            let back: StoreRequest = wire::from_bytes(&bytes).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            StoreResponse::Value(VmValue::List(vec![VmValue::Int(1)])),
            StoreResponse::Ok,
            StoreResponse::MaybeBytes(Some(b"v".to_vec())),
            StoreResponse::MaybeBytes(None),
            StoreResponse::Rows(vec![b"a".to_vec(), b"b".to_vec()]),
            StoreResponse::Count(42),
            StoreResponse::Values(vec![VmValue::Unit, VmValue::Int(1)]),
            StoreResponse::Objects(vec![b"user/1".to_vec()]),
        ];
        for r in resps {
            let bytes = wire::to_bytes(&r).unwrap();
            let back: StoreResponse = wire::from_bytes(&bytes).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn request_envelope_round_trips_context() {
        use std::time::Duration;
        let ctx = InvocationContext::client(Duration::from_secs(5));
        let req = StoreRequest::Invoke {
            object: b"user/1".to_vec(),
            method: "post".into(),
            args: vec![VmValue::Int(1)],
            read_only: false,
            internal: false,
            collect_read_set: false,
        };
        let frame = encode_request(&ctx, &req).unwrap();
        let (back_ctx, back_req) = decode_request(&frame).unwrap();
        assert_eq!(back_req, req);
        assert_eq!(back_ctx.trace_id, ctx.trace_id);
        assert_eq!(back_ctx.origin, ctx.origin);
        assert_eq!(back_ctx.invocation_id, ctx.invocation_id, "dedup identity survives the wire");
        assert_eq!(back_ctx.attempt, ctx.attempt);
        // The receiving hop re-derives the deadline from the budget; it
        // can only have shrunk in transit.
        assert!(back_ctx.budget_nanos() <= Duration::from_secs(5).as_nanos() as u64);
        assert!(!back_ctx.expired());
    }

    #[test]
    fn request_frames_without_the_envelope_are_rejected() {
        let frame = wire::to_bytes(&StoreRequest::ListObjects).unwrap();
        assert!(matches!(decode_request(&frame), Err(WireError::Malformed(_))));
    }

    #[test]
    fn replies_decode_to_the_peers_answer() {
        let body = wire::to_bytes(&StoreResponse::Count(3)).unwrap();
        assert_eq!(decode_reply(Ok(body)), Ok(StoreResponse::Count(3)));
        let remote = lambda_objects::encode_error(&InvokeError::WrongNode("shard 2".into()));
        assert_eq!(
            decode_reply(Err(RpcError::Remote(remote))),
            Err(InvokeError::WrongNode("shard 2".into()))
        );
        assert!(matches!(decode_reply(Err(RpcError::Timeout)), Err(InvokeError::Nested(_))));
        assert!(matches!(decode_reply(Ok(vec![0xff; 3])), Err(InvokeError::Nested(_))));
    }

    #[test]
    fn reply_shape_accessors_yield_their_variant_and_one_error_otherwise() {
        assert_eq!(StoreResponse::Ok.into_ok(), Ok(()));
        assert_eq!(StoreResponse::Value(VmValue::Int(4)).into_value(), Ok(VmValue::Int(4)));
        assert_eq!(StoreResponse::MaybeBytes(None).into_maybe_bytes(), Ok(None));
        assert_eq!(StoreResponse::Rows(vec![b"r".to_vec()]).into_rows(), Ok(vec![b"r".to_vec()]));
        assert_eq!(StoreResponse::Count(3).into_count(), Ok(3));
        assert_eq!(
            StoreResponse::Values(vec![VmValue::Unit]).into_values(),
            Ok(vec![VmValue::Unit])
        );
        assert_eq!(StoreResponse::Objects(vec![]).into_objects(), Ok(vec![]));
        let wrong = StoreResponse::Count(3).into_ok();
        assert!(matches!(&wrong, Err(InvokeError::Nested(m)) if m.ends_with("Count(3)")));
        assert_eq!(StoreResponse::Count(3).into_value().map(|_| ()), wrong);
    }

    #[test]
    fn expired_budget_survives_the_wire() {
        let ctx = InvocationContext::from_wire(9, 0, 0);
        let frame = encode_request(&ctx, &StoreRequest::ListObjects).unwrap();
        let (back_ctx, _) = decode_request(&frame).unwrap();
        assert_eq!(back_ctx.trace_id, 9);
        assert!(back_ctx.expired());
    }

    #[test]
    fn utilization_math() {
        let s = NodeStatsWire { busy_nanos: 25, uptime_nanos: 100, ..Default::default() };
        assert!((s.utilization() - 0.25).abs() < 1e-9);
        assert_eq!(NodeStatsWire::default().utilization(), 0.0);
    }
}
