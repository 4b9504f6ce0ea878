//! The aggregated architecture: a LambdaStore storage node.
//!
//! Each node embeds the LambdaObjects [`Engine`] directly in the storage
//! process (§4.2): invocations execute where the data lives, mutating
//! methods at the shard's primary, read-only methods at any replica.
//! Committed write sets are replicated synchronously to backups with epoch
//! fencing (§4.2.1), nested cross-object calls are routed to the
//! responsible primary, and the node heartbeats the coordination service
//! and receives shard-map pushes.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use lambda_coordinator::{CoordClient, CoordEvent, Epoch, ShardId};
use lambda_kv::Db;
use lambda_net::rpc::{sync_handler, AdmissionPolicy, Responder, RpcConfig};
use lambda_net::{wire, Handler, Network, NodeId, RpcNode};
use lambda_objects::{
    encode_error, CommitHook, Counter, Engine, EngineConfig, Gauge, InvocationContext,
    InvokeCompletion, InvokeError, InvokeRouter, ObjectId, ObjectType, Origin, Registry,
    TypeRegistry,
};
use lambda_vm::VmValue;

use crate::control::Control;
use crate::lease::Leases;
use crate::migrate::Migrations;
use crate::placement::Placement;
use crate::proto::{self, NodeStatsWire, StoreRequest, StoreResponse};
use crate::replication::ReplState;
use crate::sync::SyncState;

/// Offset for a node's watch endpoint (coordinator push notifications).
pub const WATCH_ID_OFFSET: u32 = 20_000;

/// Node configuration.
#[derive(Debug, Clone)]
pub struct AggregatedConfig {
    /// Directory for this node's database.
    pub data_dir: PathBuf,
    /// Storage-engine options.
    pub kv: lambda_kv::Options,
    /// Execution-engine options.
    pub engine: EngineConfig,
    /// RPC worker threads. With the deferred `Invoke` path a worker is
    /// only held for CPU work (decode + VM execution), never for lock,
    /// group-commit, or replication waits, so a small pool sustains
    /// thousands of in-flight invocations.
    pub workers: usize,
    /// Run-queue depth that trips admission control (`0` = unbounded).
    /// Client-origin requests arriving over this depth are refused
    /// immediately with a retryable [`InvokeError::Overloaded`]; requests
    /// on behalf of other nodes or background work (replication, repair,
    /// state transfer) are always admitted.
    pub run_queue_depth: usize,
    /// Per-RPC timeout for node-to-node calls.
    pub rpc_timeout: Duration,
    /// Heartbeat + state-poll interval.
    pub heartbeat_interval: Duration,
    /// Coordinator service endpoints.
    pub coordinators: Vec<NodeId>,
    /// Read-lease duration. A primary grants backups the right to serve
    /// read-only invocations for this long per grant (piggybacked on
    /// replication traffic and renewed from the heartbeat loop), and a
    /// freshly reconfigured primary fences commits for up to this long so
    /// departed members' leases drain. Must stay below the coordinator's
    /// `heartbeat_timeout` × 2 (see DESIGN.md §11); leases are only
    /// enforced when coordinators are configured.
    pub lease_duration: Duration,
}

impl AggregatedConfig {
    /// Sensible defaults under `data_dir` with the given coordinators.
    pub fn new(data_dir: PathBuf, coordinators: Vec<NodeId>) -> AggregatedConfig {
        AggregatedConfig {
            data_dir,
            kv: lambda_kv::Options::default(),
            engine: EngineConfig::default(),
            workers: 16,
            run_queue_depth: 1024,
            rpc_timeout: Duration::from_millis(500),
            heartbeat_interval: Duration::from_millis(100),
            coordinators,
            lease_duration: Duration::from_millis(400),
        }
    }
}

/// One storage node's shared state. Each concern's state lives in its
/// owner's struct (`repl`, `leases`, `sync`, `migrate`, `control`), with
/// the `impl NodeInner` block that works on it in the owner's file; what is
/// left here is identity, transport, and request dispatch.
pub(crate) struct NodeInner {
    pub(crate) id: NodeId,
    pub(crate) engine: Arc<Engine>,
    pub(crate) placement: Placement,
    rpc: OnceLock<Arc<RpcNode>>,
    /// Back-reference for completions that must re-enter the node after an
    /// asynchronous hop (deferred replication rounds, duty threads).
    self_ref: OnceLock<Weak<NodeInner>>,
    pub(crate) rpc_timeout: Duration,
    /// The node-wide telemetry registry: shared by the kv layer, the
    /// engine/scheduler, and every counter below and in the owner structs,
    /// so every stats surface is a view over one set of cells.
    registry: Arc<Registry>,
    requests: Counter,
    busy_nanos: Counter,
    pub(crate) shutdown: AtomicBool,
    /// Instantaneous run-queue depth, mirrored from the RPC endpoint on
    /// stats reads.
    q_depth: Gauge,
    /// Admitted-but-unanswered requests, mirrored likewise.
    q_inflight: Gauge,
    /// Requests refused by admission control, mirrored likewise.
    q_shed: Gauge,
    /// Replication windows, recent-commit rings and counters
    /// ([`crate::replication`]).
    pub(crate) repl: ReplState,
    /// Read leases, both roles ([`crate::lease`]).
    pub(crate) leases: Leases,
    /// State-transfer sessions and the recruit side ([`crate::sync`]).
    pub(crate) sync: SyncState,
    /// Migrations this node drives as source ([`crate::migrate`]).
    pub(crate) migrate: Migrations,
    /// What the control tick reports ([`crate::control`]).
    pub(crate) control: Control,
}

impl NodeInner {
    pub(crate) fn rpc(&self) -> &Arc<RpcNode> {
        self.rpc.get().expect("rpc initialized during start")
    }

    /// `req` framed for one node-to-node hop on behalf of `ctx`, and the
    /// hop's timeout: the context crosses the wire in the request envelope
    /// (origin flipped to `Node`), and the transport timeout is the
    /// remaining budget capped at the configured per-hop timeout. An
    /// already-expired context sheds before any I/O.
    fn peer_frame(
        &self,
        ctx: &InvocationContext,
        req: &StoreRequest,
    ) -> Result<(Vec<u8>, Duration), InvokeError> {
        let down = ctx.for_downstream();
        if down.expired() {
            return Err(InvokeError::DeadlineExceeded);
        }
        let frame = proto::encode_request(&down, req).expect("requests serialize");
        Ok((frame, down.rpc_timeout(self.rpc_timeout)))
    }

    /// One node-to-node RPC on behalf of `ctx`, parking for the reply.
    pub(crate) fn call_peer(
        &self,
        ctx: &InvocationContext,
        to: NodeId,
        req: &StoreRequest,
    ) -> Result<StoreResponse, InvokeError> {
        let (frame, timeout) = self.peer_frame(ctx, req)?;
        proto::decode_reply(self.rpc().call(to, frame, timeout))
    }

    /// The one shipping loop: call `to` with background work `req` until
    /// it acks `Ok`, at most `attempts` times, `pause` apart. Gives up
    /// early when the node shuts down, or — before each retry — as soon as
    /// `still_wanted` says the shipment's reason is gone (the retries can
    /// span seconds, long enough for the placement to move on).
    ///
    /// # Errors
    /// The last attempt's error, or `Nested` for an early stop.
    pub(crate) fn ship(
        &self,
        to: NodeId,
        req: &StoreRequest,
        attempts: usize,
        pause: Duration,
        mut still_wanted: impl FnMut() -> bool,
    ) -> Result<(), InvokeError> {
        let ctx = InvocationContext::background();
        let mut attempt = 1;
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return Err(InvokeError::Nested("node shutting down".into()));
            }
            match self.call_peer(&ctx, to, req).and_then(StoreResponse::into_ok) {
                Ok(()) => return Ok(()),
                Err(e) if attempt >= attempts => return Err(e),
                Err(_) => attempt += 1,
            }
            std::thread::sleep(pause);
            if !still_wanted() {
                return Err(InvokeError::Nested("superseded mid-ship".into()));
            }
        }
    }

    /// Serve one request of the service endpoint. `Invoke` is served as a
    /// *deferred reply*: the worker hands the parked `Responder` to the
    /// engine's continuation chain and is released while the invocation
    /// waits on the object lock, the group commit, or replication acks —
    /// the reply is a completion, not a return value. Every other request
    /// kind replies inline.
    fn serve(&self, body: &[u8], responder: Responder) {
        let (mut ctx, req) = match proto::decode_request(body) {
            Ok(decoded) => decoded,
            Err(e) => return responder.reply(Err(e.to_string())),
        };
        // Lent to the request's work: the backups that apply its last
        // write set may answer the caller too.
        ctx.reply_to = responder.route().map(|(caller, req_id)| (caller.0, req_id));
        let StoreRequest::Invoke { object, method, args, read_only, internal, .. } = req else {
            return responder.reply(proto::encode_reply(self.handle(&ctx, req)));
        };
        self.requests.incr();
        let oid = ObjectId::new(object);
        if let Err(e) = self.check_role(&oid, read_only) {
            return responder.reply(Err(encode_error(&e)));
        }
        self.control.tally_invoke(oid.as_bytes());
        let done: InvokeCompletion = Box::new(move |result| {
            responder.reply(proto::encode_reply(result.map(StoreResponse::Value)));
        });
        self.engine.invoke_deferred(&ctx, &oid, &method, args, !internal, done);
    }

    fn handle(
        &self,
        ctx: &InvocationContext,
        req: StoreRequest,
    ) -> Result<StoreResponse, InvokeError> {
        self.requests.incr();
        match req {
            StoreRequest::Invoke { .. } => {
                unreachable!("the endpoint handler serves Invoke as a deferred reply")
            }
            StoreRequest::CreateObject { type_name, object, fields } => {
                let oid = ObjectId::new(object);
                self.check_role(&oid, false)?;
                let fields: Vec<(&str, &[u8])> =
                    fields.iter().map(|(f, v)| (f.as_str(), v.as_slice())).collect();
                self.engine.create_object(&type_name, &oid, &fields)?;
                Ok(StoreResponse::Ok)
            }
            StoreRequest::DeleteObject { object } => {
                let oid = ObjectId::new(object);
                self.check_role(&oid, false)?;
                self.engine.delete_object(&oid)?;
                Ok(StoreResponse::Ok)
            }
            StoreRequest::DeployType { name, fields, module } => {
                let ty = ObjectType::from_module(name, fields, module)
                    .map_err(|e| InvokeError::Vm(format!("module rejected: {e}")))?;
                self.engine.types().register(ty);
                Ok(StoreResponse::Ok)
            }
            StoreRequest::ReplicateBatch {
                shard,
                epoch,
                entries,
                lease_nanos,
                replies,
                quorum,
            } => {
                self.fence_stale_epoch(shard, epoch)?;
                self.apply_replicated(shard, epoch, entries, lease_nanos, replies, &quorum)?;
                Ok(StoreResponse::Ok)
            }
            StoreRequest::RenewLease { shard, epoch, lease_nanos } => {
                if self.fence_stale_epoch(shard, epoch).is_ok() {
                    self.leases.accept(shard, epoch, lease_nanos, Instant::now());
                }
                Ok(StoreResponse::Ok)
            }
            StoreRequest::MigrateInstall { snapshot, shard } => {
                self.migrate_install(snapshot, shard)?;
                Ok(StoreResponse::Ok)
            }
            StoreRequest::RawGet { key } => self.raw_get(&key),
            StoreRequest::RawPut { key, value } => self.raw_put(ctx, key, value),
            StoreRequest::RawDelete { key } => self.raw_delete(ctx, key),
            StoreRequest::RawPush { object, field, value } => {
                self.raw_push(ctx, object, &field, value)
            }
            StoreRequest::RawScan { object, field, limit, newest_first } => {
                self.raw_scan(object, &field, limit, newest_first)
            }
            StoreRequest::RawCount { object, field } => self.raw_count(object, &field),
            StoreRequest::ListObjects => {
                let ids = self.engine.list_objects().into_iter().map(|o| o.0).collect();
                Ok(StoreResponse::Objects(ids))
            }
            StoreRequest::Transact { calls } => {
                // Every object must be primary-local: transactions do not
                // span shards (cross-shard would need 2PC, left open like
                // in the paper).
                for call in &calls {
                    self.check_role(&call.object, false)?;
                }
                let results = self.engine.invoke_transaction(ctx, &calls)?;
                Ok(StoreResponse::Values(results))
            }
            StoreRequest::InstallShardChunk { shard, epoch, items } => {
                self.fence_stale_epoch(shard, epoch)?;
                self.install_shard_chunk(shard, items)?;
                Ok(StoreResponse::Ok)
            }
        }
    }

    /// Refuse a frame stamped with an epoch this node has already seen
    /// superseded (a deposed primary's replication or state transfer).
    fn fence_stale_epoch(&self, shard: ShardId, epoch: Epoch) -> Result<(), InvokeError> {
        let local_epoch = self.placement.epoch_of(shard).unwrap_or(0);
        if epoch < local_epoch {
            return Err(InvokeError::WrongNode(format!(
                "stale epoch {epoch} < {local_epoch} for shard {shard}"
            )));
        }
        Ok(())
    }

    /// The node's wire stats, served straight from the shared registry
    /// (engine counters included — same cells `EngineStats` reads).
    fn stats_wire(&self) -> NodeStatsWire {
        let es = self.engine.stats();
        let qs = self.rpc().queue_stats();
        // Mirror the endpoint's overload counters into the registry's
        // gauges so stats scrapes and wire stats read the same numbers.
        self.q_depth.set(qs.depth as i64);
        self.q_inflight.set(qs.inflight as i64);
        self.q_shed.set(qs.shed as i64);
        NodeStatsWire {
            requests: self.requests.get(),
            invocations: es.invocations,
            cache_hits: es.cache_hits,
            replications_applied: self.repl.applied.get(),
            duplicates_suppressed: es.duplicates_suppressed,
            busy_nanos: self.busy_nanos.get(),
            uptime_nanos: self.registry.uptime_nanos(),
            run_queue_depth: qs.depth,
            inflight: qs.inflight,
            shed: qs.shed,
            follower_reads: self.leases.follower_reads.get(),
            lease_rejections: self.leases.rejections.get(),
            corruption_reports: self.control.corruption_reports.get(),
            promotion_resyncs: self.repl.promotion_resyncs.get(),
        }
    }

    /// Verify this node may serve the request for `oid`: the primary for
    /// mutating work, any *leased* replica for read-only work (§4.2 +
    /// DESIGN.md §11). With no shard map installed (single-node mode)
    /// everything is served locally, and with no coordinator configured
    /// leases are not enforced (any in-set replica serves reads).
    ///
    /// Syncing recruits are never readable: they are not in the replica
    /// set (`contains` excludes them) and hold no lease, so they fall
    /// through to `WrongNode` like any stranger.
    fn check_role(&self, oid: &ObjectId, read_only: bool) -> Result<(), InvokeError> {
        let Some((shard, info)) = self.placement.locate(oid) else {
            return Ok(());
        };
        if info.lost {
            return Err(InvokeError::ShardUnavailable(format!(
                "shard {shard} for object {oid} lost every replica"
            )));
        }
        if read_only {
            if info.contains(self.id) {
                return self.leases.read_authority(shard, &info, self.id, Instant::now());
            }
        } else if info.primary == self.id {
            // Reads keep serving from the source through a migration's
            // handoff (its copy stays authoritative until the commit
            // lands); mutations are fenced.
            let migration = self.placement.migration_of(oid.as_bytes());
            if let Some(moved) = self.repl.handoff_fence(migration.as_ref(), oid, shard) {
                return Err(moved);
            }
            return Ok(());
        }
        Err(InvokeError::WrongNode(format!(
            "object {oid} is served by primary node-{} (epoch {})",
            info.primary.0, info.epoch
        )))
    }

    /// The owning `Arc` (for completions that outlive this call frame).
    pub(crate) fn arc(&self) -> Arc<NodeInner> {
        self.self_ref.get().and_then(Weak::upgrade).expect("self_ref installed during start")
    }

    /// The primary a nested call on `target` hops to; `None` when the
    /// object is served here (or no shard map is installed).
    fn remote_primary(&self, target: &ObjectId) -> Option<NodeId> {
        let (_, info) = self.placement.locate(target)?;
        (info.primary != self.id).then_some(info.primary)
    }
}

impl InvokeRouter for NodeInner {
    fn route_deferred(
        &self,
        ctx: &InvocationContext,
        target: &ObjectId,
        method: &str,
        args: &[VmValue],
        done: InvokeCompletion,
    ) -> Option<InvokeCompletion> {
        let Some(primary) = self.remote_primary(target) else {
            return Some(done);
        };
        // Remote object: one hop to its primary (§4.2.1 — "a function
        // invocation results in at most one network round-trip within the
        // responsible replica set"). The caller's context rides along, so
        // the remote engine's spans join this trace and its scheduler
        // enforces what is left of the deadline.
        let req = StoreRequest::Invoke {
            object: target.0.clone(),
            method: method.to_string(),
            args: args.to_vec(),
            read_only: false,
            internal: true,
            collect_read_set: false,
        };
        match self.peer_frame(ctx, &req) {
            Err(e) => done(Err(e)),
            Ok((frame, timeout)) => self.rpc().call_deferred(
                primary,
                frame,
                timeout,
                Box::new(move |reply| {
                    done(proto::decode_reply(reply).and_then(StoreResponse::into_value));
                }),
            ),
        }
        None
    }

    /// Same shard, led here, and `source` not in any migration: its
    /// boundary and the branch then share one window and one round. A
    /// migration record means the source's gate may fence the boundary
    /// (handoff), so it goes ahead on its own.
    fn co_located(&self, source: &ObjectId, target: &ObjectId) -> bool {
        let mut located = self.placement.locate_all([source, target]).into_iter();
        match (located.next().flatten(), located.next().flatten()) {
            (Some((from, info, None)), Some((to, ..))) => from == to && info.primary == self.id,
            (None, None) => true,
            _ => false,
        }
    }
}

/// A running LambdaStore node.
pub struct AggregatedNode {
    inner: Arc<NodeInner>,
    watch_rpc: Arc<RpcNode>,
}

impl std::fmt::Debug for AggregatedNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AggregatedNode").field("id", &self.inner.id).finish()
    }
}

impl AggregatedNode {
    /// Start a node with the given id on `net`.
    ///
    /// # Errors
    /// Propagates storage-open failures as [`InvokeError::Storage`].
    pub fn start(
        net: &Network,
        id: NodeId,
        config: AggregatedConfig,
    ) -> Result<Arc<AggregatedNode>, InvokeError> {
        // One registry per node: the kv layer, engine, scheduler and the
        // node's own request counters all report through it.
        let registry = Registry::shared();
        let db = Db::open_with_registry(&config.data_dir, config.kv.clone(), &registry)?;
        let types = Arc::new(TypeRegistry::new());
        let engine = Engine::with_registry(db, types, config.engine, Arc::clone(&registry));

        let inner = Arc::new(NodeInner {
            id,
            engine,
            placement: Placement::new(),
            rpc: OnceLock::new(),
            self_ref: OnceLock::new(),
            rpc_timeout: config.rpc_timeout,
            requests: registry.counter("node_requests"),
            busy_nanos: registry.counter("node_busy_nanos"),
            shutdown: AtomicBool::new(false),
            q_depth: registry.gauge("rpc_queue_depth"),
            q_inflight: registry.gauge("rpc_inflight"),
            q_shed: registry.gauge("rpc_shed"),
            repl: ReplState::new(&registry),
            leases: Leases::new(
                &registry,
                config.lease_duration,
                !config.coordinators.is_empty(),
                Instant::now(),
            ),
            sync: SyncState::new(&registry),
            migrate: Migrations::new(&registry),
            control: Control::new(&registry),
            registry,
        });

        // Service endpoint (`NodeInner::serve`).
        let handler_inner = Arc::clone(&inner);
        let handler: Handler =
            Arc::new(move |_from: NodeId, body: Vec<u8>, responder: Responder| {
                // Worker time: a deferred reply's wait for the lock, the kv
                // commit or the acks happens after the worker is released.
                let started = Instant::now();
                handler_inner.serve(&body, responder);
                handler_inner.busy_nanos.add(started.elapsed().as_nanos() as u64);
            });
        // Admission control: once the run queue is over depth, requests
        // born at a client are refused with a retryable `Overloaded`
        // before consuming a worker. Node-to-node and background traffic
        // (replication, repair, state transfer) is always admitted, so
        // shedding never cascades into the durability path.
        let shed_reply =
            encode_error(&InvokeError::Overloaded(format!("node-{} run queue full", id.0)));
        let admission: AdmissionPolicy =
            Arc::new(move |body: &[u8]| match wire::split_header(body) {
                Ok((header, _)) if header.origin == Origin::Client.to_wire() => {
                    Some(shed_reply.clone())
                }
                // Malformed (the handler rejects it) or non-client origin:
                // admit — only provably client-origin load is sheddable.
                _ => None,
            });
        let rpc = RpcNode::start_with_config(
            net,
            id,
            handler,
            RpcConfig {
                workers: config.workers,
                queue_depth: config.run_queue_depth,
                admission: Some(admission),
                ..RpcConfig::default()
            },
        );
        inner.rpc.set(Arc::clone(&rpc)).expect("set once");
        inner.self_ref.set(Arc::downgrade(&inner)).expect("set once");

        // The engine's replication hook and cross-shard router are the node.
        inner.engine.set_commit_hook(Arc::clone(&inner) as Arc<dyn CommitHook>);
        inner.engine.set_router(Arc::clone(&inner) as Arc<dyn InvokeRouter>);

        // Watch endpoint for coordinator pushes.
        let watch_inner = Arc::clone(&inner);
        let watch_rpc = RpcNode::start(
            net,
            NodeId(id.0 + WATCH_ID_OFFSET),
            sync_handler(move |_, body| {
                if let Ok(CoordEvent::StateChanged(state)) = wire::from_bytes(&body) {
                    watch_inner.install_placement(state);
                }
                Ok(vec![])
            }),
            1,
        );

        // The control thread: the node's only periodic thread.
        if !config.coordinators.is_empty() {
            let coord = Arc::new(CoordClient::new(
                Arc::clone(&rpc),
                config.coordinators.clone(),
                config.rpc_timeout,
            ));
            let node = Arc::clone(&inner);
            let interval = config.heartbeat_interval;
            std::thread::Builder::new()
                .name(format!("store-{id}-control"))
                .spawn(move || {
                    while !node.shutdown.load(Ordering::Acquire) {
                        node.control_tick(&coord);
                        std::thread::sleep(interval);
                    }
                })
                .expect("spawn control thread");
        }

        Ok(Arc::new(AggregatedNode { inner, watch_rpc }))
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.inner.id
    }

    /// Direct engine access (tests, native-type deployment, benches).
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// The node-wide telemetry registry (span chains, stage histograms,
    /// and every counter the node's stats surfaces are served from).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.inner.registry
    }

    /// Deploy a native (trusted) object type directly on this node.
    pub fn register_native_type(&self, ty: ObjectType) {
        self.inner.engine.types().register(ty);
    }

    /// The node's placement view (tests/diagnostics; also used to install
    /// static shard maps when no coordinator is configured).
    pub fn placement(&self) -> &Placement {
        &self.inner.placement
    }

    /// `(rounds, entries)` shipped by this node's replication windows;
    /// `entries / rounds` is the mean round size.
    pub fn replication_batch_stats(&self) -> (u64, u64) {
        self.inner.repl.batch_stats()
    }

    /// Statistics snapshot (a thin view over the registry's counters).
    pub fn stats(&self) -> NodeStatsWire {
        self.inner.stats_wire()
    }

    /// Stop serving (the node "crashes": heartbeats stop, RPCs fail).
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.rpc().shutdown();
        self.watch_rpc.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;

    use lambda_net::LatencyModel;

    use super::*;

    const PEER: NodeId = NodeId(9);

    /// A coordinator-less node plus a scripted peer that counts the
    /// requests it sees and acks the `ack_on`-th (never, when 0).
    struct Rig {
        net: Network,
        node: Arc<AggregatedNode>,
        peer: Arc<RpcNode>,
        seen: Arc<AtomicUsize>,
        dir: PathBuf,
    }

    impl Rig {
        fn start(tag: &str, ack_on: usize) -> Rig {
            let net = Network::new(LatencyModel::instant(), 1);
            let dir =
                std::env::temp_dir().join(format!("lambdastore-ship-{tag}-{}", std::process::id()));
            let node =
                AggregatedNode::start(&net, NodeId(1), AggregatedConfig::new(dir.clone(), vec![]))
                    .expect("node starts");
            let seen = Arc::new(AtomicUsize::new(0));
            let count = Arc::clone(&seen);
            let peer = RpcNode::start(
                &net,
                PEER,
                sync_handler(move |_, _| {
                    if count.fetch_add(1, Ordering::SeqCst) + 1 == ack_on {
                        proto::encode_reply(Ok(StoreResponse::Ok))
                    } else {
                        proto::encode_reply(Err(InvokeError::Storage("not yet".into())))
                    }
                }),
                1,
            );
            Rig { net, node, peer, seen, dir }
        }

        fn ship(
            &self,
            attempts: usize,
            still_wanted: impl FnMut() -> bool,
        ) -> Result<(), InvokeError> {
            let req = StoreRequest::ListObjects;
            self.node.inner.ship(PEER, &req, attempts, Duration::ZERO, still_wanted)
        }

        fn stop(self) -> usize {
            self.node.shutdown();
            self.peer.shutdown();
            self.net.shutdown();
            let _ = std::fs::remove_dir_all(&self.dir);
            self.seen.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn ship_retries_until_the_ack_and_stops_at_the_attempt_budget() {
        let rig = Rig::start("ack", 3);
        assert_eq!(rig.ship(5, || true), Ok(()));
        assert_eq!(rig.stop(), 3, "no attempt after the ack");

        let rig = Rig::start("budget", 0);
        assert_eq!(rig.ship(4, || true), Err(InvokeError::Storage("not yet".into())));
        assert_eq!(rig.stop(), 4);
    }

    #[test]
    fn ship_stops_as_soon_as_it_is_no_longer_wanted() {
        let rig = Rig::start("superseded", 0);
        let mut asked = 0;
        let outcome = rig.ship(10, || {
            asked += 1;
            asked < 2
        });
        assert!(matches!(outcome, Err(InvokeError::Nested(m)) if m.contains("superseded")));
        assert_eq!(
            (asked, rig.stop()),
            (2, 2),
            "asked before each retry, never before the first try"
        );
    }

    #[test]
    fn ship_stops_on_shutdown() {
        let rig = Rig::start("shutdown", 0);
        let node = Arc::clone(&rig.node);
        let outcome = rig.ship(10, || {
            node.inner.shutdown.store(true, Ordering::Release);
            true
        });
        assert!(matches!(outcome, Err(InvokeError::Nested(m)) if m.contains("shutting down")));
        assert_eq!(rig.stop(), 1);
    }

    /// Start `cell/1 <- set("v")` on a thread of its own against a rig whose
    /// node leads shard 0 with `PEER` as the backup that never acks; the
    /// outcome arrives over the returned channel once `stop` has ended the
    /// commit's replication.
    fn blocked_commit(rig: &Rig) -> crossbeam::channel::Receiver<Result<VmValue, InvokeError>> {
        use lambda_coordinator::{ClusterState, CoordCmd, N_SLOTS};
        let mut reg = lambda_vm::NativeRegistry::new();
        reg.register("set", false, false, true, |ctx| {
            ctx.host.put(b"v", &ctx.bytes_arg(0)?)?;
            Ok(VmValue::Unit)
        });
        rig.node.register_native_type(ObjectType::from_native("Cell", vec![], reg));
        let cell = ObjectId::from("cell/1");
        rig.node.engine().create_object("Cell", &cell, &[]).expect("no map yet: nothing to ship");
        let mut state = ClusterState::default();
        for node in [NodeId(1), PEER] {
            state.apply(&CoordCmd::RegisterNode { node });
        }
        state.apply(&CoordCmd::CreateShard { shard: 0, replicas: vec![NodeId(1), PEER] });
        state.apply(&CoordCmd::AssignSlots { shard: 0, slots: (0..N_SLOTS).collect() });
        assert!(rig.node.placement().update(state));

        let (tx, rx) = crossbeam::channel::bounded(1);
        let node = Arc::clone(&rig.node);
        std::thread::spawn(move || {
            tx.send(node.engine().invoke(&cell, "set", vec![VmValue::str("v")])).unwrap();
        });
        rx
    }

    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    /// A blocking invoke's join ends with a retryable `Storage` error, well
    /// inside any client timeout, however its completion is lost.
    fn assert_fails_fast(outcome: crossbeam::channel::Receiver<Result<VmValue, InvokeError>>) {
        let outcome = outcome.recv_timeout(Duration::from_secs(2));
        let outcome = outcome.expect("the parked committer hung on a lost completion");
        assert!(matches!(outcome, Err(InvokeError::Storage(_))), "{outcome:?}");
    }

    #[test]
    fn node_shutdown_mid_retry_fails_the_parked_commit() {
        // The backup nacks every frame, so the round is being re-sent,
        // `REPL_RETRY_PAUSE` apart, when the node goes down: the timer
        // discards the scheduled retry, or the ack path sees the flag.
        let rig = Rig::start("lost-retry", 0);
        let outcome = blocked_commit(&rig);
        let retries = || rig.node.registry().counter_value("node_repl_retries");
        wait_for("a retry to be scheduled", || retries() >= 2);
        rig.node.shutdown();
        assert_fails_fast(outcome);
        rig.stop();
    }

    #[test]
    fn endpoint_shutdown_before_the_ack_fails_the_parked_commit() {
        // The backup is gone, so the round's frames sit unanswered; only
        // the node's RPC endpoint stops (the node's own flag stays down):
        // the ack path wants a retry, and the endpoint refuses to schedule it.
        let rig = Rig::start("lost-ack", 0);
        rig.peer.shutdown();
        let outcome = blocked_commit(&rig);
        let cell = ObjectId::from("cell/1");
        wait_for("the local apply", || rig.node.engine().object_version(&cell) == 1);
        rig.node.inner.rpc().shutdown();
        assert_fails_fast(outcome);
        rig.stop();
    }
}
