//! The aggregated architecture: a LambdaStore storage node.
//!
//! Each node embeds the LambdaObjects [`Engine`] directly in the storage
//! process (§4.2): invocations execute where the data lives, mutating
//! methods at the shard's primary, read-only methods at any replica.
//! Committed write sets are replicated synchronously to backups with epoch
//! fencing (§4.2.1), nested cross-object calls are routed to the
//! responsible primary, and the node heartbeats the coordination service
//! and receives shard-map pushes.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use lambda_coordinator::CoordClient;
use lambda_coordinator::CoordEvent;
use lambda_coordinator::{
    ClusterState, CoordCmd, Epoch, MigrationInfo, MigrationPhase, NodeLoad, ShardId,
};
use lambda_kv::Db;
use lambda_net::rpc::{sync_handler, AdmissionPolicy, Responder, RpcConfig};
use lambda_net::{wire, Handler, Network, NodeId, RpcNode};
use lambda_objects::{
    encode_error, keys, CommitHook, Counter, Engine, EngineConfig, Gauge, InvocationContext,
    InvokeError, InvokeRouter, ObjectId, ObjectType, Origin, Registry, TypeRegistry, WriteSetOps,
};
use lambda_vm::VmValue;

use crate::placement::Placement;
use crate::proto::{self, ClientPush, NodeStatsWire, StoreRequest, StoreResponse, SyncItem};
use crate::replication::{ReplState, Round, WriteSet};
use crate::sync::{SyncManager, SyncPhase, SyncSession};

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

pub(crate) struct NodeInner {
    pub(crate) id: NodeId,
    engine: Arc<Engine>,
    pub(crate) placement: Placement,
    rpc: OnceLock<Arc<RpcNode>>,
    /// Back-reference for completions that must re-enter the node after an
    /// asynchronous hop (deferred replication rounds).
    self_ref: OnceLock<Weak<NodeInner>>,
    pub(crate) rpc_timeout: Duration,
    /// The node-wide telemetry registry: shared by the kv layer, the
    /// engine/scheduler, and the counters below, so every stats surface is
    /// a view over one set of cells.
    registry: Arc<Registry>,
    requests: Counter,
    replications: Counter,
    busy_nanos: Counter,
    pub(crate) shutdown: AtomicBool,
    /// Replication windows, switch and counters (see [`crate::replication`]).
    pub(crate) repl: ReplState,
    /// Instantaneous run-queue depth, mirrored from the RPC endpoint on
    /// stats reads.
    q_depth: Gauge,
    /// Admitted-but-unanswered requests, mirrored likewise.
    q_inflight: Gauge,
    /// Requests refused by admission control, mirrored likewise.
    q_shed: Gauge,
    /// Open state-transfer sessions to syncing backups (primary side).
    sync: SyncManager,
    /// `InstallShardChunk` RPCs shipped to syncing backups.
    repair_chunks_sent: Counter,
    /// Payload bytes shipped through state transfer.
    repair_bytes: Counter,
    /// Chunks applied here as a syncing backup.
    repair_chunks_applied: Counter,
    /// Transfer sessions that aborted before promotion (or failed hard).
    repair_sessions_failed: Counter,
    /// Stream items accepted into sync sessions (with `repair_sync_shipped`
    /// below, the difference is the node's total sync lag).
    repair_sync_enqueued: Counter,
    /// Stream items acked by syncing backups.
    repair_sync_shipped: Counter,
    /// Read-lease duration (grants, fences, and the primary's own read
    /// authority window all derive from it).
    lease_duration: Duration,
    /// Leases are only enforced when a coordinator drives placement;
    /// statically configured deployments keep the pre-lease behaviour
    /// (any replica serves reads, unfenced).
    lease_enforce: bool,
    /// Node start instant; `last_coord_ok` is nanoseconds since it.
    started: Instant,
    /// Nanoseconds (since `started`) of the last successful coordinator
    /// heartbeat; 0 = never. Grants and primary reads require freshness.
    last_coord_ok: AtomicU64,
    /// Backup role: shard → (granting epoch, expiry) of the held lease.
    leases_held: Mutex<HashMap<ShardId, (Epoch, Instant)>>,
    /// Primary role: (shard, backup) → expiry of the latest grant issued,
    /// stamped conservatively at send. Consulted when a member departs to
    /// size the commit fence.
    leases_granted: Mutex<HashMap<(ShardId, NodeId), Instant>>,
    /// Commits for these shards are refused until the instant passes
    /// (departed members' read leases draining after a reconfiguration).
    commit_fences: Mutex<HashMap<ShardId, Instant>>,
    /// Clients subscribed to the commit invalidation stream.
    subscribers: Mutex<Vec<NodeId>>,
    /// Read-only invocations served here under a follower lease.
    follower_reads: Counter,
    /// Reads refused for want of a (fresh, epoch-matching) lease.
    lease_rejections: Counter,
    /// Standalone `RenewLease` frames sent (primary role).
    lease_renewals: Counter,
    /// Invalidation frames pushed to subscribed clients.
    invalidations_published: Counter,
    /// Recent committed write sets per shard (bounded ring, newest last),
    /// fed by both roles: the primary records what it replicates, a backup
    /// records what it applies. A backup promoted to primary replays its
    /// ring to the surviving backups before new commits land, so a write
    /// the old primary acked after some survivor's ack was lost still
    /// reaches every replica (closes the DESIGN.md §11 limitation).
    recent_commits: Mutex<HashMap<ShardId, RecentCommitRing>>,
    /// Shards whose local state is known corrupt, awaiting coordinator
    /// action (value = epoch of the latest report attempt). Suspicion is
    /// sticky: a report proposed with a stale epoch is fenced off by the
    /// coordinator as a no-op, so the node re-reports every heartbeat with
    /// a refreshed epoch until it observes itself evicted from (or
    /// re-recruited into) the shard.
    suspect_shards: Mutex<HashMap<ShardId, Epoch>>,
    /// Per-shard corruption-detection count at the last sync `Begin` this
    /// node received as a recruit. Chunks arriving after the count moves
    /// are refused, failing the transfer before it can confirm a replica
    /// with quarantine holes in its freshly-installed state.
    sync_damage_floor: Mutex<HashMap<ShardId, u64>>,
    /// Primary-side forward-gap token, bumped when a commit could not
    /// forward to a syncing recruit because no session was open yet. A
    /// sync session snapshots the token at start and refuses to propose
    /// `ConfirmBackup` if it moved: the gapped write is already durable
    /// locally, so the replacement session's re-scan covers it, while the
    /// commit acks without stalling on session registration.
    forward_gaps: Mutex<HashMap<ShardId, u64>>,
    /// Disk-corruption reports proposed to the coordinator.
    corruption_reports: Counter,
    /// Promotion re-syncs completed (ring replays after failover).
    promotion_resyncs: Counter,
    /// Per-object invocation tally since the last heartbeat; drained into
    /// the coordinator load report that feeds the rebalancer.
    invoke_tally: Mutex<HashMap<Vec<u8>, u64>>,
    /// Objects whose coordinator-owned migration this node is currently
    /// driving as the source primary (guards against double-spawning).
    migrations_driving: Mutex<HashSet<Vec<u8>>>,
    /// Coordinator-owned migrations this node drove to commit as source.
    migrations_completed: Counter,
    /// Migrations this node gave up on as source and proposed to abort
    /// (the proposal carries the reason).
    migrations_aborted: Counter,
}

/// A handler outcome as the RPC layer carries it.
fn encode_reply(reply: Result<StoreResponse, InvokeError>) -> Result<Vec<u8>, String> {
    let resp = reply.map_err(|e| encode_error(&e))?;
    wire::to_bytes(&resp).map_err(|e| e.to_string())
}

/// Payload bytes of one stream item (transfer-cost accounting).
fn sync_item_bytes(item: &SyncItem) -> u64 {
    match item {
        SyncItem::Begin => 0,
        SyncItem::Object(snap) => snap.payload_bytes() as u64,
        SyncItem::Forward { object, ops } => {
            let ops_bytes: usize =
                ops.iter().map(|(k, v)| k.len() + v.as_ref().map_or(0, Vec::len)).sum();
            (object.len() + ops_bytes) as u64
        }
    }
}

/// Items per `InstallShardChunk` RPC on the push path.
const SYNC_BATCH_ITEMS: usize = 32;
/// Send retries per chunk before a session gives up on its peer.
const SYNC_SHIP_RETRIES: usize = 10;
/// Committed write sets kept per shard for promotion re-sync. Sized to
/// cover everything the old primary could have acked between two lease
/// renewals; replays are idempotent puts, so over-covering is harmless.
const RECENT_COMMITS_CAP: usize = 32;

/// One shard's ring of recent committed write sets: `(object id bytes,
/// write set)`, newest last, bounded at [`RECENT_COMMITS_CAP`].
type RecentCommitRing = VecDeque<WriteSet>;

/// Hottest objects reported per heartbeat load report.
const HOT_REPORT_TOP_K: usize = 8;
/// `MigrateInstall` attempts against the target primary before the source
/// driver gives up and proposes `AbortMigration`.
const MIGRATE_SHIP_RETRIES: usize = 20;
/// Pause between migration-driver steps while waiting for placement to
/// catch up with a proposed phase change.
const MIGRATE_POLL_PAUSE: Duration = Duration::from_millis(5);

impl NodeInner {
    pub(crate) fn rpc(&self) -> &Arc<RpcNode> {
        self.rpc.get().expect("rpc initialized during start")
    }

    /// Record a successful coordinator contact (heartbeat ack).
    fn note_coord_ok(&self) {
        self.last_coord_ok.store(self.started.elapsed().as_nanos() as u64, Ordering::Release);
    }

    /// Time since the last successful coordinator contact; `None` = never.
    fn coord_contact_age(&self) -> Option<Duration> {
        match self.last_coord_ok.load(Ordering::Acquire) {
            0 => None,
            nanos => Some(self.started.elapsed().saturating_sub(Duration::from_nanos(nanos))),
        }
    }

    /// True while this node's view of "am I still primary?" is fresh
    /// enough to serve linearizable reads locally: the coordinator cannot
    /// have both declared us dead and elected a successor without first
    /// missing our heartbeats for longer than this.
    fn primary_read_authority_ok(&self) -> bool {
        self.coord_contact_age().is_some_and(|age| age < self.lease_duration)
    }

    /// The lease to piggyback on a grant-carrying message to `backups` of
    /// `shard`, in nanoseconds; 0 withholds the grant. A primary only
    /// grants while its own coordinator contact is fresher than half a
    /// lease: a deposed primary partitioned from the coordinator must stop
    /// granting *before* the failure detector can have replaced it, so no
    /// split-brain island keeps a departed backup's lease alive.
    pub(crate) fn grant_lease_nanos(&self, shard: ShardId, backups: &[NodeId]) -> u64 {
        if !self.lease_enforce || backups.is_empty() {
            return 0;
        }
        let fresh = self.coord_contact_age().is_some_and(|age| age * 2 < self.lease_duration);
        if !fresh {
            return 0;
        }
        let expiry = Instant::now() + self.lease_duration;
        let mut granted = self.leases_granted.lock();
        for &b in backups {
            let e = granted.entry((shard, b)).or_insert(expiry);
            if expiry > *e {
                *e = expiry;
            }
        }
        self.lease_duration.as_nanos() as u64
    }

    /// Backup role: accept a lease grant for `shard`, never downgrading to
    /// an older epoch or an earlier expiry.
    fn accept_lease(&self, shard: ShardId, epoch: Epoch, lease_nanos: u64) {
        if lease_nanos == 0 {
            return;
        }
        let expiry = Instant::now() + Duration::from_nanos(lease_nanos);
        let mut held = self.leases_held.lock();
        match held.entry(shard) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert((epoch, expiry));
            }
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let (held_epoch, held_expiry) = *o.get();
                if epoch > held_epoch || (epoch == held_epoch && expiry > held_expiry) {
                    o.insert((epoch, expiry));
                }
            }
        }
    }

    /// Remaining fence time for `shard` commits, if a post-reconfiguration
    /// fence is still draining; expired fences are removed on the way.
    pub(crate) fn fence_remaining(&self, shard: ShardId) -> Option<Duration> {
        let mut fences = self.commit_fences.lock();
        let until = *fences.get(&shard)?;
        let now = Instant::now();
        if now >= until {
            fences.remove(&shard);
            return None;
        }
        Some(until - now)
    }

    /// Record one committed write set in `shard`'s recent ring (bounded at
    /// [`RECENT_COMMITS_CAP`]; the oldest entry falls off).
    pub(crate) fn record_recent(
        &self,
        shard: ShardId,
        object: &[u8],
        ops: &[(Vec<u8>, Option<Vec<u8>>)],
    ) {
        let mut rings = self.recent_commits.lock();
        let ring = rings.entry(shard).or_default();
        if ring.len() == RECENT_COMMITS_CAP {
            ring.pop_front();
        }
        ring.push_back((object.to_vec(), ops.to_vec()));
    }

    /// Drain the storage engine's corruption events and report them to the
    /// coordinator. One kv store backs every shard this node serves, so an
    /// unrecoverable corruption is reported against each of them; the
    /// coordinator treats the report like a departure (a corrupt backup is
    /// re-recruited around, a corrupt primary demoted to a healthy
    /// survivor), and this node re-syncs from a clean peer when it is
    /// recruited back. Quarantined-and-repaired corruptions (a rotten
    /// SSTable dropped from the current version, its data recoverable from
    /// other tables or peers) still flow through here: the coordinator's
    /// epoch bump forces a fresh transfer, which restores any keys the
    /// quarantine took out.
    fn report_corruption(&self, coord: &CoordClient) {
        let events = self.engine.db().take_corruption_events();
        let state = self.placement.snapshot();
        let mut suspects = self.suspect_shards.lock();
        if !events.is_empty() {
            for (&shard, info) in &state.shards {
                let member = info.primary == self.id
                    || info.backups.contains(&self.id)
                    || info.is_syncing(self.id);
                if !info.lost && member {
                    suspects.entry(shard).or_insert(info.epoch);
                }
            }
        }
        // Re-propose every tracked suspicion at the freshest epoch we know.
        // Clear it once this node is out of the shard entirely: the
        // coordinator acted (or the shard moved on), and any recruitment
        // back in streams clean state onto this store. The syncing role is
        // tracked like the active ones — a recruit that quarantined
        // freshly-installed transfer data MUST NOT confirm with that hole,
        // so it keeps reporting until the transfer is torn down.
        suspects.retain(|&shard, epoch| {
            let Some(info) = state.shards.get(&shard) else { return false };
            let member = info.primary == self.id
                || info.backups.contains(&self.id)
                || info.is_syncing(self.id);
            if !member {
                return false;
            }
            if info.lost {
                // Lost keeps membership as revival preference, and a
                // `ReviveShard` re-seats this replica as-is — no clean
                // transfer happens. Hold the suspicion (proposing now
                // would just fence on `lost`) so a revival onto this node
                // is re-reported against the revived epoch.
                return true;
            }
            *epoch = info.epoch;
            let _ = coord.propose(lambda_coordinator::CoordCmd::ReportCorruption {
                node: self.id,
                shard,
                expected_epoch: info.epoch,
            });
            self.corruption_reports.incr();
            true
        });
    }

    /// Just-promoted primary: replay the shard's ring of recent committed
    /// write sets to the surviving backups before the commit fence lifts.
    /// Applies are idempotent puts, so re-sending a set a survivor already
    /// holds is harmless; a set the deposed primary acked without this
    /// survivor's ack landing is delivered here, converging the replica
    /// set on every acked write before new commits stack on top.
    fn spawn_promotion_resync(&self, shard: ShardId, epoch: Epoch, backups: Vec<NodeId>) {
        let entries: Vec<WriteSet> = {
            let rings = self.recent_commits.lock();
            rings.get(&shard).map(|r| r.iter().cloned().collect()).unwrap_or_default()
        };
        if entries.is_empty() || backups.is_empty() {
            return;
        }
        let this = self.arc();
        std::thread::Builder::new()
            .name(format!("store-{}-resync-{shard}", self.id))
            .spawn(move || {
                let ctx = InvocationContext::background();
                let round = Round::new(shard, epoch, backups, &ctx, entries);
                if this.run_round_parked(round).is_ok() {
                    this.promotion_resyncs.incr();
                }
            })
            .expect("spawn promotion resync");
    }

    /// Install a placement update, diffing shard configurations to keep
    /// lease state honest: superseded held leases are dropped, and when
    /// this node (re)takes a primary role in a configuration that lost a
    /// member, commits are fenced until every lease that member could
    /// still hold has drained. Growth-only changes (recruiting/confirming
    /// a backup) and first sight of a shard fence nothing.
    fn install_placement(&self, state: ClusterState) {
        if !self.lease_enforce {
            self.placement.update(state);
            return;
        }
        let old = self.placement.snapshot();
        if !self.placement.update(state) {
            return;
        }
        let new = self.placement.snapshot();
        let now = Instant::now();
        for (&shard, info) in &new.shards {
            let old_info = old.shard(shard);
            if old_info.is_some_and(|oi| info.epoch > oi.epoch) {
                // Backup role: a lease granted under a superseded epoch
                // can never serve this configuration's reads.
                let mut held = self.leases_held.lock();
                if held.get(&shard).is_some_and(|&(e, _)| e < info.epoch) {
                    held.remove(&shard);
                }
            }
            if info.primary != self.id || info.lost {
                continue;
            }
            // First sight of the shard (bootstrap): nobody can hold a
            // lease we have to wait out.
            let Some(old_info) = old_info else { continue };
            if info.epoch == old_info.epoch {
                continue;
            }
            let was_primary = old_info.primary == self.id;
            let departed = old_info.departed_members(info);
            let fence_until = if !was_primary {
                // Just promoted: the old primary's outstanding grants are
                // unknown here, so assume the worst case — a grant issued
                // the instant before the configuration changed.
                Some(now + self.lease_duration)
            } else {
                // Still primary: fence exactly to the latest grant this
                // node issued to each departed member (none recorded means
                // none granted — nothing to wait for).
                let granted = self.leases_granted.lock();
                departed.iter().filter_map(|&n| granted.get(&(shard, n)).copied()).max()
            };
            if let Some(until) = fence_until {
                if until > now {
                    let mut fences = self.commit_fences.lock();
                    let e = fences.entry(shard).or_insert(until);
                    if until > *e {
                        *e = until;
                    }
                }
            }
            let mut granted = self.leases_granted.lock();
            for &n in &departed {
                granted.remove(&(shard, n));
            }
            drop(granted);
            if !was_primary {
                // Satellite of the fence: while departed leases drain,
                // bring the surviving backups up to everything this node
                // applied as a backup (the old primary may have acked
                // writes the survivors never saw).
                self.spawn_promotion_resync(shard, info.epoch, info.backups.clone());
            }
        }
    }

    /// Primary role: re-grant leases to every backup of every shard this
    /// node leads (driven from the heartbeat loop, so write-idle shards
    /// stay readable at their backups).
    fn renew_leases(&self) {
        if !self.lease_enforce {
            return;
        }
        let state = self.placement.snapshot();
        let ctx = InvocationContext::background();
        for (&shard, info) in &state.shards {
            if info.primary != self.id || info.lost || info.backups.is_empty() {
                continue;
            }
            let lease_nanos = self.grant_lease_nanos(shard, &info.backups);
            if lease_nanos == 0 {
                continue;
            }
            let req = StoreRequest::RenewLease { shard, epoch: info.epoch, lease_nanos };
            let frame = proto::encode_request(&ctx, &req).expect("requests serialize");
            for &b in &info.backups {
                self.rpc().notify(b, frame.clone());
                self.lease_renewals.incr();
            }
        }
    }

    /// Push the written keys of a commit this node just applied to every
    /// subscribed client-edge cache (oneway; a lost frame only costs the
    /// subscriber a lazy re-validation miss later).
    pub(crate) fn publish_invalidations<'a>(&self, written: impl Iterator<Item = &'a Vec<u8>>) {
        let subs = self.subscribers.lock();
        if subs.is_empty() {
            return;
        }
        let keys: Vec<Vec<u8>> = written.cloned().collect();
        if keys.is_empty() {
            return;
        }
        let frame = wire::to_bytes(&ClientPush::Invalidate { keys }).expect("pushes serialize");
        for &s in subs.iter() {
            self.rpc().notify(s, frame.clone());
            self.invalidations_published.incr();
        }
    }

    /// One node-to-node RPC on behalf of `ctx`: the context crosses the
    /// wire in the request envelope (origin flipped to `Node`), and the
    /// transport timeout is the remaining budget capped at the configured
    /// per-hop timeout. An already-expired context sheds before any I/O.
    fn call_peer(
        &self,
        ctx: &InvocationContext,
        to: NodeId,
        req: &StoreRequest,
    ) -> Result<StoreResponse, InvokeError> {
        let down = ctx.for_downstream();
        if down.expired() {
            return Err(InvokeError::DeadlineExceeded);
        }
        let frame = proto::encode_request(&down, req).expect("requests serialize");
        proto::decode_reply(self.rpc().call(to, frame, down.rpc_timeout(self.rpc_timeout)))
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
            StoreRequest::ReplicateBatch { shard, epoch, entries, lease_nanos } => {
                self.fence_stale_epoch(shard, epoch)?;
                self.accept_lease(shard, epoch, lease_nanos);
                let count = entries.len() as u64;
                let entries: Vec<(ObjectId, WriteSetOps)> =
                    entries.into_iter().map(|(o, ops)| (ObjectId::new(o), ops)).collect();
                self.engine.apply_replicated_batch(&entries)?;
                for (oid, ops) in &entries {
                    self.record_recent(shard, &oid.0, ops);
                }
                self.publish_invalidations(
                    entries.iter().flat_map(|(_, ops)| ops.iter().map(|(k, _)| k)),
                );
                self.replications.add(count);
                Ok(StoreResponse::Ok)
            }
            StoreRequest::RenewLease { shard, epoch, lease_nanos } => {
                if self.fence_stale_epoch(shard, epoch).is_ok() {
                    self.accept_lease(shard, epoch, lease_nanos);
                }
                Ok(StoreResponse::Ok)
            }
            StoreRequest::SubscribeInvalidations { subscriber } => {
                let mut subs = self.subscribers.lock();
                if !subs.contains(&subscriber) {
                    subs.push(subscriber);
                }
                Ok(StoreResponse::Ok)
            }
            StoreRequest::MigrateInstall { snapshot, shard } => {
                let state = self.placement.snapshot();
                let info = state
                    .shard(shard)
                    .cloned()
                    .ok_or_else(|| InvokeError::WrongNode(format!("no shard {shard}")))?;
                // A node holds ONE copy of an object. When this node is a
                // member of the shard the object is *currently routed to*
                // (source/target shards overlap, or a failover made the
                // source primary the target's), its copy IS the live one —
                // kept fresh by the serving shard's synchronous
                // replication. Replacing it wholesale with a snapshot that
                // was exported earlier would roll back acked writes, so
                // the install is a no-op here; the fenced final snapshot
                // such a node would receive equals what it already holds.
                let holds_live = state
                    .shard_for_object(&snapshot.id.0)
                    .and_then(|s| state.shard(s))
                    .is_some_and(|serving| serving.contains(self.id));
                if !info.contains(self.id) {
                    return Err(InvokeError::WrongNode(format!(
                        "node-{} holds no replica of shard {shard}",
                        self.id.0
                    )));
                }
                if !holds_live {
                    self.engine.install_object_replacing(&snapshot)?;
                }
                if info.primary == self.id {
                    // Fan the replacing install out to the shard's backups
                    // with the same wholesale semantics: op-replication
                    // could leave keys of a superseded warm copy behind.
                    // Each backup applies its own holds-live check against
                    // its own placement view.
                    let req = StoreRequest::MigrateInstall { snapshot, shard };
                    for backup in &info.backups {
                        match self.call_peer(ctx, *backup, &req)? {
                            StoreResponse::Ok => {}
                            other => {
                                return Err(InvokeError::Storage(format!(
                                    "migrate install replication to {backup}: bad reply {other:?}"
                                )))
                            }
                        }
                    }
                }
                Ok(StoreResponse::Ok)
            }
            StoreRequest::RawGet { key } => {
                let v = self.engine.db().get(&key)?;
                Ok(StoreResponse::MaybeBytes(v))
            }
            StoreRequest::RawPut { key, value } => {
                self.engine.db().put(key.clone(), value.clone())?;
                self.replicate_raw(ctx, vec![(key, Some(value))])?;
                Ok(StoreResponse::Ok)
            }
            StoreRequest::RawDelete { key } => {
                self.engine.db().delete(key.clone())?;
                self.replicate_raw(ctx, vec![(key, None)])?;
                Ok(StoreResponse::Ok)
            }
            StoreRequest::RawPush { object, field, value } => {
                let oid = ObjectId::new(object);
                let ckey = keys::counter_key(&oid, &field);
                let len = keys::decode_counter(self.engine.db().get(&ckey)?.as_deref());
                let ekey = keys::entry_key(&oid, &field, len);
                let mut batch = lambda_kv::WriteBatch::new();
                batch.put(ekey.clone(), value.clone());
                batch.put(ckey.clone(), keys::encode_counter(len + 1));
                self.engine.db().write(batch)?;
                self.replicate_raw(
                    ctx,
                    vec![(ekey, Some(value)), (ckey, Some(keys::encode_counter(len + 1)))],
                )?;
                Ok(StoreResponse::Ok)
            }
            StoreRequest::RawScan { object, field, limit, newest_first } => {
                let oid = ObjectId::new(object);
                let ckey = keys::counter_key(&oid, &field);
                let len = keys::decode_counter(self.engine.db().get(&ckey)?.as_deref());
                let take = limit.min(len);
                let mut rows = Vec::with_capacity(take as usize);
                let indices: Vec<u64> = if newest_first {
                    ((len - take)..len).rev().collect()
                } else {
                    (0..take).collect()
                };
                for i in indices {
                    if let Some(v) = self.engine.db().get(&keys::entry_key(&oid, &field, i))? {
                        rows.push(v);
                    }
                }
                Ok(StoreResponse::Rows(rows))
            }
            StoreRequest::RawCount { object, field } => {
                let oid = ObjectId::new(object);
                let ckey = keys::counter_key(&oid, &field);
                let len = keys::decode_counter(self.engine.db().get(&ckey)?.as_deref());
                Ok(StoreResponse::Count(len))
            }
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
                let results = self.engine.invoke_transaction(&calls)?;
                Ok(StoreResponse::Values(results))
            }
            StoreRequest::InstallShardChunk { shard, epoch, items } => {
                self.fence_stale_epoch(shard, epoch)?;
                // A transfer onto a disk that damaged data mid-stream must
                // not be confirmed: if the scrubber quarantined anything
                // since this session's `Begin`, installed state may already
                // have holes. Failing the chunk fails the session; repair
                // restarts it against the cleaned store. (An empty `items`
                // chunk is the sender's final health probe before it
                // proposes the confirmation.)
                {
                    let floors = self.sync_damage_floor.lock();
                    if let Some(&floor) = floors.get(&shard) {
                        let now = self.engine.db().stats().corruptions_detected;
                        if now > floor {
                            return Err(InvokeError::Storage(format!(
                                "shard {shard} transfer tainted: {} corruption(s) \
                                 detected since stream start",
                                now - floor
                            )));
                        }
                    }
                }
                for item in items {
                    match item {
                        SyncItem::Begin => {
                            // Wipe stale residue of the shard before the
                            // fresh snapshot stream (a crash-restart rejoin
                            // may hold superseded objects).
                            let state = self.placement.snapshot();
                            for oid in self.engine.list_objects() {
                                if state.shard_for_object(&oid.0) == Some(shard) {
                                    self.engine.purge_object(&oid)?;
                                }
                            }
                            // The purge-and-restream is the repair a
                            // corruption report asks for: whatever rot the
                            // quarantine took out of this shard is about to
                            // be replaced with clean state, so standing
                            // suspicion is satisfied here — not on placement
                            // inference, which can miss the eviction window
                            // and re-report a freshly healed replica.
                            self.suspect_shards.lock().remove(&shard);
                            // Baseline for the tainted-transfer check above:
                            // any detection past this point dirties the
                            // session.
                            self.sync_damage_floor
                                .lock()
                                .insert(shard, self.engine.db().stats().corruptions_detected);
                        }
                        SyncItem::Object(snap) => self.engine.install_object_replacing(&snap)?,
                        SyncItem::Forward { object, ops } => {
                            self.engine.apply_replicated_batch(&[(ObjectId::new(object), ops)])?;
                        }
                    }
                }
                self.repair_chunks_applied.incr();
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
            replications_applied: self.replications.get(),
            duplicates_suppressed: es.duplicates_suppressed,
            busy_nanos: self.busy_nanos.get(),
            uptime_nanos: self.registry.uptime_nanos(),
            run_queue_depth: qs.depth,
            inflight: qs.inflight,
            shed: qs.shed,
            follower_reads: self.follower_reads.get(),
            lease_rejections: self.lease_rejections.get(),
            invalidations_published: self.invalidations_published.get(),
            corruption_reports: self.corruption_reports.get(),
            promotion_resyncs: self.promotion_resyncs.get(),
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
            if info.primary == self.id {
                // The primary's "lease" is its own liveness attestation:
                // while its coordinator contact is fresher than one lease
                // the failure detector cannot have finished electing a
                // successor, so local reads are still linearizable.
                if !self.lease_enforce || self.primary_read_authority_ok() {
                    return Ok(());
                }
                self.lease_rejections.incr();
                return Err(InvokeError::LeaseExpired(format!(
                    "primary node-{} lost coordinator contact; cannot attest leadership of shard {shard}",
                    self.id.0
                )));
            }
            if info.backups.contains(&self.id) {
                if !self.lease_enforce {
                    return Ok(());
                }
                let held = self.leases_held.lock().get(&shard).copied();
                if let Some((epoch, expiry)) = held {
                    if epoch == info.epoch && Instant::now() < expiry {
                        self.follower_reads.incr();
                        return Ok(());
                    }
                }
                self.lease_rejections.incr();
                return Err(InvokeError::LeaseExpired(format!(
                    "node-{} holds no current read lease for shard {shard} (epoch {})",
                    self.id.0, info.epoch
                )));
            }
        } else if info.primary == self.id {
            // Reads keep serving from the source through a migration's
            // handoff (its copy stays authoritative until the commit
            // lands); mutations are fenced.
            if let Some(moved) = self.repl.handoff_fence(&self.placement, oid, shard) {
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

    /// Forward one committed write set to every syncing backup of `shard`.
    /// Called from the commit gate, still under the object's exclusive
    /// lock, so the per-object order of forwards in each session's stream
    /// equals commit order. On `Err` (the placement moved under the
    /// forward, or a session failed after admission) the gate holds the
    /// commit and asks again.
    pub(crate) fn forward_to_syncing(
        &self,
        shard: ShardId,
        epoch: Epoch,
        syncing: &[NodeId],
        object: &ObjectId,
        ops: &[(Vec<u8>, Option<Vec<u8>>)],
    ) -> Result<(), String> {
        if syncing.is_empty() {
            return Ok(());
        }
        let sessions = self.sync.sessions_for(shard);
        for &peer in syncing {
            let Some(session) = sessions.iter().find(|s| s.peer == peer && s.epoch == epoch) else {
                // A session strictly older than the commit's epoch can
                // never confirm this recruit (`ConfirmBackup` is
                // epoch-fenced), so there is nothing owed to it: the
                // recruit only joins the replica set through a future
                // session at the current epoch, whose purge + re-scan
                // covers this already-durable write. Skipping it also
                // breaks a deadlock — the stale session's scan may be
                // blocked on this very object's lock, which the committing
                // thread holds while it retries the forward.
                if sessions.iter().any(|s| s.peer == peer && s.epoch < epoch) {
                    continue;
                }
                // No session at all. If the placement cache still agrees
                // the peer is syncing at this epoch, no session for this
                // epoch has confirmed (a confirmation moves the epoch in
                // our own cache before its session is removed), so any
                // future session's Begin + re-scan covers this
                // already-durable write — bump the forward-gap token to
                // soft-fail sessions already past their snapshot of it,
                // and ack without stalling on session registration. If
                // the cache moved on, retry: the fresh placement routes
                // the write through backup replication instead.
                let now = self.placement.snapshot();
                let current = now.shard(shard);
                if current.is_some_and(|i| i.epoch == epoch && i.is_syncing(peer)) {
                    *self.forward_gaps.lock().entry(shard).or_insert(0) += 1;
                    continue;
                }
                return Err(format!(
                    "placement moved while forwarding to syncing backup {peer} \
                     at epoch {epoch}; retry"
                ));
            };
            session.offer(SyncItem::Forward { object: object.0.clone(), ops: ops.to_vec() })?;
            self.repair_sync_enqueued.incr();
        }
        Ok(())
    }

    /// Ship everything queued in `session` to its peer, in order. Returns
    /// `Err` after [`SYNC_SHIP_RETRIES`] consecutive failures on one chunk
    /// (the caller decides whether that is a soft or hard session failure).
    fn ship_pending(&self, session: &SyncSession) -> Result<(), String> {
        let ctx = InvocationContext::background();
        loop {
            let (items, last_seq) = session.take_batch(SYNC_BATCH_ITEMS);
            if items.is_empty() {
                return Ok(());
            }
            let count = items.len() as u64;
            let bytes: u64 = items.iter().map(sync_item_bytes).sum();
            let req = StoreRequest::InstallShardChunk {
                shard: session.shard,
                epoch: session.epoch,
                items,
            };
            let mut attempts = 0;
            loop {
                if self.shutdown.load(Ordering::Acquire) {
                    return Err("node shutting down".into());
                }
                match self.call_peer(&ctx, session.peer, &req) {
                    Ok(StoreResponse::Ok) => break,
                    Ok(other) => return Err(format!("bad install reply {other:?}")),
                    Err(e) => {
                        attempts += 1;
                        if attempts >= SYNC_SHIP_RETRIES {
                            return Err(format!("chunk ship to {} failed: {e}", session.peer));
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
            }
            session.mark_shipped(last_seq);
            self.repair_chunks_sent.incr();
            self.repair_bytes.add(bytes);
            self.repair_sync_shipped.add(count);
        }
    }

    /// Drive one state-transfer session end to end. `Err(hard)` aborts the
    /// session; `hard` means a durability promise was broken (failure after
    /// `ConfirmBackup` was proposed) and blocked commits must fail.
    fn drive_sync(&self, coord: &CoordClient, session: &SyncSession) -> Result<(), bool> {
        let shard = session.shard;
        let peer = session.peer;
        let epoch = session.epoch;
        let soft = |_: String| false;

        // Forward-gap snapshot: commits that find no session ack after
        // bumping this token instead of stalling. Taken before `Begin`, so
        // any bump observed later means a write this stream may have
        // missed — the session must fail instead of confirming, and its
        // replacement's re-scan picks the write up.
        let gap0 = self.forward_gaps.lock().get(&shard).copied().unwrap_or(0);

        // Stream start: the peer wipes stale residue of the shard.
        session.offer(SyncItem::Begin).map_err(soft)?;
        self.repair_sync_enqueued.incr();
        self.ship_pending(session).map_err(soft)?;

        // Bulk scan. The object list is a point-in-time enumeration;
        // objects created after it forward through the session (their
        // create commit happens with the session open), and per-object
        // lock ordering keeps each object's snapshot/forward sequence in
        // commit order.
        let state = self.placement.snapshot();
        let mut ids: Vec<ObjectId> = self
            .engine
            .list_objects()
            .into_iter()
            .filter(|o| state.shard_for_object(&o.0) == Some(shard))
            .collect();
        ids.sort_by(|a, b| a.0.cmp(&b.0));
        for oid in ids {
            if self.shutdown.load(Ordering::Acquire) {
                return Err(false);
            }
            // Abort when the configuration moved on under us (another
            // failover, or the recruit was dropped).
            let now = self.placement.snapshot();
            let Some(info) = now.shard(shard).cloned() else { return Err(false) };
            if info.epoch != epoch || !info.is_syncing(peer) {
                return Err(false);
            }
            match self
                .engine
                .export_object_with(&oid, |snap| session.offer(SyncItem::Object(snap.clone())))
            {
                Ok(Ok(())) => self.repair_sync_enqueued.incr(),
                Ok(Err(e)) => return Err(soft(e)),
                // Deleted while we scanned: nothing to transfer.
                Err(InvokeError::UnknownObject(_)) => {}
                Err(e) => return Err(soft(e.to_string())),
            }
            self.ship_pending(session).map_err(soft)?;
        }

        // Drain: commits now block until their forward ships, squeezing
        // the stream dry before promotion.
        session.set_phase(SyncPhase::Draining);
        self.ship_pending(session).map_err(soft)?;
        {
            let now = self.placement.snapshot();
            let Some(info) = now.shard(shard).cloned() else { return Err(false) };
            if info.epoch != epoch || !info.is_syncing(peer) {
                return Err(false);
            }
        }

        // Forward-gap check: a commit raced session registration and acked
        // with its forward unshipped. This stream may predate that write —
        // abandon the recruit; the replacement session re-scans everything.
        if self.forward_gaps.lock().get(&shard).copied().unwrap_or(0) != gap0 {
            return Err(false);
        }

        // Final health probe: an empty chunk that the peer only acks while
        // its store has detected no corruption since this session's Begin.
        // A recruit whose scrubber quarantined installed transfer state
        // must fail here, before its confirmation can be proposed.
        {
            let ctx = InvocationContext::background();
            let probe = StoreRequest::InstallShardChunk { shard, epoch, items: Vec::new() };
            match self.call_peer(&ctx, peer, &probe) {
                Ok(StoreResponse::Ok) => {}
                Ok(_) | Err(_) => return Err(false),
            }
        }

        // Admit BEFORE proposing: once the confirmation may be chosen, a
        // ship failure must fail the waiting commit rather than ack it
        // without the (about-to-be-counted) new replica.
        session.set_phase(SyncPhase::Admitted);
        let _ = coord.propose(lambda_coordinator::CoordCmd::ConfirmBackup {
            shard,
            node: peer,
            expected_epoch: epoch,
        });

        // Keep shipping while waiting for the epoch to move past the
        // session's: either our confirmation applied (peer is a backup) or
        // a concurrent reconfiguration won the fencing race.
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            self.ship_pending(session).map_err(|_| true)?;
            let now = self.placement.snapshot();
            let Some(info) = now.shard(shard).cloned() else { return Err(false) };
            if info.epoch > epoch {
                self.ship_pending(session).map_err(|_| true)?;
                return if info.backups.contains(&peer) { Ok(()) } else { Err(false) };
            }
            if Instant::now() > deadline || self.shutdown.load(Ordering::Acquire) {
                // Ambiguous: the confirmation may yet be chosen. Hard-fail
                // so no commit is acked into the ambiguity.
                return Err(true);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Run one registered transfer session to completion and tear it down
    /// (the scanner registered it in [`SyncManager`] before spawning us).
    fn run_sync_session(&self, coord: &CoordClient, session: Arc<SyncSession>) {
        match self.drive_sync(coord, &session) {
            Ok(()) => session.set_phase(SyncPhase::Done),
            Err(hard) => {
                session.set_phase(SyncPhase::Failed { hard });
                self.repair_sessions_failed.incr();
            }
        }
        self.sync.remove(session.shard, session.peer);
    }

    /// Count one invocation against `object` for the next heartbeat's
    /// load report.
    fn tally_invoke(&self, object: &[u8]) {
        let mut tally = self.invoke_tally.lock();
        if let Some(n) = tally.get_mut(object) {
            *n += 1;
        } else {
            tally.insert(object.to_vec(), 1);
        }
    }

    /// Drain the per-object invocation tally into a coordinator load
    /// report: total invocations since the last beat plus the hottest
    /// [`HOT_REPORT_TOP_K`] objects, and the instantaneous run-queue depth.
    fn drain_load(&self) -> NodeLoad {
        let tally: HashMap<Vec<u8>, u64> = std::mem::take(&mut *self.invoke_tally.lock());
        let invocations: u64 = tally.values().sum();
        let mut hot: Vec<(Vec<u8>, u64)> = tally.into_iter().collect();
        hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hot.truncate(HOT_REPORT_TOP_K);
        NodeLoad { queue_depth: self.rpc().queue_stats().depth, invocations, hot }
    }

    /// Drive one coordinator-owned migration as the source shard's
    /// primary: warm copy, handoff, final fenced copy, commit, retire the
    /// source copy. Every step is idempotent against the replicated phase,
    /// so a crashed driver's successor (a restarted source primary, or a
    /// promoted backup once the coordinator re-plans) resumes cleanly; a
    /// persistent target failure rolls the plan back with
    /// `AbortMigration` and the source keeps serving from its own copy.
    fn drive_migration(&self, coord: &CoordClient, object: Vec<u8>, planned: MigrationInfo) {
        if let Err(reason) = self.drive_migration_steps(coord, &object, &planned) {
            self.migrations_aborted.incr();
            // Identity-guarded: if this plan was already superseded by a
            // fresh one (our ship retries outlived the entry), the abort
            // must not kill the successor — mismatched fields no-op.
            let _ = coord.propose(CoordCmd::AbortMigration {
                object: object.clone(),
                from: planned.from,
                to: planned.to,
                from_primary: planned.from_primary,
                to_primary: planned.to_primary,
                reason,
            });
        }
        self.migrations_driving.lock().remove(&object);
    }

    fn drive_migration_steps(
        &self,
        coord: &CoordClient,
        object: &[u8],
        planned: &MigrationInfo,
    ) -> Result<(), String> {
        let oid = ObjectId::new(object.to_vec());
        let mut warmed = false;
        let mut announced = false;
        let mut shipped_final = false;
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return Ok(());
            }
            let state = self.placement.snapshot();
            let Some(m) = state.migrations.get(object) else {
                // Chosen out of the log: committed (placement follows the
                // object to the target in the same state version) or
                // aborted (placement unchanged, source keeps serving).
                if state.shard_for_object(object) == Some(planned.to) {
                    self.retire_migrated_object(&state, &oid, planned.from, planned.to);
                    self.migrations_completed.incr();
                }
                return Ok(());
            };
            if (m.from, m.to, m.from_primary, m.to_primary)
                != (planned.from, planned.to, planned.from_primary, planned.to_primary)
            {
                // The entry we're looking at is a *successor* plan (ours
                // was aborted and re-planned while we were stuck in ship
                // retries). Our warm/handoff flags describe the old plan —
                // bail and let the successor's own driver run it.
                return Ok(());
            }
            let Some(src) = state.shard(m.from) else { return Ok(()) };
            if src.primary != self.id || src.lost {
                // Deposed mid-drive: the coordinator's liveness GC aborts
                // the entry; whoever leads next starts a fresh plan.
                return Ok(());
            }
            let Some(dst) = state.shard(m.to) else { return Ok(()) };
            match m.phase {
                MigrationPhase::Planned | MigrationPhase::Copying => {
                    if !warmed {
                        // Warm copy: get the bulk of the object durable at
                        // the target while the source still serves
                        // everything. The target install replaces
                        // wholesale, so re-running after a crash is fine.
                        let snap = match self.engine.export_object(&oid) {
                            Ok(snap) => snap,
                            Err(e) => return Err(format!("warm export of {oid}: {e}")),
                        };
                        self.ship_migrate_install(dst.primary, object, planned, snap, m.to)?;
                        warmed = true;
                    }
                    if !announced {
                        // Both proposals must land for the plan to make
                        // progress — a swallowed failure (e.g. the propose
                        // raced a coordinator replica's death) would
                        // otherwise park this driver in Copying forever,
                        // so only a confirmed choice sets the flag and a
                        // failure retries next iteration.
                        if m.phase == MigrationPhase::Planned {
                            let _ = coord
                                .propose(CoordCmd::MigrationCopying { object: object.to_vec() });
                        }
                        if coord
                            .propose(CoordCmd::MigrationHandoff { object: object.to_vec() })
                            .is_ok()
                        {
                            announced = true;
                        }
                    }
                    // Wait for our own placement to reflect the handoff:
                    // the fence must be visible locally before the final
                    // copy, or a racing commit could ack after it.
                }
                MigrationPhase::Handoff => {
                    if !announced {
                        // Resuming an interrupted handoff (driver restart):
                        // re-propose the idempotent phase change so the
                        // coordinator counts the resumption. The phase is
                        // already replicated, so a failure here is not
                        // load-bearing — don't retry, just stop claiming
                        // the resumption happened.
                        let _ =
                            coord.propose(CoordCmd::MigrationHandoff { object: object.to_vec() });
                        announced = true;
                    }
                    if !shipped_final {
                        // The fence is active in our placement: admission
                        // refuses new mutations and racing commits fail at
                        // commit time, so this snapshot — taken under the
                        // object's exclusive lock — is the final word,
                        // dedup records included.
                        let snap = match self.engine.export_object(&oid) {
                            Ok(snap) => snap,
                            Err(e) => return Err(format!("final export of {oid}: {e}")),
                        };
                        self.ship_migrate_install(dst.primary, object, planned, snap, m.to)?;
                        shipped_final = true;
                    }
                    // Idempotent: a duplicate commit against a vanished
                    // entry is a no-op at the coordinator.
                    let _ = coord.propose(CoordCmd::CommitMigration { object: object.to_vec() });
                }
            }
            std::thread::sleep(MIGRATE_POLL_PAUSE);
        }
    }

    /// Ship a snapshot to the migration target's primary, retrying through
    /// transient faults; a persistent failure aborts the migration.
    ///
    /// Each retry re-checks the replicated plan: a dead target means the
    /// retries span seconds, long enough for the coordinator's liveness GC
    /// to abort the entry and a successor plan to appear. Bailing as soon
    /// as the plan we're serving is gone keeps a stuck driver from
    /// shipping a stale snapshot at (or past) the successor.
    fn ship_migrate_install(
        &self,
        target: NodeId,
        object: &[u8],
        planned: &MigrationInfo,
        snapshot: lambda_objects::migration::ObjectSnapshot,
        shard: ShardId,
    ) -> Result<(), String> {
        let ctx = InvocationContext::background();
        let req = StoreRequest::MigrateInstall { snapshot, shard };
        let mut last = String::new();
        for attempt in 0..MIGRATE_SHIP_RETRIES {
            if self.shutdown.load(Ordering::Acquire) {
                return Err("node shutting down".into());
            }
            if attempt > 0 {
                let state = self.placement.snapshot();
                let live = state.migrations.get(object).is_some_and(|m| {
                    (m.from, m.to, m.from_primary, m.to_primary)
                        == (planned.from, planned.to, planned.from_primary, planned.to_primary)
                });
                if !live {
                    return Err("plan superseded mid-ship".into());
                }
            }
            match self.call_peer(&ctx, target, &req) {
                Ok(StoreResponse::Ok) => return Ok(()),
                Ok(other) => last = format!("bad reply {other:?}"),
                Err(e) => last = e.to_string(),
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err(format!("install at node-{} failed: {last}", target.0))
    }

    /// The migration committed: the object now lives at the target, so the
    /// source copy (ours and our backups') is residue. Purge locally and
    /// ship the deletions to the shard's backups best-effort — leftover
    /// keys there are harmless (placement no longer maps the object here,
    /// and any later install replaces wholesale), so failures are ignored.
    ///
    /// A node holds ONE copy of an object, not one per shard: when the
    /// source and target shards share replicas, the overlap nodes' copy
    /// *is* the target's data now, so both the local purge and the delete
    /// fan-out must skip every member of the target shard.
    fn retire_migrated_object(
        &self,
        state: &ClusterState,
        oid: &ObjectId,
        from: ShardId,
        to: ShardId,
    ) {
        let in_target = |node: NodeId| state.shard(to).is_some_and(|dst| dst.contains(node));
        let prefix = keys::object_prefix(oid);
        let ops: Vec<(Vec<u8>, Option<Vec<u8>>)> =
            self.engine.db().scan_prefix(&prefix).map(|(k, _)| (k, None)).collect();
        if ops.is_empty() {
            return;
        }
        if !in_target(self.id) && self.engine.purge_object(oid).is_err() {
            return;
        }
        if let Some(info) = state.shard(from) {
            let ctx = InvocationContext::background();
            let req = StoreRequest::ReplicateBatch {
                shard: from,
                epoch: info.epoch,
                entries: vec![(oid.0.clone(), ops)],
                lease_nanos: 0,
            };
            for backup in info.backups.iter().filter(|b| !in_target(**b)) {
                let _ = self.call_peer(&ctx, *backup, &req);
            }
        }
    }
}

impl InvokeRouter for NodeInner {
    fn route(
        &self,
        ctx: &InvocationContext,
        _source: &ObjectId,
        target: &ObjectId,
        method: &str,
        args: Vec<VmValue>,
        depth: usize,
    ) -> Result<VmValue, InvokeError> {
        match self.placement.locate(target) {
            Some((_, info)) if info.primary != self.id => {
                // Remote object: one hop to its primary (§4.2.1 — "a
                // function invocation results in at most one network
                // round-trip within the responsible replica set"). The
                // caller's context rides along, so the remote engine's
                // spans join this trace and its scheduler enforces what is
                // left of the deadline.
                let req = StoreRequest::Invoke {
                    object: target.0.clone(),
                    method: method.to_string(),
                    args,
                    read_only: false,
                    internal: true,
                    collect_read_set: false,
                };
                match self.call_peer(ctx, info.primary, &req)? {
                    StoreResponse::Value(v) => Ok(v),
                    other => Err(InvokeError::Nested(format!("bad reply {other:?}"))),
                }
            }
            _ => self.engine.invoke_ctx(ctx, target, method, args, false, depth),
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
        let engine =
            Arc::new(Engine::with_registry(db, types, config.engine, Arc::clone(&registry)));

        let inner = Arc::new(NodeInner {
            id,
            engine,
            placement: Placement::new(),
            rpc: OnceLock::new(),
            self_ref: OnceLock::new(),
            rpc_timeout: config.rpc_timeout,
            requests: registry.counter("node_requests"),
            replications: registry.counter("node_replications_applied"),
            busy_nanos: registry.counter("node_busy_nanos"),
            shutdown: AtomicBool::new(false),
            repl: ReplState::new(&registry),
            q_depth: registry.gauge("rpc_queue_depth"),
            q_inflight: registry.gauge("rpc_inflight"),
            q_shed: registry.gauge("rpc_shed"),
            sync: SyncManager::new(),
            repair_chunks_sent: registry.counter("repair_chunks_sent"),
            repair_bytes: registry.counter("repair_bytes"),
            repair_chunks_applied: registry.counter("repair_chunks_applied"),
            repair_sessions_failed: registry.counter("repair_sessions_failed"),
            repair_sync_enqueued: registry.counter("repair_sync_enqueued"),
            repair_sync_shipped: registry.counter("repair_sync_shipped"),
            lease_duration: config.lease_duration,
            lease_enforce: !config.coordinators.is_empty(),
            started: Instant::now(),
            last_coord_ok: AtomicU64::new(0),
            leases_held: Mutex::new(HashMap::new()),
            leases_granted: Mutex::new(HashMap::new()),
            commit_fences: Mutex::new(HashMap::new()),
            subscribers: Mutex::new(Vec::new()),
            follower_reads: registry.counter("lease_follower_reads"),
            lease_rejections: registry.counter("lease_rejections"),
            lease_renewals: registry.counter("lease_renewals"),
            invalidations_published: registry.counter("invalidations_published"),
            recent_commits: Mutex::new(HashMap::new()),
            suspect_shards: Mutex::new(HashMap::new()),
            sync_damage_floor: Mutex::new(HashMap::new()),
            forward_gaps: Mutex::new(HashMap::new()),
            corruption_reports: registry.counter("node_corruption_reports"),
            promotion_resyncs: registry.counter("node_promotion_resyncs"),
            invoke_tally: Mutex::new(HashMap::new()),
            migrations_driving: Mutex::new(HashSet::new()),
            migrations_completed: registry.counter("node_migrations_completed"),
            migrations_aborted: registry.counter("node_migrations_aborted"),
            registry,
        });

        // Service endpoint. `Invoke` is served as a *deferred reply*: the
        // worker thread hands the parked `Responder` to the engine's
        // continuation chain and is released while the invocation waits on
        // the object lock, the group commit, or replication acks — the
        // reply is a completion, not a return value. Every other request
        // kind still replies inline.
        let handler_inner = Arc::clone(&inner);
        let handler: Handler =
            Arc::new(move |_from: NodeId, body: Vec<u8>, responder: Responder| {
                let started = Instant::now();
                let (ctx, req) = match proto::decode_request(&body) {
                    Ok(decoded) => decoded,
                    Err(e) => {
                        responder.reply(Err(e.to_string()));
                        return;
                    }
                };
                if let StoreRequest::Invoke {
                    object,
                    method,
                    args,
                    read_only,
                    internal,
                    collect_read_set,
                } = req
                {
                    handler_inner.requests.incr();
                    let oid = ObjectId::new(object);
                    if let Err(e) = handler_inner.check_role(&oid, read_only) {
                        handler_inner.busy_nanos.add(started.elapsed().as_nanos() as u64);
                        responder.reply(Err(encode_error(&e)));
                        return;
                    }
                    handler_inner.tally_invoke(oid.as_bytes());
                    let busy = handler_inner.busy_nanos.clone();
                    handler_inner.engine.invoke_deferred(
                        &ctx,
                        &oid,
                        &method,
                        args,
                        !internal,
                        Box::new(move |result| {
                            let reply = result.map(|(value, read_set)| match read_set {
                                // Only cacheable (deterministic read-only)
                                // invocations carry a read set, and only
                                // when the client asked.
                                Some(read_set) if collect_read_set => {
                                    StoreResponse::CachedValue { value, read_set }
                                }
                                _ => StoreResponse::Value(value),
                            });
                            busy.add(started.elapsed().as_nanos() as u64);
                            responder.reply(encode_reply(reply));
                        }),
                    );
                    return;
                }
                let result = encode_reply(handler_inner.handle(&ctx, req));
                handler_inner.busy_nanos.add(started.elapsed().as_nanos() as u64);
                responder.reply(result);
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

        // Heartbeat + state-poll loop, and the repair scanner that opens
        // state-transfer sessions for recruits the coordinator assigned us.
        if !config.coordinators.is_empty() {
            let coord = Arc::new(CoordClient::new(
                Arc::clone(&rpc),
                config.coordinators.clone(),
                config.rpc_timeout,
            ));
            let hb_coord = Arc::clone(&coord);
            let hb_inner = Arc::clone(&inner);
            let interval = config.heartbeat_interval;
            let watch_id = NodeId(id.0 + WATCH_ID_OFFSET);
            std::thread::Builder::new()
                .name(format!("store-{id}-heartbeat"))
                .spawn(move || loop {
                    if hb_inner.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    // The load report rides the heartbeat: queue depth plus
                    // the hottest objects since the last beat, feeding the
                    // coordinator's rebalancer.
                    let load = hb_inner.drain_load();
                    if hb_coord.heartbeat(hb_inner.id, Some(watch_id), Some(load)).is_ok() {
                        hb_inner.note_coord_ok();
                    }
                    if let Ok(Some(state)) = hb_coord.get_state(hb_inner.placement.version()) {
                        hb_inner.install_placement(state);
                    }
                    // Re-grant read leases to the backups of every shard
                    // this node leads, so write-idle shards stay readable.
                    hb_inner.renew_leases();
                    // Disk health: surface unrecoverable kv corruptions to
                    // the coordinator so the replica sets repair around
                    // this node's bad media.
                    hb_inner.report_corruption(&hb_coord);
                    // Housekeeping: drop lock-table entries for idle objects.
                    hb_inner.engine.scheduler().gc();
                    std::thread::sleep(interval);
                })
                .expect("spawn heartbeat");

            // Migration scanner: drive every replicated migration whose
            // source shard this node leads. The plan lives in the Paxos
            // log, so a restarted source primary finds it again here and
            // resumes from the recorded phase.
            let mig_inner = Arc::clone(&inner);
            let mig_coord = Arc::clone(&coord);
            std::thread::Builder::new()
                .name(format!("store-{id}-migrate"))
                .spawn(move || loop {
                    if mig_inner.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    let state = mig_inner.placement.snapshot();
                    for (object, m) in &state.migrations {
                        let Some(src) = state.shard(m.from) else { continue };
                        if src.primary != mig_inner.id || src.lost {
                            continue;
                        }
                        // Claim before spawning so the next scan skips it.
                        if !mig_inner.migrations_driving.lock().insert(object.clone()) {
                            continue;
                        }
                        let n = Arc::clone(&mig_inner);
                        let c = Arc::clone(&mig_coord);
                        let (object, m) = (object.clone(), m.clone());
                        std::thread::Builder::new()
                            .name(format!("store-{}-migrate-drive", n.id))
                            .spawn(move || n.drive_migration(&c, object, m))
                            .expect("spawn migration driver");
                    }
                    std::thread::sleep(interval);
                })
                .expect("spawn migration scanner");

            let sync_inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("store-{id}-sync"))
                .spawn(move || loop {
                    if sync_inner.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    let state = sync_inner.placement.snapshot();
                    for (&shard, info) in &state.shards {
                        if info.primary != sync_inner.id || info.lost {
                            continue;
                        }
                        for &peer in &info.syncing {
                            if sync_inner.sync.contains(shard, peer) {
                                continue;
                            }
                            // Register before spawning so the next scan
                            // (and concurrent commits) see the session.
                            let session = SyncSession::new(shard, peer, info.epoch);
                            sync_inner.sync.insert(Arc::clone(&session));
                            let n = Arc::clone(&sync_inner);
                            let c = Arc::clone(&coord);
                            std::thread::Builder::new()
                                .name(format!("store-{}-sync-{shard}-{peer}", n.id))
                                .spawn(move || n.run_sync_session(&c, session))
                                .expect("spawn sync session");
                        }
                    }
                    std::thread::sleep(interval);
                })
                .expect("spawn sync scanner");
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

    /// Enable or disable per-shard replication batching (ABL-GROUPCOMMIT
    /// ablation). When disabled each committed write set is shipped as its
    /// own RPC.
    pub fn set_replication_batching(&self, enabled: bool) {
        self.inner.repl.set_batching(enabled);
    }

    /// `(rounds, entries)` shipped through the batched replication path;
    /// `entries / rounds` is the mean replication window size.
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
