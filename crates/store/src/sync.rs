//! State transfer for self-healing replication: the primary-side sessions
//! and their driver, and the recruit-side apply.
//!
//! [`SyncState`] owns the session table, the forward-gap tokens, the
//! recruit's damage floor and the `repair_*` counters, and is the only code
//! that locks them.
//!
//! When the coordinator recruits a syncing backup (`AddBackup`), the
//! shard's primary opens one [`SyncSession`] per recruit: a single FIFO
//! stream of [`SyncItem`]s shipped in order by a dedicated worker thread.
//! Both object snapshots and forwarded commits are enqueued *while holding
//! the object's exclusive lock*, so per-object stream order equals commit
//! order — the receiver can apply items blindly in sequence and converge.
//!
//! The session moves through phases:
//!
//! ```text
//! Streaming ──► Draining ──► Admitted ──► Done
//!     │             │            │
//!     └─────────────┴────────────┴──► Failed { hard }
//! ```
//!
//! - **Streaming**: the bulk snapshot scan; commits forward without
//!   blocking (fire-and-forget enqueue).
//! - **Draining**: snapshot done; each commit waits until its forward is
//!   shipped, squeezing the stream dry before promotion.
//! - **Admitted**: `ConfirmBackup` has been proposed — the recruit may
//!   already count as a replica, so a ship failure is *hard*: the waiting
//!   commit must fail rather than be acked without the new backup.
//! - **Failed { hard: false }** (before admission) only abandons the
//!   recruit; in-flight commits were never promised the new replica, so
//!   they succeed on the old replica set.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};

use lambda_coordinator::{CoordClient, CoordCmd, Epoch, ShardId};
use lambda_net::NodeId;
use lambda_objects::{Counter, InvokeError, ObjectId, Registry};

use crate::aggregated::NodeInner;
use crate::proto::{StoreRequest, SyncItem};

/// Items per `InstallShardChunk` RPC on the push path.
const SYNC_BATCH_ITEMS: usize = 32;
/// Send attempts per chunk before a session gives up on its peer.
const SYNC_SHIP_RETRIES: usize = 10;
/// Pause between attempts at one chunk.
const SYNC_SHIP_PAUSE: Duration = Duration::from_millis(20);

/// Session phase; see the module docs for the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SyncPhase {
    /// Bulk snapshot scan; forwards enqueue without blocking.
    Streaming,
    /// Scan finished; forwards block until shipped.
    Draining,
    /// `ConfirmBackup` proposed; ship failures fail the commit.
    Admitted,
    /// Transfer complete, session closing.
    Done,
    /// Transfer aborted; `hard` when a durability promise was broken.
    Failed {
        /// True when the failure happened after admission.
        hard: bool,
    },
}

struct SessState {
    queue: VecDeque<(u64, SyncItem)>,
    next_seq: u64,
    shipped_seq: u64,
    phase: SyncPhase,
}

/// One in-flight state transfer: primary → one syncing backup.
pub(crate) struct SyncSession {
    /// Shard under transfer.
    pub(crate) shard: ShardId,
    /// The syncing backup receiving the stream.
    pub(crate) peer: NodeId,
    /// The shard epoch the session was opened under; forwards are only
    /// accepted from commits at exactly this epoch (older are stale, newer
    /// means the recruit was already confirmed and uses normal
    /// replication).
    pub(crate) epoch: Epoch,
    state: Mutex<SessState>,
    cv: Condvar,
}

impl SyncSession {
    /// Open a session in the Streaming phase.
    fn new(shard: ShardId, peer: NodeId, epoch: Epoch) -> Arc<SyncSession> {
        Arc::new(SyncSession {
            shard,
            peer,
            epoch,
            state: Mutex::new(SessState {
                queue: VecDeque::new(),
                next_seq: 0,
                shipped_seq: 0,
                phase: SyncPhase::Streaming,
            }),
            cv: Condvar::new(),
        })
    }

    /// The error an offer this session can no longer honour fails with.
    fn refusal(&self, why: &str) -> InvokeError {
        InvokeError::Storage(format!("sync session to {} {why}", self.peer))
    }

    /// Enqueue one stream item. In Streaming this returns immediately; in
    /// Draining/Admitted it blocks until the item is shipped to the peer.
    ///
    /// # Errors
    /// `Err` when the stream can no longer deliver the item under a
    /// durability promise: a hard failure, or the session closed before
    /// the item shipped (the caller's commit must fail so the client
    /// retries against fresh placement).
    fn offer(&self, item: SyncItem) -> Result<(), InvokeError> {
        let mut st = self.state.lock();
        match st.phase {
            SyncPhase::Done => {
                return Err(self.refusal("closed; retry"));
            }
            SyncPhase::Failed { hard } => {
                return if hard {
                    Err(self.refusal("failed after admission"))
                } else {
                    Ok(()) // recruit abandoned pre-promise; nothing owed
                };
            }
            SyncPhase::Streaming | SyncPhase::Draining | SyncPhase::Admitted => {}
        }
        st.next_seq += 1;
        let seq = st.next_seq;
        st.queue.push_back((seq, item));
        self.cv.notify_all();
        if st.phase == SyncPhase::Streaming {
            return Ok(());
        }
        // Draining/Admitted: wait for the worker to ship our item.
        loop {
            if st.shipped_seq >= seq {
                return Ok(());
            }
            match st.phase {
                SyncPhase::Failed { hard: true } => {
                    return Err(self.refusal("failed after admission"));
                }
                SyncPhase::Failed { hard: false } => return Ok(()),
                SyncPhase::Done => {
                    return Err(self.refusal("closed before ship; retry"));
                }
                _ => {}
            }
            self.cv.wait(&mut st);
        }
    }

    /// Worker: drain up to `max_items` from the stream head without
    /// blocking. Returns the items and the sequence number of the last one
    /// (to pass to [`mark_shipped`](SyncSession::mark_shipped)).
    fn take_batch(&self, max_items: usize) -> (Vec<SyncItem>, u64) {
        let mut st = self.state.lock();
        let mut items = Vec::new();
        let mut last = st.shipped_seq;
        while items.len() < max_items {
            match st.queue.pop_front() {
                Some((seq, item)) => {
                    last = seq;
                    items.push(item);
                }
                None => break,
            }
        }
        (items, last)
    }

    /// Worker: record that everything up to `seq` reached the peer.
    fn mark_shipped(&self, seq: u64) {
        let mut st = self.state.lock();
        if seq > st.shipped_seq {
            st.shipped_seq = seq;
        }
        self.cv.notify_all();
    }

    /// Worker: advance the phase.
    fn set_phase(&self, phase: SyncPhase) {
        let mut st = self.state.lock();
        st.phase = phase;
        self.cv.notify_all();
    }
}

/// One node's state-transfer state, in both roles.
pub(crate) struct SyncState {
    /// Primary role: open sessions, keyed by (shard, peer).
    sessions: RwLock<HashMap<(ShardId, NodeId), Arc<SyncSession>>>,
    /// Primary role: forward-gap token per shard, bumped when a commit
    /// could not forward to a syncing recruit because no session was open
    /// yet. A session snapshots the token at start and refuses to propose
    /// `ConfirmBackup` if it moved: the gapped write is already durable
    /// locally, so the replacement session's re-scan covers it, while the
    /// commit acks without stalling on session registration.
    forward_gaps: Mutex<HashMap<ShardId, u64>>,
    /// Recruit role: per-shard corruption-detection count at the last
    /// `Begin` received. Chunks arriving after the count moves are refused,
    /// failing the transfer before it can confirm a replica with
    /// quarantine holes in its freshly-installed state.
    damage_floor: Mutex<HashMap<ShardId, u64>>,
    /// `InstallShardChunk` RPCs shipped to syncing backups.
    chunks_sent: Counter,
    /// Payload bytes shipped through state transfer.
    bytes: Counter,
    /// Chunks applied here as a syncing backup.
    chunks_applied: Counter,
    /// Transfer sessions that aborted before promotion (or failed hard).
    sessions_failed: Counter,
    /// Stream items accepted into sessions (with `shipped` below, the
    /// difference is the node's total sync lag).
    enqueued: Counter,
    /// Stream items acked by syncing backups.
    shipped: Counter,
}

impl SyncState {
    pub(crate) fn new(registry: &Registry) -> SyncState {
        SyncState {
            sessions: RwLock::default(),
            forward_gaps: Mutex::default(),
            damage_floor: Mutex::default(),
            chunks_sent: registry.counter("repair_chunks_sent"),
            bytes: registry.counter("repair_bytes"),
            chunks_applied: registry.counter("repair_chunks_applied"),
            sessions_failed: registry.counter("repair_sessions_failed"),
            enqueued: registry.counter("repair_sync_enqueued"),
            shipped: registry.counter("repair_sync_shipped"),
        }
    }

    /// Register a session to `peer` for `shard` unless one is already open
    /// (whatever its epoch: a stale session fails on its own and the next
    /// reconcile replaces it). Registered before its driver starts, so the
    /// next reconcile and concurrent commits already see it.
    pub(crate) fn open(
        &self,
        shard: ShardId,
        peer: NodeId,
        epoch: Epoch,
    ) -> Option<Arc<SyncSession>> {
        let mut sessions = self.sessions.write();
        if sessions.contains_key(&(shard, peer)) {
            return None;
        }
        let session = SyncSession::new(shard, peer, epoch);
        sessions.insert((shard, peer), Arc::clone(&session));
        Some(session)
    }

    /// All open sessions streaming `shard`.
    fn sessions_for(&self, shard: ShardId) -> Vec<Arc<SyncSession>> {
        self.sessions
            .read()
            .iter()
            .filter(|((s, _), _)| *s == shard)
            .map(|(_, sess)| Arc::clone(sess))
            .collect()
    }

    fn forward_gap(&self, shard: ShardId) -> u64 {
        self.forward_gaps.lock().get(&shard).copied().unwrap_or(0)
    }
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

impl NodeInner {
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
    ) -> Result<(), InvokeError> {
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
                if self.still_syncing(shard, epoch, peer) {
                    *self.sync.forward_gaps.lock().entry(shard).or_insert(0) += 1;
                    continue;
                }
                return Err(InvokeError::Storage(format!(
                    "placement moved while forwarding to syncing backup {peer} \
                     at epoch {epoch}; retry"
                )));
            };
            session.offer(SyncItem::Forward { object: object.0.clone(), ops: ops.to_vec() })?;
            self.sync.enqueued.incr();
        }
        Ok(())
    }

    /// True while the placement still has `peer` syncing into `shard` at
    /// exactly `epoch` — the only configuration a session opened under
    /// `epoch` can confirm.
    fn still_syncing(&self, shard: ShardId, epoch: Epoch, peer: NodeId) -> bool {
        self.placement.shard_info(shard).is_some_and(|i| i.epoch == epoch && i.is_syncing(peer))
    }

    /// Ship everything queued in `session` to its peer, in order. Returns
    /// `Err` once one chunk exhausts [`SYNC_SHIP_RETRIES`] (the caller
    /// decides whether that is a soft or hard session failure).
    fn ship_pending(&self, session: &SyncSession) -> Result<(), InvokeError> {
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
            self.ship(session.peer, &req, SYNC_SHIP_RETRIES, SYNC_SHIP_PAUSE, || true)?;
            session.mark_shipped(last_seq);
            self.sync.chunks_sent.incr();
            self.sync.bytes.add(bytes);
            self.sync.shipped.add(count);
        }
    }

    /// Drive one state-transfer session end to end. `Err(hard)` aborts the
    /// session; `hard` means a durability promise was broken (failure after
    /// `ConfirmBackup` was proposed) and blocked commits must fail.
    fn drive_sync(&self, coord: &CoordClient, session: &SyncSession) -> Result<(), bool> {
        let (shard, peer, epoch) = (session.shard, session.peer, session.epoch);

        // Forward-gap snapshot (see `SyncState::forward_gaps`), taken
        // before `Begin`: any bump observed later means a write this
        // stream may have missed.
        let gap0 = self.sync.forward_gap(shard);

        // Stream start: the peer wipes stale residue of the shard.
        session.offer(SyncItem::Begin).map_err(|_| false)?;
        self.sync.enqueued.incr();
        self.ship_pending(session).map_err(|_| false)?;

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
            // Abort when the configuration moved on under us (another
            // failover, or the recruit was dropped).
            if self.shutdown.load(Ordering::Acquire) || !self.still_syncing(shard, epoch, peer) {
                return Err(false);
            }
            match self
                .engine
                .export_object_with(&oid, |snap| session.offer(SyncItem::Object(snap.clone())))
            {
                Ok(Ok(())) => self.sync.enqueued.incr(),
                Ok(Err(_)) => return Err(false),
                // Deleted while we scanned: nothing to transfer.
                Err(InvokeError::UnknownObject(_)) => {}
                Err(_) => return Err(false),
            }
            self.ship_pending(session).map_err(|_| false)?;
        }

        // Drain: commits now block until their forward ships, squeezing
        // the stream dry before promotion.
        session.set_phase(SyncPhase::Draining);
        self.ship_pending(session).map_err(|_| false)?;
        if !self.still_syncing(shard, epoch, peer) {
            return Err(false);
        }

        // A commit raced session registration and acked with its forward
        // unshipped: abandon the recruit; the replacement re-scans.
        if self.sync.forward_gap(shard) != gap0 {
            return Err(false);
        }

        // Final health probe: an empty chunk, which the peer only acks
        // while its store has detected no corruption since `Begin` (see
        // `SyncState::damage_floor`).
        let probe = StoreRequest::InstallShardChunk { shard, epoch, items: Vec::new() };
        self.ship(peer, &probe, 1, Duration::ZERO, || true).map_err(|_| false)?;

        // Admit BEFORE proposing: once the confirmation may be chosen, a
        // ship failure must fail the waiting commit rather than ack it
        // without the (about-to-be-counted) new replica.
        session.set_phase(SyncPhase::Admitted);
        let _ = coord.propose(CoordCmd::ConfirmBackup { shard, node: peer, expected_epoch: epoch });

        // Keep shipping while waiting for the epoch to move past the
        // session's: either our confirmation applied (peer is a backup) or
        // a concurrent reconfiguration won the fencing race.
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            self.ship_pending(session).map_err(|_| true)?;
            let Some(info) = self.placement.shard_info(shard) else { return Err(false) };
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

    /// Start the driver of a session [`SyncState::open`] just registered:
    /// one parked thread that runs the transfer to completion and tears
    /// the session down.
    pub(crate) fn spawn_sync_session(&self, coord: &Arc<CoordClient>, session: Arc<SyncSession>) {
        let (node, coord) = (self.arc(), Arc::clone(coord));
        std::thread::Builder::new()
            .name(format!("store-{}-sync-{}-{}", self.id, session.shard, session.peer))
            .spawn(move || {
                match node.drive_sync(&coord, &session) {
                    Ok(()) => session.set_phase(SyncPhase::Done),
                    Err(hard) => {
                        session.set_phase(SyncPhase::Failed { hard });
                        node.sync.sessions_failed.incr();
                    }
                }
                node.sync.sessions.write().remove(&(session.shard, session.peer));
            })
            .expect("spawn sync session");
    }

    /// Recruit role: apply one chunk of a state-transfer stream, in order.
    pub(crate) fn install_shard_chunk(
        &self,
        shard: ShardId,
        items: Vec<SyncItem>,
    ) -> Result<(), InvokeError> {
        let detected = || self.engine.db().stats().corruptions_detected;
        // A transfer onto a disk that damaged data mid-stream must not be
        // confirmed. Failing the chunk fails the session; repair restarts
        // it against the cleaned store. (An empty `items` chunk is the
        // sender's final health probe before it proposes the confirmation.)
        if let Some(&floor) = self.sync.damage_floor.lock().get(&shard) {
            let now = detected();
            if now > floor {
                return Err(InvokeError::Storage(format!(
                    "shard {shard} transfer tainted: {} corruption(s) detected since stream start",
                    now - floor
                )));
            }
        }
        for item in items {
            match item {
                SyncItem::Begin => {
                    // Wipe stale residue of the shard before the fresh
                    // snapshot stream (a crash-restart rejoin may hold
                    // superseded objects).
                    let state = self.placement.snapshot();
                    for oid in self.engine.list_objects() {
                        if state.shard_for_object(&oid.0) == Some(shard) {
                            self.engine.purge_object(&oid)?;
                        }
                    }
                    // The purge-and-restream is the repair a corruption
                    // report asks for: whatever rot the quarantine took
                    // out of this shard is about to be replaced with clean
                    // state, so standing suspicion is satisfied here — not
                    // on placement inference, which can miss the eviction
                    // window and re-report a freshly healed replica.
                    self.control.clear_suspicion(shard);
                    // Baseline for the tainted-transfer check above: any
                    // detection past this point dirties the session.
                    self.sync.damage_floor.lock().insert(shard, detected());
                }
                SyncItem::Object(snap) => self.engine.install_object_replacing(&snap)?,
                SyncItem::Forward { object, ops } => {
                    self.engine.apply_replicated_batch(&[(ObjectId::new(object), ops)])?;
                }
            }
        }
        self.sync.chunks_applied.incr();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    fn item() -> SyncItem {
        SyncItem::Forward { object: b"o".to_vec(), ops: vec![(b"k".to_vec(), None)] }
    }

    #[test]
    fn streaming_offers_do_not_block() {
        let s = SyncSession::new(0, NodeId(5), 3);
        s.offer(SyncItem::Begin).unwrap();
        s.offer(item()).unwrap();
        let (batch, last) = s.take_batch(10);
        assert_eq!(batch.len(), 2);
        assert_eq!(last, 2);
        s.mark_shipped(last);
        assert!(s.take_batch(10).0.is_empty());
    }

    #[test]
    fn draining_offer_waits_for_ship() {
        let s = SyncSession::new(0, NodeId(5), 3);
        s.set_phase(SyncPhase::Draining);
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || s2.offer(item()));
        // Ship whatever arrives until the offer returns.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !t.is_finished() {
            assert!(std::time::Instant::now() < deadline, "offer never unblocked");
            let (batch, last) = s.take_batch(10);
            if !batch.is_empty() {
                s.mark_shipped(last);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        t.join().unwrap().unwrap();
    }

    #[test]
    fn hard_failure_fails_blocked_offers() {
        let s = SyncSession::new(0, NodeId(5), 3);
        s.set_phase(SyncPhase::Admitted);
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || s2.offer(item()));
        std::thread::sleep(Duration::from_millis(20));
        s.set_phase(SyncPhase::Failed { hard: true });
        assert!(t.join().unwrap().is_err(), "admitted ship failure must fail the commit");
        // Later offers fail immediately.
        assert!(s.offer(item()).is_err());
    }

    #[test]
    fn soft_failure_releases_blocked_offers_ok() {
        let s = SyncSession::new(0, NodeId(5), 3);
        s.set_phase(SyncPhase::Draining);
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || s2.offer(item()));
        std::thread::sleep(Duration::from_millis(20));
        s.set_phase(SyncPhase::Failed { hard: false });
        assert!(t.join().unwrap().is_ok(), "pre-admission abort owes the commit nothing");
    }

    #[test]
    fn done_rejects_new_offers() {
        let s = SyncSession::new(0, NodeId(5), 3);
        s.set_phase(SyncPhase::Done);
        assert!(s.offer(item()).is_err());
    }

    #[test]
    fn state_opens_one_session_per_recruit() {
        let m = SyncState::new(&Registry::new());
        let s = m.open(2, NodeId(5), 1).expect("first open registers");
        assert!(m.open(2, NodeId(5), 4).is_none(), "already open, whatever the epoch");
        assert_eq!(m.sessions_for(2).len(), 1);
        assert!(m.sessions_for(3).is_empty());
        m.sessions.write().remove(&(s.shard, s.peer));
        assert!(m.open(2, NodeId(5), 4).is_some());
    }
}
