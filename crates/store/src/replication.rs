//! Primary→backup replication of committed write sets (§4.2.1).
//!
//! One mechanism, one way in. Every *decision* on the path from a locally
//! applied commit to its ack lives here exactly once:
//!
//! * the **commit gate** ([`ReplState::commit_gate`]): may this node
//!   replicate a hook call's write sets at all, must they wait, or where
//!   do they ship — one verdict per shard's group, so a group never
//!   leaves in parts;
//! * the **window** ([`Window`]): one per shard, a queue of committed
//!   write sets behind a bounded number of rounds in flight, coalesced
//!   into rounds by one prefix rule;
//! * the **round** ([`Round`]): one `ReplicateBatch` frame, re-stamped per
//!   attempt by one frame builder;
//! * the **post-round step** ([`after_round`]): from the acks and the
//!   current placement, is the round done, fenced, or to be re-sent.
//!
//! Nothing here parks a thread: a held commit and a retry re-enter through
//! the RPC timer (`schedule`), a round's acks arrive as a completion
//! (`call_many_deferred`), and every write set's outcome goes to the
//! [`CommitCallback`] it came with. A committer that must block — a
//! blocking invoke, a scatter's boundary that does not ride in its wave, a
//! create, delete or transaction, a raw write — waits on a channel of its
//! own whose sender rides in that callback, so a callback dropped unrun (the
//! endpoint shut down) ends its wait with an error. Who may wait that way
//! is the completion-pool rule, DESIGN.md §10.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use lambda_coordinator::{Epoch, MigrationInfo, MigrationPhase, ShardId, ShardInfo};
use lambda_net::{wire, NodeId, RpcError};
use lambda_objects::{
    encode_error, ship_and_join, CommitCallback, CommitHook, Counter, DeferredCommit,
    InvocationContext, InvokeError, ObjectId, Registry, WriteSetOps,
};

use crate::aggregated::NodeInner;
use crate::placement::Placement;
use crate::proto::{self, StoreRequest, StoreResponse};

/// Pause between replication retry rounds: long enough to let a transient
/// fault clear or the failure detector evict a dead backup, short enough
/// that a commit holding an object lock barely notices.
const REPL_RETRY_PAUSE: Duration = Duration::from_millis(2);

/// Rounds one shard's window keeps in flight at once. One (stop-and-wait)
/// makes every commit sit out the rest of somebody else's round first;
/// with the ~1 round a loaded shard is offered per round trip, four leave
/// under 2 % of arrivals waiting (Erlang B), and a window that is full
/// anyway still coalesces everything queued into the next round.
/// Overlapping is safe because two rounds in flight never carry the same
/// object (DESIGN.md §10).
const MAX_ROUNDS_IN_FLIGHT: usize = 4;

/// Pause before re-gating a commit whose forward to a syncing recruit
/// found the placement mid-move.
const FORWARD_RETRY_PAUSE: Duration = Duration::from_millis(5);

/// Committed write sets kept per shard for promotion re-sync. Sized to
/// cover everything the old primary could have acked between two lease
/// renewals; replays are idempotent puts, so over-covering is harmless.
const RECENT_COMMITS_CAP: usize = 32;

/// `(object id bytes, write set)` — one committed write set on the wire.
type WriteSet = (Vec<u8>, WriteSetOps);

/// `(client, request id, reply body)` — a client's answer riding with the
/// write set that decides it.
type Routed = (NodeId, u64, Vec<u8>);

// -- The commit gate -----------------------------------------------------------

/// The commit gate's verdict on a group of locally applied write sets.
#[derive(Debug, PartialEq)]
pub(crate) enum Gate {
    /// Nothing to replicate (no shard map: single-node mode).
    Skip,
    /// Never ack these commits: the hook error to surface.
    Fail(String),
    /// Ask again after this long. The writes are already durable locally,
    /// so an error here would strand them at the primary while the client's
    /// retry dedups into an ack nobody replicated; waiting keeps them in
    /// the ack chain, and re-gating re-reads the placement.
    Hold(Duration),
    /// Replicate to `info.backups` of `shard`.
    Ship { shard: ShardId, info: ShardInfo },
}

/// What one read of the placement says about a write set's object: its
/// shard and replica set, and its live migration (`None`: no shard map).
pub(crate) type Located = Option<(ShardId, ShardInfo, Option<MigrationInfo>)>;

/// A hook call's write sets bound for one shard, in call order, each with
/// its object's live migration.
type Group = (ShardId, ShardInfo, Vec<(DeferredCommit, Option<MigrationInfo>)>);

/// The fence error for a primary whose shard moved on under it.
fn fenced(me: NodeId, shard: ShardId, info: &ShardInfo) -> Option<String> {
    if info.lost {
        return Some(format!("fenced: shard {shard} lost every replica (epoch {})", info.epoch));
    }
    (info.primary != me).then(|| {
        format!(
            "fenced: node-{} is no longer primary for shard {shard} (epoch {})",
            me.0, info.epoch
        )
    })
}

/// Replication state of one node: the windows, the recent-commit rings,
/// and the counters the decisions below feed.
pub(crate) struct ReplState {
    /// One window per shard, created on first use.
    windows: Mutex<HashMap<ShardId, Arc<Window>>>,
    /// Replication rounds issued (one `ReplicateBatch` fan-out each).
    rounds: Counter,
    /// Write sets shipped through those rounds.
    entries: Counter,
    /// Rounds re-sent to backups that missed an earlier one (a dropped
    /// frame or lost ack never downgrades an acked write).
    retries: Counter,
    /// Commits held (not failed) while a post-reconfiguration fence was up.
    lease_fenced_commits: Counter,
    /// Mutations refused (admission) or fenced (commit) with `ObjectMoved`
    /// while their object's migration was in handoff.
    migration_fenced: Counter,
    /// Recent committed write sets per shard (bounded ring, newest last),
    /// fed by both roles: the primary records what it replicates, a backup
    /// records what it applies. A backup promoted to primary replays its
    /// ring to the surviving backups before new commits land, so a write
    /// the old primary acked after some survivor's ack was lost still
    /// reaches every replica (closes the DESIGN.md §11 limitation).
    recent_commits: Mutex<HashMap<ShardId, VecDeque<WriteSet>>>,
    /// Write sets applied here in the backup role.
    pub(crate) applied: Counter,
    /// Promotion re-syncs completed (ring replays after failover).
    pub(crate) promotion_resyncs: Counter,
    /// Replica replies sent to clients in the backup role.
    replica_replies: Counter,
}

impl ReplState {
    pub(crate) fn new(registry: &Registry) -> ReplState {
        ReplState {
            windows: Mutex::default(),
            rounds: registry.counter("node_repl_rounds"),
            entries: registry.counter("node_repl_entries"),
            retries: registry.counter("node_repl_retries"),
            lease_fenced_commits: registry.counter("lease_fenced_commits"),
            migration_fenced: registry.counter("node_migration_fenced"),
            recent_commits: Mutex::default(),
            applied: registry.counter("node_replications_applied"),
            promotion_resyncs: registry.counter("node_promotion_resyncs"),
            replica_replies: registry.counter("node_replica_replies"),
        }
    }

    /// Record committed write sets, in order, in `shard`'s recent ring
    /// (bounded at [`RECENT_COMMITS_CAP`]; the oldest entry falls off).
    fn record_recent<'a>(
        &self,
        shard: ShardId,
        sets: impl IntoIterator<Item = (&'a ObjectId, &'a WriteSetOps)>,
    ) {
        let mut rings = self.recent_commits.lock();
        let ring = rings.entry(shard).or_default();
        for (object, ops) in sets {
            if ring.len() == RECENT_COMMITS_CAP {
                ring.pop_front();
            }
            ring.push_back((object.0.clone(), ops.clone()));
        }
    }

    /// `(rounds, entries)` shipped so far.
    pub(crate) fn batch_stats(&self) -> (u64, u64) {
        (self.rounds.get(), self.entries.get())
    }

    /// Migration handoff fence: once the coordinator's handoff record for
    /// `object` is visible here, its source shard takes no more mutations
    /// — refused at admission, and failed (not held) at commit time for
    /// the ones admitted earlier, so nothing acks after the driver's final
    /// snapshot and no replicated dedup record claims otherwise. The
    /// client follows the retryable `ObjectMoved` to the target and
    /// re-executes (or dedups, if its write made the snapshot).
    pub(crate) fn handoff_fence(
        &self,
        migration: Option<&MigrationInfo>,
        object: &ObjectId,
        shard: ShardId,
    ) -> Option<InvokeError> {
        let m = migration?;
        if m.phase != MigrationPhase::Handoff || m.from != shard {
            return None;
        }
        self.migration_fenced.incr();
        Some(InvokeError::ObjectMoved(format!(
            "object {object} is handing off from shard {} to shard {}",
            m.from, m.to
        )))
    }

    /// Decide what happens to the write sets of one hook call, which `me`
    /// just applied locally, each with what one read of the placement says
    /// about it. The sets bound for one shard are a group, in call order,
    /// and the group ships, holds or fails as one — a transaction's
    /// objects, or a scatter's boundary and its branches, never leave in
    /// parts — except that a set whose object is handing off fails alone.
    /// `fence_remaining` is the node's lease state (how long commits of a
    /// shard must still wait for departed members' read leases to drain),
    /// asked once per group; `forward` offers a set to the shard's syncing
    /// recruits. Runs on the committing thread, still under the objects'
    /// exclusive locks, so per-object forward order equals commit order and
    /// the handoff check serializes against the migration driver's final
    /// export.
    pub(crate) fn commit_gate(
        &self,
        me: NodeId,
        shutting_down: bool,
        commits: Vec<(DeferredCommit, Located)>,
        mut fence_remaining: impl FnMut(ShardId) -> Option<Duration>,
        mut forward: impl FnMut(ShardId, &ShardInfo, &DeferredCommit) -> Result<(), String>,
    ) -> Vec<(Gate, Vec<DeferredCommit>)> {
        let mut verdicts = Vec::new();
        let mut groups: Vec<Group> = Vec::new();
        for (commit, located) in commits {
            let Some((shard, info, migration)) = located else {
                verdicts.push((Gate::Skip, vec![commit]));
                continue;
            };
            match groups.iter_mut().find(|(s, ..)| *s == shard) {
                Some((.., group)) => group.push((commit, migration)),
                None => groups.push((shard, info, vec![(commit, migration)])),
            }
        }
        for (shard, info, group) in groups {
            if let Some(err) = fenced(me, shard, &info) {
                verdicts.push((Gate::Fail(err), group.into_iter().map(|(c, _)| c).collect()));
                continue;
            }
            let mut shipping = Vec::new();
            for (commit, migration) in group {
                match self.handoff_fence(migration.as_ref(), &commit.object, shard) {
                    Some(moved) => verdicts.push((Gate::Fail(encode_error(&moved)), vec![commit])),
                    None => shipping.push(commit),
                }
            }
            if shipping.is_empty() {
                continue;
            }
            if let Some(wait) = fence_remaining(shard) {
                self.lease_fenced_commits.add(shipping.len() as u64);
                verdicts.push((Gate::Hold(wait), shipping));
                continue;
            }
            // The forward precedes the backup acks: a write whose
            // replication later fails has only made the syncing peer
            // converge toward local state. A forward *error* holds the
            // group for the same reason the fence does — surfaced, it would
            // dedup into an ack on retry without the forward, and a recruit
            // whose bulk scan already passed this object could confirm with
            // a hole. Re-gating against fresh placement resolves every
            // case: the session appears, the recruit is re-streamed from a
            // new scan, it was dropped, or it was confirmed and is now
            // covered as a backup. Sets forwarded before the error are
            // forwarded again then: a forward is an idempotent put.
            let gate = match shipping.iter().try_for_each(|c| forward(shard, &info, c)) {
                Ok(()) => Gate::Ship { shard, info },
                Err(e) if shutting_down => Gate::Fail(e),
                Err(_) => Gate::Hold(FORWARD_RETRY_PAUSE),
            };
            verdicts.push((gate, shipping));
        }
        verdicts
    }

    fn window(&self, shard: ShardId) -> Arc<Window> {
        let mut windows = self.windows.lock();
        Arc::clone(windows.entry(shard).or_insert_with(|| Arc::new(Window::new(shard))))
    }
}

// -- Windows and rounds --------------------------------------------------------

/// One committed write set queued for shipment.
struct Entry {
    set: WriteSet,
    /// Epoch and backup set captured at the gate; see [`WindowState::start_rounds`].
    epoch: Epoch,
    backups: Vec<NodeId>,
    /// The committing invocation's context; the copy at a round's front
    /// bounds the first fan-out's timeout and rides in the frame's envelope.
    ctx: InvocationContext,
    /// How the committer learns the outcome.
    done: CommitCallback,
    /// The committer holds the object's guard until this write set is
    /// acked (debug builds check the no-shared-object rule over these).
    guarded: bool,
    /// The client's answer, when the committer lent its request's route
    /// and the answer is known once this set is replicated.
    reply: Option<Routed>,
}

/// What kind of committer stands behind a gated write set.
type MakeEntry = fn(DeferredCommit, &ShardInfo) -> Entry;

impl Entry {
    /// An engine commit: its object's guard is held until `done` runs. The
    /// last commit of a client-facing invocation answers with its value.
    fn guarded(mut commit: DeferredCommit, info: &ShardInfo) -> Entry {
        let reply = commit.reply.take().map(StoreResponse::Value);
        Entry::new(commit, info, true, reply)
    }

    /// A raw write: no guard, no per-key replication order. Its request
    /// answers `Ok` once it is replicated.
    fn raw(commit: DeferredCommit, info: &ShardInfo) -> Entry {
        Entry::new(commit, info, false, Some(StoreResponse::Ok))
    }

    /// `reply` is encoded once, exactly as the request handler would, when
    /// the committer lent its request's route.
    fn new(
        commit: DeferredCommit,
        info: &ShardInfo,
        guarded: bool,
        reply: Option<StoreResponse>,
    ) -> Entry {
        let DeferredCommit { ctx, object, ops, done, .. } = commit;
        let reply = ctx.reply_to.zip(reply).and_then(|((client, req_id), reply)| {
            Some((NodeId(client), req_id, proto::encode_reply(Ok(reply)).ok()?))
        });
        let (epoch, backups) = (info.epoch, info.backups.clone());
        Entry { set: (object.0, ops), epoch, backups, ctx, done, guarded, reply }
    }
}

/// A shard's replication window: up to [`MAX_ROUNDS_IN_FLIGHT`] rounds are
/// out at once; committed write sets that find every slot taken accumulate,
/// and the ack that finishes a round starts the next.
pub(crate) struct Window {
    shard: ShardId,
    state: Mutex<WindowState>,
}

#[derive(Default)]
struct WindowState {
    queue: VecDeque<Entry>,
    /// Rounds out. Whenever the lock is released, a non-empty queue means
    /// this is at the bound.
    in_flight: usize,
    /// Debug builds: the guarded objects of the rounds in flight.
    out: Vec<Vec<u8>>,
}

impl Window {
    fn new(shard: ShardId) -> Window {
        Window { shard, state: Mutex::default() }
    }

    /// Queue `entries`; the rounds that leave right now are the caller's
    /// to ship.
    fn push(&self, entries: impl IntoIterator<Item = Entry>) -> Vec<Round> {
        let mut st = self.state.lock();
        st.queue.extend(entries);
        st.start_rounds(self.shard)
    }

    /// `done` has its outcome: free its slot, and hand the caller the round
    /// that takes it when write sets are queued. Called before `done`'s
    /// waiters learn the outcome — they release their objects' guards, and
    /// the next commit of such an object may be pushed at once.
    fn finish(&self, done: &Round) -> Vec<Round> {
        let mut st = self.state.lock();
        st.in_flight -= 1;
        if cfg!(debug_assertions) {
            st.out.retain(|object| !done.tracked.contains(object));
        }
        st.start_rounds(self.shard)
    }
}

impl WindowState {
    /// The one rule: while a slot is free and write sets
    /// are queued, a round leaves with the longest queue prefix that agrees
    /// on `(epoch, backups)`. A write set enqueued under a newer
    /// configuration leads its own round, so epoch fencing stays exact
    /// across reconfigurations.
    fn start_rounds(&mut self, shard: ShardId) -> Vec<Round> {
        let mut rounds = Vec::new();
        while self.in_flight < MAX_ROUNDS_IN_FLIGHT {
            let Some(first) = self.queue.pop_front() else { break };
            self.in_flight += 1;
            let mut round = Round::of(shard, first);
            while self
                .queue
                .front()
                .is_some_and(|e| e.epoch == round.epoch && e.backups == round.backups)
            {
                round.add(self.queue.pop_front().expect("front exists"));
            }
            // An object's guard is held from its commit to its ack, so its
            // next write set cannot be here while the last one is still out.
            // (`tracked` is empty in release builds.)
            for object in &round.tracked {
                debug_assert!(
                    !self.out.contains(object),
                    "object {:?} is in two in-flight rounds of shard {shard}",
                    String::from_utf8_lossy(object)
                );
                self.out.push(object.clone());
            }
            rounds.push(round);
        }
        rounds
    }
}

/// One fan-out of write sets to a shard's backups, driven to a definite
/// outcome by [`NodeInner::ship_round`].
struct Round {
    shard: ShardId,
    /// Stamped into the frame; moves with the placement across retries.
    epoch: Epoch,
    /// Who still has to ack: shrinks to the laggards across retries.
    backups: Vec<NodeId>,
    sets: Vec<WriteSet>,
    /// The client answers of the routed sets among `sets`, until the first
    /// attempt's frame takes them.
    replies: Vec<Routed>,
    down: InvocationContext,
    attempt: u32,
    waiters: Vec<CommitCallback>,
    /// Debug builds: the objects of the guarded write sets among `sets`.
    tracked: Vec<Vec<u8>>,
}

impl Round {
    /// A round shipping `sets` to `backups` on behalf of `ctx`.
    fn new(
        shard: ShardId,
        epoch: Epoch,
        backups: Vec<NodeId>,
        ctx: &InvocationContext,
        sets: Vec<WriteSet>,
    ) -> Round {
        let down = ctx.for_downstream();
        let (replies, waiters, tracked) = (Vec::new(), Vec::new(), Vec::new());
        Round { shard, epoch, backups, sets, replies, down, attempt: 0, waiters, tracked }
    }

    /// A round of one queued write set (a window's round starts as one).
    fn of(shard: ShardId, mut first: Entry) -> Round {
        let backups = std::mem::take(&mut first.backups);
        let mut round = Round::new(shard, first.epoch, backups, &first.ctx, Vec::new());
        round.add(first);
        round
    }

    fn add(&mut self, entry: Entry) {
        if cfg!(debug_assertions) && entry.guarded {
            self.tracked.push(entry.set.0.clone());
        }
        self.sets.push(entry.set);
        self.replies.extend(entry.reply);
        self.waiters.push(entry.done);
    }

    /// The frame builder: this attempt's `ReplicateBatch`, stamped with
    /// the round's current epoch and a lease grant issued (and recorded by
    /// the caller) at this send time — backups fence stale-epoch frames,
    /// and departure fences must cover what the backups actually hold.
    /// Serialized once; the refcounted body is shared by every send of the
    /// fan-out. The client answers ride on the first attempt only, with its
    /// backups as their quorum: a retry re-targets a subset, so the quorum
    /// a client would wait for no longer holds, and the primary's own
    /// reply answers instead.
    fn frame(&mut self, lease_nanos: u64) -> Bytes {
        let entries = std::mem::take(&mut self.sets);
        let replies = std::mem::take(&mut self.replies);
        let quorum = if replies.is_empty() { Vec::new() } else { self.backups.clone() };
        let req = StoreRequest::ReplicateBatch {
            shard: self.shard,
            epoch: self.epoch,
            entries,
            lease_nanos,
            replies,
            quorum,
        };
        let body = proto::encode_request(&self.down, &req).expect("requests serialize");
        if let StoreRequest::ReplicateBatch { entries, .. } = req {
            self.sets = entries;
        }
        Bytes::from(body)
    }

    fn complete(self, outcome: &Result<(), String>) {
        for done in self.waiters {
            done(outcome.clone());
        }
    }
}

// -- The post-round step -------------------------------------------------------

/// The subset of `backups` whose reply was anything but a clean `Ok` ack.
/// Retries re-target exactly this subset: a backup that acked has the
/// write applied, whatever happened to its peers.
fn failed_acks(backups: &[NodeId], replies: &[Result<Vec<u8>, RpcError>]) -> Vec<NodeId> {
    backups
        .iter()
        .zip(replies)
        .filter(|(_, reply)| {
            !matches!(reply, Ok(bytes)
                if matches!(wire::from_bytes::<StoreResponse>(bytes), Ok(StoreResponse::Ok)))
        })
        .map(|(backup, _)| *backup)
        .collect()
}

/// What to do after one fan-out.
#[derive(Debug, PartialEq)]
pub(crate) enum Next {
    Done(Result<(), String>),
    /// Re-send to `backups`, stamped `epoch`.
    Retry {
        epoch: Epoch,
        backups: Vec<NodeId>,
    },
}

/// Drive a round toward a *definite* outcome: every backup still in the
/// shard's configuration has applied the write sets, or the configuration
/// has moved on (shard lost, or this node deposed — then the commit fails
/// and the client re-routes).
///
/// A transient fan-out failure — dropped frame, lost ack, slow peer — is
/// retried against re-read placement rather than surfaced. The write is
/// already durable locally and its dedup record answers any client
/// redelivery, so "commit failed" must never mean "some backup silently
/// missed it": that backup would keep serving leased follower reads of the
/// pre-write value after the dedup ack. Applies are idempotent (pure
/// key/value puts), so re-sending to a backup whose ack was lost is
/// harmless, and a backup that already acked is never re-targeted. An
/// evicted laggard leaves the required set (it re-syncs on rejoin); an
/// epoch bump re-stamps the retry so still-configured backups accept it.
pub(crate) fn after_round(
    placement: &Placement,
    me: NodeId,
    shard: ShardId,
    failed: Vec<NodeId>,
    shutting_down: bool,
) -> Next {
    if failed.is_empty() {
        return Next::Done(Ok(()));
    }
    if shutting_down {
        return Next::Done(Err("node shutting down".into()));
    }
    let Some(info) = placement.shard_info(shard) else {
        return Next::Done(Ok(()));
    };
    if let Some(err) = fenced(me, shard, &info) {
        return Next::Done(Err(err));
    }
    let backups: Vec<NodeId> = failed.into_iter().filter(|b| info.backups.contains(b)).collect();
    if backups.is_empty() {
        return Next::Done(Ok(()));
    }
    Next::Retry { epoch: info.epoch, backups }
}

// -- Driving it: schedule, call_many_deferred, callbacks -------------------------

impl NodeInner {
    /// One attempt's frame and timeout, with the lease grant it carries
    /// recorded at this send time. The attempt is counted now, not at its
    /// acks: the backups may answer the client before those arrive, and
    /// whoever reads the counters after the client's answer finds the
    /// round counted. The first attempt is bounded by the
    /// invocation's remaining budget; retries deliberately run on the
    /// node's full RPC timeout: once locally durable, finishing replication
    /// is the system's obligation, and a budget squeezed to zero would turn
    /// the retry loop into a hot spin of instant timeouts.
    fn next_attempt(&self, round: &mut Round) -> (Bytes, Duration) {
        self.repl.rounds.incr();
        self.repl.entries.add(round.sets.len() as u64);
        let lease = self.leases.grant(round.shard, &round.backups, Instant::now());
        let timeout = match round.attempt {
            0 => round.down.rpc_timeout(self.rpc_timeout),
            _ => self.rpc_timeout,
        };
        (round.frame(lease), timeout)
    }

    /// Apply the post-round step to one attempt's replies: the outcome, or
    /// `None` after re-targeting `round` for the next attempt.
    fn settle(
        &self,
        round: &mut Round,
        replies: &[Result<Vec<u8>, RpcError>],
    ) -> Option<Result<(), String>> {
        let failed = failed_acks(&round.backups, replies);
        let shutting_down = self.shutdown.load(Ordering::Acquire);
        match after_round(&self.placement, self.id, round.shard, failed, shutting_down) {
            Next::Done(outcome) => Some(outcome),
            Next::Retry { epoch, backups } => {
                self.repl.retries.incr();
                round.epoch = epoch;
                round.backups = backups;
                round.attempt += 1;
                None
            }
        }
    }

    /// Ship `round` to every backup **in parallel** — the paper's "at most
    /// one network round-trip within the responsible replica set"
    /// (§4.2.1) — and re-send it, [`REPL_RETRY_PAUSE`] apart, until it has
    /// an outcome. The ack that brings the outcome frees the round's slot
    /// in `window`, ships what queued there meanwhile, and then answers
    /// the round's waiters.
    fn ship_round(&self, window: Option<Arc<Window>>, mut round: Round) {
        let (body, timeout) = self.next_attempt(&mut round);
        let targets = round.backups.clone();
        let this = self.arc();
        self.rpc().call_many_deferred(
            &targets,
            body,
            timeout,
            Box::new(move |replies| match this.settle(&mut round, &replies) {
                Some(outcome) => {
                    if let Some(window) = &window {
                        for next in window.finish(&round) {
                            this.ship_round(Some(Arc::clone(window)), next);
                        }
                    }
                    round.complete(&outcome);
                }
                None => {
                    let node = Arc::clone(&this);
                    let retry = Box::new(move || node.ship_round(window, round));
                    this.rpc().schedule(REPL_RETRY_PAUSE, retry);
                }
            }),
        );
    }

    /// Locally applied write sets enter here. The commit gate, over one read of the placement and one of the
    /// clock, with this node's lease and sync state plugged in. A held
    /// group re-enters together through the RPC timer wheel (the object
    /// guards ride in the `done`s, so per-object commit order is preserved
    /// across the hold). A group that ships is recorded in the shard's
    /// recent ring — exactly once, since nothing re-gates after `Ship` —
    /// and pushed into the window as one, with one `(epoch, backups)`: it
    /// leaves in one round, which carries everything else queued there
    /// that agrees. `done` fires from the ack path of that round.
    fn gate(&self, commits: Vec<DeferredCommit>, entry: MakeEntry) {
        let located = self.placement.locate_all(commits.iter().map(|c| &c.object));
        let now = Instant::now();
        let verdicts = self.repl.commit_gate(
            self.id,
            self.shutdown.load(Ordering::Acquire),
            commits.into_iter().zip(located).collect(),
            |shard| self.leases.fence_remaining(shard, now),
            |shard, info, c| {
                self.forward_to_syncing(shard, info.epoch, &info.syncing, &c.object, &c.ops)
            },
        );
        for (gate, group) in verdicts {
            match gate {
                Gate::Skip => group.into_iter().for_each(|c| (c.done)(Ok(()))),
                Gate::Fail(err) => group.into_iter().for_each(|c| (c.done)(Err(err.clone()))),
                Gate::Hold(wait) => {
                    let this = self.arc();
                    self.rpc().schedule(wait, Box::new(move || this.gate(group, entry)));
                }
                Gate::Ship { shard, info } => {
                    self.repl.record_recent(shard, group.iter().map(|c| (&c.object, &c.ops)));
                    if info.backups.is_empty() {
                        group.into_iter().for_each(|c| (c.done)(Ok(())));
                        continue;
                    }
                    let window = self.repl.window(shard);
                    for round in window.push(group.into_iter().map(|c| entry(c, &info))) {
                        self.ship_round(Some(Arc::clone(&window)), round);
                    }
                }
            }
        }
    }

    /// Replicate a raw write's `ops` as a commit of `object`, parking the
    /// calling RPC worker until it is acked.
    pub(crate) fn commit_raw(
        &self,
        ctx: &InvocationContext,
        object: ObjectId,
        ops: WriteSetOps,
    ) -> Result<(), String> {
        ship_and_join(ctx, vec![(object, ops)], |commits| self.gate(commits, Entry::raw))
    }

    /// Backup role: apply one `ReplicateBatch` frame, which the caller has
    /// checked against a stale epoch — the lease grant it carries, then its
    /// write sets, atomically and in order — and once all of it has
    /// applied, send each of its client answers as one member of `quorum`.
    pub(crate) fn apply_replicated(
        &self,
        shard: ShardId,
        epoch: Epoch,
        entries: Vec<WriteSet>,
        lease_nanos: u64,
        replies: Vec<Routed>,
        quorum: &[NodeId],
    ) -> Result<(), InvokeError> {
        self.leases.accept(shard, epoch, lease_nanos, Instant::now());
        let entries: Vec<(ObjectId, WriteSetOps)> =
            entries.into_iter().map(|(o, ops)| (ObjectId::new(o), ops)).collect();
        self.engine.apply_replicated_batch(&entries)?;
        self.repl.record_recent(shard, entries.iter().map(|(oid, ops)| (oid, ops)));
        self.repl.applied.add(entries.len() as u64);
        for (client, req_id, body) in replies {
            self.repl.replica_replies.incr();
            self.rpc().replica_reply(client, req_id, quorum, epoch, &body);
        }
        Ok(())
    }

    /// Just-promoted primary: replay the shard's ring of recent committed
    /// write sets to the surviving backups before the commit fence lifts.
    /// Applies are idempotent puts, so re-sending a set a survivor already
    /// holds is harmless; a set the deposed primary acked without this
    /// survivor's ack landing is delivered here, converging the replica
    /// set on every acked write before new commits stack on top.
    pub(crate) fn promotion_resync(&self, shard: ShardId, epoch: Epoch, backups: Vec<NodeId>) {
        let entries: Vec<WriteSet> = {
            let rings = self.repl.recent_commits.lock();
            rings.get(&shard).map(|r| r.iter().cloned().collect()).unwrap_or_default()
        };
        if entries.is_empty() || backups.is_empty() {
            return;
        }
        let ctx = InvocationContext::background();
        let mut round = Round::new(shard, epoch, backups, &ctx, entries);
        let this = self.arc();
        round.waiters.push(Box::new(move |outcome| {
            if outcome.is_ok() {
                this.repl.promotion_resyncs.incr();
            }
        }));
        self.ship_round(None, round);
    }
}

impl CommitHook for NodeInner {
    fn on_commit(&self, commits: Vec<DeferredCommit>) {
        self.gate(commits, Entry::guarded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel;
    use lambda_coordinator::{ClusterState, CoordCmd, N_SLOTS};
    use lambda_objects::error::decode_hook_error;
    use lambda_vm::VmValue;

    const ME: NodeId = NodeId(1);

    /// Shard 0 = {1 primary, 2, 3} owning every slot, plus shard 7 = {2}.
    fn cluster() -> ClusterState {
        let mut st = ClusterState::default();
        for n in 1..=3 {
            st.apply(&CoordCmd::RegisterNode { node: NodeId(n) });
        }
        st.apply(&CoordCmd::CreateShard { shard: 0, replicas: vec![ME, NodeId(2), NodeId(3)] });
        st.apply(&CoordCmd::AssignSlots { shard: 0, slots: (0..N_SLOTS).collect() });
        st.apply(&CoordCmd::CreateShard { shard: 7, replicas: vec![NodeId(2)] });
        st
    }

    fn placement(st: &ClusterState) -> Placement {
        let p = Placement::new();
        p.update(st.clone());
        p
    }

    /// Reconfigure shard 0 to `primary` + `backups` (bumps its epoch).
    fn reconfigure(st: &mut ClusterState, primary: u32, backups: &[u32]) {
        st.apply(&CoordCmd::Reconfigure {
            shard: 0,
            new_primary: NodeId(primary),
            new_backups: backups.iter().map(|n| NodeId(*n)).collect(),
            expected_epoch: st.shard(0).unwrap().epoch,
        });
    }

    fn mark_lost(st: &mut ClusterState) {
        let expected_epoch = st.shard(0).unwrap().epoch;
        st.apply(&CoordCmd::MarkShardLost { shard: 0, expected_epoch });
        assert!(st.shard(0).unwrap().lost);
    }

    fn after(st: &ClusterState, failed: &[u32]) -> Next {
        after_round(&placement(st), ME, 0, failed.iter().map(|n| NodeId(*n)).collect(), false)
    }

    #[test]
    fn post_round_all_acked_is_done_without_reading_placement() {
        assert_eq!(after_round(&Placement::new(), ME, 0, vec![], true), Next::Done(Ok(())));
    }

    #[test]
    fn post_round_evicted_laggard_no_longer_blocks_the_commit() {
        let mut st = cluster();
        reconfigure(&mut st, 1, &[2]);
        assert_eq!(after(&st, &[3]), Next::Done(Ok(())));
    }

    #[test]
    fn post_round_epoch_bump_restamps_the_retry_to_the_intersected_backups() {
        let mut st = cluster();
        assert_eq!(
            after(&st, &[2, 3]),
            Next::Retry { epoch: 1, backups: vec![NodeId(2), NodeId(3)] }
        );
        reconfigure(&mut st, 1, &[2]);
        assert_eq!(after(&st, &[2, 3]), Next::Retry { epoch: 2, backups: vec![NodeId(2)] });
    }

    #[test]
    fn post_round_deposed_or_lost_is_a_fenced_error() {
        let mut st = cluster();
        reconfigure(&mut st, 2, &[3]);
        let Next::Done(Err(deposed)) = after(&st, &[2]) else { panic!("deposed must fence") };
        assert!(deposed.starts_with("fenced: node-1 is no longer primary"), "{deposed}");
        mark_lost(&mut st);
        let Next::Done(Err(lost)) = after(&st, &[2]) else { panic!("lost must fence") };
        assert!(lost.starts_with("fenced: shard 0 lost every replica"), "{lost}");
    }

    #[test]
    fn post_round_shutdown_and_vanished_shard() {
        let st = cluster();
        let p = placement(&st);
        let down = after_round(&p, ME, 0, vec![NodeId(2)], true);
        assert_eq!(down, Next::Done(Err("node shutting down".into())));
        assert_eq!(after_round(&p, ME, 99, vec![NodeId(2)], false), Next::Done(Ok(())));
    }

    /// The gate's verdicts on one hook call with a write set per `tag`
    /// (every tag is an object of shard 0), each with its group's objects.
    fn gate_call(
        st: &ClusterState,
        repl: &ReplState,
        shutting_down: bool,
        tags: &[&str],
        fence: impl FnMut(ShardId) -> Option<Duration>,
        forward: impl FnMut(ShardId, &ShardInfo, &DeferredCommit) -> Result<(), String>,
    ) -> Vec<(Gate, Vec<String>)> {
        let commits: Vec<DeferredCommit> =
            tags.iter().map(|tag| commit(tag, Box::new(|_| {}))).collect();
        let located = placement(st).locate_all(commits.iter().map(|c| &c.object));
        let commits = commits.into_iter().zip(located).collect();
        let name = |c: DeferredCommit| String::from_utf8_lossy(&c.object.0).into_owned();
        let verdicts = repl.commit_gate(ME, shutting_down, commits, fence, forward);
        verdicts
            .into_iter()
            .map(|(gate, group)| (gate, group.into_iter().map(name).collect()))
            .collect()
    }

    fn gate_with(
        st: &ClusterState,
        repl: &ReplState,
        shutting_down: bool,
        fence: Option<Duration>,
        forward: Result<(), String>,
    ) -> Gate {
        let mut verdicts =
            gate_call(st, repl, shutting_down, &["user/1"], |_| fence, |_, _, _| forward.clone());
        assert_eq!(verdicts.len(), 1, "one set, one verdict");
        verdicts.remove(0).0
    }

    fn gate(st: &ClusterState) -> Gate {
        gate_with(st, &ReplState::new(&Registry::new()), false, None, Ok(()))
    }

    fn group(tags: &[&str]) -> Vec<String> {
        tags.iter().map(|tag| tag.to_string()).collect()
    }

    #[test]
    fn gate_ships_to_the_current_configuration_and_skips_without_a_map() {
        let st = cluster();
        assert_eq!(gate(&st), Gate::Ship { shard: 0, info: st.shard(0).unwrap().clone() });
        assert_eq!(
            gate(&ClusterState::default()),
            Gate::Skip,
            "stale (empty) states never install"
        );
    }

    #[test]
    fn gate_fails_a_deposed_primary_and_a_lost_shard() {
        let mut st = cluster();
        reconfigure(&mut st, 2, &[3]);
        assert!(matches!(gate(&st), Gate::Fail(e) if e.contains("no longer primary")));
        mark_lost(&mut st);
        assert!(matches!(gate(&st), Gate::Fail(e) if e.contains("lost every replica")));
    }

    #[test]
    fn gate_fails_a_handoff_with_object_moved_and_counts_it() {
        let mut st = cluster();
        let object = b"user/1".to_vec();
        st.apply(&CoordCmd::PlanMigration { object: object.clone(), from: 0, to: 7 });
        assert!(matches!(gate(&st), Gate::Ship { .. }), "planned migrations fence nothing");
        st.apply(&CoordCmd::MigrationHandoff { object });
        let registry = Registry::new();
        let Gate::Fail(err) = gate_with(&st, &ReplState::new(&registry), false, None, Ok(()))
        else {
            panic!("handoff must fail the commit");
        };
        assert!(matches!(decode_hook_error(err), InvokeError::ObjectMoved(_)));
        assert_eq!(registry.counter_value("node_migration_fenced"), 1);
        // In a group, the handing-off set fails alone and the rest ships.
        let repl = ReplState::new(&registry);
        let verdicts =
            gate_call(&st, &repl, false, &["user/2", "user/1"], |_| None, |_, _, _| Ok(()));
        assert!(matches!(&verdicts[0], (Gate::Fail(_), moved) if *moved == group(&["user/1"])));
        assert!(matches!(&verdicts[1], (Gate::Ship { .. }, rest) if *rest == group(&["user/2"])));
        assert_eq!(verdicts.len(), 2);
    }

    #[test]
    fn a_fence_that_lapses_between_two_sets_of_one_call_holds_both() {
        let registry = Registry::new();
        let repl = ReplState::new(&registry);
        let wait = Duration::from_millis(1);
        // Still up for the first look, lapsed for any later one.
        let mut looks = 0;
        let fence = |_| {
            looks += 1;
            (looks == 1).then_some(wait)
        };
        let verdicts =
            gate_call(&cluster(), &repl, false, &["user/1", "user/2"], fence, |_, _, _| Ok(()));
        assert_eq!(verdicts, vec![(Gate::Hold(wait), group(&["user/1", "user/2"]))]);
        assert_eq!(looks, 1, "one look at the fence per group");
        assert_eq!(registry.counter_value("lease_fenced_commits"), 2);
    }

    #[test]
    fn a_forward_error_on_the_second_set_holds_the_first_too() {
        let repl = ReplState::new(&Registry::new());
        let mut offered = Vec::new();
        let forward = |_: ShardId, _: &ShardInfo, c: &DeferredCommit| {
            offered.push(String::from_utf8_lossy(&c.object.0).into_owned());
            match c.object == ObjectId::from("user/2") {
                true => Err("no session at this epoch yet".to_string()),
                false => Ok(()),
            }
        };
        let tags = ["user/1", "user/2", "user/3"];
        let verdicts = gate_call(&cluster(), &repl, false, &tags, |_| None, forward);
        assert_eq!(verdicts, vec![(Gate::Hold(FORWARD_RETRY_PAUSE), group(&tags))]);
        assert_eq!(offered, group(&["user/1", "user/2"]), "the re-gate offers the first again");
    }

    #[test]
    fn a_three_set_call_on_an_idle_window_leaves_as_one_round() {
        let repl = ReplState::new(&Registry::new());
        let commits: Vec<DeferredCommit> =
            ["user/1", "user/2", "user/3"].iter().map(|t| commit(t, Box::new(|_| {}))).collect();
        let located = placement(&cluster()).locate_all(commits.iter().map(|c| &c.object));
        let commits = commits.into_iter().zip(located).collect();
        let mut verdicts = repl.commit_gate(ME, false, commits, |_| None, |_, _, _| Ok(()));
        assert_eq!(verdicts.len(), 1);
        let (Gate::Ship { shard, info }, shipping) = verdicts.remove(0) else {
            panic!("a clean call ships");
        };
        let rounds =
            repl.window(shard).push(shipping.into_iter().map(|c| Entry::guarded(c, &info)));
        assert_eq!(objects(&rounds), vec![vec!["user/1", "user/2", "user/3"]]);
    }

    #[test]
    fn gate_holds_for_a_lease_fence_and_for_a_failed_forward() {
        let st = cluster();
        let registry = Registry::new();
        let repl = ReplState::new(&registry);
        let wait = Duration::from_millis(123);
        // The fence is consulted before the forward: a held commit offers
        // nothing to syncing recruits until it re-gates.
        assert_eq!(
            gate_with(&st, &repl, false, Some(wait), Err("unused".into())),
            Gate::Hold(wait)
        );
        assert_eq!(registry.counter_value("lease_fenced_commits"), 1);
        let moved = Err("placement moved".to_string());
        assert_eq!(
            gate_with(&st, &repl, false, None, moved.clone()),
            Gate::Hold(FORWARD_RETRY_PAUSE)
        );
        assert_eq!(gate_with(&st, &repl, true, None, moved), Gate::Fail("placement moved".into()));
    }

    fn commit(tag: &str, done: CommitCallback) -> DeferredCommit {
        let ctx = InvocationContext::background();
        DeferredCommit { ctx, object: ObjectId::from(tag), ops: Vec::new(), done, reply: None }
    }

    fn info(epoch: Epoch, backups: &[u32]) -> ShardInfo {
        let backups = backups.iter().map(|n| NodeId(*n)).collect();
        ShardInfo { epoch, backups, ..cluster().shard(0).unwrap().clone() }
    }

    fn queued(epoch: Epoch, backups: &[u32], tag: &str) -> Entry {
        Entry::guarded(commit(tag, Box::new(|_| {})), &info(epoch, backups))
    }

    /// The objects of each round, as strings.
    fn objects(rounds: &[Round]) -> Vec<Vec<String>> {
        let tag = |(object, _): &WriteSet| String::from_utf8_lossy(object).into_owned();
        rounds.iter().map(|round| round.sets.iter().map(tag).collect()).collect()
    }

    /// A window with every slot taken by a one-entry round (`r0`, `r1`, …).
    fn full_window() -> (Window, Vec<Round>) {
        let window = Window::new(0);
        let out: Vec<Round> = (0..MAX_ROUNDS_IN_FLIGHT)
            .flat_map(|i| window.push([queued(1, &[2, 3], &format!("r{i}"))]))
            .collect();
        assert_eq!(out.len(), MAX_ROUNDS_IN_FLIGHT, "while a slot is free a push leads at once");
        (window, out)
    }

    #[test]
    fn window_overlaps_rounds_up_to_the_bound_and_the_next_ack_takes_what_queued() {
        let (window, out) = full_window();
        assert!(out.iter().all(|round| round.sets.len() == 1 && round.waiters.len() == 1));
        for tag in ["a", "b", "c"] {
            assert!(window.push([queued(1, &[2, 3], tag)]).is_empty(), "every slot is taken");
        }
        // The first ack — of any round — starts one round with everything
        // that queued, the earliest waiter at its front.
        let next = window.finish(&out[2]);
        assert_eq!(objects(&next), vec![vec!["a", "b", "c"]]);
        assert_eq!(next[0].waiters.len(), 3);
        assert!(window.push([queued(1, &[2, 3], "d")]).is_empty(), "the slot was re-taken");
        assert_eq!(objects(&window.finish(&out[0])), vec![vec!["d"]]);
        // An ack with nothing queued frees its slot for the next push.
        assert!(window.finish(&next[0]).is_empty());
        assert_eq!(objects(&window.push([queued(1, &[2, 3], "e")])), vec![vec!["e"]]);
        assert!(window.push([queued(1, &[2, 3], "f")]).is_empty());
    }

    #[test]
    fn window_round_is_the_prefix_that_agrees_on_epoch_and_backups() {
        // Pushed together with slots free: one round per agreeing run.
        let window = Window::new(0);
        let wave = [queued(1, &[2, 3], "a"), queued(1, &[2, 3], "b"), queued(2, &[2], "c")];
        let rounds = window.push(wave);
        assert_eq!(objects(&rounds), vec![vec!["a", "b"], vec!["c"]]);
        assert_eq!((rounds[0].epoch, rounds[1].epoch), (1, 2));
        assert_eq!(rounds[1].backups, vec![NodeId(2)]);

        // Queued behind a full window: a newer configuration still splits
        // the prefix, and what follows it waits for the ack after.
        let (window, out) = full_window();
        for (epoch, backups, tag) in [(1, &[2, 3][..], "a"), (2, &[2][..], "b"), (1, &[2, 3], "c")]
        {
            assert!(window.push([queued(epoch, backups, tag)]).is_empty());
        }
        assert_eq!(objects(&window.finish(&out[0])), vec![vec!["a"]]);
        let second = window.finish(&out[1]);
        assert_eq!(objects(&second), vec![vec!["b"]]);
        assert_eq!(second[0].epoch, 2);
        assert_eq!(objects(&window.finish(&out[2])), vec![vec!["c"]]);
        assert!(window.finish(&out[3]).is_empty());
    }

    #[test]
    fn a_blocking_committer_and_a_completion_leave_in_the_same_round_of_the_one_window() {
        let repl = ReplState::new(&Registry::new());
        assert!(Arc::ptr_eq(&repl.window(0), &repl.window(0)), "one window per shard");

        let (window, out) = full_window();
        // A blocking committer is a callback that fills the channel its
        // thread is parked on; a completion is any other callback.
        let (tx, parked) = channel::bounded(1);
        let blocking = commit("blocking", Box::new(move |acked| drop(tx.send(acked))));
        let (tx, completed) = channel::bounded(1);
        let completion = commit("completion", Box::new(move |acked| drop(tx.send(acked))));
        assert!(window.push([Entry::guarded(blocking, &info(1, &[2, 3]))]).is_empty());
        assert!(window.push([Entry::guarded(completion, &info(1, &[2, 3]))]).is_empty());
        let mut next = window.finish(&out[0]);
        assert_eq!(objects(&next), vec![vec!["blocking", "completion"]]);
        assert!(parked.try_recv().is_err(), "nobody is answered before the round's outcome");
        next.remove(0).complete(&Err("fenced".into()));
        assert_eq!(parked.try_recv(), Ok(Err("fenced".into())));
        assert_eq!(completed.try_recv(), Ok(Err("fenced".into())));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "in two in-flight rounds")]
    fn an_object_in_two_in_flight_rounds_trips_the_debug_assertion() {
        let window = Window::new(0);
        assert_eq!(window.push([queued(1, &[2, 3], "user/1")]).len(), 1);
        window.push([queued(1, &[2, 3], "user/1")]);
    }

    #[test]
    fn the_no_shared_object_rule_covers_guarded_commits_only_and_ends_with_the_ack() {
        let raw = |tag: &str| Entry::raw(commit(tag, Box::new(|_| {})), &info(1, &[2, 3]));
        let window = Window::new(0);
        // Raw writes hold no guard: two of one key may be out at once.
        assert_eq!(window.push([raw("user/1")]).len(), 1);
        assert_eq!(window.push([raw("user/1")]).len(), 1);
        // A guarded object returns as soon as its round is finished.
        let first = window.push([queued(1, &[2, 3], "user/2")]);
        assert!(window.finish(&first[0]).is_empty());
        assert_eq!(window.push([queued(1, &[2, 3], "user/2")]).len(), 1);
    }

    #[test]
    fn client_answers_ride_the_first_attempt_only_with_the_backups_as_quorum() {
        let routed = |tag: &str, reply: Option<VmValue>| {
            let mut commit = commit(tag, Box::new(|_| {}));
            commit.ctx.reply_to = Some((77, 5));
            DeferredCommit { reply, ..commit }
        };
        let info = info(1, &[2, 3]);
        let entries = [
            Entry::guarded(routed("user/1", Some(VmValue::Int(3))), &info),
            // Routed but without an answer: a boundary, a branch, a create.
            Entry::guarded(routed("user/2", None), &info),
            // An answer without a route: an invocation no client waits on.
            Entry::guarded(
                DeferredCommit { reply: Some(VmValue::Unit), ..commit("user/3", Box::new(|_| {})) },
                &info,
            ),
            Entry::raw(routed("user/4", None), &info),
        ];
        let mut rounds = Window::new(0).push(entries);
        assert_eq!(rounds.len(), 1);
        let answer = |reply| proto::encode_reply(Ok(reply)).unwrap();
        let Ok((_, StoreRequest::ReplicateBatch { replies, quorum, .. })) =
            proto::decode_request(&rounds[0].frame(0))
        else {
            panic!("a replication frame");
        };
        let want = vec![
            (NodeId(77), 5, answer(StoreResponse::Value(VmValue::Int(3)))),
            (NodeId(77), 5, answer(StoreResponse::Ok)),
        ];
        assert_eq!((replies, quorum), (want, vec![NodeId(2), NodeId(3)]));
        // The retry re-targets a laggard and carries no answers.
        rounds[0].backups = vec![NodeId(3)];
        let Ok((_, StoreRequest::ReplicateBatch { replies, quorum, entries, .. })) =
            proto::decode_request(&rounds[0].frame(0))
        else {
            panic!("a replication frame");
        };
        assert_eq!((replies, quorum, entries.len()), (vec![], vec![], 4));
    }

    #[test]
    fn frame_builder_restamps_epoch_and_lease_per_attempt() {
        let ctx = InvocationContext::background();
        let sets = vec![(b"o".to_vec(), vec![(b"k".to_vec(), None)])];
        let mut round = Round::new(0, 1, vec![NodeId(2)], &ctx, sets.clone());
        round.epoch = 5;
        for lease in [77, 0] {
            let (_, req) = proto::decode_request(&round.frame(lease)).unwrap();
            let want = StoreRequest::ReplicateBatch {
                shard: 0,
                epoch: 5,
                entries: sets.clone(),
                lease_nanos: lease,
                replies: vec![],
                quorum: vec![],
            };
            assert_eq!(req, want);
        }
    }
}
