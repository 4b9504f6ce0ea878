//! The replicated cluster state machine: membership, shards and the
//! microshard directory.
//!
//! Commands are chosen into the Paxos log and applied deterministically on
//! every coordinator replica, so all replicas converge on the same
//! [`ClusterState`]. Epoch numbers fence stale primaries after
//! reconfigurations (§4.2.1 of the paper).

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use lambda_net::NodeId;

/// Identifies a replica group (a "shard" of the object space).
pub type ShardId = u32;

/// Monotonic configuration number per shard; bumped on every
/// reconfiguration. Replication messages carry it so a deposed primary's
/// writes are rejected.
pub type Epoch = u64;

/// One shard's replica set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardInfo {
    /// Node executing mutating invocations.
    pub primary: NodeId,
    /// Backup replicas (read-only invocations may run here).
    pub backups: Vec<NodeId>,
    /// Fencing epoch.
    pub epoch: Epoch,
    /// Recruited backups still receiving state transfer. A syncing node is
    /// NOT a replica: it never serves reads and never counts toward
    /// replication acks until `ConfirmBackup` promotes it.
    pub syncing: Vec<NodeId>,
    /// True when every replica died before repair could recruit a
    /// replacement. Membership is preserved so a restarted former member
    /// (which, under synchronous replication, holds every acked write) can
    /// revive the shard.
    pub lost: bool,
    /// Replica count the repair planner restores toward; recorded at
    /// `CreateShard` time. Zero means "current size" (no growth).
    pub target_replicas: u32,
}

impl ShardInfo {
    /// All replicas: primary first. Excludes syncing recruits.
    pub fn replicas(&self) -> Vec<NodeId> {
        let mut all = vec![self.primary];
        all.extend(&self.backups);
        all
    }

    /// True when `node` serves this shard (syncing recruits do not).
    pub fn contains(&self, node: NodeId) -> bool {
        self.primary == node || self.backups.contains(&node)
    }

    /// True when `node` leads this shard (primary of a shard that is not
    /// lost): the one predicate for everything a placement obliges a node
    /// to *run* — lease renewals, state transfers, migration drivers.
    pub fn led_by(&self, node: NodeId) -> bool {
        self.primary == node && !self.lost
    }

    /// True when `node` is a recruited-but-unconfirmed backup.
    pub fn is_syncing(&self, node: NodeId) -> bool {
        self.syncing.contains(&node)
    }

    /// The replica count repair restores toward.
    pub fn repair_target(&self) -> usize {
        if self.target_replicas == 0 {
            self.replicas().len()
        } else {
            self.target_replicas as usize
        }
    }

    /// Members serving this configuration (primary or backup) that no
    /// longer serve in `newer`. These are exactly the nodes whose read
    /// leases the new configuration must let drain before acking commits:
    /// everyone still in `newer` keeps receiving every acked write, so
    /// only departures can serve a stale read.
    pub fn departed_members(&self, newer: &ShardInfo) -> Vec<NodeId> {
        self.replicas().into_iter().filter(|&n| !newer.contains(n)).collect()
    }
}

/// Commands accepted by the replicated state machine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoordCmd {
    /// A storage node joined the cluster.
    RegisterNode {
        /// The node.
        node: NodeId,
    },
    /// A storage node was declared dead (failure detector) or left.
    RemoveNode {
        /// The node.
        node: NodeId,
    },
    /// Create a shard with an explicit replica set (primary first).
    CreateShard {
        /// New shard id (must be unused).
        shard: ShardId,
        /// Replica set, primary first; must be non-empty.
        replicas: Vec<NodeId>,
    },
    /// Replace a shard's replica set; bumps the epoch.
    Reconfigure {
        /// Shard to change.
        shard: ShardId,
        /// New primary.
        new_primary: NodeId,
        /// New backups.
        new_backups: Vec<NodeId>,
        /// The epoch this reconfiguration was computed against; the command
        /// is ignored if the shard has since moved on (dedup for concurrent
        /// failure detectors).
        expected_epoch: Epoch,
    },
    /// Assign placement slots to a shard. Objects hash onto one of
    /// [`N_SLOTS`] fixed slots; the slot table maps slots to shards, so
    /// adding a shard never silently remaps data (a slot move must be
    /// accompanied by migrating its objects).
    AssignSlots {
        /// Destination shard (must exist).
        shard: ShardId,
        /// Slot indices (`< N_SLOTS`).
        slots: Vec<u16>,
    },
    /// Recruit a registered spare as a *syncing* backup (repair phase 1).
    /// The node receives state transfer but serves no reads and counts for
    /// no acks until confirmed. Bumps the epoch so a primary that missed
    /// the recruitment cannot confirm against a stale view.
    AddBackup {
        /// Shard being repaired.
        shard: ShardId,
        /// The spare node (registered, not already a member or syncing).
        node: NodeId,
        /// Fencing epoch, as for [`CoordCmd::Reconfigure`].
        expected_epoch: Epoch,
    },
    /// Promote a syncing backup to a full replica after state transfer
    /// completes (repair phase 2). Bumps the epoch, atomically admitting
    /// the node into the replication fan-out.
    ConfirmBackup {
        /// Shard being repaired.
        shard: ShardId,
        /// The node that finished syncing.
        node: NodeId,
        /// Fencing epoch.
        expected_epoch: Epoch,
    },
    /// Record that a shard lost its last replica. Membership is kept (for
    /// revival by a restarted member); clients get a clean
    /// shard-unavailable error instead of hanging on a dead primary.
    MarkShardLost {
        /// The abandoned shard.
        shard: ShardId,
        /// Fencing epoch.
        expected_epoch: Epoch,
    },
    /// Bring a lost shard back online on a restarted former member, which
    /// under synchronous replication holds every acknowledged write.
    ReviveShard {
        /// The lost shard.
        shard: ShardId,
        /// A registered node that was a member when the shard was lost.
        node: NodeId,
        /// Fencing epoch.
        expected_epoch: Epoch,
    },
    /// A node detected unrecoverable local corruption in its copy of a
    /// shard (quarantined tables, rotten WAL/manifest). The node is dropped
    /// from the shard exactly like a departed replica — a corrupt backup is
    /// removed, a corrupt primary demotes to the first healthy backup — and
    /// the repair loop then re-recruits through a full state transfer. The
    /// node itself stays registered: its other shards are unaffected, and it
    /// may even be re-recruited for this shard (sync wipes its local copy).
    ReportCorruption {
        /// The node whose local copy is damaged.
        node: NodeId,
        /// The affected shard.
        shard: ShardId,
        /// Fencing epoch.
        expected_epoch: Epoch,
    },
    /// Pin an object to a specific shard (microshard migration, §4.2).
    PinObject {
        /// Object id.
        object: Vec<u8>,
        /// Destination shard.
        shard: ShardId,
    },
    /// Remove an object pin (fall back to hash placement).
    UnpinObject {
        /// Object id.
        object: Vec<u8>,
    },
    /// Open a crash-safe migration of one object from its current shard to
    /// `to` (phase Planned). The source keeps its copy and keeps serving;
    /// placement does not change until [`CoordCmd::CommitMigration`].
    PlanMigration {
        /// Object id (must currently map to `from`).
        object: Vec<u8>,
        /// The shard serving the object today.
        from: ShardId,
        /// Destination shard.
        to: ShardId,
    },
    /// The source primary started streaming a warm copy to the target
    /// (phase Planned → Copying). Pure bookkeeping: the source still
    /// serves reads and writes.
    MigrationCopying {
        /// Object id.
        object: Vec<u8>,
    },
    /// Enter the handoff phase (Copying/Planned → Handoff): from the
    /// moment the source primary observes this, it fences new mutations
    /// with a retryable `ObjectMoved` and takes the authoritative final
    /// snapshot. Idempotent — re-proposing against an entry already in
    /// Handoff is how a restarted driver resumes.
    MigrationHandoff {
        /// Object id.
        object: Vec<u8>,
    },
    /// Commit the migration: atomically re-point placement at the target
    /// (a pin, or a pin *removal* when the target is the object's
    /// hash-home shard) and retire the migration entry. No-ops unless the
    /// entry is live and in Handoff, so a commit racing a failover-driven
    /// abort loses cleanly.
    CommitMigration {
        /// Object id.
        object: Vec<u8>,
    },
    /// Abort the migration: drop the entry, leaving placement untouched.
    /// The source (which never stopped holding the object) resumes serving
    /// writes as soon as it observes the entry gone. Guarded by the plan's
    /// identity: a driver that gave up on a *superseded* plan (its plan was
    /// already aborted and replaced while it was stuck mid-copy) must not
    /// kill the successor, so an abort only applies when the live entry
    /// matches the shards and primaries the aborter was driving.
    AbortMigration {
        /// Object id.
        object: Vec<u8>,
        /// Source shard of the plan being aborted.
        from: ShardId,
        /// Destination shard of the plan being aborted.
        to: ShardId,
        /// Plan-time source primary.
        from_primary: NodeId,
        /// Plan-time target primary.
        to_primary: NodeId,
        /// Why the driver gave up (diagnostic; the state machine ignores
        /// it, the replicated log keeps it).
        reason: String,
    },
}

/// Phase of a live object migration. The entry itself lives in the
/// replicated log, so every transition is chosen by Paxos and survives any
/// single crash: a new source primary, target primary, or coordinator
/// leader sees exactly where the move stood.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationPhase {
    /// Chosen into the log; the source primary has not picked it up yet.
    Planned,
    /// The source is streaming a warm copy; source still serves writes.
    Copying,
    /// Mutations fence at the source (`ObjectMoved`); the final snapshot
    /// is being made durable at the target before the commit is proposed.
    Handoff,
}

/// One in-flight object migration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationInfo {
    /// Shard serving the object when the migration was planned.
    pub from: ShardId,
    /// Destination shard.
    pub to: ShardId,
    /// Source primary at plan time. A primary change on either side
    /// invalidates the snapshot authority and auto-aborts the entry.
    pub from_primary: NodeId,
    /// Target primary at plan time.
    pub to_primary: NodeId,
    /// Current phase.
    pub phase: MigrationPhase,
}

/// Load report a storage node piggybacks on its heartbeat: run-queue
/// pressure plus the objects it executed most since the last beat. Input
/// to [`ClusterState::plan_rebalance`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeLoad {
    /// Current RPC run-queue depth.
    pub queue_depth: u64,
    /// Invocations executed since the previous report.
    pub invocations: u64,
    /// Hottest objects in the window: (object id, invocation count),
    /// hottest first, bounded to a small top-K by the reporter.
    pub hot: Vec<(Vec<u8>, u64)>,
}

/// Tunables for the load-adaptive rebalancer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalancePolicy {
    /// Minimum per-window invocation count before an object is considered
    /// hot enough to be worth moving.
    pub hot_object_threshold: u64,
    /// Cap on concurrently in-flight migrations.
    pub max_inflight: usize,
}

impl Default for RebalancePolicy {
    fn default() -> Self {
        Self { hot_object_threshold: 64, max_inflight: 2 }
    }
}

/// Number of fixed placement slots objects hash onto.
pub const N_SLOTS: u16 = 64;

/// The deterministic, replicated view of the cluster.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterState {
    /// Registered storage nodes.
    pub nodes: BTreeSet<NodeId>,
    /// Shard table.
    pub shards: BTreeMap<ShardId, ShardInfo>,
    /// Slot table: placement slot → shard.
    pub slots: BTreeMap<u16, ShardId>,
    /// Objects pinned away from their slot-placement shard.
    pub pins: BTreeMap<Vec<u8>, ShardId>,
    /// In-flight object migrations, keyed by object id.
    pub migrations: BTreeMap<Vec<u8>, MigrationInfo>,
    /// Number of log entries applied (the state's version).
    pub version: u64,
}

impl ClusterState {
    /// Apply one command. Unknown/void commands are no-ops but still bump
    /// the version (the log position is consumed either way).
    pub fn apply(&mut self, cmd: &CoordCmd) {
        self.version += 1;
        match cmd {
            CoordCmd::RegisterNode { node } => {
                self.nodes.insert(*node);
            }
            CoordCmd::RemoveNode { node } => {
                self.nodes.remove(node);
                // A dead node can't finish syncing; drop it from every
                // in-flight recruitment. No epoch bump: syncing members
                // carry no read or ack responsibility to fence.
                for info in self.shards.values_mut() {
                    info.syncing.retain(|n| n != node);
                }
            }
            CoordCmd::CreateShard { shard, replicas } => {
                if self.shards.contains_key(shard) || replicas.is_empty() {
                    return;
                }
                self.shards.insert(
                    *shard,
                    ShardInfo {
                        primary: replicas[0],
                        backups: replicas[1..].to_vec(),
                        epoch: 1,
                        syncing: Vec::new(),
                        lost: false,
                        target_replicas: replicas.len() as u32,
                    },
                );
            }
            CoordCmd::Reconfigure { shard, new_primary, new_backups, expected_epoch } => {
                if let Some(info) = self.shards.get_mut(shard) {
                    if info.epoch != *expected_epoch {
                        return; // stale reconfiguration, already handled
                    }
                    info.primary = *new_primary;
                    info.backups = new_backups.clone();
                    info.syncing.retain(|n| !new_backups.contains(n) && *n != *new_primary);
                    info.epoch += 1;
                }
            }
            CoordCmd::AddBackup { shard, node, expected_epoch } => {
                if !self.nodes.contains(node) {
                    return;
                }
                if let Some(info) = self.shards.get_mut(shard) {
                    if info.epoch != *expected_epoch
                        || info.lost
                        || info.contains(*node)
                        || info.is_syncing(*node)
                    {
                        return;
                    }
                    info.syncing.push(*node);
                    info.epoch += 1;
                }
            }
            CoordCmd::ConfirmBackup { shard, node, expected_epoch } => {
                if let Some(info) = self.shards.get_mut(shard) {
                    if info.epoch != *expected_epoch || !info.is_syncing(*node) {
                        return;
                    }
                    info.syncing.retain(|n| n != node);
                    info.backups.push(*node);
                    info.epoch += 1;
                }
            }
            CoordCmd::MarkShardLost { shard, expected_epoch } => {
                if let Some(info) = self.shards.get_mut(shard) {
                    if info.epoch != *expected_epoch || info.lost {
                        return;
                    }
                    info.lost = true;
                    info.syncing.clear();
                    info.epoch += 1;
                }
            }
            CoordCmd::ReviveShard { shard, node, expected_epoch } => {
                if !self.nodes.contains(node) {
                    return;
                }
                if let Some(info) = self.shards.get_mut(shard) {
                    if info.epoch != *expected_epoch || !info.lost || !info.contains(*node) {
                        return;
                    }
                    info.primary = *node;
                    info.backups.clear();
                    info.syncing.clear();
                    info.lost = false;
                    info.epoch += 1;
                }
            }
            CoordCmd::AssignSlots { shard, slots } => {
                if !self.shards.contains_key(shard) {
                    return;
                }
                for &slot in slots {
                    if slot < N_SLOTS {
                        self.slots.insert(slot, *shard);
                    }
                }
            }
            CoordCmd::ReportCorruption { node, shard, expected_epoch } => {
                if let Some(info) = self.shards.get_mut(shard) {
                    if info.epoch != *expected_epoch || info.lost {
                        return;
                    }
                    if info.is_syncing(*node) {
                        // A rotten recruit abandons its transfer; repair
                        // restarts it from scratch against the new epoch.
                        info.syncing.retain(|n| n != node);
                        info.epoch += 1;
                        return;
                    }
                    if !info.contains(*node) {
                        return;
                    }
                    let survivors: Vec<NodeId> = info
                        .replicas()
                        .into_iter()
                        .filter(|n| *n != *node && self.nodes.contains(n))
                        .collect();
                    match survivors.first() {
                        Some(&new_primary) => {
                            info.primary = new_primary;
                            info.backups = survivors[1..].to_vec();
                            info.epoch += 1;
                        }
                        None => {
                            // No *registered* healthy survivor — but former
                            // members that merely missed heartbeats still
                            // hold every acked write, while the reporter's
                            // quarantine already punched holes in its data.
                            // Drop the reporter from membership so revival
                            // waits for a clean former member instead of
                            // re-seating the rotten copy; keep it only when
                            // it is truly the last copy (a hole-y replica
                            // beats none, and reads still verify checksums,
                            // so the worst case is missing data, never
                            // wrong data).
                            let rest: Vec<NodeId> =
                                info.replicas().into_iter().filter(|n| *n != *node).collect();
                            if let Some(&first) = rest.first() {
                                info.primary = first;
                                info.backups = rest[1..].to_vec();
                            }
                            info.lost = true;
                            info.syncing.clear();
                            info.epoch += 1;
                        }
                    }
                }
            }
            CoordCmd::PinObject { object, shard } => {
                if self.shards.contains_key(shard) {
                    self.pins.insert(object.clone(), *shard);
                }
            }
            CoordCmd::UnpinObject { object } => {
                self.pins.remove(object);
            }
            CoordCmd::PlanMigration { object, from, to } => {
                if from == to
                    || self.migrations.contains_key(object)
                    || self.shard_for_object(object) != Some(*from)
                {
                    return;
                }
                let (Some(src), Some(dst)) = (self.shards.get(from), self.shards.get(to)) else {
                    return;
                };
                if src.lost || dst.lost {
                    return;
                }
                self.migrations.insert(
                    object.clone(),
                    MigrationInfo {
                        from: *from,
                        to: *to,
                        from_primary: src.primary,
                        to_primary: dst.primary,
                        phase: MigrationPhase::Planned,
                    },
                );
            }
            CoordCmd::MigrationCopying { object } => {
                if let Some(m) = self.migrations.get_mut(object) {
                    if m.phase == MigrationPhase::Planned {
                        m.phase = MigrationPhase::Copying;
                    }
                }
            }
            CoordCmd::MigrationHandoff { object } => {
                if let Some(m) = self.migrations.get_mut(object) {
                    // Handoff → Handoff is the resume path; Planned/Copying
                    // advance. Nothing to fence: staleness is handled by
                    // the per-apply GC below.
                    m.phase = MigrationPhase::Handoff;
                }
            }
            CoordCmd::CommitMigration { object } => {
                let Some(m) = self.migrations.get(object) else { return };
                if m.phase != MigrationPhase::Handoff || !self.migration_live(object, m) {
                    return; // premature or stale; GC handles stale entries
                }
                let to = m.to;
                self.migrations.remove(object);
                // Pin hygiene: landing on the hash-home shard needs no pin
                // (and clears a stale one) — the directory only holds
                // objects placed *away* from their slot.
                let home = self.slots.get(&Self::slot_of(object)).copied();
                if home == Some(to) {
                    self.pins.remove(object);
                } else {
                    self.pins.insert(object.clone(), to);
                }
            }
            CoordCmd::AbortMigration { object, from, to, from_primary, to_primary, .. } => {
                if let Some(m) = self.migrations.get(object) {
                    let same_plan = m.from == *from
                        && m.to == *to
                        && m.from_primary == *from_primary
                        && m.to_primary == *to_primary;
                    if same_plan {
                        self.migrations.remove(object);
                    }
                }
            }
        }
        self.gc_stale_migrations();
    }

    /// True while `m`'s plan-time invariants still hold: both shards alive
    /// under their plan-time primaries and the object still mapped to the
    /// source. Any failover, revival, corruption demotion, or placement
    /// change on either side invalidates the copy authority.
    fn migration_live(&self, object: &[u8], m: &MigrationInfo) -> bool {
        let (Some(src), Some(dst)) = (self.shards.get(&m.from), self.shards.get(&m.to)) else {
            return false;
        };
        !src.lost
            && !dst.lost
            && src.primary == m.from_primary
            && dst.primary == m.to_primary
            && self.shard_for_object(object) == Some(m.from)
    }

    /// Auto-abort migrations whose invariants were invalidated by the
    /// command just applied. Runs inside `apply`, so every replica retires
    /// the same entries at the same log position: a source primary that
    /// died mid-handoff leaves nothing behind but a consistent abort.
    fn gc_stale_migrations(&mut self) {
        if self.migrations.is_empty() {
            return;
        }
        let stale: Vec<Vec<u8>> = self
            .migrations
            .iter()
            .filter(|(obj, m)| !self.migration_live(obj, m))
            .map(|(obj, _)| obj.clone())
            .collect();
        for obj in stale {
            self.migrations.remove(&obj);
        }
    }

    /// The shard responsible for `object`: a pin if present, otherwise the
    /// slot table (`fnv1a(object) % N_SLOTS`). Stable: adding shards never
    /// remaps objects until their slots are explicitly reassigned.
    pub fn shard_for_object(&self, object: &[u8]) -> Option<ShardId> {
        if let Some(s) = self.pins.get(object) {
            return Some(*s);
        }
        let slot = (fnv1a(object) % N_SLOTS as u64) as u16;
        self.slots.get(&slot).copied()
    }

    /// The placement slot `object` hashes onto.
    pub fn slot_of(object: &[u8]) -> u16 {
        (fnv1a(object) % N_SLOTS as u64) as u16
    }

    /// Info for `shard`.
    pub fn shard(&self, shard: ShardId) -> Option<&ShardInfo> {
        self.shards.get(&shard)
    }

    /// All shards `node` participates in.
    pub fn shards_of_node(&self, node: NodeId) -> Vec<ShardId> {
        self.shards.iter().filter(|(_, info)| info.contains(node)).map(|(id, _)| *id).collect()
    }

    /// Compute the reconfigurations needed if `dead` fails: for every shard
    /// it serves, drop it; if it was primary, promote the first surviving
    /// backup. Survivors are filtered through the registered-node set, so a
    /// replica removed by an earlier `RemoveNode` that was never
    /// reconfigured out cannot be "promoted" to primary of a shard it no
    /// longer serves. Shards with no survivors are marked lost so clients
    /// get a clean shard-unavailable error instead of hanging.
    pub fn plan_failover(&self, dead: NodeId) -> Vec<CoordCmd> {
        let mut cmds = Vec::new();
        for (&shard, info) in &self.shards {
            if !info.contains(dead) || info.lost {
                continue;
            }
            let survivors: Vec<NodeId> = info
                .replicas()
                .into_iter()
                .filter(|n| *n != dead && self.nodes.contains(n))
                .collect();
            let Some(&new_primary) = survivors.first() else {
                cmds.push(CoordCmd::MarkShardLost { shard, expected_epoch: info.epoch });
                continue;
            };
            cmds.push(CoordCmd::Reconfigure {
                shard,
                new_primary,
                new_backups: survivors[1..].to_vec(),
                expected_epoch: info.epoch,
            });
        }
        cmds
    }

    /// Compute repair actions restoring durability after failures: revive
    /// lost shards whose former members have rejoined, and recruit
    /// registered spares as syncing backups for shards below their target
    /// replica count. Every command is fenced on the shard's current epoch,
    /// so concurrent repairers dedup exactly like concurrent detectors.
    pub fn plan_repair(&self) -> Vec<CoordCmd> {
        let mut cmds = Vec::new();
        for (&shard, info) in &self.shards {
            if info.lost {
                // Any former member works: synchronous replication means
                // each of them holds every acknowledged write. Prefer the
                // old primary for continuity.
                if let Some(&node) = info.replicas().iter().find(|n| self.nodes.contains(n)) {
                    cmds.push(CoordCmd::ReviveShard { shard, node, expected_epoch: info.epoch });
                }
                continue;
            }
            let have = info.replicas().len() + info.syncing.len();
            let want = info.repair_target();
            if have >= want {
                continue;
            }
            let mut spares =
                self.nodes.iter().copied().filter(|n| !info.contains(*n) && !info.is_syncing(*n));
            // One recruit per shard per round: AddBackup bumps the epoch,
            // so batching several against the same expected_epoch would
            // self-fence all but the first anyway.
            if let Some(node) = spares.next() {
                cmds.push(CoordCmd::AddBackup { shard, node, expected_epoch: info.epoch });
            }
        }
        cmds
    }

    /// Plan migrations of hot objects off overloaded nodes. Input is the
    /// per-node load reports piggybacked on heartbeats; output is at most
    /// one `PlanMigration` per overloaded node per round, bounded by the
    /// policy's in-flight cap. Deterministic in its inputs, so concurrent
    /// rebalancers on different coordinators propose identical (deduped by
    /// `PlanMigration`'s no-existing-entry check) commands.
    pub fn plan_rebalance(
        &self,
        loads: &BTreeMap<NodeId, NodeLoad>,
        policy: &RebalancePolicy,
    ) -> Vec<CoordCmd> {
        let mut budget = policy.max_inflight.saturating_sub(self.migrations.len());
        if budget == 0 {
            return Vec::new();
        }
        let reporting: Vec<(&NodeId, &NodeLoad)> =
            loads.iter().filter(|(n, _)| self.nodes.contains(n)).collect();
        if reporting.len() < 2 {
            return Vec::new(); // nowhere to move load
        }
        let mean =
            reporting.iter().map(|(_, l)| l.invocations).sum::<u64>() / reporting.len() as u64;

        // Hottest node first; NodeId breaks ties for determinism.
        let mut by_load = reporting.clone();
        by_load.sort_by_key(|(n, l)| (std::cmp::Reverse(l.invocations), **n));

        let mut cmds = Vec::new();
        let mut claimed_targets: BTreeSet<NodeId> = BTreeSet::new();
        for &(src_node, load) in &by_load {
            if budget == 0 {
                break;
            }
            // Overloaded = clearly above the cluster mean and above the
            // absolute floor (an idle cluster is never "skewed").
            if load.invocations < policy.hot_object_threshold
                || load.invocations <= mean.saturating_mul(3) / 2
            {
                break; // sorted: nobody below is hotter
            }
            // Coolest reporting node that is primary of a healthy shard.
            let target = by_load.iter().rev().map(|(n, _)| **n).find(|n| {
                n != src_node
                    && !claimed_targets.contains(n)
                    && self.shards.values().any(|info| info.led_by(*n))
            });
            let Some(target_node) = target else { continue };
            // Hottest object actually served (as primary) by the source
            // that has somewhere to go.
            let mut hot = load.hot.clone();
            hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            for (object, count) in hot {
                if count < policy.hot_object_threshold || self.migrations.contains_key(&object) {
                    continue;
                }
                let Some(from) = self.shard_for_object(&object) else { continue };
                let from_ok = self.shards.get(&from).is_some_and(|info| info.led_by(*src_node));
                if !from_ok {
                    continue;
                }
                let to = self
                    .shards
                    .iter()
                    .find(|(id, info)| **id != from && info.led_by(target_node))
                    .map(|(id, _)| *id);
                let Some(to) = to else { break };
                // Anti-ping-pong hysteresis: the move must improve the
                // pairwise imbalance. A never-moved object may go anywhere
                // strictly cooler than its source (isolating a monolithic
                // hot object onto an idle node is worthwhile even when the
                // object alone dominates the target afterwards), but a
                // *pinned* object — one a previous migration already
                // placed — only moves again when the target stays at or
                // below the source even after absorbing it. Without the
                // stronger bar, per-beat load jitter walks a hot object
                // between near-tied nodes forever, fencing its writes on
                // every hop.
                let dst_load = loads.get(&target_node).map_or(0, |l| l.invocations);
                let improves = if self.pins.contains_key(&object) {
                    dst_load + count <= load.invocations.saturating_sub(count)
                } else {
                    dst_load + count < load.invocations
                };
                if !improves {
                    continue;
                }
                cmds.push(CoordCmd::PlanMigration { object, from, to });
                claimed_targets.insert(target_node);
                budget -= 1;
                break; // one object per overloaded node per round
            }
        }
        cmds
    }
}

/// Stable 64-bit FNV-1a used for hash placement.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_node_state() -> ClusterState {
        let mut st = ClusterState::default();
        for i in 0..3 {
            st.apply(&CoordCmd::RegisterNode { node: NodeId(i) });
        }
        st.apply(&CoordCmd::CreateShard {
            shard: 0,
            replicas: vec![NodeId(0), NodeId(1), NodeId(2)],
        });
        st.apply(&CoordCmd::AssignSlots { shard: 0, slots: (0..N_SLOTS).collect() });
        st
    }

    #[test]
    fn register_and_remove_nodes() {
        let mut st = ClusterState::default();
        st.apply(&CoordCmd::RegisterNode { node: NodeId(5) });
        assert!(st.nodes.contains(&NodeId(5)));
        st.apply(&CoordCmd::RemoveNode { node: NodeId(5) });
        assert!(!st.nodes.contains(&NodeId(5)));
        assert_eq!(st.version, 2);
    }

    #[test]
    fn create_shard_sets_primary_and_epoch() {
        let st = three_node_state();
        let info = st.shard(0).unwrap();
        assert_eq!(info.primary, NodeId(0));
        assert_eq!(info.backups, vec![NodeId(1), NodeId(2)]);
        assert_eq!(info.epoch, 1);
        assert!(info.contains(NodeId(2)));
        assert_eq!(info.replicas(), vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn duplicate_create_is_a_noop() {
        let mut st = three_node_state();
        st.apply(&CoordCmd::CreateShard { shard: 0, replicas: vec![NodeId(9)] });
        assert_eq!(st.shard(0).unwrap().primary, NodeId(0));
    }

    #[test]
    fn reconfigure_bumps_epoch_and_dedups() {
        let mut st = three_node_state();
        st.apply(&CoordCmd::Reconfigure {
            shard: 0,
            new_primary: NodeId(1),
            new_backups: vec![NodeId(2)],
            expected_epoch: 1,
        });
        let info = st.shard(0).unwrap();
        assert_eq!(info.primary, NodeId(1));
        assert_eq!(info.epoch, 2);
        // A second detector proposing against the old epoch is ignored.
        st.apply(&CoordCmd::Reconfigure {
            shard: 0,
            new_primary: NodeId(2),
            new_backups: vec![],
            expected_epoch: 1,
        });
        assert_eq!(st.shard(0).unwrap().primary, NodeId(1));
        assert_eq!(st.shard(0).unwrap().epoch, 2);
    }

    #[test]
    fn failover_plan_promotes_first_backup() {
        let st = three_node_state();
        let cmds = st.plan_failover(NodeId(0));
        assert_eq!(
            cmds,
            vec![CoordCmd::Reconfigure {
                shard: 0,
                new_primary: NodeId(1),
                new_backups: vec![NodeId(2)],
                expected_epoch: 1,
            }]
        );
        // Backup failure keeps the primary.
        let cmds = st.plan_failover(NodeId(2));
        assert_eq!(
            cmds,
            vec![CoordCmd::Reconfigure {
                shard: 0,
                new_primary: NodeId(0),
                new_backups: vec![NodeId(1)],
                expected_epoch: 1,
            }]
        );
        // Unrelated node: nothing to do.
        assert!(st.plan_failover(NodeId(9)).is_empty());
    }

    #[test]
    fn slot_placement_is_stable_and_total() {
        let mut st = three_node_state();
        let a = st.shard_for_object(b"user/42").unwrap();
        let b = st.shard_for_object(b"user/42").unwrap();
        assert_eq!(a, b, "placement must be deterministic");
        // Adding a shard WITHOUT slot reassignment changes nothing.
        st.apply(&CoordCmd::CreateShard { shard: 1, replicas: vec![NodeId(1), NodeId(2)] });
        assert_eq!(st.shard_for_object(b"user/42").unwrap(), a);
        // Reassigning half the slots splits placement.
        st.apply(&CoordCmd::AssignSlots { shard: 1, slots: (0..N_SLOTS / 2).collect() });
        let mut seen = BTreeSet::new();
        for i in 0..200 {
            seen.insert(st.shard_for_object(format!("obj-{i}").as_bytes()).unwrap());
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn slots_reject_missing_shard_and_overflow() {
        let mut st = three_node_state();
        st.apply(&CoordCmd::AssignSlots { shard: 99, slots: vec![0] });
        assert_eq!(st.slots.get(&0), Some(&0), "unchanged");
        st.apply(&CoordCmd::AssignSlots { shard: 0, slots: vec![N_SLOTS + 5] });
        assert!(st.slots.keys().all(|&s| s < N_SLOTS));
        assert_eq!(ClusterState::slot_of(b"x"), ClusterState::slot_of(b"x"));
    }

    #[test]
    fn pins_override_hash_placement() {
        let mut st = three_node_state();
        st.apply(&CoordCmd::CreateShard { shard: 7, replicas: vec![NodeId(2)] });
        st.apply(&CoordCmd::PinObject { object: b"hot".to_vec(), shard: 7 });
        assert_eq!(st.shard_for_object(b"hot"), Some(7));
        st.apply(&CoordCmd::UnpinObject { object: b"hot".to_vec() });
        let fallback = st.shard_for_object(b"hot").unwrap();
        assert_eq!(fallback, 0, "falls back to the slot table");
        assert!(st.pins.is_empty());
    }

    #[test]
    fn pin_to_missing_shard_is_ignored() {
        let mut st = three_node_state();
        st.apply(&CoordCmd::PinObject { object: b"x".to_vec(), shard: 99 });
        assert!(st.pins.is_empty());
    }

    #[test]
    fn empty_state_has_no_placement() {
        let st = ClusterState::default();
        assert_eq!(st.shard_for_object(b"anything"), None);
    }

    #[test]
    fn deterministic_replay_converges() {
        let cmds = vec![
            CoordCmd::RegisterNode { node: NodeId(1) },
            CoordCmd::RegisterNode { node: NodeId(2) },
            CoordCmd::CreateShard { shard: 0, replicas: vec![NodeId(1), NodeId(2)] },
            CoordCmd::Reconfigure {
                shard: 0,
                new_primary: NodeId(2),
                new_backups: vec![],
                expected_epoch: 1,
            },
            CoordCmd::AssignSlots { shard: 0, slots: vec![0, 1, 2] },
            CoordCmd::PinObject { object: b"o".to_vec(), shard: 0 },
        ];
        let mut a = ClusterState::default();
        let mut b = ClusterState::default();
        for c in &cmds {
            a.apply(c);
        }
        for c in &cmds {
            b.apply(c);
        }
        assert_eq!(a, b);
        assert_eq!(a.version, cmds.len() as u64);
    }

    #[test]
    fn shards_of_node_lists_participation() {
        let mut st = three_node_state();
        st.apply(&CoordCmd::CreateShard { shard: 1, replicas: vec![NodeId(2)] });
        assert_eq!(st.shards_of_node(NodeId(2)), vec![0, 1]);
        assert_eq!(st.shards_of_node(NodeId(0)), vec![0]);
    }

    #[test]
    fn wire_round_trip() {
        let mut st = three_node_state();
        st.apply(&CoordCmd::CreateShard { shard: 7, replicas: vec![NodeId(2)] });
        st.apply(&CoordCmd::PlanMigration { object: b"hot".to_vec(), from: 0, to: 7 });
        assert!(st.migrations.contains_key(b"hot".as_slice()));
        let bytes = lambda_net::wire::to_bytes(&st).unwrap();
        let back: ClusterState = lambda_net::wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, st);
    }

    #[test]
    fn failover_ignores_deregistered_survivors() {
        // The double-failure interleaving: node 1 is removed from the
        // cluster (RemoveNode) but a concurrent detector never got its
        // Reconfigure in, so the shard still lists it as a backup. When
        // node 0 then dies, the plan must not promote the ghost.
        let mut st = three_node_state();
        st.apply(&CoordCmd::RemoveNode { node: NodeId(1) });
        let cmds = st.plan_failover(NodeId(0));
        assert_eq!(
            cmds,
            vec![CoordCmd::Reconfigure {
                shard: 0,
                new_primary: NodeId(2),
                new_backups: vec![],
                expected_epoch: 1,
            }]
        );
    }

    #[test]
    fn failover_with_no_survivors_marks_shard_lost() {
        let mut st = three_node_state();
        st.apply(&CoordCmd::RemoveNode { node: NodeId(1) });
        st.apply(&CoordCmd::RemoveNode { node: NodeId(2) });
        let cmds = st.plan_failover(NodeId(0));
        assert_eq!(cmds, vec![CoordCmd::MarkShardLost { shard: 0, expected_epoch: 1 }]);
        for c in &cmds {
            st.apply(c);
        }
        let info = st.shard(0).unwrap();
        assert!(info.lost);
        assert_eq!(info.epoch, 2);
        // Membership is preserved for revival.
        assert!(info.contains(NodeId(0)));
        // A lost shard produces no further failover work.
        assert!(st.plan_failover(NodeId(0)).is_empty());
        // Stale duplicate from a concurrent detector is fenced out.
        st.apply(&CoordCmd::MarkShardLost { shard: 0, expected_epoch: 1 });
        assert_eq!(st.shard(0).unwrap().epoch, 2);
    }

    #[test]
    fn add_backup_recruits_syncing_not_replica() {
        let mut st = three_node_state();
        st.apply(&CoordCmd::RegisterNode { node: NodeId(3) });
        st.apply(&CoordCmd::AddBackup { shard: 0, node: NodeId(3), expected_epoch: 1 });
        let info = st.shard(0).unwrap();
        assert_eq!(info.syncing, vec![NodeId(3)]);
        assert_eq!(info.epoch, 2);
        // Syncing is not membership: no reads, no acks.
        assert!(!info.contains(NodeId(3)));
        assert!(!info.replicas().contains(&NodeId(3)));
        assert!(info.is_syncing(NodeId(3)));
        // A concurrent repairer proposing against the old epoch dedups.
        st.apply(&CoordCmd::AddBackup { shard: 0, node: NodeId(3), expected_epoch: 1 });
        assert_eq!(st.shard(0).unwrap().syncing, vec![NodeId(3)]);
        assert_eq!(st.shard(0).unwrap().epoch, 2);
    }

    #[test]
    fn add_backup_rejects_unregistered_members_and_lost() {
        let mut st = three_node_state();
        // Unregistered spare.
        st.apply(&CoordCmd::AddBackup { shard: 0, node: NodeId(9), expected_epoch: 1 });
        assert!(st.shard(0).unwrap().syncing.is_empty());
        // Existing member.
        st.apply(&CoordCmd::AddBackup { shard: 0, node: NodeId(1), expected_epoch: 1 });
        assert!(st.shard(0).unwrap().syncing.is_empty());
        assert_eq!(st.shard(0).unwrap().epoch, 1);
    }

    #[test]
    fn confirm_backup_promotes_and_bumps_epoch() {
        let mut st = three_node_state();
        st.apply(&CoordCmd::RegisterNode { node: NodeId(3) });
        st.apply(&CoordCmd::AddBackup { shard: 0, node: NodeId(3), expected_epoch: 1 });
        st.apply(&CoordCmd::ConfirmBackup { shard: 0, node: NodeId(3), expected_epoch: 2 });
        let info = st.shard(0).unwrap();
        assert!(info.syncing.is_empty());
        assert!(info.backups.contains(&NodeId(3)));
        assert!(info.contains(NodeId(3)));
        assert_eq!(info.epoch, 3);
        // Confirming a node that is not syncing is a no-op.
        st.apply(&CoordCmd::ConfirmBackup { shard: 0, node: NodeId(3), expected_epoch: 3 });
        assert_eq!(st.shard(0).unwrap().epoch, 3);
    }

    #[test]
    fn departed_members_tracks_replica_set_shrinkage() {
        let mut st = three_node_state();
        let before = st.shard(0).unwrap().clone();
        // Failover away from the primary: the old primary departed, the
        // promoted backup and any survivors have not.
        st.apply(&CoordCmd::RemoveNode { node: before.primary });
        for cmd in st.plan_failover(before.primary) {
            st.apply(&cmd);
        }
        let after = st.shard(0).unwrap();
        assert_eq!(before.departed_members(after), vec![before.primary]);
        assert!(after.departed_members(after).is_empty(), "stable config has no departures");
        // A syncing recruit is not a member and never shows up as departed.
        let mut with_recruit = after.clone();
        with_recruit.syncing.push(NodeId(9));
        assert_eq!(with_recruit.departed_members(after), Vec::<NodeId>::new());
    }

    #[test]
    fn remove_node_purges_syncing_recruits() {
        let mut st = three_node_state();
        st.apply(&CoordCmd::RegisterNode { node: NodeId(3) });
        st.apply(&CoordCmd::AddBackup { shard: 0, node: NodeId(3), expected_epoch: 1 });
        st.apply(&CoordCmd::RemoveNode { node: NodeId(3) });
        let info = st.shard(0).unwrap();
        assert!(info.syncing.is_empty());
        assert_eq!(info.epoch, 2, "purging a recruit does not fence live traffic");
    }

    #[test]
    fn repair_plans_recruit_up_to_target() {
        let mut st = three_node_state();
        // Fully replicated: nothing to repair.
        assert!(st.plan_repair().is_empty());
        // Lose a backup; no spare registered → nothing to recruit yet.
        for c in st.plan_failover(NodeId(2)) {
            st.apply(&c);
        }
        st.apply(&CoordCmd::RemoveNode { node: NodeId(2) });
        assert!(st.plan_repair().is_empty());
        // A spare joins: recruit it.
        st.apply(&CoordCmd::RegisterNode { node: NodeId(7) });
        let info = st.shard(0).unwrap();
        let cmds = st.plan_repair();
        assert_eq!(
            cmds,
            vec![CoordCmd::AddBackup { shard: 0, node: NodeId(7), expected_epoch: info.epoch }]
        );
        for c in &cmds {
            st.apply(c);
        }
        // While the recruit is syncing the shard is "full": no double
        // recruitment from a second repairer pass.
        assert!(st.plan_repair().is_empty());
        // Confirmed → still full.
        let e = st.shard(0).unwrap().epoch;
        st.apply(&CoordCmd::ConfirmBackup { shard: 0, node: NodeId(7), expected_epoch: e });
        assert!(st.plan_repair().is_empty());
        assert_eq!(st.shard(0).unwrap().replicas().len(), 3);
    }

    #[test]
    fn corrupt_backup_is_dropped_and_rerecruited() {
        let mut st = three_node_state();
        st.apply(&CoordCmd::ReportCorruption { node: NodeId(2), shard: 0, expected_epoch: 1 });
        let info = st.shard(0).unwrap();
        assert_eq!(info.primary, NodeId(0));
        assert_eq!(info.backups, vec![NodeId(1)]);
        assert_eq!(info.epoch, 2);
        assert!(st.nodes.contains(&NodeId(2)), "node stays registered");
        // Repair re-recruits the very node that reported: sync wipes and
        // rebuilds its local copy from a healthy replica.
        let cmds = st.plan_repair();
        assert_eq!(
            cmds,
            vec![CoordCmd::AddBackup { shard: 0, node: NodeId(2), expected_epoch: 2 }]
        );
        // A duplicate report against the old epoch is fenced out.
        st.apply(&CoordCmd::ReportCorruption { node: NodeId(1), shard: 0, expected_epoch: 1 });
        assert_eq!(st.shard(0).unwrap().backups, vec![NodeId(1)]);
    }

    #[test]
    fn corrupt_primary_demotes_to_healthy_backup() {
        let mut st = three_node_state();
        st.apply(&CoordCmd::ReportCorruption { node: NodeId(0), shard: 0, expected_epoch: 1 });
        let info = st.shard(0).unwrap();
        assert_eq!(info.primary, NodeId(1), "first healthy backup promoted");
        assert_eq!(info.backups, vec![NodeId(2)]);
        assert_eq!(info.epoch, 2);
        assert!(!info.lost);
    }

    #[test]
    fn corrupt_last_copy_marks_shard_lost() {
        let mut st = ClusterState::default();
        st.apply(&CoordCmd::RegisterNode { node: NodeId(0) });
        st.apply(&CoordCmd::CreateShard { shard: 0, replicas: vec![NodeId(0)] });
        st.apply(&CoordCmd::ReportCorruption { node: NodeId(0), shard: 0, expected_epoch: 1 });
        let info = st.shard(0).unwrap();
        assert!(info.lost, "no healthy replica to repair from");
        assert!(info.contains(NodeId(0)), "membership preserved");
        assert_eq!(info.epoch, 2);
    }

    #[test]
    fn corrupt_report_with_starved_survivors_prefers_clean_revival() {
        // The reporter's peers missed heartbeats (starved, not gone): no
        // registered survivor exists, but the unregistered former members
        // hold every acked write while the reporter's quarantine punched
        // holes in its copy. The shard goes lost with the reporter dropped
        // from membership, so revival waits for a clean member instead of
        // re-seating the rotten one.
        let mut st = three_node_state();
        st.apply(&CoordCmd::RemoveNode { node: NodeId(1) });
        st.apply(&CoordCmd::RemoveNode { node: NodeId(2) });
        st.apply(&CoordCmd::ReportCorruption { node: NodeId(0), shard: 0, expected_epoch: 1 });
        let info = st.shard(0).unwrap();
        assert!(info.lost);
        assert!(!info.contains(NodeId(0)), "rotten reporter dropped");
        assert!(info.contains(NodeId(1)) && info.contains(NodeId(2)), "clean members kept");
        // The reporter is still registered, but it is no longer a member:
        // repair must NOT revive the shard from it.
        assert!(st.plan_repair().is_empty());
        // A starved survivor re-registers → revival picks it.
        st.apply(&CoordCmd::RegisterNode { node: NodeId(1) });
        let cmds = st.plan_repair();
        let epoch = st.shard(0).unwrap().epoch;
        assert_eq!(
            cmds,
            vec![CoordCmd::ReviveShard { shard: 0, node: NodeId(1), expected_epoch: epoch }]
        );
        for c in cmds {
            st.apply(&c);
        }
        let info = st.shard(0).unwrap();
        assert!(!info.lost);
        assert_eq!(info.primary, NodeId(1));
    }

    #[test]
    fn corrupt_syncing_recruit_restarts_transfer() {
        let mut st = three_node_state();
        // Lose a backup so repair actually recruits the spare.
        for c in st.plan_failover(NodeId(2)) {
            st.apply(&c);
        }
        st.apply(&CoordCmd::RemoveNode { node: NodeId(2) });
        st.apply(&CoordCmd::RegisterNode { node: NodeId(3) });
        for c in st.plan_repair() {
            st.apply(&c);
        }
        assert!(st.shard(0).unwrap().is_syncing(NodeId(3)));
        let e = st.shard(0).unwrap().epoch;
        st.apply(&CoordCmd::ReportCorruption { node: NodeId(3), shard: 0, expected_epoch: e });
        let info = st.shard(0).unwrap();
        assert!(info.syncing.is_empty());
        assert_eq!(info.epoch, e + 1);
        // Next repair round recruits again (possibly the same node).
        assert_eq!(st.plan_repair().len(), 1);
        // A non-member report is a no-op.
        st.apply(&CoordCmd::ReportCorruption { node: NodeId(9), shard: 0, expected_epoch: e + 1 });
        assert_eq!(st.shard(0).unwrap().epoch, e + 1);
    }

    /// three_node_state plus a second shard (7) whose primary is NodeId(2).
    fn two_shard_state() -> ClusterState {
        let mut st = three_node_state();
        st.apply(&CoordCmd::CreateShard { shard: 7, replicas: vec![NodeId(2)] });
        st
    }

    #[test]
    fn migration_full_lifecycle_pins_object() {
        let mut st = two_shard_state();
        let obj = b"hot".to_vec();
        st.apply(&CoordCmd::PlanMigration { object: obj.clone(), from: 0, to: 7 });
        let m = st.migrations.get(&obj).expect("planned");
        assert_eq!((m.from, m.to, m.phase), (0, 7, MigrationPhase::Planned));
        assert_eq!((m.from_primary, m.to_primary), (NodeId(0), NodeId(2)));
        // Placement unchanged until commit: the source keeps serving.
        assert_eq!(st.shard_for_object(&obj), Some(0));

        st.apply(&CoordCmd::MigrationCopying { object: obj.clone() });
        assert_eq!(st.migrations[&obj].phase, MigrationPhase::Copying);
        st.apply(&CoordCmd::MigrationHandoff { object: obj.clone() });
        assert_eq!(st.migrations[&obj].phase, MigrationPhase::Handoff);
        // Handoff re-proposal (driver resume) is idempotent.
        st.apply(&CoordCmd::MigrationHandoff { object: obj.clone() });
        assert_eq!(st.migrations[&obj].phase, MigrationPhase::Handoff);

        st.apply(&CoordCmd::CommitMigration { object: obj.clone() });
        assert!(st.migrations.is_empty(), "commit retires the entry");
        assert_eq!(st.pins.get(&obj), Some(&7));
        assert_eq!(st.shard_for_object(&obj), Some(7));
        // A duplicate commit (retried proposal) is a no-op.
        st.apply(&CoordCmd::CommitMigration { object: obj.clone() });
        assert_eq!(st.pins.get(&obj), Some(&7));
    }

    #[test]
    fn migration_home_landing_unpins_instead_of_pinning() {
        let mut st = two_shard_state();
        let obj = b"hot".to_vec();
        st.apply(&CoordCmd::PinObject { object: obj.clone(), shard: 7 });
        assert_eq!(st.shard_for_object(&obj), Some(7));
        // Migrate back to the hash-home shard (all slots → shard 0).
        st.apply(&CoordCmd::PlanMigration { object: obj.clone(), from: 7, to: 0 });
        st.apply(&CoordCmd::MigrationHandoff { object: obj.clone() });
        st.apply(&CoordCmd::CommitMigration { object: obj.clone() });
        assert!(st.pins.is_empty(), "home landing clears the pin");
        assert_eq!(st.shard_for_object(&obj), Some(0));
        assert!(st.migrations.is_empty());
    }

    #[test]
    fn plan_migration_rejects_invalid() {
        let mut st = two_shard_state();
        let obj = b"o".to_vec();
        // Same source and destination.
        st.apply(&CoordCmd::PlanMigration { object: obj.clone(), from: 0, to: 0 });
        // Wrong source shard.
        st.apply(&CoordCmd::PlanMigration { object: obj.clone(), from: 7, to: 0 });
        // Missing destination.
        st.apply(&CoordCmd::PlanMigration { object: obj.clone(), from: 0, to: 99 });
        assert!(st.migrations.is_empty());
        // A live entry blocks a second plan (concurrent migration dedup).
        st.apply(&CoordCmd::PlanMigration { object: obj.clone(), from: 0, to: 7 });
        st.apply(&CoordCmd::PlanMigration { object: obj.clone(), from: 0, to: 7 });
        assert_eq!(st.migrations.len(), 1);
        // Lost destination is rejected.
        let e = st.shard(7).unwrap().epoch;
        st.apply(&CoordCmd::MarkShardLost { shard: 7, expected_epoch: e });
        st.apply(&CoordCmd::PlanMigration { object: b"p".to_vec(), from: 0, to: 7 });
        assert!(!st.migrations.contains_key(b"p".as_slice()));
    }

    #[test]
    fn source_failover_mid_migration_auto_aborts() {
        let mut st = two_shard_state();
        let obj = b"hot".to_vec();
        st.apply(&CoordCmd::PlanMigration { object: obj.clone(), from: 0, to: 7 });
        st.apply(&CoordCmd::MigrationHandoff { object: obj.clone() });
        // Source primary dies; the failover reconfiguration retires the
        // entry in the same log step that bumps the epoch.
        for c in st.plan_failover(NodeId(0)) {
            st.apply(&c);
        }
        assert!(st.migrations.is_empty(), "failover aborts the in-flight migration");
        // A straggling commit proposal from the deposed driver loses.
        st.apply(&CoordCmd::CommitMigration { object: obj.clone() });
        assert!(st.pins.is_empty());
        assert_eq!(st.shard_for_object(&obj), Some(0), "object stays at the source");
    }

    #[test]
    fn target_loss_mid_migration_auto_aborts() {
        let mut st = two_shard_state();
        let obj = b"hot".to_vec();
        st.apply(&CoordCmd::PlanMigration { object: obj.clone(), from: 0, to: 7 });
        st.apply(&CoordCmd::RemoveNode { node: NodeId(2) });
        for c in st.plan_failover(NodeId(2)) {
            st.apply(&c);
        }
        assert!(st.migrations.is_empty(), "target loss aborts the migration");
        assert_eq!(st.shard_for_object(&obj), Some(0));
    }

    #[test]
    fn slot_reassignment_mid_migration_auto_aborts() {
        let mut st = two_shard_state();
        let obj = b"hot".to_vec();
        st.apply(&CoordCmd::PlanMigration { object: obj.clone(), from: 0, to: 7 });
        // The object's slot moves to another shard: the plan-time mapping
        // no longer holds, so the entry dies with it.
        st.apply(&CoordCmd::AssignSlots { shard: 7, slots: vec![ClusterState::slot_of(&obj)] });
        assert!(st.migrations.is_empty());
    }

    #[test]
    fn premature_commit_is_a_noop() {
        let mut st = two_shard_state();
        let obj = b"hot".to_vec();
        st.apply(&CoordCmd::PlanMigration { object: obj.clone(), from: 0, to: 7 });
        st.apply(&CoordCmd::CommitMigration { object: obj.clone() });
        assert!(st.migrations.contains_key(&obj), "entry survives a premature commit");
        assert!(st.pins.is_empty());
        st.apply(&CoordCmd::AbortMigration {
            object: obj.clone(),
            from: 0,
            to: 7,
            from_primary: NodeId(0),
            to_primary: NodeId(2),
            reason: "target unreachable".into(),
        });
        assert!(st.migrations.is_empty());
        assert_eq!(st.shard_for_object(&obj), Some(0));

        // A stale driver aborting a *superseded* plan must not kill the
        // live one: mismatched identity fields make the abort a no-op.
        st.apply(&CoordCmd::PlanMigration { object: obj.clone(), from: 0, to: 7 });
        st.apply(&CoordCmd::AbortMigration {
            object: obj.clone(),
            from: 0,
            to: 7,
            from_primary: NodeId(1),
            to_primary: NodeId(2),
            reason: "stale driver".into(),
        });
        assert!(st.migrations.contains_key(&obj), "mismatched abort is ignored");
    }

    /// (node id, invocations, hot objects as (id, count)).
    type LoadEntry<'a> = (u32, u64, &'a [(&'a [u8], u64)]);

    fn loads(entries: &[LoadEntry<'_>]) -> BTreeMap<NodeId, NodeLoad> {
        entries
            .iter()
            .map(|(n, inv, hot)| {
                (
                    NodeId(*n),
                    NodeLoad {
                        queue_depth: 0,
                        invocations: *inv,
                        hot: hot.iter().map(|(o, c)| (o.to_vec(), *c)).collect(),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn rebalance_moves_hot_object_off_overloaded_node() {
        let st = two_shard_state();
        let policy = RebalancePolicy { hot_object_threshold: 10, max_inflight: 2 };
        // Node 0 (primary of shard 0) is slammed by one object; node 2
        // (primary of shard 7) is idle.
        let l = loads(&[(0, 1000, &[(b"hot", 900)]), (1, 10, &[]), (2, 5, &[])]);
        let cmds = st.plan_rebalance(&l, &policy);
        assert_eq!(cmds, vec![CoordCmd::PlanMigration { object: b"hot".to_vec(), from: 0, to: 7 }]);
        // Determinism: same inputs, same plan.
        assert_eq!(st.plan_rebalance(&l, &policy), cmds);
    }

    #[test]
    fn rebalance_ignores_balanced_or_idle_clusters() {
        let st = two_shard_state();
        let policy = RebalancePolicy { hot_object_threshold: 10, max_inflight: 2 };
        // Balanced: nobody clearly above the mean.
        let l = loads(&[(0, 100, &[(b"a", 50)]), (2, 90, &[(b"b", 40)])]);
        assert!(st.plan_rebalance(&l, &policy).is_empty());
        // Idle: skewed but under the absolute floor.
        let l = loads(&[(0, 8, &[(b"a", 8)]), (2, 0, &[])]);
        assert!(st.plan_rebalance(&l, &policy).is_empty());
        // Single reporter: nowhere to move load.
        let l = loads(&[(0, 1000, &[(b"a", 900)])]);
        assert!(st.plan_rebalance(&l, &policy).is_empty());
    }

    #[test]
    fn rebalance_respects_inflight_cap_and_live_entries() {
        let mut st = two_shard_state();
        let policy = RebalancePolicy { hot_object_threshold: 10, max_inflight: 1 };
        let l = loads(&[(0, 1000, &[(b"hot", 900)]), (2, 5, &[])]);
        for c in st.plan_rebalance(&l, &policy) {
            st.apply(&c);
        }
        assert_eq!(st.migrations.len(), 1);
        // The in-flight migration exhausts the cap; an already-migrating
        // object is also never re-planned.
        assert!(st.plan_rebalance(&l, &policy).is_empty());
    }

    #[test]
    fn rebalance_hysteresis_blocks_ping_pong() {
        let mut st = two_shard_state();
        st.apply(&CoordCmd::PinObject { object: b"hot".to_vec(), shard: 7 });
        let policy = RebalancePolicy { hot_object_threshold: 10, max_inflight: 2 };
        // The previously-migrated (pinned) object sits on node 2, which is
        // moderately hotter than node 0. The weak improvement bar would
        // allow the move (20 + 60 < 100) — and next beat's jitter would
        // move it again, fencing its writes on every hop — but a pinned
        // object needs strong improvement to move a second time.
        let l = loads(&[(0, 20, &[]), (1, 0, &[]), (2, 100, &[(b"hot", 60)])]);
        assert!(st.plan_rebalance(&l, &policy).is_empty());
        // A genuinely slammed source clears the stronger bar: the target
        // stays no hotter than the source even after absorbing the object.
        let l = loads(&[(0, 20, &[]), (1, 0, &[]), (2, 200, &[(b"hot", 60)])]);
        assert_eq!(
            st.plan_rebalance(&l, &policy),
            vec![CoordCmd::PlanMigration { object: b"hot".to_vec(), from: 7, to: 0 }]
        );
    }

    #[test]
    fn repair_revives_lost_shard_on_returning_member() {
        let mut st = three_node_state();
        st.apply(&CoordCmd::RemoveNode { node: NodeId(1) });
        st.apply(&CoordCmd::RemoveNode { node: NodeId(2) });
        for c in st.plan_failover(NodeId(0)) {
            st.apply(&c);
        }
        st.apply(&CoordCmd::RemoveNode { node: NodeId(0) });
        assert!(st.shard(0).unwrap().lost);
        // No former member registered → nothing to do.
        assert!(st.plan_repair().is_empty());
        // A *stranger* registering does not revive the shard (it has no
        // data); only a former member may.
        st.apply(&CoordCmd::RegisterNode { node: NodeId(9) });
        assert!(st.plan_repair().is_empty());
        // The old backup restarts and re-registers.
        st.apply(&CoordCmd::RegisterNode { node: NodeId(2) });
        let e = st.shard(0).unwrap().epoch;
        let cmds = st.plan_repair();
        assert_eq!(
            cmds,
            vec![CoordCmd::ReviveShard { shard: 0, node: NodeId(2), expected_epoch: e }]
        );
        for c in &cmds {
            st.apply(c);
        }
        let info = st.shard(0).unwrap();
        assert!(!info.lost);
        assert_eq!(info.primary, NodeId(2));
        assert!(info.backups.is_empty());
        // The next repair round re-replicates onto the stranger.
        let cmds = st.plan_repair();
        assert_eq!(
            cmds,
            vec![CoordCmd::AddBackup { shard: 0, node: NodeId(9), expected_epoch: info.epoch }]
        );
    }
}
