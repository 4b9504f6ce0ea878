//! Coordinator-owned object migration, node side (DESIGN.md §14): the
//! source primary's driver and the target's install.
//!
//! The plan and its phase live in the coordinator's replicated state; this
//! module only executes it. [`Migrations`] owns the set of plans this node
//! is driving and the two outcome counters, and is the only code that
//! locks them.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use lambda_coordinator::{
    ClusterState, CoordClient, CoordCmd, MigrationInfo, MigrationPhase, ShardId,
};
use lambda_net::NodeId;
use lambda_objects::migration::ObjectSnapshot;
use lambda_objects::{keys, Counter, InvocationContext, InvokeError, ObjectId, Registry};

use crate::aggregated::NodeInner;
use crate::proto::StoreRequest;

/// `MigrateInstall` attempts against the target primary before the source
/// driver gives up and proposes `AbortMigration`.
const MIGRATE_SHIP_RETRIES: usize = 20;
/// Pause between those attempts.
const MIGRATE_SHIP_PAUSE: Duration = Duration::from_millis(10);
/// Pause between migration-driver steps while waiting for placement to
/// catch up with a proposed phase change.
const MIGRATE_POLL_PAUSE: Duration = Duration::from_millis(5);

/// The migrations this node is driving as source primary.
pub(crate) struct Migrations {
    /// Objects with a running driver (guards against double-spawning).
    driving: Mutex<HashSet<Vec<u8>>>,
    /// Coordinator-owned migrations this node drove to commit as source.
    completed: Counter,
    /// Migrations this node gave up on as source and proposed to abort
    /// (the proposal carries the reason).
    aborted: Counter,
}

impl Migrations {
    pub(crate) fn new(registry: &Registry) -> Migrations {
        Migrations {
            driving: Mutex::default(),
            completed: registry.counter("node_migrations_completed"),
            aborted: registry.counter("node_migrations_aborted"),
        }
    }

    /// Claim `object`'s migration for a new driver; false while one runs.
    /// Claimed before the driver starts so the next reconcile skips it.
    pub(crate) fn claim(&self, object: &[u8]) -> bool {
        self.driving.lock().insert(object.to_vec())
    }
}

/// True when `a` and `b` are the same plan, whatever phase each records. A
/// plan aborted and re-planned while its driver was stuck is a *successor*
/// with its own driver: nothing the old driver knows applies to it.
fn same_plan(a: &MigrationInfo, b: &MigrationInfo) -> bool {
    (a.from, a.to, a.from_primary, a.to_primary) == (b.from, b.to, b.from_primary, b.to_primary)
}

impl NodeInner {
    /// Start the driver of a migration [`Migrations::claim`] just claimed:
    /// one parked thread that runs the plan to commit or abort. The plan
    /// lives in the Paxos log, so a restarted source primary is handed it
    /// again by its first reconcile and resumes from the recorded phase.
    pub(crate) fn spawn_migration_driver(
        &self,
        coord: &Arc<CoordClient>,
        object: Vec<u8>,
        planned: MigrationInfo,
    ) {
        let (node, coord) = (self.arc(), Arc::clone(coord));
        std::thread::Builder::new()
            .name(format!("store-{}-migrate-drive", self.id))
            .spawn(move || node.drive_migration(&coord, object, planned))
            .expect("spawn migration driver");
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
            self.migrate.aborted.incr();
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
        self.migrate.driving.lock().remove(&object);
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
                    self.migrate.completed.incr();
                }
                return Ok(());
            };
            if !same_plan(m, planned) {
                // Our warm/handoff flags describe the old plan — bail and
                // let the successor's own driver run it.
                return Ok(());
            }
            if !state.shard(m.from).is_some_and(|src| src.led_by(self.id)) {
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
                        self.ship_snapshot("warm", &oid, planned, dst.primary)?;
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
                        self.ship_snapshot("final", &oid, planned, dst.primary)?;
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

    /// Export `oid` and ship the snapshot to the migration target's
    /// primary, retrying through transient faults; a persistent failure
    /// aborts the migration.
    ///
    /// Each retry re-checks the replicated plan: a dead target means the
    /// retries span seconds, long enough for the coordinator's liveness GC
    /// to abort the entry and a successor plan to appear. Bailing as soon
    /// as the plan we're serving is gone keeps a stuck driver from
    /// shipping a stale snapshot at (or past) the successor.
    fn ship_snapshot(
        &self,
        pass: &str,
        oid: &ObjectId,
        planned: &MigrationInfo,
        target: NodeId,
    ) -> Result<(), String> {
        let snapshot =
            self.engine.export_object(oid).map_err(|e| format!("{pass} export of {oid}: {e}"))?;
        let req = StoreRequest::MigrateInstall { snapshot, shard: planned.to };
        let plan_live =
            || self.placement.migration_of(&oid.0).is_some_and(|m| same_plan(&m, planned));
        self.ship(target, &req, MIGRATE_SHIP_RETRIES, MIGRATE_SHIP_PAUSE, plan_live)
            .map_err(|e| format!("{pass} install at node-{} failed: {e}", target.0))
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
                replies: vec![],
                quorum: vec![],
            };
            for backup in info.backups.iter().filter(|b| !in_target(**b)) {
                let _ = self.call_peer(&ctx, *backup, &req);
            }
        }
    }

    /// Target role: install (or replace) a migrating object's snapshot on
    /// this member of `shard`; the shard's primary fans it out to its
    /// backups.
    pub(crate) fn migrate_install(
        &self,
        snapshot: ObjectSnapshot,
        shard: ShardId,
    ) -> Result<(), InvokeError> {
        let state = self.placement.snapshot();
        let info = state
            .shard(shard)
            .ok_or_else(|| InvokeError::WrongNode(format!("no shard {shard}")))?;
        if !info.contains(self.id) {
            return Err(InvokeError::WrongNode(format!(
                "node-{} holds no replica of shard {shard}",
                self.id.0
            )));
        }
        // A node holds ONE copy of an object. When this node is a member
        // of the shard the object is *currently routed to* (source/target
        // shards overlap, or a failover made the source primary the
        // target's), its copy IS the live one — kept fresh by the serving
        // shard's synchronous replication. Replacing it wholesale with a
        // snapshot that was exported earlier would roll back acked writes,
        // so the install is a no-op here; the fenced final snapshot such a
        // node would receive equals what it already holds.
        let holds_live = state
            .shard_for_object(&snapshot.id.0)
            .and_then(|s| state.shard(s))
            .is_some_and(|serving| serving.contains(self.id));
        if !holds_live {
            self.engine.install_object_replacing(&snapshot)?;
        }
        if info.primary == self.id {
            // Fan the replacing install out to the shard's backups with
            // the same wholesale semantics: op-replication could leave
            // keys of a superseded warm copy behind. Each backup applies
            // its own holds-live check against its own placement view.
            let req = StoreRequest::MigrateInstall { snapshot, shard };
            for &backup in &info.backups {
                self.ship(backup, &req, 1, Duration::ZERO, || true)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_identity_ignores_the_phase_and_nothing_else() {
        let plan = MigrationInfo {
            from: 0,
            to: 7,
            from_primary: NodeId(1),
            to_primary: NodeId(2),
            phase: MigrationPhase::Planned,
        };
        assert!(same_plan(
            &plan,
            &MigrationInfo { phase: MigrationPhase::Handoff, ..plan.clone() }
        ));
        assert!(!same_plan(&plan, &MigrationInfo { to: 8, ..plan.clone() }));
        assert!(!same_plan(&plan, &MigrationInfo { from: 1, ..plan.clone() }));
        assert!(!same_plan(&plan, &MigrationInfo { from_primary: NodeId(3), ..plan.clone() }));
        assert!(!same_plan(&plan, &MigrationInfo { to_primary: NodeId(3), ..plan.clone() }));
    }
}
