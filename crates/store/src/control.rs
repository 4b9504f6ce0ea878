//! The node's control plane: everything a node does without being asked
//! happens in [`NodeInner::control_tick`], in one order — heartbeat with
//! the load report → placement poll and install → [`reconcile`] →
//! corruption report → scheduler gc. The tick only *starts* duties; each
//! runs on a parked thread owned by [`crate::sync`], [`crate::migrate`] or
//! [`crate::replication`]. [`Control`] owns what the tick reports from and
//! is the only code that locks it.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use lambda_coordinator::{
    ClusterState, CoordClient, CoordCmd, Epoch, MigrationInfo, NodeLoad, ShardId, ShardInfo,
};
use lambda_net::NodeId;
use lambda_objects::{Counter, InvocationContext, Registry};

use crate::aggregated::{NodeInner, WATCH_ID_OFFSET};
use crate::migrate::Migrations;
use crate::proto::{self, StoreRequest};
use crate::sync::{SyncSession, SyncState};

/// Hottest objects reported per heartbeat load report.
const HOT_REPORT_TOP_K: usize = 8;

/// What the control tick reports to the coordinator.
pub(crate) struct Control {
    /// Per-object invocation tally since the last heartbeat; drained into
    /// the coordinator load report that feeds the rebalancer.
    invoke_tally: Mutex<HashMap<Vec<u8>, u64>>,
    /// Shards whose local state is known corrupt, awaiting coordinator
    /// action (value = epoch of the latest report attempt). Suspicion is
    /// sticky: a report proposed with a stale epoch is fenced off by the
    /// coordinator as a no-op, so the node re-reports every tick with a
    /// refreshed epoch until it observes itself evicted from (or
    /// re-recruited into) the shard.
    suspects: Mutex<HashMap<ShardId, Epoch>>,
    /// Disk-corruption reports proposed to the coordinator.
    pub(crate) corruption_reports: Counter,
}

impl Control {
    pub(crate) fn new(registry: &Registry) -> Control {
        Control {
            invoke_tally: Mutex::default(),
            suspects: Mutex::default(),
            corruption_reports: registry.counter("node_corruption_reports"),
        }
    }

    /// Count one invocation against `object` for the next load report.
    pub(crate) fn tally_invoke(&self, object: &[u8]) {
        let mut tally = self.invoke_tally.lock();
        if let Some(n) = tally.get_mut(object) {
            *n += 1;
        } else {
            tally.insert(object.to_vec(), 1);
        }
    }

    /// `shard` is being re-streamed onto this node from a clean peer: the
    /// repair a corruption report asks for is under way.
    pub(crate) fn clear_suspicion(&self, shard: ShardId) {
        self.suspects.lock().remove(&shard);
    }
}

/// One thing the current placement obliges a node to run.
pub(crate) enum Duty<'a> {
    /// Re-grant read leases to the backups of a shard this node leads, so
    /// write-idle shards stay readable at their backups.
    Renew { shard: ShardId, info: &'a ShardInfo },
    /// Stream a shard this node leads to a recruit; the session is already
    /// registered and wants its driver.
    Sync(Arc<SyncSession>),
    /// Drive a migration whose source shard this node leads; the plan is
    /// already claimed and wants its driver.
    Migrate { object: &'a [u8], plan: &'a MigrationInfo },
}

/// The duties `state` gives `me`: one pass over the shards it leads (a
/// lease renewal each, plus a transfer session per recruit that has none),
/// and one over the migrations (a driver per plan that has none and whose
/// source shard it leads). Sessions and plans are claimed in `sync` and
/// `migrate` as they are yielded, so an immediate second call yields the
/// renewals only.
pub(crate) fn reconcile<'a>(
    state: &'a ClusterState,
    me: NodeId,
    sync: &SyncState,
    migrate: &Migrations,
) -> Vec<Duty<'a>> {
    let mut duties = Vec::new();
    for (&shard, info) in state.shards.iter().filter(|(_, info)| info.led_by(me)) {
        duties.push(Duty::Renew { shard, info });
        let recruits = info.syncing.iter().filter_map(|&peer| sync.open(shard, peer, info.epoch));
        duties.extend(recruits.map(Duty::Sync));
    }
    for (object, plan) in &state.migrations {
        let led = state.shard(plan.from).is_some_and(|src| src.led_by(me));
        if led && migrate.claim(object) {
            duties.push(Duty::Migrate { object, plan });
        }
    }
    duties
}

/// The corruption reports due this tick, as `(shard, expected epoch)`.
/// One kv store backs every shard a node serves, so fresh corruption
/// events (`had_events`) put every live shard `me` is configured in under
/// suspicion. Every standing suspicion is then re-proposed at the freshest
/// epoch known, and cleared once `me` is out of the shard entirely: the
/// coordinator acted (or the shard moved on), and any recruitment back in
/// streams clean state onto this store. The syncing role is tracked like
/// the active ones — a recruit that quarantined freshly-installed transfer
/// data MUST NOT confirm with that hole, so it keeps reporting until the
/// transfer is torn down.
pub(crate) fn due_reports(
    state: &ClusterState,
    me: NodeId,
    suspects: &mut HashMap<ShardId, Epoch>,
    had_events: bool,
) -> Vec<(ShardId, Epoch)> {
    let member = |info: &ShardInfo| info.contains(me) || info.is_syncing(me);
    if had_events {
        for (&shard, info) in &state.shards {
            if !info.lost && member(info) {
                suspects.entry(shard).or_insert(info.epoch);
            }
        }
    }
    let mut due = Vec::new();
    suspects.retain(|&shard, epoch| {
        let Some(info) = state.shard(shard).filter(|info| member(info)) else { return false };
        // Lost keeps membership as revival preference, and a `ReviveShard`
        // re-seats this replica as-is — no clean transfer happens. Hold the
        // suspicion (proposing now would just fence on `lost`) so a revival
        // onto this node is re-reported against the revived epoch.
        if !info.lost {
            *epoch = info.epoch;
            due.push((shard, info.epoch));
        }
        true
    });
    due
}

impl NodeInner {
    /// One control tick; see the module docs for the order and why.
    pub(crate) fn control_tick(&self, coord: &Arc<CoordClient>) {
        // The load report rides the heartbeat: queue depth plus the hottest
        // objects since the last beat, feeding the coordinator's rebalancer.
        let watch = NodeId(self.id.0 + WATCH_ID_OFFSET);
        if coord.heartbeat(self.id, Some(watch), Some(self.drain_load())).is_ok() {
            self.leases.note_coord_ok(Instant::now());
        }
        if let Ok(Some(state)) = coord.get_state(self.placement.version()) {
            self.install_placement(state);
        }
        let state = self.placement.snapshot();
        for duty in reconcile(&state, self.id, &self.sync, &self.migrate) {
            match duty {
                Duty::Renew { shard, info } => self.renew_lease(shard, info),
                Duty::Sync(session) => self.spawn_sync_session(coord, session),
                Duty::Migrate { object, plan } => {
                    self.spawn_migration_driver(coord, object.to_vec(), plan.clone());
                }
            }
        }
        self.report_corruption(coord, &state);
        // Housekeeping: drop lock-table entries for idle objects.
        self.engine.scheduler().gc();
    }

    /// Install a placement update and apply the lease reconfiguration rule
    /// to the change (see [`crate::lease::Leases::reconfigured`]). Reached
    /// from the tick's poll and from the coordinator's watch push.
    pub(crate) fn install_placement(&self, state: ClusterState) {
        let old = self.placement.snapshot();
        if !self.placement.update(state) {
            return;
        }
        let new = self.placement.snapshot();
        for (shard, epoch, backups) in self.leases.reconfigured(&old, &new, self.id, Instant::now())
        {
            // Satellite of the fence: while departed leases drain, bring
            // the surviving backups up to everything this node applied as
            // a backup (the old primary may have acked writes the
            // survivors never saw).
            self.promotion_resync(shard, epoch, backups);
        }
    }

    /// Send every backup of `shard` a standalone lease renewal (oneway).
    fn renew_lease(&self, shard: ShardId, info: &ShardInfo) {
        let lease_nanos = self.leases.grant(shard, &info.backups, Instant::now());
        if lease_nanos == 0 {
            return;
        }
        let req = StoreRequest::RenewLease { shard, epoch: info.epoch, lease_nanos };
        let frame = proto::encode_request(&InvocationContext::background(), &req)
            .expect("requests serialize");
        for &b in &info.backups {
            self.rpc().notify(b, frame.clone());
            self.leases.renewals.incr();
        }
    }

    /// Drain the storage engine's corruption events and report them to the
    /// coordinator, which treats a report like a departure (a corrupt
    /// backup is re-recruited around, a corrupt primary demoted to a
    /// healthy survivor); this node re-syncs from a clean peer when it is
    /// recruited back. Quarantined-and-repaired corruptions still flow
    /// through here: the coordinator's epoch bump forces a fresh transfer,
    /// which restores any keys the quarantine took out.
    ///
    /// The suspicions are only locked to *decide* what is due: a proposal
    /// is a coordinator round-trip, and a recruit's `Begin` chunk takes
    /// the same lock on an RPC worker.
    fn report_corruption(&self, coord: &CoordClient, state: &ClusterState) {
        let had_events = !self.engine.db().take_corruption_events().is_empty();
        let due = due_reports(state, self.id, &mut self.control.suspects.lock(), had_events);
        for (shard, expected_epoch) in due {
            let _ =
                coord.propose(CoordCmd::ReportCorruption { node: self.id, shard, expected_epoch });
            self.control.corruption_reports.incr();
        }
    }

    /// Drain the per-object invocation tally into a coordinator load
    /// report: total invocations since the last beat plus the hottest
    /// [`HOT_REPORT_TOP_K`] objects, and the instantaneous run-queue depth.
    fn drain_load(&self) -> NodeLoad {
        let tally = std::mem::take(&mut *self.control.invoke_tally.lock());
        let invocations: u64 = tally.values().sum();
        let mut hot: Vec<(Vec<u8>, u64)> = tally.into_iter().collect();
        hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hot.truncate(HOT_REPORT_TOP_K);
        NodeLoad { queue_depth: self.rpc().queue_stats().depth, invocations, hot }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_coordinator::N_SLOTS;

    const ME: NodeId = NodeId(1);

    /// Shard 0 = {1 primary, 2} owning every slot, shard 7 = {2 primary, 1},
    /// shard 9 = {3}; node 4 registered as a spare.
    fn cluster() -> ClusterState {
        let mut st = ClusterState::default();
        for n in 1..=4 {
            st.apply(&CoordCmd::RegisterNode { node: NodeId(n) });
        }
        st.apply(&CoordCmd::CreateShard { shard: 0, replicas: vec![ME, NodeId(2)] });
        st.apply(&CoordCmd::AssignSlots { shard: 0, slots: (0..N_SLOTS).collect() });
        st.apply(&CoordCmd::CreateShard { shard: 7, replicas: vec![NodeId(2), ME] });
        st.apply(&CoordCmd::CreateShard { shard: 9, replicas: vec![NodeId(3)] });
        st
    }

    fn recruit(st: &mut ClusterState, shard: ShardId, node: u32) {
        let expected_epoch = st.shard(shard).unwrap().epoch;
        st.apply(&CoordCmd::AddBackup { shard, node: NodeId(node), expected_epoch });
        assert!(st.shard(shard).unwrap().is_syncing(NodeId(node)));
    }

    fn lose(st: &mut ClusterState, shard: ShardId) {
        st.shards.get_mut(&shard).expect("shard exists").lost = true;
    }

    fn names(duties: &[Duty<'_>]) -> Vec<String> {
        let mut names: Vec<String> = duties
            .iter()
            .map(|duty| match duty {
                Duty::Renew { shard, info } => format!("renew {shard}@{}", info.epoch),
                Duty::Sync(s) => format!("sync {}->{}@{}", s.shard, s.peer.0, s.epoch),
                Duty::Migrate { object, plan } => {
                    format!(
                        "migrate {} {}->{}",
                        String::from_utf8_lossy(object),
                        plan.from,
                        plan.to
                    )
                }
            })
            .collect();
        names.sort();
        names
    }

    #[test]
    fn reconcile_yields_exactly_the_missing_duties_of_led_shards() {
        let registry = Registry::new();
        let (sync, migrate) = (SyncState::new(&registry), Migrations::new(&registry));
        let mut st = cluster();
        recruit(&mut st, 0, 4); // led by ME: owes a session
        recruit(&mut st, 7, 4); // led by node 2: not ours
        recruit(&mut st, 9, 4);
        st.apply(&CoordCmd::PlanMigration { object: b"user/1".to_vec(), from: 0, to: 9 });
        assert_eq!(st.migrations.len(), 1);

        let stranger = reconcile(&st, NodeId(4), &sync, &migrate);
        assert!(stranger.is_empty(), "a recruit leads nothing");

        let first = reconcile(&st, ME, &sync, &migrate);
        assert_eq!(names(&first), ["migrate user/1 0->9", "renew 0@2", "sync 0->4@2"]);
        let second = reconcile(&st, ME, &sync, &migrate);
        assert_eq!(
            names(&second),
            ["renew 0@2"],
            "open sessions and claimed plans are not missing"
        );

        // A second recruit under the next epoch is the only new duty.
        st.apply(&CoordCmd::RegisterNode { node: NodeId(5) });
        recruit(&mut st, 0, 5);
        assert_eq!(names(&reconcile(&st, ME, &sync, &migrate)), ["renew 0@3", "sync 0->5@3"]);
    }

    #[test]
    fn reconcile_yields_nothing_for_a_lost_shard() {
        let registry = Registry::new();
        let (sync, migrate) = (SyncState::new(&registry), Migrations::new(&registry));
        let mut st = cluster();
        recruit(&mut st, 0, 4);
        st.apply(&CoordCmd::PlanMigration { object: b"user/1".to_vec(), from: 0, to: 9 });
        lose(&mut st, 0);
        assert!(reconcile(&st, ME, &sync, &migrate).is_empty());
        // Nothing was claimed on the way: revived, every duty is still owed.
        st.shards.get_mut(&0).unwrap().lost = false;
        assert_eq!(reconcile(&st, ME, &sync, &migrate).len(), 3);
    }

    #[test]
    fn due_reports_follow_the_retention_rules() {
        let mut st = cluster();
        recruit(&mut st, 9, 1); // ME: primary of 0, backup of 7, syncing into 9
        let mut suspects = HashMap::new();

        // No events, no standing suspicion: nothing is due.
        assert!(due_reports(&st, ME, &mut suspects, false).is_empty());
        assert!(suspects.is_empty());

        // Events put every shard ME is configured in under suspicion —
        // member or syncing — and nobody else's.
        let mut due = due_reports(&st, ME, &mut suspects, true);
        due.sort_unstable();
        assert_eq!(due, [(0, 1), (7, 1), (9, 2)]);
        assert!(due_reports(&st, NodeId(4), &mut HashMap::new(), true).is_empty());

        // Suspicion is sticky and re-proposed at the freshest epoch.
        recruit(&mut st, 0, 4);
        let mut due = due_reports(&st, ME, &mut suspects, false);
        due.sort_unstable();
        assert_eq!(due, [(0, 2), (7, 1), (9, 2)]);

        // Lost: held (not proposed, not dropped) for the revived epoch.
        lose(&mut st, 7);
        let mut due = due_reports(&st, ME, &mut suspects, false);
        due.sort_unstable();
        assert_eq!(due, [(0, 2), (9, 2)]);
        assert!(suspects.contains_key(&7));
        // ...and fresh events never seed a lost shard.
        let mut fresh = HashMap::new();
        due_reports(&st, ME, &mut fresh, true);
        assert!(!fresh.contains_key(&7));

        // Evicted (the coordinator acted) or unknown shard: cleared.
        st.shards.get_mut(&9).unwrap().syncing.clear();
        st.shards.remove(&7);
        assert_eq!(due_reports(&st, ME, &mut suspects, false), [(0, 2)]);
        assert_eq!(suspects.keys().copied().collect::<Vec<_>>(), [0]);
    }
}
