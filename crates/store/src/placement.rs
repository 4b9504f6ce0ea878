//! Cached cluster-state view used by nodes and clients for routing.

use parking_lot::RwLock;

use lambda_coordinator::{ClusterState, Epoch, MigrationInfo, ShardId, ShardInfo};
use lambda_net::NodeId;
use lambda_objects::ObjectId;

/// A monotonically-updated local copy of the coordinator's replicated
/// state. Watch notifications and on-demand refreshes both funnel through
/// [`update`](Placement::update), which ignores stale versions.
#[derive(Debug, Default)]
pub struct Placement {
    state: RwLock<ClusterState>,
}

impl Placement {
    /// Empty placement (no shards known yet).
    pub fn new() -> Placement {
        Placement::default()
    }

    /// Install `state` if it is newer than the current copy; returns
    /// whether it was accepted.
    pub fn update(&self, state: ClusterState) -> bool {
        let mut cur = self.state.write();
        if state.version > cur.version {
            *cur = state;
            true
        } else {
            false
        }
    }

    /// Version of the local copy.
    pub fn version(&self) -> u64 {
        self.state.read().version
    }

    /// Full snapshot (diagnostics).
    pub fn snapshot(&self) -> ClusterState {
        self.state.read().clone()
    }

    /// The shard and replica set responsible for `object`.
    pub fn locate(&self, object: &ObjectId) -> Option<(ShardId, ShardInfo)> {
        let st = self.state.read();
        let shard = st.shard_for_object(object.as_bytes())?;
        let info = st.shard(shard)?.clone();
        Some((shard, info))
    }

    /// [`locate`](Placement::locate) for each of `objects`, together with
    /// its live migration entry, all under one read of the local copy: the
    /// answers come from one version of the map.
    pub(crate) fn locate_all<'a>(
        &self,
        objects: impl IntoIterator<Item = &'a ObjectId>,
    ) -> Vec<Option<(ShardId, ShardInfo, Option<MigrationInfo>)>> {
        let st = self.state.read();
        objects
            .into_iter()
            .map(|object| {
                let shard = st.shard_for_object(object.as_bytes())?;
                let info = st.shard(shard)?.clone();
                Some((shard, info, st.migrations.get(object.as_bytes()).cloned()))
            })
            .collect()
    }

    /// The live migration entry for `object`, if any — read under the
    /// lock without cloning the whole state (this sits on the mutation
    /// admission path).
    pub fn migration_of(&self, object: &[u8]) -> Option<MigrationInfo> {
        self.state.read().migrations.get(object).cloned()
    }

    /// The current epoch of `shard`.
    pub fn epoch_of(&self, shard: ShardId) -> Option<Epoch> {
        self.state.read().shard(shard).map(|i| i.epoch)
    }

    /// The current replica set of `shard`.
    pub fn shard_info(&self, shard: ShardId) -> Option<ShardInfo> {
        self.state.read().shard(shard).cloned()
    }

    /// All registered storage nodes.
    pub fn storage_nodes(&self) -> Vec<NodeId> {
        self.state.read().nodes.iter().copied().collect()
    }

    /// True while `node` is registered with the coordinator. Failed nodes
    /// are deregistered by the heartbeat monitor, so this is the client's
    /// cheapest liveness signal when picking a read replica.
    pub fn is_live(&self, node: NodeId) -> bool {
        self.state.read().nodes.contains(&node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_coordinator::CoordCmd;

    fn state() -> ClusterState {
        let mut st = ClusterState::default();
        st.apply(&CoordCmd::RegisterNode { node: NodeId(1) });
        st.apply(&CoordCmd::RegisterNode { node: NodeId(2) });
        st.apply(&CoordCmd::CreateShard { shard: 0, replicas: vec![NodeId(1), NodeId(2)] });
        st.apply(&CoordCmd::AssignSlots {
            shard: 0,
            slots: (0..lambda_coordinator::N_SLOTS).collect(),
        });
        st
    }

    #[test]
    fn update_accepts_only_newer() {
        let p = Placement::new();
        assert!(p.update(state()));
        let v = p.version();
        assert!(!p.update(ClusterState::default()), "older state rejected");
        assert_eq!(p.version(), v);
    }

    #[test]
    fn locate_and_roles() {
        let p = Placement::new();
        p.update(state());
        let obj = ObjectId::from("user/1");
        let (shard, info) = p.locate(&obj).unwrap();
        assert_eq!(shard, 0);
        assert_eq!(info.primary, NodeId(1));
        assert!(info.led_by(NodeId(1)) && !info.led_by(NodeId(2)));
        assert!(info.contains(NodeId(2)) && !info.contains(NodeId(9)));
        assert_eq!(p.epoch_of(0), Some(1));
        assert_eq!(p.storage_nodes(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn liveness_follows_node_registration() {
        let p = Placement::new();
        let mut st = state();
        assert!(!p.is_live(NodeId(1)), "empty placement knows no live nodes");
        p.update(st.clone());
        assert!(p.is_live(NodeId(1)) && p.is_live(NodeId(2)));
        assert!(!p.is_live(NodeId(9)));
        st.apply(&CoordCmd::RemoveNode { node: NodeId(2) });
        p.update(st);
        assert!(!p.is_live(NodeId(2)), "deregistered node is dead");
    }

    #[test]
    fn empty_placement_locates_nothing() {
        let p = Placement::new();
        assert!(p.locate(&ObjectId::from("x")).is_none());
        assert!(p.epoch_of(0).is_none());
    }
}
