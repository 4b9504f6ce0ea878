//! Turn-key cluster builders for the three architectures, matching the
//! evaluation setup of §5 ("one machine for compute and three machines for
//! storage. The storage machines form a replica set and do not perform
//! sharding").

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lambda_coordinator::{CoordClient, CoordCmd, CoordConfig, Coordinator, N_SLOTS};
use lambda_net::null_handler;
use lambda_net::{LatencyModel, Network, NodeId, RpcNode};
use lambda_objects::{EngineConfig, InvokeError};
use lambda_paxos::PaxosConfig;

use crate::aggregated::{AggregatedConfig, AggregatedNode};
use crate::client::StoreClient;
use crate::disaggregated::{ComputeConfig, ComputeNode};
use crate::serverless::{ServerlessConfig, ServerlessGateway};

/// Base node-id layout used by the builders.
pub mod ids {
    use lambda_net::NodeId;

    /// First storage node id.
    pub const STORAGE_BASE: u32 = 1;
    /// First coordinator service id.
    pub const COORD_BASE: u32 = 101;
    /// The compute node (disaggregated baseline).
    pub const COMPUTE: NodeId = NodeId(301);
    /// The serverless gateway.
    pub const GATEWAY: NodeId = NodeId(401);
    /// First client id (callers allocate upward from here).
    pub const CLIENT_BASE: u32 = 501;
    /// Internal admin endpoint used during cluster bootstrap.
    pub const ADMIN: NodeId = NodeId(901);
}

/// Shared cluster construction options.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of storage nodes.
    pub storage_nodes: u32,
    /// Number of coordinator replicas.
    pub coordinators: u32,
    /// Number of shards (replica groups) to create.
    pub shards: u32,
    /// Replicas per shard.
    pub replication_factor: usize,
    /// Simulated network latency.
    pub latency: LatencyModel,
    /// Base directory for all node data.
    pub base_dir: PathBuf,
    /// Engine options for aggregated nodes.
    pub engine: EngineConfig,
    /// Storage-engine options.
    pub kv: lambda_kv::Options,
    /// Per-node storage-engine overrides, keyed by storage index (node id
    /// minus [`ids::STORAGE_BASE`]). Disk-fault tests use this to hand
    /// individual nodes a seeded [`lambda_kv::FaultVfs`] while the rest of
    /// the cluster runs on the real filesystem.
    pub kv_overrides: std::collections::HashMap<u32, lambda_kv::Options>,
    /// RPC workers per node.
    pub workers: usize,
    /// Run-queue depth that trips admission control on aggregated nodes
    /// (`0` = unbounded; see [`AggregatedConfig::run_queue_depth`]).
    pub run_queue_depth: usize,
    /// Heartbeat interval for storage nodes.
    pub heartbeat_interval: Duration,
    /// Heartbeat timeout before the coordinator declares a node dead.
    pub heartbeat_timeout: Duration,
    /// Read-lease duration for aggregated nodes (see
    /// [`AggregatedConfig::lease_duration`]). Keep below
    /// `heartbeat_timeout * 2` so a deposed primary's grants expire before
    /// a successor's promotion fence lifts.
    pub lease_duration: Duration,
    /// How often the coordinator's rebalancer scans heartbeat load reports
    /// and plans hot-object migrations. `Duration::ZERO` (the default)
    /// disables automatic rebalancing.
    pub rebalance_interval: Duration,
    /// Invocations-per-heartbeat an object must reach before the
    /// rebalancer considers moving it off an overloaded node.
    pub hot_object_threshold: u64,
}

static CLUSTER_COUNTER: AtomicU32 = AtomicU32::new(0);

impl Default for ClusterConfig {
    fn default() -> Self {
        let n = CLUSTER_COUNTER.fetch_add(1, Ordering::Relaxed);
        ClusterConfig {
            storage_nodes: 3,
            coordinators: 3,
            shards: 1,
            replication_factor: 3,
            latency: LatencyModel::default(),
            base_dir: std::env::temp_dir().join(format!("lambdastore-{}-{n}", std::process::id())),
            engine: EngineConfig::default(),
            kv: lambda_kv::Options::default(),
            kv_overrides: std::collections::HashMap::new(),
            workers: 48,
            run_queue_depth: 1024,
            heartbeat_interval: Duration::from_millis(100),
            heartbeat_timeout: Duration::from_millis(600),
            lease_duration: Duration::from_millis(400),
            rebalance_interval: Duration::ZERO,
            hot_object_threshold: 64,
        }
    }
}

impl ClusterConfig {
    /// Low-latency settings for fast unit/integration tests.
    pub fn for_tests() -> Self {
        ClusterConfig {
            latency: LatencyModel::instant(),
            kv: lambda_kv::Options::small_for_tests(),
            ..ClusterConfig::default()
        }
    }

    /// The storage-engine options for storage index `idx`: the per-node
    /// override when one is registered, the shared default otherwise.
    pub fn kv_for(&self, idx: u32) -> lambda_kv::Options {
        self.kv_overrides.get(&idx).cloned().unwrap_or_else(|| self.kv.clone())
    }
}

/// Everything shared by the architecture-specific clusters.
pub struct ClusterCore {
    /// The simulated network.
    pub net: Network,
    /// Coordinator replicas.
    pub coordinators: Vec<Arc<Coordinator>>,
    /// Coordinator service ids.
    pub coordinator_ids: Vec<NodeId>,
    /// Storage nodes (aggregated nodes serve both architectures' storage).
    pub storage: Vec<Arc<AggregatedNode>>,
    /// Storage node ids.
    pub storage_ids: Vec<NodeId>,
    base_dir: PathBuf,
    next_client: AtomicU32,
}

impl std::fmt::Debug for ClusterCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterCore")
            .field("storage", &self.storage_ids)
            .field("coordinators", &self.coordinator_ids)
            .finish()
    }
}

impl ClusterCore {
    fn build(config: &ClusterConfig) -> Result<ClusterCore, InvokeError> {
        std::fs::create_dir_all(&config.base_dir)
            .map_err(|e| InvokeError::Storage(e.to_string()))?;
        let net = Network::new(config.latency, 0xc10d);

        // Coordination service.
        let coordinator_ids: Vec<NodeId> =
            (0..config.coordinators).map(|i| NodeId(ids::COORD_BASE + i)).collect();
        let coord_config = CoordConfig {
            heartbeat_timeout: config.heartbeat_timeout,
            detector_interval: config.heartbeat_interval / 2,
            repair_interval: config.heartbeat_interval,
            rebalance_interval: config.rebalance_interval,
            rebalance: lambda_coordinator::RebalancePolicy {
                hot_object_threshold: config.hot_object_threshold,
                ..lambda_coordinator::RebalancePolicy::default()
            },
            paxos: PaxosConfig::default(),
            workers: 4,
            rpc_timeout: Duration::from_millis(500),
        };
        let coordinators: Vec<Arc<Coordinator>> = coordinator_ids
            .iter()
            .map(|&id| Coordinator::start(&net, id, coordinator_ids.clone(), coord_config))
            .collect();

        // Bootstrap: register nodes, create shards, assign slots.
        let storage_ids: Vec<NodeId> =
            (0..config.storage_nodes).map(|i| NodeId(ids::STORAGE_BASE + i)).collect();
        let admin_rpc = RpcNode::start(&net, ids::ADMIN, null_handler(), 1);
        let admin = CoordClient::new(
            Arc::clone(&admin_rpc),
            coordinator_ids.clone(),
            Duration::from_secs(5),
        );
        for &id in &storage_ids {
            admin
                .propose(CoordCmd::RegisterNode { node: id })
                .map_err(|e| InvokeError::Nested(format!("bootstrap: {e}")))?;
        }
        let rf = config.replication_factor.clamp(1, storage_ids.len());
        for shard in 0..config.shards {
            let replicas: Vec<NodeId> =
                (0..rf).map(|r| storage_ids[(shard as usize + r) % storage_ids.len()]).collect();
            admin
                .propose(CoordCmd::CreateShard { shard, replicas })
                .map_err(|e| InvokeError::Nested(format!("bootstrap: {e}")))?;
        }
        // Distribute slots round-robin across the shards.
        for shard in 0..config.shards {
            let slots: Vec<u16> =
                (0..N_SLOTS).filter(|s| (s % config.shards as u16) == shard as u16).collect();
            admin
                .propose(CoordCmd::AssignSlots { shard, slots })
                .map_err(|e| InvokeError::Nested(format!("bootstrap: {e}")))?;
        }
        admin_rpc.shutdown();

        // Storage nodes.
        let mut storage = Vec::new();
        for &id in &storage_ids {
            let node_config = AggregatedConfig {
                data_dir: config.base_dir.join(format!("node-{}", id.0)),
                kv: config.kv_for(id.0 - ids::STORAGE_BASE),
                engine: config.engine,
                workers: config.workers,
                run_queue_depth: config.run_queue_depth,
                rpc_timeout: Duration::from_millis(500),
                heartbeat_interval: config.heartbeat_interval,
                coordinators: coordinator_ids.clone(),
                lease_duration: config.lease_duration,
            };
            storage.push(AggregatedNode::start(&net, id, node_config)?);
        }

        // Wait for every node to learn the bootstrap shard map.
        let deadline = Instant::now() + Duration::from_secs(10);
        for node in &storage {
            while node.placement().version() == 0 {
                if Instant::now() > deadline {
                    return Err(InvokeError::Nested(
                        "bootstrap: nodes never received the shard map".into(),
                    ));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }

        Ok(ClusterCore {
            net,
            coordinators,
            coordinator_ids,
            storage,
            storage_ids,
            base_dir: config.base_dir.clone(),
            next_client: AtomicU32::new(ids::CLIENT_BASE),
        })
    }

    /// Elastically add a storage node to the running cluster (§7's open
    /// problem: "how to efficiently shard and scale systems that support
    /// LambdaObjects"). The node registers with the coordinator and starts
    /// heartbeating; it serves no data until a shard is created on it (see
    /// [`create_shard`](Self::create_shard)) and objects are migrated over
    /// (`StoreClient::migrate_object`).
    ///
    /// # Errors
    /// Bootstrap/registration failures.
    pub fn add_storage_node(&mut self, config: &ClusterConfig) -> Result<NodeId, InvokeError> {
        let id = NodeId(self.storage_ids.iter().map(|n| n.0).max().unwrap_or(0) + 1);
        let node_config = AggregatedConfig {
            data_dir: self.base_dir.join(format!("node-{}", id.0)),
            kv: config.kv_for(id.0 - ids::STORAGE_BASE),
            engine: config.engine,
            workers: config.workers,
            run_queue_depth: config.run_queue_depth,
            rpc_timeout: Duration::from_millis(500),
            heartbeat_interval: config.heartbeat_interval,
            coordinators: self.coordinator_ids.clone(),
            lease_duration: config.lease_duration,
        };
        let node = AggregatedNode::start(&self.net, id, node_config)?;
        let admin_id = NodeId(ids::ADMIN.0 + 1 + id.0);
        let admin_rpc = RpcNode::start(&self.net, admin_id, null_handler(), 1);
        let admin = CoordClient::new(
            Arc::clone(&admin_rpc),
            self.coordinator_ids.clone(),
            Duration::from_secs(5),
        );
        admin
            .propose(CoordCmd::RegisterNode { node: id })
            .map_err(|e| InvokeError::Nested(format!("register: {e}")))?;
        admin_rpc.shutdown();
        self.storage.push(node);
        self.storage_ids.push(id);
        Ok(id)
    }

    /// Create a new shard with an explicit replica set. The shard holds no
    /// placement slots until objects are pinned to it (or slots are
    /// reassigned together with a data migration).
    ///
    /// # Errors
    /// Coordination failures.
    pub fn create_shard(
        &self,
        shard: lambda_coordinator::ShardId,
        replicas: Vec<NodeId>,
    ) -> Result<(), InvokeError> {
        let admin_id = NodeId(ids::ADMIN.0 + 5000 + shard);
        let admin_rpc = RpcNode::start(&self.net, admin_id, null_handler(), 1);
        let admin = CoordClient::new(
            Arc::clone(&admin_rpc),
            self.coordinator_ids.clone(),
            Duration::from_secs(5),
        );
        admin
            .propose(CoordCmd::CreateShard { shard, replicas })
            .map_err(|e| InvokeError::Nested(format!("create shard: {e}")))?;
        admin_rpc.shutdown();
        Ok(())
    }

    /// Gracefully decommission storage node `idx` (planned scale-in): for
    /// every shard it serves, propose a reconfiguration that drops it
    /// (promoting a backup when it was primary), wait until no shard
    /// references it, then shut it down. Requires every affected shard to
    /// keep at least one surviving replica (rf ≥ 2).
    ///
    /// # Errors
    /// Coordination failures, or a shard that would lose its last replica.
    pub fn decommission_node(&self, idx: usize) -> Result<(), InvokeError> {
        let node = &self.storage[idx];
        let id = node.id();
        let admin_id = NodeId(ids::ADMIN.0 + 2000 + id.0);
        let admin_rpc = RpcNode::start(&self.net, admin_id, null_handler(), 1);
        let admin = CoordClient::new(
            Arc::clone(&admin_rpc),
            self.coordinator_ids.clone(),
            Duration::from_secs(5),
        );
        let state = admin
            .get_state(0)
            .map_err(|e| InvokeError::Nested(format!("decommission: {e}")))?
            .ok_or_else(|| InvokeError::Nested("decommission: no cluster state".into()))?;
        let plan = state.plan_failover(id);
        // A graceful scale-in must never orphan data: a plan that would
        // mark a shard lost means this node is its last replica.
        if plan.iter().any(|cmd| matches!(cmd, CoordCmd::MarkShardLost { .. })) {
            admin_rpc.shutdown();
            return Err(InvokeError::Nested(format!(
                "decommission: node-{} is the last replica of a shard",
                id.0
            )));
        }
        for cmd in plan {
            admin.propose(cmd).map_err(|e| InvokeError::Nested(format!("decommission: {e}")))?;
        }
        admin
            .propose(CoordCmd::RemoveNode { node: id })
            .map_err(|e| InvokeError::Nested(format!("decommission: {e}")))?;
        admin_rpc.shutdown();
        node.shutdown();
        Ok(())
    }

    /// A new client endpoint on this cluster.
    pub fn client(&self) -> StoreClient {
        let id = NodeId(self.next_client.fetch_add(1, Ordering::Relaxed));
        StoreClient::new(&self.net, id, self.coordinator_ids.clone(), Duration::from_secs(5))
    }

    /// Root directory of this cluster's on-disk state.
    pub fn base_dir(&self) -> &std::path::Path {
        &self.base_dir
    }

    /// Crash storage node `idx`: stop its RPC endpoints and cut its links.
    pub fn kill_storage_node(&self, idx: usize) {
        let node = &self.storage[idx];
        let id = node.id();
        node.shutdown();
        self.net.isolate(id);
        self.net.isolate(NodeId(id.0 + crate::aggregated::WATCH_ID_OFFSET));
    }

    /// Restart storage node `idx` after a crash (or kill it first if still
    /// running): reopen the *same* data directory — the WAL replay in
    /// `Db::open` recovers every acked write — re-register with the
    /// coordinator, and heal its network links. The repair loop then folds
    /// the node back into its shards (recruiting it as a syncing backup,
    /// or reviving a shard it was the last member of).
    ///
    /// # Errors
    /// Storage recovery or registration failures.
    pub fn restart_storage_node(
        &mut self,
        idx: usize,
        config: &ClusterConfig,
    ) -> Result<NodeId, InvokeError> {
        let id = self.storage[idx].id();
        let watch_id = NodeId(id.0 + crate::aggregated::WATCH_ID_OFFSET);
        self.storage[idx].shutdown();
        // Let in-flight worker threads observe the shutdown flag and drain
        // before the endpoints are torn out from under them.
        std::thread::sleep((config.heartbeat_interval * 2).max(Duration::from_millis(200)));
        self.net.leave(id);
        self.net.leave(watch_id);
        self.net.heal_all(id);
        self.net.heal_all(watch_id);
        let node_config = AggregatedConfig {
            data_dir: self.base_dir.join(format!("node-{}", id.0)),
            kv: config.kv_for(id.0 - ids::STORAGE_BASE),
            engine: config.engine,
            workers: config.workers,
            run_queue_depth: config.run_queue_depth,
            rpc_timeout: Duration::from_millis(500),
            heartbeat_interval: config.heartbeat_interval,
            coordinators: self.coordinator_ids.clone(),
            lease_duration: config.lease_duration,
        };
        let node = AggregatedNode::start(&self.net, id, node_config)?;
        // Re-register: the failure detector removed the node from the
        // membership when it crashed (RegisterNode is idempotent if not).
        let admin_id = NodeId(ids::ADMIN.0 + 3000 + id.0);
        let admin_rpc = RpcNode::start(&self.net, admin_id, null_handler(), 1);
        let admin = CoordClient::new(
            Arc::clone(&admin_rpc),
            self.coordinator_ids.clone(),
            Duration::from_secs(5),
        );
        admin
            .propose(CoordCmd::RegisterNode { node: id })
            .map_err(|e| InvokeError::Nested(format!("restart: {e}")))?;
        admin_rpc.shutdown();
        self.storage[idx] = node;
        Ok(id)
    }

    /// Stop everything and delete on-disk state.
    pub fn shutdown(&self) {
        for node in &self.storage {
            node.shutdown();
        }
        for c in &self.coordinators {
            c.shutdown();
        }
        self.net.shutdown();
        let _ = std::fs::remove_dir_all(&self.base_dir);
    }
}

/// The aggregated architecture: clients invoke methods directly on the
/// storage nodes (LambdaStore proper).
#[derive(Debug)]
pub struct AggregatedCluster {
    /// Shared infrastructure.
    pub core: ClusterCore,
}

impl AggregatedCluster {
    /// Build and bootstrap the cluster.
    ///
    /// # Errors
    /// Bootstrap failures.
    pub fn build(config: ClusterConfig) -> Result<AggregatedCluster, InvokeError> {
        Ok(AggregatedCluster { core: ClusterCore::build(&config)? })
    }

    /// A new client endpoint.
    pub fn client(&self) -> StoreClient {
        self.core.client()
    }

    /// Stop everything.
    pub fn shutdown(&self) {
        self.core.shutdown();
    }
}

/// The disaggregated baseline: the same storage replica set, plus a
/// dedicated compute node that runs the functions.
#[derive(Debug)]
pub struct DisaggregatedCluster {
    /// Shared infrastructure (the storage layer).
    pub core: ClusterCore,
    /// The compute node.
    pub compute: Arc<ComputeNode>,
}

impl DisaggregatedCluster {
    /// Build and bootstrap.
    ///
    /// # Errors
    /// Bootstrap failures.
    pub fn build(config: ClusterConfig) -> Result<DisaggregatedCluster, InvokeError> {
        let core = ClusterCore::build(&config)?;
        let compute = ComputeNode::start(
            &core.net,
            ids::COMPUTE,
            ComputeConfig {
                storage: core.storage_ids.clone(),
                workers: config.workers,
                rpc_timeout: Duration::from_secs(1),
                limits: config.engine.limits,
            },
        );
        Ok(DisaggregatedCluster { core, compute })
    }

    /// A new client endpoint (requests go to the compute node; see
    /// [`crate::proto::StoreRequest::Invoke`]).
    pub fn client(&self) -> StoreClient {
        self.core.client()
    }

    /// Stop everything.
    pub fn shutdown(&self) {
        self.compute.shutdown();
        self.core.shutdown();
    }
}

/// The conventional-serverless emulation: a gateway with durable request
/// logging and cold starts in front of the disaggregated execution path.
#[derive(Debug)]
pub struct ServerlessCluster {
    /// Shared infrastructure (the storage layer).
    pub core: ClusterCore,
    /// The gateway.
    pub gateway: Arc<ServerlessGateway>,
}

impl ServerlessCluster {
    /// Build and bootstrap.
    ///
    /// # Errors
    /// Bootstrap failures.
    pub fn build(
        config: ClusterConfig,
        cold_start: Duration,
    ) -> Result<ServerlessCluster, InvokeError> {
        let core = ClusterCore::build(&config)?;
        let mut sconfig = ServerlessConfig::new(
            ComputeConfig {
                storage: core.storage_ids.clone(),
                workers: config.workers,
                rpc_timeout: Duration::from_secs(1),
                limits: config.engine.limits,
            },
            config.base_dir.join("gateway"),
        );
        sconfig.cold_start = cold_start;
        let gateway = ServerlessGateway::start(&core.net, ids::GATEWAY, sconfig)?;
        Ok(ServerlessCluster { core, gateway })
    }

    /// A new client endpoint (requests go to the gateway).
    pub fn client(&self) -> StoreClient {
        self.core.client()
    }

    /// Stop everything.
    pub fn shutdown(&self) {
        self.gateway.shutdown();
        self.core.shutdown();
    }
}
