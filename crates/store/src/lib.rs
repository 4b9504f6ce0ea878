//! # lambda-store
//!
//! LambdaStore node runtimes: the three cloud-programming architectures the
//! paper compares.
//!
//! * [`aggregated`] — **LambdaStore** (§4.2): storage nodes embed the
//!   LambdaObjects engine; functions execute where the data lives, with
//!   per-object scheduling, synchronous primary-backup replication with
//!   epoch fencing, consistent caching, coordinator heartbeats and
//!   microshard migration.
//! * [`disaggregated`] — the baseline of §5: the *same* bytecode runs in
//!   the *same* metered VM, but on a dedicated compute node whose host
//!   interface pays one network round-trip per storage access against the
//!   same storage replica set, with no consistency guarantees.
//! * [`serverless`] — the conventional-serverless emulation of §4.1
//!   (durable request log + container cold starts in front of the
//!   disaggregated path), used for the Table 1 comparison.
//!
//! [`cluster`] provides turn-key builders matching the paper's testbed
//! (1 compute + 3 storage machines, one replica set, no sharding — plus
//! arbitrary sharded configurations), and [`client`] the routing client.

pub mod aggregated;
pub mod client;
pub mod cluster;
mod control;
pub mod disaggregated;
mod lease;
mod migrate;
pub mod placement;
pub mod proto;
mod raw;
mod replication;
pub mod serverless;
mod sync;

pub use aggregated::{AggregatedConfig, AggregatedNode, WATCH_ID_OFFSET};
pub use client::{InvokeCallback, StoreClient};
pub use cluster::{
    ids, AggregatedCluster, ClusterConfig, ClusterCore, DisaggregatedCluster, ServerlessCluster,
};
pub use disaggregated::{ComputeConfig, ComputeNode, FunctionExecutor};
pub use placement::Placement;
pub use proto::{ClientPush, NodeStatsWire, StoreRequest, StoreResponse, SyncItem};
pub use serverless::{ServerlessConfig, ServerlessGateway};
