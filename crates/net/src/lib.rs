//! # lambda-net
//!
//! An in-process simulated cluster network with a serde wire codec and an
//! RPC layer.
//!
//! The LambdaObjects evaluation (§5) ran on four CloudLab machines in one
//! rack. This crate substitutes for that testbed: nodes are threads, links
//! carry real serialized bytes, and every message is held in its
//! destination's deadline-ordered mailbox for a configurable per-message
//! latency, jitter and bandwidth cost, subject to loss and partitions. The
//! architectural effect the paper measures — a disaggregated design paying
//! network round-trips for every storage access while the aggregated design
//! pays none — is a function of hop counts and per-hop latency, both of
//! which are reproduced faithfully here.
//!
//! Layers:
//! * [`wire`] — a compact binary serde codec; every message is truly
//!   serialized and reparsed so marshalling costs are paid;
//! * [`sim`] — [`Network`], [`NodeHandle`], [`LatencyModel`], partitions;
//! * [`rpc`] — request/response with ids, timeouts and a worker pool.
//!
//! # Example
//!
//! ```
//! use lambda_net::rpc::{null_handler, sync_handler};
//! use lambda_net::{LatencyModel, Network, NodeId, RpcNode};
//! use std::time::Duration;
//!
//! let net = Network::new(LatencyModel::instant(), 42);
//! let _server = RpcNode::start(&net, NodeId(1), sync_handler(|_, body| Ok(body)), 2);
//! let client = RpcNode::start(&net, NodeId(2), null_handler(), 1);
//! let reply = client
//!     .call(NodeId(1), b"echo".to_vec(), Duration::from_secs(1))
//!     .expect("echo");
//! assert_eq!(reply, b"echo");
//! net.shutdown();
//! ```

pub mod rpc;
pub mod sim;
pub mod wire;

pub use rpc::{
    null_handler, sync_handler, AdmissionPolicy, Handler, Responder, RpcConfig, RpcError, RpcNode,
    RpcQueueStats,
};
pub use sim::{
    Envelope, FaultPlan, FaultSpec, LatencyModel, Network, NodeHandle, NodeId, RecvError,
    RecvTimeoutError,
};
pub use wire::{
    from_bytes, split_header, to_bytes, RequestHeader, WireError, HEADER_MAGIC, HEADER_VERSION,
};
