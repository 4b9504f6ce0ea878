//! Conventional-serverless emulation, used for the Table 1 comparison.
//!
//! Follows §4.1's description of OpenWhisk-style architectures: clients
//! talk to a load balancer / gateway which (a) **logs every request
//! durably** before execution (OpenWhisk uses Kafka; we reuse the WAL from
//! `lambda-kv`), and (b) dispatches the function to a **container**,
//! paying a cold-start delay when no warm container for that function is
//! available. Function execution itself reuses the disaggregated
//! [`FunctionExecutor`], so the storage path is identical to the baseline —
//! what this layer adds is exactly the request logging + scheduling +
//! cold-start overheads the paper attributes to conventional serverless.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use lambda_kv::wal::Wal;
use lambda_net::rpc::{null_handler, sync_handler};
use lambda_net::{Network, NodeId, RpcNode};
use lambda_objects::{InvokeError, ObjectId};

use crate::disaggregated::{ComputeConfig, FunctionExecutor};
use crate::proto::{NodeStatsWire, StoreRequest, StoreResponse};

/// Gateway configuration.
#[derive(Debug, Clone)]
pub struct ServerlessConfig {
    /// Compute/storage settings (shared with the disaggregated executor).
    pub compute: ComputeConfig,
    /// Directory for the durable request log.
    pub log_dir: PathBuf,
    /// Simulated container cold-start delay.
    pub cold_start: Duration,
    /// Idle warm containers are reaped after this long.
    pub keepalive: Duration,
    /// Maximum warm containers kept per function.
    pub max_warm_per_function: usize,
    /// Total containers that may execute concurrently (the provider-side
    /// concurrency cap; requests beyond it queue at the gateway).
    pub max_concurrency: usize,
    /// `fsync` the request log on every request (true models the
    /// durability contract of §4.1; the overhead shows up in Table 1).
    pub sync_log: bool,
}

impl ServerlessConfig {
    /// Defaults with a 100 ms cold start (within the range reported for
    /// production FaaS platforms).
    pub fn new(compute: ComputeConfig, log_dir: PathBuf) -> ServerlessConfig {
        ServerlessConfig {
            compute,
            log_dir,
            cold_start: Duration::from_millis(100),
            keepalive: Duration::from_secs(10),
            max_warm_per_function: 8,
            max_concurrency: 64,
            sync_log: true,
        }
    }
}

#[derive(Default)]
struct ContainerPool {
    /// function key → last-used instants of warm containers.
    warm: HashMap<String, Vec<Instant>>,
}

struct GatewayInner {
    executor: Arc<FunctionExecutor>,
    log: Mutex<Wal>,
    pool: Mutex<ContainerPool>,
    /// Counting semaphore for the concurrency cap.
    slots: (Mutex<usize>, parking_lot::Condvar),
    config: ServerlessConfig,
    requests: AtomicU64,
    cold_starts: AtomicU64,
    warm_starts: AtomicU64,
    busy_nanos: AtomicU64,
    started: Instant,
    rpc: OnceLock<Arc<RpcNode>>,
}

impl GatewayInner {
    /// Block until a concurrency slot is free (provider-side cap).
    fn acquire_slot(&self) {
        let (lock, cv) = &self.slots;
        let mut used = lock.lock();
        while *used >= self.config.max_concurrency {
            cv.wait(&mut used);
        }
        *used += 1;
    }

    fn release_slot(&self) {
        let (lock, cv) = &self.slots;
        *lock.lock() -= 1;
        cv.notify_one();
    }

    /// Acquire a container for `function`: pops a warm one or pays the
    /// cold-start delay.
    fn acquire_container(&self, function: &str) {
        let warm = {
            let mut pool = self.pool.lock();
            let now = Instant::now();
            let slots = pool.warm.entry(function.to_string()).or_default();
            // Drop expired containers.
            slots.retain(|last| now.duration_since(*last) < self.config.keepalive);
            slots.pop().is_some()
        };
        if warm {
            self.warm_starts.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cold_starts.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.config.cold_start);
        }
    }

    /// Return the container to the warm pool.
    fn release_container(&self, function: &str) {
        let mut pool = self.pool.lock();
        let slots = pool.warm.entry(function.to_string()).or_default();
        if slots.len() < self.config.max_warm_per_function {
            slots.push(Instant::now());
        }
    }

    fn handle(&self, body: Vec<u8>) -> Result<Vec<u8>, String> {
        let started = Instant::now();
        self.requests.fetch_add(1, Ordering::Relaxed);
        // Durably log the raw request before doing anything (§4.1: "this
        // load balancer must also log client requests in a durable way").
        {
            let mut log = self.log.lock();
            log.append(&body).map_err(|e| e.to_string())?;
            if self.config.sync_log {
                log.sync().map_err(|e| e.to_string())?;
            } else {
                log.flush().map_err(|e| e.to_string())?;
            }
        }
        // Strip the request envelope (the raw frame, header included, was
        // already logged above); the gateway ignores the carried context.
        let (_ctx, req) = crate::proto::decode_request(&body).map_err(|e| e.to_string())?;
        let result = match req {
            StoreRequest::Invoke { object, method, args, .. } => {
                let oid = ObjectId::new(object);
                let function = method.to_string();
                self.acquire_slot();
                self.acquire_container(&function);
                let out =
                    self.executor.execute(&oid, &method, args, true).map(StoreResponse::Value);
                self.release_container(&function);
                self.release_slot();
                out
            }
            StoreRequest::CreateObject { type_name, object, fields } => {
                let oid = ObjectId::new(object);
                self.executor.create_object(&type_name, &oid, &fields).map(|()| StoreResponse::Ok)
            }
            StoreRequest::DeployType { name, module, .. } => {
                self.executor.deploy(name, module);
                Ok(StoreResponse::Ok)
            }
            other => Err(InvokeError::Nested(format!("unsupported on gateway: {other:?}"))),
        };
        let encoded = crate::proto::encode_reply(result);
        self.busy_nanos.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        encoded
    }

    fn stats(&self) -> NodeStatsWire {
        NodeStatsWire {
            requests: self.requests.load(Ordering::Relaxed),
            invocations: self.executor.invocations.load(Ordering::Relaxed),
            cache_hits: 0,
            replications_applied: 0,
            duplicates_suppressed: 0,
            busy_nanos: self.busy_nanos.load(Ordering::Relaxed),
            uptime_nanos: self.started.elapsed().as_nanos() as u64,
            ..Default::default()
        }
    }
}

/// The serverless gateway node.
pub struct ServerlessGateway {
    id: NodeId,
    inner: Arc<GatewayInner>,
}

impl std::fmt::Debug for ServerlessGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerlessGateway").field("id", &self.id).finish()
    }
}

impl ServerlessGateway {
    /// Start the gateway at `id`.
    ///
    /// # Errors
    /// Fails when the request log cannot be created.
    pub fn start(
        net: &Network,
        id: NodeId,
        config: ServerlessConfig,
    ) -> Result<Arc<ServerlessGateway>, InvokeError> {
        std::fs::create_dir_all(&config.log_dir)
            .map_err(|e| InvokeError::Storage(e.to_string()))?;
        let log = Wal::create(config.log_dir.join("requests.log"))
            .map_err(|e| InvokeError::Storage(e.to_string()))?;
        let exec_rpc = RpcNode::start(net, NodeId(id.0 + 30_000), null_handler(), 1);
        let executor = Arc::new(FunctionExecutor::new(exec_rpc, &config.compute));
        let workers = config.compute.workers;
        let inner = Arc::new(GatewayInner {
            executor,
            log: Mutex::new(log),
            pool: Mutex::new(ContainerPool::default()),
            slots: (Mutex::new(0), parking_lot::Condvar::new()),
            config,
            requests: AtomicU64::new(0),
            cold_starts: AtomicU64::new(0),
            warm_starts: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            started: Instant::now(),
            rpc: OnceLock::new(),
        });
        let handler_inner = Arc::clone(&inner);
        let rpc = RpcNode::start(
            net,
            id,
            sync_handler(move |_from, body| handler_inner.handle(body)),
            workers,
        );
        inner.rpc.set(rpc).expect("set once");
        Ok(Arc::new(ServerlessGateway { id, inner }))
    }

    /// This gateway's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// `(cold_starts, warm_starts)` so far.
    pub fn start_counts(&self) -> (u64, u64) {
        (
            self.inner.cold_starts.load(Ordering::Relaxed),
            self.inner.warm_starts.load(Ordering::Relaxed),
        )
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> NodeStatsWire {
        self.inner.stats()
    }

    /// The underlying executor.
    pub fn executor(&self) -> &Arc<FunctionExecutor> {
        &self.inner.executor
    }

    /// Stop serving.
    pub fn shutdown(&self) {
        if let Some(rpc) = self.inner.rpc.get() {
            rpc.shutdown();
        }
    }
}
