//! The disaggregated baseline: functions execute on a dedicated compute
//! node, every storage access crosses the network.
//!
//! This is the comparison system of §5: "The disaggregated variant is
//! implemented as a standalone process executing WebAssembly binaries. In
//! addition, the baseline uses our prototype as its storage layer" — here,
//! the compute node runs the *same* bytecode modules in the *same* metered
//! VM, but its [`Host`] implementation translates every `get`/`put`/
//! `push`/`scan` into an RPC against the storage replica set (the `Raw*`
//! requests served by [`AggregatedNode`](crate::aggregated::AggregatedNode)).
//! It offers **no consistency guarantees**: no per-object scheduling, no
//! write buffering, writes replicate asynchronously.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use lambda_net::rpc::{null_handler, sync_handler};
use lambda_net::{Network, NodeId, RpcNode};
use lambda_objects::{keys, InvocationContext, InvokeError, ObjectId};
use lambda_vm::{Host, HostError, Interpreter, Limits, Module, VmValue};

use crate::proto::{self, NodeStatsWire, StoreRequest, StoreResponse};

/// Configuration of the compute layer.
#[derive(Debug, Clone)]
pub struct ComputeConfig {
    /// Storage replica set; index 0 is treated as the write target.
    pub storage: Vec<NodeId>,
    /// RPC worker threads.
    pub workers: usize,
    /// Per-storage-RPC timeout.
    pub rpc_timeout: Duration,
    /// VM limits per invocation.
    pub limits: Limits,
}

impl ComputeConfig {
    /// Defaults against the given storage nodes.
    pub fn new(storage: Vec<NodeId>) -> ComputeConfig {
        ComputeConfig {
            storage,
            workers: 16,
            rpc_timeout: Duration::from_secs(1),
            limits: Limits::default(),
        }
    }
}

/// Shared function-execution machinery: used by the plain compute node and
/// by the conventional-serverless gateway.
pub struct FunctionExecutor {
    rpc: Arc<RpcNode>,
    storage: Vec<NodeId>,
    modules: RwLock<HashMap<String, Arc<Module>>>,
    interpreter: Interpreter,
    rpc_timeout: Duration,
    read_rr: AtomicU64,
    /// Storage round-trips performed (the quantity disaggregation pays).
    pub storage_rpcs: AtomicU64,
    /// Function invocations executed (including nested).
    pub invocations: AtomicU64,
}

impl std::fmt::Debug for FunctionExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunctionExecutor").field("storage", &self.storage).finish()
    }
}

impl FunctionExecutor {
    /// Build an executor that issues storage RPCs through `rpc`.
    pub fn new(rpc: Arc<RpcNode>, config: &ComputeConfig) -> FunctionExecutor {
        assert!(!config.storage.is_empty(), "need at least one storage node");
        FunctionExecutor {
            rpc,
            storage: config.storage.clone(),
            modules: RwLock::new(HashMap::new()),
            interpreter: Interpreter::new(config.limits),
            rpc_timeout: config.rpc_timeout,
            read_rr: AtomicU64::new(0),
            storage_rpcs: AtomicU64::new(0),
            invocations: AtomicU64::new(0),
        }
    }

    /// Deploy a type's module under `name`.
    pub fn deploy(&self, name: impl Into<String>, module: Module) {
        self.modules.write().insert(name.into(), Arc::new(module));
    }

    fn write_target(&self) -> NodeId {
        self.storage[0]
    }

    fn read_target(&self) -> NodeId {
        let i = self.read_rr.fetch_add(1, Ordering::Relaxed) as usize;
        self.storage[i % self.storage.len()]
    }

    /// One storage round-trip; `shape` picks the reply variant `req` calls
    /// for (a [`StoreResponse`] `into_*` accessor).
    fn storage_call<T>(
        &self,
        node: NodeId,
        req: &StoreRequest,
        shape: fn(StoreResponse) -> Result<T, InvokeError>,
    ) -> Result<T, HostError> {
        self.storage_rpcs.fetch_add(1, Ordering::Relaxed);
        // Node-to-node like every other hop; the baseline sets no deadline
        // and no invocation identity.
        let ctx = InvocationContext::background().for_downstream();
        let frame = proto::encode_request(&ctx, req).expect("requests serialize");
        proto::decode_reply(self.rpc.call(node, frame, self.rpc_timeout))
            .and_then(shape)
            .map_err(|e| HostError::Storage(e.to_string()))
    }

    /// Execute `method` of `object` here on the compute node.
    ///
    /// # Errors
    /// Any [`InvokeError`]; note that unlike the aggregated path, partial
    /// writes of a failed invocation **stay applied** (no consistency
    /// guarantees — §5).
    pub fn execute(
        &self,
        object: &ObjectId,
        method: &str,
        args: Vec<VmValue>,
        external: bool,
    ) -> Result<VmValue, InvokeError> {
        self.invocations.fetch_add(1, Ordering::Relaxed);
        // Fetch the object's type over the network (meta lookup).
        let meta = StoreRequest::RawGet { key: keys::meta_key(object) };
        let type_name = self
            .storage_call(self.read_target(), &meta, StoreResponse::into_maybe_bytes)?
            .map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
            .ok_or_else(|| InvokeError::UnknownObject(object.to_string()))?;
        let module = self
            .modules
            .read()
            .get(&type_name)
            .cloned()
            .ok_or(InvokeError::UnknownType(type_name))?;
        let (_, def) = module
            .function(method)
            .ok_or_else(|| InvokeError::UnknownMethod(method.to_string()))?;
        if external && !def.public {
            return Err(InvokeError::NotPublic(method.to_string()));
        }
        let mut host = RemoteHost { executor: self, object: object.clone() };
        self.interpreter.execute(&module, method, args, &mut host).map_err(InvokeError::from)
    }

    /// Create an object by writing its meta + fields over the raw API.
    ///
    /// # Errors
    /// Storage failures.
    pub fn create_object(
        &self,
        type_name: &str,
        object: &ObjectId,
        fields: &[(String, Vec<u8>)],
    ) -> Result<(), InvokeError> {
        let meta = (keys::meta_key(object), type_name.as_bytes().to_vec());
        let fields = fields.iter().map(|(f, v)| (keys::field_key(object, f.as_bytes()), v.clone()));
        for (key, value) in std::iter::once(meta).chain(fields) {
            let put = StoreRequest::RawPut { key, value };
            self.storage_call(self.write_target(), &put, StoreResponse::into_ok)?;
        }
        Ok(())
    }
}

/// [`Host`] that pays one network round-trip per storage access (§4.1:
/// "each storage access requires a network round-trip").
struct RemoteHost<'a> {
    executor: &'a FunctionExecutor,
    object: ObjectId,
}

impl Host for RemoteHost<'_> {
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, HostError> {
        let req = StoreRequest::RawGet { key: keys::field_key(&self.object, key) };
        self.executor.storage_call(
            self.executor.read_target(),
            &req,
            StoreResponse::into_maybe_bytes,
        )
    }

    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), HostError> {
        let req =
            StoreRequest::RawPut { key: keys::field_key(&self.object, key), value: value.to_vec() };
        self.executor.storage_call(self.executor.write_target(), &req, StoreResponse::into_ok)
    }

    fn delete(&mut self, key: &[u8]) -> Result<(), HostError> {
        let req = StoreRequest::RawDelete { key: keys::field_key(&self.object, key) };
        self.executor.storage_call(self.executor.write_target(), &req, StoreResponse::into_ok)
    }

    fn push(&mut self, field: &[u8], value: &[u8]) -> Result<(), HostError> {
        let req = StoreRequest::RawPush {
            object: self.object.0.clone(),
            field: field.to_vec(),
            value: value.to_vec(),
        };
        self.executor.storage_call(self.executor.write_target(), &req, StoreResponse::into_ok)
    }

    fn scan(
        &mut self,
        field: &[u8],
        limit: usize,
        newest_first: bool,
    ) -> Result<Vec<Vec<u8>>, HostError> {
        let req = StoreRequest::RawScan {
            object: self.object.0.clone(),
            field: field.to_vec(),
            limit: limit as u64,
            newest_first,
        };
        self.executor.storage_call(self.executor.read_target(), &req, StoreResponse::into_rows)
    }

    fn count(&mut self, field: &[u8]) -> Result<u64, HostError> {
        let req = StoreRequest::RawCount { object: self.object.0.clone(), field: field.to_vec() };
        self.executor.storage_call(self.executor.read_target(), &req, StoreResponse::into_count)
    }

    fn invoke(
        &mut self,
        object: &[u8],
        method: &str,
        args: Vec<VmValue>,
    ) -> Result<VmValue, HostError> {
        // A nested call is simply another function invocation on this
        // compute node — with its own meta fetch and per-access RPCs.
        let target = ObjectId::new(object.to_vec());
        self.executor
            .execute(&target, method, args, false)
            .map_err(|e| HostError::InvokeFailed(lambda_objects::encode_error(&e)))
    }

    fn invoke_many(
        &mut self,
        targets: Vec<Vec<u8>>,
        method: &str,
        args: Vec<VmValue>,
    ) -> Result<Vec<VmValue>, HostError> {
        // The compute node also parallelizes its fan-out (fair comparison:
        // both architectures run store_post calls concurrently, §3.2); each
        // parallel branch still pays its own meta fetch and per-access
        // storage round-trips.
        let executor = self.executor;
        const FANOUT_WAVE: usize = 8;
        let mut results: Vec<Result<VmValue, HostError>> = Vec::with_capacity(targets.len());
        for wave in targets.chunks(FANOUT_WAVE) {
            let wave_results: Vec<Result<VmValue, HostError>> = std::thread::scope(|scope| {
                let handles: Vec<_> = wave
                    .iter()
                    .map(|target| {
                        let args = args.clone();
                        let target = ObjectId::new(target.clone());
                        scope.spawn(move || {
                            executor.execute(&target, method, args, false).map_err(|e| {
                                HostError::InvokeFailed(lambda_objects::encode_error(&e))
                            })
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|_| {
                            Err(HostError::InvokeFailed("fan-out thread panicked".into()))
                        })
                    })
                    .collect()
            });
            results.extend(wave_results);
        }
        results.into_iter().collect()
    }

    fn self_id(&self) -> Vec<u8> {
        self.object.0.clone()
    }

    fn now_millis(&mut self) -> i64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as i64)
            .unwrap_or(0)
    }

    fn log(&mut self, _msg: &str) {}
}

/// A dedicated compute node serving `Invoke` requests over RPC.
pub struct ComputeNode {
    inner: Arc<ComputeInner>,
}

struct ComputeInner {
    id: NodeId,
    executor: Arc<FunctionExecutor>,
    rpc: std::sync::OnceLock<Arc<RpcNode>>,
    requests: AtomicU64,
    busy_nanos: AtomicU64,
    started: Instant,
}

impl std::fmt::Debug for ComputeNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComputeNode").field("id", &self.inner.id).finish()
    }
}

impl ComputeInner {
    fn handle(&self, body: Vec<u8>) -> Result<Vec<u8>, String> {
        let started = Instant::now();
        self.requests.fetch_add(1, Ordering::Relaxed);
        // Strip the request envelope; the baseline ignores the carried
        // context (no deadline enforcement, no spans — it has none of the
        // aggregated path's machinery, which is the point of §5).
        let (_ctx, req) = proto::decode_request(&body).map_err(|e| e.to_string())?;
        let result = match req {
            StoreRequest::Invoke { object, method, args, .. } => {
                let oid = ObjectId::new(object);
                self.executor.execute(&oid, &method, args, true).map(StoreResponse::Value)
            }
            StoreRequest::CreateObject { type_name, object, fields } => {
                let oid = ObjectId::new(object);
                self.executor.create_object(&type_name, &oid, &fields).map(|()| StoreResponse::Ok)
            }
            StoreRequest::DeployType { name, module, .. } => {
                self.executor.deploy(name, module);
                Ok(StoreResponse::Ok)
            }
            other => Err(InvokeError::Nested(format!("unsupported on compute node: {other:?}"))),
        };
        let encoded = proto::encode_reply(result);
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

impl ComputeNode {
    /// Start a compute node at `id`. The executor issues its storage RPCs
    /// from a dedicated endpoint (`id + 30000`).
    pub fn start(net: &Network, id: NodeId, config: ComputeConfig) -> Arc<ComputeNode> {
        let exec_rpc = RpcNode::start(net, NodeId(id.0 + 30_000), null_handler(), 1);
        let executor = Arc::new(FunctionExecutor::new(exec_rpc, &config));
        let inner = Arc::new(ComputeInner {
            id,
            executor,
            rpc: std::sync::OnceLock::new(),
            requests: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            started: Instant::now(),
        });
        let handler_inner = Arc::clone(&inner);
        let rpc = RpcNode::start(
            net,
            id,
            sync_handler(move |_from, body| handler_inner.handle(body)),
            config.workers,
        );
        inner.rpc.set(rpc).expect("set once");
        Arc::new(ComputeNode { inner })
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.inner.id
    }

    /// The executor (direct access for builders/tests).
    pub fn executor(&self) -> &Arc<FunctionExecutor> {
        &self.inner.executor
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> NodeStatsWire {
        self.inner.stats()
    }

    /// Stop serving.
    pub fn shutdown(&self) {
        if let Some(rpc) = self.inner.rpc.get() {
            rpc.shutdown();
        }
        self.inner.executor.rpc.shutdown();
    }
}
