//! Client-side handle to a LambdaStore cluster.
//!
//! Per §5, "clients directly contact the executing node and there is no
//! load balancer or frontend": the client caches the shard map, routes
//! mutating invocations to the primary, routes read-only invocations to a
//! (rotating) replica, and refreshes + retries on `WrongNode` or timeouts
//! (the paper's "clients... will reissue their request if needed",
//! §4.2.1).

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use lambda_coordinator::{CoordClient, CoordCmd, ShardId};
use lambda_net::rpc::null_handler;
use lambda_net::{Network, NodeId, RpcNode};
use lambda_objects::{InvocationContext, InvokeError, ObjectId, TxCall};
use lambda_vm::{Module, VmValue};

use crate::placement::Placement;
use crate::proto::{self, StoreRequest, StoreResponse};

/// How long [`StoreClient::migrate_object`] waits for the coordinator's
/// replicated state machine to drive a planned migration to commit (or
/// abort) before reporting a timeout.
const MIGRATE_WAIT: Duration = Duration::from_secs(30);

/// Deliveries one logical invocation may make, the first included.
const MAX_ATTEMPTS: u32 = 20;

/// Pause before following an `ObjectMoved` redirect again when the refresh
/// learned nothing: the placement has not caught up with the migration's
/// commit yet. Fixed — a redirect is neither congestion nor failure.
const REDIRECT_PAUSE: Duration = Duration::from_millis(2);

/// A cluster client. Cheap to clone ([`Arc`] inside); safe to share across
/// request-generator threads.
#[derive(Clone)]
pub struct StoreClient {
    inner: Arc<ClientInner>,
}

struct ClientInner {
    rpc: Arc<RpcNode>,
    coord: Option<CoordClient>,
    placement: Placement,
    timeout: Duration,
    /// Per-attempt RPC cap: a fraction of the end-to-end budget, so one
    /// lost reply stalls a single attempt instead of consuming the whole
    /// deadline — the redelivery (same invocation id) is what the server's
    /// dedup window absorbs.
    attempt_timeout: Duration,
    round_robin: AtomicU64,
    /// Attempts beyond the first, across all operations of this client.
    client_retries: AtomicU64,
    /// When set, read-only invocations skip the replica rotation and go
    /// straight to the primary (the pre-lease read path, with identical
    /// execution semantics).
    pin_reads_to_primary: AtomicBool,
}

/// Backoff schedule of one [`Route`]: exponential growth with full
/// jitter, capped, and never longer than the invocation's remaining
/// deadline budget. Seeded from the invocation identity so a replayed
/// simulation retries at the same instants.
struct RetryPolicy {
    base: Duration,
    cap: Duration,
    rng: SmallRng,
}

impl RetryPolicy {
    fn new(seed: u64) -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(2),
            cap: Duration::from_millis(100),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The pause to take after a failed `attempt` (0-based). Full jitter —
    /// uniform in `[0, min(cap, base·2^attempt)]` — spreads synchronized
    /// retry storms; clamping to the remaining budget keeps the last sleep
    /// from overshooting the deadline.
    fn pause(&mut self, attempt: u32, ctx: &InvocationContext) -> Duration {
        let exp = self.base.saturating_mul(1 << attempt.min(16)).min(self.cap);
        let jittered = Duration::from_nanos(self.rng.gen_range(0..exp.as_nanos() as u64 + 1));
        match ctx.remaining() {
            Some(rem) => jittered.min(rem),
            None => jittered,
        }
    }
}

/// What the routing loop does after a failed attempt.
#[derive(Debug, PartialEq)]
enum Next {
    /// The invocation is over; this is its error.
    Done(InvokeError),
    /// Deliver again at once (a redirect the refresh already resolved).
    RetryNow,
    /// Deliver again after the pause.
    RetryAfter(Duration),
}

/// The routing loop of one *logical* invocation, as a state machine: every
/// attempt carries the same invocation id (so servers can deduplicate
/// redeliveries), a bumped attempt number, and spends from the one shared
/// deadline budget — a retry never resets the clock. [`Operation`] only
/// carries out what [`begin`](Route::begin) and [`settle`](Route::settle)
/// decide.
struct Route {
    /// The context each attempt travels under; `attempt` counts deliveries.
    ctx: InvocationContext,
    object: ObjectId,
    read_only: bool,
    /// `Some` = every attempt goes to this endpoint (no placement routing).
    pinned: Option<NodeId>,
    /// Reads stop rotating and pin to the primary after a misroute: the
    /// primary always serves, so one refresh + fall-back beats spinning
    /// through a replica set the local map has wrong.
    prefer_primary: bool,
    policy: RetryPolicy,
}

impl Route {
    fn new(
        mut ctx: InvocationContext,
        object: &ObjectId,
        read_only: bool,
        pinned: Option<NodeId>,
    ) -> Route {
        ctx.attempt = 0;
        Route {
            ctx,
            object: object.clone(),
            read_only,
            pinned,
            prefer_primary: false,
            policy: RetryPolicy::new(ctx.invocation_id ^ ctx.trace_id),
        }
    }

    /// Open the next attempt: the node to deliver to, or the error this
    /// attempt ends with before anything is sent (budget spent, shard
    /// lost, no placement) — which [`settle`](Route::settle) classifies
    /// like any reply.
    fn begin(&mut self, client: &StoreClient) -> Result<NodeId, InvokeError> {
        if self.ctx.expired() {
            return Err(InvokeError::DeadlineExceeded);
        }
        if self.ctx.attempt > 0 {
            client.inner.client_retries.fetch_add(1, Ordering::Relaxed);
        }
        match self.pinned {
            Some(endpoint) => Ok(endpoint),
            None => client.target_for(&self.object, self.read_only, self.prefer_primary),
        }
    }

    /// Classify a failed attempt — the one retry decision table. `refresh`
    /// re-fetches the placement and says whether it moved; it runs at most
    /// once, and only for errors that mean the local map may be stale.
    fn settle(&mut self, err: InvokeError, refresh: impl FnOnce() -> bool) -> Next {
        if self.ctx.attempt + 1 >= MAX_ATTEMPTS {
            return Next::Done(err);
        }
        let pause = match &err {
            // Stale map (§4.2.1 — clients reissue after reconfiguration).
            InvokeError::WrongNode(_) => {
                refresh();
                self.prefer_primary = true;
                Some(self.backoff())
            }
            // A replica without a current read lease. The data is fine and
            // the primary serves unconditionally: go straight there, with
            // no backoff — a routing redirect, not congestion or failure.
            // If the attempt was already pinned to the primary, though, it
            // cannot attest its own leadership until the next coordinator
            // heartbeat lands; that is transient unavailability, so back
            // off instead of burning the remaining attempts in a tight loop.
            InvokeError::LeaseExpired(_) => {
                refresh();
                let at_primary = self.prefer_primary;
                self.prefer_primary = true;
                at_primary.then(|| self.backoff())
            }
            // The object is mid-handoff (or just committed to its new
            // shard): follow it.
            InvokeError::ObjectMoved(_) => {
                self.prefer_primary = true;
                (!refresh()).then_some(REDIRECT_PAUSE)
            }
            // Unreachable node or garbled reply; a shard that lost every
            // replica (repair revives it as soon as a former member
            // rejoins); a replication failure at the primary (a backup
            // died and the shard has not reconfigured yet).
            InvokeError::Nested(_) | InvokeError::ShardUnavailable(_) | InvokeError::Storage(_) => {
                refresh();
                Some(self.backoff())
            }
            // Admission control shed us *before* burning the deadline; the
            // placement map is not stale — back off and re-offer within
            // the same budget.
            InvokeError::Overloaded(_) => Some(self.backoff()),
            _ => return Next::Done(err),
        };
        self.ctx.attempt += 1;
        pause.map_or(Next::RetryNow, Next::RetryAfter)
    }

    fn backoff(&mut self) -> Duration {
        self.policy.pause(self.ctx.attempt, &self.ctx)
    }
}

impl std::fmt::Debug for StoreClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreClient").finish()
    }
}

impl StoreClient {
    /// Create a client with its own network endpoint `id`.
    pub fn new(
        net: &Network,
        id: NodeId,
        coordinators: Vec<NodeId>,
        timeout: Duration,
    ) -> StoreClient {
        let rpc = RpcNode::start(net, id, null_handler(), 1);
        let coord = if coordinators.is_empty() {
            None
        } else {
            Some(CoordClient::new(Arc::clone(&rpc), coordinators, timeout))
        };
        let client = StoreClient {
            inner: Arc::new(ClientInner {
                rpc,
                coord,
                placement: Placement::new(),
                timeout,
                attempt_timeout: (timeout / 5).max(Duration::from_millis(1)),
                round_robin: AtomicU64::new(0),
                client_retries: AtomicU64::new(0),
                pin_reads_to_primary: AtomicBool::new(false),
            }),
        };
        client.refresh();
        client
    }

    /// Re-fetch the shard map from the coordinators.
    pub fn refresh(&self) {
        if let Some(coord) = &self.inner.coord {
            if let Ok(Some(state)) = coord.get_state(self.inner.placement.version()) {
                self.inner.placement.update(state);
            }
        }
    }

    /// [`refresh`](Self::refresh), reporting whether the placement moved.
    fn refresh_moved(&self) -> bool {
        let before = self.inner.placement.version();
        self.refresh();
        self.inner.placement.version() != before
    }

    /// The client's placement view (also used to install static maps in
    /// coordinator-less deployments).
    pub fn placement(&self) -> &Placement {
        &self.inner.placement
    }

    fn call(&self, node: NodeId, req: &StoreRequest) -> Result<StoreResponse, InvokeError> {
        // One-shot call outside any routing loop: fresh context, full
        // client timeout as its budget.
        let ctx = InvocationContext::client(self.inner.timeout);
        let frame = proto::encode_request(&ctx, req).expect("requests serialize");
        proto::decode_reply(self.inner.rpc.call(node, frame, self.attempt_timeout(&ctx)))
    }

    /// Pick the node for the next attempt. Reads rotate across the live
    /// replica set for scaling ("read-only functions can execute at any
    /// replica", §4.2.1) unless `prefer_primary` pins them.
    fn target_for(
        &self,
        object: &ObjectId,
        read_only: bool,
        prefer_primary: bool,
    ) -> Result<NodeId, InvokeError> {
        let Some((shard, info)) = self.inner.placement.locate(object) else {
            return Err(InvokeError::Nested("no storage nodes known".into()));
        };
        if info.lost {
            // No live replica anywhere: calling out would only burn the
            // deadline on RPC timeouts. Surface the real condition.
            return Err(InvokeError::ShardUnavailable(format!(
                "shard {shard} for object {object} lost every replica"
            )));
        }
        if read_only
            && !prefer_primary
            && !self.inner.pin_reads_to_primary.load(Ordering::Relaxed)
            && !info.backups.is_empty()
        {
            // Only rotate across replicas still registered with the
            // coordinator: routing a read at a dead backup costs a full
            // RPC timeout before the retry loop recovers.
            let live: Vec<NodeId> =
                info.replicas().into_iter().filter(|n| self.inner.placement.is_live(*n)).collect();
            if !live.is_empty() {
                let i = self.inner.round_robin.fetch_add(1, Ordering::Relaxed) as usize;
                return Ok(live[i % live.len()]);
            }
        }
        Ok(info.primary)
    }

    /// Walk `route` with `req` and complete `done` with the reply that
    /// ends it: the one way this client runs a routed request.
    fn start(&self, route: Route, req: StoreRequest, done: RouteCallback) {
        Operation { client: self.clone(), route, req, sent: false, done }.step();
    }

    /// Park for the outcome of what `start` starts with the `done` it is
    /// handed. The sender rides in `done`, so an operation dropped unrun —
    /// its endpoint shut down, or the stopped timer refused its retry —
    /// ends the wait with an error instead of hanging it. Never on this
    /// client's own completion threads: the operation's replies and pauses
    /// need them (DESIGN.md §10).
    fn join<T: Send + 'static>(
        &self,
        start: impl FnOnce(Box<dyn FnOnce(Result<T, InvokeError>) + Send>),
    ) -> Result<T, InvokeError> {
        debug_assert!(
            COMPLETING.get() != Some(self.id()),
            "a blocking call on its client's completion thread waits for itself"
        );
        debug_assert!(!lambda_objects::in_method_body(), "a method body parks its thread");
        let (tx, rx) = channel::bounded(1);
        start(Box::new(move |outcome| drop(tx.send(outcome))));
        rx.recv().unwrap_or_else(|_| Err(InvokeError::Nested(LOST.into())))
    }

    /// A client-born write of `object`, routed to its primary under a fresh
    /// context whose budget is the client timeout, plus one join.
    fn write(&self, object: &ObjectId, req: StoreRequest) -> Result<StoreResponse, InvokeError> {
        let ctx = InvocationContext::client(self.inner.timeout);
        self.join(|done| self.start(Route::new(ctx, object, false, None), req, done))
    }

    /// This client's network endpoint.
    pub fn id(&self) -> NodeId {
        self.inner.rpc.id()
    }

    /// How many routing retries (attempts beyond an operation's first)
    /// this client has performed.
    pub fn retries_performed(&self) -> u64 {
        self.inner.client_retries.load(Ordering::Relaxed)
    }

    /// Route read-only invocations straight to the primary instead of
    /// rotating across leased replicas (the pre-lease read path, with
    /// identical execution semantics).
    pub fn pin_reads_to_primary(&self, pin: bool) {
        self.inner.pin_reads_to_primary.store(pin, Ordering::Relaxed);
    }

    /// Invoke `method` on `object`. `read_only` is a routing hint that lets
    /// the call run on any replica; it is re-verified server-side.
    ///
    /// The whole routing loop is one logical invocation: a single
    /// invocation id (every redelivery is deduplicable server-side), a
    /// single deadline budget equal to the client timeout, and the context
    /// (trace id + budget + origin + invocation id + attempt) travels with
    /// each attempt in the wire envelope. It is
    /// [`invoke_async`](StoreClient::invoke_async) plus one join: this
    /// thread parks for the outcome, never for an attempt or a pause.
    ///
    /// # Errors
    /// Any [`InvokeError`], after routing retries are exhausted;
    /// [`InvokeError::DeadlineExceeded`] once the budget is spent.
    pub fn invoke(
        &self,
        object: &ObjectId,
        method: &str,
        args: Vec<VmValue>,
        read_only: bool,
    ) -> Result<VmValue, InvokeError> {
        let ctx = InvocationContext::client(self.inner.timeout);
        self.invoke_ctx(&ctx, object, method, args, read_only)
    }

    /// Invoke under a caller-supplied context: same routing loop as
    /// [`invoke`], but the caller's deadline bounds every attempt and the
    /// caller's invocation id is what servers deduplicate on. An attempt
    /// never starts once the budget is spent —
    /// [`InvokeError::DeadlineExceeded`] is returned rather than retried.
    ///
    /// [`invoke`]: StoreClient::invoke
    ///
    /// # Errors
    /// Any [`InvokeError`]; `DeadlineExceeded` once the context expires.
    pub fn invoke_ctx(
        &self,
        ctx: &InvocationContext,
        object: &ObjectId,
        method: &str,
        args: Vec<VmValue>,
        read_only: bool,
    ) -> Result<VmValue, InvokeError> {
        let route = Route::new(*ctx, object, read_only, None);
        self.join(|done| self.start_invoke(route, method, args, done))
    }

    /// Invoke `method` on `object` without parking this thread: `done`
    /// runs on the client's RPC completion executor once the invocation
    /// succeeds, exhausts its retries, or spends its deadline budget.
    ///
    /// The routing loop of [`invoke`](StoreClient::invoke) without its
    /// join: backoff pauses are timer events, not parked threads, so an
    /// open-loop generator can keep thousands of invocations in flight
    /// from a handful of threads.
    pub fn invoke_async(
        &self,
        object: &ObjectId,
        method: &str,
        args: Vec<VmValue>,
        read_only: bool,
        done: InvokeCallback,
    ) {
        let ctx = InvocationContext::client(self.inner.timeout);
        self.start_invoke(Route::new(ctx, object, read_only, None), method, args, done);
    }

    /// Like [`invoke_async`](StoreClient::invoke_async), but every attempt
    /// goes to one fixed `endpoint` instead of routing by placement — the
    /// open-loop path to the disaggregated compute node or the serverless
    /// gateway, which proxy to storage themselves.
    pub fn invoke_async_at(
        &self,
        endpoint: NodeId,
        object: &ObjectId,
        method: &str,
        args: Vec<VmValue>,
        read_only: bool,
        done: InvokeCallback,
    ) {
        let ctx = InvocationContext::client(self.inner.timeout);
        self.start_invoke(Route::new(ctx, object, read_only, Some(endpoint)), method, args, done);
    }

    /// Start invoking `method(args)` along `route`; `done` gets the value.
    fn start_invoke(&self, route: Route, method: &str, args: Vec<VmValue>, done: InvokeCallback) {
        let req = StoreRequest::Invoke {
            object: route.object.0.clone(),
            method: method.to_string(),
            args,
            read_only: route.read_only,
            internal: false,
            collect_read_set: false,
        };
        let done = Box::new(move |reply: Result<StoreResponse, InvokeError>| {
            done(reply.and_then(StoreResponse::into_value))
        });
        self.start(route, req, done);
    }

    /// The transport timeout of one attempt under `ctx`.
    fn attempt_timeout(&self, ctx: &InvocationContext) -> Duration {
        ctx.rpc_timeout(self.inner.attempt_timeout)
    }

    /// Create an object of a deployed type.
    ///
    /// Creation is retried like any other write, and a create is not
    /// deduplicated server-side, so `AlreadyExists` after an earlier
    /// attempt was sent is treated as success: the ambiguous earlier
    /// attempt committed before its reply was lost. A conflict on the
    /// first attempt sent still errors. (A concurrent create of the same id by another client during
    /// our retry window is absorbed the same way — acceptable because
    /// creates of a given id are expected to have one owner.)
    ///
    /// # Errors
    /// Any [`InvokeError`].
    pub fn create_object(
        &self,
        type_name: &str,
        object: &ObjectId,
        fields: &[(&str, &[u8])],
    ) -> Result<(), InvokeError> {
        let req = StoreRequest::CreateObject {
            type_name: type_name.to_string(),
            object: object.0.clone(),
            fields: fields.iter().map(|(f, v)| (f.to_string(), v.to_vec())).collect(),
        };
        self.write(object, req)?.into_ok()
    }

    /// Delete an object.
    ///
    /// # Errors
    /// Any [`InvokeError`].
    pub fn delete_object(&self, object: &ObjectId) -> Result<(), InvokeError> {
        let req = StoreRequest::DeleteObject { object: object.0.clone() };
        self.write(object, req)?.into_ok()
    }

    /// Deploy a bytecode object type to every registered storage node.
    ///
    /// # Errors
    /// The first node failure.
    pub fn deploy_type(
        &self,
        name: &str,
        fields: Vec<lambda_objects::FieldDef>,
        module: &Module,
    ) -> Result<(), InvokeError> {
        self.refresh();
        let nodes = self.inner.placement.storage_nodes();
        if nodes.is_empty() {
            return Err(InvokeError::Nested("no storage nodes registered".into()));
        }
        for node in nodes {
            let req = StoreRequest::DeployType {
                name: name.to_string(),
                fields: fields.clone(),
                module: module.clone(),
            };
            self.call(node, &req)?.into_ok()?;
        }
        Ok(())
    }

    /// Migrate `object` to `target_shard` through the coordinator-owned
    /// protocol: propose a `PlanMigration` and wait for the replicated
    /// state machine to drive it to commit (microshard migration, §4.2).
    /// The source keeps serving — and keeps its copy — until the target
    /// holds the object durably and the routing flip is chosen into the
    /// Paxos log, so no failure in between can strand or lose the object.
    ///
    /// # Errors
    /// Plan rejection (unknown shard, concurrent migration of the same
    /// object to a different target), an aborted migration (target
    /// unreachable, replica failures mid-copy), or a poll timeout.
    pub fn migrate_object(
        &self,
        object: &ObjectId,
        target_shard: ShardId,
    ) -> Result<(), InvokeError> {
        let Some(coord) = &self.inner.coord else {
            return Err(InvokeError::Nested("migration needs a coordinator".into()));
        };
        self.refresh();
        let state = self.inner.placement.snapshot();
        if state.shard(target_shard).is_none() {
            return Err(InvokeError::Nested(format!("no shard {target_shard}")));
        }
        let Some(from) = state.shard_for_object(object.as_bytes()) else {
            return Err(InvokeError::Nested(format!("object {object} has no placement")));
        };
        if from == target_shard {
            return Ok(());
        }
        coord
            .propose(CoordCmd::PlanMigration { object: object.0.clone(), from, to: target_shard })
            .map_err(|e| InvokeError::Nested(format!("plan failed: {e}")))?;
        // The plan is applied deterministically on every replica, but may
        // have been rejected as a no-op (e.g. another migration of this
        // object was already in flight). Poll the replicated entry until
        // the migration resolves one way or the other.
        let deadline = Instant::now() + MIGRATE_WAIT;
        let mut seen = false;
        loop {
            self.refresh();
            let st = self.inner.placement.snapshot();
            if let Some(m) = st.migrations.get(object.as_bytes()) {
                if m.to != target_shard {
                    return Err(InvokeError::Nested(format!(
                        "concurrent migration of {object} to shard {} in flight",
                        m.to
                    )));
                }
                seen = true;
            } else {
                if st.shard_for_object(object.as_bytes()) == Some(target_shard) {
                    return Ok(());
                }
                if seen {
                    return Err(InvokeError::Nested(format!(
                        "migration of {object} to shard {target_shard} aborted"
                    )));
                }
            }
            if Instant::now() > deadline {
                return Err(InvokeError::Nested(format!(
                    "migration of {object} to shard {target_shard} did not complete"
                )));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Execute a serializable multi-call transaction. All objects must be
    /// served by the same primary node; the call is routed to the primary
    /// of the first object (a cross-shard mix yields
    /// [`InvokeError::WrongNode`]).
    ///
    /// # Errors
    /// Any [`InvokeError`]; on error no writes were applied.
    pub fn transact(&self, calls: Vec<TxCall>) -> Result<Vec<VmValue>, InvokeError> {
        let Some(first) = calls.first() else {
            return Ok(Vec::new());
        };
        let object = first.object.clone();
        self.write(&object, StoreRequest::Transact { calls })?.into_values()
    }

    /// Enumerate the objects stored on `node`.
    ///
    /// # Errors
    /// RPC failures.
    pub fn list_objects(&self, node: NodeId) -> Result<Vec<ObjectId>, InvokeError> {
        let ids = self.call(node, &StoreRequest::ListObjects)?.into_objects()?;
        Ok(ids.into_iter().map(ObjectId::new).collect())
    }

    /// Raw storage access (used by the disaggregated baseline's compute
    /// layer and by tests).
    ///
    /// # Errors
    /// RPC failures.
    pub fn raw(&self, node: NodeId, req: &StoreRequest) -> Result<StoreResponse, InvokeError> {
        self.call(node, req)
    }

    /// Shut the client's endpoint down.
    pub fn shutdown(&self) {
        self.inner.rpc.shutdown();
    }
}

/// Completion for [`StoreClient::invoke_async`].
pub type InvokeCallback = Box<dyn FnOnce(Result<VmValue, InvokeError>) + Send>;

/// Completion of one routed request: the decoded reply that ended it.
type RouteCallback = Box<dyn FnOnce(Result<StoreResponse, InvokeError>) + Send>;

/// What a blocking call ends with when its operation was dropped unrun.
const LOST: &str = "client endpoint shut down before the request had an outcome";

thread_local! {
    /// The client endpoint one of whose completions this thread is
    /// running, while it runs it.
    static COMPLETING: Cell<Option<NodeId>> = const { Cell::new(None) };
}

/// Run `f` as a completion of client endpoint `client`.
fn completing(client: NodeId, f: impl FnOnce()) {
    let outer = COMPLETING.replace(Some(client));
    f();
    COMPLETING.set(outer);
}

/// One in-flight routed request: it walks its [`Route`] on the client's
/// RPC completion executor — each attempt a `call_deferred` of `req` under
/// the route's context, each pause a timer event.
struct Operation {
    client: StoreClient,
    route: Route,
    req: StoreRequest,
    /// An attempt was sent (`begin` picked a node); a failed `begin` sends
    /// nothing, although it spends an attempt number.
    sent: bool,
    done: RouteCallback,
}

impl Operation {
    fn step(mut self) {
        let node = match self.route.begin(&self.client) {
            Ok(node) => node,
            Err(e) => return self.retry(e),
        };
        // A create is not deduplicated server-side: after an earlier
        // attempt was sent, `AlreadyExists` is that attempt's commit.
        let committed_before = std::mem::replace(&mut self.sent, true)
            && matches!(self.req, StoreRequest::CreateObject { .. });
        let frame = proto::encode_request(&self.route.ctx, &self.req).expect("requests serialize");
        let timeout = self.client.attempt_timeout(&self.route.ctx);
        let rpc = Arc::clone(&self.client.inner.rpc);
        rpc.call_deferred(
            node,
            frame,
            timeout,
            Box::new(move |reply| {
                completing(self.client.id(), move || match proto::decode_reply(reply) {
                    Ok(response) => (self.done)(Ok(response)),
                    Err(InvokeError::AlreadyExists(_)) if committed_before => {
                        (self.done)(Ok(StoreResponse::Ok))
                    }
                    Err(e) => self.retry(e),
                })
            }),
        );
    }

    fn retry(mut self, err: InvokeError) {
        match self.route.settle(err, || self.client.refresh_moved()) {
            Next::Done(e) => (self.done)(Err(e)),
            Next::RetryNow => self.step(),
            Next::RetryAfter(pause) => {
                let rpc = Arc::clone(&self.client.inner.rpc);
                let client = self.client.id();
                rpc.schedule(pause, Box::new(move || completing(client, move || self.step())));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, VecDeque};
    use std::sync::mpsc;

    use parking_lot::Mutex;

    use lambda_coordinator::{ClusterState, N_SLOTS};
    use lambda_net::{wire, Handler, LatencyModel, Responder};
    use lambda_objects::{encode_error, Origin};

    use super::*;

    const P: NodeId = NodeId(1);
    const B1: NodeId = NodeId(2);
    const B2: NodeId = NodeId(3);

    fn object() -> ObjectId {
        ObjectId::from("user/1")
    }

    /// A context with a fixed identity and no deadline: pauses are not
    /// clamped, so they depend on the seed alone.
    fn fixed_ctx(invocation_id: u64) -> InvocationContext {
        InvocationContext {
            trace_id: 7,
            deadline: None,
            origin: Origin::Client,
            invocation_id,
            attempt: 0,
            reply_to: None,
        }
    }

    fn one_of_each_error() -> Vec<InvokeError> {
        let s = || "x".to_string();
        vec![
            InvokeError::UnknownObject(s()),
            InvokeError::UnknownType(s()),
            InvokeError::UnknownMethod(s()),
            InvokeError::NotPublic(s()),
            InvokeError::AlreadyExists(s()),
            InvokeError::Aborted(s()),
            InvokeError::Vm(s()),
            InvokeError::Storage(s()),
            InvokeError::Nested(s()),
            InvokeError::DepthExceeded,
            InvokeError::WrongNode(s()),
            InvokeError::DeadlineExceeded,
            InvokeError::ShardUnavailable(s()),
            InvokeError::Overloaded(s()),
            InvokeError::LeaseExpired(s()),
            InvokeError::ObjectMoved(s()),
        ]
    }

    #[derive(Debug, PartialEq)]
    enum Want {
        Done,
        RetryNow,
        Backoff,
        RedirectPause,
    }

    /// The documented table: `(refreshes, pins reads to the primary, next)`
    /// for a failed attempt that was (not) already pinned to the primary
    /// and whose refresh did (not) move the placement.
    fn documented(err: &InvokeError, pinned: bool, moved: bool) -> (bool, bool, Want) {
        match err {
            InvokeError::WrongNode(_) => (true, true, Want::Backoff),
            InvokeError::LeaseExpired(_) if pinned => (true, true, Want::Backoff),
            InvokeError::LeaseExpired(_) => (true, true, Want::RetryNow),
            InvokeError::ObjectMoved(_) if moved => (true, true, Want::RetryNow),
            InvokeError::ObjectMoved(_) => (true, true, Want::RedirectPause),
            InvokeError::Nested(_) | InvokeError::ShardUnavailable(_) | InvokeError::Storage(_) => {
                (true, false, Want::Backoff)
            }
            InvokeError::Overloaded(_) => (false, false, Want::Backoff),
            _ => (false, false, Want::Done),
        }
    }

    #[test]
    fn decision_table() {
        const ATTEMPT: u32 = 3;
        let cases = [false, true];
        for err in one_of_each_error() {
            for pinned in cases {
                for last in cases {
                    for moved in cases {
                        let case = format!("{err:?} pinned={pinned} last={last} moved={moved}");
                        let mut route = Route::new(fixed_ctx(42), &object(), true, None);
                        route.prefer_primary = pinned;
                        route.ctx.attempt = if last { MAX_ATTEMPTS - 1 } else { ATTEMPT };
                        let refreshes = Cell::new(0);
                        let next = route.settle(err.clone(), || {
                            refreshes.set(refreshes.get() + 1);
                            moved
                        });
                        let (refresh, prefer, want) = match last {
                            // The last delivery's error is the invocation's.
                            true => (false, false, Want::Done),
                            false => documented(&err, pinned, moved),
                        };
                        match want {
                            Want::Done => assert_eq!(next, Next::Done(err.clone()), "{case}"),
                            Want::RetryNow => assert_eq!(next, Next::RetryNow, "{case}"),
                            Want::RedirectPause => {
                                assert_eq!(next, Next::RetryAfter(REDIRECT_PAUSE), "{case}")
                            }
                            Want::Backoff => {
                                let Next::RetryAfter(pause) = next else {
                                    panic!("{case}: {next:?}")
                                };
                                assert!(pause <= Duration::from_millis(2 << ATTEMPT), "{case}");
                            }
                        }
                        // At most one refresh, and none where the map is
                        // not in doubt.
                        assert_eq!(refreshes.get(), refresh as u32, "{case}");
                        assert_eq!(route.prefer_primary, pinned || prefer, "{case}");
                        let delivered = if want == Want::Done { 0 } else { 1 };
                        let before = if last { MAX_ATTEMPTS - 1 } else { ATTEMPT };
                        assert_eq!(route.ctx.attempt, before + delivered, "{case}");
                    }
                }
            }
        }
    }

    /// What `settle` answers to `script`, one entry per error; the refresh
    /// never learns anything.
    fn walk(invocation_id: u64, script: &[InvokeError]) -> Vec<Next> {
        let mut route = Route::new(fixed_ctx(invocation_id), &object(), true, None);
        script.iter().map(|e| route.settle(e.clone(), || false)).collect()
    }

    #[test]
    fn pauses_follow_the_invocation_identity_alone() {
        let s = || "x".to_string();
        let script = [
            InvokeError::Overloaded(s()),
            InvokeError::WrongNode(s()),
            InvokeError::ObjectMoved(s()),
            InvokeError::Storage(s()),
            InvokeError::LeaseExpired(s()),
            InvokeError::Nested(s()),
            InvokeError::ShardUnavailable(s()),
            InvokeError::Overloaded(s()),
        ];
        // Every entry point builds its `Route` the same way, so the same
        // identity draws the same pauses whichever entry point started it.
        let first = walk(42, &script);
        assert_eq!(first, walk(42, &script));
        assert_ne!(first, walk(43, &script), "jitter is seeded by the identity");
        assert!(first.iter().all(|n| matches!(n, Next::RetryAfter(_))), "{first:?}");

        // A redirect never grows into exponential backoff, however many
        // deliveries the invocation has behind it.
        let moved = vec![InvokeError::ObjectMoved(s()); MAX_ATTEMPTS as usize - 1];
        for next in walk(42, &moved) {
            assert_eq!(next, Next::RetryAfter(REDIRECT_PAUSE));
        }
    }

    /// What a scripted node does with the next request it receives.
    #[derive(Debug, Clone)]
    enum Reply {
        /// Serve it: an `Invoke` gets this value, a `Transact` a list of
        /// it, anything else a plain `Ok`.
        Value(i64),
        Fail(InvokeError),
        /// Keep the request unanswered: the attempt times out.
        Hold,
    }

    /// `(node, attempt, invocation id)` per request, in arrival order.
    type Seen = Arc<Mutex<Vec<(NodeId, u32, u64)>>>;

    /// A static one-shard placement over primary `P` and backups `B1`,
    /// `B2`; `lost` marks the shard as having lost every replica.
    fn one_shard(lost: bool) -> ClusterState {
        let mut state = ClusterState::default();
        for node in [P, B1, B2] {
            state.apply(&CoordCmd::RegisterNode { node });
        }
        state.apply(&CoordCmd::CreateShard { shard: 0, replicas: vec![P, B1, B2] });
        state.apply(&CoordCmd::AssignSlots { shard: 0, slots: (0..N_SLOTS).collect() });
        state.shards.get_mut(&0).expect("created").lost = lost;
        state
    }

    /// A coordinator-less client over [`one_shard`] whose nodes answer
    /// from scripts.
    struct Scripted {
        net: Network,
        nodes: Vec<Arc<RpcNode>>,
        seen: Seen,
        client: StoreClient,
    }

    impl Scripted {
        fn start(scripts: &[(NodeId, Vec<Reply>)], lost: bool, timeout: Duration) -> Scripted {
            let net = Network::new(LatencyModel::instant(), 1);
            let seen: Seen = Arc::default();
            let mut scripts: HashMap<NodeId, Vec<Reply>> = scripts.iter().cloned().collect();
            let nodes = [P, B1, B2]
                .into_iter()
                .map(|node| {
                    let script: Mutex<VecDeque<Reply>> =
                        Mutex::new(scripts.remove(&node).unwrap_or_default().into());
                    let held: Mutex<Vec<Responder>> = Mutex::default();
                    let seen = Arc::clone(&seen);
                    let handler: Handler = Arc::new(move |_, body, responder: Responder| {
                        let (ctx, req) = proto::decode_request(&body).expect("enveloped request");
                        seen.lock().push((node, ctx.attempt, ctx.invocation_id));
                        // A route that outruns its script ends on an error
                        // the client does not retry.
                        let exhausted = Reply::Fail(InvokeError::Vm("script exhausted".into()));
                        match script.lock().pop_front().unwrap_or(exhausted) {
                            Reply::Value(v) => {
                                let resp = match req {
                                    StoreRequest::Invoke { .. } => {
                                        StoreResponse::Value(VmValue::Int(v))
                                    }
                                    StoreRequest::Transact { .. } => {
                                        StoreResponse::Values(vec![VmValue::Int(v)])
                                    }
                                    _ => StoreResponse::Ok,
                                };
                                responder.reply(Ok(wire::to_bytes(&resp).expect("serializes")));
                            }
                            Reply::Fail(e) => responder.reply(Err(encode_error(&e))),
                            Reply::Hold => held.lock().push(responder),
                        }
                    });
                    RpcNode::start(&net, node, handler, 1)
                })
                .collect();
            let client = StoreClient::new(&net, NodeId(900), Vec::new(), timeout);
            assert!(client.placement().update(one_shard(lost)));
            Scripted { net, nodes, seen, client }
        }

        fn stop(self) {
            self.client.shutdown();
            for node in &self.nodes {
                node.shutdown();
            }
            self.net.shutdown();
        }
    }

    /// One client entry point: it runs a scenario's request (`read_only`
    /// is the invocations' routing hint) and gives the outcome as a value.
    type Entry = (&'static str, fn(&StoreClient, bool) -> Result<VmValue, InvokeError>);

    fn args() -> Vec<VmValue> {
        vec![VmValue::Int(1)]
    }

    /// Start a completion-driven invocation and wait for its `done`.
    fn joined(start: impl FnOnce(InvokeCallback)) -> Result<VmValue, InvokeError> {
        let (tx, rx) = mpsc::channel();
        start(Box::new(move |result| tx.send(result).expect("test waits")));
        rx.recv_timeout(Duration::from_secs(5)).expect("the invocation completes")
    }

    const INVOKE: Entry = ("invoke", |client, ro| client.invoke(&object(), "m", args(), ro));
    const INVOKE_ASYNC: Entry = ("invoke_async", |client, ro| {
        joined(|done| client.invoke_async(&object(), "m", args(), ro, done))
    });
    /// Pinned to the primary, where placement routes a write anyway.
    const INVOKE_ASYNC_AT: Entry = ("invoke_async_at", |client, ro| {
        joined(|done| client.invoke_async_at(P, &object(), "m", args(), ro, done))
    });
    const CREATE: Entry = ("create_object", |client, _| {
        client.create_object("T", &object(), &[]).map(|()| VmValue::Unit)
    });
    const DELETE: Entry =
        ("delete_object", |client, _| client.delete_object(&object()).map(|()| VmValue::Unit));
    const TRANSACT: Entry = ("transact", |client, _| {
        client.transact(vec![TxCall::new(object(), "m", args())]).map(VmValue::List)
    });

    /// Every way to invoke a method.
    const INVOCATIONS: &[Entry] = &[INVOKE, INVOKE_ASYNC, INVOKE_ASYNC_AT];
    /// The invocation entry points that route by placement: a scenario
    /// about where placement sends an attempt has no fixed endpoint.
    const ROUTED: &[Entry] = &[INVOKE, INVOKE_ASYNC];

    struct Scenario {
        name: &'static str,
        entries: &'static [Entry],
        scripts: Vec<(NodeId, Vec<Reply>)>,
        read_only: bool,
        /// Reads issued first to turn the replica rotation past the primary.
        warmup_reads: usize,
        lost: bool,
        timeout: Duration,
        want: Result<VmValue, InvokeError>,
        /// `(node, attempt)` per delivery; `None` when the deadline, not
        /// the script, decides how many there are.
        want_route: Option<Vec<(NodeId, u32)>>,
    }

    impl Default for Scenario {
        fn default() -> Scenario {
            Scenario {
                name: "",
                entries: INVOCATIONS,
                scripts: Vec::new(),
                read_only: false,
                warmup_reads: 0,
                lost: false,
                timeout: Duration::from_secs(5),
                want: Ok(VmValue::Int(1)),
                want_route: None,
            }
        }
    }

    /// `(result, deliveries, retries performed)` of one scenario through
    /// one entry point, on a fresh client.
    type Outcome = (Result<VmValue, InvokeError>, Vec<(NodeId, u32)>, u64);

    fn run(scn: &Scenario, (entry, issue): Entry) -> Outcome {
        let cluster = Scripted::start(&scn.scripts, scn.lost, scn.timeout);
        for _ in 0..scn.warmup_reads {
            issue(&cluster.client, true).expect("warm-up read");
        }
        cluster.seen.lock().clear();
        let result = issue(&cluster.client, scn.read_only);
        let retries = cluster.client.retries_performed();
        // A delivery whose attempt timed out at the client the moment it
        // was sent may still be on its way to the handler's log.
        let patience = Instant::now() + Duration::from_millis(200);
        let sent = if scn.lost { 0 } else { retries + 1 };
        while (cluster.seen.lock().len() as u64) < sent && Instant::now() < patience {
            std::thread::yield_now();
        }
        let seen = std::mem::take(&mut *cluster.seen.lock());
        cluster.stop();
        let who = format!("{} through {entry}", scn.name);
        if let Some((_, _, id)) = seen.first() {
            assert!(seen.iter().all(|(_, _, i)| i == id), "{who}: one invocation id, {seen:?}");
        }
        (result, seen.into_iter().map(|(node, attempt, _)| (node, attempt)).collect(), retries)
    }

    #[test]
    fn every_entry_point_takes_the_same_route() {
        use Reply::{Fail, Hold, Value};
        let s = || "scripted".to_string();
        let int = |v| Ok(VmValue::Int(v));
        let scenarios = vec![
            Scenario {
                name: "WrongNode, then served",
                scripts: vec![(P, vec![Fail(InvokeError::WrongNode(s())), Value(5)])],
                want: int(5),
                want_route: Some(vec![(P, 0), (P, 1)]),
                ..Scenario::default()
            },
            Scenario {
                name: "a backup without a lease redirects to the primary",
                entries: ROUTED,
                scripts: vec![
                    (P, vec![Value(0), Value(6)]),
                    (B1, vec![Fail(InvokeError::LeaseExpired(s()))]),
                ],
                read_only: true,
                warmup_reads: 1,
                want: int(6),
                want_route: Some(vec![(B1, 0), (P, 1)]),
                ..Scenario::default()
            },
            Scenario {
                name: "the primary itself cannot attest its lease",
                scripts: vec![(
                    P,
                    vec![
                        Fail(InvokeError::LeaseExpired(s())),
                        Fail(InvokeError::LeaseExpired(s())),
                        Value(7),
                    ],
                )],
                want: int(7),
                want_route: Some(vec![(P, 0), (P, 1), (P, 2)]),
                ..Scenario::default()
            },
            Scenario {
                name: "ObjectMoved while the placement lags",
                scripts: vec![(
                    P,
                    vec![
                        Fail(InvokeError::ObjectMoved(s())),
                        Fail(InvokeError::ObjectMoved(s())),
                        Fail(InvokeError::ObjectMoved(s())),
                        Value(8),
                    ],
                )],
                want: int(8),
                want_route: Some(vec![(P, 0), (P, 1), (P, 2), (P, 3)]),
                ..Scenario::default()
            },
            Scenario {
                name: "shed three times",
                scripts: vec![(
                    P,
                    vec![
                        Fail(InvokeError::Overloaded(s())),
                        Fail(InvokeError::Overloaded(s())),
                        Fail(InvokeError::Overloaded(s())),
                        Value(9),
                    ],
                )],
                want: int(9),
                want_route: Some(vec![(P, 0), (P, 1), (P, 2), (P, 3)]),
                ..Scenario::default()
            },
            Scenario {
                name: "replication failed at the primary",
                scripts: vec![(P, vec![Fail(InvokeError::Storage(s())), Value(10)])],
                want: int(10),
                want_route: Some(vec![(P, 0), (P, 1)]),
                ..Scenario::default()
            },
            Scenario {
                name: "an error no one retries",
                scripts: vec![(P, vec![Fail(InvokeError::Aborted(s()))])],
                want: Err(InvokeError::Aborted(s())),
                want_route: Some(vec![(P, 0)]),
                ..Scenario::default()
            },
            Scenario {
                name: "a reply that never comes",
                scripts: vec![(P, vec![Hold, Value(11)])],
                // One attempt may wait a fifth of this.
                timeout: Duration::from_millis(250),
                want: int(11),
                want_route: Some(vec![(P, 0), (P, 1)]),
                ..Scenario::default()
            },
            Scenario {
                name: "redirected, then shed",
                scripts: vec![(
                    P,
                    vec![
                        Fail(InvokeError::WrongNode(s())),
                        Fail(InvokeError::Overloaded(s())),
                        Value(12),
                    ],
                )],
                want: int(12),
                want_route: Some(vec![(P, 0), (P, 1), (P, 2)]),
                ..Scenario::default()
            },
            Scenario {
                name: "the shard lost every replica",
                // An endpoint is called as given, lost shard or not.
                entries: ROUTED,
                lost: true,
                timeout: Duration::from_millis(30),
                want: Err(InvokeError::DeadlineExceeded),
                ..Scenario::default()
            },
            Scenario {
                name: "the budget runs out mid-loop",
                scripts: vec![(P, vec![Hold; MAX_ATTEMPTS as usize])],
                timeout: Duration::from_millis(40),
                want: Err(InvokeError::DeadlineExceeded),
                ..Scenario::default()
            },
            Scenario {
                name: "a create whose first attempt committed unanswered",
                entries: &[CREATE],
                scripts: vec![(P, vec![Hold, Fail(InvokeError::AlreadyExists(s()))])],
                timeout: Duration::from_millis(250),
                want: Ok(VmValue::Unit),
                want_route: Some(vec![(P, 0), (P, 1)]),
                ..Scenario::default()
            },
            Scenario {
                name: "a create of an existing object",
                entries: &[CREATE],
                scripts: vec![(P, vec![Fail(InvokeError::AlreadyExists(s()))])],
                want: Err(InvokeError::AlreadyExists(s())),
                want_route: Some(vec![(P, 0)]),
                ..Scenario::default()
            },
            Scenario {
                name: "a redirected delete",
                entries: &[DELETE],
                scripts: vec![(P, vec![Fail(InvokeError::WrongNode(s())), Value(0)])],
                want: Ok(VmValue::Unit),
                want_route: Some(vec![(P, 0), (P, 1)]),
                ..Scenario::default()
            },
            Scenario {
                name: "a redirected transaction",
                entries: &[TRANSACT],
                scripts: vec![(P, vec![Fail(InvokeError::WrongNode(s())), Value(13)])],
                want: Ok(VmValue::List(vec![VmValue::Int(13)])),
                want_route: Some(vec![(P, 0), (P, 1)]),
                ..Scenario::default()
            },
        ];
        for scn in &scenarios {
            for &entry in scn.entries {
                let (result, route, retries) = run(scn, entry);
                let who = format!("{} through {}", scn.name, entry.0);
                assert_eq!(result, scn.want, "{who}");
                match &scn.want_route {
                    Some(want) => {
                        assert_eq!(route, *want, "{who}");
                        assert_eq!(retries, want.len() as u64 - 1, "{who}");
                    }
                    // How many deliveries fit in the budget depends on
                    // jitter drawn from identities the entry points mint,
                    // so the runs agree on the shape of the route, not its
                    // length.
                    None => {
                        assert!(retries >= 1, "{who}: the loop went around");
                        if scn.lost {
                            assert!(route.is_empty(), "{who}: a lost shard is never called");
                        } else {
                            let counted: Vec<(NodeId, u32)> =
                                (0..=retries as u32).map(|attempt| (P, attempt)).collect();
                            assert_eq!(route, counted, "{who}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_create_counts_already_exists_as_its_own_only_after_a_send() {
        // No replica to call at first: the failed `begin`s spend attempt
        // numbers but send nothing.
        let cluster = Scripted::start(
            &[(P, vec![Reply::Fail(InvokeError::AlreadyExists("x".into()))])],
            true,
            Duration::from_secs(5),
        );
        let result = std::thread::scope(|s| {
            let create = s.spawn(|| (CREATE.1)(&cluster.client, false));
            while cluster.client.retries_performed() == 0 {
                std::thread::yield_now();
            }
            let mut revived = one_shard(false);
            revived.version = cluster.client.placement().version() + 1;
            assert!(cluster.client.placement().update(revived));
            create.join().expect("the create returns")
        });
        assert_eq!(result, Err(InvokeError::AlreadyExists("x".into())));
        let seen = cluster.seen.lock().clone();
        assert!(matches!(seen[..], [(P, attempt, _)] if attempt > 0), "{seen:?}");
        cluster.stop();
    }

    #[test]
    fn a_blocking_call_on_a_shut_down_client_fails_at_once() {
        let cluster = Scripted::start(&[], false, Duration::from_secs(5));
        cluster.client.shutdown();
        for (entry, issue) in [INVOKE, CREATE, DELETE, TRANSACT] {
            let start = Instant::now();
            let result = issue(&cluster.client, false);
            assert_eq!(result, Err(InvokeError::Nested(LOST.into())), "{entry}");
            // Walking the route's backoff would take about a second.
            assert!(start.elapsed() < Duration::from_millis(200), "{entry}: {:?}", start.elapsed());
        }
        assert!(cluster.seen.lock().is_empty(), "nothing was sent");
        cluster.stop();
    }

    #[test]
    fn a_spent_budget_fails_before_the_first_attempt_at_every_entry_point() {
        let cluster = Scripted::start(&[], false, Duration::ZERO);
        let client = &cluster.client;
        let spent = InvocationContext::from_wire(9, 0, Origin::Client.to_wire());
        let mut results = vec![client.invoke_ctx(&spent, &object(), "m", args(), false)];
        for (_, issue) in [INVOKE, INVOKE_ASYNC, INVOKE_ASYNC_AT, CREATE, DELETE, TRANSACT] {
            results.push(issue(client, false));
        }
        for result in results {
            assert_eq!(result, Err(InvokeError::DeadlineExceeded));
        }
        assert_eq!(client.retries_performed(), 0);
        assert!(cluster.seen.lock().is_empty(), "nothing was sent");
        cluster.stop();
    }

    #[test]
    fn an_attempt_that_cannot_be_sent_is_settled_like_a_reply() {
        let lost = Scripted::start(&[], true, Duration::from_secs(5));
        let mut route = Route::new(fixed_ctx(42), &object(), false, None);
        let err = route.begin(&lost.client).expect_err("no replica to call");
        assert!(
            matches!(&err, InvokeError::ShardUnavailable(m) if m.contains("lost every replica")),
            "{err:?}"
        );
        // One refresh for the attempt, not one in `begin` and one more here.
        let refreshes = Cell::new(0);
        let next = route.settle(err, || {
            refreshes.set(refreshes.get() + 1);
            false
        });
        assert!(matches!(next, Next::RetryAfter(_)), "{next:?}");
        assert_eq!(refreshes.get(), 1);
        // An endpoint is used as given, lost shard or not.
        let mut pinned = Route::new(fixed_ctx(43), &object(), false, Some(B2));
        assert_eq!(pinned.begin(&lost.client), Ok(B2));
        lost.stop();

        let net = Network::new(LatencyModel::instant(), 1);
        let unplaced = StoreClient::new(&net, NodeId(901), Vec::new(), Duration::from_secs(5));
        let mut route = Route::new(fixed_ctx(44), &object(), false, None);
        assert!(matches!(route.begin(&unplaced), Err(InvokeError::Nested(_))));
        unplaced.shutdown();
        net.shutdown();
    }
}
