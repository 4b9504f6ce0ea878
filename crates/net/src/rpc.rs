//! Request/response RPC over the simulated network.
//!
//! An [`RpcNode`] owns a [`NodeHandle`], runs a router thread that
//! demultiplexes incoming frames, dispatches requests to a worker pool, and
//! matches responses to pending calls by id. Calls have timeouts so callers
//! can survive partitions and node failures (the coordinator relies on this
//! to detect dead nodes, §4.2.1).
//!
//! Replies are **completions, not return values**: a handler receives a
//! cloneable [`Responder`] owning the request id and the outbound send path,
//! so it may return without replying and complete the response later from a
//! commit/ack thread. A still-synchronous handler simply replies inline.
//! The router admits requests into a depth-bounded run queue and sheds
//! excess load with an explicit error *before* deadline budgets burn
//! (see [`RpcConfig::queue_depth`] and [`AdmissionPolicy`]).
//!
//! A call may also complete by **replica replies**: third parties the
//! callee names (the backups that applied a replicated write) each answer
//! the caller directly with `(quorum, epoch, body)`, and once every member
//! of the quorum has sent the same triple the call completes with the body
//! — one link hop before the callee's own response, which stays the
//! fallback ([`RpcNode::replica_reply`]).

use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::{Condvar, Mutex};

use crate::sim::{Network, NodeHandle, NodeId};

/// Frame kind tags. The two reply kinds are crate-visible so the
/// simulator's fault injector can recognise them for one-way reply loss.
const KIND_REQUEST: u8 = 1;
pub(crate) const KIND_RESPONSE: u8 = 2;
const KIND_ONEWAY: u8 = 3;
pub(crate) const KIND_REPLICA_REPLY: u8 = 4;

/// RPC failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// No response within the deadline (partition, crash, overload).
    Timeout,
    /// The local node is shutting down.
    Shutdown,
    /// The remote handler reported an application-level error.
    Remote(String),
    /// A malformed frame arrived.
    BadFrame(String),
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Timeout => write!(f, "rpc timed out"),
            RpcError::Shutdown => write!(f, "rpc node shut down"),
            RpcError::Remote(m) => write!(f, "remote error: {m}"),
            RpcError::BadFrame(m) => write!(f, "bad frame: {m}"),
        }
    }
}

impl std::error::Error for RpcError {}

/// A request handler: `(from, request bytes, responder)`. The handler (or
/// whatever thread it hands the [`Responder`] to) replies exactly once;
/// errors travel back to the caller as [`RpcError::Remote`].
pub type Handler = Arc<dyn Fn(NodeId, Vec<u8>, Responder) + Send + Sync>;

/// Completion for a deferred call issued with [`RpcNode::call_deferred`].
pub type ReplyCallback = Box<dyn FnOnce(Result<Vec<u8>, RpcError>) + Send>;

/// Completion for a deferred fan-out issued with
/// [`RpcNode::call_many_deferred`]: receives all results in target order.
pub type ManyReplyCallback = Box<dyn FnOnce(Vec<Result<Vec<u8>, RpcError>>) + Send>;

/// Decides whether a request may be shed when the run queue is over depth.
/// Returns `Some(error_body)` — the application-level error string to reply
/// with — when the request is sheddable, `None` when it must be admitted
/// regardless of depth (replication, repair, other background origins).
/// The policy sees the raw request body so the store layer can peek its own
/// envelope header without `lambda-net` learning the format.
pub type AdmissionPolicy = Arc<dyn Fn(&[u8]) -> Option<String> + Send + Sync>;

/// Wrap a synchronous `(from, body) -> Result` function as a [`Handler`]
/// that replies inline — the migration path for endpoints that do not need
/// deferred completion.
pub fn sync_handler<F>(f: F) -> Handler
where
    F: Fn(NodeId, Vec<u8>) -> Result<Vec<u8>, String> + Send + Sync + 'static,
{
    Arc::new(move |from, body, responder: Responder| responder.reply(f(from, body)))
}

/// A handler for endpoints that only issue calls and never serve any: it
/// acks every request with an empty payload.
pub fn null_handler() -> Handler {
    Arc::new(|_, _, responder: Responder| responder.reply(Ok(Vec::new())))
}

fn encode_frame(kind: u8, id: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + body.len());
    out.push(kind);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(body);
    out
}

fn decode_frame(payload: &[u8]) -> Result<(u8, u64, Vec<u8>), RpcError> {
    if payload.len() < 9 {
        return Err(RpcError::BadFrame("short frame".into()));
    }
    let kind = payload[0];
    let id = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
    Ok((kind, id, payload[9..].to_vec()))
}

// Responses carry an ok/err tag byte.
fn encode_response_body(result: &Result<Vec<u8>, String>) -> Vec<u8> {
    match result {
        Ok(bytes) => {
            let mut out = Vec::with_capacity(1 + bytes.len());
            out.push(0);
            out.extend_from_slice(bytes);
            out
        }
        Err(msg) => {
            let mut out = Vec::with_capacity(1 + msg.len());
            out.push(1);
            out.extend_from_slice(msg.as_bytes());
            out
        }
    }
}

fn decode_response_body(body: Vec<u8>) -> Result<Vec<u8>, RpcError> {
    match body.split_first() {
        Some((0, rest)) => Ok(rest.to_vec()),
        Some((1, rest)) => Err(RpcError::Remote(String::from_utf8_lossy(rest).into_owned())),
        _ => Err(RpcError::BadFrame("empty response body".into())),
    }
}

// A replica reply's body: epoch, quorum size and members, then the payload
// a successful response would carry.
fn encode_replica_reply(quorum: &[NodeId], epoch: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + 4 * quorum.len() + body.len());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(quorum.len() as u32).to_le_bytes());
    for node in quorum {
        out.extend_from_slice(&node.0.to_le_bytes());
    }
    out.extend_from_slice(body);
    out
}

fn decode_replica_reply(bytes: &[u8]) -> Option<(Vec<NodeId>, u64, Vec<u8>)> {
    let epoch = u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?);
    let n = usize::try_from(u32::from_le_bytes(bytes.get(8..12)?.try_into().ok()?)).ok()?;
    let end = n.checked_mul(4)?.checked_add(12)?;
    let members = bytes.get(12..end)?;
    let quorum = members
        .chunks_exact(4)
        .map(|id| NodeId(u32::from_le_bytes(id.try_into().expect("4 bytes"))))
        .collect();
    Some((quorum, epoch, bytes[end..].to_vec()))
}

/// Completion slot for one in-flight outbound call.
enum PendingReply {
    /// A thread parked in [`RpcNode::call`].
    Sync(Sender<Result<Vec<u8>, RpcError>>),
    /// A deferred call; runs on the completion executor.
    Callback(ReplyCallback),
}

/// The reply capability for one inbound request. Cloneable so a handler can
/// park it in a commit queue, a replication window, or a scheduler waiter
/// and complete it from whichever thread finishes first — the first
/// `reply` wins, later ones are no-ops. One-way requests (`req_id` 0)
/// accept the reply and suppress the frame. Dropping every clone without
/// replying sends an error so callers fail fast instead of timing out.
#[derive(Clone)]
pub struct Responder {
    inner: Arc<ResponderInner>,
}

struct ResponderInner {
    shared: Arc<RpcShared>,
    peer: NodeId,
    req_id: u64,
    replied: AtomicBool,
}

impl Responder {
    /// The node that sent the request.
    pub fn peer(&self) -> NodeId {
        self.inner.peer
    }

    /// Where a replica reply to this request goes: `(caller, request id)`,
    /// `None` for a one-way request (nobody waits for it).
    pub fn route(&self) -> Option<(NodeId, u64)> {
        (self.inner.req_id != 0).then_some((self.inner.peer, self.inner.req_id))
    }

    /// Complete the request. First reply wins; replies to one-way requests
    /// are accepted but never put on the wire.
    pub fn reply(&self, result: Result<Vec<u8>, String>) {
        let inner = &self.inner;
        if inner.replied.swap(true, Ordering::AcqRel) {
            return;
        }
        inner.shared.inflight.fetch_sub(1, Ordering::Relaxed);
        if inner.req_id != 0 {
            let frame = encode_frame(KIND_RESPONSE, inner.req_id, &encode_response_body(&result));
            inner.shared.handle.send(inner.peer, frame);
        }
    }
}

impl fmt::Debug for Responder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Responder")
            .field("peer", &self.inner.peer)
            .field("req_id", &self.inner.req_id)
            .finish()
    }
}

impl Drop for ResponderInner {
    fn drop(&mut self) {
        if !*self.replied.get_mut() {
            self.shared.inflight.fetch_sub(1, Ordering::Relaxed);
            if self.req_id != 0 {
                let body =
                    encode_response_body(&Err("handler dropped request without replying".into()));
                self.shared.handle.send(self.peer, encode_frame(KIND_RESPONSE, self.req_id, &body));
            }
        }
    }
}

/// Tuning for an RPC endpoint.
#[derive(Clone)]
pub struct RpcConfig {
    /// Handler threads. With deferred replies a small pool sustains
    /// thousands of in-flight requests; size for CPU work, not for waits.
    pub workers: usize,
    /// Run-queue depth that triggers admission control; `0` = unbounded.
    /// Sheddable requests over this depth are refused immediately with the
    /// policy's error instead of queueing toward their deadline.
    pub queue_depth: usize,
    /// Classifies sheddable requests; `None` sheds everything over depth
    /// with a generic error. Only consulted once the queue is over depth.
    pub admission: Option<AdmissionPolicy>,
    /// Threads completing deferred calls and timer tasks. Completions may
    /// run continuation work (retries, grant chains), so this is separate
    /// from the request workers.
    pub completion_threads: usize,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig { workers: 1, queue_depth: 0, admission: None, completion_threads: 2 }
    }
}

/// Instantaneous run-queue/overload counters for one endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RpcQueueStats {
    /// Requests admitted but not yet picked up by a worker.
    pub depth: u64,
    /// Requests admitted and not yet replied to (queued + executing +
    /// parked deferred).
    pub inflight: u64,
    /// Requests refused by admission control since start.
    pub shed: u64,
    /// Requests admitted since start.
    pub admitted: u64,
}

/// Generic error body used when no [`AdmissionPolicy`] is installed. Uses
/// the store's `tag US payload` error encoding so typed decoders classify
/// it as an overload, but remains a plain readable string for everyone else.
pub const SHED_ERROR: &str = "overloaded\u{1f}rpc: run queue full";

struct Job {
    from: NodeId,
    req_id: u64,
    body: Vec<u8>,
}

type Task = Box<dyn FnOnce() + Send>;

enum TimerKind {
    /// Expire pending call `id` with `Timeout`.
    CallTimeout(u64),
    /// Run an arbitrary task on the completion executor.
    Task(Task),
}

struct TimerEntry {
    at: Instant,
    seq: u64,
    kind: TimerKind,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    // Reversed: BinaryHeap is a max-heap, we want the earliest deadline on top.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

struct TimerState {
    heap: BinaryHeap<TimerEntry>,
    seq: u64,
    shutdown: bool,
}

/// Replica replies collected for one pending call.
enum Parts {
    /// Every part so far carried this `(quorum, epoch, body)`; `from` are
    /// the quorum members that sent one.
    Agreeing { quorum: Vec<NodeId>, epoch: u64, body: Vec<u8>, from: Vec<NodeId> },
    /// Two parts disagreed: only the callee's own response completes the
    /// call now.
    Disagreed,
}

/// The outbound calls of one endpoint: each pending call's completion
/// slot, and the replica replies collected for some of them. A part is
/// kept only while its call is pending, so taking a call drops its parts.
#[derive(Default)]
struct Calls {
    pending: HashMap<u64, PendingReply>,
    parts: HashMap<u64, Parts>,
}

impl Calls {
    /// Remove call `id` (its response, timeout or shutdown arrived).
    fn take(&mut self, id: u64) -> Option<PendingReply> {
        self.parts.remove(&id);
        self.pending.remove(&id)
    }

    /// One replica reply from `from` for call `id`: the call and its body
    /// once every member of `quorum` has sent the same `(quorum, epoch,
    /// body)`. Parts for calls no longer pending, from nodes outside their
    /// own quorum, or naming no quorum at all are dropped.
    fn part(
        &mut self,
        id: u64,
        from: NodeId,
        quorum: Vec<NodeId>,
        epoch: u64,
        body: Vec<u8>,
    ) -> Option<(PendingReply, Vec<u8>)> {
        if !self.pending.contains_key(&id) || !quorum.contains(&from) {
            return None;
        }
        let mut senders = match self.parts.remove(&id) {
            None => Vec::new(),
            Some(Parts::Agreeing { quorum: q, epoch: e, body: b, from })
                if q == quorum && e == epoch && b == body =>
            {
                from
            }
            Some(_) => {
                self.parts.insert(id, Parts::Disagreed);
                return None;
            }
        };
        if !senders.contains(&from) {
            senders.push(from);
        }
        if !quorum.iter().all(|member| senders.contains(member)) {
            self.parts.insert(id, Parts::Agreeing { quorum, epoch, body, from: senders });
            return None;
        }
        Some((self.pending.remove(&id).expect("checked pending"), body))
    }
}

struct RpcShared {
    calls: Mutex<Calls>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    handle: Arc<NodeHandle>,
    inflight: AtomicU64,
    shed: AtomicU64,
    admitted: AtomicU64,
    exec_tx: Mutex<Option<Sender<Task>>>,
    timer: Mutex<TimerState>,
    timer_cv: Condvar,
}

impl RpcShared {
    /// Run `task` on the completion executor; dropped after shutdown.
    fn dispatch(&self, task: Task) {
        let tx = self.exec_tx.lock().clone();
        if let Some(tx) = tx {
            let _ = tx.send(task);
        }
    }

    fn complete(&self, reply: PendingReply, result: Result<Vec<u8>, RpcError>) {
        match reply {
            PendingReply::Sync(tx) => {
                let _ = tx.send(result);
            }
            PendingReply::Callback(cb) => self.dispatch(Box::new(move || cb(result))),
        }
    }

    fn schedule_at(&self, at: Instant, kind: TimerKind) {
        let mut st = self.timer.lock();
        if st.shutdown {
            return;
        }
        let seq = st.seq;
        st.seq += 1;
        let head = st.heap.peek().map(|e| e.at);
        st.heap.push(TimerEntry { at, seq, kind });
        // The timer thread sleeps until the head is due: only a new head
        // changes when it must wake (a call's timeout rarely is one).
        let new_head = st.heap.peek().map(|e| e.at) != head;
        drop(st);
        if new_head {
            self.timer_cv.notify_all();
        }
    }
}

/// An RPC endpoint: issues calls and serves a handler.
pub struct RpcNode {
    id: NodeId,
    net: Network,
    shared: Arc<RpcShared>,
    jobs: Receiver<Job>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    exec_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl fmt::Debug for RpcNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RpcNode").field("id", &self.id).finish()
    }
}

impl RpcNode {
    /// Join `net` as `id`, serving `handler` on `workers` threads with an
    /// unbounded run queue (no admission control).
    pub fn start(net: &Network, id: NodeId, handler: Handler, workers: usize) -> Arc<RpcNode> {
        Self::start_with_config(net, id, handler, RpcConfig { workers, ..RpcConfig::default() })
    }

    /// Join `net` as `id` with full pipeline tuning.
    pub fn start_with_config(
        net: &Network,
        id: NodeId,
        handler: Handler,
        config: RpcConfig,
    ) -> Arc<RpcNode> {
        let handle = Arc::new(net.join(id));
        let net = net.clone();
        let (exec_tx, exec_rx) = channel::unbounded::<Task>();
        let shared = Arc::new(RpcShared {
            calls: Mutex::default(),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            handle: Arc::clone(&handle),
            inflight: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            exec_tx: Mutex::new(Some(exec_tx)),
            timer: Mutex::new(TimerState { heap: BinaryHeap::new(), seq: 0, shutdown: false }),
            timer_cv: Condvar::new(),
        });
        let mut threads = Vec::new();
        let mut exec_threads = Vec::new();
        // Completion executor: runs deferred-call callbacks and timer tasks
        // off the router thread (callbacks may block or issue new calls).
        for e in 0..config.completion_threads.max(1) {
            let exec_rx = exec_rx.clone();
            exec_threads.push(
                std::thread::Builder::new()
                    .name(format!("rpc-{id}-exec-{e}"))
                    .spawn(move || {
                        while let Ok(task) = exec_rx.recv() {
                            task();
                        }
                    })
                    .expect("spawn rpc executor"),
            );
        }
        drop(exec_rx);
        // Timer thread: expires deferred calls and fires scheduled tasks.
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rpc-{id}-timer"))
                    .spawn(move || loop {
                        let mut st = shared.timer.lock();
                        if st.shutdown {
                            break;
                        }
                        let now = Instant::now();
                        match st.heap.peek().map(|e| e.at) {
                            Some(at) if at <= now => {
                                let entry = st.heap.pop().expect("peeked");
                                drop(st);
                                match entry.kind {
                                    TimerKind::CallTimeout(call_id) => {
                                        let waiter = shared.calls.lock().take(call_id);
                                        if let Some(reply) = waiter {
                                            shared.complete(reply, Err(RpcError::Timeout));
                                        }
                                    }
                                    TimerKind::Task(task) => shared.dispatch(task),
                                }
                            }
                            Some(at) => {
                                shared.timer_cv.wait_for(&mut st, at - now);
                            }
                            None => shared.timer_cv.wait(&mut st),
                        }
                    })
                    .expect("spawn rpc timer"),
            );
        }
        // Worker pool for request handling; replies go straight out through
        // the shared NodeHandle, never back through the router.
        let (job_tx, job_rx) = channel::unbounded::<Job>();
        for w in 0..config.workers.max(1) {
            let job_rx = job_rx.clone();
            let handler = Arc::clone(&handler);
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rpc-{id}-worker-{w}"))
                    .spawn(move || {
                        while let Ok(job) = job_rx.recv() {
                            let responder = Responder {
                                inner: Arc::new(ResponderInner {
                                    shared: Arc::clone(&shared),
                                    peer: job.from,
                                    req_id: job.req_id,
                                    replied: AtomicBool::new(false),
                                }),
                            };
                            handler(job.from, job.body, responder);
                        }
                    })
                    .expect("spawn rpc worker"),
            );
        }
        // Router thread: demultiplexes the network mailbox, admits requests
        // into the run queue, and completes pending calls. It never blocks
        // on a full queue and never runs completions itself. It stops when
        // its mailbox closes: the node left, the network shut down, or
        // `shutdown` closed it.
        {
            let shared = Arc::clone(&shared);
            let queue_depth = config.queue_depth;
            let admission = config.admission.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rpc-{id}-router"))
                    .spawn(move || {
                        while let Ok(env) = shared.handle.recv() {
                            match decode_frame(&env.payload) {
                                Ok((KIND_REQUEST, req_id, body)) => {
                                    let over = queue_depth > 0 && job_tx.len() >= queue_depth;
                                    let shed = if !over {
                                        None
                                    } else {
                                        match &admission {
                                            None => Some(SHED_ERROR.to_string()),
                                            Some(policy) => policy(&body),
                                        }
                                    };
                                    match shed {
                                        Some(err) => {
                                            shared.shed.fetch_add(1, Ordering::Relaxed);
                                            let resp = encode_response_body(&Err(err));
                                            shared.handle.send(
                                                env.from,
                                                encode_frame(KIND_RESPONSE, req_id, &resp),
                                            );
                                        }
                                        None => {
                                            shared.admitted.fetch_add(1, Ordering::Relaxed);
                                            shared.inflight.fetch_add(1, Ordering::Relaxed);
                                            let _ =
                                                job_tx.send(Job { from: env.from, req_id, body });
                                        }
                                    }
                                }
                                Ok((KIND_ONEWAY, _, body)) => {
                                    // Fire-and-forget: never shed (heartbeats
                                    // and watch events are control plane);
                                    // req_id 0 marks the responder one-way so
                                    // the reply frame is suppressed.
                                    shared.admitted.fetch_add(1, Ordering::Relaxed);
                                    shared.inflight.fetch_add(1, Ordering::Relaxed);
                                    let _ = job_tx.send(Job { from: env.from, req_id: 0, body });
                                }
                                Ok((KIND_RESPONSE, req_id, body)) => {
                                    let waiter = shared.calls.lock().take(req_id);
                                    if let Some(reply) = waiter {
                                        shared.complete(reply, decode_response_body(body));
                                    }
                                }
                                Ok((KIND_REPLICA_REPLY, req_id, body)) => {
                                    let Some((quorum, epoch, body)) = decode_replica_reply(&body)
                                    else {
                                        continue;
                                    };
                                    let done = shared
                                        .calls
                                        .lock()
                                        .part(req_id, env.from, quorum, epoch, body);
                                    if let Some((reply, body)) = done {
                                        shared.complete(reply, Ok(body));
                                    }
                                }
                                Ok((other, _, _)) => {
                                    // Unknown frame kind: ignore (forward compat).
                                    let _ = other;
                                }
                                Err(_) => { /* malformed frame: drop */ }
                            }
                        }
                        // Dropping job_tx here lets workers drain every
                        // already-admitted request (replying as they go) and
                        // then exit — no admitted reply is lost on shutdown.
                    })
                    .expect("spawn rpc router"),
            );
        }
        Arc::new(RpcNode {
            id,
            net,
            shared,
            jobs: job_rx,
            threads: Mutex::new(threads),
            exec_threads: Mutex::new(exec_threads),
        })
    }

    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Run-queue and overload counters.
    pub fn queue_stats(&self) -> RpcQueueStats {
        RpcQueueStats {
            depth: self.jobs.len() as u64,
            inflight: self.shared.inflight.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            admitted: self.shared.admitted.load(Ordering::Relaxed),
        }
    }

    /// Call `to` with `body`, waiting up to `timeout` for the response.
    ///
    /// # Errors
    /// [`RpcError::Timeout`] when no response arrives (the pending slot is
    /// reclaimed), [`RpcError::Remote`] when the handler failed.
    pub fn call(&self, to: NodeId, body: Vec<u8>, timeout: Duration) -> Result<Vec<u8>, RpcError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(RpcError::Shutdown);
        }
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel::bounded(1);
        self.shared.calls.lock().pending.insert(id, PendingReply::Sync(tx));
        let frame = encode_frame(KIND_REQUEST, id, &body);
        self.shared.handle.send(to, frame);
        match rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(_) => {
                self.shared.calls.lock().take(id);
                Err(RpcError::Timeout)
            }
        }
    }

    /// Call `to` with `body` and complete `done` when the response, a
    /// timeout, or shutdown arrives — without parking this thread. The
    /// callback runs on the endpoint's completion executor (never on the
    /// router), so it may block briefly or issue follow-up calls.
    pub fn call_deferred(&self, to: NodeId, body: Vec<u8>, timeout: Duration, done: ReplyCallback) {
        if self.shared.shutdown.load(Ordering::Acquire) {
            done(Err(RpcError::Shutdown));
            return;
        }
        self.start_deferred(to, &body, timeout, done);
    }

    fn start_deferred(&self, to: NodeId, body: &[u8], timeout: Duration, done: ReplyCallback) {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        self.shared.calls.lock().pending.insert(id, PendingReply::Callback(done));
        if self.shared.shutdown.load(Ordering::Acquire) {
            // `shutdown` may have drained `pending` before the insert:
            // nothing would ever complete (or drop) this call.
            if let Some(reply) = self.shared.calls.lock().take(id) {
                self.shared.complete(reply, Err(RpcError::Shutdown));
            }
            return;
        }
        self.shared.schedule_at(Instant::now() + timeout, TimerKind::CallTimeout(id));
        let frame = encode_frame(KIND_REQUEST, id, body);
        self.shared.handle.send(to, frame);
    }

    /// Run `task` on the completion executor after `delay` (backoff sleeps
    /// for async retries without parking a thread).
    pub fn schedule(&self, delay: Duration, task: Task) {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        self.shared.schedule_at(Instant::now() + delay, TimerKind::Task(task));
    }

    /// Send one `body` to several `targets` and complete `done` once with
    /// all results (in target order) as soon as the last reply, timeout, or
    /// shutdown lands — no thread parks anywhere. The body is a refcounted
    /// [`Bytes`], so callers serialize a request exactly once no matter how
    /// many replicas it fans out to: this is how the replication hook
    /// achieves the paper's "at most one network round-trip within the
    /// responsible replica set".
    pub fn call_many_deferred(
        &self,
        targets: &[NodeId],
        body: Bytes,
        timeout: Duration,
        done: ManyReplyCallback,
    ) {
        let n = targets.len();
        if n == 0 {
            done(Vec::new());
            return;
        }
        if self.shared.shutdown.load(Ordering::Acquire) {
            done(targets.iter().map(|_| Err(RpcError::Shutdown)).collect());
            return;
        }
        type SlotResults = Mutex<(Vec<Option<Result<Vec<u8>, RpcError>>>, usize)>;
        struct FanIn {
            results: SlotResults,
            done: Mutex<Option<ManyReplyCallback>>,
        }
        let fan = Arc::new(FanIn {
            results: Mutex::new((vec![None; n], 0)),
            done: Mutex::new(Some(done)),
        });
        for (idx, to) in targets.iter().enumerate() {
            let fan = Arc::clone(&fan);
            let cb: ReplyCallback = Box::new(move |res| {
                let ready = {
                    let mut st = fan.results.lock();
                    st.0[idx] = Some(res);
                    st.1 += 1;
                    st.1 == n
                };
                if ready {
                    let done = fan.done.lock().take();
                    if let Some(done) = done {
                        let results: Vec<_> = {
                            let mut st = fan.results.lock();
                            st.0.iter_mut().map(|r| r.take().expect("all set")).collect()
                        };
                        done(results);
                    }
                }
            });
            self.start_deferred(*to, &body, timeout, cb);
        }
    }

    /// Answer call `req_id` of `to` on the callee's behalf, as one member of
    /// `quorum`: the call completes with `body` once every member has sent
    /// the same `(quorum, epoch, body)`, or with the callee's own response,
    /// whichever comes first. `body` is what a successful response carries.
    pub fn replica_reply(
        &self,
        to: NodeId,
        req_id: u64,
        quorum: &[NodeId],
        epoch: u64,
        body: &[u8],
    ) {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let part = encode_replica_reply(quorum, epoch, body);
        self.shared.handle.send(to, encode_frame(KIND_REPLICA_REPLY, req_id, &part));
    }

    /// Send a one-way message (no response expected).
    pub fn notify(&self, to: NodeId, body: Vec<u8>) {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let frame = encode_frame(KIND_ONEWAY, 0, &body);
        self.shared.handle.send(to, frame);
    }

    /// Stop the endpoint: fail local pending calls, stop admitting new
    /// requests, let workers drain every already-admitted request (their
    /// replies still go out), and join all pipeline threads. Prompt — the
    /// router wakes as its mailbox closes.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Fail all locally pending calls.
        let drained: Vec<PendingReply> = {
            let mut calls = self.shared.calls.lock();
            calls.parts.clear();
            calls.pending.drain().map(|(_, p)| p).collect()
        };
        for reply in drained {
            self.shared.complete(reply, Err(RpcError::Shutdown));
        }
        // Close the mailbox; the router exits and drops the job queue so
        // workers drain admitted requests and stop.
        self.shared.handle.close();
        // Stop the timer, dropping what it still held: a scheduled task
        // may own the only sender of a channel some thread is parked on.
        let unfired = {
            let mut timer = self.shared.timer.lock();
            timer.shutdown = true;
            std::mem::take(&mut timer.heap)
        };
        drop(unfired);
        self.shared.timer_cv.notify_all();
        // Join router, workers, timer — skipping the current thread in case
        // shutdown was invoked from a completion or handler context.
        let me = std::thread::current().id();
        let threads = std::mem::take(&mut *self.threads.lock());
        for t in threads {
            if t.thread().id() != me {
                let _ = t.join();
            }
        }
        // Retire the completion executor once queued completions drain.
        drop(self.shared.exec_tx.lock().take());
        let exec_threads = std::mem::take(&mut *self.exec_threads.lock());
        for t in exec_threads {
            if t.thread().id() != me {
                let _ = t.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::LatencyModel;

    fn echo_handler() -> Handler {
        sync_handler(|from, body| {
            let mut out = format!("from={} ", from.0).into_bytes();
            out.extend_from_slice(&body);
            Ok(out)
        })
    }

    #[test]
    fn call_and_response() {
        let net = Network::new(LatencyModel::instant(), 1);
        let server = RpcNode::start(&net, NodeId(1), echo_handler(), 2);
        let client = RpcNode::start(&net, NodeId(2), null_handler(), 1);
        let out = client.call(NodeId(1), b"ping".to_vec(), Duration::from_secs(1)).unwrap();
        assert_eq!(out, b"from=2 ping");
        server.shutdown();
        client.shutdown();
        net.shutdown();
    }

    #[test]
    fn deferred_reply_from_another_thread() {
        let net = Network::new(LatencyModel::instant(), 1);
        let server = RpcNode::start(
            &net,
            NodeId(1),
            Arc::new(|_, body: Vec<u8>, responder: Responder| {
                // Return immediately; a different thread completes later.
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(5));
                    responder.reply(Ok(body));
                });
            }),
            1,
        );
        let client = RpcNode::start(&net, NodeId(2), null_handler(), 1);
        let out = client.call(NodeId(1), b"later".to_vec(), Duration::from_secs(1)).unwrap();
        assert_eq!(out, b"later");
        server.shutdown();
        client.shutdown();
        net.shutdown();
    }

    #[test]
    fn first_reply_wins_and_drop_without_reply_errors() {
        let net = Network::new(LatencyModel::instant(), 1);
        let _double = RpcNode::start(
            &net,
            NodeId(1),
            Arc::new(|_, _, responder: Responder| {
                responder.reply(Ok(b"first".to_vec()));
                responder.reply(Ok(b"second".to_vec()));
            }),
            1,
        );
        let _dropper = RpcNode::start(&net, NodeId(3), Arc::new(|_, _, _responder| {}), 1);
        let client = RpcNode::start(&net, NodeId(2), null_handler(), 1);
        let out = client.call(NodeId(1), vec![], Duration::from_secs(1)).unwrap();
        assert_eq!(out, b"first");
        let err = client.call(NodeId(3), vec![], Duration::from_secs(1)).unwrap_err();
        assert!(matches!(err, RpcError::Remote(ref m) if m.contains("without replying")), "{err}");
        net.shutdown();
    }

    #[test]
    fn concurrent_calls_are_matched() {
        let net = Network::new(LatencyModel::instant(), 1);
        let _server = RpcNode::start(
            &net,
            NodeId(1),
            sync_handler(|_, body| Ok(body)), // echo
            4,
        );
        let client = RpcNode::start(&net, NodeId(2), null_handler(), 1);
        let client = Arc::clone(&client);
        let threads: Vec<_> = (0..8u32)
            .map(|i| {
                let client = Arc::clone(&client);
                std::thread::spawn(move || {
                    for j in 0..50u32 {
                        let body = format!("{i}-{j}").into_bytes();
                        let out =
                            client.call(NodeId(1), body.clone(), Duration::from_secs(5)).unwrap();
                        assert_eq!(out, body);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        net.shutdown();
    }

    #[test]
    fn remote_errors_propagate() {
        let net = Network::new(LatencyModel::instant(), 1);
        let _server =
            RpcNode::start(&net, NodeId(1), sync_handler(|_, _| Err("nope".to_string())), 1);
        let client = RpcNode::start(&net, NodeId(2), null_handler(), 1);
        let err = client.call(NodeId(1), vec![], Duration::from_secs(1)).unwrap_err();
        assert_eq!(err, RpcError::Remote("nope".into()));
        net.shutdown();
    }

    #[test]
    fn timeout_on_dead_destination() {
        let net = Network::new(LatencyModel::instant(), 1);
        let client = RpcNode::start(&net, NodeId(2), null_handler(), 1);
        let err = client.call(NodeId(99), vec![], Duration::from_millis(50)).unwrap_err();
        assert_eq!(err, RpcError::Timeout);
        net.shutdown();
    }

    #[test]
    fn timeout_on_partition_then_recovery() {
        let net = Network::new(LatencyModel::instant(), 1);
        let _server = RpcNode::start(&net, NodeId(1), echo_handler(), 1);
        let client = RpcNode::start(&net, NodeId(2), null_handler(), 1);
        net.cut_link(NodeId(1), NodeId(2));
        let err = client.call(NodeId(1), b"x".to_vec(), Duration::from_millis(50)).unwrap_err();
        assert_eq!(err, RpcError::Timeout);
        net.heal_link(NodeId(1), NodeId(2));
        assert!(client.call(NodeId(1), b"x".to_vec(), Duration::from_secs(1)).is_ok());
        net.shutdown();
    }

    #[test]
    fn deferred_call_completes_and_times_out() {
        let net = Network::new(LatencyModel::instant(), 1);
        let _server = RpcNode::start(&net, NodeId(1), echo_handler(), 1);
        let client = RpcNode::start(&net, NodeId(2), null_handler(), 1);
        let (tx, rx) = channel::unbounded();
        let tx2 = tx.clone();
        client.call_deferred(
            NodeId(1),
            b"hi".to_vec(),
            Duration::from_secs(1),
            Box::new(move |res| tx2.send(res).unwrap()),
        );
        let got = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got.unwrap(), b"from=2 hi");
        // Dead destination: the timer expires the pending call.
        client.call_deferred(
            NodeId(99),
            vec![],
            Duration::from_millis(30),
            Box::new(move |res| tx.send(res).unwrap()),
        );
        let got = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got.unwrap_err(), RpcError::Timeout);
        net.shutdown();
    }

    #[test]
    fn scheduled_tasks_fire_in_order() {
        let net = Network::new(LatencyModel::instant(), 1);
        let client = RpcNode::start(&net, NodeId(2), null_handler(), 1);
        let (tx, rx) = channel::unbounded();
        let tx2 = tx.clone();
        client.schedule(Duration::from_millis(40), Box::new(move || tx2.send(2u32).unwrap()));
        client.schedule(Duration::from_millis(5), Box::new(move || tx.send(1u32).unwrap()));
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), 1);
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), 2);
        net.shutdown();
    }

    #[test]
    fn shutdown_drops_the_tasks_it_will_never_fire() {
        let net = Network::new(LatencyModel::instant(), 1);
        let client = RpcNode::start(&net, NodeId(2), null_handler(), 1);
        let (tx, rx) = channel::bounded::<()>(1);
        client.schedule(Duration::from_secs(60), Box::new(move || drop(tx.send(()))));
        client.shutdown();
        let woken = rx.recv_timeout(Duration::from_secs(1));
        assert_eq!(woken, Err(channel::RecvTimeoutError::Disconnected), "not left parked");
        net.shutdown();
    }

    #[test]
    fn admission_sheds_over_depth_and_counts() {
        let net = Network::new(LatencyModel::instant(), 1);
        let server = RpcNode::start_with_config(
            &net,
            NodeId(1),
            Arc::new(|_, _, responder: Responder| {
                std::thread::sleep(Duration::from_millis(40));
                responder.reply(Ok(vec![]));
            }),
            RpcConfig { workers: 1, queue_depth: 1, admission: None, completion_threads: 1 },
        );
        let client = RpcNode::start(&net, NodeId(2), null_handler(), 1);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let client = Arc::clone(&client);
                std::thread::spawn(move || client.call(NodeId(1), vec![], Duration::from_secs(5)))
            })
            .collect();
        let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        let ok = results.iter().filter(|r| r.is_ok()).count();
        let shed = results
            .iter()
            .filter(|r| matches!(r, Err(RpcError::Remote(m)) if m.contains("run queue full")))
            .count();
        assert!(ok >= 1, "at least the first admitted call succeeds");
        assert!(shed >= 1, "overload must shed: {results:?}");
        assert_eq!(ok + shed, 8, "shed or served, nothing lost: {results:?}");
        let stats = server.queue_stats();
        assert_eq!(stats.shed, shed as u64);
        assert_eq!(stats.admitted, ok as u64);
        assert_eq!(stats.inflight, 0);
        net.shutdown();
    }

    #[test]
    fn admission_policy_protects_unsheddable_requests() {
        let net = Network::new(LatencyModel::instant(), 1);
        // Requests starting with b'P' are privileged (never shed).
        let policy: AdmissionPolicy = Arc::new(|body: &[u8]| {
            if body.first() == Some(&b'P') {
                None
            } else {
                Some("overloaded\u{1f}client load shed".to_string())
            }
        });
        let server = RpcNode::start_with_config(
            &net,
            NodeId(1),
            Arc::new(|_, _, responder: Responder| {
                std::thread::sleep(Duration::from_millis(30));
                responder.reply(Ok(vec![]));
            }),
            RpcConfig {
                workers: 1,
                queue_depth: 1,
                admission: Some(policy),
                completion_threads: 1,
            },
        );
        let client = RpcNode::start(&net, NodeId(2), null_handler(), 1);
        let threads: Vec<_> = (0..6)
            .map(|i| {
                let client = Arc::clone(&client);
                let body = if i % 2 == 0 { b"P".to_vec() } else { b"c".to_vec() };
                std::thread::spawn(move || {
                    (body.clone(), client.call(NodeId(1), body, Duration::from_secs(5)))
                })
            })
            .collect();
        for t in threads {
            let (body, res) = t.join().unwrap();
            if body == b"P" {
                assert!(res.is_ok(), "privileged requests are never shed: {res:?}");
            }
        }
        let _ = server.queue_stats();
        net.shutdown();
    }

    #[test]
    fn call_many_deferred_fans_in_all_results() {
        let net = Network::new(LatencyModel::instant(), 1);
        let servers: Vec<_> =
            (1..=3).map(|i| RpcNode::start(&net, NodeId(i), echo_handler(), 1)).collect();
        let client = RpcNode::start(&net, NodeId(9), null_handler(), 1);
        let call_many = |targets: &[NodeId], body: &[u8], timeout| {
            let (tx, rx) = channel::unbounded();
            let body = Bytes::from(body.to_vec());
            client.call_many_deferred(
                targets,
                body,
                timeout,
                Box::new(move |r| tx.send(r).unwrap()),
            );
            rx.recv_timeout(Duration::from_secs(2)).unwrap()
        };
        // One body, shared by three targets.
        let targets = [NodeId(1), NodeId(2), NodeId(3)];
        let results = call_many(&targets, b"fanout", Duration::from_secs(1));
        assert_eq!(results.len(), 3);
        for r in results {
            assert_eq!(r.unwrap(), b"from=9 fanout");
        }
        // A dead target times out without poisoning the others.
        let results =
            call_many(&[NodeId(1), NodeId(42), NodeId(2)], b"x", Duration::from_millis(150));
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_deref().unwrap(), b"from=9 x");
        assert_eq!(results[1], Err(RpcError::Timeout));
        assert_eq!(results[2].as_deref().unwrap(), b"from=9 x");
        for s in servers {
            s.shutdown();
        }
        net.shutdown();
    }

    #[test]
    fn notify_reaches_handler() {
        let net = Network::new(LatencyModel::instant(), 1);
        let (tx, rx) = channel::unbounded();
        let _server = RpcNode::start(
            &net,
            NodeId(1),
            sync_handler(move |_, body| {
                tx.send(body).unwrap();
                Ok(vec![])
            }),
            1,
        );
        let client = RpcNode::start(&net, NodeId(2), null_handler(), 1);
        client.notify(NodeId(1), b"event".to_vec());
        let got = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(got, b"event");
        net.shutdown();
    }

    #[test]
    fn oneway_reply_frame_is_suppressed() {
        let net = Network::new(LatencyModel::instant(), 1);
        // Handler *does* reply — the responder must drop it for one-ways.
        let _server = RpcNode::start(&net, NodeId(1), echo_handler(), 1);
        let raw = net.join(NodeId(7));
        raw.send(NodeId(1), encode_frame(KIND_ONEWAY, 0, b"evt"));
        // Previously the worker sent a junk KIND_RESPONSE id-0 frame back;
        // now nothing must arrive at the sender.
        assert!(
            raw.recv_timeout(Duration::from_millis(100)).is_err(),
            "one-way requests must not generate response frames"
        );
        net.shutdown();
    }

    #[test]
    fn shutdown_fails_pending_calls() {
        let net = Network::new(
            LatencyModel { base: Duration::from_millis(200), ..LatencyModel::instant() },
            1,
        );
        let _server = RpcNode::start(&net, NodeId(1), echo_handler(), 1);
        let client = RpcNode::start(&net, NodeId(2), null_handler(), 1);
        let c2 = Arc::clone(&client);
        let t = std::thread::spawn(move || {
            c2.call(NodeId(1), b"slow".to_vec(), Duration::from_secs(5))
        });
        std::thread::sleep(Duration::from_millis(30));
        client.shutdown();
        let res = t.join().unwrap();
        assert_eq!(res.unwrap_err(), RpcError::Shutdown);
        net.shutdown();
    }

    #[test]
    fn network_shutdown_stops_the_router_and_node_shutdown_still_returns() {
        let net = Network::new(LatencyModel::instant(), 1);
        let node = RpcNode::start(&net, NodeId(1), echo_handler(), 1);
        net.shutdown();
        let router_done = || {
            let threads = node.threads.lock();
            let router = threads
                .iter()
                .find(|t| t.thread().name() == Some("rpc-node-1-router"))
                .expect("router thread");
            router.is_finished()
        };
        let deadline = Instant::now() + Duration::from_secs(2);
        while !router_done() {
            assert!(Instant::now() < deadline, "the router outlived the network");
            std::thread::sleep(Duration::from_millis(1));
        }
        node.shutdown();
    }

    #[test]
    fn shutdown_drains_admitted_requests() {
        let net = Network::new(LatencyModel::instant(), 1);
        let server = RpcNode::start(
            &net,
            NodeId(1),
            Arc::new(|_, body: Vec<u8>, responder: Responder| {
                std::thread::sleep(Duration::from_millis(60));
                responder.reply(Ok(body));
            }),
            2,
        );
        let client = RpcNode::start(&net, NodeId(2), null_handler(), 1);
        let threads: Vec<_> = (0..4u8)
            .map(|i| {
                let client = Arc::clone(&client);
                std::thread::spawn(move || client.call(NodeId(1), vec![i], Duration::from_secs(10)))
            })
            .collect();
        // Let all four reach the server's run queue, then shut it down.
        std::thread::sleep(Duration::from_millis(25));
        server.shutdown();
        for (i, t) in threads.into_iter().enumerate() {
            let res = t.join().unwrap();
            assert_eq!(res.unwrap(), vec![i as u8], "admitted request {i} lost its reply");
        }
        assert_eq!(server.queue_stats().inflight, 0);
        net.shutdown();
    }

    /// A callee that parks each request's responder for the test to
    /// answer, three replicas (3, 4, 5) to send parts, and a caller (2).
    struct Parted {
        net: Network,
        caller: Arc<RpcNode>,
        replicas: Vec<Arc<RpcNode>>,
        parked: channel::Receiver<Responder>,
    }

    const QUORUM: [NodeId; 2] = [NodeId(3), NodeId(4)];

    type Outcome = channel::Receiver<Result<Vec<u8>, RpcError>>;

    impl Parted {
        fn start() -> Parted {
            let net = Network::new(LatencyModel::instant(), 1);
            let (park, parked) = channel::unbounded();
            let handler: Handler = Arc::new(move |_, _, responder| drop(park.send(responder)));
            RpcNode::start(&net, NodeId(1), handler, 1);
            let caller = RpcNode::start(&net, NodeId(2), null_handler(), 1);
            let replicas =
                (3..=5).map(|i| RpcNode::start(&net, NodeId(i), null_handler(), 1)).collect();
            Parted { net, caller, replicas, parked }
        }

        /// Start a deferred call to the callee; its outcome and the
        /// callee's responder for it.
        fn call(&self, timeout: Duration) -> (Outcome, Responder) {
            let (tx, rx) = channel::unbounded();
            let done: ReplyCallback = Box::new(move |res| drop(tx.send(res)));
            self.caller.call_deferred(NodeId(1), b"req".to_vec(), timeout, done);
            (rx, self.parked.recv_timeout(Duration::from_secs(2)).expect("request arrives"))
        }

        /// Replica `id` answers `responder`'s call with one part.
        fn part(&self, id: u32, responder: &Responder, quorum: &[NodeId], epoch: u64, body: &[u8]) {
            let (to, req_id) = responder.route().expect("a call, not a one-way");
            self.replicas[id as usize - 3].replica_reply(to, req_id, quorum, epoch, body);
        }

        fn parts(&self) -> usize {
            self.caller.shared.calls.lock().parts.len()
        }

        /// Wait until the caller's router holds `n` calls' parts.
        fn wait_parts(&self, n: usize) {
            let deadline = Instant::now() + Duration::from_secs(2);
            while self.parts() != n {
                assert!(Instant::now() < deadline, "parts table never reached {n}");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    fn quiet(outcome: &Outcome) {
        let got = outcome.recv_timeout(Duration::from_millis(50));
        assert!(got.is_err(), "the call completed early: {got:?}");
    }

    fn got(outcome: &Outcome) -> Result<Vec<u8>, RpcError> {
        outcome.recv_timeout(Duration::from_secs(2)).expect("the call completes")
    }

    #[test]
    fn a_call_completes_on_a_full_quorum_of_parts_exactly_once() {
        let rig = Parted::start();
        let (outcome, responder) = rig.call(Duration::from_secs(5));
        rig.part(3, &responder, &QUORUM, 7, b"v");
        rig.wait_parts(1);
        quiet(&outcome);
        rig.part(4, &responder, &QUORUM, 7, b"v");
        assert_eq!(got(&outcome), Ok(b"v".to_vec()));
        // The callee's own response, after the parts, finds no call.
        responder.reply(Ok(b"own".to_vec()));
        quiet(&outcome);
        assert_eq!(rig.parts(), 0, "completion drops the parts");
        assert!(rig.caller.shared.calls.lock().pending.is_empty());
        rig.net.shutdown();
    }

    #[test]
    fn a_blocking_call_completes_on_parts_too() {
        let rig = Parted::start();
        let caller = Arc::clone(&rig.caller);
        let call = std::thread::spawn(move || {
            caller.call(NodeId(1), b"req".to_vec(), Duration::from_secs(5))
        });
        let responder = rig.parked.recv_timeout(Duration::from_secs(2)).expect("request arrives");
        for id in [3, 4] {
            rig.part(id, &responder, &QUORUM, 1, b"v");
        }
        assert_eq!(call.join().unwrap(), Ok(b"v".to_vec()));
        assert_eq!(rig.parts(), 0);
        rig.net.shutdown();
    }

    #[test]
    fn a_part_from_outside_its_quorum_is_ignored() {
        let rig = Parted::start();
        let (outcome, responder) = rig.call(Duration::from_secs(5));
        // Node 5 is no member: its parts neither count nor disagree.
        rig.part(5, &responder, &QUORUM, 1, b"other");
        rig.part(3, &responder, &QUORUM, 1, b"v");
        rig.part(5, &responder, &QUORUM, 1, b"v");
        rig.wait_parts(1);
        quiet(&outcome);
        rig.part(4, &responder, &QUORUM, 1, b"v");
        assert_eq!(got(&outcome), Ok(b"v".to_vec()));
        assert_eq!(rig.parts(), 0);
        rig.net.shutdown();
    }

    #[test]
    fn disagreeing_parts_fall_back_to_the_callees_response() {
        let rig = Parted::start();
        // A different body, epoch or quorum is a disagreement, and agreeing
        // parts from every member afterwards do not revive the collection.
        let quorum = [NodeId(3), NodeId(4), NodeId(5)];
        for (epoch, body, second_quorum) in
            [(1, &b"b"[..], &quorum[..]), (2, b"a", &quorum), (1, b"a", &QUORUM)]
        {
            let (outcome, responder) = rig.call(Duration::from_secs(5));
            rig.part(3, &responder, &quorum, 1, b"a");
            rig.part(4, &responder, second_quorum, epoch, body);
            for id in [3, 4, 5] {
                rig.part(id, &responder, &quorum, 1, b"a");
            }
            quiet(&outcome);
            responder.reply(Ok(b"own".to_vec()));
            assert_eq!(got(&outcome), Ok(b"own".to_vec()));
            assert_eq!(rig.parts(), 0);
        }
        rig.net.shutdown();
    }

    #[test]
    fn a_full_response_before_the_parts_completes_the_call_once() {
        let rig = Parted::start();
        let (outcome, responder) = rig.call(Duration::from_secs(5));
        responder.reply(Err("own".into()));
        assert_eq!(got(&outcome), Err(RpcError::Remote("own".into())));
        for id in [3, 4] {
            rig.part(id, &responder, &QUORUM, 1, b"v");
        }
        quiet(&outcome);
        assert_eq!(rig.parts(), 0, "parts of a finished call are dropped");
        rig.net.shutdown();
    }

    #[test]
    fn parts_for_unknown_ids_and_empty_quorums_are_dropped() {
        let rig = Parted::start();
        rig.replicas[0].replica_reply(NodeId(2), 999, &QUORUM, 1, b"v");
        let (outcome, responder) = rig.call(Duration::from_secs(5));
        rig.part(3, &responder, &[], 1, b"v");
        quiet(&outcome);
        assert_eq!(rig.parts(), 0);
        responder.reply(Ok(b"own".to_vec()));
        assert_eq!(got(&outcome), Ok(b"own".to_vec()));
        rig.net.shutdown();
    }

    #[test]
    fn timeout_and_shutdown_drop_the_parts() {
        let rig = Parted::start();
        let (outcome, responder) = rig.call(Duration::from_millis(100));
        rig.part(3, &responder, &QUORUM, 1, b"v");
        rig.wait_parts(1);
        assert_eq!(got(&outcome), Err(RpcError::Timeout));
        assert_eq!(rig.parts(), 0, "a timeout drops the parts");
        let (outcome, responder) = rig.call(Duration::from_secs(5));
        rig.part(3, &responder, &QUORUM, 1, b"v");
        rig.wait_parts(1);
        rig.caller.shutdown();
        assert_eq!(got(&outcome), Err(RpcError::Shutdown));
        assert_eq!(rig.parts(), 0, "shutdown drops the parts");
        rig.net.shutdown();
    }

    #[test]
    fn one_way_requests_have_no_route_and_replica_replies_round_trip() {
        let net = Network::new(LatencyModel::instant(), 1);
        let (tx, rx) = channel::unbounded();
        let handler: Handler = Arc::new(move |_, _, responder: Responder| {
            drop(tx.send(responder.route()));
        });
        let _server = RpcNode::start(&net, NodeId(1), handler, 1);
        let client = RpcNode::start(&net, NodeId(2), null_handler(), 1);
        client.notify(NodeId(1), vec![]);
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), None);
        net.shutdown();
        let body = encode_replica_reply(&QUORUM, 9, b"body");
        assert_eq!(decode_replica_reply(&body), Some((QUORUM.to_vec(), 9, b"body".to_vec())));
        assert_eq!(decode_replica_reply(&body[..15]), None, "a cut quorum is malformed");
        assert_eq!(decode_replica_reply(&[0; 5]), None);
    }

    #[test]
    fn frame_round_trip() {
        let frame = encode_frame(KIND_REQUEST, 77, b"body");
        let (kind, id, body) = decode_frame(&frame).unwrap();
        assert_eq!((kind, id, body.as_slice()), (KIND_REQUEST, 77, &b"body"[..]));
        assert!(decode_frame(&[1, 2]).is_err());
    }

    #[test]
    fn response_body_round_trip() {
        assert_eq!(
            decode_response_body(encode_response_body(&Ok(b"x".to_vec()))),
            Ok(b"x".to_vec())
        );
        assert_eq!(
            decode_response_body(encode_response_body(&Err("bad".into()))),
            Err(RpcError::Remote("bad".into()))
        );
        assert!(decode_response_body(vec![]).is_err());
    }
}
