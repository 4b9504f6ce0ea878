//! The simulated cluster network.
//!
//! Nodes register with a [`Network`] and exchange byte messages through it.
//! Each message is stamped at send with a delivery instant, sampled from the
//! configured [`LatencyModel`], and queued in its destination's mailbox, a
//! queue ordered by that instant. The destination's receiving thread waits
//! for the head itself and takes it when it is due, so no thread stands
//! between a sender and a receiver. Links can be cut (network partitions)
//! and the per-link/message statistics feed the evaluation harness.
//!
//! This substitutes for the paper's CloudLab testbed (§5): the effect being
//! measured — disaggregation paying one network round-trip per storage
//! access — is a property of *hop counts and per-hop latency*, which the
//! simulator reproduces precisely. Defaults model an intra-rack network.

use std::collections::{BinaryHeap, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Identifies a node (machine) in the simulated cluster.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// A delivered message.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Serialized payload.
    pub payload: Vec<u8>,
}

/// Per-message latency distribution.
///
/// Samples `base + U(0, jitter)` plus a per-byte cost. The default
/// approximates an intra-rack network: 250 µs propagation + switching, up
/// to 100 µs of uniform jitter, and ~8 Gbps serialization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fixed one-way latency.
    pub base: Duration,
    /// Uniform jitter added on top.
    pub jitter: Duration,
    /// Transfer cost per byte (models bandwidth).
    pub per_byte: Duration,
    /// Probability of silently dropping a message (packet loss).
    pub drop_probability: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            base: Duration::from_micros(250),
            jitter: Duration::from_micros(100),
            per_byte: Duration::from_nanos(1), // ≈ 8 Gbps
            drop_probability: 0.0,
        }
    }
}

impl LatencyModel {
    /// A zero-latency model for tests that only care about plumbing.
    pub fn instant() -> Self {
        LatencyModel {
            base: Duration::ZERO,
            jitter: Duration::ZERO,
            per_byte: Duration::ZERO,
            drop_probability: 0.0,
        }
    }

    /// Latency for one `len`-byte message, sampled with `rng`.
    pub fn sample(&self, len: usize, rng: &mut SmallRng) -> Duration {
        let jitter = if self.jitter.is_zero() {
            Duration::ZERO
        } else {
            self.jitter.mul_f64(rng.gen::<f64>())
        };
        self.base + jitter + self.per_byte * (len as u32)
    }
}

/// Counters observed by the harness.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Messages accepted for delivery.
    pub messages_sent: AtomicU64,
    /// Messages actually delivered.
    pub messages_delivered: AtomicU64,
    /// Messages dropped (loss, partition, unknown destination).
    pub messages_dropped: AtomicU64,
    /// Total payload bytes sent.
    pub bytes_sent: AtomicU64,
    /// Messages dropped by an injected fault (incl. reply loss).
    pub faults_dropped: AtomicU64,
    /// Messages duplicated by an injected fault.
    pub faults_duplicated: AtomicU64,
    /// Messages hit by an injected delay spike.
    pub faults_delayed: AtomicU64,
}

/// Per-link fault behaviour; every probability is sampled independently per
/// message from the plan's seeded rng.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSpec {
    /// Probability of silently dropping any message.
    pub drop: f64,
    /// Probability of delivering a message twice (independent latencies).
    pub duplicate: f64,
    /// Probability of adding `delay_spike` on top of the modelled latency.
    pub delay: f64,
    /// Extra latency applied when a delay fault fires.
    pub delay_spike: Duration,
    /// Additional drop probability applied only to RPC *reply* frames —
    /// responses and replica replies: the request executes at the
    /// receiver, but its ack never returns. This is the classic
    /// at-least-once hazard for retrying clients.
    pub reply_loss: f64,
}

impl FaultSpec {
    /// Drop every message on the link.
    pub fn drop_all() -> FaultSpec {
        FaultSpec { drop: 1.0, ..FaultSpec::default() }
    }

    /// Lose every RPC response (requests still execute).
    pub fn lose_replies() -> FaultSpec {
        FaultSpec { reply_loss: 1.0, ..FaultSpec::default() }
    }
}

/// A scriptable, seeded fault schedule layered on top of `cut_link`/
/// `isolate`: a default spec applied to every link plus per-link overrides.
/// Install with [`Network::set_fault_plan`]; injected faults are counted in
/// [`NetStats`] so tests can assert the chaos actually happened.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    default: Option<FaultSpec>,
    links: HashMap<(NodeId, NodeId), FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults until specs are added).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Apply `spec` to every link without an explicit override.
    pub fn everywhere(spec: FaultSpec) -> FaultPlan {
        FaultPlan { default: Some(spec), ..FaultPlan::default() }
    }

    /// Override the `from -> to` direction with `spec`.
    #[must_use]
    pub fn link(mut self, from: NodeId, to: NodeId, spec: FaultSpec) -> FaultPlan {
        self.links.insert((from, to), spec);
        self
    }

    /// Override both directions between `a` and `b` with `spec`.
    #[must_use]
    pub fn between(self, a: NodeId, b: NodeId, spec: FaultSpec) -> FaultPlan {
        self.link(a, b, spec).link(b, a, spec)
    }

    fn spec_for(&self, from: NodeId, to: NodeId) -> Option<&FaultSpec> {
        self.links.get(&(from, to)).or(self.default.as_ref())
    }
}

struct Scheduled {
    deliver_at: Instant,
    seq: u64,
    envelope: Envelope,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on (deadline, seq) via reversal.
        other.deliver_at.cmp(&self.deliver_at).then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One endpoint's incoming mail: a queue ordered by `(deliver_at, seq)` and
/// the condvar its receiving thread waits on until the head is due.
#[derive(Default)]
struct Mailbox {
    state: Mutex<MailState>,
    cv: Condvar,
}

#[derive(Default)]
struct MailState {
    queue: BinaryHeap<Scheduled>,
    seq: u64,
    closed: bool,
}

impl MailState {
    fn push(&mut self, deliver_at: Instant, envelope: Envelope) {
        self.queue.push(Scheduled { deliver_at, seq: self.seq, envelope });
        self.seq += 1;
    }
}

impl Mailbox {
    /// Queue `envelope` for `deliver_at`, and a copy for `duplicate_at` when
    /// a fault duplicated it. Returns false, queueing nothing, when the
    /// mailbox is closed.
    fn post(&self, deliver_at: Instant, duplicate_at: Option<Instant>, envelope: Envelope) -> bool {
        let mut st = self.state.lock();
        if st.closed {
            return false;
        }
        let head = st.queue.peek().map(|s| s.deliver_at);
        if let Some(at) = duplicate_at {
            st.push(at, envelope.clone());
        }
        st.push(deliver_at, envelope);
        // The receiver sleeps until the head is due: only a new head changes
        // when it must wake.
        let new_head = st.queue.peek().map(|s| s.deliver_at) != head;
        drop(st);
        if new_head {
            self.cv.notify_all();
        }
        true
    }

    /// Discard the queued mail, counting it as dropped, refuse any more, and
    /// wake every receiver with `Err`.
    fn close(&self, stats: &NetStats) {
        let discarded = {
            let mut st = self.state.lock();
            st.closed = true;
            std::mem::take(&mut st.queue)
        };
        stats.messages_dropped.fetch_add(discarded.len() as u64, Ordering::Relaxed);
        self.cv.notify_all();
    }
}

struct NetInner {
    mailboxes: RwLock<HashMap<NodeId, Arc<Mailbox>>>,
    cut_links: RwLock<HashSet<(NodeId, NodeId)>>,
    latency: RwLock<LatencyModel>,
    faults: Mutex<Option<(FaultPlan, SmallRng)>>,
    rng: Mutex<SmallRng>,
    stats: NetStats,
}

/// Handle to the simulated network; cheap to clone.
#[derive(Clone)]
pub struct Network {
    inner: Arc<NetInner>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network").field("nodes", &self.inner.mailboxes.read().len()).finish()
    }
}

impl Network {
    /// Create a network with the given latency model. The RNG is seeded for
    /// reproducible jitter sequences.
    pub fn new(latency: LatencyModel, seed: u64) -> Network {
        let inner = Arc::new(NetInner {
            mailboxes: RwLock::new(HashMap::new()),
            cut_links: RwLock::new(HashSet::new()),
            latency: RwLock::new(latency),
            faults: Mutex::new(None),
            rng: Mutex::new(SmallRng::seed_from_u64(seed)),
            stats: NetStats::default(),
        });
        Network { inner }
    }

    /// Register `id`, returning its mailbox handle.
    ///
    /// # Panics
    /// Panics if the id is already registered (configuration bug).
    pub fn join(&self, id: NodeId) -> NodeHandle {
        let mailbox = Arc::new(Mailbox::default());
        let prev = self.inner.mailboxes.write().insert(id, Arc::clone(&mailbox));
        assert!(prev.is_none(), "{id} joined twice");
        NodeHandle { id, net: self.clone(), mailbox }
    }

    /// Remove `id` from the network; queued messages to it are dropped and
    /// a thread blocked in its `recv` returns `Err`.
    pub fn leave(&self, id: NodeId) {
        let mailbox = self.inner.mailboxes.write().remove(&id);
        if let Some(mailbox) = mailbox {
            mailbox.close(&self.inner.stats);
        }
    }

    /// True when `id` is currently registered.
    pub fn is_member(&self, id: NodeId) -> bool {
        self.inner.mailboxes.read().contains_key(&id)
    }

    /// Cut the link between `a` and `b` (both directions).
    pub fn cut_link(&self, a: NodeId, b: NodeId) {
        let mut cut = self.inner.cut_links.write();
        cut.insert((a, b));
        cut.insert((b, a));
    }

    /// Restore the link between `a` and `b`.
    pub fn heal_link(&self, a: NodeId, b: NodeId) {
        let mut cut = self.inner.cut_links.write();
        cut.remove(&(a, b));
        cut.remove(&(b, a));
    }

    /// Isolate a node from everyone currently registered.
    pub fn isolate(&self, id: NodeId) {
        let others: Vec<NodeId> = self.inner.mailboxes.read().keys().copied().collect();
        for other in others {
            if other != id {
                self.cut_link(id, other);
            }
        }
    }

    /// Undo [`isolate`](Self::isolate).
    pub fn heal_all(&self, id: NodeId) {
        self.inner.cut_links.write().retain(|(a, b)| *a != id && *b != id);
    }

    /// Replace the latency model at runtime.
    pub fn set_latency(&self, latency: LatencyModel) {
        *self.inner.latency.write() = latency;
    }

    /// Current latency model.
    pub fn latency(&self) -> LatencyModel {
        *self.inner.latency.read()
    }

    /// Counter snapshot: (sent, delivered, dropped, bytes).
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        let s = &self.inner.stats;
        (
            s.messages_sent.load(Ordering::Relaxed),
            s.messages_delivered.load(Ordering::Relaxed),
            s.messages_dropped.load(Ordering::Relaxed),
            s.bytes_sent.load(Ordering::Relaxed),
        )
    }

    /// Install a fault plan; its rng is seeded independently of the latency
    /// rng so a chaos schedule replays identically across runs.
    pub fn set_fault_plan(&self, plan: FaultPlan, seed: u64) {
        *self.inner.faults.lock() = Some((plan, SmallRng::seed_from_u64(seed)));
    }

    /// Remove the installed fault plan (heals everything it injected).
    pub fn clear_fault_plan(&self) {
        *self.inner.faults.lock() = None;
    }

    /// Injected-fault snapshot: (dropped, duplicated, delayed).
    pub fn fault_stats(&self) -> (u64, u64, u64) {
        let s = &self.inner.stats;
        (
            s.faults_dropped.load(Ordering::Relaxed),
            s.faults_duplicated.load(Ordering::Relaxed),
            s.faults_delayed.load(Ordering::Relaxed),
        )
    }

    /// Total faults injected so far, across all kinds.
    pub fn faults_injected(&self) -> u64 {
        let (d, du, de) = self.fault_stats();
        d + du + de
    }

    /// Close every member's mailbox: in-flight messages are discarded and
    /// every receiver returns `Err`.
    pub fn shutdown(&self) {
        for mailbox in self.inner.mailboxes.read().values() {
            mailbox.close(&self.inner.stats);
        }
    }

    fn send(&self, from: NodeId, to: NodeId, payload: Vec<u8>) {
        let stats = &self.inner.stats;
        stats.messages_sent.fetch_add(1, Ordering::Relaxed);
        stats.bytes_sent.fetch_add(payload.len() as u64, Ordering::Relaxed);
        if self.inner.cut_links.read().contains(&(from, to)) {
            stats.messages_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let latency = *self.inner.latency.read();
        let delay = {
            let mut rng = self.inner.rng.lock();
            if latency.drop_probability > 0.0 && rng.gen::<f64>() < latency.drop_probability {
                stats.messages_dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            latency.sample(payload.len(), &mut rng)
        };
        // Scripted faults ride on top of the latency model. Reply loss keys
        // off the RPC frame kind: a lost response means the receiver already
        // executed the request but the caller times out and retries.
        let mut spike = Duration::ZERO;
        let mut duplicate_delay = None;
        if let Some((plan, rng)) = self.inner.faults.lock().as_mut() {
            if let Some(spec) = plan.spec_for(from, to) {
                let is_reply = matches!(
                    payload.first(),
                    Some(&crate::rpc::KIND_RESPONSE | &crate::rpc::KIND_REPLICA_REPLY)
                );
                let drop_p = spec.drop + if is_reply { spec.reply_loss } else { 0.0 };
                if drop_p > 0.0 && rng.gen::<f64>() < drop_p {
                    stats.messages_dropped.fetch_add(1, Ordering::Relaxed);
                    stats.faults_dropped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                if spec.delay > 0.0 && rng.gen::<f64>() < spec.delay {
                    stats.faults_delayed.fetch_add(1, Ordering::Relaxed);
                    spike = spec.delay_spike;
                }
                if spec.duplicate > 0.0 && rng.gen::<f64>() < spec.duplicate {
                    stats.faults_duplicated.fetch_add(1, Ordering::Relaxed);
                    duplicate_delay = Some(latency.sample(payload.len(), rng) + spike);
                }
            }
        }
        // The destination is looked up after the rng draws, so a message to
        // an unknown or departed node consumes the same jitter and faults as
        // any other and the seeded schedule does not shift.
        let mailbox = self.inner.mailboxes.read().get(&to).cloned();
        let now = Instant::now();
        let envelope = Envelope { from, to, payload };
        let queued = mailbox.is_some_and(|mailbox| {
            mailbox.post(now + delay + spike, duplicate_delay.map(|extra| now + extra), envelope)
        });
        if !queued {
            stats.messages_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Linux ends a timed wait up to 50 µs late by default (the thread's timer
/// slack), which would land every message that long after its modelled
/// instant. Set the calling thread's slack to 1 ns, once per thread; other
/// platforms keep theirs.
fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        use std::cell::Cell;
        use std::os::raw::{c_int, c_ulong};

        extern "C" {
            fn prctl(option: c_int, ...) -> c_int;
        }
        const PR_SET_TIMERSLACK: c_int = 29;
        thread_local!(static TIGHTENED: Cell<bool> = const { Cell::new(false) });
        TIGHTENED.with(|done| {
            if !done.replace(true) {
                // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and
                // only changes the calling thread's timer slack.
                unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
            }
        });
    }
}

/// A node's endpoint on the network.
pub struct NodeHandle {
    id: NodeId,
    net: Network,
    mailbox: Arc<Mailbox>,
}

impl fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeHandle").field("id", &self.id).finish()
    }
}

impl NodeHandle {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Send `payload` to `to` (fire-and-forget, like UDP-with-ordering).
    pub fn send(&self, to: NodeId, payload: Vec<u8>) {
        self.net.send(self.id, to, payload);
    }

    /// Block until a message arrives.
    ///
    /// # Errors
    /// Returns `Err` once the mailbox is closed: the node left, the network
    /// shut down, or [`close`](Self::close) was called.
    pub fn recv(&self) -> Result<Envelope, RecvError> {
        self.take(None).map_err(|_| RecvError)
    }

    /// Block until a message arrives or `timeout` passes.
    ///
    /// # Errors
    /// [`RecvTimeoutError::Timeout`] on timeout, `Disconnected` once the
    /// mailbox is closed.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvTimeoutError> {
        self.take(Some(Instant::now() + timeout))
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.take(Some(Instant::now())).ok()
    }

    /// Close this endpoint's mailbox: mail queued for it is discarded and a
    /// thread blocked in [`recv`](Self::recv) returns `Err`. The node stays
    /// a member; later mail to it is dropped.
    pub fn close(&self) {
        self.mailbox.close(&self.net.inner.stats);
    }

    /// Take the head once it is due, waiting for it until `until` (forever
    /// when `None`). The calling thread does the waiting, so a message is
    /// delivered at its modelled instant.
    fn take(&self, until: Option<Instant>) -> Result<Envelope, RecvTimeoutError> {
        tighten_timer_slack();
        let inner = &self.net.inner;
        let mut st = self.mailbox.state.lock();
        loop {
            if st.closed {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            let head = st.queue.peek().map(|s| s.deliver_at);
            if head.is_some_and(|at| at <= now) {
                let envelope = st.queue.pop().expect("peeked").envelope;
                // Check partitions again at delivery time: a link cut
                // mid-flight loses the packet, like a real partition would.
                if inner.cut_links.read().contains(&(envelope.from, envelope.to)) {
                    inner.stats.messages_dropped.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                inner.stats.messages_delivered.fetch_add(1, Ordering::Relaxed);
                return Ok(envelope);
            }
            if until.is_some_and(|until| until <= now) {
                return Err(RecvTimeoutError::Timeout);
            }
            match head.into_iter().chain(until).min() {
                Some(wake) => {
                    self.mailbox.cv.wait_for(&mut st, wake - now);
                }
                None => self.mailbox.cv.wait(&mut st),
            }
        }
    }
}

impl Drop for NodeHandle {
    /// Nobody can receive any more: mail to this endpoint is dropped.
    fn drop(&mut self) {
        self.close();
    }
}

/// The mailbox was closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "network mailbox closed")
    }
}
impl std::error::Error for RecvError {}

/// Timed-out or closed mailbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived in time.
    Timeout,
    /// The mailbox was closed.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => write!(f, "receive timed out"),
            RecvTimeoutError::Disconnected => write!(f, "network mailbox closed"),
        }
    }
}
impl std::error::Error for RecvTimeoutError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_delivered() {
        let net = Network::new(LatencyModel::instant(), 1);
        let a = net.join(NodeId(1));
        let b = net.join(NodeId(2));
        a.send(NodeId(2), b"hello".to_vec());
        let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.from, NodeId(1));
        assert_eq!(env.payload, b"hello");
        net.shutdown();
    }

    #[test]
    fn latency_is_applied() {
        let net = Network::new(
            LatencyModel {
                base: Duration::from_millis(20),
                jitter: Duration::ZERO,
                per_byte: Duration::ZERO,
                drop_probability: 0.0,
            },
            1,
        );
        let a = net.join(NodeId(1));
        let b = net.join(NodeId(2));
        let start = Instant::now();
        a.send(NodeId(2), vec![0]);
        b.recv_timeout(Duration::from_secs(1)).unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(18), "elapsed {elapsed:?}");
        net.shutdown();
    }

    #[test]
    fn ordering_preserved_for_same_latency() {
        let net = Network::new(LatencyModel::instant(), 1);
        let a = net.join(NodeId(1));
        let b = net.join(NodeId(2));
        for i in 0..100u32 {
            a.send(NodeId(2), i.to_le_bytes().to_vec());
        }
        for i in 0..100u32 {
            let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(env.payload, i.to_le_bytes());
        }
        net.shutdown();
    }

    #[test]
    fn cut_link_drops_messages() {
        let net = Network::new(LatencyModel::instant(), 1);
        let a = net.join(NodeId(1));
        let b = net.join(NodeId(2));
        net.cut_link(NodeId(1), NodeId(2));
        a.send(NodeId(2), b"lost".to_vec());
        assert!(matches!(
            b.recv_timeout(Duration::from_millis(50)),
            Err(RecvTimeoutError::Timeout)
        ));
        net.heal_link(NodeId(1), NodeId(2));
        a.send(NodeId(2), b"found".to_vec());
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().payload, b"found");
        let (_, _, dropped, _) = net.stats();
        assert_eq!(dropped, 1);
        net.shutdown();
    }

    #[test]
    fn isolate_and_heal_all() {
        let net = Network::new(LatencyModel::instant(), 1);
        let a = net.join(NodeId(1));
        let b = net.join(NodeId(2));
        let c = net.join(NodeId(3));
        net.isolate(NodeId(1));
        a.send(NodeId(2), b"x".to_vec());
        c.send(NodeId(1), b"y".to_vec());
        assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
        assert!(a.recv_timeout(Duration::from_millis(50)).is_err());
        net.heal_all(NodeId(1));
        a.send(NodeId(2), b"z".to_vec());
        assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
        net.shutdown();
    }

    #[test]
    fn unknown_destination_is_dropped() {
        let net = Network::new(LatencyModel::instant(), 1);
        let a = net.join(NodeId(1));
        a.send(NodeId(99), b"void".to_vec());
        let (sent, _, dropped, _) = net.stats();
        assert_eq!(sent, 1);
        assert_eq!(dropped, 1);
        net.shutdown();
    }

    #[test]
    fn drop_probability_loses_packets() {
        let net =
            Network::new(LatencyModel { drop_probability: 1.0, ..LatencyModel::instant() }, 1);
        let a = net.join(NodeId(1));
        let b = net.join(NodeId(2));
        a.send(NodeId(2), b"gone".to_vec());
        assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
        net.shutdown();
    }

    #[test]
    fn stats_count_bytes() {
        let net = Network::new(LatencyModel::instant(), 1);
        let a = net.join(NodeId(1));
        let _b = net.join(NodeId(2));
        a.send(NodeId(2), vec![0u8; 100]);
        let (_, _, _, bytes) = net.stats();
        assert_eq!(bytes, 100);
        net.shutdown();
    }

    #[test]
    #[should_panic(expected = "joined twice")]
    fn double_join_panics() {
        let net = Network::new(LatencyModel::instant(), 1);
        let _a = net.join(NodeId(1));
        let _b = net.join(NodeId(1));
    }

    #[test]
    fn leave_makes_node_unreachable() {
        let net = Network::new(LatencyModel::instant(), 1);
        let a = net.join(NodeId(1));
        let b = net.join(NodeId(2));
        assert!(net.is_member(NodeId(2)));
        net.leave(NodeId(2));
        assert!(!net.is_member(NodeId(2)));
        a.send(NodeId(2), b"late".to_vec());
        assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
        net.shutdown();
    }

    fn fixed(delay: Duration) -> LatencyModel {
        LatencyModel { base: delay, ..LatencyModel::instant() }
    }

    #[test]
    fn a_later_message_with_a_shorter_delay_is_delivered_first() {
        let net = Network::new(fixed(Duration::from_millis(30)), 1);
        let a = net.join(NodeId(1));
        let b = net.join(NodeId(2));
        let start = Instant::now();
        a.send(NodeId(2), b"slow".to_vec());
        // The receiver is already asleep until the 30 ms head when the
        // faster message becomes the new head: it must be woken for it.
        let sender = {
            let net = net.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                net.set_latency(fixed(Duration::from_millis(1)));
                a.send(NodeId(2), b"fast".to_vec());
            })
        };
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().payload, b"fast");
        let first = start.elapsed();
        assert!(
            first < Duration::from_millis(25),
            "woken for the new head, not at 30 ms: {first:?}"
        );
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().payload, b"slow");
        assert!(start.elapsed() >= Duration::from_millis(29), "{:?}", start.elapsed());
        sender.join().unwrap();
        net.shutdown();
    }

    #[test]
    fn a_link_cut_in_flight_drops_the_message_at_delivery() {
        let net = Network::new(fixed(Duration::from_millis(20)), 1);
        let a = net.join(NodeId(1));
        let b = net.join(NodeId(2));
        a.send(NodeId(2), b"cut".to_vec());
        net.cut_link(NodeId(1), NodeId(2));
        assert_eq!(
            b.recv_timeout(Duration::from_millis(100)).unwrap_err(),
            RecvTimeoutError::Timeout
        );
        let (sent, delivered, dropped, _) = net.stats();
        assert_eq!((sent, delivered, dropped), (1, 0, 1));
        net.shutdown();
    }

    #[test]
    fn leave_wakes_a_blocked_receiver_and_discards_its_mail() {
        let net = Network::new(fixed(Duration::from_millis(50)), 1);
        let a = net.join(NodeId(1));
        let b = net.join(NodeId(2));
        a.send(NodeId(2), b"queued".to_vec());
        let receiver = std::thread::spawn(move || b.recv());
        std::thread::sleep(Duration::from_millis(10));
        net.leave(NodeId(2));
        assert_eq!(receiver.join().unwrap().unwrap_err(), RecvError);
        // Past the queued message's deadline: it was never delivered.
        std::thread::sleep(Duration::from_millis(60));
        let (sent, delivered, dropped, _) = net.stats();
        assert_eq!((sent, delivered, dropped), (1, 0, 1));
        net.shutdown();
    }

    #[test]
    fn fault_plan_drops_everything_until_cleared() {
        let net = Network::new(LatencyModel::instant(), 1);
        let a = net.join(NodeId(1));
        let b = net.join(NodeId(2));
        net.set_fault_plan(FaultPlan::everywhere(FaultSpec::drop_all()), 99);
        a.send(NodeId(2), b"lost".to_vec());
        assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
        let (dropped, _, _) = net.fault_stats();
        assert_eq!(dropped, 1);
        net.clear_fault_plan();
        a.send(NodeId(2), b"found".to_vec());
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().payload, b"found");
        assert_eq!(net.faults_injected(), 1);
        net.shutdown();
    }

    #[test]
    fn reply_loss_only_drops_response_frames() {
        let net = Network::new(LatencyModel::instant(), 1);
        let a = net.join(NodeId(1));
        let b = net.join(NodeId(2));
        net.set_fault_plan(FaultPlan::everywhere(FaultSpec::lose_replies()), 7);
        // A request-shaped frame goes through...
        a.send(NodeId(2), vec![crate::rpc::KIND_RESPONSE + 10, 0, 0]);
        assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
        // ...a response-shaped frame (an ack) and a replica reply are lost.
        for kind in [crate::rpc::KIND_RESPONSE, crate::rpc::KIND_REPLICA_REPLY] {
            a.send(NodeId(2), vec![kind, 0, 0]);
            assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
        }
        let (dropped, _, _) = net.fault_stats();
        assert_eq!(dropped, 2);
        net.shutdown();
    }

    #[test]
    fn duplication_delivers_the_same_payload_twice() {
        let net = Network::new(LatencyModel::instant(), 1);
        let a = net.join(NodeId(1));
        let b = net.join(NodeId(2));
        net.set_fault_plan(
            FaultPlan::everywhere(FaultSpec { duplicate: 1.0, ..FaultSpec::default() }),
            3,
        );
        a.send(NodeId(2), b"twin".to_vec());
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().payload, b"twin");
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().payload, b"twin");
        let (_, duplicated, _) = net.fault_stats();
        assert_eq!(duplicated, 1);
        net.shutdown();
    }

    #[test]
    fn delay_spike_defers_delivery() {
        let net = Network::new(LatencyModel::instant(), 1);
        let a = net.join(NodeId(1));
        let b = net.join(NodeId(2));
        net.set_fault_plan(
            FaultPlan::everywhere(FaultSpec {
                delay: 1.0,
                delay_spike: Duration::from_millis(40),
                ..FaultSpec::default()
            }),
            5,
        );
        let start = Instant::now();
        a.send(NodeId(2), vec![1]);
        b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(35), "spike applied");
        let (_, _, delayed) = net.fault_stats();
        assert_eq!(delayed, 1);
        net.shutdown();
    }

    #[test]
    fn per_link_spec_overrides_the_default() {
        let net = Network::new(LatencyModel::instant(), 1);
        let a = net.join(NodeId(1));
        let b = net.join(NodeId(2));
        let c = net.join(NodeId(3));
        // Default drops everything, but 1 -> 3 is explicitly clean.
        let plan = FaultPlan::everywhere(FaultSpec::drop_all()).link(
            NodeId(1),
            NodeId(3),
            FaultSpec::default(),
        );
        net.set_fault_plan(plan, 11);
        a.send(NodeId(2), b"x".to_vec());
        a.send(NodeId(3), b"y".to_vec());
        assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
        assert_eq!(c.recv_timeout(Duration::from_secs(1)).unwrap().payload, b"y");
        net.shutdown();
    }

    #[test]
    fn seeded_fault_plans_replay_identically() {
        let outcomes: Vec<Vec<bool>> = (0..2)
            .map(|_| {
                let net = Network::new(LatencyModel::instant(), 1);
                let a = net.join(NodeId(1));
                let b = net.join(NodeId(2));
                net.set_fault_plan(
                    FaultPlan::everywhere(FaultSpec { drop: 0.5, ..FaultSpec::default() }),
                    0xfeed,
                );
                let got: Vec<bool> = (0..32u32)
                    .map(|i| {
                        a.send(NodeId(2), i.to_le_bytes().to_vec());
                        b.recv_timeout(Duration::from_millis(100)).is_ok()
                    })
                    .collect();
                net.shutdown();
                got
            })
            .collect();
        assert_eq!(outcomes[0], outcomes[1], "same seed, same fault schedule");
        assert!(outcomes[0].iter().any(|ok| *ok) && outcomes[0].iter().any(|ok| !*ok));
    }

    #[test]
    fn latency_sample_includes_size_cost() {
        let model = LatencyModel {
            base: Duration::from_micros(10),
            jitter: Duration::ZERO,
            per_byte: Duration::from_micros(1),
            drop_probability: 0.0,
        };
        let mut rng = SmallRng::seed_from_u64(7);
        let small = model.sample(10, &mut rng);
        let big = model.sample(1000, &mut rng);
        assert!(big > small);
        assert_eq!(big, Duration::from_micros(10 + 1000));
    }
}
