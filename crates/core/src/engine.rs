//! The invocation engine: executes object methods with invocation
//! linearizability, consistent caching and nested-call semantics.
//!
//! This is the component the paper co-locates with storage (§4.2): it owns
//! the per-object scheduler, runs methods (bytecode via the metered VM, or
//! trusted native code) against a write buffer, commits each invocation's
//! write set as one atomic batch, and maintains the consistent result
//! cache.

use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::Instant;

use crossbeam::channel;
use lambda_kv::batch::BatchOp;
use lambda_kv::{Db, WriteBatch};
use lambda_telemetry::{Counter, InvocationContext, Registry, Stage};
use lambda_vm::{HostError, Interpreter, Limits, NestedCall, Step, Suspended, VmValue};

use crate::cache::{CacheStats, ConsistentCache};
use crate::error::{encode_error, InvokeError, Result};
use crate::host::{Boundary, ObjectHost};
use crate::keys;
use crate::object::{MethodMeta, MethodSet, ObjectId, ObjectType, TypeRegistry};
use crate::scheduler::{ObjectGuard, Scheduler, SchedulerMode, SchedulerStats};

/// Routes nested cross-object invocations, each a branch of a scatter (a
/// single `host.invoke` is a scatter of one). In a single-node deployment
/// every target is served here; in LambdaStore the router checks the shard
/// map and forwards a remote target's call to its primary.
pub trait InvokeRouter: Send + Sync {
    /// A target served by another node is sent there without parking —
    /// `done` runs with the reply — and `None` comes back. For a target
    /// served here the router hands `done` back and the engine runs the
    /// branch itself, so that its commit can join the scatter's wave. `ctx`
    /// is the calling invocation's context: a forwarded hop re-serializes
    /// its remaining deadline budget, not the original.
    fn route_deferred(
        &self,
        ctx: &InvocationContext,
        target: &ObjectId,
        method: &str,
        args: &[VmValue],
        done: InvokeCompletion,
    ) -> Option<InvokeCompletion>;

    /// Can `source`'s boundary commit replicate in the same round as a
    /// scatter branch on `target`? Only when one replica set applies both
    /// in one `ReplicateBatch`, so that no replica ever holds the branch
    /// without the boundary.
    fn co_located(&self, source: &ObjectId, target: &ObjectId) -> bool;
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// VM resource ceilings per invocation.
    pub limits: Limits,
    /// Consistent-cache capacity in entries (0 disables the cache).
    pub cache_capacity: usize,
    /// Ignored: [`SchedulerMode::PerObject`] is the one discipline. Kept
    /// because the `benchmark` package builds this struct by literal.
    pub scheduler: SchedulerMode,
    /// Maximum nested-invocation depth.
    pub max_depth: usize,
    /// Ignored: the VM keeps no module cache to size. Kept because the
    /// `benchmark` package builds this struct by literal.
    pub lowered_cache_capacity: usize,
    /// Ignored: the VM has one interpreter. Kept because the `benchmark`
    /// package builds this struct by literal.
    pub reference_interpreter: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            limits: Limits::default(),
            cache_capacity: 4096,
            scheduler: SchedulerMode::PerObject,
            max_depth: 16,
            lowered_cache_capacity: 0,
            reference_interpreter: false,
        }
    }
}

/// Remembered invocation results per object. Each committed external
/// mutation stores its result under the object's dedup prefix; when the
/// window overflows, the records with the lowest commit versions are
/// evicted in the same atomic batch. A duplicate arriving after its record
/// was evicted re-executes — the window bounds storage, and a client whose
/// retries span more than `DEDUP_WINDOW` intervening commits has long
/// exhausted its deadline budget.
pub const DEDUP_WINDOW: usize = 32;

/// Engine operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Completed invocations (committed or read-only).
    pub invocations: u64,
    /// Invocations that failed/aborted (no writes applied).
    pub aborts: u64,
    /// Nested cross-object calls performed.
    pub nested_calls: u64,
    /// Atomic commits applied.
    pub commits: u64,
    /// Results served from the consistent cache.
    pub cache_hits: u64,
    /// Redelivered mutations answered from the dedup window.
    pub duplicates_suppressed: u64,
    /// Cache behaviour details.
    pub cache: CacheStats,
    /// Scheduler behaviour details.
    pub scheduler: SchedulerStats,
}

/// One replicated write set: `(key, Some(value))` puts / `(key, None)`
/// deletes, as shipped by primary-to-backup replication.
pub type WriteSetOps = Vec<(Vec<u8>, Option<Vec<u8>>)>;

/// Completion for a deferred commit-hook fan-out: invoked exactly once
/// with the replication outcome, whose error is the one the committing
/// invocation fails with.
pub type CommitCallback = Box<dyn FnOnce(Result<()>) + Send>;

/// An invocation's final outcome. A cacheable invocation's read set stays
/// on the node, in its result cache (§4.2.2).
pub type InvokeOutcome = Result<VmValue>;

/// Completion for a deferred invocation: invoked exactly once with the
/// final outcome.
pub type InvokeCompletion = Box<dyn FnOnce(InvokeOutcome) + Send>;

/// Observes every committed write batch — LambdaStore installs a hook that
/// replicates it to the shard's backups (§4.2.1). One entry point, and it
/// never parks: the hook starts the fan-out and runs each commit's `done`
/// with that write set's outcome from whichever thread learns it (inline
/// when there is nothing to wait for). A caller that must block parks on a
/// channel of its own ([`ship_and_join`]).
pub trait CommitHook: Send + Sync {
    /// Called after the local apply with one or more write sets — a single
    /// commit, a scatter's wave, a transaction's objects — so that an
    /// implementation can ship them together (LambdaStore: one
    /// `ReplicateBatch` round per shard). Every `done` must be run exactly
    /// once or dropped; a dropped `done` fails its commit.
    fn on_commit(&self, commits: Vec<DeferredCommit>);
}

/// One locally applied write set on its way to [`CommitHook::on_commit`].
pub struct DeferredCommit {
    /// The committing invocation's context: its trace identity and
    /// remaining deadline budget bound the replication RPCs.
    pub ctx: InvocationContext,
    /// The object the write set belongs to.
    pub object: ObjectId,
    /// The operations just committed locally (`None` value = deletion).
    pub ops: WriteSetOps,
    /// Invoked exactly once with the replication outcome.
    pub done: CommitCallback,
    /// The invocation's final value, on the last commit of a client-facing
    /// (depth-0, external) invocation — or, when such an invocation's body
    /// ran on ahead of its last scatter's acks and wrote nothing after it,
    /// on that scatter's boundary: once the write set and everything
    /// shipped with it are replicated, that value is the client's answer,
    /// so the hook may have whoever applies the set answer with it too.
    /// `None` on every other commit.
    pub reply: Option<VmValue>,
}

/// One scatter: the write sets its branches applied locally while its
/// issue loop was still running, behind the scatter's own boundary commit
/// when that rides along, and the outcomes the scatter waits for. The
/// shipment goes to the commit hook in one call when the wave closes. A
/// branch that commits later (its object was busy, or another thread led
/// its kv group) goes to the hook on its own — once the boundary is acked,
/// so that no replica holds the branch without it.
///
/// A branch in the wave keeps its object's guard until the wave has
/// shipped and been acked. A branch body that reaches a nested call during
/// the issue loop closes and ships the wave first ([`Engine::ship_open_wave`]):
/// the call may need a sibling's guard, which would otherwise stay held
/// until the whole loop had run and its wave had been acked. A
/// client-facing body that resumed before the acks ([`Engine::issue`])
/// keeps its wave open until its own next nested call or its return, and
/// ships it there.
pub(crate) struct Wave {
    engine: Arc<Engine>,
    /// The scatter may carry its invocation's answer (DESIGN.md §10): each
    /// write set that joins drops the primary's cached results over its
    /// keys right after its local write, as a routed commit does.
    answering: bool,
    /// The caller's guard while its boundary rides: released with the
    /// boundary's outcome, unless the body resumed early and took it back.
    guard: parking_lot::Mutex<Option<ObjectGuard>>,
    state: parking_lot::Mutex<WaveState>,
    outcomes: parking_lot::Mutex<Outcomes>,
}

enum WaveState {
    /// Collecting the shipment; `led` once the boundary is at its front.
    Open { shipment: Vec<DeferredCommit>, led: bool },
    /// Shipped, and the boundary is not acked yet: holding later commits.
    Behind(Vec<DeferredCommit>),
    /// Later commits go to the hook on their own.
    Closed,
}

/// What a wave's waiter is owed, counted down by the completions that
/// carry it; `then` runs once with the last of it.
struct Outcomes {
    boundary: Result<()>,
    /// Each branch's answer: its value once its write set is in the open
    /// shipment, or its outcome when it finished without one.
    answers: Vec<Option<InvokeOutcome>>,
    branches: Vec<Option<InvokeOutcome>>,
    owed: usize,
    then: Option<Box<dyn FnOnce(Fanned) + Send>>,
}

/// A wave's outcomes, all in.
struct Fanned {
    boundary: Result<()>,
    branches: Vec<InvokeOutcome>,
}

impl Fanned {
    /// The error the body resumes with: the boundary's failure, else the
    /// first failed branch in target order.
    fn error(&self) -> Option<HostError> {
        if let Err(e) = &self.boundary {
            return Some(HostError::Storage(e.to_string()));
        }
        let failed = self.branches.iter().find_map(|outcome| outcome.as_ref().err());
        failed.map(|e| HostError::InvokeFailed(encode_error(e)))
    }

    /// What the body resumes with: one value per target, or the error.
    fn answer(self) -> Answer {
        match self.error() {
            Some(e) => Err(e),
            None => Ok(self.branches.into_iter().map(|b| b.expect("no branch failed")).collect()),
        }
    }
}

/// Which of a wave's outcomes a completion owes it ([`Wave::owe`]).
#[derive(Clone, Copy)]
enum Slot {
    Boundary,
    Branch(usize),
}

/// One outcome a wave is owed ([`Wave::owe`]), paid exactly once: with
/// the outcome, or — dropped unpaid, its completion lost (a hook that lost
/// `done`, an endpoint shut down) — with the lost-outcome error, so that
/// the wave's waiter is not left hanging.
struct Owed(Option<(Arc<Wave>, Slot)>);

impl Owed {
    fn pay(mut self, outcome: InvokeOutcome) {
        if let Some((wave, slot)) = self.0.take() {
            wave.record(slot, outcome);
        }
    }
}

impl Drop for Owed {
    fn drop(&mut self) {
        if let Some((wave, slot)) = self.0.take() {
            let lost = match slot {
                Slot::Branch(_) => InvokeError::Nested(BRANCH_LOST.into()),
                Slot::Boundary => InvokeError::Storage(LOST.into()),
            };
            wave.record(slot, Err(lost));
        }
    }
}

impl Wave {
    fn start(engine: &Engine, branches: usize, answering: bool) -> Arc<Wave> {
        let outcomes = Outcomes {
            boundary: Ok(()),
            answers: vec![None; branches],
            branches: vec![None; branches],
            owed: 0,
            then: None,
        };
        Arc::new(Wave {
            engine: engine.arc(),
            answering,
            guard: parking_lot::Mutex::new(None),
            state: parking_lot::Mutex::new(WaveState::Open { shipment: Vec::new(), led: false }),
            outcomes: parking_lot::Mutex::new(outcomes),
        })
    }

    /// Put the scatter's boundary commit at the front of the shipment.
    fn lead(&self, boundary: DeferredCommit) {
        if let WaveState::Open { shipment, led } = &mut *self.state.lock() {
            shipment.insert(0, boundary);
            *led = true;
        }
    }

    /// Leave branch `i`'s `commit` with the wave; a closed wave hands it
    /// back. The branch's `value` answers the body once its write set is in
    /// the open shipment.
    fn join(&self, commit: DeferredCommit, i: usize, value: VmValue) -> Option<DeferredCommit> {
        match &mut *self.state.lock() {
            WaveState::Open { shipment, .. } => {
                shipment.push(commit);
                self.outcomes.lock().answers[i].get_or_insert(Ok(value));
                None
            }
            WaveState::Behind(held) => {
                held.push(commit);
                None
            }
            WaveState::Closed => Some(commit),
        }
    }

    /// Close the shipment; what it collected is the caller's to ship.
    fn close(&self) -> Vec<DeferredCommit> {
        let mut state = self.state.lock();
        let WaveState::Open { shipment, led } = &mut *state else { return Vec::new() };
        let (shipment, led) = (std::mem::take(shipment), *led);
        *state = if led { WaveState::Behind(Vec::new()) } else { WaveState::Closed };
        shipment
    }

    /// The boundary has its outcome: what waited behind it is the
    /// caller's to ship.
    fn settle(&self) -> Vec<DeferredCommit> {
        let mut state = self.state.lock();
        let WaveState::Behind(late) = &mut *state else { return Vec::new() };
        let late = std::mem::take(late);
        *state = WaveState::Closed;
        late
    }

    /// After the issue loop: every branch's value, when the shipment is
    /// still open and each branch has answered with one — its write set in
    /// the shipment, or finished without one. A branch that failed is left
    /// to the wave's outcomes: the body then resumes with that error.
    fn answered(&self) -> Option<Vec<VmValue>> {
        let state = self.state.lock();
        if !matches!(*state, WaveState::Open { .. }) {
            return None;
        }
        let outcomes = self.outcomes.lock();
        outcomes.answers.iter().map(|answer| answer.clone()?.ok()).collect()
    }

    /// One more outcome the wave is owed.
    fn owe(self: &Arc<Self>, slot: Slot) -> Owed {
        self.outcomes.lock().owed += 1;
        Owed(Some((Arc::clone(self), slot)))
    }

    fn record(&self, slot: Slot, outcome: InvokeOutcome) {
        let fire = {
            let mut outcomes = self.outcomes.lock();
            match slot {
                Slot::Boundary => outcomes.boundary = outcome.map(drop),
                Slot::Branch(i) => {
                    outcomes.answers[i].get_or_insert_with(|| outcome.clone());
                    outcomes.branches[i] = Some(outcome);
                }
            }
            outcomes.owed -= 1;
            match outcomes.owed {
                0 => outcomes.then.take().map(|then| (then, outcomes.fanned())),
                _ => None,
            }
        };
        if let Slot::Boundary = slot {
            // What waited behind the boundary goes now, and so does the
            // caller's guard.
            self.engine.ship(self.settle());
            drop(self.guard.lock().take());
        }
        if let Some((then, fanned)) = fire {
            then(fanned);
        }
    }

    /// Run `then` with the outcomes once all of them are in: at once, on
    /// this thread, when they already are.
    fn then(&self, then: Box<dyn FnOnce(Fanned) + Send>) {
        let fanned = {
            let mut outcomes = self.outcomes.lock();
            if outcomes.owed > 0 {
                outcomes.then = Some(then);
                return;
            }
            outcomes.fanned()
        };
        then(fanned);
    }
}

impl Outcomes {
    /// Called once nothing is owed, so every branch has paid.
    fn fanned(&mut self) -> Fanned {
        let paid = |b: &mut Option<InvokeOutcome>| b.take().expect("every branch owes one outcome");
        Fanned {
            boundary: self.boundary.clone(),
            branches: self.branches.iter_mut().map(paid).collect(),
        }
    }
}

/// A branch commit's place in its scatter's wave: the wave, the branch's
/// index and its value, which answers the body once the write set is in
/// the open shipment.
type Seat = (Arc<Wave>, usize, VmValue);

/// The error of a wait — a parked join, or a body waiting on a commit —
/// whose completion was dropped unrun.
const LOST: &str = "replication ended without an outcome";

/// A scatter branch's error when its completion was dropped unrun.
const BRANCH_LOST: &str = "scatter branch ended without an outcome";

/// Hand `sets`, already applied locally, to `ship` as commits whose `done`s
/// report to this thread, and park until each has its outcome: a blocking
/// commit is the completion path plus this one join. The senders ride in
/// the `done`s, so a completion dropped unrun — its endpoint shut down —
/// ends the wait with an error instead of hanging it. Only for threads that
/// are provably not in the completion pool (DESIGN.md §10).
///
/// # Errors
/// The first failed set's hook error, or the lost-outcome one.
pub fn ship_and_join(
    ctx: &InvocationContext,
    sets: Vec<(ObjectId, WriteSetOps)>,
    ship: impl FnOnce(Vec<DeferredCommit>),
) -> Result<()> {
    debug_assert!(
        !ON_COMPLETION_THREAD.get(),
        "a blocking commit on a completion thread waits for itself"
    );
    debug_assert!(!in_method_body(), "a method body parks its thread");
    let (tx, rx) = channel::unbounded();
    let sent = sets.len();
    let commits = sets
        .into_iter()
        .map(|(object, ops)| {
            let tx = tx.clone();
            let done: CommitCallback = Box::new(move |acked| drop(tx.send(acked)));
            DeferredCommit { ctx: *ctx, object, ops, done, reply: None }
        })
        .collect();
    drop(tx);
    ship(commits);
    let acks: Vec<_> = (0..sent).map_while(|_| rx.recv().ok()).collect();
    if acks.len() < sent {
        return Err(InvokeError::Storage(LOST.into()));
    }
    acks.into_iter().collect()
}

/// Oldest-first (commit version, storage key) queue of one object's live
/// dedup records.
type DedupWindow = std::collections::VecDeque<(u64, Vec<u8>)>;

thread_local! {
    /// Set while this thread finishes a deferred commit — i.e. while it may
    /// be one of the RPC endpoint's completion threads, which must never
    /// park (DESIGN.md §10, the completion-pool rule).
    static ON_COMPLETION_THREAD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };

    /// The wave whose issue loop this thread is running, while it is open.
    static OPEN_WAVE: std::cell::RefCell<Option<Arc<Wave>>> =
        const { std::cell::RefCell::new(None) };

    /// The bodies this thread drives ([`Engine::advance`]), by
    /// [`Running::id`], each with the resume asked for it meanwhile.
    static DRIVING: std::cell::RefCell<Vec<(u64, Option<Resume>)>> =
        const { std::cell::RefCell::new(Vec::new()) };

    /// Set while a method body — bytecode or native — runs on this thread.
    static IN_BODY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// True while a method body runs on this thread. A body never parks: it
/// stops at a nested call and is resumed with the answer, so every parked
/// wait `debug_assert`s this is false.
pub fn in_method_body() -> bool {
    IN_BODY.get()
}

/// Run one step of a method body, marked for [`in_method_body`].
fn in_body<T>(step: impl FnOnce() -> T) -> T {
    let outer = IN_BODY.replace(true);
    let out = step();
    IN_BODY.set(outer);
    out
}

/// The one `WriteBatch` → [`WriteSetOps`] conversion: what a commit hook
/// (and through it every backup) is handed for a committed batch, and what
/// a raw write replicates.
pub fn write_set_ops(batch: &WriteBatch) -> WriteSetOps {
    batch
        .iter()
        .map(|op| match op {
            BatchOp::Put { key, value } => (key.clone(), Some(value.clone())),
            BatchOp::Delete { key } => (key.clone(), None),
        })
        .collect()
}

/// External mutations currently executing, keyed by `(object, invocation
/// id)`, each with the completions of the re-deliveries that arrived while
/// it ran.
type InflightMap = HashMap<(ObjectId, u64), Vec<InvokeCompletion>>;
type InflightTable = parking_lot::Mutex<InflightMap>;

/// The in-flight table, locked, at the entry of a first delivery that is
/// still running (the lock is what makes attaching race-free against that
/// delivery settling).
struct InFlight<'a> {
    table: parking_lot::MutexGuard<'a, InflightMap>,
    key: (ObjectId, u64),
}

impl InFlight<'_> {
    /// Have `waiter` completed with the first delivery's outcome.
    fn attach(mut self, waiter: InvokeCompletion) {
        self.table.get_mut(&self.key).expect("entry checked under this lock").push(waiter);
    }
}

/// Held by the first delivery of an external mutation from `resolve` until
/// its outcome is final; settling hands that outcome to every attached
/// re-delivery and frees the id (later re-deliveries find the dedup record).
struct InflightTicket {
    table: Arc<InflightTable>,
    /// Taken when the ticket settles.
    key: Option<(ObjectId, u64)>,
}

impl InflightTicket {
    fn settle(&mut self, outcome: &InvokeOutcome) {
        let Some(key) = self.key.take() else { return };
        let waiters = self.table.lock().remove(&key).unwrap_or_default();
        for waiter in waiters {
            waiter(outcome.clone());
        }
    }
}

impl Drop for InflightTicket {
    /// A ticket dropped unsettled (its invocation's continuation was
    /// discarded, e.g. at shutdown) must not strand the attached waiters.
    fn drop(&mut self) {
        if self.key.is_some() {
            self.settle(&Err(InvokeError::Nested(
                "in-flight delivery ended without an outcome".into(),
            )));
        }
    }
}

/// What [`Engine::resolve`] decided for one invocation.
enum Resolved<'a> {
    /// Served from the consistent cache.
    Hit(VmValue),
    /// A first delivery of this external mutation is still running.
    InFlight(InFlight<'a>),
    /// Run the method once the scheduler grants the object.
    Run(Call),
}

/// A resolved invocation waiting for its object.
struct Call {
    ctx: InvocationContext,
    object: ObjectId,
    ty: Arc<ObjectType>,
    method: String,
    args: Vec<VmValue>,
    depth: usize,
    read_only: bool,
    cacheable: bool,
    /// A client-facing (depth-0, external) invocation: its value is the
    /// client's answer.
    answers: bool,
    /// `Some` exactly for external mutations carrying an invocation id —
    /// the ones the dedup window remembers.
    ticket: Option<InflightTicket>,
}

/// Settle `ticket` with `outcome` and answer `done`.
fn answer(ticket: Option<InflightTicket>, done: InvokeCompletion, outcome: InvokeOutcome) {
    if let Some(mut ticket) = ticket {
        ticket.settle(&outcome);
    }
    done(outcome);
}

/// A granted invocation from its body's start to its finish. It holds no
/// thread: between steps it waits in a wave's continuation, a lock's
/// queue, or the slot of the [`Engine::advance`] that still drives it.
struct Running {
    /// This body's own number, unique in the process.
    id: u64,
    call: Call,
    /// The scatter's wave and the branch's index, for a scatter branch.
    branch: Option<(Arc<Wave>, usize)>,
    done: InvokeCompletion,
    host: ObjectHost,
    exec_start: Instant,
    /// The last scatter's wave, while the body runs on ahead of its acks.
    held: Option<Arc<Wave>>,
}

/// A body's answer to a nested call.
type Answer = std::result::Result<Vec<VmValue>, HostError>;

/// A body and the answer it is to resume with.
type Resume = (Running, Suspended, Answer);

/// Answer a body's nested call and run it on: one step, on this thread.
pub(crate) fn resume_body(body: Suspended, answer: Answer, host: &mut ObjectHost) -> Result<Step> {
    in_body(|| body.resume(answer, host)).map_err(InvokeError::from)
}

/// What a mutating invocation carries across its commit.
struct Tail {
    value: VmValue,
    guard: Option<ObjectGuard>,
    ticket: Option<InflightTicket>,
}

/// A write set ready to commit: version already bumped.
struct PendingCommit {
    ctx: InvocationContext,
    object: ObjectId,
    batch: WriteBatch,
    /// Every key the commit changes (written keys + the version key).
    touched: Vec<Vec<u8>>,
}

/// The LambdaObjects execution engine of one storage node.
pub struct Engine {
    /// The owning `Arc`, for completions that outlive a call frame: every
    /// engine is built by [`Engine::with_registry`] inside one.
    me: Weak<Engine>,
    db: Db,
    types: Arc<TypeRegistry>,
    cache: ConsistentCache,
    cache_enabled: bool,
    scheduler: Scheduler,
    interpreter: Interpreter,
    router: parking_lot::RwLock<Option<Arc<dyn InvokeRouter>>>,
    commit_hook: parking_lot::RwLock<Option<Arc<dyn CommitHook>>>,
    /// Per-object dedup-record eviction order, oldest first. Purely an
    /// index over what is already in storage (lazily rebuilt on first
    /// touch), so that retiring old records on the hot path does not
    /// re-scan the dedup prefix — which walks one tombstone per record
    /// ever retired and turns sustained single-object load quadratic.
    dedup_windows: parking_lot::Mutex<std::collections::BTreeMap<ObjectId, DedupWindow>>,
    inflight: Arc<InflightTable>,
    max_depth: usize,
    registry: Arc<Registry>,
    invocations: Counter,
    aborts: Counter,
    nested_calls: Counter,
    commits: Counter,
    cache_hits: Counter,
    duplicates_suppressed: Counter,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine").field("types", &self.types.type_names()).finish()
    }
}

impl Engine {
    /// Build an engine over an open database with a private telemetry
    /// registry.
    pub fn new(db: Db, types: Arc<TypeRegistry>, config: EngineConfig) -> Arc<Engine> {
        Engine::with_registry(db, types, config, Registry::shared())
    }

    /// Build an engine that reports through `registry` — the node-wide
    /// registry shared with the kv layer and the RPC handler, so
    /// `EngineStats`, `SchedulerStats` and the node's wire stats are all
    /// views over one set of cells.
    pub fn with_registry(
        db: Db,
        types: Arc<TypeRegistry>,
        config: EngineConfig,
        registry: Arc<Registry>,
    ) -> Arc<Engine> {
        Arc::new_cyclic(|me| Engine {
            me: me.clone(),
            db,
            types,
            cache: ConsistentCache::new(config.cache_capacity),
            cache_enabled: config.cache_capacity > 0,
            scheduler: Scheduler::with_registry(&registry),
            interpreter: Interpreter::new(config.limits),
            router: parking_lot::RwLock::new(None),
            commit_hook: parking_lot::RwLock::new(None),
            dedup_windows: parking_lot::Mutex::new(std::collections::BTreeMap::new()),
            inflight: Arc::default(),
            max_depth: config.max_depth,
            invocations: registry.counter("eng_invocations"),
            aborts: registry.counter("eng_aborts"),
            nested_calls: registry.counter("eng_nested_calls"),
            commits: registry.counter("eng_commits"),
            cache_hits: registry.counter("eng_cache_hits"),
            duplicates_suppressed: registry.counter("eng_duplicates_suppressed"),
            registry,
        })
    }

    fn arc(&self) -> Arc<Engine> {
        self.me.upgrade().expect("an engine in use is owned by its Arc")
    }

    /// The telemetry registry this engine reports through.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Install the cross-shard router (LambdaStore does this at startup).
    pub fn set_router(&self, router: Arc<dyn InvokeRouter>) {
        *self.router.write() = Some(router);
    }

    /// Install the replication hook (LambdaStore does this at startup).
    pub fn set_commit_hook(&self, hook: Arc<dyn CommitHook>) {
        *self.commit_hook.write() = Some(hook);
    }

    /// The installed hook together with the write set it will be handed,
    /// converted before `batch` moves into the kv write (`None` without a
    /// hook: nothing to convert for).
    fn hooked(&self, batch: &WriteBatch) -> Option<(Arc<dyn CommitHook>, WriteSetOps)> {
        let hook = self.commit_hook.read().clone()?;
        Some((hook, write_set_ops(batch)))
    }

    /// Apply write sets produced on another node (the backup side of
    /// replication, or a state-transfer forward): all entries land in
    /// **one** storage batch — atomically and in commit order — bypassing
    /// the commit hook, under exclusive guards for every touched object.
    ///
    /// Guards are acquired in sorted object order so concurrent window
    /// appliers cannot deadlock; windows for different shards touch
    /// disjoint objects anyway, but sorting removes the assumption.
    ///
    /// # Errors
    /// Storage failures (the whole window fails together; nothing applied).
    pub fn apply_replicated_batch(&self, entries: &[(ObjectId, WriteSetOps)]) -> Result<()> {
        let mut objects: Vec<&ObjectId> = entries.iter().map(|(o, _)| o).collect();
        objects.sort();
        objects.dedup();
        let _guards: Vec<_> = objects.iter().map(|o| self.scheduler.acquire_exclusive(o)).collect();

        let mut batch = WriteBatch::new();
        let mut keys: Vec<&[u8]> = Vec::new();
        for (key, value) in entries.iter().flat_map(|(_, ops)| ops) {
            keys.push(key);
            match value {
                Some(v) => batch.put(key.clone(), v.clone()),
                None => batch.delete(key.clone()),
            };
        }
        if batch.is_empty() {
            return Ok(());
        }
        self.db.write(batch)?;
        self.cache.invalidate_keys(keys);
        for object in objects {
            self.forget_dedup_window(object);
        }
        Ok(())
    }

    /// The underlying database (used by replication and migration).
    pub fn db(&self) -> &Db {
        &self.db
    }

    /// The type registry.
    pub fn types(&self) -> &TypeRegistry {
        &self.types
    }

    // -- Object lifecycle ---------------------------------------------------

    /// Instantiate an object of `type_name` with initial scalar fields.
    ///
    /// # Errors
    /// [`InvokeError::UnknownType`] / [`InvokeError::AlreadyExists`], plus
    /// storage failures.
    pub fn create_object(
        &self,
        type_name: &str,
        id: &ObjectId,
        fields: &[(&str, &[u8])],
    ) -> Result<()> {
        if self.types.get(type_name).is_none() {
            return Err(InvokeError::UnknownType(type_name.to_string()));
        }
        let _guard = self.scheduler.acquire_exclusive(id);
        if self.db.get(&keys::meta_key(id))?.is_some() {
            return Err(InvokeError::AlreadyExists(id.to_string()));
        }
        let mut batch = WriteBatch::new();
        batch.put(keys::meta_key(id), type_name.as_bytes().to_vec());
        for (field, value) in fields {
            batch.put(keys::field_key(id, field.as_bytes()), value.to_vec());
        }
        self.write_and_replicate(std::slice::from_ref(id), batch)
    }

    /// Apply `batch` outside any invocation — a create, a delete, a
    /// transaction — and park until it is replicated: one write set per
    /// object of `objects` that `batch` writes, handed to the hook in one
    /// call so that they ship together ([`ship_and_join`]), timed as a
    /// `replicate` span. The `Err` is the local write's failure or
    /// replication's. Never called on a completion thread.
    pub(crate) fn write_and_replicate(
        &self,
        objects: &[ObjectId],
        batch: WriteBatch,
    ) -> Result<()> {
        let hooked = self.hooked(&batch);
        self.db.write(batch)?;
        let Some((hook, ops)) = hooked else { return Ok(()) };
        let sets = objects
            .iter()
            .filter_map(|object| {
                let prefix = keys::object_prefix(object);
                let own: WriteSetOps =
                    ops.iter().filter(|(key, _)| key.starts_with(&prefix)).cloned().collect();
                (!own.is_empty()).then(|| (object.clone(), own))
            })
            .collect();
        let ctx = InvocationContext::background();
        let start = Instant::now();
        let replicated = ship_and_join(&ctx, sets, |commits| hook.on_commit(commits));
        self.registry.record_span(ctx.trace_id, Stage::Replicate, start.elapsed());
        replicated
    }

    /// True when `id` exists on this node.
    pub fn object_exists(&self, id: &ObjectId) -> bool {
        matches!(self.db.get(&keys::meta_key(id)), Ok(Some(_)))
    }

    /// The type name of `id`: from the cache's type memo, else from its
    /// meta key, which then fills the memo.
    ///
    /// # Errors
    /// [`InvokeError::UnknownObject`] when absent.
    pub fn object_type_name(&self, id: &ObjectId) -> Result<String> {
        let miss = match self.cache.type_of(id) {
            Ok(name) => return Ok(name),
            Err(miss) => miss,
        };
        match self.db.get(&keys::meta_key(id))? {
            Some(bytes) => {
                let name = String::from_utf8_lossy(&bytes).into_owned();
                self.cache.record_type(id, &name, miss);
                Ok(name)
            }
            None => Err(InvokeError::UnknownObject(id.to_string())),
        }
    }

    /// Remove an object and all its data.
    ///
    /// # Errors
    /// Storage failures; deleting a missing object is a no-op.
    pub fn delete_object(&self, id: &ObjectId) -> Result<()> {
        let _guard = self.scheduler.acquire_exclusive(id);
        let prefix = keys::object_prefix(id);
        let mut batch = WriteBatch::new();
        for (key, _) in self.db.scan_prefix(&prefix) {
            batch.delete(key);
        }
        let deleted = if batch.is_empty() {
            Ok(())
        } else {
            self.write_and_replicate(std::slice::from_ref(id), batch)
        };
        // Whether or not replication acked, the local copy may be gone.
        self.cache.invalidate_object(id);
        self.forget_dedup_window(id);
        deleted
    }

    /// Enumerate every object stored on this node (admin/rebalancing use;
    /// scans the meta keys).
    pub fn list_objects(&self) -> Vec<ObjectId> {
        self.db
            .scan_prefix(b"o")
            .filter_map(|(key, _)| keys::meta_owner(&key).map(ObjectId::new))
            .collect()
    }

    /// The commit version of `id` (0 before its first mutating commit).
    pub fn object_version(&self, id: &ObjectId) -> u64 {
        self.db
            .get(&keys::version_key(id))
            .ok()
            .flatten()
            .and_then(|v| v.try_into().ok())
            .map(u64::from_le_bytes)
            .unwrap_or(0)
    }

    // -- Invocation ----------------------------------------------------------
    //
    // Four steps — `resolve`, `execute_granted` (and the body's steps to
    // `finish`), `commit_deferred`, `finish_completed` — hold every
    // decision, and `invoke_deferred_at` is the one path through them;
    // `invoke_ctx` parks for its outcome.

    /// Invoke a public method from outside (a client request) under a
    /// fresh unbounded context.
    ///
    /// # Errors
    /// Any [`InvokeError`]; on error no writes were applied (beyond those
    /// committed by nested-call boundaries per §3.1).
    pub fn invoke(&self, object: &ObjectId, method: &str, args: Vec<VmValue>) -> Result<VmValue> {
        self.invoke_ctx(&InvocationContext::background(), object, method, args, true, 0)
    }

    /// Invoke under an explicit [`InvocationContext`], parking this thread
    /// for the outcome: [`Engine::invoke_deferred`] at nesting depth
    /// `depth` (0 for client-facing calls) plus one join. The queue wait,
    /// method execution, kv commit and replication fan-out are each
    /// recorded as a span against `ctx.trace_id`, and an invocation whose
    /// deadline expires while queued is shed before execution with
    /// [`InvokeError::DeadlineExceeded`]. `external` enforces the `public`
    /// flag. Never call it on a completion thread (DESIGN.md §10): the join
    /// would wait for itself.
    ///
    /// # Errors
    /// Any [`InvokeError`]; a `Storage` error when the outcome was lost
    /// (a completion dropped unrun).
    pub fn invoke_ctx(
        &self,
        ctx: &InvocationContext,
        object: &ObjectId,
        method: &str,
        args: Vec<VmValue>,
        external: bool,
        depth: usize,
    ) -> Result<VmValue> {
        debug_assert!(
            !ON_COMPLETION_THREAD.get(),
            "a blocking invoke on a completion thread waits for itself"
        );
        debug_assert!(!in_method_body(), "a method body parks its thread");
        let (tx, rx) = channel::bounded(1);
        let done: InvokeCompletion = Box::new(move |outcome| drop(tx.send(outcome)));
        self.arc().invoke_deferred_at(ctx, object, method, args, external, depth, None, done);
        rx.recv().unwrap_or_else(|_| Err(InvokeError::Storage(LOST.into())))
    }

    /// Invoke without parking this thread: `done` runs exactly once with
    /// the invocation's outcome, on whichever thread drives the final step
    /// — inline when everything is free, the lock-releasing thread when
    /// the invocation queued behind the object, the group-commit leader's
    /// thread after the kv write, or the replication ack thread when the
    /// commit hook defers.
    ///
    /// The one path every invocation takes, so the same cache, dedup,
    /// scheduling, span and counter behaviour for all. The method body
    /// parks no thread either: at a nested call — a single `host.invoke` is
    /// a scatter of one — it stops, and resumes on whichever thread brings
    /// the call's answer ([`Engine::nest`]).
    pub fn invoke_deferred(
        self: &Arc<Self>,
        ctx: &InvocationContext,
        object: &ObjectId,
        method: &str,
        args: Vec<VmValue>,
        external: bool,
        done: InvokeCompletion,
    ) {
        self.invoke_deferred_at(ctx, object, method, args, external, 0, None, done);
    }

    /// [`Engine::invoke_deferred`] at nesting depth `depth`; with `branch`,
    /// as that branch of a scatter's wave.
    #[allow(clippy::too_many_arguments)]
    fn invoke_deferred_at(
        self: &Arc<Self>,
        ctx: &InvocationContext,
        object: &ObjectId,
        method: &str,
        args: Vec<VmValue>,
        external: bool,
        depth: usize,
        branch: Option<(Arc<Wave>, usize)>,
        done: InvokeCompletion,
    ) {
        let call = match self.resolve(ctx, object, method, args, external, depth) {
            Err(e) => return done(Err(e)),
            Ok(Resolved::Hit(value)) => return done(Ok(value)),
            Ok(Resolved::InFlight(first)) => return first.attach(done),
            Ok(Resolved::Run(call)) => call,
        };
        let this = Arc::clone(self);
        let (object, exclusive) = (call.object.clone(), !call.read_only);
        let queue_start = Instant::now();
        let granted = move |granted| this.execute_granted(call, queue_start, granted, branch, done);
        self.scheduler.acquire_deferred(&object, exclusive, ctx, Box::new(granted));
    }

    /// The type of `object` and the metadata of `method` on it, refusing
    /// non-public methods to `external` callers.
    pub(crate) fn resolve_method(
        &self,
        object: &ObjectId,
        method: &str,
        external: bool,
    ) -> Result<(Arc<ObjectType>, MethodMeta)> {
        let name = self.object_type_name(object)?;
        let ty = self.types.get(&name).ok_or(InvokeError::UnknownType(name))?;
        let meta =
            ty.method_meta(method).ok_or_else(|| InvokeError::UnknownMethod(method.to_string()))?;
        if external && !meta.public {
            return Err(InvokeError::NotPublic(method.to_string()));
        }
        Ok((ty, meta))
    }

    /// Step 1, before any lock: everything that can be decided from the
    /// type registry, the result cache and the in-flight table.
    fn resolve(
        &self,
        ctx: &InvocationContext,
        object: &ObjectId,
        method: &str,
        args: Vec<VmValue>,
        external: bool,
        depth: usize,
    ) -> Result<Resolved<'_>> {
        if depth >= self.max_depth {
            return Err(InvokeError::DepthExceeded);
        }
        let (ty, meta) = self.resolve_method(object, method, external)?;
        let cacheable = self.cache_enabled && meta.read_only && meta.deterministic;
        if cacheable {
            // Plain O(1) lookup: every write path invalidates eagerly, so
            // resident entries are valid by construction (§4.2.2).
            if let Some(hit) = self.cache.lookup(object, method, &args) {
                self.cache_hits.incr();
                self.invocations.incr();
                return Ok(Resolved::Hit(hit));
            }
        }
        // Exactly-once, first half: an external mutation that carries an
        // invocation id claims its id for as long as it runs. The object
        // guard cannot do this — it is released around nested calls — so a
        // re-delivery arriving mid-fan-out would find no dedup record yet
        // and fan out a second time. It attaches to the first delivery
        // instead and is answered with that delivery's outcome.
        let mut ticket = None;
        if external && !meta.read_only && ctx.invocation_id != 0 {
            let key = (object.clone(), ctx.invocation_id);
            let mut table = self.inflight.lock();
            if table.contains_key(&key) {
                self.duplicates_suppressed.incr();
                return Ok(Resolved::InFlight(InFlight { table, key }));
            }
            table.insert(key.clone(), Vec::new());
            ticket = Some(InflightTicket { table: Arc::clone(&self.inflight), key: Some(key) });
        }
        Ok(Resolved::Run(Call {
            ctx: *ctx,
            object: object.clone(),
            ty,
            method: method.to_string(),
            args,
            depth,
            read_only: meta.read_only,
            cacheable,
            answers: depth == 0 && external,
            ticket,
        }))
    }

    /// Step 2, on the thread that was granted the object: dedup replay,
    /// then the method body's first step.
    fn execute_granted(
        self: &Arc<Self>,
        call: Call,
        queue_start: Instant,
        granted: Result<ObjectGuard>,
        branch: Option<(Arc<Wave>, usize)>,
        done: InvokeCompletion,
    ) {
        // The scheduler re-checks the deadline at dequeue and sheds
        // expired work here — before any execute/commit cycles are spent.
        let guard = match granted {
            Ok(guard) => guard,
            Err(e) => {
                self.aborts.incr();
                return answer(call.ticket, done, Err(e));
            }
        };
        self.registry.record_span(call.ctx.trace_id, Stage::Queue, queue_start.elapsed());

        // Exactly-once, second half: a redelivered mutation (the client
        // re-sent after a lost ack) whose invocation id is still in the
        // object's dedup window is answered from the recorded result
        // without re-executing. Checked under the object guard, so the
        // first delivery's commit is fully visible here.
        if call.ticket.is_some() {
            if let Some(replayed) = self.replayed(&call.object, call.ctx.invocation_id).transpose()
            {
                drop(guard);
                if replayed.is_ok() {
                    self.invocations.incr();
                }
                return answer(call.ticket, done, replayed);
            }
        }

        let (object, seq) = (call.object.clone(), self.db.last_sequence());
        let mut host = ObjectHost::new(
            self.db.clone(),
            object,
            seq,
            call.read_only,
            call.cacheable,
            Some(guard),
        );
        // Execute span: the method body from its start to its return
        // (nested calls and their commits run inside it; their own spans
        // break that down).
        let exec_start = Instant::now();
        let step = self.start_body(&call.ty, &call.method, call.args.clone(), &mut host);
        static BODIES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let id = BODIES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let running = Running { id, call, branch, done, host, exec_start, held: None };
        self.advance(running, step);
    }

    /// Start `method`'s body on `host`: bytecode through the metered VM,
    /// native code directly; one step, to its return or first nested call.
    pub(crate) fn start_body(
        &self,
        ty: &ObjectType,
        method: &str,
        args: Vec<VmValue>,
        host: &mut ObjectHost,
    ) -> Result<Step> {
        in_body(|| match &ty.methods {
            MethodSet::Bytecode(module) => {
                self.interpreter.start(Arc::clone(module), method, args, host)
            }
            MethodSet::Native(reg) => reg.start(method, args, host),
        })
        .map_err(InvokeError::from)
    }

    /// Drive a body from one of its steps: a returned body finishes, and a
    /// nested call its host answers at once, or one answered before it
    /// returns ([`Engine::resume`]), resumes it in this loop — so a body
    /// whose calls are all answered that way does not grow the stack call
    /// by call. Any other call leaves it waiting ([`Engine::nest`]).
    fn advance(self: &Arc<Self>, running: Running, step: Result<Step>) {
        DRIVING.with_borrow_mut(|driving| driving.push((running.id, None)));
        let mut next = Some((running, step));
        while let Some((running, step)) = next {
            match step {
                Err(e) => self.finish_body(running, Err(e)),
                Ok(Step::Done(value, _)) => self.finish_body(running, Ok(value)),
                Ok(Step::Suspended(body)) => {
                    match running.host.answer_at_once(&body.call().targets) {
                        Some(answer) => self.resume(running, body, answer),
                        None => self.nest(running, body),
                    }
                }
            }
            let resumed = DRIVING.with_borrow_mut(|driving| driving.last_mut()?.1.take());
            next = resumed.map(|(mut running, body, answer)| {
                let step = resume_body(body, answer, &mut running.host);
                (running, step)
            });
        }
        DRIVING.with_borrow_mut(Vec::pop);
    }

    /// Answer the body's nested call and drive it on, on this thread. A
    /// body still driven here — its call answered before it returned —
    /// goes on in its own [`Engine::advance`] once the call has returned.
    fn resume(self: &Arc<Self>, running: Running, body: Suspended, answer: Answer) {
        let resume = DRIVING.with_borrow_mut(|driving| {
            match driving.iter_mut().find(|(id, _)| *id == running.id) {
                Some((_, slot)) => *slot = Some((running, body, answer)),
                None => return Some((running, body, answer)),
            }
            None
        });
        if let Some((mut running, body, answer)) = resume {
            let step = resume_body(body, answer, &mut running.host);
            self.advance(running, step);
        }
    }

    /// [`Engine::resume`] once the body's object is granted again. Never
    /// shed: the lock was the body's own before its nested call.
    fn resume_granted(self: &Arc<Self>, running: Running, body: Suspended, answer: Answer) {
        let (engine, object) = (Arc::clone(self), running.call.object.clone());
        let granted = move |granted: Result<ObjectGuard>| {
            let mut running = running;
            running.host.resume_with(Some(granted.expect("a grant without a deadline")));
            engine.resume(running, body, answer);
        };
        let unbounded = InvocationContext::background();
        self.scheduler.acquire_deferred(&object, true, &unbounded, Box::new(granted));
    }

    /// The body returned or failed. One that ran on ahead of its last
    /// scatter's acks finishes on that wave's outcomes: a successful
    /// return with no final part puts its answer on the boundary, the
    /// shipment's front, and the wave ships; then a failed boundary or
    /// branch fails the invocation as the body would have failed had it
    /// resumed on it, and its final part is discarded unwritten, so no
    /// dedup record keeps an answer the client never got.
    fn finish_body(self: &Arc<Self>, mut running: Running, outcome: Result<VmValue>) {
        let trace_id = running.call.ctx.trace_id;
        self.registry.record_span(trace_id, Stage::Execute, running.exec_start.elapsed());
        let Some(wave) = running.held.take() else { return self.finish(running, outcome) };
        let mut shipment = wave.close();
        if let (Ok(value), Some(boundary)) = (&outcome, shipment.first_mut()) {
            if running.host.buffer.is_clean() {
                boundary.reply = Some(value.clone());
            }
        }
        let engine = Arc::clone(self);
        wave.then(Box::new(move |fanned| {
            let outcome = fanned.error().map_or(outcome, |e| Err(e.into()));
            engine.finish(running, outcome);
        }));
        self.ship(shipment);
    }

    /// The body's outcome is final: a failure aborts, a write set commits
    /// (step 3) and then finishes, and a read inserts its result into the
    /// cache.
    fn finish(self: &Arc<Self>, running: Running, outcome: Result<VmValue>) {
        let Running { call, branch, done, mut host, .. } = running;
        let Call { ctx, object, method, args, read_only, cacheable, answers, ticket, .. } = call;
        let value = match outcome {
            Ok(value) => value,
            Err(e) => {
                host.buffer.discard();
                drop(host);
                self.aborts.incr();
                return answer(ticket, done, Err(unwrap_nested(e)));
            }
        };
        debug_assert!(!read_only || host.buffer.is_clean(), "read-only invocation buffered writes");
        if !host.buffer.is_clean() {
            let written = host.buffer.written_keys();
            let mut batch = host.buffer.take_batch();
            if ticket.is_some() {
                // The record joins the invocation's own write set, so one
                // atomic commit makes the effects and the memory of them
                // durable together — and the same ops replicate to
                // backups, preserving exactly-once across failover.
                self.append_dedup_record(&object, ctx.invocation_id, &value, &mut batch);
            }
            let pending = self.pending_commit(&ctx, &object, batch, written);
            // The guard outlives the host: it is held through commit and
            // replication and released wherever the invocation finishes.
            let tail = Tail { value, guard: host.guard.take(), ticket };
            drop(host);
            // A client-facing invocation's last commit knows its answer.
            let reply = answers.then(|| tail.value.clone());
            // A branch in a wave answers the body with its value.
            let seat = branch.map(|(wave, i)| (wave, i, tail.value.clone()));
            let engine = Arc::clone(self);
            let committed =
                Box::new(move |committed| engine.finish_completed(tail, committed, done));
            return self.commit_deferred(pending, seat, reply, committed);
        }
        // The insert happens while the object guard is still held: a
        // concurrent exclusive apply (replication landing this object's
        // next write) is then ordered entirely before or after this read —
        // never between its snapshot and its cache insert, which is the
        // window where a stale result could be recorded *after* the
        // apply's eager invalidation already ran and serve trusted hits
        // forever after.
        let read_set = cacheable.then(|| host.buffer.read_set());
        let guard = host.guard.take();
        drop(host);
        self.invocations.incr();
        if let Some(read_set) = read_set {
            self.cache.insert(&object, &method, &args, value.clone(), read_set);
        }
        drop(guard);
        answer(ticket, done, Ok(value));
    }

    /// Step 4, from the commit's completion: a mutating invocation's write
    /// set has committed (or failed to): count it, release the object, and
    /// answer everyone waiting. Releasing the object grants the next queued
    /// invocation, on this thread: mark it for what it is.
    fn finish_completed(&self, tail: Tail, committed: Result<()>, done: InvokeCompletion) {
        let Tail { value, guard, ticket } = tail;
        let outcome = committed.map(|()| value);
        if outcome.is_ok() {
            self.invocations.incr();
        }
        let outer = ON_COMPLETION_THREAD.replace(true);
        drop(guard);
        ON_COMPLETION_THREAD.set(outer);
        answer(ticket, done, outcome);
    }

    // -- Commit (step 3) -----------------------------------------------------

    /// Stamp `object`'s next commit version into `batch`; returns the
    /// version key, which the commit invalidates along with what it wrote.
    pub(crate) fn bump_version(&self, object: &ObjectId, batch: &mut WriteBatch) -> Vec<u8> {
        let vkey = keys::version_key(object);
        let version = self.object_version(object) + 1;
        batch.put(vkey.clone(), version.to_le_bytes().to_vec());
        vkey
    }

    /// Turn an invocation's write set into a commit: called under the
    /// object's guard, right before it commits.
    fn pending_commit(
        &self,
        ctx: &InvocationContext,
        object: &ObjectId,
        mut batch: WriteBatch,
        mut touched: Vec<Vec<u8>>,
    ) -> PendingCommit {
        touched.push(self.bump_version(object, &mut batch));
        PendingCommit { ctx: *ctx, object: object.clone(), batch, touched }
    }

    /// Commit without parking: hand the batch to the deferred group
    /// commit, then (on the committing thread) start the hook's deferred
    /// fan-out — or leave the write set with the scatter's wave at `seat` —
    /// and `done` runs wherever the last of them completes. The kv write is
    /// the invocation's `commit` span, the hook call its `replicate` span.
    /// `reply` is the invocation's answer when this is the last commit of
    /// a client-facing one ([`DeferredCommit::reply`]).
    fn commit_deferred(
        self: &Arc<Self>,
        pending: PendingCommit,
        seat: Option<Seat>,
        reply: Option<VmValue>,
        done: Box<dyn FnOnce(Result<()>) + Send>,
    ) {
        let PendingCommit { ctx, object, batch, touched } = pending;
        let hooked = self.hooked(&batch);
        let this = Arc::clone(self);
        let commit_start = Instant::now();
        self.db.write_deferred(
            batch,
            Box::new(move |written| {
                this.registry.record_span(ctx.trace_id, Stage::Commit, commit_start.elapsed());
                if let Err(e) = written {
                    return done(Err(e.into()));
                }
                let Some((hook, ops)) = hooked else {
                    return done(this.finish_commit(&touched, Ok(())));
                };
                if reply.is_some() || seat.as_ref().is_some_and(|(wave, ..)| wave.answering) {
                    // The client may hear the outcome from the backups
                    // before the ack comes back here: what this node
                    // caches over the write must be gone by then.
                    this.cache.invalidate_keys(touched.iter().map(Vec::as_slice));
                }
                let engine = Arc::clone(&this);
                let done: CommitCallback = Box::new(move |replicated| {
                    done(engine.finish_commit(&touched, replicated));
                });
                let commit = DeferredCommit { ctx, object, ops, done, reply };
                let alone = match seat {
                    Some((wave, i, value)) => wave.join(commit, i, value),
                    None => Some(commit),
                };
                if let Some(commit) = alone {
                    let done = this.timed_replicate(&commit.ctx, commit.done);
                    hook.on_commit(vec![DeferredCommit { done, ..commit }]);
                }
            }),
        );
    }

    /// `done` behind the commit's `replicate` span. The span is the hook's
    /// time: its clock starts here, right before the hook is called.
    fn timed_replicate(
        self: &Arc<Self>,
        ctx: &InvocationContext,
        done: CommitCallback,
    ) -> CommitCallback {
        let (engine, trace_id) = (Arc::clone(self), ctx.trace_id);
        let replicate_start = Instant::now();
        Box::new(move |replicated| {
            engine.registry.record_span(trace_id, Stage::Replicate, replicate_start.elapsed());
            done(replicated);
        })
    }

    /// Close the wave this thread is issuing, if any, and ship it.
    fn ship_open_wave(&self) {
        if let Some(wave) = OPEN_WAVE.take() {
            self.ship(wave.close());
        }
    }

    /// Hand `commits` to the commit hook in one call, each behind its
    /// `replicate` span (write sets exist only with a hook installed).
    fn ship(&self, commits: Vec<DeferredCommit>) {
        if commits.is_empty() {
            return;
        }
        let this = self.arc();
        let commits = commits
            .into_iter()
            .map(|c| DeferredCommit { done: this.timed_replicate(&c.ctx, c.done), ..c })
            .collect();
        if let Some(hook) = self.commit_hook.read().clone() {
            hook.on_commit(commits);
        }
    }

    /// Commit a scatter's boundary, then run `then`: with `Ok(true)` when
    /// it rides in `wave` — the kv write happens here, ahead of every
    /// branch's, the write set leads the wave's shipment, and the caller's
    /// guard waits in the wave for the boundary's outcome. Otherwise the
    /// commit takes the one commit path and `then` runs from its ack, the
    /// guard released first (an ack lost unrun drops `then`, and the body
    /// with it, as it would drop an invocation's own last commit's
    /// completion); an empty boundary just releases it. The
    /// riding write may run on a completion thread: it waits only for a kv
    /// group leader, never for the completion pool (DESIGN.md §10).
    fn commit_boundary(
        self: &Arc<Self>,
        ctx: &InvocationContext,
        boundary: Boundary,
        wave: Option<&Arc<Wave>>,
        then: impl FnOnce(Result<bool>) + Send + 'static,
    ) {
        let Boundary { source, batch, written_keys, guard } = boundary;
        if batch.is_empty() {
            drop(guard);
            return then(Ok(false));
        }
        let pending = self.pending_commit(ctx, &source, batch, written_keys);
        let riding = wave.and_then(|wave| Some((wave, self.hooked(&pending.batch)?)));
        let Some((wave, (_, ops))) = riding else {
            let acked = Box::new(move |committed: Result<()>| {
                drop(guard);
                then(committed.map(|()| false));
            });
            return self.commit_deferred(pending, None, None, acked);
        };
        let PendingCommit { ctx, object, batch, touched } = pending;
        let commit_start = Instant::now();
        if let Err(e) = self.db.write(batch) {
            drop(guard);
            return then(Err(e.into()));
        }
        self.registry.record_span(ctx.trace_id, Stage::Commit, commit_start.elapsed());
        if wave.answering {
            // As in `commit_deferred`: the answer may leave with the wave.
            self.cache.invalidate_keys(touched.iter().map(Vec::as_slice));
        }
        *wave.guard.lock() = guard;
        let owed = wave.owe(Slot::Boundary);
        let engine = self.arc();
        let done: CommitCallback = Box::new(move |replicated| {
            // As in `finish_completed`: releasing the object grants the
            // next queued invocation on this thread.
            let outer = ON_COMPLETION_THREAD.replace(true);
            owed.pay(engine.finish_commit(&touched, replicated).map(|()| VmValue::Unit));
            ON_COMPLETION_THREAD.set(outer);
        });
        wave.lead(DeferredCommit { ctx, object, ops, done, reply: None });
        then(Ok(true));
    }

    /// The local write is applied: invalidate what it touched — whether or
    /// not replication acked, resident results over those keys are stale —
    /// and count the commit once its replication outcome is in.
    pub(crate) fn finish_commit(&self, touched: &[Vec<u8>], replicated: Result<()>) -> Result<()> {
        self.cache.invalidate_keys(touched.iter().map(Vec::as_slice));
        replicated?;
        self.commits.incr();
        Ok(())
    }

    /// Add a dedup record for `invocation_id` to `batch` and evict the
    /// oldest records beyond [`DEDUP_WINDOW`] in the same batch. Runs under
    /// the object's guard, right before the commit that bumps the version.
    ///
    /// Eviction order comes from the in-memory [`Engine::dedup_windows`]
    /// index, lazily rebuilt from storage on first touch (fresh
    /// primaryship, restart). Re-scanning the dedup prefix here instead
    /// would walk one tombstone per record ever retired — O(the object's
    /// whole mutation history) per write until compaction catches up,
    /// which decays hot-object throughput the longer it stays hot.
    pub(crate) fn append_dedup_record(
        &self,
        object: &ObjectId,
        invocation_id: u64,
        result: &VmValue,
        batch: &mut WriteBatch,
    ) {
        let version = self.object_version(object) + 1;
        let encoded = result.encode();
        let mut value = Vec::with_capacity(8 + encoded.len());
        value.extend_from_slice(&version.to_le_bytes());
        value.extend_from_slice(&encoded);
        let own_key = keys::dedup_key(object, invocation_id);

        let mut windows = self.dedup_windows.lock();
        let window = windows.entry(object.clone()).or_insert_with(|| {
            let mut records: Vec<(u64, Vec<u8>)> = self
                .db
                .scan_prefix(&keys::dedup_prefix(object))
                .map(|(k, v)| {
                    let ver = v
                        .get(0..8)
                        .and_then(|b| b.try_into().ok())
                        .map(u64::from_le_bytes)
                        .unwrap_or(0);
                    (ver, k)
                })
                .collect();
            records.sort_unstable();
            records.into_iter().collect()
        });
        // A retried id supersedes its old record in place rather than
        // counting twice against the window.
        window.retain(|(_, k)| *k != own_key);
        window.push_back((version, own_key.clone()));
        while window.len() > DEDUP_WINDOW {
            let Some((_, key)) = window.pop_front() else { break };
            batch.delete(key);
        }
        batch.put(own_key, value);
    }

    /// Drop the in-memory dedup-eviction window for `id`. Called whenever
    /// the object's records change outside [`Engine::append_dedup_record`]
    /// — replicated write sets, migration installs, deletion — so a stale
    /// index can never drive eviction; it is rebuilt from storage on the
    /// next primary-side mutation.
    pub(crate) fn forget_dedup_window(&self, id: &ObjectId) {
        self.dedup_windows.lock().remove(id);
    }

    /// The recorded result of `object`'s invocation `invocation_id` while
    /// its dedup record is in the window: a re-delivery, answered without
    /// re-executing. Read under the object's guard, so the first delivery's
    /// commit is fully visible.
    pub(crate) fn replayed(
        &self,
        object: &ObjectId,
        invocation_id: u64,
    ) -> Result<Option<VmValue>> {
        let record = self.db.get(&keys::dedup_key(object, invocation_id))?;
        let result = record.as_deref().and_then(decode_dedup_record);
        if result.is_some() {
            self.duplicates_suppressed.incr();
        }
        Ok(result)
    }

    /// Counter snapshot (a view over the telemetry registry's `eng_*` and
    /// `sched_*` counters).
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            invocations: self.invocations.get(),
            aborts: self.aborts.get(),
            nested_calls: self.nested_calls.get(),
            commits: self.commits.get(),
            cache_hits: self.cache_hits.get(),
            duplicates_suppressed: self.duplicates_suppressed.get(),
            cache: self.cache.stats(),
            scheduler: self.scheduler.stats(),
        }
    }

    /// Access the consistent cache (benchmarks/diagnostics).
    pub fn cache(&self) -> &ConsistentCache {
        &self.cache
    }

    /// Access the scheduler (benchmarks/diagnostics).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }
}

/// A body's error as its caller sees it: a nested error's encoding
/// unwrapped to the original.
fn unwrap_nested(e: InvokeError) -> InvokeError {
    match e {
        InvokeError::Nested(msg) if msg.contains('\x1f') => crate::error::decode_error(&msg),
        e => e,
    }
}

/// Decode a dedup record's stored result (layout: `version (u64 LE) ‖
/// encoded VmValue`). `None` on malformed records — the invocation then
/// re-executes, the safe direction for corrupted state.
fn decode_dedup_record(rec: &[u8]) -> Option<VmValue> {
    VmValue::decode(rec.get(8..)?)
}

/// Nested cross-object invocations: per §3.1, the parts of an invocation
/// before and after a nested call are two separate invocations, the
/// caller's lock released in between. The body stops at the call and
/// holds no thread until the call's answer resumes it.
impl Engine {
    /// Answer the nested call `body` stopped at. A body that ran on ahead
    /// of its last scatter's acks first ships that wave and waits for its
    /// outcomes: it goes on only from that scatter's real outcome, and a
    /// failure resumes it with the error, its new boundary uncommitted.
    fn nest(self: &Arc<Self>, mut running: Running, body: Suspended) {
        let Some(held) = running.held.take() else { return self.scatter(running, body) };
        let engine = Arc::clone(self);
        held.then(Box::new(move |fanned| match fanned.error() {
            Some(e) => engine.resume(running, body, Err(e)),
            None => engine.scatter(running, body),
        }));
        self.ship(held.close());
    }

    /// Commit the body's boundary, then run the call's method on every
    /// target as one scatter: each branch an invocation of its own (own
    /// lock, own atomic commit, own abort) under the caller's trace and
    /// *remaining* deadline budget. The caller's lock travels with the
    /// boundary and is released once its writes are committed. The one
    /// decision: the boundary rides in the wave when the replica set that
    /// applies it applies every branch too, in the same round; otherwise
    /// it is acked before any branch is issued. A failed boundary resumes
    /// the body with [`HostError::Storage`].
    fn scatter(self: &Arc<Self>, mut running: Running, body: Suspended) {
        let targets: Vec<ObjectId> =
            body.call().targets.iter().cloned().map(ObjectId::new).collect();
        self.nested_calls.add(targets.len() as u64);
        // A branch body nesting on an outer wave's issue thread: its call
        // may need a sibling's guard, held until that wave has shipped.
        self.ship_open_wave();
        let boundary = running.host.boundary();
        let router = self.router.read().clone();
        let rides = router.as_ref().is_none_or(|router| {
            targets.iter().all(|target| router.co_located(&boundary.source, target))
        });
        let answering = running.call.answers && rides && !boundary.batch.is_empty();
        let wave = Wave::start(self, targets.len(), answering);
        let (engine, issuing, ctx) = (Arc::clone(self), Arc::clone(&wave), running.call.ctx);
        self.commit_boundary(&ctx, boundary, rides.then_some(&wave), move |committed| {
            match committed {
                Ok(led) => engine.issue(running, body, issuing, targets, led),
                Err(e) => {
                    engine.resume_granted(running, body, Err(HostError::Storage(e.to_string())))
                }
            }
        });
    }

    /// Issue every branch from this thread: one whose object is free runs
    /// its body and its kv commit right here, inside the loop; one whose
    /// object is busy, or lives elsewhere, answers from the thread that
    /// finishes it. Then the body resumes, one of two ways:
    /// - a client-facing body whose boundary rides in the wave (`led`),
    ///   every branch having answered with a value during the loop and
    ///   left its write set in the wave's open shipment (or none), resumes
    ///   here on those values, keeping its lock; its wave stays open until
    ///   its next nested call ([`Engine::nest`]) or its return
    ///   ([`Engine::finish_body`]);
    /// - every other scatter ships its wave and resumes on the durable
    ///   outcomes, on whichever thread delivers the last of them.
    fn issue(
        self: &Arc<Self>,
        mut running: Running,
        body: Suspended,
        wave: Arc<Wave>,
        targets: Vec<ObjectId>,
        led: bool,
    ) {
        let router = self.router.read().clone();
        let (ctx, depth) = (running.call.ctx, running.call.depth + 1);
        let NestedCall { method, args, .. } = body.call();
        OPEN_WAVE.set(Some(Arc::clone(&wave)));
        let mut remote = false;
        for (i, target) in targets.iter().enumerate() {
            let owed = wave.owe(Slot::Branch(i));
            let done: InvokeCompletion = Box::new(move |outcome| owed.pay(outcome));
            let local = match &router {
                Some(router) => router.route_deferred(&ctx, target, method, args, done),
                None => Some(done),
            };
            let Some(done) = local else {
                remote = true;
                continue;
            };
            let branch = Some((Arc::clone(&wave), i));
            self.invoke_deferred_at(
                &ctx,
                target,
                method,
                args.to_vec(),
                false,
                depth,
                branch,
                done,
            );
        }
        OPEN_WAVE.take();
        let early = (wave.answering && led && !remote).then(|| wave.answered()).flatten();
        if let Some(values) = early {
            let guard = wave.guard.lock().take();
            running.host.resume_with(guard);
            running.held = Some(wave);
            return self.resume(running, body, Ok(values));
        }
        // One hook call for everything the loop applied locally.
        self.ship(wave.close());
        let engine = Arc::clone(self);
        wave.then(Box::new(move |fanned| engine.resume_granted(running, body, fanned.answer())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{FieldDef, FieldKind};
    use lambda_kv::Options;
    use lambda_vm::assemble;
    use std::path::PathBuf;

    fn counter_module() -> ObjectType {
        let module = assemble(
            r#"
            fn init(0) {
                push.s "count"
                push.s "0"
                host.put
                ret
            }
            fn bump_raw(1) locals=2 {
                ; arg 0: how many entries to also append to the log
                push.s "count"
                host.get
                store 1
                load 1
                jz missing
                jmp have
            missing:
                trap "count field missing"
            have:
                ; store count+1 as a single byte string of the arg (simplified):
                push.s "count"
                load 0
                host.put
                ret
            }
            fn read_count(0) ro det {
                push.s "count"
                host.get
                ret
            }
            fn crash(0) {
                push.s "count"
                push.s "partial"
                host.put
                trap "deliberate crash"
            }
            fn abort_after_write(0) {
                push.s "count"
                push.s "partial"
                host.put
                push.s "rolled back"
                host.abort
            }
            fn hidden(0) priv {
                unit
                ret
            }
            fn poke_other(2) {
                ; args: target object id, value
                load 0
                push.s "bump_raw"
                load 1
                mklist 1
                host.invoke
                ret
            }
            fn write_then_poke(2) locals=2 {
                ; write locally, then nested-invoke target; our write commits first
                push.s "count"
                push.s "pre-call"
                host.put
                load 0
                push.s "bump_raw"
                load 1
                mklist 1
                host.invoke
                ret
            }
            fn poke_then_mark(2) {
                ; nested-invoke target, then write locally: the last part
                ; of the invocation commits, so a dedup record is written
                load 0
                push.s "bump_raw"
                load 1
                mklist 1
                host.invoke
                pop
                push.s "count"
                push.s "marked"
                host.put
                ret
            }
            fn poke_then_crash(2) {
                load 0
                push.s "bump_raw"
                load 1
                mklist 1
                host.invoke
                pop
                trap "after nested"
            }
            "#,
        )
        .unwrap();
        ObjectType::from_module(
            "Counter",
            vec![FieldDef { name: "count".into(), kind: FieldKind::Scalar }],
            module,
        )
        .unwrap()
    }

    struct TestEnv {
        engine: Arc<Engine>,
        dir: PathBuf,
    }

    impl Drop for TestEnv {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.dir).ok();
        }
    }

    fn setup(config: EngineConfig) -> TestEnv {
        use std::sync::atomic::{AtomicU32, Ordering};
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("lambda-engine-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        let types = Arc::new(TypeRegistry::new());
        types.register(counter_module());
        TestEnv { engine: Engine::new(db, types, config), dir }
    }

    fn oid(s: &str) -> ObjectId {
        ObjectId::from(s)
    }

    #[test]
    fn create_invoke_read_round_trip() {
        let env = setup(EngineConfig::default());
        let id = oid("c/1");
        env.engine.create_object("Counter", &id, &[]).unwrap();
        env.engine.invoke(&id, "init", vec![]).unwrap();
        let v = env.engine.invoke(&id, "read_count", vec![]).unwrap();
        assert_eq!(v, VmValue::str("0"));
        env.engine.invoke(&id, "bump_raw", vec![VmValue::str("7")]).unwrap();
        let v = env.engine.invoke(&id, "read_count", vec![]).unwrap();
        assert_eq!(v, VmValue::str("7"));
    }

    #[test]
    fn create_validates_type_and_duplicates() {
        let env = setup(EngineConfig::default());
        let id = oid("c/1");
        assert!(matches!(
            env.engine.create_object("Nope", &id, &[]),
            Err(InvokeError::UnknownType(_))
        ));
        env.engine.create_object("Counter", &id, &[("count", b"5")]).unwrap();
        assert!(matches!(
            env.engine.create_object("Counter", &id, &[]),
            Err(InvokeError::AlreadyExists(_))
        ));
        // Initial field visible.
        assert_eq!(env.engine.invoke(&id, "read_count", vec![]).unwrap(), VmValue::str("5"));
    }

    #[test]
    fn invoking_missing_object_or_method_fails() {
        let env = setup(EngineConfig::default());
        assert!(matches!(
            env.engine.invoke(&oid("ghost"), "init", vec![]),
            Err(InvokeError::UnknownObject(_))
        ));
        let id = oid("c/1");
        env.engine.create_object("Counter", &id, &[]).unwrap();
        assert!(matches!(
            env.engine.invoke(&id, "nope", vec![]),
            Err(InvokeError::UnknownMethod(_))
        ));
    }

    #[test]
    fn private_methods_rejected_externally() {
        let env = setup(EngineConfig::default());
        let id = oid("c/1");
        env.engine.create_object("Counter", &id, &[]).unwrap();
        assert!(matches!(env.engine.invoke(&id, "hidden", vec![]), Err(InvokeError::NotPublic(_))));
        // Internal path allows it.
        let ctx = InvocationContext::background();
        assert!(env.engine.invoke_ctx(&ctx, &id, "hidden", vec![], false, 0).is_ok());
    }

    #[test]
    fn atomicity_failed_invocation_leaves_no_writes() {
        let env = setup(EngineConfig::default());
        let id = oid("c/1");
        env.engine.create_object("Counter", &id, &[("count", b"ok")]).unwrap();
        let err = env.engine.invoke(&id, "crash", vec![]).unwrap_err();
        assert!(matches!(err, InvokeError::Vm(_)));
        assert_eq!(
            env.engine.invoke(&id, "read_count", vec![]).unwrap(),
            VmValue::str("ok"),
            "partial write must be invisible"
        );
        assert_eq!(env.engine.stats().aborts, 1);
    }

    #[test]
    fn voluntary_abort_discards_writes() {
        let env = setup(EngineConfig::default());
        let id = oid("c/1");
        env.engine.create_object("Counter", &id, &[("count", b"ok")]).unwrap();
        let err = env.engine.invoke(&id, "abort_after_write", vec![]).unwrap_err();
        assert_eq!(err, InvokeError::Aborted("rolled back".into()));
        assert_eq!(env.engine.invoke(&id, "read_count", vec![]).unwrap(), VmValue::str("ok"));
    }

    #[test]
    fn version_bumps_on_every_mutating_commit() {
        let env = setup(EngineConfig::default());
        let id = oid("c/1");
        env.engine.create_object("Counter", &id, &[]).unwrap();
        assert_eq!(env.engine.object_version(&id), 0);
        env.engine.invoke(&id, "init", vec![]).unwrap();
        env.engine.invoke(&id, "bump_raw", vec![VmValue::str("1")]).unwrap();
        assert_eq!(env.engine.object_version(&id), 2);
        // Read-only invocations do not bump.
        env.engine.invoke(&id, "read_count", vec![]).unwrap();
        assert_eq!(env.engine.object_version(&id), 2);
    }

    #[test]
    fn nested_invocation_reaches_other_object() {
        let env = setup(EngineConfig::default());
        let a = oid("c/a");
        let b = oid("c/b");
        env.engine.create_object("Counter", &a, &[("count", b"a0")]).unwrap();
        env.engine.create_object("Counter", &b, &[("count", b"b0")]).unwrap();
        env.engine.invoke(&a, "poke_other", vec![VmValue::str("c/b"), VmValue::str("b1")]).unwrap();
        assert_eq!(env.engine.invoke(&b, "read_count", vec![]).unwrap(), VmValue::str("b1"));
        assert_eq!(env.engine.stats().nested_calls, 1);
    }

    #[test]
    fn nested_boundary_commits_precall_writes_even_if_caller_later_crashes() {
        // §3.1: parts before and after a nested call are separate
        // invocations; the pre-call part survives a post-call crash.
        let env = setup(EngineConfig::default());
        let a = oid("c/a");
        let b = oid("c/b");
        env.engine.create_object("Counter", &a, &[("count", b"a0")]).unwrap();
        env.engine.create_object("Counter", &b, &[("count", b"b0")]).unwrap();
        let err = env
            .engine
            .invoke(&a, "poke_then_crash", vec![VmValue::str("c/b"), VmValue::str("b9")])
            .unwrap_err();
        assert!(matches!(err, InvokeError::Vm(_)));
        // The nested call's effect is durable.
        assert_eq!(env.engine.invoke(&b, "read_count", vec![]).unwrap(), VmValue::str("b9"));
    }

    #[test]
    fn precall_writes_commit_before_nested_call() {
        let env = setup(EngineConfig::default());
        let a = oid("c/a");
        let b = oid("c/b");
        env.engine.create_object("Counter", &a, &[("count", b"a0")]).unwrap();
        env.engine.create_object("Counter", &b, &[("count", b"b0")]).unwrap();
        env.engine
            .invoke(&a, "write_then_poke", vec![VmValue::str("c/b"), VmValue::str("b1")])
            .unwrap();
        assert_eq!(env.engine.invoke(&a, "read_count", vec![]).unwrap(), VmValue::str("pre-call"));
    }

    #[test]
    fn self_invocation_does_not_deadlock() {
        let env = setup(EngineConfig::default());
        let a = oid("c/a");
        env.engine.create_object("Counter", &a, &[("count", b"a0")]).unwrap();
        // a invokes a method on itself (e.g. a user following themselves).
        env.engine
            .invoke(&a, "poke_other", vec![VmValue::str("c/a"), VmValue::str("self")])
            .unwrap();
        assert_eq!(env.engine.invoke(&a, "read_count", vec![]).unwrap(), VmValue::str("self"));
    }

    #[test]
    fn cache_serves_repeat_reads_and_invalidates_on_write() {
        let env = setup(EngineConfig::default());
        let id = oid("c/1");
        env.engine.create_object("Counter", &id, &[("count", b"x")]).unwrap();
        for _ in 0..3 {
            assert_eq!(env.engine.invoke(&id, "read_count", vec![]).unwrap(), VmValue::str("x"));
        }
        let stats = env.engine.stats();
        assert_eq!(stats.cache_hits, 2, "first fills, rest hit");
        // A write invalidates.
        env.engine.invoke(&id, "bump_raw", vec![VmValue::str("y")]).unwrap();
        assert_eq!(
            env.engine.invoke(&id, "read_count", vec![]).unwrap(),
            VmValue::str("y"),
            "stale result must not be served"
        );
    }

    #[test]
    fn cache_disabled_by_zero_capacity() {
        let env = setup(EngineConfig { cache_capacity: 0, ..EngineConfig::default() });
        let id = oid("c/1");
        env.engine.create_object("Counter", &id, &[("count", b"x")]).unwrap();
        env.engine.invoke(&id, "read_count", vec![]).unwrap();
        env.engine.invoke(&id, "read_count", vec![]).unwrap();
        assert_eq!(env.engine.stats().cache_hits, 0);
    }

    #[test]
    fn depth_limit_stops_runaway_recursion() {
        let env = setup(EngineConfig { max_depth: 4, ..EngineConfig::default() });
        let a = oid("c/a");
        let b = oid("c/b");
        env.engine.create_object("Counter", &a, &[("count", b"0")]).unwrap();
        env.engine.create_object("Counter", &b, &[("count", b"0")]).unwrap();
        // poke_other invoking bump_raw is depth 2 — fine. To exercise the
        // limit, call invoke_ctx with a synthetic deep depth.
        let ctx = InvocationContext::background();
        let err = env.engine.invoke_ctx(&ctx, &a, "read_count", vec![], false, 4).unwrap_err();
        assert_eq!(err, InvokeError::DepthExceeded);
    }

    #[test]
    fn concurrent_writers_on_same_object_serialize() {
        let env = setup(EngineConfig::default());
        let id = oid("c/hot");
        env.engine.create_object("Counter", &id, &[("count", b"0")]).unwrap();
        let engine = Arc::clone(&env.engine);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let engine = Arc::clone(&engine);
                let id = id.clone();
                std::thread::spawn(move || {
                    for i in 0..25 {
                        engine
                            .invoke(&id, "bump_raw", vec![VmValue::str(format!("{t}-{i}"))])
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(engine.object_version(&id), 100, "all 100 commits applied");
    }

    #[test]
    fn invoke_ctx_records_span_chain() {
        let env = setup(EngineConfig::default());
        let id = oid("c/1");
        env.engine.create_object("Counter", &id, &[("count", b"0")]).unwrap();
        let ctx = InvocationContext::client(std::time::Duration::from_secs(30));
        env.engine.invoke_ctx(&ctx, &id, "bump_raw", vec![VmValue::str("9")], true, 0).unwrap();
        let spans = env.engine.registry().spans_for(ctx.trace_id);
        let stages: Vec<Stage> = spans.iter().map(|s| s.stage).collect();
        assert!(stages.contains(&Stage::Queue), "{stages:?}");
        assert!(stages.contains(&Stage::Execute), "{stages:?}");
        assert!(stages.contains(&Stage::Commit), "{stages:?}");
        // No commit hook installed → no replicate span on a bare engine.
        assert!(!stages.contains(&Stage::Replicate), "{stages:?}");
        // Every span belongs to this trace.
        assert!(spans.iter().all(|s| s.trace_id == ctx.trace_id));
        // Stage histograms were fed too.
        assert!(env.engine.registry().stage_stats(Stage::Execute).count >= 1);
    }

    #[test]
    fn expired_deadline_is_shed_before_execution() {
        let env = setup(EngineConfig::default());
        let id = oid("c/1");
        env.engine.create_object("Counter", &id, &[("count", b"keep")]).unwrap();
        let expired = InvocationContext::from_wire(4242, 0, 0);
        let err = env
            .engine
            .invoke_ctx(&expired, &id, "bump_raw", vec![VmValue::str("x")], true, 0)
            .unwrap_err();
        assert_eq!(err, InvokeError::DeadlineExceeded);
        // The method never ran: no writes, no version bump, no spans.
        assert_eq!(env.engine.invoke(&id, "read_count", vec![]).unwrap(), VmValue::str("keep"));
        assert_eq!(env.engine.object_version(&id), 0);
        assert!(env.engine.registry().spans_for(4242).is_empty());
        assert_eq!(env.engine.stats().scheduler.shed, 1);
        assert_eq!(env.engine.stats().aborts, 1);
    }

    #[test]
    fn duplicate_delivery_returns_recorded_result_without_reexecuting() {
        let env = setup(EngineConfig::default());
        let id = oid("c/1");
        env.engine.create_object("Counter", &id, &[("count", b"0")]).unwrap();
        let ctx = InvocationContext::client(std::time::Duration::from_secs(30));
        let first =
            env.engine.invoke_ctx(&ctx, &id, "bump_raw", vec![VmValue::str("9")], true, 0).unwrap();
        assert_eq!(env.engine.object_version(&id), 1);

        // The client's retry redelivers the same invocation id.
        let mut retry = ctx;
        retry.attempt = 1;
        let second = env
            .engine
            .invoke_ctx(&retry, &id, "bump_raw", vec![VmValue::str("9")], true, 0)
            .unwrap();
        assert_eq!(second, first, "recorded result served verbatim");
        assert_eq!(env.engine.object_version(&id), 1, "no second commit");
        assert_eq!(env.engine.stats().duplicates_suppressed, 1);
    }

    #[test]
    fn contexts_without_invocation_id_are_not_deduped() {
        let env = setup(EngineConfig::default());
        let id = oid("c/1");
        env.engine.create_object("Counter", &id, &[("count", b"0")]).unwrap();
        let ctx = InvocationContext::background();
        assert_eq!(ctx.invocation_id, 0);
        env.engine.invoke_ctx(&ctx, &id, "bump_raw", vec![VmValue::str("a")], true, 0).unwrap();
        env.engine.invoke_ctx(&ctx, &id, "bump_raw", vec![VmValue::str("b")], true, 0).unwrap();
        assert_eq!(env.engine.object_version(&id), 2, "both executions committed");
        assert_eq!(env.engine.stats().duplicates_suppressed, 0);
    }

    #[test]
    fn dedup_window_stays_bounded_and_evicts_oldest() {
        let env = setup(EngineConfig::default());
        let id = oid("c/1");
        env.engine.create_object("Counter", &id, &[("count", b"0")]).unwrap();
        let ctxs: Vec<InvocationContext> = (0..DEDUP_WINDOW + 8)
            .map(|i| {
                let ctx = InvocationContext::client(std::time::Duration::from_secs(30));
                env.engine
                    .invoke_ctx(&ctx, &id, "bump_raw", vec![VmValue::str(format!("{i}"))], true, 0)
                    .unwrap();
                ctx
            })
            .collect();
        let records = env.engine.db().scan_prefix(&keys::dedup_prefix(&id)).count();
        assert_eq!(records, DEDUP_WINDOW, "window bounded");
        // The newest id is remembered, the oldest has been evicted (its
        // duplicate re-executes — bounded-window tradeoff).
        let newest = ctxs.last().unwrap();
        assert!(env
            .engine
            .db()
            .get(&keys::dedup_key(&id, newest.invocation_id))
            .unwrap()
            .is_some());
        assert!(env
            .engine
            .db()
            .get(&keys::dedup_key(&id, ctxs[0].invocation_id))
            .unwrap()
            .is_none());
    }

    /// Which shell a test drives an invocation through.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Shell {
        Blocking,
        Completion,
    }

    impl Shell {
        fn invoke(
            self,
            engine: &Arc<Engine>,
            ctx: &InvocationContext,
            id: &ObjectId,
            method: &str,
            args: Vec<VmValue>,
        ) -> Result<VmValue> {
            match self {
                Shell::Blocking => engine.invoke_ctx(ctx, id, method, args, true, 0),
                Shell::Completion => {
                    let (tx, rx) = std::sync::mpsc::channel();
                    engine.invoke_deferred(
                        ctx,
                        id,
                        method,
                        args,
                        true,
                        Box::new(move |outcome| tx.send(outcome).unwrap()),
                    );
                    rx.recv().unwrap()
                }
            }
        }
    }

    /// Answers every commit at once — `Err("replica down")` once `fail` is
    /// set — and records the `(object, ops)` it was handed, in order.
    #[derive(Default)]
    struct ScriptedHook {
        fail: std::sync::atomic::AtomicBool,
        seen: parking_lot::Mutex<Vec<(ObjectId, WriteSetOps)>>,
    }

    impl CommitHook for ScriptedHook {
        fn on_commit(&self, commits: Vec<DeferredCommit>) {
            let fail = self.fail.load(std::sync::atomic::Ordering::SeqCst);
            for DeferredCommit { object, ops, done, .. } in commits {
                self.seen.lock().push((object, ops));
                done(if fail { Err(InvokeError::Storage("replica down".into())) } else { Ok(()) });
            }
        }
    }

    type Scenario = (&'static str, InvocationContext, &'static str, Vec<VmValue>);

    /// Every scenario the shared steps decide. Built once: both shells run
    /// the same contexts, so their dedup records carry the same ids.
    fn scenarios() -> Vec<Scenario> {
        let client = || InvocationContext::client(std::time::Duration::from_secs(30));
        let mutate = client();
        let mut replay = mutate;
        replay.attempt = 1;
        let bump = |v: &str| vec![VmValue::str(v)];
        vec![
            ("read miss", client(), "read_count", vec![]),
            ("read hit", client(), "read_count", vec![]),
            ("mutate", mutate, "bump_raw", bump("9")),
            ("dedup replay", replay, "bump_raw", bump("9")),
            ("abort", client(), "abort_after_write", vec![]),
            ("nested", client(), "poke_other", vec![VmValue::str("c/b"), VmValue::str("b1")]),
            ("expired deadline", InvocationContext::from_wire(4242, 0, 0), "bump_raw", bump("x")),
            ("failing hook", client(), "bump_raw", bump("y")),
        ]
    }

    type ScenarioRun = (&'static str, Result<VmValue>, EngineStats, Vec<Stage>);

    /// `scenarios` through one shell, on a fresh engine: per scenario its
    /// result, the cumulative counters after it, and the stages of the
    /// spans it recorded, in order; then everything the hook was handed.
    fn run_scenarios(
        shell: Shell,
        scenarios: &[Scenario],
    ) -> (Vec<ScenarioRun>, Vec<(ObjectId, WriteSetOps)>) {
        let env = setup(EngineConfig::default());
        let hook = Arc::new(ScriptedHook::default());
        env.engine.set_commit_hook(Arc::clone(&hook) as Arc<dyn CommitHook>);
        let (a, b) = (oid("c/a"), oid("c/b"));
        env.engine.create_object("Counter", &a, &[("count", b"0")]).unwrap();
        env.engine.create_object("Counter", &b, &[("count", b"0")]).unwrap();
        let runs = scenarios
            .iter()
            .cloned()
            .map(|(name, ctx, method, args)| {
                hook.fail.store(name == "failing hook", std::sync::atomic::Ordering::SeqCst);
                let result = shell.invoke(&env.engine, &ctx, &a, method, args);
                let stages =
                    env.engine.registry().spans_for(ctx.trace_id).iter().map(|s| s.stage).collect();
                (name, result, env.engine.stats(), stages)
            })
            .collect();
        let seen = std::mem::take(&mut *hook.seen.lock());
        (runs, seen)
    }

    #[test]
    fn both_shells_give_equal_results_counters_and_spans() {
        let scenarios = scenarios();
        let (blocking, blocking_saw) = run_scenarios(Shell::Blocking, &scenarios);
        let (completion, completion_saw) = run_scenarios(Shell::Completion, &scenarios);
        assert_eq!(blocking, completion);
        assert_eq!(blocking_saw, completion_saw, "one hook method, one sequence of write sets");
        let objects: Vec<&str> =
            blocking_saw.iter().map(|(o, _)| std::str::from_utf8(o.as_bytes()).unwrap()).collect();
        assert_eq!(
            objects,
            ["c/a", "c/b", "c/a", "c/b", "c/a"],
            "creates, mutate, nested, failing"
        );

        // And the shared steps decide what the paper says they should.
        use Stage::{Commit, Execute, Queue, Replicate};
        let expect: Vec<(&str, Result<VmValue>, Vec<Stage>)> = vec![
            ("read miss", Ok(VmValue::str("0")), vec![Queue, Execute]),
            ("read hit", Ok(VmValue::str("0")), vec![]),
            ("mutate", Ok(VmValue::Unit), vec![Queue, Execute, Commit, Replicate]),
            ("dedup replay", Ok(VmValue::Unit), vec![Queue, Execute, Commit, Replicate, Queue]),
            ("abort", Err(InvokeError::Aborted("rolled back".into())), vec![Queue, Execute]),
            // The nested call's own queue/execute/commit/replicate sit
            // inside the caller's execute span.
            ("nested", Ok(VmValue::Unit), vec![Queue, Queue, Execute, Commit, Replicate, Execute]),
            ("expired deadline", Err(InvokeError::DeadlineExceeded), vec![]),
            (
                "failing hook",
                Err(InvokeError::Storage("replica down".into())),
                vec![Queue, Execute, Commit, Replicate],
            ),
        ];
        for ((name, result, _, stages), (want_name, want_result, want_stages)) in
            blocking.iter().zip(&expect)
        {
            assert_eq!(name, want_name);
            assert_eq!(result, want_result, "{name}");
            assert_eq!(stages, want_stages, "{name}");
        }
        let last = &blocking.last().unwrap().2;
        assert_eq!(last.cache_hits, 1);
        assert_eq!(last.duplicates_suppressed, 1);
        assert_eq!(last.nested_calls, 1);
        assert_eq!(last.scheduler.shed, 1);
        assert_eq!(last.aborts, 2, "the abort and the shed deadline");
        assert_eq!(last.commits, 2, "mutate + the nested target; not the unreplicated one");
    }

    /// A hook whose acks only a "completion pool" delivers: every `done`
    /// goes to the thread that [`run_pool`] starts, which runs them in
    /// order — as the RPC endpoint's completion threads would.
    pub(super) struct Pool(pub(super) channel::Sender<CommitCallback>);

    impl CommitHook for Pool {
        fn on_commit(&self, commits: Vec<DeferredCommit>) {
            commits.into_iter().for_each(|commit| self.0.send(commit.done).unwrap());
        }
    }

    /// Start the one-thread pool over `acks`; call the result to stop it.
    pub(super) fn run_pool(acks: channel::Receiver<CommitCallback>) -> impl FnOnce() {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let pool = std::thread::spawn(move || {
            while !stopped.load(std::sync::atomic::Ordering::SeqCst) {
                if let Ok(ack) = acks.recv_timeout(std::time::Duration::from_millis(5)) {
                    ack(Ok(()));
                }
            }
        });
        move || {
            stop.store(true, std::sync::atomic::Ordering::SeqCst);
            pool.join().unwrap();
        }
    }

    /// A hook that loses every `done` it is handed, unrun.
    pub(super) struct DroppingHook;
    impl CommitHook for DroppingHook {
        fn on_commit(&self, commits: Vec<DeferredCommit>) {
            drop(commits);
        }
    }

    #[test]
    fn a_done_dropped_unrun_fails_the_blocking_commit_instead_of_hanging_it() {
        let env = setup(EngineConfig::default());
        let id = oid("c/lost");
        env.engine.create_object("Counter", &id, &[("count", b"0")]).unwrap();
        env.engine.set_commit_hook(Arc::new(DroppingHook));
        let (tx, rx) = std::sync::mpsc::channel();
        let engine = Arc::clone(&env.engine);
        std::thread::spawn(move || {
            tx.send(engine.invoke(&id, "bump_raw", vec![VmValue::str("1")])).unwrap();
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(2))
            .expect("the parked committer hung on a lost completion");
        let lost = "replication ended without an outcome";
        assert_eq!(outcome, Err(InvokeError::Storage(lost.into())));
    }

    #[test]
    fn redelivery_during_the_first_attempts_fanout_attaches_instead_of_executing() {
        fn wait_for(what: &str, cond: impl Fn() -> bool) {
            let deadline = Instant::now() + std::time::Duration::from_secs(10);
            while !cond() {
                assert!(Instant::now() < deadline, "timed out waiting for {what}");
                std::thread::yield_now();
            }
        }
        for redelivery in [Shell::Blocking, Shell::Completion] {
            let env = setup(EngineConfig::default());
            let (a, b) = (oid("c/a"), oid("c/b"));
            env.engine.create_object("Counter", &a, &[("count", b"a0")]).unwrap();
            env.engine.create_object("Counter", &b, &[("count", b"b0")]).unwrap();
            // Hold the nested target so the first delivery stalls mid-fan-out
            // — its own guard released, its dedup record not yet written.
            let held = env.engine.scheduler().acquire_exclusive(&b);
            let asked = env.engine.stats().scheduler.exclusive;
            let ctx = InvocationContext::client(std::time::Duration::from_secs(30));
            let deliver = |shell: Shell, attempt: u32| {
                let engine = Arc::clone(&env.engine);
                let a = a.clone();
                let mut ctx = ctx;
                ctx.attempt = attempt;
                std::thread::spawn(move || {
                    let args = vec![VmValue::str("c/b"), VmValue::str("once")];
                    shell.invoke(&engine, &ctx, &a, "poke_then_mark", args)
                })
            };
            let first = deliver(Shell::Blocking, 0);
            wait_for("the first delivery to queue behind the held target", || {
                env.engine.stats().scheduler.exclusive == asked + 2
            });
            let second = deliver(redelivery, 1);
            wait_for("the re-delivery to attach", || env.engine.stats().duplicates_suppressed == 1);
            assert!(!first.is_finished() && !second.is_finished());
            drop(held);
            let first = first.join().unwrap();
            let second = second.join().unwrap();
            assert_eq!(first, Ok(VmValue::Unit));
            assert_eq!(second, first, "{redelivery:?}: the re-delivery gets the first's reply");
            assert_eq!(env.engine.object_version(&b), 1, "{redelivery:?}: one fan-out");
            assert_eq!(env.engine.stats().nested_calls, 1);
            // The id is free again: a later re-delivery replays the record.
            let third = deliver(redelivery, 2).join().unwrap();
            assert_eq!(third, first);
            assert_eq!(env.engine.object_version(&b), 1);
            assert_eq!(env.engine.stats().duplicates_suppressed, 2);
        }
    }

    #[test]
    fn deferred_invoke_queued_behind_holder_completes_on_releasing_thread() {
        let env = setup(EngineConfig::default());
        let id = oid("c/hot");
        env.engine.create_object("Counter", &id, &[("count", b"0")]).unwrap();
        // Hold the object's lock so the deferred invocation must queue.
        let guard = env.engine.scheduler().acquire_exclusive(&id);
        let ctx = InvocationContext::client(std::time::Duration::from_secs(30));
        let (tx, rx) = std::sync::mpsc::channel();
        env.engine.invoke_deferred(
            &ctx,
            &id,
            "bump_raw",
            vec![VmValue::str("later")],
            true,
            Box::new(move |res| tx.send((res, std::thread::current().id())).unwrap()),
        );
        assert!(
            rx.recv_timeout(std::time::Duration::from_millis(50)).is_err(),
            "must wait for the lock holder"
        );
        let releaser = std::thread::spawn(move || {
            drop(guard);
            std::thread::current().id()
        });
        let releaser_id = releaser.join().unwrap();
        let (res, ran_on) = rx.recv_timeout(std::time::Duration::from_secs(2)).unwrap();
        assert!(res.is_ok());
        assert_eq!(ran_on, releaser_id, "execution rides the releasing thread");
        assert_eq!(env.engine.invoke(&id, "read_count", vec![]).unwrap(), VmValue::str("later"));
    }

    #[test]
    fn delete_object_removes_all_data() {
        let env = setup(EngineConfig::default());
        let id = oid("c/1");
        env.engine.create_object("Counter", &id, &[("count", b"v")]).unwrap();
        env.engine.invoke(&id, "bump_raw", vec![VmValue::str("w")]).unwrap();
        assert!(env.engine.object_exists(&id));
        env.engine.delete_object(&id).unwrap();
        assert!(!env.engine.object_exists(&id));
        assert!(matches!(
            env.engine.invoke(&id, "read_count", vec![]),
            Err(InvokeError::UnknownObject(_))
        ));
        // Idempotent.
        env.engine.delete_object(&id).unwrap();
    }

    /// A type `name` whose one method, `whoami`, answers `tag` (read-only
    /// but not deterministic, so no result is cached).
    fn tagged(name: &str, tag: &str) -> ObjectType {
        let module = assemble(&format!("fn whoami(0) ro {{\n push.s \"{tag}\"\n ret\n}}")).unwrap();
        ObjectType::from_module(name, vec![], module).unwrap()
    }

    #[test]
    fn a_deleted_id_is_unknown_until_recreated_under_another_type() {
        for cache_capacity in [0, EngineConfig::default().cache_capacity] {
            let env = setup(EngineConfig { cache_capacity, ..EngineConfig::default() });
            env.engine.types().register(tagged("Other", "other"));
            let id = oid("c/1");
            env.engine.create_object("Counter", &id, &[("count", b"v")]).unwrap();
            assert_eq!(env.engine.invoke(&id, "read_count", vec![]).unwrap(), VmValue::str("v"));
            env.engine.delete_object(&id).unwrap();
            assert!(matches!(
                env.engine.invoke(&id, "read_count", vec![]),
                Err(InvokeError::UnknownObject(_))
            ));
            env.engine.create_object("Other", &id, &[]).unwrap();
            assert_eq!(env.engine.invoke(&id, "whoami", vec![]).unwrap(), VmValue::str("other"));
            assert!(matches!(
                env.engine.invoke(&id, "read_count", vec![]),
                Err(InvokeError::UnknownMethod(_))
            ));
        }
    }

    #[test]
    fn a_redeployed_module_is_seen_by_the_next_invocation() {
        let env = setup(EngineConfig::default());
        env.engine.types().register(tagged("Tagged", "v1"));
        let id = oid("t/1");
        env.engine.create_object("Tagged", &id, &[]).unwrap();
        assert_eq!(env.engine.invoke(&id, "whoami", vec![]).unwrap(), VmValue::str("v1"));
        env.engine.types().register(tagged("Tagged", "v2"));
        assert_eq!(env.engine.invoke(&id, "whoami", vec![]).unwrap(), VmValue::str("v2"));
    }

    #[test]
    fn purge_and_install_replacing_drop_the_memoised_type() {
        use crate::migration::ObjectSnapshot;
        let env = setup(EngineConfig::default());
        env.engine.types().register(tagged("Other", "other"));
        let id = oid("c/1");
        env.engine.create_object("Counter", &id, &[("count", b"v")]).unwrap();
        assert_eq!(env.engine.invoke(&id, "read_count", vec![]).unwrap(), VmValue::str("v"));
        env.engine.purge_object(&id).unwrap();
        assert!(matches!(
            env.engine.invoke(&id, "read_count", vec![]),
            Err(InvokeError::UnknownObject(_))
        ));
        env.engine.create_object("Counter", &id, &[("count", b"w")]).unwrap();
        assert_eq!(env.engine.invoke(&id, "read_count", vec![]).unwrap(), VmValue::str("w"));
        // A state transfer replaces the memoised Counter with an Other.
        let snapshot =
            ObjectSnapshot { id: id.clone(), entries: vec![(b"m".to_vec(), b"Other".to_vec())] };
        env.engine.install_object_replacing(&snapshot).unwrap();
        assert_eq!(env.engine.invoke(&id, "whoami", vec![]).unwrap(), VmValue::str("other"));
    }
}

#[cfg(test)]
mod scatter_tests {
    use super::*;
    use crate::object::{FieldDef, FieldKind, ObjectType, TypeRegistry};
    use lambda_kv::{Db, Options};
    use lambda_vm::assemble;
    use std::sync::atomic::{AtomicU32, Ordering as AtomicOrdering};

    fn scatter_engine() -> (Arc<Engine>, std::path::PathBuf) {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, AtomicOrdering::Relaxed);
        let dir = std::env::temp_dir().join(format!("lambda-scatter-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        let types = Arc::new(TypeRegistry::new());
        let module = assemble(
            r#"
            fn broadcast(2) {
                ; args: list of target ids, payload
                load 0
                push.s "receive"
                load 1
                mklist 1
                host.invoke_many
                ret
            }
            fn receive(1) {
                push.s "inbox"
                load 0
                host.push
                ret
            }
            fn post(2) {
                ; `broadcast`, after keeping the payload itself
                push.s "inbox"
                load 1
                host.push
                pop
                load 0
                push.s "receive"
                load 1
                mklist 1
                host.invoke_many
                ret
            }
            fn broadcast_picky(2) {
                load 0
                push.s "receive_picky"
                load 1
                mklist 1
                host.invoke_many
                ret
            }
            fn receive_picky(1) locals=2 {
                ; aborts on payload "poison"
                load 0
                push.s "poison"
                eq
                jz accept
                push.s "rejected"
                host.abort
            accept:
                push.s "inbox"
                load 0
                host.push
                ret
            }
            fn inbox_count(0) ro det {
                push.s "inbox"
                host.count
                ret
            }
            "#,
        )
        .unwrap();
        types.register(
            ObjectType::from_module(
                "Node",
                vec![FieldDef { name: "inbox".into(), kind: FieldKind::Collection }],
                module,
            )
            .unwrap(),
        );
        (Engine::new(db, types, EngineConfig::default()), dir)
    }

    fn oid(s: &str) -> ObjectId {
        ObjectId::from(s)
    }

    #[test]
    fn invoke_many_scatters_to_all_targets() {
        let (engine, dir) = scatter_engine();
        let src = oid("n/src");
        engine.create_object("Node", &src, &[]).unwrap();
        let targets: Vec<VmValue> = (0..10)
            .map(|i| {
                let id = oid(&format!("n/{i}"));
                engine.create_object("Node", &id, &[]).unwrap();
                VmValue::Bytes(id.0)
            })
            .collect();
        let results = engine
            .invoke(&src, "broadcast", vec![VmValue::List(targets), VmValue::str("hello")])
            .unwrap();
        assert_eq!(results.as_list().unwrap().len(), 10, "one result per target");
        for i in 0..10 {
            let n = engine.invoke(&oid(&format!("n/{i}")), "inbox_count", vec![]).unwrap();
            assert_eq!(n, VmValue::Int(1), "target {i} received the payload");
        }
        assert_eq!(engine.stats().nested_calls, 10);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn invoke_many_empty_target_list_is_noop() {
        let (engine, dir) = scatter_engine();
        let src = oid("n/src");
        engine.create_object("Node", &src, &[]).unwrap();
        let out = engine
            .invoke(&src, "broadcast", vec![VmValue::List(vec![]), VmValue::str("x")])
            .unwrap();
        assert_eq!(out.as_list().unwrap().len(), 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn scatter_branch_failure_fails_the_caller_without_partial_branch_writes() {
        // Each scatter branch is its own invocation (§3.1): a branch that
        // aborts discards its own writes, and the error propagates to the
        // caller, aborting the caller's remaining work.
        let (engine, dir) = scatter_engine();
        let src = oid("n/src");
        engine.create_object("Node", &src, &[]).unwrap();
        let targets: Vec<VmValue> = (0..3)
            .map(|i| {
                let id = oid(&format!("p/{i}"));
                engine.create_object("Node", &id, &[]).unwrap();
                VmValue::Bytes(id.0)
            })
            .collect();
        let err = engine
            .invoke(
                &src,
                "broadcast_picky",
                vec![VmValue::List(targets.clone()), VmValue::str("poison")],
            )
            .unwrap_err();
        assert!(matches!(err, InvokeError::Aborted(_)), "{err}");
        // Aborted branches wrote nothing.
        for t in &targets {
            let id = ObjectId::new(t.as_bytes().unwrap().to_vec());
            let n = engine.invoke(&id, "inbox_count", vec![]).unwrap();
            assert_eq!(n, VmValue::Int(0), "aborted branch must not deliver");
        }
        // A clean payload goes through the same path.
        engine
            .invoke(
                &src,
                "broadcast_picky",
                vec![VmValue::List(targets.clone()), VmValue::str("fine")],
            )
            .unwrap();
        for t in &targets {
            let id = ObjectId::new(t.as_bytes().unwrap().to_vec());
            let n = engine.invoke(&id, "inbox_count", vec![]).unwrap();
            assert_eq!(n, VmValue::Int(1));
        }
        std::fs::remove_dir_all(dir).ok();
    }

    // -- The wave ----------------------------------------------------------

    use lambda_vm::{Host, NativeCtx, NativeRegistry};
    use std::thread::ThreadId;

    type HostResult<T> = std::result::Result<T, HostError>;
    use std::time::Duration;

    /// Acks everything at once and records the objects of each call.
    #[derive(Default)]
    struct RecordingHook(parking_lot::Mutex<Vec<Vec<ObjectId>>>);

    impl CommitHook for RecordingHook {
        fn on_commit(&self, commits: Vec<DeferredCommit>) {
            self.0.lock().push(commits.iter().map(|c| c.object.clone()).collect());
            commits.into_iter().for_each(|c| (c.done)(Ok(())));
        }
    }

    /// `(targets, payload)`: keep the payload when `keep`, then scatter
    /// `receive(payload)` to the targets; answer with their results.
    fn scatter_receive(ctx: &mut NativeCtx<'_>, keep: bool) -> HostResult<Step> {
        let targets = match ctx.args.first() {
            Some(VmValue::List(ids)) => {
                ids.iter().filter_map(|id| id.as_bytes().map(<[u8]>::to_vec)).collect()
            }
            _ => Vec::new(),
        };
        let payload = ctx.bytes_arg(1)?;
        if keep {
            ctx.host.push(b"inbox", &payload)?;
        }
        let args = vec![VmValue::Bytes(payload)];
        Ok(Step::invoke_many(targets, "receive", args, |_, results| {
            Ok(VmValue::List(results?).into())
        }))
    }

    /// `relay(to, payload)`: keep the payload, and unless `to` is this
    /// object, call `receive` on it — by `host.invoke`, or by a scatter of
    /// one for the payload "scatter" — and keep it once more after.
    fn relay(ctx: &mut NativeCtx<'_>) -> HostResult<Step> {
        let (to, payload) = (ctx.bytes_arg(0)?, ctx.bytes_arg(1)?);
        ctx.host.push(b"inbox", &payload)?;
        let me = ctx.host.self_id();
        if to == me {
            return Ok(VmValue::Bytes(me).into());
        }
        let (args, scatter) = (vec![VmValue::Bytes(payload.clone())], payload == b"scatter");
        let after = move |host: &mut dyn Host| {
            host.push(b"inbox", &payload)?;
            Ok(VmValue::Bytes(me).into())
        };
        Ok(match scatter {
            true => Step::invoke_many(vec![to], "receive", args, move |host, received| {
                received?;
                after(host)
            }),
            false => Step::invoke(to, "receive", args, move |host, received| {
                received?;
                after(host)
            }),
        })
    }

    /// A native `Node`: `broadcast(targets, payload)` scatters `receive`,
    /// which notes the thread it ran on and answers with its own id;
    /// `post(targets, payload)` keeps a copy first, so that its scatter has
    /// a boundary to commit.
    type Noted<T> = Arc<parking_lot::Mutex<Vec<T>>>;

    fn native_engine() -> (Arc<Engine>, Noted<ThreadId>, std::path::PathBuf) {
        let ran_on = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut reg = NativeRegistry::new();
        for (name, keep) in [("broadcast", false), ("post", true)] {
            reg.register(name, false, false, true, move |ctx| scatter_receive(ctx, keep));
        }
        let threads = Arc::clone(&ran_on);
        reg.register("receive", false, false, false, move |ctx| {
            threads.lock().push(std::thread::current().id());
            let payload = ctx.bytes_arg(0)?;
            ctx.host.push(b"inbox", &payload)?;
            Ok(VmValue::Bytes(ctx.host.self_id()))
        });
        reg.register("inbox_count", true, true, true, |ctx| {
            Ok(VmValue::Int(ctx.host.count(b"inbox")? as i64))
        });
        // `relay_all(targets, payload)` scatters `relay(targets[0], payload)`:
        // every branch but the first nests into the first branch's object.
        reg.register("relay_all", false, false, true, |ctx| {
            let Some(VmValue::List(ids)) = ctx.args.first().cloned() else {
                return Err(HostError::Aborted("no targets".into()));
            };
            let targets = ids.iter().filter_map(|id| id.as_bytes().map(<[u8]>::to_vec)).collect();
            let args = vec![ids[0].clone(), VmValue::Bytes(ctx.bytes_arg(1)?)];
            Ok(Step::invoke_many(targets, "relay", args, |_, results| {
                Ok(VmValue::List(results?).into())
            }))
        });
        reg.register("relay", false, false, false, relay);
        let (engine, dir) = scatter_engine();
        let inbox = vec![FieldDef { name: "inbox".into(), kind: FieldKind::Collection }];
        engine.types().register(ObjectType::from_native("Native", inbox, reg));
        (engine, ran_on, dir)
    }

    fn create(engine: &Engine, ty: &str, names: &[&str]) -> Vec<ObjectId> {
        names
            .iter()
            .map(|name| {
                let id = oid(name);
                engine.create_object(ty, &id, &[]).unwrap();
                id
            })
            .collect()
    }

    fn ids(targets: &[ObjectId]) -> VmValue {
        VmValue::List(targets.iter().map(|t| VmValue::Bytes(t.0.clone())).collect())
    }

    #[test]
    fn a_scatter_over_free_targets_runs_on_the_callers_thread_and_is_one_hook_call() {
        let (engine, ran_on, dir) = native_engine();
        let src = create(&engine, "Native", &["w/src"]).remove(0);
        let targets = create(&engine, "Native", &["w/0", "w/1", "w/2", "w/3", "w/4", "w/5"]);
        let hook = Arc::new(RecordingHook::default());
        engine.set_commit_hook(Arc::clone(&hook) as Arc<dyn CommitHook>);

        let args = vec![ids(&targets), VmValue::str("hello")];
        let results = engine.invoke(&src, "broadcast", args).unwrap();

        assert_eq!(results, ids(&targets), "one result per target, in target order");
        let me = std::thread::current().id();
        assert_eq!(*ran_on.lock(), vec![me; targets.len()], "no thread per target");
        assert_eq!(*hook.0.lock(), vec![targets], "one call carrying every write set, no other");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_busy_target_still_answers_and_commits_through_the_single_entry_hook() {
        let (engine, _, dir) = native_engine();
        let src = create(&engine, "Native", &["b/src"]).remove(0);
        let targets = create(&engine, "Native", &["b/0", "b/1", "b/2", "b/3"]);
        let hook = Arc::new(RecordingHook::default());
        engine.set_commit_hook(Arc::clone(&hook) as Arc<dyn CommitHook>);

        let held = engine.scheduler().acquire_exclusive(&targets[2]);
        let scatter = {
            let (engine, src, args) =
                (Arc::clone(&engine), src.clone(), vec![ids(&targets), VmValue::str("x")]);
            std::thread::spawn(move || engine.invoke(&src, "broadcast", args))
        };
        // The wave leaves without the busy branch …
        let deadline = Instant::now() + Duration::from_secs(10);
        while hook.0.lock().is_empty() {
            assert!(Instant::now() < deadline, "the wave never shipped");
            std::thread::yield_now();
        }
        let free = vec![targets[0].clone(), targets[1].clone(), targets[3].clone()];
        assert_eq!(*hook.0.lock(), vec![free.clone()]);
        assert!(!scatter.is_finished(), "the caller waits for every branch");
        // … which commits on its own once its object is released.
        drop(held);
        assert_eq!(scatter.join().unwrap().unwrap(), ids(&targets));
        assert_eq!(*hook.0.lock(), vec![free, vec![targets[2].clone()]]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_branch_that_nests_into_a_sibling_ships_the_wave_first() {
        // A branch in the wave holds its object until the wave is acked,
        // and the wave ships from the issue thread: a later branch whose
        // body parks on that thread behind a sibling's guard would wait
        // for itself. The nested call is a `host.invoke` or a scatter of
        // its own, whose join parks just the same.
        for payload in ["invoke", "scatter"] {
            let (engine, _, dir) = native_engine();
            let src = create(&engine, "Native", &["n/src"]).remove(0);
            let nodes = create(&engine, "Native", &["n/a", "n/b", "n/c"]);
            let (a, b, c) = (nodes[0].clone(), nodes[1].clone(), nodes[2].clone());
            let targets = vec![a.clone(), b.clone(), b.clone(), c.clone()];
            let hook = Arc::new(RecordingHook::default());
            engine.set_commit_hook(Arc::clone(&hook) as Arc<dyn CommitHook>);

            let (tx, rx) = std::sync::mpsc::channel();
            {
                let (engine, args) =
                    (Arc::clone(&engine), vec![ids(&targets), VmValue::str(payload)]);
                std::thread::spawn(move || tx.send(engine.invoke(&src, "relay_all", args)));
            }
            let results =
                rx.recv_timeout(Duration::from_secs(10)).expect("the issue thread wedged");
            assert_eq!(results.unwrap(), ids(&targets), "{payload}");
            let count = |id| engine.invoke(id, "inbox_count", vec![]).unwrap();
            assert_eq!(count(&a), VmValue::Int(4), "its own relay and one receive per sibling");
            assert_eq!(count(&b), VmValue::Int(4), "two relays, each before and after the call");
            assert_eq!(count(&c), VmValue::Int(2));
            // What the wave held, `n/a`, left before the first nested call
            // could park, and the wave stayed closed. A `host.invoke` is a
            // scatter of one, so both payloads make the same hook calls:
            // each nesting branch's boundary rides at the front of its own
            // call's wave, in one hook call with the `receive` at `n/a` (no
            // router: every target counts as co-located); its final part
            // then goes alone, and its guard is free again at once, so the
            // second `n/b` branch is granted inline like the first.
            let mut want = vec![vec![a.clone()]];
            for branch in [&b, &b, &c] {
                want.extend([vec![branch.clone(), a.clone()], vec![branch.clone()]]);
            }
            assert_eq!(*hook.0.lock(), want, "{payload}");
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn duplicate_targets_and_the_caller_itself_are_ordinary_branches() {
        // Without a hook, and with acks that only another thread delivers:
        // then the caller's own branch queues behind the boundary, which
        // keeps the caller's object until its ack, and is granted from the
        // ack; the second branch on `d/a` likewise from the first's.
        use super::tests::{run_pool, Pool};
        for pooled in [false, true] {
            let (engine, dir) = scatter_engine();
            let nodes = create(&engine, "Node", &["d/src", "d/a"]);
            let stop_pool = pooled.then(|| {
                let (acks_tx, acks) = channel::unbounded();
                engine.set_commit_hook(Arc::new(Pool(acks_tx)));
                run_pool(acks)
            });
            let (src, a) = (&nodes[0], &nodes[1]);
            let targets = [a.clone(), a.clone(), src.clone()];
            let results =
                engine.invoke(src, "post", vec![ids(&targets), VmValue::str("twice")]).unwrap();
            assert_eq!(results.as_list().unwrap().len(), 3);
            assert_eq!(engine.invoke(a, "inbox_count", vec![]).unwrap(), VmValue::Int(2));
            let own = engine.invoke(src, "inbox_count", vec![]).unwrap();
            assert_eq!(own, VmValue::Int(2), "its own copy, then its own branch");
            // A branch's error reaches the caller as the error it was.
            let err = engine
                .invoke(src, "broadcast_picky", vec![ids(&targets), VmValue::str("poison")])
                .unwrap_err();
            assert_eq!(err, InvokeError::Aborted("rejected".into()));
            if let Some(stop_pool) = stop_pool {
                stop_pool();
            }
            std::fs::remove_dir_all(dir).ok();
        }
    }

    /// Holds every `done` until [`HeldHook::release`]; records the objects
    /// of each call.
    #[derive(Default)]
    struct HeldHook {
        calls: parking_lot::Mutex<Vec<Vec<ObjectId>>>,
        held: parking_lot::Mutex<Vec<(ObjectId, CommitCallback)>>,
    }

    impl CommitHook for HeldHook {
        fn on_commit(&self, commits: Vec<DeferredCommit>) {
            self.calls.lock().push(commits.iter().map(|c| c.object.clone()).collect());
            self.held.lock().extend(commits.into_iter().map(|c| (c.object, c.done)));
        }
    }

    impl HeldHook {
        /// Ack everything held so far.
        fn release(&self) {
            self.release_failing(None);
        }

        /// Fail the write sets held for `object`, ack every other.
        fn release_failing(&self, object: Option<&ObjectId>) {
            let held = std::mem::take(&mut *self.held.lock());
            for (held, done) in held {
                done(if Some(&held) == object {
                    Err(InvokeError::Storage("replica down".into()))
                } else {
                    Ok(())
                });
            }
        }

        fn calls(&self) -> Vec<Vec<ObjectId>> {
            self.calls.lock().clone()
        }
    }

    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    /// Start `method(targets, payload)` on `src` on a thread of its own.
    fn spawn_invoke(
        engine: &Arc<Engine>,
        src: &ObjectId,
        method: &'static str,
        targets: &[ObjectId],
    ) -> std::thread::JoinHandle<Result<VmValue>> {
        let (engine, src, args) =
            (Arc::clone(engine), src.clone(), vec![ids(targets), VmValue::str("x")]);
        std::thread::spawn(move || engine.invoke(&src, method, args))
    }

    /// Serves every target here, and counts none as co-located.
    struct Apart;

    impl InvokeRouter for Apart {
        fn route_deferred(
            &self,
            _: &InvocationContext,
            _: &ObjectId,
            _: &str,
            _: &[VmValue],
            done: InvokeCompletion,
        ) -> Option<InvokeCompletion> {
            Some(done)
        }

        fn co_located(&self, _: &ObjectId, _: &ObjectId) -> bool {
            false
        }
    }

    #[test]
    fn a_boundary_rides_at_the_front_of_the_wave_only_when_every_target_is_co_located() {
        for co_located in [true, false] {
            let (engine, _, dir) = native_engine();
            let src = create(&engine, "Native", &["r/src"]).remove(0);
            let targets = create(&engine, "Native", &["r/0", "r/1", "r/2"]);
            let hook = Arc::new(RecordingHook::default());
            engine.set_commit_hook(Arc::clone(&hook) as Arc<dyn CommitHook>);
            if !co_located {
                engine.set_router(Arc::new(Apart));
            }
            let results = engine.invoke(&src, "post", vec![ids(&targets), VmValue::str("p")]);
            assert_eq!(results.unwrap(), ids(&targets));
            let mut wave = vec![src.clone()];
            wave.extend(targets.iter().cloned());
            let want = match co_located {
                true => vec![wave],
                false => vec![vec![src.clone()], targets.clone()],
            };
            assert_eq!(*hook.0.lock(), want, "co-located: {co_located}");
            assert_eq!(engine.stats().commits, 1 + targets.len() as u64, "{co_located}");
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn the_callers_next_invocation_runs_only_after_the_boundarys_ack() {
        let (engine, ran_on, dir) = native_engine();
        let src = create(&engine, "Native", &["q/src"]).remove(0);
        let targets = create(&engine, "Native", &["q/0", "q/1"]);
        let hook = Arc::new(HeldHook::default());
        engine.set_commit_hook(Arc::clone(&hook) as Arc<dyn CommitHook>);

        let scatter = spawn_invoke(&engine, &src, "post", &targets);
        wait_for("the wave", || !hook.calls().is_empty());
        assert_eq!(hook.calls(), vec![vec![src.clone(), targets[0].clone(), targets[1].clone()]]);
        let (tx, rx) = std::sync::mpsc::channel();
        let ctx = InvocationContext::client(Duration::from_secs(30));
        let done: InvokeCompletion = Box::new(move |outcome| tx.send(outcome).unwrap());
        engine.invoke_deferred(&ctx, &src, "receive", vec![VmValue::str("next")], false, done);
        assert_eq!(ran_on.lock().len(), 2, "only the branches ran: the caller is still held");

        hook.release();
        wait_for("the queued invocation to commit", || hook.calls().len() == 2);
        assert_eq!(hook.calls()[1], vec![src.clone()]);
        hook.release();
        assert!(rx.recv_timeout(Duration::from_secs(10)).unwrap().is_ok());
        assert_eq!(scatter.join().unwrap().unwrap(), ids(&targets));

        // The body resumed before that ack: a client-facing `post` whose
        // branches all joined the wave. When a round it ran on ahead of
        // fails, the invocation fails as the parked join would have made
        // it, and the caller's next invocation still waits for the round.
        let scatter = spawn_invoke(&engine, &src, "post", &targets);
        wait_for("the second wave", || hook.calls().len() == 3);
        assert_eq!(hook.calls()[2], vec![src.clone(), targets[0].clone(), targets[1].clone()]);
        let (tx, rx) = std::sync::mpsc::channel();
        let done: InvokeCompletion = Box::new(move |outcome| tx.send(outcome).unwrap());
        engine.invoke_deferred(&ctx, &src, "receive", vec![VmValue::str("then")], false, done);
        assert_eq!(ran_on.lock().len(), 5, "the caller is still held");
        hook.release_failing(Some(&targets[0]));
        let err = scatter.join().unwrap().unwrap_err();
        assert_eq!(err, parked_join_error(&targets[0]));
        wait_for("the queued invocation to commit", || hook.calls().len() == 4);
        assert_eq!(hook.calls()[3], vec![src.clone()]);
        hook.release();
        assert!(rx.recv_timeout(Duration::from_secs(10)).unwrap().is_ok());
        std::fs::remove_dir_all(dir).ok();
    }

    /// What a native `post` fails with when the write set of its branch on
    /// `failing` fails to replicate and the scatter parks for its acks: the
    /// boundary is acked alone first ([`Apart`]), so the join waits.
    fn parked_join_error(failing: &ObjectId) -> InvokeError {
        let (engine, _, dir) = native_engine();
        let name = failing.to_string();
        let nodes = create(&engine, "Native", &["parked/src", &name, "parked/other"]);
        engine.set_router(Arc::new(Apart));
        engine.set_commit_hook(Arc::new(FailingOn(failing.clone())));
        let args = vec![ids(&nodes[1..]), VmValue::str("x")];
        let err = engine.invoke(&nodes[0], "post", args).unwrap_err();
        std::fs::remove_dir_all(dir).ok();
        err
    }

    #[test]
    fn a_late_branch_ships_only_after_the_boundarys_ack() {
        // A busy target's branch commits after the wave has left. Shipped
        // at once, its round could overlap the boundary's and reach a
        // replica first; it waits behind the boundary's ack instead.
        let (engine, ran_on, dir) = native_engine();
        let src = create(&engine, "Native", &["l/src"]).remove(0);
        let targets = create(&engine, "Native", &["l/0", "l/1"]);
        let hook = Arc::new(HeldHook::default());
        engine.set_commit_hook(Arc::clone(&hook) as Arc<dyn CommitHook>);

        let busy = engine.scheduler().acquire_exclusive(&targets[1]);
        let scatter = spawn_invoke(&engine, &src, "post", &targets);
        wait_for("the wave", || !hook.calls().is_empty());
        assert_eq!(hook.calls(), vec![vec![src.clone(), targets[0].clone()]]);
        // Released here, the busy branch runs and commits on this thread,
        // and its write set stays with the wave.
        drop(busy);
        assert_eq!(ran_on.lock().len(), 2);
        assert_eq!(hook.calls().len(), 1, "held behind the unacked boundary");
        hook.release();
        assert_eq!(hook.calls()[1], vec![targets[1].clone()], "shipped from the boundary's ack");
        hook.release();
        assert_eq!(scatter.join().unwrap().unwrap(), ids(&targets));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_boundary_whose_done_is_dropped_fails_the_scatter_instead_of_hanging_it() {
        // A boundary riding in the wave, and one acked on its own.
        for apart in [false, true] {
            let (engine, _, dir) = native_engine();
            let src = create(&engine, "Native", &["x/src"]).remove(0);
            let targets = create(&engine, "Native", &["x/0", "x/1"]);
            engine.set_commit_hook(Arc::new(super::tests::DroppingHook));
            if apart {
                engine.set_router(Arc::new(Apart));
            }
            let scatter = spawn_invoke(&engine, &src, "post", &targets);
            let deadline = Instant::now() + Duration::from_secs(2);
            while !scatter.is_finished() {
                assert!(Instant::now() < deadline, "the scatter hung on a lost completion");
                std::thread::sleep(Duration::from_millis(1));
            }
            let err = scatter.join().unwrap().unwrap_err();
            assert!(err.to_string().contains(LOST), "apart: {apart}: {err}");
            std::fs::remove_dir_all(dir).ok();
        }
    }

    /// Fails the write sets of one object, acks every other.
    struct FailingOn(ObjectId);

    impl CommitHook for FailingOn {
        fn on_commit(&self, commits: Vec<DeferredCommit>) {
            for c in commits {
                (c.done)(if c.object == self.0 {
                    Err(InvokeError::Storage("replica down".into()))
                } else {
                    Ok(())
                });
            }
        }
    }

    #[test]
    fn a_failed_boundary_fails_the_scatter() {
        let (engine, _, dir) = native_engine();
        let src = create(&engine, "Native", &["f/src"]).remove(0);
        let targets = create(&engine, "Native", &["f/0", "f/1"]);
        engine.set_commit_hook(Arc::new(FailingOn(src.clone())));
        let err = engine.invoke(&src, "post", vec![ids(&targets), VmValue::str("p")]).unwrap_err();
        assert!(err.to_string().contains("replica down"), "{err}");
        // The branches are invocations of their own, and they committed.
        let n = engine.invoke(&targets[0], "inbox_count", vec![]).unwrap();
        assert_eq!(n, VmValue::Int(1));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_nesting_body_granted_on_the_completion_thread_resumes_there() {
        // The completion-pool rule (DESIGN.md §10): a completion thread
        // never parks. A one-thread pool, played by the test, acks every
        // commit in order. Y holds A until the pool acks it; Z queues
        // behind Y and is therefore granted on the pool thread, from Y's
        // commit completion. Z nests: a scatter, whose branches' acks only
        // the pool delivers, or a `relay`, a single `host.invoke` whose
        // boundary's ack does too. Had Z's body parked there, the pool
        // would wait for itself. It stops at its call instead, and the pool
        // thread resumes it once the acks are in: both steps of Z run on
        // that one thread, so none was spawned for it.
        use super::tests::{run_pool, Pool};
        for method in ["broadcast", "relay"] {
            let (engine, _, dir) = native_engine();
            // Z's bodies note the thread of each step: their start and their
            // resume.
            let steps = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let note = |steps: &Arc<parking_lot::Mutex<Vec<ThreadId>>>| {
                steps.lock().push(std::thread::current().id());
                Arc::clone(steps)
            };
            let mut reg = NativeRegistry::new();
            let noted = Arc::clone(&steps);
            reg.register("broadcast", false, false, true, move |ctx| {
                let noted = note(&noted);
                let Some(VmValue::List(ids)) = ctx.args.first().cloned() else {
                    return Err(HostError::Aborted("no targets".into()));
                };
                let targets = ids.iter().filter_map(|id| id.as_bytes().map(<[u8]>::to_vec));
                let args = vec![VmValue::Bytes(ctx.bytes_arg(1)?)];
                Ok(Step::invoke_many(targets.collect(), "receive", args, move |_, results| {
                    note(&noted);
                    Ok(VmValue::List(results?).into())
                }))
            });
            let noted = Arc::clone(&steps);
            reg.register("relay", false, false, false, move |ctx| {
                let noted = note(&noted);
                let (to, payload) = (ctx.bytes_arg(0)?, ctx.bytes_arg(1)?);
                ctx.host.push(b"inbox", &payload)?;
                let args = vec![VmValue::Bytes(payload.clone())];
                Ok(Step::invoke(to, "receive", args, move |host, received| {
                    note(&noted);
                    received?;
                    host.push(b"inbox", &payload)?;
                    Ok(VmValue::Unit.into())
                }))
            });
            reg.register("receive", false, false, false, |ctx| {
                ctx.host.push(b"inbox", &ctx.bytes_arg(0)?)?;
                Ok(VmValue::Bytes(ctx.host.self_id()))
            });
            reg.register("inbox_count", true, true, true, |ctx| {
                Ok(VmValue::Int(ctx.host.count(b"inbox")? as i64))
            });
            let inbox = vec![FieldDef { name: "inbox".into(), kind: FieldKind::Collection }];
            engine.types().register(ObjectType::from_native("Noted", inbox, reg));
            let nodes = create(&engine, "Noted", &["p/a", "p/b", "p/c"]);
            let (acks_tx, acks) = channel::unbounded();
            engine.set_commit_hook(Arc::new(Pool(acks_tx)));
            let (tx, rx) = std::sync::mpsc::channel();
            let start = |method: &str, args: Vec<VmValue>| {
                let ctx = InvocationContext::client(Duration::from_secs(30));
                let tx = tx.clone();
                let done: InvokeCompletion = Box::new(move |outcome| {
                    tx.send((outcome, std::thread::current().id())).unwrap()
                });
                engine.invoke_deferred(&ctx, &nodes[0], method, args, false, done);
            };
            start("receive", vec![VmValue::str("y")]); // Y: holds A, awaits the pool
            let to = if method == "relay" {
                VmValue::Bytes(nodes[1].0.clone())
            } else {
                ids(&nodes[1..])
            };
            start(method, vec![to, VmValue::str("z")]); // Z: behind Y
            assert_eq!(acks.len(), 1, "Y waits for its ack, Z for Y");
            assert!(steps.lock().is_empty(), "{method}: Z waits for A");

            let stop_pool = run_pool(acks);
            let mut outcomes = (0..2).map(|_| {
                let outcome = rx.recv_timeout(Duration::from_secs(10));
                outcome.expect("the pool thread wedged")
            });
            let (y, pool) = outcomes.next().unwrap();
            let (z, _) = outcomes.next().unwrap();
            stop_pool();
            assert!(y.is_ok() && z.is_ok(), "{method}: {y:?} {z:?}");
            assert_ne!(pool, std::thread::current().id(), "Y finished on the pool thread");
            assert_eq!(*steps.lock(), [pool; 2], "{method}: Z started and resumed on the pool");
            // Y's `receive`, then the scatter's one per branch, or the
            // relay's two at A around the one at B.
            let want = if method == "relay" { [3, 1, 0] } else { [1, 1, 1] };
            for (node, inbox) in nodes.iter().zip(want) {
                let n = engine.invoke(node, "inbox_count", vec![]).unwrap();
                assert_eq!(n, VmValue::Int(inbox), "{method}");
            }
            std::fs::remove_dir_all(dir).ok();
        }
    }

    // -- Resuming before the acks -----------------------------------------

    /// [`native_engine`] plus a `Noter` type whose bodies note each resume
    /// from a nested call: `post(targets, payload)` keeps a copy and
    /// scatters `receive` to the `Native` targets; `broadcast` does not keep
    /// one, so its boundary is empty; `post_and_keep` writes once more after
    /// the scatter, and `post_and_abort` fails after it; `post_each` keeps a
    /// copy before a `host.invoke` of each target in turn.
    fn noting_engine() -> (Arc<Engine>, Noted<String>, Noted<ThreadId>, std::path::PathBuf) {
        let (engine, ran_on, dir) = native_engine();
        let notes = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut reg = NativeRegistry::new();
        let scatters = [("post", true), ("broadcast", false), ("post_and_keep", true)];
        for (name, keep) in scatters.into_iter().chain([("post_and_abort", true)]) {
            let notes = Arc::clone(&notes);
            reg.register(name, false, false, true, move |ctx| {
                let Some(VmValue::List(targets)) = ctx.args.first().cloned() else {
                    return Err(HostError::Aborted("no targets".into()));
                };
                let targets = targets.iter().filter_map(|t| t.as_bytes().map(<[u8]>::to_vec));
                let payload = ctx.bytes_arg(1)?;
                if keep {
                    ctx.host.push(b"inbox", &payload)?;
                }
                let args = vec![VmValue::Bytes(payload.clone())];
                let notes = Arc::clone(&notes);
                let then = move |host: &mut dyn Host, results: HostResult<Vec<VmValue>>| {
                    let results = results?;
                    notes.lock().push(format!("{name} resumed"));
                    match name {
                        "post_and_keep" => host.push(b"inbox", &payload)?,
                        "post_and_abort" => {
                            return Err(HostError::Aborted("after the scatter".into()))
                        }
                        _ => {}
                    }
                    Ok(VmValue::List(results).into())
                };
                Ok(Step::invoke_many(targets.collect(), "receive", args, then))
            });
        }
        let noted = Arc::clone(&notes);
        reg.register("post_each", false, false, true, move |ctx| {
            let Some(VmValue::List(targets)) = ctx.args.first().cloned() else {
                return Err(HostError::Aborted("no targets".into()));
            };
            let targets = targets.iter().filter_map(|t| t.as_bytes().map(<[u8]>::to_vec)).collect();
            let payload = ctx.bytes_arg(1)?;
            post_each(ctx.host, targets, 0, payload, Arc::clone(&noted))
        });
        reg.register("inbox_count", true, true, true, |ctx| {
            Ok(VmValue::Int(ctx.host.count(b"inbox")? as i64))
        });
        let inbox = vec![FieldDef { name: "inbox".into(), kind: FieldKind::Collection }];
        engine.types().register(ObjectType::from_native("Noter", inbox, reg));
        (engine, notes, ran_on, dir)
    }

    /// `post_each` from its `i`th target on: keep a copy, `host.invoke` the
    /// target, note the resume, and go on with the next.
    fn post_each(
        host: &mut dyn Host,
        targets: Vec<Vec<u8>>,
        i: usize,
        payload: Vec<u8>,
        notes: Noted<String>,
    ) -> HostResult<Step> {
        let Some(target) = targets.get(i).cloned() else { return Ok(VmValue::Unit.into()) };
        host.push(b"inbox", &payload)?;
        let args = vec![VmValue::Bytes(payload.clone())];
        Ok(Step::invoke(target, "receive", args, move |host, received| {
            received?;
            notes.lock().push(format!("call {i} resumed"));
            post_each(host, targets, i + 1, payload, notes)
        }))
    }

    /// One hook call: each write set's object and the answer it carries.
    type Answered = Vec<(ObjectId, Option<VmValue>)>;

    /// Acks every commit at once and records each call.
    #[derive(Default)]
    struct AnswerHook(parking_lot::Mutex<Vec<Answered>>);

    impl CommitHook for AnswerHook {
        fn on_commit(&self, commits: Vec<DeferredCommit>) {
            self.0
                .lock()
                .push(commits.iter().map(|c| (c.object.clone(), c.reply.clone())).collect());
            commits.into_iter().for_each(|c| (c.done)(Ok(())));
        }
    }

    #[test]
    fn the_answer_rides_on_the_boundary_or_on_a_final_part_after_the_wave_and_an_error_carries_none(
    ) {
        let (engine, notes, _, dir) = noting_engine();
        let src = create(&engine, "Noter", &["a/src"]).remove(0);
        let targets = create(&engine, "Native", &["a/0", "a/1"]);
        let hook = Arc::new(AnswerHook::default());
        engine.set_commit_hook(Arc::clone(&hook) as Arc<dyn CommitHook>);
        let post = |method| engine.invoke(&src, method, vec![ids(&targets), VmValue::str("p")]);

        assert_eq!(post("post").unwrap(), ids(&targets));
        let answer = Some(ids(&targets));
        let wave = |first: Option<VmValue>| {
            let mut wave = vec![(src.clone(), first)];
            wave.extend(targets.iter().map(|t| (t.clone(), None)));
            wave
        };
        assert_eq!(*hook.0.lock(), vec![wave(answer.clone())], "on the boundary, one call");

        hook.0.lock().clear();
        assert_eq!(post("post_and_keep").unwrap(), ids(&targets));
        let keep = vec![wave(None), vec![(src.clone(), answer)]];
        assert_eq!(*hook.0.lock(), keep, "on the final part, once the wave replicated");

        hook.0.lock().clear();
        let err = post("post_and_abort").unwrap_err();
        assert_eq!(err, InvokeError::Aborted("after the scatter".into()));
        assert_eq!(*hook.0.lock(), vec![wave(None)], "an error return ships the wave bare");

        let resumed = ["post resumed", "post_and_keep resumed", "post_and_abort resumed"];
        assert_eq!(*notes.lock(), resumed);
        let count = |id| engine.invoke(id, "inbox_count", vec![]).unwrap();
        assert_eq!(count(&src), VmValue::Int(4), "one copy each, and one more kept after");
        assert_eq!(count(&targets[0]), VmValue::Int(3), "the aborted body's branches committed");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_final_part_after_a_failed_wave_is_never_written_so_a_redelivery_runs_the_body_again() {
        let (engine, notes, _, dir) = noting_engine();
        let src = create(&engine, "Noter", &["r/src"]).remove(0);
        let targets = create(&engine, "Native", &["r/0", "r/1"]);
        let args = vec![ids(&targets), VmValue::str("p")];
        let ctx = InvocationContext::client(Duration::from_secs(30));
        let deliver = |attempt| {
            let ctx = InvocationContext { attempt, ..ctx };
            engine.invoke_ctx(&ctx, &src, "post_and_keep", args.clone(), true, 0)
        };

        // The body runs on ahead of the acks, and the branch on `0` fails
        // to replicate: the invocation fails as the parked join would have
        // made it, and its final part, with the dedup record, is dropped.
        engine.set_commit_hook(Arc::new(FailingOn(targets[0].clone())));
        assert_eq!(deliver(0).unwrap_err(), parked_join_error(&targets[0]));
        assert_eq!(*notes.lock(), ["post_and_keep resumed"]);

        // So a re-delivery with the same invocation id runs the body again,
        // fan-out and all; once that is recorded, a third is answered from
        // the record.
        engine.set_commit_hook(Arc::new(AnswerHook::default()));
        assert_eq!(deliver(1).unwrap(), ids(&targets));
        assert_eq!(*notes.lock(), ["post_and_keep resumed"; 2]);
        assert_eq!(engine.stats().duplicates_suppressed, 0);
        assert_eq!(deliver(2).unwrap(), ids(&targets));
        assert_eq!(engine.stats().duplicates_suppressed, 1);
        assert_eq!(notes.lock().len(), 2);
        let count = |id| engine.invoke(id, "inbox_count", vec![]).unwrap();
        assert_eq!(count(&src), VmValue::Int(3), "two boundaries, one final part");
        assert_eq!(count(&targets[1]), VmValue::Int(2));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_scatter_with_a_busy_target_resumes_only_after_the_acks() {
        let (engine, notes, _, dir) = noting_engine();
        let src = create(&engine, "Noter", &["bz/src"]).remove(0);
        let targets = create(&engine, "Native", &["bz/0", "bz/1"]);
        let hook = Arc::new(HeldHook::default());
        engine.set_commit_hook(Arc::clone(&hook) as Arc<dyn CommitHook>);

        let busy = engine.scheduler().acquire_exclusive(&targets[1]);
        let scatter = spawn_invoke(&engine, &src, "post", &targets);
        wait_for("the wave", || !hook.calls().is_empty());
        assert_eq!(hook.calls(), vec![vec![src.clone(), targets[0].clone()]]);
        drop(busy);
        assert_eq!(hook.calls().len(), 1, "the late branch waits behind the boundary");
        hook.release();
        assert_eq!(hook.calls()[1], vec![targets[1].clone()]);
        assert!(notes.lock().is_empty(), "the body waits for every ack");
        hook.release();
        assert_eq!(scatter.join().unwrap().unwrap(), ids(&targets));
        assert_eq!(*notes.lock(), ["post resumed"]);
        std::fs::remove_dir_all(dir).ok();
    }

    /// Serves `0` elsewhere — its branch answers at once, from the router —
    /// and every other target here; counts every target as co-located.
    struct Remote(ObjectId);

    impl InvokeRouter for Remote {
        fn route_deferred(
            &self,
            _: &InvocationContext,
            target: &ObjectId,
            _: &str,
            _: &[VmValue],
            done: InvokeCompletion,
        ) -> Option<InvokeCompletion> {
            if *target != self.0 {
                return Some(done);
            }
            done(Ok(VmValue::Bytes(target.0.clone())));
            None
        }

        fn co_located(&self, _: &ObjectId, _: &ObjectId) -> bool {
            true
        }
    }

    #[test]
    fn a_scatter_with_an_empty_boundary_or_a_remote_target_never_resumes_early() {
        for (method, remote) in [("broadcast", false), ("post", true)] {
            let (engine, notes, _, dir) = noting_engine();
            let src = create(&engine, "Noter", &["e/src"]).remove(0);
            let targets = create(&engine, "Native", &["e/0", "e/1"]);
            let hook = Arc::new(HeldHook::default());
            engine.set_commit_hook(Arc::clone(&hook) as Arc<dyn CommitHook>);
            if remote {
                engine.set_router(Arc::new(Remote(targets[1].clone())));
            }
            let scatter = spawn_invoke(&engine, &src, method, &targets);
            wait_for("the wave", || !hook.calls().is_empty());
            let want = match remote {
                true => vec![src.clone(), targets[0].clone()],
                false => targets.clone(),
            };
            assert_eq!(hook.calls(), vec![want], "{method}");
            assert!(notes.lock().is_empty(), "{method}: the body waits for the acks");
            hook.release();
            assert_eq!(scatter.join().unwrap().unwrap(), ids(&targets), "{method}");
            assert_eq!(*notes.lock(), [format!("{method} resumed")]);
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn a_body_that_nests_twice_joins_the_first_wave_before_its_second_boundary_commits() {
        let (engine, notes, _, dir) = noting_engine();
        let src = create(&engine, "Noter", &["t/src"]).remove(0);
        let targets = create(&engine, "Native", &["t/0", "t/1"]);
        let hook = Arc::new(HeldHook::default());
        engine.set_commit_hook(Arc::clone(&hook) as Arc<dyn CommitHook>);

        let scatter = spawn_invoke(&engine, &src, "post_each", &targets);
        // The first call resumed at once; the second ships its wave and
        // waits for that wave's acks with its own boundary still buffered.
        wait_for("the first wave", || !hook.calls().is_empty());
        assert_eq!(hook.calls(), vec![vec![src.clone(), targets[0].clone()]]);
        assert_eq!(*notes.lock(), ["call 0 resumed"]);
        assert_eq!(engine.object_version(&src), 1, "the second boundary has not committed");
        hook.release();
        wait_for("the second wave", || hook.calls().len() == 2);
        assert_eq!(hook.calls()[1], vec![src.clone(), targets[1].clone()]);
        assert_eq!(engine.object_version(&src), 2);
        assert_eq!(*notes.lock(), ["call 0 resumed", "call 1 resumed"]);
        hook.release();
        assert_eq!(scatter.join().unwrap().unwrap(), VmValue::Unit);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_body_whose_calls_are_answered_at_once_resumes_in_a_loop_on_its_own_thread() {
        // Every `post_each` call has its answer before the call returns:
        // with no hook, or through a hook that acks at once. Each resume
        // goes back to the body's own `advance` loop, so a thousand calls
        // neither grow the stack (each resume a step deeper overflows it)
        // nor hop to a `lock-grant-drain` thread every 32 grants.
        for hooked in [false, true] {
            let (engine, notes, ran_on, dir) = noting_engine();
            let src = create(&engine, "Noter", &["l/src"]).remove(0);
            let names: Vec<String> = (0..1000).map(|i| format!("l/{i}")).collect();
            let targets =
                create(&engine, "Native", &names.iter().map(String::as_str).collect::<Vec<_>>());
            if hooked {
                engine.set_commit_hook(Arc::new(AnswerHook::default()));
            }
            let args = vec![ids(&targets), VmValue::str("p")];
            assert_eq!(engine.invoke(&src, "post_each", args).unwrap(), VmValue::Unit);
            assert_eq!(notes.lock().len(), targets.len(), "hooked: {hooked}");
            let me = std::thread::current().id();
            assert!(ran_on.lock().iter().all(|t| *t == me), "hooked: {hooked}");
            let n = engine.invoke(&src, "inbox_count", vec![]).unwrap();
            assert_eq!(n, VmValue::Int(targets.len() as i64));
            std::fs::remove_dir_all(dir).ok();
        }
    }
}
