//! Per-object scheduling / concurrency control.
//!
//! §4.2: storage nodes "avoid write conflicts by not scheduling two
//! functions modifying data of the same object at the same time", combining
//! function scheduling with concurrency control — the application developer
//! "determine\[s\] the granularity of locks" by deciding what an object is.
//!
//! Mutating invocations take the object's lock exclusively; read-only
//! invocations share it. Alternative modes exist for the scheduler
//! ablation (ABL-SCHED in DESIGN.md): one global lock (coarse), or no
//! locking at all (unsafe, for measuring what the locks cost).
//!
//! The lock is a FIFO queue of waiters rather than a thread-parking
//! rwlock: a waiter is a continuation that the releasing thread runs when
//! the grant happens — the caller's own ([`Scheduler::acquire_deferred`]),
//! or one that wakes a parked thread (the blocking `acquire_*` calls).
//! Deferred waiters are what let an RPC worker hand off a queued
//! invocation and go serve other requests instead of parking on a hot
//! object.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crossbeam::channel;
use lambda_telemetry::{Counter, InvocationContext, Registry};
use parking_lot::Mutex;

use crate::error::InvokeError;
use crate::object::ObjectId;

/// Locking disciplines, selectable for ablation experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerMode {
    /// One reader-writer lock per object (the paper's design).
    #[default]
    PerObject,
    /// A single lock for the whole node (what a naive embedding would do).
    Global,
    /// No locking: invocation linearizability is **not** provided. Only for
    /// measuring lock overhead against.
    Unsafe,
}

/// Scheduler statistics — a thin view over the telemetry registry's
/// `sched_*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Exclusive acquisitions.
    pub exclusive: u64,
    /// Shared acquisitions.
    pub shared: u64,
    /// Invocations shed at dequeue because their deadline had expired.
    pub shed: u64,
}

/// Completion for a deferred lock acquisition.
pub type GrantCallback = Box<dyn FnOnce(Result<ObjectGuard, InvokeError>) + Send>;

thread_local! {
    /// Nested grant-continuation depth on this thread (see [`run_grant`]).
    static GRANT_DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Longest chain of grant continuations run on one stack before the rest
/// of the chain is handed to a fresh thread.
///
/// A continuation that finishes its invocation synchronously (sync-WAL
/// replication) drops its guard inside its own frame, which grants the
/// next waiter inline — so draining an N-deep hot-object queue would
/// otherwise recurse N invocation frames on one worker stack and
/// overflow under sustained hotspot load.
const GRANT_INLINE_DEPTH: usize = 32;

/// Run a grant continuation, bounding how deep continuation chains grow
/// on this stack; past the limit the remainder of the chain moves to a
/// fresh thread (never back onto a frame that might be blocked waiting
/// to reacquire — that would deadlock the host's nested-invoke resume).
fn run_grant(grant: GrantCallback, result: Result<ObjectGuard, InvokeError>) {
    let depth = GRANT_DEPTH.with(std::cell::Cell::get);
    if depth >= GRANT_INLINE_DEPTH {
        let cell = std::sync::Arc::new(Mutex::new(Some((grant, result))));
        let theirs = std::sync::Arc::clone(&cell);
        let spawned =
            std::thread::Builder::new().name("lock-grant-drain".into()).spawn(move || {
                if let Some((grant, result)) = theirs.lock().take() {
                    grant(result);
                }
            });
        if spawned.is_err() {
            // Out of threads: running inline risks the deep stack, but
            // dropping the grant would leak the lock forever.
            if let Some((grant, result)) = cell.lock().take() {
                grant(result);
            }
        }
        return;
    }
    GRANT_DEPTH.with(|d| d.set(depth + 1));
    grant(result);
    GRANT_DEPTH.with(|d| d.set(depth));
}

struct Waiter {
    exclusive: bool,
    /// Deadline carried into the queue; checked again at grant time.
    ctx: Option<InvocationContext>,
    grant: GrantCallback,
}

#[derive(Default)]
struct LockState {
    readers: usize,
    writer: bool,
    queue: VecDeque<Waiter>,
}

/// One object's lock: mode bits plus the FIFO waiter queue.
struct ObjectLock {
    state: Mutex<LockState>,
    shed: Counter,
}

impl ObjectLock {
    fn new(shed: Counter) -> ObjectLock {
        ObjectLock { state: Mutex::new(LockState::default()), shed }
    }

    fn busy(&self) -> bool {
        let st = self.state.lock();
        st.writer || st.readers > 0 || !st.queue.is_empty()
    }

    /// Release one holder and hand the lock to the next waiters in FIFO
    /// order (one writer, or a batch of contiguous readers). Expired
    /// waiters are shed here — at dequeue — before any execute/commit
    /// work. Grant continuations run on the releasing thread, outside the
    /// lock's mutex.
    fn release(self: &Arc<Self>, exclusive: bool) {
        let mut grants: Vec<(GrantCallback, Result<ObjectGuard, InvokeError>)> = Vec::new();
        {
            let mut st = self.state.lock();
            if exclusive {
                debug_assert!(st.writer);
                st.writer = false;
            } else {
                debug_assert!(st.readers > 0);
                st.readers -= 1;
            }
            self.grant_locked(&mut st, &mut grants);
        }
        for (grant, result) in grants {
            run_grant(grant, result);
        }
    }

    fn grant_locked(
        self: &Arc<Self>,
        st: &mut LockState,
        grants: &mut Vec<(GrantCallback, Result<ObjectGuard, InvokeError>)>,
    ) {
        while let Some(front) = st.queue.front() {
            // Shed waiters whose budget died in the queue, regardless of
            // whether the lock is free for them.
            if front.ctx.as_ref().is_some_and(InvocationContext::expired) {
                let w = st.queue.pop_front().expect("front exists");
                self.shed.incr();
                grants.push((w.grant, Err(InvokeError::DeadlineExceeded)));
                continue;
            }
            if front.exclusive {
                if st.writer || st.readers > 0 {
                    break;
                }
                let w = st.queue.pop_front().expect("front exists");
                st.writer = true;
                let guard = ObjectGuard { lock: Some((Arc::clone(self), true)) };
                grants.push((w.grant, Ok(guard)));
                break;
            }
            // Shared: admit a batch of contiguous readers.
            if st.writer {
                break;
            }
            let w = st.queue.pop_front().expect("front exists");
            st.readers += 1;
            let guard = ObjectGuard { lock: Some((Arc::clone(self), false)) };
            grants.push((w.grant, Ok(guard)));
        }
    }
}

/// Grants and tracks object locks.
pub struct Scheduler {
    mode: SchedulerMode,
    locks: Mutex<HashMap<ObjectId, Arc<ObjectLock>>>,
    global: Arc<ObjectLock>,
    exclusive: Counter,
    shared: Counter,
    shed: Counter,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler").field("mode", &self.mode).finish()
    }
}

/// A held object lock; released on drop. Plain data (`Send`), so it can
/// travel with a deferred invocation across threads — from the granting
/// thread through commit and replication completion — and be dropped
/// wherever the reply finally happens.
pub struct ObjectGuard {
    lock: Option<(Arc<ObjectLock>, bool)>,
}

impl std::fmt::Debug for ObjectGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectGuard").finish()
    }
}

impl Drop for ObjectGuard {
    fn drop(&mut self) {
        if let Some((lock, exclusive)) = self.lock.take() {
            lock.release(exclusive);
        }
    }
}

impl Scheduler {
    /// A scheduler with the given discipline and private counters.
    pub fn new(mode: SchedulerMode) -> Scheduler {
        let shed = Counter::new();
        Scheduler {
            mode,
            locks: Mutex::new(HashMap::new()),
            global: Arc::new(ObjectLock::new(shed.clone())),
            exclusive: Counter::new(),
            shared: Counter::new(),
            shed,
        }
    }

    /// A scheduler whose counters live in `registry` (as `sched_exclusive`,
    /// `sched_shared`, `sched_shed`), so node stats and scheduler stats are
    /// views over the same cells.
    pub fn with_registry(mode: SchedulerMode, registry: &Registry) -> Scheduler {
        let shed = registry.counter("sched_shed");
        Scheduler {
            mode,
            locks: Mutex::new(HashMap::new()),
            global: Arc::new(ObjectLock::new(shed.clone())),
            exclusive: registry.counter("sched_exclusive"),
            shared: registry.counter("sched_shared"),
            shed,
        }
    }

    /// The active discipline.
    pub fn mode(&self) -> SchedulerMode {
        self.mode
    }

    fn lock_for(&self, object: &ObjectId) -> Arc<ObjectLock> {
        match self.mode {
            SchedulerMode::Global => Arc::clone(&self.global),
            _ => {
                let mut locks = self.locks.lock();
                Arc::clone(
                    locks
                        .entry(object.clone())
                        .or_insert_with(|| Arc::new(ObjectLock::new(self.shed.clone()))),
                )
            }
        }
    }

    /// The one acquire: every decision — deadline shed, counters, the
    /// `Unsafe` bypass, immediate grant when the lock is free (FIFO: an
    /// empty queue) or else a place in the queue — is made here. `grant`
    /// runs on *this* thread when the lock is free right now, else on
    /// whichever thread releases it. The public entry points only choose
    /// how the caller waits for it.
    fn acquire(
        &self,
        object: &ObjectId,
        exclusive: bool,
        ctx: Option<&InvocationContext>,
        grant: GrantCallback,
    ) {
        // Already out of budget: shed without touching the lock table.
        if ctx.is_some_and(InvocationContext::expired) {
            self.shed.incr();
            return grant(Err(InvokeError::DeadlineExceeded));
        }
        if exclusive {
            self.exclusive.incr();
        } else {
            self.shared.incr();
        }
        if self.mode == SchedulerMode::Unsafe {
            return grant(Ok(ObjectGuard { lock: None }));
        }
        let lock = self.lock_for(object);
        let mut st = lock.state.lock();
        let free = !st.writer && st.queue.is_empty() && (!exclusive || st.readers == 0);
        if !free {
            st.queue.push_back(Waiter { exclusive, ctx: ctx.copied(), grant });
            return;
        }
        if exclusive {
            st.writer = true;
        } else {
            st.readers += 1;
        }
        drop(st);
        run_grant(grant, Ok(ObjectGuard { lock: Some((lock, exclusive)) }));
    }

    /// Parked shell, without a deadline: the grant is handed over a
    /// channel. (Sound as "deferred plus `recv()`", although a grant runs
    /// on the *releasing* thread and that may be a completion: nothing that
    /// parks here sits on the completion pool — DESIGN.md §10, the
    /// completion-pool rule.)
    fn acquire_parked(&self, object: &ObjectId, exclusive: bool) -> ObjectGuard {
        let (tx, rx) = channel::bounded(1);
        self.acquire(object, exclusive, None, Box::new(move |res| drop(tx.send(res))));
        rx.recv().expect("lock queue never drops waiters").expect("no deadline: cannot be shed")
    }

    /// Acquire `object` for a mutating invocation (exclusive), blocking
    /// until granted.
    pub fn acquire_exclusive(&self, object: &ObjectId) -> ObjectGuard {
        self.acquire_parked(object, true)
    }

    /// Acquire `object` for a read-only invocation (shared).
    pub fn acquire_shared(&self, object: &ObjectId) -> ObjectGuard {
        self.acquire_parked(object, false)
    }

    /// Deadline-aware acquire without parking: the continuation `cont`
    /// runs when the lock is granted, or with
    /// [`InvokeError::DeadlineExceeded`] when the invocation is shed — its
    /// budget expired before enqueueing, or while it waited behind the
    /// lock (*at dequeue time*: before any execute/commit work, never
    /// reaching the engine's method body).
    pub fn acquire_deferred(
        &self,
        object: &ObjectId,
        exclusive: bool,
        ctx: &InvocationContext,
        cont: GrantCallback,
    ) {
        self.acquire(object, exclusive, Some(ctx), cont);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            exclusive: self.exclusive.get(),
            shared: self.shared.get(),
            shed: self.shed.get(),
        }
    }

    /// Drop lock table entries no longer held by anyone (housekeeping for
    /// long-running nodes with many short-lived objects).
    pub fn gc(&self) {
        let mut locks = self.locks.lock();
        locks.retain(|_, l| Arc::strong_count(l) > 1 || l.busy());
    }

    /// Number of objects with materialized locks.
    pub fn tracked_objects(&self) -> usize {
        self.locks.lock().len()
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new(SchedulerMode::PerObject)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn oid(s: &str) -> ObjectId {
        ObjectId::from(s)
    }

    #[test]
    fn exclusive_excludes_exclusive_same_object() {
        let sched = Arc::new(Scheduler::default());
        let running = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let sched = Arc::clone(&sched);
                let running = Arc::clone(&running);
                let max_seen = Arc::clone(&max_seen);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let _g = sched.acquire_exclusive(&oid("hot"));
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        max_seen.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_micros(20));
                        running.fetch_sub(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(max_seen.load(Ordering::SeqCst), 1, "never two writers at once");
    }

    #[test]
    fn different_objects_run_in_parallel() {
        let sched = Arc::new(Scheduler::default());
        let g1 = sched.acquire_exclusive(&oid("a"));
        // Must not block:
        let g2 = sched.acquire_exclusive(&oid("b"));
        drop((g1, g2));
    }

    #[test]
    fn readers_share() {
        let sched = Arc::new(Scheduler::default());
        let g1 = sched.acquire_shared(&oid("a"));
        let g2 = sched.acquire_shared(&oid("a"));
        drop((g1, g2));
        assert_eq!(sched.stats().shared, 2);
    }

    #[test]
    fn writer_blocks_reader() {
        let sched = Arc::new(Scheduler::default());
        let g = sched.acquire_exclusive(&oid("a"));
        let sched2 = Arc::clone(&sched);
        let t = std::thread::spawn(move || {
            let _g = sched2.acquire_shared(&oid("a"));
            // Reached only after the writer releases.
            true
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(!t.is_finished(), "reader must wait for writer");
        drop(g);
        assert!(t.join().unwrap());
    }

    #[test]
    fn global_mode_serializes_everything() {
        let sched = Scheduler::new(SchedulerMode::Global);
        let g1 = sched.acquire_exclusive(&oid("a"));
        let done = Arc::new(AtomicUsize::new(0));
        let done2 = Arc::clone(&done);
        let sched = Arc::new(sched);
        let sched2 = Arc::clone(&sched);
        let t = std::thread::spawn(move || {
            let _g = sched2.acquire_exclusive(&oid("b"));
            done2.store(1, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(done.load(Ordering::SeqCst), 0, "different object still blocked");
        drop(g1);
        t.join().unwrap();
    }

    #[test]
    fn unsafe_mode_never_blocks() {
        let sched = Scheduler::new(SchedulerMode::Unsafe);
        let g1 = sched.acquire_exclusive(&oid("a"));
        let g2 = sched.acquire_exclusive(&oid("a"));
        drop((g1, g2));
    }

    /// `acquire_deferred` where the grant or the shed happens inline.
    fn acquire_now(
        sched: &Scheduler,
        exclusive: bool,
        ctx: &InvocationContext,
    ) -> Result<ObjectGuard, InvokeError> {
        let (tx, rx) = channel::bounded(1);
        sched.acquire_deferred(
            &oid("a"),
            exclusive,
            ctx,
            Box::new(move |res| tx.send(res).unwrap()),
        );
        rx.try_recv().expect("a free lock grants inline")
    }

    #[test]
    fn expired_context_is_shed_before_enqueue() {
        let sched = Scheduler::default();
        // A context whose budget is already zero.
        let ctx = InvocationContext::from_wire(1, 0, 0);
        let res = acquire_now(&sched, true, &ctx);
        assert!(matches!(res, Err(InvokeError::DeadlineExceeded)));
        assert_eq!(sched.stats().shed, 1);
        // It never materialized a lock — nothing reached the lock table.
        assert_eq!(sched.tracked_objects(), 0);
    }

    #[test]
    fn unexpired_context_acquires_normally() {
        let sched = Scheduler::default();
        let ctx = InvocationContext::client(Duration::from_secs(10));
        drop(acquire_now(&sched, true, &ctx).unwrap());
        drop(acquire_now(&sched, false, &ctx).unwrap());
        let s = sched.stats();
        assert_eq!((s.exclusive, s.shared, s.shed), (1, 1, 0));
    }

    #[test]
    fn background_context_never_sheds() {
        let sched = Scheduler::default();
        let ctx = InvocationContext::background();
        assert!(acquire_now(&sched, true, &ctx).is_ok());
        assert_eq!(sched.stats().shed, 0);
    }

    #[test]
    fn registry_backed_counters_are_shared() {
        let reg = lambda_telemetry::Registry::new();
        let sched = Scheduler::with_registry(SchedulerMode::PerObject, &reg);
        let _g = sched.acquire_exclusive(&oid("a"));
        assert_eq!(reg.counter_value("sched_exclusive"), 1);
        assert_eq!(sched.stats().exclusive, 1);
    }

    #[test]
    fn gc_reclaims_unused_locks() {
        let sched = Scheduler::default();
        for i in 0..100 {
            let _g = sched.acquire_exclusive(&oid(&format!("tmp-{i}")));
        }
        assert_eq!(sched.tracked_objects(), 100);
        sched.gc();
        assert_eq!(sched.tracked_objects(), 0);
        // A held lock survives gc.
        let _g = sched.acquire_exclusive(&oid("live"));
        sched.gc();
        assert_eq!(sched.tracked_objects(), 1);
    }

    #[test]
    fn deferred_acquire_runs_inline_when_free() {
        let sched = Scheduler::default();
        let ctx = InvocationContext::client(Duration::from_secs(5));
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        sched.acquire_deferred(
            &oid("a"),
            true,
            &ctx,
            Box::new(move |res| {
                assert!(res.is_ok());
                ran2.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert_eq!(ran.load(Ordering::SeqCst), 1, "free lock grants inline");
    }

    #[test]
    fn deferred_acquire_granted_by_releasing_thread() {
        let sched = Arc::new(Scheduler::default());
        let id = oid("hot");
        let ctx = InvocationContext::client(Duration::from_secs(5));
        let g = sched.acquire_exclusive(&id);
        let (tx, rx) = channel::unbounded();
        sched.acquire_deferred(
            &id,
            true,
            &ctx,
            Box::new(move |res| {
                tx.send(std::thread::current().id()).unwrap();
                drop(res);
            }),
        );
        assert!(rx.try_recv().is_err(), "must wait for the holder");
        let releaser = std::thread::spawn(move || {
            drop(g);
            std::thread::current().id()
        });
        let releaser_id = releaser.join().unwrap();
        let granted_on = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(granted_on, releaser_id, "continuation runs on the releasing thread");
    }

    #[test]
    fn deferred_waiter_expired_in_queue_is_shed_at_grant() {
        let sched = Arc::new(Scheduler::default());
        let id = oid("slow");
        let g = sched.acquire_exclusive(&id);
        let ctx = InvocationContext::from_wire(7, 20_000_000, 0); // 20ms budget
        let (tx, rx) = channel::unbounded();
        sched.acquire_deferred(
            &id,
            true,
            &ctx,
            Box::new(move |res| tx.send(res.map(|_| ())).unwrap()),
        );
        std::thread::sleep(Duration::from_millis(80));
        drop(g);
        let res = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert!(matches!(res, Err(InvokeError::DeadlineExceeded)), "{res:?}");
        assert_eq!(sched.stats().shed, 1);
    }

    #[test]
    fn guard_is_send_across_threads() {
        let sched = Arc::new(Scheduler::default());
        let g = sched.acquire_exclusive(&oid("a"));
        // Move the guard to another thread and drop it there; a blocked
        // waiter must then be granted.
        let sched2 = Arc::clone(&sched);
        let t = std::thread::spawn(move || {
            let _g2 = sched2.acquire_exclusive(&oid("a"));
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!t.is_finished());
        std::thread::spawn(move || drop(g)).join().unwrap();
        t.join().unwrap();
    }

    #[test]
    fn fifo_writer_not_starved_by_readers() {
        let sched = Arc::new(Scheduler::default());
        let id = oid("a");
        let r1 = sched.acquire_shared(&id);
        // Writer queues behind the reader...
        let sched2 = Arc::clone(&sched);
        let id2 = id.clone();
        let w = std::thread::spawn(move || {
            let _g = sched2.acquire_exclusive(&id2);
        });
        std::thread::sleep(Duration::from_millis(20));
        // ...so a late reader queues behind the writer (no barging).
        let sched3 = Arc::clone(&sched);
        let id3 = id.clone();
        let r2 = std::thread::spawn(move || {
            let _g = sched3.acquire_shared(&id3);
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!w.is_finished(), "writer waits for reader");
        assert!(!r2.is_finished(), "late reader must not barge past the queued writer");
        drop(r1);
        w.join().unwrap();
        r2.join().unwrap();
    }
}
