//! Primary-side state-transfer sessions for self-healing replication.
//!
//! When the coordinator recruits a syncing backup (`AddBackup`), the
//! shard's primary opens one [`SyncSession`] per recruit: a single FIFO
//! stream of [`SyncItem`]s shipped in order by a dedicated worker thread.
//! Both object snapshots and forwarded commits are enqueued *while holding
//! the object's exclusive lock*, so per-object stream order equals commit
//! order — the receiver can apply items blindly in sequence and converge.
//!
//! The session moves through phases:
//!
//! ```text
//! Streaming ──► Draining ──► Admitted ──► Done
//!     │             │            │
//!     └─────────────┴────────────┴──► Failed { hard }
//! ```
//!
//! - **Streaming**: the bulk snapshot scan; commits forward without
//!   blocking (fire-and-forget enqueue).
//! - **Draining**: snapshot done; each commit waits until its forward is
//!   shipped, squeezing the stream dry before promotion.
//! - **Admitted**: `ConfirmBackup` has been proposed — the recruit may
//!   already count as a replica, so a ship failure is *hard*: the waiting
//!   commit must fail rather than be acked without the new backup.
//! - **Failed { hard: false }** (before admission) only abandons the
//!   recruit; in-flight commits were never promised the new replica, so
//!   they succeed on the old replica set.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, RwLock};

use lambda_coordinator::{Epoch, ShardId};
use lambda_net::NodeId;

use crate::proto::SyncItem;

/// Session phase; see the module docs for the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPhase {
    /// Bulk snapshot scan; forwards enqueue without blocking.
    Streaming,
    /// Scan finished; forwards block until shipped.
    Draining,
    /// `ConfirmBackup` proposed; ship failures fail the commit.
    Admitted,
    /// Transfer complete, session closing.
    Done,
    /// Transfer aborted; `hard` when a durability promise was broken.
    Failed {
        /// True when the failure happened after admission.
        hard: bool,
    },
}

struct SessState {
    queue: VecDeque<(u64, SyncItem)>,
    next_seq: u64,
    shipped_seq: u64,
    phase: SyncPhase,
}

/// One in-flight state transfer: primary → one syncing backup.
pub struct SyncSession {
    /// Shard under transfer.
    pub shard: ShardId,
    /// The syncing backup receiving the stream.
    pub peer: NodeId,
    /// The shard epoch the session was opened under; forwards are only
    /// accepted from commits at exactly this epoch (older are stale, newer
    /// means the recruit was already confirmed and uses normal
    /// replication).
    pub epoch: Epoch,
    state: Mutex<SessState>,
    cv: Condvar,
}

impl SyncSession {
    /// Open a session in the Streaming phase.
    pub fn new(shard: ShardId, peer: NodeId, epoch: Epoch) -> Arc<SyncSession> {
        Arc::new(SyncSession {
            shard,
            peer,
            epoch,
            state: Mutex::new(SessState {
                queue: VecDeque::new(),
                next_seq: 0,
                shipped_seq: 0,
                phase: SyncPhase::Streaming,
            }),
            cv: Condvar::new(),
        })
    }

    /// Enqueue one stream item. In Streaming this returns immediately; in
    /// Draining/Admitted it blocks until the item is shipped to the peer.
    ///
    /// # Errors
    /// `Err` when the stream can no longer deliver the item under a
    /// durability promise: a hard failure, or the session closed before
    /// the item shipped (the caller's commit must fail so the client
    /// retries against fresh placement).
    pub fn offer(&self, item: SyncItem) -> Result<(), String> {
        let mut st = self.state.lock();
        match st.phase {
            SyncPhase::Done => {
                return Err(format!("sync session to {} closed; retry", self.peer));
            }
            SyncPhase::Failed { hard } => {
                return if hard {
                    Err(format!("sync session to {} failed after admission", self.peer))
                } else {
                    Ok(()) // recruit abandoned pre-promise; nothing owed
                };
            }
            SyncPhase::Streaming | SyncPhase::Draining | SyncPhase::Admitted => {}
        }
        st.next_seq += 1;
        let seq = st.next_seq;
        st.queue.push_back((seq, item));
        self.cv.notify_all();
        if st.phase == SyncPhase::Streaming {
            return Ok(());
        }
        // Draining/Admitted: wait for the worker to ship our item.
        loop {
            if st.shipped_seq >= seq {
                return Ok(());
            }
            match st.phase {
                SyncPhase::Failed { hard: true } => {
                    return Err(format!("sync session to {} failed after admission", self.peer));
                }
                SyncPhase::Failed { hard: false } => return Ok(()),
                SyncPhase::Done => {
                    return Err(format!("sync session to {} closed before ship; retry", self.peer));
                }
                _ => {}
            }
            self.cv.wait(&mut st);
        }
    }

    /// Worker: drain up to `max_items` from the stream head without
    /// blocking. Returns the items and the sequence number of the last one
    /// (to pass to [`mark_shipped`](SyncSession::mark_shipped)).
    pub fn take_batch(&self, max_items: usize) -> (Vec<SyncItem>, u64) {
        let mut st = self.state.lock();
        let mut items = Vec::new();
        let mut last = st.shipped_seq;
        while items.len() < max_items {
            match st.queue.pop_front() {
                Some((seq, item)) => {
                    last = seq;
                    items.push(item);
                }
                None => break,
            }
        }
        (items, last)
    }

    /// Worker: record that everything up to `seq` reached the peer.
    pub fn mark_shipped(&self, seq: u64) {
        let mut st = self.state.lock();
        if seq > st.shipped_seq {
            st.shipped_seq = seq;
        }
        self.cv.notify_all();
    }

    /// Worker: advance the phase.
    pub fn set_phase(&self, phase: SyncPhase) {
        let mut st = self.state.lock();
        st.phase = phase;
        self.cv.notify_all();
    }

    /// Current phase.
    pub fn phase(&self) -> SyncPhase {
        self.state.lock().phase
    }
}

/// The primary's table of open sessions, keyed by (shard, peer).
#[derive(Default)]
pub struct SyncManager {
    sessions: RwLock<HashMap<(ShardId, NodeId), Arc<SyncSession>>>,
}

impl SyncManager {
    /// Empty table.
    pub fn new() -> SyncManager {
        SyncManager::default()
    }

    /// True when a session to `peer` for `shard` is open.
    pub fn contains(&self, shard: ShardId, peer: NodeId) -> bool {
        self.sessions.read().contains_key(&(shard, peer))
    }

    /// All open sessions streaming `shard`.
    pub fn sessions_for(&self, shard: ShardId) -> Vec<Arc<SyncSession>> {
        self.sessions
            .read()
            .iter()
            .filter(|((s, _), _)| *s == shard)
            .map(|(_, sess)| Arc::clone(sess))
            .collect()
    }

    /// Register a session; replaces any previous one for the same key.
    pub fn insert(&self, session: Arc<SyncSession>) {
        self.sessions.write().insert((session.shard, session.peer), session);
    }

    /// Drop the session for (shard, peer), if any.
    pub fn remove(&self, shard: ShardId, peer: NodeId) {
        self.sessions.write().remove(&(shard, peer));
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    fn item() -> SyncItem {
        SyncItem::Forward { object: b"o".to_vec(), ops: vec![(b"k".to_vec(), None)] }
    }

    #[test]
    fn streaming_offers_do_not_block() {
        let s = SyncSession::new(0, NodeId(5), 3);
        s.offer(SyncItem::Begin).unwrap();
        s.offer(item()).unwrap();
        let (batch, last) = s.take_batch(10);
        assert_eq!(batch.len(), 2);
        assert_eq!(last, 2);
        s.mark_shipped(last);
        assert!(s.take_batch(10).0.is_empty());
    }

    #[test]
    fn draining_offer_waits_for_ship() {
        let s = SyncSession::new(0, NodeId(5), 3);
        s.set_phase(SyncPhase::Draining);
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || s2.offer(item()));
        // Ship whatever arrives until the offer returns.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !t.is_finished() {
            assert!(std::time::Instant::now() < deadline, "offer never unblocked");
            let (batch, last) = s.take_batch(10);
            if !batch.is_empty() {
                s.mark_shipped(last);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        t.join().unwrap().unwrap();
    }

    #[test]
    fn hard_failure_fails_blocked_offers() {
        let s = SyncSession::new(0, NodeId(5), 3);
        s.set_phase(SyncPhase::Admitted);
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || s2.offer(item()));
        std::thread::sleep(Duration::from_millis(20));
        s.set_phase(SyncPhase::Failed { hard: true });
        assert!(t.join().unwrap().is_err(), "admitted ship failure must fail the commit");
        // Later offers fail immediately.
        assert!(s.offer(item()).is_err());
    }

    #[test]
    fn soft_failure_releases_blocked_offers_ok() {
        let s = SyncSession::new(0, NodeId(5), 3);
        s.set_phase(SyncPhase::Draining);
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || s2.offer(item()));
        std::thread::sleep(Duration::from_millis(20));
        s.set_phase(SyncPhase::Failed { hard: false });
        assert!(t.join().unwrap().is_ok(), "pre-admission abort owes the commit nothing");
    }

    #[test]
    fn done_rejects_new_offers() {
        let s = SyncSession::new(0, NodeId(5), 3);
        s.set_phase(SyncPhase::Done);
        assert!(s.offer(item()).is_err());
    }

    #[test]
    fn manager_tracks_sessions() {
        let m = SyncManager::new();
        let s = SyncSession::new(2, NodeId(5), 1);
        m.insert(Arc::clone(&s));
        assert!(m.contains(2, NodeId(5)));
        assert_eq!(m.sessions_for(2).len(), 1);
        assert!(m.sessions_for(3).is_empty());
        m.remove(2, NodeId(5));
        assert!(!m.contains(2, NodeId(5)));
    }
}
