//! Read leases (DESIGN.md §11): who may serve a read, and how long a
//! reconfigured primary must hold commits while departed members' leases
//! drain. [`Leases`] owns that state and is the only code that locks it;
//! every decision takes `now` from its caller, so the rules are a table a
//! test can walk without sleeping.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use lambda_coordinator::{ClusterState, Epoch, ShardId, ShardInfo};
use lambda_net::NodeId;
use lambda_objects::{Counter, InvokeError, Registry};

/// Lease state of one node, in both roles.
pub(crate) struct Leases {
    /// Lease duration: grants, fences, and the primary's own read-authority
    /// window all derive from it. `None` when no coordinator drives
    /// placement — statically configured deployments keep the pre-lease
    /// behaviour (any replica serves reads, nothing is fenced), which every
    /// decision below gets by finding no duration to decide with.
    duration: Option<Duration>,
    /// Reference instant; `last_coord_ok` is nanoseconds since it.
    started: Instant,
    /// Nanoseconds (since `started`) of the last successful coordinator
    /// heartbeat; `u64::MAX` = never. Grants and primary reads require
    /// freshness.
    last_coord_ok: AtomicU64,
    /// Backup role: shard → (granting epoch, expiry) of the held lease.
    held: Mutex<HashMap<ShardId, (Epoch, Instant)>>,
    /// Primary role: (shard, backup) → expiry of the latest grant issued,
    /// stamped conservatively at send. Consulted when a member departs to
    /// size the commit fence.
    granted: Mutex<HashMap<(ShardId, NodeId), Instant>>,
    /// Commits for these shards are held until the instant passes
    /// (departed members' read leases draining after a reconfiguration).
    fences: Mutex<HashMap<ShardId, Instant>>,
    /// Read-only invocations served here under a follower lease.
    pub(crate) follower_reads: Counter,
    /// Reads refused for want of a (fresh, epoch-matching) lease.
    pub(crate) rejections: Counter,
    /// Standalone `RenewLease` frames sent (primary role).
    pub(crate) renewals: Counter,
}

impl Leases {
    /// Lease state for a node started at `now`; leases are `enforced` only
    /// when a coordinator drives placement.
    pub(crate) fn new(
        registry: &Registry,
        duration: Duration,
        enforced: bool,
        now: Instant,
    ) -> Leases {
        Leases {
            duration: enforced.then_some(duration),
            started: now,
            last_coord_ok: AtomicU64::new(u64::MAX),
            held: Mutex::default(),
            granted: Mutex::default(),
            fences: Mutex::default(),
            follower_reads: registry.counter("lease_follower_reads"),
            rejections: registry.counter("lease_rejections"),
            renewals: registry.counter("lease_renewals"),
        }
    }

    /// Record a successful coordinator contact (heartbeat ack) at `now`.
    pub(crate) fn note_coord_ok(&self, now: Instant) {
        let nanos = now.saturating_duration_since(self.started).as_nanos() as u64;
        self.last_coord_ok.store(nanos, Ordering::Release);
    }

    /// Time since the last successful coordinator contact; `None` = never.
    fn coord_contact_age(&self, now: Instant) -> Option<Duration> {
        match self.last_coord_ok.load(Ordering::Acquire) {
            u64::MAX => None,
            nanos => {
                Some(now.saturating_duration_since(self.started + Duration::from_nanos(nanos)))
            }
        }
    }

    /// The lease to piggyback on a grant-carrying message to `backups` of
    /// `shard`, in nanoseconds; 0 withholds the grant. A primary only
    /// grants while its own coordinator contact is fresher than half a
    /// lease: a deposed primary partitioned from the coordinator must stop
    /// granting *before* the failure detector can have replaced it, so no
    /// split-brain island keeps a departed backup's lease alive.
    pub(crate) fn grant(&self, shard: ShardId, backups: &[NodeId], now: Instant) -> u64 {
        let Some(duration) = self.duration else { return 0 };
        let fresh = self.coord_contact_age(now).is_some_and(|age| age * 2 < duration);
        if backups.is_empty() || !fresh {
            return 0;
        }
        let expiry = now + duration;
        let mut granted = self.granted.lock();
        for &b in backups {
            let e = granted.entry((shard, b)).or_insert(expiry);
            *e = expiry.max(*e);
        }
        duration.as_nanos() as u64
    }

    /// Backup role: accept a lease grant for `shard`, never downgrading to
    /// an older epoch or an earlier expiry.
    pub(crate) fn accept(&self, shard: ShardId, epoch: Epoch, lease_nanos: u64, now: Instant) {
        if lease_nanos == 0 {
            return;
        }
        // `(epoch, expiry)` orders exactly as the rule reads: a newer epoch
        // always wins, the same epoch only extends.
        let lease = (epoch, now + Duration::from_nanos(lease_nanos));
        let mut held = self.held.lock();
        let current = held.entry(shard).or_insert(lease);
        *current = lease.max(*current);
    }

    /// Remaining fence time for `shard` commits, if a post-reconfiguration
    /// fence is still draining; expired fences are removed on the way.
    pub(crate) fn fence_remaining(&self, shard: ShardId, now: Instant) -> Option<Duration> {
        let mut fences = self.fences.lock();
        let until = *fences.get(&shard)?;
        if now >= until {
            fences.remove(&shard);
            return None;
        }
        Some(until - now)
    }

    /// May `me`, a member of `shard`'s replica set `info`, serve a read at
    /// `now`? The primary's "lease" is its own liveness attestation: while
    /// its coordinator contact is fresher than one lease the failure
    /// detector cannot have finished electing a successor, so local reads
    /// are still linearizable. A backup needs an unexpired lease granted
    /// under the current epoch.
    pub(crate) fn read_authority(
        &self,
        shard: ShardId,
        info: &ShardInfo,
        me: NodeId,
        now: Instant,
    ) -> Result<(), InvokeError> {
        let Some(duration) = self.duration else { return Ok(()) };
        if info.primary == me {
            if self.coord_contact_age(now).is_some_and(|age| age < duration) {
                return Ok(());
            }
            self.rejections.incr();
            return Err(InvokeError::LeaseExpired(format!(
                "primary node-{} lost coordinator contact; cannot attest leadership of shard {shard}",
                me.0
            )));
        }
        let held = self.held.lock().get(&shard).copied();
        if held.is_some_and(|(epoch, expiry)| epoch == info.epoch && now < expiry) {
            self.follower_reads.incr();
            return Ok(());
        }
        self.rejections.incr();
        Err(InvokeError::LeaseExpired(format!(
            "node-{} holds no current read lease for shard {shard} (epoch {})",
            me.0, info.epoch
        )))
    }

    /// The reconfiguration rule, applied when placement `new` replaces
    /// `old` at `me`: superseded held leases are dropped, and when this
    /// node (re)takes a primary role in a configuration that lost a member,
    /// commits are fenced until every lease that member could still hold
    /// has drained. Growth-only changes (recruiting/confirming a backup)
    /// and first sight of a shard fence nothing. Returns `(shard, epoch,
    /// backups)` of every shard `me` was just promoted to lead: it owes
    /// those surviving backups a promotion re-sync.
    pub(crate) fn reconfigured(
        &self,
        old: &ClusterState,
        new: &ClusterState,
        me: NodeId,
        now: Instant,
    ) -> Vec<(ShardId, Epoch, Vec<NodeId>)> {
        let Some(duration) = self.duration else { return Vec::new() };
        let mut promoted = Vec::new();
        for (&shard, info) in &new.shards {
            // First sight of the shard (bootstrap): nobody can hold a
            // lease we have to wait out.
            let Some(old_info) = old.shard(shard) else { continue };
            if info.epoch <= old_info.epoch {
                continue;
            }
            // Backup role: a lease granted under a superseded epoch can
            // never serve this configuration's reads.
            self.held.lock().retain(|&s, &mut (e, _)| s != shard || e >= info.epoch);
            if !info.led_by(me) {
                continue;
            }
            let was_primary = old_info.primary == me;
            let departed = old_info.departed_members(info);
            let latest_grant = {
                let mut granted = self.granted.lock();
                departed.iter().filter_map(|&n| granted.remove(&(shard, n))).max()
            };
            let fence_until = if was_primary {
                // Still primary: fence exactly to the latest grant this
                // node issued to each departed member (none recorded means
                // none granted — nothing to wait for).
                latest_grant
            } else {
                // Just promoted: the old primary's outstanding grants are
                // unknown here, so assume the worst case — a grant issued
                // the instant before the configuration changed.
                promoted.push((shard, info.epoch, info.backups.clone()));
                Some(now + duration)
            };
            if let Some(until) = fence_until.filter(|&until| until > now) {
                let mut fences = self.fences.lock();
                let e = fences.entry(shard).or_insert(until);
                *e = until.max(*e);
            }
        }
        promoted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_coordinator::{CoordCmd, N_SLOTS};

    const ME: NodeId = NodeId(1);
    const LEASE: Duration = Duration::from_millis(400);

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Shard 0 = {1 primary, 2, 3} at epoch 1.
    fn cluster() -> ClusterState {
        let mut st = ClusterState::default();
        for n in 1..=3 {
            st.apply(&CoordCmd::RegisterNode { node: NodeId(n) });
        }
        st.apply(&CoordCmd::CreateShard { shard: 0, replicas: vec![ME, NodeId(2), NodeId(3)] });
        st.apply(&CoordCmd::AssignSlots { shard: 0, slots: (0..N_SLOTS).collect() });
        st
    }

    /// `st` with shard 0 reconfigured to `primary` + `backups` (epoch + 1).
    fn reconfigure(st: &ClusterState, primary: u32, backups: &[u32]) -> ClusterState {
        let mut next = st.clone();
        next.apply(&CoordCmd::Reconfigure {
            shard: 0,
            new_primary: NodeId(primary),
            new_backups: backups.iter().map(|n| NodeId(*n)).collect(),
            expected_epoch: st.shard(0).unwrap().epoch,
        });
        next
    }

    fn leases(enforced: bool, t0: Instant) -> Leases {
        Leases::new(&Registry::new(), LEASE, enforced, t0)
    }

    #[test]
    fn just_promoted_primary_fences_a_full_lease_and_owes_a_resync() {
        let t0 = Instant::now();
        let st = reconfigure(&cluster(), 2, &[1, 3]);
        let l = leases(true, t0);
        let promoted = l.reconfigured(&st, &reconfigure(&st, 1, &[3]), ME, t0);
        assert_eq!(promoted, vec![(0, 3, vec![NodeId(3)])]);
        assert_eq!(l.fence_remaining(0, t0), Some(LEASE));
        assert_eq!(l.fence_remaining(0, t0 + ms(399)), Some(ms(1)));
        assert_eq!(l.fence_remaining(0, t0 + LEASE), None, "the fence lifts with the lease");
    }

    #[test]
    fn still_primary_fences_to_the_latest_grant_issued_to_each_departed_member() {
        let t0 = Instant::now();
        let st = cluster();
        let l = leases(true, t0);
        l.note_coord_ok(t0);
        assert_eq!(l.grant(0, &[NodeId(2)], t0), LEASE.as_nanos() as u64);
        assert_ne!(l.grant(0, &[NodeId(3)], t0 + ms(100)), 0);
        // Node 3 departs: its grant (the later one) sizes the fence; node
        // 2's stays on record for when it leaves.
        let shrunk = reconfigure(&st, 1, &[2]);
        assert!(l.reconfigured(&st, &shrunk, ME, t0 + ms(150)).is_empty());
        assert_eq!(l.fence_remaining(0, t0 + ms(150)), Some(ms(350)));
        // Node 2 departs once its grant has already lapsed: nothing to fence.
        let alone = reconfigure(&shrunk, 1, &[]);
        l.reconfigured(&shrunk, &alone, ME, t0 + ms(600));
        assert_eq!(l.fence_remaining(0, t0 + ms(600)), None);
    }

    #[test]
    fn departures_nobody_was_granted_growth_and_first_sight_fence_nothing() {
        let t0 = Instant::now();
        let st = cluster();
        let l = leases(true, t0);
        assert!(l.reconfigured(&st, &reconfigure(&st, 1, &[2]), ME, t0).is_empty());
        assert_eq!(l.fence_remaining(0, t0), None, "no grant on record: nothing to wait for");

        let mut grown = st.clone();
        grown.apply(&CoordCmd::RegisterNode { node: NodeId(4) });
        grown.apply(&CoordCmd::AddBackup { shard: 0, node: NodeId(4), expected_epoch: 1 });
        grown.apply(&CoordCmd::ConfirmBackup { shard: 0, node: NodeId(4), expected_epoch: 2 });
        assert!(grown.shard(0).unwrap().backups.contains(&NodeId(4)));
        assert!(l.reconfigured(&st, &grown, ME, t0).is_empty());
        assert_eq!(l.fence_remaining(0, t0), None, "growth-only change");

        let promoted_elsewhere = reconfigure(&st, 1, &[2]);
        assert!(l.reconfigured(&ClusterState::default(), &promoted_elsewhere, ME, t0).is_empty());
        assert_eq!(l.fence_remaining(0, t0), None, "first sight of the shard");
    }

    #[test]
    fn a_held_lease_under_a_superseded_epoch_is_dropped() {
        let t0 = Instant::now();
        let st = cluster();
        let me = NodeId(2);
        let l = leases(true, t0);
        l.accept(0, 1, LEASE.as_nanos() as u64, t0);
        assert!(l.read_authority(0, st.shard(0).unwrap(), me, t0 + ms(10)).is_ok());
        assert_eq!(l.follower_reads.get(), 1);
        let next = reconfigure(&st, 1, &[2]);
        l.reconfigured(&st, &next, me, t0 + ms(20));
        // Even re-reading under the *old* epoch's shard info finds no lease.
        assert!(l.read_authority(0, st.shard(0).unwrap(), me, t0 + ms(30)).is_err());
        assert!(l.read_authority(0, next.shard(0).unwrap(), me, t0 + ms(30)).is_err());
        assert_eq!(l.rejections.get(), 2);
    }

    #[test]
    fn accept_never_downgrades_epoch_or_expiry() {
        let t0 = Instant::now();
        let l = leases(true, t0);
        let nanos = |d: Duration| d.as_nanos() as u64;
        let held = |l: &Leases| l.held.lock().get(&0).copied();
        l.accept(0, 2, nanos(ms(300)), t0);
        l.accept(0, 2, nanos(ms(100)), t0); // earlier expiry
        l.accept(0, 1, nanos(ms(900)), t0); // older epoch
        l.accept(0, 2, 0, t0 + ms(900)); // withheld grant
        assert_eq!(held(&l), Some((2, t0 + ms(300))));
        l.accept(0, 2, nanos(ms(300)), t0 + ms(50));
        assert_eq!(held(&l), Some((2, t0 + ms(350))), "same epoch extends");
        l.accept(0, 3, nanos(ms(10)), t0);
        assert_eq!(held(&l), Some((3, t0 + ms(10))), "a newer epoch wins even if it ends sooner");
    }

    #[test]
    fn stale_coordinator_contact_withholds_grants_then_primary_reads() {
        let t0 = Instant::now();
        let st = cluster();
        let info = st.shard(0).unwrap();
        let l = leases(true, t0);
        assert_eq!(l.grant(0, &info.backups, t0), 0, "never heard from the coordinator");
        assert!(l.read_authority(0, info, ME, t0).is_err());
        l.note_coord_ok(t0);
        assert_ne!(l.grant(0, &info.backups, t0 + ms(199)), 0);
        assert_eq!(l.grant(0, &info.backups, t0 + ms(200)), 0, "older than half a lease");
        assert_eq!(l.grant(0, &[], t0), 0, "nobody to grant to");
        assert!(l.read_authority(0, info, ME, t0 + ms(399)).is_ok());
        assert!(l.read_authority(0, info, ME, t0 + ms(400)).is_err(), "older than one lease");
        assert_eq!(l.follower_reads.get(), 0, "primary reads are not follower reads");
    }

    #[test]
    fn everything_is_a_no_op_with_no_coordinators_configured() {
        let t0 = Instant::now();
        let st = reconfigure(&cluster(), 2, &[1, 3]);
        let l = leases(false, t0);
        l.note_coord_ok(t0);
        assert_eq!(l.grant(0, &[NodeId(2)], t0), 0);
        assert!(l.reconfigured(&st, &reconfigure(&st, 1, &[3]), ME, t0).is_empty());
        assert_eq!(l.fence_remaining(0, t0), None);
        // Any member serves reads: a primary that never met a coordinator,
        // a backup that never held a lease.
        let info = st.shard(0).unwrap();
        assert!(l.read_authority(0, info, NodeId(2), t0 + ms(9_000)).is_ok());
        assert!(l.read_authority(0, info, ME, t0 + ms(9_000)).is_ok());
        assert_eq!((l.follower_reads.get(), l.rejections.get()), (0, 0));
    }
}
