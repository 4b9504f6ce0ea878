//! The per-invocation context: trace identity, deadline budget, origin.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Sentinel budget meaning "no deadline" on the wire.
pub const NO_BUDGET: u64 = u64::MAX;

/// Where an invocation entered the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Born at a client library call.
    Client,
    /// Node-to-node work on behalf of some client invocation (nested
    /// calls, replication, migration).
    Node,
    /// Internal maintenance with no client waiting (recovery replay,
    /// rebalancing, tests driving the engine directly).
    Background,
}

impl Origin {
    /// Stable wire encoding.
    pub fn to_wire(self) -> u8 {
        match self {
            Origin::Client => 0,
            Origin::Node => 1,
            Origin::Background => 2,
        }
    }

    /// Decode; unknown values (from newer senders) degrade to `Node`.
    pub fn from_wire(b: u8) -> Self {
        match b {
            0 => Origin::Client,
            2 => Origin::Background,
            _ => Origin::Node,
        }
    }
}

/// Context threaded through every layer an invocation touches.
///
/// The deadline is stored as an absolute [`Instant`] locally, but crosses
/// the wire as a *remaining budget* in nanoseconds — simulated-network
/// nodes share a clock here, but real deployments do not, and budgets
/// survive clock skew where absolute deadlines would not. Each hop
/// re-derives `deadline = now + budget`, so queueing or transit delay at
/// one hop shrinks the budget every later hop sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvocationContext {
    /// Identity shared by every span this invocation produces.
    pub trace_id: u64,
    /// Absolute local deadline; `None` means unbounded.
    pub deadline: Option<Instant>,
    /// Where the invocation entered the system.
    pub origin: Origin,
    /// Client-assigned identity of the *logical* invocation, stable across
    /// retries so servers can deduplicate redelivered mutations (0 = none:
    /// dedup disabled for this invocation).
    pub invocation_id: u64,
    /// Which delivery attempt this is (0 = first send).
    pub attempt: u32,
    /// The request this invocation answers, as `(caller node id, request
    /// id)`, lent by the node that received it so that the backups which
    /// apply its last write set can answer the caller too. Local to that
    /// node: it never crosses the wire, and downstream work drops it.
    pub reply_to: Option<(u32, u64)>,
}

impl InvocationContext {
    /// A fresh client-born context with `budget` to spend end-to-end.
    pub fn client(budget: Duration) -> Self {
        Self {
            trace_id: next_trace_id(),
            deadline: Some(Instant::now() + budget),
            origin: Origin::Client,
            invocation_id: next_invocation_id(),
            attempt: 0,
            reply_to: None,
        }
    }

    /// An unbounded background context (fresh trace id, no deadline, no
    /// invocation identity — background work is never retried blindly).
    pub fn background() -> Self {
        Self {
            trace_id: next_trace_id(),
            deadline: None,
            origin: Origin::Background,
            invocation_id: 0,
            attempt: 0,
            reply_to: None,
        }
    }

    /// Rebuild a context from its wire form at the receiving hop:
    /// `deadline = now + budget`. The caller fills in the invocation
    /// identity the envelope carried; 0 means dedup-off.
    pub fn from_wire(trace_id: u64, budget_nanos: u64, origin: u8) -> Self {
        let deadline = if budget_nanos == NO_BUDGET {
            None
        } else {
            Some(Instant::now() + Duration::from_nanos(budget_nanos))
        };
        Self {
            trace_id,
            deadline,
            origin: Origin::from_wire(origin),
            invocation_id: 0,
            attempt: 0,
            reply_to: None,
        }
    }

    /// The remaining budget to serialize for the next hop
    /// ([`NO_BUDGET`] when unbounded, 0 when already expired).
    pub fn budget_nanos(&self) -> u64 {
        match self.deadline {
            None => NO_BUDGET,
            Some(d) => {
                let now = Instant::now();
                if d <= now {
                    0
                } else {
                    (d - now).as_nanos().min((NO_BUDGET - 1) as u128) as u64
                }
            }
        }
    }

    /// Time left before the deadline (`None` = unbounded, zero = expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        matches!(self.deadline, Some(d) if d <= Instant::now())
    }

    /// The timeout a downstream RPC should use: the remaining budget,
    /// capped at the transport's configured per-hop timeout. An expired
    /// context yields a zero timeout (callers shed before issuing I/O).
    pub fn rpc_timeout(&self, cap: Duration) -> Duration {
        match self.remaining() {
            None => cap,
            Some(rem) => rem.min(cap),
        }
    }

    /// This context as seen by work a node does on behalf of it (same
    /// trace and deadline, origin becomes [`Origin::Node`], no reply route:
    /// only the node that received the request answers it).
    pub fn for_downstream(&self) -> Self {
        Self { origin: Origin::Node, reply_to: None, ..*self }
    }
}

impl Default for InvocationContext {
    fn default() -> Self {
        Self::background()
    }
}

/// Process-wide trace id allocator. Ids only need to be unique within a
/// simulation run, so a counter suffices (and keeps runs deterministic
/// enough to debug).
pub fn next_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Process-wide invocation id allocator (0 is reserved for "none", so the
/// counter starts at 1). Separate from trace ids: a retried invocation
/// keeps its invocation id, but diagnostic tooling may assign fresh trace
/// ids per attempt in the future.
pub fn next_invocation_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
    }

    #[test]
    fn background_has_no_deadline() {
        let ctx = InvocationContext::background();
        assert!(ctx.deadline.is_none());
        assert!(!ctx.expired());
        assert_eq!(ctx.budget_nanos(), NO_BUDGET);
        assert_eq!(ctx.rpc_timeout(Duration::from_millis(5)), Duration::from_millis(5));
    }

    #[test]
    fn budget_round_trips_and_shrinks() {
        let ctx = InvocationContext::client(Duration::from_secs(10));
        let budget = ctx.budget_nanos();
        assert!(budget <= 10_000_000_000);
        assert!(budget > 9_000_000_000);
        let hop = InvocationContext::from_wire(ctx.trace_id, budget, ctx.origin.to_wire());
        assert_eq!(hop.trace_id, ctx.trace_id);
        assert!(hop.budget_nanos() <= budget);
        assert!(!hop.expired());
    }

    #[test]
    fn expired_context_sheds() {
        let ctx = InvocationContext::from_wire(7, 0, Origin::Client.to_wire());
        assert!(ctx.expired());
        assert_eq!(ctx.budget_nanos(), 0);
        assert_eq!(ctx.rpc_timeout(Duration::from_secs(1)), Duration::ZERO);
    }

    #[test]
    fn rpc_timeout_is_min_of_cap_and_remaining() {
        let ctx = InvocationContext::client(Duration::from_millis(2));
        assert!(ctx.rpc_timeout(Duration::from_secs(1)) <= Duration::from_millis(2));
        let wide = InvocationContext::client(Duration::from_secs(60));
        assert_eq!(wide.rpc_timeout(Duration::from_millis(5)), Duration::from_millis(5));
    }

    #[test]
    fn origin_wire_round_trip() {
        for o in [Origin::Client, Origin::Node, Origin::Background] {
            assert_eq!(Origin::from_wire(o.to_wire()), o);
        }
        // Unknown origins from newer peers degrade to Node.
        assert_eq!(Origin::from_wire(99), Origin::Node);
    }

    #[test]
    fn downstream_keeps_trace_and_deadline() {
        let ctx = InvocationContext::client(Duration::from_secs(1));
        let down = ctx.for_downstream();
        assert_eq!(down.trace_id, ctx.trace_id);
        assert_eq!(down.deadline, ctx.deadline);
        assert_eq!(down.origin, Origin::Node);
        assert_eq!(down.invocation_id, ctx.invocation_id);
        let routed = InvocationContext { reply_to: Some((2, 9)), ..ctx };
        assert_eq!(routed.for_downstream().reply_to, None);
    }

    #[test]
    fn client_contexts_carry_unique_invocation_ids() {
        let a = InvocationContext::client(Duration::from_secs(1));
        let b = InvocationContext::client(Duration::from_secs(1));
        assert_ne!(a.invocation_id, 0);
        assert_ne!(a.invocation_id, b.invocation_id);
        assert_eq!(a.attempt, 0);
        // Background contexts, and wire contexts until the caller sets the
        // carried id, opt out of dedup.
        assert_eq!(InvocationContext::background().invocation_id, 0);
        assert_eq!(InvocationContext::from_wire(1, NO_BUDGET, 0).invocation_id, 0);
    }
}
