//! Error type for the LambdaObjects layer.

use std::fmt;

use lambda_vm::{HostError, VmError};

/// Convenience alias.
pub type Result<T> = std::result::Result<T, InvokeError>;

/// Failures of object creation, invocation or migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvokeError {
    /// No object with this id exists on this node.
    UnknownObject(String),
    /// The referenced object type has not been registered.
    UnknownType(String),
    /// The object's type has no such method.
    UnknownMethod(String),
    /// The method exists but is not externally callable.
    NotPublic(String),
    /// An object with this id already exists.
    AlreadyExists(String),
    /// The function aborted voluntarily; no writes were applied.
    Aborted(String),
    /// The sandboxed execution failed (trap, fuel, memory, type error).
    Vm(String),
    /// The storage engine failed.
    Storage(String),
    /// A nested cross-object invocation failed.
    Nested(String),
    /// The nested-invocation depth limit was exceeded.
    DepthExceeded,
    /// This node is not responsible for the object (routing layer).
    WrongNode(String),
    /// The invocation's deadline budget ran out before it could execute;
    /// the work was shed without running the method body.
    DeadlineExceeded,
    /// The object's shard has lost every replica; until an operator (or a
    /// restarted former member) revives it, no node can serve the object.
    ShardUnavailable(String),
    /// Admission control refused the request because the node's run queue
    /// was over depth. Retryable: unlike [`DeadlineExceeded`]
    /// (`InvokeError::DeadlineExceeded`), the deadline budget has *not*
    /// burned — the node shed early precisely so the client can back off
    /// and try again (or try elsewhere) within the same budget.
    Overloaded(String),
    /// A follower (or deposed primary) refused a read because its read
    /// lease is missing, expired, or bound to a stale epoch. Retryable:
    /// the data is fine — the client should refresh placement and route
    /// the read to the shard primary.
    LeaseExpired(String),
    /// The object is in the handoff phase of a live migration: the source
    /// shard fences mutations while the destination takes ownership.
    /// Retryable without burning backoff budget — the client should
    /// refresh placement and follow the object to its new shard (or back
    /// to the source, if the migration aborted).
    ObjectMoved(String),
}

impl fmt::Display for InvokeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvokeError::UnknownObject(id) => write!(f, "unknown object {id:?}"),
            InvokeError::UnknownType(t) => write!(f, "unknown object type {t:?}"),
            InvokeError::UnknownMethod(m) => write!(f, "unknown method {m:?}"),
            InvokeError::NotPublic(m) => write!(f, "method {m:?} is not public"),
            InvokeError::AlreadyExists(id) => write!(f, "object {id:?} already exists"),
            InvokeError::Aborted(msg) => write!(f, "invocation aborted: {msg}"),
            InvokeError::Vm(msg) => write!(f, "execution failed: {msg}"),
            InvokeError::Storage(msg) => write!(f, "storage failure: {msg}"),
            InvokeError::Nested(msg) => write!(f, "nested invocation failed: {msg}"),
            InvokeError::DepthExceeded => write!(f, "invocation depth limit exceeded"),
            InvokeError::WrongNode(msg) => write!(f, "wrong node for object: {msg}"),
            InvokeError::DeadlineExceeded => write!(f, "invocation deadline exceeded"),
            InvokeError::ShardUnavailable(msg) => write!(f, "shard unavailable: {msg}"),
            InvokeError::Overloaded(msg) => write!(f, "node overloaded: {msg}"),
            InvokeError::LeaseExpired(msg) => write!(f, "read lease expired: {msg}"),
            InvokeError::ObjectMoved(msg) => write!(f, "object moved: {msg}"),
        }
    }
}

impl std::error::Error for InvokeError {}

impl From<lambda_kv::KvError> for InvokeError {
    fn from(e: lambda_kv::KvError) -> Self {
        InvokeError::Storage(e.to_string())
    }
}

impl From<VmError> for InvokeError {
    /// A failed host call fails bytecode and native bodies alike.
    fn from(e: VmError) -> Self {
        match e {
            VmError::Host(e) => InvokeError::from(e),
            other => InvokeError::Vm(other.to_string()),
        }
    }
}

impl From<HostError> for InvokeError {
    fn from(e: HostError) -> Self {
        match e {
            HostError::Aborted(msg) => InvokeError::Aborted(msg),
            HostError::InvokeFailed(msg) => InvokeError::Nested(msg),
            other => InvokeError::Vm(other.to_string()),
        }
    }
}

/// Encode an [`InvokeError`] as a stable string for RPC transport; the
/// inverse of [`decode_error`].
pub fn encode_error(e: &InvokeError) -> String {
    match e {
        InvokeError::UnknownObject(s) => format!("unknown_object\x1f{s}"),
        InvokeError::UnknownType(s) => format!("unknown_type\x1f{s}"),
        InvokeError::UnknownMethod(s) => format!("unknown_method\x1f{s}"),
        InvokeError::NotPublic(s) => format!("not_public\x1f{s}"),
        InvokeError::AlreadyExists(s) => format!("already_exists\x1f{s}"),
        InvokeError::Aborted(s) => format!("aborted\x1f{s}"),
        InvokeError::Vm(s) => format!("vm\x1f{s}"),
        InvokeError::Storage(s) => format!("storage\x1f{s}"),
        InvokeError::Nested(s) => format!("nested\x1f{s}"),
        InvokeError::DepthExceeded => "depth_exceeded\x1f".to_string(),
        InvokeError::WrongNode(s) => format!("wrong_node\x1f{s}"),
        InvokeError::DeadlineExceeded => "deadline_exceeded\x1f".to_string(),
        InvokeError::ShardUnavailable(s) => format!("shard_unavailable\x1f{s}"),
        InvokeError::Overloaded(s) => format!("overloaded\x1f{s}"),
        InvokeError::LeaseExpired(s) => format!("lease_expired\x1f{s}"),
        InvokeError::ObjectMoved(s) => format!("object_moved\x1f{s}"),
    }
}

/// Decode an error produced by [`encode_error`]; unknown inputs map to
/// [`InvokeError::Nested`].
pub fn decode_error(s: &str) -> InvokeError {
    let (tag, rest) = s.split_once('\x1f').unwrap_or(("", s));
    let rest = rest.to_string();
    match tag {
        "unknown_object" => InvokeError::UnknownObject(rest),
        "unknown_type" => InvokeError::UnknownType(rest),
        "unknown_method" => InvokeError::UnknownMethod(rest),
        "not_public" => InvokeError::NotPublic(rest),
        "already_exists" => InvokeError::AlreadyExists(rest),
        "aborted" => InvokeError::Aborted(rest),
        "vm" => InvokeError::Vm(rest),
        "storage" => InvokeError::Storage(rest),
        "nested" => InvokeError::Nested(rest),
        "depth_exceeded" => InvokeError::DepthExceeded,
        "wrong_node" => InvokeError::WrongNode(rest),
        "deadline_exceeded" => InvokeError::DeadlineExceeded,
        "shard_unavailable" => InvokeError::ShardUnavailable(rest),
        "overloaded" => InvokeError::Overloaded(rest),
        "lease_expired" => InvokeError::LeaseExpired(rest),
        "object_moved" => InvokeError::ObjectMoved(rest),
        _ => InvokeError::Nested(s.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errors = vec![
            InvokeError::UnknownObject("o".into()),
            InvokeError::UnknownType("t".into()),
            InvokeError::UnknownMethod("m".into()),
            InvokeError::NotPublic("m".into()),
            InvokeError::AlreadyExists("o".into()),
            InvokeError::Aborted("reason".into()),
            InvokeError::Vm("trap".into()),
            InvokeError::Storage("disk".into()),
            InvokeError::Nested("remote".into()),
            InvokeError::DepthExceeded,
            InvokeError::WrongNode("moved".into()),
            InvokeError::DeadlineExceeded,
            InvokeError::ShardUnavailable("shard 3 lost".into()),
            InvokeError::Overloaded("run queue full".into()),
            InvokeError::LeaseExpired("epoch 4 lease lapsed".into()),
            InvokeError::ObjectMoved("handoff to shard 2".into()),
        ];
        for e in &errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let errors = vec![
            InvokeError::UnknownObject("o/1".into()),
            InvokeError::UnknownType("User".into()),
            InvokeError::UnknownMethod("post".into()),
            InvokeError::NotPublic("internal".into()),
            InvokeError::AlreadyExists("o/1".into()),
            InvokeError::Aborted("broke".into()),
            InvokeError::Vm("fuel exhausted".into()),
            InvokeError::Storage("io".into()),
            InvokeError::Nested("timeout".into()),
            InvokeError::DepthExceeded,
            InvokeError::WrongNode("shard 3".into()),
            InvokeError::DeadlineExceeded,
            InvokeError::ShardUnavailable("no replicas".into()),
            InvokeError::Overloaded("depth 128".into()),
            InvokeError::LeaseExpired("no lease for shard 2".into()),
            InvokeError::ObjectMoved("handoff to shard 2".into()),
        ];
        for e in errors {
            assert_eq!(decode_error(&encode_error(&e)), e, "{e}");
        }
    }

    #[test]
    fn vm_abort_maps_to_aborted() {
        let e: InvokeError = VmError::Host(HostError::Aborted("why".into())).into();
        assert_eq!(e, InvokeError::Aborted("why".into()));
        let e: InvokeError = VmError::FuelExhausted.into();
        assert!(matches!(e, InvokeError::Vm(_)));
    }

    #[test]
    fn unknown_decode_falls_back() {
        assert!(matches!(decode_error("garbage"), InvokeError::Nested(_)));
    }
}
