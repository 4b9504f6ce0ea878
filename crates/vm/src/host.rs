//! The host interface: everything a sandboxed function can do to the world.
//!
//! Implementations live in higher layers — `lambda-objects` provides the
//! real one, backed by an object's write buffer and the storage engine. The
//! VM itself only knows this trait, which keeps the attack surface of
//! untrusted code to exactly these operations (the paper's "minimal API
//! ensures a small attack surface", §3).

use std::fmt;

use crate::value::VmValue;

/// Errors surfaced by host calls into the embedding system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostError {
    /// The underlying storage layer failed.
    Storage(String),
    /// A mutating call was made in a read-only execution context
    /// (defense in depth — the validator rejects these statically too).
    ReadOnlyViolation,
    /// A cross-object invocation failed.
    InvokeFailed(String),
    /// The function asked to abort; all buffered writes are discarded.
    Aborted(String),
    /// The host does not support this operation (e.g. [`NullHost`]).
    Unsupported(&'static str),
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::Storage(m) => write!(f, "storage error: {m}"),
            HostError::ReadOnlyViolation => {
                write!(f, "mutating host call in read-only context")
            }
            HostError::InvokeFailed(m) => write!(f, "cross-object invocation failed: {m}"),
            HostError::Aborted(m) => write!(f, "aborted: {m}"),
            HostError::Unsupported(op) => write!(f, "host operation not supported: {op}"),
        }
    }
}

impl std::error::Error for HostError {}

/// The capability set handed to an executing function.
///
/// All keys are scoped to the *current object* by the implementation — a
/// function can never address another object's data except through
/// [`invoke`](Host::invoke), which is the heart of the LambdaObjects
/// model: "an object's functions can only modify data associated with the
/// object itself, but can invoke functions of other objects" (§1).
pub trait Host {
    /// Read field `key` of the current object.
    ///
    /// # Errors
    /// Propagates storage failures.
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, HostError>;

    /// Write field `key` of the current object.
    ///
    /// # Errors
    /// Fails in read-only contexts and on storage failures.
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), HostError>;

    /// Delete field `key` of the current object.
    ///
    /// # Errors
    /// Fails in read-only contexts and on storage failures.
    fn delete(&mut self, key: &[u8]) -> Result<(), HostError>;

    /// Append `value` to the keyed collection `field`.
    ///
    /// # Errors
    /// Fails in read-only contexts and on storage failures.
    fn push(&mut self, field: &[u8], value: &[u8]) -> Result<(), HostError>;

    /// Scan up to `limit` entries of collection `field`;
    /// `newest_first` reverses the order.
    ///
    /// # Errors
    /// Propagates storage failures.
    fn scan(
        &mut self,
        field: &[u8],
        limit: usize,
        newest_first: bool,
    ) -> Result<Vec<Vec<u8>>, HostError>;

    /// Number of entries in collection `field`.
    ///
    /// # Errors
    /// Propagates storage failures.
    fn count(&mut self, field: &[u8]) -> Result<u64, HostError>;

    /// Invoke `method` on another `object`. Per the consistency model
    /// (§3.1) the implementation commits the current invocation's writes
    /// before the nested call starts.
    ///
    /// # Errors
    /// Propagates failures of the nested invocation.
    fn invoke(
        &mut self,
        object: &[u8],
        method: &str,
        args: Vec<VmValue>,
    ) -> Result<VmValue, HostError>;

    /// Scatter `method(args)` to every object in `targets`, returning one
    /// result per target (in order). The default runs the calls
    /// sequentially; co-located hosts override it with a parallel fan-out
    /// (the paper's parallel `store_post`, §3.2).
    ///
    /// # Errors
    /// The first failing nested invocation.
    fn invoke_many(
        &mut self,
        targets: Vec<Vec<u8>>,
        method: &str,
        args: Vec<VmValue>,
    ) -> Result<Vec<VmValue>, HostError> {
        let mut out = Vec::with_capacity(targets.len());
        for target in targets {
            out.push(self.invoke(&target, method, args.clone())?);
        }
        Ok(out)
    }

    /// Identifier of the executing object.
    fn self_id(&self) -> Vec<u8>;

    /// Wall-clock milliseconds.
    fn now_millis(&mut self) -> i64;

    /// Debug log line.
    fn log(&mut self, msg: &str);
}

/// A host that supports nothing but logging and time — handy for pure
/// compute tests and benchmarks of raw VM dispatch.
#[derive(Debug, Default)]
pub struct NullHost {
    /// Collected log lines.
    pub logs: Vec<String>,
    /// Value returned by `now_millis`.
    pub time: i64,
}

impl Host for NullHost {
    fn get(&mut self, _key: &[u8]) -> Result<Option<Vec<u8>>, HostError> {
        Err(HostError::Unsupported("get"))
    }
    fn put(&mut self, _key: &[u8], _value: &[u8]) -> Result<(), HostError> {
        Err(HostError::Unsupported("put"))
    }
    fn delete(&mut self, _key: &[u8]) -> Result<(), HostError> {
        Err(HostError::Unsupported("delete"))
    }
    fn push(&mut self, _field: &[u8], _value: &[u8]) -> Result<(), HostError> {
        Err(HostError::Unsupported("push"))
    }
    fn scan(
        &mut self,
        _field: &[u8],
        _limit: usize,
        _newest_first: bool,
    ) -> Result<Vec<Vec<u8>>, HostError> {
        Err(HostError::Unsupported("scan"))
    }
    fn count(&mut self, _field: &[u8]) -> Result<u64, HostError> {
        Err(HostError::Unsupported("count"))
    }
    fn invoke(
        &mut self,
        _object: &[u8],
        _method: &str,
        _args: Vec<VmValue>,
    ) -> Result<VmValue, HostError> {
        Err(HostError::Unsupported("invoke"))
    }
    fn self_id(&self) -> Vec<u8> {
        b"null".to_vec()
    }
    fn now_millis(&mut self) -> i64 {
        self.time
    }
    fn log(&mut self, msg: &str) {
        self.logs.push(msg.to_string());
    }
}

/// An in-memory host exposing a plain map and collections — used by VM
/// tests without pulling in the storage engine. Comparable and clonable
/// so the interpreter fuzz can compare the full post-execution host state.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MemoryHost {
    /// Flat fields.
    pub fields: std::collections::BTreeMap<Vec<u8>, Vec<u8>>,
    /// Keyed collections.
    pub collections: std::collections::BTreeMap<Vec<u8>, Vec<Vec<u8>>>,
    /// Whether mutations are rejected.
    pub read_only: bool,
    /// Collected log lines.
    pub logs: Vec<String>,
    /// Value returned by `now_millis`.
    pub time: i64,
    /// Record of cross-object invocations (object, method, args).
    pub invocations: Vec<(Vec<u8>, String, Vec<VmValue>)>,
}

impl Host for MemoryHost {
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, HostError> {
        Ok(self.fields.get(key).cloned())
    }
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), HostError> {
        if self.read_only {
            return Err(HostError::ReadOnlyViolation);
        }
        self.fields.insert(key.to_vec(), value.to_vec());
        Ok(())
    }
    fn delete(&mut self, key: &[u8]) -> Result<(), HostError> {
        if self.read_only {
            return Err(HostError::ReadOnlyViolation);
        }
        self.fields.remove(key);
        Ok(())
    }
    fn push(&mut self, field: &[u8], value: &[u8]) -> Result<(), HostError> {
        if self.read_only {
            return Err(HostError::ReadOnlyViolation);
        }
        self.collections.entry(field.to_vec()).or_default().push(value.to_vec());
        Ok(())
    }
    fn scan(
        &mut self,
        field: &[u8],
        limit: usize,
        newest_first: bool,
    ) -> Result<Vec<Vec<u8>>, HostError> {
        let items = self.collections.get(field).cloned().unwrap_or_default();
        let mut out: Vec<Vec<u8>> =
            if newest_first { items.into_iter().rev().collect() } else { items };
        out.truncate(limit);
        Ok(out)
    }
    fn count(&mut self, field: &[u8]) -> Result<u64, HostError> {
        Ok(self.collections.get(field).map(|c| c.len() as u64).unwrap_or(0))
    }
    fn invoke(
        &mut self,
        object: &[u8],
        method: &str,
        args: Vec<VmValue>,
    ) -> Result<VmValue, HostError> {
        if self.read_only {
            return Err(HostError::ReadOnlyViolation);
        }
        self.invocations.push((object.to_vec(), method.to_string(), args));
        Ok(VmValue::Unit)
    }
    fn self_id(&self) -> Vec<u8> {
        b"memory-host".to_vec()
    }
    fn now_millis(&mut self) -> i64 {
        self.time
    }
    fn log(&mut self, msg: &str) {
        self.logs.push(msg.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_host_rejects_storage_ops() {
        let mut h = NullHost::default();
        assert_eq!(h.get(b"x"), Err(HostError::Unsupported("get")));
        assert_eq!(h.put(b"x", b"y"), Err(HostError::Unsupported("put")));
        h.log("hello");
        assert_eq!(h.logs, vec!["hello".to_string()]);
    }

    #[test]
    fn memory_host_round_trips() {
        let mut h = MemoryHost::default();
        h.put(b"k", b"v").unwrap();
        assert_eq!(h.get(b"k").unwrap(), Some(b"v".to_vec()));
        h.delete(b"k").unwrap();
        assert_eq!(h.get(b"k").unwrap(), None);
    }

    #[test]
    fn memory_host_collections() {
        let mut h = MemoryHost::default();
        for i in 0..5 {
            h.push(b"tl", format!("post-{i}").as_bytes()).unwrap();
        }
        assert_eq!(h.count(b"tl").unwrap(), 5);
        let newest = h.scan(b"tl", 2, true).unwrap();
        assert_eq!(newest, vec![b"post-4".to_vec(), b"post-3".to_vec()]);
        let oldest = h.scan(b"tl", 2, false).unwrap();
        assert_eq!(oldest, vec![b"post-0".to_vec(), b"post-1".to_vec()]);
    }

    #[test]
    fn memory_host_read_only_enforcement() {
        let mut h = MemoryHost { read_only: true, ..MemoryHost::default() };
        assert_eq!(h.put(b"k", b"v"), Err(HostError::ReadOnlyViolation));
        assert_eq!(h.push(b"f", b"v"), Err(HostError::ReadOnlyViolation));
        assert_eq!(h.delete(b"k"), Err(HostError::ReadOnlyViolation));
        assert!(h.invoke(b"o", "m", vec![]).is_err());
        assert!(h.get(b"k").is_ok(), "reads still allowed");
    }

    #[test]
    fn host_error_display() {
        for e in [
            HostError::Storage("disk".into()),
            HostError::ReadOnlyViolation,
            HostError::InvokeFailed("x".into()),
            HostError::Aborted("y".into()),
            HostError::Unsupported("z"),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
