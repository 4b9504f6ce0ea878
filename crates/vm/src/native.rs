//! Trusted native functions.
//!
//! The paper notes (§4.2) that LambdaStore's design also admits trusted
//! conventional binaries co-located with the storage process. This module
//! provides that path: Rust closures registered per object type, executing
//! against the same [`Host`] capability interface as bytecode — so the
//! consistency machinery (write buffering, read-set tracking, read-only
//! enforcement) is identical for both. Table 1's custom-service column
//! runs ReTwis on native methods: the dispatch-free floor against which
//! the interpreter's cost is read.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::host::{Host, HostError};
use crate::value::VmValue;

/// Execution context handed to a native function.
pub struct NativeCtx<'a> {
    /// The capability interface (same one bytecode gets).
    pub host: &'a mut dyn Host,
    /// Call arguments.
    pub args: Vec<VmValue>,
}

impl fmt::Debug for NativeCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeCtx").field("args", &self.args).finish()
    }
}

impl NativeCtx<'_> {
    /// Fetch argument `i` as bytes.
    ///
    /// # Errors
    /// Returns [`HostError::InvokeFailed`] when missing or mistyped.
    pub fn bytes_arg(&self, i: usize) -> Result<Vec<u8>, HostError> {
        self.args
            .get(i)
            .and_then(|v| v.as_bytes())
            .map(<[u8]>::to_vec)
            .ok_or_else(|| HostError::InvokeFailed(format!("argument {i} must be bytes")))
    }

    /// Fetch argument `i` as an integer.
    ///
    /// # Errors
    /// Returns [`HostError::InvokeFailed`] when missing or mistyped.
    pub fn int_arg(&self, i: usize) -> Result<i64, HostError> {
        self.args
            .get(i)
            .and_then(VmValue::as_int)
            .ok_or_else(|| HostError::InvokeFailed(format!("argument {i} must be an int")))
    }
}

/// A trusted native method body.
pub type NativeFn = Arc<dyn Fn(&mut NativeCtx<'_>) -> Result<VmValue, HostError> + Send + Sync>;

/// Metadata + body of one native method.
#[derive(Clone)]
pub struct NativeMethod {
    /// Method name.
    pub name: String,
    /// Same meaning as [`FunctionDef::read_only`](crate::FunctionDef).
    pub read_only: bool,
    /// Same meaning as [`FunctionDef::deterministic`](crate::FunctionDef).
    pub deterministic: bool,
    /// Whether clients may call it directly.
    pub public: bool,
    /// The body.
    pub body: NativeFn,
}

impl fmt::Debug for NativeMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeMethod")
            .field("name", &self.name)
            .field("read_only", &self.read_only)
            .field("deterministic", &self.deterministic)
            .field("public", &self.public)
            .finish()
    }
}

/// A set of native methods for one object type.
#[derive(Debug, Clone, Default)]
pub struct NativeRegistry {
    methods: HashMap<String, NativeMethod>,
}

impl NativeRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        NativeRegistry::default()
    }

    /// Register a method. Replaces an existing method of the same name.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        read_only: bool,
        deterministic: bool,
        public: bool,
        body: impl Fn(&mut NativeCtx<'_>) -> Result<VmValue, HostError> + Send + Sync + 'static,
    ) -> &mut Self {
        let name = name.into();
        self.methods.insert(
            name.clone(),
            NativeMethod { name, read_only, deterministic, public, body: Arc::new(body) },
        );
        self
    }

    /// Look up a method.
    pub fn method(&self, name: &str) -> Option<&NativeMethod> {
        self.methods.get(name)
    }

    /// Names of all registered methods, sorted.
    pub fn method_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.methods.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Number of methods.
    pub fn len(&self) -> usize {
        self.methods.len()
    }

    /// True when no methods are registered.
    pub fn is_empty(&self) -> bool {
        self.methods.is_empty()
    }

    /// Invoke `name` with `args` against `host`.
    ///
    /// # Errors
    /// [`HostError::InvokeFailed`] for unknown methods; otherwise whatever
    /// the method returns.
    pub fn invoke(
        &self,
        name: &str,
        args: Vec<VmValue>,
        host: &mut dyn Host,
    ) -> Result<VmValue, HostError> {
        let m = self
            .method(name)
            .ok_or_else(|| HostError::InvokeFailed(format!("unknown native method {name:?}")))?;
        let mut ctx = NativeCtx { host, args };
        (m.body)(&mut ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::MemoryHost;

    fn registry() -> NativeRegistry {
        let mut r = NativeRegistry::new();
        r.register("store", false, false, true, |ctx| {
            let key = ctx.bytes_arg(0)?;
            let value = ctx.bytes_arg(1)?;
            ctx.host.put(&key, &value)?;
            Ok(VmValue::Unit)
        });
        r.register("fetch", true, true, true, |ctx| {
            let key = ctx.bytes_arg(0)?;
            Ok(match ctx.host.get(&key)? {
                Some(v) => VmValue::Bytes(v),
                None => VmValue::Unit,
            })
        });
        r.register("secret", false, false, false, |_| Ok(VmValue::Int(42)));
        r
    }

    #[test]
    fn invoke_round_trip() {
        let r = registry();
        let mut host = MemoryHost::default();
        r.invoke("store", vec![VmValue::str("k"), VmValue::str("v")], &mut host).unwrap();
        let out = r.invoke("fetch", vec![VmValue::str("k")], &mut host).unwrap();
        assert_eq!(out, VmValue::str("v"));
    }

    #[test]
    fn unknown_method_fails() {
        let r = registry();
        let mut host = MemoryHost::default();
        assert!(matches!(r.invoke("missing", vec![], &mut host), Err(HostError::InvokeFailed(_))));
    }

    #[test]
    fn arg_helpers_validate() {
        let r = registry();
        let mut host = MemoryHost::default();
        // store with an int arg where bytes are expected.
        let err =
            r.invoke("store", vec![VmValue::Int(1), VmValue::str("v")], &mut host).unwrap_err();
        assert!(matches!(err, HostError::InvokeFailed(_)));
    }

    #[test]
    fn metadata_is_preserved() {
        let r = registry();
        let fetch = r.method("fetch").unwrap();
        assert!(fetch.read_only && fetch.deterministic && fetch.public);
        let secret = r.method("secret").unwrap();
        assert!(!secret.public);
        assert_eq!(r.method_names(), vec!["fetch", "secret", "store"]);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }

    #[test]
    fn read_only_host_blocks_native_mutation() {
        let r = registry();
        let mut host = MemoryHost { read_only: true, ..MemoryHost::default() };
        let err =
            r.invoke("store", vec![VmValue::str("k"), VmValue::str("v")], &mut host).unwrap_err();
        assert_eq!(err, HostError::ReadOnlyViolation);
    }
}
