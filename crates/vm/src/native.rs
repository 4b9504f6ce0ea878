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
//!
//! A native body has the bytecode body's shape, a [`Step`]: it returns a
//! value, or stops at a nested call ([`Step::invoke`], [`Step::invoke_many`])
//! with the closure that goes on with the call's answer ([`NativeThen`]),
//! which may stop at another.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::host::{Host, HostError};
use crate::interp::{ExecutionReport, NestedCall, Step, Suspended, VmError};
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

/// The rest of a native body after a nested call: handed the host and the
/// call's answer (one result per target, or the error the call failed
/// with), it runs to the return or to the next nested call.
pub type NativeThen = Box<
    dyn FnOnce(&mut dyn Host, Result<Vec<VmValue>, HostError>) -> Result<Step, HostError> + Send,
>;

impl From<VmValue> for Step {
    /// A native body's return.
    fn from(value: VmValue) -> Self {
        Step::Done(value, ExecutionReport::default())
    }
}

impl Step {
    /// A native body's stop at `host.invoke(target, method, args)`; `then`
    /// gets its result.
    pub fn invoke(
        target: Vec<u8>,
        method: &str,
        args: Vec<VmValue>,
        then: impl FnOnce(&mut dyn Host, Result<VmValue, HostError>) -> Result<Step, HostError>
            + Send
            + 'static,
    ) -> Step {
        let call = NestedCall { targets: vec![target], method: method.into(), args, many: false };
        Suspended::native(
            call,
            Box::new(move |host, answer| then(host, answer.map(|mut r| r.remove(0)))),
        )
    }

    /// A native body's stop at `host.invoke_many(targets, method, args)`;
    /// `then` gets the results, one per target.
    pub fn invoke_many(
        targets: Vec<Vec<u8>>,
        method: &str,
        args: Vec<VmValue>,
        then: impl FnOnce(&mut dyn Host, Result<Vec<VmValue>, HostError>) -> Result<Step, HostError>
            + Send
            + 'static,
    ) -> Step {
        let call = NestedCall { targets, method: method.into(), args, many: true };
        Suspended::native(call, Box::new(then))
    }
}

/// A trusted native method body.
pub type NativeFn = Arc<dyn Fn(&mut NativeCtx<'_>) -> Result<Step, HostError> + Send + Sync>;

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
    /// `body` returns a [`VmValue`], or a [`Step`] when it nests.
    pub fn register<R: Into<Step>>(
        &mut self,
        name: impl Into<String>,
        read_only: bool,
        deterministic: bool,
        public: bool,
        body: impl Fn(&mut NativeCtx<'_>) -> Result<R, HostError> + Send + Sync + 'static,
    ) -> &mut Self {
        let name = name.into();
        let body: NativeFn = Arc::new(move |ctx| body(ctx).map(Into::into));
        self.methods
            .insert(name.clone(), NativeMethod { name, read_only, deterministic, public, body });
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

    /// Start `name` with `args` against `host`: run it to its return or to
    /// its first nested call.
    ///
    /// # Errors
    /// `VmError::Host`: [`HostError::InvokeFailed`] for unknown methods;
    /// otherwise whatever the method returns.
    pub fn start(
        &self,
        name: &str,
        args: Vec<VmValue>,
        host: &mut dyn Host,
    ) -> Result<Step, VmError> {
        let m = self
            .method(name)
            .ok_or_else(|| HostError::InvokeFailed(format!("unknown native method {name:?}")))?;
        let mut ctx = NativeCtx { host, args };
        Ok((m.body)(&mut ctx)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::MemoryHost;

    /// Run `name` to its end; none of these methods nests.
    fn invoke(
        r: &NativeRegistry,
        name: &str,
        args: Vec<VmValue>,
        host: &mut MemoryHost,
    ) -> Result<VmValue, HostError> {
        match r.start(name, args, host) {
            Ok(Step::Done(value, _)) => Ok(value),
            Err(VmError::Host(e)) => Err(e),
            other => panic!("{other:?}"),
        }
    }

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
        invoke(&r, "store", vec![VmValue::str("k"), VmValue::str("v")], &mut host).unwrap();
        let out = invoke(&r, "fetch", vec![VmValue::str("k")], &mut host).unwrap();
        assert_eq!(out, VmValue::str("v"));
    }

    #[test]
    fn unknown_method_fails() {
        let r = registry();
        let mut host = MemoryHost::default();
        assert!(matches!(
            invoke(&r, "missing", vec![], &mut host),
            Err(HostError::InvokeFailed(_))
        ));
    }

    #[test]
    fn arg_helpers_validate() {
        let r = registry();
        let mut host = MemoryHost::default();
        // store with an int arg where bytes are expected.
        let err =
            invoke(&r, "store", vec![VmValue::Int(1), VmValue::str("v")], &mut host).unwrap_err();
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
            invoke(&r, "store", vec![VmValue::str("k"), VmValue::str("v")], &mut host).unwrap_err();
        assert_eq!(err, HostError::ReadOnlyViolation);
    }
}
