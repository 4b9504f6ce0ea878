//! # lambda-objects
//!
//! The LambdaObjects data and execution model — the primary contribution of
//! *LambdaObjects: Re-Aggregating Storage and Execution for Cloud
//! Computing* (HotStorage '22).
//!
//! Data is encapsulated into **objects**, instantiated from **object
//! types** that declare fields (scalars or collections) and methods
//! (sandboxed bytecode or trusted native code). Methods execute *at the
//! data* through an [`Engine`] embedded in the storage node, which
//! provides:
//!
//! * **Invocation linearizability** (§3.1): each invocation runs against a
//!   snapshot plus a private [write buffer](buffer::WriteBuffer); its write
//!   set commits as one atomic batch; a per-object
//!   [scheduler](scheduler::Scheduler) never runs two mutating invocations
//!   of one object concurrently; once an invocation returns, every later
//!   invocation observes its effects.
//! * **Nested cross-object calls** (§3.1): invoking another object commits
//!   the caller's writes first — the caller's pre- and post-call parts are
//!   two separate invocations.
//! * **Consistent result caching** (§4.2.2): deterministic read-only
//!   methods record `(output, args hash, read set)`; entries are
//!   invalidated eagerly on overlapping commits and re-validated lazily by
//!   value hash.
//! * **Microshards** (§4.2): every object owns a dedicated key prefix and
//!   can be [exported, installed and purged](migration) wholesale without
//!   touching other objects.
//! * **One host** ([`ObjectHost`]): every local caller of an object's
//!   storage operations — an invocation, each call of a
//!   [transaction](transaction), the raw storage API — runs them on the
//!   same implementation.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use lambda_kv::{Db, Options};
//! use lambda_objects::{Engine, EngineConfig, FieldDef, FieldKind, ObjectId, ObjectType, TypeRegistry};
//! use lambda_vm::{assemble, VmValue};
//! use std::sync::Arc;
//!
//! let dir = std::env::temp_dir().join(format!("lambda-objects-doc-{}", std::process::id()));
//! # std::fs::remove_dir_all(&dir).ok();
//! let db = Db::open(&dir, Options::default())?;
//! let types = Arc::new(TypeRegistry::new());
//! types.register(ObjectType::from_module(
//!     "Greeter",
//!     vec![FieldDef { name: "name".into(), kind: FieldKind::Scalar }],
//!     assemble(
//!         r#"
//!         fn greet(0) ro det {
//!             push.s "hello "
//!             push.s "name"
//!             host.get
//!             concat
//!             ret
//!         }
//!         "#,
//!     )?,
//! )?);
//! let engine = Engine::new(db, types, EngineConfig::default());
//! let id = ObjectId::from("greeter/1");
//! engine.create_object("Greeter", &id, &[("name", b"world")])?;
//! assert_eq!(engine.invoke(&id, "greet", vec![])?, VmValue::str("hello world"));
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

pub mod buffer;
pub mod cache;
pub mod engine;
pub mod error;
pub mod host;
pub mod keys;
pub mod migration;
pub mod object;
pub mod scheduler;
pub mod transaction;

pub use buffer::{value_hash, WriteBuffer};
pub use cache::{args_hash, CacheStats, ConsistentCache, ReadSet};
pub use engine::{
    ship_and_join, write_set_ops, CommitCallback, CommitHook, DeferredCommit, Engine, EngineConfig,
    EngineStats, InvokeCompletion, InvokeOutcome, InvokeRouter, WriteSetOps, DEDUP_WINDOW,
};
pub use error::{decode_error, encode_error, InvokeError, Result};
pub use host::{Boundary, NestedInvoker, ObjectHost};
pub use migration::ObjectSnapshot;
pub use object::{FieldDef, FieldKind, MethodMeta, MethodSet, ObjectId, ObjectType, TypeRegistry};
pub use scheduler::{GrantCallback, ObjectGuard, Scheduler, SchedulerMode, SchedulerStats};
pub use transaction::TxCall;

// Telemetry substrate re-exports: the context and registry types are part
// of the engine's public API surface (invoke_ctx, with_registry).
pub use lambda_telemetry::{
    Counter, Gauge, InvocationContext, Origin, Registry, SpanRecord, Stage,
};
