//! Multi-invocation transactions — the paper's future-work extension.
//!
//! §3.1: "We envision that future versions of the LambdaObjects model will
//! support serializable transactions spanning multiple function calls...
//! Conveniently, embedding execution into the database itself allows using
//! proven transaction processing protocols from existing database
//! management systems." This module does exactly that: a transaction is a
//! sequence of method calls over a set of objects, executed with
//! **strict two-phase locking** (all object locks acquired up front in a
//! global order — deadlock-free), one shared write buffer (each call sees
//! the previous calls' uncommitted writes), and a single atomic commit.
//!
//! Scope: the transaction's objects must live on the same node (LambdaStore
//! restricts transactions to objects co-located at one primary; cross-shard
//! transactions would need two-phase commit on top, which the paper leaves
//! open as well).

use lambda_vm::{Host, HostError, VmValue};

use crate::buffer::WriteBuffer;
use crate::engine::Engine;
use crate::error::{InvokeError, Result};
use crate::keys;
use crate::object::{MethodSet, ObjectId};

/// One call inside a transaction.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TxCall {
    /// Target object.
    pub object: ObjectId,
    /// Method name (must be public; transactions are a client API).
    pub method: String,
    /// Arguments.
    pub args: Vec<VmValue>,
}

impl TxCall {
    /// Convenience constructor.
    pub fn new(object: impl Into<ObjectId>, method: impl Into<String>, args: Vec<VmValue>) -> Self {
        TxCall { object: object.into(), method: method.into(), args }
    }
}

/// The [`Host`] for one call within a transaction: reads and writes go
/// through the transaction-wide buffer, so later calls observe earlier
/// calls' effects; nothing reaches storage until the single commit.
struct TxHost<'a> {
    db: &'a lambda_kv::Db,
    snapshot_seq: u64,
    object: ObjectId,
    buffer: &'a mut WriteBuffer,
    read_only: bool,
    logs: Vec<String>,
}

impl TxHost<'_> {
    fn read_key(&mut self, full_key: &[u8]) -> std::result::Result<Option<Vec<u8>>, HostError> {
        if let Some(buffered) = self.buffer.get(full_key) {
            return Ok(buffered);
        }
        self.db.get_at(full_key, self.snapshot_seq).map_err(|e| HostError::Storage(e.to_string()))
    }

    fn ensure_writable(&self) -> std::result::Result<(), HostError> {
        if self.read_only {
            Err(HostError::ReadOnlyViolation)
        } else {
            Ok(())
        }
    }
}

impl Host for TxHost<'_> {
    fn get(&mut self, key: &[u8]) -> std::result::Result<Option<Vec<u8>>, HostError> {
        let full = keys::field_key(&self.object, key);
        self.read_key(&full)
    }

    fn put(&mut self, key: &[u8], value: &[u8]) -> std::result::Result<(), HostError> {
        self.ensure_writable()?;
        self.buffer.put(keys::field_key(&self.object, key), value.to_vec());
        Ok(())
    }

    fn delete(&mut self, key: &[u8]) -> std::result::Result<(), HostError> {
        self.ensure_writable()?;
        self.buffer.delete(keys::field_key(&self.object, key));
        Ok(())
    }

    fn push(&mut self, field: &[u8], value: &[u8]) -> std::result::Result<(), HostError> {
        self.ensure_writable()?;
        let ckey = keys::counter_key(&self.object, field);
        let len = keys::decode_counter(self.read_key(&ckey)?.as_deref());
        self.buffer.put(keys::entry_key(&self.object, field, len), value.to_vec());
        self.buffer.put(ckey, keys::encode_counter(len + 1));
        Ok(())
    }

    fn scan(
        &mut self,
        field: &[u8],
        limit: usize,
        newest_first: bool,
    ) -> std::result::Result<Vec<Vec<u8>>, HostError> {
        let ckey = keys::counter_key(&self.object, field);
        let len = keys::decode_counter(self.read_key(&ckey)?.as_deref());
        let take = (limit as u64).min(len);
        let mut out = Vec::with_capacity(take as usize);
        let indices: Vec<u64> =
            if newest_first { ((len - take)..len).rev().collect() } else { (0..take).collect() };
        for i in indices {
            if let Some(v) = self.read_key(&keys::entry_key(&self.object, field, i))? {
                out.push(v);
            }
        }
        Ok(out)
    }

    fn count(&mut self, field: &[u8]) -> std::result::Result<u64, HostError> {
        let ckey = keys::counter_key(&self.object, field);
        Ok(keys::decode_counter(self.read_key(&ckey)?.as_deref()))
    }

    fn invoke(
        &mut self,
        _object: &[u8],
        _method: &str,
        _args: Vec<VmValue>,
    ) -> std::result::Result<VmValue, HostError> {
        // Within a transaction every call is already in the atomic scope;
        // dynamic nested invocation would escape the declared lock set.
        Err(HostError::InvokeFailed(
            "nested invocations are not allowed inside a transaction; \
             list the call in the transaction instead"
                .into(),
        ))
    }

    fn self_id(&self) -> Vec<u8> {
        self.object.0.clone()
    }

    fn now_millis(&mut self) -> i64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as i64)
            .unwrap_or(0)
    }

    fn log(&mut self, msg: &str) {
        self.logs.push(msg.to_string());
    }
}

impl Engine {
    /// Execute `calls` as one serializable transaction: either every call
    /// commits (atomically, as one batch) or none do.
    ///
    /// Locking: the distinct objects are locked exclusively in sorted
    /// order before any call runs and released after commit/abort —
    /// strict 2PL with a global lock order, so transactions never
    /// deadlock against each other.
    ///
    /// # Errors
    /// The first failing call aborts the whole transaction
    /// ([`InvokeError::Aborted`] for voluntary aborts, [`InvokeError::Vm`]
    /// for traps, ...); every object must exist and every method must be
    /// public. Nested `host.invoke` inside a transaction fails the call.
    pub fn invoke_transaction(&self, calls: &[TxCall]) -> Result<Vec<VmValue>> {
        if calls.is_empty() {
            return Ok(Vec::new());
        }
        // Resolve types first (also validates object existence).
        let mut resolved = Vec::with_capacity(calls.len());
        for call in calls {
            resolved.push(self.resolve_method(&call.object, &call.method, true)?);
        }

        // Lock every distinct object in global (sorted) order.
        let mut objects: Vec<ObjectId> = calls.iter().map(|c| c.object.clone()).collect();
        objects.sort();
        objects.dedup();
        let _guards: Vec<_> =
            objects.iter().map(|o| self.scheduler().acquire_exclusive(o)).collect();

        // One snapshot + one buffer for the whole transaction.
        let snapshot_seq = self.db().last_sequence();
        let mut buffer = WriteBuffer::new(false);
        let mut results = Vec::with_capacity(calls.len());
        for (call, (ty, meta)) in calls.iter().zip(&resolved) {
            let mut host = TxHost {
                db: self.db(),
                snapshot_seq,
                object: call.object.clone(),
                buffer: &mut buffer,
                read_only: meta.read_only,
                logs: Vec::new(),
            };
            let outcome = match &ty.methods {
                MethodSet::Bytecode(module) => self
                    .interpreter_ref()
                    .execute(module, &call.method, call.args.clone(), &mut host)
                    .map_err(InvokeError::from),
                MethodSet::Native(reg) => reg
                    .invoke(&call.method, call.args.clone(), &mut host)
                    .map_err(InvokeError::from),
            };
            match outcome {
                Ok(v) => results.push(v),
                Err(e) => {
                    buffer.discard();
                    return Err(e); // guards drop → locks release
                }
            }
        }

        // Single atomic commit covering every touched object.
        if !buffer.is_clean() {
            let mut touched = buffer.written_keys();
            let mut batch = buffer.take_batch();
            for object in &objects {
                let wrote =
                    touched.iter().any(|k| keys::split_key(k).is_some_and(|(o, _)| &o == object));
                if wrote {
                    touched.push(self.bump_version(object, &mut batch));
                }
            }
            self.commit_transaction_batch(&objects, batch, &touched)?;
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::object::{FieldDef, FieldKind, ObjectType, TypeRegistry};
    use lambda_kv::{Db, Options};
    use lambda_vm::assemble;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn new_engine() -> (Arc<Engine>, std::path::PathBuf) {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("lambda-tx-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        let types = Arc::new(TypeRegistry::new());
        let module = assemble(
            r#"
            fn add(1) locals=2 {
                push.s "balance"
                host.get
                btoi
                load 0
                add
                store 1
                push.s "balance"
                load 1
                itob
                host.put
                pop
                load 1
                ret
            }
            fn sub_checked(1) locals=2 {
                push.s "balance"
                host.get
                btoi
                store 1
                load 1
                load 0
                lt
                jz ok
                push.s "insufficient"
                host.abort
            ok:
                push.s "balance"
                load 1
                load 0
                sub
                itob
                host.put
                pop
                unit
                ret
            }
            fn balance(0) ro det {
                push.s "balance"
                host.get
                btoi
                ret
            }
            fn sneaky_invoke(1) {
                load 0
                push.s "balance"
                unit
                host.invoke
                ret
            }
            "#,
        )
        .unwrap();
        types.register(
            ObjectType::from_module(
                "Account",
                vec![FieldDef { name: "balance".into(), kind: FieldKind::Scalar }],
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
    fn transaction_commits_across_objects_atomically() {
        let (engine, dir) = new_engine();
        engine.create_object("Account", &oid("a"), &[]).unwrap();
        engine.create_object("Account", &oid("b"), &[]).unwrap();
        engine.invoke(&oid("a"), "add", vec![VmValue::Int(100)]).unwrap();

        let results = engine
            .invoke_transaction(&[
                TxCall::new(oid("a"), "sub_checked", vec![VmValue::Int(30)]),
                TxCall::new(oid("b"), "add", vec![VmValue::Int(30)]),
            ])
            .unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(engine.invoke(&oid("a"), "balance", vec![]).unwrap(), VmValue::Int(70));
        assert_eq!(engine.invoke(&oid("b"), "balance", vec![]).unwrap(), VmValue::Int(30));
        // Both objects' versions bumped exactly once for the transaction.
        assert_eq!(engine.object_version(&oid("b")), 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn failing_call_aborts_everything() {
        let (engine, dir) = new_engine();
        engine.create_object("Account", &oid("a"), &[]).unwrap();
        engine.create_object("Account", &oid("b"), &[]).unwrap();
        engine.invoke(&oid("a"), "add", vec![VmValue::Int(10)]).unwrap();

        // Second call overdraws: the first call's write must roll back too.
        let err = engine
            .invoke_transaction(&[
                TxCall::new(oid("b"), "add", vec![VmValue::Int(500)]),
                TxCall::new(oid("a"), "sub_checked", vec![VmValue::Int(999)]),
            ])
            .unwrap_err();
        assert!(matches!(err, InvokeError::Aborted(_)), "{err}");
        assert_eq!(engine.invoke(&oid("a"), "balance", vec![]).unwrap(), VmValue::Int(10));
        assert_eq!(engine.invoke(&oid("b"), "balance", vec![]).unwrap(), VmValue::Int(0));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn later_calls_see_earlier_uncommitted_writes() {
        let (engine, dir) = new_engine();
        engine.create_object("Account", &oid("a"), &[]).unwrap();
        let results = engine
            .invoke_transaction(&[
                TxCall::new(oid("a"), "add", vec![VmValue::Int(5)]),
                TxCall::new(oid("a"), "add", vec![VmValue::Int(7)]),
                TxCall::new(oid("a"), "balance", vec![]),
            ])
            .unwrap();
        assert_eq!(results[2], VmValue::Int(12), "read-your-writes inside the tx");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn nested_invoke_is_rejected_inside_transactions() {
        let (engine, dir) = new_engine();
        engine.create_object("Account", &oid("a"), &[]).unwrap();
        engine.create_object("Account", &oid("b"), &[]).unwrap();
        let err = engine
            .invoke_transaction(&[TxCall::new(oid("a"), "sneaky_invoke", vec![VmValue::str("b")])])
            .unwrap_err();
        assert!(matches!(err, InvokeError::Nested(_)), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn unknown_object_or_method_fails_before_any_execution() {
        let (engine, dir) = new_engine();
        engine.create_object("Account", &oid("a"), &[]).unwrap();
        assert!(matches!(
            engine.invoke_transaction(&[
                TxCall::new(oid("a"), "add", vec![VmValue::Int(1)]),
                TxCall::new(oid("ghost"), "add", vec![VmValue::Int(1)]),
            ]),
            Err(InvokeError::UnknownObject(_))
        ));
        // The first call must not have executed.
        assert_eq!(engine.invoke(&oid("a"), "balance", vec![]).unwrap(), VmValue::Int(0));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn concurrent_transfers_conserve_money_without_deadlock() {
        let (engine, dir) = new_engine();
        const N: usize = 6;
        for i in 0..N {
            let id = oid(&format!("acct{i}"));
            engine.create_object("Account", &id, &[]).unwrap();
            engine.invoke(&id, "add", vec![VmValue::Int(100)]).unwrap();
        }
        // Transfers in both directions between the same pairs — the
        // classic deadlock shape, prevented by sorted lock acquisition.
        std::thread::scope(|scope| {
            for t in 0..N {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    for k in 0..20 {
                        let from = oid(&format!("acct{t}"));
                        let to = oid(&format!("acct{}", (t + 1 + k % (N - 1)) % N));
                        let _ = engine.invoke_transaction(&[
                            TxCall::new(from, "sub_checked", vec![VmValue::Int(3)]),
                            TxCall::new(to, "add", vec![VmValue::Int(3)]),
                        ]);
                    }
                });
            }
        });
        let total: i64 = (0..N)
            .map(|i| {
                engine
                    .invoke(&oid(&format!("acct{i}")), "balance", vec![])
                    .unwrap()
                    .as_int()
                    .unwrap()
            })
            .sum();
        assert_eq!(total, (N as i64) * 100, "serializable transfers conserve money");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn empty_transaction_is_a_noop() {
        let (engine, dir) = new_engine();
        assert_eq!(engine.invoke_transaction(&[]).unwrap(), Vec::<VmValue>::new());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn read_only_calls_in_transaction_cannot_write() {
        let (engine, dir) = new_engine();
        engine.create_object("Account", &oid("a"), &[]).unwrap();
        // balance is ro: executing it inside a tx is fine and writes nothing.
        let results =
            engine.invoke_transaction(&[TxCall::new(oid("a"), "balance", vec![])]).unwrap();
        assert_eq!(results[0], VmValue::Int(0));
        assert_eq!(engine.object_version(&oid("a")), 0, "no version bump for pure reads");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_transaction_hands_all_its_write_sets_to_the_hook_in_one_call() {
        use crate::engine::{CommitHook, DeferredCommit};

        /// Records the objects of every `on_commit` call; a failing
        /// one nacks the last write set it is handed.
        #[derive(Default)]
        struct Hook {
            calls: parking_lot::Mutex<Vec<Vec<ObjectId>>>,
            failing: bool,
        }
        impl CommitHook for Hook {
            fn on_commit(&self, commits: Vec<DeferredCommit>) {
                self.calls.lock().push(commits.iter().map(|c| c.object.clone()).collect());
                let last = commits.len() - 1;
                for (i, commit) in commits.into_iter().enumerate() {
                    let nack = self.failing && i == last;
                    (commit.done)(if nack { Err("replica down".into()) } else { Ok(()) });
                }
            }
        }
        let (engine, dir) = new_engine();
        for name in ["a", "b", "c", "untouched"] {
            engine.create_object("Account", &oid(name), &[]).unwrap();
        }
        let transfer = [
            TxCall::new(oid("c"), "add", vec![VmValue::Int(1)]),
            TxCall::new(oid("a"), "add", vec![VmValue::Int(2)]),
            TxCall::new(oid("b"), "add", vec![VmValue::Int(3)]),
            TxCall::new(oid("untouched"), "balance", vec![]),
        ];
        let hook = Arc::new(Hook::default());
        engine.set_commit_hook(Arc::clone(&hook) as Arc<dyn CommitHook>);
        engine.invoke_transaction(&transfer).unwrap();
        assert_eq!(*hook.calls.lock(), vec![vec![oid("a"), oid("b"), oid("c")]]);

        // One write set that fails to replicate fails the transaction.
        engine.set_commit_hook(Arc::new(Hook { failing: true, ..Hook::default() }));
        let err = engine.invoke_transaction(&transfer).unwrap_err();
        assert_eq!(err, InvokeError::Storage("replica down".into()));
        std::fs::remove_dir_all(dir).ok();
    }
}
