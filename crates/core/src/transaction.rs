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
//! Each call runs on an [`ObjectHost`] — the one implementation of an
//! object's storage operations — without a nested invoker: a call cannot
//! escape the declared lock set through `host.invoke`. The host borrows the
//! transaction-wide buffer for the call and hands it back. The commit goes
//! through the engine's one write-and-replicate path, one write set per
//! touched object, all shipped together.
//!
//! A transaction carrying an invocation id is remembered like an external
//! mutation: the list of its call results is a dedup record in the first
//! call's object, committed in the transaction's own batch, so a
//! re-delivery (the client retrying after a lost reply) is answered from it
//! instead of running twice.
//!
//! Scope: the transaction's objects must live on the same node (LambdaStore
//! restricts transactions to objects co-located at one primary; cross-shard
//! transactions would need two-phase commit on top, which the paper leaves
//! open as well).

use lambda_telemetry::InvocationContext;
use lambda_vm::VmValue;

use crate::buffer::WriteBuffer;
use crate::engine::Engine;
use crate::error::Result;
use crate::host::ObjectHost;
use crate::keys;
use crate::object::ObjectId;

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

impl Engine {
    /// Execute `calls` as one serializable transaction: either every call
    /// commits (atomically, as one batch) or none do.
    ///
    /// Locking: the distinct objects are locked exclusively in sorted
    /// order before any call runs and released after commit/abort —
    /// strict 2PL with a global lock order, so transactions never
    /// deadlock against each other.
    ///
    /// `ctx.invocation_id` (0 = none) deduplicates re-deliveries: one that
    /// arrives after the transaction committed gets the recorded results.
    ///
    /// # Errors
    /// The first failing call aborts the whole transaction
    /// ([`InvokeError::Aborted`](crate::InvokeError::Aborted) for voluntary
    /// aborts, [`InvokeError::Vm`](crate::InvokeError::Vm) for traps, ...);
    /// every object must exist and every method must be public. Nested
    /// `host.invoke` inside a transaction fails the call.
    pub fn invoke_transaction(
        &self,
        ctx: &InvocationContext,
        calls: &[TxCall],
    ) -> Result<Vec<VmValue>> {
        let Some(first) = calls.first() else { return Ok(Vec::new()) };
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

        let dedup = ctx.invocation_id != 0;
        if dedup {
            if let Some(VmValue::List(results)) = self.replayed(&first.object, ctx.invocation_id)? {
                return Ok(results);
            }
        }

        // One snapshot + one buffer for the whole transaction.
        let snapshot_seq = self.db().last_sequence();
        let mut buffer = WriteBuffer::default();
        let mut results = Vec::with_capacity(calls.len());
        for (call, (ty, meta)) in calls.iter().zip(&resolved) {
            let mut host = ObjectHost::new(
                self.db(),
                call.object.clone(),
                snapshot_seq,
                meta.read_only,
                false,
                None,
                0,
                None,
            );
            host.buffer = std::mem::take(&mut buffer);
            let outcome = self.run_body(ty, &call.method, call.args.clone(), &mut host);
            buffer = std::mem::take(&mut host.buffer);
            // On error the buffer drops unapplied and the guards release.
            results.push(outcome?);
        }
        if buffer.is_clean() {
            return Ok(results);
        }

        // Single atomic commit covering every touched object.
        let mut touched = buffer.written_keys();
        let mut batch = buffer.take_batch();
        if dedup {
            let record = VmValue::List(results.clone());
            self.append_dedup_record(&first.object, ctx.invocation_id, &record, &mut batch);
        }
        for object in &objects {
            let prefix = keys::object_prefix(object);
            if batch.iter().any(|op| op.key().starts_with(&prefix)) {
                touched.push(self.bump_version(object, &mut batch));
            }
        }
        let replicated = self.write_and_replicate(&objects, batch)?;
        self.finish_commit(&touched, replicated)?;
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::error::InvokeError;
    use crate::object::{FieldDef, FieldKind, ObjectType, TypeRegistry};
    use lambda_kv::{Db, Options};
    use lambda_vm::assemble;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

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
            fn note(1) {
                push.s "history"
                load 0
                host.push
                ret
            }
            fn history(1) ro det {
                push.s "history"
                push.i 100
                load 0
                host.scan
                ret
            }
            fn notes(0) ro det {
                push.s "history"
                host.count
                ret
            }
            "#,
        )
        .unwrap();
        types.register(
            ObjectType::from_module(
                "Account",
                vec![
                    FieldDef { name: "balance".into(), kind: FieldKind::Scalar },
                    FieldDef { name: "history".into(), kind: FieldKind::Collection },
                ],
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
            .invoke_transaction(
                &InvocationContext::background(),
                &[
                    TxCall::new(oid("a"), "sub_checked", vec![VmValue::Int(30)]),
                    TxCall::new(oid("b"), "add", vec![VmValue::Int(30)]),
                ],
            )
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
            .invoke_transaction(
                &InvocationContext::background(),
                &[
                    TxCall::new(oid("b"), "add", vec![VmValue::Int(500)]),
                    TxCall::new(oid("a"), "sub_checked", vec![VmValue::Int(999)]),
                ],
            )
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
            .invoke_transaction(
                &InvocationContext::background(),
                &[
                    TxCall::new(oid("a"), "add", vec![VmValue::Int(5)]),
                    TxCall::new(oid("a"), "add", vec![VmValue::Int(7)]),
                    TxCall::new(oid("a"), "balance", vec![]),
                ],
            )
            .unwrap();
        assert_eq!(results[2], VmValue::Int(12), "read-your-writes inside the tx");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn collections_inside_a_transaction_see_the_earlier_calls_pushes() {
        let (engine, dir) = new_engine();
        engine.create_object("Account", &oid("a"), &[]).unwrap();
        engine.invoke(&oid("a"), "note", vec![VmValue::str("committed")]).unwrap();
        let results = engine
            .invoke_transaction(
                &InvocationContext::background(),
                &[
                    TxCall::new(oid("a"), "note", vec![VmValue::str("first")]),
                    TxCall::new(oid("a"), "note", vec![VmValue::str("second")]),
                    TxCall::new(oid("a"), "notes", vec![]),
                    TxCall::new(oid("a"), "history", vec![VmValue::Int(1)]),
                    TxCall::new(oid("a"), "history", vec![VmValue::Int(0)]),
                ],
            )
            .unwrap();
        let list = |items: &[&str]| VmValue::List(items.iter().map(|s| VmValue::str(*s)).collect());
        assert_eq!(results[2], VmValue::Int(3), "count sees the buffered pushes");
        assert_eq!(results[3], list(&["second", "first", "committed"]), "newest first");
        assert_eq!(results[4], list(&["committed", "first", "second"]), "oldest first");
        // Committed as written: a later invocation reads the same collection.
        assert_eq!(engine.invoke(&oid("a"), "history", vec![VmValue::Int(1)]).unwrap(), results[3]);
        assert_eq!(engine.invoke(&oid("a"), "notes", vec![]).unwrap(), VmValue::Int(3));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_redelivered_transaction_moves_the_money_once() {
        let (engine, dir) = new_engine();
        engine.create_object("Account", &oid("a"), &[]).unwrap();
        engine.create_object("Account", &oid("b"), &[]).unwrap();
        engine.invoke(&oid("a"), "add", vec![VmValue::Int(100)]).unwrap();
        let transfer = [
            TxCall::new(oid("a"), "sub_checked", vec![VmValue::Int(30)]),
            TxCall::new(oid("b"), "add", vec![VmValue::Int(30)]),
        ];
        let balances = || {
            let of = |o: &str| engine.invoke(&oid(o), "balance", vec![]).unwrap();
            (of("a"), of("b"))
        };
        let ctx = InvocationContext::client(Duration::from_secs(60));
        let first = engine.invoke_transaction(&ctx, &transfer).unwrap();
        // The reply is lost and the client re-sends under the same id.
        let again = engine.invoke_transaction(&ctx, &transfer).unwrap();
        assert_eq!(again, first, "answered with the recorded results");
        assert_eq!(balances(), (VmValue::Int(70), VmValue::Int(30)), "the money moved once");
        assert_eq!(engine.stats().duplicates_suppressed, 1);
        // Another id is another transfer; id 0 is never deduplicated.
        let other = InvocationContext::client(Duration::from_secs(60));
        engine.invoke_transaction(&other, &transfer).unwrap();
        engine.invoke_transaction(&InvocationContext::background(), &transfer).unwrap();
        assert_eq!(balances(), (VmValue::Int(10), VmValue::Int(90)));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn nested_invoke_is_rejected_inside_transactions() {
        let (engine, dir) = new_engine();
        engine.create_object("Account", &oid("a"), &[]).unwrap();
        engine.create_object("Account", &oid("b"), &[]).unwrap();
        let err = engine
            .invoke_transaction(
                &InvocationContext::background(),
                &[TxCall::new(oid("a"), "sneaky_invoke", vec![VmValue::str("b")])],
            )
            .unwrap_err();
        assert!(matches!(err, InvokeError::Nested(_)), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn unknown_object_or_method_fails_before_any_execution() {
        let (engine, dir) = new_engine();
        engine.create_object("Account", &oid("a"), &[]).unwrap();
        assert!(matches!(
            engine.invoke_transaction(
                &InvocationContext::background(),
                &[
                    TxCall::new(oid("a"), "add", vec![VmValue::Int(1)]),
                    TxCall::new(oid("ghost"), "add", vec![VmValue::Int(1)]),
                ]
            ),
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
                        let _ = engine.invoke_transaction(
                            &InvocationContext::background(),
                            &[
                                TxCall::new(from, "sub_checked", vec![VmValue::Int(3)]),
                                TxCall::new(to, "add", vec![VmValue::Int(3)]),
                            ],
                        );
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
        assert_eq!(
            engine.invoke_transaction(&InvocationContext::background(), &[]).unwrap(),
            Vec::<VmValue>::new()
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn read_only_calls_in_transaction_cannot_write() {
        let (engine, dir) = new_engine();
        engine.create_object("Account", &oid("a"), &[]).unwrap();
        // balance is ro: executing it inside a tx is fine and writes nothing.
        let results = engine
            .invoke_transaction(
                &InvocationContext::background(),
                &[TxCall::new(oid("a"), "balance", vec![])],
            )
            .unwrap();
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
        engine.invoke_transaction(&InvocationContext::background(), &transfer).unwrap();
        assert_eq!(*hook.calls.lock(), vec![vec![oid("a"), oid("b"), oid("c")]]);

        // One write set that fails to replicate fails the transaction.
        engine.set_commit_hook(Arc::new(Hook { failing: true, ..Hook::default() }));
        let err =
            engine.invoke_transaction(&InvocationContext::background(), &transfer).unwrap_err();
        assert_eq!(err, InvokeError::Storage("replica down".into()));
        std::fs::remove_dir_all(dir).ok();
    }
}
