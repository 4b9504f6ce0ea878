//! Model-based property test of the whole invocation engine: a random
//! sequence of object lifecycle + invocation + migration operations must
//! behave exactly like a trivial in-memory model — including across an
//! engine restart (WAL recovery) at an arbitrary point.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use lambda_kv::{Db, Options};
use lambda_objects::{
    Engine, EngineConfig, FieldDef, FieldKind, InvokeError, ObjectId, ObjectType, TypeRegistry,
};
use lambda_vm::{assemble, VmValue};

#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Delete(u8),
    Add(u8, i8),
    ReadBalance(u8),
    Push(u8, u8),
    CountLog(u8),
    Bounce(u8),
    Restart,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..6).prop_map(Op::Create),
        1 => (0u8..6).prop_map(Op::Delete),
        6 => (0u8..6, any::<i8>()).prop_map(|(o, v)| Op::Add(o, v)),
        4 => (0u8..6).prop_map(Op::ReadBalance),
        3 => (0u8..6, any::<u8>()).prop_map(|(o, v)| Op::Push(o, v)),
        2 => (0u8..6).prop_map(Op::CountLog),
        1 => (0u8..6).prop_map(Op::Bounce),
        1 => Just(Op::Restart),
    ]
}

fn account_type() -> ObjectType {
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
        fn balance(0) ro det {
            push.s "balance"
            host.get
            btoi
            ret
        }
        fn log_push(1) {
            push.s "log"
            load 0
            host.push
            ret
        }
        fn log_count(0) ro det {
            push.s "log"
            host.count
            ret
        }
        "#,
    )
    .unwrap();
    ObjectType::from_module(
        "Account",
        vec![
            FieldDef { name: "balance".into(), kind: FieldKind::Scalar },
            FieldDef { name: "log".into(), kind: FieldKind::Collection },
        ],
        module,
    )
    .unwrap()
}

fn new_engine(dir: &std::path::Path) -> Arc<Engine> {
    let db = Db::open(dir, Options::small_for_tests()).unwrap();
    let types = Arc::new(TypeRegistry::new());
    types.register(account_type());
    Engine::new(db, types, EngineConfig::default())
}

#[derive(Debug, Default, Clone)]
struct ModelObject {
    balance: i64,
    log: Vec<u8>,
}

fn oid(i: u8) -> ObjectId {
    ObjectId::new(format!("acct/{i}").into_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn engine_matches_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        static DIR_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = DIR_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("lambda-prop-engine-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut engine = new_engine(&dir);
        let mut model: HashMap<u8, ModelObject> = HashMap::new();

        for op in ops {
            match op {
                Op::Create(o) => {
                    let result = engine.create_object("Account", &oid(o), &[]);
                    if let std::collections::hash_map::Entry::Vacant(slot) = model.entry(o) {
                        prop_assert!(result.is_ok());
                        slot.insert(ModelObject::default());
                    } else {
                        prop_assert!(matches!(result, Err(InvokeError::AlreadyExists(_))));
                    }
                }
                Op::Delete(o) => {
                    engine.delete_object(&oid(o)).unwrap();
                    model.remove(&o);
                }
                Op::Add(o, v) => {
                    let result = engine.invoke(&oid(o), "add", vec![VmValue::Int(v as i64)]);
                    match model.get_mut(&o) {
                        Some(m) => {
                            m.balance += v as i64;
                            prop_assert_eq!(result.unwrap(), VmValue::Int(m.balance));
                        }
                        None => {
                            prop_assert!(matches!(result, Err(InvokeError::UnknownObject(_))));
                        }
                    }
                }
                Op::ReadBalance(o) => {
                    let result = engine.invoke(&oid(o), "balance", vec![]);
                    match model.get(&o) {
                        Some(m) => prop_assert_eq!(result.unwrap(), VmValue::Int(m.balance)),
                        None => {
                            prop_assert!(matches!(result, Err(InvokeError::UnknownObject(_))))
                        }
                    }
                }
                Op::Push(o, v) => {
                    let result =
                        engine.invoke(&oid(o), "log_push", vec![VmValue::Bytes(vec![v])]);
                    match model.get_mut(&o) {
                        Some(m) => {
                            prop_assert!(result.is_ok());
                            m.log.push(v);
                        }
                        None => {
                            prop_assert!(matches!(result, Err(InvokeError::UnknownObject(_))))
                        }
                    }
                }
                Op::CountLog(o) => {
                    let result = engine.invoke(&oid(o), "log_count", vec![]);
                    match model.get(&o) {
                        Some(m) => {
                            prop_assert_eq!(result.unwrap(), VmValue::Int(m.log.len() as i64))
                        }
                        None => {
                            prop_assert!(matches!(result, Err(InvokeError::UnknownObject(_))))
                        }
                    }
                }
                Op::Bounce(o) => {
                    // A migration "bounce" — export, purge, install, the
                    // live migration's own sequence — must be a perfect no-op.
                    match engine.export_object(&oid(o)) {
                        Ok(snapshot) => {
                            prop_assert!(model.contains_key(&o));
                            engine.purge_object(&oid(o)).unwrap();
                            prop_assert!(!engine.object_exists(&oid(o)));
                            engine.install_object_replacing(&snapshot).unwrap();
                        }
                        Err(InvokeError::UnknownObject(_)) => {
                            prop_assert!(!model.contains_key(&o));
                        }
                        Err(other) => prop_assert!(false, "unexpected: {other}"),
                    }
                }
                Op::Restart => {
                    drop(engine);
                    engine = new_engine(&dir);
                }
            }
        }

        // Final full-state audit.
        for (o, m) in &model {
            prop_assert_eq!(
                engine.invoke(&oid(*o), "balance", vec![]).unwrap(),
                VmValue::Int(m.balance)
            );
            prop_assert_eq!(
                engine.invoke(&oid(*o), "log_count", vec![]).unwrap(),
                VmValue::Int(m.log.len() as i64)
            );
        }
        let live = engine.list_objects();
        prop_assert_eq!(live.len(), model.len(), "object census matches");
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }
}
