//! The ReTwis microblogging application as a LambdaObjects type.
//!
//! Faithful to §3.2 / Listing 1 of the paper: each `User` object holds the
//! user's `name`, a `followers` collection of object ids, a `posts`
//! collection of their own posts and a `timeline` collection of posts by
//! everyone they follow. `create_post` stores the post locally and then
//! invokes `store_post` on every follower's object; `get_timeline` is a
//! read-only, deterministic (cacheable) scan; `follow` registers a
//! follower.
//!
//! Both implementations the paper allows are provided: **bytecode** (the
//! untrusted, metered path — WebAssembly in the original) and **native**
//! (trusted code co-located with storage, §4.2). They are behaviourally
//! identical, which the tests verify.

use lambda_objects::{FieldDef, FieldKind, ObjectType};
use lambda_vm::{assemble, HostError, Module, NativeCtx, NativeRegistry, VmValue};

/// The type name used for ReTwis user objects.
pub const USER_TYPE: &str = "User";

/// Field schema of a `User` object.
pub fn user_fields() -> Vec<FieldDef> {
    vec![
        FieldDef { name: "name".into(), kind: FieldKind::Scalar },
        FieldDef { name: "followers".into(), kind: FieldKind::Collection },
        FieldDef { name: "posts".into(), kind: FieldKind::Collection },
        FieldDef { name: "timeline".into(), kind: FieldKind::Collection },
    ]
}

/// The bytecode implementation of the `User` type (Listing 1).
pub fn user_module() -> Module {
    assemble(
        r#"
        ; create_post(msg): store the post in our own timeline and posts,
        ; then fan it out to every follower (Listing 1, lines 6-12) as one
        ; scatter ("running the store_post calls in parallel", §3.2).
        fn create_post(1) locals=5 {
            ; post = self_id ++ "|" ++ msg
            host.self
            push.s "|"
            concat
            load 0
            concat
            store 4
            push.s "posts"
            load 4
            host.push
            pop
            push.s "timeline"
            load 4
            host.push
            pop
            ; scatter store_post to every follower at once
            push.s "followers"
            push.i 1000000
            push.i 0
            host.scan
            push.s "store_post"
            load 4
            mklist 1
            host.invoke_many
            pop
            unit
            ret
        }

        ; create_post_seq(msg): the same post, fanned out one follower at
        ; a time — the reference the ABL-FANOUT ablation compares against.
        fn create_post_seq(1) locals=5 {
            host.self
            push.s "|"
            concat
            load 0
            concat
            store 4
            push.s "posts"
            load 4
            host.push
            pop
            push.s "timeline"
            load 4
            host.push
            pop
            push.s "followers"
            push.i 1000000
            push.i 0
            host.scan
            store 1
            load 1
            len
            store 3
            push.i 0
            store 2
        fanout:
            load 2
            load 3
            lt
            jz done
            load 1
            load 2
            index
            push.s "store_post"
            load 4
            mklist 1
            host.invoke
            pop
            load 2
            push.i 1
            add
            store 2
            jmp fanout
        done:
            unit
            ret
        }

        ; store_post(post): append to the timeline (Listing 1, lines 21-22).
        ; Private: only reachable through other objects' create_post.
        fn store_post(1) priv {
            push.s "timeline"
            load 0
            host.push
            ret
        }

        ; get_timeline(limit): newest-first scan (Listing 1, lines 14-19).
        ; Read-only + deterministic => runs on replicas, cacheable.
        fn get_timeline(1) ro det {
            push.s "timeline"
            load 0
            push.i 1
            host.scan
            ret
        }

        ; follow(follower_oid): register a follower of this account.
        fn follow(1) {
            push.s "followers"
            load 0
            host.push
            ret
        }

        ; get_name() -> bytes
        fn get_name(0) ro det {
            push.s "name"
            host.get
            ret
        }

        ; follower_count() -> int
        fn follower_count(0) ro det {
            push.s "followers"
            host.count
            ret
        }

        ; post_count() -> int
        fn post_count(0) ro det {
            push.s "posts"
            host.count
            ret
        }
        "#,
    )
    .expect("retwis module is valid")
}

/// The complete bytecode `User` object type.
pub fn user_type() -> ObjectType {
    ObjectType::from_module(USER_TYPE, user_fields(), user_module())
        .expect("retwis module validates")
}

/// The part both native `create_post` variants share: store the post in
/// the author's own `posts` and `timeline`; returns it with the followers
/// it still has to reach.
fn store_own_post(ctx: &mut NativeCtx<'_>) -> Result<(Vec<u8>, Vec<Vec<u8>>), HostError> {
    let msg = ctx.bytes_arg(0)?;
    let mut post = ctx.host.self_id();
    post.push(b'|');
    post.extend_from_slice(&msg);
    ctx.host.push(b"posts", &post)?;
    ctx.host.push(b"timeline", &post)?;
    Ok((post, ctx.host.scan(b"followers", usize::MAX, false)?))
}

/// The trusted-native implementation of the same type.
pub fn user_type_native() -> ObjectType {
    let mut reg = NativeRegistry::new();
    reg.register("create_post", false, false, true, |ctx| {
        let (post, followers) = store_own_post(ctx)?;
        ctx.host.invoke_many(followers, "store_post", vec![VmValue::Bytes(post)])?;
        Ok(VmValue::Unit)
    });
    reg.register("create_post_seq", false, false, true, |ctx| {
        let (post, followers) = store_own_post(ctx)?;
        for follower in followers {
            ctx.host.invoke(&follower, "store_post", vec![VmValue::Bytes(post.clone())])?;
        }
        Ok(VmValue::Unit)
    });
    reg.register("store_post", false, false, false, |ctx| {
        let post = ctx.bytes_arg(0)?;
        ctx.host.push(b"timeline", &post)?;
        Ok(VmValue::Unit)
    });
    reg.register("get_timeline", true, true, true, |ctx| {
        let limit = ctx.int_arg(0)?.max(0) as usize;
        let rows = ctx.host.scan(b"timeline", limit, true)?;
        Ok(VmValue::List(rows.into_iter().map(VmValue::Bytes).collect()))
    });
    reg.register("follow", false, false, true, |ctx| {
        let follower = ctx.bytes_arg(0)?;
        ctx.host.push(b"followers", &follower)?;
        Ok(VmValue::Unit)
    });
    reg.register("get_name", true, true, true, |ctx| {
        Ok(match ctx.host.get(b"name")? {
            Some(v) => VmValue::Bytes(v),
            None => VmValue::Unit,
        })
    });
    reg.register("follower_count", true, true, true, |ctx| {
        Ok(VmValue::Int(ctx.host.count(b"followers")? as i64))
    });
    reg.register("post_count", true, true, true, |ctx| {
        Ok(VmValue::Int(ctx.host.count(b"posts")? as i64))
    });
    ObjectType::from_native(USER_TYPE, user_fields(), reg)
}

/// The canonical object id for account number `i`.
pub fn account_id(i: usize) -> Vec<u8> {
    format!("user/{i:06}").into_bytes()
}

/// Parse a post payload back into `(author, message)`.
pub fn parse_post(post: &[u8]) -> Option<(String, String)> {
    let sep = post.iter().position(|&b| b == b'|')?;
    Some((
        String::from_utf8_lossy(&post[..sep]).into_owned(),
        String::from_utf8_lossy(&post[sep + 1..]).into_owned(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_kv::{Db, Options};
    use lambda_objects::{Engine, EngineConfig, ObjectId, TypeRegistry};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn engine_with(ty: ObjectType) -> (Arc<Engine>, std::path::PathBuf) {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("lambda-retwis-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        let types = Arc::new(TypeRegistry::new());
        types.register(ty);
        (Engine::new(db, types, EngineConfig::default()), dir)
    }

    fn run_retwis_scenario(engine: &Engine) {
        let alice = ObjectId::new(account_id(0));
        let bob = ObjectId::new(account_id(1));
        let carol = ObjectId::new(account_id(2));
        for (id, name) in [(&alice, "alice"), (&bob, "bob"), (&carol, "carol")] {
            engine.create_object(USER_TYPE, id, &[("name", name.as_bytes())]).unwrap();
        }
        // bob and carol follow alice.
        engine.invoke(&alice, "follow", vec![VmValue::Bytes(bob.0.clone())]).unwrap();
        engine.invoke(&alice, "follow", vec![VmValue::Bytes(carol.0.clone())]).unwrap();
        assert_eq!(engine.invoke(&alice, "follower_count", vec![]).unwrap(), VmValue::Int(2));

        // alice posts; bob and carol receive it.
        engine.invoke(&alice, "create_post", vec![VmValue::str("hello world")]).unwrap();
        for reader in [&alice, &bob, &carol] {
            let tl = engine.invoke(reader, "get_timeline", vec![VmValue::Int(10)]).unwrap();
            let items = tl.as_list().expect("list").to_vec();
            assert_eq!(items.len(), 1, "{reader} timeline");
            let (author, msg) = parse_post(items[0].as_bytes().unwrap()).unwrap();
            assert_eq!(author, "user/000000");
            assert_eq!(msg, "hello world");
        }

        // bob posts; only bob's timeline gains a post (no followers).
        engine.invoke(&bob, "create_post", vec![VmValue::str("second")]).unwrap();
        let tl = engine.invoke(&bob, "get_timeline", vec![VmValue::Int(10)]).unwrap();
        assert_eq!(tl.as_list().unwrap().len(), 2);
        let tl = engine.invoke(&carol, "get_timeline", vec![VmValue::Int(10)]).unwrap();
        assert_eq!(tl.as_list().unwrap().len(), 1);

        // Newest first.
        let tl = engine.invoke(&bob, "get_timeline", vec![VmValue::Int(1)]).unwrap();
        let items = tl.as_list().unwrap().to_vec();
        let (_, msg) = parse_post(items[0].as_bytes().unwrap()).unwrap();
        assert_eq!(msg, "second");
    }

    #[test]
    fn bytecode_implementation_behaves() {
        let (engine, dir) = engine_with(user_type());
        run_retwis_scenario(&engine);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn native_implementation_behaves_identically() {
        let (engine, dir) = engine_with(user_type_native());
        run_retwis_scenario(&engine);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn the_sequential_reference_delivers_what_the_scatter_delivers() {
        for ty in [user_type(), user_type_native()] {
            let (engine, dir) = engine_with(ty);
            let ids: Vec<ObjectId> = (0..4).map(|i| ObjectId::new(account_id(i))).collect();
            for id in &ids {
                engine.create_object(USER_TYPE, id, &[]).unwrap();
            }
            for follower in &ids[1..] {
                engine.invoke(&ids[0], "follow", vec![VmValue::Bytes(follower.0.clone())]).unwrap();
            }
            engine.invoke(&ids[0], "create_post", vec![VmValue::str("scattered")]).unwrap();
            engine.invoke(&ids[0], "create_post_seq", vec![VmValue::str("in turn")]).unwrap();
            for reader in &ids {
                let tl = engine.invoke(reader, "get_timeline", vec![VmValue::Int(10)]).unwrap();
                let msgs: Vec<String> = tl
                    .as_list()
                    .unwrap()
                    .iter()
                    .map(|post| parse_post(post.as_bytes().unwrap()).unwrap().1)
                    .collect();
                assert_eq!(msgs, ["in turn", "scattered"], "{reader} timeline");
            }
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn get_timeline_is_cacheable() {
        let (engine, dir) = engine_with(user_type());
        let alice = ObjectId::new(account_id(0));
        engine.create_object(USER_TYPE, &alice, &[("name", b"alice")]).unwrap();
        engine.invoke(&alice, "create_post", vec![VmValue::str("p")]).unwrap();
        for _ in 0..3 {
            engine.invoke(&alice, "get_timeline", vec![VmValue::Int(10)]).unwrap();
        }
        assert_eq!(engine.stats().cache_hits, 2);
        // A new post invalidates the cached timeline.
        engine.invoke(&alice, "create_post", vec![VmValue::str("q")]).unwrap();
        let tl = engine.invoke(&alice, "get_timeline", vec![VmValue::Int(10)]).unwrap();
        assert_eq!(tl.as_list().unwrap().len(), 2, "cache must not serve stale timeline");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn store_post_is_private() {
        let (engine, dir) = engine_with(user_type());
        let alice = ObjectId::new(account_id(0));
        engine.create_object(USER_TYPE, &alice, &[]).unwrap();
        let err = engine.invoke(&alice, "store_post", vec![VmValue::str("forged")]).unwrap_err();
        assert!(matches!(err, lambda_objects::InvokeError::NotPublic(_)));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn post_payload_round_trip() {
        assert_eq!(
            parse_post(b"user/000001|hi there"),
            Some(("user/000001".into(), "hi there".into()))
        );
        assert_eq!(parse_post(b"no-separator"), None);
    }

    #[test]
    fn account_ids_are_stable_and_sorted() {
        assert_eq!(account_id(7), b"user/000007".to_vec());
        assert!(account_id(2) < account_id(10), "zero padding keeps order");
    }
}
