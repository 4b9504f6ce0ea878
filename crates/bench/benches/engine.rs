//! Criterion micro-benchmarks of the invocation engine (MICRO):
//! the full invocation path (lock → snapshot → execute → atomic commit)
//! and the consistent-cache hit path (§4.2.2).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lambda_kv::{Db, Options};
use lambda_objects::{Engine, EngineConfig, ObjectId, TypeRegistry};
use lambda_retwis::{account_id, user_type, user_type_native, USER_TYPE};
use lambda_vm::VmValue;

fn engine_with(ty: lambda_objects::ObjectType, name: &str) -> (Arc<Engine>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("lambda-bench-eng-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Db::open(&dir, Options::default()).unwrap();
    let types = Arc::new(TypeRegistry::new());
    types.register(ty);
    (Engine::new(db, types, EngineConfig::default()), dir)
}

fn bench_invoke_paths(c: &mut Criterion) {
    let (engine, dir) = engine_with(user_type(), "bytecode");
    let id = ObjectId::new(account_id(0));
    engine.create_object(USER_TYPE, &id, &[("name", b"bench")]).unwrap();
    engine.invoke(&id, "create_post", vec![VmValue::str("seed")]).unwrap();

    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(1));
    group.bench_function("mutating_invocation", |b| {
        b.iter(|| engine.invoke(&id, "create_post", vec![VmValue::str("p")]).unwrap())
    });
    group.bench_function("read_only_cache_hit", |b| {
        // Identical args: after the first call every iteration hits the
        // consistent cache.
        b.iter(|| engine.invoke(&id, "get_timeline", vec![VmValue::Int(10)]).unwrap())
    });
    let (uncached, dir2) = {
        let dir =
            std::env::temp_dir().join(format!("lambda-bench-eng-{}-uncached", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Db::open(&dir, Options::default()).unwrap();
        let types = Arc::new(TypeRegistry::new());
        types.register(user_type());
        (Engine::new(db, types, EngineConfig { cache_capacity: 0, ..EngineConfig::default() }), dir)
    };
    uncached.create_object(USER_TYPE, &id, &[("name", b"bench")]).unwrap();
    for i in 0..10 {
        uncached.invoke(&id, "create_post", vec![VmValue::str(format!("p{i}"))]).unwrap();
    }
    group.bench_function("read_only_uncached", |b| {
        b.iter(|| uncached.invoke(&id, "get_timeline", vec![VmValue::Int(10)]).unwrap())
    });
    group.finish();
    drop(engine);
    drop(uncached);
    std::fs::remove_dir_all(dir).ok();
    std::fs::remove_dir_all(dir2).ok();
}

fn bench_native_vs_bytecode(c: &mut Criterion) {
    let (bytecode, d1) = engine_with(user_type(), "ntv-bc");
    let (native, d2) = engine_with(user_type_native(), "ntv-nat");
    let id = ObjectId::new(account_id(1));
    for engine in [&bytecode, &native] {
        engine.create_object(USER_TYPE, &id, &[("name", b"x")]).unwrap();
        engine.invoke(&id, "create_post", vec![VmValue::str("seed")]).unwrap();
    }
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(1));
    group.bench_function("post_bytecode", |b| {
        b.iter(|| bytecode.invoke(&id, "create_post", vec![VmValue::str("p")]).unwrap())
    });
    group.bench_function("post_native", |b| {
        b.iter(|| native.invoke(&id, "create_post", vec![VmValue::str("p")]).unwrap())
    });
    group.finish();
    drop(bytecode);
    drop(native);
    std::fs::remove_dir_all(d1).ok();
    std::fs::remove_dir_all(d2).ok();
}

fn bench_nested_call(c: &mut Criterion) {
    let (engine, dir) = engine_with(user_type(), "nested");
    let author = ObjectId::new(account_id(2));
    let follower = ObjectId::new(account_id(3));
    engine.create_object(USER_TYPE, &author, &[("name", b"a")]).unwrap();
    engine.create_object(USER_TYPE, &follower, &[("name", b"f")]).unwrap();
    engine.invoke(&author, "follow", vec![VmValue::Bytes(follower.0.clone())]).unwrap();
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(1));
    group.bench_function("post_with_one_follower", |b| {
        // One nested store_post: commit boundary + lock release/reacquire.
        b.iter(|| engine.invoke(&author, "create_post", vec![VmValue::str("p")]).unwrap())
    });
    group.finish();
    drop(engine);
    std::fs::remove_dir_all(dir).ok();
}

criterion_group!(benches, bench_invoke_paths, bench_native_vs_bytecode, bench_nested_call);
criterion_main!(benches);
