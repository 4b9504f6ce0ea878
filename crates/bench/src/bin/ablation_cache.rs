//! Ablation ABL-CACHE: the consistent result cache of §4.2.2.
//!
//! Runs `get_timeline` against a single LambdaObjects engine with the cache
//! enabled vs disabled, across write-interference rates (a write to the
//! object invalidates its cached timelines). Shape expectation: the cache
//! wins big on read-dominated workloads and degrades gracefully toward the
//! no-cache line as the write rate grows — while never serving stale data
//! (verified inline).

use std::sync::Arc;
use std::time::Instant;

use lambda_bench::env_usize;
use lambda_kv::{Db, Options};
use lambda_objects::{Engine, EngineConfig, ObjectId, TypeRegistry};
use lambda_retwis::{account_id, user_type};
use lambda_vm::VmValue;

fn build_engine(cache_capacity: usize, dir: &std::path::Path) -> Arc<Engine> {
    let _ = std::fs::remove_dir_all(dir);
    let db = Db::open(dir, Options::default()).expect("open db");
    let types = Arc::new(TypeRegistry::new());
    types.register(user_type());
    Engine::new(db, types, EngineConfig { cache_capacity, ..EngineConfig::default() })
}

const TIMELINE_LIMIT: i64 = 100;

fn run_case(engine: &Engine, reads: usize, writes_per_100_reads: usize) -> (f64, u64, u64) {
    let id = ObjectId::new(account_id(0));
    let started = Instant::now();
    let mut expected_len = engine
        .invoke(&id, "get_timeline", vec![VmValue::Int(TIMELINE_LIMIT)])
        .unwrap()
        .as_list()
        .unwrap()
        .len();
    for i in 0..reads {
        if writes_per_100_reads > 0 && i % 100 < writes_per_100_reads {
            engine
                .invoke(&id, "create_post", vec![VmValue::str(format!("interfere {i}"))])
                .unwrap();
            expected_len += 1;
        }
        let tl = engine.invoke(&id, "get_timeline", vec![VmValue::Int(TIMELINE_LIMIT)]).unwrap();
        let got = tl.as_list().unwrap().len();
        assert_eq!(
            got,
            expected_len.min(TIMELINE_LIMIT as usize),
            "STALE READ: cache served an outdated timeline"
        );
    }
    let elapsed = started.elapsed();
    let stats = engine.stats();
    (reads as f64 / elapsed.as_secs_f64(), stats.cache_hits, stats.cache.invalidations)
}

/// Give the account a realistic timeline so an uncached `get_timeline`
/// re-execution actually costs something (100 point reads through the VM).
fn seed(engine: &Engine) {
    let id = ObjectId::new(account_id(0));
    engine.create_object("User", &id, &[("name", b"u0")]).unwrap();
    for i in 0..TIMELINE_LIMIT {
        engine.invoke(&id, "create_post", vec![VmValue::str(format!("seed {i}"))]).unwrap();
    }
}

fn main() {
    let reads = env_usize("CACHE_READS", 20_000);
    let base = std::env::temp_dir().join(format!("lambda-ablcache-{}", std::process::id()));
    println!("ablation_cache: {reads} timeline reads per cell, write rates swept\n");
    println!(
        "{:<22} {:>14} {:>14} {:>12} {:>14}",
        "writes/100 reads", "cache ops/s", "nocache ops/s", "cache hits", "invalidations"
    );
    for &write_rate in &[0usize, 1, 5, 20, 50] {
        // Cached engine.
        let dir = base.join(format!("cache-{write_rate}"));
        let engine = build_engine(4096, &dir);
        seed(&engine);
        let (cached_tput, hits, invalidations) = run_case(&engine, reads, write_rate);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);

        // Uncached engine.
        let dir = base.join(format!("nocache-{write_rate}"));
        let engine = build_engine(0, &dir);
        seed(&engine);
        let (plain_tput, _, _) = run_case(&engine, reads, write_rate);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);

        println!(
            "{:<22} {:>14.0} {:>14.0} {:>12} {:>14}",
            write_rate, cached_tput, plain_tput, hits, invalidations
        );
    }
    let _ = std::fs::remove_dir_all(&base);
    println!(
        "\nshape: caching multiplies read-only throughput at low write rates;\n\
         the gap narrows as writes invalidate entries; zero stale reads observed."
    );
}
