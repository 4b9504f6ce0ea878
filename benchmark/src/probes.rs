//! Direct probes: each layer's public functions called from outside, on a
//! stand-alone instance, so that a layer's own cost is known apart from
//! the cluster around it. Every probe is wrapped in a harness-side span.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use lambda_coordinator::CoordClient;
use lambda_kv::{Db, WriteBatch};
use lambda_net::rpc::sync_handler;
use lambda_net::{null_handler, LatencyModel, Network, NodeId, RpcNode};
use lambda_objects::{Engine, InvocationContext, ObjectId, Registry, Stage, TypeRegistry};
use lambda_paxos::{PaxosConfig, PaxosNode};
use lambda_retwis::{account_id, user_module, user_type, USER_TYPE};
use lambda_store::{ids, proto, StoreRequest};
use lambda_vm::host::MemoryHost;
use lambda_vm::{Interpreter, VmValue};

use crate::cluster::{dir_bytes, Cluster, DataDir};
use crate::countvfs::CountingVfs;
use crate::rng::SplitMix64;
use crate::spans::SpanLog;
use crate::spec;
use crate::stats::percentile;

/// `(metric name, value)`; units are fixed by the metric table in `main`.
pub type Readings = Vec<(&'static str, f64)>;

/// Mean nanoseconds of one call of `f`, over `iterations` calls.
fn mean_ns(iterations: usize, mut f: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for i in 0..iterations {
        f(i);
    }
    started.elapsed().as_nanos() as f64 / iterations as f64
}

/// Median microseconds of one call of `f`, over `iterations` calls.
fn p50_us(iterations: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut ns: Vec<u64> = (0..iterations)
        .map(|i| {
            let started = Instant::now();
            f(i);
            started.elapsed().as_nanos() as u64
        })
        .collect();
    ns.sort_unstable();
    percentile(&ns, 0.5) as f64 / 1e3
}

fn key(i: usize) -> Vec<u8> {
    format!("probe/{i:08}").into_bytes()
}

const VALUE_BYTES: usize = 100;

/// The storage engine alone: one `Db` per flush policy, in `dir` (tmpfs,
/// like the cluster's data) and, for the last, on the checkout's disk.
fn kv(dir: &DataDir) -> Result<Readings, String> {
    let err = |e: lambda_kv::KvError| format!("kv probe: {e}");
    let mut out = Readings::new();
    let value = vec![b'v'; VALUE_BYTES];
    let entry_bytes = (key(0).len() + VALUE_BYTES) as f64;

    // No sync: the engine's own write, read, flush and compaction paths.
    let vfs = CountingVfs::over_real();
    let mut opts = spec::kv_options(vfs.clone());
    opts.sync_wal = false;
    let nosync_dir = dir.path().join("kv-nosync");
    let db = Db::open(&nosync_dir, opts).map_err(err)?;
    let n = 3000; // a third of the memtable: no flush inside the timed loops
    out.push(("kv.put_us", mean_ns(n, |i| db.put(key(i), value.clone()).unwrap()) / 1e3));
    let mut rng = SplitMix64::new(11);
    out.push((
        "kv.get_mem_us",
        mean_ns(n, |_| assert!(db.get(&key(rng.below(n))).unwrap().is_some())) / 1e3,
    ));
    let live = 2 * n;
    for i in n..live {
        db.put(key(i), value.clone()).map_err(err)?;
    }
    let started = Instant::now();
    db.flush().map_err(err)?;
    out.push(("kv.flush_ms", started.elapsed().as_secs_f64() * 1e3));
    out.push((
        "kv.get_sst_us",
        mean_ns(n, |_| assert!(db.get(&key(rng.below(live))).unwrap().is_some())) / 1e3,
    ));
    out.push((
        "kv.get_miss_ns",
        mean_ns(n, |i| assert!(db.get(&key(live + 1 + i)).unwrap().is_none())),
    ));
    out.push((
        "kv.scan100_us",
        mean_ns(200, |_| {
            let start = key(rng.below(live - 100));
            assert_eq!(db.iter_range(&start, None).take(100).count(), 100);
        }) / 1e3,
    ));
    // Overwrite everything until a flush finds `l0_compaction_files` tables
    // and compacts them, inline, into the next level: that flush is timed.
    let user_live_bytes = live as f64 * entry_bytes;
    let mut written = live;
    let mut space_amp = 0.0f64;
    let compact_ms = loop {
        for i in 0..live {
            db.put(key(i), value.clone()).map_err(err)?;
        }
        written += live;
        space_amp = space_amp.max(dir_bytes(&nosync_dir) as f64 / user_live_bytes);
        let compactions = db.stats().compactions;
        let started = Instant::now();
        db.flush().map_err(err)?;
        if db.stats().compactions > compactions {
            break started.elapsed().as_secs_f64() * 1e3;
        }
        if written > 16 * live {
            return Err("kv probe: sixteen flushes and no compaction".into());
        }
    };
    out.push(("kv.space_amp", space_amp));
    out.push(("kv.compact_ms", compact_ms));
    out.push(("kv.write_amp", vfs.bytes_written() as f64 / (written as f64 * entry_bytes)));
    drop(db);

    // The cluster's flush policy, on the same medium as the cluster's data.
    let db = Db::open(dir.path().join("kv-sync"), spec::kv_options(lambda_kv::vfs::real()))
        .map_err(err)?;
    out.push(("kv.put_sync_us", mean_ns(2000, |i| db.put(key(i), value.clone()).unwrap()) / 1e3));
    out.push((
        "kv.batch16_us",
        mean_ns(500, |i| {
            let mut batch = WriteBatch::new();
            for j in 0..16 {
                batch.put(key(i * 16 + j), value.clone());
            }
            db.write(batch).unwrap();
        }) / 1e3,
    ));
    drop(db);

    // The same policy on the checkout's real disk: what tmpfs leaves out of
    // the end-to-end numbers.
    let disk_dir = DataDir::create_on_disk("probe-kv").map_err(|e| format!("kv probe: {e}"))?;
    let db = Db::open(disk_dir.path(), spec::kv_options(lambda_kv::vfs::real())).map_err(err)?;
    let started = Instant::now();
    let mut puts = 0;
    while puts < 200 && started.elapsed() < Duration::from_millis(400) {
        db.put(key(puts), value.clone()).map_err(err)?;
        puts += 1;
    }
    out.push(("kv.put_sync_disk_us", started.elapsed().as_secs_f64() * 1e6 / puts as f64));
    Ok(out)
}

/// The execution engine alone, over a `Db` with the cluster's options:
/// account 0 has five followers, so a post fans out five nested calls.
fn core(dir: &DataDir) -> Result<Readings, String> {
    let err = |e: lambda_objects::InvokeError| format!("core probe: {e}");
    let db = Db::open(dir.path().join("core"), spec::kv_options(lambda_kv::vfs::real()))
        .map_err(|e| format!("core probe: {e}"))?;
    let types = Arc::new(TypeRegistry::new());
    types.register(user_type());
    let engine = Engine::new(db.clone(), Arc::clone(&types), spec::engine_config(4096));
    let uncached = Engine::new(db, types, spec::engine_config(0));
    let id = |i: usize| ObjectId::new(account_id(i));
    for i in 0..8 {
        engine.create_object(USER_TYPE, &id(i), &[("name", b"probe")]).map_err(err)?;
    }
    for follower in 1..=5 {
        engine.invoke(&id(0), "follow", vec![VmValue::Bytes(account_id(follower))]).map_err(err)?;
    }
    let mut out = Readings::new();
    out.push((
        "core.invoke_nested_us",
        mean_ns(300, |i| {
            engine.invoke(&id(0), "create_post", vec![VmValue::str(format!("p{i}"))]).unwrap();
        }) / 1e3,
    ));
    out.push((
        "core.invoke_mutate_us",
        mean_ns(1000, |i| {
            engine.invoke(&id(6), "follow", vec![VmValue::Bytes(account_id(i))]).unwrap();
        }) / 1e3,
    ));
    let limit = || vec![VmValue::Int(spec::TIMELINE_LIMIT)];
    engine.invoke(&id(1), "get_timeline", limit()).map_err(err)?;
    out.push((
        "core.invoke_read_hit_us",
        mean_ns(5000, |_| {
            engine.invoke(&id(1), "get_timeline", limit()).unwrap();
        }) / 1e3,
    ));
    out.push((
        "core.invoke_read_miss_us",
        mean_ns(2000, |_| {
            uncached.invoke(&id(1), "get_timeline", limit()).unwrap();
        }) / 1e3,
    ));
    Ok(out)
}

/// The VM alone: the three ReTwis method bodies against an in-memory host.
fn vm() -> Result<Readings, String> {
    let err = |e: lambda_vm::VmError| format!("vm probe: {e}");
    let module = user_module();
    let limits = spec::engine_config(0).limits;
    let interpreter = Interpreter::with_cache_capacity(limits, 64);
    let mut fresh = MemoryHost::default();
    for i in 0..5 {
        fresh.collections.entry(b"followers".to_vec()).or_default().push(account_id(i));
    }
    for i in 0..50 {
        let row = format!("user/000001|p{i}").into_bytes();
        fresh.collections.entry(b"timeline".to_vec()).or_default().push(row);
    }
    let post = || vec![VmValue::str("a1234")];

    let mut out = Readings::new();
    let (_, report) = interpreter
        .execute_with_report(&module, "create_post", post(), &mut fresh.clone())
        .map_err(err)?;
    out.push(("vm.fuel_per_post", report.fuel_used as f64));
    // The host's collections grow with every push; start each batch afresh.
    let body_ns = |function: &str, args: &dyn Fn() -> Vec<VmValue>| {
        let mut total = Duration::ZERO;
        let (batches, per_batch) = (20, 250);
        for _ in 0..batches {
            let mut host = fresh.clone();
            let started = Instant::now();
            for _ in 0..per_batch {
                interpreter.execute(&module, function, args(), &mut host).unwrap();
            }
            total += started.elapsed();
        }
        total.as_nanos() as f64 / (batches * per_batch) as f64
    };
    out.push(("vm.post_body_ns", body_ns("create_post", &post)));
    out.push(("vm.timeline_body_ns", body_ns("get_timeline", &|| vec![VmValue::Int(10)])));
    out.push(("vm.follow_body_ns", body_ns("follow", &|| vec![VmValue::Bytes(account_id(7))])));

    // Lowering: what an execution costs without the lowered-code cache,
    // minus what it costs with it.
    let relowering = Interpreter::with_cache_capacity(limits, 0);
    let mut host = fresh.clone();
    let cold = mean_ns(300, |_| {
        relowering.execute(&module, "get_name", vec![], &mut host).unwrap();
    });
    let warm = mean_ns(300, |_| {
        interpreter.execute(&module, "get_name", vec![], &mut host).unwrap();
    });
    out.push(("vm.lower_us", (cold - warm).max(0.0) / 1e3));
    Ok(out)
}

fn echo_pair(latency: LatencyModel) -> (Network, Arc<RpcNode>, Arc<RpcNode>) {
    let net = Network::new(latency, 0x6e65_7400);
    let server = RpcNode::start(&net, NodeId(1), sync_handler(|_, body| Ok(body)), 2);
    let client = RpcNode::start(&net, NodeId(2), null_handler(), 1);
    (net, server, client)
}

/// The simulated network alone: what one empty request and reply cost.
fn net() -> Result<Readings, String> {
    let mut out = Readings::new();
    let body = vec![0u8; 64];
    let timeout = Duration::from_secs(2);

    let model = spec::latency_model();
    let (network, _server, client) = echo_pair(model);
    let floor = p50_us(200, |_| {
        client.call(NodeId(1), body.clone(), timeout).unwrap();
    });
    network.shutdown();
    out.push(("net.null_rpc_p50_us", floor));
    // Two link crossings, each base + jitter/2 + bytes on average; the rest
    // is timers, queues and the single dispatcher thread.
    let link_us =
        (model.base + model.jitter / 2 + model.per_byte * body.len() as u32).as_secs_f64() * 1e6;
    out.push(("net.null_rpc_overshoot_us", floor - 2.0 * link_us));

    let (network, _server, client) = echo_pair(LatencyModel::instant());
    out.push((
        "net.null_rpc_instant_p50_us",
        p50_us(3000, |_| {
            client.call(NodeId(1), body.clone(), timeout).unwrap();
        }),
    ));
    // Throughput of the harness itself: one thread, 256 calls outstanding.
    let (freed_tx, freed_rx) = mpsc::channel::<()>();
    let done = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut in_flight = 0;
    while started.elapsed() < Duration::from_millis(300) {
        if in_flight < spec::SATURATION_OUTSTANDING {
            let (freed, done) = (freed_tx.clone(), Arc::clone(&done));
            client.call_deferred(
                NodeId(1),
                body.clone(),
                timeout,
                Box::new(move |reply| {
                    if reply.is_ok() {
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    let _ = freed.send(());
                }),
            );
            in_flight += 1;
        } else if freed_rx.recv_timeout(Duration::from_millis(100)).is_ok() {
            in_flight -= 1;
        }
    }
    out.push((
        "net.null_rpc_ops_s",
        done.load(Ordering::Relaxed) as f64 / started.elapsed().as_secs_f64(),
    ));
    network.shutdown();

    let request = StoreRequest::Invoke {
        object: account_id(1),
        method: "get_timeline".to_string(),
        args: vec![VmValue::Int(spec::TIMELINE_LIMIT)],
        read_only: true,
        internal: false,
        collect_read_set: false,
    };
    let ctx = InvocationContext::client(Duration::from_secs(5));
    let frame = proto::encode_request(&ctx, &request).map_err(|e| format!("net probe: {e}"))?;
    out.push((
        "net.encode_ns",
        mean_ns(20_000, |_| {
            std::hint::black_box(proto::encode_request(&ctx, std::hint::black_box(&request)))
                .unwrap();
        }),
    ));
    out.push((
        "net.decode_ns",
        mean_ns(20_000, |_| {
            std::hint::black_box(proto::decode_request(std::hint::black_box(&frame))).unwrap();
        }),
    ));
    Ok(out)
}

/// One Paxos commit among three members over the pinned link.
fn paxos() -> Result<Readings, String> {
    let network = Network::new(spec::latency_model(), 0x7078_0000);
    let members: Vec<NodeId> = (1..=3).map(NodeId).collect();
    let config = PaxosConfig {
        rpc_timeout: Duration::from_millis(250),
        max_retries: 12,
        retry_backoff: Duration::from_millis(5),
        workers: 4,
    };
    let nodes: Vec<Arc<PaxosNode>> = members
        .iter()
        .map(|&id| PaxosNode::start(&network, id, members.clone(), Arc::new(|_, _| ()), config))
        .collect();
    let mut failed = false;
    let p50 = p50_us(15, |i| failed |= nodes[0].propose(vec![i as u8; 32]).is_err());
    for node in &nodes {
        node.shutdown();
    }
    network.shutdown();
    if failed {
        return Err("paxos probe: a proposal found no majority".into());
    }
    Ok(vec![("paxos.commit_p50_us", p50)])
}

/// Fetching the shard map from the running cluster's coordinators.
fn coordinator(cluster: &Cluster) -> Result<Readings, String> {
    let core = &cluster.inner.core;
    let rpc = RpcNode::start(&core.net, NodeId(ids::CLIENT_BASE + 10_001), null_handler(), 1);
    let client =
        CoordClient::new(Arc::clone(&rpc), core.coordinator_ids.clone(), Duration::from_secs(5));
    let mut failed = false;
    let p50 = p50_us(30, |_| failed |= !matches!(client.get_state(0), Ok(Some(_))));
    rpc.shutdown();
    if failed {
        return Err("coordinator probe: no cluster state".into());
    }
    Ok(vec![("coordinator.placement_fetch_us", p50)])
}

/// What recording one span costs the layer that records it.
fn telemetry() -> Result<Readings, String> {
    let registry = Registry::new();
    let ns = mean_ns(200_000, |i| {
        registry.record_span(i as u64, Stage::Execute, Duration::from_nanos(1000 + i as u64));
    });
    Ok(vec![("telemetry.record_span_ns", ns)])
}

/// Run every probe, each inside a span under `parent`.
pub fn run_all(cluster: &Cluster, spans: &mut SpanLog, parent: u32) -> Result<Readings, String> {
    let dir = DataDir::create("probes").map_err(|e| format!("probe directory: {e}"))?;
    let mut out = Readings::new();
    out.extend(spans.timed(parent, "probe.kv", || kv(&dir))?);
    out.extend(spans.timed(parent, "probe.core", || core(&dir))?);
    out.extend(spans.timed(parent, "probe.vm", vm)?);
    out.extend(spans.timed(parent, "probe.net", net)?);
    out.extend(spans.timed(parent, "probe.paxos", paxos)?);
    out.extend(spans.timed(parent, "probe.coordinator", || coordinator(cluster))?);
    out.extend(spans.timed(parent, "probe.telemetry", telemetry)?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(r: &Readings) -> Vec<&'static str> {
        r.iter().map(|m| m.0).collect()
    }

    #[test]
    fn stand_alone_probes_report_positive_numbers() {
        let dir = DataDir::create("probes-test").unwrap();
        let mut all = Readings::new();
        all.extend(kv(&dir).unwrap());
        all.extend(core(&dir).unwrap());
        all.extend(vm().unwrap());
        all.extend(telemetry().unwrap());
        for (name, value) in &all {
            assert!(value.is_finite() && *value >= 0.0, "{name} = {value}");
        }
        assert!(names(&all).contains(&"kv.put_sync_disk_us"));
        let get = |n: &str| all.iter().find(|m| m.0 == n).unwrap().1;
        assert!(get("kv.write_amp") > 1.0, "WAL plus tables exceed the user bytes");
        assert!(get("kv.space_amp") > 1.0, "several versions of every key before compaction");
        assert!(get("kv.compact_ms") > get("kv.flush_ms"));
        assert_eq!(get("vm.fuel_per_post"), vm().unwrap()[0].1, "fuel is an exact count");
        assert!(get("core.invoke_nested_us") > get("core.invoke_mutate_us"));
        assert!(get("core.invoke_read_miss_us") > get("core.invoke_read_hit_us"));
    }
}
