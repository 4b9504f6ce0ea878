//! Integration tests across the three architectures.

use std::time::{Duration, Instant};

use lambda_net::{FaultPlan, FaultSpec, NodeId};
use lambda_objects::{FieldDef, FieldKind, InvokeError, ObjectId};
use lambda_store::{
    AggregatedCluster, ClusterConfig, DisaggregatedCluster, ServerlessCluster, StoreRequest,
    StoreResponse,
};
use lambda_vm::{assemble, Module, VmValue};

/// A small "Account" type exercising fields, collections, nested calls and
/// aborts.
/// Seed for this file's fault plans; `CHAOS_SEED` (hex with optional `0x`,
/// or decimal) overrides it so a failing nightly run can be replayed.
fn chaos_seed(default: u64) -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => {
            let t = s.trim().trim_start_matches("0x").replace('_', "");
            u64::from_str_radix(&t, 16)
                .or_else(|_| s.trim().parse())
                .unwrap_or_else(|_| panic!("unparseable CHAOS_SEED {s:?}"))
        }
        Err(_) => default,
    }
}

fn account_module() -> Module {
    assemble(
        r#"
        fn deposit(1) locals=2 {
            ; arg 0: amount
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
            push.s "log"
            push.s "deposit"
            host.push
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
        fn history(1) ro {
            push.s "log"
            load 0
            push.i 1
            host.scan
            ret
        }
        fn transfer(2) locals=3 {
            ; arg 0: target account id, arg 1: amount
            push.s "balance"
            host.get
            btoi
            store 2
            load 2
            load 1
            lt
            jz enough
            push.s "insufficient funds"
            host.abort
        enough:
            push.s "balance"
            load 2
            load 1
            sub
            itob
            host.put
            pop
            load 0
            push.s "deposit"
            load 1
            mklist 1
            host.invoke
            ret
        }
        "#,
    )
    .expect("account module assembles")
}

fn account_fields() -> Vec<FieldDef> {
    vec![
        FieldDef { name: "balance".into(), kind: FieldKind::Scalar },
        FieldDef { name: "log".into(), kind: FieldKind::Collection },
    ]
}

/// Balance values are stored as VM ints; helper to read them.
fn as_int(v: VmValue) -> i64 {
    v.as_int().unwrap_or_else(|| panic!("expected int, got {v}"))
}

#[test]
fn aggregated_end_to_end() {
    let cluster = AggregatedCluster::build(ClusterConfig::for_tests()).unwrap();
    let client = cluster.client();
    client.deploy_type("Account", account_fields(), &account_module()).unwrap();

    let alice = ObjectId::from("acct/alice");
    client.create_object("Account", &alice, &[]).unwrap();
    let balance = client.invoke(&alice, "deposit", vec![VmValue::Int(100)], false).unwrap();
    assert_eq!(as_int(balance), 100);
    let balance = client.invoke(&alice, "balance", vec![], true).unwrap();
    assert_eq!(as_int(balance), 100);

    // Duplicate creation is rejected cluster-wide.
    assert!(matches!(
        client.create_object("Account", &alice, &[]),
        Err(InvokeError::AlreadyExists(_))
    ));

    cluster.shutdown();
}

#[test]
fn aggregated_cross_object_transfer_and_abort() {
    let cluster = AggregatedCluster::build(ClusterConfig::for_tests()).unwrap();
    let client = cluster.client();
    client.deploy_type("Account", account_fields(), &account_module()).unwrap();

    let a = ObjectId::from("acct/a");
    let b = ObjectId::from("acct/b");
    client.create_object("Account", &a, &[]).unwrap();
    client.create_object("Account", &b, &[]).unwrap();
    client.invoke(&a, "deposit", vec![VmValue::Int(50)], false).unwrap();

    // Successful transfer (may cross shards/nodes).
    client.invoke(&a, "transfer", vec![VmValue::str("acct/b"), VmValue::Int(20)], false).unwrap();
    assert_eq!(as_int(client.invoke(&a, "balance", vec![], true).unwrap()), 30);
    assert_eq!(as_int(client.invoke(&b, "balance", vec![], true).unwrap()), 20);

    // Overdraft aborts and leaves balances untouched.
    let err = client
        .invoke(&a, "transfer", vec![VmValue::str("acct/b"), VmValue::Int(1000)], false)
        .unwrap_err();
    assert!(matches!(err, InvokeError::Aborted(_)), "got {err}");
    assert_eq!(as_int(client.invoke(&a, "balance", vec![], true).unwrap()), 30);
    assert_eq!(as_int(client.invoke(&b, "balance", vec![], true).unwrap()), 20);

    cluster.shutdown();
}

#[test]
fn aggregated_replicates_to_backups() {
    let cluster = AggregatedCluster::build(ClusterConfig::for_tests()).unwrap();
    let client = cluster.client();
    client.deploy_type("Account", account_fields(), &account_module()).unwrap();
    let id = ObjectId::from("acct/replicated");
    client.create_object("Account", &id, &[]).unwrap();
    client.invoke(&id, "deposit", vec![VmValue::Int(7)], false).unwrap();

    // Every node holds the object's data (rf = 3 with 3 nodes).
    for node in &cluster.core.storage {
        assert!(node.engine().object_exists(&id), "node-{} missing replicated object", node.id().0);
    }
    let stats: Vec<u64> =
        cluster.core.storage.iter().map(|n| n.stats().replications_applied).collect();
    assert!(stats.iter().sum::<u64>() >= 2, "backups applied replication: {stats:?}");
    cluster.shutdown();
}

#[test]
fn aggregated_failover_promotes_backup() {
    let mut config = ClusterConfig::for_tests();
    config.heartbeat_timeout = Duration::from_millis(400);
    let cluster = AggregatedCluster::build(config).unwrap();
    let client = cluster.client();
    client.deploy_type("Account", account_fields(), &account_module()).unwrap();
    let id = ObjectId::from("acct/survivor");
    client.create_object("Account", &id, &[]).unwrap();
    client.invoke(&id, "deposit", vec![VmValue::Int(42)], false).unwrap();

    // Find and kill the primary.
    client.refresh();
    let (_, info) = client.placement().locate(&id).expect("located");
    let primary_idx =
        cluster.core.storage.iter().position(|n| n.id() == info.primary).expect("primary present");
    cluster.core.kill_storage_node(primary_idx);

    // The client keeps retrying until the coordinator promotes a backup.
    let deadline = Instant::now() + Duration::from_secs(10);
    let balance = loop {
        match client.invoke(&id, "deposit", vec![VmValue::Int(1)], false) {
            Ok(v) => break as_int(v),
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("failover never completed: {e}"),
        }
    };
    assert_eq!(balance, 43, "state survived the primary failure");
    client.refresh();
    let (_, new_info) = client.placement().locate(&id).expect("located");
    assert_ne!(new_info.primary, info.primary, "a backup was promoted");
    assert!(new_info.epoch > info.epoch, "epoch advanced");
    cluster.shutdown();
}

#[test]
fn replication_batching_failover_preserves_batched_writes() {
    // The correctness bar of the commit pipeline: an invocation does not
    // return success until its write set is durable locally AND acked by
    // every backup — even when it was shipped inside a coalesced
    // ReplicateBatch window. Kill the primary right after a burst of
    // concurrent deposits; the promoted backup must hold every one.
    let mut config = ClusterConfig::for_tests();
    config.heartbeat_timeout = Duration::from_millis(400);
    let cluster = AggregatedCluster::build(config).unwrap();
    let client = cluster.client();
    client.deploy_type("Account", account_fields(), &account_module()).unwrap();
    let id = ObjectId::from("acct/batched");
    client.create_object("Account", &id, &[]).unwrap();

    const THREADS: usize = 4;
    const DEPOSITS: usize = 10;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let client = client.clone();
            let id = id.clone();
            scope.spawn(move || {
                for _ in 0..DEPOSITS {
                    client.invoke(&id, "deposit", vec![VmValue::Int(1)], false).unwrap();
                }
            });
        }
    });

    // The burst flowed through the per-shard replication batcher.
    let (rounds, entries): (u64, u64) = cluster
        .core
        .storage
        .iter()
        .map(|n| n.replication_batch_stats())
        .fold((0, 0), |(r, e), (nr, ne)| (r + nr, e + ne));
    assert!(rounds > 0 && entries >= rounds, "batcher engaged: {rounds} rounds / {entries}");

    client.refresh();
    let (_, info) = client.placement().locate(&id).expect("located");
    let primary_idx =
        cluster.core.storage.iter().position(|n| n.id() == info.primary).expect("primary present");
    cluster.core.kill_storage_node(primary_idx);

    let deadline = Instant::now() + Duration::from_secs(10);
    let balance = loop {
        match client.invoke(&id, "balance", vec![], true) {
            Ok(v) => break as_int(v),
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("failover never completed: {e}"),
        }
    };
    assert_eq!(
        balance,
        (THREADS * DEPOSITS) as i64,
        "every batched-replicated deposit survived the primary failure"
    );
    cluster.shutdown();
}

#[test]
fn aggregated_read_only_runs_on_replicas() {
    let cluster = AggregatedCluster::build(ClusterConfig::for_tests()).unwrap();
    let client = cluster.client();
    client.deploy_type("Account", account_fields(), &account_module()).unwrap();
    let id = ObjectId::from("acct/reader");
    client.create_object("Account", &id, &[]).unwrap();
    client.invoke(&id, "deposit", vec![VmValue::Int(5)], false).unwrap();

    for _ in 0..30 {
        assert_eq!(as_int(client.invoke(&id, "balance", vec![], true).unwrap()), 5);
    }
    // More than one node served invocations (primary + at least one backup).
    let serving: Vec<u64> = cluster.core.storage.iter().map(|n| n.stats().invocations).collect();
    let busy_nodes = serving.iter().filter(|&&c| c > 0).count();
    assert!(busy_nodes >= 2, "read scaling across replicas: {serving:?}");

    // A mutating method routed with a read-only hint must be rejected, not
    // silently executed on a backup.
    let err = client.invoke(&id, "deposit", vec![VmValue::Int(1)], true);
    if let Ok(v) = err {
        // It may still have landed on the primary (round-robin); then it
        // succeeds legitimately.
        assert_eq!(as_int(v), 6);
    }
    cluster.shutdown();
}

#[test]
fn aggregated_migration_moves_object() {
    let mut config = ClusterConfig::for_tests();
    config.shards = 3;
    config.replication_factor = 1;
    let cluster = AggregatedCluster::build(config).unwrap();
    let client = cluster.client();
    client.deploy_type("Account", account_fields(), &account_module()).unwrap();

    let id = ObjectId::from("acct/mover");
    client.create_object("Account", &id, &[]).unwrap();
    client.invoke(&id, "deposit", vec![VmValue::Int(11)], false).unwrap();
    let (source_shard, _) = client.placement().locate(&id).unwrap();
    let target_shard = (source_shard + 1) % 3;

    client.migrate_object(&id, target_shard).unwrap();
    let (new_shard, _) = client.placement().locate(&id).unwrap();
    assert_eq!(new_shard, target_shard);
    // State intact and writable after migration.
    assert_eq!(as_int(client.invoke(&id, "balance", vec![], true).unwrap()), 11);
    assert_eq!(as_int(client.invoke(&id, "deposit", vec![VmValue::Int(1)], false).unwrap()), 12);
    cluster.shutdown();
}

#[test]
fn disaggregated_end_to_end() {
    let cluster = DisaggregatedCluster::build(ClusterConfig::for_tests()).unwrap();
    let client = cluster.client();
    let compute = lambda_store::ids::COMPUTE;

    // Deploy + create through the compute node.
    let deploy = StoreRequest::DeployType {
        name: "Account".into(),
        fields: account_fields(),
        module: account_module(),
    };
    assert_eq!(client.raw(compute, &deploy).unwrap(), StoreResponse::Ok);
    let create = StoreRequest::CreateObject {
        type_name: "Account".into(),
        object: b"acct/remote".to_vec(),
        fields: vec![],
    };
    assert_eq!(client.raw(compute, &create).unwrap(), StoreResponse::Ok);

    let invoke = StoreRequest::Invoke {
        object: b"acct/remote".to_vec(),
        method: "deposit".into(),
        args: vec![VmValue::Int(9)],
        read_only: false,
        internal: false,
        collect_read_set: false,
    };
    match client.raw(compute, &invoke).unwrap() {
        StoreResponse::Value(v) => assert_eq!(as_int(v), 9),
        other => panic!("unexpected {other:?}"),
    }

    // Storage accesses crossed the network.
    let rpcs = cluster.compute.executor().storage_rpcs.load(std::sync::atomic::Ordering::Relaxed);
    assert!(rpcs >= 4, "expected several storage round-trips, got {rpcs}");
    cluster.shutdown();
}

#[test]
fn disaggregated_nested_calls_run_on_compute() {
    let cluster = DisaggregatedCluster::build(ClusterConfig::for_tests()).unwrap();
    let client = cluster.client();
    let compute = lambda_store::ids::COMPUTE;
    client
        .raw(
            compute,
            &StoreRequest::DeployType {
                name: "Account".into(),
                fields: account_fields(),
                module: account_module(),
            },
        )
        .unwrap();
    for name in ["acct/x", "acct/y"] {
        client
            .raw(
                compute,
                &StoreRequest::CreateObject {
                    type_name: "Account".into(),
                    object: name.as_bytes().to_vec(),
                    fields: vec![],
                },
            )
            .unwrap();
    }
    let deposit = StoreRequest::Invoke {
        object: b"acct/x".to_vec(),
        method: "deposit".into(),
        args: vec![VmValue::Int(30)],
        read_only: false,
        internal: false,
        collect_read_set: false,
    };
    client.raw(compute, &deposit).unwrap();
    let transfer = StoreRequest::Invoke {
        object: b"acct/x".to_vec(),
        method: "transfer".into(),
        args: vec![VmValue::str("acct/y"), VmValue::Int(10)],
        read_only: false,
        internal: false,
        collect_read_set: false,
    };
    client.raw(compute, &transfer).unwrap();
    let balance = StoreRequest::Invoke {
        object: b"acct/y".to_vec(),
        method: "balance".into(),
        args: vec![],
        read_only: true,
        internal: false,
        collect_read_set: false,
    };
    match client.raw(compute, &balance).unwrap() {
        StoreResponse::Value(v) => assert_eq!(as_int(v), 10),
        other => panic!("unexpected {other:?}"),
    }
    // Nested call = an extra function invocation on the compute node.
    let invocations =
        cluster.compute.executor().invocations.load(std::sync::atomic::Ordering::Relaxed);
    assert!(invocations >= 3, "deposit + transfer + nested deposit + balance: {invocations}");
    cluster.shutdown();
}

#[test]
fn serverless_pays_cold_starts() {
    let cluster =
        ServerlessCluster::build(ClusterConfig::for_tests(), Duration::from_millis(80)).unwrap();
    let client = cluster.client();
    let gw = lambda_store::ids::GATEWAY;
    client
        .raw(
            gw,
            &StoreRequest::DeployType {
                name: "Account".into(),
                fields: account_fields(),
                module: account_module(),
            },
        )
        .unwrap();
    client
        .raw(
            gw,
            &StoreRequest::CreateObject {
                type_name: "Account".into(),
                object: b"acct/s".to_vec(),
                fields: vec![],
            },
        )
        .unwrap();

    let invoke = StoreRequest::Invoke {
        object: b"acct/s".to_vec(),
        method: "deposit".into(),
        args: vec![VmValue::Int(1)],
        read_only: false,
        internal: false,
        collect_read_set: false,
    };
    // First call: cold.
    let t0 = Instant::now();
    client.raw(gw, &invoke).unwrap();
    let cold = t0.elapsed();
    // Subsequent calls: warm (take the fastest to filter fsync noise).
    let warm = (0..5)
        .map(|_| {
            let t = Instant::now();
            client.raw(gw, &invoke).unwrap();
            t.elapsed()
        })
        .min()
        .unwrap();

    let (cold_starts, warm_starts) = cluster.gateway.start_counts();
    assert_eq!(cold_starts, 1);
    assert_eq!(warm_starts, 5);
    assert!(
        cold > warm + Duration::from_millis(40),
        "cold {cold:?} must exceed warm {warm:?} by most of the 80ms cold-start delay"
    );
    cluster.shutdown();
}

#[test]
fn transactions_commit_atomically_across_colocated_objects() {
    use lambda_objects::TxCall;
    // Single shard: every object is co-located at one primary.
    let cluster = AggregatedCluster::build(ClusterConfig::for_tests()).unwrap();
    let client = cluster.client();
    client.deploy_type("Account", account_fields(), &account_module()).unwrap();
    let a = ObjectId::from("acct/tx-a");
    let b = ObjectId::from("acct/tx-b");
    let c = ObjectId::from("acct/tx-c");
    for id in [&a, &b, &c] {
        client.create_object("Account", id, &[]).unwrap();
    }
    client.invoke(&a, "deposit", vec![VmValue::Int(100)], false).unwrap();

    // Atomic transfer as one transaction.
    let rounds =
        || -> u64 { cluster.core.storage.iter().map(|n| n.replication_batch_stats().0).sum() };
    let rounds_before = rounds();
    let results = client
        .transact(vec![
            TxCall::new(a.clone(), "deposit", vec![VmValue::Int(-40)]),
            TxCall::new(b.clone(), "deposit", vec![VmValue::Int(40)]),
            TxCall::new(c.clone(), "deposit", vec![VmValue::Int(7)]),
        ])
        .unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(rounds() - rounds_before, 1, "three objects, one replication round");
    assert_eq!(as_int(client.invoke(&a, "balance", vec![], true).unwrap()), 60);
    assert_eq!(as_int(client.invoke(&b, "balance", vec![], true).unwrap()), 40);
    assert_eq!(as_int(client.invoke(&c, "balance", vec![], true).unwrap()), 7);

    // Transactions replicate like everything else: data on all replicas.
    for node in &cluster.core.storage {
        assert!(node.engine().object_exists(&b));
    }
    cluster.shutdown();
}

#[test]
fn elasticity_scale_out_with_migration() {
    // The §7 open problem exercised end-to-end: add a node to a running
    // cluster, create a shard on it, migrate a hot object over, and keep
    // serving it — state intact, clients re-routed by the coordinator pin.
    let mut config = ClusterConfig::for_tests();
    config.replication_factor = 1;
    let mut cluster = AggregatedCluster::build(config.clone()).unwrap();
    let client = cluster.client();
    client.deploy_type("Account", account_fields(), &account_module()).unwrap();
    let hot = ObjectId::from("acct/hot");
    client.create_object("Account", &hot, &[]).unwrap();
    client.invoke(&hot, "deposit", vec![VmValue::Int(55)], false).unwrap();

    // Scale out.
    let t = Instant::now();
    let new_node = cluster.core.add_storage_node(&config).unwrap();
    let new_shard = 7;
    cluster.core.create_shard(new_shard, vec![new_node]).unwrap();
    // The new node needs the type deployed before it can execute methods.
    client.refresh();
    client.deploy_type("Account", account_fields(), &account_module()).unwrap();
    client.migrate_object(&hot, new_shard).unwrap();
    let elapsed = t.elapsed();

    // The object now lives on (and is served by) the new node.
    client.refresh();
    let (shard, info) = client.placement().locate(&hot).unwrap();
    assert_eq!(shard, new_shard);
    assert_eq!(info.primary, new_node);
    assert_eq!(as_int(client.invoke(&hot, "balance", vec![], true).unwrap()), 55);
    assert_eq!(as_int(client.invoke(&hot, "deposit", vec![VmValue::Int(1)], false).unwrap()), 56);
    // The engine on the new node really holds it.
    assert!(cluster.core.storage.last().unwrap().engine().object_exists(&hot));
    // The source purges its copy on the migration's next poll after the
    // committed placement reaches it, which the two invocations above can
    // beat: wait for it, boundedly.
    let source = cluster.core.storage[0].engine();
    let deadline = Instant::now() + Duration::from_secs(2);
    while source.list_objects().contains(&hot) && source.object_exists(&hot) {
        assert!(Instant::now() < deadline, "the source never purged its migrated copy");
        std::thread::sleep(Duration::from_millis(5));
    }
    println!("scale-out + migration completed in {elapsed:?}");
    cluster.shutdown();
}

#[test]
fn epoch_fencing_blocks_deposed_primary() {
    // A primary that is partitioned (but alive) keeps trying to commit
    // after the coordinator promoted a backup; epoch fencing must reject
    // its replication so no split-brain write survives.
    let mut config = ClusterConfig::for_tests();
    config.heartbeat_timeout = Duration::from_millis(300);
    let cluster = AggregatedCluster::build(config).unwrap();
    let client = cluster.client();
    client.deploy_type("Account", account_fields(), &account_module()).unwrap();
    let id = ObjectId::from("acct/fenced");
    client.create_object("Account", &id, &[]).unwrap();
    client.invoke(&id, "deposit", vec![VmValue::Int(10)], false).unwrap();

    client.refresh();
    let (_, info) = client.placement().locate(&id).unwrap();
    let old_primary =
        cluster.core.storage.iter().find(|n| n.id() == info.primary).expect("primary exists");

    // Partition the primary from the coordinators AND the other storage
    // nodes, but keep it able to receive requests from a rogue client.
    for c in &cluster.core.coordinator_ids {
        cluster.core.net.cut_link(old_primary.id(), *c);
        cluster.core.net.cut_link(NodeId(old_primary.id().0 + lambda_store::WATCH_ID_OFFSET), *c);
    }
    for n in &cluster.core.storage_ids {
        if *n != old_primary.id() {
            cluster.core.net.cut_link(old_primary.id(), *n);
        }
    }

    // Wait for failover.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        client.refresh();
        let (_, now) = client.placement().locate(&id).unwrap();
        if now.primary != info.primary && now.epoch > info.epoch {
            break;
        }
        assert!(Instant::now() < deadline, "failover did not happen");
        std::thread::sleep(Duration::from_millis(50));
    }

    // The new configuration serves writes.
    let v = client.invoke(&id, "deposit", vec![VmValue::Int(5)], false).unwrap();
    assert_eq!(as_int(v), 15);

    // A rogue client talking directly to the deposed primary: its commit
    // must fail (its backups reject the stale epoch once it can reach them
    // — here it cannot reach them at all, which also fails the commit).
    let rogue = cluster.client();
    let req = StoreRequest::Invoke {
        object: id.0.clone(),
        method: "deposit".into(),
        args: vec![VmValue::Int(1000)],
        read_only: false,
        internal: false,
        collect_read_set: false,
    };
    let res = rogue.raw(old_primary.id(), &req);
    assert!(res.is_err(), "deposed primary must not acknowledge writes: {res:?}");

    // The authoritative balance is unaffected by the rogue attempt.
    let v = client.invoke(&id, "balance", vec![], true).unwrap();
    assert_eq!(as_int(v), 15);
    cluster.shutdown();
}

#[test]
fn cluster_survives_packet_loss() {
    // 20% packet loss: RPC timeouts + client retries still deliver every
    // operation exactly once at the application level (the engine's
    // idempotent routing retries sit below).
    let mut config = ClusterConfig::for_tests();
    config.latency = lambda_net::LatencyModel {
        base: Duration::from_micros(50),
        jitter: Duration::from_micros(20),
        per_byte: Duration::from_nanos(0),
        drop_probability: 0.0, // enabled after bootstrap
    };
    let cluster = AggregatedCluster::build(config).unwrap();
    let client = cluster.client();
    client.deploy_type("Account", account_fields(), &account_module()).unwrap();
    let id = ObjectId::from("acct/lossy");
    client.create_object("Account", &id, &[]).unwrap();

    cluster.core.net.set_latency(lambda_net::LatencyModel {
        base: Duration::from_micros(50),
        jitter: Duration::from_micros(20),
        per_byte: Duration::from_nanos(0),
        drop_probability: 0.20,
    });

    let mut sum = 0i64;
    for i in 0..20 {
        // A lost request or response surfaces as a retryable error; the
        // deposit is NOT idempotent, so only count acknowledged ones.
        match client.invoke(&id, "deposit", vec![VmValue::Int(1)], false) {
            Ok(v) => sum = as_int(v),
            Err(_) => { /* dropped somewhere; fine */ }
        }
        let _ = i;
    }
    // Heal and verify the acknowledged state is consistent and readable.
    cluster.core.net.set_latency(lambda_net::LatencyModel::instant());
    let v = as_int(client.invoke(&id, "balance", vec![], true).unwrap());
    assert!(v >= sum, "acknowledged deposits must persist (last ack {sum}, read {v})");
    assert!(v <= 20 * 21, "sanity");
    cluster.shutdown();
}

#[test]
fn serverless_gateway_logs_requests_durably() {
    let cluster =
        ServerlessCluster::build(ClusterConfig::for_tests(), Duration::from_millis(5)).unwrap();
    let client = cluster.client();
    let gw = lambda_store::ids::GATEWAY;
    client
        .raw(
            gw,
            &StoreRequest::DeployType {
                name: "Account".into(),
                fields: account_fields(),
                module: account_module(),
            },
        )
        .unwrap();
    client
        .raw(
            gw,
            &StoreRequest::CreateObject {
                type_name: "Account".into(),
                object: b"acct/logged".to_vec(),
                fields: vec![],
            },
        )
        .unwrap();
    for i in 0..5 {
        let req = StoreRequest::Invoke {
            object: b"acct/logged".to_vec(),
            method: "deposit".into(),
            args: vec![VmValue::Int(i)],
            read_only: false,
            internal: false,
            collect_read_set: false,
        };
        client.raw(gw, &req).unwrap();
    }
    // The durable request log (§4.1: OpenWhisk/Kafka role) holds every
    // request that was acknowledged.
    let log_path = cluster.core.base_dir().join("gateway").join("requests.log");
    let recovered = lambdaobjects_recover(&log_path);
    assert!(
        recovered >= 7,
        "expected >= 7 logged requests (deploy + create + 5 invokes), got {recovered}"
    );
    cluster.shutdown();
}

/// Replay the gateway's WAL-format request log and count intact records.
fn lambdaobjects_recover(path: &std::path::Path) -> usize {
    lambda_kv::wal::recover(path).map(|r| r.records.len()).unwrap_or(0)
}

#[test]
fn planned_decommission_keeps_serving() {
    // Scale-in: gracefully remove the primary via coordinator
    // reconfiguration (no failure detector involved); clients keep being
    // served with no acknowledged-write loss and no detectable gap beyond
    // a routing refresh.
    let cluster = AggregatedCluster::build(ClusterConfig::for_tests()).unwrap();
    let client = cluster.client();
    client.deploy_type("Account", account_fields(), &account_module()).unwrap();
    let id = ObjectId::from("acct/drain");
    client.create_object("Account", &id, &[]).unwrap();
    for _ in 0..10 {
        client.invoke(&id, "deposit", vec![VmValue::Int(1)], false).unwrap();
    }
    client.refresh();
    let (_, before) = client.placement().locate(&id).unwrap();
    let primary_idx = cluster.core.storage.iter().position(|n| n.id() == before.primary).unwrap();

    cluster.core.decommission_node(primary_idx).unwrap();

    // The client retries through the reconfiguration; state is intact.
    let deadline = Instant::now() + Duration::from_secs(5);
    let balance = loop {
        match client.invoke(&id, "balance", vec![], true) {
            Ok(v) => break as_int(v),
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("decommission broke serving: {e}"),
        }
    };
    assert_eq!(balance, 10);
    client.refresh();
    let (_, after) = client.placement().locate(&id).unwrap();
    assert_ne!(after.primary, before.primary, "primary role moved");
    assert!(after.epoch > before.epoch);
    assert!(!after.contains(before.primary), "decommissioned node fully removed");
    // Still writable.
    assert_eq!(as_int(client.invoke(&id, "deposit", vec![VmValue::Int(1)], false).unwrap()), 11);
    cluster.shutdown();
}

#[test]
fn deadline_expired_followers_are_shed() {
    use lambda_objects::{InvocationContext, ObjectType};
    use lambda_vm::NativeRegistry;

    let cluster = AggregatedCluster::build(ClusterConfig::for_tests()).unwrap();
    // A trusted native type (the §4.2 co-located alternative) with a
    // method that deliberately holds the object's exclusive lock. Native
    // code cannot travel through DeployType, so register it on every node.
    for node in &cluster.core.storage {
        let mut reg = NativeRegistry::new();
        reg.register("occupy", false, false, true, |ctx| {
            std::thread::sleep(Duration::from_millis(400));
            ctx.host.put(b"state", b"occupied")?;
            Ok(VmValue::Unit)
        });
        reg.register("bump", false, false, true, |ctx| {
            ctx.host.put(b"state", b"bumped")?;
            Ok(VmValue::Unit)
        });
        node.register_native_type(ObjectType::from_native(
            "Throttle",
            vec![FieldDef { name: "state".into(), kind: FieldKind::Scalar }],
            reg,
        ));
    }
    let client = cluster.client();
    let id = ObjectId::from("throttle/one");
    client.create_object("Throttle", &id, &[("state", b"idle".as_slice())]).unwrap();

    // Occupy the object's lock from one thread...
    let slow_client = client.clone();
    let slow_id = id.clone();
    let slow = std::thread::spawn(move || slow_client.invoke(&slow_id, "occupy", vec![], false));
    std::thread::sleep(Duration::from_millis(100)); // let it win the lock

    // ...then queue a follower whose budget cannot survive the wait. The
    // deadline travels in the wire envelope; the scheduler re-checks it at
    // dequeue and sheds the invocation before any execute/commit work, and
    // the client-side routing loop fails fast instead of retrying.
    let ctx = InvocationContext::client(Duration::from_millis(150));
    let err = client.invoke_ctx(&ctx, &id, "bump", vec![], false).unwrap_err();
    assert!(matches!(err, InvokeError::DeadlineExceeded), "got {err}");

    slow.join().unwrap().unwrap();
    // The server really shed it (it never executed: "bump" would have
    // overwritten the slow method's write).
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let shed: u64 =
            cluster.core.storage.iter().map(|n| n.registry().counter_value("sched_shed")).sum();
        if shed >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "scheduler never shed the expired invocation");
        std::thread::sleep(Duration::from_millis(10));
    }
    cluster.shutdown();
}

#[test]
fn decommission_refuses_to_drop_last_replica() {
    let mut config = ClusterConfig::for_tests();
    config.replication_factor = 1;
    let cluster = AggregatedCluster::build(config).unwrap();
    let err = cluster.core.decommission_node(0).unwrap_err();
    assert!(err.to_string().contains("last replica"), "{err}");
    cluster.shutdown();
}

/// Chaos regression for exactly-once invocations (§3.1): seeded request
/// drops, request duplication, delay spikes and lost replies on every
/// data-plane link — plus a primary crash mid-stream — must not let any
/// acknowledged post land twice or vanish. The client retries under one
/// invocation id; the primary's dedup window (replicated with the write
/// set) absorbs every redelivery, before and after failover.
#[test]
fn chaos_acked_posts_land_exactly_once() {
    let module = assemble(
        r#"
        fn post(1) {
            push.s "posts"
            load 0
            host.push
            ret
        }
        fn feed(1) ro {
            push.s "posts"
            load 0
            push.i 0
            host.scan
            ret
        }
        "#,
    )
    .expect("post module assembles");
    let fields = vec![FieldDef { name: "posts".into(), kind: FieldKind::Collection }];

    let cluster = AggregatedCluster::build(ClusterConfig::for_tests()).unwrap();
    // A client with a known endpoint id, so the fault plan can target its
    // links precisely.
    let client_id = NodeId(9001);
    let client = lambda_store::StoreClient::new(
        &cluster.core.net,
        client_id,
        cluster.core.coordinator_ids.clone(),
        Duration::from_secs(5),
    );
    client.deploy_type("Wall", fields, &module).unwrap();
    let wall = ObjectId::from("wall/chaos");
    client.create_object("Wall", &wall, &[]).unwrap();

    // Faults on the data plane only (client↔storage and storage↔storage):
    // the coordinator control plane stays clean so spurious heartbeat
    // deaths don't turn a correctness test into a liveness lottery.
    let spec = FaultSpec {
        drop: 0.02,
        duplicate: 0.10,
        delay: 0.30,
        delay_spike: Duration::from_millis(1),
        reply_loss: 0.05,
    };
    let mut plan = FaultPlan::new();
    for &sid in &cluster.core.storage_ids {
        plan = plan.between(client_id, sid, spec);
        for &other in &cluster.core.storage_ids {
            if sid != other {
                plan = plan.link(sid, other, spec);
            }
        }
    }
    cluster.core.net.set_fault_plan(plan, chaos_seed(0x5eed_cafe));

    let (_, info) = client.placement().locate(&wall).expect("located");
    let primary_idx =
        cluster.core.storage.iter().position(|n| n.id() == info.primary).expect("primary present");

    let total = 64;
    let mut acked = Vec::new();
    let mut unacked = Vec::new();
    for i in 0..total {
        if i == total / 2 {
            // Crash the primary mid-stream; the rest of the posts ride
            // through reconfiguration under the same fault plan.
            cluster.core.kill_storage_node(primary_idx);
        }
        let text = format!("post-{i}").into_bytes();
        match client.invoke(&wall, "post", vec![VmValue::Bytes(text.clone())], false) {
            Ok(_) => acked.push(text),
            // A failed invocation may or may not have landed — the only
            // requirement is that it did not land more than once.
            Err(_) => unacked.push(text),
        }
    }

    // Chaos off; audit the surviving replica chain through the client.
    cluster.core.net.clear_fault_plan();
    let deadline = Instant::now() + Duration::from_secs(10);
    let feed = loop {
        match client.invoke(&wall, "feed", vec![VmValue::Int(10_000)], false) {
            Ok(v) => break v,
            Err(e) => {
                assert!(Instant::now() < deadline, "feed unreadable after chaos: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    let VmValue::List(rows) = feed else { panic!("expected list, got {feed}") };
    let count = |text: &Vec<u8>| {
        rows.iter().filter(|r| matches!(r, VmValue::Bytes(b) if b == text)).count()
    };

    assert!(
        acked.len() > total / 2,
        "chaos overwhelmed the retry loop: only {}/{total} posts acked",
        acked.len()
    );
    for text in &acked {
        assert_eq!(
            count(text),
            1,
            "acked post {:?} must land exactly once",
            String::from_utf8_lossy(text)
        );
    }
    for text in &unacked {
        assert!(count(text) <= 1, "unacked post {:?} landed twice", String::from_utf8_lossy(text));
    }
    let (dropped, duplicated, delayed) = cluster.core.net.fault_stats();
    assert!(
        dropped + duplicated + delayed > 0,
        "fault plan never fired; the test exercised nothing"
    );

    client.shutdown();
    cluster.shutdown();
}

/// A `Feed`: `post` is ReTwis' `create_post` in miniature — a write of its
/// own, then one scatter of `store` to every follower; `post_seq` reaches
/// the followers one `host.invoke` — a scatter of one — at a time.
fn feed_module() -> Module {
    assemble(
        r#"
        fn follow(1) {
            push.s "followers"
            load 0
            host.push
            ret
        }
        fn post(1) {
            push.s "timeline"
            load 0
            host.push
            pop
            push.s "followers"
            push.i 1000000
            push.i 0
            host.scan
            push.s "store"
            load 0
            mklist 1
            host.invoke_many
            pop
            unit
            ret
        }
        fn post_seq(1) locals=4 {
            ; the same post, one `host.invoke` per follower: the post's
            ; own write is the first call's boundary, and each call
            ; commits its follower's write as a branch of its own
            push.s "timeline"
            load 0
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
            push.s "store"
            load 0
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
        fn store(1) priv {
            push.s "timeline"
            load 0
            host.push
            ret
        }
        fn feed(0) ro {
            push.s "timeline"
            push.i 1000000
            push.i 0
            host.scan
            ret
        }
        "#,
    )
    .expect("fan-out module assembles")
}

fn feed_fields() -> Vec<FieldDef> {
    vec![
        FieldDef { name: "followers".into(), kind: FieldKind::Collection },
        FieldDef { name: "timeline".into(), kind: FieldKind::Collection },
    ]
}

/// `(rounds, entries)` the storage nodes' replication windows have shipped.
fn repl_counts(cluster: &AggregatedCluster) -> (u64, u64) {
    let nodes = &cluster.core.storage;
    let count = |name| nodes.iter().map(|n| n.registry().counter_value(name)).sum();
    (count("node_repl_rounds"), count("node_repl_entries"))
}

#[test]
fn a_colocated_post_is_one_replication_round() {
    // One shard: the poster and its five followers share one primary, so
    // the post's boundary commit rides in its fan-out's round.
    let cluster = AggregatedCluster::build(ClusterConfig::for_tests()).unwrap();
    let client = cluster.client();
    client.deploy_type("Feed", feed_fields(), &feed_module()).unwrap();
    let account = |i: usize| ObjectId::from(format!("one/{i}").as_str());
    for i in 0..6 {
        client.create_object("Feed", &account(i), &[]).unwrap();
    }
    for f in 1..6 {
        client.invoke(&account(0), "follow", vec![VmValue::Bytes(account(f).0)], false).unwrap();
    }
    // Every earlier write was acked before its call returned: the window
    // is idle.
    let before = repl_counts(&cluster);
    client.invoke(&account(0), "post", vec![VmValue::str("hello")], false).unwrap();
    let after = repl_counts(&cluster);
    assert_eq!(after.0 - before.0, 1, "boundary and fan-out, one round");
    assert_eq!(after.1 - before.1, 6, "the poster's write set and five followers'");
    for node in &cluster.core.storage {
        for i in 0..6 {
            let feed = node.engine().invoke(&account(i), "feed", vec![]).unwrap();
            assert_eq!(feed, VmValue::List(vec![VmValue::str("hello")]), "one/{i}");
        }
    }
    cluster.shutdown();
}

#[test]
fn a_colocated_sequential_post_rides_its_boundary_in_the_first_calls_round() {
    // One shard: `post_seq` reaches each follower by a `host.invoke`, a
    // scatter of one. The post's own write rides in the first call's round,
    // and every later call, whose boundary is empty, is a round of its own:
    // one round per follower, one write set more than followers.
    let cluster = AggregatedCluster::build(ClusterConfig::for_tests()).unwrap();
    let client = cluster.client();
    client.deploy_type("Feed", feed_fields(), &feed_module()).unwrap();
    for followers in [1, 5] {
        let account = |i: usize| ObjectId::from(format!("seq{followers}/{i}").as_str());
        for i in 0..=followers {
            client.create_object("Feed", &account(i), &[]).unwrap();
        }
        for f in 1..=followers {
            let follower = vec![VmValue::Bytes(account(f).0)];
            client.invoke(&account(0), "follow", follower, false).unwrap();
        }
        let before = repl_counts(&cluster);
        client.invoke(&account(0), "post_seq", vec![VmValue::str("hello")], false).unwrap();
        let after = repl_counts(&cluster);
        assert_eq!(after.0 - before.0, followers as u64, "rounds, {followers} followers");
        assert_eq!(after.1 - before.1, followers as u64 + 1, "write sets, {followers} followers");
        for node in &cluster.core.storage {
            for i in 0..=followers {
                let feed = node.engine().invoke(&account(i), "feed", vec![]).unwrap();
                let want = VmValue::List(vec![VmValue::str("hello")]);
                assert_eq!(feed, want, "seq{followers}/{i} on node-{}", node.id().0);
            }
        }
    }
    cluster.shutdown();
}

#[test]
fn a_post_with_followers_on_another_shard_acks_its_boundary_first() {
    // Two shards, led by different nodes. A follower on the other shard
    // is not co-located with the poster, so the boundary commit is acked
    // on its own before the fan-out leaves; the followers on the poster's
    // shard then share one round, and the other shard's primary commits
    // its own. A sequential post whose first follower is on the other shard
    // likewise ships its boundary first, in a round of its own; its call to
    // the home follower is one more round.
    let mut config = ClusterConfig::for_tests();
    config.shards = 2;
    let cluster = AggregatedCluster::build(config).unwrap();
    let client = cluster.client();
    client.deploy_type("Feed", feed_fields(), &feed_module()).unwrap();
    let shard_of = |id: &ObjectId| client.placement().locate(id).expect("located").0;
    let mut by_shard: [Vec<ObjectId>; 2] = [Vec::new(), Vec::new()];
    for i in 0.. {
        let id = ObjectId::from(format!("two/{i}").as_str());
        let on = &mut by_shard[shard_of(&id) as usize];
        if on.len() < 3 {
            on.push(id);
        }
        if by_shard.iter().all(|ids| ids.len() == 3) {
            break;
        }
    }
    let [home, away] = by_shard;
    // (poster, method, its followers in follow order, rounds and write sets
    // per post at the home primary)
    let cases = [
        (&home[0], "post", vec![&home[1], &home[2], &away[0], &away[1]], (2, 3)),
        (&home[1], "post_seq", vec![&away[0], &home[2]], (2, 2)),
    ];
    for id in home.iter().chain(&away) {
        client.create_object("Feed", id, &[]).unwrap();
    }
    for (poster, _, followers, _) in &cases {
        for f in followers {
            client.invoke(poster, "follow", vec![VmValue::Bytes(f.0.clone())], false).unwrap();
        }
    }
    let (_, home_info) = client.placement().locate(&home[0]).unwrap();
    let (_, away_info) = client.placement().locate(&away[0]).unwrap();
    assert_ne!(home_info.primary, away_info.primary, "the shards are led by different nodes");
    let primary = cluster.core.storage.iter().find(|n| n.id() == home_info.primary).unwrap();

    const POSTS: usize = 4;
    let text = |method: &str, k: usize| format!("{method}-{k}").into_bytes();
    for (poster, method, _, (rounds, entries)) in &cases {
        for k in 0..POSTS {
            let (rounds_before, entries_before) = primary.replication_batch_stats();
            client.invoke(poster, method, vec![VmValue::Bytes(text(method, k))], false).unwrap();
            let (rounds_after, entries_after) = primary.replication_batch_stats();
            assert_eq!(rounds_after - rounds_before, *rounds, "{method} {k}: the boundary first");
            assert_eq!(entries_after - entries_before, *entries, "{method} {k}");
        }
    }
    // Every post lands exactly once, in order, on every replica of every
    // reader: the poster and its followers.
    for node in &cluster.core.storage {
        for reader in home.iter().chain(&away) {
            let feed = node.engine().invoke(reader, "feed", vec![]).unwrap();
            let VmValue::List(rows) = feed else { panic!("expected list, got {feed}") };
            let want: Vec<VmValue> = cases
                .iter()
                .filter(|(poster, _, followers, _)| {
                    *poster == reader || followers.contains(&reader)
                })
                .flat_map(|(_, method, ..)| (0..POSTS).map(|k| VmValue::Bytes(text(method, k))))
                .collect();
            assert_eq!(rows, want, "{reader} on node-{}", node.id().0);
        }
    }
    cluster.shutdown();
}

/// Overlapping replication rounds under loss: a shard keeps several rounds
/// in flight, so a round that lost a frame retries while later rounds —
/// other posts' boundary commits and fan-out waves — go out and ack around
/// it. Nothing an ack covered may be missing or doubled on any replica.
#[test]
fn chaos_overlapping_rounds_land_every_acked_post_once_on_every_replica() {
    let cluster = AggregatedCluster::build(ClusterConfig::for_tests()).unwrap();
    // A budget no post outlives: an attempt is re-sent after a fifth of
    // it, and this test is about replication retries, not client ones.
    let client = lambda_store::StoreClient::new(
        &cluster.core.net,
        NodeId(9002),
        cluster.core.coordinator_ids.clone(),
        Duration::from_secs(120),
    );
    client.deploy_type("Feed", feed_fields(), &feed_module()).unwrap();

    const ACCOUNTS: usize = 12;
    // Eight scatter their posts; two more fan out one follower at a time,
    // a scatter of one per follower, through the same window.
    const POSTERS: usize = 10;
    const SCATTERING: usize = 8;
    const POSTS: usize = 3;
    let account = |i: usize| ObjectId::from(format!("feed/{i:02}").as_str());
    // Poster p is followed by p+1, p+2, p+3 and p+5: every follower set
    // overlaps its neighbours', and posters follow each other.
    let followers = |p: usize| [1, 2, 3, 5].map(|d| (p + d) % ACCOUNTS);
    for i in 0..ACCOUNTS {
        client.create_object("Feed", &account(i), &[]).unwrap();
    }
    for p in 0..POSTERS {
        for f in followers(p) {
            client
                .invoke(&account(p), "follow", vec![VmValue::Bytes(account(f).0)], false)
                .unwrap();
        }
    }

    // A fifth of the primary's replication frames and a fifth of the
    // backups' acks are lost; clients and coordinators are untouched.
    let (_, info) = client.placement().locate(&account(0)).expect("located");
    let mut plan = FaultPlan::new();
    for &backup in &info.backups {
        plan = plan
            .link(info.primary, backup, FaultSpec { drop: 0.2, ..FaultSpec::default() })
            .link(backup, info.primary, FaultSpec { reply_loss: 0.2, ..FaultSpec::default() });
    }
    cluster.core.net.set_fault_plan(plan, chaos_seed(0x0005_ca77_e2ed));

    std::thread::scope(|scope| {
        for p in 0..POSTERS {
            let client = client.clone();
            scope.spawn(move || {
                let method = if p < SCATTERING { "post" } else { "post_seq" };
                for k in 0..POSTS {
                    let text = format!("post-{p}-{k}").into_bytes();
                    client
                        .invoke(&account(p), method, vec![VmValue::Bytes(text)], false)
                        .expect("replication retries until every configured backup acked");
                }
            });
        }
    });
    cluster.core.net.clear_fault_plan();

    let retries: u64 =
        cluster.core.storage.iter().map(|n| n.registry().counter_value("node_repl_retries")).sum();
    assert!(retries > 0, "no round was ever retried; the test exercised nothing");
    assert_eq!(cluster.core.storage.len(), 3);
    for node in &cluster.core.storage {
        for p in 0..POSTERS {
            for reader in followers(p).into_iter().chain([p]) {
                let feed = node.engine().invoke(&account(reader), "feed", vec![]).unwrap();
                let VmValue::List(rows) = feed else { panic!("expected list, got {feed}") };
                for k in 0..POSTS {
                    let text = format!("post-{p}-{k}").into_bytes();
                    let copies = rows
                        .iter()
                        .filter(|r| matches!(r, VmValue::Bytes(b) if *b == text))
                        .count();
                    assert_eq!(
                        copies,
                        1,
                        "post-{p}-{k} in feed/{reader:02} on node-{}",
                        node.id().0
                    );
                }
            }
        }
    }
    client.shutdown();
    cluster.shutdown();
}

/// Send `req` to `node` until it is served by a replica holding read
/// authority: a lease comes with the shard's first replication traffic.
fn read_at(
    client: &lambda_store::StoreClient,
    node: NodeId,
    req: &StoreRequest,
) -> Result<StoreResponse, InvokeError> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.raw(node, req) {
            Err(InvokeError::LeaseExpired(_)) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            other => return other,
        }
    }
}

fn read_request(id: &ObjectId, method: &str) -> StoreRequest {
    StoreRequest::Invoke {
        object: id.0.clone(),
        method: method.into(),
        args: vec![],
        read_only: true,
        internal: false,
        collect_read_set: false,
    }
}

#[test]
fn a_backup_that_memoised_a_type_serves_no_read_after_the_delete() {
    let cluster = AggregatedCluster::build(ClusterConfig::for_tests()).unwrap();
    let client = cluster.client();
    client.deploy_type("Account", account_fields(), &account_module()).unwrap();
    let id = ObjectId::from("acct/memo");
    client.create_object("Account", &id, &[]).unwrap();
    client.invoke(&id, "deposit", vec![VmValue::Int(5)], false).unwrap();
    let (_, info) = client.placement().locate(&id).expect("located");
    let backup = info.backups[0];

    // A follower read resolves the type at the backup, which memoises it.
    let read = read_request(&id, "balance");
    assert_eq!(read_at(&client, backup, &read).unwrap(), StoreResponse::Value(VmValue::Int(5)));
    // The delete reaches the backup as a replicated write of the meta key.
    client.delete_object(&id).unwrap();
    let after = read_at(&client, backup, &read);
    assert!(matches!(after, Err(InvokeError::UnknownObject(_))), "{after:?}");
    cluster.shutdown();
}

#[test]
fn a_raw_push_invalidates_a_cached_read_at_the_primary() {
    let module = assemble(
        r#"
        fn feed(0) ro det {
            push.s "timeline"
            push.i 100
            push.i 1
            host.scan
            ret
        }
        "#,
    )
    .expect("wall module assembles");
    let fields = vec![FieldDef { name: "timeline".into(), kind: FieldKind::Collection }];
    let cluster = AggregatedCluster::build(ClusterConfig::for_tests()).unwrap();
    let client = cluster.client();
    client.deploy_type("Wall", fields, &module).unwrap();
    let id = ObjectId::from("wall/raw");
    client.create_object("Wall", &id, &[]).unwrap();
    let (_, info) = client.placement().locate(&id).expect("located");
    let primary = cluster.core.storage.iter().find(|n| n.id() == info.primary).unwrap();
    let push = |text: &str| {
        let req = StoreRequest::RawPush {
            object: id.0.clone(),
            field: b"timeline".to_vec(),
            value: text.as_bytes().to_vec(),
        };
        assert_eq!(client.raw(info.primary, &req).unwrap(), StoreResponse::Ok);
    };
    let feed = |want: &[&str]| {
        let rows = want.iter().map(|t| VmValue::str(*t)).collect();
        let got = read_at(&client, info.primary, &read_request(&id, "feed")).unwrap();
        assert_eq!(got, StoreResponse::Value(VmValue::List(rows)));
    };

    push("first");
    feed(&["first"]);
    let hits = primary.stats().cache_hits;
    feed(&["first"]);
    assert_eq!(primary.stats().cache_hits, hits + 1, "the second read is a cache hit");
    push("second");
    feed(&["second", "first"]);
    cluster.shutdown();
}

/// `collect_read_set` is ignored: a node records a read's result and read
/// set in its own cache and answers a plain `Value`. The entry an asking
/// client leaves serves any client, and another client's acked write is
/// what the asker reads next.
#[test]
fn a_read_asking_for_its_read_set_gets_a_plain_value() {
    let cluster = AggregatedCluster::build(ClusterConfig::for_tests()).unwrap();
    let (asker, other) = (cluster.client(), cluster.client());
    asker.deploy_type("Account", account_fields(), &account_module()).unwrap();
    let id = ObjectId::from("acct/read-set");
    asker.create_object("Account", &id, &[]).unwrap();
    asker.invoke(&id, "deposit", vec![VmValue::Int(5)], false).unwrap();
    let (_, info) = asker.placement().locate(&id).expect("located");
    let primary = cluster.core.storage.iter().find(|n| n.id() == info.primary).unwrap();
    let ask = StoreRequest::Invoke {
        object: id.0.clone(),
        method: "balance".into(),
        args: vec![],
        read_only: true,
        internal: false,
        collect_read_set: true,
    };
    let balance = |client, req| read_at(client, info.primary, req).unwrap();

    assert_eq!(balance(&asker, &ask), StoreResponse::Value(VmValue::Int(5)));
    let hits = primary.stats().cache_hits;
    let plain = read_request(&id, "balance");
    assert_eq!(balance(&other, &plain), StoreResponse::Value(VmValue::Int(5)));
    assert_eq!(primary.stats().cache_hits, hits + 1, "the asker's entry serves another client");

    other.invoke(&id, "deposit", vec![VmValue::Int(2)], false).unwrap();
    assert_eq!(balance(&asker, &ask), StoreResponse::Value(VmValue::Int(7)));
    assert_eq!(as_int(asker.invoke(&id, "balance", vec![], true).unwrap()), 7);
    cluster.shutdown();
}

#[test]
fn raw_push_scan_and_count_agree_with_get_timeline() {
    let module = assemble(
        r#"
        fn post(1) {
            push.s "timeline"
            load 0
            host.push
            ret
        }
        fn get_timeline(1) ro det {
            push.s "timeline"
            load 0
            push.i 1
            host.scan
            ret
        }
        "#,
    )
    .expect("wall module assembles");
    let fields = vec![FieldDef { name: "timeline".into(), kind: FieldKind::Collection }];
    let cluster = AggregatedCluster::build(ClusterConfig::for_tests()).unwrap();
    let client = cluster.client();
    client.deploy_type("Wall", fields, &module).unwrap();
    let id = ObjectId::from("wall/agree");
    client.create_object("Wall", &id, &[]).unwrap();
    let (_, info) = client.placement().locate(&id).expect("located");
    let raw = |req: StoreRequest| client.raw(info.primary, &req).unwrap();
    // Entries written by invocations and by the raw API share one layout.
    for (i, text) in ["a", "b", "c", "d", "e"].iter().enumerate() {
        if i % 2 == 0 {
            client.invoke(&id, "post", vec![VmValue::str(*text)], false).unwrap();
        } else {
            let push = StoreRequest::RawPush {
                object: id.0.clone(),
                field: b"timeline".to_vec(),
                value: text.as_bytes().to_vec(),
            };
            assert_eq!(raw(push), StoreResponse::Ok);
        }
    }

    let timeline = client.invoke(&id, "get_timeline", vec![VmValue::Int(1 << 40)], true).unwrap();
    let newest_first: Vec<Vec<u8>> = match timeline {
        VmValue::List(items) => items.into_iter().map(|v| v.as_bytes().unwrap().to_vec()).collect(),
        other => panic!("expected a list, got {other}"),
    };
    let texts: Vec<&[u8]> = newest_first.iter().map(Vec::as_slice).collect();
    assert_eq!(texts, [b"e", b"d", b"c", b"b", b"a"]);
    let scan = |newest_first| StoreRequest::RawScan {
        object: id.0.clone(),
        field: b"timeline".to_vec(),
        limit: u64::MAX,
        newest_first,
    };
    assert_eq!(raw(scan(true)), StoreResponse::Rows(newest_first.clone()));
    let oldest_first: Vec<Vec<u8>> = newest_first.iter().rev().cloned().collect();
    assert_eq!(raw(scan(false)), StoreResponse::Rows(oldest_first));
    let count = StoreRequest::RawCount { object: id.0.clone(), field: b"timeline".to_vec() };
    assert_eq!(raw(count), StoreResponse::Count(newest_first.len() as u64));
    cluster.shutdown();
}
