//! Crash-safe live migration: the chaos campaign for the coordinator-owned
//! migration protocol. Every scenario kills a protocol participant
//! mid-migration — source primary, target primary, a coordinator replica —
//! and checks the same invariants afterwards: the object is served by
//! exactly one shard, no acked write is lost, and no invocation executed
//! twice (dedup records ride the migration snapshot).
//!
//! Override the fault-plan seed with `CHAOS_SEED=<hex|dec>` to replay a
//! nightly failure deterministically.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lambda_coordinator::{ClusterState, ShardId, PAXOS_ID_OFFSET};
use lambda_net::{FaultPlan, FaultSpec, NodeId};
use lambda_objects::{FieldDef, FieldKind, ObjectId};
use lambda_store::{AggregatedCluster, ClusterConfig, ClusterCore, StoreClient};
use lambda_vm::{assemble, Module, VmValue};

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
        "#,
    )
    .expect("account module assembles")
}

fn account_fields() -> Vec<FieldDef> {
    vec![FieldDef { name: "balance".into(), kind: FieldKind::Scalar }]
}

fn wall_module() -> Module {
    assemble(
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
    .expect("wall module assembles")
}

fn wall_fields() -> Vec<FieldDef> {
    vec![FieldDef { name: "posts".into(), kind: FieldKind::Collection }]
}

fn as_int(v: VmValue) -> i64 {
    v.as_int().unwrap_or_else(|| panic!("expected int, got {v}"))
}

fn storage_idx(cluster: &AggregatedCluster, node: NodeId) -> usize {
    cluster.core.storage.iter().position(|n| n.id() == node).expect("node present")
}

/// Crash coordinator replica `idx`: stop the service and cut both its RPC
/// endpoints (the client-facing one and the Paxos peer endpoint).
fn kill_coordinator(core: &ClusterCore, idx: usize) {
    let id = core.coordinators[idx].id();
    core.coordinators[idx].shutdown();
    core.net.isolate(id);
    core.net.isolate(NodeId(id.0 + PAXOS_ID_OFFSET));
}

/// A total stall: every message on the link vanishes.
fn blackhole() -> FaultSpec {
    FaultSpec {
        drop: 1.0,
        duplicate: 0.0,
        delay: 0.0,
        delay_spike: Duration::ZERO,
        reply_loss: 0.0,
    }
}

/// Wait until the client's placement routes `id` to `shard` with no
/// migration of it still in flight.
fn wait_routed_to(client: &StoreClient, id: &ObjectId, shard: ShardId, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        client.refresh();
        let st = client.placement().snapshot();
        if st.shard_for_object(id.as_bytes()) == Some(shard)
            && !st.migrations.contains_key(id.as_bytes())
        {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "object never settled on shard {shard}: routed {:?}, migration {:?}",
            st.shard_for_object(id.as_bytes()),
            st.migrations.get(id.as_bytes()),
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Wait until the client sees a migration of `id` in flight (the plan is
/// chosen into the log before any data moves, so observing the entry
/// guarantees the kill that follows lands mid-protocol).
fn wait_migration_visible(client: &StoreClient, id: &ObjectId, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        client.refresh();
        if client.placement().snapshot().migrations.contains_key(id.as_bytes()) {
            return;
        }
        assert!(Instant::now() < deadline, "migration plan never became visible");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Keep retrying `migrate_object` until it lands: mid-chaos attempts may
/// be aborted by failovers — the protocol's job is that a retry converges.
fn migrate_until_done(client: &StoreClient, id: &ObjectId, shard: ShardId, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        match client.migrate_object(id, shard) {
            Ok(()) => return,
            Err(e) => {
                assert!(Instant::now() < deadline, "migration never converged: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// `(acked, unacked)` payloads a background writer saw — input to
/// [`audit_feed`]'s exactly-once check.
type WriterAudit = (Vec<Vec<u8>>, Vec<Vec<u8>>);

/// Background writer posting uniquely-tagged entries until stopped.
/// Returns `(acked, unacked)` payloads for the exactly-once audit.
fn spawn_writer(
    client: StoreClient,
    wall: ObjectId,
    tag: &'static str,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<WriterAudit> {
    std::thread::spawn(move || {
        let mut acked = Vec::new();
        let mut unacked = Vec::new();
        let mut i = 0u64;
        while !stop.load(Ordering::Relaxed) {
            let text = format!("{tag}-{i}").into_bytes();
            i += 1;
            match client.invoke(&wall, "post", vec![VmValue::Bytes(text.clone())], false) {
                Ok(_) => acked.push(text),
                // A failed post may or may not have landed; the audit only
                // requires that it did not land twice.
                Err(_) => unacked.push(text),
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        (acked, unacked)
    })
}

/// Read the full feed (routed like a mutation, so it audits the
/// authoritative replica chain) and verify exactly-once semantics.
fn audit_feed(client: &StoreClient, wall: &ObjectId, acked: &[Vec<u8>], unacked: &[Vec<u8>]) {
    let deadline = Instant::now() + Duration::from_secs(15);
    let feed = loop {
        match client.invoke(wall, "feed", vec![VmValue::Int(100_000)], false) {
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
    let missing: Vec<String> = acked
        .iter()
        .filter(|t| count(t) == 0)
        .map(|t| String::from_utf8_lossy(t).into_owned())
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "AUDIT: rows={} acked={} unacked={} missing={} first={:?} last={:?}",
            rows.len(),
            acked.len(),
            unacked.len(),
            missing.len(),
            missing.first(),
            missing.last()
        );
    }
    for text in acked {
        assert_eq!(
            count(text),
            1,
            "acked post {:?} must survive the migration exactly once",
            String::from_utf8_lossy(text)
        );
    }
    for text in unacked {
        assert!(count(text) <= 1, "unacked post {:?} landed twice", String::from_utf8_lossy(text));
    }
}

fn sum_coord_counter(cluster: &AggregatedCluster, name: &str) -> u64 {
    cluster.core.coordinators.iter().map(|c| c.registry().counter_value(name)).sum()
}

/// Wait until the highest `coord_pins` gauge over the coordinator replicas
/// reads `want`. The gauge is per replica, and a follower applies the log
/// a moment behind the replica that answered the client, so a single read
/// right after the client's view flips races the lagging ones.
fn wait_pins_gauge(cluster: &AggregatedCluster, want: i64, why: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let gauge =
            cluster.core.coordinators.iter().map(|c| c.registry().gauge_value("coord_pins")).max();
        if gauge == Some(want) {
            return;
        }
        assert!(Instant::now() < deadline, "{why} (coord_pins={gauge:?}, want {want})");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The shard the migration should target: any shard other than `from`.
fn other_shard(state: &ClusterState, from: ShardId) -> ShardId {
    *state.shards.keys().find(|&&s| s != from).expect("cluster has a second shard")
}

/// Happy path plus pin hygiene: a migration away from the hash home pins
/// the object at the target; migrating back to the hash home retires the
/// pin instead of writing a redundant one, and the `coord_pins` gauge
/// tracks the directory size throughout. The source's copy is purged once
/// the move commits.
#[test]
fn migration_round_trip_keeps_pin_directory_clean() {
    let mut config = ClusterConfig::for_tests();
    config.storage_nodes = 4;
    config.shards = 2;
    config.replication_factor = 2;
    let cluster = AggregatedCluster::build(config).unwrap();
    let client = cluster.client();
    client.deploy_type("Account", account_fields(), &account_module()).unwrap();
    let id = ObjectId::from("acct/roundtrip");
    client.create_object("Account", &id, &[]).unwrap();
    for _ in 0..10 {
        client.invoke(&id, "deposit", vec![VmValue::Int(1)], false).unwrap();
    }

    client.refresh();
    let state = client.placement().snapshot();
    let home = state.shard_for_object(id.as_bytes()).expect("placed");
    let away = other_shard(&state, home);
    let home_primary = state.shard(home).unwrap().primary;

    // Away from home: the commit must pin the object at the target.
    client.migrate_object(&id, away).unwrap();
    wait_routed_to(&client, &id, away, Duration::from_secs(10));
    let st = client.placement().snapshot();
    assert_eq!(st.pins.get(id.as_bytes()), Some(&away), "off-home landing needs a pin");
    wait_pins_gauge(&cluster, 1, "coord_pins must track the directory");
    assert_eq!(
        as_int(client.invoke(&id, "balance", vec![], true).unwrap()),
        10,
        "state must survive the move"
    );
    // The source retires its copy after the commit (retirement runs just
    // behind the routing flip, so poll briefly).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let listed = client.list_objects(home_primary).unwrap().contains(&id);
        if !listed {
            break;
        }
        assert!(Instant::now() < deadline, "source primary never purged the moved object");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Writes keep working at the new home (and dedup state moved with the
    // object, so this is a fresh invocation, not a replay).
    assert_eq!(as_int(client.invoke(&id, "deposit", vec![VmValue::Int(5)], false).unwrap()), 15);

    // Back to the hash home: pin hygiene retires the pin instead of
    // pinning the object to its own hash placement.
    client.migrate_object(&id, home).unwrap();
    wait_routed_to(&client, &id, home, Duration::from_secs(10));
    let st = client.placement().snapshot();
    assert!(!st.pins.contains_key(id.as_bytes()), "hash-home landing must unpin");
    wait_pins_gauge(&cluster, 0, "coord_pins must drop with the retired pin");
    assert_eq!(as_int(client.invoke(&id, "balance", vec![], true).unwrap()), 15);

    assert!(sum_coord_counter(&cluster, "coord_migrations_committed") >= 2);
    // The driver counts a completion one poll-iteration after the routing
    // flip becomes visible, so give it a moment.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let completed: u64 = cluster
            .core
            .storage
            .iter()
            .map(|n| n.registry().counter_value("node_migrations_completed"))
            .sum();
        if completed >= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "source drivers never counted their completions (completed={completed})"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    cluster.shutdown();
}

/// Kill the **source primary** mid-copy. The replicated plan survives the
/// crash, the coordinator aborts it when the source shard fails over (the
/// driver died with its node), and a retry converges — with every acked
/// write intact and nothing executed twice.
#[test]
fn migration_survives_source_primary_crash() {
    let mut config = ClusterConfig::for_tests();
    config.storage_nodes = 4;
    config.shards = 2;
    config.replication_factor = 2;
    let cluster = AggregatedCluster::build(config).unwrap();
    let client = cluster.client();
    client.deploy_type("Wall", wall_fields(), &wall_module()).unwrap();
    let wall = ObjectId::from("wall/src-crash");
    client.create_object("Wall", &wall, &[]).unwrap();

    client.refresh();
    let state = client.placement().snapshot();
    let from = state.shard_for_object(wall.as_bytes()).expect("placed");
    let to = other_shard(&state, from);
    let src_primary = state.shard(from).unwrap().primary;
    let dst_primary = state.shard(to).unwrap().primary;

    let stop = Arc::new(AtomicBool::new(false));
    let writer = spawn_writer(cluster.client(), wall.clone(), "src", Arc::clone(&stop));

    // Stall the copy stream so the kill is guaranteed to land mid-protocol,
    // then start the migration from a background client.
    let mut plan = FaultPlan::new();
    plan = plan.between(src_primary, dst_primary, blackhole());
    cluster.core.net.set_fault_plan(plan, chaos_seed(0x0b5e_55ed));

    let mig_client = cluster.client();
    let mig_wall = wall.clone();
    let migrator = std::thread::spawn(move || {
        migrate_until_done(&mig_client, &mig_wall, to, Duration::from_secs(40));
    });

    wait_migration_visible(&client, &wall, Duration::from_secs(10));
    cluster.core.kill_storage_node(storage_idx(&cluster, src_primary));
    cluster.core.net.clear_fault_plan();

    // The retry (driven by the failed-over source primary) must converge.
    migrator.join().expect("migrator panicked");
    wait_routed_to(&client, &wall, to, Duration::from_secs(20));
    stop.store(true, Ordering::Relaxed);
    let (acked, unacked) = writer.join().expect("writer panicked");

    assert!(
        sum_coord_counter(&cluster, "coord_migrations_aborted") >= 1,
        "the crashed attempt must abort, not dangle"
    );
    assert!(!acked.is_empty(), "writer never got a post through");
    audit_feed(&client, &wall, &acked, &unacked);
    cluster.shutdown();
}

/// Kill the **target primary** mid-copy. The coordinator aborts the plan
/// when the target shard fails over; the source keeps serving throughout
/// (it never gave up its copy), and the retried migration lands on the
/// target's new primary.
#[test]
fn migration_survives_target_primary_crash() {
    let mut config = ClusterConfig::for_tests();
    config.storage_nodes = 4;
    config.shards = 2;
    config.replication_factor = 2;
    let cluster = AggregatedCluster::build(config).unwrap();
    let client = cluster.client();
    client.deploy_type("Wall", wall_fields(), &wall_module()).unwrap();
    let wall = ObjectId::from("wall/dst-crash");
    client.create_object("Wall", &wall, &[]).unwrap();

    client.refresh();
    let state = client.placement().snapshot();
    let from = state.shard_for_object(wall.as_bytes()).expect("placed");
    let to = other_shard(&state, from);
    let src_primary = state.shard(from).unwrap().primary;
    let dst_primary = state.shard(to).unwrap().primary;

    let stop = Arc::new(AtomicBool::new(false));
    let writer = spawn_writer(cluster.client(), wall.clone(), "dst", Arc::clone(&stop));

    let mut plan = FaultPlan::new();
    plan = plan.between(src_primary, dst_primary, blackhole());
    cluster.core.net.set_fault_plan(plan, chaos_seed(0x7a26_e7ed));

    let mig_client = cluster.client();
    let mig_wall = wall.clone();
    let migrator = std::thread::spawn(move || {
        migrate_until_done(&mig_client, &mig_wall, to, Duration::from_secs(40));
    });

    wait_migration_visible(&client, &wall, Duration::from_secs(10));
    cluster.core.kill_storage_node(storage_idx(&cluster, dst_primary));
    cluster.core.net.clear_fault_plan();

    migrator.join().expect("migrator panicked");
    wait_routed_to(&client, &wall, to, Duration::from_secs(20));
    stop.store(true, Ordering::Relaxed);
    let (acked, unacked) = writer.join().expect("writer panicked");

    // The object's new home is the failed-over target shard, not the dead
    // primary.
    client.refresh();
    let now = client.placement().snapshot();
    let info = now.shard(to).unwrap();
    assert!(!info.lost && info.primary != dst_primary, "target shard must have failed over");
    assert!(
        sum_coord_counter(&cluster, "coord_migrations_aborted") >= 1,
        "the attempt against the dead target must abort"
    );
    assert!(!acked.is_empty(), "writer never got a post through");
    audit_feed(&client, &wall, &acked, &unacked);
    cluster.shutdown();
}

/// Kill a **coordinator replica** (the proposers' first contact, i.e. the
/// usual leader) mid-copy. The plan lives in the replicated log, so the
/// surviving majority finishes the migration without any retry from the
/// caller.
#[test]
fn migration_survives_coordinator_crash() {
    let mut config = ClusterConfig::for_tests();
    config.storage_nodes = 4;
    config.shards = 2;
    config.replication_factor = 2;
    let cluster = AggregatedCluster::build(config).unwrap();
    let client = cluster.client();
    client.deploy_type("Wall", wall_fields(), &wall_module()).unwrap();
    let wall = ObjectId::from("wall/coord-crash");
    client.create_object("Wall", &wall, &[]).unwrap();

    client.refresh();
    let state = client.placement().snapshot();
    let from = state.shard_for_object(wall.as_bytes()).expect("placed");
    let to = other_shard(&state, from);
    let src_primary = state.shard(from).unwrap().primary;
    let dst_primary = state.shard(to).unwrap().primary;

    let stop = Arc::new(AtomicBool::new(false));
    let writer = spawn_writer(cluster.client(), wall.clone(), "coord", Arc::clone(&stop));

    let mut plan = FaultPlan::new();
    plan = plan.between(src_primary, dst_primary, blackhole());
    cluster.core.net.set_fault_plan(plan, chaos_seed(0xc002_d1ed));

    let mig_client = cluster.client();
    let mig_wall = wall.clone();
    let migrator = std::thread::spawn(move || {
        migrate_until_done(&mig_client, &mig_wall, to, Duration::from_secs(60));
    });

    wait_migration_visible(&client, &wall, Duration::from_secs(10));
    kill_coordinator(&cluster.core, 0);
    cluster.core.net.clear_fault_plan();

    migrator.join().expect("migrator panicked");
    wait_routed_to(&client, &wall, to, Duration::from_secs(30));
    stop.store(true, Ordering::Relaxed);
    let (acked, unacked) = writer.join().expect("writer panicked");

    assert!(
        sum_coord_counter(&cluster, "coord_migrations_committed") >= 1,
        "the surviving majority must commit the migration"
    );
    assert!(!acked.is_empty(), "writer never got a post through");
    audit_feed(&client, &wall, &acked, &unacked);
    cluster.shutdown();
}

/// A migration through seeded data-plane faults (drops, duplicates,
/// delays, reply loss on every storage↔storage and client↔storage link):
/// the copy stream retries through the noise, redelivered posts hit the
/// dedup records that moved with the object, and the audit still finds
/// every acked post exactly once.
#[test]
fn migration_exactly_once_under_network_chaos() {
    let mut config = ClusterConfig::for_tests();
    config.storage_nodes = 4;
    config.shards = 2;
    config.replication_factor = 2;
    let cluster = AggregatedCluster::build(config).unwrap();
    // A client with a known endpoint id so the fault plan can target it.
    let client_id = NodeId(9101);
    let client = StoreClient::new(
        &cluster.core.net,
        client_id,
        cluster.core.coordinator_ids.clone(),
        Duration::from_secs(5),
    );
    client.deploy_type("Wall", wall_fields(), &wall_module()).unwrap();
    let wall = ObjectId::from("wall/mig-chaos");
    client.create_object("Wall", &wall, &[]).unwrap();

    client.refresh();
    let state = client.placement().snapshot();
    let from = state.shard_for_object(wall.as_bytes()).expect("placed");
    let to = other_shard(&state, from);

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
    cluster.core.net.set_fault_plan(plan, chaos_seed(0x0317_ca7e));

    let stop = Arc::new(AtomicBool::new(false));
    let writer = spawn_writer(client.clone(), wall.clone(), "chaos", Arc::clone(&stop));
    std::thread::sleep(Duration::from_millis(100));

    migrate_until_done(&client, &wall, to, Duration::from_secs(40));
    wait_routed_to(&client, &wall, to, Duration::from_secs(20));

    std::thread::sleep(Duration::from_millis(200));
    stop.store(true, Ordering::Relaxed);
    let (acked, unacked) = writer.join().expect("writer panicked");
    cluster.core.net.clear_fault_plan();

    assert!(!acked.is_empty(), "chaos overwhelmed the writer entirely");
    audit_feed(&client, &wall, &acked, &unacked);
    let (dropped, duplicated, delayed) = cluster.core.net.fault_stats();
    assert!(dropped + duplicated + delayed > 0, "fault plan never fired");
    client.shutdown();
    cluster.shutdown();
}
