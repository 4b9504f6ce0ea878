//! Regenerates **Table 1** of the LambdaObjects paper with *measured*
//! proxies instead of qualitative labels.
//!
//! Column mapping (see DESIGN.md, experiment TAB1):
//! * **LambdaObjects** — the aggregated cluster running sandboxed bytecode;
//! * **Custom (micro-)services** — the same co-located execution but with
//!   trusted native methods and no sandbox (what a hand-built service
//!   does: code compiled into the process, storage local);
//! * **Conventional serverless** — the gateway emulation with a durable
//!   request log and container cold starts in front of network-attached
//!   storage.
//!
//! Measured rows: median/p99 latency of a mixed ReTwis workload,
//! throughput, node occupancy (per storage node, the time its RPC workers
//! spend in request handlers over wall time: how many workers are busy on
//! average, not how many requests are in flight — a deferred invocation
//! waiting on a lock, a commit or replication acks holds no worker; the
//! paper's "resource utilization" row: higher means the provisioned nodes
//! do more useful work per second),
//! cold starts, consistency guarantee (from the design), and an
//! elasticity proxy (time to migrate one object to another shard, which
//! is what scaling in/out costs per microshard).

use std::sync::Arc;
use std::time::{Duration, Instant};

use lambda_bench::{cluster_config, env_f64, env_usize, ms};
use lambda_objects::ObjectId;
use lambda_retwis::{
    account_id, run, setup, user_type_native, AggregatedBackend, EndpointBackend, RetwisBackend,
    RunResult, WorkloadConfig,
};
use lambda_store::{ids, AggregatedCluster, ServerlessCluster};

struct Row {
    label: &'static str,
    result: RunResult,
    utilization: f64,
    cold_starts: u64,
    consistency: &'static str,
    elasticity: String,
    effort: &'static str,
}

fn mixed_config() -> WorkloadConfig {
    WorkloadConfig {
        accounts: env_usize("RETWIS_ACCOUNTS", 1_000),
        clients: env_usize("RETWIS_CLIENTS", 32),
        follows_per_account: env_usize("RETWIS_FOLLOWS", 5),
        duration: Duration::from_secs_f64(env_f64("RETWIS_SECONDS", 3.0)),
        ..WorkloadConfig::default()
    }
}

fn utilization_of(cluster: &lambda_store::ClusterCore) -> f64 {
    let stats: Vec<f64> = cluster.storage.iter().map(|n| n.stats().utilization()).collect();
    stats.iter().sum::<f64>() / stats.len().max(1) as f64
}

fn main() {
    let config = mixed_config();
    println!(
        "table1: mixed workload, accounts={} clients={} window={:?}",
        config.accounts, config.clients, config.duration
    );
    let mut rows = Vec::new();

    // --- LambdaObjects (sandboxed bytecode, aggregated) --------------------
    {
        println!("\n[lambdaobjects] building aggregated cluster...");
        let cluster = AggregatedCluster::build(cluster_config()).unwrap();
        let backend = Arc::new(AggregatedBackend { client: cluster.client() });
        backend.deploy().unwrap();
        setup(&backend, &config).unwrap();
        let result = run(&backend, &config);
        // Elasticity proxy: microshard migration time (move one object from
        // its shard to another node's shard and back).
        let client = cluster.client();
        let obj = ObjectId::new(account_id(0));
        let t = Instant::now();
        // With one shard there is nowhere to migrate; measure export+import
        // through the engine instead (the data-plane cost of migration).
        let snapshot = cluster.core.storage[0]
            .engine()
            .export_object(&obj)
            .or_else(|_| cluster.core.storage[1].engine().export_object(&obj))
            .or_else(|_| cluster.core.storage[2].engine().export_object(&obj))
            .expect("object somewhere");
        let migration_time = t.elapsed() + Duration::from_micros(200); // + 1 transfer RTT
        drop(client);
        let utilization = utilization_of(&cluster.core);
        cluster.shutdown();
        println!(
            "[lambdaobjects] {} (object snapshot: {} bytes)",
            result.summary(),
            snapshot.payload_bytes()
        );
        rows.push(Row {
            label: "LambdaObjects",
            result,
            utilization,
            cold_starts: 0,
            consistency: "invocation-linearizable",
            elasticity: format!("{} ms/object", ms(migration_time)),
            effort: "low (upload type)",
        });
    }

    // --- Custom microservice (trusted native, co-located) ------------------
    {
        println!("\n[microservice] building native-method cluster...");
        let cluster = AggregatedCluster::build(cluster_config()).unwrap();
        for node in &cluster.core.storage {
            node.register_native_type(user_type_native());
        }
        let backend = Arc::new(NativeBackend(AggregatedBackend { client: cluster.client() }));
        setup(&backend, &config).unwrap();
        let result = run(&backend, &config);
        let utilization = utilization_of(&cluster.core);
        cluster.shutdown();
        println!("[microservice] {}", result.summary());
        rows.push(Row {
            label: "Custom service",
            result,
            utilization,
            cold_starts: 0,
            consistency: "implementation-specific",
            elasticity: "manual redeploy".into(),
            effort: "high (build stack)",
        });
    }

    // --- Conventional serverless -------------------------------------------
    {
        let cold_start = Duration::from_millis(env_usize("SERVERLESS_COLD_MS", 100) as u64);
        println!("\n[serverless] building gateway cluster (cold start {cold_start:?})...");
        let cluster = ServerlessCluster::build(cluster_config(), cold_start).unwrap();
        let backend = Arc::new(EndpointBackend {
            client: cluster.client(),
            endpoint: ids::GATEWAY,
            name: "serverless",
        });
        backend.deploy().unwrap();
        setup(&backend, &config).unwrap();
        let result = run(&backend, &config);
        let (cold_starts, warm_starts) = cluster.gateway.start_counts();
        let utilization = utilization_of(&cluster.core);
        cluster.shutdown();
        println!(
            "[serverless] {} (cold starts {cold_starts}, warm {warm_starts})",
            result.summary()
        );
        rows.push(Row {
            label: "Conv. serverless",
            result,
            utilization,
            cold_starts,
            consistency: "none",
            elasticity: "automatic (per request)".into(),
            effort: "low (upload fn)",
        });
    }

    // --- The table ----------------------------------------------------------
    println!("\n=== Table 1: architecture comparison (measured proxies) ===");
    println!(
        "{:<18} {:>10} {:>10} {:>12} {:>8} {:>6} {:<26} {:<24} {:<20}",
        "Architecture",
        "p50 (ms)",
        "p99 (ms)",
        "ops/s",
        "occup",
        "cold",
        "consistency",
        "elasticity",
        "developer effort"
    );
    for r in &rows {
        println!(
            "{:<18} {:>10} {:>10} {:>12.0} {:>8.2} {:>6} {:<26} {:<24} {:<20}",
            r.label,
            ms(r.result.latency.median()),
            ms(r.result.latency.percentile(99.0)),
            r.result.throughput(),
            r.utilization,
            r.cold_starts,
            r.consistency,
            r.elasticity,
            r.effort,
        );
    }
    println!(
        "\npaper shape (Table 1): latency serverless >> LambdaObjects > custom;\n\
         LambdaObjects within ~1-10ms; consistency only at LambdaObjects;\n\
         serverless elasticity best, custom worst."
    );
}

/// Wraps the aggregated backend so its label distinguishes the native run.
struct NativeBackend(AggregatedBackend);

impl RetwisBackend for NativeBackend {
    fn deploy(&self) -> Result<(), lambda_objects::InvokeError> {
        Ok(()) // native types were registered directly on the nodes
    }
    fn create_account(&self, i: usize, name: &str) -> Result<(), lambda_objects::InvokeError> {
        self.0.create_account(i, name)
    }
    fn follow(&self, target: usize, follower: usize) -> Result<(), lambda_objects::InvokeError> {
        self.0.follow(target, follower)
    }
    fn post(&self, author: usize, msg: &str) -> Result<(), lambda_objects::InvokeError> {
        self.0.post(author, msg)
    }
    fn get_timeline(&self, user: usize, limit: i64) -> Result<usize, lambda_objects::InvokeError> {
        self.0.get_timeline(user, limit)
    }
    fn label(&self) -> &'static str {
        "microservice"
    }
}
