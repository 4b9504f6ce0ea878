//! Ablation ABL-GROUPCOMMIT: WAL group commit on the aggregated hot path.
//!
//! Sweeps client count {1, 8, 32, 100} x `Options::group_commit` on the
//! Post workload with `sync_wal = true` (the durability configuration
//! where per-commit costs actually bite):
//!
//! * `off` — per-batch WAL append + fsync (the seed's behaviour);
//! * `on` — WAL group commit: the leading thread appends every queued
//!   batch under one fsync (the default).
//!
//! Replication is the same in both: per-shard windows coalescing committed
//! write sets into `ReplicateBatch` rounds; the mean round size is
//! reported beside the mean WAL group.
//!
//! Emits `BENCH_groupcommit.json` (override the path with
//! `BENCH_JSON_PATH`) for EXPERIMENTS.md / CI.

use std::sync::Arc;
use std::time::Duration;

use lambda_bench::{cluster_config, env_f64, env_usize, ms};
use lambda_retwis::{run, setup, AggregatedBackend, Op, OpMix, WorkloadConfig};
use lambda_store::AggregatedCluster;

fn label(group_commit: bool) -> &'static str {
    if group_commit {
        "on"
    } else {
        "off"
    }
}

struct Row {
    clients: usize,
    group_commit: bool,
    ops_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    wal_mean_group: f64,
    repl_rounds: u64,
    repl_entries: u64,
}

fn run_cell(clients: usize, group_commit: bool, base: &WorkloadConfig) -> Row {
    let mut cluster_cfg = cluster_config();
    cluster_cfg.kv.sync_wal = true;
    cluster_cfg.kv.group_commit = group_commit;
    let cluster = AggregatedCluster::build(cluster_cfg).expect("cluster");
    let backend = Arc::new(AggregatedBackend { client: cluster.client() });
    backend
        .client
        .deploy_type(
            lambda_retwis::USER_TYPE,
            lambda_retwis::user_fields(),
            &lambda_retwis::user_module(),
        )
        .expect("deploy");
    let config = WorkloadConfig { clients, ..base.clone() };
    setup(&backend, &config).expect("setup");
    let result = run(&backend, &config);

    let (groups, batches) = cluster
        .core
        .storage
        .iter()
        .map(|n| {
            let s = n.engine().db().stats();
            (s.commit_groups, s.commit_group_batches)
        })
        .fold((0u64, 0u64), |(g, b), (ng, nb)| (g + ng, b + nb));
    let (rounds, entries) = cluster
        .core
        .storage
        .iter()
        .map(|n| n.replication_batch_stats())
        .fold((0u64, 0u64), |(r, e), (nr, ne)| (r + nr, e + ne));
    cluster.shutdown();

    Row {
        clients,
        group_commit,
        ops_per_sec: result.throughput(),
        p50_ms: result.latency.median().as_secs_f64() * 1e3,
        p99_ms: result.latency.percentile(99.0).as_secs_f64() * 1e3,
        wal_mean_group: if groups == 0 { 0.0 } else { batches as f64 / groups as f64 },
        repl_rounds: rounds,
        repl_entries: entries,
    }
}

fn write_json(path: &str, rows: &[Row]) {
    let mut out = String::from(
        "{\n  \"experiment\": \"ABL-GROUPCOMMIT\",\n  \"workload\": \"Post\",\n  \
         \"sync_wal\": true,\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"clients\": {}, \"mode\": \"{}\", \"ops_per_sec\": {:.1}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"wal_mean_group\": {:.2}, \
             \"repl_rounds\": {}, \"repl_entries\": {}}}{}\n",
            r.clients,
            label(r.group_commit),
            r.ops_per_sec,
            r.p50_ms,
            r.p99_ms,
            r.wal_mean_group,
            r.repl_rounds,
            r.repl_entries,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write json");
}

fn main() {
    let base = WorkloadConfig {
        accounts: env_usize("RETWIS_ACCOUNTS", 500),
        follows_per_account: env_usize("RETWIS_FOLLOWS", 5),
        duration: Duration::from_secs_f64(env_f64("RETWIS_SECONDS", 2.0)),
        mix: OpMix::only(Op::Post),
        ..WorkloadConfig::default()
    };
    let json_path =
        std::env::var("BENCH_JSON_PATH").unwrap_or_else(|_| "BENCH_groupcommit.json".into());
    println!(
        "ablation_groupcommit: Post workload, sync_wal=true, accounts={} window={:?}\n",
        base.accounts, base.duration
    );
    println!(
        "{:>8} {:<10} {:>12} {:>10} {:>10} {:>10} {:>12}",
        "clients", "mode", "ops/s", "p50 (ms)", "p99 (ms)", "wal grp", "repl win"
    );

    let mut rows = Vec::new();
    for clients in [1usize, 8, 32, 100] {
        for group_commit in [false, true] {
            let row = run_cell(clients, group_commit, &base);
            let repl_win = row.repl_entries as f64 / row.repl_rounds.max(1) as f64;
            println!(
                "{:>8} {:<10} {:>12.0} {:>10} {:>10} {:>10.2} {:>12.2}",
                row.clients,
                label(row.group_commit),
                row.ops_per_sec,
                ms(Duration::from_secs_f64(row.p50_ms / 1e3)),
                ms(Duration::from_secs_f64(row.p99_ms / 1e3)),
                row.wal_mean_group,
                repl_win,
            );
            rows.push(row);
        }
    }
    write_json(&json_path, &rows);
    println!("\nwrote {json_path}");

    // Headline: the speedup group commit buys at the highest client count.
    let at_100 = |on: bool| {
        rows.iter()
            .find(|r| r.clients == 100 && r.group_commit == on)
            .map_or(0.0, |r| r.ops_per_sec)
    };
    if at_100(false) > 0.0 {
        let speedup = at_100(true) / at_100(false);
        println!("100 clients: on = {speedup:.2}x off (expected >= 1.5x with sync_wal)");
    }
    println!(
        "\nshape: at 1 client the two modes tie (nothing to coalesce); as\n\
         clients grow, group commit amortizes the per-commit fsync, so the\n\
         gap widens with concurrency."
    );
}
