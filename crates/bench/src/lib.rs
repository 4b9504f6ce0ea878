//! # lambda-bench
//!
//! The paper-figure harnesses. `benchmark/` (see `BENCHMARK.json`) is the
//! measured, gated benchmark; these binaries print the paper's tables in
//! the paper's shape:
//!
//! | binary | artifact |
//! |---|---|
//! | `fig1_fig2` | Figure 1 (normalized ReTwis throughput) + Figure 2 (median/p99 latency) |
//! | `table1` | Table 1 (architecture comparison with measured proxies) |
//! | `rebalance` | hotspot shift under the coordinator's rebalancer (`BENCH_rebalance.json`) |
//!
//! All binaries accept environment variables to scale the run:
//! `RETWIS_ACCOUNTS`, `RETWIS_CLIENTS`, `RETWIS_FOLLOWS`,
//! `RETWIS_SECONDS`, `BENCH_PAPER_SCALE=1` (switches to the paper's
//! 10,000-account / 100-client configuration).

use std::sync::Arc;
use std::time::Duration;

use lambda_retwis::{run, setup, Op, OpMix, RetwisBackend, RunResult, WorkloadConfig};
use lambda_store::ClusterConfig;

/// Read an environment knob.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Read a float environment knob.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// The workload configuration used by the figure/table harnesses.
///
/// Defaults are scaled down from the paper (1,000 accounts, 16 clients,
/// 5 follows, 4 s per workload) so a full run completes in minutes inside the
/// simulator; `BENCH_PAPER_SCALE=1` restores the paper's parameters.
pub fn workload_config() -> WorkloadConfig {
    let paper = env_usize("BENCH_PAPER_SCALE", 0) == 1;
    let accounts = env_usize("RETWIS_ACCOUNTS", if paper { 10_000 } else { 1_000 });
    let clients = env_usize("RETWIS_CLIENTS", if paper { 100 } else { 16 });
    let follows = env_usize("RETWIS_FOLLOWS", if paper { 10 } else { 5 });
    let seconds = env_f64("RETWIS_SECONDS", if paper { 10.0 } else { 4.0 });
    // The paper does not specify follower skew; Retwis-style setups use a
    // mildly skewed graph. θ=0.3 keeps hot accounts realistic without the
    // degenerate celebrity fan-outs θ≈1 produces at small account counts.
    let theta = env_f64("RETWIS_THETA", 0.3);
    WorkloadConfig {
        accounts,
        clients,
        follows_per_account: follows,
        duration: Duration::from_secs_f64(seconds),
        zipf_theta: theta,
        ..WorkloadConfig::default()
    }
}

/// Cluster configuration for the harnesses: simulated one-way link latency
/// comes from `BENCH_RTT_US` (microseconds, default 500 — an overlay-network
/// datacenter hop; the effect under study is round-trips, §4.1).
pub fn cluster_config() -> ClusterConfig {
    let base_us = env_usize("BENCH_RTT_US", 500) as u64;
    ClusterConfig {
        latency: lambda_net::LatencyModel {
            base: std::time::Duration::from_micros(base_us),
            jitter: std::time::Duration::from_micros(base_us / 3),
            per_byte: std::time::Duration::from_nanos(1),
            drop_probability: 0.0,
        },
        ..ClusterConfig::default()
    }
}

/// Results of running the three single-op workloads on one backend.
#[derive(Debug, Clone)]
pub struct ArchResults {
    /// Architecture label.
    pub label: String,
    /// One result per [`Op::ALL`] entry.
    pub per_op: Vec<(Op, RunResult)>,
}

/// Deploy, set up the social graph, and run the three single-op
/// workloads of §5 on `backend`.
///
/// # Panics
/// Panics on backend failures (benchmarks should fail loudly).
pub fn run_retwis_suite<B: RetwisBackend + 'static>(
    backend: Arc<B>,
    config: &WorkloadConfig,
) -> ArchResults {
    backend.deploy().expect("deploy type");
    eprintln!(
        "[{}] setting up {} accounts x {} follows...",
        backend.label(),
        config.accounts,
        config.follows_per_account
    );
    setup(&backend, config).expect("workload setup");
    let mut per_op = Vec::new();
    for op in Op::ALL {
        let cfg = WorkloadConfig { mix: OpMix::only(op), ..config.clone() };
        eprintln!("[{}] running {} for {:?}...", backend.label(), op.name(), cfg.duration);
        let result = run(&backend, &cfg);
        eprintln!("[{}] {}: {}", backend.label(), op.name(), result.summary());
        per_op.push((op, result));
    }
    ArchResults { label: backend.label().to_string(), per_op }
}

/// Format a duration in milliseconds with two decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Print the Figure 1 table: absolute and normalized throughput.
pub fn print_figure1(aggregated: &ArchResults, disaggregated: &ArchResults) {
    println!("\n=== Figure 1: ReTwis throughput (jobs/sec; normalized to aggregated) ===");
    println!(
        "{:<14} {:>14} {:>16} {:>12} {:>14}",
        "Workload", "Aggregated", "Disaggregated", "Agg (norm)", "Disagg (norm)"
    );
    for ((op, agg), (_, dis)) in aggregated.per_op.iter().zip(&disaggregated.per_op) {
        let a = agg.throughput();
        let d = dis.throughput();
        let base = a.max(1e-9);
        println!("{:<14} {:>14.0} {:>16.0} {:>12.2} {:>14.2}", op.name(), a, d, a / base, d / base);
    }
    println!(
        "\npaper shape: aggregated >= 2.6x disaggregated on every workload\n\
         (paper absolute numbers: Post 1309 vs 492, GetTimeline 30799 vs 9106,\n\
         Follow 55600 vs 11355 jobs/sec on CloudLab hardware)"
    );
}

/// Print the Figure 2 table: median and p99 latency.
pub fn print_figure2(aggregated: &ArchResults, disaggregated: &ArchResults) {
    println!("\n=== Figure 2: ReTwis latency (ms; big bars = median, small bars = p99) ===");
    println!(
        "{:<14} {:>12} {:>12} {:>14} {:>14}",
        "Workload", "Agg p50", "Agg p99", "Disagg p50", "Disagg p99"
    );
    for ((op, agg), (_, dis)) in aggregated.per_op.iter().zip(&disaggregated.per_op) {
        println!(
            "{:<14} {:>12} {:>12} {:>14} {:>14}",
            op.name(),
            ms(agg.latency.median()),
            ms(agg.latency.percentile(99.0)),
            ms(dis.latency.median()),
            ms(dis.latency.percentile(99.0)),
        );
    }
    println!(
        "\npaper shape: aggregated median <= 0.5x disaggregated median on every\n\
         workload; disaggregated shows visibly higher latency variance"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_defaults() {
        assert_eq!(env_usize("DEFINITELY_UNSET_VAR_123", 7), 7);
        assert_eq!(env_f64("DEFINITELY_UNSET_VAR_123", 2.5), 2.5);
    }

    #[test]
    fn workload_config_is_sane() {
        let c = workload_config();
        assert!(c.accounts >= 10);
        assert!(c.clients >= 1);
        assert!(!c.duration.is_zero());
    }

    #[test]
    fn ms_formats() {
        assert_eq!(ms(Duration::from_millis(2)), "2.00");
        assert_eq!(ms(Duration::from_micros(1500)), "1.50");
    }
}
