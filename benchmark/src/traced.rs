//! The traced run (`--trace 1`): the workload again with every node's
//! registry recording on alternate windows, the saturation flood, and the
//! direct probes. It yields the per-layer ledger; the end-to-end metrics
//! come from the untraced run alone.

use std::collections::BTreeMap;

use crate::analysis;
use crate::cluster::{self, Cluster};
use crate::driver::{self, Stream};
use crate::ledger::{self, ratio, Counters};
use crate::model::{self, Model};
use crate::probes;
use crate::schedule::{self, Op};
use crate::spans::SpanLog;
use crate::spec::{Workload, SATURATION_OUTSTANDING};
use crate::stats::{calmest, kept_count};

pub struct TracedRun {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// How `--seconds` is spent: about 70 % on the workload's windows (an even
/// number, so traced and untraced windows pair up), 15 % on the flood, and
/// the rest on the probes, which take about four seconds whatever it is.
fn split_seconds(seconds: usize) -> (usize, usize) {
    let windows = (seconds * 7 / 10 / 2 * 2).max(2);
    let flood = (seconds * 3 / 20).max(1);
    (windows, flood)
}

/// Harness-side spans of one open-loop stream: a span per window, and per
/// request one span from its due time to its completion with the call into
/// the client as its child.
fn record_stream_spans(spans: &mut SpanLog, parent: u32, stream: &Stream, windows: usize) {
    let base = spans.us_since_origin(stream.origin);
    let at = |ns: u64| base + ns / 1000;
    let warmup = spans.add(parent, "warmup", at(0), at(driver::window_start_ns(0)), None);
    let window_spans: Vec<u32> = (0..windows)
        .map(|k| {
            let name = if k % 2 == 0 { "window.traced" } else { "window.untraced" };
            let (start, end) = (driver::window_start_ns(k), driver::window_start_ns(k + 1));
            spans.add(parent, name, at(start), at(end), None)
        })
        .collect();
    let mut done_ns: Vec<Option<u64>> = vec![None; stream.requests.len()];
    for c in &stream.completions {
        done_ns[c.request as usize] = Some(c.done_ns);
    }
    for (i, request) in stream.requests.iter().enumerate() {
        let parent = match driver::window_of(request.due_ns) {
            None => warmup,
            Some(k) => window_spans[k.min(windows - 1)],
        };
        let name = match request.op {
            Op::Post => "request.create_post",
            Op::Timeline => "request.get_timeline",
            Op::Follow => "request.follow",
        };
        let end = done_ns[i].unwrap_or(stream.issue_end_ns[i]);
        let id = spans.add(parent, name, at(request.due_ns), at(end), Some(i as u32));
        spans.add(
            id,
            "client.invoke_async",
            at(stream.issued_ns[i]),
            at(stream.issue_end_ns[i]),
            Some(i as u32),
        );
    }
}

/// Saturation rate: requests completed per second in the best of the
/// flood's calmest third of windows.
fn saturation_ops_s(flood: &Stream) -> f64 {
    let (steal, rate): (Vec<u64>, Vec<f64>) = flood
        .boundaries
        .windows(2)
        .map(|b| {
            let seconds = (b[1].at_ns - b[0].at_ns) as f64 / 1e9;
            let steal = b[1].cpu.host.steal.saturating_sub(b[0].cpu.host.steal);
            (steal, (b[1].completed - b[0].completed) as f64 / seconds)
        })
        .unzip();
    calmest(&steal, kept_count(steal.len())).into_iter().map(|k| rate[k]).fold(0.0, f64::max)
}

fn fanout(cluster: &Cluster, streams: &[&Stream]) -> (f64, f64) {
    let mut followers = vec![0u32; cluster.graph.len()];
    for targets in &cluster.graph {
        for &t in targets {
            followers[t as usize] += 1;
        }
    }
    // Of the posts that were sent; of the whole graph if none were.
    let sent: Vec<u32> = streams
        .iter()
        .flat_map(|s| s.requests.iter())
        .filter(|r| r.op == Op::Post)
        .map(|r| followers[r.object as usize])
        .collect();
    let sample = if sent.is_empty() { &followers } else { &sent };
    let mean = sample.iter().map(|&f| f64::from(f)).sum::<f64>() / sample.len() as f64;
    (mean, f64::from(sample.iter().copied().max().unwrap_or(0)))
}

pub fn run(workload: &Workload, seed: u64, seconds: usize) -> Result<TracedRun, String> {
    let (windows, flood_windows) = split_seconds(seconds);
    let mut spans = SpanLog::new();
    let run_span = spans.add(0, "run", 0, 0, None);

    let (cluster, setup_took) = spans.timed(run_span, "setup", || cluster::set_up(workload))?;
    crate::report_header(workload, &cluster);
    println!("set-up: {:.3} s = {setup_took:.3?}", setup_took.total_s());

    // The workload, tracing on even windows and off on odd ones, so that
    // whatever disturbs the host disturbs both kinds alike.
    let stream_seconds = driver::window_start_ns(windows) as f64 / 1e9;
    let requests = schedule::requests(workload, seed, stream_seconds);
    let mut before = Counters::new();
    let mut after = Counters::new();
    let stream = driver::run_open_loop(&cluster, 'a', requests, windows, |k| {
        if k == 0 {
            before = ledger::snapshot(&cluster);
        }
        if k == windows {
            after = ledger::snapshot(&cluster);
        }
        cluster.set_tracing(k < windows && k % 2 == 0);
    });
    let stages = ledger::stage_figures(&cluster);
    let counted = ledger::delta(&before, &after);
    let stream_start = spans.us_since_origin(stream.origin);
    let stream_span = spans.add(run_span, "stream.open_loop", stream_start, spans.now_us(), None);
    record_stream_spans(&mut spans, stream_span, &stream, windows);

    // The flood: the same mix as fast as a bounded window lets it through.
    let flood_workload = Workload { rate_per_s: workload.rate_per_s * 40.0, ..*workload };
    let flood_requests = schedule::requests(&flood_workload, seed ^ 1, flood_windows as f64);
    let flood = spans.timed(run_span, "stream.flood", || {
        driver::run_flood(&cluster, 's', flood_requests, flood_windows, SATURATION_OUTSTANDING)
    });

    let probes_span = spans.add(run_span, "probes", spans.now_us(), 0, None);
    let probe_readings = probes::run_all(&cluster, &mut spans, probes_span)?;
    spans.close(probes_span, spans.now_us());

    let model = Model::from_streams(&[&stream, &flood]);
    let checked = spans.timed(run_span, "check", || model::check(&cluster, &model, seed));
    println!(
        "check: {checked:?} against {} acked posts, {} acked follows",
        model.acked_posts(),
        model.acked_follows()
    );

    // -- The ledger ---------------------------------------------------------
    let all = analysis::windows(&stream);
    let keep = kept_count(all.len());
    let summary = analysis::summarize(&all);
    if let Some(why) = summary.invalid() {
        println!("INVALID RUN: {why}");
    }
    analysis::print_windows(&all, &summary.kept, |k| if k % 2 == 0 { 'T' } else { ' ' });
    let half = |parity: usize| (0..all.len()).filter(|k| k % 2 == parity).collect::<Vec<_>>();
    let calm_half = |parity| analysis::kept_of(&all, half(parity), keep.div_ceil(2));
    let traced = analysis::summarize_kept(&all, calm_half(0));
    let untraced = analysis::summarize_kept(&all, calm_half(1));

    let first = &stream.boundaries[0];
    let last = &stream.boundaries[windows];
    let ops = last.completed - first.completed;
    let elapsed_s = (last.at_ns - first.at_ns) as f64 / 1e9;
    let in_windows = |op_is: fn(Op) -> bool| {
        stream
            .requests
            .iter()
            .filter(|r| driver::window_of(r.due_ns).is_some() && op_is(r.op))
            .count() as u64
    };
    let (reads, writes) = (in_windows(|op| !op.is_write()), in_windows(Op::is_write));
    let c = |name: &str| counted.get(name).copied().unwrap_or(0);
    let per_op = |name: &str| ratio(c(name), ops);
    let lookups = c("cache.hits") + c("cache.misses") + c("cache.stale_hits");
    let (fanout_mean, fanout_max) = fanout(&cluster, &[&stream, &flood]);
    let [queue, execute, commit, replicate] = stages;
    // `busy_nanos` adds up the time of every worker thread of every node.
    let node_workers = (cluster.inner.core.storage.len() * crate::spec::NODE_WORKERS) as f64;

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.extend(probe_readings);
    let null_rpc_ms = m.get("net.null_rpc_p50_us").copied().unwrap_or(0.0) / 1e3;
    let stage_ms = (queue.p50_us + execute.p50_us + commit.p50_us + replicate.p50_us) / 1e3;
    m.extend([
        ("bench.steal_pct_all", summary.steal_pct_all),
        ("bench.steal_pct_kept", summary.steal_pct_kept),
        ("bench.windows_kept", summary.kept.len() as f64),
        ("bench.gen_lag_p99_ms", summary.gen_lag_p99_ms),
        ("bench.samples", summary.samples as f64),
        ("retwis.fanout_mean", fanout_mean),
        ("retwis.fanout_max", fanout_max),
        ("store.read_p50_ms", summary.read_p50_ms),
        ("store.write_p50_ms", summary.write_p50_ms),
        ("store.lat_p99_ms", summary.lat_p99_ms),
        ("store.sat_ops_s", saturation_ops_s(&flood)),
        ("store.cpu_us_per_op", summary.cpu_us_per_op),
        ("store.requests_per_op", per_op("node.requests")),
        ("store.client_retries", c("client.retries") as f64),
        ("store.shed", c("node.shed") as f64),
        ("store.busy_frac", c("node.busy_nanos") as f64 / 1e9 / elapsed_s / node_workers),
        ("store.follower_read_share", ratio(c("node.follower_reads"), reads)),
        ("store.lease_rejections", c("node.lease_rejections") as f64),
        ("store.invalidations_per_write", ratio(c("cache.invalidations"), writes)),
        ("store.dup_suppressed", c("eng.duplicates_suppressed") as f64),
        ("store.unattributed_ms", summary.lat_p50_ms - null_rpc_ms - stage_ms),
        ("core.queue_us_p50", queue.p50_us),
        ("core.queue_us_p95", queue.p95_us),
        ("core.queue_us_mean", queue.mean_us),
        ("core.execute_us_p50", execute.p50_us),
        ("core.execute_us_mean", execute.mean_us),
        ("core.commit_us_p50", commit.p50_us),
        ("core.commit_us_mean", commit.mean_us),
        ("core.replicate_us_p50", replicate.p50_us),
        ("core.replicate_us_mean", replicate.mean_us),
        ("core.invocations_per_op", per_op("eng.invocations")),
        ("core.nested_per_op", per_op("eng.nested_calls")),
        ("core.commits_per_op", per_op("eng.commits")),
        ("core.sched_exclusive_per_op", per_op("sched.exclusive")),
        ("core.sched_shared_per_op", per_op("sched.shared")),
        ("core.cache_hit_ratio", ratio(c("cache.hits"), lookups)),
        ("core.cache_stale_ratio", ratio(c("cache.stale_hits"), lookups)),
        ("core.cache_evictions", c("cache.evictions") as f64),
        ("kv.writes_per_op", per_op("kv.writes")),
        ("kv.reads_per_op", per_op("kv.reads")),
        ("kv.fsyncs_per_op", per_op("vfs.syncs")),
        ("kv.wal_bytes_per_op", per_op("kv.wal_bytes")),
        ("kv.group_size", ratio(c("kv.commit_group_batches"), c("kv.commit_groups"))),
        ("kv.stall_us_per_write", ratio(c("kv.commit_stall_micros"), c("kv.writes"))),
        ("kv.flushes", c("kv.flushes") as f64),
        ("kv.compactions", c("kv.compactions") as f64),
        (
            "kv.block_cache_hit_ratio",
            ratio(c("blockcache.hits"), c("blockcache.hits") + c("blockcache.misses")),
        ),
        ("net.msgs_per_op", per_op("net.messages")),
        ("net.bytes_per_op", per_op("net.bytes")),
        ("net.dropped", c("net.dropped") as f64),
        ("coordinator.heartbeats_per_s", c("coord.heartbeats") as f64 / elapsed_s),
        (
            "telemetry.overhead_pct",
            100.0 * (traced.lat_p50_ms - untraced.lat_p50_ms) / untraced.lat_p50_ms,
        ),
        ("telemetry.spans_recorded", c("spans.recorded") as f64),
    ]);

    spans.close(run_span, spans.now_us());
    println!("harness spans (count, total ms, self ms):");
    for (name, (count, total_us, self_us)) in spans.by_name() {
        println!(
            "  {name:<24} {count:>7} {:>12.3} {:>12.3}",
            total_us as f64 / 1e3,
            self_us as f64 / 1e3
        );
    }
    let path = cluster::out_dir().join(format!("spans-{}.json", workload.name));
    spans.write_json(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("{} harness spans written to {}", spans.len(), path.display());

    let streams = [&stream, &flood];
    let attempted = streams.iter().map(|s| s.requests.len()).sum();
    let ok: usize = streams
        .iter()
        .map(|s| s.completions.iter().filter(|c| c.outcome == driver::Outcome::Ok).count())
        .sum();
    Ok(TracedRun { correct: checked.is_ok(), attempted, failed: attempted - ok, metrics: m })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_are_split_between_windows_flood_and_probes() {
        assert_eq!(split_seconds(20), (14, 3));
        assert_eq!(split_seconds(10), (6, 1));
        assert_eq!(split_seconds(1), (2, 1));
        assert_eq!(split_seconds(60), (42, 9));
    }
}
