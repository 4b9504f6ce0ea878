//! The counting half of the per-layer ledger: every layer's own counters,
//! read through the crates' public accessors before and after the traced
//! windows, and turned into per-operation figures.

use std::collections::BTreeMap;

use lambda_objects::Stage;

use crate::cluster::Cluster;

/// Named counters summed over the three storage nodes (and the three
/// coordinators, the network and the client endpoints).
pub type Counters = BTreeMap<&'static str, u64>;

pub fn snapshot(cluster: &Cluster) -> Counters {
    let mut c = Counters::new();
    let mut add = |name: &'static str, v: u64| *c.entry(name).or_insert(0) += v;
    for node in &cluster.inner.core.storage {
        let n = node.stats();
        add("node.requests", n.requests);
        add("node.busy_nanos", n.busy_nanos);
        add("node.shed", n.shed);
        add("node.follower_reads", n.follower_reads);
        add("node.lease_rejections", n.lease_rejections);
        let e = node.engine().stats();
        add("eng.invocations", e.invocations);
        add("eng.nested_calls", e.nested_calls);
        add("eng.commits", e.commits);
        add("eng.duplicates_suppressed", e.duplicates_suppressed);
        add("cache.hits", e.cache.hits);
        add("cache.misses", e.cache.misses);
        add("cache.stale_hits", e.cache.stale_hits);
        add("cache.invalidations", e.cache.invalidations);
        add("cache.evictions", e.cache.evictions);
        add("sched.exclusive", e.scheduler.exclusive);
        add("sched.shared", e.scheduler.shared);
        let k = node.engine().db().stats();
        add("kv.writes", k.writes);
        add("kv.reads", k.reads);
        add("kv.flushes", k.flushes);
        add("kv.compactions", k.compactions);
        add("kv.wal_bytes", k.wal_bytes);
        add("kv.commit_groups", k.commit_groups);
        add("kv.commit_group_batches", k.commit_group_batches);
        add("kv.commit_stall_micros", k.commit_stall_micros);
        if let Some(b) = node.engine().db().block_cache_stats() {
            add("blockcache.hits", b.hits);
            add("blockcache.misses", b.misses);
        }
        for stage in Stage::ALL {
            add("spans.recorded", node.registry().stage_stats(stage).count);
        }
    }
    for coordinator in &cluster.inner.core.coordinators {
        add("coord.heartbeats", coordinator.registry().counter_value("coord_heartbeats"));
    }
    let (sent, _delivered, dropped, bytes) = cluster.inner.core.net.stats();
    add("net.messages", sent);
    add("net.dropped", dropped);
    add("net.bytes", bytes);
    add("vfs.syncs", cluster.vfs.syncs());
    add("vfs.bytes_written", cluster.vfs.bytes_written());
    for client in &cluster.clients {
        add("client.retries", client.retries_performed());
    }
    c
}

/// `after - before`, counter by counter.
pub fn delta(before: &Counters, after: &Counters) -> Counters {
    after.iter().map(|(k, v)| (*k, v.saturating_sub(before.get(k).copied().unwrap_or(0)))).collect()
}

pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// p50, p95 and mean (µs) of one stage, from the storage node
/// that recorded the most `Execute` samples: writes all execute at the
/// primary, reads rotate over all three, so that node is representative.
/// The registry's histograms have power-of-two buckets, so a percentile is
/// a bucket's mid-point; the mean is exact.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageFigures {
    pub p50_us: f64,
    pub p95_us: f64,
    pub mean_us: f64,
}

pub fn stage_figures(cluster: &Cluster) -> [StageFigures; 4] {
    let busiest = cluster
        .inner
        .core
        .storage
        .iter()
        .max_by_key(|n| n.registry().stage_stats(Stage::Execute).count)
        .expect("three storage nodes");
    Stage::ALL.map(|stage| {
        let s = busiest.registry().stage_stats(stage);
        StageFigures {
            p50_us: s.p50_nanos as f64 / 1e3,
            p95_us: s.p95_nanos as f64 / 1e3,
            mean_us: s.mean_nanos as f64 / 1e3,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_and_sums() {
        let before: Counters = [("a", 5), ("b", 7)].into();
        let after: Counters = [("a", 9), ("b", 7), ("c", 2)].into();
        let d = delta(&before, &after);
        assert_eq!(d, [("a", 4), ("b", 0), ("c", 2)].into());
        assert_eq!(ratio(1, 4), 0.25);
        assert_eq!(ratio(1, 0), 0.0);
    }
}
