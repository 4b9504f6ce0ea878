//! Ablation ABL-FANOUT: the cost of Post's follower fan-out (§3.2, §5).
//!
//! A Post job is "the initial function call and one [store_post call] for
//! each follower, which results in lower throughput compared to the other
//! workloads". This sweep measures Post latency against follower count for
//! the aggregated `create_post` (one scatter: every `store_post` issued as
//! one completion-driven wave whose write sets replicate together with the
//! author's own), for its sequential reference `create_post_seq` (one
//! `host.invoke` per follower — a scatter of one, each waiting out its own
//! replication round, the author's write riding in the first), and for the
//! disaggregated baseline (whose compute node scatters over threads).
//! Expectation: the sequential reference grows linearly in the fan-out, one
//! round trip per follower past the first; the scatter stays near one
//! replication round trip whatever the fan-out; the disaggregated variant
//! pays its per-access storage round trips on top.

use std::time::Instant;

use lambda_bench::{cluster_config, env_usize, ms};
use lambda_objects::ObjectId;
use lambda_retwis::{account_id, AggregatedBackend, EndpointBackend, RetwisBackend};
use lambda_store::{ids, AggregatedCluster, DisaggregatedCluster};
use lambda_vm::VmValue;

fn measure_post_latency<B: RetwisBackend>(
    backend: &B,
    author: usize,
    posts: usize,
) -> std::time::Duration {
    // Warm up once, then take the median of `posts` runs.
    backend.post(author, "warmup").expect("post");
    let mut samples: Vec<std::time::Duration> = (0..posts)
        .map(|i| {
            let t = Instant::now();
            backend.post(author, &format!("sweep {i}")).expect("post");
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Median latency of the sequential reference, `create_post_seq`.
fn measure_post_seq_latency(
    client: &lambda_store::StoreClient,
    author: usize,
    posts: usize,
) -> std::time::Duration {
    let id = ObjectId::new(account_id(author));
    let mut samples: Vec<std::time::Duration> = (0..posts)
        .map(|i| {
            let t = Instant::now();
            client
                .invoke(&id, "create_post_seq", vec![VmValue::str(format!("seq {i}"))], false)
                .expect("post_seq");
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

fn main() {
    let posts = env_usize("FANOUT_POSTS", 30);
    let fanouts = [0usize, 1, 2, 4, 8, 16, 32, 64];
    println!("ablation_fanout: median Post latency vs follower count ({posts} posts/cell)\n");

    // Aggregated.
    let agg_cluster = AggregatedCluster::build(cluster_config()).unwrap();
    let agg = AggregatedBackend { client: agg_cluster.client() };
    agg.deploy().unwrap();

    // Disaggregated.
    let dis_cluster = DisaggregatedCluster::build(cluster_config()).unwrap();
    let dis = EndpointBackend {
        client: dis_cluster.client(),
        endpoint: ids::COMPUTE,
        name: "disaggregated",
    };
    dis.deploy().unwrap();

    // One author per fan-out level, with exactly that many followers.
    println!(
        "{:<12} {:>14} {:>14} {:>16} {:>10}",
        "followers", "agg (ms)", "agg-seq (ms)", "disagg (ms)", "ratio"
    );
    let mut next_account = 0usize;
    for &fanout in &fanouts {
        let author = next_account;
        next_account += 1;
        for backend in [&agg as &dyn RetwisBackend, &dis as &dyn RetwisBackend] {
            backend.create_account(author, &format!("author{fanout}")).unwrap();
            for f in 0..fanout {
                let follower = next_account + f;
                backend.create_account(follower, &format!("f{fanout}/{f}")).unwrap();
                backend.follow(author, follower).unwrap();
            }
        }
        next_account += fanout;

        let agg_lat = measure_post_latency(&agg, author, posts);
        let agg_seq_lat = measure_post_seq_latency(&agg.client, author, posts);
        let dis_lat = measure_post_latency(&dis, author, posts);
        println!(
            "{:<12} {:>14} {:>14} {:>16} {:>9.1}x",
            fanout,
            ms(agg_lat),
            ms(agg_seq_lat),
            ms(dis_lat),
            dis_lat.as_secs_f64() / agg_lat.as_secs_f64().max(1e-9),
        );
    }

    // Sanity: the fan-out really delivered posts.
    let check = ObjectId::new(account_id(1));
    let tl = agg.client.invoke(&check, "get_timeline", vec![VmValue::Int(5)], true).unwrap();
    assert!(!tl.as_list().unwrap().is_empty(), "follower timeline populated");

    agg_cluster.shutdown();
    dis_cluster.shutdown();
    println!(
        "\nshape: the sequential reference pays one replication round trip per\n\
         follower, the author's write riding in the first; the scatter (\"running\n\
         the store_post calls in parallel\", §3.2) issues every branch from the\n\
         calling thread and ships their write sets and the author's as one round,\n\
         so its latency stays near one replication round trip whatever the fan-out\n\
         (ratio = disaggregated / aggregated)."
    );
}
