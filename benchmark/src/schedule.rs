//! The inputs of a run: the follow graph that is loaded, the same in every
//! run, and the timed list of requests that is offered, a pure function of
//! the workload and `--seed`. The cluster receives only what is generated
//! here.

use crate::rng::{SplitMix64, Zipf};
use crate::spec::{Workload, ACCOUNTS, FOLLOWS_PER_ACCOUNT, GRAPH_SEED, GRAPH_THETA};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `create_post` on account `object`.
    Post,
    /// `get_timeline(TIMELINE_LIMIT)` on account `object`.
    Timeline,
    /// `follow` on account `object`, registering follower `arg`.
    Follow,
}

impl Op {
    pub fn is_write(self) -> bool {
        self != Op::Timeline
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// When the request is due, in nanoseconds from the start of the stream.
    pub due_ns: u64,
    pub op: Op,
    pub object: u32,
    pub arg: u32,
}

// Arrival times and keys draw from streams of their own, so that the same
// requests arrive in every workload with the same mix at one seed.
const ARRIVAL_STREAM: u64 = 0x6172_7269_7600_0002;
const KEY_STREAM: u64 = 0x6b65_7973_0000_0003;

/// The follow graph every run loads. `graph[i]` lists the accounts that
/// account `i` follows: distinct, never `i` itself, popular targets drawn
/// from Zipf(GRAPH_THETA). Distinct targets keep "every post appears exactly
/// once in a follower's timeline" checkable.
pub fn graph() -> Vec<Vec<u32>> {
    let zipf = Zipf::new(ACCOUNTS, GRAPH_THETA);
    let mut rng = SplitMix64::new(GRAPH_SEED);
    (0..ACCOUNTS)
        .map(|i| {
            let mut follows: Vec<u32> = Vec::with_capacity(FOLLOWS_PER_ACCOUNT);
            while follows.len() < FOLLOWS_PER_ACCOUNT {
                let target = zipf.sample(&mut rng) as u32;
                if target as usize != i && !follows.contains(&target) {
                    follows.push(target);
                }
            }
            follows
        })
        .collect()
}

/// Poisson arrivals at the workload's fixed rate over `[0, seconds)`, each
/// with its operation and keys.
pub fn requests(workload: &Workload, seed: u64, seconds: f64) -> Vec<Request> {
    let mut arrivals = SplitMix64::new(seed ^ ARRIVAL_STREAM);
    let mut keys = SplitMix64::new(seed ^ KEY_STREAM);
    let readers = Zipf::new(ACCOUNTS, workload.reader_theta);
    let targets = Zipf::new(ACCOUNTS, workload.follow_target_theta);
    let mut out = Vec::with_capacity((workload.rate_per_s * seconds * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += arrivals.exp(1.0 / workload.rate_per_s);
        if t >= seconds {
            return out;
        }
        let pick = keys.below(100) as u32;
        let (op, object, arg) = if pick < workload.post_pct {
            (Op::Post, keys.below(ACCOUNTS) as u32, 0)
        } else if pick < workload.post_pct + workload.follow_pct {
            let target = targets.sample(&mut keys) as u32;
            let mut follower = keys.below(ACCOUNTS - 1) as u32;
            if follower >= target {
                follower += 1;
            }
            (Op::Follow, target, follower)
        } else {
            (Op::Timeline, readers.sample(&mut keys) as u32, 0)
        };
        out.push(Request { due_ns: (t * 1e9) as u64, op, object, arg });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn same_seed_gives_the_same_schedule() {
        for w in &WORKLOADS {
            let a = requests(w, 42, 3.0);
            assert_eq!(a, requests(w, 42, 3.0), "{}", w.name);
            assert_ne!(a, requests(w, 43, 3.0), "{}", w.name);
            // A longer run extends the shorter one: the measured windows do
            // not depend on how many follow them.
            let longer = requests(w, 42, 5.0);
            assert_eq!(a[..], longer[..a.len()], "{}", w.name);
        }
        assert_eq!(graph(), graph());
    }

    #[test]
    fn offered_rate_and_mix_match_the_spec() {
        for w in &WORKLOADS {
            let reqs = requests(w, 1, 20.0);
            let rate = reqs.len() as f64 / 20.0;
            assert!((rate / w.rate_per_s - 1.0).abs() < 0.05, "{}: {rate}/s", w.name);
            assert!(reqs.windows(2).all(|p| p[0].due_ns <= p[1].due_ns));
            let share = |op| reqs.iter().filter(|r| r.op == op).count() as f64 / reqs.len() as f64;
            assert!((share(Op::Post) - f64::from(w.post_pct) / 100.0).abs() < 0.02, "{}", w.name);
            assert!((share(Op::Follow) - f64::from(w.follow_pct) / 100.0).abs() < 0.02);
            assert!(reqs.iter().all(|r| (r.object as usize) < ACCOUNTS));
            assert!(reqs.iter().all(|r| r.op != Op::Follow || r.arg != r.object));
        }
    }

    #[test]
    fn graph_edges_are_distinct_and_never_loops() {
        let g = graph();
        assert_eq!(g.len(), ACCOUNTS);
        for (i, follows) in g.iter().enumerate() {
            assert_eq!(follows.len(), FOLLOWS_PER_ACCOUNT);
            let mut sorted = follows.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), FOLLOWS_PER_ACCOUNT);
            assert!(!follows.contains(&(i as u32)));
        }
    }

    #[test]
    fn follow_hot_concentrates_on_one_object() {
        let w = WORKLOADS.iter().find(|w| w.name == "follow-hot").unwrap();
        let reqs = requests(w, 5, 60.0);
        let hottest = reqs.iter().filter(|r| r.object == 0).count() as f64 / reqs.len() as f64;
        assert!((hottest - 0.13).abs() < 0.02, "hottest object takes {hottest}");
    }
}
