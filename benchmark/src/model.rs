//! The output check. The harness's model of what the cluster must hold is
//! the recorded streams themselves: every post and follow that was
//! acknowledged. After the run a seeded sample of accounts is read back
//! from the shard's primary and compared with it.

use std::collections::{BTreeSet, HashMap, HashSet};

use lambda_objects::ObjectId;
use lambda_retwis::{account_id, parse_post};
use lambda_store::{StoreRequest, StoreResponse};
use lambda_vm::VmValue;

use crate::cluster::{object_id, Cluster};
use crate::driver::{Outcome, Stream};
use crate::rng::SplitMix64;
use crate::schedule::Op;
use crate::spec::{ACCOUNTS, CHECKED_ACCOUNTS};

/// One post the harness sent.
#[derive(Debug, Clone, PartialEq)]
struct Post {
    author: u32,
    issued_ns: u64,
    /// When the acknowledgement arrived; `None` if none did, in which case
    /// the post may or may not have been stored.
    acked_ns: Option<u64>,
}

/// The harness-side model.
#[derive(Debug, Default)]
pub struct Model {
    /// By message, which is unique per post.
    posts: HashMap<String, Post>,
    /// `(target, follower)` of every follow sent, with whether it was acked.
    follows: Vec<(u32, u32, bool)>,
}

impl Model {
    /// The streams of one run, in the order they ran. Times are put on the
    /// first stream's clock, so that "acknowledged before the other was
    /// sent" can be decided across streams.
    pub fn from_streams(streams: &[&Stream]) -> Model {
        let mut model = Model::default();
        for &stream in streams {
            let offset_ns =
                stream.origin.saturating_duration_since(streams[0].origin).as_nanos() as u64;
            let mut acked: Vec<Option<u64>> = vec![None; stream.requests.len()];
            for c in &stream.completions {
                if c.outcome == Outcome::Ok {
                    acked[c.request as usize] = Some(offset_ns + c.done_ns);
                }
            }
            for (i, request) in stream.requests.iter().enumerate() {
                match request.op {
                    Op::Post => {
                        let post = Post {
                            author: request.object,
                            issued_ns: offset_ns + stream.issued_ns[i],
                            acked_ns: acked[i],
                        };
                        model.posts.insert(stream.post_message(i), post);
                    }
                    Op::Follow => {
                        model.follows.push((request.object, request.arg, acked[i].is_some()))
                    }
                    Op::Timeline => {}
                }
            }
        }
        model
    }

    pub fn acked_posts(&self) -> usize {
        self.posts.values().filter(|p| p.acked_ns.is_some()).count()
    }

    pub fn acked_follows(&self) -> usize {
        self.follows.iter().filter(|f| f.2).count()
    }

    /// Check `reader`'s full timeline, newest first as the cluster returned
    /// it, given the accounts the reader follows.
    fn check_timeline(&self, reader: u32, follows: &[u32], rows: &[Vec<u8>]) -> Result<(), String> {
        let visible = |author: u32| author == reader || follows.contains(&author);
        let parsed: Vec<(String, String)> = rows
            .iter()
            .map(|row| parse_post(row).ok_or_else(|| format!("unparseable row {row:?}")))
            .collect::<Result<_, _>>()?;
        let mut seen: Vec<(&str, &Post)> = Vec::with_capacity(rows.len());
        let mut listed: HashSet<&str> = HashSet::with_capacity(rows.len());
        for (author, message) in &parsed {
            let post = self
                .posts
                .get(message)
                .ok_or_else(|| format!("timeline of {reader} holds unknown post {message:?}"))?;
            if author.as_bytes() != account_id(post.author as usize) || !visible(post.author) {
                return Err(format!(
                    "timeline of {reader}: post {message:?} by {author} is misplaced"
                ));
            }
            if !listed.insert(message.as_str()) {
                return Err(format!("timeline of {reader} holds post {message:?} twice"));
            }
            seen.push((message, post));
        }
        for (message, post) in &self.posts {
            if post.acked_ns.is_some() && visible(post.author) && !listed.contains(message.as_str())
            {
                return Err(format!("timeline of {reader} lacks acked post {message:?}"));
            }
        }
        // Newest first: a post that was acknowledged before another was even
        // sent must come after it.
        for (i, (newer_msg, newer)) in seen.iter().enumerate() {
            for (older_msg, older) in &seen[i + 1..] {
                if newer.acked_ns.is_some_and(|acked| acked < older.issued_ns) {
                    return Err(format!(
                        "timeline of {reader}: {newer_msg:?} listed before the later {older_msg:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Check `target`'s follower list given who followed it while the graph
    /// was loaded.
    fn check_followers(&self, target: u32, loaded: &[u32], rows: &[Vec<u8>]) -> Result<(), String> {
        let listed: BTreeSet<&[u8]> = rows.iter().map(Vec::as_slice).collect();
        let sent: Vec<(u32, bool)> =
            self.follows.iter().filter(|f| f.0 == target).map(|f| (f.1, f.2)).collect();
        for &follower in loaded.iter().chain(sent.iter().filter(|f| f.1).map(|f| &f.0)) {
            if !listed.contains(account_id(follower as usize).as_slice()) {
                return Err(format!("followers of {target} lack acked follower {follower}"));
            }
        }
        for row in &listed {
            let known = loaded.iter().chain(sent.iter().map(|f| &f.0));
            if !known.into_iter().any(|&f| account_id(f as usize) == *row) {
                return Err(format!("followers of {target} hold unknown {row:?}"));
            }
        }
        Ok(())
    }
}

/// What the check read.
#[derive(Debug, Default, Clone, Copy)]
pub struct CheckReport {
    pub timelines: usize,
    pub follower_lists: usize,
    pub rows: usize,
}

fn rows_of(value: &VmValue) -> Option<Vec<Vec<u8>>> {
    value.as_list()?.iter().map(|v| v.as_bytes().map(<[u8]>::to_vec)).collect()
}

/// Read back a seeded sample and compare it with the model: timelines of
/// `CHECKED_ACCOUNTS` accounts drawn uniformly, and the follower lists of
/// the targets of up to as many acknowledged follows drawn from the stream
/// (so hot targets are checked in proportion to their traffic).
pub fn check(cluster: &Cluster, model: &Model, seed: u64) -> Result<CheckReport, String> {
    let mut rng = SplitMix64::new(seed ^ 0x6368_6563_6b00_0004);
    let client = cluster.inner.client();
    client.pin_reads_to_primary(true);
    let mut report = CheckReport::default();
    let result = (|| {
        let readers: BTreeSet<u32> =
            (0..CHECKED_ACCOUNTS).map(|_| rng.below(ACCOUNTS) as u32).collect();
        for reader in readers {
            let value = client
                .invoke(&object_id(reader), "get_timeline", vec![VmValue::Int(1 << 40)], true)
                .map_err(|e| format!("read back timeline of {reader}: {e}"))?;
            let rows = rows_of(&value).ok_or("timeline is not a list of byte strings")?;
            model.check_timeline(reader, &cluster.graph[reader as usize], &rows)?;
            report.timelines += 1;
            report.rows += rows.len();
        }

        let acked: Vec<u32> = model.follows.iter().filter(|f| f.2).map(|f| f.0).collect();
        let targets: BTreeSet<u32> = if acked.is_empty() {
            BTreeSet::new()
        } else {
            (0..CHECKED_ACCOUNTS).map(|_| acked[rng.below(acked.len())]).collect()
        };
        for target in targets {
            let object: ObjectId = object_id(target);
            let (_, shard) = client.placement().locate(&object).ok_or("no shard")?;
            let request = StoreRequest::RawScan {
                object: object.0.clone(),
                field: b"followers".to_vec(),
                limit: u64::MAX,
                newest_first: false,
            };
            let rows = match client.raw(shard.primary, &request) {
                Ok(StoreResponse::Rows(rows)) => rows,
                other => return Err(format!("read back followers of {target}: {other:?}")),
            };
            let loaded: Vec<u32> = (0..ACCOUNTS as u32)
                .filter(|&f| cluster.graph[f as usize].contains(&target))
                .collect();
            model.check_followers(target, &loaded, &rows)?;
            report.follower_lists += 1;
            report.rows += rows.len();
        }
        Ok(report)
    })();
    client.shutdown();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Boundary, Completion};
    use crate::schedule::Request;

    fn row(author: u32, message: &str) -> Vec<u8> {
        let mut r = account_id(author as usize);
        r.push(b'|');
        r.extend_from_slice(message.as_bytes());
        r
    }

    /// Account 1 posts a0 then a1 (a0 acked before a1 is sent), account 2
    /// posts a2 which is never acked, account 3 is followed by 9 (acked) and
    /// by 8 (not acked).
    fn model() -> Model {
        let requests = vec![
            Request { due_ns: 0, op: Op::Post, object: 1, arg: 0 },
            Request { due_ns: 100, op: Op::Post, object: 1, arg: 0 },
            Request { due_ns: 200, op: Op::Post, object: 2, arg: 0 },
            Request { due_ns: 300, op: Op::Follow, object: 3, arg: 9 },
            Request { due_ns: 400, op: Op::Follow, object: 3, arg: 8 },
        ];
        let ok = |request, done_ns| Completion { request, done_ns, outcome: Outcome::Ok };
        let stream = Stream {
            origin: std::time::Instant::now(),
            tag: 'a',
            issued_ns: requests.iter().map(|r| r.due_ns).collect(),
            issue_end_ns: requests.iter().map(|r| r.due_ns).collect(),
            requests,
            completions: vec![
                ok(0, 50),
                ok(1, 150),
                Completion { request: 2, done_ns: 250, outcome: Outcome::Failed },
                ok(3, 350),
            ],
            boundaries: Vec::<Boundary>::new(),
        };
        Model::from_streams(&[&stream])
    }

    #[test]
    fn counts_acked_writes() {
        let m = model();
        assert_eq!((m.acked_posts(), m.acked_follows()), (2, 1));
    }

    #[test]
    fn a_correct_timeline_passes() {
        let m = model();
        // Reader 7 follows 1 and 2; the unacked a2 may be there or not.
        assert_eq!(m.check_timeline(7, &[1, 2], &[row(1, "a1"), row(1, "a0")]), Ok(()));
        assert_eq!(
            m.check_timeline(7, &[1, 2], &[row(2, "a2"), row(1, "a1"), row(1, "a0")]),
            Ok(())
        );
        // The author sees their own posts.
        assert_eq!(m.check_timeline(1, &[], &[row(1, "a1"), row(1, "a0")]), Ok(()));
        // Someone who follows nobody sees nothing.
        assert_eq!(m.check_timeline(5, &[], &[]), Ok(()));
    }

    #[test]
    fn a_wrong_timeline_fails() {
        let m = model();
        let err = |rows: &[Vec<u8>]| m.check_timeline(7, &[1, 2], rows).unwrap_err();
        assert!(err(&[row(1, "a1")]).contains("lacks acked post"));
        assert!(err(&[row(1, "a1"), row(1, "a0"), row(1, "a0")]).contains("twice"));
        assert!(err(&[row(1, "a0"), row(1, "a1")]).contains("listed before the later"));
        assert!(err(&[row(1, "a1"), row(1, "a0"), row(1, "zz")]).contains("unknown post"));
        assert!(err(&[row(2, "a1"), row(1, "a0")]).contains("misplaced"));
        assert!(m.check_timeline(5, &[], &[row(1, "a0")]).unwrap_err().contains("misplaced"));
        assert!(err(&[b"no separator".to_vec()]).contains("unparseable"));
    }

    #[test]
    fn follower_lists() {
        let m = model();
        let id = |f: u32| account_id(f as usize);
        assert_eq!(m.check_followers(3, &[4], &[id(4), id(9)]), Ok(()));
        assert_eq!(m.check_followers(3, &[4], &[id(4), id(9), id(8), id(9)]), Ok(()));
        assert!(m
            .check_followers(3, &[4], &[id(4)])
            .unwrap_err()
            .contains("lack acked follower 9"));
        assert!(m
            .check_followers(3, &[4], &[id(9)])
            .unwrap_err()
            .contains("lack acked follower 4"));
        assert!(m
            .check_followers(3, &[4], &[id(4), id(9), id(5)])
            .unwrap_err()
            .contains("unknown"));
    }
}
