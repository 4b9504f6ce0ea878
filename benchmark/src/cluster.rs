//! Set-up: build the aggregated cluster from the pinned configuration,
//! deploy the ReTwis `User` type and load the follow graph, all from one
//! thread with a bounded number of asynchronous requests outstanding.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lambda_net::{null_handler, wire, NodeId, RpcNode};
use lambda_objects::{InvocationContext, ObjectId};
use lambda_retwis::{account_id, user_fields, user_module, USER_TYPE};
use lambda_store::{ids, proto, AggregatedCluster, StoreClient, StoreRequest, StoreResponse};
use lambda_vm::VmValue;

use crate::countvfs::CountingVfs;
use crate::schedule;
use crate::spec::{self, Workload, ACCOUNTS, CLIENT_ENDPOINTS, CLIENT_TIMEOUT, LOAD_OUTSTANDING};

/// Where the benchmark keeps what it writes: `out/` in its own directory,
/// which the repository's `.gitignore` names. `cargo run` and `cargo test`
/// tell the process where the package is now; a binary started by hand
/// falls back on where it was built.
pub fn out_dir() -> PathBuf {
    let package = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    package.join("out")
}

/// Where data directories go: tmpfs, so that the shared virtual disk under
/// the checkout (whose `fsync` time follows the neighbours' I/O) stays out
/// of the end-to-end numbers. `fsync` is still issued, by the real
/// filesystem code, and counted. Without a writable `/dev/shm` the data
/// goes to `out/` in the checkout, and the report says so.
fn data_root() -> (PathBuf, &'static str) {
    let shm = Path::new("/dev/shm");
    let probe = shm.join(format!("lambda-benchmark-probe-{}", std::process::id()));
    if std::fs::create_dir(&probe).is_ok() {
        let _ = std::fs::remove_dir(&probe);
        (shm.to_path_buf(), "tmpfs")
    } else {
        (out_dir(), "the checkout's disk: /dev/shm is not writable")
    }
}

/// A directory that is removed when the guard is dropped: on success, on a
/// failed check and while a panic unwinds alike.
#[derive(Debug)]
pub struct DataDir {
    path: PathBuf,
    /// What kind of storage the directory is on, for the report.
    pub medium: &'static str,
}

impl DataDir {
    /// A fresh directory on tmpfs if there is one.
    pub fn create(label: &str) -> std::io::Result<DataDir> {
        let (root, medium) = data_root();
        DataDir::create_in(&root, medium, label)
    }

    /// A fresh directory on the checkout's real disk.
    pub fn create_on_disk(label: &str) -> std::io::Result<DataDir> {
        DataDir::create_in(&out_dir(), "the checkout's disk", label)
    }

    fn create_in(root: &Path, medium: &'static str, label: &str) -> std::io::Result<DataDir> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("lambda-benchmark-{}-{n}-{label}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(DataDir { path, medium })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Bytes of the regular files under `dir`; what cannot be read counts 0.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A running, loaded cluster. Dropping it stops every node and client and
/// then removes the data directory.
pub struct Cluster {
    pub inner: AggregatedCluster,
    pub clients: Vec<StoreClient>,
    pub vfs: Arc<CountingVfs>,
    /// `graph[i]`: the accounts that account `i` follows.
    pub graph: Vec<Vec<u32>>,
    /// The configuration the cluster was built from, for the report.
    pub config_echo: String,
    // Declared last: fields drop in declaration order, and the directory
    // must outlive the nodes that hold files in it.
    dir: DataDir,
}

impl Cluster {
    pub fn data_dir(&self) -> &DataDir {
        &self.dir
    }

    /// Turn every storage node's span and histogram recording on or off.
    pub fn set_tracing(&self, on: bool) {
        for node in &self.inner.core.storage {
            node.registry().set_enabled(on);
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for client in &self.clients {
            client.shutdown();
        }
        self.inner.shutdown();
    }
}

pub fn object_id(account: u32) -> ObjectId {
    ObjectId::new(account_id(account as usize))
}

/// How long each part of one set-up took, in seconds; `setup_s` is their sum.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Threads, coordinators' election, nodes registered, placement known.
    pub build_s: f64,
    pub deploy_s: f64,
    pub accounts_s: f64,
    pub follows_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.deploy_s + self.accounts_s + self.follows_s
    }
}

/// Build, deploy and load. Returns the cluster and how long it took until
/// the first measured request could have been sent.
pub fn set_up(workload: &Workload) -> Result<(Cluster, SetupTimes), String> {
    let mut lap = Instant::now();
    let mut since_lap = || std::mem::replace(&mut lap, Instant::now()).elapsed().as_secs_f64();
    let dir = DataDir::create(workload.name).map_err(|e| format!("data directory: {e}"))?;
    let vfs = CountingVfs::over_real();
    let config =
        spec::cluster_config(dir.path().to_path_buf(), vfs.clone(), workload.result_cache_entries);
    let config_echo = format!("{config:?}");
    let inner = AggregatedCluster::build(config).map_err(|e| format!("cluster: {e}"))?;
    // Not `inner.client()`: that pins a 5-s budget (see `CLIENT_TIMEOUT`).
    let clients: Vec<StoreClient> = (0..CLIENT_ENDPOINTS)
        .map(|i| {
            let id = NodeId(ids::CLIENT_BASE + 20_000 + i as u32);
            let coordinators = inner.core.coordinator_ids.clone();
            StoreClient::new(&inner.core.net, id, coordinators, CLIENT_TIMEOUT)
        })
        .collect();
    let cluster = Cluster { inner, clients, vfs, graph: schedule::graph(), config_echo, dir };
    cluster.set_tracing(false);
    let build_s = since_lap();

    cluster.clients[0]
        .deploy_type(USER_TYPE, user_fields(), &user_module())
        .map_err(|e| format!("deploy: {e}"))?;
    let deploy_s = since_lap();
    create_accounts(&cluster)?;
    let accounts_s = since_lap();
    load_follows(&cluster)?;
    let follows_s = since_lap();
    Ok((cluster, SetupTimes { build_s, deploy_s, accounts_s, follows_s }))
}

type Done = Box<dyn FnOnce(Result<(), String>) + Send>;

/// Issue `count` asynchronous operations from this thread, at most
/// `LOAD_OUTSTANDING` at a time, and fail on the first that fails.
fn pipelined(count: usize, mut issue: impl FnMut(usize, Done)) -> Result<(), String> {
    let (tx, rx) = mpsc::channel::<Result<(), String>>();
    let mut issued = 0;
    let mut completed = 0;
    while completed < count {
        while issued < count && issued - completed < LOAD_OUTSTANDING {
            let tx = tx.clone();
            issue(
                issued,
                Box::new(move |result| {
                    let _ = tx.send(result);
                }),
            );
            issued += 1;
        }
        rx.recv_timeout(Duration::from_secs(30)).map_err(|_| "load stalled".to_string())??;
        completed += 1;
    }
    Ok(())
}

/// `StoreClient::create_object` blocks its caller, so accounts are created
/// over an endpoint of the loader's own: the same `CreateObject` request,
/// sent to the shard's primary, completed by callback.
fn create_accounts(cluster: &Cluster) -> Result<(), String> {
    let net = &cluster.inner.core.net;
    let rpc = RpcNode::start(net, NodeId(ids::CLIENT_BASE + 10_000), null_handler(), 1);
    let placement = cluster.clients[0].placement();
    let result = pipelined(ACCOUNTS, |i, done| {
        let object = object_id(i as u32);
        let Some((_, shard)) = placement.locate(&object) else {
            return done(Err(format!("no shard for {object}")));
        };
        let request = StoreRequest::CreateObject {
            type_name: USER_TYPE.to_string(),
            object: object.0.clone(),
            fields: vec![("name".to_string(), format!("user{i}").into_bytes())],
        };
        let ctx = InvocationContext::client(Duration::from_secs(5));
        let frame = proto::encode_request(&ctx, &request).expect("requests serialize");
        rpc.call_deferred(
            shard.primary,
            frame,
            Duration::from_secs(5),
            Box::new(move |reply| {
                done(match reply.map(|bytes| wire::from_bytes::<StoreResponse>(&bytes)) {
                    Ok(Ok(StoreResponse::Ok)) => Ok(()),
                    other => Err(format!("create {object}: {other:?}")),
                })
            }),
        );
    });
    rpc.shutdown();
    result
}

fn load_follows(cluster: &Cluster) -> Result<(), String> {
    let edges: Vec<(u32, u32)> = cluster
        .graph
        .iter()
        .enumerate()
        .flat_map(|(follower, targets)| targets.iter().map(move |&t| (t, follower as u32)))
        .collect();
    pipelined(edges.len(), |i, done| {
        let (target, follower) = edges[i];
        cluster.clients[i % cluster.clients.len()].invoke_async(
            &object_id(target),
            "follow",
            vec![VmValue::Bytes(account_id(follower as usize))],
            false,
            Box::new(move |result| {
                done(result.map(|_| ()).map_err(|e| format!("follow {target}<-{follower}: {e}")))
            }),
        );
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_dir_is_removed_on_drop_and_on_panic() {
        let dir = DataDir::create("guard-test").unwrap();
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("file"), b"x").unwrap();
        drop(dir);
        assert!(!path.exists());

        let (tx, rx) = mpsc::channel();
        let panicked = std::thread::spawn(move || {
            let dir = DataDir::create("guard-panic").unwrap();
            tx.send(dir.path().to_path_buf()).unwrap();
            panic!("unwinds through the guard");
        })
        .join();
        assert!(panicked.is_err());
        assert!(!rx.recv().unwrap().exists());
    }

    #[test]
    fn pipelined_bounds_outstanding_and_propagates_failure() {
        // A fake server that answers only when the window is full, or when
        // the last operation has been issued.
        let mut pending: Vec<Done> = Vec::new();
        let mut max_seen = 0;
        let ok = pipelined(200, |i, done| {
            pending.push(done);
            max_seen = max_seen.max(pending.len());
            if pending.len() == LOAD_OUTSTANDING || i == 199 {
                pending.drain(..).for_each(|d| d(Ok(())));
            }
        });
        assert_eq!(ok, Ok(()));
        assert_eq!(max_seen, LOAD_OUTSTANDING);

        let failed = pipelined(10, |i, done| {
            done(if i == 3 { Err("boom".into()) } else { Ok(()) });
        });
        assert_eq!(failed, Err("boom".to_string()));
    }
}
