//! The load generator: one thread offers a pre-generated request stream on
//! its schedule (open loop) or as fast as a bounded window allows (the
//! saturation probe), completions arrive by callback, and the thread reads
//! the host's counters at every window boundary.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use lambda_objects::InvokeError;
use lambda_retwis::account_id;
use lambda_vm::VmValue;

use crate::cluster::{object_id, Cluster};
use crate::procstat::{self, CpuSample};
use crate::schedule::{Op, Request};
use crate::spec::{DRAIN_LIMIT, TIMELINE_LIMIT, WARMUP, WINDOW};

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// Refused by admission control after the client's retries.
    Overloaded,
    DeadlineExceeded,
    /// Any other error, a reply of the wrong shape, or no reply at all.
    Failed,
}

#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Index into the stream's requests.
    pub request: u32,
    /// Nanoseconds from the stream's origin.
    pub done_ns: u64,
    pub outcome: Outcome,
}

/// The counters read at one window boundary.
#[derive(Debug, Clone, Copy)]
pub struct Boundary {
    /// When they were read, in nanoseconds from the stream's origin.
    pub at_ns: u64,
    pub cpu: CpuSample,
    /// Requests completed so far, whatever their outcome.
    pub completed: u64,
}

/// Everything one stream of requests left behind. Latency, the model of
/// acknowledged writes and the harness-side spans are all derived from it
/// after the run, so the generator's loop does nothing but offer load.
#[derive(Debug)]
pub struct Stream {
    /// The instant every time in the stream is counted from.
    pub origin: Instant,
    /// Prefix of this stream's post messages, so that two streams of one
    /// run never produce the same post.
    pub tag: char,
    pub requests: Vec<Request>,
    /// When the generator called the client, and when the call returned.
    pub issued_ns: Vec<u64>,
    pub issue_end_ns: Vec<u64>,
    pub completions: Vec<Completion>,
    /// `windows + 1` readings: window `k` lies between readings `k`, `k + 1`.
    pub boundaries: Vec<Boundary>,
}

impl Stream {
    pub fn post_message(&self, request: usize) -> String {
        post_message(self.tag, request)
    }
}

/// The text of the post that request `index` of the stream tagged `tag`
/// creates: unique within a run, and the model's key for the post.
fn post_message(tag: char, index: usize) -> String {
    format!("{tag}{index}")
}

/// State shared with the completion callbacks.
struct Collector {
    origin: Instant,
    completions: Mutex<Vec<Completion>>,
    completed: AtomicU64,
}

impl Collector {
    fn new(origin: Instant, capacity: usize) -> Arc<Collector> {
        Arc::new(Collector {
            origin,
            completions: Mutex::new(Vec::with_capacity(capacity)),
            completed: AtomicU64::new(0),
        })
    }

    fn boundary(&self) -> Boundary {
        Boundary {
            at_ns: self.origin.elapsed().as_nanos() as u64,
            cpu: procstat::sample(),
            completed: self.completed.load(Ordering::Relaxed),
        }
    }
}

fn classify(op: Op, result: Result<VmValue, InvokeError>) -> Outcome {
    match result {
        Ok(value) => {
            let shape_ok = match op {
                Op::Timeline => value.as_list().is_some_and(|rows| {
                    rows.len() <= TIMELINE_LIMIT as usize
                        && rows.iter().all(|r| r.as_bytes().is_some())
                }),
                Op::Post | Op::Follow => true,
            };
            if shape_ok {
                Outcome::Ok
            } else {
                Outcome::Failed
            }
        }
        Err(InvokeError::Overloaded(_)) => Outcome::Overloaded,
        Err(InvokeError::DeadlineExceeded) => Outcome::DeadlineExceeded,
        Err(_) => Outcome::Failed,
    }
}

/// Hand request `index` to a client endpoint; `extra` runs after the
/// completion is recorded.
fn issue(
    cluster: &Cluster,
    collector: &Arc<Collector>,
    tag: char,
    index: usize,
    request: &Request,
    extra: impl FnOnce() + Send + 'static,
) {
    let (method, args, read_only) = match request.op {
        Op::Post => ("create_post", vec![VmValue::str(post_message(tag, index))], false),
        Op::Timeline => ("get_timeline", vec![VmValue::Int(TIMELINE_LIMIT)], true),
        Op::Follow => ("follow", vec![VmValue::Bytes(account_id(request.arg as usize))], false),
    };
    let op = request.op;
    let collector = Arc::clone(collector);
    cluster.clients[index % cluster.clients.len()].invoke_async(
        &object_id(request.object),
        method,
        args,
        read_only,
        Box::new(move |result| {
            let done_ns = collector.origin.elapsed().as_nanos() as u64;
            let outcome = classify(op, result);
            collector
                .completions
                .lock()
                .expect("callbacks do not panic while recording")
                .push(Completion { request: index as u32, done_ns, outcome });
            collector.completed.fetch_add(1, Ordering::Relaxed);
            extra();
        }),
    );
}

fn sleep_until(target: Instant) {
    let now = Instant::now();
    if target > now {
        std::thread::sleep(target - now);
    }
}

/// Wait for the stragglers; one that has no reply by the limit has no
/// completion and counts as failed.
fn drain(collector: &Collector, issued: u64) {
    let limit = Instant::now() + DRAIN_LIMIT;
    while collector.completed.load(Ordering::Relaxed) < issued && Instant::now() < limit {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Start of window `k`, in nanoseconds from the stream's origin.
pub fn window_start_ns(k: usize) -> u64 {
    (WARMUP + WINDOW * k as u32).as_nanos() as u64
}

/// The window a request due at `due_ns` belongs to; `None` during warm-up.
pub fn window_of(due_ns: u64) -> Option<usize> {
    let measured_ns = due_ns.checked_sub(WARMUP.as_nanos() as u64)?;
    Some((measured_ns / WINDOW.as_nanos() as u64) as usize)
}

/// Offer `requests` at their due times: `WARMUP` of unmeasured load, then
/// `windows` windows. `at_boundary(k)` runs on the generator thread right
/// after the counters of boundary `k` (the start of window `k`) are read.
/// Requests due after the last window are not offered and are dropped from
/// the stream.
pub fn run_open_loop(
    cluster: &Cluster,
    tag: char,
    mut requests: Vec<Request>,
    windows: usize,
    mut at_boundary: impl FnMut(usize),
) -> Stream {
    let origin = Instant::now();
    let collector = Collector::new(origin, requests.len());
    let mut issued_ns = Vec::with_capacity(requests.len());
    let mut issue_end_ns = Vec::with_capacity(requests.len());
    let mut boundaries: Vec<Boundary> = Vec::with_capacity(windows + 1);
    let at = |ns: u64| origin + Duration::from_nanos(ns);

    // Read the counters at every boundary up to `due_ns`.
    let mut pass_boundaries = |due_ns: u64, boundaries: &mut Vec<Boundary>| {
        while boundaries.len() <= windows && window_start_ns(boundaries.len()) <= due_ns {
            sleep_until(at(window_start_ns(boundaries.len())));
            boundaries.push(collector.boundary());
            at_boundary(boundaries.len() - 1);
        }
    };
    let end_ns = window_start_ns(windows);
    for (index, request) in requests.iter().enumerate() {
        if request.due_ns >= end_ns {
            break;
        }
        pass_boundaries(request.due_ns, &mut boundaries);
        sleep_until(at(request.due_ns));
        issued_ns.push(origin.elapsed().as_nanos() as u64);
        issue(cluster, &collector, tag, index, request, || ());
        issue_end_ns.push(origin.elapsed().as_nanos() as u64);
    }
    pass_boundaries(end_ns, &mut boundaries);
    requests.truncate(issued_ns.len());
    drain(&collector, requests.len() as u64);

    let completions = std::mem::take(&mut *collector.completions.lock().expect("recording"));
    Stream { origin, tag, requests, issued_ns, issue_end_ns, completions, boundaries }
}

/// Offer `requests` as fast as `outstanding` requests in flight allow, for
/// `windows` windows (due times are ignored). Requests left over are not
/// sent; the stream is cut to what was.
pub fn run_flood(
    cluster: &Cluster,
    tag: char,
    mut requests: Vec<Request>,
    windows: usize,
    outstanding: usize,
) -> Stream {
    let origin = Instant::now();
    let collector = Collector::new(origin, requests.len());
    let (freed_tx, freed_rx) = mpsc::channel::<()>();
    let mut issued_ns = Vec::new();
    let mut issue_end_ns = Vec::new();
    let mut boundaries = vec![collector.boundary()];
    let mut in_flight = 0usize;

    let mut next = 0;
    loop {
        while freed_rx.try_recv().is_ok() {
            in_flight -= 1;
        }
        let now = origin.elapsed();
        let next_boundary = WINDOW * boundaries.len() as u32;
        if now >= next_boundary {
            boundaries.push(collector.boundary());
            if boundaries.len() > windows {
                break;
            }
        } else if next == requests.len() {
            break;
        } else if in_flight < outstanding {
            let freed = freed_tx.clone();
            issued_ns.push(now.as_nanos() as u64);
            issue(cluster, &collector, tag, next, &requests[next], move || {
                let _ = freed.send(());
            });
            issue_end_ns.push(origin.elapsed().as_nanos() as u64);
            in_flight += 1;
            next += 1;
        } else if freed_rx.recv_timeout(next_boundary - now).is_ok() {
            in_flight -= 1;
        }
    }
    requests.truncate(next);
    drain(&collector, next as u64);

    let completions = std::mem::take(&mut *collector.completions.lock().expect("recording"));
    Stream { origin, tag, requests, issued_ns, issue_end_ns, completions, boundaries }
}
