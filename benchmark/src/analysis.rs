//! From a recorded stream to per-window values, and from the calmest
//! windows to the numbers that are reported.

use crate::driver::{window_of, Outcome, Stream};
use crate::procstat::TICKS_PER_S;
use crate::spec::MAX_KEPT_STEAL_PCT;
use crate::stats::{calmest, kept_count, median, percentile};

/// What one window measured. Requests belong to the window they were due
/// in; CPU time and completions are what the counters read at its two
/// boundaries differ by.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Latency from the due time in µs, ascending. A request that failed is
    /// `u64::MAX`: it misses every latency limit.
    pub latency_us: Vec<u64>,
    /// The same for successful reads and writes alone.
    pub read_us: Vec<u64>,
    pub write_us: Vec<u64>,
    /// How late the generator handed each request over, in µs, ascending.
    pub gen_lag_us: Vec<u64>,
    pub failed: usize,
    pub steal_ticks: u64,
    pub host_ticks: u64,
    pub process_ticks: u64,
    pub completed: u64,
}

impl Window {
    pub fn p50_ms(&self) -> f64 {
        percentile(&self.latency_us, 0.50) as f64 / 1e3
    }

    pub fn p95_ms(&self) -> f64 {
        percentile(&self.latency_us, 0.95) as f64 / 1e3
    }
}

/// Split an open-loop stream into its measured windows (warm-up requests
/// belong to none).
pub fn windows(stream: &Stream) -> Vec<Window> {
    let n = stream.boundaries.len().saturating_sub(1);
    let mut out = vec![Window::default(); n];
    if n == 0 {
        return out;
    }
    let mut outcome: Vec<Option<(u64, Outcome)>> = vec![None; stream.requests.len()];
    for c in &stream.completions {
        outcome[c.request as usize] = Some((c.done_ns, c.outcome));
    }
    for (i, request) in stream.requests.iter().enumerate() {
        let Some(k) = window_of(request.due_ns).filter(|&k| k < n) else { continue };
        let w = &mut out[k];
        w.gen_lag_us.push(stream.issued_ns[i].saturating_sub(request.due_ns) / 1000);
        match outcome[i] {
            Some((done_ns, Outcome::Ok)) => {
                let us = done_ns.saturating_sub(request.due_ns) / 1000;
                w.latency_us.push(us);
                if request.op.is_write() { &mut w.write_us } else { &mut w.read_us }.push(us);
            }
            _ => {
                w.latency_us.push(u64::MAX);
                w.failed += 1;
            }
        }
    }
    for (k, w) in out.iter_mut().enumerate() {
        w.latency_us.sort_unstable();
        w.read_us.sort_unstable();
        w.write_us.sort_unstable();
        w.gen_lag_us.sort_unstable();
        let (a, b) = (&stream.boundaries[k], &stream.boundaries[k + 1]);
        w.steal_ticks = b.cpu.host.steal.saturating_sub(a.cpu.host.steal);
        w.host_ticks = b.cpu.host.total.saturating_sub(a.cpu.host.total);
        w.process_ticks = b.cpu.process_ticks.saturating_sub(a.cpu.process_ticks);
        w.completed = b.completed - a.completed;
    }
    out
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn pooled(windows: &[&Window], pick: impl Fn(&Window) -> &Vec<u64>) -> Vec<u64> {
    let mut all: Vec<u64> = windows.iter().flat_map(|w| pick(w).iter().copied()).collect();
    all.sort_unstable();
    all
}

/// The reported numbers of one open-loop stream.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Indices of the windows the numbers below are taken from.
    pub kept: Vec<usize>,
    /// Median over kept windows of the window's median and p95.
    pub lat_p50_ms: f64,
    pub lat_p95_ms: f64,
    /// Process CPU time in the kept windows over requests completed in them.
    pub cpu_us_per_op: f64,
    pub steal_pct_all: f64,
    pub steal_pct_kept: f64,
    /// Over the kept windows' requests, pooled.
    pub gen_lag_p99_ms: f64,
    pub lat_p99_ms: f64,
    pub read_p50_ms: f64,
    pub write_p50_ms: f64,
    /// Requests due in the kept windows.
    pub samples: usize,
    /// Whether both the host's and the process's tick counters moved over
    /// the kept windows. A host without readable `/proc` counters reads as
    /// zeros, which would report the best possible CPU cost.
    pub counters_advanced: bool,
}

impl Summary {
    /// Why the numbers cannot be trusted, if they cannot: the counters the
    /// protocol rests on did not move, or even the calmest windows were
    /// stolen from.
    pub fn invalid(&self) -> Option<String> {
        if !self.counters_advanced {
            Some("/proc/stat or /proc/self/stat did not advance over the kept windows".into())
        } else if self.steal_pct_kept > MAX_KEPT_STEAL_PCT {
            Some(format!(
                "the kept windows carry {:.2}% steal (> {MAX_KEPT_STEAL_PCT}%)",
                self.steal_pct_kept
            ))
        } else {
            None
        }
    }
}

/// Summary over the calmest third of the windows (and those that tie with
/// the last of them, see `stats::calmest`).
pub fn summarize(windows: &[Window]) -> Summary {
    let all = (0..windows.len()).collect();
    summarize_kept(windows, kept_of(windows, all, kept_count(windows.len())))
}

/// The `keep` windows among `candidates` that the host stole least from,
/// and those that tie with the last of them.
pub fn kept_of(windows: &[Window], candidates: Vec<usize>, keep: usize) -> Vec<usize> {
    let steal: Vec<u64> = candidates.iter().map(|&k| windows[k].steal_ticks).collect();
    calmest(&steal, keep).into_iter().map(|i| candidates[i]).collect()
}

pub fn summarize_kept(windows: &[Window], kept: Vec<usize>) -> Summary {
    let kept_windows: Vec<&Window> = kept.iter().map(|&k| &windows[k]).collect();
    let sum = |ws: &[&Window], f: fn(&Window) -> u64| ws.iter().map(|w| f(w)).sum::<u64>();
    let all: Vec<&Window> = windows.iter().collect();
    let per_window =
        |f: fn(&Window) -> f64| median(&kept_windows.iter().map(|w| f(w)).collect::<Vec<_>>());
    let completed = sum(&kept_windows, |w| w.completed);
    let cpu_us = sum(&kept_windows, |w| w.process_ticks) as f64 * 1e6 / TICKS_PER_S;
    Summary {
        lat_p50_ms: per_window(Window::p50_ms),
        lat_p95_ms: per_window(Window::p95_ms),
        cpu_us_per_op: if completed == 0 { 0.0 } else { cpu_us / completed as f64 },
        steal_pct_all: pct(sum(&all, |w| w.steal_ticks), sum(&all, |w| w.host_ticks)),
        steal_pct_kept: pct(
            sum(&kept_windows, |w| w.steal_ticks),
            sum(&kept_windows, |w| w.host_ticks),
        ),
        gen_lag_p99_ms: percentile(&pooled(&kept_windows, |w| &w.gen_lag_us), 0.99) as f64 / 1e3,
        lat_p99_ms: percentile(&pooled(&kept_windows, |w| &w.latency_us), 0.99) as f64 / 1e3,
        read_p50_ms: percentile(&pooled(&kept_windows, |w| &w.read_us), 0.50) as f64 / 1e3,
        write_p50_ms: percentile(&pooled(&kept_windows, |w| &w.write_us), 0.50) as f64 / 1e3,
        samples: kept_windows.iter().map(|w| w.latency_us.len()).sum(),
        counters_advanced: sum(&kept_windows, |w| w.host_ticks) > 0
            && sum(&kept_windows, |w| w.process_ticks) > 0,
        kept,
    }
}

/// One line per window for the report; kept windows are starred, and
/// `mark` adds a column of the caller's.
pub fn print_windows(windows: &[Window], kept: &[usize], mark: impl Fn(usize) -> char) {
    for (k, w) in windows.iter().enumerate() {
        println!(
            "window {k:2}{}{} p50 {:8.3} ms  p95 {:8.3} ms  steal {:3} ticks  cpu {:3} ticks  \
             done {:5}  lag max {:6} us  failed {}",
            mark(k),
            if kept.contains(&k) { '*' } else { ' ' },
            w.p50_ms(),
            w.p95_ms(),
            w.steal_ticks,
            w.process_ticks,
            w.completed,
            w.gen_lag_us.last().copied().unwrap_or(0),
            w.failed,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{window_start_ns, Boundary, Completion};
    use crate::procstat::{CpuSample, HostCpu};
    use crate::schedule::{Op, Request};

    fn boundary(k: usize, steal: u64, process_ticks: u64, completed: u64) -> Boundary {
        Boundary {
            at_ns: window_start_ns(k),
            cpu: CpuSample {
                host: HostCpu { steal, total: 200 * k as u64 + steal },
                process_ticks,
            },
            completed,
        }
    }

    /// Three windows of four requests each; the middle window is stolen
    /// from and slow, and one of its requests fails.
    fn stream() -> Stream {
        let mut requests = Vec::new();
        let mut completions = Vec::new();
        // One warm-up request that must be ignored.
        requests.push(Request { due_ns: 1_000, op: Op::Post, object: 0, arg: 0 });
        completions.push(Completion { request: 0, done_ns: 9_000_000_000, outcome: Outcome::Ok });
        for k in 0..3usize {
            for j in 0..4u64 {
                let due_ns = window_start_ns(k) + j * 100_000_000;
                let op = if j == 0 { Op::Post } else { Op::Timeline };
                requests.push(Request { due_ns, op, object: 1, arg: 0 });
                let slow = if k == 1 { 10 } else { 1 };
                let outcome = if k == 1 && j == 3 { Outcome::Failed } else { Outcome::Ok };
                completions.push(Completion {
                    request: requests.len() as u32 - 1,
                    done_ns: due_ns + (j + 1) * 1_000_000 * slow,
                    outcome,
                });
            }
        }
        let issued_ns: Vec<u64> = requests.iter().map(|r| r.due_ns + 50_000).collect();
        Stream {
            origin: std::time::Instant::now(),
            tag: 'a',
            issue_end_ns: issued_ns.clone(),
            issued_ns,
            requests,
            completions,
            boundaries: vec![
                boundary(0, 0, 0, 1),
                boundary(1, 0, 10, 5),
                boundary(2, 40, 30, 9),
                boundary(3, 40, 40, 13),
            ],
        }
    }

    #[test]
    fn requests_land_in_the_window_they_were_due_in() {
        let w = windows(&stream());
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].latency_us, vec![1000, 2000, 3000, 4000]);
        assert_eq!(w[0].write_us, vec![1000]);
        assert_eq!(w[0].read_us, vec![2000, 3000, 4000]);
        assert_eq!(w[1].latency_us, vec![10_000, 20_000, 30_000, u64::MAX]);
        assert_eq!(w[1].failed, 1);
        assert_eq!(w[0].gen_lag_us, vec![50; 4]);
        assert_eq!((w[1].steal_ticks, w[1].process_ticks, w[1].completed), (40, 20, 4));
        assert_eq!(w[0].p50_ms(), 2.0);
        assert_eq!(w[0].p95_ms(), 4.0);
    }

    #[test]
    fn summary_uses_only_the_kept_windows() {
        let w = windows(&stream());
        let s = summarize_kept(&w, vec![0]);
        assert_eq!(s.lat_p50_ms, 2.0);
        assert_eq!(s.cpu_us_per_op, 10.0 * 10_000.0 / 4.0);
        assert_eq!(s.steal_pct_kept, 0.0);
        assert!(s.steal_pct_all > 5.0);
        assert_eq!(s.samples, 4);
        assert_eq!(s.invalid(), None);

        let both_calm = summarize_kept(&w, vec![0, 2]);
        assert_eq!(both_calm.cpu_us_per_op, 20.0 * 10_000.0 / 8.0);
        assert_eq!(both_calm.write_p50_ms, 1.0);
        assert_eq!(both_calm.read_p50_ms, 3.0);
        assert_eq!(summarize(&w).kept, vec![0, 2], "a third of three is one; two tie at no steal");
        assert_eq!(kept_of(&w, vec![1, 2], 1), vec![2]);
        assert_eq!(kept_of(&w, vec![0, 1, 2], 2), vec![0, 2]);
    }

    #[test]
    fn a_run_that_cannot_be_trusted_says_why() {
        let w = windows(&stream());
        let stolen = summarize_kept(&w, vec![1]);
        assert!(stolen.invalid().unwrap().contains("steal"), "40 of 240 ticks stolen");

        // A host whose /proc files cannot be read: every counter reads 0.
        let mut blind = stream();
        for b in &mut blind.boundaries {
            b.cpu = CpuSample::default();
        }
        let s = summarize(&windows(&blind));
        assert_eq!(s.cpu_us_per_op, 0.0);
        assert!(s.invalid().unwrap().contains("did not advance"));
    }

    #[test]
    fn a_failed_request_misses_every_limit() {
        let w = windows(&stream());
        assert!(w[1].p95_ms() > 1e12);
    }
}
