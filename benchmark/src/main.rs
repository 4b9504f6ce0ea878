//! The repository's benchmark: steal-aware open-loop ReTwis runs on the
//! aggregated cluster, four workloads, and a per-layer ledger measured from
//! outside. See README.md in this directory.

mod analysis;
mod cluster;
mod countvfs;
mod driver;
mod ledger;
mod model;
mod probes;
mod procstat;
mod rng;
mod schedule;
mod selfcheck;
mod spans;
mod spec;
mod stats;
mod traced;

use std::process::ExitCode;

use crate::spec::Workload;

/// One run of one workload, as the driver asks for it.
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: usize,
    trace: bool,
}

enum Command {
    Run(Args),
    /// Every workload `runs` times with seeds from `first_seed` up.
    SelfCheck {
        runs: usize,
        seconds: usize,
        first_seed: u64,
    },
}

const USAGE: &str = "usage: benchmark --workload <name> --seed <n> --seconds <1..60> --trace <0|1>
       benchmark --selfcheck <runs> [--seconds <1..60>] [--seed <first>]";

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut selfcheck = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(spec::workload(value).ok_or_else(|| {
                    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => match number()? {
                s @ 1..=60 => seconds = Some(s as usize),
                _ => return Err("--seconds must be 1..=60".into()),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace must be 0 or 1".into()),
            },
            "--selfcheck" => selfcheck = Some(number()? as usize),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(runs) = selfcheck {
        return Ok(Command::SelfCheck {
            runs,
            seconds: seconds.unwrap_or(spec::RUN_SECONDS),
            first_seed: seed.unwrap_or(1),
        });
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// What every report starts with: the workload, the pinned configuration
/// and where the data lives.
pub fn report_header(w: &Workload, cluster: &cluster::Cluster) {
    println!("workload {}: {} ({}/s offered)", w.name, w.why, w.rate_per_s);
    println!(
        "graph: {} accounts x {} follows, kv memtable {} B, block cache {} B, {} endpoints, \
         client budget {:?} (an attempt is re-sent after a fifth of it)",
        spec::ACCOUNTS,
        spec::FOLLOWS_PER_ACCOUNT,
        spec::KV_MEMTABLE_BYTES,
        spec::KV_BLOCK_CACHE_BYTES,
        spec::CLIENT_ENDPOINTS,
        spec::CLIENT_TIMEOUT
    );
    println!("config: {}", cluster.config_echo);
    let dir = cluster.data_dir();
    println!(
        "data directory: {} on {} ({} B after load); flush policy: every commit fsyncs the WAL, \
         group commit on",
        dir.path().display(),
        dir.medium,
        cluster::dir_bytes(dir.path())
    );
}

fn run_end_to_end(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let mut setup_s = Vec::new();
    let mut cluster = None;
    for _ in 0..spec::SETUPS_PER_RUN {
        drop(cluster.take());
        let (c, took) = cluster::set_up(w)?;
        println!("set-up: {:.3} s = {took:.3?}", took.total_s());
        setup_s.push(took.total_s());
        cluster = Some(c);
    }
    let cluster = cluster.expect("SETUPS_PER_RUN >= 1");
    report_header(w, &cluster);

    let windows = args.seconds;
    let requests = schedule::requests(w, args.seed, driver::window_start_ns(windows) as f64 / 1e9);
    let stream = driver::run_open_loop(&cluster, 'a', requests, windows, |_| ());
    let windows = analysis::windows(&stream);
    let summary = analysis::summarize(&windows);
    analysis::print_windows(&windows, &summary.kept, |_| ' ');
    println!(
        "kept {:?}: steal {:.2}% (all windows {:.2}%), generator lag p99 {:.3} ms, {} samples, \
         {:.1} us of CPU per request",
        summary.kept,
        summary.steal_pct_kept,
        summary.steal_pct_all,
        summary.gen_lag_p99_ms,
        summary.samples,
        summary.cpu_us_per_op
    );
    if let Some(why) = summary.invalid() {
        if !summary.counters_advanced {
            return Err(why);
        }
        println!("INVALID RUN: {why}");
    }

    let model = model::Model::from_streams(&[&stream]);
    let checked = model::check(&cluster, &model, args.seed);
    let re_sent: u64 = cluster.clients.iter().map(|c| c.retries_performed()).sum();
    println!(
        "check: {checked:?} against {} acked posts, {} acked follows; {re_sent} attempts re-sent \
         since set-up",
        model.acked_posts(),
        model.acked_follows()
    );
    let attempted = stream.requests.len();
    let ok = stream.completions.iter().filter(|c| c.outcome == driver::Outcome::Ok).count();
    let values = [summary.lat_p50_ms, summary.lat_p95_ms, stats::median(&setup_s)];
    let metrics: Vec<Metric> = spec::END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric { name: m.name, value, unit: m.unit })
        .collect();
    Ok(result_line(checked.is_ok(), attempted, attempted - ok, &metrics))
}

fn run_traced(args: &Args) -> Result<String, String> {
    let run = traced::run(args.workload, args.seed, args.seconds)?;
    let metrics: Vec<Metric> = spec::PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = *run.metrics.get(name).ok_or_else(|| format!("{name} was not measured"))?;
            Ok(Metric { name, value, unit })
        })
        .collect::<Result<_, String>>()?;
    for m in &metrics {
        println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    Ok(result_line(run.correct, run.attempted, run.failed, &metrics))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&argv) {
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Command::SelfCheck { runs, seconds, first_seed }) => {
            return match selfcheck::run(runs, seconds, first_seed) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => {
                    eprintln!("selfcheck: a spread exceeds its bound, or a run was bad");
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("selfcheck failed: {e}");
                    ExitCode::from(2)
                }
            };
        }
        Ok(Command::Run(args)) if args.trace => run_traced(&args),
        Ok(Command::Run(args)) => run_end_to_end(&args),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
