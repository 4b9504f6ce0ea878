//! `--selfcheck N`: the repeatability gate. Runs every workload N times as
//! the driver would (one process per run, a different seed each time) and
//! prints, for each end-to-end metric, the median, the quartiles and
//! (Q3 - Q1) / median against the metric's bound.

use std::process::Command;

use crate::spec::{Workload, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, spread};

/// The number after `"<name>": {"value": ` in a result line.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// The result line of one run, and whether the run called itself invalid
/// (its calmest windows were stolen from).
fn run_once(workload: &Workload, seed: u64, seconds: usize) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    if !out.status.success()
        || !line.contains("\"correct\": true")
        || !line.contains("\"failed\": 0,")
    {
        return Err(format!(
            "{} seed {seed}: {} {line}\n{}",
            workload.name,
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok((line, stdout.contains("INVALID RUN")))
}

/// Returns whether every spread stayed within its bound and every run was
/// good.
pub fn run(runs: usize, seconds: usize, first_seed: u64) -> Result<bool, String> {
    if runs < 2 {
        return Err("--selfcheck needs at least 2 runs".into());
    }
    let mut all_within = true;
    let mut bad_runs = 0;
    println!(
        "{:<14} {:<14} {:>10} {:>10} {:>10} {:>8} {:>6}  values",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for workload in &WORKLOADS {
        let mut lines = Vec::new();
        for i in 0..runs {
            // A run that fails, is incorrect or has failed operations is
            // reported and counted, and fails the gate at the end; the other
            // runs still say what they measured.
            match run_once(workload, first_seed + i as u64, seconds) {
                Ok((line, invalid)) => {
                    let note = if invalid { " (INVALID RUN: stolen from)" } else { "" };
                    eprintln!("{} run {}/{runs}{note}: {line}", workload.name, i + 1);
                    lines.push(line);
                }
                Err(e) => {
                    eprintln!("{} run {}/{runs} BAD: {e}", workload.name, i + 1);
                    bad_runs += 1;
                }
            }
        }
        if lines.len() < 2 {
            return Err(format!("{}: fewer than two good runs", workload.name));
        }
        for metric in &END_TO_END {
            let values: Vec<f64> = lines
                .iter()
                .map(|l| metric_value(l, metric.name).ok_or_else(|| format!("no {}", metric.name)))
                .collect::<Result<_, _>>()?;
            let (q1, q3) = quartiles(&values);
            let m = median(&values);
            let spread = spread(&values);
            let within = spread <= metric.bound;
            all_within &= within;
            println!(
                "{:<14} {:<14} {:>10.4} {:>10.4} {:>10.4} {:>7.2}% {:>5.0}%{} {}",
                workload.name,
                metric.name,
                m,
                q1,
                q3,
                spread * 100.0,
                metric.bound * 100.0,
                if within { " " } else { "!" },
                values.iter().map(|v| format!("{v:.4}")).collect::<Vec<_>>().join(" "),
            );
        }
    }
    println!(
        "{bad_runs} of {} runs failed, were incorrect or had failed operations",
        runs * WORKLOADS.len()
    );
    Ok(all_within && bad_runs == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_metric_out_of_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
                    {\"lat_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
                    \"setup_s\": {\"value\": 2, \"unit\": \"s\"}}}";
        assert_eq!(metric_value(line, "lat_p50_ms"), Some(1.25));
        assert_eq!(metric_value(line, "setup_s"), Some(2.0));
        assert_eq!(metric_value(line, "lat_p95_ms"), None);
    }
}
