//! Host steal and process CPU time from `/proc`, in clock ticks.
//!
//! Both files count in `USER_HZ` ticks, which Linux fixes at 100 per second
//! for user space whatever the kernel's own tick rate is.

/// Clock ticks per second of the `/proc` counters.
pub const TICKS_PER_S: f64 = 100.0;

/// The aggregate `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCpu {
    /// Ticks the hypervisor ran something else while a vCPU was runnable
    /// (field 8), summed over all CPUs.
    pub steal: u64,
    /// All ticks of all CPUs, steal included (fields 1 to 8; guest time is
    /// already inside user time).
    pub total: u64,
}

/// Parse the first line of `/proc/stat`. Kernels older than 2.6.11 print
/// fewer fields; a missing steal field reads as 0.
pub fn parse_host_cpu(stat: &str) -> Option<HostCpu> {
    let line = stat.lines().next()?;
    let mut fields = line.split_ascii_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let ticks: Vec<u64> = fields.take(8).map(|f| f.parse().ok()).collect::<Option<_>>()?;
    if ticks.len() < 4 {
        return None;
    }
    Some(HostCpu { steal: ticks.get(7).copied().unwrap_or(0), total: ticks.iter().sum() })
}

/// utime + stime of `/proc/<pid>/stat` (fields 14 and 15): CPU time of every
/// thread of the process. The command name (field 2) may hold spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_process_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// One reading of both counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSample {
    pub host: HostCpu,
    pub process_ticks: u64,
}

/// Read both files. A host without them (or with an unknown format) reads
/// as all zeros: every window then ties on steal and CPU cost would report
/// 0, the best possible value. `analysis::Summary::counters_advanced` sees
/// that, and the end-to-end run fails without a result.
pub fn sample() -> CpuSample {
    let read = |path| std::fs::read_to_string(path).unwrap_or_default();
    CpuSample {
        host: parse_host_cpu(&read("/proc/stat")).unwrap_or_default(),
        process_ticks: parse_process_ticks(&read("/proc/self/stat")).unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured on the 2-vCPU host this benchmark was developed on.
    const PROC_STAT: &str = "\
cpu  1379195 0 1264469 4493007 354481 0 202545 43064 0 0
cpu0 709547 0 659399 2203050 242862 0 41323 18823 0 0
cpu1 669648 0 605070 2289957 111619 0 161222 24241 0 0
intr 123456 0 0
ctxt 987654321
";

    const SELF_STAT: &str = "18098 (cat) R 18093 18098 18093 0 -1 4194304 81 0 0 0 7 5 0 0 \
20 0 1 0 4003616 2703360 283 18446744073709551615 93895012139008 93895012158889 \
140724312884096 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0 93895012174896 93895012176512 \
93895401779200 140724312892993 140724312893013 140724312893013 140724312895467 0";

    #[test]
    fn host_cpu_line() {
        let cpu = parse_host_cpu(PROC_STAT).unwrap();
        assert_eq!(cpu.steal, 43064);
        assert_eq!(cpu.total, 1379195 + 1264469 + 4493007 + 354481 + 202545 + 43064);
    }

    #[test]
    fn host_cpu_without_steal_field() {
        let cpu = parse_host_cpu("cpu  10 0 5 100\n").unwrap();
        assert_eq!(cpu, HostCpu { steal: 0, total: 115 });
        assert_eq!(parse_host_cpu("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_host_cpu("cpu  1 x 3 4\n"), None);
        assert_eq!(parse_host_cpu(""), None);
    }

    #[test]
    fn process_ticks() {
        assert_eq!(parse_process_ticks(SELF_STAT), Some(12));
    }

    #[test]
    fn process_ticks_with_a_hostile_command_name() {
        let stat = SELF_STAT.replace("(cat)", "(a) b (c d)");
        assert_eq!(parse_process_ticks(&stat), Some(12));
        assert_eq!(parse_process_ticks("1 (x) R 2 3"), None);
        assert_eq!(parse_process_ticks(""), None);
    }

    #[test]
    fn live_files_parse_on_linux() {
        if std::path::Path::new("/proc/self/stat").exists() {
            let s = sample();
            assert!(s.host.total > 0);
        }
    }
}
