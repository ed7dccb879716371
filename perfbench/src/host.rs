//! Host and process readings from `/proc`, plus the source revision.

use std::path::Path;

/// `USER_HZ`: the unit of the CPU times in `/proc`. It is 100 on every
/// Linux ABI the benchmark targets.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of this process, all threads, including
/// threads that have exited (`/proc/self/stat` fields 14 and 15).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3, so utime (14) and stime (15) sit at 11, 12.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / TICKS_PER_S
}

/// Reset the peak resident set size (`VmHWM`) to the current one.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size since the last reset, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Aggregate CPU ticks of the machine: (steal, total) from `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    // user nice system idle iowait irq softirq steal (guest time is already
    // inside user/nice, so it is not added again).
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    (v.get(7).copied().unwrap_or(0), v.iter().sum())
}

/// Share of the machine's CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Nanoseconds per iteration of a fixed integer loop, the median of three
/// tries: a reading of the host's speed that does not depend on the
/// program under test. CPU speed on a shared host drifts by double-digit
/// percentages without showing as steal time; this shows it.
pub fn spin_ns_per_iter() -> f64 {
    const ITERS: u64 = 10_000_000;
    let mut tries: Vec<f64> = (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            let mut x = 0u64;
            for i in 0..ITERS {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
            t.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .collect();
    tries.sort_by(f64::total_cmp);
    tries[1]
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` without running git; `unknown`
/// outside a git checkout.
pub fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(sha) = read(&git.join(reference)) {
        return sha.trim().to_owned();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while spin.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu_s() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        let (steal, total) = cpu_ticks();
        assert!(total > 0 && steal <= total);
        assert_eq!(steal_share((0, 0), (0, 0)), 0.0);
    }
}
