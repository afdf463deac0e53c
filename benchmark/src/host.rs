//! What the result file says about the machine, and the process counters
//! the metrics read (`/proc`): CPU time, peak resident set, load average,
//! and the spin-loop noise canary.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Static facts about the host and toolchain, recorded once per result file.
#[derive(Debug, Clone)]
pub struct HostInfo {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub git_commit: String,
}

impl HostInfo {
    pub fn gather() -> HostInfo {
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown),
            kernel: read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(unknown),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
            git_commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        }
    }
}

fn unknown() -> String {
    "unknown".to_string()
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// The value of the first `key : value` line of a `/proc` text file.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .filter_map(|line| line.split_once(':'))
        .find(|(k, _)| k.trim() == key)
        .map(|(_, v)| v.trim().to_string())
}

/// First line of a helper command's output; `None` when it is missing or
/// fails (the driver's checkout, for one, is not a git repository).
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let line = String::from_utf8_lossy(&output.stdout)
        .lines()
        .next()?
        .trim()
        .to_string();
    (!line.is_empty()).then_some(line)
}

/// User + system CPU time of this process, all threads, in microseconds.
///
/// `/proc/self/stat` counts in clock ticks; Linux fixes `USER_HZ` at 100,
/// so one tick is 10 ms — coarse, which is why the query phase differences
/// it once, over all its measured segments.
pub fn process_cpu_micros() -> u64 {
    const MICROS_PER_TICK: u64 = 10_000;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, which makes utime and stime the 12th and
    // 13th of the remainder.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick() + tick()) * MICROS_PER_TICK
}

/// Peak resident set of this process (`VmHWM`), in megabytes.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One-minute load average.
pub fn loadavg() -> f64 {
    read_trimmed("/proc/loadavg")
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Jiffies of the whole machine since boot, from the first line of
/// `/proc/stat`: `(stolen by the hypervisor, all)`.  The share stolen between
/// two readings says how much of the guest's CPU time the host kept back,
/// which a spin loop on one core may well not notice.
pub fn machine_jiffies() -> (u64, u64) {
    let Some(line) = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| text.lines().next().map(str::to_string))
    else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// Share of the machine's CPU time stolen between two readings, in percent.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let all = after.1.saturating_sub(before.1);
    if all == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / all as f64
}

/// The noise canary: a fixed integer loop whose run time depends on the
/// host alone.  Milliseconds for the fastest of three tries.
pub fn spin_ms() -> f64 {
    (0..3)
        .map(|_| {
            let started = Instant::now();
            let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
            for _ in 0..black_box(20_000_000u32) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            started.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_read_as_positive() {
        let before = process_cpu_micros();
        assert!(spin_ms() > 0.0);
        assert!(process_cpu_micros() >= before);
        assert!(peak_rss_mb() > 0.0);
        assert!(HostInfo::gather().nproc >= 1);
        let (stolen, all) = machine_jiffies();
        assert!(all > 0 && stolen <= all);
        assert_eq!(steal_pct((10, 1000), (15, 1100)), 5.0);
        assert_eq!(steal_pct((10, 1000), (10, 1000)), 0.0);
    }
}
