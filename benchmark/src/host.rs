//! What the harness reads from the host: process CPU time, peak resident
//! memory, and the metadata every result file starts with.

use std::process::Command;

use crate::json::{obj, Value};

/// Kernel clock ticks per second in `/proc/<pid>/stat`. Linux fixes the
/// user-visible value at 100 on every architecture this repo builds on.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process over all its threads, the
/// ones already joined included (`utime` + `stime` of `/proc/self/stat`).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name sits in parentheses and may hold spaces; fields
    // are counted from the closing one. utime and stime are fields 14
    // and 15 of the line, so 11 and 12 after the state field.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / USER_HZ
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

fn status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Threads the host offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Host metadata recorded at the head of every result file.
pub fn metadata(seed: u64, seconds: u64) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let unknown = || "unknown".to_string();
    obj([
        ("nproc", Value::Num(nproc() as f64)),
        ("cpu_model", Value::Str(cpu_model)),
        ("kernel", Value::Str(kernel)),
        (
            "rustc",
            Value::Str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            // The driver's checkout is not a git repository; there the
            // commit is unknown and says so.
            "git_commit",
            Value::Str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        (
            "build_profile",
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_and_rss_read_as_positive_numbers() {
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
