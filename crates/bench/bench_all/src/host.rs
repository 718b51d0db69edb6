//! The host block every output carries, and the guards that keep a
//! number from being read for more than it is: a debug build is
//! refused, and a host with fewer cores than the live workloads' two
//! workers is marked undersized.

use crate::json::{num, obj, text, Value};
use std::process::Command;

/// Refuse to measure an unoptimized build. Returns the reason.
pub fn refuse_debug_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        Err("bench_all was built without optimizations; build it with --release".to_string())
    } else {
        Ok(())
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line a command prints, or `unknown` (no such program, or — for
/// git — a checkout that is not a repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `nproc`, rustc version, build profile and commit. `undersized` is
/// true when the host cannot run `live_scan_agg`'s two workers on two
/// cores: its timings then say nothing about parallel speed-up.
pub fn host_block() -> Value {
    let cores = nproc();
    obj([
        ("nproc", num(cores as f64)),
        ("undersized", Value::Bool(cores < 2)),
        ("rustc", text(&first_line("rustc", &["--version"]))),
        (
            "profile",
            text(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("commit", text(&first_line("git", &["rev-parse", "HEAD"]))),
        ("os", text(std::env::consts::OS)),
        ("arch", text(std::env::consts::ARCH)),
    ])
}

/// Peak resident set (`VmHWM`) of this process so far, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_from_proc_status() {
        let status = "Name:\tbench_all\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480.0));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn host_block_names_cores_and_profile() {
        let h = host_block();
        assert!(h.get("nproc").and_then(|v| v.as_u64()).unwrap_or(0) >= 1);
        let profile = h.get("profile").and_then(|v| v.as_str());
        assert_eq!(
            profile.is_some_and(|p| p == "debug"),
            cfg!(debug_assertions)
        );
        assert_eq!(refuse_debug_build().is_err(), cfg!(debug_assertions));
        assert!(h.get("undersized").is_some());
        assert!(h.get("rustc").and_then(|v| v.as_str()).is_some());
    }
}
