//! CPU placement for the read workloads. On a small shared machine, where
//! the scheduler happens to place the load generator and the server
//! threads (same CPU, or a wake-up across CPUs) changes per-request
//! latency for a whole run: the `read_single` p99 of identical runs varied
//! twofold unpinned, and as much with the two processes on different CPUs.
//! Such a run therefore re-runs itself under `taskset`, pinned to the first
//! CPU this process may use; the server process it starts inherits the
//! pinning. Where `taskset` is missing or refuses, the run goes on
//! unpinned.

use std::process::{Command, Stdio};

/// Set in the pinned run, so it does not pin again.
const PINNED: &str = "E2EBENCH_PINNED_CPU";

/// The first CPU this process may run on (`Cpus_allowed_list`).
fn first_allowed_cpu() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let first = list.trim().split([',', '-']).next()?;
    first.trim().parse().ok()
}

/// Re-runs this invocation pinned (once): returns the exit code of the
/// pinned run, or `None` when already pinned or pinning is unavailable.
pub fn run_pinned() -> Option<i32> {
    if std::env::var_os(PINNED).is_some() {
        return None;
    }
    let cpu = first_allowed_cpu()?.to_string();
    let usable = Command::new("taskset")
        .args(["-c", &cpu, "true"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    if !usable {
        return None;
    }
    let status = Command::new("taskset")
        .args(["-c", &cpu])
        .arg(std::env::current_exe().ok()?)
        .args(std::env::args_os().skip(1))
        .env(PINNED, &cpu)
        .status()
        .ok()?;
    Some(status.code().unwrap_or(1))
}
