//! Host facts for the result files: peak memory and a fingerprint of the
//! machine, toolchain and source the numbers came from.

use std::path::{Path, PathBuf};

use serde_json::{json, Value};

/// Directory (relative to the checkout root) the result files go to.
const RESULTS_DIR: &str = "perfbench/results";

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// (the checkout root); "unknown" outside a git checkout.
fn git_commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `nproc`, CPU model, compiler, commit and build profile.
pub fn fingerprint() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    json!({
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "rustc": env!("PERFBENCH_RUSTC_VERSION"),
        "git_commit": git_commit(),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "os": std::env::consts::OS,
        "arch": std::env::consts::ARCH,
    })
}

/// Writes `doc` to `perfbench/results/<workload>-seed<seed>-trace<0|1>.json`.
pub fn write_result(
    workload: &str,
    seed: u64,
    trace: bool,
    doc: &Value,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(RESULTS_DIR)?;
    let path = Path::new(RESULTS_DIR).join(format!(
        "{workload}-seed{seed}-trace{}.json",
        u8::from(trace)
    ));
    let text = serde_json::to_string_pretty(doc).map_err(std::io::Error::other)?;
    std::fs::write(&path, text)?;
    Ok(path)
}
