//! The platform record printed with every result: where and on what the
//! numbers were measured.

use crate::json;
use crate::workload::Workload;
use std::path::Path;
use uot_bench::PlatformInfo;

fn read(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// `model name` from `/proc/cpuinfo`.
fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// CPU 0's data and unified caches by level (`L1d`, `L2`, `L3`) from sysfs.
fn caches() -> Vec<(String, String)> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut out = Vec::new();
    for i in 0.. {
        let dir = base.join(format!("index{i}"));
        let (Some(level), Some(kind), Some(size)) = (
            read(dir.join("level")),
            read(dir.join("type")),
            read(dir.join("size")),
        ) else {
            break;
        };
        match kind.as_str() {
            "Data" => out.push((format!("L{level}d"), size)),
            "Unified" => out.push((format!("L{level}"), size)),
            _ => {}
        }
    }
    out
}

/// The commit checked out in the working directory, if it is a git
/// repository.
fn git_commit() -> String {
    let head = read(".git/HEAD").unwrap_or_default();
    match head.strip_prefix("ref: ") {
        Some(r) => read(Path::new(".git").join(r)).or_else(|| {
            read(".git/packed-refs").and_then(|packed| {
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split(' ').next())
                    .map(str::to_string)
            })
        }),
        None if !head.is_empty() => Some(head),
        None => None,
    }
    .unwrap_or_else(|| "unknown".into())
}

/// The record: platform, then the workload's configuration.
pub fn record(w: &Workload) -> Vec<(&'static str, String)> {
    let info = PlatformInfo {
        cpus: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        os: std::env::consts::OS.to_string(),
        scale_factor: w.sf,
        workers: w.workers(),
        block_sizes: vec![
            format!("base {} KiB", w.base_block_bytes >> 10),
            format!("temp {} KiB", w.temp_block_bytes() >> 10),
        ],
    };
    let caches = caches();
    let cache_fields: Vec<(&str, String)> = caches
        .iter()
        .map(|(level, size)| (level.as_str(), json::string(size)))
        .collect();
    vec![
        ("nproc", info.cpus.to_string()),
        ("cpu_model", json::string(&cpu_model())),
        ("caches", json::object(&cache_fields)),
        ("os", json::string(&info.os)),
        (
            "os_release",
            json::string(&read("/proc/sys/kernel/osrelease").unwrap_or_default()),
        ),
        ("git_commit", json::string(&git_commit())),
        ("scale_factor", json::number(info.scale_factor)),
        ("block_sizes", json::string(&info.block_sizes.join(", "))),
        ("workers", info.workers.to_string()),
        ("clients", w.clients.to_string()),
        ("configuration", json::string(&w.describe())),
    ]
}
