//! Host header of `results.json`: what the numbers were measured on.

use crate::json::quote;
use std::process::Command;

pub struct Host {
    nproc: usize,
    cpu_model: String,
    ram_mb: u64,
    /// `(level, type, size in KiB)` of every cache of cpu0.
    caches: Vec<(u32, String, u64)>,
    pub last_level_cache_kb: Option<u64>,
    rustc: String,
    git_commit: String,
    threads: usize,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    // The checkout may not be a git repository: keep git from adopting one
    // further up (the benchmark reads nothing outside its checkout).
    let above = std::env::current_dir().ok();
    let above = above.as_deref().and_then(std::path::Path::parent);
    Command::new(program)
        .args(args)
        .env(
            "GIT_CEILING_DIRECTORIES",
            above.unwrap_or(std::path::Path::new("/")),
        )
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn field_of(file: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_owned())
}

impl Host {
    pub fn probe(threads: usize) -> Host {
        let mut caches = Vec::new();
        for index in 0..8 {
            let read = |leaf: &str| {
                std::fs::read_to_string(format!(
                    "/sys/devices/system/cpu/cpu0/cache/index{index}/{leaf}"
                ))
                .map(|s| s.trim().to_owned())
            };
            let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size"))
            else {
                continue;
            };
            let kb = match size.strip_suffix('M') {
                Some(mb) => mb.parse::<u64>().map(|m| m * 1024),
                None => size.trim_end_matches('K').parse::<u64>(),
            };
            if let (Ok(level), Ok(kb)) = (level.parse(), kb) {
                caches.push((level, kind, kb));
            }
        }
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: field_of("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".to_owned()),
            ram_mb: field_of("/proc/meminfo", "MemTotal")
                .and_then(|v| v.trim_end_matches("kB").trim().parse::<u64>().ok())
                .map_or(0, |kb| kb / 1024),
            last_level_cache_kb: caches.iter().max_by_key(|c| c.0).map(|c| c.2),
            caches,
            rustc: first_line_of("rustc", &["-V"]),
            git_commit: first_line_of("git", &["rev-parse", "HEAD"]),
            threads,
        }
    }

    pub fn to_json(&self) -> String {
        let caches: Vec<String> = self
            .caches
            .iter()
            .map(|(l, t, kb)| {
                format!(
                    "{{\"level\": {l}, \"type\": {}, \"size_kb\": {kb}}}",
                    quote(t)
                )
            })
            .collect();
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"ram_mb\": {}, \"caches\": [{}], \"last_level_cache_kb\": {}, \"rustc\": {}, \"git_commit\": {}, \"threads\": {}}}",
            self.nproc,
            quote(&self.cpu_model),
            self.ram_mb,
            caches.join(", "),
            self.last_level_cache_kb.map_or("null".to_owned(), |kb| kb.to_string()),
            quote(&self.rustc),
            quote(&self.git_commit),
            self.threads
        )
    }
}
