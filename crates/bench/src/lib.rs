//! # dps-bench — experiment harness and benchmarks
//!
//! The [`experiments`] module regenerates every table and figure of the
//! paper (driven by the `experiments` binary); the Criterion benches under
//! `benches/` track the performance of the hot paths.

pub mod experiments;

/// Physical memory of the host in MiB (`MemTotal`), 0 where
/// `/proc/meminfo` is unreadable. Benches record it beside their figures.
pub fn host_mem_mib() -> u64 {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("MemTotal:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kib| kib / 1024)
}
