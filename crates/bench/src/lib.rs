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

/// Reads every page in `archive`'s catalog on the mapreduce worker pool,
/// decoding only `columns` when given, and returns the page count. The
/// store benches time this full pass, cold or through a warm cache.
pub fn read_every_page(archive: &dps_store::Archive, columns: Option<&[&str]>) -> usize {
    let keys: Vec<(u32, u8)> = archive.catalog().pages.keys().copied().collect();
    dps_columnar::mapreduce::par_map(&keys, |&(day, source)| match columns {
        Some(cols) => archive.project(day, source, cols),
        None => archive.table(day, source),
    })
    .into_iter()
    .map(|page| page.expect("catalog page reads").is_some())
    .filter(|&read| read)
    .count()
}
