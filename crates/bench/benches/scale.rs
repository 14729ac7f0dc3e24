//! The scale ladder: end-to-end sweep throughput and peak memory at
//! 1/1000 and 1/100 of the real population (1/10 behind an env gate).
//!
//! Each rung runs the full archived pipeline — streaming world
//! generation in bounded blocks, a sharded on-disk archive, and the
//! parallel per-shard zero-copy scan — and records
//!
//! * `measure_rows_per_s` — data rows appended per wall second by the
//!   archived sweep (world gen + encode + commit),
//! * `scan_rows_per_s` — rows per wall second of a cold
//!   `Scanner::run_store` pass over the sharded archive,
//! * `peak_rss_mib` — `VmHWM` from `/proc/self/status` after the rung,
//!   the streaming memory contract's observable (bounded blocks mean
//!   RSS grows far slower than population), and
//! * `sharded_matches_single` — at the smallest rung only, whether the
//!   sharded scan output equals a single-file scan of the same world
//!   (shard count must be invisible in every series).
//!
//! The vendored criterion stand-in has no JSON reporter, so the bench
//! writes `BENCH_scale.json` at the workspace root itself. Set
//! `DPS_BENCH_TENTH=1` to add the 1/10 rung (minutes, not seconds).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dps_core::{CompiledRefs, ProviderRefs, Scanner};
use dps_ecosystem::{ScenarioParams, World};
use dps_measure::{Study, StudyConfig};
use dps_store::StoreReader;
use std::fmt::Write as _;
use std::time::Instant;

const SEED: u64 = 2016;
const DAYS: u32 = 6;
const CC_START: u32 = 4;
const SHARDS: u32 = 4;

/// Peak resident set size in KiB (`VmHWM`), the high-water mark since
/// process start. Rungs run smallest-first, so each reading is the max
/// over everything up to and including its own run.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

struct Rung {
    label: &'static str,
    scale: f64,
    measure_s: f64,
    rows: u64,
    scan_s: f64,
    peak_rss_kib: u64,
}

/// Runs one ladder rung: archived sharded sweep, then a cold scan.
fn run_rung(label: &'static str, scale: f64, dir: &std::path::Path) -> Rung {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).expect("bench dir");
    let path = dir.join("archive.dps");
    let mut world = World::imc2016(ScenarioParams {
        seed: SEED,
        scale,
        gtld_days: DAYS,
        cc_start_day: CC_START,
    });
    let start = Instant::now();
    Study::new(StudyConfig {
        days: DAYS,
        cc_start_day: CC_START,
        stride: 1,
    })
    .with_shards(SHARDS)
    .run_archived(&mut world, &path, None)
    .expect("archived study");
    let measure_s = start.elapsed().as_secs_f64();

    let reader = StoreReader::open_auto(&path).expect("open sharded archive");
    let rows: u64 = reader
        .catalog()
        .pages
        .values()
        .filter(|p| p.source < 5) // data sources only, not quality/telemetry
        .map(|p| p.rows)
        .sum();
    let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), reader.dict());
    let start = Instant::now();
    let out = Scanner::new(&refs)
        .run_store(&reader)
        .expect("sharded scan");
    let scan_s = start.elapsed().as_secs_f64();
    black_box(out.series.days.len());

    Rung {
        label,
        scale,
        measure_s,
        rows,
        scan_s,
        peak_rss_kib: peak_rss_kib(),
    }
}

/// Cross-checks the sharded scan against a single-file scan of the same
/// world at the smallest rung. Cheap, and catches any shard-visible
/// drift in the series a release build might introduce.
fn sharded_matches_single(dir: &std::path::Path) -> bool {
    let single = dir.join("single.dps");
    let sharded = dir.join("archive.dps");
    let mut world = World::imc2016(ScenarioParams {
        seed: SEED,
        scale: 1.0,
        gtld_days: DAYS,
        cc_start_day: CC_START,
    });
    Study::new(StudyConfig {
        days: DAYS,
        cc_start_day: CC_START,
        stride: 1,
    })
    .run_archived(&mut world, &single, None)
    .expect("single-file study");
    let a = StoreReader::open_auto(&single).expect("open single");
    let b = StoreReader::open_auto(&sharded).expect("open sharded");
    let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), a.dict());
    let scanner = Scanner::new(&refs);
    let sa = scanner.run_store(&a).expect("single scan").series;
    let sb = scanner.run_store(&b).expect("sharded scan").series;
    sa.days == sb.days
        && sa.zone_sizes == sb.zone_sizes
        && sa.provider_any == sb.provider_any
        && sa.provider_asn == sb.provider_asn
        && sa.provider_cname == sb.provider_cname
        && sa.provider_ns == sb.provider_ns
        && sa.tld_any == sb.tld_any
        && sa.source_any == sb.source_any
}

fn bench(c: &mut Criterion) {
    let base = std::env::temp_dir().join(format!("dps-bench-scale-{}", std::process::id()));
    let mut rungs: Vec<(&'static str, f64)> = vec![("1/1000", 1.0), ("1/100", 10.0)];
    if std::env::var("DPS_BENCH_TENTH").is_ok_and(|v| v == "1") {
        rungs.push(("1/10", 100.0));
    }
    let mut results = Vec::new();
    for (label, scale) in rungs {
        let dir = base.join(label.replace('/', "_"));
        let rung = run_rung(label, scale, &dir);
        println!(
            "scale {} ({}x): {} rows, measure {:.2}s ({:.0} rows/s), \
             scan {:.3}s ({:.0} rows/s), peak RSS {} MiB",
            rung.label,
            rung.scale,
            rung.rows,
            rung.measure_s,
            rung.rows as f64 / rung.measure_s.max(f64::EPSILON),
            rung.scan_s,
            rung.rows as f64 / rung.scan_s.max(f64::EPSILON),
            rung.peak_rss_kib / 1024,
        );
        results.push(rung);
    }
    let identity = sharded_matches_single(&base.join("1_1000"));
    println!("sharded scan matches single-file at 1/1000: {identity}");

    let mut rungs_json = String::new();
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 < results.len() { "," } else { "" };
        let _ = write!(
            rungs_json,
            "\n    \"{}\": {{ \"scale\": {}, \"shards\": {SHARDS}, \"days\": {DAYS}, \
             \"rows\": {}, \"measure_s\": {:.3}, \"measure_rows_per_s\": {:.0}, \
             \"scan_s\": {:.4}, \"scan_rows_per_s\": {:.0}, \"peak_rss_mib\": {} }}{sep}",
            r.label,
            r.scale,
            r.rows,
            r.measure_s,
            r.rows as f64 / r.measure_s.max(f64::EPSILON),
            r.scan_s,
            r.rows as f64 / r.scan_s.max(f64::EPSILON),
            r.peak_rss_kib / 1024,
        );
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let json = format!(
        "{{\n  \"host_cpus\": {host_cpus},\n  \
         \"scenario\": {{ \"seed\": {SEED}, \"days\": {DAYS}, \"cc_start\": {CC_START}, \
         \"shards\": {SHARDS} }},\n  \"sharded_matches_single_at_1_1000\": {identity},\n  \
         \"rungs\": {{{rungs_json}\n  }}\n}}\n"
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_scale.json");
    std::fs::write(&out, &json).expect("write BENCH_scale.json");
    println!("wrote {}", out.display());
    std::fs::remove_dir_all(&base).ok();

    // The smallest rung through criterion, for the standard report.
    let dir = base.join("criterion");
    let mut group = c.benchmark_group("scale");
    group.sample_size(10);
    group.bench_function("sweep_1_1000_sharded", |bch| {
        bch.iter(|| black_box(run_rung("1/1000", 1.0, &dir).measure_s))
    });
    group.finish();
    std::fs::remove_dir_all(&base).ok();
}

criterion_group!(benches, bench);
criterion_main!(benches);
