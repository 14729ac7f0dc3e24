//! Classification-scan throughput: the §3.3 pass over the archive, and
//! the scan broken into its stages.
//!
//! Over an archive of the perfbench `analyze` shape (seed 1, scale 0.05,
//! 120 days, `.nl` from day 30) it times, each on one thread over every
//! data page:
//! - page read + CRC (`Archive::page_bytes`), and the CRC alone;
//! - a full decode and the scan's projected decode ([`SCAN_COLUMNS`]);
//! - the row kernel (`Scanner::classify_table`) over projected tables;
//!
//! and the whole `Scanner::run` on the worker pool. The vendored
//! criterion stand-in has no JSON reporter, so the bench writes
//! `BENCH_scan.json` at the workspace root itself.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dps_columnar::Table;
use dps_core::{CompiledRefs, ProviderRefs, Scanner};
use dps_ecosystem::{ScenarioParams, World};
use dps_measure::observation::SCAN_COLUMNS;
use dps_measure::{SnapshotStore, Source, Study, StudyConfig};
use dps_store::crc32::crc32;
use dps_store::Archive;
use std::time::Instant;

const SEED: u64 = 1;
const SCALE: f64 = 0.05;
const DAYS: u32 = 120;
const CC_START: u32 = 30;
/// Timed repetitions per stage; the median is recorded.
const REPS: usize = 9;

/// Median wall time of `REPS` runs of `f`, in seconds, after one warm-up.
fn median_s(mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[REPS / 2]
}

/// One stage's JSON object: its time and its rate in `unit`.
fn stage(secs: f64, amount: f64, unit: &str) -> String {
    format!(
        "{{ \"ms\": {:.2}, \"{unit}\": {:.0} }}",
        secs * 1e3,
        amount / secs
    )
}

fn bench(c: &mut Criterion) {
    let mut world = World::imc2016(ScenarioParams {
        seed: SEED,
        scale: SCALE,
        gtld_days: DAYS,
        cc_start_day: CC_START,
    });
    let path = std::env::temp_dir().join(format!("dps-bench-classify-{}.dps", std::process::id()));
    std::fs::remove_file(&path).ok();
    Study::new(StudyConfig {
        days: DAYS,
        cc_start_day: CC_START,
        stride: 1,
    })
    .run_archived(&mut world, &path, None)
    .expect("archived study");
    let store = SnapshotStore::load_archive(&path).expect("archive loads");
    let archive = Archive::open_with_cache(&path, 0).expect("archive opens");
    let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict);
    let scanner = Scanner::new(&refs);

    // Every data page, as `(source, day)` and its encoded body.
    let pages: Vec<(Source, u32, &[u8])> = dps_measure::SOURCES
        .into_iter()
        .flat_map(|source| {
            store
                .encoded(source)
                .into_iter()
                .map(move |(day, bytes)| (source, day, bytes))
        })
        .collect();
    let page_bytes: f64 = pages.iter().map(|(.., b)| b.len() as f64).sum();
    let projected: Vec<(Source, Table)> = pages
        .iter()
        .map(|&(source, _, bytes)| {
            let table = Table::from_bytes_projected(bytes, &SCAN_COLUMNS).expect("decodes");
            (source, table)
        })
        .collect();
    let rows: f64 = projected.iter().map(|(_, t)| t.rows() as f64).sum();

    let read_crc = median_s(|| {
        for &(source, day, _) in &pages {
            let body = archive
                .page_bytes(day, source.index() as u8)
                .expect("page reads")
                .expect("page listed");
            black_box(body.len());
        }
    });
    let crc = median_s(|| {
        for &(.., bytes) in &pages {
            black_box(crc32(bytes));
        }
    });
    let decode_full = median_s(|| {
        for &(.., bytes) in &pages {
            black_box(Table::from_bytes(bytes).expect("decodes").rows());
        }
    });
    let decode_projected = median_s(|| {
        for &(.., bytes) in &pages {
            let table = Table::from_bytes_projected(bytes, &SCAN_COLUMNS).expect("decodes");
            black_box(table.rows());
        }
    });
    let classify = median_s(|| {
        for (source, table) in &projected {
            let partial = scanner.classify_table(*source, table).expect("kernel");
            black_box(partial.references.len());
        }
    });
    let scan = median_s(|| {
        black_box(scanner.run(&store).timelines.map.len());
    });

    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let archive_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let mb = page_bytes / 1e6;
    let json = format!(
        "{{\n  \"bench\": \"scan\",\n  \"host\": {{ \"cpus\": {host_cpus}, \"mem_mib\": {mem} }},\n  \
         \"scenario\": {{ \"seed\": {SEED}, \"scale\": {SCALE}, \"days\": {DAYS}, \
         \"cc_start\": {CC_START}, \"pages\": {n_pages}, \"rows\": {rows}, \
         \"page_bytes\": {page_bytes}, \"archive_bytes\": {archive_bytes} }},\n  \
         \"metrics\": {{ \"scan_ms\": {scan_ms:.2}, \"scan_rows_per_s\": {scan_rate:.0} }},\n  \
         \"stages\": {{\n    \"page_read_crc\": {read_crc},\n    \"crc\": {crc},\n    \
         \"decode_full\": {decode_full},\n    \"decode_projected\": {decode_projected},\n    \
         \"classify\": {classify}\n  }}\n}}\n",
        mem = dps_bench::host_mem_mib(),
        n_pages = pages.len(),
        scan_ms = scan * 1e3,
        scan_rate = rows / scan,
        read_crc = stage(read_crc, mb, "mb_per_s"),
        crc = stage(crc, mb, "mb_per_s"),
        decode_full = stage(decode_full, rows, "rows_per_s"),
        decode_projected = stage(decode_projected, rows, "rows_per_s"),
        classify = stage(classify, rows, "rows_per_s"),
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_scan.json");
    std::fs::write(&out, &json).expect("write BENCH_scan.json");
    print!("{json}");
    println!("-> {}", out.display());
    std::fs::remove_file(&path).ok();

    let mut group = c.benchmark_group("classify");
    group.sample_size(10);
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function("scan_120_days", |b| {
        b.iter(|| scanner.run(&store).timelines.map.len())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
