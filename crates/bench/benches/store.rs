//! Archive read throughput: every catalog page read cold vs through a
//! warm page cache, and projected (2 of 18 columns) vs full-table
//! decoding.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dps_bench::read_every_page;
use dps_ecosystem::{ScenarioParams, World};
use dps_measure::{Study, StudyConfig};
use dps_store::Archive;

fn bench(c: &mut Criterion) {
    let days = 30u32;
    let params = ScenarioParams {
        seed: 2,
        scale: 0.05,
        gtld_days: days,
        cc_start_day: days,
    };
    let mut world = World::imc2016(params);
    let path = std::env::temp_dir().join(format!("dps-bench-store-{}.dps", std::process::id()));
    std::fs::remove_file(&path).ok();
    Study::new(StudyConfig {
        days,
        cc_start_day: days,
        stride: 1,
    })
    .run_archived(&mut world, &path, None)
    .expect("archived study");

    let archive = Archive::open(&path).expect("open archive");
    let raw_bytes: u64 = (0..archive.n_sources())
        .filter_map(|s| archive.stats(s as u8))
        .map(|st| st.raw_bytes)
        .sum();

    let mut group = c.benchmark_group("store");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(raw_bytes));

    // Cold: every iteration starts with an empty page cache, so every
    // page is read from disk, checksummed and decoded again.
    group.bench_function("scan_cold", |b| {
        b.iter(|| {
            archive.clear_cache();
            black_box(read_every_page(&archive, None))
        })
    });

    // Warm: the cache holds every decoded page after the first pass.
    archive.clear_cache();
    read_every_page(&archive, None);
    group.bench_function("scan_warm", |b| {
        b.iter(|| black_box(read_every_page(&archive, None)))
    });

    // Projection: decode only (entry, asn1) instead of all 18 columns.
    group.bench_function("scan_projected_cold", |b| {
        b.iter(|| {
            archive.clear_cache();
            black_box(read_every_page(&archive, Some(&["entry", "asn1"])))
        })
    });

    group.finish();
    std::fs::remove_file(&path).ok();
}

criterion_group!(benches, bench);
criterion_main!(benches);
