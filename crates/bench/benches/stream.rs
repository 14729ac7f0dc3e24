//! Incremental streaming analysis vs full rescan.
//!
//! The streaming engine's pitch is that analysis state is maintained at
//! day-commit time, so "what does the study say now?" costs one day's
//! delta instead of a rescan of every archived page. This bench puts a
//! number on that: for the same fixed-seed archive it times
//!
//! * `per_day_update` — decoding and applying ONE day's checkpoint page
//!   into an engine already holding every earlier day (the marginal
//!   cost a live sweep pays per committed day), against
//! * `full_rescan` — the dps-core `Scanner::run_store` pass over all
//!   pages (the cost of answering the same question without streaming),
//!
//! at 1/1000 and 1/100 of the baseline population scale. The vendored
//! criterion stand-in has no JSON reporter, so the bench writes
//! `BENCH_stream.json` at the workspace root itself.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dps_columnar::Table;
use dps_core::{CompiledRefs, ProviderRefs, Scanner};
use dps_ecosystem::{ScenarioParams, World};
use dps_measure::{DayObserver, Study, StudyConfig, ANALYSIS_SOURCE};
use dps_store::StoreReader;
use dps_stream::StreamEngine;
use std::fmt::Write as _;
use std::time::Instant;

const SEED: u64 = 2016;
const DAYS: u32 = 16;
const CC_START: u32 = 10;
const SAMPLES: usize = 15;

/// One benchmark scenario: a streamed fixed-seed archive plus the
/// replayed engine state just before its last committed day.
struct Built {
    archive: StoreReader,
    engine_before_last: StreamEngine,
    last_day: u32,
    last_table: std::sync::Arc<Table>,
}

fn build(scale: f64) -> Built {
    let path = std::env::temp_dir().join(format!(
        "dps-bench-stream-{scale}-{}.dps",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    let mut world = World::imc2016(ScenarioParams {
        seed: SEED,
        scale,
        gtld_days: DAYS,
        cc_start_day: CC_START,
    });
    let mut engine = StreamEngine::new();
    Study::new(StudyConfig {
        days: DAYS,
        cc_start_day: CC_START,
        stride: 1,
    })
    .run_archived(&mut world, &path, Some(&mut engine))
    .expect("archived study");

    let archive = StoreReader::open_auto(&path).expect("open archive");
    std::fs::remove_file(&path).ok();
    let mut checkpoints: Vec<(u32, std::sync::Arc<Table>)> = Vec::new();
    for &(day, source) in archive.catalog().pages.keys() {
        if source == ANALYSIS_SOURCE {
            let table = archive
                .table(day, source)
                .expect("checkpoint reads")
                .expect("checkpoint exists");
            checkpoints.push((day, table));
        }
    }
    let (last_day, last_table) = checkpoints.pop().expect("streamed archive has checkpoints");
    let mut engine_before_last = StreamEngine::new();
    for (day, table) in &checkpoints {
        engine_before_last
            .on_resume(*day, table)
            .expect("checkpoint replays");
    }
    Built {
        archive,
        engine_before_last,
        last_day,
        last_table,
    }
}

/// Marginal streaming cost: decode + apply the last day's checkpoint
/// into an engine holding every earlier day. Returns wall seconds.
fn time_per_day_update(b: &Built) -> f64 {
    let mut engine = b.engine_before_last.clone();
    let start = Instant::now();
    engine
        .on_resume(b.last_day, &b.last_table)
        .expect("checkpoint applies");
    let secs = start.elapsed().as_secs_f64();
    black_box(engine.days().len());
    secs
}

/// The no-streaming alternative: a full dps-core scan of every archived
/// page. Returns wall seconds.
fn time_full_rescan(b: &Built, refs: &CompiledRefs) -> f64 {
    let start = Instant::now();
    let out = Scanner::new(refs)
        .run_store(&b.archive)
        .expect("archive rescan");
    let secs = start.elapsed().as_secs_f64();
    black_box(out.series.days.len());
    secs
}

/// Noise filter: the minimum over samples (shared host, additive noise).
fn minimum(xs: Vec<f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

fn bench(c: &mut Criterion) {
    let mut scales_json = String::new();
    let mut built_small = None;
    for (i, scale) in [0.001f64, 0.01].into_iter().enumerate() {
        let b = build(scale);
        let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), b.archive.dict());
        let mut update_walls = Vec::new();
        let mut rescan_walls = Vec::new();
        for _ in 0..SAMPLES {
            update_walls.push(time_per_day_update(&b));
            rescan_walls.push(time_full_rescan(&b, &refs));
        }
        let update_s = minimum(update_walls);
        let rescan_s = minimum(rescan_walls);
        let speedup = rescan_s / update_s.max(f64::EPSILON);
        let sep = if i == 0 { "," } else { "" };
        let _ = write!(
            scales_json,
            "\n    \"{scale}\": {{ \"days\": {DAYS}, \"per_day_update_ms\": {:.3}, \
             \"full_rescan_ms\": {:.3}, \"rescan_over_update\": {:.1} }}{sep}",
            update_s * 1e3,
            rescan_s * 1e3,
            speedup,
        );
        println!(
            "stream scale {scale}: per-day update {:.3} ms, full rescan {:.3} ms ({speedup:.1}x)",
            update_s * 1e3,
            rescan_s * 1e3,
        );
        if i == 0 {
            built_small = Some(b);
        }
    }
    let json = format!(
        "{{\n  \"scenario\": {{ \"seed\": {SEED}, \"days\": {DAYS}, \"cc_start\": {CC_START} }},\n  \
         \"scales\": {{{scales_json}\n  }}\n}}\n"
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_stream.json");
    std::fs::write(&out, &json).expect("write BENCH_stream.json");
    println!("wrote {}", out.display());

    // The same two operations through criterion, for the standard report.
    let b = built_small.expect("small scenario built");
    let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), b.archive.dict());
    let mut group = c.benchmark_group("stream");
    group.sample_size(10);
    group.bench_function("per_day_update", |bch| {
        bch.iter(|| black_box(time_per_day_update(&b)))
    });
    group.bench_function("full_rescan", |bch| {
        bch.iter(|| black_box(time_full_rescan(&b, &refs)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
