//! Telemetry instrumentation overhead: detached instruments vs a live
//! registry on the two hottest instrumented paths — warm archive scans
//! (`dps-store`) and warm recursor sweeps (`dps-recursor`) — plus the
//! page-cache hit-ratio accounting the counters exist to expose.
//!
//! The vendored criterion stand-in has no JSON reporter, so this bench
//! writes `BENCH_telemetry.json` at the workspace root itself; the
//! overhead numbers recorded in EXPERIMENTS.md come from that file.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dps_bench::read_every_page;
use dps_dns::{Name, RrType};
use dps_ecosystem::{ScenarioParams, Tld, World};
use dps_measure::{Study, StudyConfig};
use dps_netsim::{Day, Network};
use dps_recursor::{Recursor, RecursorConfig};
use dps_store::Archive;
use dps_telemetry::Registry;
use std::time::Instant;

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

/// Mean of the middle half of `times` — drops timer-interrupt and
/// thread-spawn outliers on both tails.
fn iq_mean(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let q = times.len() / 4;
    let mid = &times[q..times.len() - q];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Interleaved A/B timing: alternating samples of `iters` calls each,
/// swapping which side runs first every sample, so frequency scaling,
/// cache warmth and scheduler noise bias neither side. Returns
/// `(median a ns/call, median b ns/call, overhead %)` where the overhead
/// is the interquartile mean of the per-pair b/a ratios — slow-machine
/// moments hit both halves of a pair, so the ratio cancels noise the raw
/// medians cannot.
fn compare<A: FnMut(), B: FnMut()>(
    samples: usize,
    iters: usize,
    mut a: A,
    mut b: B,
) -> (f64, f64, f64) {
    a();
    b();
    let time = |n: usize, f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..n {
            f();
        }
        start.elapsed().as_nanos() as f64 / n as f64
    };
    let mut ta = Vec::with_capacity(samples);
    let mut tb = Vec::with_capacity(samples);
    let mut ratios = Vec::with_capacity(samples);
    for sample in 0..samples {
        let (a_ns, b_ns) = if sample % 2 == 0 {
            let a_ns = time(iters, &mut a);
            (a_ns, time(iters, &mut b))
        } else {
            let b_ns = time(iters, &mut b);
            (time(iters, &mut a), b_ns)
        };
        ta.push(a_ns);
        tb.push(b_ns);
        ratios.push(b_ns / a_ns);
    }
    (median(ta), median(tb), (iq_mean(ratios) - 1.0) * 100.0)
}

fn jobs(world: &World) -> Vec<(Name, RrType)> {
    let mut jobs = Vec::new();
    for entry in world.zone_entries(Tld::Com).iter().copied().take(60) {
        let apex = world.entry_name(entry);
        jobs.push((apex.clone(), RrType::A));
        jobs.push((apex.prepend("www").unwrap(), RrType::A));
        jobs.push((apex, RrType::Ns));
    }
    jobs
}

/// Resolves every job on day 0 through `recursor`; returns the packets the
/// network sent meanwhile.
fn sweep(recursor: &mut Recursor, net: &Network, jobs: &[(Name, RrType)]) -> u64 {
    recursor.begin_day(Day(0));
    let before = net.stats().snapshot().sent;
    for (qname, qtype) in jobs {
        let _ = recursor.resolve(qname, *qtype);
    }
    net.stats().snapshot().sent - before
}

fn bench(c: &mut Criterion) {
    // --- store: warm full scans, detached vs instrumented -------------
    let days = 10u32;
    let mut world = World::imc2016(ScenarioParams {
        seed: 2,
        scale: 0.02,
        gtld_days: days,
        cc_start_day: days,
    });
    let path = std::env::temp_dir().join(format!("dps-bench-telemetry-{}.dps", std::process::id()));
    std::fs::remove_file(&path).ok();
    Study::new(StudyConfig {
        days,
        cc_start_day: days,
        stride: 1,
    })
    .run_archived(&mut world, &path, None)
    .expect("archived study");

    let detached = Archive::open(&path).expect("open archive");
    let registry = Registry::new();
    let instrumented =
        Archive::open_with_telemetry(&path, 256 << 20, &registry).expect("open archive");
    read_every_page(&detached, None);
    read_every_page(&instrumented, None);

    const SAMPLES: usize = 40;
    const ITERS: usize = 20;
    let (store_detached_ns, store_instrumented_ns, store_overhead) = compare(
        SAMPLES,
        ITERS,
        || {
            black_box(read_every_page(&detached, None));
        },
        || {
            black_box(read_every_page(&instrumented, None));
        },
    );

    let snap = registry.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let (hits, misses) = (counter("store.cache.hits"), counter("store.cache.misses"));
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;

    // --- recursor: warm sweeps, detached vs instrumented --------------
    let world = World::imc2016(ScenarioParams::tiny(17));
    let src: std::net::IpAddr = "172.16.9.1".parse().unwrap();
    let jobs = jobs(&world);

    let net = Network::new(5);
    let catalog = world.materialize(&net);
    let mut plain = Recursor::new(
        &net,
        src,
        0,
        catalog.root_hints(),
        RecursorConfig::default(),
    );
    let recursor_registry = Registry::new();
    let mut metered = Recursor::with_telemetry(
        &net,
        src,
        0,
        catalog.root_hints(),
        RecursorConfig::default(),
        &recursor_registry,
    );
    sweep(&mut plain, &net, &jobs);
    sweep(&mut metered, &net, &jobs);

    let (recursor_detached_ns, recursor_instrumented_ns, recursor_overhead) = compare(
        SAMPLES,
        ITERS,
        || {
            black_box(sweep(&mut plain, &net, &jobs));
        },
        || {
            black_box(sweep(&mut metered, &net, &jobs));
        },
    );

    let rsnap = recursor_registry.snapshot();
    let rcounter = |name: &str| rsnap.counters.get(name).copied().unwrap_or(0);
    let (ahits, amisses) = (
        rcounter("recursor.answer.hits"),
        rcounter("recursor.answer.misses"),
    );
    let answer_ratio = ahits as f64 / (ahits + amisses).max(1) as f64;

    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let json = format!(
        "{{\n  \"host\": {{ \"cpus\": {host_cpus}, \"mem_mib\": {} }},\n  \"store\": {{\n    \"scan_warm_detached_ns\": {store_detached_ns:.0},\n    \
         \"scan_warm_instrumented_ns\": {store_instrumented_ns:.0},\n    \
         \"overhead_pct\": {store_overhead:.2},\n    \"cache\": {{\n      \
         \"hits\": {hits},\n      \"misses\": {misses},\n      \
         \"hit_ratio\": {hit_ratio:.4},\n      \"pages_decoded\": {pages},\n      \
         \"bytes_read\": {bytes}\n    }}\n  }},\n  \"recursor\": {{\n    \
         \"sweep_warm_detached_ns\": {recursor_detached_ns:.0},\n    \
         \"sweep_warm_instrumented_ns\": {recursor_instrumented_ns:.0},\n    \
         \"overhead_pct\": {recursor_overhead:.2},\n    \"cache\": {{\n      \
         \"answer_hits\": {ahits},\n      \"answer_misses\": {amisses},\n      \
         \"hit_ratio\": {answer_ratio:.4}\n    }}\n  }}\n}}\n",
        dps_bench::host_mem_mib(),
        pages = counter("store.pages.decoded"),
        bytes = counter("store.bytes.read"),
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_telemetry.json");
    std::fs::write(&out, &json).expect("write BENCH_telemetry.json");
    println!(
        "telemetry overhead: store {store_overhead:+.2}% (cache hit ratio {hit_ratio:.3}), \
         recursor {recursor_overhead:+.2}% (answer hit ratio {answer_ratio:.3}) \
         -> {}",
        out.display()
    );

    // The same four variants through criterion, for the standard report.
    let mut group = c.benchmark_group("telemetry");
    group.sample_size(10);
    group.bench_function("store_scan_warm_detached", |b| {
        b.iter(|| black_box(read_every_page(&detached, None)))
    });
    group.bench_function("store_scan_warm_instrumented", |b| {
        b.iter(|| black_box(read_every_page(&instrumented, None)))
    });
    group.bench_function("recursor_sweep_warm_detached", |b| {
        b.iter(|| black_box(sweep(&mut plain, &net, &jobs)))
    });
    group.bench_function("recursor_sweep_warm_instrumented", |b| {
        b.iter(|| black_box(sweep(&mut metered, &net, &jobs)))
    });
    group.finish();
    std::fs::remove_file(&path).ok();
}

criterion_group!(benches, bench);
criterion_main!(benches);
