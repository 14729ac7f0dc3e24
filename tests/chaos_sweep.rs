//! Chaos-engineering integration: supervised wire sweeps under scripted
//! fault schedules must (a) recover coverage and agree byte-for-byte with
//! a healthy-network snapshot, (b) stay seed-reproducible, and (c) record
//! unrecoverable days as low-coverage `DayQuality` cells that the growth
//! analysis masks instead of mistaking for a provider exodus. Through the
//! real `dpscope measure --chaos` binary, the wire sweep (d) commits and
//! counts every day like a bulk sweep, (e) resumes byte-identically after
//! a SIGKILL, (f) works with `--stream` and `--shards`, and (g) archives
//! the bulk sweep's data pages through the caching recursor at a few
//! packets per name.

use dps_scope::authdns::{Resolver, ResolverConfig};
use dps_scope::core::{growth, DEFAULT_MIN_COVERAGE};
use dps_scope::measure::collector::{SldInterner, WirePath};
use dps_scope::measure::pipeline::sweep_with_path_supervised_metered;
use dps_scope::measure::{CauseCounts, SweepMetrics};
use dps_scope::prelude::*;
use dps_scope::telemetry::Registry;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dps-chaos-{tag}-{}.dps", std::process::id()))
}

/// One supervised `.com` sweep of `world`'s current day over a fresh
/// network running `schedule`, appended to `store`, with the packets the
/// network sent. When `registry` is given, the network, health tracker
/// and supervisor all publish telemetry into it (mirroring `dpscope
/// measure --chaos`).
#[allow(clippy::too_many_arguments)]
fn supervised_sweep(
    world: &World,
    schedule: Option<ChaosSchedule>,
    net_seed: u64,
    day: u32,
    passes: u32,
    store: &mut SnapshotStore,
    interner: &mut SldInterner,
    registry: Option<&Registry>,
) -> (DayQuality, u64) {
    let net = match registry {
        Some(r) => Network::with_telemetry(net_seed, r),
        None => Network::new(net_seed),
    };
    if let Some(s) = schedule {
        net.set_chaos(s);
    }
    let catalog = world.materialize(&net);
    let mut health = HealthTracker::new(HealthConfig::default());
    if let Some(r) = registry {
        health = health.with_telemetry(r);
    }
    let health = Arc::new(health);
    let resolver = Resolver::new(
        &net,
        "172.16.0.7".parse().unwrap(),
        11,
        catalog.root_hints(),
    )
    .with_config(ResolverConfig::resilient())
    .with_health(health);
    let mut path = WirePath::new(resolver);
    let config = SupervisorConfig {
        retry_passes: passes,
        ..SupervisorConfig::default()
    };
    let metrics = registry.map(SweepMetrics::new).unwrap_or_default();
    let quality = sweep_with_path_supervised_metered(
        world,
        &mut path,
        Source::Com,
        day,
        store,
        interner,
        &config,
        &metrics,
    );
    (quality, net.stats().snapshot().sent)
}

fn chaos_schedule() -> ChaosSchedule {
    // A 1.5 s total blackout at the start of the sweep plus 15% loss for
    // the whole day — the ISSUE's scripted outage scenario.
    ChaosSchedule::parse("blackout@0..1500ms; degrade@0..inf@loss=0.15").unwrap()
}

/// Under a scripted blackout plus 15% loss, the supervisor's retry passes
/// recover full coverage and the recovered snapshot is byte-identical to
/// one taken over a healthy network: faults cost time, never data.
#[test]
fn chaotic_sweep_recovers_and_matches_healthy_snapshot() {
    let mut world = World::imc2016(ScenarioParams {
        seed: 31,
        scale: 0.004,
        gtld_days: 3,
        cc_start_day: 3,
    });
    world.advance_to(Day(0));

    // Healthy baseline: a plain unsupervised wire sweep (the
    // supervisor's first pass only).
    let net = Network::new(5);
    let catalog = world.materialize(&net);
    let resolver = Resolver::new(
        &net,
        "172.16.0.7".parse().unwrap(),
        11,
        catalog.root_hints(),
    );
    let mut path = WirePath::new(resolver);
    let mut healthy = SnapshotStore::new();
    let mut interner = SldInterner::new();
    let first_pass = SupervisorConfig {
        retry_passes: 0,
        ..SupervisorConfig::default()
    };
    sweep_with_path_supervised_metered(
        &world,
        &mut path,
        Source::Com,
        0,
        &mut healthy,
        &mut interner,
        &first_pass,
        &SweepMetrics::default(),
    );

    // Chaotic run, supervised.
    let mut chaotic = SnapshotStore::new();
    let mut interner = SldInterner::new();
    let (q, sent) = supervised_sweep(
        &world,
        Some(chaos_schedule()),
        5,
        0,
        3,
        &mut chaotic,
        &mut interner,
        None,
    );
    // Pinned: the exact fault handling and packet count of this sweep.
    let pinned = DayQuality {
        day: 0,
        source: Source::Com,
        attempted: 484,
        failed: 0,
        retried: 90,
        recovered: 90,
        causes: CauseCounts {
            timeouts: 109,
            other: 5,
            ..CauseCounts::default()
        },
        retry_passes: 3,
        breaker_trips: 13,
        hedges: 1630,
    };
    assert_eq!(q, pinned);
    assert_eq!(sent, 25_612);

    assert!(q.coverage() >= 0.99, "coverage {}", q.coverage());
    assert_eq!(q.failed, 0, "every dead-lettered name recovered");
    assert!(q.retried > 0, "the chaos schedule actually bit");
    assert!(q.causes.timeouts > 0, "blackout+loss show up as timeouts");
    assert!(q.hedges > 0, "stragglers were hedged");

    let h = healthy.table(0, Source::Com).expect("healthy table");
    let c = chaotic.table(0, Source::Com).expect("chaotic table");
    assert_eq!(h.rows(), c.rows());
    assert_eq!(
        h.to_bytes(),
        c.to_bytes(),
        "recovered snapshot diverged from the healthy one"
    );
}

/// Two sweeps with the same world seed, network seed and chaos schedule
/// produce byte-identical archives — quality records, telemetry and all.
#[test]
fn same_seed_chaos_sweeps_are_byte_identical() {
    let mut archives = Vec::new();
    for run in 0..2 {
        let mut world = World::imc2016(ScenarioParams {
            seed: 31,
            scale: 0.003,
            gtld_days: 2,
            cc_start_day: 2,
        });
        let mut store = SnapshotStore::new();
        let mut interner = SldInterner::new();
        for day in 0..2 {
            world.advance_to(Day(day));
            supervised_sweep(
                &world,
                Some(chaos_schedule()),
                40 + u64::from(day),
                day,
                2,
                &mut store,
                &mut interner,
                None,
            );
        }
        let path = temp_path(&format!("det-{run}"));
        std::fs::remove_file(&path).ok();
        store.save_archive(&path).expect("save archive");
        archives.push(std::fs::read(&path).expect("read archive"));
        std::fs::remove_file(&path).ok();
    }
    assert_eq!(
        archives[0], archives[1],
        "same seed + schedule must replay identically"
    );
}

/// Two same-seed chaos sweeps with full telemetry wiring render
/// byte-identical `metrics --json` output — both per day and merged —
/// and archive byte-identically, telemetry pages included.
#[test]
fn same_seed_chaos_telemetry_renders_identically() {
    let mut runs = Vec::new();
    for run in 0..2 {
        let mut world = World::imc2016(ScenarioParams {
            seed: 31,
            scale: 0.003,
            gtld_days: 2,
            cc_start_day: 2,
        });
        let mut store = SnapshotStore::new();
        let mut interner = SldInterner::new();
        for day in 0..2 {
            world.advance_to(Day(day));
            // One registry per day, like `dpscope measure --chaos`: each
            // day's telemetry page is a self-contained snapshot.
            let registry = Registry::new();
            supervised_sweep(
                &world,
                Some(chaos_schedule()),
                40 + u64::from(day),
                day,
                2,
                &mut store,
                &mut interner,
                Some(&registry),
            );
            store.add_telemetry(day, registry.snapshot());
        }
        let per_day: Vec<String> = (0..2)
            .map(|d| store.telemetry(d).expect("day telemetry").to_json())
            .collect();
        let merged = store.merged_telemetry();
        assert!(
            merged
                .counters
                .get("net.packets.sent")
                .copied()
                .unwrap_or(0)
                > 0,
            "network telemetry flowed"
        );
        assert!(
            merged.counters.get("sweep.attempted").copied().unwrap_or(0) > 0,
            "supervisor telemetry flowed"
        );
        let path = temp_path(&format!("telemetry-{run}"));
        std::fs::remove_file(&path).ok();
        store.save_archive(&path).expect("save archive");
        let bytes = std::fs::read(&path).expect("read archive");
        std::fs::remove_file(&path).ok();
        runs.push((per_day, merged.to_json(), bytes));
    }
    assert_eq!(runs[0].0, runs[1].0, "per-day metrics JSON diverged");
    assert_eq!(runs[0].1, runs[1].1, "merged metrics JSON diverged");
    assert_eq!(runs[0].2, runs[1].2, "archives with telemetry diverged");
}

/// A healthy sweep and a chaotic sweep over the same world disagree in
/// their chaos-facing telemetry (degraded packets, drops, retries) while
/// producing byte-identical data pages: faults show up in the metrics,
/// never in the measurements.
#[test]
fn chaos_telemetry_diverges_while_data_pages_match() {
    let mut world = World::imc2016(ScenarioParams {
        seed: 31,
        scale: 0.004,
        gtld_days: 3,
        cc_start_day: 3,
    });
    world.advance_to(Day(0));

    let healthy_reg = Registry::new();
    let mut healthy = SnapshotStore::new();
    let mut interner = SldInterner::new();
    supervised_sweep(
        &world,
        None,
        5,
        0,
        3,
        &mut healthy,
        &mut interner,
        Some(&healthy_reg),
    );

    let chaos_reg = Registry::new();
    let mut chaotic = SnapshotStore::new();
    let mut interner = SldInterner::new();
    supervised_sweep(
        &world,
        Some(chaos_schedule()),
        5,
        0,
        3,
        &mut chaotic,
        &mut interner,
        Some(&chaos_reg),
    );

    let h = healthy_reg.snapshot();
    let c = chaos_reg.snapshot();
    let counter =
        |s: &dps_scope::telemetry::Snapshot, name: &str| s.counters.get(name).copied().unwrap_or(0);

    assert_eq!(counter(&h, "net.chaos.degraded"), 0, "healthy run degraded");
    assert!(counter(&c, "net.chaos.degraded") > 0, "chaos never bit");
    assert!(
        counter(&c, "net.packets.dropped") + counter(&c, "net.packets.blackholed")
            > counter(&h, "net.packets.dropped") + counter(&h, "net.packets.blackholed"),
        "chaos run lost no more packets than the healthy one"
    );
    assert!(
        counter(&c, "sweep.retries") > counter(&h, "sweep.retries"),
        "chaos run retried no more than the healthy one"
    );

    let ht = healthy.table(0, Source::Com).expect("healthy table");
    let ct = chaotic.table(0, Source::Com).expect("chaotic table");
    assert_eq!(
        ht.to_bytes(),
        ct.to_bytes(),
        "telemetry diverged AND took the data with it"
    );
}

/// A day-long total outage cannot be recovered; it must surface as a
/// zero-coverage `DayQuality` record, be gated by the quality mask, and be
/// bridged (not counted as an exodus) by the masked growth analysis.
#[test]
fn full_outage_day_is_recorded_and_masked() {
    let mut world = World::imc2016(ScenarioParams {
        seed: 32,
        scale: 0.002,
        gtld_days: 3,
        cc_start_day: 3,
    });
    let mut store = SnapshotStore::new();
    let mut interner = SldInterner::new();
    for day in 0..3 {
        world.advance_to(Day(day));
        let schedule = (day == 1).then(|| ChaosSchedule::new().blackout(None, 0, u64::MAX));
        supervised_sweep(
            &world,
            schedule,
            60,
            day,
            1,
            &mut store,
            &mut interner,
            None,
        );
    }

    let outage = store.quality(1, Source::Com).expect("day 1 quality");
    assert_eq!(
        outage.coverage(),
        0.0,
        "nothing resolved through a blackout"
    );
    assert_eq!(outage.failed, outage.attempted);
    assert!(outage.causes.timeouts > 0);
    assert!(outage.breaker_trips > 0, "every server's breaker tripped");
    for day in [0, 2] {
        let q = store
            .quality(day, Source::Com)
            .expect("healthy-day quality");
        assert_eq!(q.failed, 0, "day {day}");
    }

    let mask = QualityMask::from_store(&store, DEFAULT_MIN_COVERAGE);
    assert!(mask.is_masked(1, Source::Com));
    assert!(!mask.is_masked(0, Source::Com));
    assert_eq!(mask.masked_gtld_days(), vec![1]);

    // Growth over the resolved-row counts: unmasked analysis sees a
    // day-long trough to zero; the masked analysis bridges it.
    let days: Vec<u32> = vec![0, 1, 2];
    let series: Vec<u32> = days
        .iter()
        .map(|&d| {
            let t = store.table(d, Source::Com).expect("table");
            let failed: u32 = t
                .column_by_name("failed")
                .expect("failed column")
                .iter()
                .sum();
            t.rows() as u32 - failed
        })
        .collect();
    assert_eq!(series[1], 0);
    assert!(series[0] > 0);

    let config = growth::GrowthConfig {
        median_window: 1,
        clean_anomalies: false,
        ..growth::GrowthConfig::default()
    };
    let unmasked = growth::analyze(&days, &series, &config);
    let masked = growth::analyze_masked(&days, &series, &config, &mask.masked_days(Source::Com));
    assert_eq!(
        unmasked.cleaned[1], 0.0,
        "unmasked analysis keeps the trough"
    );
    assert!(
        masked.cleaned[1] > 0.9 * f64::from(series[0]),
        "masked analysis bridges the outage: {}",
        masked.cleaned[1]
    );
    assert_eq!(masked.masked_days, vec![1]);
    assert_eq!(masked.raw[1], 0.0, "raw keeps the true measurement");
}

/// The `ci.sh chaos-smoke` scenario over five days.
const CLI_SCENARIO: [&str; 10] = [
    "--seed",
    "2016",
    "--scale",
    "0.004",
    "--days",
    "5",
    "--cc-start",
    "2",
    "--chaos",
    "blackout@0..1500ms; degrade@0..inf@loss=0.15",
];

fn dpscope() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dpscope"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dps-it-chaos-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// `dpscope <args> <dir> <extra>`, asserting success; returns stdout.
fn run_ok(args: &[&str], dir: &Path, extra: &[&str]) -> String {
    let out = dpscope()
        .args(args)
        .arg(dir)
        .args(extra)
        .output()
        .expect("spawn dpscope");
    assert!(
        out.status.success(),
        "dpscope {args:?} {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// `dpscope measure <CLI_SCENARIO> --archive <dir> <extra>`.
fn measure_chaos(dir: &Path, extra: &[&str]) -> String {
    let mut args = vec!["measure"];
    args.extend(CLI_SCENARIO);
    args.push("--archive");
    run_ok(&args, dir, extra)
}

fn archive_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join("archive.dps")).expect("read archive.dps")
}

/// A CLI chaos sweep commits a telemetry page per day whose study
/// counters agree with the archive: `measure.rows` is the catalog's data
/// row count, next to the network and supervisor counters of the wire.
#[test]
fn cli_chaos_sweep_counts_every_row_it_archives() {
    let dir = temp_dir("rows");
    let out = measure_chaos(&dir, &[]);
    let day_lines = out.lines().filter(|l| l.starts_with("day ")).count();
    assert_eq!(
        day_lines,
        5 * 3 + 3 * 2,
        "one line per (day, source): {out}"
    );

    let path = dir.join("archive.dps");
    let reader = StoreReader::open_auto(&path).expect("open archive");
    let catalog_rows: u64 = reader
        .catalog()
        .pages
        .iter()
        .filter(|((_, source), _)| usize::from(*source) < dps_scope::measure::SOURCES.len())
        .map(|(_, meta)| meta.rows)
        .sum();
    let merged = SnapshotStore::load_archive(&path)
        .expect("load archive")
        .merged_telemetry();
    let counter = |name: &str| merged.counters.get(name).copied().unwrap_or(0);
    assert!(catalog_rows > 0);
    assert_eq!(counter("measure.rows"), catalog_rows);
    assert_eq!(counter("measure.days"), 5);
    assert!(counter("measure.data.points") > 0);
    assert_eq!(counter("sweep.attempted"), catalog_rows);
    assert!(counter("net.packets.sent") > 0, "network telemetry flowed");
    std::fs::remove_dir_all(&dir).ok();
}

/// A chaos sweep SIGKILLed once a day is durable resumes from its last
/// committed day, and the finished archive is byte-identical to an
/// uninterrupted sweep's. Re-running over the finished archive is a
/// no-op.
#[test]
fn killed_chaos_sweep_resumes_byte_identically() {
    let straight = temp_dir("straight");
    let resumed = temp_dir("resumed");
    measure_chaos(&straight, &[]);

    std::fs::create_dir_all(&resumed).expect("archive dir");
    let mut child = dpscope()
        .arg("measure")
        .args(CLI_SCENARIO)
        .arg("--archive")
        .arg(&resumed)
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn dpscope measure --chaos");
    let archive_file = resumed.join("archive.dps");
    loop {
        // Kill only once at least one day's footer is durable: a file
        // with no valid footer yet is indistinguishable from corruption
        // and is (rightly) refused on resume.
        let committed =
            dps_scope::store::Archive::open(&archive_file).map_or(0, |a| a.catalog().pages.len());
        if committed > 0 || child.try_wait().expect("poll child").is_some() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    child.kill().ok();
    child.wait().ok();
    measure_chaos(&resumed, &[]);
    assert_eq!(
        archive_bytes(&straight),
        archive_bytes(&resumed),
        "resumed chaos archive must be byte-identical to uninterrupted"
    );

    let out = measure_chaos(&resumed, &[]);
    assert!(
        !out.lines().any(|l| l.starts_with("day ")),
        "a finished archive has no day left to sweep: {out}"
    );
    assert_eq!(archive_bytes(&straight), archive_bytes(&resumed));
    std::fs::remove_dir_all(&straight).ok();
    std::fs::remove_dir_all(&resumed).ok();
}

/// `--chaos --stream` checkpoints the incremental analysis of the wire
/// sweep, and that state equals a full rescan of the archive.
#[test]
fn chaos_stream_sweep_passes_stream_check() {
    let dir = temp_dir("stream");
    measure_chaos(&dir, &["--stream"]);
    let check = run_ok(&["stream", "check"], &dir, &[]);
    assert!(check.contains("matches full rescan"), "{check}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--chaos --shards 2` writes a sharded archive that verifies clean and
/// scans to the same series as the single-file chaos archive.
#[test]
fn sharded_chaos_sweep_verifies_and_scans_like_single_file() {
    let single = temp_dir("single");
    let sharded = temp_dir("sharded");
    measure_chaos(&single, &[]);
    measure_chaos(&sharded, &["--shards", "2"]);
    assert!(sharded.join("archive.manifest").exists());
    let verify = run_ok(&["store", "verify"], &sharded, &[]);
    assert!(verify.trim_end().ends_with(" 0 corrupt"), "{verify}");

    let scan = |dir: &Path| {
        let reader = StoreReader::open_auto(&dir.join("archive.dps")).expect("open archive");
        let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), reader.dict());
        let out = Scanner::new(&refs).run_store(&reader).expect("scan");
        format!("{:?}", out.series)
    };
    assert_eq!(scan(&single), scan(&sharded));
    std::fs::remove_dir_all(&single).ok();
    std::fs::remove_dir_all(&sharded).ok();
}

/// The live `measure --chaos` path resolves through one caching-recursor
/// worker per day. It archives the same data table for every (day,
/// source) as a bulk sweep of the same arguments, while sibling names
/// start their descent at cached zone cuts instead of the root: a handful
/// of packets per name, where descending from the root for every query
/// costs over 30.
#[test]
fn cli_wire_sweep_matches_bulk_pages_at_few_packets_per_name() {
    let bulk = temp_dir("bulk");
    let wire = temp_dir("wire");
    let args = [
        "measure",
        "--scale",
        "0.004",
        "--days",
        "3",
        "--cc-start",
        "2",
        "--archive",
    ];
    run_ok(&args, &bulk, &[]);
    run_ok(&args, &wire, &["--chaos", "degrade@0..inf@loss=0.02"]);

    let load = |dir: &Path| SnapshotStore::load_archive(&dir.join("archive.dps")).expect("load");
    let (bulk_store, wire_store) = (load(&bulk), load(&wire));
    let mut pages = 0;
    for source in dps_scope::measure::SOURCES {
        assert_eq!(bulk_store.days(source), wire_store.days(source));
        for day in bulk_store.days(source) {
            let table = |store: &SnapshotStore| store.table(day, source).expect("table").to_bytes();
            assert!(
                table(&bulk_store) == table(&wire_store),
                "day {day} {source:?}: wire data page differs from bulk"
            );
            pages += 1;
        }
    }
    assert_eq!(pages, 3 * 3 + 2, "every gTLD day plus the cc day");

    let merged = wire_store.merged_telemetry();
    let counter = |name: &str| merged.counters.get(name).copied().unwrap_or(0);
    let per_name = counter("net.packets.sent") as f64 / counter("sweep.attempted").max(1) as f64;
    assert!(per_name <= 8.0, "{per_name:.2} packets per name");
    assert!(
        counter("recursor.infra.hits") > 0,
        "no descent used the infra cache"
    );
    std::fs::remove_dir_all(&bulk).ok();
    std::fs::remove_dir_all(&wire).ok();
}

/// Runs a wire study of `days` days over a fresh world into `path`,
/// with a streaming-analysis observer when `stream`.
fn wire_study(path: &Path, days: u32, stream: bool) {
    let params = ScenarioParams {
        seed: 19,
        scale: 0.004,
        gtld_days: 6,
        cc_start_day: 2,
    };
    let mut world = World::imc2016(params);
    let mut engine = stream.then(dps_scope::stream::StreamEngine::new);
    Study::new(StudyConfig {
        days,
        cc_start_day: params.cc_start_day,
        stride: 1,
    })
    .with_chaos(chaos_schedule())
    .run_archived(
        &mut world,
        path,
        engine
            .as_mut()
            .map(|e| e as &mut dyn dps_scope::measure::DayObserver),
    )
    .unwrap();
}

/// Wire days run side by side, but the archive is the one a strictly
/// serial run writes: a reference built one day per `run_archived` call
/// (each over a fresh world, resuming the archive, so no two days ever
/// overlap) is byte-identical to one run keeping several days in flight
/// — with and without a streaming observer.
#[test]
fn pipelined_wire_days_match_a_day_by_day_serial_run() {
    const DAYS: u32 = 6;
    for stream in [false, true] {
        let serial = temp_path(&format!("serial-{stream}"));
        let pipelined = temp_path(&format!("pipelined-{stream}"));
        std::fs::remove_file(&serial).ok();
        std::fs::remove_file(&pipelined).ok();
        for days in 1..=DAYS {
            wire_study(&serial, days, stream);
        }
        wire_study(&pipelined, DAYS, stream);
        let (a, b) = (
            std::fs::read(&serial).unwrap(),
            std::fs::read(&pipelined).unwrap(),
        );
        std::fs::remove_file(&serial).ok();
        std::fs::remove_file(&pipelined).ok();
        assert!(
            a == b,
            "stream={stream}: pipelined archive differs from the serial one"
        );
        let store = {
            let path = temp_path(&format!("check-{stream}"));
            std::fs::write(&path, &a).unwrap();
            let store = SnapshotStore::load_archive(&path).unwrap();
            std::fs::remove_file(&path).ok();
            store
        };
        assert_eq!(store.days(Source::Com).len(), DAYS as usize);
    }
}
